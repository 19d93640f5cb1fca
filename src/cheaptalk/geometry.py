"""Pointwise costs, indifference hyperplanes, and pairwise action geometry.

The encoder pays ``||m - u - b||^2`` for source value ``m``, decoder action
``u`` and bias ``b``; the decoder pays ``||m - u||^2``.  Two decoder actions
split the source space along a hyperplane of encoder indifference, and any
two actions that can coexist at equilibrium must keep a minimum separation
relative to the bias direction.  This module provides those primitives as
pure functions; bins are represented implicitly through the argmin
assignment rule rather than explicit polytopes.

Sign convention: ``h_value(m, u_first, u_second, b) > 0`` exactly when the
encoder strictly prefers ``u_first``, so the first action's bin is the
half-space ``{h >= 0}``.  This is the convention forced by the cost
difference identity ``cost(m, u_second) - cost(m, u_first) = 2 h``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Hyperplane",
    "as_point",
    "encoder_cost",
    "decoder_cost",
    "h_value",
    "indifference_hyperplane",
    "geo_slack",
    "lambda_bar",
    "g_slack_transformed",
    "assign_action",
    "assign_actions_batch",
]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float vector, optionally of length ``dim``."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected a vector of length {dim}, got {p.shape[0]}")
    if not np.all(np.isfinite(p)):
        raise ValueError("vector entries must be finite")
    return p


def _is_whole(x) -> bool:
    """An integer or an integral float; booleans, fractions, nan and inf are not."""
    if isinstance(x, bool):
        return False
    if isinstance(x, numbers.Integral):
        return True
    return isinstance(x, numbers.Real) and float(x).is_integer()


def _whole(value, name: str, least: int = 0) -> int:
    """``value``, a whole number (numpy's too) of at least ``least``, as an int;
    the one rule for every count, size and seed the package takes.  Anything
    else raises ``ValueError`` whose message starts with ``name``."""
    if not _is_whole(value) or value < least:
        raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)


def _bias_case(b) -> str:
    """The ``theorem_case`` of a 2-D bias in the paper's linear-equilibrium
    split, for ``classify_linear_existence`` and the reveal constructor alike:
    a component within 1e-12 max(1, |b1|, |b2|) of zero is "zero-bias", b1 + b2
    "antisymmetric-bias", b1 - b2 "symmetry-required", anything else
    "gaussian-required".  The sum and difference are taken halved, which is
    exact past the zero test and cannot overflow."""
    b1, b2 = float(b[0]), float(b[1])
    tol = 1e-12 * max(1.0, abs(b1), abs(b2))
    if abs(b1) <= tol or abs(b2) <= tol:
        return "zero-bias"
    if abs(0.5 * b1 + 0.5 * b2) <= 0.5 * tol:
        return "antisymmetric-bias"
    if abs(0.5 * b1 - 0.5 * b2) <= 0.5 * tol:
        return "symmetry-required"
    return "gaussian-required"


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane ``{m : normal . (m - anchor) = 0}``.

    ``value`` is positive on the side the normal points into; membership is
    exact in this stored representation.
    """

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        normal = as_point(self.normal)
        anchor = as_point(self.anchor, dim=normal.shape[0])
        if not np.any(normal):
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "anchor", anchor)

    def value(self, m) -> float | np.ndarray:
        """Signed value ``normal . (m - anchor)``; accepts a point or an (N, n) batch."""
        m = np.asarray(m, dtype=float)
        return (m - self.anchor) @ self.normal


def encoder_cost(m, u, b) -> float:
    """Encoder cost ``sum_i (m_i - u_i - b_i)^2``."""
    m = as_point(m)
    u = as_point(u, dim=m.shape[0])
    b = as_point(b, dim=m.shape[0])
    d = m - u - b
    return float(d @ d)


def decoder_cost(m, u) -> float:
    """Decoder cost ``||m - u||^2``."""
    m = as_point(m)
    u = as_point(u, dim=m.shape[0])
    d = m - u
    return float(d @ d)


def h_value(m, u_first, u_second, b) -> float:
    """Signed indifference value between two decoder actions.

    Returns ``(m - ((u_first + u_second)/2 + b)) . (u_first - u_second)``:
    positive iff the encoder strictly prefers ``u_first`` over ``u_second``,
    zero exactly on the indifference hyperplane.
    """
    m = as_point(m)
    u1 = as_point(u_first, dim=m.shape[0])
    u2 = as_point(u_second, dim=m.shape[0])
    b = as_point(b, dim=m.shape[0])
    if np.array_equal(u1, u2):
        raise ValueError("indifference is undefined for identical actions")
    anchor = 0.5 * (u1 + u2) + b
    return float((m - anchor) @ (u1 - u2))


def indifference_hyperplane(u_first, u_second, b) -> Hyperplane:
    """The hyperplane where the encoder is indifferent between two actions.

    ``plane.value(m)`` equals ``h_value(m, u_first, u_second, b)``; the bin of
    ``u_first`` lies in ``{value >= 0}``.
    """
    u1 = as_point(u_first)
    u2 = as_point(u_second, dim=u1.shape[0])
    b = as_point(b, dim=u1.shape[0])
    if np.array_equal(u1, u2):
        raise ValueError("indifference is undefined for identical actions")
    return Hyperplane(normal=u1 - u2, anchor=0.5 * (u1 + u2) + b)


def geo_slack(u_a, u_b, b) -> float:
    """Slack of the pairwise separation condition for two decoder actions.

    Returns ``||u_b - u_a||^2 - 2 |(u_b - u_a) . b|``.  Nonnegative exactly
    when the pair can coexist at equilibrium; a negative value measures the
    margin of violation.  Symmetric in the two actions and invariant under a
    common translation.
    """
    u_a = as_point(u_a)
    u_b = as_point(u_b, dim=u_a.shape[0])
    b = as_point(b, dim=u_a.shape[0])
    d = u_b - u_a
    return float(d @ d - 2.0 * abs(d @ b))


def lambda_bar(u_a, u_b, b) -> float:
    """Position of the indifference plane along the segment from u_a to u_b.

    Returns ``(1 + 2 (u_b - u_a) . b / ||u_b - u_a||^2) / 2``, the affine
    coordinate at which the indifference hyperplane crosses the connecting
    line (0 at ``u_a``, 1 at ``u_b``).  Lies in [0, 1] iff ``geo_slack >= 0``.
    """
    u_a = as_point(u_a)
    u_b = as_point(u_b, dim=u_a.shape[0])
    b = as_point(b, dim=u_a.shape[0])
    d = u_b - u_a
    nsq = float(d @ d)
    if nsq == 0.0:
        raise ValueError("lambda_bar is undefined for coincident actions")
    return 0.5 * (1.0 + 2.0 * float(d @ b) / nsq)


def g_slack_transformed(y_a, y_b, b_tilde: float) -> float:
    """Separation slack in bias-concentrated 2-D coordinates.

    In coordinates where the whole bias sits on the second axis with
    magnitude ``b_tilde``, the pairwise condition for actions ``y_a, y_b``
    reads ``(dy1)^2 + (dy2)^2 - 2 b_tilde |dy2| >= 0``; this returns the
    left-hand side.
    """
    y_a = as_point(y_a, dim=2)
    y_b = as_point(y_b, dim=2)
    b_tilde = float(b_tilde)
    if b_tilde <= 0.0:
        raise ValueError("b_tilde must be positive")
    d = y_b - y_a
    return float(d[0] ** 2 + d[1] ** 2 - 2.0 * b_tilde * abs(d[1]))


def assign_action(m, actions, b) -> int:
    """Index of the encoder's preferred action for observation ``m``.

    Returns the smallest 0-based index attaining ``min_i encoder_cost(m, u_i, b)``;
    equivalently ``m`` lies in the intersection of the preferred half-spaces
    of that action.  Ties on indifference planes break to the lowest index.
    """
    m = as_point(m)
    return int(assign_actions_batch(m.reshape(1, -1), actions, b)[0])


def assign_actions_batch(points, actions, b) -> np.ndarray:
    """Vectorized ``assign_action`` for an (N, n) batch of points."""
    acts = np.asarray(getattr(actions, "actions", actions), dtype=float)
    if acts.ndim == 1:
        acts = acts.reshape(-1, 1)
    if acts.shape[0] == 0:
        raise ValueError("action set must be nonempty")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    b = as_point(b, dim=acts.shape[1])
    if pts.shape[1] != acts.shape[1]:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, actions {acts.shape[1]}"
        )
    return _assign_columns(np.ascontiguousarray((-2.0 * (pts - b)).T), acts)[0]


def _product(a, b, out=None) -> np.ndarray:
    """``a @ b`` for a (k, N) matrix ``b``, written into ``out`` when given,
    each column rounding as it does in any batch: numpy hands a single column
    to gemv, which rounds differently from gemm, so a lone column goes twice.

    The pair is laid out column-major, as a transposed batch is.  On x86
    OpenBLAS the rule holds while ``b`` has fewer than 16 rows; from 16 on,
    a row-major batch of up to four columns and a wide batch's last few
    columns take other gemm kernels, and the pair matches only the others.
    """
    if b.shape[1] != 1:
        return np.matmul(a, b, out=out)
    out = np.empty((a.shape[0], 1)) if out is None else out
    out[:] = np.matmul(a, np.repeat(b.T, 2, axis=0).T)[:, :1]
    return out


def _assign_targets(t, acts, scores, best, mask, idx, second=None) -> np.ndarray:
    """Lowest-index cheapest action for targets ``t = -2 (points - b).T``, shape (dim, N).

    ``||p - b - u||^2 = ||p - b||^2 - 2 (p - b).u + ||u||^2``; the first term
    is common to all actions and drops out, so the score of action ``j`` is
    ``(acts @ t)[j] + ||u_j||^2``.  In the running minimum over the K score
    rows a later action takes a point only when strictly cheaper, so ties
    keep the lowest index, as ``argmin`` would.  ``scores`` (K, N), ``best``,
    ``mask`` and ``idx`` (N,) are caller-owned buffers; ``idx`` is returned
    and ``best`` ends as each point's lowest score.  Given a ``second`` (N,)
    buffer, it ends as the lowest score among the other actions (+inf for
    K = 1).  Each score depends only on its own point, so scoring any subset
    of the columns of ``t`` gives those columns' full-set scores bit for bit,
    within the limit ``_product`` states.
    """
    _product(acts, t, out=scores)
    scores += np.sum(acts * acts, axis=1)[:, None]
    np.copyto(best, scores[0])
    idx.fill(0)
    if second is not None:
        second.fill(np.inf)
    for j in range(1, acts.shape[0]):
        np.less(scores[j], best, out=mask)
        np.putmask(idx, mask, j)
        if second is not None:
            # the runner-up is the lower of the old runner-up and the larger
            # of (best, score j); row 0 is spent and serves as scratch
            np.maximum(best, scores[j], out=scores[0])
            np.minimum(second, scores[0], out=second)
        np.minimum(best, scores[j], out=best)
    return idx


def _assign_columns(t, acts, second: bool = False):
    """``_assign_targets`` on fresh buffers: (idx, best, second or None) per column."""
    m = t.shape[1]
    best, runner_up = np.empty(m), (np.empty(m) if second else None)
    idx = _assign_targets(
        t, acts, np.empty((acts.shape[0], m)), best, np.empty(m, dtype=bool),
        np.empty(m, dtype=np.intp), runner_up,
    )
    return idx, best, runner_up
