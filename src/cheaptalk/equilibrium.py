"""Equilibrium candidates and their verification.

Three solver layers:

* ``solve_fixed_point`` -- Lloyd-style simultaneous best-response iteration
  for a K-action quantizer in any dimension.  Encoder best response assigns
  each evaluation point to its cheapest action (bias included); decoder best
  response moves every action to its bin's conditional mean.  Fixed points
  satisfy both equilibrium conditions on the discretized measure, but the
  output is a *candidate* and should be passed to ``verify_equilibrium``.
* ``solve_scalar_biased`` -- the one-dimensional biased quantizer solved by
  monotone shooting on an outer boundary.  Interior boundaries satisfy
  ``l_i = (u_i + u_{i+1})/2 + beta`` and every action is its bin's
  conditional mean.
* ``construct_reveal_plus_quantize`` -- the decoupling construction: an
  orthonormal change of variables concentrates the bias on the last
  coordinate, the first ``n - 1`` transformed coordinates are revealed
  (approximated by a fine uniform grid), and the last coordinate carries a
  scalar biased quantizer.

``verify_equilibrium`` checks a policy against the necessary and sufficient
conditions: pairwise separation slack, centroid residuals, and a Monte
Carlo search for profitable encoder deviations, plus both players' expected
costs.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
import os
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from ._ndtr import ndtri
from .errors import BinDeathError, DimensionMismatchError, InfeasibleBinCountError
from .geometry import (_assign_columns, _assign_targets, _bias_case, _whole, as_point,
                       assign_actions_batch)
from .sources import (
    _SAMPLE_CHUNK,
    _TRUNCATION_EPS,
    GAUSSIAN,
    EstimateWithError,
    SourceModel,
    _finite_parameters,
    _sorted_pairs,
    _stable_order,
    _support_box_range,
    _window_curve,
    iid_gaussian,
    iid_model,
    truncated_moments_1d,
)
from .transforms import (
    LinearTransform,
    _apply_batch,
    bias_aligning_transform,
    permutation_transform,
)

__all__ = [
    "ActionSet",
    "SolverConfig",
    "FixedPointResult",
    "ScalarQuantizer",
    "QuantizerPolicy",
    "RevealQuantizePolicy",
    "CertificateCheck",
    "EquilibriumCertificate",
    "LinearEquilibriumReport",
    "best_response_step",
    "solve_fixed_point",
    "solve_scalar_biased",
    "construct_reveal_plus_quantize",
    "verify_equilibrium",
    "verify_linear_equilibrium",
    "expected_distortions",
]

@dataclass(eq=False)
class ActionSet:
    """A finite set of decoder actions, one row per action.

    Exactly coincident actions are merged (keeping first occurrence order);
    entries must be finite.
    """

    actions: np.ndarray

    def __post_init__(self):
        acts = np.asarray(self.actions, dtype=float)
        if acts.ndim == 1:
            acts = acts.reshape(-1, 1)
        if acts.ndim != 2 or acts.shape[0] < 1:
            raise ValueError("an action set needs at least one action row")
        if not np.all(np.isfinite(acts)):
            raise ValueError("actions must be finite")
        _, first = np.unique(acts, axis=0, return_index=True)
        if first.shape[0] < acts.shape[0]:
            acts = acts[np.sort(first)]
        self.actions = acts

    @property
    def k(self) -> int:
        return self.actions.shape[0]

    @property
    def dim(self) -> int:
        return self.actions.shape[1]


@dataclass
class SolverConfig:
    """Knobs for the fixed-point iteration.

    Every sweep moves each action to its bin's conditional mean, the
    decoder's best response.  The solve stops on an exact fixed point of the
    evaluation measure (movement 0.0), once the largest action movement is
    below ``tolerance``, or after ``max_iterations`` sweeps.
    ``max_iterations`` and ``samples`` must be whole numbers of at least 1
    and ``seed`` of at least 0.
    """

    tolerance: float = 1e-8
    max_iterations: int = 500
    samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        self.max_iterations = _whole(self.max_iterations, "max_iterations", 1)
        self.samples = _whole(self.samples, "samples", 1)
        self.seed = _whole(self.seed, "seed")


@dataclass(eq=False)
class FixedPointResult:
    """A Lloyd solve's last actions and what its sweeps did.

    ``stop_reason`` is "fixed point" (the actions are the exact means of
    their bins and assign every point as before; movement 0.0),
    "tolerance" (the exact means of the last assignment moved by less than
    ``tolerance``) or "cap" (``max_iterations`` sweeps; the last sweep's
    means, exact to within rounding).  ``movements``, ``rescored`` and
    ``changed`` hold one entry per sweep of the last (re)start: the largest
    action movement, the points whose action was scored, and the points
    whose action changed.
    """

    actions: ActionSet
    iterations: int
    movements: list[float]
    stop_reason: str
    restarts: int = 0
    rescored: list[int] = field(default_factory=list)
    changed: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"


# -- evaluation measures --------------------------------------------------------


def _evaluation_measure(model: SourceModel, samples: int, seed: int):
    """(points, weights) representing the source for expectation sweeps.

    Exact tensor-grid cells for dimension <= 2 (and tabulated tables);
    seeded Monte Carlo with uniform weights otherwise.  The measure is drawn
    once per solve so the Lloyd iteration is deterministic and converges
    exactly on it.
    """
    samples, seed = _whole(samples, "samples", 1), _whole(seed, "seed")
    if model.dim <= 2:
        return model.quadrature_cells(samples)
    pts = model.sample(samples, seed)
    return pts, np.full(pts.shape[0], 1.0 / pts.shape[0])


# Bounded sweeps.  Between sweeps a ``_SweepMeasure`` keeps each point's
# action index and a lower bound on its gap D_2 - D_i, where D_i is the
# distance from the point's target q = p - b to its assigned action and D_2
# the distance to the nearest other action.  An action that moves by
# delta_j changes every distance to it by at most delta_j, so after a sweep
# the gap of a point assigned to i has fallen by at most
# delta_i + max_{j != i} delta_j; only the points whose lowered bound is
# within the margin below are scored again.
#
# Why the kept indices are those a full rescore gives, bit for bit.  Let
# s >= ||u_j|| + ||q|| for every action and target since the last full
# sweep, d the dimension and u = 2**-53 the unit roundoff (eps = 2u).  A
# computed score (the gemm dot product, the squared action norm and their
# sum) is off from the exact ||q - u_j||^2 - ||q||^2 by at most
# E = (d + 2) u s^2, whatever the summation order and whether or not it is
# fused.
#  * Keep: if the exact gap G > sqrt(2E), then for every j != i
#    s_j - s_i = (D_j - D_i)(D_j + D_i) >= G^2 > 2E, so every other
#    computed score exceeds the computed score of i and the full pass's
#    strict running minimum returns i.
#  * Refresh: a rescored gap is sqrt(s_2 + ||q||^2) - sqrt(s_i + ||q||^2)
#    from computed values; the squared distances under the roots are off by
#    at most E' = (2d + 4) u s^2 and |sqrt(x) - sqrt(y)| <= sqrt(|x - y|),
#    so the stored gap exceeds G by at most 2 sqrt(E') + 3 u s (two roots
#    and one subtraction, each rounding by at most u s).
#  * Drift: each movement is a computed norm, off by a relative (d + 4) u
#    and at most 2s, and each sweep's subtraction from a gap rounds by at
#    most u s; adding 4 (d + 6) eps s to every drop covers both.
# So a point whose stored gap exceeds
# sqrt(2E) + 2 sqrt(E') + 3 u s <= 4 sqrt((d + 2) eps) s keeps its index;
# the last term of the bound leaves room for the rounding of s itself.
_EPS = float(np.finfo(float).eps)
# A sweep scores every point when more than this share of them is due for a
# rescore: gathering the columns makes a bounded rescore dearer per point.
_FULL_SWEEP_SHARE = 0.3
# An action's bin dies when its mass is at most this.
_DEAD_MASS = 1e-15

# Bin sums.  A ``_SweepMeasure`` also keeps, per action, the sums of ``wx``
# (each point's weight, then its weighted coordinates) over the points
# assigned to it: the bin mass and the dim coordinate sums the means divide.
# A sweep that scored every point sums them in full (one ``bincount`` a row,
# bit for bit those of an unprepared sweep); a bounded sweep moves only its
# changed points' columns from the old bin to the new one, which rounds, so
# its means are exact only to within rounding.  Three rules keep every
# answer the solve stops on the exact means of its last assignment:
#  * a sweep that changed no point sums in full, and its means count as a
#    fixed point only if a bounded assignment of them changes no point;
#  * a bin is judged dead on full sums.  Let W be the total weight and u
#    the unit roundoff.  To first order a full sum of a mass is off from the
#    exact one by at most N u W, and an update of m points by at most
#    2 m u W (two sums of at most m terms, their difference, the add into
#    the bin), so an updated mass is off from the full sum it stands for by
#    at most ``drift`` = N eps W plus (m + 2) eps W per update, and a mass
#    above _DEAD_MASS + drift is alive on full sums too;
#  * a solve that stops on ``tolerance`` reports the means of full sums.


def _distance_gaps(second: np.ndarray, best: np.ndarray, sq: np.ndarray) -> None:
    """Overwrite ``second`` with ``sqrt(second + sq) - sqrt(best + sq)``
    (``best`` is overwritten too); a sum that rounds below zero counts as 0."""
    for a in (second, best):
        a += sq
        np.maximum(a, 0.0, out=a)
        np.sqrt(a, out=a)
    second -= best


def _bin_sums(idx: np.ndarray, wx: np.ndarray, k: int) -> np.ndarray:
    """(rows, k): each row of ``wx`` summed over the points ``idx`` assigns to each action."""
    return np.stack([np.bincount(idx, weights=row, minlength=k) for row in wx])


class _SweepMeasure:
    """What a Lloyd solve keeps from sweep to sweep on one measure and bias.

    Fixed: the assignment targets ``-2 (pts - b)`` transposed to (dim, N),
    the squared norms ``||pts - b||^2``, and ``wx``, the weights over the
    weighted coordinates ``w * pts.T``, (dim + 1, N).  Carried: each point's
    action index, the lower bound on its gap, the actions they refer to, the
    bin sums ``sums`` (dim + 1, K) of that assignment and their rounding
    bound ``drift`` (see the notes above), and the buffers every sweep
    reuses.  ``exact`` says the sums are full sums of the assignment.
    After a sweep, ``rescored`` and ``changed`` count the points it scored
    and the points whose action it changed (all N on the first sweep and
    after a change of K), and ``fixed`` says its means are a confirmed
    fixed point.
    """

    def __init__(self, pts: np.ndarray, w: np.ndarray, b: np.ndarray):
        n, dim = pts.shape
        self.t = np.ascontiguousarray((-2.0 * (pts - b)).T)
        self.sq = np.einsum("ij,ij->j", self.t, self.t) * 0.25
        self.radius = math.sqrt(float(np.max(self.sq)))
        self.wx = np.empty((dim + 1, n))  # row-contiguous for bincount
        self.wx[0] = w
        np.multiply(w, pts.T, out=self.wx[1:])
        self.total = float(np.sum(w))
        self.scores = np.empty((0, n))
        self.best = np.empty(n)
        self.gap = np.empty(n)
        self.mask = np.empty(n, dtype=bool)
        self.idx = np.empty(n, dtype=np.intp)
        self.acts = self.sums = None
        self.scale = self.drift = 0.0
        self.exact = self.fixed = False
        self.rescored = self.changed = 0

    def sweep(self, acts: np.ndarray) -> np.ndarray:
        """The decoder's best response to ``acts``: each bin's weighted mean, (K, dim).

        Raises :class:`BinDeathError` with the lowest dead index.
        """
        k = acts.shape[0]
        self.fixed = False
        self.assign(acts)
        if not self.exact and (
            self.changed == 0 or np.min(self.sums[0]) <= _DEAD_MASS + self.drift
        ):
            self.sum_all(k)
        dead = np.flatnonzero(self.sums[0] <= _DEAD_MASS)
        if dead.size:
            raise BinDeathError(int(dead[0]))
        means = self.means()
        if self.changed == 0:
            # exact means of an unchanged assignment: a fixed point if they keep it
            rescored = self.rescored
            self.assign(means)
            self.rescored += rescored
            self.fixed = self.changed == 0
            if not self.exact:
                self.sum_all(k)  # so that ``exact`` vouches for the means returned
        return means

    def means(self) -> np.ndarray:
        """The bin means of the carried sums, (K, dim)."""
        return np.ascontiguousarray((self.sums[1:] / self.sums[0]).T)

    def assign(self, acts: np.ndarray) -> np.ndarray:
        """Index of each point's cheapest action; valid until the next call.

        Equal, bit for bit, to ``_assign_targets`` over all points: only the
        points whose gap bound no longer clears the margin are scored again.
        The bin sums follow the assignment.
        """
        prev, self.acts = self.acts, None  # no carried state if this sweep stops midway
        k, dim = acts.shape
        n = self.idx.shape[0]
        reach = self.radius + math.sqrt(float(np.max(np.sum(acts * acts, axis=1))))
        if prev is None or prev.shape[0] != k:
            self._score_all(acts, reach, compare=False)
        else:
            self.scale = max(self.scale, reach)
            step = np.sqrt(np.sum((acts - prev) ** 2, axis=1))
            top = int(np.argmax(step))
            other = np.full(k, step[top])
            other[top] = np.max(np.delete(step, top), initial=0.0)
            drop = step + other + 4.0 * (dim + 6) * _EPS * self.scale
            np.take(drop, self.idx, out=self.best, mode="clip")
            self.gap -= self.best
            margin = 4.0 * math.sqrt((dim + 2) * _EPS) * self.scale
            # written as "not above" so that a NaN gap (a squared norm past
            # the float range) is always due
            np.greater(self.gap, margin, out=self.mask)
            cand = np.flatnonzero(np.logical_not(self.mask, out=self.mask))
            if cand.size > _FULL_SWEEP_SHARE * n:
                self._score_all(acts, reach, compare=True)
            else:
                self._rescore(acts, cand)
        self.acts = acts.copy()
        return self.idx

    def sum_all(self, k: int) -> None:
        """Sum the bins of the assignment in full."""
        self.sums = _bin_sums(self.idx, self.wx, k)
        self.drift = self.idx.shape[0] * _EPS * self.total
        self.exact = True

    def _score_all(self, acts: np.ndarray, reach: float, compare: bool) -> None:
        n = self.idx.shape[0]
        if self.scores.shape[0] != acts.shape[0]:
            self.scores = np.empty((acts.shape[0], n))
        old = self.idx.copy() if compare else None
        _assign_targets(self.t, acts, self.scores, self.best, self.mask, self.idx, self.gap)
        _distance_gaps(self.gap, self.best, self.sq)
        self.scale = reach
        self.rescored = n
        self.changed = n if old is None else int(np.count_nonzero(old != self.idx))
        self.sum_all(acts.shape[0])

    def _rescore(self, acts: np.ndarray, cand: np.ndarray) -> None:
        self.rescored, self.changed = cand.size, 0
        if cand.size == 0:
            return
        idx, best, second = _assign_columns(np.take(self.t, cand, axis=1), acts, second=True)
        _distance_gaps(second, best, self.sq[cand])
        moved = np.flatnonzero(idx != self.idx[cand])
        self.changed = moved.size
        if moved.size:
            at, k = cand[moved], acts.shape[0]
            cols = self.wx[:, at]
            self.sums += _bin_sums(idx[moved], cols, k) - _bin_sums(self.idx[at], cols, k)
            self.drift += (moved.size + 2) * _EPS * self.total
            self.exact = False
        self.idx[cand] = idx
        self.gap[cand] = second


def best_response_step(
    actions: ActionSet,
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
    _measure=None,
) -> ActionSet:
    """One simultaneous best-response sweep.

    Evaluation points are assigned to their cheapest action under the
    encoder cost (ties to the lowest index), then each action moves to its
    bin's conditional mean.  ``_measure`` is a ``_SweepMeasure`` prepared
    for the same bias, or None to draw one from ``samples`` and ``seed``.
    On a fresh measure, and on a prepared one whenever the sweep scored
    every point or changed none, the means are the exact means of the
    bins; a prepared sweep that rescored part of the points and changed
    some updates the bin sums from those points, so its means are exact
    to within rounding.  A sweep from an exact fixed point returns bitwise
    the same actions.  Raises :class:`BinDeathError` with the dying index
    when a bin receives no mass.
    """
    b = as_point(b, dim=actions.dim)
    if _measure is None:
        _measure = _SweepMeasure(*_evaluation_measure(model, samples, seed), b)
    return ActionSet(_measure.sweep(actions.actions))


def _weighted_quantiles(values: np.ndarray, weights: np.ndarray, qs: np.ndarray) -> np.ndarray:
    order, v = _stable_order(values)
    w = weights[order]
    cum = np.cumsum(w)
    cum /= cum[-1]
    return v[np.clip(np.searchsorted(cum, qs, side="left"), 0, v.shape[0] - 1)]


def _initial_actions(model: SourceModel, b: np.ndarray, k: int, pts: np.ndarray,
                     weights: np.ndarray, jitter_seed: int | None = None) -> ActionSet:
    """K starting actions: evenly spaced quantiles along the bias direction,
    jittered by a seeded draw on a restart."""
    norm = float(np.linalg.norm(b))
    direction = b / norm if norm > 0 else np.eye(model.dim)[0]
    proj = (pts - model.mean_vector) @ direction
    qs = (np.arange(k) + 0.5) / k
    offsets = _weighted_quantiles(proj, weights, qs)
    acts = model.mean_vector + offsets[:, None] * direction
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        spread = max(
            float(np.diff(_weighted_quantiles(proj, weights, np.array([0.1, 0.9])))[0]),
            1e-9,
        )
        acts = acts + rng.normal(scale=0.05 * spread, size=acts.shape)
    return ActionSet(acts)


def solve_fixed_point(model: SourceModel, b, k: int, config: SolverConfig | None = None) -> FixedPointResult:
    """Iterate best-response sweeps until the actions stop moving.

    The evaluation measure is drawn and prepared once per solve.  The solve
    stops on the first of: an exact fixed point of the measure (the bins'
    exact means, which a fresh assignment leaves unchanged; movement 0.0),
    a movement below ``config.tolerance`` (measured from the exact means of
    the last assignment, which it returns), or ``config.max_iterations``
    sweeps; ``stop_reason`` names which, and the first two count as
    converged.  Returns a candidate equilibrium; bin death triggers up to
    three jittered re-initializations before the error propagates.
    Non-convergence is reported in the result, not raised.
    """
    config = config or SolverConfig()
    b = as_point(b, dim=model.dim)
    k = _whole(k, "k", 1)
    pts, w = _evaluation_measure(model, config.samples, config.seed)
    measure = _SweepMeasure(pts, w, b)

    restarts = 0
    while True:
        actions = _initial_actions(
            model, b, k, pts, w, jitter_seed=None if restarts == 0 else config.seed + restarts,
        )
        movements: list[float] = []
        rescored: list[int] = []
        changed: list[int] = []
        try:
            reason = "cap"
            for it in range(1, config.max_iterations + 1):
                new = best_response_step(actions, model, b, _measure=measure)
                if measure.fixed:
                    movement = 0.0
                else:
                    movement = float(np.max(np.abs(new.actions - actions.actions)))
                    if movement < config.tolerance and not measure.exact:
                        # a tolerance stop reports the exact means of the last assignment
                        measure.sum_all(k)
                        new = ActionSet(measure.means())
                        movement = float(np.max(np.abs(new.actions - actions.actions)))
                if new.k < actions.k:
                    raise BinDeathError(actions.k - 1, "actions merged during the sweep")
                movements.append(movement)
                rescored.append(measure.rescored)
                changed.append(measure.changed)
                actions = new
                if measure.fixed or movement < config.tolerance:
                    reason = "fixed point" if measure.fixed else "tolerance"
                    break
            return FixedPointResult(
                actions=actions, iterations=it, movements=movements, stop_reason=reason,
                restarts=restarts, rescored=rescored, changed=changed,
            )
        except BinDeathError:
            restarts += 1
            if restarts > 3:
                raise


# -- scalar biased quantizer ----------------------------------------------------


@dataclass(eq=False)
class ScalarQuantizer:
    """K-bin equilibrium of the scalar problem with encoder bias ``beta``.

    ``boundaries`` has K + 1 entries including the support ends (infinite
    for unbounded families); ``actions`` are the bin conditional means.
    Interior boundaries sit at ``(u_i + u_{i+1})/2 + beta``.
    """

    model: SourceModel
    beta: float
    boundaries: np.ndarray
    actions: np.ndarray

    @property
    def k(self) -> int:
        return self.actions.shape[0]

    def distortion(self) -> float:
        """Expected squared error of the quantizer (decoder cost)."""
        total = 0.0
        for j in range(self.k):
            mass, mean, second = truncated_moments_1d(self.model, self.boundaries[j], self.boundaries[j + 1])
            if mass > 0.0:
                u = self.actions[j]
                total += mass * (second - 2.0 * u * mean + u * u)
        return float(total)


def _brentq(f, a: float, b: float, scale: float, fa: float | None = None,
            fb: float | None = None) -> float:
    """Root of f in [a, b] at the scalar solver's tolerances.

    Brent's method step for step as ``scipy.optimize.brentq`` runs it
    (``xtol = 1e-13*scale``, ``rtol = 8.9e-16``, at most 100 iterations),
    so the root is the same, and so is the number of evaluations of f when
    ``fa`` and ``fb`` are not given.  A caller that already holds f(a) or
    f(b) passes it as ``fa`` or ``fb``, and that end is not evaluated again.
    Raises ValueError when f returns NaN or f(a) and f(b) have the same
    sign, and RuntimeError when the iterations run out.
    """
    xtol, rtol = 1e-13 * scale, 8.9e-16

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x:.6g} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = call(xpre) if fa is None else fa
    fcur = call(xcur) if fb is None else fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # an underflowed denominator gives C an inf or nan step, which bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur!r}")


def _next_boundary(model: SourceModel, start: float, target: float, end: float, scale: float, s: float):
    """Nearest x past ``start`` in direction ``s`` (+1 up, -1 down) at which the
    bin between ``start`` and ``x`` has conditional mean ``target``; None when
    the target is out of reach before the support end ``end``.

    Each evaluation reads the marginal's start-fixed kernel, ``(mass, mean)``
    of the bin between ``start`` and ``x``.  No x is evaluated twice: the
    values at the bracket ends go into ``_brentq`` with them."""
    kernel = model.marginals[0].mass_mean_from(start)

    def g(x):
        mass, mean = kernel(x)
        if mass <= 0.0 or not math.isfinite(mean):
            return -s
        return mean - target

    g_far = g(end)
    if s * g_far <= 0.0:
        return None  # the target centroid is unreachable before the support end
    near = start + s * (1e-13 * scale)
    g_near = g(near)
    if s * g_near >= 0.0:
        return near
    far = end
    if not math.isfinite(end):
        far = start + s * max(scale, abs(target - start))
        for _ in range(200):
            g_far = g(far)
            if s * g_far > 0.0:
                break
            far = start + (far - start) * 2.0
        else:
            return None
    # the smaller end first: brentq's iterates, so the root's last bits, depend on the order
    if s > 0:
        return _brentq(g, near, far, scale, g_near, g_far)
    return _brentq(g, far, near, scale, g_far, g_near)


def _shoot(model: SourceModel, beta: float, k: int, x0: float, lo: float, hi: float, scale: float, s: float,
           trunks: dict):
    """The Crawford-Sobel recursion run from one outer boundary ``x0``.

    ``s = +1`` starts at the first boundary and walks up, ``s = -1`` starts
    at the last and walks down: each step sets the next action from
    ``l_i = (u_i + u_{i+1})/2 + beta`` and finds the next boundary at which
    that action is its bin's conditional mean.  Returns ``(residual, bounds,
    actions)`` with bounds and actions in increasing order.  The residual,
    the last action reached minus the mean of the bin left at the far end,
    increases in ``x0``.  A recursion whose bins collapse (``x0`` too far
    back) returns ``-s * 1e30`` and one that overflows the support (too far
    ahead) ``s * 1e30``, both without bounds.  Every bin, the first, each
    searched one and the end bin, is read through the marginal's start-fixed
    kernel ``mass_mean_from``.

    A shoot's first K - 2 boundaries do not depend on K.  ``trunks`` maps
    each shooting point to its recursion as far as it has been grown:
    ``bounds`` and ``actions`` in shooting order, and ``ended``, the
    stand-in residual of the step that collapsed or overflowed the support
    (None while it can still grow).  A shoot at a smaller K reads the
    recursion an earlier shoot grew, and one at a larger K grows it further.
    """
    end = hi if s > 0 else lo
    marginal = model.marginals[0]
    trunk = trunks.get(x0)
    if trunk is None:
        mass, u = marginal.mass_mean_from(lo if s > 0 else hi)(x0)
        trunk = trunks[x0] = SimpleNamespace(bounds=[x0], actions=[u], ended=None if mass > 0.0 else -s * 1e30)
    bounds, actions = trunk.bounds, trunk.actions
    while len(actions) < k:
        if trunk.ended is not None:
            return trunk.ended, None, None
        if len(bounds) < len(actions):  # the boundary at which the last action is its bin's mean
            nxt = _next_boundary(model, bounds[-1], actions[-1], end, scale, s)
            if nxt is None:
                trunk.ended = s * 1e30
            else:
                bounds.append(nxt)
            continue
        u = 2.0 * (bounds[-1] - beta) - actions[-1]
        if s * u <= s * bounds[-1]:
            trunk.ended = -s * 1e30
        else:
            actions.append(u)
    end_mass, end_mean = marginal.mass_mean_from(bounds[k - 2])(end)
    if end_mass <= 0.0:
        return s * 1e30, None, None
    residual = actions[k - 1] - end_mean
    bounds, actions = bounds[:k - 1], actions[:k]
    if s < 0:
        bounds.reverse()
        actions.reverse()
    return residual, bounds, actions


_TAIL_SDS = np.array([7.0, 9.0, 12.0, 16.0, 21.0, 27.0, 34.0])
# quantile points of the grid bisected for the shooting residual's sign change
_SCAN_POINTS = 257


@functools.lru_cache(maxsize=64)
def _scan_quantiles(marginal, mean_sign: float) -> np.ndarray:
    """The 1e-9 .. 1 - 1e-9 quantiles of ``_scan_grid``, computed once per
    marginal and read-only.  Equal frozen marginals may differ in the sign of
    a zero mean, which a laplace grid keeps at q = 1/2 (0.0 or -0.0), so
    that sign is part of the key."""
    eps = 1e-9
    grid = np.asarray(marginal.ppf(np.linspace(eps, 1.0 - eps, _SCAN_POINTS)), dtype=float)
    grid.setflags(write=False)
    return grid


def _scan_grid(model: SourceModel, beta: float) -> np.ndarray:
    """Strictly increasing grid points for the shooting variable.

    The 1e-9 .. 1 - 1e-9 quantiles, extended into an unbounded tail on the
    side the bias pushes bins into (far-tail bins sit beyond any quantile
    grid).  Only tail points past the outermost quantile are kept: a heavy
    tail's extreme quantiles lie beyond 7 sd.
    """
    marginal = model.marginals[0]
    grid = _scan_quantiles(marginal, math.copysign(1.0, getattr(marginal, "mean", 1.0)))
    sd = math.sqrt(model.marginal_variance(0))
    s = -1.0 if beta >= 0.0 else 1.0  # the shooting direction; the tail lies at -s
    if not math.isfinite(marginal.hi if s < 0 else marginal.lo):
        ext = model.mean[0] - s * sd * _TAIL_SDS
        grid = np.sort(np.concatenate([grid, ext[(ext < grid[0]) | (ext > grid[-1])]]))
    return grid


def solve_scalar_biased(model: SourceModel, beta: float, k: int) -> ScalarQuantizer:
    """Solve the K-bin scalar equilibrium by monotone shooting on one boundary.

    One recursion, ``_shoot``, runs in either direction.  A nonnegative bias
    pushes the extra bins toward the upper tail, so it runs down from the
    last boundary (``s = -1``); a negative bias mirrors that and it runs up
    from the first (``s = +1``).  Either way the masses grow as the recursion
    proceeds, so errors attenuate instead of amplifying.  The residual
    increases in the shooting variable, so a bisection of ``_scan_grid``
    finds the grid pair across which it turns nonnegative, and ``brentq``
    refines the root inside that pair.  Raises
    :class:`InfeasibleBinCountError` (reporting the maximum feasible bin
    count) when no K-bin configuration fits the support.
    """
    if model.dim != 1:
        raise DimensionMismatchError("the scalar solver needs a 1-D source model")
    k = _whole(k, "k", 1)
    _finite_parameters(beta=beta)
    if k == 1:
        lo, hi = model.marginals[0].lo, model.marginals[0].hi
        _, mean, _ = truncated_moments_1d(model, lo, hi)
        return ScalarQuantizer(
            model=model, beta=float(beta),
            boundaries=np.array([lo, hi]), actions=np.array([mean]),
        )
    # each shooting point's recursion, shared by the K solved in this call
    trunks = {}
    quant = _solve_bins(model, beta, k, trunks)
    if quant is not None:
        return quant
    # the largest smaller K that fits, one solve per K from K - 1 down; one bin always fits
    max_feasible = next(
        (j for j in range(k - 1, 1, -1) if _solve_bins(model, beta, j, trunks) is not None), 1)
    raise InfeasibleBinCountError(requested=k, max_feasible=max_feasible)


def _solve_bins(model: SourceModel, beta: float, k: int, trunks: dict) -> ScalarQuantizer | None:
    """The K-bin equilibrium (K >= 2) of ``solve_scalar_biased``, or None
    when the shooting residual has no root on the scan grid.  ``trunks``
    holds the recursions of ``_shoot`` that earlier solves of the same call grew."""
    lo, hi = model.marginals[0].lo, model.marginals[0].hi
    scale = max(math.sqrt(model.marginal_variance(0)), 1e-12)
    s = -1.0 if beta >= 0.0 else 1.0

    # one shoot per point: the bisection, brentq's bracket ends and the root share them
    shoot = functools.cache(lambda x: _shoot(model, beta, k, x, lo, hi, scale, s, trunks))

    def residual(x):
        return shoot(x)[0]

    # python floats: numpy scalars would slow every step of the recursion
    xs = _scan_grid(model, beta).tolist()
    # the residual increases in x: its first grid point at or above zero ends the bracket
    i = bisect.bisect_left(xs, 0.0, key=residual)
    if i == 0 or i == len(xs):
        return None

    x_star = _brentq(residual, xs[i - 1], xs[i], scale)
    resid, bounds, actions = shoot(x_star)
    if bounds is None or abs(resid) > 1e-8 * scale:
        # brentq can land on a feasibility jump rather than a true root
        return None
    return ScalarQuantizer(
        model=model, beta=float(beta),
        boundaries=np.concatenate([[lo], bounds, [hi]]),
        actions=np.asarray(actions, dtype=float),
    )


# -- encoder policies -------------------------------------------------------------


def _observations(points, dim: int) -> np.ndarray:
    """``points`` as an (N, dim) float batch of finite rows, which ``decode``
    needs; anything else raises, naming the shape or the first bad row."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"decode expects an (N, {dim}) batch of observations, got shape {pts.shape}"
        )
    if not np.isfinite(pts).all():
        bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise ValueError(f"observation row {bad} is not finite: {pts[bad].tolist()}")
    return pts


@dataclass(eq=False)
class QuantizerPolicy:
    """Finite quantizer: assign each observation to its cheapest action."""

    action_set: ActionSet
    bias: np.ndarray

    def __post_init__(self):
        self.bias = as_point(self.bias, dim=self.action_set.dim)

    @property
    def kind(self) -> str:
        return "quantizer"

    @property
    def dim(self) -> int:
        return self.action_set.dim

    def decode(self, points) -> tuple[np.ndarray, np.ndarray]:
        codes = assign_actions_batch(_observations(points, self.dim), self.action_set.actions,
                                     self.bias)
        return self.action_set.actions[codes], codes


@dataclass(eq=False)
class RevealQuantizePolicy:
    """Reveal the first n-1 transformed coordinates, quantize the last.

    The revealed coordinates are approximated by uniform cells (the
    continuum claim is therefore explicitly approximate, at the reported
    resolution); the value attached to a cell, ``cell_values[r]``, is its
    midpoint.  The last transformed coordinate, which carries the whole
    bias (``transform.transformed_bias[-1]``, the policy's only record of
    it), follows a scalar biased quantizer.  Every ``cell_edges[r]`` must
    be finite, strictly increasing and uniform (as ``linspace`` makes them):
    cell indices are computed by arithmetic, not by search.
    """

    transform: LinearTransform
    cell_edges: list[np.ndarray]
    last_boundaries: np.ndarray
    last_actions: np.ndarray
    cell_values: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.cell_edges:
            raise ValueError("a reveal policy needs at least one revealed coordinate")
        for r, e in enumerate(self.cell_edges):
            gaps = np.diff(e)
            if not (gaps.size and np.all(np.isfinite(e)) and np.all(gaps > 0)
                    and np.allclose(gaps, (e[-1] - e[0]) / gaps.size, rtol=1e-9, atol=0)):
                raise ValueError(
                    f"cell_edges[{r}] must be finite, strictly increasing and uniform"
                )
        self.cell_values = [0.5 * (e[:-1] + e[1:]) for e in self.cell_edges]

    @property
    def kind(self) -> str:
        return "linear-reveal" if self.k_last == 1 else "linear-plus-quantizer"

    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_revealed(self) -> int:
        return len(self.cell_edges)

    @property
    def grid_levels(self) -> int:
        """Cells per revealed coordinate (the coarsest, should they differ)."""
        return min(e.shape[0] - 1 for e in self.cell_edges)

    @property
    def k_last(self) -> int:
        return self.last_actions.shape[0]

    def transformed_coordinates(self, points) -> np.ndarray:
        """The (N, n) transformed batch, held coordinate-major: row r of its
        transpose is coordinate r, contiguous (see ``LinearTransform.apply``)."""
        return self.transform.apply(np.asarray(points, dtype=float), "forward")

    def _cell(self, row: np.ndarray, r: int) -> np.ndarray:
        """Cell index of every value in ``row`` along revealed coordinate r.

        Equal to ``clip(searchsorted(edges, row, "right") - 1, 0,
        levels - 1)``.  The edges are finite, strictly increasing and uniform
        (``__post_init__`` checks it), so the arithmetic index
        ``floor((row - lo) / w)`` is at most one cell off, and one correction
        step against the stored edges makes it exact.
        """
        edges = self.cell_edges[r]
        levels = edges.shape[0] - 1
        f = np.floor((row - edges[0]) / ((edges[-1] - edges[0]) / levels))
        i = np.clip(f, 0, levels - 1).astype(np.intp)
        i -= (row < edges[i]) & (i > 0)
        i += (row >= edges[i + 1]) & (i < levels - 1)
        return i

    @property
    def _digit_values(self) -> list[np.ndarray]:
        """Per transformed coordinate, the decoded value of each digit: each
        revealed cell's, then each last-coordinate bin's."""
        return self.cell_values + [self.last_actions]

    @property
    def _radices(self) -> list[int]:
        return [values.shape[0] for values in self._digit_values]

    def _cells(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The digits of x, each revealed coordinate's cell index and the last
        one's bin, written into the rows of the (n, N) intp ``out``."""
        rows = x.T
        for r in range(self.n_revealed):
            out[r] = self._cell(rows[r], r)
        out[-1] = np.searchsorted(self.last_boundaries[1:-1], rows[-1], side="left")
        return out

    def decode_transformed(self, x: np.ndarray):
        """(y, codes) for pre-transformed observations x; codes sort like the cell tuples.

        Revealed coordinates are indexed by arithmetic on their uniform grids
        (see ``_cell``).  Like x from ``transformed_coordinates``, y is held
        coordinate-major.
        """
        digits = self._cells(x, np.empty(x.T.shape, dtype=np.intp))
        return self._values(digits, np.empty(digits.shape)), _joint_codes(digits, self._radices)

    def _values(self, digits, yt: np.ndarray) -> np.ndarray:
        """The decoded value of each row of ``digits`` (one per transformed
        coordinate), written into the coordinate-major (n, N) ``yt``;
        returns its (N, n) view."""
        for r, (values, digit) in enumerate(zip(self._digit_values, digits)):
            np.take(values, digit, out=yt[r], mode="clip")
        return yt.T

    def decode(self, points) -> tuple[np.ndarray, np.ndarray]:
        x = self.transformed_coordinates(_observations(points, self.dim))
        y, codes = self.decode_transformed(x)
        return self.transform.apply(y, "inverse"), codes


EncoderPolicy = QuantizerPolicy | RevealQuantizePolicy


def _joint_codes(digits, radices) -> np.ndarray:
    """The mixed-radix codes of the digit rows ``digits``, row r in
    ``[0, radices[r])``: one code per column, sorting like its digit tuple.
    Codes that could pass 2**62 are first replaced by their dense ranks
    (order kept), with ~45 MB less peak than ``np.unique`` on an 8-D verify
    at 1e6 samples."""
    codes = np.zeros(digits.shape[1], dtype=np.int64)
    bound = 1
    for digit, radix in zip(digits, radices):
        if bound * radix > 1 << 62 and codes.size:
            order = np.argsort(codes)
            ranks = codes[order]
            is_new = ranks[1:] != ranks[:-1]
            ranks[0] = 0
            np.cumsum(is_new, out=ranks[1:])
            codes[order] = ranks
            bound = int(ranks[-1]) + 1
        codes *= radix
        codes += digit
        bound *= radix
    return codes


def construct_reveal_plus_quantize(
    model: SourceModel,
    b,
    k_last: int,
    *,
    grid_levels: int = 1024,
) -> RevealQuantizePolicy:
    """Build the reveal-and-quantize policy for the supported constructions.

    Covered cases: at most one nonzero bias component (any i.i.d. family,
    permutation transform); i.i.d. gaussian with any bias (bias-aligning
    transform); and, for a 2-D i.i.d. source, the antisymmetric bias
    ``b1 = -b2`` (any family) or the equal bias ``b1 = b2`` (symmetric
    families), both with the bias-aligning transform and a single
    last-coordinate action.  A 2-D bias is cased by the one rule
    ``classify_linear_existence`` reads (``geometry._bias_case``), so on an
    i.i.d. 2-D source this builds exactly when that answers "yes", and a
    component within its tolerance of zero is revealed as a zero one is.
    Anything else raises ``ValueError``, an equal-bias vector on a
    non-gaussian source in three or more dimensions included: there the
    conditional mean of the last coordinate need not be constant in the
    revealed ones, and then one last action is not the decoder's best
    response.

    Revealed cells carry their midpoint as the decoder value, which makes
    the cell partition exactly the nearest-value partition: the encoder has
    no profitable deviation at any grid resolution, while the decoder-side
    centroid offset of order ``width^2`` shrinks with ``grid_levels`` and is
    what the certificate's centroid check measures.
    """
    b = as_point(b, dim=model.dim)
    n = model.dim
    if n < 2:
        raise ValueError("reveal-and-quantize needs at least two dimensions")
    k_last, grid_levels = _whole(k_last, "k_last", 1), _whole(grid_levels, "grid_levels", 1)
    if model.cov is not None or model.table is not None:  # not i.i.d.
        raise ValueError(
            f"reveal-and-quantize is not supported for the {model.family!r} family"
        )
    gaussian = model.family == GAUSSIAN
    case = _bias_case(b) if n == 2 and not gaussian else None

    # each construction picks the transform, the revealed intervals and the
    # law of the last transformed coordinate (None: one action at its mean)
    if np.count_nonzero(b) <= 1 or case == "zero-bias":
        # the biased coordinate (the last of the largest) decouples from the
        # rest by independence; a 2-D bias's near-zero component is revealed
        biased = n - 1 - int(np.argmax(np.abs(b[::-1])))
        order = [j for j in range(n) if j != biased] + [biased]
        transform = permutation_transform(order, bias=b)
        intervals = [model.support_interval(j) for j in order[:-1]]
        last_law = iid_model(model.family, model.marginals[biased], 1)
    elif gaussian:
        transform = bias_aligning_transform(b)
        mu_t = transform.apply(model.mean_vector, "forward")
        sigma_sq = model.marginal_variance(0)
        half = math.sqrt(sigma_sq) * -ndtri(_TRUNCATION_EPS)
        intervals = [(mu_t[r] - half, mu_t[r] + half) for r in range(n - 1)]
        last_law = iid_gaussian(1, mean=float(mu_t[-1]), sigma_sq=sigma_sq)
    else:
        if case != "antisymmetric-bias" and not (case == "symmetry-required" and model.symmetric):
            raise ValueError(
                "no supported construction: need a gaussian source, a single biased "
                "coordinate, or a 2-D source with an antisymmetric bias or, if its "
                "marginal is symmetric, an equal bias"
            )
        transform = bias_aligning_transform(b)
        if k_last != 1:
            raise ValueError(
                "quantizing the last coordinate with more than one bin requires the "
                "gaussian family (the revealed coordinates must be independent of it)"
            )
        intervals = [_support_box_range(model, transform.forward[0])]
        last_law = None

    if last_law is None:
        last_boundaries = np.array([-math.inf, math.inf])
        last_actions = transform.apply(model.mean_vector, "forward")[-1:]
    else:
        scalar = solve_scalar_biased(last_law, float(transform.transformed_bias[-1]), k_last)
        last_boundaries, last_actions = scalar.boundaries, scalar.actions
    return RevealQuantizePolicy(
        transform=transform,
        cell_edges=[np.linspace(lo, hi, grid_levels + 1) for lo, hi in intervals],
        last_boundaries=last_boundaries,
        last_actions=last_actions,
    )


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateCheck:
    """One equilibrium condition's verdict: the certificate statistic it
    reads, that statistic's value, and the threshold it must not cross
    (``value <= threshold`` when ``at_most``, else ``value >= threshold``)."""

    name: str
    statistic: str
    value: float
    threshold: float
    at_most: bool = True

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold if self.at_most else self.value >= self.threshold

    def __str__(self) -> str:
        bound = "<=" if self.at_most else ">="
        return f"{self.name} check: {self.statistic} {self.value:.6g}, needs {bound} {self.threshold:.6g}"


class _Checked:
    """A verification result whose verdict is its ``checks``, a tuple of
    :class:`CertificateCheck` that the result derives on construction."""

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        """``passed``, then each field in order: an estimate, or a list of
        them, as ``name`` and ``name_stderr``, an array as a list, each check
        as ``pass_<name>``."""
        out = {"passed": self.passed}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, EstimateWithError):
                out[f.name], out[f"{f.name}_stderr"] = value.value, value.stderr
            elif isinstance(value, list):
                out[f.name], out[f"{f.name}_stderr"] = [e.value for e in value], [e.stderr for e in value]
            elif isinstance(value, np.ndarray):
                out[f.name] = value.tolist()
            elif f.name == "checks":
                out.update((f"pass_{check.name}", check.passed) for check in value)
            else:
                out[f.name] = value
        return out


@dataclass(eq=False)
class EquilibriumCertificate(_Checked):
    """Slacks and residuals for the equilibrium conditions, with verdicts.

    ``max_centroid_residual`` and ``centroid_residual_stderr`` describe the
    evaluated bin with the largest residual-to-error ratio.
    ``deviation_gain`` is the mean cost reduction the encoder could get by
    re-reporting within the policy's message set (nonnegative by
    construction, zero at an equilibrium).  ``checks``, one per condition,
    are derived from these fields on construction; ``passed`` is all of them.
    """

    min_pairwise_geo_slack: float
    max_centroid_residual: float
    centroid_residual_stderr: float
    centroid_max_z: float
    deviation_gain: EstimateWithError
    je: EstimateWithError
    jd: EstimateWithError
    checks: tuple = field(init=False)
    realized_actions: int
    evaluated_bins: int
    grid_levels: int | None  # continuum-approximation resolution, if any
    samples: int
    seed: int

    def __post_init__(self):
        gain = self.deviation_gain  # its threshold's last term absorbs float dust on zero gains
        self.checks = (
            CertificateCheck("geometry", "min_pairwise_geo_slack", self.min_pairwise_geo_slack,
                             -_GEO_TOLERANCE, at_most=False),
            CertificateCheck("centroid", "centroid_max_z", self.centroid_max_z, 3.0),
            CertificateCheck("deviation", "deviation_gain", gain.value,
                             3.0 * gain.stderr + 1e-12 * max(1.0, self.je.value)),
        )


# verify_equilibrium: the pairwise slack may dip this far below zero, at most
# this many action pairs are checked (all pairs among this many heaviest
# actions first), the centroid check looks at about this many bins, and it
# skips bins with fewer samples than the last
_GEO_TOLERANCE = 1e-6
_MAX_PAIRS = 2000
_TOP_ACTIONS = 50
_CENTROID_BINS = 8
_MIN_BIN_COUNT = 30


def _checked_pairs(counts: np.ndarray, seed: int):
    """Index pairs (ia, ib) of the realized actions whose slack is checked.

    All pairs when there are few, else all pairs among the
    ``_TOP_ACTIONS`` heaviest (most counted, ties to the lower index) and
    a seeded random fill.
    """
    kr = counts.shape[0]
    if kr * (kr - 1) // 2 <= _MAX_PAIRS:
        return np.triu_indices(kr, k=1)
    # the heaviest actions are those above the _TOP_ACTIONS-th largest
    # count and the first ones at it; only they are sorted
    cut = kr - _TOP_ACTIONS
    kth = np.partition(counts, cut)[cut]
    above = np.flatnonzero(counts > kth)
    cand = np.concatenate([above, np.flatnonzero(counts == kth)[: _TOP_ACTIONS - above.size]])
    top = cand[np.lexsort((cand, -counts[cand]))]
    ia_t, ib_t = np.triu_indices(top.shape[0], k=1)
    ia, ib = top[ia_t], top[ib_t]
    rng = np.random.default_rng(seed)
    extra = _MAX_PAIRS - ia.shape[0]
    if extra > 0:
        ra = rng.integers(0, kr, size=2 * extra)
        rb = rng.integers(0, kr, size=2 * extra)
        keep = ra != rb
        ia = np.concatenate([ia, ra[keep][:extra]])
        ib = np.concatenate([ib, rb[keep][:extra]])
    return ia, ib


def _pairwise_min_slack(realized, first: np.ndarray, counts: np.ndarray, b: np.ndarray,
                        seed: int) -> float:
    """Least pairwise slack among the realized actions, the decoded values
    of the sample rows ``first``.

    ``realized(rows)`` decodes the given sample rows; it is asked only for
    the rows of the checked pairs (see ``_checked_pairs``), two or more.
    """
    if first.shape[0] < 2:
        return math.inf
    ia, ib = _checked_pairs(counts, seed)
    rows, pos = np.unique(np.concatenate([ia, ib]), return_inverse=True)
    u = realized(first[rows])
    d = u[pos[ia.shape[0]:]] - u[pos[: ia.shape[0]]]
    slack = np.sum(d * d, axis=1) - 2.0 * np.abs(d @ b)
    return float(slack.min())


def _code_groups(codes: np.ndarray):
    """``np.unique(codes, return_index=True, return_counts=True)`` for integer
    codes, without its stable sort: the distinct codes, the index of each
    one's first occurrence and its count.

    Codes in ``[0, codes.size)`` (every quantizer, the 2-D reveal policies)
    are counted; wider ones (the re-ranked 8-D codes) are grouped after one
    default-kind sort, whose group minima are the first occurrences.
    """
    n = codes.size
    if codes.min() >= 0 and codes.max() < n:
        counts = np.bincount(codes)
        first = np.full(counts.size, n, dtype=np.intp)
        np.minimum.at(first, codes, np.arange(n))
        uniq = np.flatnonzero(counts)
        return uniq.astype(codes.dtype, copy=False), first[uniq], counts[uniq]
    order = np.argsort(codes)
    ordered = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, n))
    return ordered[starts], np.minimum.reduceat(order, starts), counts


def _estimate(values: np.ndarray) -> EstimateWithError:
    """The sample mean of ``values`` with its standard error."""
    n = values.shape[0]
    return EstimateWithError(float(values.mean()), float(values.std(ddof=1) / math.sqrt(n)), n)


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_in_order(job, count: int, threads: int, ahead: int, take) -> None:
    """Run ``job(0)``, ..., ``job(count - 1)`` on ``threads`` threads, and
    ``take(i, result)`` on the calling thread in job order.  Job i + ahead
    is submitted once ``take(i, ...)`` has returned, so it may reuse what
    job i held.  A failing job's exception is raised here; before this
    returns or raises, pending jobs are cancelled and every thread joined.
    """
    # imported here, so that `import cheaptalk` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(threads)
    try:
        pending = collections.deque(pool.submit(job, i) for i in range(min(ahead, count)))
        for i in range(count):
            take(i, pending.popleft().result())
            if i + ahead < count:
                pending.append(pool.submit(job, i + ahead))
    finally:
        pool.shutdown(cancel_futures=True)


# The job buffers of the chunks a verify has in flight stay within this many
# bytes, though two chunks are always in flight
_STREAM_BUDGET = 1 << 27


def _stream_chunks(stream, model: SourceModel, samples: int, seed: int) -> None:
    """Run ``stream.job`` on every chunk of ``model.sample(samples, seed)``,
    and ``stream.fold`` on the calling thread in chunk order.

    Chunk i is the i-th ``_SAMPLE_CHUNK`` rows of the sample, drawn by
    ``SourceModel._sample_chunk`` into ``stream.draw_buffer``.  The jobs
    run on min(available CPUs, chunks) threads.  Each chunk in flight has
    its own slot of (n, chunk) buffers, made once per call by
    ``stream.new_slot``; a job allocates only chunk-length temporaries, and
    ``stream.fold`` takes what it returns.  A stream that folds keeps one
    more chunk in flight than threads, so that the threads work on while a
    chunk is folded, and the slots stay within ``_STREAM_BUDGET`` (two
    always fit).
    """
    chunks = -(-samples // _SAMPLE_CHUNK)
    cpus = _available_cpus()
    depth = min(chunks, cpus + stream.folds, max(2, _STREAM_BUDGET // stream.slot_bytes))
    # made here and reused: (n, chunk) arrays that pool threads allocated and
    # freed would stay in glibc's per-thread arenas; on a 2-vCPU x86 host that
    # raised the peak RSS of seven 8-D verifies at 1e6 samples from 151 to
    # 171-175 MB (138 MB with MALLOC_ARENA_MAX=1)
    slots = [stream.new_slot() for _ in range(depth)]

    def bounds(i):
        lo = i * _SAMPLE_CHUNK
        return lo, min(lo + _SAMPLE_CHUNK, samples)

    def run(i):
        lo, hi = bounds(i)
        slot = slots[i % depth]
        pts = model._sample_chunk(seed, i, stream.draw_buffer(slot, lo, hi - lo))
        return stream.job(pts, lo, hi, slot)

    _run_in_order(run, chunks, min(cpus, depth), depth,
                  lambda i, result: stream.fold(*bounds(i), result))


def _costs(pts: np.ndarray, u: np.ndarray, b: np.ndarray, d: np.ndarray, sq: np.ndarray,
           ce: np.ndarray, cd: np.ndarray) -> None:
    """Each row's decoder cost ||m - u||^2 into ``cd`` and encoder cost
    ||m - u - b||^2 into ``ce``, through the flat buffers ``d`` and ``sq``
    (``sq`` may be u's own).

    ``pts`` is row-major and m - u is held row-major too, as numpy lays out
    ``pts - u`` for either layout of u; m - u - b evaluates as (m - u) - b.
    """
    c, n = pts.shape
    d = np.subtract(pts, u, out=d[: c * n].reshape(c, n))
    sq = np.multiply(d, d, out=sq[: c * n].reshape(c, n))
    np.sum(sq, axis=1, out=cd)
    d -= b
    np.sum(np.multiply(d, d, out=sq), axis=1, out=ce)


class _Stream:
    """What every certificate keeps of its sample: each row's encoder and
    decoder cost and its deviation gain, which jobs write in place.  A
    stream that does not fold adds nothing on the calling thread.
    """

    folds = False

    def __init__(self, policy: EncoderPolicy, b: np.ndarray, samples: int):
        self.policy, self.b = policy, b
        self.ce, self.cd, self.gains = (np.empty(samples) for _ in range(3))

    def fold(self, lo: int, hi: int, result) -> None:
        pass


class _RevealStream(_Stream):
    """A reveal policy's certificate, one chunk at a time.

    Each job transforms its rows, indexes and decodes them, scores the
    deviation gains and both costs, and keeps each coordinate's cell digit
    in the smallest unsigned type that holds it.  The fold adds each cell's
    count, sum and sum of squares along its coordinate in sample order,
    which rounds as one ``np.bincount`` over the whole sample would.
    """

    folds = True

    def __init__(self, policy: RevealQuantizePolicy, b: np.ndarray, samples: int):
        super().__init__(policy, b, samples)
        self.b_t = policy.transform.forward @ b
        radices = policy._radices
        n = policy.dim
        self.digits = np.empty((n, samples), dtype=np.min_scalar_type(max(radices) - 1))
        self.counts = [np.zeros(k, dtype=np.intp) for k in radices]
        self.sums = [np.zeros(k) for k in radices]
        self.sumsq = [np.zeros(k) for k in radices]
        # the draw, x, y and u, and the job's (N,) temporaries
        self.slot_bytes = 8 * _SAMPLE_CHUNK * (4 * n + 6)

    def new_slot(self) -> SimpleNamespace:
        size = self.policy.dim * _SAMPLE_CHUNK
        return SimpleNamespace(draw=np.empty(size), x=np.empty(size), y=np.empty(size),
                               u=np.empty(size))

    def draw_buffer(self, slot: SimpleNamespace, lo: int, count: int) -> np.ndarray:
        return slot.draw[: count * self.policy.dim].reshape(count, -1)

    def job(self, pts: np.ndarray, lo: int, hi: int, slot: SimpleNamespace) -> np.ndarray:
        """Score the chunk; returns its transformed rows, which the fold reads."""
        policy = self.policy
        c, n = pts.shape
        out = slice(lo, hi)
        x = _apply_batch(policy.transform.forward, pts, out=slot.x[: n * c].reshape(n, c))
        # u's buffer holds the cell indices until u is computed
        cells = policy._cells(x, slot.u[: n * c].view(np.intp).reshape(n, c))
        y = policy._values(cells, slot.y[: n * c].reshape(n, c))
        self.digits[:, out] = cells
        self.gains[out] = _reveal_deviation_gains(policy, x, y, self.b_t)
        u = _apply_batch(policy.transform.inverse, y, out=slot.u[: n * c].reshape(n, c))
        # y is spent: m - u takes its buffer, and the squares take u's
        _costs(pts, u, self.b, slot.y, slot.u, self.ce[out], self.cd[out])
        return x.T

    def fold(self, lo: int, hi: int, rows: np.ndarray) -> None:
        for r, cell in enumerate(self.digits[:, lo:hi]):
            row = rows[r]
            self.counts[r] += np.bincount(cell, minlength=self.counts[r].shape[0])
            np.add.at(self.sums[r], cell, row)
            np.add.at(self.sumsq[r], cell, row * row)

    def codes(self) -> np.ndarray:
        """The codes ``decode`` gives the sample, from the stored digits."""
        return _joint_codes(self.digits, self.policy._radices)

    def realized(self, rows: np.ndarray) -> np.ndarray:
        """The decoded actions of sample ``rows`` (two or more), from their
        digits, with the bits of the whole sample's decode."""
        digits = self.digits[:, rows]
        y = self.policy._values(digits, np.empty(digits.shape))
        return self.policy.transform.apply(y, "inverse")

    def centroids(self, uniq, counts):
        """(residual, stderr) of each checked bin: per transformed coordinate,
        on marginal bins (see ``_worst_centroid``)."""
        policy = self.policy
        per_coord = max(2, _CENTROID_BINS // (policy.n_revealed + 1))
        for r, values in enumerate(policy._digit_values):
            cnts, means, ses = _bin_summary(self.counts[r], self.sums[r], self.sumsq[r])
            # the last coordinate's bins are all checked
            top = (np.argsort(-cnts, kind="stable")[:per_coord] if r < policy.n_revealed
                   else range(policy.k_last))
            for c in top:
                if cnts[c] >= _MIN_BIN_COUNT:
                    yield abs(float(values[c] - means[c])), float(ses[c])


class _QuantizerStream(_Stream):
    """A quantizer's certificate, one chunk at a time.

    Each job draws its rows into the sample, which the centroid check
    groups by bin, assigns them their cheapest action, and scores the
    deviation gains and both costs.
    """

    def __init__(self, policy: QuantizerPolicy, b: np.ndarray, samples: int):
        super().__init__(policy, b, samples)
        self.m = np.empty((samples, policy.dim))
        self._codes = np.empty(samples, dtype=np.intp)
        acts = policy.action_set.actions
        self.shift = 2.0 * (acts @ (b - policy.bias))
        k, n = acts.shape
        # t and u, the scores, and the job's (N,) temporaries
        self.slot_bytes = 8 * _SAMPLE_CHUNK * (2 * n + k + 3)

    def new_slot(self) -> SimpleNamespace:
        k, n = self.policy.action_set.actions.shape
        c = _SAMPLE_CHUNK
        return SimpleNamespace(t=np.empty(n * c), u=np.empty(n * c), scores=np.empty(k * c))

    def draw_buffer(self, slot: SimpleNamespace, lo: int, count: int) -> np.ndarray:
        return self.m[lo : lo + count]

    def job(self, pts: np.ndarray, lo: int, hi: int, slot: SimpleNamespace) -> None:
        policy = self.policy
        acts = policy.action_set.actions
        k = acts.shape[0]
        c, n = pts.shape
        out = slice(lo, hi)
        # the targets -2 (pts - bias), transposed, as assign_actions_batch scores them
        t = np.subtract(pts.T, policy.bias[:, None], out=slot.t[: n * c].reshape(n, c))
        t *= -2.0
        scores = slot.scores[: k * c].reshape(k, c)
        codes = _assign_targets(t, acts, scores, np.empty(c), np.empty(c, dtype=bool),
                                self._codes[out])
        # each row's deviation gain: its assigned score less its least, the
        # scores moved from the policy's bias to the bias checked, as
        # -2 (m - b).u = -2 (m - bias).u + 2 (b - bias).u
        scores += self.shift[:, None]
        self.gains[out] = scores[codes, np.arange(c)] - scores.min(axis=0)
        u = np.take(acts, codes, axis=0, out=slot.u[: c * n].reshape(c, n))
        # the targets are spent: m - u takes their buffer, and the squares take u's
        _costs(pts, u, self.b, slot.t, slot.u, self.ce[out], self.cd[out])

    def codes(self) -> np.ndarray:
        return self._codes

    def realized(self, rows: np.ndarray) -> np.ndarray:
        return self.policy.decode(self.m[rows])[0]

    def centroids(self, uniq, counts):
        """(residual, stderr) of each of the heaviest joint bins."""
        acts = self.policy.action_set.actions
        order = np.lexsort((uniq, -counts))
        for row in order[: min(_CENTROID_BINS, order.shape[0])]:
            cnt = int(counts[row])
            if cnt < _MIN_BIN_COUNT:
                continue
            sel = self.m[self._codes == uniq[row]]
            resid = float(np.linalg.norm(acts[uniq[row]] - sel.mean(axis=0)))
            yield resid, math.sqrt(float(np.sum(sel.var(axis=0, ddof=1))) / cnt)


def _streamed_sample(policy: EncoderPolicy, model: SourceModel, b, samples, seed):
    """The policy's stream (see ``_Stream``) run over ``model.sample(samples,
    seed)``, with ``samples`` and ``seed`` read as ints (see ``verify_equilibrium``)."""
    samples, seed = _whole(samples, "samples", 2), _whole(seed, "seed")
    kind = _QuantizerStream if isinstance(policy, QuantizerPolicy) else _RevealStream
    stream = kind(policy, as_point(b, dim=model.dim), samples)
    _stream_chunks(stream, model, samples, seed)
    return stream, samples, seed


def verify_equilibrium(
    policy: EncoderPolicy,
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 99,
) -> EquilibriumCertificate:
    """Monte Carlo certificate for the equilibrium conditions of a policy.

    Checks (a) the pairwise separation condition over realized decoder
    actions (sampled pairs when the realized set is large), (b) centroid
    residuals on the most-populated bins, against their Monte Carlo standard
    error, (c) the encoder's best deviation within the policy's message set,
    and (d) estimates both players' expected costs.  Every check reads the
    encoder bias ``b`` given here, not the bias the policy was built for.

    The sample, ``model.sample(samples, seed)``, is streamed one chunk of
    ``SourceModel.sample`` at a time on up to as many threads as the
    process has CPUs available; the certificate has the same bits whatever
    the number of threads.  A reveal policy's verify holds no (N, n)
    array, a quantizer's only its sample, which its centroid check groups
    by bin.  ``samples`` must be a whole number of at least 2 (the
    standard errors need two) and ``seed`` of at least 0.
    """
    stream, samples, seed = _streamed_sample(policy, model, b, samples, seed)
    b = stream.b

    je, jd = _estimate(stream.ce), _estimate(stream.cd)
    deviation = _estimate(stream.gains)
    stream.ce = stream.cd = stream.gains = None  # nothing reads them below

    uniq, first_idx, counts = _code_groups(stream.codes())
    if uniq.size == 0:
        raise BinDeathError(0, "policy induced no realized actions")

    min_slack = _pairwise_min_slack(stream.realized, first_idx, counts, b, seed + 1)
    max_resid, max_resid_se, max_z, evaluated = _worst_centroid(stream.centroids(uniq, counts))
    return EquilibriumCertificate(
        min_pairwise_geo_slack=min_slack, max_centroid_residual=max_resid,
        centroid_residual_stderr=max_resid_se, centroid_max_z=max_z, deviation_gain=deviation,
        je=je, jd=jd, realized_actions=int(uniq.size), evaluated_bins=evaluated,
        grid_levels=getattr(policy, "grid_levels", None), samples=samples, seed=seed,
    )


def _bin_summary(counts: np.ndarray, sums: np.ndarray, sumsq: np.ndarray):
    """Per-bin counts, means, and mean standard errors from each bin's
    count, sum and sum of squares."""
    safe = np.maximum(counts, 1)
    means = sums / safe
    var = np.maximum(sumsq / safe - means**2, 0.0)
    se = np.sqrt(var / safe)
    return counts, means, se


def _worst_centroid(checks):
    """Largest centroid residual (value, stderr, z) over the checked bins,
    and their number; ``checks`` yields each bin's (residual, stderr).

    Finite quantizers are checked on their heaviest joint bins.  Continuum
    approximations are checked per transformed coordinate on marginal bins:
    joint cells become too fragmented to estimate in higher dimension, while
    every marginal condition remains a consequence of the decoupled centroid
    conditions.  Bins with fewer than ``_MIN_BIN_COUNT`` samples are not
    checked; a bin with a zero stderr counts, but yields no z.
    """
    max_z, max_resid, max_resid_se, evaluated = 0.0, 0.0, math.inf, 0
    for resid, se in checks:
        evaluated += 1
        if se <= 0.0:
            continue
        z = resid / se
        if z >= max_z:
            max_z, max_resid, max_resid_se = z, resid, se
    return max_resid, max_resid_se, max_z, evaluated


def _reveal_deviation_gains(policy: RevealQuantizePolicy, x, y, b_t) -> np.ndarray:
    """Per-sample cost reduction available by re-reporting within the policy.

    ``x`` and ``y`` are the transformed sample and its decoded values, both
    coordinate-major, and ``b_t`` the transformed bias T b.  The transform
    is orthonormal, so the encoder's cost is a sum over coordinates of
    (t_r - y_r)^2 with target t_r = x_r - b_t[r], and each coordinate's best
    report is its own: on a revealed coordinate the midpoint of the cell
    that holds t_r, on the last the action nearest t_r.  The own and the
    best terms sum in coordinate order; where b_t[r] = 0 the two terms are
    the same expression, so a sample with nothing to gain scores exactly 0.
    """
    rows, yrows = x.T, y.T
    assigned, best = np.zeros(rows.shape[1]), np.zeros(rows.shape[1])
    for r in range(policy.n_revealed):
        t = rows[r] - b_t[r]
        best += (policy.cell_values[r][policy._cell(t, r)] - t) ** 2
        assigned += (t - yrows[r]) ** 2
    # the last coordinate: the nearest action is on one side of the target
    acts = policy.last_actions
    t = rows[-1] - b_t[-1]
    pos = np.searchsorted(acts, t)
    hi = (np.take(acts, pos, mode="clip") - t) ** 2
    lo = (np.take(acts, pos - 1, mode="clip") - t) ** 2
    best += np.minimum(lo, hi)
    assigned += (t - yrows[-1]) ** 2
    return assigned - best


def expected_distortions(
    policy: EncoderPolicy,
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 99,
) -> tuple[EstimateWithError, EstimateWithError]:
    """Per-dimension expected costs (encoder, decoder) of a policy: the two
    costs ``verify_equilibrium`` estimates, from the same stream and with
    the same bits, divided by the dimension; checked as there."""
    stream = _streamed_sample(policy, model, b, samples, seed)[0]
    n = model.dim
    return _estimate(stream.ce / n), _estimate(stream.cd / n)


# -- linear (continuum) equilibrium verification -----------------------------------


@dataclass(eq=False)
class LinearEquilibriumReport(_Checked):
    """The paper's condition for an informative linear equilibrium of an
    i.i.d. 2-D source: the conditional-mean curve ``E[X2 | X1 = t] - E[X2]``
    of the bias-aligned coordinate is constant in the revealed one.

    ``checks`` holds the one condition, "constancy": every curve point
    within 3 stderr of the curve's inverse-variance weighted mean
    (``constancy_max_z <= 3``).  Truthful reporting needs no check of its
    own: on a constant curve the encoder's cost of reporting ``p`` is
    ``(x1 - p)^2`` plus a constant, least at ``p = x1``.
    """

    constancy_max_z: float
    checks: tuple = field(init=False)
    grid: np.ndarray
    curve: list[EstimateWithError]
    kappa: float
    b_tilde: float

    def __post_init__(self):
        self.checks = (CertificateCheck("constancy", "constancy_max_z", self.constancy_max_z, 3.0),)


# verify_linear_equilibrium: points of the constancy curve
_LINEAR_GRID_POINTS = 11


def verify_linear_equilibrium(
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 77,
) -> LinearEquilibriumReport:
    """Check whether full revelation of the bias-orthogonal coordinate holds up.

    Works in the pair coordinates of ``pair_transform_2d(b)``: ``x1 = b1 m2 -
    b2 m1`` (revealed) and ``x2 = b1 m1 + b2 m2`` (bias ``b1^2 + b2^2``, the
    transform's ``scale``).  One sample of ``samples`` points is drawn and
    sorted once, and the curve is read off it (it equals
    ``conditional_mean_curve`` with the same ``samples`` and ``seed``).  The
    grid is 11 quantiles, 2% to 98%, of ``x1`` over its first
    ``min(samples, 200_000)`` rows, which is what ``model.sample`` would draw
    for that count.
    """
    if model.dim != 2:
        raise DimensionMismatchError("linear-equilibrium verification needs a 2-D source")
    pairs = _sorted_pairs(model, b, samples, seed)
    grid = np.quantile(pairs.x1[:200_000], np.linspace(0.02, 0.98, _LINEAR_GRID_POINTS))
    curve = _window_curve(pairs, grid)

    values = np.array([e.value for e in curve])
    errs = np.array([max(e.stderr, 1e-15) for e in curve])
    weights = 1.0 / errs**2
    center = float(np.sum(weights * values) / np.sum(weights))
    constancy_max_z = float(np.max(np.abs(values - center) / errs))

    return LinearEquilibriumReport(
        grid=grid,
        curve=curve,
        constancy_max_z=constancy_max_z,
        kappa=pairs.x2_mean,
        b_tilde=pairs.pair.scale,
    )
