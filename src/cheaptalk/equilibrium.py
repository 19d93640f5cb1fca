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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BinDeathError, DimensionMismatchError, InfeasibleBinCountError
from .geometry import _assign_columns, _assign_targets, as_point, assign_actions_batch
from .sources import (
    _TRUNCATION_EPS,
    GAUSSIAN,
    EstimateWithError,
    SourceModel,
    _pair_coordinates,
    _sorted_pairs,
    _special,
    _stable_order,
    _support_box_range,
    _window_curve,
    conditional_support,
    iid_gaussian,
    iid_model,
    pair_coordinate_interval,
    truncated_moments_1d,
)
from .transforms import (
    LinearTransform,
    bias_aligning_transform,
    helmert_transform,
    permutation_transform,
)

__all__ = [
    "ActionSet",
    "SolverConfig",
    "FixedPointResult",
    "ScalarQuantizer",
    "QuantizerPolicy",
    "RevealQuantizePolicy",
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

    Every sweep moves each action by ``damping`` times the gap to its bin's
    conditional mean; the damping is applied as configured, with no
    adaptive switch.  The solve stops once the largest action movement is
    below ``tolerance``.  At damping 1 a sweep that leaves the assignment
    unchanged reproduces the actions bit for bit, so the movement drops to
    exactly 0.0 and "converged" means an exact fixed point of the
    evaluation measure.  Error messages start with the name of the
    offending field.
    """

    tolerance: float = 1e-8
    max_iterations: int = 500
    damping: float = 1.0
    samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")


@dataclass(eq=False)
class FixedPointResult:
    """A Lloyd solve's last actions and what its sweeps did.

    ``movements``, ``rescored`` and ``changed`` hold one entry per sweep of
    the last (re)start: the largest action movement, the points whose
    action was scored, and the points whose action changed.
    """

    actions: ActionSet
    converged: bool
    iterations: int
    movements: list[float]
    restarts: int = 0
    rescored: list[int] = field(default_factory=list)
    changed: list[int] = field(default_factory=list)


# -- evaluation measures --------------------------------------------------------


def _evaluation_measure(model: SourceModel, samples: int, seed: int):
    """(points, weights) representing the source for expectation sweeps.

    Exact tensor-grid cells for dimension <= 2 (and tabulated tables);
    seeded Monte Carlo with uniform weights otherwise.  The measure is drawn
    once per solve so the Lloyd iteration is deterministic and converges
    exactly on it.
    """
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


def _distance_gaps(second: np.ndarray, best: np.ndarray, sq: np.ndarray) -> None:
    """Overwrite ``second`` with ``sqrt(second + sq) - sqrt(best + sq)``
    (``best`` is overwritten too); a sum that rounds below zero counts as 0."""
    for a in (second, best):
        a += sq
        np.maximum(a, 0.0, out=a)
        np.sqrt(a, out=a)
    second -= best


class _SweepMeasure:
    """What a Lloyd solve keeps from sweep to sweep on one measure and bias.

    Fixed: the assignment targets ``-2 (pts - b)`` transposed to (dim, N),
    the squared norms ``||pts - b||^2``, the weighted coordinates
    ``w * pts.T`` for the centroid sums, and the weights.  Carried: each
    point's action index, the lower bound on its gap (see the note above),
    the actions they refer to, and the buffers every sweep reuses.
    ``rescored`` and ``changed`` count the points the last sweep scored and
    the points whose action it changed (all N on the first sweep and after
    a change of K).
    """

    def __init__(self, pts: np.ndarray, w: np.ndarray, b: np.ndarray):
        n = pts.shape[0]
        self.t = np.ascontiguousarray((-2.0 * (pts - b)).T)
        self.sq = np.einsum("ij,ij->j", self.t, self.t) * 0.25
        self.radius = math.sqrt(float(np.max(self.sq)))
        self.wpts = np.multiply(w, pts.T, order="C")  # row-contiguous for bincount
        self.w = w
        self.scores = np.empty((0, n))
        self.best = np.empty(n)
        self.gap = np.empty(n)
        self.mask = np.empty(n, dtype=bool)
        self.idx = np.empty(n, dtype=np.intp)
        self.acts = None
        self.scale = 0.0
        self.rescored = self.changed = 0

    def assign(self, acts: np.ndarray) -> np.ndarray:
        """Index of each point's cheapest action; valid until the next call.

        Equal, bit for bit, to ``_assign_targets`` over all points: only the
        points whose gap bound no longer clears the margin are scored again.
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

    def _rescore(self, acts: np.ndarray, cand: np.ndarray) -> None:
        self.rescored, self.changed = cand.size, 0
        if cand.size == 0:
            return
        idx, best, second = _assign_columns(np.take(self.t, cand, axis=1), acts, second=True)
        _distance_gaps(second, best, self.sq[cand])
        self.changed = int(np.count_nonzero(idx != self.idx[cand]))
        self.idx[cand] = idx
        self.gap[cand] = second


def best_response_step(
    actions: ActionSet,
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
    damping: float = 1.0,
    _measure=None,
) -> ActionSet:
    """One simultaneous best-response sweep.

    Evaluation points are assigned to their cheapest action under the
    encoder cost (ties to the lowest index), then each action moves toward
    its bin's conditional mean by ``damping`` times the gap, as given.  At
    damping 1 a sweep from an exact fixed point returns bitwise the same
    actions.  ``_measure`` is a ``_SweepMeasure`` prepared for the same bias,
    or None to draw one from ``samples`` and ``seed``.  Raises
    :class:`BinDeathError` with the dying index when a bin receives no mass.
    """
    b = as_point(b, dim=actions.dim)
    if _measure is None:
        _measure = _SweepMeasure(*_evaluation_measure(model, samples, seed), b)
    idx = _measure.assign(actions.actions)
    k = actions.k
    mass = np.bincount(idx, weights=_measure.w, minlength=k)
    dead = np.flatnonzero(mass <= 1e-15)
    if dead.size:
        raise BinDeathError(int(dead[0]))
    new = np.empty_like(actions.actions)
    for d in range(actions.dim):
        new[:, d] = np.bincount(idx, weights=_measure.wpts[d], minlength=k) / mass
    stepped = actions.actions + damping * (new - actions.actions)
    return ActionSet(stepped)


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

    The evaluation measure is drawn and prepared once per solve; every
    sweep applies ``config.damping`` as configured and the solve stops when
    the largest movement is below ``config.tolerance``.  At damping 1 a
    converged solve ends on a movement of 0.0 once the assignment stops
    changing, so "converged" means an exact fixed point of the measure.
    Returns a candidate equilibrium with its convergence status; bin death
    triggers up to three jittered re-initializations before the error
    propagates.  Non-convergence is reported in the result, not raised.
    """
    config = config or SolverConfig()
    b = as_point(b, dim=model.dim)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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
            converged = False
            it = 0
            for it in range(1, config.max_iterations + 1):
                new = best_response_step(
                    actions, model, b, damping=config.damping, _measure=measure
                )
                if new.k < actions.k:
                    raise BinDeathError(actions.k - 1, "actions merged during the sweep")
                movement = float(np.max(np.abs(new.actions - actions.actions)))
                movements.append(movement)
                rescored.append(measure.rescored)
                changed.append(measure.changed)
                actions = new
                if movement < config.tolerance:
                    converged = True
                    break
            return FixedPointResult(
                actions=actions, converged=converged, iterations=it,
                movements=movements, restarts=restarts, rescored=rescored, changed=changed,
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


def _brentq(f, a: float, b: float, scale: float) -> float:
    """Root of f in [a, b] at the scalar solver's tolerances.

    Brent's method step for step as ``scipy.optimize.brentq`` runs it
    (``xtol = 1e-13*scale``, ``rtol = 8.9e-16``, at most 100 iterations),
    so the root and the number of evaluations of f are the same.  Raises
    ValueError when f returns NaN or f(a) and f(b) have the same sign, and
    RuntimeError when the iterations run out.
    """
    xtol, rtol = 1e-13 * scale, 8.9e-16

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x:.6g} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
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


def _bin_moments(model: SourceModel, a: float, b: float):
    """Truncated moments of the bin between a and b, given in either order
    (``truncated_moments_1d`` takes the smaller end first)."""
    return truncated_moments_1d(model, a, b) if a <= b else truncated_moments_1d(model, b, a)


def _next_boundary(model: SourceModel, start: float, target: float, end: float, scale: float, s: float):
    """Nearest x past ``start`` in direction ``s`` (+1 up, -1 down) at which the
    bin between ``start`` and ``x`` has conditional mean ``target``; None when
    the target is out of reach before the support end ``end``."""
    def g(x):
        mass, mean, _ = _bin_moments(model, start, x)
        if mass <= 0.0 or not math.isfinite(mean):
            return -s
        return mean - target

    if s * g(end) <= 0.0:
        return None  # the target centroid is unreachable before the support end
    near = start + s * (1e-13 * scale)
    if s * g(near) >= 0.0:
        return near
    if math.isfinite(end):
        far = end
    else:
        far = start + s * max(scale, abs(target - start))
        for _ in range(200):
            if s * g(far) > 0.0:
                break
            far = start + (far - start) * 2.0
        else:
            return None
    # the smaller end first: brentq's iterates, so the root's last bits, depend on the order
    return _brentq(g, near, far, scale) if s > 0 else _brentq(g, far, near, scale)


def _shoot(model: SourceModel, beta: float, k: int, x0: float, lo: float, hi: float, scale: float, s: float):
    """The Crawford-Sobel recursion run from one outer boundary ``x0``.

    ``s = +1`` starts at the first boundary and walks up, ``s = -1`` starts
    at the last and walks down: each step sets the next action from
    ``l_i = (u_i + u_{i+1})/2 + beta`` and finds the next boundary at which
    that action is its bin's conditional mean.  Returns ``(residual, bounds,
    actions)`` with bounds and actions in increasing order.  The residual,
    the last action reached minus the mean of the bin left at the far end,
    increases in ``x0``.  A recursion whose bins collapse (``x0`` too far
    back) returns ``-s * 1e30`` and one that overflows the support (too far
    ahead) ``s * 1e30``, both without bounds.
    """
    end = hi if s > 0 else lo
    mass, u, _ = _bin_moments(model, lo if s > 0 else hi, x0)
    if mass <= 0.0:
        return -s * 1e30, None, None
    bounds = [x0]
    actions = [u]
    for j in range(k - 1):
        u = 2.0 * (bounds[-1] - beta) - actions[-1]
        if s * u <= s * bounds[-1]:
            return -s * 1e30, None, None
        if j < k - 2:
            nxt = _next_boundary(model, bounds[-1], u, end, scale, s)
            if nxt is None:
                return s * 1e30, None, None
            bounds.append(nxt)
        actions.append(u)
    end_mass, end_mean, _ = _bin_moments(model, bounds[-1], end)
    if end_mass <= 0.0:
        return s * 1e30, None, None
    residual = actions[-1] - end_mean
    if s < 0:
        bounds.reverse()
        actions.reverse()
    return residual, bounds, actions


_TAIL_SDS = np.array([7.0, 9.0, 12.0, 16.0, 21.0, 27.0, 34.0])
# quantile points of the grid bisected for the shooting residual's sign change
_SCAN_POINTS = 257


def _scan_grid(model: SourceModel, beta: float) -> np.ndarray:
    """Strictly increasing grid points for the shooting variable.

    The 1e-9 .. 1 - 1e-9 quantiles, extended into an unbounded tail on the
    side the bias pushes bins into (far-tail bins sit beyond any quantile
    grid).  Only tail points past the outermost quantile are kept: a heavy
    tail's extreme quantiles lie beyond 7 sd.
    """
    eps = 1e-9
    grid = np.asarray(model.marginal_ppf(0, np.linspace(eps, 1.0 - eps, _SCAN_POINTS)), dtype=float)
    marginal = model.marginals[0]
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
    if k < 1:
        raise ValueError("need at least one bin")
    lo, hi = model.marginals[0].lo, model.marginals[0].hi
    _, mean, _ = truncated_moments_1d(model, lo, hi)
    if k == 1:
        return ScalarQuantizer(
            model=model, beta=float(beta),
            boundaries=np.array([lo, hi]), actions=np.array([mean]),
        )

    scale = max(math.sqrt(model.marginal_variance(0)), 1e-12)
    s = -1.0 if beta >= 0.0 else 1.0

    def residual(x):
        return _shoot(model, beta, k, x, lo, hi, scale, s)[0]

    # python floats: numpy scalars would slow every step of the recursion
    xs = _scan_grid(model, beta).tolist()
    # the residual increases in x: its first grid point at or above zero ends the bracket
    i = bisect.bisect_left(xs, 0.0, key=residual)

    def infeasible() -> InfeasibleBinCountError:
        # K-1 bins if they fit, else the largest count the K-1 failure reports:
        # one nested solve per smaller K, however far down the first feasible K lies
        max_feasible = 1
        if k > 2:
            try:
                solve_scalar_biased(model, beta, k - 1)
                max_feasible = k - 1
            except InfeasibleBinCountError as exc:
                max_feasible = exc.max_feasible
        return InfeasibleBinCountError(requested=k, max_feasible=max_feasible)

    if i == 0 or i == len(xs):
        raise infeasible()

    x_star = _brentq(residual, xs[i - 1], xs[i], scale)
    resid, bounds, actions = _shoot(model, beta, k, x_star, lo, hi, scale, s)
    if bounds is None or abs(resid) > 1e-8 * scale:
        # brentq can land on a feasibility jump rather than a true root
        raise infeasible()
    return ScalarQuantizer(
        model=model, beta=float(beta),
        boundaries=np.concatenate([[lo], bounds, [hi]]),
        actions=np.asarray(actions, dtype=float),
    )


# -- encoder policies -------------------------------------------------------------


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
        codes = assign_actions_batch(points, self.action_set.actions, self.bias)
        return self.action_set.actions[codes], codes


@dataclass(eq=False)
class RevealQuantizePolicy:
    """Reveal the first n-1 transformed coordinates, quantize the last.

    The revealed coordinates are approximated by uniform cells (the
    continuum claim is therefore explicitly approximate, at the reported
    resolution); the value attached to a cell, ``cell_values[r]``, is its
    midpoint.  The last transformed coordinate, which carries the whole
    bias, follows a scalar biased quantizer.  Every ``cell_edges[r]`` must
    be finite, strictly increasing and uniform (as ``linspace`` makes them):
    cell indices are computed by arithmetic, not by search.
    """

    transform: LinearTransform
    cell_edges: list[np.ndarray]
    last_boundaries: np.ndarray
    last_actions: np.ndarray
    last_bias: float
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
        return self.transform.apply(np.asarray(points, dtype=float), "forward")

    def _cell(self, x: np.ndarray, r: int) -> np.ndarray:
        """Cell index of every row of x along revealed coordinate r.

        Equal to ``clip(searchsorted(edges, x[:, r], "right") - 1, 0,
        levels - 1)``.  The edges are finite, strictly increasing and uniform
        (``__post_init__`` checks it), so the arithmetic index
        ``floor((x - lo) / w)`` is at most one cell off, and one correction
        step against the stored edges makes it exact.
        """
        edges = self.cell_edges[r]
        levels = edges.shape[0] - 1
        col = x[:, r]
        i = np.floor((col - edges[0]) / ((edges[-1] - edges[0]) / levels))
        i = np.clip(i, 0, levels - 1, out=i).astype(np.intp)
        i -= (col < edges[i]) & (i > 0)
        i += (col >= edges[i + 1]) & (i < levels - 1)
        return i

    def _cells(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Cell index columns of the revealed coordinates, and the last coordinate's bin."""
        idx = [self._cell(x, r) for r in range(self.n_revealed)]
        j = np.searchsorted(self.last_boundaries[1:-1], x[:, -1], side="left")
        return idx, j

    def decode_transformed(self, x: np.ndarray, cells=None):
        """(y, codes) for pre-transformed observations x; codes sort like the cell tuples.

        Revealed coordinates are indexed by arithmetic on their uniform grids
        (see ``_cell``).  ``cells`` is ``self._cells(x)`` when the caller
        already has it: the verifier indexes its sample once for all checks.
        """
        idx, j = self._cells(x) if cells is None else cells
        y = np.empty_like(x)
        codes = np.zeros(x.shape[0], dtype=np.int64)
        bound = 1
        for r in range(self.n_revealed):
            y[:, r] = self.cell_values[r][idx[r]]
            codes, bound = _push_digit(codes, bound, idx[r], self.cell_values[r].shape[0])
        y[:, -1] = self.last_actions[j]
        codes, _ = _push_digit(codes, bound, j, self.k_last)
        return y, codes

    def decode(self, points) -> tuple[np.ndarray, np.ndarray]:
        x = self.transformed_coordinates(points)
        y, codes = self.decode_transformed(x)
        return self.transform.apply(y, "inverse"), codes


EncoderPolicy = QuantizerPolicy | RevealQuantizePolicy


def _push_digit(codes: np.ndarray, bound: int, digit: np.ndarray, radix: int):
    """Append one mixed-radix digit, in place, to ``codes`` in ``[0, bound)``.

    Codes that could pass 2**62 are first replaced by their dense ranks (order
    kept); ``np.unique(return_inverse=True)`` would do it with ~45 MB more peak
    memory on an 8-D verify at 1e6 samples."""
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
    return codes, bound * radix


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
    transform); i.i.d. symmetric families with an equal-bias vector
    (Helmert transform, single last-coordinate action); and the 2-D
    antisymmetric bias ``b1 = -b2`` for any i.i.d. family.  Anything else
    raises ``ValueError``.

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
    if k_last < 1:
        raise ValueError("the last coordinate needs at least one bin")
    if model.cov is not None or model.table is not None:  # not i.i.d.
        raise ValueError(
            f"reveal-and-quantize is not supported for the {model.family!r} family"
        )
    nonzero = np.flatnonzero(b)

    if nonzero.size <= 1:
        # the biased coordinate decouples from the rest by independence
        biased = int(nonzero[0]) if nonzero.size else n - 1
        order = [j for j in range(n) if j != biased] + [biased]
        transform = permutation_transform(order, bias=b)
        intervals = [model.support_interval(j) for j in order[:-1]]
        scalar = solve_scalar_biased(
            iid_model(model.family, model.marginals[biased], 1), float(b[biased]), k_last
        )
        return _assemble_reveal_policy(transform, intervals, scalar.boundaries,
                                       scalar.actions, float(b[biased]), grid_levels)

    if model.family == GAUSSIAN:
        transform = bias_aligning_transform(b)
        mu_t = transform.apply(model.mean_vector, "forward")
        sigma_sq = model.marginal_variance(0)
        half = math.sqrt(sigma_sq) * float(-_special.ndtri(_TRUNCATION_EPS))
        intervals = [(mu_t[r] - half, mu_t[r] + half) for r in range(n - 1)]
        beta = float(transform.transformed_bias[-1])
        scalar = solve_scalar_biased(
            iid_gaussian(1, mean=float(mu_t[-1]), sigma_sq=sigma_sq), beta, k_last
        )
        return _assemble_reveal_policy(transform, intervals, scalar.boundaries,
                                       scalar.actions, beta, grid_levels)

    equal_bias = np.allclose(b, b[0], rtol=0.0, atol=1e-12 * max(1.0, abs(b[0])))
    antisym_2d = n == 2 and abs(b[0] + b[1]) <= 1e-12 * max(1.0, abs(b[0]))

    if equal_bias and model.symmetric:
        transform = helmert_transform(n, bias=float(b[0]))
    elif antisym_2d:
        transform = bias_aligning_transform(b)
    else:
        raise ValueError(
            "no supported construction: need a gaussian source, a single biased "
            "coordinate, an equal-bias vector with a symmetric source, or a 2-D "
            "antisymmetric bias"
        )
    if k_last != 1:
        raise ValueError(
            "quantizing the last coordinate with more than one bin requires the "
            "gaussian family (the revealed coordinates must be independent of it)"
        )
    intervals = [_support_box_range(model, transform.forward[r]) for r in range(n - 1)]
    mu_last = float(transform.apply(model.mean_vector, "forward")[-1])
    return _assemble_reveal_policy(
        transform, intervals, np.array([-math.inf, math.inf]), np.array([mu_last]),
        float(transform.transformed_bias[-1]), grid_levels,
    )


def _assemble_reveal_policy(transform, intervals, last_boundaries, last_actions,
                            last_bias, grid_levels) -> RevealQuantizePolicy:
    return RevealQuantizePolicy(
        transform=transform,
        cell_edges=[np.linspace(lo, hi, grid_levels + 1) for lo, hi in intervals],
        last_boundaries=np.asarray(last_boundaries, dtype=float),
        last_actions=np.asarray(last_actions, dtype=float),
        last_bias=float(last_bias),
    )


# -- verification ------------------------------------------------------------------


@dataclass(eq=False)
class EquilibriumCertificate:
    """Slacks and residuals for the equilibrium conditions, with verdicts.

    ``max_centroid_residual`` and ``centroid_residual_stderr`` describe the
    evaluated bin with the largest residual-to-error ratio; the pass rule is
    residual <= 3 stderr.  ``deviation_gain`` is the mean cost reduction the
    encoder could get by re-reporting within the policy's message set
    (nonnegative by construction, zero at an equilibrium).
    """

    min_pairwise_geo_slack: float
    max_centroid_residual: float
    centroid_residual_stderr: float
    centroid_max_z: float
    deviation_gain: EstimateWithError
    je: EstimateWithError
    jd: EstimateWithError
    pass_geometry: bool
    pass_centroid: bool
    pass_deviation: bool
    samples: int
    seed: int
    realized_actions: int
    evaluated_bins: int
    grid_levels: int | None = None  # continuum-approximation resolution, if any

    @property
    def passed(self) -> bool:
        return self.pass_geometry and self.pass_centroid and self.pass_deviation

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_pairwise_geo_slack": self.min_pairwise_geo_slack,
            "max_centroid_residual": self.max_centroid_residual,
            "centroid_residual_stderr": self.centroid_residual_stderr,
            "centroid_max_z": self.centroid_max_z,
            "deviation_gain": self.deviation_gain.value,
            "deviation_gain_stderr": self.deviation_gain.stderr,
            "je": float(np.asarray(self.je.value)),
            "je_stderr": self.je.stderr,
            "jd": float(np.asarray(self.jd.value)),
            "jd_stderr": self.jd.stderr,
            "pass_geometry": self.pass_geometry,
            "pass_centroid": self.pass_centroid,
            "pass_deviation": self.pass_deviation,
            "realized_actions": self.realized_actions,
            "evaluated_bins": self.evaluated_bins,
            "grid_levels": self.grid_levels,
            "samples": self.samples,
            "seed": self.seed,
        }


# verify_equilibrium: the pairwise slack may dip this far below zero, at most
# this many action pairs are checked, the centroid check looks at about this
# many bins, and it skips bins with fewer samples than the last
_GEO_TOLERANCE = 1e-6
_MAX_PAIRS = 2000
_CENTROID_BINS = 8
_MIN_BIN_COUNT = 30


def _pairwise_min_slack(realized_u: np.ndarray, counts: np.ndarray, b: np.ndarray,
                        seed: int) -> float:
    kr = realized_u.shape[0]
    if kr < 2:
        return math.inf
    if kr * (kr - 1) // 2 <= _MAX_PAIRS:
        ia, ib = np.triu_indices(kr, k=1)
    else:
        # all pairs among the heaviest actions, then a seeded random fill
        order = np.lexsort((np.arange(kr), -counts))
        top = order[: min(50, kr)]
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
    d = realized_u[ib] - realized_u[ia]
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
    and (d) estimates both players' expected costs.  The standard errors
    need at least two samples; fewer raise ``ValueError``.
    """
    if samples < 2:
        raise ValueError(f"verification needs at least 2 samples, got {samples}")
    b = as_point(b, dim=model.dim)
    m = model.sample(samples, seed)
    if isinstance(policy, QuantizerPolicy):
        u, codes = policy.decode(m)
        x = y = cells = None
    else:
        # transform, index and decode once; the centroid and deviation checks
        # reuse x, y and the cell indices
        x = policy.transformed_coordinates(m)
        cells = policy._cells(x)
        y, codes = policy.decode_transformed(x, cells)
        u = policy.transform.apply(y, "inverse")

    # one residual array at a time: m - u - b evaluates as (m - u) - b
    d = m - u
    cd = np.sum(d * d, axis=1)
    d -= b
    ce = np.sum(d * d, axis=1)
    del d
    je = EstimateWithError(float(ce.mean()), float(ce.std(ddof=1) / math.sqrt(samples)), samples)
    jd = EstimateWithError(float(cd.mean()), float(cd.std(ddof=1) / math.sqrt(samples)), samples)

    uniq, first_idx, counts = _code_groups(codes)
    if uniq.size == 0:
        raise BinDeathError(0, "policy induced no realized actions")
    realized_u = u[first_idx]
    del u  # nothing reads it below; frees room for the cell index columns

    min_slack = _pairwise_min_slack(realized_u, counts, b, seed + 1)
    pass_geometry = min_slack >= -_GEO_TOLERANCE

    max_resid, max_resid_se, max_z, evaluated = _centroid_check(
        policy, m, x, cells, codes, uniq, counts, realized_u
    )
    pass_centroid = max_z <= 3.0

    gain = _deviation_gains(policy, m, codes, b, x, y, cells)
    gain_mean = float(gain.mean())
    gain_se = float(gain.std(ddof=1) / math.sqrt(gain.shape[0]))
    deviation = EstimateWithError(gain_mean, gain_se, gain.shape[0])
    # the epsilon term absorbs float dust when the gains are identically zero
    pass_deviation = gain_mean <= 3.0 * gain_se + 1e-12 * max(1.0, float(np.asarray(je.value)))

    return EquilibriumCertificate(
        min_pairwise_geo_slack=min_slack,
        max_centroid_residual=max_resid,
        centroid_residual_stderr=max_resid_se,
        centroid_max_z=max_z,
        deviation_gain=deviation,
        je=je,
        jd=jd,
        pass_geometry=pass_geometry,
        pass_centroid=pass_centroid,
        pass_deviation=pass_deviation,
        samples=samples,
        seed=seed,
        realized_actions=int(uniq.size),
        evaluated_bins=evaluated,
        grid_levels=getattr(policy, "grid_levels", None),
    )


def _bin_stats(values: np.ndarray, idx: np.ndarray, length: int):
    """Per-bin counts, means, and mean standard errors along one coordinate."""
    counts = np.bincount(idx, minlength=length)
    sums = np.bincount(idx, weights=values, minlength=length)
    sumsq = np.bincount(idx, weights=values**2, minlength=length)
    safe = np.maximum(counts, 1)
    means = sums / safe
    var = np.maximum(sumsq / safe - means**2, 0.0)
    se = np.sqrt(var / safe)
    return counts, means, se


def _centroid_check(policy, m, x, cells, codes, uniq, counts, realized_u):
    """Largest centroid residual (value, stderr, z) over well-populated bins.

    Finite quantizers are checked on their heaviest joint bins.  Continuum
    approximations are checked per transformed coordinate on marginal bins:
    joint cells become too fragmented to estimate in higher dimension, while
    every marginal condition remains a consequence of the decoupled centroid
    conditions.
    """
    max_z, max_resid, max_resid_se, evaluated = 0.0, 0.0, math.inf, 0

    def consider(resid, se):
        nonlocal max_z, max_resid, max_resid_se, evaluated
        evaluated += 1
        if se <= 0.0:
            return
        z = resid / se
        if z >= max_z:
            max_z, max_resid, max_resid_se = z, resid, se

    if isinstance(policy, QuantizerPolicy):
        order = np.lexsort((uniq, -counts))
        for row in order[: min(_CENTROID_BINS, order.shape[0])]:
            cnt = int(counts[row])
            if cnt < _MIN_BIN_COUNT:
                continue
            sel = m[codes == uniq[row]]
            resid = float(np.linalg.norm(realized_u[row] - sel.mean(axis=0)))
            se = math.sqrt(float(np.sum(sel.var(axis=0, ddof=1))) / cnt)
            consider(resid, se)
        return max_resid, max_resid_se, max_z, evaluated

    idx, j = cells
    n_coords = policy.n_revealed + 1
    per_coord = max(2, _CENTROID_BINS // n_coords)
    for r in range(policy.n_revealed):
        levels = policy.cell_values[r].shape[0]
        cnts, means, ses = _bin_stats(x[:, r], idx[r], levels)
        top = np.argsort(-cnts, kind="stable")[:per_coord]
        for c in top:
            if cnts[c] < _MIN_BIN_COUNT:
                continue
            consider(abs(float(policy.cell_values[r][c] - means[c])), float(ses[c]))
    cnts, means, ses = _bin_stats(x[:, -1], j, policy.k_last)
    for jj in range(policy.k_last):
        if cnts[jj] < _MIN_BIN_COUNT:
            continue
        consider(abs(float(policy.last_actions[jj] - means[jj])), float(ses[jj]))
    return max_resid, max_resid_se, max_z, evaluated


def _deviation_gains(policy: EncoderPolicy, m, codes, b, x, y, cells) -> np.ndarray:
    """Per-sample cost reduction available by re-reporting within the policy.

    ``x``, ``y`` and ``cells`` are the transformed sample, its decoded values
    and its cell indices (reveal-and-quantize policies only).
    """
    if isinstance(policy, QuantizerPolicy):
        acts = policy.action_set.actions
        target = m - b
        scores = -2.0 * target @ acts.T + np.sum(acts * acts, axis=1)
        assigned = scores[np.arange(m.shape[0]), codes]
        return assigned - scores.min(axis=1)

    best = np.zeros(x.shape[0])
    for r, idx in enumerate(cells[0]):
        vals = policy.cell_values[r]
        col = x[:, r]
        # each cell holds its midpoint, so this is np.searchsorted(vals, col)
        pos = idx + (col > vals[idx])
        lo = vals[np.clip(pos - 1, 0, vals.shape[0] - 1)]
        hi = vals[np.clip(pos, 0, vals.shape[0] - 1)]
        best += np.minimum((col - lo) ** 2, (col - hi) ** 2)
    target = x[:, -1] - policy.last_bias
    acts = policy.last_actions
    pos = np.searchsorted(acts, target)
    lo = acts[np.clip(pos - 1, 0, acts.shape[0] - 1)]
    hi = acts[np.clip(pos, 0, acts.shape[0] - 1)]
    best += np.minimum((target - lo) ** 2, (target - hi) ** 2)

    assigned = np.sum((x[:, :-1] - y[:, :-1]) ** 2, axis=1) + (target - y[:, -1]) ** 2
    return assigned - best


def expected_distortions(
    policy: EncoderPolicy,
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 99,
) -> tuple[EstimateWithError, EstimateWithError]:
    """Per-dimension expected costs (encoder, decoder) of a policy."""
    b = as_point(b, dim=model.dim)
    m = model.sample(samples, seed)
    u, _ = policy.decode(m)
    n = model.dim
    ce = np.sum((m - u - b) ** 2, axis=1) / n
    cd = np.sum((m - u) ** 2, axis=1) / n
    je = EstimateWithError(float(ce.mean()), float(ce.std(ddof=1) / math.sqrt(samples)), samples)
    jd = EstimateWithError(float(cd.mean()), float(cd.std(ddof=1) / math.sqrt(samples)), samples)
    return je, jd


# -- linear (continuum) equilibrium verification -----------------------------------


@dataclass(eq=False)
class LinearEquilibriumReport:
    """Margins for the three predicates a full-revelation equilibrium needs.

    (a) the conditional-mean curve of the bias-orthogonal coordinate is
    constant; (b) the induced continuum spans the conditional support; and
    (c) no sampled observation prefers misreporting its revealed coordinate.
    """

    grid: np.ndarray
    curve: list[EstimateWithError]
    constancy_max_z: float
    pass_constancy: bool
    coverage_fraction: float
    pass_coverage: bool
    truthful_fraction: float
    pass_no_deviation: bool
    kappa: float
    b_tilde: float

    @property
    def passed(self) -> bool:
        return self.pass_constancy and self.pass_coverage and self.pass_no_deviation

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "constancy_max_z": self.constancy_max_z,
            "pass_constancy": self.pass_constancy,
            "coverage_fraction": self.coverage_fraction,
            "pass_coverage": self.pass_coverage,
            "truthful_fraction": self.truthful_fraction,
            "pass_no_deviation": self.pass_no_deviation,
            "grid": [float(t) for t in self.grid],
            "curve": [float(np.asarray(e.value)) for e in self.curve],
            "curve_stderr": [e.stderr for e in self.curve],
            "kappa": self.kappa,
            "b_tilde": self.b_tilde,
        }


# verify_linear_equilibrium: points of the constancy curve, points of the
# reporting probe's grid, and pilot observations the probe tries
_LINEAR_GRID_POINTS = 11
_PROBE_POINTS = 15
_REPORT_POINTS = 2000


def verify_linear_equilibrium(
    model: SourceModel,
    b,
    *,
    samples: int = 1_000_000,
    seed: int = 77,
) -> LinearEquilibriumReport:
    """Check whether full revelation of the bias-orthogonal coordinate holds up.

    Works in the pair coordinates ``x1 = b1 m2 - b2 m1`` (revealed) and
    ``x2 = b1 m1 + b2 m2`` (bias ``b1^2 + b2^2``).  One sample of ``samples``
    points is drawn and sorted once; the curve and the probe curve are both
    read off it (each equals ``conditional_mean_curve`` with the same
    ``samples`` and ``seed``), and the pilot is its first
    ``min(samples, 200_000)`` rows, which is what ``model.sample`` would
    draw for that count.
    """
    if model.dim != 2:
        raise DimensionMismatchError("linear-equilibrium verification needs a 2-D source")
    b = as_point(b, dim=2)
    if not np.any(b):
        raise ValueError("bias vector must be nonzero")
    b_tilde = float(b @ b)

    pairs = _sorted_pairs(model, b, samples, seed)
    pilot = pairs.pts[: min(samples, 200_000)]
    x1_pilot, _ = _pair_coordinates(b, pilot)
    grid = np.quantile(x1_pilot, np.linspace(0.02, 0.98, _LINEAR_GRID_POINTS))
    curve = _window_curve(pairs, grid)

    values = np.array([float(np.asarray(e.value)) for e in curve])
    errs = np.array([max(e.stderr, 1e-15) for e in curve])
    weights = 1.0 / errs**2
    center = float(np.sum(weights * values) / np.sum(weights))
    constancy_max_z = float(np.max(np.abs(values - center) / errs))
    pass_constancy = constancy_max_z <= 3.0

    kappa = float(b[0] * model.mean[0] + b[1] * model.mean[1])
    support = conditional_support(model, b, kappa)
    span = pair_coordinate_interval(model, b, 0)
    width = support[1] - support[0]
    if width <= 0.0:
        coverage = 1.0
    else:
        overlap = min(span[1], support[1]) - max(span[0], support[0])
        coverage = max(0.0, min(1.0, overlap / width))
    pass_coverage = coverage >= 0.99

    # reporting probe: the quadratic penalty for moving one grid gap must
    # dominate the curve-estimate noise, so the probe grid is coarse, evenly
    # spaced, and its windows wide
    q_lo, q_hi = np.quantile(x1_pilot, [0.005, 0.995])
    probe_grid = np.linspace(q_lo, q_hi, _PROBE_POINTS)
    probe_curve = _window_curve(pairs, probe_grid, target_count=max(1000, samples // 8))
    probe_vals = np.array([float(np.asarray(e.value)) for e in probe_curve])

    probe = pilot[:_REPORT_POINTS]
    x1p, x2p = _pair_coordinates(b, probe)
    inside = (x1p >= probe_grid[1]) & (x1p <= probe_grid[-2])
    x1p, x2p = x1p[inside], x2p[inside]
    cost = (x1p[:, None] - probe_grid[None, :]) ** 2 + (
        x2p[:, None] - (probe_vals + kappa)[None, :] - b_tilde
    ) ** 2
    best = np.argmin(cost, axis=1)
    gaps = np.empty_like(probe_grid)
    gaps[1:-1] = 0.5 * (probe_grid[2:] - probe_grid[:-2])
    gaps[0], gaps[-1] = probe_grid[1] - probe_grid[0], probe_grid[-1] - probe_grid[-2]
    truthful = np.abs(probe_grid[best] - x1p) <= 2.0 * gaps[best]
    truthful_fraction = float(truthful.mean()) if truthful.size else 1.0
    pass_no_deviation = truthful_fraction >= 0.99

    return LinearEquilibriumReport(
        grid=grid,
        curve=curve,
        constancy_max_z=constancy_max_z,
        pass_constancy=pass_constancy,
        coverage_fraction=coverage,
        pass_coverage=pass_coverage,
        truthful_fraction=truthful_fraction,
        pass_no_deviation=pass_no_deviation,
        kappa=kappa,
        b_tilde=b_tilde,
    )
