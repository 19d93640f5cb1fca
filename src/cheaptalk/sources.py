"""Source probability models: sampling, quadrature, and conditional means.

A :class:`SourceModel` describes the distribution of the n-dimensional
observation.  It holds one frozen 1-D marginal per coordinate (gaussian,
uniform, exponential, laplace or table: support ends, moments, pdf/cdf/ppf,
truncated moments and the scalar solver's start-fixed mass-and-mean
kernel), plus the joint law where it is not a product: the
covariance of the correlated 2-D gaussian, or the table of a tabulated
density (1-D or 2-D, loaded from CSV).  Adding an i.i.d. family takes one
marginal class, one factory and its family name.

Monte Carlo estimates return :class:`EstimateWithError`, which carries the
usual standard error of the mean.  Sampling is deterministic given
``(model, count, seed)``: draws are produced in fixed-size chunks, each
from a substream keyed by ``(seed, chunk_index)``, so results do not depend
on how work is split across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
import numpy as np

from ._ndtr import _ndtr_float, ndtr, ndtri
from .errors import DimensionMismatchError
from .geometry import _whole
from .transforms import LinearTransform, pair_transform_2d

__all__ = [
    "GAUSSIAN",
    "CORRELATED_GAUSSIAN_2D",
    "UNIFORM",
    "EXPONENTIAL",
    "LAPLACE",
    "TABULATED",
    "EstimateWithError",
    "GaussianMarginal",
    "UniformMarginal",
    "ExponentialMarginal",
    "LaplaceMarginal",
    "TableMarginal",
    "SourceModel",
    "iid_model",
    "iid_gaussian",
    "correlated_gaussian_2d",
    "iid_uniform",
    "iid_exponential",
    "iid_laplace",
    "tabulated_density",
    "tabulated_from_csv",
    "conditional_mean_curve",
    "symmetry_deviation",
    "conditional_support",
    "truncated_moments_1d",
]

GAUSSIAN = "iid-gaussian"
CORRELATED_GAUSSIAN_2D = "correlated-gaussian-2d"
UNIFORM = "iid-uniform"
EXPONENTIAL = "iid-exponential"
LAPLACE = "iid-laplace"
TABULATED = "tabulated-density"

_FAMILIES = (GAUSSIAN, CORRELATED_GAUSSIAN_2D, UNIFORM, EXPONENTIAL, LAPLACE, TABULATED)

_SAMPLE_CHUNK = 1 << 16
# values an i.i.d. chunk drawn into a buffer takes from its generator at a time
_DRAW_BLOCK = 1 << 13

# unbounded supports are cut at the eps and 1 - eps quantiles
_TRUNCATION_EPS = 1e-6
# a tabulated density must integrate to 1 within this before renormalizing
_NORMALIZE_TOL = 1e-6
# conditional-mean windows need at least this many samples
_MIN_WINDOW_COUNT = 100
# quantile grid of the symmetry test
_SYMMETRY_GRID_POINTS = 801


# scipy.stats.norm's constant and density formula, so that the gaussian
# closed forms reproduce its values bit for bit without importing scipy.stats
_NORM_PDF_C = math.sqrt(2.0 * math.pi)


def _norm_pdf(z):
    # z * z, as scipy.stats squares: z**2 of a Python float would call pow(),
    # which differs in the last bit on ~7 in 10,000 inputs; np.exp, as scipy.stats
    # takes it, also for a Python float (libm's exp differs on ~5 in 100 inputs)
    return np.exp(-(z * z) / 2.0) / _NORM_PDF_C


def _exponential_bin(rate: float, d: float, w: float):
    """Mass and mean offset from ``d`` of the exponential law of ``rate`` on
    ``[0, inf)`` restricted to ``[d, d + w]``, ``d >= 0``, ``0 <= w <= inf``:
    with ``x = rate w``, ``exp(-rate d) (1 - exp(-x))`` and ``1/rate - w / expm1(x)``."""
    x = rate * w
    mass = math.exp(-rate * d) * -math.expm1(-x)
    if x < 1e-3:  # the closed form cancels; next series term: x^3/360 relative
        return mass, 0.5 * w * (1.0 - x / 6.0)
    if x > 700.0:  # x e^-x is below rounding next to 1
        return mass, 1.0 / rate
    return mass, 1.0 / rate - w / math.expm1(x)


def _exponential_variance(rate: float, w: float):
    """Variance of that bin, which does not depend on ``d``: with ``h = rate w / 2``,
    ``(1 - (h / sinh h)^2) / rate^2``."""
    x = rate * w
    if x < 1e-3:  # the closed form cancels; next series term: x^4/504 relative
        return w * w / 12.0 * (1.0 - x * x / 20.0)
    if x > 700.0:
        return 1.0 / rate**2
    h = 0.5 * x
    return (1.0 - (h / math.sinh(h)) ** 2) / rate**2


def _empty(second: bool):
    """The moments of a bin without mass: zero mass, a NaN mean and, when
    ``second``, a NaN second moment."""
    return (0.0, math.nan, math.nan) if second else (0.0, math.nan)


class _BinMoments:
    """``truncated_moments`` and the start-fixed kernel ``mass_mean_from`` of a
    marginal that defines ``_bin(a, b, second)``: the mass, the mean and, when
    ``second``, the second moment of the bin ``[a, b]``, ``a <= b``."""

    def truncated_moments(self, a: float, b: float):
        return self._bin(a, b, True)

    def mass_mean_from(self, start: float):
        """``x -> truncated_moments(min(start, x), max(start, x))[:2]``; either
        end may be infinite.  The scalar solver's boundary search reads it."""
        moments = self._bin
        return lambda x: moments(start, x, False) if start <= x else moments(x, start, False)


# gaussian bins narrower than this many sd take the width series below
_NARROW_SDS = 1e-3


def _narrow_gaussian_bin(mu: float, sd: float, a: float, b: float, second: bool):
    """Gaussian moments of a finite bin narrower than ``_NARROW_SDS`` sd: its
    mass, its mean and, when ``second``, its second moment.

    The closed forms take the mean and second moment as differences of pdf
    values, which cancel on a narrow bin.  In sd units, with ``w`` the width
    and ``z`` the midpoint, the density on the bin is
    ``phi(z) exp(-z t - t^2/2)``; integrating its Taylor series in ``t`` gives
    mass ``phi(z) w (1 + (z^2-1) w^2/24 + (z^4-6z^2+3) w^4/1920)``, mean
    offset from the midpoint ``-z w^2/12 + (z^3+2z) w^4/720`` and variance
    ``w^2/12 - (3z^2+2) w^4/720``.  The first dropped mass term,
    ``(z w)^6/322560`` relative, stays below 1e-14 out to 38 sd, past which
    the mass underflows.
    """
    w = (b - a) / sd
    mid = a + 0.5 * (b - a)
    z = (mid - mu) / sd
    zz, ww = z * z, w * w
    series = 1.0 + (zz - 1.0) * ww / 24.0 + (zz * zz - 6.0 * zz + 3.0) * ww * ww / 1920.0
    mass = w * series / _NORM_PDF_C * math.exp(-0.5 * zz)
    if mass <= 0.0:
        return _empty(second)
    mean = mid - sd * z * ww * (1.0 / 12.0 - (zz + 2.0) * ww / 720.0)
    if not second:
        return mass, mean
    var = sd * sd * ww * (1.0 / 12.0 - (3.0 * zz + 2.0) * ww / 720.0)
    return mass, mean, mean * mean + var


def _end_pdf(z: float) -> float:
    """The standard normal pdf at a standardized bin end, 0 at an infinite one:
    ``_norm_pdf``'s bits, with numpy's ``exp`` taken as a Python float."""
    return float(np.exp(-(z * z) / 2.0)) / _NORM_PDF_C if math.isfinite(z) else 0.0


def _gaussian_bin(mu: float, sd: float, alpha: float, beta: float, mass: float, pa: float, pb: float,
                  second: bool):
    """Mass, mean and, when ``second``, second moment of the gaussian bin
    between the standardized ends ``alpha <= beta``, from its positive
    ``mass`` and the pdf values ``pa``, ``pb`` at its ends."""
    z_mean = (pa - pb) / mass
    mean = mu + sd * z_mean
    if not second:
        return mass, mean
    apa = alpha * pa if math.isfinite(alpha) else 0.0
    bpb = beta * pb if math.isfinite(beta) else 0.0
    z_second = 1.0 + (apa - bpb) / mass
    second_moment = mu**2 + 2.0 * mu * sd * z_mean + sd**2 * z_second
    return float(mass), float(mean), float(second_moment)


@dataclass(frozen=True, eq=False)
class EstimateWithError:
    """A numeric estimate with its standard error and the sample count used.

    ``stderr`` is zero only for closed-form or quadrature results.
    """

    value: float
    stderr: float
    sample_count: int


@dataclass(frozen=True)
class GaussianMarginal:
    """Normal law with the given ``mean`` and ``variance``."""

    mean: float
    variance: float
    lo = -math.inf
    hi = math.inf
    symmetric = True

    def __post_init__(self):
        _finite_parameters(mean=self.mean, variance=self.variance)
        _positive_parameters(variance=self.variance)

    def pdf(self, x):
        sd = math.sqrt(self.variance)
        return _norm_pdf((np.asarray(x, dtype=float) - self.mean) / sd) / sd

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / math.sqrt(self.variance))

    def ppf(self, q):
        return ndtri(np.asarray(q, dtype=float)) * math.sqrt(self.variance) + self.mean

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(self.mean, math.sqrt(self.variance), size=size)

    def truncated_moments(self, a: float, b: float):
        return self._moments_from(a, True)(b)

    def mass_mean_from(self, start: float):
        """``x -> truncated_moments(min(start, x), max(start, x))[:2]``; either
        end may be infinite.  The scalar solver's boundary search reads it."""
        return self._moments_from(start, False)

    def _moments_from(self, start: float, second: bool):
        """``x ->`` the mass, mean and, when ``second``, second moment of the
        bin between ``start`` and ``x``, taken in either order.  The cdf
        values ``ndtr(z0)``, ``ndtr(-z0)`` and the pdf at ``start`` are each
        computed once, when a bin first reads it: a narrow bin reads none, and
        a bin with ``start`` as its lower end one of the two cdf values."""
        mu, sd = self.mean, math.sqrt(self.variance)
        z0 = (start - mu) / sd
        narrow = _NARROW_SDS * sd
        below = above = p0 = None

        def moments(x: float):
            nonlocal below, above, p0
            up = start <= x  # start is the lower end
            a, b = (start, x) if up else (x, start)
            if b - a < narrow:
                return _narrow_gaussian_bin(mu, sd, a, b, second)
            z = (x - mu) / sd if math.isfinite(x) else x
            # the mass from start to x, exactly negated when x is the lower end;
            # above the mean, masses are upper tails
            if (z0 if up else z) > 0.0:
                above = _ndtr_float(-z0) if above is None else above
                mass = above - _ndtr_float(-z)
            else:
                below = _ndtr_float(z0) if below is None else below
                mass = _ndtr_float(z) - below
            mass = mass if up else -mass
            if mass <= 0.0:
                return _empty(second)
            p0 = _end_pdf(z0) if p0 is None else p0
            if up:
                return _gaussian_bin(mu, sd, z0, z, mass, p0, _end_pdf(z), second)
            return _gaussian_bin(mu, sd, z, z0, mass, _end_pdf(z), p0, second)

        return moments


@dataclass(frozen=True)
class UniformMarginal(_BinMoments):
    """Uniform law on ``[lo, hi]``."""

    lo: float
    hi: float
    symmetric = True

    def __post_init__(self):
        _finite_parameters(lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise ValueError(f"lo must be below hi, got lo={self.lo}, hi={self.hi}")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def variance(self) -> float:
        return float((self.hi - self.lo) ** 2 / 12.0)

    def pdf(self, x):
        width = self.hi - self.lo
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / width, 0.0)

    def cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def ppf(self, q):
        return self.lo + q * (self.hi - self.lo)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)

    def _bin(self, a: float, b: float, second: bool):
        left, right = max(a, self.lo), min(b, self.hi)
        if right <= left:
            return _empty(second)
        mass = (right - left) / (self.hi - self.lo)
        mean = 0.5 * (left + right)
        if not second:
            return mass, mean
        return mass, mean, mean * mean + (right - left) ** 2 / 12.0


@dataclass(frozen=True)
class ExponentialMarginal(_BinMoments):
    """Exponential law on ``[0, inf)`` with the given ``rate``."""

    rate: float
    lo = 0.0
    hi = math.inf
    symmetric = False

    def __post_init__(self):
        _finite_parameters(rate=self.rate)
        _positive_parameters(rate=self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    def pdf(self, x):
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def cdf(self, x):
        return np.where(x >= 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def ppf(self, q):
        return -np.log1p(-q) / self.rate

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=size)

    def _bin(self, a: float, b: float, second: bool):
        a = max(a, 0.0)
        w = max(b - a, 0.0)
        mass, offset = _exponential_bin(self.rate, a, w)
        if not mass > 0.0:  # also a NaN mass, as on [inf, inf]
            return _empty(second)
        mean = a + offset
        if not second:
            return mass, mean
        return mass, mean, mean * mean + _exponential_variance(self.rate, w)


@dataclass(frozen=True)
class LaplaceMarginal(_BinMoments):
    """Laplace law with the given ``mean`` (its location) and ``scale``."""

    mean: float
    scale: float
    lo = -math.inf
    hi = math.inf
    symmetric = True

    def __post_init__(self):
        _finite_parameters(mean=self.mean, scale=self.scale)
        _positive_parameters(scale=self.scale)

    @property
    def variance(self) -> float:
        return 2.0 * self.scale**2

    def pdf(self, x):
        s = self.scale
        return np.exp(-np.abs(x - self.mean) / s) / (2.0 * s)

    def cdf(self, x):
        s = self.scale
        z = (x - self.mean) / s
        return np.where(z <= 0.0, 0.5 * np.exp(np.minimum(z, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))

    def ppf(self, q):
        s, mu = self.scale, self.mean
        return np.where(q < 0.5, mu + s * np.log(2.0 * q), mu - s * np.log(2.0 * np.maximum(1.0 - q, 1e-300)))

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.laplace(self.mean, self.scale, size=size)

    def _bin(self, a: float, b: float, second: bool):
        # two exponential halves of rate 1/scale and weight 1/2, mirrored about
        # the location; parts are (mass, mean, width), the upper half first.
        # The sums are plain loops from 0.0, as sum() adds them, at half the
        # cost of generator sums in the shooting solver's inner loop
        mu, rate = self.mean, 1.0 / self.scale
        parts = []
        if b - mu > 0.0:
            start = max(a, mu)
            w = b - start
            mass, offset = _exponential_bin(rate, start - mu, w)
            parts.append((mass, start + offset, w))
        if a - mu < 0.0:
            start = min(b, mu)
            w = -(a - start)
            mass, offset = _exponential_bin(rate, -(start - mu), w)
            parts.append((mass, start - offset, w))
        total = mean = var = 0.0
        for m, _, _ in parts:
            total += m
        if not total > 0.0:
            return _empty(second)
        for m, u, _ in parts:
            mean += m * u
        mean /= total
        if not second:
            return 0.5 * total, mean
        for m, u, w in parts:
            var += m * (_exponential_variance(rate, w) + (u - mean) ** 2)
        return 0.5 * total, mean, mean * mean + var / total


@dataclass(frozen=True, eq=False)
class TableMarginal(_BinMoments):
    """Piecewise-constant density: ``density[k]`` on ``[lo + k step, lo + (k+1) step)``.

    A tabulated source takes its mean and its sampler from the joint table and
    its symmetry verdict from a numeric test, so this class has no ``mean``,
    ``draw`` or ``symmetric``.
    """

    density: np.ndarray
    lo: float
    step: float

    @property
    def hi(self) -> float:
        return self.lo + self.step * self.density.shape[0]

    @property
    def variance(self) -> float:
        _, mean, second = self.truncated_moments(self.lo, self.hi)
        return second - mean * mean

    def pdf(self, x):
        dens, lo, step = self.density, self.lo, self.step
        k = np.floor((x - lo) / step).astype(int)
        out = np.zeros_like(np.asarray(x, dtype=float))
        ok = (k >= 0) & (k < dens.shape[0])
        out[ok] = dens[k[ok]]
        return out

    def cdf(self, x):
        dens, lo, step = self.density, self.lo, self.step
        cum = np.concatenate([[0.0], np.cumsum(dens * step)])
        pos = np.clip((x - lo) / step, 0.0, dens.shape[0])
        k = np.floor(pos).astype(int)
        k = np.clip(k, 0, dens.shape[0] - 1)
        return np.minimum(cum[k] + dens[k] * (pos - k) * step, 1.0)

    def ppf(self, q):
        dens, lo, step = self.density, self.lo, self.step
        cum = np.concatenate([[0.0], np.cumsum(dens * step)])
        cum /= cum[-1]
        k = np.clip(np.searchsorted(cum, q, side="right") - 1, 0, dens.shape[0] - 1)
        base = cum[k]
        cell_mass = np.maximum(cum[k + 1] - cum[k], 1e-300)
        return lo + (k + (q - base) / cell_mass) * step

    def _bin(self, a: float, b: float, second: bool):
        dens, lo, step = self.density, self.lo, self.step
        edges = lo + step * np.arange(dens.shape[0] + 1)
        if not (a < edges[-1] and b > edges[0]):  # off the table, [inf, inf] and [-inf, -inf] too
            return _empty(second)
        left = np.clip(edges[:-1], a, b)
        right = np.clip(edges[1:], a, b)
        w = np.maximum(right - left, 0.0)
        cell_mass = dens * w
        mass = float(np.sum(cell_mass))
        if mass <= 0.0:
            return _empty(second)
        # each cell is uniform: its centre, and its variance w^2 / 12
        centre = 0.5 * (left + right)
        mean = float(np.sum(cell_mass * centre)) / mass
        if not second:
            return mass, mean
        var = float(np.sum(cell_mass * (w * w / 12.0 + (centre - mean) ** 2))) / mass
        return mass, mean, mean * mean + var


@dataclass(eq=False)
class SourceModel:
    """Distribution of the n-dimensional source observation.

    Use the family factories (``iid_gaussian`` etc.) rather than the raw
    constructor.  ``marginals`` holds one 1-D law per coordinate; ``cov``
    and ``table`` hold the joint law of correlated gaussian and tabulated
    sources.  ``symmetric`` is the analytic marginal-symmetry flag:
    True/False when the family decides it, None when only a numeric test
    applies (tabulated densities).
    """

    family: str
    dim: int
    mean: np.ndarray
    marginals: tuple
    cov: np.ndarray | None = None
    table: np.ndarray | None = None
    symmetric: bool | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unsupported source family {self.family!r}")
        self.dim = _whole(self.dim, "dim", 1)
        self.mean = np.asarray(self.mean, dtype=float)

    # -- marginal structure ------------------------------------------------

    @property
    def mean_vector(self) -> np.ndarray:
        return self.mean.copy()

    def marginal_variance(self, i: int) -> float:
        return self.marginals[i].variance

    def marginal_pdf(self, i: int, x) -> np.ndarray:
        return self.marginals[i].pdf(np.asarray(x, dtype=float))

    def marginal_cdf(self, i: int, x) -> np.ndarray:
        return self.marginals[i].cdf(np.asarray(x, dtype=float))

    def marginal_ppf(self, i: int, q) -> np.ndarray:
        return self.marginals[i].ppf(np.asarray(q, dtype=float))

    def support_interval(self, i: int) -> tuple[float, float]:
        """Support of coordinate ``i``, cut at the 1e-6 quantiles where unbounded."""
        marginal = self.marginals[i]
        eps = _TRUNCATION_EPS
        lo = marginal.lo if math.isfinite(marginal.lo) else self.marginal_ppf(i, eps)
        hi = marginal.hi if math.isfinite(marginal.hi) else self.marginal_ppf(i, 1.0 - eps)
        return float(lo), float(hi)

    # -- sampling ------------------------------------------------------------

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` observations, shape (count, dim), deterministically.

        The stream is chunked so that ``sample(n1, s)`` is a prefix of
        ``sample(n2, s)`` whenever ``n1 <= n2``.  ``count`` must be a whole
        number of at least 1 and ``seed`` of at least 0.
        """
        count, seed = _whole(count, "count", 1), _whole(seed, "seed")
        out = np.empty((count, self.dim))
        for chunk_index in range(0, (count + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK):
            start = chunk_index * _SAMPLE_CHUNK
            m = min(_SAMPLE_CHUNK, count - start)
            self._sample_chunk(seed, chunk_index, out[start : start + m])
        return out

    def _sample_chunk(self, seed: int, chunk_index: int, out: np.ndarray) -> np.ndarray:
        """As many of the first rows of chunk ``chunk_index`` of the stream
        seeded by ``seed`` as the C-contiguous ``out`` holds, written into it;
        a chunk holds ``_SAMPLE_CHUNK`` rows.

        A chunk's rows are those of one full draw, so that shorter requests
        are exact prefixes of longer ones, whatever the family consumes
        internally.  An i.i.d. family fills ``out`` ``_DRAW_BLOCK`` values
        at a time: a generator's consecutive draws give the values of one
        draw of their total size, so the bits are the same, and no
        chunk-sized array is allocated.
        """
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        if self.cov is not None or self.table is not None:
            out[...] = self._draw(rng, _SAMPLE_CHUNK)[: out.shape[0]]
            return out
        flat = out.reshape(-1)
        for lo in range(0, flat.shape[0], _DRAW_BLOCK):
            block = flat[lo : lo + _DRAW_BLOCK]
            block[...] = self.marginals[0].draw(rng, block.shape[0])
        return out

    def _draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        if self.cov is not None:
            chol = np.linalg.cholesky(self.cov)
            return self.mean + rng.standard_normal((m, 2)) @ chol.T
        if self.table is not None:
            centers, masses = self._tabulated_cells()
            probs = masses / masses.sum()
            idx = rng.choice(masses.shape[0], size=m, p=probs)
            jitter = rng.random((m, self.dim)) - 0.5
            return centers[idx] + jitter * np.array([mg.step for mg in self.marginals])
        # i.i.d. coordinates: one draw from their common marginal
        return self.marginals[0].draw(rng, (m, self.dim))

    # -- joint density and quadrature ---------------------------------------

    def joint_pdf(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.dim)
        if self.cov is not None:
            # exp(-q/2) / (2 pi sqrt(det)), q = d' cov^-1 d with the 2x2 inverse written out
            (s11, s12), (_, s22) = self.cov.tolist()
            det = s11 * s22 - s12 * s12
            d1, d2 = pts[:, 0] - self.mean[0], pts[:, 1] - self.mean[1]
            q = (s22 * d1 * d1 - 2.0 * s12 * d1 * d2 + s11 * d2 * d2) / det
            return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))
        if self.table is not None:
            shape = self.table.shape
            dens = np.zeros(pts.shape[0])
            idx = []
            inside = np.ones(pts.shape[0], dtype=bool)
            for i, m in enumerate(self.marginals):
                k = np.floor((pts[:, i] - m.lo) / m.step).astype(int)
                inside &= (k >= 0) & (k < shape[i])
                idx.append(np.clip(k, 0, shape[i] - 1))
            dens[inside] = self.table[tuple(a[inside] for a in idx)]
            return dens
        dens = np.ones(pts.shape[0])
        for i in range(self.dim):
            dens *= self.marginal_pdf(i, pts[:, i])
        return dens

    def quadrature_cells(self, budget: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor-grid cells (centers, masses) covering the truncated support.

        For iid families the per-cell mass is an exact product of marginal
        CDF increments; the correlated gaussian uses midpoint density times
        area, and tabulated densities use their native cells exactly.
        """
        if self.table is not None:
            return self._tabulated_cells()
        if self.dim > 2:
            raise ValueError("tensor-grid quadrature is limited to dimension <= 2")
        per_dim = {1: 1 << 18, 2: 1024}[self.dim]
        per_dim = min(per_dim, max(8, int(round(budget ** (1.0 / self.dim)))))
        edges = []
        for i in range(self.dim):
            lo, hi = self.support_interval(i)
            edges.append(np.linspace(lo, hi, per_dim + 1))
        centers_1d = [0.5 * (e[1:] + e[:-1]) for e in edges]
        mesh = np.meshgrid(*centers_1d, indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=-1)
        if self.cov is not None:
            area = np.prod([e[1] - e[0] for e in edges])
            masses = self.joint_pdf(centers) * area
        else:
            masses_1d = [np.diff(self.marginal_cdf(i, edges[i])) for i in range(self.dim)]
            mmesh = np.meshgrid(*masses_1d, indexing="ij")
            masses = np.ones(centers.shape[0])
            for m in mmesh:
                masses *= m.ravel()
        return centers, masses

    # -- tabulated-density internals ----------------------------------------

    def _tabulated_cells(self) -> tuple[np.ndarray, np.ndarray]:
        vol = float(np.prod([m.step for m in self.marginals]))
        axes = [
            m.lo + m.step * (np.arange(self.table.shape[i]) + 0.5)
            for i, m in enumerate(self.marginals)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=-1)
        masses = self.table.ravel() * vol
        return centers, masses


# -- factories ----------------------------------------------------------------


def iid_model(family: str, marginal, n: int) -> SourceModel:
    """n i.i.d. coordinates that share one marginal law."""
    n = _whole(n, "n", 1)
    return SourceModel(
        family=family, dim=n, mean=np.full(n, marginal.mean), marginals=(marginal,) * n,
        symmetric=marginal.symmetric,
    )


def _finite_parameters(**values) -> None:
    """Raise ValueError naming the first parameter that is not a finite number."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def _positive_parameters(**values) -> None:
    """Raise ValueError naming the first parameter that is not positive."""
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def iid_gaussian(n: int, mean: float = 0.0, sigma_sq: float = 1.0) -> SourceModel:
    """n i.i.d. gaussian coordinates with common mean and variance."""
    _finite_parameters(mean=mean, sigma_sq=sigma_sq)
    return iid_model(GAUSSIAN, GaussianMarginal(float(mean), float(sigma_sq)), n)


def _check_covariance_2d(sigma1_sq: float, sigma2_sq: float, rho: float) -> None:
    """Raise ValueError unless the entries are finite (naming the first that
    is not) and ``[[sigma1_sq, rho], [rho, sigma2_sq]]`` is positive
    semidefinite with positive variances."""
    _finite_parameters(sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq, rho=rho)
    if sigma1_sq <= 0.0 or sigma2_sq <= 0.0 or rho**2 > sigma1_sq * sigma2_sq:
        raise ValueError("covariance matrix must be positive semidefinite with positive variances")


def correlated_gaussian_2d(
    sigma1_sq: float, sigma2_sq: float, rho: float, mean=(0.0, 0.0)
) -> SourceModel:
    """2-D gaussian with per-coordinate variances and covariance ``rho``;
    the covariance must be nonsingular, ``rho^2 < sigma1_sq sigma2_sq``."""
    _check_covariance_2d(sigma1_sq, sigma2_sq, rho)
    if not rho * rho < sigma1_sq * sigma2_sq:  # so that joint_pdf's det is positive
        raise ValueError(f"rho must satisfy rho^2 < sigma1_sq * sigma2_sq, got rho={rho}")
    cov = np.array([[sigma1_sq, rho], [rho, sigma2_sq]], dtype=float)
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (2,):
        raise ValueError("the mean of a 2-D gaussian needs two entries")
    _finite_parameters(mean=mean)
    return SourceModel(
        family=CORRELATED_GAUSSIAN_2D, dim=2, mean=mean,
        marginals=tuple(GaussianMarginal(float(mean[i]), float(cov[i, i])) for i in range(2)),
        cov=cov, symmetric=True,
    )


def iid_uniform(n: int, lo: float = 0.0, hi: float = 1.0) -> SourceModel:
    _finite_parameters(lo=lo, hi=hi)
    return iid_model(UNIFORM, UniformMarginal(float(lo), float(hi)), n)


def iid_exponential(n: int, rate: float = 1.0) -> SourceModel:
    _finite_parameters(rate=rate)
    return iid_model(EXPONENTIAL, ExponentialMarginal(float(rate)), n)


def iid_laplace(n: int, mean: float = 0.0, scale: float = 1.0) -> SourceModel:
    _finite_parameters(mean=mean, scale=scale)
    return iid_model(LAPLACE, LaplaceMarginal(float(mean), float(scale)), n)


def tabulated_density(lo, step, density) -> SourceModel:
    """Piecewise-constant density on a uniform grid (1-D or 2-D cells).

    ``density[i]`` (or ``density[i, j]``) is the density on the cell with
    lower corner ``lo + i * step``.  The table must be nonnegative and
    integrate to 1 within 1e-6; it is renormalized exactly on
    construction.
    """
    density = np.asarray(density, dtype=float)
    if density.ndim not in (1, 2):
        raise ValueError("tabulated densities must be 1-D or 2-D")
    n = density.ndim
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    step = np.atleast_1d(np.asarray(step, dtype=float))
    if lo.shape[0] != n or step.shape[0] != n or np.any(step <= 0.0):
        raise ValueError("grid origin/step must match the table dimension with positive steps")
    if np.any(density < 0.0):
        raise ValueError("density values must be nonnegative")
    total = float(density.sum() * np.prod(step))
    if abs(total - 1.0) > _NORMALIZE_TOL:
        raise ValueError(f"density integrates to {total:.8f}, expected 1 within {_NORMALIZE_TOL}")
    density = density / total
    # the marginal along axis i integrates the other axis out
    marginals = tuple(
        TableMarginal(
            density if n == 1 else density.sum(axis=1 - i) * step[1 - i],
            float(lo[i]), float(step[i]),
        )
        for i in range(n)
    )
    model = SourceModel(family=TABULATED, dim=n, mean=np.zeros(n), marginals=marginals, table=density)
    centers, masses = model._tabulated_cells()
    model.mean = (centers * masses[:, None]).sum(axis=0) / masses.sum()
    return model


def tabulated_from_csv(path) -> SourceModel:
    """Load a tabulated density from CSV.

    Expected headers: ``x,density`` (1-D) or ``x1,x2,density`` (2-D), one row
    per cell center on a uniform grid.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader)]
        rows = [[float(v) for v in row] for row in reader if row]
    if header == ["x", "density"]:
        ndim = 1
    elif header == ["x1", "x2", "density"]:
        ndim = 2
    else:
        raise ValueError(f"unrecognized tabulated-density header {header!r}")
    data = np.asarray(rows, dtype=float)
    axes = []
    for i in range(ndim):
        vals = np.unique(data[:, i])
        if vals.shape[0] < 2:
            raise ValueError("tabulated grids need at least two cells per axis")
        steps = np.diff(vals)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError(f"grid along column {header[i]} is not uniform")
        axes.append(vals)
    shape = tuple(a.shape[0] for a in axes)
    if data.shape[0] != int(np.prod(shape)):
        raise ValueError("CSV does not cover the full tensor grid")
    density = np.zeros(shape)
    idx = tuple(
        np.searchsorted(axes[i], data[:, i]) for i in range(ndim)
    )
    density[idx] = data[:, ndim]
    lo = np.array([a[0] - 0.5 * (a[1] - a[0]) for a in axes])
    step = np.array([a[1] - a[0] for a in axes])
    return tabulated_density(lo, step, density)


# -- truncated moments ---------------------------------------------------------


def truncated_moments_1d(model: SourceModel, a: float, b: float):
    """(mass, mean, second moment) of a 1-D model restricted to ``[a, b]``.

    Closed forms for every analytic family; exact cell sums for tabulated
    densities.  ``mass`` is the unconditional probability of the interval.
    """
    if model.dim != 1:
        raise DimensionMismatchError("truncated moments require a 1-D source model")
    if not a <= b:  # also a nan end
        raise ValueError(f"a must be at most b, got a={a!r}, b={b!r}")
    return model.marginals[0].truncated_moments(a, b)


# -- conditional structure for the 2-D transformed problem ---------------------


def _pair_values(pair: LinearTransform, pts):
    """``(X1, X2)`` of a point or a batch (last axis of length 2) under
    ``pair.forward``, written out entry by entry: a point's values then do not
    depend on the batch it comes in, which a BLAS product's fused
    multiply-adds do not promise."""
    (a, b), (c, d) = pair.forward
    return a * pts[..., 0] + b * pts[..., 1], c * pts[..., 0] + d * pts[..., 1]


def _support_box_range(model: SourceModel, row) -> tuple[float, float]:
    """Interval-arithmetic range of ``row . M`` over the truncated support box."""
    lo_total, hi_total = 0.0, 0.0
    for j, coef in enumerate(row):
        lo_j, hi_j = model.support_interval(j)
        a, bnd = sorted((coef * lo_j, coef * hi_j))
        lo_total += a
        hi_total += bnd
    return lo_total, hi_total


def pair_coordinate_interval(model: SourceModel, b, which: int) -> tuple[float, float]:
    """Interval-arithmetic range of ``X1`` (which=0) or ``X2`` (which=1).

    ``(X1, X2)`` is ``pair_transform_2d(b)`` applied to ``M`` over the
    (truncated) marginal support box.
    """
    return _support_box_range(model, pair_transform_2d(b).forward[which])


def conditional_mean_curve(
    model: SourceModel,
    b,
    grid,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
) -> list[EstimateWithError]:
    """Centered conditional-mean curve ``E[X2 | X1 = t] - E[X2]`` on a grid.

    ``(X1, X2)`` is ``pair_transform_2d(b)`` applied to ``M``.  Each grid point is
    estimated by an adaptive-width window around ``t`` aiming for
    ``max(100, samples / 200)`` samples.  The window width is capped at a
    quarter of the observed range; capturing fewer than 100 samples there
    is an error, and so is a ``samples`` below 100.
    """
    _finite_parameters(grid=grid)
    return _window_curve(_sorted_pairs(model, b, samples, seed), grid)


@dataclass(frozen=True, eq=False)
class _SortedPairs:
    """A sample in pair coordinates, sorted by ``X1``, with prefix sums of ``X2``."""

    model: SourceModel
    pair: LinearTransform  # pair_transform_2d(b)
    x2_mean: float  # E[X2], the pair image of the model's mean
    x1: np.ndarray  # X1 of the sample as drawn, unsorted
    x1s: np.ndarray
    csum: np.ndarray
    csq: np.ndarray


def _stable_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values[order])`` with ``order == np.argsort(values, kind="stable")``.

    One default-kind (unstable) sort first: when no two sorted neighbours
    compare equal and the last is not NaN, the keys are distinct and have a
    single sorting permutation, which every sort finds.  Otherwise (ties,
    ``-0.0`` next to ``0.0``, NaNs, which sort last and never compare equal)
    the sort is redone stably.
    """
    order = np.argsort(values)
    ordered = values[order]
    if ordered.size > 1 and (np.isnan(ordered[-1]) or np.any(ordered[1:] == ordered[:-1])):
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    return order, ordered


def _sorted_pairs(model: SourceModel, b, samples: int, seed: int) -> _SortedPairs:
    """Draw ``samples`` points once, sort them by ``X1`` and build the prefix
    sums; ``samples`` must be at least the ``_MIN_WINDOW_COUNT`` a window needs."""
    if model.dim != 2:
        raise DimensionMismatchError("conditional mean curves require a 2-D source")
    samples, seed = _whole(samples, "samples", _MIN_WINDOW_COUNT), _whole(seed, "seed")
    pair = pair_transform_2d(b)
    pts = model.sample(samples, seed)
    x1, x2 = _pair_values(pair, pts)
    order, x1s = _stable_order(x1)
    x2s = x2[order]
    csum = np.concatenate([[0.0], np.cumsum(x2s)])
    csq = np.concatenate([[0.0], np.cumsum(x2s**2)])
    x2_mean = float(_pair_values(pair, model.mean)[1])
    return _SortedPairs(model, pair, x2_mean, x1, x1s, csum, csq)


def _window_curve(pairs: _SortedPairs, grid) -> list[EstimateWithError]:
    """The windowed curve of ``conditional_mean_curve`` on one sorted sample."""
    x1s = pairs.x1s
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    lo, hi = _support_box_range(pairs.model, pairs.pair.forward[0])
    if np.any(grid < lo - 1e-12) or np.any(grid > hi + 1e-12):
        raise ValueError("grid points must lie within the truncated support of X1")

    n = x1s.shape[0]
    k = min(max(_MIN_WINDOW_COUNT, n // 200), n)
    window_sums = x1s[k - 1 :] + x1s[: n - k + 1]
    cap = 0.25 * (x1s[-1] - x1s[0])

    out = []
    for t in grid:
        left = int(np.clip(np.searchsorted(window_sums, 2.0 * t), 0, n - k))
        right = left + k
        if x1s[right - 1] - x1s[left] > 2.0 * cap:
            left = int(np.searchsorted(x1s, t - cap, side="left"))
            right = int(np.searchsorted(x1s, t + cap, side="right"))
        count = right - left
        if count < _MIN_WINDOW_COUNT:
            raise ValueError(
                f"window at t={t:g} captured {count} samples (< {_MIN_WINDOW_COUNT})"
            )
        total = pairs.csum[right] - pairs.csum[left]
        total_sq = pairs.csq[right] - pairs.csq[left]
        mean = total / count
        var = max(total_sq / count - mean**2, 0.0)
        out.append(
            EstimateWithError(
                value=float(mean - pairs.x2_mean),
                stderr=float(math.sqrt(var / count)),
                sample_count=count,
            )
        )
    return out


def symmetry_deviation(model: SourceModel, dim: int = 0) -> float:
    """Peak-normalized asymmetry of a marginal density about its mean.

    Returns ``sup |f(mu + x) - f(mu - x)| / max f`` over a quantile grid of
    offsets ``x``.  Exactly zero for densities whose evaluation is an even
    function of ``x - mu``.
    """
    mu = float(model.mean[dim])
    qs = np.linspace(_TRUNCATION_EPS, 1.0 - _TRUNCATION_EPS, _SYMMETRY_GRID_POINTS)
    xs = model.marginal_ppf(dim, qs)
    offsets = np.abs(np.asarray(xs, dtype=float) - mu)
    # re-derive the offsets after rounding so mu +/- offset are exact mirrors
    offsets = (mu + offsets) - mu
    up = model.marginal_pdf(dim, mu + offsets)
    down = model.marginal_pdf(dim, mu - offsets)
    peak = float(max(np.max(up), np.max(down), model.marginal_pdf(dim, np.array([mu]))[0]))
    if peak <= 0.0:
        return 0.0
    return float(np.max(np.abs(up - down)) / peak)


def conditional_support(model: SourceModel, b, x2: float) -> tuple[float, float]:
    """Support interval of ``X1`` given ``X2 = x2`` in pair coordinates.

    Gaussian families use the exact conditional law truncated at the
    epsilon quantiles.  Every other family clips the line ``b . m = x2``
    against the (truncated) marginal support box: each edge ``m_i = e`` with
    ``b_(1-i) != 0`` meets the line at one point, the points that lie in the
    box (to a relative 1e-12) are the segment's ends, and ``forward[0]`` of
    ``pair_transform_2d(b)`` maps them to ``X1``.
    """
    if model.dim != 2:
        raise DimensionMismatchError("conditional support requires a 2-D source")
    pair = pair_transform_2d(b)
    fwd = pair.forward
    x2 = float(x2)
    _finite_parameters(x2=x2)
    lo2, hi2 = _support_box_range(model, fwd[1])
    if x2 < lo2 - 1e-12 or x2 > hi2 + 1e-12:
        raise ValueError(f"x2={x2:g} lies outside the support of X2 [{lo2:g}, {hi2:g}]")

    if model.family in (GAUSSIAN, CORRELATED_GAUSSIAN_2D):
        cov_m = model.cov if model.cov is not None else np.eye(2) * model.marginal_variance(0)
        cov_x = fwd @ cov_m @ fwd.T
        mu_x = fwd @ model.mean
        cond_mean = mu_x[0] + cov_x[0, 1] / cov_x[1, 1] * (x2 - mu_x[1])
        cond_var = max(cov_x[0, 0] - cov_x[0, 1] ** 2 / cov_x[1, 1], 0.0)
        if cond_var == 0.0:
            return float(cond_mean), float(cond_mean)
        cond = GaussianMarginal(cond_mean, cond_var)
        return float(cond.ppf(_TRUNCATION_EPS)), float(cond.ppf(1.0 - _TRUNCATION_EPS))

    bias = fwd[1]
    box = (model.support_interval(0), model.support_interval(1))
    tol = 1e-12 * max(1.0, abs(x2))
    ends = []
    for i, j in ((0, 1), (1, 0)):
        if bias[j] == 0.0:
            continue
        for edge in box[i]:
            other = (x2 - bias[i] * edge) / bias[j]
            if box[j][0] - tol <= other <= box[j][1] + tol:
                point = np.array((edge, other) if i == 0 else (other, edge))
                ends.append(_pair_values(pair, point)[0])
    if not ends:
        raise ValueError("x2 lies outside the support of X2")
    return float(min(ends)), float(max(ends))
