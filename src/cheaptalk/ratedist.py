"""Rate-distortion layer: team function, game tuples, and the finite-n trend.

For an i.i.d. gaussian source with per-dimension variance ``sigma^2`` the
team (zero-bias) rate-distortion function is
``R(D) = max(0, log2(sigma^2 / D) / 2)``.  Any team pair ``(R_T, D_T)``
transfers to the biased game as ``(R_T, D_T + b^2, D_T)``: at a centroid
decoder the encoder's distortion always exceeds the decoder's by exactly
``b^2`` per dimension.  Conversely the game rate function is bounded by the
team function evaluated at ``min(D_d, D_e - b^2)``.

``asymptotic_experiment`` reproduces the finite-n trend behind the bound:
concentrate the bias on one coordinate, spend the rate budget on the other
``n - 1`` as scalar Lloyd-Max quantizers, and leave the biased coordinate
uninformative.  Its constant penalty is averaged over more and more
dimensions, so the per-dimension decoder distortion decreases toward the
scalar quantizer distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDistortionError
from .equilibrium import _available_cpus, _run_in_order, solve_scalar_biased
from .geometry import _whole
from .sources import _finite_parameters, _positive_parameters, iid_gaussian

__all__ = [
    "RDTuple",
    "AsymptoticRow",
    "team_rate_distortion",
    "achievable_tuple",
    "game_rate_bound",
    "asymptotic_experiment",
    "lloyd_max_quantizer",
]


@dataclass(frozen=True)
class RDTuple:
    """A rate (bits per dimension) with encoder and decoder distortions."""

    rate: float
    de: float
    dd: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.de) and math.isfinite(self.dd)):
            raise ValueError("rate and distortions must be finite")
        if self.rate < 0.0 or self.de < 0.0 or self.dd < 0.0:
            raise ValueError("rate and distortions must be nonnegative")
        if self.de < self.dd - 1e-12:
            raise ValueError("encoder distortion cannot be below decoder distortion")


def team_rate_distortion(sigma_sq: float, d: float) -> float:
    """Team rate-distortion function ``max(0, log2(sigma^2/D)/2)``."""
    _finite_parameters(sigma_sq=sigma_sq, d=d)
    _positive_parameters(sigma_sq=sigma_sq, d=d)
    if d >= sigma_sq:
        return 0.0
    return 0.5 * math.log2(sigma_sq / d)


def achievable_tuple(rate_team: float, d_team: float, b: float) -> RDTuple:
    """Game tuple achieved from a team pair: ``(R_T, D_T + b^2, D_T)``."""
    if rate_team < 0.0 or d_team <= 0.0:
        raise ValueError("team pair must have nonnegative rate and positive distortion")
    return RDTuple(rate=float(rate_team), de=float(d_team + b * b), dd=float(d_team))


def game_rate_bound(sigma_sq: float, b: float, de: float, dd: float) -> float:
    """Upper bound on the game rate function at distortions ``(de, dd)``.

    Equals the team function at ``min(dd, de - b^2)``; zero when that
    minimum exceeds the variance.  Raises
    :class:`InfeasibleDistortionError` when the minimum is nonpositive: an
    encoder distortion below ``b^2`` cannot be met, since centroid decoders
    force ``de = dd + b^2``.
    """
    _finite_parameters(sigma_sq=sigma_sq, b=b, de=de, dd=dd)
    _positive_parameters(sigma_sq=sigma_sq)
    if de <= 0.0 or dd <= 0.0:
        raise ValueError(f"de and dd must be positive, got de={de}, dd={dd}")
    effective = min(dd, de - b * b)
    if effective <= 0.0:
        raise InfeasibleDistortionError(
            f"no equilibrium code reaches de={de:g} with bias {b:g} (de - b^2 <= 0)"
        )
    return team_rate_distortion(sigma_sq, effective)


def lloyd_max_quantizer(sigma_sq: float, levels: int):
    """Team-optimal scalar quantizer of a centered gaussian; (quantizer, distortion)."""
    levels = _whole(levels, "levels", 1)
    quant = solve_scalar_biased(iid_gaussian(1, mean=0.0, sigma_sq=sigma_sq), 0.0, levels)
    return quant, quant.distortion()


@dataclass(frozen=True)
class AsymptoticRow:
    """One dimension's worth of the finite-n experiment."""

    n: int
    rate_bits: float
    jd_emp: float
    jd_stderr: float
    je_emp: float
    je_stderr: float
    jd_exact: float
    gap_emp: float
    gap_stderr: float

    CSV_COLUMNS = ("n", "R", "Jd_emp", "Jd_stderr", "Je_emp", "Je_stderr", "Jd_exact")

    def csv_values(self) -> tuple:
        return (self.n, self.rate_bits, self.jd_emp, self.jd_stderr,
                self.je_emp, self.je_stderr, self.jd_exact)


# Values drawn per chunk; each chunk of an ``n`` has its own seeded stream.
_CHUNK_VALUES = 1 << 22
# Values a job streams through its block buffers at a time, a size that stays in cache.
_BLOCK_VALUES = 1 << 15
# Bytes the jobs in flight may hold together: 25 B for each of a chunk's
# values (a draw, a cell index, a comparison flag and an error).
_MEMORY_BUDGET = 25 * _CHUNK_VALUES


def _chunk_sums(seed, idx, part, m, n, sd, first, rest, actions, shift):
    """Sums of ``jd_i``, ``jd_i**2``, ``gap_i`` and ``gap_i**2`` over chunk
    ``part`` of the ``idx``-th n: ``m`` rows of ``n`` draws from the
    stream seeded by ``[seed, idx, part]``.

    The draws pass through buffers of about ``_BLOCK_VALUES`` values:
    consecutive fills of one generator give the numbers of one fill of the
    whole chunk.  Each sum is taken over the whole chunk, since numpy's
    pairwise summation order fixes its last bits.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, idx, part]))
    block = max(1, min(m, _BLOCK_VALUES // n))  # rows
    draws = np.empty((block, n))
    cells = np.empty((block, n - 1), dtype=np.intp)
    above = np.empty((block, n - 1), dtype=bool)
    err = np.empty((block, n - 1))
    jd = np.empty(m)
    gap = np.empty(m)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        x = draws[: hi - lo]
        rng.standard_normal(out=x)
        x *= sd
        x += 0.0  # the bits of rng.normal(0.0, sd): loc + scale * z
        quantized = x[:, : n - 1]
        # the quantizer cell: how many interior boundaries lie below the draw
        cell = np.greater(quantized, first, out=cells[: hi - lo])
        for t in rest:
            cell += np.greater(quantized, t, out=above[: hi - lo])
        e = err[: hi - lo]
        np.take(actions, cell, out=e, mode="clip")  # every cell is in range
        np.subtract(quantized, e, out=e)
        e *= e
        last = x[:, n - 1]
        jd[lo:hi] = (e.sum(axis=1) + last**2) / n
        gap[lo:hi] = (shift**2 - 2.0 * shift * last) / n  # je_i - jd_i, exactly
    sum_jd, sum_gap = float(jd.sum()), float(gap.sum())
    jd *= jd  # in place, the bits of jd**2
    gap *= gap
    return sum_jd, float(jd.sum()), sum_gap, float(gap.sum())


def asymptotic_experiment(
    sigma_sq: float,
    b: float,
    rate_bits: int,
    n_list,
    *,
    samples: int = 400_000,
    seed: int = 42,
) -> list[AsymptoticRow]:
    """Empirical per-dimension distortions of the decoupled policy family.

    For each ``n``: quantize ``n - 1`` decoupled coordinates with a
    ``2**rate_bits``-level Lloyd-Max quantizer and leave the bias-carrying
    coordinate uninformative.  Per dimension,
    ``Jd = ((n-1) D_q + sigma^2) / n`` exactly and ``Je = Jd + b^2``.
    The simulation runs directly in the decoupled coordinates (the change
    of variables is orthonormal and preserves both the squared errors and
    the gaussian law).

    The ``samples`` rows of each ``n`` come in chunks of
    ``max(1, 2**22 // n)`` rows, and each chunk has its own stream,
    seeded by ``[seed, index of n, index of chunk]``.  The chunks run at
    the same time on up to as many threads as the process has CPUs
    available, and on fewer when their buffers would not fit a fixed
    memory budget.  Their sums are added in chunk order, so the rows do
    not depend on the thread count.
    """
    _finite_parameters(sigma_sq=sigma_sq, b=b)
    _positive_parameters(sigma_sq=sigma_sq)
    rate_bits = _whole(rate_bits, "rate_bits")
    n_list = [_whole(n, f"n_list[{i}]", 2) for i, n in enumerate(n_list)]
    samples, seed = _whole(samples, "samples", 2), _whole(seed, "seed")

    levels = 2**rate_bits
    quant, d_q = lloyd_max_quantizer(sigma_sq, levels)
    inner = quant.boundaries[1:-1]
    # the first comparison writes the cell index, the rest add to it; with
    # one level there is no interior boundary and no draw lies above +inf
    first, rest = (inner[0], inner[1:]) if inner.size else (math.inf, inner)
    actions = quant.actions
    sd = math.sqrt(sigma_sq)

    chunks = [max(1, min(samples, _CHUNK_VALUES // n)) for n in n_list]
    # the arguments of every chunk's _chunk_sums, in order; b sits wholly on coordinate n
    jobs = [(seed, idx, part, min(chunk, samples - done), n, sd, first, rest, actions,
             math.sqrt(n) * b)
            for idx, (n, chunk) in enumerate(zip(n_list, chunks))
            for part, done in enumerate(range(0, samples, chunk))]
    # a job holds jd and gap for its chunk, and block buffers of 25 B a value
    job_bytes = max(16 * chunk + 25 * max(n, _BLOCK_VALUES) for n, chunk in zip(n_list, chunks))
    workers = max(1, min(_available_cpus(), len(jobs), _MEMORY_BUDGET // job_bytes))
    # each n's sums of jd, jd**2, gap and gap**2, its chunks added in order
    totals = [[0.0] * 4 for _ in n_list]

    def take(i, sums):
        total = totals[jobs[i][1]]
        for k, part in enumerate(sums):
            total[k] += part

    # every job is submitted at once: its result is four floats
    _run_in_order(lambda i: _chunk_sums(*jobs[i]), len(jobs), workers, len(jobs), take)

    rows = []
    for n, (sum_jd, sum_jd2, sum_gap, sum_gap2) in zip(n_list, totals):
        jd_mean = sum_jd / samples
        jd_var = max(sum_jd2 / samples - jd_mean**2, 0.0)
        gap_mean = sum_gap / samples
        gap_var = max(sum_gap2 / samples - gap_mean**2, 0.0)
        jd_se = math.sqrt(jd_var / samples)
        gap_se = math.sqrt(gap_var / samples)
        je_mean = jd_mean + gap_mean
        # jd_i and gap_i are uncorrelated (E[last^3] = 0 for a centered gaussian)
        je_se = math.sqrt((jd_var + gap_var) / samples)
        rows.append(
            AsymptoticRow(
                n=n,
                rate_bits=float(rate_bits),
                jd_emp=jd_mean,
                jd_stderr=jd_se,
                je_emp=je_mean,
                je_stderr=je_se,
                jd_exact=((n - 1) * d_q + sigma_sq) / n,
                gap_emp=gap_mean,
                gap_stderr=gap_se,
            )
        )
    return rows
