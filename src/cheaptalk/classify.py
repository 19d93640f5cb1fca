"""Existence of an informative linear equilibrium from (family, bias).

For i.i.d. 2-D sources the decision table is:

==================================  =========================================
bias vector                         informative linear equilibrium exists
==================================  =========================================
``b1 = 0`` or ``b2 = 0``            always (reveal the unbiased coordinate)
``b1 = -b2 != 0``                   always, for any source distribution
``b1 = b2 != 0``                    iff the marginal density is symmetric
both nonzero, ``|b1| != |b2|``      iff the source is gaussian
==================================  =========================================

Gaussianity and symmetry are exact distributional characterizations, so a
finite numerical test cannot certify them: analytic families carry exact
flags, while tabulated densities get a numeric symmetry test (threshold
1e-3) or an ``undetermined`` verdict with conditional-mean-curve evidence
attached.

For correlated 2-D gaussian sources the sufficient condition is
``b1 b2 (sigma2^2 - sigma1^2) + (b1^2 - b2^2) rho = 0``; its failure is not
known to rule an equilibrium out, so the verdict is never "no" there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import _whole, as_point
from .sources import (
    _MIN_WINDOW_COUNT,
    CORRELATED_GAUSSIAN_2D,
    GAUSSIAN,
    SourceModel,
    _check_covariance_2d,
    conditional_mean_curve,
    pair_coordinate_interval,
    symmetry_deviation,
)

__all__ = [
    "ClassificationVerdict",
    "classify_linear_existence",
    "correlated_gaussian_condition",
    "classify_correlated_gaussian",
    "SYMMETRY_THRESHOLD",
]

SYMMETRY_THRESHOLD = 1e-3


@dataclass(eq=False)
class ClassificationVerdict:
    """Outcome of the existence decision with its supporting margins.

    ``exists`` is "yes", "no" or "undetermined"; ``confidence`` is
    "analytic" only when the verdict follows from an exact family flag.
    """

    exists: str
    theorem_case: str
    confidence: str
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _curve_evidence(model: SourceModel, b, samples: int, seed: int) -> dict:
    lo, hi = pair_coordinate_interval(model, b, 0)
    pad = 0.1 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, 9)
    curve = conditional_mean_curve(model, b, grid, samples=samples, seed=seed)
    z = max(abs(e.value) / max(e.stderr, 1e-15) for e in curve)
    return {"curve_max_abs_z": float(z)}


def classify_linear_existence(
    model: SourceModel, b, *, samples: int = 200_000, seed: int = 0
) -> ClassificationVerdict:
    """Decide the four-case table above for an i.i.d. 2-D source; ``samples``
    and ``seed``, checked on every path, feed a tabulated source's curve."""
    samples, seed = _whole(samples, "samples", _MIN_WINDOW_COUNT), _whole(seed, "seed")
    if model.dim != 2:
        raise ValueError("classification is defined for 2-D sources")
    if model.family == CORRELATED_GAUSSIAN_2D:
        raise ValueError(
            "source is not i.i.d.; use correlated_gaussian_condition / "
            "classify_correlated_gaussian for correlated gaussian sources"
        )
    b = as_point(b, dim=2)
    tol = 1e-12 * max(1.0, abs(b[0]), abs(b[1]))

    if abs(b[0]) <= tol or abs(b[1]) <= tol:
        return ClassificationVerdict("yes", "zero-bias", "analytic")

    if abs(b[0] + b[1]) <= tol:
        return ClassificationVerdict("yes", "antisymmetric-bias", "analytic")

    if abs(b[0] - b[1]) <= tol:
        if model.symmetric is True:
            return ClassificationVerdict("yes", "symmetry-required", "analytic")
        if model.symmetric is False:
            dev = symmetry_deviation(model)
            return ClassificationVerdict(
                "no", "symmetry-required", "analytic", {"symmetry_deviation": dev}
            )
        dev = symmetry_deviation(model)
        verdict = "yes" if dev < SYMMETRY_THRESHOLD else "no"
        return ClassificationVerdict(
            verdict, "symmetry-required", "numerical", {"symmetry_deviation": dev}
        )

    # both components nonzero with different magnitudes: gaussian required
    if model.family == GAUSSIAN:
        return ClassificationVerdict("yes", "gaussian-required", "analytic")
    if model.table is None:  # an analytic family, neither gaussian nor tabulated
        return ClassificationVerdict("no", "gaussian-required", "analytic")
    evidence = _curve_evidence(model, b, samples, seed)
    return ClassificationVerdict("undetermined", "gaussian-required", "numerical", evidence)


def correlated_gaussian_condition(
    sigma1_sq: float, sigma2_sq: float, rho: float, b
) -> tuple[float, bool]:
    """Residual and verdict of the correlated-gaussian decoupling condition.

    Returns ``(residual, holds)`` with
    ``residual = b1 b2 (sigma2^2 - sigma1^2) + (b1^2 - b2^2) rho``; the
    condition holds when the residual vanishes to machine precision at the
    problem's scale.
    """
    _check_covariance_2d(sigma1_sq, sigma2_sq, rho)
    b = as_point(b, dim=2)
    residual = float(b[0] * b[1] * (sigma2_sq - sigma1_sq) + (b[0] ** 2 - b[1] ** 2) * rho)
    scale = max(
        1.0,
        abs(b[0] * b[1]) * (sigma1_sq + sigma2_sq),
        abs(b[0] ** 2 - b[1] ** 2) * abs(rho),
    )
    return residual, bool(abs(residual) <= 1e-12 * scale)


def classify_correlated_gaussian(
    sigma1_sq: float, sigma2_sq: float, rho: float, b
) -> ClassificationVerdict:
    """Verdict form of the correlated-gaussian condition.

    The condition is sufficient only, so a nonzero residual yields
    "undetermined", never "no".
    """
    residual, holds = correlated_gaussian_condition(sigma1_sq, sigma2_sq, rho, b)
    return ClassificationVerdict(
        "yes" if holds else "undetermined",
        "correlated-gaussian",
        "analytic",
        {"eq_residual": residual},
    )
