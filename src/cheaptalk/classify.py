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

Each equality holds to 1e-12 max(|b1|, |b2|), by the one rule the reveal
constructor reads too.  Gaussianity and symmetry are exact distributional
characterizations, so a finite numerical test cannot certify them: analytic
families carry exact flags, while tabulated densities get a numeric
symmetry test (threshold 1e-3) or an ``undetermined`` verdict with the
paper's constancy statistic (``verify_linear_equilibrium``) attached.

For correlated 2-D gaussian sources the sufficient condition is
``b1 b2 (sigma2^2 - sigma1^2) + (b1^2 - b2^2) rho = 0``; its failure is not
known to rule an equilibrium out, so the verdict is never "no" there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .equilibrium import verify_linear_equilibrium
from .geometry import _bias_case, _whole, as_point
from .sources import (
    _MIN_WINDOW_COUNT,
    CORRELATED_GAUSSIAN_2D,
    GAUSSIAN,
    SourceModel,
    _check_covariance_2d,
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


def classify_linear_existence(
    model: SourceModel, b, *, samples: int = 200_000, seed: int = 0
) -> ClassificationVerdict:
    """Decide the four-case table above for an i.i.d. 2-D source, and the
    correlated-gaussian condition for a correlated one; ``samples`` and
    ``seed``, checked on every path, feed a tabulated source's constancy."""
    samples, seed = _whole(samples, "samples", _MIN_WINDOW_COUNT), _whole(seed, "seed")
    if model.dim != 2:
        raise ValueError("classification is defined for 2-D sources")
    if model.family == CORRELATED_GAUSSIAN_2D:
        (sigma1_sq, rho), (_, sigma2_sq) = model.cov.tolist()
        return classify_correlated_gaussian(sigma1_sq, sigma2_sq, rho, b)
    b = as_point(b, dim=2)
    case = _bias_case(b)
    if case in ("zero-bias", "antisymmetric-bias"):
        return ClassificationVerdict("yes", case, "analytic")

    if case == "symmetry-required":
        if model.symmetric is True:
            return ClassificationVerdict("yes", case, "analytic")
        dev = symmetry_deviation(model)
        if model.symmetric is False:
            return ClassificationVerdict("no", case, "analytic", {"symmetry_deviation": dev})
        verdict = "yes" if dev < SYMMETRY_THRESHOLD else "no"
        return ClassificationVerdict(verdict, case, "numerical", {"symmetry_deviation": dev})

    # both components nonzero with different magnitudes: gaussian required
    if model.family == GAUSSIAN:
        return ClassificationVerdict("yes", case, "analytic")
    if model.table is None:  # an analytic family, neither gaussian nor tabulated
        return ClassificationVerdict("no", case, "analytic")
    report = verify_linear_equilibrium(model, b, samples=samples, seed=seed)
    return ClassificationVerdict(
        "undetermined", case, "numerical", {"constancy_max_z": report.constancy_max_z}
    )


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
    scale = max(abs(b[0] * b[1]) * (sigma1_sq + sigma2_sq), abs(b[0] ** 2 - b[1] ** 2) * abs(rho))
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
