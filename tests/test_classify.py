import numpy as np
import pytest

from cheaptalk.classify import (
    SYMMETRY_THRESHOLD,
    classify_correlated_gaussian,
    classify_linear_existence,
    correlated_gaussian_condition,
)
from cheaptalk.equilibrium import verify_linear_equilibrium
from cheaptalk.sources import (
    correlated_gaussian_2d,
    iid_exponential,
    iid_gaussian,
    iid_laplace,
    iid_uniform,
    tabulated_density,
)

FIXTURES = [
    (iid_gaussian(2), [1.0, 2.0], "yes", "gaussian-required"),
    (iid_exponential(2), [1.0, 1.0], "no", "symmetry-required"),
    (iid_uniform(2), [1.0, -1.0], "yes", "antisymmetric-bias"),
    (iid_exponential(2), [0.0, 3.0], "yes", "zero-bias"),
    (iid_exponential(2), [1.0, 2.0], "no", "gaussian-required"),
]


class TestDecisionTable:
    @pytest.mark.parametrize("model,b,exists,case", FIXTURES)
    def test_fixtures(self, model, b, exists, case):
        verdict = classify_linear_existence(model, b)
        assert verdict.exists == exists
        assert verdict.theorem_case == case
        assert verdict.confidence == "analytic"

    def test_symmetric_families_with_equal_bias(self):
        for model in (iid_gaussian(2), iid_uniform(2), iid_laplace(2)):
            assert classify_linear_existence(model, [0.7, 0.7]).exists == "yes"

    def test_laplace_generic_bias_not_gaussian(self):
        verdict = classify_linear_existence(iid_laplace(2), [1.0, 3.0])
        assert verdict.exists == "no" and verdict.theorem_case == "gaussian-required"

    def test_correlated_source_redirected(self):
        with pytest.raises(ValueError):
            classify_linear_existence(correlated_gaussian_2d(1.0, 1.0, 0.5), [1.0, 2.0])

    def _tabulated_2d(self, asym: bool):
        n = 32
        xs = np.linspace(0.5 / n, 1 - 0.5 / n, n)
        if asym:
            marg = np.exp(-3.0 * xs)
        else:
            marg = 1.0 - np.abs(xs - 0.5)
        dens = np.outer(marg, marg)
        dens /= dens.sum() * (1.0 / n) ** 2
        return tabulated_density([0.0, 0.0], [1.0 / n, 1.0 / n], dens)

    def test_tabulated_symmetry_thresholding(self):
        sym = classify_linear_existence(self._tabulated_2d(asym=False), [1.0, 1.0])
        assert sym.exists == "yes" and sym.confidence == "numerical"
        assert sym.evidence["symmetry_deviation"] < SYMMETRY_THRESHOLD
        asym = classify_linear_existence(self._tabulated_2d(asym=True), [1.0, 1.0])
        assert asym.exists == "no" and asym.confidence == "numerical"

    def test_tabulated_gaussian_required_is_undetermined(self):
        verdict = classify_linear_existence(self._tabulated_2d(asym=False), [1.0, 2.0],
                                            samples=100_000)
        assert verdict.exists == "undetermined"
        assert "curve_max_abs_z" in verdict.evidence


class TestCorrelatedGaussianCondition:
    def test_trivial_zero(self):
        residual, holds = correlated_gaussian_condition(1.0, 1.0, 0.37, [2.0, 2.0])
        assert residual == 0.0 and holds

    def test_rho_two_thirds(self):
        # b=(1,2), variances (1,2): residual = 2 - 3 rho, zero iff rho = 2/3
        residual, holds = correlated_gaussian_condition(1.0, 2.0, 2.0 / 3.0, [1.0, 2.0])
        assert abs(residual) < 1e-12 and holds
        residual, holds = correlated_gaussian_condition(1.0, 2.0, 0.5, [1.0, 2.0])
        assert residual == pytest.approx(0.5) and not holds

    def test_failing_example(self):
        residual, holds = correlated_gaussian_condition(1.0, 2.0, 0.0, [1.0, 1.0])
        assert residual == 1.0 and not holds

    def test_invalid_covariance(self):
        with pytest.raises(ValueError):
            correlated_gaussian_condition(1.0, 1.0, 1.2, [1.0, 1.0])
        with pytest.raises(ValueError):
            correlated_gaussian_condition(-1.0, 1.0, 0.0, [1.0, 1.0])

    @pytest.mark.parametrize("call, name", [
        (lambda: classify_correlated_gaussian(1.0, np.inf, 0.0, [1.0, 2.0]), "sigma2_sq"),
        (lambda: correlated_gaussian_condition(1.0, 1.0, np.nan, [1.0, 2.0]), "rho"),
    ])
    def test_non_finite_input_rejected_by_name(self, call, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call()

    def test_verdict_is_a_python_bool(self):
        for rho in (2.0 / 3.0, 0.5):
            assert type(correlated_gaussian_condition(1.0, 2.0, rho, [1.0, 2.0])[1]) is bool

    def test_bias_negation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s1, s2 = rng.uniform(0.2, 3.0, size=2)
            rho = rng.uniform(-1.0, 1.0) * np.sqrt(s1 * s2)
            b = rng.normal(size=2)
            r1, _ = correlated_gaussian_condition(s1, s2, rho, b)
            r2, _ = correlated_gaussian_condition(s1, s2, rho, -b)
            assert r1 == pytest.approx(r2, rel=1e-12, abs=1e-12)

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s1, s2 = rng.uniform(0.2, 3.0, size=2)
            rho = rng.uniform(-1.0, 1.0) * np.sqrt(s1 * s2)
            b1, b2 = rng.normal(size=2)
            r1, _ = correlated_gaussian_condition(s1, s2, rho, [b1, b2])
            r2, _ = correlated_gaussian_condition(s2, s1, rho, [b2, b1])
            assert r1 == pytest.approx(-r2, rel=1e-12, abs=1e-12)

    def test_verdict_never_no(self):
        holds = classify_correlated_gaussian(1.0, 2.0, 2.0 / 3.0, [1.0, 2.0])
        assert holds.exists == "yes"
        fails = classify_correlated_gaussian(1.0, 2.0, 0.0, [1.0, 1.0])
        assert fails.exists == "undetermined"  # the condition is sufficient only


class TestConsistencyWithVerification:
    def test_analytic_yes_verifies(self):
        for model, b, exists, _ in FIXTURES:
            if exists != "yes":
                continue
            report = verify_linear_equilibrium(model, b, samples=200_000, seed=41)
            assert report.pass_constancy, (model.family, b)

    def test_analytic_no_fails_verification(self):
        report = verify_linear_equilibrium(iid_exponential(2), [1.0, 1.0],
                                           samples=200_000, seed=42)
        assert report.constancy_max_z > 3.0
