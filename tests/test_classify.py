import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheaptalk.classify import (
    SYMMETRY_THRESHOLD,
    classify_correlated_gaussian,
    classify_linear_existence,
    correlated_gaussian_condition,
)
from cheaptalk.equilibrium import (
    construct_reveal_plus_quantize,
    verify_equilibrium,
    verify_linear_equilibrium,
)
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

    @pytest.mark.parametrize("b", [[1.0, 2.0], [1.0, 1.0], [0.0, 3.0]])
    def test_correlated_source_answered(self, b):
        # the model's verdict is the correlated-gaussian condition on its covariance
        verdict = classify_linear_existence(correlated_gaussian_2d(1.0, 2.0, 0.5), b)
        assert verdict.to_dict() == classify_correlated_gaussian(1.0, 2.0, 0.5, b).to_dict()
        # samples and seed are checked on that path as on every other
        for bad in ({"samples": 1}, {"seed": -1}):
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must be a whole number"):
                classify_linear_existence(correlated_gaussian_2d(1.0, 2.0, 0.5), b, **bad)

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
        # the evidence is the paper's constancy statistic, as the linear check reads it
        model = self._tabulated_2d(asym=False)
        verdict = classify_linear_existence(model, [1.0, 2.0], samples=100_000, seed=5)
        assert verdict.exists == "undetermined"
        report = verify_linear_equilibrium(model, [1.0, 2.0], samples=100_000, seed=5)
        assert verdict.evidence == {"constancy_max_z": report.constancy_max_z}


def _signed(magnitude: float, negative: bool) -> float:
    return -magnitude if negative else magnitude


@st.composite
def _biases(draw):
    """A 2-D bias of magnitude 1e-200 to 1e300, either sign: a component near
    zero (straddling the 1e-12 relative tolerance), an antisymmetric or equal
    pair, exact or 3e-13 relative off, or two unrelated components."""
    x = _signed(10.0 ** draw(st.floats(-200, 300)), draw(st.booleans()))
    kind = draw(st.sampled_from(["near-zero", "antisymmetric", "equal", "general"]))
    if kind == "near-zero":
        y = _signed(draw(st.floats(0, 2e-12)) * max(1.0, abs(x)), draw(st.booleans()))
    elif kind == "general":
        y = _signed(10.0 ** draw(st.floats(-200, 300)), draw(st.booleans()))
    else:
        y = x * draw(st.sampled_from([1.0, 1.0 + 3e-13, 1.0 - 3e-13]))
        y = -y if kind == "antisymmetric" else y
    return [y, x] if draw(st.booleans()) else [x, y]


class TestOneBiasRule:
    """classify and the reveal constructor case a 2-D bias by one rule."""

    @pytest.mark.parametrize("family", [iid_gaussian, iid_uniform, iid_exponential, iid_laplace])
    @given(b=_biases())
    @settings(max_examples=150, deadline=None)
    @example(b=[1e-13, 1.0])
    @example(b=[-1.0, 5e-13])
    @example(b=[1.0, -1.0 - 3e-13])
    # the bias's norm is taken scaled, so neither overflows nor underflows
    @example(b=[1e300, -1e300])
    @example(b=[1e-14, 1e300])
    @example(b=[1e-200, 2e-200])
    def test_constructor_builds_iff_classify_says_yes(self, family, b):
        model = family(2)
        verdict = classify_linear_existence(model, b)
        try:
            construct_reveal_plus_quantize(model, b, 1)
            built = True
        except ValueError as exc:
            assert "no supported construction" in str(exc)
            built = False
        assert built == (verdict.exists == "yes"), (verdict.theorem_case, b)

    @pytest.mark.parametrize("b, case", [
        ([-1e308, -1e308], "symmetry-required"),
        ([1.7e308, 1e308], "gaussian-required"),
    ])
    def test_no_overflow_at_the_largest_biases(self, b, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdict = classify_linear_existence(iid_uniform(2), b)
        assert verdict.theorem_case == case

    def test_an_unrepresentable_bias_norm_is_named(self):
        # classify says yes, but |b| exceeds the float range: the constructor
        # names that before anything overflows
        b = [1.7e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert classify_linear_existence(iid_gaussian(2), b).exists == "yes"
            with pytest.raises(ValueError, match=r"bias norm .* is not representable"):
                construct_reveal_plus_quantize(iid_gaussian(2), b, 1)

    def test_near_zero_component_is_revealed(self):
        b = [1e-13, 1.0]
        policy = construct_reveal_plus_quantize(iid_uniform(2), b, 1)
        assert verify_equilibrium(policy, iid_uniform(2), b, samples=200_000, seed=3).passed


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
            assert report.passed, (model.family, b)
            assert [check.name for check in report.checks] == ["constancy"]

    def test_analytic_no_fails_verification(self):
        report = verify_linear_equilibrium(iid_exponential(2), [1.0, 1.0],
                                           samples=200_000, seed=42)
        assert report.constancy_max_z > 3.0
