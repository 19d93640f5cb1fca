"""One whole-number rule for every count, size and seed, and finite reals.

Each entry point that takes a count, a size or a seed reads an integer or
an integral float as its int, with the same bits, and rejects anything else
with a ``ValueError`` that starts with the argument's own name, before it
draws a sample or starts a thread.  Real scalars that must be finite are
rejected by name as well.
"""

import math
import pickle
import re

import numpy as np
import pytest

from cheaptalk.classify import classify_linear_existence
from cheaptalk.equilibrium import (
    ActionSet,
    SolverConfig,
    best_response_step,
    construct_reveal_plus_quantize,
    solve_fixed_point,
    solve_scalar_biased,
    verify_linear_equilibrium,
)
from cheaptalk.ratedist import lloyd_max_quantizer
from cheaptalk.sources import (
    GAUSSIAN,
    GaussianMarginal,
    SourceModel,
    conditional_mean_curve,
    conditional_support,
    iid_exponential,
    iid_gaussian,
    iid_laplace,
    iid_uniform,
    tabulated_density,
    truncated_moments_1d,
)
from cheaptalk.transforms import helmert_transform, permutation_transform

B3 = [0.3, 0.2, 0.1]


def table_10x10():
    """A uniform 10x10 tabulated density on the unit square."""
    return tabulated_density([0.0, 0.0], [0.1, 0.1], np.ones((10, 10)))


def sweep(samples=2_000, seed=3):
    return best_response_step(ActionSet([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), iid_gaussian(3), B3,
                              samples=samples, seed=seed)


def curve(samples=20_000, seed=5, grid=(0.0, 0.5)):
    return conditional_mean_curve(iid_gaussian(2), [1.0, 2.0], list(grid), samples=samples,
                                  seed=seed)


def case(label, call, name, rule="whole"):
    """A rejected call, the argument its message names, and the rule it breaks."""
    return pytest.param(call, name, rule, id=label)


UNIFORM_1D = SolverConfig(samples=1000)

REJECTED = [
    case("solve_fixed_point k=2.5",
         lambda: solve_fixed_point(iid_uniform(1), [0.05], 2.5, UNIFORM_1D), "k"),
    case("solve_fixed_point k=True",
         lambda: solve_fixed_point(iid_uniform(1), [0.05], True, UNIFORM_1D), "k"),
    case("best_response_step samples=0", lambda: sweep(samples=0), "samples"),
    case("best_response_step samples=2.5", lambda: sweep(samples=2.5), "samples"),
    case("best_response_step seed=-1", lambda: sweep(seed=-1), "seed"),
    case("best_response_step 2-D seed=-1",  # a 2-D sweep draws no sample
         lambda: best_response_step(ActionSet([[0.0, 0.0], [1.0, 1.0]]), iid_gaussian(2),
                                    [1.0, 0.0], seed=-1), "seed"),
    case("solve_scalar_biased k=2.5", lambda: solve_scalar_biased(iid_gaussian(1), 0.2, 2.5), "k"),
    case("solve_scalar_biased k=True",
         lambda: solve_scalar_biased(iid_gaussian(1), 0.2, True), "k"),
    case("solve_scalar_biased beta=nan",
         lambda: solve_scalar_biased(iid_gaussian(1), math.nan, 2), "beta", "finite"),
    case("solve_scalar_biased beta=inf",
         lambda: solve_scalar_biased(iid_gaussian(1), math.inf, 2), "beta", "finite"),
    case("lloyd_max_quantizer levels=2.5", lambda: lloyd_max_quantizer(1.0, 2.5), "levels"),
    case("lloyd_max_quantizer levels=True", lambda: lloyd_max_quantizer(1.0, True), "levels"),
    case("construct_reveal_plus_quantize k_last=1.5",
         lambda: construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 0.5], 1.5), "k_last"),
    case("construct_reveal_plus_quantize k_last=0",
         lambda: construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 0.5], 0), "k_last"),
    case("construct_reveal_plus_quantize grid_levels=0",
         lambda: construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 0.5], 1, grid_levels=0),
         "grid_levels"),
    case("construct_reveal_plus_quantize grid_levels=2.5",
         lambda: construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 0.5], 1, grid_levels=2.5),
         "grid_levels"),
    case("verify_linear_equilibrium samples=1",
         lambda: verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=1), "samples"),
    case("verify_linear_equilibrium samples=20000.5",
         lambda: verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=20_000.5),
         "samples"),
    case("verify_linear_equilibrium seed=-1",
         lambda: verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=20_000, seed=-1),
         "seed"),
    case("conditional_mean_curve samples=99", lambda: curve(samples=99), "samples"),
    case("conditional_mean_curve samples=True", lambda: curve(samples=True), "samples"),
    case("conditional_mean_curve seed=1.5", lambda: curve(seed=1.5), "seed"),
    case("conditional_mean_curve grid nan", lambda: curve(grid=(0.0, math.nan)), "grid", "finite"),
    case("classify_linear_existence analytic seed=-1",
         lambda: classify_linear_existence(iid_uniform(2), [1.0, -1.0], seed=-1), "seed"),
    case("classify_linear_existence analytic samples=1",
         lambda: classify_linear_existence(iid_uniform(2), [1.0, -1.0], samples=1), "samples"),
    case("classify_linear_existence tabulated samples=2.5",
         lambda: classify_linear_existence(table_10x10(), [0.3, 0.1], samples=2.5), "samples"),
    case("helmert_transform n=2.5", lambda: helmert_transform(2.5), "n"),
    case("helmert_transform n=1", lambda: helmert_transform(1), "n"),
    case("permutation_transform 1.5", lambda: permutation_transform([0, 1.5]), "order[1]"),
    case("permutation_transform None", lambda: permutation_transform([0, None]), "order[1]"),
    case("iid_gaussian n=2.5", lambda: iid_gaussian(2.5), "n"),
    case("iid_uniform n=0", lambda: iid_uniform(0), "n"),
    case("iid_exponential n=True", lambda: iid_exponential(True), "n"),
    case("iid_laplace n='2'", lambda: iid_laplace("2"), "n"),
    case("SourceModel dim=1.5",
         lambda: SourceModel(GAUSSIAN, 1.5, [0.0], (GaussianMarginal(0.0, 1.0),)), "dim"),
    case("conditional_support gaussian x2=nan",
         lambda: conditional_support(iid_gaussian(2), [1.0, 2.0], math.nan), "x2", "finite"),
    case("conditional_support uniform x2=nan",
         lambda: conditional_support(iid_uniform(2), [1.0, 2.0], math.nan), "x2", "finite"),
]


@pytest.mark.parametrize("call, name, rule", REJECTED)
def test_bad_value_is_named_before_any_sample_or_thread(monkeypatch, call, name, rule):
    import concurrent.futures

    def no_work(*args, **kwargs):
        raise AssertionError("a sample was drawn or a thread pool started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_work)
    monkeypatch.setattr(SourceModel, "_sample_chunk", no_work)
    monkeypatch.setattr(SourceModel, "quadrature_cells", no_work)
    wording = "must be a whole number of at least" if rule == "whole" else "must be finite"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {wording}"):
        call()


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (1.0, 0.0)])
def test_truncated_moments_need_ordered_ends(a, b):
    with pytest.raises(ValueError, match="^a must be at most b"):
        truncated_moments_1d(iid_gaussian(1), a, b)


def bits(value) -> tuple:
    """Every bit of a result: its repr and its pickle."""
    return repr(value), pickle.dumps(value)


# label: (call on ints, the same call on integral floats)
INTEGRAL_FLOATS = {
    "solve_fixed_point k": (
        lambda: solve_fixed_point(iid_uniform(1), [0.05], 2, UNIFORM_1D),
        lambda: solve_fixed_point(iid_uniform(1), [0.05], 2.0, UNIFORM_1D)),
    "best_response_step samples, seed": (
        lambda: sweep(), lambda: sweep(samples=2e3, seed=np.float64(3.0))),
    "solve_scalar_biased k": (
        lambda: solve_scalar_biased(iid_gaussian(1), 0.2, 3),
        lambda: solve_scalar_biased(iid_gaussian(1), 0.2, 3.0)),
    "lloyd_max_quantizer levels": (
        lambda: lloyd_max_quantizer(1.0, 4), lambda: lloyd_max_quantizer(1.0, 4.0)),
    "construct_reveal_plus_quantize k_last, grid_levels": (
        lambda: construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 0.5], 2, grid_levels=16),
        lambda: construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 0.5], 2.0,
                                               grid_levels=16.0)),
    "verify_linear_equilibrium samples, seed": (
        lambda: verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=20_000, seed=5),
        lambda: verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=2e4, seed=5.0)),
    "conditional_mean_curve samples, seed": (
        lambda: curve(), lambda: curve(samples=2e4, seed=5.0)),
    "classify_linear_existence samples, seed": (
        lambda: classify_linear_existence(table_10x10(), [0.3, 0.1], samples=20_000, seed=5),
        lambda: classify_linear_existence(table_10x10(), [0.3, 0.1], samples=2e4, seed=5.0)),
    "helmert_transform n": (
        lambda: helmert_transform(4, bias=0.5), lambda: helmert_transform(4.0, bias=0.5)),
    "permutation_transform order": (
        lambda: permutation_transform([2, 0, 1], bias=B3),
        lambda: permutation_transform([2.0, np.int64(0), np.float64(1.0)], bias=B3)),
    "iid_gaussian n": (lambda: iid_gaussian(3), lambda: iid_gaussian(3.0)),
    "iid_laplace n": (lambda: iid_laplace(2), lambda: iid_laplace(np.int32(2))),
}


@pytest.mark.parametrize("with_ints, with_floats", INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS)
def test_integral_floats_give_the_bits_of_ints(with_ints, with_floats):
    assert bits(with_floats()) == bits(with_ints())
