import math

import numpy as np
import pytest

from cheaptalk import equilibrium, sources, transforms
from cheaptalk.equilibrium import (
    ActionSet,
    QuantizerPolicy,
    RevealQuantizePolicy,
    SolverConfig,
    best_response_step,
    construct_reveal_plus_quantize,
    expected_distortions,
    solve_fixed_point,
    solve_scalar_biased,
    verify_equilibrium,
    verify_linear_equilibrium,
)
from cheaptalk.errors import BinDeathError, InfeasibleBinCountError
from cheaptalk.geometry import assign_actions_batch
from cheaptalk.sources import (
    conditional_mean_curve,
    correlated_gaussian_2d,
    iid_exponential,
    iid_gaussian,
    iid_laplace,
    iid_uniform,
    tabulated_density,
)

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def uniform_recursion_boundaries(beta: float, k: int):
    """Closed-form oracle for uniform[0,1]: bin lengths drop by 4*beta each.

    d_1 = (1 + 2 beta k (k-1)) / k, d_{i+1} = d_i - 4 beta, boundaries are
    the partial sums.  Returns None when some length is nonpositive.
    """
    d1 = (1.0 + 2.0 * beta * k * (k - 1)) / k
    lengths = [d1 - 4.0 * beta * i for i in range(k)]
    if min(lengths) <= 0.0:
        return None
    return np.cumsum(lengths)[:-1]


def solve_up_to(model, beta, k):
    """The K-bin scalar solve, or the one at the largest feasible K below it."""
    try:
        return solve_scalar_biased(model, beta, k)
    except InfeasibleBinCountError as exc:
        return solve_scalar_biased(model, beta, exc.max_feasible)


def triangle_table():
    """Symmetric triangle density on [-1, 1], tabulated on 200 cells."""
    edges = np.linspace(-1.0, 1.0, 201)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = 1.0 - np.abs(centers)
    dens /= dens.sum() * (edges[1] - edges[0])
    return tabulated_density([-1.0], [edges[1] - edges[0]], dens)


class TestScalarSolver:
    def test_uniform_matches_recursion(self):
        for k in (1, 2, 3):
            oracle = uniform_recursion_boundaries(0.05, k)
            quant = solve_scalar_biased(iid_uniform(1), 0.05, k)
            if k == 1:
                assert np.array_equal(quant.boundaries, [0.0, 1.0])
            else:
                assert np.allclose(quant.boundaries[1:-1], oracle, atol=1e-9)
            # actions are the bin midpoints for the uniform source
            mids = 0.5 * (quant.boundaries[:-1] + quant.boundaries[1:])
            assert np.allclose(quant.actions, mids, atol=1e-9)

    def test_uniform_k4_infeasible(self):
        assert uniform_recursion_boundaries(0.05, 4) is None
        with pytest.raises(InfeasibleBinCountError) as info:
            solve_scalar_biased(iid_uniform(1), 0.05, 4)
        assert info.value.max_feasible == 3

    def test_every_feasible_k_matches_recursion(self):
        beta = 0.02
        k = 1
        while uniform_recursion_boundaries(beta, k + 1) is not None:
            k += 1
        assert k >= 3
        for kk in range(2, k + 1):
            oracle = uniform_recursion_boundaries(beta, kk)
            quant = solve_scalar_biased(iid_uniform(1), beta, kk)
            assert np.allclose(quant.boundaries[1:-1], oracle, atol=1e-9)

    def test_gaussian_two_level_lloyd_max(self):
        quant = solve_scalar_biased(iid_gaussian(1), 0.0, 2)
        assert quant.boundaries[1] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(quant.actions, [-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], atol=1e-9)
        assert quant.distortion() == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)

    def test_single_bin_is_the_mean(self):
        for model in (iid_gaussian(1, mean=1.5), iid_exponential(1, rate=2.0)):
            quant = solve_scalar_biased(model, 0.7, 1)
            assert quant.actions[0] == pytest.approx(model.mean[0], abs=1e-12)

    def test_biased_gaussian_equilibrium_conditions(self):
        beta = math.sqrt(2.0)
        for k in (2, 3, 4):
            quant = solve_scalar_biased(iid_gaussian(1), beta, k)
            # boundaries sit at the biased midpoints
            mids = 0.5 * (quant.actions[:-1] + quant.actions[1:]) + beta
            assert np.allclose(quant.boundaries[1:-1], mids, atol=1e-8)
            # adjacent actions keep the scalar separation 2*beta
            assert np.all(np.diff(quant.actions) >= 2.0 * beta - 1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4, 12])
    @pytest.mark.parametrize(
        "model, beta",
        [(iid_gaussian(1), 0.8), (iid_laplace(1), 0.3), (iid_uniform(1, -1.0, 1.0), 0.05),
         (triangle_table(), 0.02)],
        ids=["gaussian", "laplace", "uniform", "triangle"],
    )
    def test_negative_bias_mirrors_positive(self, model, beta, k):
        # a symmetric source: -beta shoots up from the first boundary, +beta down from
        # the last, and both find the same largest feasible K; K = 12 caps the bin
        # count at five biases, K = 2..4 must be feasible at the model's own
        solve = solve_up_to if k == 12 else solve_scalar_biased
        for b in (0.05, 0.1, 0.2, 0.5, 1.0) if k == 12 else (beta,):
            qp, qn = solve(model, b, k), solve(model, -b, k)
            assert qp.k == qn.k, b
            assert np.max(np.abs(qn.actions + qp.actions[::-1])) <= 1e-12, b
            assert np.all(np.abs(qn.boundaries[1:-1] + qp.boundaries[-2:0:-1]) <= 1e-12), b

    def test_scale_covariance(self):
        # scaling the source and bias by c scales the equilibrium by c
        c = 2.5
        base = solve_scalar_biased(iid_uniform(1), 0.05, 3)
        scaled = solve_scalar_biased(iid_uniform(1, lo=0.0, hi=c), 0.05 * c, 3)
        assert np.allclose(scaled.boundaries[1:-1], c * base.boundaries[1:-1], atol=1e-8)
        assert np.allclose(scaled.actions, c * base.actions, atol=1e-8)
        assert scaled.distortion() == pytest.approx(c**2 * base.distortion(), rel=1e-8)

    def test_laplace_and_tabulated_equilibrium_conditions(self):
        from cheaptalk.sources import truncated_moments_1d

        for model, beta in ((iid_laplace(1), 0.3), (triangle_table(), 0.02)):
            quant = solve_scalar_biased(model, beta, 3)
            mids = 0.5 * (quant.actions[:-1] + quant.actions[1:]) + beta
            assert np.allclose(quant.boundaries[1:-1], mids, atol=1e-9)
            for j in range(quant.k):
                _, mean, _ = truncated_moments_1d(
                    model, quant.boundaries[j], quant.boundaries[j + 1]
                )
                assert mean == pytest.approx(quant.actions[j], abs=1e-9)

    @pytest.mark.parametrize("model, beta", [(iid_exponential(1), -0.125), (iid_laplace(1), 5.0)],
                             ids=["exponential", "laplace"])
    def test_infeasible_chain_is_linear(self, model, beta, monkeypatch):
        k = 8
        brute = 1
        for kk in range(2, k + 1):
            try:
                solve_scalar_biased(model, beta, kk)
                brute = kk
            except InfeasibleBinCountError:
                break
        assert 1 < brute < k - 1  # the chain has at least two steps to walk

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        solve = equilibrium.solve_scalar_biased
        monkeypatch.setattr(equilibrium, "solve_scalar_biased", counted)
        with pytest.raises(InfeasibleBinCountError) as info:
            equilibrium.solve_scalar_biased(model, beta, k)
        assert info.value.max_feasible == brute
        # one nested solve per bin count from K-1 down to the feasible one
        assert calls == list(range(k, brute - 1, -1))
        assert len(calls) - 1 <= k - 2

    @pytest.mark.parametrize("model", [iid_gaussian(1), iid_uniform(1), iid_exponential(1),
                                       iid_laplace(1, mean=0.3, scale=2.0)],
                             ids=["gaussian", "uniform", "exponential", "laplace"])
    @pytest.mark.parametrize("beta", [0.1, -0.1])
    def test_scan_grid_strictly_increases(self, model, beta):
        grid = equilibrium._scan_grid(model, beta)
        assert np.all(np.diff(grid) > 0.0)
        if model.family == "iid-gaussian":  # all seven tail points lie past the 1e-9 quantile
            assert grid.shape == (257 + 7,)

    @pytest.mark.parametrize("model", [iid_gaussian(1), iid_laplace(1), iid_exponential(1),
                                       iid_uniform(1, -1.0, 1.0), triangle_table()],
                             ids=["gaussian", "laplace", "exponential", "uniform", "triangle"])
    def test_bisection_finds_the_scanned_bracket(self, model, monkeypatch):
        # the solver bisects its grid for the shooting residual's sign change; a
        # full scan of the grid is the oracle: the residual is negative on a
        # prefix and nonnegative after it, and the solve brackets that change
        lo, hi = model.marginals[0].lo, model.marginals[0].hi
        scale = math.sqrt(model.marginal_variance(0))
        solve, brentq = equilibrium.solve_scalar_biased, equilibrium._brentq
        brackets = []

        def recorded(f, a, b, scale):
            if f.__name__ == "residual":
                brackets.append((a, b))
            return brentq(f, a, b, scale)

        def nested(model, beta, k):  # the smaller K an infeasible solve tries next
            raise InfeasibleBinCountError(requested=k, max_feasible=1)

        monkeypatch.setattr(equilibrium, "_brentq", recorded)
        monkeypatch.setattr(equilibrium, "solve_scalar_biased", nested)
        for beta in (0.05, -0.05, 0.1, -0.1, 0.5, -0.5, math.sqrt(2.0), -math.sqrt(2.0)):
            s = -1.0 if beta >= 0.0 else 1.0
            xs = equilibrium._scan_grid(model, beta).tolist()
            for k in (2, 5, 8, 12):
                signs = [equilibrium._shoot(model, beta, k, x, lo, hi, scale, s)[0] >= 0.0
                         for x in xs]
                first = signs.index(True) if True in signs else len(xs)
                assert all(signs[first:]), (beta, k)
                brackets.clear()
                try:
                    solve(model, beta, k)
                except InfeasibleBinCountError:
                    pass
                if 0 < first < len(xs):
                    assert brackets[:1] == [(xs[first - 1], xs[first])], (beta, k)
                else:
                    assert brackets == [], (beta, k)


def _brent_outcome(solver, f, a, b, scale):
    """(root as hex or exception type, evaluations of f) of one root solve."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    try:
        return float.hex(float(solver(counted, a, b, scale))), calls
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, calls


def _scipy_brentq(f, a, b, scale):
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=1e-13 * scale, rtol=8.9e-16)


class TestBrentOracle:
    """The in-house Brent method against scipy.optimize.brentq: the same root
    bits and the same number of function evaluations."""

    def assert_same(self, f, a, b, scale=1.0):
        want = _brent_outcome(_scipy_brentq, f, a, b, scale)
        got = _brent_outcome(equilibrium._brentq, f, a, b, scale)
        assert got == want, (a, b, scale)
        return got

    def random_functions(self, rng):
        c = rng.normal()
        p = np.abs(rng.normal(size=2))
        k = rng.uniform(0.5, 20.0)
        steps = c + np.sort(rng.uniform(-0.09, 0.09, size=5))
        # each increases through c, and every bracket below reaches past c +- 0.1
        return [
            lambda x: math.tanh(3.0 * (x - c)) + p[0] * (x - c) ** 3 + p[1] * (x - c),
            lambda x: math.expm1(k * (x - c)),
            lambda x: (x - c) ** 3,
            # piecewise constant with a gentle slope: jumps over the root
            lambda x: float(np.searchsorted(steps, x)) - 2.5 + 0.01 * (x - c),
            # the scalar solver's out-of-range stand-ins around a short finite stretch
            lambda x: 1e30 if x > c else (-1e30 if x < c - 0.3 else x - c + 0.1),
        ], c

    def test_random_functions_in_both_bracket_orders(self):
        rng = np.random.default_rng(2024)
        outcomes = {"root": 0, "RuntimeError": 0}
        for _ in range(200):
            functions, c = self.random_functions(rng)
            lo = c - rng.uniform(0.1, 5.0)
            hi = c + rng.uniform(0.1, 5.0)
            scale = 10.0 ** rng.uniform(-3.0, 2.0)
            # at 1e-160 the inverse-quadratic denominator underflows to zero
            for size in (1.0, 1e-160):
                for f in functions:
                    for a, b in ((lo, hi), (hi, lo)):
                        root, _ = self.assert_same(lambda x: size * f(x), a, b, scale)
                        outcomes["RuntimeError" if root == "RuntimeError" else "root"] += 1
        # Brent's steps crawl into the triple root of (x - c)**3: at size 1 both
        # solvers hit the 100-iteration cap there, after the same 102 calls
        assert outcomes == {"root": 3600, "RuntimeError": 400}

    def test_exact_zero_endpoints(self):
        assert self.assert_same(lambda x: x, 0.0, 1.0) == (float.hex(0.0), 2)
        assert self.assert_same(lambda x: x - 1.0, 0.0, 1.0) == (float.hex(1.0), 2)
        assert self.assert_same(lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0)[1] == 2

    def test_nan_raises_value_error(self):
        assert self.assert_same(lambda x: math.nan, 0.0, 1.0) == ("ValueError", 1)
        inner_nan = self.assert_same(lambda x: math.nan if 0.3 < x < 0.7 else x - 0.6, 0.0, 1.0)
        assert inner_nan[0] == "ValueError" and inner_nan[1] > 2

    def test_same_signs_raise_value_error(self):
        assert self.assert_same(lambda x: x * x + 1.0, -1.0, 1.0) == ("ValueError", 2)
        assert self.assert_same(lambda x: -1e-300, 0.0, 1.0) == ("ValueError", 2)

    def test_iteration_cap_raises_runtime_error(self):
        # Brent's steps crawl into a triple root: 100 iterations after the two end points
        assert self.assert_same(lambda x: (x - 0.3) ** 3, 0.0, 1.0) == ("RuntimeError", 102)


class TestBestResponse:
    def test_single_action_moves_to_mean_and_stays(self):
        model = iid_gaussian(2, mean=0.5)
        stepped = best_response_step(ActionSet(np.array([[3.0, -2.0]])), model, [1.0, 1.0])
        assert np.allclose(stepped.actions[0], [0.5, 0.5], atol=1e-6)
        again = best_response_step(stepped, model, [1.0, 1.0])
        assert np.allclose(again.actions, stepped.actions, atol=1e-9)

    def test_uniform_equilibrium_is_fixed(self):
        oracle = uniform_recursion_boundaries(0.05, 3)
        bounds = np.concatenate([[0.0], oracle, [1.0]])
        actions = 0.5 * (bounds[:-1] + bounds[1:])
        stepped = best_response_step(
            ActionSet(actions.reshape(-1, 1)), iid_uniform(1), [0.05], samples=400_000
        )
        assert np.allclose(stepped.actions.ravel(), actions, atol=5e-5)

    def test_gaussian_lloyd_step(self):
        stepped = best_response_step(
            ActionSet(np.array([[-1.0], [1.0]])), iid_gaussian(1), [0.0], samples=400_000
        )
        assert np.allclose(
            stepped.actions.ravel(), [-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], atol=1e-4
        )

    def test_bin_death_reports_index(self):
        with pytest.raises(BinDeathError) as info:
            best_response_step(
                ActionSet(np.array([[0.5], [50.0]])), iid_uniform(1), [0.0], samples=10_000
            )
        assert info.value.index == 1

    def test_damping_moves_halfway(self):
        model = iid_gaussian(1)
        start = ActionSet(np.array([[2.0]]))
        half = best_response_step(start, model, [0.0], damping=0.5)
        assert half.actions[0, 0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("model, b, k", [
        (iid_uniform(1), [0.05], 3),
        (iid_gaussian(2), [1.0, 0.5], 3),
        (iid_laplace(3), [1.0, 0.0, 0.0], 4),
    ])
    def test_prepared_measure_matches_the_plain_sweep(self, model, b, k):
        b = np.asarray(b, dtype=float)
        pts, w = equilibrium._evaluation_measure(model, 20_000, 7)
        measure = equilibrium._SweepMeasure(pts, w, b)
        rng = np.random.default_rng(k)
        for kk in (k, 2, k):  # the score buffer is resized and reused
            acts = ActionSet(pts[rng.choice(pts.shape[0], size=kk, replace=False)])
            prepared = best_response_step(acts, model, b, _measure=measure)
            plain = best_response_step(acts, model, b, samples=20_000, seed=7)
            assert np.array_equal(prepared.actions, plain.actions)
            # the same sweep written with argmin and products formed per sweep
            idx = np.argmin(
                (-2.0 * (pts - b)) @ acts.actions.T + np.sum(acts.actions ** 2, 1), axis=1
            )
            mass = np.bincount(idx, weights=w, minlength=kk)
            oracle = np.stack(
                [np.bincount(idx, weights=w * pts[:, d], minlength=kk) / mass
                 for d in range(pts.shape[1])], axis=1,
            )
            a = acts.actions
            assert np.array_equal(prepared.actions, a + 1.0 * (oracle - a))


class TestFixedPoint:
    def test_single_action_converges_immediately(self):
        result = solve_fixed_point(iid_gaussian(2), [1.0, 1.0], 1, SolverConfig(samples=100_000))
        assert result.converged and result.iterations <= 2
        assert np.allclose(result.actions.actions, [[0.0, 0.0]], atol=1e-9)

    def test_uniform_three_bins(self):
        result = solve_fixed_point(iid_uniform(1), [0.05], 3, SolverConfig(samples=400_000))
        assert result.converged
        oracle = uniform_recursion_boundaries(0.05, 3)
        centroids = 0.5 * (
            np.concatenate([[0.0], oracle]) + np.concatenate([oracle, [1.0]])
        )
        assert np.allclose(np.sort(result.actions.actions.ravel()), centroids, atol=5e-4)

    def test_uniform_four_bins_dies(self):
        with pytest.raises(BinDeathError):
            solve_fixed_point(
                iid_uniform(1), [0.05], 4, SolverConfig(samples=200_000, max_iterations=400)
            )

    def test_fixed_point_property_of_verified_set(self):
        # re-stepping a converged set moves it by at most discretization noise
        result = solve_fixed_point(iid_uniform(1), [0.05], 3, SolverConfig(samples=400_000))
        stepped = best_response_step(
            result.actions, iid_uniform(1), [0.05], samples=400_000
        )
        assert np.max(np.abs(stepped.actions - result.actions.actions)) < 1e-6

    def test_uniform_solve_is_pinned(self):
        # the `solve` CLI payload: the 1-D path must not move by a bit
        result = solve_fixed_point(iid_uniform(1), [0.05], 3, SolverConfig(samples=400_000, seed=42))
        assert result.converged and result.iterations == 38
        assert result.actions.actions.ravel().tolist() == [
            0.2666645050048828, 0.6999950408935547, 0.9333305358886719,
        ]

    def test_cli_scalar_solves_are_pinned(self):
        # the K = 2 gaussian solves behind the `rd` and `verify` CLI payloads:
        # their brentq brackets, so every bit of their roots, must not move
        from cheaptalk.ratedist import lloyd_max_quantizer

        def hexes(values):
            return [float(v).hex() for v in np.ravel(values)]

        quant, distortion = lloyd_max_quantizer(1.0, 2)
        assert hexes(quant.boundaries) == ["-inf", "0x0.0p+0", "inf"]
        assert hexes(quant.actions) == ["-0x1.9884533d43651p-1", "0x1.9884533d43651p-1"]
        assert hexes(distortion) == ["0x1.7419f246c6efap-2"]
        policy = construct_reveal_plus_quantize(iid_gaussian(2), [1, 1], 2)
        assert hexes(policy.transform.transformed_bias[-1]) == ["0x1.6a09e667f3bccp+0"]
        assert hexes(policy.last_boundaries) == ["-inf", "0x1.8cf6c3e66be97p+1", "inf"]
        assert hexes(policy.last_actions) == ["-0x1.aae722442cc00p-9", "0x1.b04e5b2d75215p+1"]

    def test_drifting_3d_solve_reaches_an_exact_fixed_point(self):
        # halving the step once the movement shrinks slowly left this case
        # unconverged at 500 sweeps; at damping 1 it settles exactly
        model, b = iid_gaussian(3), [0.3, 0.2, 0.1]
        result = solve_fixed_point(model, b, 4, SolverConfig(samples=50_000, seed=5))
        assert result.converged and result.iterations < 400
        assert result.movements[-1] == 0.0
        again = best_response_step(result.actions, model, b, samples=50_000, seed=5)
        assert np.array_equal(again.actions, result.actions.actions)

    @pytest.mark.parametrize("damping", [1.0, 0.75])
    def test_damping_is_applied_as_configured(self, damping):
        # no sweep of the solve may switch to a smaller step than configured
        model, b = iid_gaussian(2), [1.0, 0.5]
        cfg = SolverConfig(samples=10_000, damping=damping, max_iterations=30, tolerance=1e-12)
        result = solve_fixed_point(model, b, 3, cfg)
        pts, w = equilibrium._evaluation_measure(model, cfg.samples, cfg.seed)
        actions = equilibrium._initial_actions(model, np.asarray(b), 3, pts, w)
        measure = equilibrium._SweepMeasure(pts, w, np.asarray(b))
        for _ in range(result.iterations):
            actions = best_response_step(actions, model, b, damping=damping, _measure=measure)
        assert np.array_equal(actions.actions, result.actions.actions)

    def test_fixed_point_scale_covariance(self):
        c = 3.0
        cfg = SolverConfig(samples=200_000)
        base = solve_fixed_point(iid_uniform(1), [0.05], 2, cfg)
        scaled = solve_fixed_point(iid_uniform(1, lo=0.0, hi=c), [0.05 * c], 2, cfg)
        assert np.allclose(
            np.sort(scaled.actions.actions.ravel()),
            c * np.sort(base.actions.actions.ravel()),
            atol=5e-4 * c,
        )


# the three lloyd-certify benchmark solves and the `solve` example config
LLOYD_CASES = [
    pytest.param(iid_gaussian(2), [1.0, 0.5], 3, SolverConfig(samples=62_500, seed=42),
                 id="gauss2d-quad"),
    pytest.param(iid_gaussian(3), [0.3, 0.2, 0.1], 4, SolverConfig(samples=200_000, seed=42),
                 id="gauss3d-mc"),
    pytest.param(iid_laplace(3), [1.0, 0.0, 0.0], 3, SolverConfig(samples=100_000, seed=42),
                 id="laplace3d-mc"),
    pytest.param(iid_uniform(1), [0.05], 3, SolverConfig(samples=400_000, seed=42),
                 id="uniform1d"),
]


class TestBoundedSweeps:
    @pytest.mark.parametrize("model, b, k, cfg", LLOYD_CASES)
    def test_every_sweep_matches_a_full_assignment(self, model, b, k, cfg):
        b = np.asarray(b, dtype=float)
        result = solve_fixed_point(model, b, k, cfg)
        pts, w = equilibrium._evaluation_measure(model, cfg.samples, cfg.seed)
        n = pts.shape[0]
        measure = equilibrium._SweepMeasure(pts, w, b)
        bounded_assign = measure.assign
        counts = []

        def checked_assign(acts):
            idx = bounded_assign(acts)
            assert np.array_equal(idx, assign_actions_batch(pts, acts, b))
            counts.append((measure.rescored, measure.changed))
            return idx

        measure.assign = checked_assign
        actions = equilibrium._initial_actions(model, b, k, pts, w)
        for _ in range(result.iterations):
            actions = best_response_step(actions, model, b, _measure=measure)
        assert np.array_equal(actions.actions, result.actions.actions)
        assert counts == list(zip(result.rescored, result.changed))
        assert len(result.rescored) == len(result.movements) == result.iterations
        assert result.rescored[0] == result.changed[0] == n
        assert sum(r < n for r in result.rescored) > result.iterations // 2
        assert result.movements[-1] == 0.0 and result.changed[-1] == 0

    @pytest.mark.parametrize("first", [0, 1])
    def test_planted_ties_keep_the_lowest_index(self, first):
        # a grid symmetric about x = 0 and actions mirrored about it: the
        # points on that line tie exactly in every sweep, and stay due for
        # a rescore, which must give them the lower index as argmin does
        g = np.arange(-20, 21) / 10.0
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        b = np.array([0.0, 0.25])
        measure = equilibrium._SweepMeasure(pts, np.full(pts.shape[0], 1.0), b)
        on_line = pts[:, 0] == 0.0
        side = 1.0 if first == 0 else -1.0
        for x, y in [(1.0, 0.0), (1.01, 0.02), (0.99, -0.01), (1.0, 0.03), (1.02, 0.03)]:
            acts = np.array([[-side * x, y], [side * x, y]])
            idx = measure.assign(acts)
            assert np.array_equal(idx, assign_actions_batch(pts, acts, b))
            assert np.all(idx[on_line] == 0)
            assert measure.rescored >= on_line.sum()
        assert measure.rescored < pts.shape[0]

    def test_single_due_point_is_rescored_alone(self):
        # one exact tie and far points: the tie is the only point due
        pts = np.array([[0.0, 0.0], [-5.0, 0.0], [5.0, 0.0], [-6.0, 1.0], [6.0, 1.0]])
        b = np.zeros(2)
        measure = equilibrium._SweepMeasure(pts, np.full(5, 0.2), b)
        for x in (1.0, 1.01):
            acts = np.array([[-x, 0.0], [x, 0.0]])
            idx = measure.assign(acts)
            assert np.array_equal(idx, assign_actions_batch(pts, acts, b))
        assert measure.rescored == 1 and measure.changed == 0

    @pytest.mark.parametrize("model, b, k", [
        (iid_uniform(1), [0.05], 3),
        (iid_gaussian(2), [1.0, 0.5], 3),
        (iid_laplace(3), [1.0, 0.0, 0.0], 4),
    ])
    def test_reused_measure_matches_the_plain_sweep(self, model, b, k):
        # one measure across a jittered restart, an unrelated action set and
        # changes of K, each followed by sweeps that carry the bounds
        b = np.asarray(b, dtype=float)
        pts, w = equilibrium._evaluation_measure(model, 20_000, 7)
        measure = equilibrium._SweepMeasure(pts, w, b)
        rng = np.random.default_rng(k)
        starts = [
            equilibrium._initial_actions(model, b, k, pts, w),
            equilibrium._initial_actions(model, b, k, pts, w, jitter_seed=3),
            ActionSet(pts[rng.choice(pts.shape[0], size=k, replace=False)]),
            equilibrium._initial_actions(model, b, 2, pts, w),
            equilibrium._initial_actions(model, b, k, pts, w),
        ]
        for acts in starts:
            for _ in range(5):
                prepared = best_response_step(acts, model, b, _measure=measure)
                plain = best_response_step(acts, model, b, samples=20_000, seed=7)
                assert np.array_equal(prepared.actions, plain.actions)
                acts = prepared


def noninformative_policy(model, b):
    return QuantizerPolicy(ActionSet(model.mean_vector.reshape(1, -1)), np.asarray(b, float))


class TestVerifyEquilibrium:
    def test_noninformative_passes_with_known_costs(self):
        model = iid_gaussian(2)
        b = [1.0, 1.0]
        cert = verify_equilibrium(noninformative_policy(model, b), model, b,
                                  samples=400_000, seed=21)
        assert cert.passed
        assert cert.min_pairwise_geo_slack == math.inf  # single action: no pairs
        assert cert.jd.value == pytest.approx(2.0, abs=3 * cert.jd.stderr)
        assert cert.je.value == pytest.approx(4.0, abs=3 * cert.je.stderr)

    def test_planted_violation_fails_geometry(self):
        model = iid_gaussian(2)
        b = [1.0, 0.0]
        policy = QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), np.asarray(b))
        cert = verify_equilibrium(policy, model, b, samples=100_000, seed=22)
        assert cert.min_pairwise_geo_slack == pytest.approx(-1.0, abs=1e-12)
        assert not cert.pass_geometry and not cert.passed

    def test_reveal_quantize_gaussian_passes(self):
        model = iid_gaussian(2)
        b = [1.0, 1.0]
        policy = construct_reveal_plus_quantize(model, b, 2)
        cert = verify_equilibrium(policy, model, b, samples=400_000, seed=23)
        assert cert.passed
        assert cert.je.value - cert.jd.value == pytest.approx(
            2.0, abs=3 * math.hypot(cert.je.stderr, cert.jd.stderr)
        )

    def test_reveal_verify_transforms_once(self, monkeypatch):
        model = iid_gaussian(3)
        b = [0.5, -0.3, 0.2]
        policy = construct_reveal_plus_quantize(model, b, 2, grid_levels=64)
        directions = []
        apply = transforms.LinearTransform.apply

        def counted(self, p, direction="forward"):
            directions.append(direction)
            return apply(self, p, direction)

        monkeypatch.setattr(transforms.LinearTransform, "apply", counted)
        verify_equilibrium(policy, model, b, samples=20_000, seed=3)
        assert directions == ["forward", "inverse"]

    def test_reveal_verify_indexes_each_coordinate_once(self, monkeypatch):
        model = iid_gaussian(3)
        b = [0.5, -0.3, 0.2]
        policy = construct_reveal_plus_quantize(model, b, 2, grid_levels=64)
        calls = []
        cell = RevealQuantizePolicy._cell

        def counted(self, x, r):
            calls.append(r)
            return cell(self, x, r)

        monkeypatch.setattr(RevealQuantizePolicy, "_cell", counted)
        verify_equilibrium(policy, model, b, samples=20_000, seed=3)
        assert calls == list(range(policy.n_revealed))

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=16)
        with pytest.raises(ValueError, match="at least 2 samples"):
            verify_equilibrium(policy, model, [1.0, 1.0], samples=samples)

    def test_solved_quantizer_passes(self):
        model = iid_uniform(1)
        result = solve_fixed_point(model, [0.05], 3, SolverConfig(samples=400_000))
        policy = QuantizerPolicy(result.actions, np.array([0.05]))
        cert = verify_equilibrium(policy, model, [0.05], samples=400_000, seed=24)
        assert cert.passed

    def test_off_centroid_actions_fail_centroid_check(self):
        model = iid_gaussian(1)
        result = solve_fixed_point(model, [0.0], 2, SolverConfig(samples=300_000))
        shifted = QuantizerPolicy(ActionSet(result.actions.actions + 0.05), np.array([0.0]))
        cert = verify_equilibrium(shifted, model, [0.0], samples=300_000, seed=50)
        assert not cert.pass_centroid and not cert.passed
        assert cert.centroid_max_z > 5.0

    def test_corrupted_boundary_fails_deviation_check(self):
        import copy

        model = iid_gaussian(2)
        b = [1.0, 1.0]
        policy = construct_reveal_plus_quantize(model, b, 2)
        bad = copy.deepcopy(policy)
        bad.last_boundaries = bad.last_boundaries.copy()
        bad.last_boundaries[1] -= 0.8  # no longer the encoder's indifference point
        cert = verify_equilibrium(bad, model, b, samples=300_000, seed=51)
        assert not cert.pass_deviation
        assert cert.deviation_gain.value > 3.0 * cert.deviation_gain.stderr

    def test_correlated_gaussian_fixed_point_verifies(self):
        model = correlated_gaussian_2d(1.0, 2.0, 0.8)
        b = [0.3, 0.1]
        result = solve_fixed_point(model, b, 3, SolverConfig(samples=250_000))
        assert result.converged
        policy = QuantizerPolicy(result.actions, np.asarray(b))
        cert = verify_equilibrium(policy, model, b, samples=250_000, seed=52)
        assert cert.passed


class TestConstructRevealPlusQuantize:
    def test_gaussian_reveals_difference_direction(self):
        policy = construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 1.0], 1)
        assert policy.kind == "linear-reveal"
        row = policy.transform.forward[0]
        assert np.allclose(np.abs(row), [1 / math.sqrt(2)] * 2)
        assert row @ np.array([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_kind_reporting(self):
        assert construct_reveal_plus_quantize(iid_gaussian(2), [1.0, 1.0], 2).kind == (
            "linear-plus-quantizer"
        )

    def test_unsupported_combinations_rejected(self):
        with pytest.raises(ValueError):
            construct_reveal_plus_quantize(iid_exponential(2), [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            construct_reveal_plus_quantize(iid_exponential(2), [1.0, 1.0], 1)
        with pytest.raises(ValueError):
            construct_reveal_plus_quantize(iid_uniform(2), [1.0, 1.0], 2)

    @pytest.mark.parametrize(
        "model,b,k_last",
        [
            (iid_uniform(2), [1.0, 1.0], 1),
            (iid_uniform(2), [1.0, -1.0], 1),
            (iid_exponential(2), [0.0, 3.0], 1),
            (iid_exponential(2), [0.5, -0.5], 1),
            (iid_laplace(3), [0.7, 0.7, 0.7], 1),
            (iid_gaussian(4), [1.0, 1.0, 1.0, 1.0], 3),
        ],
    )
    def test_constructions_verify(self, model, b, k_last):
        policy = construct_reveal_plus_quantize(model, b, k_last)
        cert = verify_equilibrium(policy, model, b, samples=300_000, seed=25)
        assert cert.passed, cert.to_dict()

    def test_codes_past_63_bits_stay_ordered_and_distinct(self):
        # 7 revealed coordinates at 1024 levels times 3 bins need 73 bits
        model = iid_gaussian(8)
        b = [0.9, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2]
        policy = construct_reveal_plus_quantize(model, b, 3, grid_levels=1024)
        x = policy.transformed_coordinates(model.sample(20_000, seed=5))
        _, codes = policy.decode_transformed(x)
        last = np.searchsorted(policy.last_boundaries[1:-1], x[:, -1], side="left")
        cells = np.column_stack([policy._cell(x, r) for r in range(7)] + [last])
        assert codes.min() >= 0
        assert np.unique(codes).size == np.unique(cells, axis=0).shape[0]
        # codes sort the cell-index rows lexicographically
        assert np.array_equal(np.argsort(codes, kind="stable"), np.lexsort(cells.T[::-1]))

    @pytest.mark.parametrize("edges", [
        np.array([0.0, 1.0, 3.0]),                  # not uniform
        np.array([0.0, 1.0, 1.0 + 1e-6, 2.0]),
        np.array([1.0, 0.5, 0.0]),                  # decreasing
        np.array([0.0, 1.0, math.inf]),             # not finite
        np.array([0.0]),                            # no cell
    ])
    def test_nonuniform_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="cell_edges"):
            RevealQuantizePolicy(
                transform=transforms.permutation_transform([0, 1]),
                cell_edges=[edges],
                last_boundaries=np.array([-math.inf, math.inf]), last_actions=np.array([0.0]),
                last_bias=0.0,
            )

    def test_values_and_levels_follow_the_edges(self):
        # the cell values and the reported resolution are read off the edges,
        # so a policy cannot claim a resolution its grid does not have
        edges = np.linspace(-1.0, 3.0, 65)
        policy = RevealQuantizePolicy(
            transform=transforms.permutation_transform([0, 1]), cell_edges=[edges],
            last_boundaries=np.array([-math.inf, math.inf]), last_actions=np.array([0.0]),
            last_bias=0.0,
        )
        assert policy.grid_levels == 64
        assert np.array_equal(policy.cell_values[0], 0.5 * (edges[:-1] + edges[1:]))
        model = iid_gaussian(2)
        cert = verify_equilibrium(policy, model, [0.0, 0.0], samples=10_000, seed=3)
        assert cert.to_dict()["grid_levels"] == 64
        with pytest.raises(ValueError, match="revealed coordinate"):
            RevealQuantizePolicy(
                transform=transforms.permutation_transform([0, 1]), cell_edges=[],
                last_boundaries=np.array([-math.inf, math.inf]), last_actions=np.array([0.0]),
                last_bias=0.0,
            )

    def test_zero_bias_team_policy(self):
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [0.0, 0.0], 1)
        je, jd = expected_distortions(policy, model, [0.0, 0.0], samples=200_000, seed=26)
        # full revelation of one coordinate, single action on the other:
        # per-dimension decoder distortion is half the variance
        assert jd.value == pytest.approx(0.5, abs=0.01)
        assert je.value == pytest.approx(jd.value, abs=1e-12)


def single_grid_policy(lo: float, hi: float, levels: int) -> RevealQuantizePolicy:
    """A 2-D policy whose one revealed coordinate has ``levels`` cells on [lo, hi]."""
    return equilibrium._assemble_reveal_policy(
        transforms.permutation_transform([0, 1]), [(lo, hi)],
        np.array([-math.inf, math.inf]), np.array([0.0]), 0.0, levels,
    )


class TestCellIndex:
    """The arithmetic cell index and nearest midpoint equal their searches exactly."""

    GRIDS = [(-4.75, 4.75, 1024), (0.0, 13.8, 1024), (-1e-3, 5e3, 4096),
             (-1.0, 2.0, 1), (-1.0, 2.0, 2)]

    @staticmethod
    def probe_values(policy: RevealQuantizePolicy) -> np.ndarray:
        edges, vals = policy.cell_edges[0], policy.cell_values[0]
        lo, hi = edges[0], edges[-1]
        z = np.random.default_rng(11).standard_normal(1_000_000)
        width = hi - lo
        return np.concatenate([
            z,
            lo + width * (0.5 + 0.2 * z),                 # spread over the grid
            edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf),
            vals, np.nextafter(vals, -math.inf), np.nextafter(vals, math.inf),
            [lo - 1.0, lo - width, hi + 1.0, hi + width, -math.inf, math.inf],
        ])

    @pytest.mark.parametrize("lo,hi,levels", GRIDS)
    def test_cell_matches_searchsorted(self, lo, hi, levels):
        policy = single_grid_policy(lo, hi, levels)
        edges = policy.cell_edges[0]
        col = self.probe_values(policy)
        expected = np.clip(np.searchsorted(edges, col, side="right") - 1, 0, levels - 1)
        got = policy._cell(col[:, None], 0)
        assert got.dtype == np.intp
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("lo,hi,levels", GRIDS)
    def test_nearest_midpoint_matches_searchsorted(self, lo, hi, levels):
        policy = single_grid_policy(lo, hi, levels)
        vals = policy.cell_values[0]
        col = self.probe_values(policy)
        idx = policy._cell(col[:, None], 0)
        assert np.array_equal(idx + (col > vals[idx]), np.searchsorted(vals, col))


class TestExpectedDistortions:
    def test_noninformative_gaussian(self):
        model = iid_gaussian(2)
        b = [1.0, 1.0]
        je, jd = expected_distortions(noninformative_policy(model, b), model, b,
                                      samples=400_000, seed=27)
        assert jd.value == pytest.approx(1.0, abs=3 * jd.stderr)
        assert je.value == pytest.approx(2.0, abs=3 * je.stderr)

    def test_reveal_quantize_variance_accounting(self):
        # revealing one of two coordinates keeps half the total variance
        model = iid_gaussian(2)
        b = [1.0, 1.0]
        policy = construct_reveal_plus_quantize(model, b, 1)
        je, jd = expected_distortions(policy, model, b, samples=400_000, seed=28)
        assert jd.value == pytest.approx(0.5, abs=0.01)
        assert je.value - jd.value == pytest.approx(1.0, abs=0.01)

    def test_identity_when_centroids_hold(self):
        model = iid_uniform(2)
        b = [1.0, -1.0]
        policy = construct_reveal_plus_quantize(model, b, 1)
        je, jd = expected_distortions(policy, model, b, samples=400_000, seed=29)
        gap = (je.value - jd.value) * model.dim
        assert gap == pytest.approx(2.0, abs=3 * model.dim * math.hypot(je.stderr, jd.stderr))


class TestVerifyLinearEquilibrium:
    def test_gaussian_generic_bias_passes(self):
        report = verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=300_000, seed=31)
        assert report.pass_constancy and report.pass_coverage and report.pass_no_deviation

    def test_exponential_equal_bias_fails_constancy(self):
        report = verify_linear_equilibrium(iid_exponential(2), [1.0, 1.0], samples=300_000, seed=32)
        assert report.constancy_max_z > 5.0
        assert not report.passed

    def test_uniform_antisymmetric_passes(self):
        report = verify_linear_equilibrium(iid_uniform(2), [1.0, -1.0], samples=300_000, seed=33)
        assert report.passed

    def test_exponential_curve_matches_memorylessness_oracle(self):
        report = verify_linear_equilibrium(iid_exponential(2), [1.0, 1.0], samples=600_000, seed=34)
        for t, est in zip(report.grid, report.curve):
            oracle = abs(t) + 1.0 - 2.0
            value = float(np.asarray(est.value))
            assert value == pytest.approx(oracle, abs=5 * est.stderr + 0.01)

    def test_zero_bias_rejected(self):
        with pytest.raises(ValueError):
            verify_linear_equilibrium(iid_gaussian(2), [0.0, 0.0], samples=10_000)

    def test_one_sample_draw_serves_both_curves(self, monkeypatch):
        model, b = iid_exponential(2), [1.0, 2.0]
        draws = []
        sample = sources.SourceModel.sample

        def counted(self, count, seed):
            draws.append((count, seed))
            return sample(self, count, seed)

        monkeypatch.setattr(sources.SourceModel, "sample", counted)
        report = verify_linear_equilibrium(model, b, samples=50_000, seed=35)
        assert draws == [(50_000, 35)]
        monkeypatch.undo()
        oracle = conditional_mean_curve(model, b, report.grid, samples=50_000, seed=35)
        assert [(e.value, e.stderr, e.sample_count) for e in report.curve] == [
            (e.value, e.stderr, e.sample_count) for e in oracle
        ]

    def test_pilot_is_the_sample_prefix(self):
        # a pilot drawn on its own would give the same grid
        model, b = iid_gaussian(2), np.array([1.0, 2.0])
        report = verify_linear_equilibrium(model, b, samples=300_000, seed=36)
        x1, _ = sources._pair_coordinates(b, model.sample(200_000, 36))
        assert np.array_equal(report.grid, np.quantile(x1, np.linspace(0.02, 0.98, 11)))


class TestActionSet:
    def test_merges_duplicates(self):
        acts = ActionSet(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]))
        assert acts.k == 2

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            ActionSet(np.array([[np.inf, 0.0]]))

    def test_1d_reshape(self):
        acts = ActionSet(np.array([1.0, 2.0, 3.0]))
        assert acts.actions.shape == (3, 1)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("tolerance", float("nan")),
        ("tolerance", float("inf")),
        ("tolerance", -1e-8),
        ("damping", float("nan")),
        ("samples", 0),
        ("samples", -5),
    ])
    def test_rejected_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            SolverConfig(**{field: value})

    def test_zero_actions_rejected(self):
        with pytest.raises(ValueError, match="^k "):
            solve_fixed_point(iid_uniform(1), [0.05], 0, SolverConfig(samples=1000))


class TestCodeGroups:
    """``_code_groups`` returns what ``np.unique(return_index, return_counts)`` does."""

    @staticmethod
    def assert_like_unique(codes):
        want = np.unique(codes, return_index=True, return_counts=True)
        got = equilibrium._code_groups(codes)
        for w, g in zip(want, got, strict=True):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("codes", [
        np.array([7]),                                     # one code, past its size
        np.array([0]),
        np.full(50, 3),                                    # all equal
        np.full(50, 2**40),
        np.random.default_rng(0).integers(0, 40, 100),     # below the size: counted
        np.random.default_rng(1).integers(0, 2**62, 100, endpoint=True),
        np.random.default_rng(2).permutation(np.repeat(
            np.random.default_rng(3).integers(0, 2**62, 30, endpoint=True), 4)),
    ])
    def test_matches_unique(self, codes):
        self.assert_like_unique(np.asarray(codes, dtype=np.int64))

    def test_matches_unique_on_policy_codes(self):
        model2, model8 = iid_gaussian(2), iid_gaussian(8)
        b8 = [0.9, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2]
        acts = ActionSet(np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]))
        policies = [
            (QuantizerPolicy(acts, [0.2, 0.1]), model2),
            (construct_reveal_plus_quantize(model2, [1.0, 1.0], 3, grid_levels=1024), model2),
            (construct_reveal_plus_quantize(model8, b8, 3, grid_levels=1024), model8),
        ]
        wide = []
        for policy, model in policies:
            _, codes = policy.decode(model.sample(20_000, seed=4))
            wide.append(codes.max() >= codes.size)
            self.assert_like_unique(codes)
        # the quantizer and the 2-D codes are counted, the 8-D ones sorted
        assert wide == [False, False, True]
