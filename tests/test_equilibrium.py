import collections
import dataclasses
import functools
import hashlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from cheaptalk import equilibrium, geometry, sources, transforms
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
from cheaptalk.errors import BinDeathError, DimensionMismatchError, InfeasibleBinCountError
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


def failing(cert):
    """The names of a certificate's failing checks; it passes iff there are none."""
    names = [check.name for check in cert.checks if not check.passed]
    assert cert.passed is (names == [])
    return names


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
            return solve_bins(*args, **kwargs)

        solve_bins = equilibrium._solve_bins
        monkeypatch.setattr(equilibrium, "_solve_bins", counted)
        with pytest.raises(InfeasibleBinCountError) as info:
            equilibrium.solve_scalar_biased(model, beta, k)
        assert info.value.max_feasible == brute
        # one solve per bin count from K down to the feasible one
        assert calls == list(range(k, brute - 1, -1))
        assert len(calls) - 1 <= k - 2

    def test_infeasible_far_past_the_maximum(self):
        # the smaller K are walked in a loop, so a K far past the maximum needs no deeper stack
        with pytest.raises(InfeasibleBinCountError) as info:
            solve_scalar_biased(iid_gaussian(1), math.sqrt(2.0), 1000)
        assert (info.value.requested, info.value.max_feasible) == (1000, 12)

    @pytest.mark.parametrize("model", [iid_gaussian(1), iid_uniform(1), iid_exponential(1),
                                       iid_laplace(1, mean=0.3, scale=2.0)],
                             ids=["gaussian", "uniform", "exponential", "laplace"])
    @pytest.mark.parametrize("beta", [0.1, -0.1])
    def test_scan_grid_strictly_increases(self, model, beta):
        grid = equilibrium._scan_grid(model, beta)
        assert np.all(np.diff(grid) > 0.0)
        if model.family == "iid-gaussian":  # all seven tail points lie past the 1e-9 quantile
            assert grid.shape == (257 + 7,)

    def test_scan_quantiles_are_computed_once_per_marginal(self):
        qs = np.linspace(1e-9, 1.0 - 1e-9, 257)
        for make in (iid_gaussian, iid_laplace, iid_exponential, iid_uniform):
            first, second = make(1), make(1)
            grid = equilibrium._scan_quantiles(first.marginals[0], 1.0)
            assert np.array_equal(grid, first.marginal_ppf(0, qs))
            assert not grid.flags.writeable
            # an equal marginal of another model reads the same array
            assert equilibrium._scan_quantiles(second.marginals[0], 1.0) is grid
            assert np.isin(grid, equilibrium._scan_grid(second, 0.1)).all()
        # a laplace grid holds its location at q = 1/2, so the sign of a zero one counts
        for mean in (0.0, -0.0, 0.0):
            model = iid_laplace(1, mean=mean)
            grid = equilibrium._scan_grid(model, 0.0)[:257]  # the upper tail points follow
            assert np.array_equal(np.signbit(grid), np.signbit(model.marginal_ppf(0, qs)))

    @pytest.mark.parametrize("model", [iid_gaussian(1), iid_laplace(1), iid_exponential(1),
                                       iid_uniform(1, -1.0, 1.0), triangle_table()],
                             ids=["gaussian", "laplace", "exponential", "uniform", "triangle"])
    def test_bisection_finds_the_scanned_bracket(self, model, monkeypatch):
        # the solver bisects its grid for the shooting residual's sign change; a
        # full scan of the grid is the oracle: the residual is negative on a
        # prefix and nonnegative after it, and the solve brackets that change
        lo, hi = model.marginals[0].lo, model.marginals[0].hi
        scale = math.sqrt(model.marginal_variance(0))
        solve, solve_bins, brentq = (equilibrium.solve_scalar_biased, equilibrium._solve_bins,
                                     equilibrium._brentq)
        brackets, requested = [], []

        def recorded(f, a, b, scale, *ends):
            if f.__name__ == "residual":
                brackets.append((a, b))
            return brentq(f, a, b, scale, *ends)

        def first_only(model, beta, k, trunks):  # the smaller K an infeasible solve tries next: none fit
            return solve_bins(model, beta, k, trunks) if k == requested[-1] else None

        monkeypatch.setattr(equilibrium, "_brentq", recorded)
        monkeypatch.setattr(equilibrium, "_solve_bins", first_only)
        for beta in (0.05, -0.05, 0.1, -0.1, 0.5, -0.5, math.sqrt(2.0), -math.sqrt(2.0)):
            s = -1.0 if beta >= 0.0 else 1.0
            xs = equilibrium._scan_grid(model, beta).tolist()
            for k in (2, 5, 8, 12):
                signs = [equilibrium._shoot(model, beta, k, x, lo, hi, scale, s, {})[0] >= 0.0
                         for x in xs]
                first = signs.index(True) if True in signs else len(xs)
                assert all(signs[first:]), (beta, k)
                brackets.clear()
                requested.append(k)
                try:
                    solve(model, beta, k)
                except InfeasibleBinCountError:
                    pass
                if 0 < first < len(xs):
                    assert brackets[:1] == [(xs[first - 1], xs[first])], (beta, k)
                else:
                    assert brackets == [], (beta, k)

    @pytest.mark.parametrize("model, beta, k", [
        (iid_gaussian(1), 0.105, 6), (iid_laplace(1), -0.5, 4), (iid_exponential(1), 0.1, 5),
        (iid_uniform(1), 0.05, 3),
    ], ids=["gaussian", "laplace", "exponential", "uniform"])
    def test_solve_repeats_no_interval(self, model, beta, k, monkeypatch):
        # the bisection probes, brentq's bracket ends and the re-shoot at the
        # root share their shoots; brentq in a boundary search reuses g(near), g(far).
        # Every bin a shoot reads, its first, each searched one and its end
        # bin, goes through the marginal's kernel, so the hook sees them all
        seen = collections.Counter()
        marginal_type = type(model.marginals[0])
        kernel_from = marginal_type.mass_mean_from

        def recorded_from(self, start):
            kernel = kernel_from(self, start)

            def recorded(x):
                seen[min(start, x), max(start, x)] += 1
                return kernel(x)

            return recorded

        monkeypatch.setattr(marginal_type, "mass_mean_from", recorded_from)
        assert equilibrium.solve_scalar_biased(model, beta, k).k == k
        assert seen and [ab for ab, n in seen.items() if n > 1] == []

    @pytest.mark.parametrize("model, beta", [(iid_exponential(1), -0.125), (iid_uniform(1), 0.05)],
                             ids=["exponential", "uniform"])
    def test_infeasible_walk_repeats_no_search(self, model, beta, monkeypatch):
        # a shoot's first K - 2 boundaries do not depend on K, so the walk from
        # K - 1 down reads those an earlier shoot from the same point found
        searches = collections.Counter()
        next_boundary = equilibrium._next_boundary

        def recorded(model, start, target, *rest):
            searches[start, target] += 1
            return next_boundary(model, start, target, *rest)

        monkeypatch.setattr(equilibrium, "_next_boundary", recorded)
        with pytest.raises(InfeasibleBinCountError) as info:
            equilibrium.solve_scalar_biased(model, beta, 8)
        assert info.value.max_feasible == 3
        assert searches and max(searches.values()) == 1

        # no state outlives a call: an identical second call evaluates as many bins
        evaluations = []
        marginal_type = type(model.marginals[0])
        kernel_from = marginal_type.mass_mean_from

        def counted_from(self, start):
            kernel = kernel_from(self, start)

            def counted(x):
                evaluations.append(x)
                return kernel(x)

            return counted

        monkeypatch.setattr(marginal_type, "mass_mean_from", counted_from)
        counts = []
        for _ in range(2):
            evaluations.clear()
            with pytest.raises(InfeasibleBinCountError):
                equilibrium.solve_scalar_biased(model, beta, 8)
            counts.append(len(evaluations))
        assert counts[0] > 0 and counts[0] == counts[1]

    @pytest.mark.parametrize("model, beta, want", [
        (iid_gaussian(1), 0.1, "8875b2debfc35f5b286ccb1e021f6eb45b930853ce6b46cc8aab3a3aca5084da"),
        (iid_gaussian(1), -0.1, "8a6c053aa296134e2c59e94f8caf02d360592b4bcb6ed4dcb09425d0262d4486"),
        (iid_laplace(1), 0.1, "a97308b86574545118762e2d13e460d6209600513ca8ab7fbbc10ee6fba26a73"),
        (iid_laplace(1), -0.1, "fab51aa4fea5488877d566eadab9d00cf8053125d18b722d4cbbe828dd2d0153"),
        (iid_exponential(1), 0.1, "b5d75db67316dc5067d6a57e6f2fc42031d3b2782d456cb1fb0e88a6473579a9"),
        (iid_exponential(1), -0.1, "249a878db2300d2b5c6afa705420a040bd988cb81fc593ca7710c09636cf9460"),
        (iid_uniform(1), 0.06, "9779839ce8fdc264553f18f9c96f4aa7a4af5cbc29f8108008dd6b51df627bb9"),
        (iid_uniform(1), -0.06, "b0fb372aad526c72493b0caf9bd3c5513164b9eb1c99ad1fd88cc5bf611c4042"),
        (triangle_table(), 0.05, "a057657640a14bbf4b0b46c2469733fbfe65c65184b48e33ca37bc239709ceeb"),
        (triangle_table(), -0.05, "f2b616413af48c4a878c4197bd0ac333e28996168fefe20919cbe15c044db5c5"),
    ], ids=["gaussian+", "gaussian-", "laplace+", "laplace-", "exponential+", "exponential-",
            "uniform+", "uniform-", "triangle+", "triangle-"])
    def test_k3_to_k8_solves_are_pinned(self, model, beta, want):
        # every bit of the K = 3..8 boundaries and actions, and each infeasible
        # K's reported maximum, as one sha256 over their hex forms
        h = hashlib.sha256()
        for k in range(3, 9):
            try:
                quant = solve_scalar_biased(model, beta, k)
            except InfeasibleBinCountError as exc:
                h.update(f"infeasible {k} {exc.max_feasible};".encode())
                continue
            values = np.concatenate([quant.boundaries, quant.actions])
            h.update(" ".join(float(v).hex() for v in values).encode() + b";")
        assert h.hexdigest() == want


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
            assert np.array_equal(prepared.actions, oracle)


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
        # unconverged at 500 sweeps; the plain best response settles exactly
        model, b = iid_gaussian(3), [0.3, 0.2, 0.1]
        result = solve_fixed_point(model, b, 4, SolverConfig(samples=50_000, seed=5))
        assert result.converged and result.iterations < 400
        assert result.movements[-1] == 0.0
        again = best_response_step(result.actions, model, b, samples=50_000, seed=5)
        assert np.array_equal(again.actions, result.actions.actions)

    def test_solve_equals_its_sweeps_iterated_from_the_same_start(self):
        # no sweep of the solve may take another step than the plain best response
        model, b = iid_gaussian(2), [1.0, 0.5]
        cfg = SolverConfig(samples=10_000, max_iterations=30, tolerance=1e-12)
        result = solve_fixed_point(model, b, 3, cfg)
        pts, w = equilibrium._evaluation_measure(model, cfg.samples, cfg.seed)
        actions = equilibrium._initial_actions(model, np.asarray(b), 3, pts, w)
        measure = equilibrium._SweepMeasure(pts, w, np.asarray(b))
        for _ in range(result.iterations):
            actions = best_response_step(actions, model, b, _measure=measure)
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
        passes = []  # per sweep, the (rescored, changed) of each assignment pass

        def checked_assign(acts):
            idx = bounded_assign(acts)
            assert np.array_equal(idx, assign_actions_batch(pts, acts, b))
            passes[-1].append((measure.rescored, measure.changed))
            return idx

        measure.assign = checked_assign
        actions = equilibrium._initial_actions(model, b, k, pts, w)
        for _ in range(result.iterations):
            passes.append([])
            actions = best_response_step(actions, model, b, _measure=measure)
        assert np.array_equal(actions.actions, result.actions.actions)
        # one pass a sweep, and a confirming second pass on the sweep that changed no point
        assert [len(p) for p in passes] == [1] * (result.iterations - 1) + [2]
        assert passes[-1][0][1] == 0
        assert [tuple(map(sum, zip(*p))) for p in passes] == list(zip(result.rescored, result.changed))
        assert len(result.rescored) == len(result.movements) == result.iterations
        assert result.rescored[0] == result.changed[0] == n
        assert sum(r < n for r in result.rescored) > result.iterations // 2
        assert result.movements[-1] == 0.0 and result.changed[-1] == 0
        assert result.stop_reason == "fixed point"

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
        # changes of K, each followed by sweeps that carry the bounds and the
        # bin sums.  Every assignment is exact.  A sweep that scored every
        # point or changed none sums its bins in full, so its means are the
        # plain sweep's bit for bit; any other sweep moved its changed
        # points' columns between the carried sums, so its means are the
        # plain ones to within the rounding bound derived in ``within``.
        b = np.asarray(b, dtype=float)
        pts, w = equilibrium._evaluation_measure(model, 20_000, 7)
        n = pts.shape[0]
        wx = np.vstack([w, w * pts.T])
        measure = equilibrium._SweepMeasure(pts, w, b)
        bounded_assign = measure.assign
        passes = []

        def checked_assign(acts):
            idx = bounded_assign(acts)
            assert np.array_equal(idx, assign_actions_batch(pts, acts, b))
            passes.append((measure.rescored, measure.changed))
            return idx

        def within(acts, prepared, plain, moved, updates):
            # With u the unit roundoff and A_r the sum of |wx[r]|, a full bin
            # sum of row r is off from the exact one by at most N u A_r, and
            # an update of m points by at most (2 m + 2) u A_r (two sums of
            # at most m terms, their difference, the add into the bin).  So
            # the prepared and plain sums differ by at most
            # e_r = eps A_r (N + moved + updates), to first order; twice that
            # covers the rest.  A mean S / M is then off by at most
            # (e_S + |S / M| e_M) / (M - e_M) plus one rounding of the quotient.
            idx = assign_actions_batch(pts, acts.actions, b)
            mass = np.bincount(idx, weights=w, minlength=acts.k)
            e = 2.0 * np.finfo(float).eps * np.sum(np.abs(wx), axis=1) * (n + moved + updates)
            mean = np.abs(plain.actions).T
            bound = (e[1:, None] + mean * e[0]) / (mass - e[0]) + np.finfo(float).eps * mean
            gap = np.abs(prepared.actions - plain.actions).T
            assert np.all(gap <= bound)

        rng = np.random.default_rng(k)
        starts = [
            equilibrium._initial_actions(model, b, k, pts, w),
            equilibrium._initial_actions(model, b, k, pts, w, jitter_seed=3),
            ActionSet(pts[rng.choice(n, size=k, replace=False)]),
            equilibrium._initial_actions(model, b, 2, pts, w),
            equilibrium._initial_actions(model, b, k, pts, w),
        ]
        measure.assign = checked_assign
        moved = updates = 0  # since the bins were last summed in full
        rounded = 0
        for acts in starts:
            for _ in range(5):
                passes.clear()
                prepared = best_response_step(acts, model, b, _measure=measure)
                plain = best_response_step(acts, model, b, samples=20_000, seed=7)
                rescored, changed = passes[0]
                if rescored == n or changed == 0:
                    assert np.array_equal(prepared.actions, plain.actions)
                    moved = updates = 0
                else:
                    moved, updates = moved + changed, updates + 1
                    within(acts, prepared, plain, moved, updates)
                    rounded += 1
                if len(passes) == 2 and not measure.fixed:
                    moved = updates = 0  # a confirming pass that changed points sums in full
                acts = prepared
        assert rounded > 0


def full_sum_solve(model, b, k, cfg):
    """A Lloyd solve with every sweep written out in full: an argmin over the
    score matrix, then every bin summed in full (the oracle of
    ``test_prepared_measure_matches_the_plain_sweep``), stopping once the
    largest movement is below the tolerance.  Returns (actions, iterations,
    converged, movements)."""
    b = np.asarray(b, dtype=float)
    pts, w = equilibrium._evaluation_measure(model, cfg.samples, cfg.seed)
    acts = equilibrium._initial_actions(model, b, k, pts, w).actions
    t = -2.0 * (pts - b)
    weighted = [w * pts[:, d] for d in range(pts.shape[1])]
    movements = []
    for it in range(1, cfg.max_iterations + 1):
        idx = np.argmin(t @ acts.T + np.sum(acts ** 2, 1), axis=1)
        mass = np.bincount(idx, weights=w, minlength=k)
        new = np.stack([np.bincount(idx, weights=wd, minlength=k) / mass for wd in weighted], axis=1)
        movements.append(float(np.max(np.abs(new - acts))))
        acts = new
        if movements[-1] < cfg.tolerance:
            return acts, it, True, movements
    return acts, cfg.max_iterations, False, movements


class _RecordedMeasure(equilibrium._SweepMeasure):
    """A ``_SweepMeasure`` that logs each sweep: (actions in, means out, fixed)."""

    log: list = []

    def sweep(self, acts):
        means = super().sweep(acts)
        self.log.append((acts.copy(), means, self.fixed))
        return means


class TestBinSums:
    @pytest.mark.parametrize("model, b, k, cfg", [
        *LLOYD_CASES,
        pytest.param(iid_gaussian(3), [0.3, 0.2, 0.1], 4, SolverConfig(samples=50_000, seed=5),
                     id="gauss3d-seed5"),
        pytest.param(iid_gaussian(3), [0.3, 0.2, 0.1], 4,
                     SolverConfig(samples=200_000, seed=12, max_iterations=600), id="gauss3d-seed12"),
    ])
    def test_converged_solve_equals_full_sums_every_sweep(self, model, b, k, cfg):
        # carried sums must not change a converged solve: same sweeps, same
        # verdict and the same action bits as summing every bin every sweep
        result = solve_fixed_point(model, b, k, cfg)
        acts, iterations, converged, movements = full_sum_solve(model, b, k, cfg)
        assert result.restarts == 0
        assert result.iterations == iterations
        assert result.converged == converged is True
        assert result.movements[-1] == movements[-1] == 0.0
        assert result.stop_reason == "fixed point"
        assert np.array_equal(result.actions.actions, acts)

    def test_drifting_solve_reports_a_confirmed_fixed_point(self, monkeypatch):
        # 271 sweeps, nearly all of them bounded: the carried sums drift, so
        # the actions entering the last sweep are off from its exact means in
        # their last bits; the solve reports those exact means, and a fresh
        # measure's full sweep gives them back bit for bit
        model, b, cfg = iid_gaussian(3), [0.3, 0.2, 0.1], SolverConfig(samples=50_000, seed=5)
        monkeypatch.setattr(equilibrium, "_SweepMeasure", _RecordedMeasure)
        monkeypatch.setattr(_RecordedMeasure, "log", [])
        result = solve_fixed_point(model, b, 4, cfg)
        entering, means, fixed = _RecordedMeasure.log[-1]
        assert result.stop_reason == "fixed point" and fixed
        assert np.array_equal(means, result.actions.actions)
        assert not np.array_equal(entering, means)
        assert np.max(np.abs(entering - means)) < 1e-11
        pts, _ = equilibrium._evaluation_measure(model, cfg.samples, cfg.seed)
        again = best_response_step(result.actions, model, b, samples=cfg.samples, seed=cfg.seed)
        assert np.array_equal(again.actions, result.actions.actions)
        assert np.array_equal(assign_actions_batch(pts, again.actions, b),
                              assign_actions_batch(pts, entering, b))

    def test_confirming_pass_that_moves_a_point_goes_on(self):
        # five unit-spaced points: (0, 1.9) puts only x = 0 in bin 0, and the
        # exact means (0, 2.5) of that split would take x = 1 over
        pts = np.arange(5.0).reshape(-1, 1)
        measure = equilibrium._SweepMeasure(pts, np.ones(5), np.zeros(1))
        start = np.array([[0.0], [1.9]])
        measure.sweep(start)
        means = measure.sweep(start)  # no point changes: the sums are full, then confirmed
        assert np.array_equal(means, [[0.0], [2.5]])
        assert not measure.fixed and measure.changed == 1 and measure.exact
        assert np.array_equal(measure.idx, [0, 0, 1, 1, 1])
        means = measure.sweep(means)
        assert np.array_equal(means, [[0.5], [3.0]])
        assert measure.fixed and measure.changed == 0

    def test_bin_emptied_by_a_bounded_sweep_dies_on_full_sums(self):
        # 90 points on [0, 0.89] and 10 on [5.0, 5.9]: moving the last action
        # from 5.95 to 7.0 empties its bin, and only the points near the
        # bins' boundaries are due for a rescore
        pts = np.concatenate([np.arange(90) / 100.0, 5.0 + np.arange(10) / 10.0]).reshape(-1, 1)
        measure = equilibrium._SweepMeasure(pts, np.full(100, 0.01), np.zeros(1))
        measure.sweep(np.array([[0.5], [5.0], [5.95]]))
        with pytest.raises(BinDeathError) as info:
            measure.sweep(np.array([[0.5], [5.0], [7.0]]))
        assert info.value.index == 2
        assert 0 < measure.rescored < 30 and measure.changed == 5
        assert measure.exact

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-2])
    def test_tolerance_stop_reports_full_sum_means(self, monkeypatch, tolerance):
        model, b = iid_gaussian(3), [0.3, 0.2, 0.1]
        cfg = SolverConfig(samples=50_000, seed=5, tolerance=tolerance)
        monkeypatch.setattr(equilibrium, "_SweepMeasure", _RecordedMeasure)
        monkeypatch.setattr(_RecordedMeasure, "log", [])
        result = solve_fixed_point(model, b, 4, cfg)
        entering, rounded, fixed = _RecordedMeasure.log[-1]
        assert result.stop_reason == "tolerance" and result.converged and not fixed
        assert 0.0 < result.movements[-1] < tolerance
        assert not np.array_equal(rounded, result.actions.actions)
        plain = best_response_step(ActionSet(entering), model, b, samples=cfg.samples, seed=cfg.seed)
        assert np.array_equal(plain.actions, result.actions.actions)

    def test_cap_stop(self):
        cfg = SolverConfig(samples=2_000, max_iterations=3)
        result = solve_fixed_point(iid_gaussian(2), [1.0, 0.5], 2, cfg)
        assert result.stop_reason == "cap" and not result.converged
        assert result.iterations == len(result.movements) == 3


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
        assert "geometry" in failing(cert)

    @pytest.mark.parametrize("kind", ["quantizer", "reveal"])
    def test_certificate_dict_keys_are_pinned(self, kind):
        model = iid_gaussian(2)
        if kind == "quantizer":
            b = [1.0, 0.0]
            policy = QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), np.asarray(b))
        else:
            b = [1.0, 1.0]
            policy = construct_reveal_plus_quantize(model, b, 2, grid_levels=16)
        cert = verify_equilibrium(policy, model, b, samples=20_000, seed=5)
        got = cert.to_dict()
        assert list(got) == [
            "passed", "min_pairwise_geo_slack", "max_centroid_residual",
            "centroid_residual_stderr", "centroid_max_z", "deviation_gain",
            "deviation_gain_stderr", "je", "je_stderr", "jd", "jd_stderr", "pass_geometry",
            "pass_centroid", "pass_deviation", "realized_actions", "evaluated_bins",
            "grid_levels", "samples", "seed",
        ]
        assert got["passed"] is cert.passed
        assert [got[f"pass_{check.name}"] for check in cert.checks] == [
            check.passed for check in cert.checks]
        for name in ("deviation_gain", "je", "jd"):
            estimate = getattr(cert, name)
            assert (got[name], got[f"{name}_stderr"]) == (estimate.value, estimate.stderr)
        assert got["grid_levels"] == (16 if kind == "reveal" else None)

    def test_reveal_quantize_gaussian_passes(self):
        model = iid_gaussian(2)
        b = [1.0, 1.0]
        policy = construct_reveal_plus_quantize(model, b, 2)
        cert = verify_equilibrium(policy, model, b, samples=400_000, seed=23)
        assert cert.passed
        assert cert.je.value - cert.jd.value == pytest.approx(
            2.0, abs=3 * math.hypot(cert.je.stderr, cert.jd.stderr)
        )

    def test_reveal_verify_transforms_each_row_once(self, monkeypatch):
        # three chunks on two threads: each sample row goes forward once and
        # back once; the rows the pairwise check reads go back on their own
        model = iid_gaussian(3)
        b = [0.5, -0.3, 0.2]
        policy = construct_reveal_plus_quantize(model, b, 2, grid_levels=64)
        samples = 150_000
        _, codes = policy.decode(model.sample(samples, 3))
        _, _, counts = equilibrium._code_groups(codes)
        pair_rows = np.unique(np.concatenate(equilibrium._checked_pairs(counts, 4))).size
        calls = []
        apply_batch = equilibrium._apply_batch

        def counted(mat, arr, out=None):
            direction = "forward" if mat is policy.transform.forward else "inverse"
            main = threading.current_thread() is threading.main_thread()
            calls.append((direction, arr.shape[0], main))
            return apply_batch(mat, arr, out)

        monkeypatch.setattr(equilibrium, "_available_cpus", lambda: 2)
        monkeypatch.setattr(equilibrium, "_apply_batch", counted)  # the chunk jobs
        monkeypatch.setattr(transforms, "_apply_batch", counted)  # LinearTransform.apply
        verify_equilibrium(policy, model, b, samples=samples, seed=3)
        chunk_rows = [18_928, 65_536, 65_536]
        assert sorted(rows for d, rows, main in calls if d == "forward" and not main) == chunk_rows
        assert sorted(rows for d, rows, main in calls if d == "inverse" and not main) == chunk_rows
        assert [(d, rows) for d, rows, main in calls if main] == [("inverse", pair_rows)]

    def test_reveal_verify_indexes_each_row_once_per_coordinate(self, monkeypatch):
        model = iid_gaussian(3)
        b = [0.5, -0.3, 0.2]
        policy = construct_reveal_plus_quantize(model, b, 2, grid_levels=64)
        rows = collections.Counter()
        cell = RevealQuantizePolicy._cell

        def counted(self, row, r, *buffers):
            rows[r] += row.shape[0]
            return cell(self, row, r, *buffers)

        monkeypatch.setattr(equilibrium, "_available_cpus", lambda: 2)
        monkeypatch.setattr(RevealQuantizePolicy, "_cell", counted)
        verify_equilibrium(policy, model, b, samples=150_000, seed=3)
        # each row's cell for the decode, and its target's for the deviation scan
        assert rows == {r: 2 * 150_000 for r in range(policy.n_revealed)}

    def test_no_traced_callable_runs_off_the_main_thread(self, monkeypatch):
        # a profiler that wraps these keeps an unsynchronised span stack;
        # the chunk jobs must not enter them
        off_main = set()

        def watch(owner, name):
            original = getattr(owner, name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.add(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in [
            (transforms.LinearTransform, "apply"), (sources.SourceModel, "sample"),
            (QuantizerPolicy, "decode"), (RevealQuantizePolicy, "decode"),
            (RevealQuantizePolicy, "decode_transformed"), (geometry, "assign_actions_batch"),
            (equilibrium, "assign_actions_batch"),
            (sources.SourceModel, "_sample_chunk"),  # the chunk jobs' draw, off the main thread
        ]:
            watch(owner, name)
        monkeypatch.setattr(equilibrium, "_available_cpus", lambda: 2)
        g2, b = iid_gaussian(2), [1.0, 0.5]
        quantizer = QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.5]])), b)
        verify_equilibrium(quantizer, g2, b, samples=150_000, seed=3)
        policy = construct_reveal_plus_quantize(iid_gaussian(8), B8, 3, grid_levels=64)
        verify_equilibrium(policy, iid_gaussian(8), B8, samples=150_000, seed=3)
        assert off_main == {"_sample_chunk"}

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=16)
        with pytest.raises(ValueError, match="^samples must be a whole number of at least 2"):
            verify_equilibrium(policy, model, [1.0, 1.0], samples=samples)

    @pytest.mark.parametrize("field,value", [
        ("samples", True), ("samples", 4.5), ("samples", math.nan), ("samples", math.inf),
        ("samples", "4000"), ("samples", -3), ("seed", 1.5), ("seed", -1), ("seed", False),
        ("seed", math.inf), ("seed", None), ("samples", None), ("samples", np.float64(4.5)),
        ("seed", "3"), ("seed", np.int64(-1)),
    ])
    def test_bad_samples_or_seed_named_before_any_thread(self, monkeypatch, field, value):
        import concurrent.futures

        def no_pool(*args):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=16)
        args = {"samples": 4_000, "seed": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a whole number of at least"):
            verify_equilibrium(policy, model, [1.0, 1.0], **args)

    def test_integral_floats_are_whole_numbers(self):
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=16)
        cert = verify_equilibrium(policy, model, [1.0, 1.0], samples=4e3, seed=3.0)
        want = verify_equilibrium(policy, model, [1.0, 1.0], samples=4_000, seed=np.int64(3))
        assert repr(cert.to_dict()) == repr(want.to_dict())
        assert type(cert.samples) is int and type(cert.seed) is int

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
        assert failing(cert) == ["centroid"]
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
        assert "deviation" in failing(cert)
        gain = cert.deviation_gain
        assert gain.value > 3.0 * gain.stderr
        [check] = [check for check in cert.checks if check.name == "deviation"]
        assert not check.passed
        assert (check.statistic, check.value, check.at_most) == ("deviation_gain", gain.value, True)
        assert check.threshold == 3.0 * gain.stderr + 1e-12 * max(1.0, cert.je.value)

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

    @pytest.mark.parametrize("model,b", [
        (iid_laplace(3), [0.7, 0.7, 0.7]),
        (iid_uniform(3, -1.0, 1.0), [0.3, 0.3, 0.3]),
        (iid_uniform(4, -1.0, 1.0), [0.3, 0.3, 0.3, 0.3]),
    ])
    def test_equal_bias_past_two_dimensions_rejected(self, model, b):
        # revealing the Helmert contrasts and sending one action for the
        # mean is no equilibrium of these sources: the mean's conditional
        # mean moves with the contrasts
        with pytest.raises(ValueError, match="^no supported construction"):
            construct_reveal_plus_quantize(model, b, 1)

    @pytest.mark.parametrize("model,b", [
        (iid_uniform(2), [1.0, 1.0]), (iid_uniform(2), [-1.0, -1.0]),
        (iid_laplace(2), [0.7, 0.7]), (iid_exponential(2), [0.5, -0.5]),
    ])
    def test_two_dimensional_cases_align_the_bias(self, model, b):
        # the revealed row is orthogonal to b and the last row is b / ||b||
        policy = construct_reveal_plus_quantize(model, b, 1)
        fwd = policy.transform.forward
        assert np.array_equal(fwd, transforms.bias_aligning_transform(b).forward)
        assert fwd[0] @ np.asarray(b) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "model,b,k_last",
        [
            (iid_uniform(2), [1.0, 1.0], 1),
            (iid_uniform(2), [1.0, -1.0], 1),
            (iid_exponential(2), [0.0, 3.0], 1),
            (iid_exponential(2), [0.5, -0.5], 1),
            (iid_laplace(2), [0.7, 0.7], 1),
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
        cells = np.column_stack([policy._cell(x[:, r], r) for r in range(7)] + [last])
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
            )

    def test_values_and_levels_follow_the_edges(self):
        # the cell values and the reported resolution are read off the edges,
        # so a policy cannot claim a resolution its grid does not have
        edges = np.linspace(-1.0, 3.0, 65)
        policy = RevealQuantizePolicy(
            transform=transforms.permutation_transform([0, 1]), cell_edges=[edges],
            last_boundaries=np.array([-math.inf, math.inf]), last_actions=np.array([0.0]),
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
    return RevealQuantizePolicy(
        transform=transforms.permutation_transform([0, 1]),
        cell_edges=[np.linspace(lo, hi, levels + 1)],
        last_boundaries=np.array([-math.inf, math.inf]), last_actions=np.array([0.0]),
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
        got = policy._cell(col, 0)
        assert got.dtype == np.intp
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("lo,hi,levels", GRIDS)
    def test_nearest_midpoint_matches_searchsorted(self, lo, hi, levels):
        policy = single_grid_policy(lo, hi, levels)
        vals = policy.cell_values[0]
        col = self.probe_values(policy)
        idx = policy._cell(col, 0)
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


    @pytest.mark.parametrize("field,value,match", [
        ("samples", 1, "^samples must be a whole number of at least 2"),  # no standard error
        ("samples", True, "^samples must be a"),
        ("seed", 1.5, "^seed must be a"),  # not read as seed 1
        ("samples", 0, "^samples must be a whole number of at least 2"),
        ("samples", 4.5, "^samples must be a whole number"),
        ("samples", "4000", "^samples must be a whole number"),
        ("seed", -1, "^seed must be a whole number of at least 0"),
        ("seed", None, "^seed must be a whole number"),
    ])
    def test_bad_samples_or_seed_named_before_any_thread(self, monkeypatch, field, value,
                                                         match):
        import concurrent.futures

        def no_pool(*args):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=16)
        args = {"samples": 4_000, "seed": 3, field: value}
        with pytest.raises(ValueError, match=match):
            expected_distortions(policy, model, [1.0, 1.0], **args)

    def test_integral_float_samples_are_whole_numbers(self):
        model = iid_gaussian(2)
        policy = construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=16)
        got = expected_distortions(policy, model, [1.0, 1.0], samples=4e3, seed=3.0)
        want = expected_distortions(policy, model, [1.0, 1.0], samples=4_000, seed=3)
        assert estimate_bits(got) == estimate_bits(want)
        assert all(type(est.sample_count) is int for est in got)


class TestVerifyLinearEquilibrium:
    def test_gaussian_generic_bias_passes(self):
        report = verify_linear_equilibrium(iid_gaussian(2), [1.0, 2.0], samples=300_000, seed=31)
        assert report.passed

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
            assert est.value == pytest.approx(oracle, abs=5 * est.stderr + 0.01)

    def test_zero_bias_rejected(self):
        with pytest.raises(ValueError):
            verify_linear_equilibrium(iid_gaussian(2), [0.0, 0.0], samples=10_000)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_decoupled_uniform_passes_at_every_seed(self, seed):
        # b1 = 0 decouples the coordinates, so the curve is flat and the
        # revealing policy is an equilibrium at any bias size and sample count
        report = verify_linear_equilibrium(iid_uniform(2), [0.0, 5.0], samples=100_000, seed=seed)
        assert report.passed

    def test_report_is_the_constancy_check(self):
        report = verify_linear_equilibrium(iid_exponential(2), [1.0, 2.0], samples=50_000, seed=37)
        (check,) = report.checks
        assert (check.name, check.statistic, check.value, check.threshold, check.at_most) == (
            "constancy", "constancy_max_z", report.constancy_max_z, 3.0, True)
        assert report.passed is check.passed is (report.constancy_max_z <= 3.0)
        assert report.to_dict()["pass_constancy"] is report.passed
        assert sorted(report.to_dict()) == sorted([
            "passed", "constancy_max_z", "pass_constancy", "grid", "curve", "curve_stderr",
            "kappa", "b_tilde"])

    @pytest.mark.parametrize("factory, b, want", [
        (iid_gaussian, [1.0, 2.0], "29fdc6635100cb7ee0cf757b3aa89a2a790a9d63f73b36b29a42f465811ce4bd"),
        (iid_exponential, [1.0, 1.0], "b8a6576286083ae7fd1cbd3228b4dc263239be937dffb92afa700f293bea03f7"),
        (iid_uniform, [1.0, -1.0], "09cc1fead7cc81f428e6da230b9ebb34c322ee9c8cdc5e33d54648962e5b384b"),
        (iid_exponential, [0.0, 3.0], "a097210633840ff4a92354631977f4333ca54bbb846ae4f33af08031c0e6e0cb"),
        (iid_exponential, [1.0, 2.0], "a4800cacc654fe293e34d17681bb0e45b9b4dfd6e92e150ce48eedfbb6d47a4e"),
    ], ids=["gaussian", "exponential-no", "uniform", "exponential-decoupled", "exponential-no-2"])
    def test_report_dict_is_pinned(self, factory, b, want):
        # the keys, their order and every bit of the values, as json.dumps writes them
        report = verify_linear_equilibrium(factory(2), b, samples=20_000, seed=77)
        assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == want

    def test_one_sample_draw_serves_the_grid_and_the_curve(self, monkeypatch):
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
        x1, _ = sources._pair_values(transforms.pair_transform_2d(b), model.sample(200_000, 36))
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
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("tolerance", float("nan")),
        ("tolerance", float("inf")),
        ("tolerance", -1e-8),
        ("samples", 0),
        ("samples", -5),
        ("samples", True),
        ("samples", 1.5),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", float("nan")),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("max_iterations", math.inf),
        ("samples", "4000"),
        ("samples", np.float64(1.5)),
        ("seed", None),
        ("seed", np.int64(-1)),
    ])
    def test_rejected_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            SolverConfig(**{field: value})

    def test_integral_floats_read_as_ints(self):
        for kwargs in ({"max_iterations": 50.0, "samples": 4e3, "seed": 7.0},
                       {"max_iterations": np.int32(50), "samples": np.float64(4e3),
                        "seed": np.uint8(7)}):
            config = SolverConfig(**kwargs)
            assert (config.max_iterations, config.samples, config.seed) == (50, 4000, 7)
            assert all(type(v) is int
                       for v in (config.max_iterations, config.samples, config.seed))

    def test_damping_is_not_a_field(self):
        # every sweep is the plain best response: there is no step size to set
        with pytest.raises(TypeError, match="damping"):
            SolverConfig(damping=1.0)
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "tolerance", "max_iterations", "samples", "seed",
        ]

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


# -- the reveal certificate against a row-major reference ---------------------------

B8 = np.array([0.9, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2])


def reference_cells(policy, x):
    """Cell index columns of an (N, n) row-major batch: ``_cell`` as it read
    strided columns, and the last coordinate's bin."""
    idx = []
    for r, edges in enumerate(policy.cell_edges):
        levels = edges.shape[0] - 1
        col = x[:, r]
        i = np.floor((col - edges[0]) / ((edges[-1] - edges[0]) / levels))
        i = np.clip(i, 0, levels - 1, out=i).astype(np.intp)
        i -= (col < edges[i]) & (i > 0)
        i += (col >= edges[i + 1]) & (i < levels - 1)
        idx.append(i)
    return idx, np.searchsorted(policy.last_boundaries[1:-1], x[:, -1], side="left")


def reference_decode(policy, points):
    """(x, u, y, codes, cells) of the reveal decode, every array row-major."""
    t = policy.transform
    x = points @ t.forward.T
    idx, j = cells = reference_cells(policy, x)
    y = np.empty_like(x)
    for r in range(policy.n_revealed):
        y[:, r] = policy.cell_values[r][idx[r]]
    y[:, -1] = policy.last_actions[j]
    radices = [v.shape[0] for v in policy.cell_values] + [policy.k_last]
    codes = equilibrium._joint_codes(np.array([*idx, j]), radices)
    return x, y @ t.inverse.T, y, codes, cells


def reference_min_slack(realized, counts, b, seed) -> float:
    """Least pairwise slack with every realized action gathered and the
    heaviest 50 picked by a full lexsort (ties to the lower index)."""
    kr = realized.shape[0]
    if kr < 2:
        return math.inf
    if kr * (kr - 1) // 2 <= equilibrium._MAX_PAIRS:
        ia, ib = np.triu_indices(kr, k=1)
    else:
        top = np.lexsort((np.arange(kr), -counts))[:50]
        ia_t, ib_t = np.triu_indices(top.shape[0], k=1)
        ia, ib = top[ia_t], top[ib_t]
        rng = np.random.default_rng(seed)
        extra = equilibrium._MAX_PAIRS - ia.shape[0]
        ra = rng.integers(0, kr, size=2 * extra)
        rb = rng.integers(0, kr, size=2 * extra)
        keep = ra != rb
        ia = np.concatenate([ia, ra[keep][:extra]])
        ib = np.concatenate([ib, rb[keep][:extra]])
    d = realized[ib] - realized[ia]
    return float(np.min(np.sum(d * d, axis=1) - 2.0 * np.abs(d @ b)))


def reference_deviation_gains(policy, x, y, b):
    """Per-sample deviation gains on row-major x and y against the bias b:
    each revealed target's cell found by a search of the edges, the own
    distances summed across a row."""
    t = x - policy.transform.forward @ b
    best = np.zeros(x.shape[0])
    for r, edges in enumerate(policy.cell_edges):
        cell = np.clip(np.searchsorted(edges, t[:, r], side="right") - 1, 0, edges.shape[0] - 2)
        best += (t[:, r] - policy.cell_values[r][cell]) ** 2
    acts = policy.last_actions
    pos = np.searchsorted(acts, t[:, -1])
    lo = acts[np.clip(pos - 1, 0, acts.shape[0] - 1)]
    hi = acts[np.clip(pos, 0, acts.shape[0] - 1)]
    best += np.minimum((t[:, -1] - lo) ** 2, (t[:, -1] - hi) ** 2)
    assigned = np.sum((t[:, :-1] - y[:, :-1]) ** 2, axis=1) + (t[:, -1] - y[:, -1]) ** 2
    return assigned - best


def reference_bin_stats(values, idx, length):
    """Per-bin counts, means and mean standard errors, each bin's sums
    taken by one ``np.bincount`` over the whole sample."""
    return equilibrium._bin_summary(
        np.bincount(idx, minlength=length),
        np.bincount(idx, weights=values, minlength=length),
        np.bincount(idx, weights=values**2, minlength=length),
    )


def reference_reveal_certificate(policy, model, b, samples, seed) -> dict:
    """``verify_equilibrium(policy, ...).to_dict()`` for a reveal policy,
    computed row-major: the (N, n) transformed sample read by columns, the
    realized actions gathered in full, the heaviest picked by a full
    lexsort, and each target's cell searched on the edges."""
    b = np.asarray(b, dtype=float)
    m = model.sample(samples, seed)
    x, u, y, codes, (idx, j) = reference_decode(policy, m)
    d = m - u
    cd = np.sum(d * d, axis=1)
    d -= b
    ce = np.sum(d * d, axis=1)
    je, jd = equilibrium._estimate(ce), equilibrium._estimate(cd)

    uniq, first, counts = equilibrium._code_groups(codes)
    slack = reference_min_slack(u[first], counts, b, seed + 1)

    max_z, max_resid, max_se, evaluated = 0.0, 0.0, math.inf, 0
    per_coord = max(2, equilibrium._CENTROID_BINS // (policy.n_revealed + 1))
    checks = []
    for r in range(policy.n_revealed):
        cnts, means, ses = reference_bin_stats(x[:, r], idx[r], policy.cell_values[r].shape[0])
        checks += [(cnts[c], policy.cell_values[r][c], means[c], ses[c])
                   for c in np.argsort(-cnts, kind="stable")[:per_coord]]
    cnts, means, ses = reference_bin_stats(x[:, -1], j, policy.k_last)
    checks += [(cnts[c], policy.last_actions[c], means[c], ses[c]) for c in range(policy.k_last)]
    for cnt, value, mean, se in checks:
        if cnt < equilibrium._MIN_BIN_COUNT:
            continue
        evaluated += 1
        resid, se = abs(float(value - mean)), float(se)
        if se > 0.0 and resid / se >= max_z:
            max_z, max_resid, max_se = resid / se, resid, se

    deviation = equilibrium._estimate(reference_deviation_gains(policy, x, y, b))

    return equilibrium.EquilibriumCertificate(
        min_pairwise_geo_slack=slack, max_centroid_residual=max_resid,
        centroid_residual_stderr=max_se, centroid_max_z=max_z, deviation_gain=deviation,
        je=je, jd=jd, realized_actions=int(uniq.size), evaluated_bins=evaluated,
        grid_levels=policy.grid_levels, samples=samples, seed=seed,
    ).to_dict()


class TestRevealCertificateOracle:
    """The coordinate-major certificate gives the row-major reference's bits."""

    CASES = [
        *[(iid_gaussian(2), [1.0, 1.0], k, None) for k in (1, 2, 3, 4)],
        (iid_gaussian(8), B8, 3, None),
        (iid_gaussian(8), B8, 3, 2 * B8),               # a bias the policy was not built for
        (iid_laplace(3), [0.7, 0.7, 0.7], "helmert", None),  # built by hand
        (iid_exponential(2), [0.0, 3.0], 1, None),      # permutation
        (iid_gaussian(3), [0.0, 0.4, 0.0], 2, None),    # permutation, quantized last coordinate
    ]
    IDS = ["gauss2d-k1", "gauss2d-k2", "gauss2d-k3", "gauss2d-k4", "gauss8d-k3",
           "gauss8d-k3-double-bias", "laplace3d-helmert", "exp2d-permutation", "gauss3d-permutation"]

    @staticmethod
    def policy(model, b, k_last):
        if k_last != "helmert":
            return construct_reveal_plus_quantize(model, b, k_last)
        # the constructor refuses this case (no equilibrium), but its bits
        # still follow the reference: the Helmert contrasts revealed on the
        # support box's ranges, one last action at the mean
        transform = transforms.helmert_transform(model.dim, bias=b[0])
        return equilibrium.RevealQuantizePolicy(
            transform=transform,
            cell_edges=[np.linspace(*sources._support_box_range(model, row), 1025)
                        for row in transform.forward[:-1]],
            last_boundaries=np.array([-math.inf, math.inf]),
            last_actions=transform.apply(model.mean_vector, "forward")[-1:],
        )

    @pytest.mark.parametrize("model,b,k_last,check_bias", CASES, ids=IDS)
    def test_certificate_equals_reference(self, model, b, k_last, check_bias):
        policy = self.policy(model, b, k_last)
        b_check = b if check_bias is None else check_bias
        cert = verify_equilibrium(policy, model, b_check, samples=100_000, seed=31)
        assert cert.to_dict() == reference_reveal_certificate(policy, model, b_check, 100_000, 31)

    @pytest.mark.parametrize("model,b,k_last,check_bias", CASES, ids=IDS)
    def test_decode_equals_reference(self, model, b, k_last, check_bias):
        policy = self.policy(model, b, k_last)
        m = model.sample(20_000, seed=32)
        u, codes = policy.decode(m)
        _, ref_u, ref_y, ref_codes, _ = reference_decode(policy, m)
        y, _ = policy.decode_transformed(policy.transformed_coordinates(m))
        assert np.array_equal(u, ref_u) and np.array_equal(y, ref_y)
        assert np.array_equal(codes, ref_codes)

    def test_deviation_scan_equals_reference_off_the_bias(self):
        # checked against a bias whose transformed revealed parts, 0.5 and
        # -0.6, exceed a cell width (9.5 / 32), many targets leave their
        # sample's cell, and a report off the sample's own cell is the best
        model = iid_gaussian(3)
        policy = construct_reveal_plus_quantize(model, [0.0, 0.4, 0.0], 2, grid_levels=32)
        b = np.array([0.5, 0.4, -0.6])
        assert np.all(np.abs(policy.transform.forward @ b)[:-1]
                      > np.diff(policy.cell_edges[0])[0])
        m = model.sample(50_000, seed=35)
        x = policy.transformed_coordinates(m)
        y, _ = policy.decode_transformed(x)
        gains = equilibrium._reveal_deviation_gains(policy, x, y, policy.transform.forward @ b)
        ref_x, _, ref_y, _, _ = reference_decode(policy, m)
        assert np.array_equal(gains, reference_deviation_gains(policy, ref_x, ref_y, b))
        assert np.count_nonzero(gains > 0.0) > 1_000

    def test_8d_policy_fails_against_twice_its_bias(self):
        # every check reads the bias it is given: the 8-D policy built for B8
        # is no equilibrium when the encoder's bias is 2 B8
        model = iid_gaussian(8)
        policy = construct_reveal_plus_quantize(model, B8, 3)
        cert = verify_equilibrium(policy, model, 2 * B8, samples=1_000_000, seed=99)
        assert failing(cert) == ["deviation"]
        assert cert.deviation_gain.value > 3.0 * cert.deviation_gain.stderr
        cert = verify_equilibrium(policy, model, B8, samples=1_000_000, seed=99)
        assert cert.passed and cert.deviation_gain.value == 0.0

    def test_a_lone_row_decodes_as_in_any_batch(self):
        # a one-row batch is scored as two identical rows, so it rounds as
        # its row does within a larger batch; 8-D codes are dense ranks of
        # the batch, so codes are compared in 2-D only
        for model, b, k in [(iid_gaussian(8), B8, 3), (iid_gaussian(2), [1.0, 1.0], 2)]:
            policy = construct_reveal_plus_quantize(model, b, k)
            m = model.sample(300, seed=8)
            y, codes = policy.decode(m)
            for i in range(m.shape[0]):
                yi, ci = policy.decode(m[i : i + 1])
                assert np.array_equal(yi[0], y[i]), i
                assert model.dim == 8 or ci[0] == codes[i]

    def test_transformed_sample_is_coordinate_major(self):
        policy = construct_reveal_plus_quantize(iid_gaussian(8), B8, 3)
        x = policy.transformed_coordinates(iid_gaussian(8).sample(1_000, seed=33))
        y, _ = policy.decode_transformed(x)
        assert x.shape == y.shape == (1_000, 8)
        assert x.T.flags.c_contiguous and y.T.flags.c_contiguous

    def test_heaviest_actions_break_ties_by_index(self):
        # 30 actions counted twice and 270 once: the heaviest 50 are the 30
        # and the first 20 of the others.  On a line 10 apart with b = 0 the
        # slack is the squared distance; the 20th single (index 21) sits 1
        # from a heavy action and the 21st (index 22) 0.5 from another, so
        # picking any other singles moves the least slack off 1.0
        counts = np.ones(300, dtype=np.int64)
        counts[5::10] = 2
        u = np.zeros((300, 2))
        u[:, 0] = 10.0 * np.arange(300)
        u[21, 0] = u[105, 0] + 1.0
        u[22, 0] = u[205, 0] + 0.5
        first, b = np.arange(300), np.zeros(2)
        got = equilibrium._pairwise_min_slack(u.__getitem__, first, counts, b, seed=5)
        assert got == reference_min_slack(u, counts, b, seed=5) == 1.0


def reference_quantizer_certificate(policy, model, b, samples, seed) -> dict:
    """``verify_equilibrium(policy, ...).to_dict()`` for a quantizer, computed
    on the whole sample at once: one decode, one cost and one gain array."""
    b = np.asarray(b, dtype=float)
    m = model.sample(samples, seed)
    u, codes = policy.decode(m)
    d = m - u
    cd = np.sum(d * d, axis=1)
    d -= b
    ce = np.sum(d * d, axis=1)
    je, jd = equilibrium._estimate(ce), equilibrium._estimate(cd)

    uniq, first, counts = equilibrium._code_groups(codes)
    slack = reference_min_slack(u[first], counts, b, seed + 1)

    max_z, max_resid, max_se, evaluated = 0.0, 0.0, math.inf, 0
    acts = policy.action_set.actions
    for row in np.lexsort((uniq, -counts))[: equilibrium._CENTROID_BINS]:
        if counts[row] < equilibrium._MIN_BIN_COUNT:
            continue
        evaluated += 1
        sel = m[codes == uniq[row]]
        resid = float(np.linalg.norm(acts[uniq[row]] - sel.mean(axis=0)))
        se = math.sqrt(float(np.sum(sel.var(axis=0, ddof=1))) / int(counts[row]))
        if se > 0.0 and resid / se >= max_z:
            max_z, max_resid, max_se = resid / se, resid, se

    scores = -2.0 * (m - b) @ acts.T + np.sum(acts * acts, axis=1)
    deviation = equilibrium._estimate(scores[np.arange(samples), codes] - scores.min(axis=1))

    return equilibrium.EquilibriumCertificate(
        min_pairwise_geo_slack=slack, max_centroid_residual=max_resid,
        centroid_residual_stderr=max_se, centroid_max_z=max_z, deviation_gain=deviation,
        je=je, jd=jd, realized_actions=int(uniq.size), evaluated_bins=evaluated,
        grid_levels=None, samples=samples, seed=seed,
    ).to_dict()


@functools.cache
def lloyd_3d_policy():
    model, b = iid_gaussian(3), np.array([0.3, 0.2, 0.1])
    result = solve_fixed_point(model, b, 4, SolverConfig(samples=20_000, seed=42))
    return QuantizerPolicy(result.actions, b), model, b


class TestStreamedCertificate:
    """The chunked certificate has the bits of a whole-sample computation,
    whatever the sample size and the number of threads."""

    # one row short of a chunk, one chunk, a chunk and a lone row, and so on
    SIZES = [2, 3, 65_535, 65_536, 65_537, 131_073, 200_000]

    @staticmethod
    def certificates(monkeypatch, policy, model, b, samples, seed):
        for workers in (1, 2, 3):
            monkeypatch.setattr(equilibrium, "_available_cpus", lambda: workers)
            yield verify_equilibrium(policy, model, b, samples=samples, seed=seed).to_dict()

    @pytest.mark.parametrize("samples", SIZES)
    def test_8d_reveal_against_twice_its_bias(self, monkeypatch, samples):
        # codes past 2**62, re-ranked; a bias the policy was not built for
        model = iid_gaussian(8)
        policy = construct_reveal_plus_quantize(model, B8, 3)
        want = reference_reveal_certificate(policy, model, 2 * B8, samples, 41)
        for got in self.certificates(monkeypatch, policy, model, 2 * B8, samples, 41):
            assert got == want

    @pytest.mark.parametrize("samples", SIZES)
    def test_2d_reveal(self, monkeypatch, samples):
        model, b = iid_exponential(2), [0.0, 3.0]
        policy = construct_reveal_plus_quantize(model, b, 1, grid_levels=256)
        want = reference_reveal_certificate(policy, model, b, samples, 42)
        for got in self.certificates(monkeypatch, policy, model, b, samples, 42):
            assert got == want

    @pytest.mark.parametrize("samples", SIZES)
    def test_planted_violation(self, monkeypatch, samples):
        model, b = iid_gaussian(2), [1.0, 0.0]
        policy = QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), b)
        want = reference_quantizer_certificate(policy, model, b, samples, 43)
        for got in self.certificates(monkeypatch, policy, model, b, samples, 43):
            assert got == want

    @pytest.mark.parametrize("samples", SIZES)
    def test_3d_lloyd_quantizer(self, monkeypatch, samples):
        policy, model, b = lloyd_3d_policy()
        want = reference_quantizer_certificate(policy, model, b, samples, 44)
        for got in self.certificates(monkeypatch, policy, model, b, samples, 44):
            assert got == want

    @pytest.mark.parametrize("samples", [3, 65_537, 200_000])
    def test_3d_lloyd_quantizer_against_a_foreign_bias(self, monkeypatch, samples):
        # the rows are assigned for the policy's bias and scored against another
        policy, model, b = lloyd_3d_policy()
        foreign = np.array([0.9, -0.4, 0.6])
        want = reference_quantizer_certificate(policy, model, foreign, samples, 45)
        for got in self.certificates(monkeypatch, policy, model, foreign, samples, 45):
            for name in ("deviation_gain", "deviation_gain_stderr"):
                assert got.pop(name) == pytest.approx(want[name], rel=1e-12, abs=0.0)
            assert got == {k: v for k, v in want.items() if not k.startswith("deviation_gain")}
        if samples == 200_000:
            assert not want["pass_deviation"]
            assert want["deviation_gain"] > 3.0 * want["deviation_gain_stderr"]

    def test_threads_never_exceed_the_cpus_the_chunks_or_the_budget(self, monkeypatch):
        import concurrent.futures

        started = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(workers):
            started.append(workers)
            return real(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        g2, b2 = iid_gaussian(2), [1.0, 1.0]
        reveal2 = construct_reveal_plus_quantize(g2, b2, 2, grid_levels=64)
        g8 = iid_gaussian(8)
        reveal8 = construct_reveal_plus_quantize(g8, B8, 3, grid_levels=64)
        for cpus, policy, model, b, samples in [
            (2, reveal2, g2, b2, 150_001),  # three chunks
            (8, reveal2, g2, b2, 1_000),  # one chunk
            (8, reveal2, g2, b2, 150_001),
            (8, reveal8, g8, B8, 400_000),  # seven chunks; six slots of 8-D buffers fit
        ]:
            monkeypatch.setattr(equilibrium, "_available_cpus", lambda: cpus)
            verify_equilibrium(policy, model, b, samples=samples, seed=1)
        assert started == [2, 1, 3, 6]

    def test_a_failing_chunk_raises_in_the_caller_and_joins_the_pool(self, monkeypatch):
        real = sources.SourceModel._sample_chunk

        def failing(self, seed, chunk_index, out):
            if chunk_index == 1:
                raise RuntimeError("chunk failed")
            return real(self, seed, chunk_index, out)

        monkeypatch.setattr(sources.SourceModel, "_sample_chunk", failing)
        monkeypatch.setattr(equilibrium, "_available_cpus", lambda: 2)
        model = iid_gaussian(2)
        threads = threading.active_count()
        for policy in (construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=64),
                       QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), [1.0, 1.0])):
            with pytest.raises(RuntimeError, match="chunk failed"):
                verify_equilibrium(policy, model, [1.0, 1.0], samples=300_000, seed=0)
            assert threading.active_count() == threads

    def test_8d_verify_memory_grows_by_under_96_bytes_a_row(self, monkeypatch):
        # the sample is never held: the whole-sample certificate grew by 416 B
        # a row, the streamed one by the (N,) costs, gains and cell digits
        monkeypatch.setattr(equilibrium, "_available_cpus", lambda: 2)
        model = iid_gaussian(8)
        policy = construct_reveal_plus_quantize(model, B8, 3)
        peaks = []
        for samples in (200_000, 800_000):
            tracemalloc.start()
            try:
                verify_equilibrium(policy, model, B8, samples=samples, seed=99)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 600_000 < 96


def estimate_bits(estimates) -> str:
    """The fields of each ``EstimateWithError``, one repr for every bit."""
    return repr([dataclasses.astuple(est) for est in estimates])


def reference_expected_distortions(policy, model, b, samples, seed):
    """``expected_distortions`` on the whole sample at once: one draw, one
    decode and the per-row costs (m - u - b)**2 and (m - u)**2."""
    b = np.asarray(b, dtype=float)
    m = model.sample(samples, seed)
    u, _ = policy.decode(m)
    n = model.dim
    ce = np.sum((m - u - b) ** 2, axis=1) / n
    cd = np.sum((m - u) ** 2, axis=1) / n
    return equilibrium._estimate(ce), equilibrium._estimate(cd)


@functools.cache
def distortion_policy(name):
    """(policy, model, b) of each policy the streamed costs are checked on."""
    if name == "gaussian-2d":
        model, b = iid_gaussian(2), np.array([1.0, 1.0])
        return construct_reveal_plus_quantize(model, b, 2), model, b
    if name == "gaussian-8d":
        return construct_reveal_plus_quantize(iid_gaussian(8), B8, 3), iid_gaussian(8), B8
    if name == "exponential-2d":
        model, b = iid_exponential(2), np.array([0.0, 3.0])
        return construct_reveal_plus_quantize(model, b, 1, grid_levels=256), model, b
    b = np.array([1.0, 0.0])  # the planted violation
    return QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), b), iid_gaussian(2), b


class TestStreamedDistortions:
    """``expected_distortions`` runs the certificate's chunk stream, with the
    bits of the whole-sample costs."""

    @pytest.mark.parametrize("scale", [1.0, 2.0], ids=["b", "2b"])
    @pytest.mark.parametrize("name", ["gaussian-2d", "gaussian-8d", "exponential-2d", "planted"])
    @pytest.mark.parametrize("samples", [2, 3, 65_535, 65_537, 200_000])
    def test_equals_the_whole_sample_costs(self, monkeypatch, samples, name, scale):
        policy, model, b = distortion_policy(name)
        want = estimate_bits(reference_expected_distortions(policy, model, scale * b,
                                                            samples, 45))
        for workers in (1, 2, 3):
            monkeypatch.setattr(equilibrium, "_available_cpus", lambda: workers)
            got = expected_distortions(policy, model, scale * b, samples=samples, seed=45)
            assert estimate_bits(got) == want

    def test_8d_memory_grows_by_under_96_bytes_a_row(self, monkeypatch):
        # the whole-sample costs held the (N, 8) sample, its decode and their
        # differences; the stream holds the (N,) costs, gains and cell digits
        monkeypatch.setattr(equilibrium, "_available_cpus", lambda: 2)
        policy, model, b = distortion_policy("gaussian-8d")
        peaks = []
        for samples in (200_000, 800_000):
            tracemalloc.start()
            try:
                expected_distortions(policy, model, b, samples=samples, seed=99)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 600_000 < 96


class TestDecodeContract:
    """``decode`` takes an (N, n) batch of finite rows and rejects anything else."""

    @staticmethod
    def policies():
        model = iid_gaussian(2)
        return [
            construct_reveal_plus_quantize(model, [1.0, 1.0], 2, grid_levels=64),
            QuantizerPolicy(ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), [1.0, 0.0]),
        ]

    @pytest.mark.parametrize("kind", [0, 1], ids=["reveal", "quantizer"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_named(self, kind, bad):
        policy = self.policies()[kind]
        pts = np.zeros((5, 2))
        pts[3, 1] = bad
        pts[4, 0] = math.nan
        with pytest.raises(ValueError, match="observation row 3 is not finite"):
            policy.decode(pts)

    @pytest.mark.parametrize("kind", [0, 1], ids=["reveal", "quantizer"])
    @pytest.mark.parametrize("shape", [(2,), (4, 3), (4, 1), (2, 2, 2)])
    def test_not_a_batch_rejected(self, kind, shape):
        policy = self.policies()[kind]
        with pytest.raises(DimensionMismatchError, match=r"expects an \(N, 2\) batch"):
            policy.decode(np.zeros(shape))

    @pytest.mark.parametrize("kind", [0, 1], ids=["reveal", "quantizer"])
    def test_finite_batch_decodes(self, kind):
        policy = self.policies()[kind]
        u, codes = policy.decode([[0.1, -0.2], [1.5, 0.3]])
        assert u.shape == (2, 2) and codes.shape == (2,)
        assert np.all(np.isfinite(u))
