import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from cheaptalk import ratedist
from cheaptalk.errors import InfeasibleDistortionError
from cheaptalk.ratedist import (
    AsymptoticRow,
    RDTuple,
    achievable_tuple,
    asymptotic_experiment,
    game_rate_bound,
    lloyd_max_quantizer,
    team_rate_distortion,
)

TWO_LEVEL_GAUSSIAN_DISTORTION = 1.0 - 2.0 / math.pi


def reference_asymptotic(sigma_sq, b, rate_bits, n_list, samples, seed):
    """The experiment as first written: a fresh array per chunk, the cell by
    ``searchsorted`` over the raveled draws."""
    quant, d_q = lloyd_max_quantizer(sigma_sq, 2 ** rate_bits)
    inner = quant.boundaries[1:-1]
    actions = quant.actions
    sd = math.sqrt(sigma_sq)
    rows = []
    for idx, n in enumerate(n_list):
        shift = math.sqrt(n) * b
        sum_jd = sum_jd2 = sum_gap = sum_gap2 = 0.0
        chunk = max(1, min(samples, (1 << 22) // n))
        done = 0
        part = 0
        while done < samples:
            m = min(chunk, samples - done)
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, part]))
            x = rng.normal(0.0, sd, size=(m, n))
            q = actions[np.searchsorted(inner, x[:, : n - 1].ravel(), side="left")]
            err = x[:, : n - 1].ravel() - q
            err_sq = (err * err).reshape(m, n - 1).sum(axis=1)
            last = x[:, n - 1]
            jd_i = (err_sq + last**2) / n
            gap_i = (shift**2 - 2.0 * shift * last) / n
            sum_jd += float(jd_i.sum())
            sum_jd2 += float((jd_i**2).sum())
            sum_gap += float(gap_i.sum())
            sum_gap2 += float((gap_i**2).sum())
            done += m
            part += 1
        jd_mean = sum_jd / samples
        jd_var = max(sum_jd2 / samples - jd_mean**2, 0.0)
        gap_mean = sum_gap / samples
        gap_var = max(sum_gap2 / samples - gap_mean**2, 0.0)
        rows.append(AsymptoticRow(
            n=n, rate_bits=float(rate_bits), jd_emp=jd_mean, jd_stderr=math.sqrt(jd_var / samples),
            je_emp=jd_mean + gap_mean, je_stderr=math.sqrt((jd_var + gap_var) / samples),
            jd_exact=((n - 1) * d_q + sigma_sq) / n, gap_emp=gap_mean,
            gap_stderr=math.sqrt(gap_var / samples),
        ))
    return rows


def assert_rows_equal(got, want):
    for row, ref in zip(got, want, strict=True):
        for field in AsymptoticRow.__dataclass_fields__:
            assert getattr(row, field) == getattr(ref, field), field


class TestTeamRateDistortion:
    def test_examples(self):
        assert team_rate_distortion(1.0, 0.25) == 1.0
        assert team_rate_distortion(1.0, 1.0) == 0.0
        assert team_rate_distortion(1.0, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            team_rate_distortion(1.0, 0.0)
        with pytest.raises(ValueError):
            team_rate_distortion(-1.0, 0.5)

    @pytest.mark.parametrize("sigma_sq, d, name", [
        (1.0, math.nan, "d"), (math.nan, 1.0, "sigma_sq"), (math.inf, 1.0, "sigma_sq"),
    ])
    def test_rejects_non_finite_input_by_name(self, sigma_sq, d, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            team_rate_distortion(sigma_sq, d)


class TestAchievableTuple:
    def test_examples(self):
        tup = achievable_tuple(1.0, 0.25, 1.0)
        assert (tup.rate, tup.de, tup.dd) == (1.0, 1.25, 0.25)
        zero_rate = achievable_tuple(0.0, 1.0, 0.5)
        assert (zero_rate.de, zero_rate.dd) == (1.25, 1.0)
        team = achievable_tuple(0.7, 0.4, 0.0)
        assert team.de == team.dd == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            achievable_tuple(-0.5, 0.25, 1.0)
        with pytest.raises(ValueError):
            achievable_tuple(1.0, 0.0, 1.0)

    def test_rdtuple_invariant(self):
        with pytest.raises(ValueError):
            RDTuple(rate=1.0, de=0.2, dd=0.5)

    @pytest.mark.parametrize("s", [1.0, 1e-13])
    def test_rdtuple_invariant_has_no_scale(self, s):
        # the tolerance is relative to dd: de a third below it is rejected at any scale
        with pytest.raises(ValueError, match="encoder distortion cannot be below"):
            RDTuple(rate=0.0, de=s, dd=1.5 * s)
        assert RDTuple(rate=0.0, de=s, dd=s).de == s


class TestGameRateBound:
    def test_example(self):
        assert game_rate_bound(1.0, 1.0, 1.25, 0.5) == pytest.approx(1.0)

    def test_zero_beyond_variance(self):
        assert game_rate_bound(1.0, 0.5, 3.0, 2.0) == 0.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleDistortionError):
            game_rate_bound(1.0, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("args, name", [
        ((1.0, math.nan, 1.25, 0.5), "b"),  # min(dd, nan) would drop the bias
        ((math.inf, 1.0, 1.25, 0.5), "sigma_sq"),
        ((1.0, 1.0, math.nan, 0.5), "de"),
        ((1.0, 1.0, 1.25, math.inf), "dd"),
    ])
    def test_rejects_non_finite_input_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            game_rate_bound(*args)

    def test_matches_team_function_on_random_feasible_inputs(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(1000):
            sigma_sq = rng.uniform(0.1, 4.0)
            b = rng.uniform(-2.0, 2.0)
            dd = rng.uniform(0.01, 3.0)
            de = b * b + rng.uniform(0.01, 3.0)
            bound = game_rate_bound(sigma_sq, b, de, dd)
            assert bound == pytest.approx(
                team_rate_distortion(sigma_sq, min(dd, de - b * b)), abs=1e-12
            )
            checked += 1
        assert checked == 1000


class TestLloydMax:
    def test_two_level_distortion(self):
        _, dq = lloyd_max_quantizer(1.0, 2)
        assert dq == pytest.approx(TWO_LEVEL_GAUSSIAN_DISTORTION, abs=1e-9)

    def test_distortion_decreases_with_levels(self):
        d = [lloyd_max_quantizer(1.0, 2**r)[1] for r in range(0, 4)]
        assert all(d[i] > d[i + 1] for i in range(len(d) - 1))
        assert d[0] == pytest.approx(1.0, abs=1e-9)  # one level: the variance


class TestAsymptoticExperiment:
    def test_matches_exact_formula(self):
        rows = asymptotic_experiment(1.0, 1.0, 1, [2, 4, 8], samples=200_000, seed=5)
        for row in rows:
            exact = ((row.n - 1) * TWO_LEVEL_GAUSSIAN_DISTORTION + 1.0) / row.n
            assert row.jd_exact == pytest.approx(exact, abs=1e-9)
            assert row.jd_emp == pytest.approx(exact, abs=4 * row.jd_stderr)

    def test_encoder_decoder_gap_is_bias_squared(self):
        for b in (0.5, 1.0):
            rows = asymptotic_experiment(1.0, b, 1, [4, 16], samples=200_000, seed=6)
            for row in rows:
                assert row.gap_emp == pytest.approx(b * b, abs=3 * row.gap_stderr)
                assert row.je_emp - row.jd_emp == pytest.approx(row.gap_emp, abs=1e-12)

    def test_per_dimension_distortion_decreases_with_n(self):
        rows = asymptotic_experiment(1.0, 1.0, 1, [2, 4, 16, 64], samples=50_000, seed=7)
        exacts = [row.jd_exact for row in rows]
        assert all(exacts[i] > exacts[i + 1] for i in range(len(exacts) - 1))
        # the tail row sits within its expected distance of the scalar floor
        tail = rows[-1]
        slack = (1.0 - TWO_LEVEL_GAUSSIAN_DISTORTION) / tail.n
        assert tail.jd_emp <= TWO_LEVEL_GAUSSIAN_DISTORTION + slack + 3 * tail.jd_stderr

    def test_deterministic_given_seed(self):
        a = asymptotic_experiment(1.0, 1.0, 1, [4], samples=50_000, seed=8)
        b = asymptotic_experiment(1.0, 1.0, 1, [4], samples=50_000, seed=8)
        assert a[0].jd_emp == b[0].jd_emp and a[0].je_emp == b[0].je_emp

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("sigma_sq, b, rate_bits, n_list, samples, seed", [
        (2.5, -0.7, 0, [2, 5], 20_000, 3),
        (2.5, -0.7, 1, [2, 5], 20_000, 3),
        (0.3, 1.2, 2, [2, 7], 20_000, 4),
        (0.3, 1.2, 3, [3], 20_000, 5),
        (1.7, 0.4, 4, [2, 6], 20_000, 6),
        (1.0, 1.0, 1, [64], 150_001, 42),  # two full chunks and a partial one
        (1.0, 1.0, 1, [5_000], 200, 7),  # six rows a block, the last block partial
        (0.8, 0.3, 2, [2, 3, 5_000], 7, 8),  # the last block of n = 5000 holds one row
    ])
    def test_equals_the_reference_bit_for_bit(self, monkeypatch, workers,
                                              sigma_sq, b, rate_bits, n_list, samples, seed):
        monkeypatch.setattr(ratedist, "_available_cpus", lambda: workers)
        got = asymptotic_experiment(sigma_sq, b, rate_bits, n_list, samples=samples, seed=seed)
        assert_rows_equal(got, reference_asymptotic(sigma_sq, b, rate_bits, n_list, samples, seed))

    def test_the_pinned_default_equals_the_reference_bit_for_bit(self):
        got = asymptotic_experiment(1.0, 1.0, 1, [4, 16, 64], samples=400_000, seed=42)
        assert_rows_equal(got, reference_asymptotic(1.0, 1.0, 1, [4, 16, 64], 400_000, 42))

    def test_threads_never_exceed_the_cpus_or_the_chunks(self, monkeypatch):
        import concurrent.futures

        started = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(workers):
            started.append(workers)
            return real(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(ratedist, "_available_cpus", lambda: 2)
        asymptotic_experiment(1.0, 1.0, 1, [64], samples=150_001, seed=0)  # three chunks
        monkeypatch.setattr(ratedist, "_available_cpus", lambda: 8)
        asymptotic_experiment(1.0, 1.0, 1, [4], samples=1_000, seed=0)  # one chunk
        asymptotic_experiment(1.0, 1.0, 1, [64], samples=150_001, seed=0)
        # four chunks of 2**21 rows: each job holds 32 MB of sums, three fit the budget
        asymptotic_experiment(1.0, 1.0, 1, [2], samples=1 << 23, seed=0)
        assert started == [2, 1, 3, 3]

    def test_a_failing_chunk_raises_in_the_caller_and_joins_the_pool(self, monkeypatch):
        real = ratedist._chunk_sums

        def failing(seed, idx, part, *args):
            if part == 1:
                raise RuntimeError("chunk failed")
            return real(seed, idx, part, *args)

        monkeypatch.setattr(ratedist, "_chunk_sums", failing)
        monkeypatch.setattr(ratedist, "_available_cpus", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            asymptotic_experiment(1.0, 1.0, 1, [64], samples=150_001, seed=0)
        assert threading.active_count() == threads

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_experiment(1.0, 1.0, 1, [4], samples=1000, seed=-1)
        with pytest.raises(ValueError):
            asymptotic_experiment(1.0, 1.0, 1, [1], samples=1000, seed=0)
        with pytest.raises(ValueError):
            asymptotic_experiment(1.0, 1.0, -1, [4], samples=1000, seed=0)
        with pytest.raises(ValueError):
            asymptotic_experiment(0.0, 1.0, 1, [4], samples=1000, seed=0)
        # a fractional n or bit count must not be truncated into a row for its floor
        for rate_bits, n_list in [(1, [4.7]), (1, [4, True]), (1, ["4"]), (1, [math.nan]),
                                  (1.5, [4]), (True, [4])]:
            with pytest.raises(ValueError):
                asymptotic_experiment(1.0, 1.0, rate_bits, n_list, samples=1000, seed=0)

    @pytest.mark.parametrize("args, kwargs, name", [
        ((1.0, math.nan, 1, [4]), {}, "b"),
        ((1.0, math.inf, 1, [4]), {}, "b"),
        ((math.nan, 1.0, 1, [4]), {}, "sigma_sq"),
        ((1.0, 1.0, 1, [4]), {"samples": 1000.5}, "samples"),
        ((1.0, 1.0, 1, [4]), {"samples": True}, "samples"),
        ((1.0, 1.0, 1, [4]), {"samples": math.inf}, "samples"),
        ((1.0, 1.0, 1, [4]), {"seed": 1.5}, "seed"),
        ((1.0, 1.0, 1, [4]), {"seed": math.nan}, "seed"),
        ((1.0, 1.0, 1, [4]), {"samples": 1}, "samples"),
        ((1.0, 1.0, 1.5, [4]), {}, "rate_bits"),
        ((1.0, 1.0, True, [4]), {}, "rate_bits"),
        ((1.0, 1.0, -1, [4]), {}, "rate_bits"),
        ((1.0, 1.0, 1, [4.7]), {}, r"n_list\[0\]"),
        ((1.0, 1.0, 1, [4, True]), {}, r"n_list\[1\]"),
        ((1.0, 1.0, 1, [4, "4"]), {}, r"n_list\[1\]"),
        ((1.0, 1.0, 1, [4, 1]), {}, r"n_list\[1\]"),
        # sums that could leave the float range
        ((1e300, 1.0, 1, [4]), {}, "sigma_sq"),
        ((sys.float_info.max, 0.0, 1, [4]), {}, "sigma_sq"),
        ((1.0, 1e100, 1, [4]), {}, "b"),
        ((1.0, -1e100, 1, [4]), {}, "b"),
    ])
    def test_rejects_non_finite_and_non_integer_input_by_name(self, args, kwargs, name):
        kwargs = {"samples": 1000, "seed": 0} | kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            asymptotic_experiment(*args, **kwargs)

    def test_the_largest_accepted_scale_keeps_every_sum_finite(self):
        # just inside both bounds no sum overflows, which would warn (an error
        # under the test suite's warning filter); just past each, a ValueError
        samples = 2000
        term = math.sqrt(sys.float_info.max / samples)
        sigma_sq = term / (2.0 * ratedist._DRAW_SDS) ** 2
        reach = ratedist._DRAW_SDS * math.sqrt(sigma_sq)
        b = term / (reach + math.sqrt(reach * reach + term))
        rows = asymptotic_experiment(0.999 * sigma_sq, 0.999 * b, 2, [2, 8], samples=samples, seed=0)
        assert all(math.isfinite(value) for row in rows for value in dataclasses.astuple(row))
        with pytest.raises(ValueError, match="^sigma_sq"):
            asymptotic_experiment(1.001 * sigma_sq, 0.0, 2, [2], samples=samples, seed=0)
        with pytest.raises(ValueError, match="^b"):
            asymptotic_experiment(0.999 * sigma_sq, 1.001 * b, 2, [2], samples=samples, seed=0)

    def test_integral_float_counts_are_read_as_integers(self):
        got = asymptotic_experiment(1.0, 1.0, 1, [4.0], samples=1000.0, seed=3.0)
        assert got == asymptotic_experiment(1.0, 1.0, 1, [4], samples=1000, seed=3)
