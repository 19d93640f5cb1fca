import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

import cheaptalk
from cheaptalk import sources
from cheaptalk._ndtr import ndtr, ndtri
from cheaptalk.classify import classify_correlated_gaussian
from cheaptalk.geometry import Hyperplane
from cheaptalk.sources import (
    EstimateWithError,
    ExponentialMarginal,
    GaussianMarginal,
    LaplaceMarginal,
    UniformMarginal,
    _stable_order,
    conditional_mean_curve,
    conditional_support,
    correlated_gaussian_2d,
    iid_exponential,
    iid_gaussian,
    iid_laplace,
    iid_model,
    iid_uniform,
    pair_coordinate_interval,
    symmetry_deviation,
    tabulated_density,
    tabulated_from_csv,
    truncated_moments_1d,
)

from test_equilibrium import triangle_table

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)  # E[Z | Z > 0] for a standard normal

INF = math.inf
# an asymmetric 1-D table on [-1.5, 1.5], and a 2-D table whose axes differ
_TABLE_1D = tabulated_density(-1.5, 0.5, [0.1, 0.3, 0.6, 0.5, 0.3, 0.2])
_TABLE_2D = tabulated_density(
    [0.0, -1.0], [0.25, 0.5],
    np.outer([1.0, 2.0, 3.0, 2.0], [1.0, 0.5, 0.5, 2.0]) / (32.0 * 0.125),
)


_GAUSSIAN_1D = iid_gaussian(1, mean=0.3, sigma_sq=2.0)


def _property_bins(model, narrow: bool):
    """One-sided bins cut anywhere out to +-40 sd and, when ``narrow``, 2,000
    seeded bins of width 1e-13 to 1e-5 sd starting anywhere in +-8 sd, all
    within the support."""
    marginal = model.marginals[0]
    mu, sd = float(model.mean[0]), math.sqrt(model.marginal_variance(0))
    cuts = np.clip(mu + sd * np.linspace(-40.0, 40.0, 161), marginal.lo, marginal.hi).tolist()
    bins = [(t, marginal.hi) for t in cuts] + [(marginal.lo, t) for t in cuts]
    if narrow:
        rng = np.random.default_rng(2024)
        starts = rng.uniform(max(marginal.lo, mu - 8.0 * sd), min(marginal.hi, mu + 8.0 * sd), 2000)
        bins += zip(starts.tolist(), (starts + sd * 10.0 ** rng.uniform(-13.0, -5.0, 2000)).tolist())
    return bins


@pytest.mark.parametrize(
    "model, ends, narrow",
    [
        (_GAUSSIAN_1D, [(-INF, INF)], False),
        (iid_uniform(1, lo=-1.0, hi=3.0), [(-1.0, 3.0)], True),
        (iid_exponential(1, rate=1.5), [(0.0, INF)], True),
        (iid_laplace(1, mean=0.4, scale=0.9), [(-INF, INF)], True),
        (_TABLE_1D, [(-1.5, 1.5)], True),
        (correlated_gaussian_2d(1.0, 2.0, 0.5, mean=(0.1, -0.2)), [(-INF, INF)] * 2, False),
        (_TABLE_2D, [(0.0, 1.0), (-1.0, 1.0)], False),
        (_GAUSSIAN_1D, [(-INF, INF)], True),
    ],
    ids=["gaussian", "uniform", "exponential", "laplace", "table-1d", "correlated", "table-2d",
         "gaussian-narrow"],
)
def test_marginal_contract(model, ends, narrow):
    """Every family: cdf inverts ppf, the support rule, and full-support moments;
    1-D families: on every tail bin, and every narrow bin where ``narrow``, a
    nonnegative mass, a mean inside the bin and mean^2 <= second moment."""
    qs = np.array([1e-6, 0.01, 0.3, 0.5, 0.77, 0.999])
    eps = 1e-6  # unbounded supports are cut at the 1e-6 quantiles
    for i, (lo, hi) in enumerate(ends):
        x = model.marginal_ppf(i, qs)
        assert np.allclose(model.marginal_cdf(i, x), qs, rtol=1e-9, atol=1e-12)
        expected = (
            lo if math.isfinite(lo) else float(model.marginal_ppf(i, eps)),
            hi if math.isfinite(hi) else float(model.marginal_ppf(i, 1.0 - eps)),
        )
        assert model.support_interval(i) == expected
    if model.dim == 1:
        mass, mean, second = truncated_moments_1d(model, *ends[0])
        assert mass == pytest.approx(1.0, rel=1e-12)
        assert mean == pytest.approx(model.mean[0], rel=1e-12, abs=1e-14)
        assert second == pytest.approx(model.marginal_variance(0) + mean**2, rel=1e-10)
        bins = _property_bins(model, narrow)
        bad = []
        for a, b in bins:
            mass, mean, second = truncated_moments_1d(model, a, b)
            if not (mass >= 0.0 and (mass == 0.0 or a <= mean <= b and mean * mean <= second)):
                bad.append((a, b, mass, mean, second))
        assert bad == [], f"{len(bad)} of {len(bins)} bins, first {bad[:3]}"


class TestSampling:
    def test_deterministic_given_seed(self):
        g = iid_gaussian(2)
        a = g.sample(5000, seed=11)
        b = g.sample(5000, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, g.sample(5000, seed=12))

    def test_prefix_property(self):
        # shorter requests are exact prefixes: chunked substreams keyed by
        # (seed, chunk) make results independent of how work is split
        for model in (iid_gaussian(2), iid_uniform(3), iid_exponential(1), iid_laplace(2)):
            long = model.sample(70_000, seed=3)
            short = model.sample(1_000, seed=3)
            assert np.array_equal(long[:1_000], short)

    @pytest.mark.parametrize("model", [
        iid_gaussian(3, mean=0.5, sigma_sq=2.0), iid_uniform(2, lo=-1.0, hi=3.0),
        iid_exponential(1, rate=2.0), iid_laplace(8, mean=-0.2, scale=0.7),
        correlated_gaussian_2d(1.0, 2.0, 0.8), _TABLE_1D, _TABLE_2D,
    ], ids=lambda m: f"{m.family}-{m.dim}d")
    def test_chunk_drawn_into_a_buffer_has_the_same_bits(self, model):
        # an i.i.d. chunk is drawn into the buffer in blocks; every other law at once
        # the plain draw: the whole chunk at once from its own seeded stream
        rng = np.random.default_rng(np.random.SeedSequence([5, 1]))
        whole = model._draw(rng, sources._SAMPLE_CHUNK)
        assert np.array_equal(whole[:10], model.sample(sources._SAMPLE_CHUNK + 10, 5)[-10:])
        for rows in (sources._SAMPLE_CHUNK, 4_097, 1):
            out = np.full((rows, model.dim), np.nan)
            assert model._sample_chunk(5, 1, out) is out
            assert np.array_equal(out, whole[:rows])

    def test_uniform_moments(self):
        pts = iid_uniform(2).sample(1_000_000, seed=0)
        tol = 3.0 * (1.0 / math.sqrt(12.0)) / 1e3
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < tol)

    def test_exponential_mean(self):
        pts = iid_exponential(1, rate=1.0).sample(400_000, seed=1)
        se = pts.std() / math.sqrt(pts.shape[0])
        assert abs(pts.mean() - 1.0) < 3.0 * se

    def test_gaussian_moments(self):
        pts = iid_gaussian(1, mean=2.0, sigma_sq=4.0).sample(400_000, seed=2)
        assert abs(pts.mean() - 2.0) < 3.0 * 2.0 / math.sqrt(400_000)
        assert abs(pts.var() - 4.0) < 0.05

    def test_correlated_gaussian_covariance(self):
        model = correlated_gaussian_2d(1.0, 2.0, 0.8)
        pts = model.sample(400_000, seed=3)
        cov = np.cov(pts.T)
        assert np.allclose(cov, [[1.0, 0.8], [0.8, 2.0]], atol=0.03)

    @pytest.mark.parametrize("count, seed, name", [
        (0, 1, "count"),
        (2.5, 1, "count"),
        (True, 1, "count"),
        (10, -1, "seed"),
        (10, 1.5, "seed"),
        (10, float("nan"), "seed"),
        (10, True, "seed"),
        (None, 1, "count"),
        ("10", 1, "count"),
        (math.inf, 1, "count"),
        (np.float64(2.5), 1, "count"),
        (10, None, "seed"),
        (10, "1", "seed"),
        (10, np.int64(-1), "seed"),
    ])
    def test_sample_rejects_a_bad_count_or_seed_by_name(self, count, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number of at least"):
            iid_gaussian(2).sample(count, seed)

    def test_sample_reads_integral_floats_as_ints(self):
        model = iid_gaussian(2)
        assert np.array_equal(model.sample(10.0, 1.0), model.sample(10, 1))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            iid_gaussian(2).sample(0, seed=1)
        with pytest.raises(ValueError):
            iid_gaussian(2, sigma_sq=-1.0)
        with pytest.raises(ValueError):
            correlated_gaussian_2d(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("sigma1_sq, sigma2_sq, rho", [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0),
                                                           (2.0, 0.5, 1.0), (4.0, 9.0, -6.0)])
    def test_singular_covariance_rejected_by_name(self, sigma1_sq, sigma2_sq, rho):
        # a model needs a density and a Cholesky factor; the closed-form
        # classification takes the numbers and still accepts a semidefinite matrix
        with pytest.raises(ValueError, match="^rho must satisfy rho\\^2 < sigma1_sq \\* sigma2_sq"):
            correlated_gaussian_2d(sigma1_sq, sigma2_sq, rho)
        assert classify_correlated_gaussian(sigma1_sq, sigma2_sq, rho, [1.0, 2.0]).exists in (
            "yes", "undetermined")

    @pytest.mark.parametrize("factory, name", [
        (lambda v: iid_gaussian(2, mean=v), "mean"),
        (lambda v: iid_gaussian(2, sigma_sq=v), "sigma_sq"),
        (lambda v: iid_uniform(2, lo=v), "lo"),
        (lambda v: iid_uniform(2, hi=v), "hi"),
        (lambda v: iid_exponential(2, rate=v), "rate"),
        (lambda v: iid_laplace(2, mean=v), "mean"),
        (lambda v: iid_laplace(2, scale=v), "scale"),
        (lambda v: correlated_gaussian_2d(v, 1.0, 0.0), "sigma1_sq"),
        (lambda v: correlated_gaussian_2d(1.0, v, 0.0), "sigma2_sq"),
        (lambda v: correlated_gaussian_2d(1.0, 1.0, v), "rho"),
        (lambda v: correlated_gaussian_2d(1.0, 1.0, 0.0, mean=(0.0, v)), "mean"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected_by_name(self, factory, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            factory(value)

    @pytest.mark.parametrize("factory, message", [
        (lambda: iid_gaussian(2, sigma_sq=0.0), "^variance must be positive"),
        (lambda: iid_gaussian(2, sigma_sq=-1.0), "^variance must be positive"),
        (lambda: iid_exponential(2, rate=0.0), "^rate must be positive"),
        (lambda: iid_exponential(2, rate=-2.0), "^rate must be positive"),
        (lambda: iid_laplace(2, scale=0.0), "^scale must be positive"),
        (lambda: iid_laplace(2, scale=-1.0), "^scale must be positive"),
        (lambda: iid_uniform(2, lo=1.0, hi=1.0), "^lo must be below hi"),
        (lambda: iid_uniform(2, lo=1.0, hi=0.0), "^lo must be below hi"),
    ])
    def test_out_of_range_parameters_rejected_by_name(self, factory, message):
        # the factories leave the range checks to the marginal laws
        with pytest.raises(ValueError, match=message):
            factory()

    @pytest.mark.parametrize("family, make, message", [
        ("iid-gaussian", lambda: GaussianMarginal(0.0, -1.0), "^variance must be positive"),
        ("iid-gaussian", lambda: GaussianMarginal(0.0, 0.0), "^variance must be positive"),
        ("iid-gaussian", lambda: GaussianMarginal(math.nan, 1.0), "^mean must be finite"),
        ("iid-gaussian", lambda: GaussianMarginal(0.0, math.inf), "^variance must be finite"),
        ("iid-uniform", lambda: UniformMarginal(1.0, 0.0), "^lo must be below hi"),
        ("iid-uniform", lambda: UniformMarginal(1.0, 1.0), "^lo must be below hi"),
        ("iid-uniform", lambda: UniformMarginal(-math.inf, 0.0), "^lo must be finite"),
        ("iid-uniform", lambda: UniformMarginal(0.0, math.nan), "^hi must be finite"),
        ("iid-exponential", lambda: ExponentialMarginal(0.0), "^rate must be positive"),
        ("iid-exponential", lambda: ExponentialMarginal(-2.0), "^rate must be positive"),
        ("iid-exponential", lambda: ExponentialMarginal(math.nan), "^rate must be finite"),
        ("iid-laplace", lambda: LaplaceMarginal(0.0, -1.0), "^scale must be positive"),
        ("iid-laplace", lambda: LaplaceMarginal(math.inf, 1.0), "^mean must be finite"),
        ("iid-laplace", lambda: LaplaceMarginal(0.0, math.nan), "^scale must be finite"),
    ])
    def test_iid_model_rejects_bad_marginals_by_name(self, family, make, message):
        # the marginal laws make every range check, for the factories and iid_model alike
        with pytest.raises(ValueError, match=message):
            iid_model(family, make(), 2)

    def test_iid_model_accepts_valid_marginals(self):
        for family, marginal in [("iid-gaussian", GaussianMarginal(1.0, 2.0)),
                                 ("iid-uniform", UniformMarginal(-1.0, 3.0)),
                                 ("iid-exponential", ExponentialMarginal(0.5)),
                                 ("iid-laplace", LaplaceMarginal(-1.0, 0.25))]:
            model = iid_model(family, marginal, 2)
            assert np.allclose(model.mean, marginal.mean)
            assert np.all(np.isfinite(model.sample(100, seed=1)))


class TestTruncatedMoments:
    def test_gaussian_against_scipy(self):
        model = iid_gaussian(1, mean=0.7, sigma_sq=2.25)
        for a, b in [(-1.0, 1.0), (0.0, math.inf), (-math.inf, 0.3), (2.0, 5.0)]:
            mass, mean, second = truncated_moments_1d(model, a, b)
            ref = stats.truncnorm((a - 0.7) / 1.5, (b - 0.7) / 1.5, loc=0.7, scale=1.5)
            assert mean == pytest.approx(ref.mean(), rel=1e-9)
            assert second == pytest.approx(ref.moment(2), rel=1e-8)

    def test_half_normal(self):
        mass, mean, _ = truncated_moments_1d(iid_gaussian(1), 0.0, math.inf)
        assert mass == pytest.approx(0.5, rel=1e-12)
        assert mean == pytest.approx(HALF_NORMAL_MEAN, rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            iid_exponential(1, rate=1.7),
            iid_laplace(1, mean=0.4, scale=0.9),
            iid_uniform(1, lo=-1.0, hi=2.0),
            _TABLE_1D,
        ],
    )
    def test_against_quadrature(self, model):
        pdf = lambda x: model.marginal_pdf(0, np.array([x]))[0]
        for a, b in [(0.1, 1.3), (-2.0, 0.5), (0.9, math.inf)]:
            hi = b if math.isfinite(b) else model.marginal_ppf(0, 1.0 - 1e-12)
            mass_q, _ = integrate.quad(pdf, a, hi, limit=200)
            mean_q, _ = integrate.quad(lambda x: x * pdf(x), a, hi, limit=200)
            sec_q, _ = integrate.quad(lambda x: x * x * pdf(x), a, hi, limit=200)
            mass, mean, second = truncated_moments_1d(model, a, b)
            assert mass == pytest.approx(mass_q, rel=1e-8, abs=1e-12)
            if mass > 0:
                assert mean == pytest.approx(mean_q / mass_q, rel=1e-7)
                assert second == pytest.approx(sec_q / mass_q, rel=1e-7)

    def test_empty_interval(self):
        mass, _, _ = truncated_moments_1d(iid_uniform(1), 2.0, 3.0)
        assert mass == 0.0

    @pytest.mark.parametrize("model", [_GAUSSIAN_1D, iid_uniform(1, lo=-1.0, hi=3.0),
                                       iid_exponential(1, rate=1.5),
                                       iid_laplace(1, mean=0.4, scale=0.9), _TABLE_1D],
                             ids=["gaussian", "uniform", "exponential", "laplace", "table-1d"])
    @pytest.mark.parametrize("end", [-INF, INF])
    def test_empty_bin_at_infinity(self, model, end):
        mass, mean, second = truncated_moments_1d(model, end, end)
        assert mass == 0.0 and math.isnan(mean) and math.isnan(second)

    @pytest.mark.parametrize("a, b, want", [
        (-INF, INF, ("0x1.0000000000000p+0", "0x1.9999999999999p-2", "0x1.c7ae147ae1479p+0")),
        (-0.5, 1.1, ("0x1.2c35b8de2030cp-1", "0x1.59f1eb79d13c9p-2", "0x1.212607ebc38d2p-2")),
        (0.7, 2.0, ("0x1.185447566f07fp-2", "0x1.32de33bab62bap+0", "0x1.906d078085b00p+0")),
        (-3.0, 0.1, ("0x1.63271f03780c6p-2", "-0x1.6543090fbf043p-1", "0x1.f06925781641cp-1")),
        (-INF, -1.0, ("0x1.b04690114a154p-4", "-0x1.e666666666666p+0", "0x1.1ae147ae147aep+2")),
        (2.5, INF, ("0x1.8d327a69b3be5p-5", "0x1.b333333333333p+1", "0x1.8bd70a3d70a3dp+3")),
        (0.4, 0.4 + 1e-9, ("0x1.316b7ee0b5764p-31", "0x1.999999a2309f9p-2", "0x1.47ae14889fb7ap-3")),
    ])
    def test_laplace_moments_are_pinned(self, a, b, want):
        """The laplace closed form keeps the bits that every pinned solve and
        payload depends on: both halves, each half alone, infinite ends and a
        sub-ulp-of-scale bin around the location."""
        got = truncated_moments_1d(iid_laplace(1, mean=0.4, scale=0.9), a, b)
        assert tuple(x.hex() for x in got) == want


def _norm_truncated_moments(mu, sd, a, b):
    """The gaussian truncated moments written with scipy.stats.norm."""
    alpha = (a - mu) / sd if np.isfinite(a) else -np.inf
    beta = (b - mu) / sd if np.isfinite(b) else np.inf
    if alpha > 0.0:
        mass = stats.norm.sf(alpha) - stats.norm.sf(beta)
    else:
        mass = stats.norm.cdf(beta) - stats.norm.cdf(alpha)
    if mass <= 0.0:
        return 0.0, math.nan, math.nan
    pa = stats.norm.pdf(alpha) if np.isfinite(alpha) else 0.0
    pb = stats.norm.pdf(beta) if np.isfinite(beta) else 0.0
    z_mean = (pa - pb) / mass
    apa = alpha * pa if np.isfinite(alpha) else 0.0
    bpb = beta * pb if np.isfinite(beta) else 0.0
    z_second = 1.0 + (apa - bpb) / mass
    mean = mu + sd * z_mean
    second = mu**2 + 2.0 * mu * sd * z_mean + sd**2 * z_second
    return float(mass), float(mean), float(second)


class TestGaussianClosedForms:
    """The gaussian marginal reproduces scipy.stats.norm exactly, not approximately,
    except on finite bins narrower than 1e-3 sd."""

    X = np.concatenate([[0.0, 1.0, -1.0, INF, -INF, math.nan, 1e-300, -38.5, 38.5],
                        np.linspace(-40.0, 40.0, 2001)])
    Q = np.concatenate([[0.0, 1.0, 0.5, math.nan, -0.5, 1.5, 1e-300, 1e-9, 1.0 - 1e-9],
                        np.linspace(0.0, 1.0, 2001)])

    @pytest.mark.parametrize("mean, variance", [(0.0, 1.0), (0.7, 2.25), (-3.0, 0.01)])
    def test_pdf_cdf_ppf_equal_scipy(self, mean, variance):
        marginal = GaussianMarginal(mean, variance)
        norm = stats.norm(loc=mean, scale=math.sqrt(variance))
        for ours, ref, arg in [(marginal.pdf, norm.pdf, self.X), (marginal.cdf, norm.cdf, self.X),
                               (marginal.ppf, norm.ppf, self.Q)]:
            assert np.array_equal(ours(arg), ref(arg), equal_nan=True)
            for v in (0.0, 1.0, 0.3):
                assert ours(v) == ref(v)
        # one scalar at a time, as the scalar solver calls it: squaring a Python
        # float with pow() would differ in the last bit on ~7 of 10,000 inputs
        xs = np.random.default_rng(1).normal(0.0, 4.0, size=20_000)
        assert [marginal.pdf(v) for v in xs] == list(norm.pdf(xs))

    def test_truncated_moments_equal_scipy(self):
        rng = np.random.default_rng(0)
        ends = list(map(tuple, np.sort(rng.normal(0.0, 6.0, size=(160, 2)), axis=1)))
        ends += [(-INF, INF), (-INF, 0.3), (0.3, INF), (-INF, -39.0), (39.0, INF),
                 (-40.0, -37.5), (37.5, 40.0), (-8.5, -8.4), (8.4, 8.5), (0.0, 0.0),
                 (12.0, 30.0), (-30.0, -12.0)]
        ends += [(a, INF) for a in np.linspace(-10.0, 10.0, 13)]
        ends += [(-INF, b) for b in np.linspace(-10.0, 10.0, 13)]
        for mu, sigma_sq in [(0.0, 1.0), (0.7, 2.25)]:
            model = iid_gaussian(1, mean=mu, sigma_sq=sigma_sq)
            for a, b in ends:
                got = truncated_moments_1d(model, a, b)
                want = _norm_truncated_moments(mu, math.sqrt(sigma_sq), a, b)
                assert np.array_equal(got, want, equal_nan=True), (mu, a, b)
        # bins below 1e-3 sd take a width series: scipy.stats gives this one a
        # negative second moment (-2.9e-5) and a mass 3e-5 off
        w = 2e-12
        mass, mean, second = truncated_moments_1d(iid_gaussian(1), -1e-12, 1e-12)
        assert mass == pytest.approx(w / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert mean == 0.0
        assert second == pytest.approx(w * w / 12.0, rel=1e-12)

    def test_truncated_moments_read_only_the_start_terms_they_need(self, monkeypatch):
        # the cdf values and the pdf at the lower end are computed when a bin
        # reads them: one cdf value at each end, and none for a narrow bin
        calls = []
        ndtr_float = sources._ndtr_float

        def counted(z):
            calls.append(z)
            return ndtr_float(z)

        monkeypatch.setattr(sources, "_ndtr_float", counted)
        marginal = GaussianMarginal(0.0, 1.0)
        for a, b in [(-1.0, 2.0), (0.5, 3.0), (-INF, 0.3), (0.3, INF), (-2.0, -1.5)]:
            calls.clear()
            marginal.truncated_moments(a, b)
            assert len(calls) == 2, (a, b)
        calls.clear()
        marginal.truncated_moments(0.2, 0.2 + 1e-4)
        assert calls == []


_KERNEL_STARTS = (-6.0, -1.2, 0.0, 0.3, 2.5, 9.0)


@pytest.mark.parametrize("model", [
    iid_gaussian(1), iid_gaussian(1, mean=0.7, sigma_sq=2.25), iid_uniform(1, lo=-1.0, hi=3.0),
    iid_exponential(1, rate=1.5), iid_laplace(1, mean=0.4, scale=0.9), triangle_table(),
], ids=["gaussian", "gaussian-shifted", "uniform", "exponential", "laplace", "triangle"])
def test_mass_mean_kernel_equals_truncated_moments(model):
    """The scalar solver's boundary search reads each bin through the
    marginal's start-fixed kernel: its (mass, mean) has every bit of
    ``truncated_moments`` of the same bin, ends in either order, infinite
    ends and bins narrower than 1e-3 sd included."""
    marginal = model.marginals[0]
    mu, sd = float(model.mean[0]), math.sqrt(model.marginal_variance(0))
    rng = np.random.default_rng(2)
    xs = (mu + sd * rng.normal(0.0, 4.0, 120)).tolist() + [-INF, INF, mu - 39.0 * sd, mu + 39.0 * sd, mu]
    starts = [mu + sd * t for t in _KERNEL_STARTS] + [-INF, INF, marginal.lo, marginal.hi]
    for start in starts:
        kernel = marginal.mass_mean_from(start)
        # bins narrower than 1e-3 sd take the gaussian width series on both paths
        near = [start + sd * d for d in (1e-13, -1e-13, 1e-4, -1e-4, 0.0)]
        for x in xs + near:
            want = truncated_moments_1d(model, min(start, x), max(start, x))[:2]
            assert np.array_equal(kernel(x), want, equal_nan=True), (start, x)
    # the empty bins at either infinity
    for end in (-INF, INF):
        assert np.array_equal(marginal.mass_mean_from(end)(end), (0.0, math.nan), equal_nan=True)
        assert np.array_equal(truncated_moments_1d(model, end, end), (0.0, math.nan, math.nan),
                              equal_nan=True)


@pytest.mark.parametrize("sigma1_sq, sigma2_sq, rho", [
    (1.0, 2.0, 0.8), (1.0, 2.0, -0.5), (1.0, 2.0, 0.1), (1.5, 0.4, 0.999 * math.sqrt(1.5 * 0.4))])
def test_correlated_joint_pdf_equals_scipy(sigma1_sq, sigma2_sq, rho):
    model = correlated_gaussian_2d(sigma1_sq, sigma2_sq, rho, mean=(0.7, -1.3))
    pts = np.concatenate([model.sample(20_000, 3), [[0.7, -1.3], [9.0, -9.0], [-4.0, 6.0]]])
    want = stats.multivariate_normal.pdf(pts, mean=model.mean, cov=model.cov)
    np.testing.assert_allclose(model.joint_pdf(pts), want, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(model.joint_pdf(pts[0]), want[:1], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("fn", [ndtr, ndtri])
def test_ndtr_ndtri_keep_the_shape_of_their_input(fn):
    values = [[0.1, 0.5, 0.9], [0.2, 0.0, 1.0]]
    want = np.array([[fn(v) for v in row] for row in values])
    assert fn(np.empty(0)).shape == (0,)
    assert fn(np.empty((2, 0))).shape == (2, 0)
    assert np.array_equal(fn(values[0]), want[0])
    assert np.array_equal(fn(np.array(values)), want)
    assert type(fn(np.array(0.3))) is np.float64
    assert type(fn(np.float64(0.3))) is np.float64
    assert type(fn(0.3)) is float


def test_import_leaves_out_scipy():
    """No scipy module loads: not for a gaussian solve, and not for the
    correlated-gaussian joint pdf."""
    code = (
        "import sys, cheaptalk\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "cheaptalk.solve_fixed_point(cheaptalk.iid_uniform(1), [0.1], 2,\n"
        "                            cheaptalk.SolverConfig(samples=10_000))\n"
        "cheaptalk.classify_linear_existence(cheaptalk.iid_uniform(2), [1.0, -1.0],\n"
        "                                    samples=20_000, seed=1)\n"
        "cheaptalk.helmert_transform(3, bias=1.0)\n"
        "print(loaded())\n"
        "cheaptalk.solve_scalar_biased(cheaptalk.iid_gaussian(1), 0.2, 3)\n"
        "print(loaded())\n"
        "cheaptalk.correlated_gaussian_2d(1.0, 1.0, 0.5).joint_pdf([0.0, 0.0])\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cheaptalk.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 4


def halfspace_cells(model, planes):
    """(mass, mean) of the quadrature cells whose centers lie in every half-space."""
    centers, masses = model.quadrature_cells(1_000_000)
    inside = np.ones(centers.shape[0], dtype=bool)
    for plane in planes:
        inside &= plane.value(centers) >= 0.0
    mass = float(masses[inside].sum())
    return mass, (centers[inside] * masses[inside, None]).sum(axis=0) / mass


def halfspace_monte_carlo(model, planes, samples, seed):
    """(mean, stderr) of the sample points that lie in every half-space."""
    pts = model.sample(samples, seed)
    inside = np.ones(samples, dtype=bool)
    for plane in planes:
        inside &= plane.value(pts) >= 0.0
    sel = pts[inside]
    return sel.mean(axis=0), math.sqrt(np.sum(sel.var(axis=0, ddof=1)) / sel.shape[0])


class TestRegionMean:
    """Conditional means of half-space regions read off ``quadrature_cells``: the
    checks of the cell masses that the Lloyd solver sweeps on in 1-D and 2-D."""

    def test_uniform_half_box(self):
        mass, mean = halfspace_cells(iid_uniform(2), [Hyperplane(normal=[-1.0, 0.0], anchor=[0.5, 0.0])])
        assert mass == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(mean, [0.25, 0.5], atol=1e-6)

    def test_gaussian_half_line(self):
        planes = [Hyperplane(normal=[1.0], anchor=[0.0])]
        _, quad = halfspace_cells(iid_gaussian(1), planes)
        assert quad[0] == pytest.approx(HALF_NORMAL_MEAN, abs=5e-4)
        mc, stderr = halfspace_monte_carlo(iid_gaussian(1), planes, 400_000, 4)
        assert abs(mc[0] - HALF_NORMAL_MEAN) < 3.0 * stderr
        assert abs(quad[0] - mc[0]) < 3.0 * stderr

    def test_full_support_gives_mean(self):
        mass, mean = halfspace_cells(iid_exponential(2, rate=2.0), [])
        assert mass == pytest.approx(1.0, abs=1e-5)  # less the cut 1e-6 tails
        assert np.allclose(mean, [0.5, 0.5], atol=2e-4)

    def test_quadrature_and_mc_agree(self):
        rng = np.random.default_rng(6)
        for model in (iid_gaussian(2), iid_uniform(2)):
            for _ in range(3):
                normal = rng.normal(size=2)
                anchor = model.mean_vector + rng.normal(size=2, scale=0.3)
                planes = [Hyperplane(normal=normal, anchor=anchor)]
                _, quad = halfspace_cells(model, planes)
                mc, stderr = halfspace_monte_carlo(model, planes, 200_000, 7)
                assert np.linalg.norm(quad - mc) < 3.0 * stderr + 1e-3

    def test_centroid_interior_to_convex_region(self):
        rng = np.random.default_rng(8)
        model = iid_gaussian(2)
        for _ in range(10):
            planes = [
                Hyperplane(normal=rng.normal(size=2), anchor=rng.normal(size=2, scale=0.4))
                for _ in range(2)
            ]
            mass, mean = halfspace_cells(model, planes)
            if mass < 1e-4:
                continue
            for plane in planes:
                assert plane.value(mean) > 0.0

    def test_three_dimensions_rejected(self):
        # quadrature serves the 1-D and 2-D sweeps; higher dimensions sample
        with pytest.raises(ValueError, match="dimension <= 2"):
            iid_gaussian(3).quadrature_cells(1_000_000)


class TestConditionalMeanCurve:
    def test_gaussian_flat(self):
        grid = np.linspace(-2.0, 2.0, 9)
        curve = conditional_mean_curve(iid_gaussian(2), [1.0, 2.0], grid, samples=400_000, seed=10)
        for est in curve:
            assert abs(float(np.asarray(est.value))) < 3.0 * est.stderr

    def test_exponential_memorylessness_oracle(self):
        # E[M1 + M2 | M2 - M1 = t] = |t| + 1 for unit-rate exponentials:
        # conditionally on the difference, the smaller coordinate is Exp(2)
        model = iid_exponential(2, rate=1.0)
        grid = np.array([-2.0, -0.7, 0.0, 0.7, 2.0])
        curve = conditional_mean_curve(model, [1.0, 1.0], grid, samples=1_000_000, seed=11)
        for t, est in zip(grid, curve):
            oracle = abs(t) + 1.0 - 2.0
            assert float(np.asarray(est.value)) == pytest.approx(oracle, abs=5 * est.stderr + 5e-3)

    def test_exponential_oracle_against_quadrature(self):
        # independent check of the |t|+1 rule by direct 2-D integration over
        # a band around the slice
        t, delta = 0.7, 0.01
        joint = lambda m1, m2: math.exp(-m1 - m2)
        num, _ = integrate.dblquad(
            lambda m2, m1: (m1 + m2) * joint(m1, m2),
            0.0, 40.0, lambda m1: max(m1 + t - delta, 0.0), lambda m1: m1 + t + delta,
        )
        den, _ = integrate.dblquad(
            lambda m2, m1: joint(m1, m2),
            0.0, 40.0, lambda m1: max(m1 + t - delta, 0.0), lambda m1: m1 + t + delta,
        )
        assert num / den == pytest.approx(abs(t) + 1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "model",
        [
            iid_gaussian(2),
            iid_uniform(2),
            iid_exponential(2, rate=0.8),
            iid_laplace(2, scale=1.3),
        ],
    )
    def test_antisymmetric_bias_flat_for_all_families(self, model):
        lo, hi = pair_coordinate_interval(model, [1.0, -1.0], 0)
        pad = 0.15 * (hi - lo)
        grid = np.linspace(lo + pad, hi - pad, 7)
        curve = conditional_mean_curve(model, [1.0, -1.0], grid, samples=400_000, seed=12)
        for est in curve:
            assert abs(float(np.asarray(est.value))) < 3.0 * est.stderr + 1e-4

    def test_uniform_symmetric_flat(self):
        grid = np.linspace(-0.6, 0.6, 7)
        curve = conditional_mean_curve(iid_uniform(2), [1.0, 1.0], grid, samples=400_000, seed=13)
        for est in curve:
            assert abs(float(np.asarray(est.value))) < 3.0 * est.stderr + 1e-4

    def test_grid_outside_support_rejected(self):
        with pytest.raises(ValueError):
            conditional_mean_curve(iid_uniform(2), [1.0, 1.0], [5.0], samples=10_000, seed=0)

    def test_starved_window_rejected(self):
        # a window needs 100 samples, more than the whole sample here
        with pytest.raises(ValueError, match="^samples must be a whole number of at least 100"):
            conditional_mean_curve(iid_gaussian(2), [1.0, 1.0], [0.0], samples=99, seed=0)

    def test_capped_window_short_of_100_rejected(self):
        # the 100 nearest samples are the whole sample, wider than the width
        # cap of half its range, and the capped window holds fewer
        with pytest.raises(ValueError, match=r"^window at t=0 captured \d+ samples \(< 100\)"):
            conditional_mean_curve(iid_gaussian(2), [1.0, 1.0], [0.0], samples=100, seed=0)


class TestSymmetryDeviation:
    def test_symmetric_families_zero(self):
        assert symmetry_deviation(iid_uniform(1)) == 0.0
        assert symmetry_deviation(iid_gaussian(1, mean=3.0)) <= 1e-12
        assert symmetry_deviation(iid_laplace(1, mean=-1.0)) <= 1e-12

    def test_exponential_strictly_asymmetric(self):
        dev = symmetry_deviation(iid_exponential(1, rate=1.0))
        assert dev > math.exp(-1.0)  # the offset x=1 from mu=1 already gives 1 - e^-2


class TestConditionalSupport:
    def test_uniform_diagonal(self):
        model = iid_uniform(2)
        assert conditional_support(model, [1.0, 1.0], 1.0) == pytest.approx((-1.0, 1.0))
        lo, hi = conditional_support(model, [1.0, 1.0], 2.0)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi == pytest.approx(0.0, abs=1e-12)

    def test_outside_support_rejected(self):
        with pytest.raises(ValueError):
            conditional_support(iid_uniform(2), [1.0, 1.0], 2.5)

    def test_gaussian_wide_interval(self):
        model = iid_gaussian(2)
        lo, hi = conditional_support(model, [1.0, 2.0], 0.5)
        sd_x1 = math.sqrt(5.0)
        assert lo < -4.0 * sd_x1 and hi > 4.0 * sd_x1

    def test_axis_bias_cases(self):
        model = iid_uniform(2)
        # b1 = 0: the line fixes m2; X1 = -b2 m1
        lo, hi = conditional_support(model, [0.0, 2.0], 1.0)
        assert (lo, hi) == pytest.approx((-2.0, 0.0))
        # b2 = 0: the line fixes m1; X1 = b1 m2
        lo, hi = conditional_support(model, [3.0, 0.0], 1.5)
        assert (lo, hi) == pytest.approx((0.0, 3.0))

    @pytest.mark.parametrize("b", [[0.1, 0.2], [0.3, -0.7], [0.7, 0.1], [0.1, 0.7]])
    def test_line_through_a_corner_keeps_it(self, b):
        # at X2's ends the line meets the unit box in one corner, which
        # rounding may put just outside the box
        model = iid_uniform(2)
        for x2, side in zip(pair_coordinate_interval(model, b, 1), (0.0, 1.0)):
            m = [side if c > 0.0 else 1.0 - side for c in b]
            lo, hi = conditional_support(model, b, x2)
            assert lo == pytest.approx(b[0] * m[1] - b[1] * m[0], abs=1e-12)
            assert hi == pytest.approx(lo, abs=1e-12)

    @pytest.mark.parametrize("model", [
        iid_uniform(2, lo=-0.5, hi=2.0), iid_exponential(2, rate=0.8),
        iid_laplace(2, mean=0.4, scale=1.3), _TABLE_2D,
    ])
    def test_edge_rule_equals_three_branch_oracle(self, model):
        # 250 seeded (b, x2) draws per source, a sixth with b1 = 0 and a
        # sixth with b2 = 0, x2 anywhere inside X2's range
        rng = np.random.default_rng(20)
        for _ in range(250):
            b = rng.normal(size=2) * rng.uniform(0.1, 3.0)
            if rng.random() < 1.0 / 3.0:
                b[rng.integers(0, 2)] = 0.0
            lo2, hi2 = pair_coordinate_interval(model, b, 1)
            x2 = lo2 + rng.uniform(0.0, 1.0) * (hi2 - lo2)
            got = conditional_support(model, b, x2)
            want = _three_branch_support(model, b, x2)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model", [
        iid_gaussian(2), correlated_gaussian_2d(1.0, 2.0, 0.5), correlated_gaussian_2d(1.0, 2.0, -0.5),
        iid_uniform(2), iid_exponential(2), iid_laplace(2),
        tabulated_density([0.0, -1.0], [0.25, 0.5], np.array([
            [1.0, 0.0, 2.0, 1.0], [2.0, 1.0, 0.0, 2.0], [3.0, 2.0, 1.0, 0.0], [0.0, 2.0, 1.0, 3.0],
        ]) / (21.0 * 0.125)),
    ], ids=["gaussian", "correlated+", "correlated-", "uniform", "exponential", "laplace",
            "table-zero-cells"])
    @pytest.mark.parametrize("b", [[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0], [1.0, 2.0]],
                             ids=["b1=0", "b2=0", "equal", "antisymmetric", "generic"])
    def test_support_at_the_mean_lies_in_the_revealed_range(self, model, b):
        # the continuum of revealed values, X1's range over the support box,
        # spans the conditional support at X2's mean, up to rounding
        x2_mean = sources._pair_values(cheaptalk.pair_transform_2d(b), model.mean)[1]
        lo, hi = conditional_support(model, b, x2_mean)
        span_lo, span_hi = pair_coordinate_interval(model, b, 0)
        tol = 1e-9 * (span_hi - span_lo)
        assert span_lo - tol <= lo <= hi <= span_hi + tol

    @pytest.mark.parametrize("call", [
        lambda b: conditional_mean_curve(iid_uniform(2), b, [0.0], samples=1_000, seed=0),
        lambda b: conditional_support(iid_uniform(2), b, 0.0),
        lambda b: pair_coordinate_interval(iid_uniform(2), b, 0),
    ])
    def test_zero_bias_rejected(self, call):
        with pytest.raises(ValueError, match="nonzero bias"):
            call([0.0, 0.0])


def _three_branch_support(model, b, x2):
    """Oracle: the box clipping with one branch per zero pattern of ``b``,
    which re-derives X1 from the line instead of reading the pair transform."""
    lo0, hi0 = model.support_interval(0)
    lo1, hi1 = model.support_interval(1)
    tol = 1e-12 * max(1.0, abs(x2))
    if b[0] != 0.0 and b[1] != 0.0:
        cand = sorted(((x2 - b[1] * lo1) / b[0], (x2 - b[1] * hi1) / b[0]))
        m1_lo, m1_hi = max(lo0, cand[0]), min(hi0, cand[1])
        assert m1_hi >= m1_lo - tol
        m1_hi = max(m1_hi, m1_lo)
        ends = [b[0] * ((x2 - b[0] * m1) / b[1]) - b[1] * m1 for m1 in (m1_lo, m1_hi)]
    elif b[0] == 0.0:
        assert lo1 - tol <= x2 / b[1] <= hi1 + tol
        ends = [-b[1] * lo0, -b[1] * hi0]
    else:
        assert lo0 - tol <= x2 / b[0] <= hi0 + tol
        ends = [b[0] * lo1, b[0] * hi1]
    return min(ends), max(ends)


class TestTabulated:
    def _triangle_model(self):
        # symmetric triangle on [-1, 1]
        edges = np.linspace(-1.0, 1.0, 101)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = 1.0 - np.abs(centers)
        dens /= dens.sum() * (edges[1] - edges[0])
        return tabulated_density([-1.0], [edges[1] - edges[0]], dens)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            tabulated_density([0.0], [0.5], np.array([1.0, 2.0]))

    def test_moments_and_mean(self):
        model = self._triangle_model()
        assert model.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert model.marginal_variance(0) == pytest.approx(1.0 / 6.0, abs=1e-3)

    def test_sampling_matches_density(self):
        model = self._triangle_model()
        pts = model.sample(200_000, seed=14)
        assert abs(pts.mean()) < 3.0 * pts.std() / math.sqrt(pts.shape[0])
        assert pts.min() >= -1.0 and pts.max() <= 1.0

    def test_symmetry_detected(self):
        assert symmetry_deviation(self._triangle_model()) < 1e-12

    def test_csv_round_trip_2d(self, tmp_path):
        path = tmp_path / "density.csv"
        xs = np.linspace(0.05, 0.95, 10)
        with open(path, "w") as fh:
            fh.write("x1,x2,density\n")
            for x1 in xs:
                for x2 in xs:
                    fh.write(f"{x1},{x2},1.0\n")
        model = tabulated_from_csv(path)
        assert model.dim == 2
        assert np.allclose(model.mean, [0.5, 0.5], atol=1e-9)
        mass, mean = halfspace_cells(model, [Hyperplane(normal=[-1.0, 0.0], anchor=[0.5, 0.0])])
        assert mass == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(mean, [0.25, 0.5], atol=1e-6)

    def test_csv_rejects_nonuniform_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("x,density\n0.0,1.0\n0.1,1.0\n0.35,1.0\n")
        with pytest.raises(ValueError):
            tabulated_from_csv(path)


def test_estimate_with_error_fields():
    est = EstimateWithError(value=1.0, stderr=0.1, sample_count=100)
    assert est.value == 1.0 and est.stderr == 0.1 and est.sample_count == 100


class TestStableOrder:
    """``_stable_order`` gives ``np.argsort(kind="stable")`` from an unstable sort."""

    @pytest.mark.parametrize("values", [
        np.random.default_rng(0).standard_normal(5_000),              # distinct
        np.round(np.random.default_rng(1).standard_normal(5_000), 1),  # heavy ties
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
        np.array([np.nan, 1.0, np.nan, -2.0, np.nan, 0.5]),
        np.array([0.5, np.nan]),
        np.where(np.random.default_rng(3).random(5_000) < 0.2, np.nan,
                 np.random.default_rng(4).standard_normal(5_000)),     # distinct but NaNs
        np.array([math.inf, -math.inf, 0.0, math.inf, -math.inf, 1.0]),
        np.array([]),
        np.array([3.0]),
        -np.random.default_rng(2).integers(0, 5, 200),                # tied counts
    ])
    def test_matches_stable_argsort(self, values):
        order, ordered = _stable_order(values)
        want = np.argsort(values, kind="stable")
        assert order.dtype == want.dtype
        assert np.array_equal(order, want)
        assert np.array_equal(ordered, values[want], equal_nan=True)
