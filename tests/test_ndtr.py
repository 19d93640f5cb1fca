"""The Cephes ports of the normal cdf and quantile against scipy.special, bit for bit."""

import math
import pathlib
import struct

import numpy as np
import pytest
from scipy import special

from cheaptalk import _ndtr
from cheaptalk._ndtr import ndtr, ndtri

SQRT2 = math.sqrt(2.0)
EXPM2 = math.exp(-2.0)
SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-310, -1e-310]


def around(values, ulps=4):
    """Each value, both signs, and its neighbours up to ``ulps`` units in the last place."""
    out = []
    for v in values:
        for x in (v, -v):
            out.append(x)
            lo = hi = x
            for _ in range(ulps):
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
                out += [lo, hi]
    return out


def ndtr_inputs():
    rng = np.random.default_rng(20)
    random = [rng.normal(0.0, 3.0, 8000), rng.uniform(-40.0, 40.0, 8000),
              rng.uniform(-1.5, 1.5, 8000), rng.normal(0.0, 1e-3, 1000)]
    # a / sqrt 2 at 1/sqrt 2 (erf or erfc), at 1 (erfc's polynomial or 1 - erf),
    # at 8 (erfc's second table) and where -x^2 passes -log(DBL_MAX) (exp underflow)
    edges = around([1.0, SQRT2, 8.0 * SQRT2, math.sqrt(_ndtr._MAXLOG) * SQRT2,
                    1.0 / _ndtr._SQRT1_2, 38.0, 38.5, 40.0])
    return np.concatenate(random + [np.array(edges + SPECIALS)])


def ndtri_inputs():
    rng = np.random.default_rng(21)
    random = [rng.random(8000), np.exp(-rng.uniform(0.0, 745.0, 8000)),
              1.0 - np.exp(-rng.uniform(0.0, 37.0, 8000)), rng.uniform(0.1, 0.9, 1000)]
    # exp(-2) and 1 - exp(-2) (the central interval's ends), exp(-32) (x = 8 in the
    # tails), 1/2, and values outside [0, 1]
    edges = [v for v in around([EXPM2, _ndtr._ONE_MINUS_EXPM2, math.exp(-32.0), 0.5, 1.0])
             if v >= 0.0] + [math.nextafter(0.0, 1.0), 1e-300, -0.5, 1.5, 2.0]
    return np.concatenate(random + [np.array(edges + SPECIALS)])


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = got[~nan].view(np.uint64) != want[~nan].view(np.uint64)
    assert not differ.any(), (got[~nan][differ][:5], want[~nan][differ][:5])


@pytest.mark.parametrize("ours, reference, inputs", [
    (ndtr, special.ndtr, ndtr_inputs()), (ndtri, special.ndtri, ndtri_inputs())])
def test_equals_scipy_bit_for_bit(ours, reference, inputs):
    want = reference(inputs)
    # array path, flat and 2-D
    assert_same_bits(ours(inputs), want)
    even = inputs.shape[0] // 2 * 2
    assert_same_bits(ours(inputs[:even].reshape(-1, 2)), want[:even].reshape(-1, 2))
    # Python floats, one at a time
    scalars = [ours(v) for v in inputs.tolist()]
    assert all(type(v) is float for v in scalars)
    assert_same_bits(scalars, want)
    # 0-d arrays give numpy scalars, as a ufunc does
    zero_d = [ours(np.array(v)) for v in inputs[::7]]
    assert all(type(v) is np.float64 for v in zero_d)
    assert_same_bits(zero_d, want[::7])
    assert ours(np.empty(0)).shape == (0,)


def _ufuncs_binaries():
    return sorted(pathlib.Path(special.__file__).parent.glob("_ufuncs.*so"))


@pytest.mark.skipif(not _ufuncs_binaries(), reason="scipy.special's compiled ufuncs not found")
def test_coefficients_are_the_ones_scipy_compiles():
    """Each coefficient and constant is stored as a double in scipy.special's
    compiled ufuncs.  The compiler keeps the tables interleaved and folds some
    signs into subtractions, so each value is looked for with either sign."""
    data = b"".join(path.read_bytes() for path in _ufuncs_binaries())
    values = [v for name, value in vars(_ndtr).items() if name.isupper()
              for v in (value if isinstance(value, tuple) else (value,))]
    assert len(values) == 5 + 10 + 17 + 12 + 13 + 17 + 17
    missing = [v for v in values if struct.pack("<d", v) not in data and struct.pack("<d", -v) not in data]
    assert missing == []
