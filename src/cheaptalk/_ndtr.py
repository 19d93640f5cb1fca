"""The standard normal cdf and quantile, ``ndtr`` and ``ndtri``, ported from Cephes.

S. L. Moshier's Cephes routines (*Methods and Programs for Mathematical
Functions*, Prentice-Hall, 1989) as ``scipy.special`` compiles them: the
same rational approximations, coefficient tables and branch points, each
polynomial evaluated in Horner order with one multiply and one add per
coefficient, and libm's ``exp``/``log`` (through ``math``) where Cephes
calls them.  Every result therefore has ``scipy.special.ndtr``'s or
``ndtri``'s bits, and no process needs scipy to get them.

Each function has one routine, on Python floats.  A Python float is
passed to it as is; an array has it mapped over its elements and keeps its
shape, and a 0-d array (or any other number) gives a numpy scalar, as a
ufunc does.  The arrays passed are a few hundred grid edges or quantiles,
which the mapping takes about 0.2 ms for; a vectorized form would still
call libm's ``exp``/``log`` once per element, since numpy's own may differ
from libm in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRT1_2 = 7.07106781186547524401e-1  # 1/sqrt(2)
# log(DBL_MAX): erfc(x) underflows to 0 once x^2 exceeds it
_MAXLOG = 7.09782712893383996843e2
_EXPM2 = 0.13533528323661269189  # exp(-2): ndtri's central interval ends here
_ONE_MINUS_EXPM2 = 1.0 - _EXPM2
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1; U's leading 1 is implicit (p1evl)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) on x >= 8
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# ndtri(y) = (y' + y' y'^2 P0(y'^2) / Q0(y'^2)) sqrt(2 pi), y' = y - 1/2, on exp(-2) < y < 1 - exp(-2)
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri in the tails, x = sqrt(-2 log y) and z = 1/x: x - log(x)/x - z P1(z) / Q1(z)
# for 2 < x < 8 (exp(-32) < y <= exp(-2)), with P2/Q2 for x >= 8
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)

# -- the rational approximations: ``m * P(t) / Q(t)``, Horner order --


def _erf_ratio(x, t):
    p0, p1, p2, p3, p4 = _ERF_T
    q0, q1, q2, q3, q4 = _ERF_U
    return x * ((((p0 * t + p1) * t + p2) * t + p3) * t + p4) / (
        ((((t + q0) * t + q1) * t + q2) * t + q3) * t + q4)


def _degree_8_ratio(m, t, p, q):
    """The tables of erfc on [1, 8) and of ndtri's two tails."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = p
    q0, q1, q2, q3, q4, q5, q6, q7 = q
    return m * ((((((((p0 * t + p1) * t + p2) * t + p3) * t + p4) * t + p5) * t + p6) * t + p7) * t + p8) / (
        (((((((t + q0) * t + q1) * t + q2) * t + q3) * t + q4) * t + q5) * t + q6) * t + q7)


def _erfc_far_ratio(m, t):
    p0, p1, p2, p3, p4, p5 = _ERFC_R
    q0, q1, q2, q3, q4, q5 = _ERFC_S
    return m * (((((p0 * t + p1) * t + p2) * t + p3) * t + p4) * t + p5) / (
        (((((t + q0) * t + q1) * t + q2) * t + q3) * t + q4) * t + q5)


def _ndtri_central_ratio(t):
    p0, p1, p2, p3, p4 = _NDTRI_P0
    q0, q1, q2, q3, q4, q5, q6, q7 = _NDTRI_Q0
    return t * ((((p0 * t + p1) * t + p2) * t + p3) * t + p4) / (
        (((((((t + q0) * t + q1) * t + q2) * t + q3) * t + q4) * t + q5) * t + q6) * t + q7)


def _erfc_float(z: float) -> float:
    """erfc(z) for z >= 1/sqrt(2), as ndtr calls it."""
    if z < 1.0:
        return 1.0 - _erf_ratio(z, z * z)
    e = -z * z
    if e < -_MAXLOG:
        return 0.0
    e = math.exp(e)
    return _degree_8_ratio(e, z, _ERFC_P, _ERFC_Q) if z < 8.0 else _erfc_far_ratio(e, z)


def _ndtr_float(a: float) -> float:
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf_ratio(x, x * x)
    y = 0.5 * _erfc_float(z)  # a NaN falls through to here and stays NaN
    return 1.0 - y if x > 0.0 else y


def _ndtri_float(y0: float) -> float:
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:  # also NaN
        return math.nan
    y, lower = y0, True
    if y > _ONE_MINUS_EXPM2:
        y, lower = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        return (y + y * _ndtri_central_ratio(y * y)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - _degree_8_ratio(z, z, p, q)
    return -x if lower else x


def _dispatch(routine, x):
    """``routine`` on a Python float, or mapped over the elements of an array."""
    if type(x) is float:
        return routine(x)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(routine(float(x)))
    return np.fromiter(map(routine, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def ndtr(x):
    """Standard normal cdf, ``scipy.special.ndtr``'s bits: a float for a
    Python float, a numpy scalar or array otherwise."""
    return _dispatch(_ndtr_float, x)


def ndtri(q):
    """Standard normal quantile, ``scipy.special.ndtri``'s bits: -inf at 0,
    inf at 1 and NaN outside [0, 1]; a float for a Python float, a numpy
    scalar or array otherwise."""
    return _dispatch(_ndtri_float, q)
