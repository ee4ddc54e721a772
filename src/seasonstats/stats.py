"""Descriptive statistics and significance tests for monthly vectors.

Covers the footer rows of the report tables: mean, sample standard
deviation, the mean +/- 2 sigma band, a chi-square goodness-of-fit test
against the uniform month distribution, and one-sample t and z tests.
"""
import math
import sys
from typing import NamedTuple, Sequence

from .indices import _floats
from .ingest import _counts
from .special import chi_square_sf, normal_cdf, regularized_beta


class TestResult(NamedTuple):
    statistic: float
    p_value: float
    dof: int | None
    hypothesized_value: float
    test_kind: str


class DescriptiveStats(NamedTuple):
    mean: float
    std_dev: float
    band_low: float
    band_high: float
    n: int


# bits kept by the square root before its final rounding, as in CPython's
# statistics module: 2 x 53 + 3 leaves at least 55 bits in the root
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _mean(values: list) -> float:
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise ValueError("sum of values overflows the float range") from None


def _sqrt_of_frac(n: int, m: int) -> float:
    """sqrt(n / m) for ints n >= 0, m > 0, correctly rounded to a float.

    The integer root of n / m scaled by 4^-q is taken with at least 55
    bits and rounded to odd (its last bit is set when the root is inexact),
    so the one final rounding to 53 bits is correct. This is the method of
    CPython's statistics._float_sqrt_of_frac.
    """
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _stdev(values: list) -> float:
    """Sample (n-1) standard deviation, bit-identical to statistics.stdev.

    A finite float is n / d with d a power of two, so over the largest
    denominator D = 2^s the numerators N and the sums S1 = sum N and
    S2 = sum N^2 are exact ints. The variance is then exactly
    (c S2 - S1^2) / (c (c-1) D^2) for c values, and only its square root
    is rounded.
    """
    ratios = [v.as_integer_ratio() for v in values]
    s = max(d for _, d in ratios).bit_length() - 1
    nums = [n << (s + 1 - d.bit_length()) for n, d in ratios]
    c = len(nums)
    s1 = sum(nums)
    s2 = sum(n * n for n in nums)
    try:
        return _sqrt_of_frac(c * s2 - s1 * s1, c * (c - 1) << 2 * s)
    except OverflowError:
        raise ValueError("standard deviation overflows the float range") from None


def _check_finite(name: str, value: float) -> None:
    """The one rule for the t and z nulls and sigma, which `AnalysisOptions`
    calls too: NaN and +/-inf, and an int past the float range, are refused
    by name."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # isfinite of an int past the float range
        raise ValueError(f"{name} value must lie within the float range") from None
    if not finite:
        raise ValueError(f"{name} value must be finite")


def _standard_score(name: str, mean: float, k: float, spread: float, n: int) -> float:
    """(mean - k) / (spread / sqrt(n)), refused when it passes the float range."""
    _check_finite(f"{name} null", k)
    diff = mean - k
    scale = spread / math.sqrt(n)
    # a subnormal spread can underflow to zero once divided by sqrt(n)
    stat = diff / scale if scale else diff / spread * math.sqrt(n)
    if math.isinf(stat):
        raise ValueError(f"{name} statistic overflows the float range")
    return stat


def _moments(x: Sequence[float | None]) -> tuple:
    """(n, mean, sample standard deviation) of the defined values of x."""
    values = _floats(x, distribution=False)
    if len(values) < 2:
        raise ValueError("need at least 2 values")
    return len(values), _mean(values), _stdev(values)


def _band(n: int, mean: float, std: float) -> DescriptiveStats:
    low, high = mean - 2.0 * std, mean + 2.0 * std
    if math.isinf(low) or math.isinf(high):
        raise ValueError("mean +/- 2 sd band overflows the float range")
    return DescriptiveStats(mean, std, low, high, n)


def describe(x: Sequence[float | None]) -> DescriptiveStats:
    """Mean, sample (n-1) standard deviation, and the mean +/- 2 sigma band."""
    return _band(*_moments(x))


def chi_square_uniform(counts: Sequence[int]) -> TestResult:
    """Goodness of fit of integer counts against equal expected counts.

    The statistic is sum((O - T/n)^2 / (T/n)) with T the total count and
    n the number of categories, computed as (n sum(O^2) - T^2) / T from the
    integer counts with one rounding; the p-value is the upper chi-square
    tail with n - 1 degrees of freedom.
    """
    observed = _counts(counts)
    total = sum(observed)
    if total == 0:
        raise ValueError("zero total count")
    n = len(observed)
    try:
        expected = total / n
        stat = (n * sum(o * o for o in observed) - total * total) / total
    except OverflowError:
        raise ValueError("chi-square statistic overflows the float range") from None
    dof = n - 1
    return TestResult(stat, chi_square_sf(stat, dof), dof, expected, "chi_square")


def _t_tail(t2: float, dof: int) -> float:
    """The two-sided tail 2 P(T > |t|) of Student's t at t^2 = t2.

    It is I_x(dof/2, 1/2) with x = dof/(dof+t^2); for t^2 < dof, x rounds
    near 1, so the tail is 1 - I_{1-x}(1/2, dof/2) there.
    """
    if t2 < dof:
        return 1.0 - regularized_beta(0.5, dof / 2.0, t2 / (dof + t2))
    return regularized_beta(dof / 2.0, 0.5, dof / (dof + t2))


def t_cdf(t: float, dof: int) -> float:
    """Cumulative distribution function of Student's t, from the two-sided
    tail, so neither side loses precision far out. Degrees of freedom that are
    not finite, or past 1e8 (as the incomplete beta's shapes pass 5e7), raise
    ValueError."""
    _check_finite("degrees of freedom", dof)
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if t != t:  # converts no int: t * t stays exact for an int past the float range
        raise ValueError("t value must not be NaN")
    try:
        tail = _t_tail(t * t, dof)
    except OverflowError:  # an int past the float range
        raise ValueError("arguments must lie within the float range") from None
    return 1.0 - 0.5 * tail if t > 0 else 0.5 * tail


def _t_test(n: int, mean: float, std: float, k: float) -> TestResult:
    if std == 0.0:
        raise ValueError("degenerate sample: zero standard deviation")
    stat = _standard_score("t", mean, k, std, n)
    dof = n - 1
    return TestResult(stat, min(_t_tail(stat * stat, dof), 1.0), dof, k, "t_one_sample")


def _check_sigma(sigma: float) -> None:
    """The one rule for the z test's sigma, which `AnalysisOptions` calls too:
    finite, then positive."""
    _check_finite("z sigma", sigma)
    if sigma <= 0:
        raise ValueError("z sigma must be positive")


def _z_test(n: int, mean: float, k: float, sigma: float) -> TestResult:
    _check_sigma(sigma)
    stat = _standard_score("z", mean, k, sigma, n)
    # the lower tail at -|z|: 1 - normal_cdf(|z|) cancels to 0 from z ~ 8.3
    p = 2.0 * normal_cdf(-abs(stat))
    return TestResult(stat, min(p, 1.0), None, k, "z_one_sample")


def t_one_sample(x: Sequence[float | None], k: float) -> TestResult:
    """One-sample t-test of the vector mean against a hypothesized value k.

    t = (mean - k) / (s / sqrt(n)) with the sample standard deviation;
    the p-value is the two-sided t-tail with n - 1 degrees of freedom.
    """
    return _t_test(*_moments(x), k)


def z_one_sample(x: Sequence[float | None], k: float, sigma: float) -> TestResult:
    """One-sample z-test with known standard deviation sigma."""
    _check_sigma(sigma)  # refused before the values are read
    values = _floats(x, distribution=False)
    if not values:
        raise ValueError("empty sample")
    return _z_test(len(values), _mean(values), k, sigma)


def footer_statistics(x: Sequence[float | None], t_null: float,
                      z_null: float | None = None,
                      z_sigma: float | None = None) -> tuple:
    """(t test, z test or None, describe) of x from one pass over its values.

    Equal to (t_one_sample(x, t_null), z_one_sample(x, z_null, z_sigma) when
    z_sigma is given, describe(x)) bit for bit, raising the first error those
    calls would raise in that order.
    """
    n, mean, std = _moments(x)
    t = _t_test(n, mean, std, t_null)
    z = None if z_sigma is None else _z_test(n, mean, z_null, z_sigma)
    return t, z, _band(n, mean, std)
