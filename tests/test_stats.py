"""Descriptive statistics, chi-square, t, and z tests."""

import math
import random
import statistics

import pytest
from hypothesis import example, given, strategies as st
from scipy import special as sps
from scipy import stats as spstats

from seasonstats.indices import diversity, exponential_entropy, hhi, theil
from seasonstats.probability import normalize, shares
from seasonstats.stats import (
    _stdev,
    _t_test,
    chi_square_uniform,
    describe,
    footer_statistics,
    t_cdf,
    t_one_sample,
    z_one_sample,
)

import refvalues as rv


def test_describe_reference_column(jscs_matrices):
    table = shares(jscs_matrices[0])
    d = describe(table.column(0))
    assert d.mean == pytest.approx(rv.JSCS_2012_MEAN, abs=5e-4)
    assert d.std_dev == pytest.approx(rv.JSCS_2012_STD, abs=5e-4)
    assert d.band_low == pytest.approx(rv.JSCS_2012_BAND[0], abs=5e-4)
    assert d.band_high == pytest.approx(rv.JSCS_2012_BAND[1], abs=5e-4)
    assert d.n == 12


def test_describe_std_rows(jscs_matrices, ent_matrices):
    for matrices, offset in ((jscs_matrices, 0), (ent_matrices, 4)):
        sub = shares(matrices[0])
        acc = shares(matrices[1])
        for j in range(3):
            assert describe(sub.column(j)).std_dev == pytest.approx(
                rv.T1_STD[offset + j], abs=5e-4)
            assert describe(acc.column(j)).std_dev == pytest.approx(
                rv.T2_STD[offset + j], abs=5e-4)
        assert describe(sub.cumulated).std_dev == pytest.approx(
            rv.T1_STD[offset + 3], abs=5e-4)
        assert describe(acc.cumulated).std_dev == pytest.approx(
            rv.T2_STD[offset + 3], abs=5e-4)


def test_describe_skips_none_and_needs_two():
    d = describe([1.0, None, 3.0])
    assert d.mean == 2.0
    assert d.n == 2
    with pytest.raises(ValueError, match="at least 2"):
        describe([1.0, None])


# finite floats from the subnormals up to 2^1019 in magnitude, with each
# element on its own scale; 30 of them still sum below the float maximum
scaled_floats = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1019))


@given(st.lists(scaled_floats, min_size=2, max_size=30))
@example([1e308, -1e308])
@example([1e308, 7e307, -1e308])
@example([5e-324, 0.0, -5e-324])
@example([2.2250738585072014e-308, 5e-324])
@example([0.1] * 12)
@example([1e-300, 1e300])
def test_describe_std_is_statistics_stdev(x):
    # exact equality: the standard deviation is the correctly rounded root
    # of the exact variance, as statistics.stdev computes it
    std = statistics.stdev(x)
    assert _stdev(x) == std
    mean = statistics.fmean(x)
    if math.isinf(mean - 2.0 * std) or math.isinf(mean + 2.0 * std):
        # the root is a float but the mean +/- 2 sd band is not
        with pytest.raises(ValueError, match="band overflows"):
            describe(x)
    else:
        assert describe(x).std_dev == std


def test_non_finite_values_refused():
    for bad in (math.nan, math.inf, -math.inf):
        x = [0.1, bad, 0.2]
        with pytest.raises(ValueError, match="values must be finite"):
            describe(x)
        with pytest.raises(ValueError, match="values must be finite"):
            t_one_sample(x, 0.0)
        with pytest.raises(ValueError, match="values must be finite"):
            z_one_sample(x, 0.0, 1.0)


def test_overflowing_values_refused():
    # finite values whose sum, or whose standard deviation, passes the float
    # range raise ValueError, which build_bundle reports as a data error
    wide = [1e308, 1e308 * (1 - 2**-52)]
    for call in (describe, lambda x: t_one_sample(x, 0.0), lambda x: z_one_sample(x, 0.0, 1.0)):
        with pytest.raises(ValueError, match="sum of values overflows"):
            call(wide)
    for call in (describe, lambda x: t_one_sample(x, 0.0)):
        with pytest.raises(ValueError, match="standard deviation overflows"):
            call([1.7e308, -1.7e308])
    # here the standard deviation fits but twice it does not, so only the
    # band is refused; the t statistic needs no band
    with pytest.raises(ValueError, match=r"mean \+/- 2 sd band overflows the float range"):
        describe([1e308, -1e308])
    # only the high end overflows here (the low end is -8.9e307)
    with pytest.raises(ValueError, match=r"mean \+/- 2 sd band overflows the float range"):
        describe([1.5e308, 0.25e308])
    assert t_one_sample([1e308, -1e308], 0.0).statistic == 0.0
    # finite inputs whose t or z statistic passes the float range: a
    # subnormal spread, or a difference from the null past the range
    for call, name in ((lambda: t_one_sample([5e-324, 1e-323], 0.0833), "t"),
                       (lambda: t_one_sample([8e307, 9e307], -1.7e308), "t"),
                       (lambda: z_one_sample([0.1, 0.2], 0.08, 1e-320), "z"),
                       (lambda: z_one_sample([0.1] * 12, 0.08, 5e-324), "z")):
        with pytest.raises(ValueError, match=f"^{name} statistic overflows the float range$"):
            call()
    # sigma / sqrt(12) underflows to zero here; the statistic is still defined
    assert z_one_sample([0.08] * 12, 0.08, 5e-324).statistic == 0.0
    assert z_one_sample([1e-320] * 12, 0.0, 5e-324).statistic == pytest.approx(
        2024 * math.sqrt(12), rel=1e-3)


def _outcome(call):
    """A call's result with each float as its hex text (so -0.0 and 0.0
    differ), or its error type and message."""
    try:
        result = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(v.hex() if isinstance(v, float) else v for v in result)


_FOOTER_VALUES = st.one_of(
    st.none(),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),  # huge and subnormal values
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 8e307, -8e307, 1.7e308]),
)


@given(st.lists(_FOOTER_VALUES, max_size=12), st.floats(-2.0, 2.0),
       st.none() | st.tuples(st.floats(-2.0, 2.0), st.sampled_from([1e-320, 5e-324, 0.03, 1.0])))
@example([0.1] * 12, 0.08, (0.08, 0.03))  # constant: the t test refuses
@example([8e307, -8e307], 0.08, (0.08, 5e-324))  # z overflow before the band's
@example([None, 0.25, None, 0.5], 0.0833333, None)
def test_footer_statistics_equal_separate_calls(x, t_null, z):
    z_null, z_sigma = z if z is not None else (None, None)
    calls = [lambda: t_one_sample(x, t_null), lambda: describe(x)]
    if z is not None:
        calls.insert(1, lambda: z_one_sample(x, z_null, z_sigma))
    expected = [_outcome(call) for call in calls]
    first_error = next((o for o in expected if isinstance(o[0], type)), None)
    try:
        t, z_result, band = footer_statistics(x, t_null, z_null, z_sigma)
    except ValueError as exc:
        # the first error of the separate calls, in t, z, band order
        assert (type(exc), str(exc)) == first_error
        return
    assert first_error is None
    got = [_outcome(lambda: t), _outcome(lambda: band)]
    if z is not None:
        got.insert(1, _outcome(lambda: z_result))
    else:
        assert z_result is None
    assert got == expected


def test_footer_statistics_error_precedence():
    # a constant column: the t test's error, although z and the band are defined
    with pytest.raises(ValueError, match="^degenerate sample: zero standard deviation$"):
        footer_statistics([0.1] * 12, 0.08, 0.08, 0.03)
    # twice the standard deviation overflows and the subnormal sigma makes z
    # infinite: the z message comes before the band's
    huge = [1e308, -1e308] * 6
    with pytest.raises(ValueError, match=r"^mean \+/- 2 sd band overflows"):
        describe(huge)
    with pytest.raises(ValueError, match="^z statistic overflows the float range$"):
        footer_statistics(huge, 0.08, 0.08, 5e-324)
    with pytest.raises(ValueError, match=r"^mean \+/- 2 sd band overflows"):
        footer_statistics(huge, 0.08, 0.08, 0.03)
    with pytest.raises(ValueError, match="^z sigma must be positive$"):
        footer_statistics([0.1, 0.2], 0.08, 0.08, 0.0)


def test_chi_square_reference_values(jscs_matrices, ent_matrices):
    result = chi_square_uniform(jscs_matrices[0].column(0))
    assert result.statistic == pytest.approx(rv.CHI2_JSCS_2012, abs=0.05)
    assert result.dof == 11
    cum = chi_square_uniform(ent_matrices[0].cumulated)
    assert cum.statistic == pytest.approx(rv.CHI2_ENT_CUM_SUB, abs=0.05)


def test_chi_square_all_columns(jscs_matrices, ent_matrices):
    for matrices, offset, row in ((jscs_matrices, 0, rv.T1_CHI2),
                                  (ent_matrices, 4, rv.T1_CHI2)):
        matrix = matrices[0]
        for j in range(3):
            got = chi_square_uniform(matrix.column(j)).statistic
            assert got == pytest.approx(row[offset + j], abs=0.05)
        got = chi_square_uniform(matrix.cumulated).statistic
        assert got == pytest.approx(row[offset + 3], abs=0.05)


def test_chi_square_matches_scipy():
    counts = rv.JSCS_2012_SUB_COUNTS
    ours = chi_square_uniform(counts)
    ref_stat, ref_p = spstats.chisquare(counts)
    assert ours.statistic == pytest.approx(ref_stat, abs=1e-10)
    assert ours.p_value == pytest.approx(ref_p, abs=1e-12)


def test_share_indices_are_functions_of_the_chi_square_and_g_statistics():
    # with p the shares of n counts over 12 months: Pearson's chi-square is
    # n (12 HHI - 1), the G statistic 2 n Theil, and exp_entropy, D1 and D2
    # are e^Theil / 12, 12 e^-Theil and 1 / HHI. Over 2000 such draws the
    # worst gaps were 2.1 units, 1.2e-14 relative, 1, 1 and 7 ulps
    rng = random.Random("t5 identities")
    for _ in range(300):
        top = 10 ** rng.randint(1, 9)
        counts = [rng.randint(0, top) for _ in range(12)]
        n = sum(counts)
        if n == 0:
            continue
        p = normalize(counts)
        h, t = hhi(p), theil(p)
        # chi_square_uniform is exact but for its one rounding; 12 n HHI carries
        # a few ulps of HHI into n (12 HHI - 1)
        chi = chi_square_uniform(counts).statistic
        assert abs(chi - n * (12 * h - 1)) <= 4 * 12 * n * h * 2.0**-52
        g = spstats.power_divergence(counts, lambda_="log-likelihood").statistic
        assert 2 * n * t == pytest.approx(g, rel=1e-13, abs=0.0)
        e, d1, d2 = exponential_entropy(p), diversity(p, 1), diversity(p, 2)
        assert abs(e - math.exp(t) / 12) <= math.ulp(e)
        assert abs(d1 - 12 * math.exp(-t)) <= 2 * math.ulp(d1)
        assert abs(d2 - 1 / h) <= 8 * math.ulp(d2)


def test_chi_square_uniform_is_zero():
    result = chi_square_uniform([5] * 12)
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero total"):
        chi_square_uniform([0] * 12)
    with pytest.raises(ValueError, match="non-negative"):
        chi_square_uniform([-1] + [1] * 11)


@pytest.mark.parametrize("counts", [[1.9, 2.9, 3.9], [0.5, 0.5], [1, math.inf, 2],
                                    [1, math.nan, 2], [-math.inf, 1]])
def test_chi_square_uniform_refuses_counts_that_are_not_integers(counts):
    # int() would test [1.9, 2.9, 3.9] as [1, 2, 3]
    with pytest.raises(ValueError, match="^counts must be non-negative integers$"):
        chi_square_uniform(counts)


def test_chi_square_uniform_takes_integral_floats():
    assert chi_square_uniform([1.0, 3.0, 9.0, 4.0]) == chi_square_uniform([1, 3, 9, 4])


def test_t_cdf_reference_points():
    # classic two-sided 5% critical value for 11 degrees of freedom
    assert t_cdf(2.201, 11) == pytest.approx(0.975, abs=1e-3)
    assert t_cdf(0.0, 11) == 0.5
    assert t_cdf(-2.201, 11) == pytest.approx(0.025, abs=1e-3)
    with pytest.raises(ValueError, match="^degrees of freedom must be >= 1$"):
        t_cdf(0.5, 0)


def test_t_cdf_refuses_nan_at_once():
    # refused by name, before any beta term
    with pytest.raises(ValueError, match="^t value must not be NaN$"):
        t_cdf(math.nan, 3)


def test_t_cdf_limits_at_infinity():
    assert t_cdf(math.inf, 3) == 1.0
    assert t_cdf(-math.inf, 3) == 0.0


@given(st.floats(-30, 30), st.integers(1, 60))
def test_t_cdf_matches_scipy(t, dof):
    # scipy's t.cdf loses the distance from 1/2 for tiny |t| (it returns 0.5
    # at t = 1e-9, dof = 1, where the cdf is 0.5 + 3.2e-10), so the reference
    # is scipy's incomplete beta via F(t) = 1/2 + sign(t)/2 I_{t^2/(dof+t^2)}(1/2, dof/2)
    x = t * t / (dof + t * t)
    expected = 0.5 + math.copysign(0.5, t) * sps.betainc(0.5, dof / 2, x)
    assert t_cdf(t, dof) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("dof", [100, 1000, 10**4, 3 * 10**4, 10**5])
@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_t_cdf_matches_scipy_at_large_dof(t, dof):
    # the incomplete beta's error grows with its shapes (7.9e-12 at dof 1e5 and
    # 2.5e-10 at 1e6 for t = 1), so 1e-10 holds up to the 1e5 the docs state
    assert abs(t_cdf(t, dof) - spstats.t.cdf(t, dof)) <= 1e-10
    assert abs(t_cdf(-t, dof) - spstats.t.cdf(-t, dof)) <= 1e-10


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_t_cdf_matches_scipy_at_the_dof_bound(t):
    # at dof 1e8 the incomplete beta's shapes reach their 5e7 bound; the
    # error measured there was 9.2e-9
    assert abs(t_cdf(t, 10**8) - spstats.t.cdf(t, 10**8)) <= 2e-8
    assert abs(t_cdf(-t, 10**8) - spstats.t.cdf(-t, 10**8)) <= 2e-8


@pytest.mark.parametrize("dof", [10**8 + 1, 10**10, 10**13])
def test_t_cdf_refuses_dof_past_the_bound(dof):
    # unchecked, t_cdf(1.0, dof) drifted from scipy by 2.5e-6 at 1e10 and 1.6e-2 at 1e13
    for t in (1.0, math.inf):
        with pytest.raises(ValueError, match="^shape parameters must be at most 5e7$"):
            t_cdf(t, dof)


@given(st.floats(0, 30), st.integers(1, 60))
def test_t_cdf_symmetry(t, dof):
    assert t_cdf(t, dof) + t_cdf(-t, dof) == pytest.approx(1.0, abs=1e-10)


def test_t_one_sample_reference(jscs_matrices):
    table = shares(jscs_matrices[0])
    result = t_one_sample(table.column(0), 0.0)
    assert result.statistic == pytest.approx(rv.T_JSCS_2012_VS_ZERO, abs=5e-4)
    assert result.dof == 11


def test_t_one_sample_hand_case():
    # mean .5, sd .1, n 12 against .4
    x = [0.5 + 0.1 * v for v in
         (-1.50755672, -0.95346259, -0.61628509, -0.35208849, -0.11327373,
          0.11327373, 0.35208849, 0.61628509, 0.95346259, 1.50755672, 0.0, 0.0)]
    # exact symmetric sample: mean .5; rescale to sd .1 exactly
    scale = 0.1 / statistics.stdev(x)
    x = [0.5 + (v - 0.5) * scale for v in x]
    result = t_one_sample(x, 0.4)
    assert result.statistic == pytest.approx(rv.T_HAND_CASE, abs=1e-5)
    assert result.p_value == pytest.approx(rv.P_HAND_CASE, abs=1e-5)


def test_t_one_sample_matches_scipy(jscs_matrices):
    table = shares(jscs_matrices[0])
    for k in (0.0, 1 / 12, 0.05):
        ours = t_one_sample(table.column(1), k)
        ref = spstats.ttest_1samp(table.column(1), k)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_t_one_sample_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        t_one_sample([0.5] * 12, 0.4)
    # constant columns whose value is not a short binary fraction, one of them
    # the default --t-null share, have a variance of exactly zero too
    for value in (0.1, 0.0833333, 1 / 3):
        with pytest.raises(ValueError, match="degenerate"):
            t_one_sample([value] * 12, 1 / 12)
    with pytest.raises(ValueError, match="at least 2"):
        t_one_sample([0.5], 0.4)


def test_z_one_sample():
    x = [1 / 12] * 6 + [1 / 6] * 6
    result = z_one_sample(x, 1 / 12, 0.05)
    ref = (sum(x) / 12 - 1 / 12) / (0.05 / math.sqrt(12))
    assert result.statistic == pytest.approx(ref, abs=1e-12)
    assert result.dof is None
    assert result.test_kind == "z_one_sample"
    with pytest.raises(ValueError, match="sigma"):
        z_one_sample(x, 0.0, 0.0)


@pytest.mark.parametrize("z", [5.0, 6.0, 7.0, 7.5, 8.0, 8.5, 9.0, 10.0, 11.0, 12.0])
def test_z_p_value_far_tail_matches_scipy(z):
    # a z statistic of exactly z: the two-sided tail keeps its relative
    # accuracy where 2 (1 - Phi(z)) was 7% off at z = 8 and 0 from z ~ 8.3
    for sign in (1.0, -1.0):
        result = z_one_sample([sign * z, sign * z], 0.0, math.sqrt(2.0))
        ref = 2.0 * spstats.norm.sf(abs(result.statistic))
        assert ref > 0.0
        assert result.p_value == pytest.approx(ref, rel=3e-14, abs=0)


def test_t_p_value_near_zero_matches_closed_forms():
    # with the default null 0.0833333, a share column's t is about 4e-7; there
    # dof / (dof + t^2) rounds near 1, and a p-value taken from it is up to
    # 2e-8 off. 2 P(T > t) is (2 / pi) atan(1 / t) for one degree of freedom
    # and 2 / (s (s + t)) with s = sqrt(2 + t^2) for two
    for t in (3e-8, 4.2e-7, 1e-4, 0.5, 0.999, 1.001, 1.414, 1.415, 30.0):
        s = math.sqrt(2.0 + t * t)
        for dof, expected in ((1, 2.0 / math.pi * math.atan(1.0 / t)), (2, 2.0 / (s * (s + t)))):
            # mean t and standard deviation sqrt(n) give a statistic of exactly t
            result = _t_test(dof + 1, t, math.sqrt(dof + 1), 0.0)
            assert result.statistic == t
            assert result.p_value == pytest.approx(expected, rel=1e-14, abs=0), (dof, t)


def test_t_cdf_lower_tail_matches_closed_forms():
    # the lower tail is half the two-sided tail, not 1 minus the upper CDF,
    # which cancels far out: atan(1/|t|) / pi for one degree of freedom and
    # 1 / (s (s + |t|)) with s = sqrt(2 + t^2) for two
    for t in (-1e3, -1e6):
        s = math.sqrt(2.0 + t * t)
        for dof, expected in ((1, math.atan(1.0 / -t) / math.pi), (2, 1.0 / (s * (s - t)))):
            assert t_cdf(t, dof) == pytest.approx(expected, rel=1e-13, abs=0), (dof, t)


def test_z_matches_normal_tail():
    x = [0.2, 0.4, 0.6, 0.8]
    result = z_one_sample(x, 0.5, 0.2)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)
    shifted = z_one_sample(x, 0.3, 0.2)
    assert shifted.p_value == pytest.approx(
        2 * spstats.norm.sf(abs(shifted.statistic)), abs=1e-12)


@given(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=24), st.floats(-1, 1))
def test_t_p_value_in_unit_interval(x, k):
    if statistics.stdev(x) == 0.0:
        return
    result = t_one_sample(x, k)
    assert 0.0 <= result.p_value <= 1.0
