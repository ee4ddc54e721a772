"""Special-function kernels against scipy references."""

import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st
from scipy import special as sps
from scipy import stats as spstats

from seasonstats import special
from seasonstats.special import (
    _beta_terms,
    _gamma_q_terms,
    _lentz,
    chi_square_sf,
    normal_cdf,
    regularized_beta,
    regularized_gamma_p,
    regularized_gamma_q,
)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 5.5, 11.0, 40.0])
@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 10.0, 50.0])
def test_gamma_p_matches_scipy(a, x):
    assert regularized_gamma_p(a, x) == pytest.approx(sps.gammainc(a, x), abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 5.5, 11.0, 40.0])
@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 10.0, 50.0])
def test_gamma_q_matches_scipy(a, x):
    assert regularized_gamma_q(a, x) == pytest.approx(sps.gammaincc(a, x), abs=1e-12)


# the domain the special.py docstring states, sampled instead of gridded
@given(st.floats(0.5, 40), st.floats(0, 50))
def test_gamma_p_q_match_scipy_over_documented_domain(a, x):
    assert abs(regularized_gamma_p(a, x) - sps.gammainc(a, x)) <= 1e-12
    assert abs(regularized_gamma_q(a, x) - sps.gammaincc(a, x)) <= 1e-12


@given(st.floats(0.5, 30), st.floats(0.5, 30), st.floats(0, 1))
def test_beta_matches_scipy_over_documented_domain(a, b, x):
    # above 1/2 the reference is scipy's lower tail, I_x(a, b) = 1 - I_{1-x}(b, a)
    # with 1 - x exact: scipy 1.17's betainc(0.5, 0.5, x) itself is off by up to
    # 2.8e-9 at x = 1 - 2**-53, where mpmath agrees with this package
    reference = sps.betainc(a, b, x) if x <= 0.5 else 1.0 - sps.betainc(b, a, 1.0 - x)
    assert abs(regularized_beta(a, b, x) - reference) <= 1e-12


@given(st.floats(0, 40), st.integers(1, 30))
def test_chi_square_sf_matches_scipy_over_documented_domain(x, dof):
    assert abs(chi_square_sf(x, dof) - spstats.chi2.sf(x, dof)) <= 1e-12


@given(st.floats(0.1, 50), st.floats(0, 100))
def test_gamma_p_q_sum_to_one(a, x):
    assert regularized_gamma_p(a, x) + regularized_gamma_q(a, x) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1, 3), (5.5, 0.5), (2, 2), (11, 11), (30, 5)])
@pytest.mark.parametrize("x", [0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0])
def test_beta_matches_scipy(a, b, x):
    assert regularized_beta(a, b, x) == pytest.approx(sps.betainc(a, b, x), abs=1e-12)


@given(st.floats(0.2, 30), st.floats(0.2, 30), st.floats(0, 1))
def test_beta_symmetry(a, b, y):
    # x and 1 - x must both be exact, or the mirrored side is evaluated at
    # another point (for a tiny x, 1 - x rounds to 1)
    x = 1.0 - (1.0 - y)
    assert x == 1.0 - (1.0 - x)
    lhs = regularized_beta(a, b, x)
    rhs = 1.0 - regularized_beta(b, a, 1.0 - x)
    assert lhs == pytest.approx(rhs, abs=2e-8)
    # closed forms: I_x(a, 1) = x^a and I_x(1, b) = 1 - (1 - x)^b
    assert regularized_beta(a, 1.0, x) == pytest.approx(x ** a, abs=2e-8)
    assert regularized_beta(1.0, b, x) == pytest.approx(1.0 - (1.0 - x) ** b, abs=2e-8)


@given(st.floats(-8, 8))
def test_normal_cdf_matches_scipy(z):
    assert normal_cdf(z) == pytest.approx(spstats.norm.cdf(z), abs=1e-14)


@pytest.mark.parametrize("x", [0.5, 4.5748, 11.0, 23.278, 40.0])
@pytest.mark.parametrize("dof", [1, 5, 11, 30])
def test_chi_square_sf_matches_scipy(x, dof):
    assert chi_square_sf(x, dof) == pytest.approx(spstats.chi2.sf(x, dof), abs=1e-12)


def test_chi_square_sf_edges():
    assert chi_square_sf(0.0, 11) == pytest.approx(1.0)
    assert chi_square_sf(1e6, 11) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        chi_square_sf(-1.0, 11)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


def test_gamma_edges():
    assert regularized_gamma_p(2.0, 0.0) == 0.0
    assert regularized_gamma_q(2.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        regularized_gamma_p(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_p(1.0, -0.5)


def test_beta_edges():
    assert regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_beta(1.0, 2.0, 1.5)


def test_normal_cdf_symmetry():
    for z in (0.0, 0.5, 1.96, 3.2):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert math.isclose(normal_cdf(1.959963984540054), 0.975, abs_tol=1e-12)


def test_unconverged_expansions_refused():
    # near x = a the gamma series needs ~2400 terms at a = 1e5, more than the
    # iteration limit; truncated, it gave Q = 0.556 where scipy gives 0.49958
    with pytest.raises(ValueError, match="gamma series did not converge"):
        regularized_gamma_q(1e5, 1e5)
    with pytest.raises(ValueError, match="gamma series did not converge"):
        regularized_gamma_p(1e5, 1e5)
    with pytest.raises(ValueError, match="gamma series did not converge"):
        chi_square_sf(2e5, 200000)
    with pytest.raises(ValueError, match="gamma continued fraction did not converge"):
        regularized_gamma_q(1e6, 1e6 + 2.0)
    with pytest.raises(ValueError, match="beta continued fraction did not converge"):
        regularized_beta(1e6, 1e6, 0.5)


@pytest.mark.parametrize("function,args,message", [
    (regularized_beta, (1.0, 1.0, math.nan), "argument must lie in [0, 1]"),
    (regularized_beta, (math.nan, 1.0, 0.5), "shape parameters must be positive"),
    (regularized_beta, (1.0, math.nan, 0.5), "shape parameters must be positive"),
    (regularized_gamma_p, (math.nan, 1.0), "shape parameter must be positive"),
    (regularized_gamma_p, (1.0, math.nan), "argument must be non-negative"),
    (regularized_gamma_q, (math.nan, 1.0), "shape parameter must be positive"),
    (regularized_gamma_q, (1.0, math.nan), "argument must be non-negative"),
    (chi_square_sf, (math.nan, 3), "chi-square statistic must be non-negative"),
    (chi_square_sf, (1.0, math.nan), "degrees of freedom must be >= 1"),
])
def test_nan_refused_at_once(function, args, message):
    # NaN fails every comparison, so a check that only looks for a value out of
    # range lets it through to a whole expansion and a "did not converge" error
    with pytest.raises(ValueError) as caught:
        function(*args)
    assert str(caught.value) == message


def test_gamma_limits_at_infinity():
    # exact limits: neither expansion can be evaluated at x = inf
    for a in (1e-300, 0.5, 1.0, 5.5, 1e10):
        assert regularized_gamma_p(a, math.inf) == 1.0
        assert regularized_gamma_q(a, math.inf) == 0.0
    for dof in (1, 3, 11):
        assert chi_square_sf(math.inf, dof) == 0.0


# the raw continued fractions, before their prefactors, pinned bit for bit: they
# use only + - * /, so the values hold on every libm. Beta at the t shapes
# (1/2, dof/2) and (dof/2, 1/2) and two points inside the documented domain;
# gamma at the chi-square shapes k/2 and two points inside its domain
@pytest.mark.parametrize("a,b,x,expected", [
    (0.5, 0.5, 0.25, "0x1.358e1a79ed7e1p+0"),
    (0.5, 1.5, 0.1, "0x1.26c17d503a861p+0"),
    (1.5, 0.5, 0.3, "0x1.530b18954f926p+0"),
    (2.5, 0.5, 0.5, "0x1.c7edcf7ff5235p+0"),
    (0.5, 3.5, 0.05, "0x1.25dd201e562dcp+0"),
    (4.0, 0.5, 0.7, "0x1.684e6e7969549p+1"),
    (5.5, 0.5, 0.6, "0x1.22f0d5aaa7243p+1"),
    (0.5, 5.5, 0.02, "0x1.15ae75cb015dep+0"),
    (7.25, 19.5, 0.2, "0x1.3d60a96058f1bp+1"),
    (30.0, 30.0, 0.45, "0x1.7290a17cf8ba5p+2"),
])
def test_beta_continued_fraction_pinned(a, b, x, expected):
    assert _lentz(1.0, _beta_terms(a, b, x), "beta").hex() == expected


@pytest.mark.parametrize("a,x,expected", [
    (0.5, 2.0, "0x1.af7b6a4d54e79p-2"),
    (1.0, 3.5, "0x1.2492492492492p-2"),
    (1.5, 4.0, "0x1.1cf8a9295468ep-2"),
    (2.5, 6.0, "0x1.b14affd022af0p-3"),
    (3.5, 7.25, "0x1.915a6356da6e4p-3"),
    (4.5, 9.0, "0x1.58f1cfdac51d9p-3"),
    (5.5, 11.6, "0x1.0ec29751c9ec1p-3"),
    (12.25, 33.0, "0x1.70dca182aad2dp-5"),
    (40.0, 50.0, "0x1.338a597b44515p-4"),
])
def test_gamma_continued_fraction_pinned(a, x, expected):
    b = x + 1.0 - a
    assert _lentz(b, _gamma_q_terms(a, b), "gamma").hex() == expected


def test_lentz_guards_carry_a_zero_ratio():
    # 1/(1 + 0/(1 - 1/(1 + ...))) is 1, but after the zero term both of
    # Lentz's ratios, 1 - 1*1 and 1 - 1/1, are 0; set to _TINY, they cancel
    # to a factor of 1 (to rounding) and the loop stops there
    terms = iter([(0.0, 1.0, False), (-1.0, 1.0, True), (1.0, 1.0, True)])
    assert _lentz(1.0, terms, "test") == pytest.approx(1.0, rel=1e-15, abs=0)
    assert next(terms) == (1.0, 1.0, True)


@pytest.mark.parametrize("function,args,message", [
    # at x = a past 2**53, a + 1.0 rounds to a, so the fraction's leading
    # denominator x + 1 - a is 0 (ZeroDivisionError before the shape check)
    (regularized_gamma_q, (1e17, 1e17), "shape parameter must be below 2**53"),
    (regularized_gamma_p, (2.0**53, 2.0**53), "shape parameter must be below 2**53"),
    (chi_square_sf, (2e17, 2e17), "degrees of freedom must be below 2**54"),
    # lgamma of the shapes overflows in the prefactor (OverflowError before)
    (regularized_beta, (1e308, 1e308, 0.5), "shape parameters must be at most 5e7"),
    # past 5e7 the prefactor's error drifts (t_cdf was off by 2.5e-6 at dof 1e10)
    (regularized_beta, (0.5, math.nextafter(5e7, math.inf), 0.5),
     "shape parameters must be at most 5e7"),
    # P and Q rounded out of [0, 1] below 1e-10 (Q = -2.35e-14 here before)
    (regularized_gamma_q, (1e-300, 1e-300), "shape parameter must be at least 1e-10"),
    (regularized_gamma_p, (math.nextafter(1e-10, 0.0), 1.0), "shape parameter must be at least 1e-10"),
])
def test_shapes_past_the_working_range_refused(function, args, message):
    with pytest.raises(ValueError) as caught:
        function(*args)
    assert str(caught.value) == message


@given(st.floats(1e-10, 1e3), st.floats(0.0, math.inf))
@example(1e-10, 1e-300)
@example(1e-10, 5e-324)
def test_gamma_p_q_lie_in_unit_interval_from_the_shape_bound(a, x):
    p, q = regularized_gamma_p(a, x), regularized_gamma_q(a, x)
    assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0


@given(st.floats(0.0, 1e3))
@example(5e-324)
@example(1e-300)
def test_gamma_at_the_shape_bound_matches_mpmath(x):
    with mpmath.workdps(40):
        p = float(mpmath.gammainc(1e-10, 0, x, regularized=True))
        q = float(mpmath.gammainc(1e-10, x, mpmath.inf, regularized=True))
    assert abs(regularized_gamma_p(1e-10, x) - p) <= 1e-12
    assert abs(regularized_gamma_q(1e-10, x) - q) <= 1e-12


def test_shapes_just_inside_the_working_range():
    below = 2.0**53 - 1.0
    assert regularized_gamma_q(below, 1.0) == 1.0
    assert chi_square_sf(1.0, 2.0**54 - 2.0) == 1.0
    assert regularized_beta(5e7, 1.0, 0.5) == 0.0
    assert regularized_beta(1.0, 5e7, 0.5) == 1.0


@given(st.floats(1e-300, 5e7), st.floats(1e-300, 5e7), st.floats(0.0, 1.0))
@example(5e7, 5e7, 0.5)  # at the mode, where the prefactor is largest
@example(5e7, 1.25e7, 0.8)
def test_beta_inside_the_shape_range_raises_only_value_error(a, b, x):
    # the prefactor's log-gamma sum loses far less than the 709 where exp
    # overflows; near the mode the fraction may not converge (ValueError)
    try:
        regularized_beta(a, b, x)
    except ValueError:
        pass


def _mpmath_beta(a, b, x):
    """I_x(a, b) from its hypergeometric series, summed at 80 digits."""
    with mpmath.workdps(80):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        return float(x**a * mpmath.hyp2f1(a, 1 - b, a + 1, x, maxterms=10**6)
                     / (a * mpmath.beta(a, b)))


@given(st.floats(0.0, 1e-6))
@example(2.99410561615477e-08)  # the largest error measured, 2.5e-8
@example(1e-9)
def test_beta_at_the_shape_bound_matches_mpmath(x):
    # Student's t at dof 1e8 takes I(0.5, 5e7) and I(5e7, 0.5); x up to 1e-6
    # covers |t| up to 10, and 1 - (1 - x) is exact
    reference = _mpmath_beta(0.5, 5e7, x)
    assert abs(regularized_beta(0.5, 5e7, x) - reference) <= 5e-8
    y = 1.0 - x
    assert abs(regularized_beta(5e7, 0.5, y) - (1.0 - _mpmath_beta(0.5, 5e7, 1.0 - y))) <= 5e-8


def _spy(monkeypatch, name, ran, record):
    """Replace special.<name> with a wrapper that appends record(*args) to ran."""
    inner = getattr(special, name)

    def wrapper(*args):
        ran.append(record(*args))
        return inner(*args)
    monkeypatch.setattr(special, name, wrapper)


@pytest.mark.parametrize("a", [0.5, 2.0, 11.0])
def test_gamma_expansion_switches_at_a_plus_1(monkeypatch, a):
    # P's series runs for x < a + 1 and Q's continued fraction from a + 1 on;
    # both agree with scipy near the switch, so only which one ran shows a move
    ran = []
    _spy(monkeypatch, "_gamma_p_series", ran, lambda *args: "series")
    _spy(monkeypatch, "_lentz", ran, lambda *args: "fraction")
    switch = a + 1.0  # exact for these shapes
    for x, expansion in ((math.nextafter(switch, 0.0), "series"), (switch, "fraction")):
        for function in (regularized_gamma_p, regularized_gamma_q):
            ran.clear()
            function(a, x)
            assert ran == [expansion], (function.__name__, x)


@pytest.mark.parametrize("a,b,switch", [(2.0, 1.0, 0.6), (0.5, 5.5, 0.1875), (5.5, 0.5, 0.8125)])
def test_beta_expansion_switches_at_a_plus_1_over_a_plus_b_plus_2(monkeypatch, a, b, switch):
    # below (a + 1)/(a + b + 2) the fraction runs on (a, b, x), and from it on
    # (b, a, 1 - x), for 1 - I_{1-x}(b, a)
    ran = []
    _spy(monkeypatch, "_beta_terms", ran, lambda *args: args)
    below = math.nextafter(switch, 0.0)
    for x, terms in ((below, (a, b, below)), (switch, (b, a, 1.0 - switch))):
        ran.clear()
        regularized_beta(a, b, x)
        assert ran == [terms], x
