"""Special-function kernels against scipy references."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy import special as sps
from scipy import stats as spstats

from seasonstats.special import (
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
