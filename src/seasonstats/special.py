"""Special functions backing the significance tests.

Implemented directly with a series and two continued fractions so the
runtime needs no third-party numerics. One loop, `_lentz`, evaluates both
continued fractions, the upper incomplete gamma's and the incomplete
beta's, by the modified Lentz method (W. J. Lentz, Applied Optics 15:668,
1976; I. J. Thompson and A. R. Barnett, J. Comput. Phys. 64:490, 1986);
each fraction supplies only its terms. The test suite checks them against
scipy to 1e-12 (absolute) for the incomplete gamma functions with shape
0.5 to 40 and argument up to 50, the incomplete beta function with shapes
0.5 to 30, and the chi-square tail with 1 to 30 degrees of freedom and
statistic up to 40; through `stats.t_cdf`, Student's t for 1 to 60 degrees
of freedom, and at t = 0.5, 1 and 3 up to 1e5, to 1e-10.

The absolute error of `regularized_beta` grows with its shapes: the
log-gamma terms of its prefactor, each about a ln a, cancel to a result of
order one, and keep only their absolute rounding error. `t_cdf(1.0, dof)`
differs from scipy's by 2.3e-12 at dof 1e4, 7.9e-12 at 1e5, 2.5e-10 at
1e6 and 9.2e-9 at 1e8; unchecked, it drifted to 2.5e-6 at 1e10 and 1.6e-2
at 1e13. So `regularized_beta` refuses shapes above 5e7, and with them
Student's t refuses degrees of freedom above 1e8. At the bound it is
within 2.5e-8 of mpmath at (0.5, 5e7, x), and `t_cdf` within 9.2e-9 of
scipy at t = 0.5, 1 and 3.

An argument outside its domain, NaN included, raises ValueError at once.
The incomplete gamma functions' shapes must lie below 2**53 and the
chi-square degrees of freedom below 2**54, the range where a + 1 differs
from a: past it the gamma fraction's leading denominator x + 1 - a can
round to 0. At x = 0 and x = inf the incomplete gamma functions
return their limits, P = 0 and Q = 1, and P = 1 and Q = 0, for every
positive shape, so the chi-square tail at inf is 0. Between them they
refuse shapes below 1e-10. There lgamma(a), about -ln a, is large, its
rounding error passes through the prefactor's exp, and P can exceed 1
with Q = 1 - P below 0: at a = x = 1e-300 they came out as
1.0000000000000235 and -2.35e-14. From 1e-10 on, P and Q lie in [0, 1],
and at 1e-10 they match mpmath to 1e-12. An expansion
that has not converged after `_MAX_ITER` terms raises ValueError instead
of returning its truncated value. The gamma series does so near x = a
once a passes about 4000 (chi-square with about 8000 degrees of freedom,
far past the 11 a twelve-month column has).
"""
from __future__ import annotations

import math

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500
_MAX_SHAPE = 2.0 ** 53  # the first float a with a + 1.0 == a
_MAX_BETA_SHAPE = 5e7  # past it the beta prefactor's error exceeds 2.5e-8


def _lentz(b1: float, terms, name: str) -> float:
    """The fraction 1/(b1 + a2/(b2 + a3/(b3 + ...))), given b1 and the
    (a, b, test) terms that follow it.

    c and d are Lentz's ratios A_n/A_(n-1) and B_(n-1)/B_n of successive
    numerators and denominators; after 1/b1 they are 1/0 and 1/b1. A ratio
    that falls below `_TINY` in magnitude is set to `_TINY`, and a term
    marked `test` ends the loop once its factor c*d is within `_EPS` of 1.
    """
    h = d = 1.0 / b1
    c = math.inf
    for a, b, test in terms:
        d = a * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + a / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if test and abs(delta - 1.0) < _EPS:
            return h
    raise ValueError(f"{name} continued fraction did not converge in {_MAX_ITER} terms")

def _gamma_p_series(a: float, x: float) -> float:
    # converges fast for x < a + 1
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ValueError(f"gamma series did not converge in {_MAX_ITER} terms")

def _gamma_q_terms(a: float, b: float):
    # Q's fraction after its leading 1/(x + 1 - a, reliable for x >= a + 1;
    # b runs up by 2.0 a term, as b1 + 2.0 * i would round differently
    for i in range(1, _MAX_ITER + 1):
        b += 2.0
        yield -i * (i - a), b, True

def _gamma_pq(a: float, x: float) -> tuple:
    """(P(a, x), Q(a, x)), one of them from its expansion and the other as 1 minus it."""
    if not a > 0:
        raise ValueError("shape parameter must be positive")
    if a >= _MAX_SHAPE:
        raise ValueError("shape parameter must be below 2**53")
    if not x >= 0:
        raise ValueError("argument must be non-negative")
    if x == 0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    if a < 1e-10:  # below it P and Q round out of [0, 1]; see the module docstring
        raise ValueError("shape parameter must be at least 1e-10")
    lower = x < a + 1.0
    if lower:
        s = _gamma_p_series(a, x)
    else:
        try:
            b = x + 1.0 - a
        except OverflowError:  # an int x past the float range; a is below 2**53
            raise ValueError("argument must lie within the float range") from None
        s = _lentz(b, _gamma_q_terms(a, b), "gamma")
    # the prefactor x^a e^-x / gamma(a) that both expansions share
    s *= math.exp(-x + a * math.log(x) - math.lgamma(a))
    return (s, 1.0 - s) if lower else (1.0 - s, s)

def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    return _gamma_pq(a, x)[0]

def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _gamma_pq(a, x)[1]

def chi_square_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution with `dof` degrees of freedom."""
    if not dof >= 1:
        raise ValueError("degrees of freedom must be >= 1")
    if dof >= 2.0 * _MAX_SHAPE:
        raise ValueError("degrees of freedom must be below 2**54")
    if not x >= 0:
        raise ValueError("chi-square statistic must be non-negative")
    try:
        half = x / 2.0
    except OverflowError:  # an int past the float range
        raise ValueError("chi-square statistic must lie within the float range") from None
    return regularized_gamma_q(dof / 2.0, half)

def _beta_terms(a: float, b: float, x: float):
    # I_x(a, b)'s fraction after its leading 1/(1; two terms a step, and the
    # convergence test after the second only
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    yield -qab * x / qap, 1.0, False
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        yield m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, False
        yield -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, True

def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (a > 0 and b > 0):
        raise ValueError("shape parameters must be positive")
    if a > _MAX_BETA_SHAPE or b > _MAX_BETA_SHAPE:
        raise ValueError("shape parameters must be at most 5e7")
    if not 0 <= x <= 1:
        raise ValueError("argument must lie in [0, 1]")
    if x == 0:
        return 0.0
    if x == 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    # symmetry switch keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _lentz(1.0, _beta_terms(a, b, x), "beta") / a
    return 1.0 - front * _lentz(1.0, _beta_terms(b, a, 1.0 - x), "beta") / b

def normal_cdf(z: float) -> float:
    """Standard normal cumulative distribution function.

    Taken from erfc, which keeps its relative accuracy far into the lower
    tail, where 1 + erf(z / sqrt 2) cancels.
    """
    try:
        if math.isnan(z):
            raise ValueError("argument must not be NaN")
    except OverflowError:  # an int past the float range
        raise ValueError("argument must lie within the float range") from None
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
