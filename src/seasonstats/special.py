"""Special functions backing the significance tests.

Implemented directly with series and continued-fraction expansions so the
runtime needs no third-party numerics. The test suite checks them against
scipy to 1e-12 (absolute) for the incomplete gamma functions with shape
0.5 to 40 and argument up to 50, the incomplete beta function with shapes
0.5 to 30, and the chi-square tail with 1 to 30 degrees of freedom and
statistic up to 40; through `stats.t_cdf`, Student's t for 1 to 60 degrees
of freedom to 1e-10.

An expansion that has not converged after `_MAX_ITER` terms raises
ValueError instead of returning its truncated value. The gamma series does
so near x = a once a passes about 4000 (chi-square with about 8000 degrees
of freedom, far past the 11 a twelve-month column has).
"""
from __future__ import annotations

import math

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500


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
            break
    else:
        raise ValueError(f"gamma series did not converge in {_MAX_ITER} terms")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    # Lentz continued fraction, reliable for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ValueError(f"gamma continued fraction did not converge in {_MAX_ITER} terms")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_pq(a: float, x: float) -> tuple:
    """(P(a, x), Q(a, x)), one of them from its expansion and the other as 1 minus it."""
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("argument must be non-negative")
    if x == 0:
        return 0.0, 1.0
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
        return p, 1.0 - p
    q = _gamma_q_contfrac(a, x)
    return 1.0 - q, q

def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    return _gamma_pq(a, x)[0]

def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _gamma_pq(a, x)[1]

def chi_square_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution with `dof` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("chi-square statistic must be non-negative")
    return regularized_gamma_q(dof / 2.0, x / 2.0)

def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ValueError(f"beta continued fraction did not converge in {_MAX_ITER} terms")
    return h

def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x < 0 or x > 1:
        raise ValueError("argument must lie in [0, 1]")
    if x == 0:
        return 0.0
    if x == 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    # symmetry switch keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b

def normal_cdf(z: float) -> float:
    """Standard normal cumulative distribution function.

    Taken from erfc, which keeps its relative accuracy far into the lower
    tail, where 1 + erf(z / sqrt 2) cancels.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
