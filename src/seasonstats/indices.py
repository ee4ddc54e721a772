"""Entropy, diversity, and inequality indices for monthly distributions.

All logarithms are natural, so entropies are in nats and a uniform
12-month distribution has entropy ln 12. Vectors may contain None for
months with no defined value; such entries are skipped.
"""
from __future__ import annotations

import math
from typing import Sequence

Vector = Sequence["float | None"]


def _defined(p: Vector) -> list[float]:
    out = []
    for v in p:
        if v is None:
            continue
        if v < 0:
            raise ValueError("negative entry in distribution")
        out.append(float(v))
    if not out:
        raise ValueError("no defined entries")
    return out

def entropy(p: Vector) -> float:
    """Shannon entropy sum(-p ln p) with 0 ln 0 = 0.

    Entries need not sum to 1; applied to a raw conditional-probability
    column this is the column's conditional entropy.
    """
    return sum(-v * math.log(v) for v in _defined(p) if v > 0.0)

def monthly_entropy_terms(p: Vector) -> tuple:
    """Per-entry information terms -p ln p, preserving positions and None."""
    terms = []
    for v in p:
        if v is None:
            terms.append(None)
            continue
        if v < 0:
            raise ValueError("negative entry in distribution")
        terms.append(-v * math.log(v) if v > 0.0 else 0.0)
    return tuple(terms)

def diversity(p: Vector, q: float) -> float:
    """Hill diversity of order q, the effective number of categories.

    For q != 1 this is (sum p_i^q)^(1/(1-q)), evaluated in the form scaled
    by the largest entry, p_max^(q/(1-q)) (sum (p_i/p_max)^q)^(1/(1-q)), so
    that large q neither underflows nor divides by zero. q = 1 is
    dispatched to exp(entropy) and q = inf to the Berger-Parker limit
    1/p_max rather than numeric limits. Raw (unnormalized) vectors are
    accepted; with q = 1 that yields the exponential of the raw conditional
    entropy.
    """
    if q < 0:
        raise ValueError("diversity order must be non-negative")
    values = _defined(p)
    p_max = max(values)
    if p_max == 0.0:
        raise ValueError("all entries are zero")
    if q == 1.0:
        return math.exp(entropy(values))
    if q == math.inf:
        return 1.0 / p_max
    total = sum((v / p_max) ** q for v in values if v > 0.0)
    try:
        # the two factors are taken as one exponential: near q = 1 one of
        # them underflows while the other overflows
        result = math.exp((q * math.log(p_max) + math.log(total)) / (1.0 - q))
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError("diversity is not finite for this input")
    return result

def exponential_entropy(p: Vector) -> float:
    """exp(-H), equivalently the product of p_i^p_i."""
    return math.exp(-entropy(p))

def theil(p: Vector) -> float:
    """Theil index ln N - H; zero for a uniform distribution.

    Defined so that theil(p) + entropy(p) = ln N holds exactly for a
    normalized p over N defined categories.
    """
    return math.log(len(_defined(p))) - entropy(p)

def hhi(p: Vector) -> float:
    """Herfindahl-Hirschman concentration: sum of squared shares."""
    return sum(v * v for v in _defined(p))

def lorenz(z: Vector) -> list:
    """Lorenz curve points (population share, cumulative value share).

    Returns n+1 points from (0, 0) to (1, 1) over the ascending-sorted
    values.
    """
    values = sorted(_defined(z))
    total = sum(values)
    if total <= 0:
        raise ValueError("all entries are zero")
    n = len(values)
    points = [(0.0, 0.0)]
    running = 0.0
    for i, v in enumerate(values, start=1):
        running += v
        points.append((i / n, running / total))
    return points

def gini(z: Vector) -> float:
    """Gini coefficient, twice the area between the Lorenz curve and the diagonal.

    Computed in the population mean-absolute-difference form
    G = sum_ij |z_i - z_j| / (2 n^2 mean), which equals the doubled
    Lorenz-curve gap for the piecewise-linear curve of `lorenz`.
    """
    values = _defined(z)
    total = sum(values)
    if total <= 0:
        raise ValueError("all entries are zero")
    n = len(values)
    abs_diff = sum(abs(a - b) for a in values for b in values)
    return abs_diff / (2.0 * n * total)

