"""Entropy, diversity, and inequality indices for monthly distributions.

All logarithms are natural, so entropies are in nats and a uniform
12-month distribution has entropy ln 12. Vectors may contain None for
months with no defined value; such entries are skipped.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import NamedTuple, Sequence

Vector = Sequence["float | None"]


class IndexSummary(NamedTuple):
    diversities: tuple  # Hill diversity at each requested order
    exp_entropy: float
    theil: float
    hhi: float
    gini: float


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

def _left_sum(values) -> float:
    """values added left to right from 0, as every float sum of the package is:
    builtin sum compensates float sums from Python 3.12 on, which would make the
    last bits of the indices and footers depend on the Python version."""
    return reduce(add, values, 0)

# The _-prefixed kernels take the list `_defined` returns. Each sums a
# built list with _left_sum, in the order the index's formula is written.

def _entropy(values: list) -> float:
    return _left_sum([-v * math.log(v) for v in values if v > 0.0])

def entropy(p: Vector) -> float:
    """Shannon entropy sum(-p ln p) with 0 ln 0 = 0.

    Entries need not sum to 1; applied to a raw conditional-probability
    column this is the column's conditional entropy.
    """
    return _entropy(_defined(p))

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
    return _diversity(_defined(p), q)

def _diversity(values: list, q: float, h: "float | None" = None) -> float:
    """Hill diversity of order q >= 0; h is the entropy of values when known."""
    p_max = max(values)
    if p_max == 0.0:
        raise ValueError("all entries are zero")
    if q == 1.0:
        return math.exp(_entropy(values) if h is None else h)
    if q == math.inf:
        return 1.0 / p_max
    total = _left_sum([(v / p_max) ** q for v in values if v > 0.0])
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
    return _exp_entropy(entropy(p))

def _exp_entropy(h: float) -> float:
    """exp(-h), refused as diversity refuses a result that is not finite:
    entries well above 1 make h large and negative."""
    try:
        result = math.exp(-h)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError("exponential entropy is not finite for this input")
    return result

def theil(p: Vector) -> float:
    """Theil index ln N - H; zero for a uniform distribution.

    Defined so that theil(p) + entropy(p) = ln N holds exactly for a
    normalized p over N defined categories.
    """
    values = _defined(p)
    return math.log(len(values)) - _entropy(values)

def _hhi(values: list) -> float:
    return _left_sum([v * v for v in values])

def hhi(p: Vector) -> float:
    """Herfindahl-Hirschman concentration: sum of squared shares."""
    return _hhi(_defined(p))

def lorenz(z: Vector) -> list:
    """Lorenz curve points (population share, cumulative value share).

    Returns n+1 points from (0, 0) to (1, 1) over the ascending-sorted
    values.
    """
    values = sorted(_defined(z))
    total = _left_sum(values)
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
    return _gini(_defined(z))

def _gini(values: list) -> float:
    total = _left_sum(values)
    if total <= 0:
        raise ValueError("all entries are zero")
    n = len(values)
    # abs(a - b) bit for bit without a call: b - a is exactly -(a - b)
    abs_diff = _left_sum([a - b if a > b else b - a for a in values for b in values])
    return abs_diff / (2.0 * n * total)

def index_summary(p: Vector, q_orders: Sequence[float],
                  hill: "Vector | None" = None) -> IndexSummary:
    """Every index of p with one filtering of each vector and one entropy of p.

    The diversities are of `hill` at each order in q_orders, of p itself
    when hill is None. Each field equals its separate call bit for bit:
    diversity(hill or p, q), exponential_entropy(p), theil(p), hhi(p) and
    gini(p), and a field that its call refuses raises the same ValueError.
    The orders are checked first, then p's entries, then hill's.
    """
    if any(q < 0 for q in q_orders):
        raise ValueError("diversity order must be non-negative")
    values = _defined(p)
    h = _entropy(values)
    if hill is None:
        diversities = tuple(_diversity(values, q, h) for q in q_orders)
    else:
        hill_values = _defined(hill)
        diversities = tuple(_diversity(hill_values, q) for q in q_orders)
    return IndexSummary(diversities, _exp_entropy(h), math.log(len(values)) - h,
                        _hhi(values), _gini(values))

