"""Entropy, diversity, and inequality indices for monthly distributions.

All logarithms are natural, so entropies are in nats and a uniform
12-month distribution has entropy ln 12. Vectors may contain None for
months with no defined value; such entries are skipped.

Every vector is read by `_floats`, which `normalize` and the footer
statistics share: a negative entry, an int past the float range, NaN and
+/-inf raise ValueError, and so does a zero sum or a sum past the float
range wherever the entries are divided by it (`lorenz`, `gini` and
`normalize`), through one rule, `_total`. Diversity orders
follow one rule, `_check_orders`, which `AnalysisOptions` calls too: NaN
and ints past the float range, then negative orders, raise ValueError. A
result that is not finite for finite entries (a -p ln p term, an entropy,
an HHI or a diversity past the float range) raises ValueError through one
rule, `_finite`; no index returns NaN or +/-inf.
"""
import math
from functools import reduce
from operator import add
from typing import NamedTuple, Sequence

Vector = Sequence[float | None]


class IndexSummary(NamedTuple):
    diversities: tuple  # Hill diversity at each requested order
    exp_entropy: float
    theil: float
    hhi: float
    gini: float


def _floats(x: Vector, distribution: bool = True) -> list:
    """The entries of x that are not None, as floats and in order: the one
    reader of number vectors for the indices, `normalize` and the footer
    statistics. Entries are read in order, and the first one that fails
    raises ValueError: a negative entry of a distribution (checked before
    its conversion) or an int past the float range; then NaN or +/-inf.
    The messages name a distribution's "entries" and other vectors' "values".

    Two readers stay apart: `dft_magnitudes` takes a series, which has no
    None holes, and checks finiteness only once a magnitude is not finite,
    and `chi_square_uniform` takes counts by the count rule, `ingest._counts`."""
    noun = "entries" if distribution else "values"
    out = []
    for v in x:
        if v is None:
            continue
        if distribution and v < 0:
            raise ValueError("negative entry in distribution")
        try:
            out.append(float(v))
        except OverflowError:  # an int past the float range
            raise ValueError(f"{noun} must lie within the float range") from None
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{noun} must be finite")
    return out

def _defined(p: Vector) -> list[float]:
    values = _floats(p)
    if not values:
        raise ValueError("no defined entries")
    return values

def _left_sum(values) -> float:
    """values added left to right from 0. Every float sum of the package is
    this fold or an exact math.fsum (the footer mean and the Gini numerator),
    and neither depends on the Python version, where builtin sum compensates
    float sums from Python 3.12 on."""
    return reduce(add, values, 0)

def _finite(name: str, value: float) -> float:
    """value, refused when it is not finite: the one rule for an index whose
    entries are finite but whose result is not."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} is not finite for this input")
    return value

def _exp(x: float) -> float:
    """math.exp(x), inf past the float range, where math.exp raises OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf

# The _-prefixed kernels take the list `_defined` returns. Each sums a
# built list with _left_sum, in the order the index's formula is written,
# except the Gini numerator, an exact fsum.

def _entropy(values: list) -> float:
    return _finite("entropy", _left_sum([-v * math.log(v) for v in values if v > 0.0]))

def entropy(p: Vector) -> float:
    """Shannon entropy sum(-p ln p) with 0 ln 0 = 0.

    Entries need not sum to 1; applied to a raw conditional-probability
    column this is the column's conditional entropy.
    """
    return _entropy(_defined(p))

def monthly_entropy_terms(p: Vector) -> tuple:
    """Per-entry information terms -p ln p, preserving positions and None."""
    _floats(p)
    return tuple(None if v is None else _finite("entropy term", -v * math.log(v))
                 if v > 0.0 else 0.0 for v in p)

def diversity(p: Vector, q: float) -> float:
    """Hill diversity of order q, the effective number of categories.

    For q != 1 this is (sum p_i^q)^(1/(1-q)), evaluated in the form scaled
    by the largest entry, p_max^(q/(1-q)) (sum (p_i/p_max)^q)^(1/(1-q)), so
    that large q neither underflows nor divides by zero, and with each term
    of the exponent divided by 1 - q, so that it is finite at every finite
    order. Within 0.25 of q = 1 it is evaluated through expm1 and log1p, so
    that 1 - q divides no rounding error. q = 1 is
    dispatched to exp(entropy) and q = inf to the Berger-Parker limit
    1/p_max rather than numeric limits. Raw (unnormalized) vectors are
    accepted; with q = 1 that yields the exponential of the raw conditional
    entropy.
    """
    _check_orders((q,))
    return _diversity(_defined(p), q)

def _check_orders(q_orders: Sequence[float]) -> None:
    """The one rule for diversity orders, which `AnalysisOptions` calls too:
    every order is checked for NaN and the float range before any is checked
    for its sign, so (-1.0, nan) reports the NaN."""
    try:
        if any(map(math.isnan, q_orders)):  # q < 0 is false for NaN
            raise ValueError("diversity orders must not be NaN: an order that is not "
                             "finite must be inf")
    except OverflowError:  # isnan of an int past the float range
        raise ValueError("diversity orders must lie within the float range") from None
    if any(q < 0 for q in q_orders):
        raise ValueError("diversity orders must be non-negative")

def _diversity(values: list, q: float, h: float | None = None) -> float:
    """Hill diversity of order q >= 0; h is the entropy of values when known."""
    p_max = max(values)
    if p_max == 0.0:
        raise ValueError("all entries are zero")
    if q == 1.0:
        result = _exp(_entropy(values) if h is None else h)
    elif q == math.inf:
        result = 1.0 / p_max  # inf for a subnormal p_max
    elif abs(q - 1.0) < 0.25:
        # near q = 1 the form below divides its rounding errors by 1 - q; this
        # one divides only terms that shrink with q - 1, as
        #   ln sum p^q = (q - 1) ln p_max + ln sum p + log1p(sum w expm1(a))
        # with w = p / sum p and a = (q - 1) ln(p / p_max). q - 1 is exact, and
        # |a| < 0.25 * 1455, so expm1 cannot overflow
        r = q - 1.0
        log_max = math.log(p_max)
        mass = _left_sum(values)
        spread = _left_sum([v / mass * math.expm1(r * (math.log(v) - log_max))
                            for v in values if v > 0.0])
        result = _exp(-log_max - (math.log(mass) + math.log1p(spread)) / r)
    else:
        total = _left_sum([(v / p_max) ** q for v in values if v > 0.0])
        # the two factors are taken as one exponential, as one of them may
        # underflow while the other overflows; each term is divided by 1 - q
        # before they are added, as q ln p_max passes the float range at a huge q
        result = _exp(q / (1.0 - q) * math.log(p_max) + math.log(total) / (1.0 - q))
    return _finite("diversity", result)

def exponential_entropy(p: Vector) -> float:
    """exp(-H), equivalently the product of p_i^p_i."""
    return _exp_entropy(entropy(p))

def _exp_entropy(h: float) -> float:
    """exp(-h): entries well above 1 make h large and negative."""
    return _finite("exponential entropy", _exp(-h))

def theil(p: Vector) -> float:
    """Theil index ln N - H; zero for a uniform distribution.

    Defined so that theil(p) + entropy(p) = ln N holds exactly for a
    normalized p over N defined categories.
    """
    values = _defined(p)
    return math.log(len(values)) - _entropy(values)

def _hhi(values: list) -> float:
    return _finite("hhi", _left_sum([v * v for v in values]))

def hhi(p: Vector) -> float:
    """Herfindahl-Hirschman concentration: sum of squared shares."""
    return _hhi(_defined(p))

def lorenz(z: Vector) -> list:
    """Lorenz curve points (population share, cumulative value share).

    Returns n+1 points from (0, 0) to (1, 1) over the ascending-sorted
    values.
    """
    values = sorted(_defined(z))
    total = _total(values)
    n = len(values)
    points = [(0.0, 0.0)]
    running = 0.0
    for i, v in enumerate(values, start=1):
        running += v
        points.append((i / n, running / total))
    return points

def gini(z: Vector) -> float:
    """Gini coefficient, twice the area between the Lorenz curve and the diagonal.

    The population mean-absolute-difference G = sum_ij |z_i - z_j| / (2 n^2 mean),
    which equals the doubled Lorenz-curve gap for the piecewise-linear curve
    of `lorenz`, computed in its rank form (David 1968) over the values
    sorted ascending, z_(1) <= ... <= z_(n), as `lorenz` sorts them:
    G = sum_i (2i - n - 1) z_(i) / (n sum z). The numerator is summed
    exactly by math.fsum, so the cost is O(n log n), the result is within a
    few ulps of the exact Gini, and it is the same bit for bit in any order
    of the entries.
    """
    return _gini(_defined(z))

def _total(values: list) -> float:
    """The sum of values, refused when it is zero or past the float range:
    the divisor of `lorenz`, `gini` and `normalize`, which passes its entries
    unconverted, so that ints keep an exact sum."""
    total = _left_sum(values)
    if total <= 0:
        raise ValueError("all entries are zero")
    if total == math.inf:
        raise ValueError("sum of entries overflows the float range")
    return total

def _gini(values: list) -> float:
    ranked = sorted(values)
    n = len(ranked)
    scale = 2.0 * n * _total(ranked)
    # |2i - n + 1| <= n - 1, so every term and partial sum is below scale and
    # overflows only where scale does; scale alone overflowing would make the
    # quotient 0.0
    if scale == math.inf:
        raise ValueError("gini denominator 2 n sum overflows the float range")
    return 2.0 * math.fsum([(2 * i - n + 1) * v for i, v in enumerate(ranked)]) / scale

def index_summary(p: Vector, q_orders: Sequence[float],
                  hill: Vector | None = None) -> IndexSummary:
    """Every index of p with one filtering of each vector and one entropy of p.

    The diversities are of `hill` at each order in q_orders, of p itself
    when hill is None. Each field equals its separate call bit for bit:
    diversity(hill or p, q), exponential_entropy(p), theil(p), hhi(p) and
    gini(p), and a field that its call refuses raises the same ValueError.
    The orders are checked first, then p's entries, then hill's, then the
    results.
    """
    _check_orders(q_orders)
    values = _defined(p)
    hill_values = values if hill is None else _defined(hill)
    h = _entropy(values)
    hill_h = h if hill is None else None
    diversities = tuple(_diversity(hill_values, q, hill_h) for q in q_orders)
    return IndexSummary(diversities, _exp_entropy(h), math.log(len(values)) - h,
                        _hhi(values), _gini(values))

