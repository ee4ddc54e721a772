"""Entropy, diversity, and inequality indices."""

import math
import sys
from functools import reduce
from operator import add

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from seasonstats.indices import (
    diversity,
    entropy,
    exponential_entropy,
    gini,
    hhi,
    index_summary,
    lorenz,
    monthly_entropy_terms,
    theil,
)
from seasonstats.probability import shares

import refvalues as rv

UNIFORM_12 = [1 / 12] * 12

# normalized positive distributions for property tests
distributions = (
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=24)
    .map(lambda v: [x / sum(v) for x in v])
)


def test_entropy_known_values():
    assert entropy(UNIFORM_12) == pytest.approx(math.log(12), abs=1e-12)
    assert entropy([1.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == 0.0  # 0 ln 0 = 0


def test_entropy_reference_columns(jscs_matrices, ent_matrices):
    for matrices, offset in ((jscs_matrices, 0), (ent_matrices, 4)):
        table = shares(matrices[0])
        for j in range(3):
            assert entropy(table.column(j)) == pytest.approx(
                rv.T1_ENTROPY[offset + j], abs=5e-4)
        assert entropy(table.cumulated) == pytest.approx(
            rv.T1_ENTROPY[offset + 3], abs=5e-4)


def test_entropy_accepted_columns(jscs_matrices, ent_matrices):
    for matrices, offset in ((jscs_matrices, 0), (ent_matrices, 4)):
        table = shares(matrices[1])
        for j in range(3):
            assert entropy(table.column(j)) == pytest.approx(
                rv.T2_ENTROPY[offset + j], abs=5e-4)
        assert entropy(table.cumulated) == pytest.approx(
            rv.T2_ENTROPY[offset + 3], abs=5e-4)


def test_conditional_entropy_reference(jscs_matrices, ent_matrices):
    from seasonstats.probability import conditional
    for matrices, offset in ((jscs_matrices, 0), (ent_matrices, 4)):
        cond = conditional(*matrices)
        for j in range(3):
            assert entropy(cond.column(j)) == pytest.approx(
                rv.T3_CENTR[offset + j], abs=5e-4)
        assert entropy(cond.cumulated) == pytest.approx(
            rv.T3_CENTR[offset + 3], abs=5e-4)


def test_monthly_terms_reference(jscs_matrices, ent_matrices):
    from seasonstats.probability import conditional
    for matrices, table in ((jscs_matrices, rv.T4_JSCS), (ent_matrices, rv.T4_ENT)):
        cond = conditional(*matrices)
        for j in range(3):
            terms = monthly_entropy_terms(cond.column(j))
            for m in range(12):
                assert terms[m] == pytest.approx(table[m][j], abs=5e-4)
        cum_terms = monthly_entropy_terms(cond.cumulated)
        for m in range(12):
            assert cum_terms[m] == pytest.approx(table[m][3], abs=5e-4)


def test_monthly_terms_preserve_none_and_zero():
    terms = monthly_entropy_terms([0.5, None, 0.0, 0.5])
    assert terms == (pytest.approx(0.5 * math.log(2)), None, 0.0,
                     pytest.approx(0.5 * math.log(2)))
    with pytest.raises(ValueError, match="negative"):
        monthly_entropy_terms([0.5, -0.5])


def test_diversity_orders():
    # uniform distribution: every order gives the plain category count
    for q in (0.0, 0.5, 1.0, 2.0, 4.0):
        assert diversity(UNIFORM_12, q) == pytest.approx(12.0, abs=1e-9)
    assert diversity([0.5, 0.5], 2.0) == pytest.approx(2.0)
    assert diversity([1.0], 1.0) == pytest.approx(1.0)
    # large orders approach the Berger-Parker limit 1 / max p without underflow
    assert diversity(UNIFORM_12, math.inf) == pytest.approx(12.0, abs=1e-9)
    assert diversity(UNIFORM_12, 5000.0) == pytest.approx(12.0, abs=1e-9)
    assert diversity([0.5, 0.3, 0.2], math.inf) == 2.0
    assert diversity([0.5, 0.3, 0.2], 5000.0) == pytest.approx(2.0, rel=1e-3)
    with pytest.raises(ValueError, match="non-negative"):
        diversity(UNIFORM_12, -1.0)
    with pytest.raises(ValueError, match="^diversity orders must be non-negative$"):
        index_summary(UNIFORM_12, (1.0, -1.0))
    with pytest.raises(ValueError, match="all entries are zero"):
        diversity([0.0, 0.0], 2.0)


def test_diversity_q1_reference(jscs_matrices):
    table = shares(jscs_matrices[0])
    assert diversity(table.column(0), 1.0) == pytest.approx(11.574, abs=5e-3)


def test_richness_counts_positive_entries():
    assert diversity([0.5, 0.5, 0.0], 0.0) == pytest.approx(2.0)


@given(distributions)
def test_diversity_non_increasing_in_q(p):
    orders = (0.0, 0.5, 1.0, 2.0, 4.0, 5000.0, math.inf)
    values = [diversity(p, q) for q in orders]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-9


def _hill_reference(p, q):
    """(sum p_i^q)^(1/(1-q)) of the float entries p, in mpmath at 50 digits."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        powers = mpmath.fsum([mpmath.mpf(v) ** q for v in p if v > 0])
        return float(mpmath.exp(mpmath.log(powers) / (1 - q)))


# p_max below 1/e, between 1/e and 1, between 1 and e, above e, and at the
# ends of the float range. Where q ln p_max passes the float range D_q is
# about 1 / p_max: diversity([0.01, 0.005], 1e308) raised, where it is 100,
# and diversity([10, 5], 1e308) gave 0.0, where it is 0.1
@pytest.mark.parametrize("p", [[0.01, 0.005], [0.3, 0.2, 0.2], [0.5, 0.25, 0.25], [0.9, 0.1],
                               [2.0, 1.0], [2.5, 2.5, 0.5], [10.0, 5.0], [1e-300, 1e-301],
                               [1e300, 1e299, 5e-324]])
@pytest.mark.parametrize("q", [1e300, 1e305, 1e306, 1e307, 1e308, sys.float_info.max])
def test_diversity_at_huge_orders_matches_mpmath(p, q):
    value = diversity(p, q)
    assert value == pytest.approx(_hill_reference(p, q), rel=1e-12)
    assert index_summary([0.5, 0.5], (q,), hill=p).diversities == (value,)


# within 0.25 of q = 1 the exponent's rounding errors are not divided by
# 1 - q; before, [0.5, 0.5] at q = 1 + 1e-7 gave 2.0000000002
@pytest.mark.parametrize("p", [[0.5, 0.5], [0.75, 0.125, 0.125], [0.5, 0.25, 0.25, 0.0],
                               [10.0, 5.0], [3.0, 1e-310]])
@pytest.mark.parametrize("q", [0.75 + 2**-52, 0.9, 1 - 1e-9, 1 - 2**-53, 1 + 2**-52, 1 + 1e-7,
                               1.1, 1.25 - 2**-52])
def test_diversity_near_order_one_matches_mpmath(p, q):
    expected = _hill_reference(p, q)
    if 0.0 < expected < math.inf:
        assert diversity(p, q) == pytest.approx(expected, rel=1e-14)
    elif expected == 0.0:
        assert diversity(p, q) == 0.0
    else:
        with pytest.raises(ValueError, match="^diversity is not finite for this input$"):
            diversity(p, q)


@st.composite
def _dyadic_distributions(draw):
    """Distributions of up to 24 entries, some zero, whose float sum is exactly 1
    in any order: multiples of a power of two 1 / 2**m that add up to 2**m."""
    weights = draw(st.lists(st.integers(0, 2**20), max_size=23))
    m = max(sum(weights), 1).bit_length()
    weights.append(2**m - sum(weights))
    return [w / 2**m for w in draw(st.permutations(weights))]


@given(_dyadic_distributions(),
       st.floats(0.0, math.inf) | st.floats(0.75, 1.25) | st.floats(1 - 1e-6, 1 + 1e-6)
       | st.sampled_from((0.0, 1.0, 1e300, 1e308, sys.float_info.max)))
@example([0.5, 0.5], 1 + 1e-7)
@example([0.25, 0.5, 0.25], 1 - 2**-53)
@example([0.375, 0.0, 0.625], 1e308)
def test_diversity_lies_between_berger_parker_and_richness(p, q):
    # 1/p_max <= D_q <= the number of positive entries holds exactly for a
    # distribution that sums to 1, so the float sum is exactly 1 here; near
    # q = 1, D_q of a float sum 1 + e moves by a factor (1 + e)^(1/(1 - q))
    low, high = 1.0 / max(p), sum(v > 0.0 for v in p)
    value = diversity(p, q)
    assert low - 8 * math.ulp(low) <= value <= high + 8 * math.ulp(high)


@given(distributions)
def test_index_identities(p):
    h = entropy(p)
    n = len(p)
    assert theil(p) + h == pytest.approx(math.log(n), abs=1e-12)
    assert exponential_entropy(p) == pytest.approx(math.exp(-h), abs=1e-12)
    assert diversity(p, 1.0) * exponential_entropy(p) == pytest.approx(1.0, abs=1e-9)
    assert 1.0 / n <= hhi(p) + 1e-12
    assert hhi(p) <= 1.0 + 1e-12
    assert 0.0 <= h <= math.log(n) + 1e-9


@given(distributions)
def test_gini_bounds_and_uniform_zero(p):
    g = gini(p)
    n = len(p)
    assert -1e-12 <= g <= 1.0 - 1.0 / n + 1e-9
    assert gini([1.0 / n] * n) == pytest.approx(0.0, abs=1e-12)


def test_gini_known_values():
    assert gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)
    assert gini([3.0, 1.0]) == pytest.approx(0.25)
    assert gini(rv.JSCS_2012_SUB_COUNTS) == pytest.approx(0.15063, abs=5e-4)


def _gini_abs_reference(values):
    """The n^2 mean-absolute-difference form with abs(), folded row by row from 0."""
    total = reduce(add, values, 0)
    abs_diff = reduce(add, [abs(a - b) for a in values for b in values], 0)
    return abs_diff / (2.0 * len(values) * total)


@given(st.lists(st.sampled_from((0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324))
                | st.floats(0.0, 1e300), min_size=1, max_size=16))
@example([0.0, -0.0, 0.5])
@example([-0.0, 0.0, -0.0, 0.0, 2.0])
@example([0.25, 0.25, 0.25, 0.25])
@example([1e300, 1.7e308, 0.0])
@example([5e-324, 1e-320, 0.0])
def test_gini_is_the_abs_difference_form_bit_for_bit(values):
    if reduce(add, values, 0) <= 0:
        with pytest.raises(ValueError, match="all entries are zero"):
            gini(values)
    elif math.isnan(_gini_abs_reference(values)):  # the sums overflow
        with pytest.raises(ValueError, match="overflows the float range"):
            gini(values)
    else:
        assert gini(values).hex() == _gini_abs_reference(values).hex()


def test_gini_scale_invariant():
    base = [2.0, 5.0, 1.0, 9.0]
    assert gini(base) == pytest.approx(gini([10 * v for v in base]), abs=1e-12)


def test_gini_matches_lorenz_area():
    values = [4.0, 1.0, 7.0, 2.0, 2.0]
    points = lorenz(values)
    # trapezoid area under the curve; Gini = 1 - 2 * area
    area = sum((x1 - x0) * (y0 + y1) / 2
               for (x0, y0), (x1, y1) in zip(points, points[1:]))
    assert gini(values) == pytest.approx(1.0 - 2.0 * area, abs=1e-12)


def test_lorenz_shape():
    points = lorenz([1.0, 3.0])
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    assert points[1] == (0.5, 0.25)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs) and ys == sorted(ys)
    with pytest.raises(ValueError):
        lorenz([0.0, 0.0])


def test_none_entries_are_skipped():
    assert entropy([0.5, None, 0.5]) == pytest.approx(math.log(2))
    assert theil([None, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert hhi([0.5, None, 0.5]) == pytest.approx(0.5)
    assert gini([0.5, None, 0.5]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="no defined"):
        entropy([None, None])
    with pytest.raises(ValueError, match="^negative entry in distribution$"):
        entropy([0.5, -0.1])


@pytest.mark.parametrize("call, name", [
    (lambda: hhi([1e200, 1e200]), "hhi"),
    (lambda: entropy([1e308, 1e308]), "entropy"),
    (lambda: theil([1e308, 1e308]), "entropy"),
    (lambda: monthly_entropy_terms([1e308]), "entropy term"),
    # the Berger-Parker limit 1 / p_max of a subnormal p_max
    (lambda: diversity([5e-324], math.inf), "diversity"),
    (lambda: index_summary([5e-324], (math.inf,)), "diversity"),
], ids=["hhi", "entropy", "theil", "monthly_entropy_terms", "diversity", "index_summary"])
def test_finite_entries_with_a_result_past_the_float_range_are_refused(call, name):
    with pytest.raises(ValueError, match=f"^{name} is not finite for this input$"):
        call()


@pytest.mark.parametrize("p, name", [([1e300, 1e-300], "exponential entropy"),
                                     ([0.5, 0.5, 1e10], "exponential entropy"),
                                     # the entropy itself passes the float range
                                     ([1e308, 1.0], "entropy")], ids=["p0", "p1", "p2"])
def test_exponential_entropy_not_finite_refused(p, name):
    # entries well above 1 make the entropy large and negative, so exp(-H)
    # overflows; refused as diversity refuses a result that is not finite
    message = f"^{name} is not finite for this input$"
    with pytest.raises(ValueError, match=message):
        exponential_entropy(p)
    with pytest.raises(ValueError, match=message):
        index_summary(p, (1.0, 2.0))
