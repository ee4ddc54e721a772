"""Entropy, diversity, and inequality indices."""

import math
from functools import reduce
from operator import add

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
    with pytest.raises(ValueError, match="^diversity order must be non-negative$"):
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


@pytest.mark.parametrize("p", [[1e300, 1e-300], [0.5, 0.5, 1e10], [1e308, 1.0]])
def test_exponential_entropy_not_finite_refused(p):
    # entries well above 1 make the entropy large and negative, so exp(-H)
    # overflows; refused as diversity refuses a result that is not finite
    message = "^exponential entropy is not finite for this input$"
    with pytest.raises(ValueError, match=message):
        exponential_entropy(p)
    with pytest.raises(ValueError, match=message):
        index_summary(p, (1.0, 2.0))
