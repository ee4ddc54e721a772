"""Share tables, conditional ratios, and normalization."""

import math

import pytest
from hypothesis import given, strategies as st

from seasonstats.ingest import CountMatrix, DataError
from seasonstats.probability import conditional, normalize, shares

import refvalues as rv


def _matrix(columns, years=None):
    width = len(columns)
    years = years or tuple(range(2012, 2012 + width))
    counts = tuple(tuple(columns[j][m] for j in range(width)) for m in range(12))
    return CountMatrix(years, counts)


def test_shares_match_reference_tables(jscs_matrices, ent_matrices):
    for matrices, table in ((jscs_matrices, rv.JSCS_SUB_SHARES),
                            (ent_matrices, rv.ENT_SUB_SHARES)):
        result = shares(matrices[0])
        for m in range(12):
            for j in range(3):
                assert result.per_year[m][j] == pytest.approx(table[m][j], abs=5e-4)
            assert result.cumulated[m] == pytest.approx(table[m][3], abs=5e-4)


def test_accepted_shares_match_reference_tables(jscs_matrices, ent_matrices):
    for matrices, table in ((jscs_matrices, rv.JSCS_ACC_SHARES),
                            (ent_matrices, rv.ENT_ACC_SHARES)):
        result = shares(matrices[1])
        for m in range(12):
            for j in range(3):
                assert result.per_year[m][j] == pytest.approx(table[m][j], abs=5e-4)
            assert result.cumulated[m] == pytest.approx(table[m][3], abs=5e-4)


def test_share_columns_sum_to_one(jscs_matrices):
    table = shares(jscs_matrices[0])
    for j in range(3):
        assert sum(table.column(j)) == pytest.approx(1.0, abs=1e-12)
    assert sum(table.cumulated) == pytest.approx(1.0, abs=1e-12)


def test_shares_rejects_empty_year():
    cols = [[0] * 12, [1] * 12]
    with pytest.raises(DataError, match="empty year"):
        shares(_matrix(cols))


def test_conditional_matches_reference(jscs_matrices, ent_matrices):
    for matrices, table in ((jscs_matrices, rv.T3_JSCS), (ent_matrices, rv.T3_ENT)):
        cond = conditional(*matrices)
        for m in range(12):
            for j in range(3):
                assert cond.per_year[m][j] == pytest.approx(table[m][j], abs=5e-4)
            assert cond.cumulated[m] == pytest.approx(table[m][3], abs=5e-4)


def test_conditional_zero_submissions_is_none():
    sub = [[10] * 12]
    acc = [[5] * 12]
    sub[0][3] = 0
    acc[0][3] = 0
    cond = conditional(_matrix(sub), _matrix(acc))
    assert cond.per_year[3][0] is None
    assert cond.cumulated[3] is None


def test_conditional_rejects_accepted_over_submitted():
    sub = [[2] * 12]
    acc = [[3] * 12]
    with pytest.raises(DataError, match="exceeds submitted"):
        conditional(_matrix(sub), _matrix(acc))


def test_conditional_cumulated_uses_summed_counts():
    # cumulated ratio is sum(accepted)/sum(submitted), not the mean of ratios
    sub = [[10] * 12, [100] * 12]
    acc = [[1] * 12, [90] * 12]
    cond = conditional(_matrix(sub), _matrix(acc))
    assert cond.cumulated[0] == pytest.approx(91 / 110)
    assert cond.cumulated[0] != pytest.approx((0.1 + 0.9) / 2)


def test_normalize_basic():
    out = normalize((2.0, 6.0, None, 2.0))
    assert out == (0.2, 0.6, None, 0.2)
    assert sum(v for v in out if v is not None) == pytest.approx(1.0)


def test_normalize_errors():
    with pytest.raises(DataError, match="no positive entries"):
        normalize((0.0, 0.0))
    with pytest.raises(DataError, match="negative"):
        normalize((0.5, -0.1))


@given(st.lists(st.one_of(st.none(), st.floats(0, 100)), min_size=1, max_size=24)
       .filter(lambda v: sum(x for x in v if x is not None) > 1e-9))
def test_normalize_preserves_positions(vector):
    out = normalize(vector)
    assert len(out) == len(vector)
    for before, after in zip(vector, out):
        assert (before is None) == (after is None)
    assert sum(v for v in out if v is not None) == pytest.approx(1.0, abs=1e-9)


@given(st.lists(st.integers(0, 300), min_size=12, max_size=12),
       st.lists(st.integers(0, 300), min_size=12, max_size=12))
def test_conditional_cells_bounded(sub_counts, acc_counts):
    acc_counts = [min(a, s) for a, s in zip(acc_counts, sub_counts)]
    cond = conditional(_matrix([sub_counts]), _matrix([acc_counts]))
    for row in (*cond.per_year, cond.cumulated):
        for cell in row:
            assert cell is None or 0.0 <= cell <= 1.0
