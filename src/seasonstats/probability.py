"""Share tables and conditional acceptance probabilities.

Both are month tables: per-year monthly columns plus a cumulated column
built from month totals across years. Share columns sum to 1; the
conditional table holds per-cell accepted/submitted ratios, which do not,
and marks a month with no submissions as undefined (None).
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .indices import _floats, _left_sum
from .ingest import MONTHS_PER_YEAR, CountMatrix, DataError, _check_type


class MonthTable(NamedTuple):
    """Monthly columns of shares or ratios, per year and cumulated."""

    years: tuple
    per_year: tuple  # 12 rows, one value (or None) per year
    cumulated: tuple  # 12 values over the month totals across years

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.per_year)


def shares(matrix: CountMatrix) -> MonthTable:
    """Per-year and cumulated monthly shares of a count matrix."""
    _check_type(matrix, CountMatrix)
    totals = matrix.totals
    for y, total in zip(matrix.years, totals):
        if total == 0:
            raise DataError(f"empty year {y}: zero total")
    per_year = tuple(
        tuple(matrix.counts[m][j] / totals[j] for j in range(len(matrix.years)))
        for m in range(MONTHS_PER_YEAR)
    )
    cumulated_counts = matrix.cumulated
    grand = sum(cumulated_counts)
    cumulated = tuple(c / grand for c in cumulated_counts)
    return MonthTable(matrix.years, per_year, cumulated)


def conditional(submitted: CountMatrix, accepted: CountMatrix) -> MonthTable:
    """Acceptance probability per (month, year) cell and cumulated per month.

    A month with zero submissions has no defined acceptance rate; the cell
    is None and is excluded from column sums and downstream entropies. The pair
    must cover the same years, with no cell accepting more than was submitted.
    """
    _check_type(submitted, CountMatrix)
    _check_type(accepted, CountMatrix)
    years = submitted.years
    if accepted.years != years:
        raise DataError("submitted and accepted matrices cover different years")
    per_year = []
    for month, (sub_row, acc_row) in enumerate(zip(submitted.counts, accepted.counts), 1):
        row = []
        for year, s, a in zip(years, sub_row, acc_row):
            if a > s:
                raise DataError(f"accepted exceeds submitted in month {month}, year {year}")
            row.append(None if s == 0 else a / s)
        per_year.append(tuple(row))
    cumulated = tuple(None if s == 0 else a / s
                      for s, a in zip(submitted.cumulated, accepted.cumulated))
    return MonthTable(years, tuple(per_year), cumulated)


def normalize(vector: Sequence["float | None"]) -> tuple:
    """Scale a non-negative vector to shares summing to 1, preserving None.

    The entries are checked as the indices check theirs, and summed as
    given: ints keep an exact sum."""
    try:
        _floats(vector)
    except ValueError as error:
        raise DataError(str(error)) from None
    total = _left_sum([v for v in vector if v is not None])
    if total <= 0:
        raise DataError("cannot normalize: no positive entries")
    if total == math.inf:
        raise DataError("sum of entries overflows the float range")
    return tuple(None if v is None else v / total for v in vector)
