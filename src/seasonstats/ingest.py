"""Input parsing and count-matrix construction.

Two input shapes are supported: event-level CSV (one row per submission
with its final decision) and pre-aggregated counts CSV (one row per
journal, year, month).
"""
from __future__ import annotations

import csv
from datetime import MAXYEAR, MINYEAR, date
from typing import Iterable, NamedTuple, Sequence

MONTHS_PER_YEAR = 12
DECISIONS = ("accepted", "rejected")

EVENT_HEADER = ("journal", "submitted_at", "decision")
COUNTS_HEADER = ("journal", "year", "month", "submitted", "accepted")


class DataError(ValueError):
    """Invalid input data (malformed rows, broken invariants, empty selections)."""


class _EventFields(NamedTuple):
    submitted_at: date
    decision: str


class EventRecord(_EventFields):
    """One submission of the journal `parse_events` selected."""

    __slots__ = ()

    def __new__(cls, submitted_at: date, decision: str):
        if decision not in DECISIONS:
            raise DataError(f"unknown decision {decision!r}")
        return super().__new__(cls, submitted_at, decision)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both run the checks in __new__
        return cls(*iterable)


class _CountFields(NamedTuple):
    years: tuple
    counts: tuple  # 12 rows, each a tuple with one entry per year
    outcome: str  # "submitted" or "accepted"


class CountMatrix(_CountFields):
    """Monthly event counts: 12 month rows by one column per year."""

    __slots__ = ()

    def __new__(cls, years: tuple, counts: tuple, outcome: str):
        if len(counts) != MONTHS_PER_YEAR:
            raise DataError("count matrix must have 12 month rows")
        if not years:
            raise DataError("count matrix must cover at least one year")
        for row in counts:
            if len(row) != len(years):
                raise DataError("count row width does not match year list")
            for v in row:
                if v < 0 or v != int(v):
                    raise DataError("counts must be non-negative integers")
        if outcome not in ("submitted", "accepted"):
            raise DataError(f"unknown outcome {outcome!r}")
        return super().__new__(cls, years, counts, outcome)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def totals(self) -> tuple:
        """Per-year column sums."""
        return tuple(sum(row[j] for row in self.counts) for j in range(len(self.years)))

    @property
    def cumulated(self) -> tuple:
        """Month totals across years."""
        return tuple(sum(row) for row in self.counts)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.counts)

    def series(self) -> tuple:
        """Counts in chronological order, January of the first year onward."""
        return tuple(self.counts[m][j] for j in range(len(self.years))
                     for m in range(MONTHS_PER_YEAR))


def _year_span(present: Iterable[int], years: "Sequence[int] | None") -> tuple:
    """`years` sorted and deduplicated, by default every year from the first
    to the last in `present`; an empty range and a gap are refused, as the
    DFT reads the years' months as one series."""
    if years is None:
        present = set(present)
        years = range(min(present), max(present) + 1) if present else ()
    years = tuple(sorted(set(int(y) for y in years)))
    if not years:
        raise DataError("empty year range")
    gaps = [a + 1 for a, b in zip(years, years[1:]) if b != a + 1]
    if gaps:
        raise DataError(f"years {years[0]}-{years[-1]} are not contiguous: "
                        f"{gaps[0]} is missing")
    return years


def parse_events(stream: Iterable[str], journal: str) -> list:
    """Parse event-level CSV with header journal,submitted_at,decision.

    Every row is validated (column count, YYYY-MM-DD date, decision, in that
    order), but records are built only for rows of `journal`. Dates and
    decisions repeat heavily, so each distinct raw field is checked once
    per parse.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input, expected a header row") from None
    if tuple(h.strip().lower() for h in header) != EVENT_HEADER:
        raise DataError(f"expected header {','.join(EVENT_HEADER)} at line 1")
    dates = {}
    decisions = {}
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"expected 3 columns at line {lineno}, got {len(row)}")
        raw_journal, raw_date, raw_decision = row
        submitted_at = dates.get(raw_date)
        if submitted_at is None:
            field = raw_date.strip()
            try:
                # fromisoformat takes 20120117 and 2012-W03-2 from Python 3.11 on
                if len(field) != 10 or field[4] != "-" or field[7] != "-":
                    raise ValueError("expected YYYY-MM-DD")
                submitted_at = dates[raw_date] = date.fromisoformat(field)
            except ValueError as exc:
                raise DataError(f"invalid date {field!r} at line {lineno}: {exc}") from None
        decision = decisions.get(raw_decision)
        if decision is None:
            field = raw_decision.strip()
            decision = field.lower()
            if decision not in DECISIONS:
                raise DataError(f"unknown decision {field!r} at line {lineno}")
            decisions[raw_decision] = decision
        if raw_journal.strip() == journal:
            records.append(EventRecord(submitted_at, decision))
    return records


def aggregate(events: Sequence[EventRecord], years: "Sequence[int] | None" = None) -> tuple:
    """Count one journal's events in `years` (default: the first event's year to the
    last's) into a (submitted, accepted) matrix pair; `years` must be contiguous."""
    years = _year_span((ev.submitted_at.year for ev in events), years)
    index = {y: j for j, y in enumerate(years)}
    sub = [[0] * len(years) for _ in range(MONTHS_PER_YEAR)]
    acc = [[0] * len(years) for _ in range(MONTHS_PER_YEAR)]
    for ev in events:
        if ev.submitted_at.year not in index:
            continue
        m = ev.submitted_at.month - 1
        j = index[ev.submitted_at.year]
        sub[m][j] += 1
        if ev.decision == "accepted":
            acc[m][j] += 1
    if not any(map(any, sub)):
        raise DataError(f"empty selection: no events in {years[0]}-{years[-1]}")
    submitted = CountMatrix(years, tuple(tuple(r) for r in sub), "submitted")
    accepted = CountMatrix(years, tuple(tuple(r) for r in acc), "accepted")
    return submitted, accepted


def parse_counts(stream: Iterable[str]) -> list:
    """Parse counts CSV with header journal,year,month,submitted,accepted."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input, expected a header row") from None
    if tuple(h.strip().lower() for h in header) != COUNTS_HEADER:
        raise DataError(f"expected header {','.join(COUNTS_HEADER)} at line 1")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise DataError(f"expected 5 columns at line {lineno}, got {len(row)}")
        journal = row[0].strip()
        try:
            year, month, submitted, accepted = (int(v) for v in row[1:])
        except ValueError:
            raise DataError(f"non-integer count field at line {lineno}") from None
        if not MINYEAR <= year <= MAXYEAR:
            raise DataError(f"year out of range at line {lineno}")
        if not 1 <= month <= 12:
            raise DataError(f"month out of range at line {lineno}")
        if submitted < 0 or accepted < 0:
            raise DataError(f"negative count at line {lineno}")
        if accepted > submitted:
            raise DataError(f"accepted exceeds submitted at line {lineno}")
        rows.append((journal, year, month, submitted, accepted))
    return rows


def matrices_from_counts(rows: Sequence[tuple], journal: str,
                         years: "Sequence[int] | None" = None) -> tuple:
    """Build the (submitted, accepted) pair for one journal from counts rows.

    `years` defaults to every year from the journal's first row to its last;
    given years must be contiguous. Each must be present as a complete
    12-month block; a month with no events must be an explicit zero row.
    """
    mine = [r for r in rows if r[0] == journal]
    if not mine:
        raise DataError(f"empty selection: no rows for journal {journal!r}")
    years = _year_span((r[1] for r in mine), years)
    cells = {}
    for _, year, month, submitted, accepted in mine:
        if year not in years:
            continue
        key = (year, month)
        if key in cells:
            raise DataError(f"duplicate row for {journal} {year}-{month:02d}")
        cells[key] = (submitted, accepted)
    for y in years:
        for m in range(1, MONTHS_PER_YEAR + 1):
            if (y, m) not in cells:
                raise DataError(f"missing month {y}-{m:02d} for journal {journal!r}")
    sub = tuple(tuple(cells[(y, m + 1)][0] for y in years) for m in range(MONTHS_PER_YEAR))
    acc = tuple(tuple(cells[(y, m + 1)][1] for y in years) for m in range(MONTHS_PER_YEAR))
    submitted = CountMatrix(years, sub, "submitted")
    accepted = CountMatrix(years, acc, "accepted")
    return submitted, accepted
