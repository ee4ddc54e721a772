"""Input parsing and count-matrix construction.

Two input shapes are supported: event-level CSV (one row per submission
with its final decision) and pre-aggregated counts CSV (one row per
journal, year, month). Both parse to counts rows, and `_matrices` lays out
every (submitted, accepted) matrix pair. One record reader, `_records`,
holds both shapes to the same CSV rules (header, blank rows, column count,
line-numbered errors), and one date rule, `_days`, reads every events date.
One count rule, `_counts`, holds the counts of `CountMatrix` and of
`stats.chi_square_uniform` to non-negative integers.
"""
import csv
import io
import operator
import re
from collections import Counter
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

MONTHS_PER_YEAR = 12
# datetime's year range, which date.fromisoformat reads; datetime itself is
# imported only where events input needs date
MINYEAR, MAXYEAR = 1, 9999
DECISIONS = ("accepted", "rejected")

EVENT_HEADER = ("journal", "submitted_at", "decision")
COUNTS_HEADER = ("journal", "year", "month", "submitted", "accepted")

# characters of events text `_split_events` splits at a time: a chunk ends at
# a line end, and its field list stays small whatever the size of the text
_CHUNK = 1 << 16


class DataError(ValueError):
    """Invalid input data (malformed rows, broken invariants, empty selections)."""


def _check_type(value, cls) -> None:
    """TypeError unless `value` is a `cls`, before any of its fields is read."""
    if not isinstance(value, cls):
        raise TypeError(f"expected {cls.__name__}, not {type(value).__name__}")


class _CountFields(NamedTuple):
    years: tuple
    counts: tuple  # 12 rows, each a tuple with one entry per year


class CountMatrix(_CountFields):
    """Monthly event counts: 12 month rows by one column per year. The years
    are plain ints that run up by one, as the DFT reads their months as one
    series."""

    __slots__ = ()

    def __new__(cls, years: tuple, counts: tuple):
        if len(counts) != MONTHS_PER_YEAR:
            raise DataError("count matrix must have 12 month rows")
        years = _int_years(years)
        if not years:
            raise DataError("count matrix must cover at least one year")
        for a, b in zip(years, years[1:]):
            if b <= a:
                raise DataError(f"years must run up by one, got {b} after {a}")
            if b != a + 1:
                raise DataError(f"years {years[0]}-{years[-1]} are not contiguous: "
                                f"{a + 1} is missing")
        for row in counts:
            if len(row) != len(years):
                raise DataError("count row width does not match year list")
            _counts(row)
        return super().__new__(cls, years, counts)

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


def _counts(values: Sequence) -> list:
    """`values` as ints, refused with DataError unless each is a non-negative
    integer: the one count rule of `CountMatrix` and `chi_square_uniform`.
    An integral float such as 3.0 is taken, and `CountMatrix` stores it as given."""
    try:
        ints = list(map(int, values))
    except (OverflowError, ValueError):  # int() of inf, nan or a str that is no integer
        ints = None
    if ints is None or ints != list(values) or min(ints, default=0) < 0:
        raise DataError("counts must be non-negative integers")
    return ints


def _int_years(years: Iterable) -> tuple:
    """`years` as plain ints, through `operator.index`, so 2012.5 and "2012" are refused."""
    try:
        return tuple(map(operator.index, years))
    except TypeError:
        raise DataError(f"years must be integers, got {years!r}") from None


def _year_span(present: Iterable[int], years: Sequence[int] | None) -> tuple:
    """`years` sorted and deduplicated, by default every year from the first
    to the last in `present`; an empty range is refused, and `CountMatrix`
    refuses a gap."""
    if years is None:
        present = set(present)
        years = range(min(present), max(present) + 1) if present else ()
    years = tuple(sorted(set(_int_years(years))))
    if not years:
        raise DataError("empty year range")
    return years


def _plain_numbers(text: str) -> bool:
    """False for text with `_` or non-ASCII (`1_0`, `١٢`), both of which int() and float() read."""
    return "_" not in text and text.isascii()


def _days(fields: set) -> dict:
    """The date each field names, for a set of `YYYY-MM-DD` fields; ValueError
    if any field is not one. The lengths are checked as one set and the "-" at
    offsets 4 and 7 as two strides of the fields' concatenation."""
    # fromisoformat takes 20120117 and 2012-W03-2 from Python 3.11 on
    chars = "".join(fields)
    if set(map(len, fields)) - {10} or chars[4::10].strip("-") or chars[7::10].strip("-"):
        raise ValueError("expected YYYY-MM-DD")
    from datetime import date
    return dict(zip(fields, map(date.fromisoformat, fields)))


def _tally(journal: str, tally: Counter) -> list:
    """Counts rows (journal, year, month, submitted, accepted) from a tally of
    ((year, month), decision) pairs: one row per month, in date order."""
    return [(journal, *month, tally[month, "accepted"] + tally[month, "rejected"],
             tally[month, "accepted"]) for month in sorted({month for month, _ in tally})]


def _is_header(fields: Sequence[str], header: tuple) -> bool:
    """Whether a record's fields name `header`, ignoring case and surrounding whitespace."""
    return tuple(f.strip().lower() for f in fields) == header


def _records(text: str, header: tuple):
    """The (line, fields) of each record of `text` past a header row naming
    `header`, read by `csv.reader` as a `newline=""` handle reads it: blank
    records are skipped, a record of any other width than the header's is
    refused, and a csv.Error (the field limit) is a DataError.
    `line` is the line the record ends on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise DataError("empty input, expected a header row")
        if not _is_header(first, header):
            raise DataError(f"expected header {','.join(header)} at line 1")
        for fields in reader:
            if fields:
                if len(fields) != len(header):
                    raise DataError(f"expected {len(header)} columns at line "
                                    f"{reader.line_num}, got {len(fields)}")
                yield reader.line_num, fields
    except csv.Error as exc:
        raise DataError(f"unreadable CSV at line {reader.line_num}: {exc}") from None


def _split_events(text: str, journal: str) -> Counter | None:
    """The fast path of `parse_events`: `journal`'s tally of ((year, month),
    decision) pairs from the text split at its commas with `str.split`, or None
    when this cannot vouch for the text (a quote or a CR outside a CRLF, a
    wrong header, a blank line, a wrong column count, a date field that is not
    exactly `YYYY-MM-DD`, a bad decision, a field longer than
    `csv.field_size_limit()`), for `csv.reader` to read it.

    Without quotes and CR, `csv.reader` under the excel dialect ends a
    record at each LF and splits it at every comma, and raises no `csv.Error`
    within the field limit; a CRLF ends a record as an LF does. The lines
    after the header are split in chunks of whole lines, about `_CHUNK`
    characters each. A chunk of n rows of three fields splits into 2n + 1
    fields: the dates at the odd positions, the first row's journal first,
    the last row's decision last, and between them each decision joined by
    an LF to the next row's journal. Conversely, when the first and last
    fields and every date hold no LF and every field between them at an even
    position holds exactly one, each of the chunk's lines has exactly two
    commas. Each distinct decision and journal field is then checked once,
    and the set of distinct date fields in one `_days` call. So a date with
    spaces around it (" 2012-01-15 ") goes to `csv.reader`, which strips it
    and gives the same tally, only more slowly. For each raw journal field
    that strips to `journal`, one regular expression, an LF, the escaped
    field and a comma, finds its rows and captures their date and decision
    fields.
    """
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    start = text.find("\n")  # the header's LF, which every row follows
    if start < 0:  # the header alone, with no line end
        start = len(text)
    header = text[:start].split(",")
    if not _is_header(header, EVENT_HEADER):
        return None
    end = len(text) - text.endswith("\n")
    dates = set()
    joined = set()  # a decision, an LF and the next row's journal
    decisions = set()
    journals = set()
    pos = start + 1
    while pos < end:
        stop = text.find("\n", pos + _CHUNK, end)
        if stop < 0:
            stop = end
        fields = text[pos:stop].split(",")
        if len(fields) < 3 or not len(fields) % 2:
            return None
        journals.add(fields[0])
        dates.update(fields[1::2])
        joined.update(fields[2:-1:2])
        decisions.add(fields[-1])
        pos = stop + 1
    for field in joined:
        decision, lf, label = field.partition("\n")
        if not lf:
            return None
        decisions.add(decision)
        journals.add(label)
    limit = csv.field_size_limit()
    for field in chain(header, decisions, journals):
        if len(field) > limit or "\n" in field:
            return None
    # the header's submitted_at field is 12 characters within the limit, so a
    # 10-character date is too; one that fromisoformat reads holds no LF
    try:
        days = _days(dates)
    except ValueError:
        return None
    decision_of = {raw: raw.strip().lower() for raw in decisions}
    if any(decision not in DECISIONS for decision in decision_of.values()):
        return None
    rows = Counter()  # the (date, decision) fields of `journal`'s rows
    for label in journals:
        if label.strip() == journal:
            row = re.compile("\n" + re.escape(label) + ",([^,\n]*),([^\n]*)")
            rows.update(row.findall(text, start))
    tally = Counter()
    for (raw_date, raw_decision), count in rows.items():
        day = days[raw_date]
        tally[(day.year, day.month), decision_of[raw_decision]] += count
    return tally


def parse_events(text: str, journal: str) -> list:
    """Parse event-level CSV with header journal,submitted_at,decision into
    `journal`'s counts rows (journal, year, month, submitted, accepted), the
    shape `parse_counts` returns: one row per month that has events, in date
    order. `text` is the decoded text of the file, read as a `newline=""`
    handle reads it; anything but a `str` raises TypeError unread.

    Every row is validated (column count, YYYY-MM-DD date, decision, in that
    order), but only rows of `journal` are counted, and each distinct raw
    date and decision is checked once. Both paths hold dates to one rule,
    `_days`. `_split_events` reads clean text; quoted text and text with a
    bad row go through `_records`, the one `csv.reader` loop `parse_counts`
    shares, which alone reports errors, naming the line a row ends on.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_events takes decoded text (str), not {type(text).__name__}")
    tally = _split_events(text, journal)
    if tally is not None:
        return _tally(journal, tally)
    months = {}
    decisions = {}
    events = []
    for line, (raw_journal, raw_date, raw_decision) in _records(text, EVENT_HEADER):
        month = months.get(raw_date)
        if month is None:
            field = raw_date.strip()
            try:
                day = _days({field})[field]
            except ValueError as exc:
                raise DataError(f"invalid date {field!r} at line {line}: {exc}") from None
            month = months[raw_date] = day.year, day.month
        decision = decisions.get(raw_decision)
        if decision is None:
            field = raw_decision.strip()
            decision = field.lower()
            if decision not in DECISIONS:
                raise DataError(f"unknown decision {field!r} at line {line}")
            decisions[raw_decision] = decision
        if raw_journal.strip() == journal:
            events.append((month, decision))
    return _tally(journal, Counter(events))


def _matrices(rows: Sequence[tuple], years: Sequence[int] | None, complete: bool) -> tuple:
    """The (submitted, accepted) pair over `years` (default: every year from the
    first row's to the last's; given years must be contiguous) from one
    journal's counts rows. A repeated month is refused; a month without a row
    is refused when `complete` and counts as zero otherwise."""
    # unpacked, as below: a row that is not five fields raises ValueError
    years = _year_span((year for _, year, _, _, _ in rows), years)
    cells = {}
    for journal, year, month, submitted, accepted in rows:
        if year not in years:
            continue
        if (year, month) in cells:
            raise DataError(f"duplicate row for {journal} {year}-{month:02d}")
        cells[year, month] = (submitted, accepted)
    if complete:
        for y in years:
            for m in range(1, MONTHS_PER_YEAR + 1):
                if (y, m) not in cells:
                    raise DataError(f"missing month {y}-{m:02d} for journal {rows[0][0]!r}")
    grid = [[cells.get((year, month), (0, 0)) for year in years]
            for month in range(1, MONTHS_PER_YEAR + 1)]
    return (CountMatrix(years, tuple(tuple(c[0] for c in row) for row in grid)),
            CountMatrix(years, tuple(tuple(c[1] for c in row) for row in grid)))


def aggregate(rows: Sequence[tuple], years: Sequence[int] | None = None) -> tuple:
    """The (submitted, accepted) pair over `years` (default: the first row's year
    to the last's; given years must be contiguous) from one journal's counts
    rows as `parse_events` returns them; a repeated month is refused, and a
    month without a row counts as zero."""
    submitted, accepted = _matrices(rows, years, complete=False)
    if not any(submitted.totals):
        years = submitted.years
        raise DataError(f"empty selection: no events in {years[0]}-{years[-1]}")
    return submitted, accepted


def parse_counts(text: str) -> list:
    """Parse counts CSV with header journal,year,month,submitted,accepted from
    the decoded text of the file, read through `csv.reader` as a `newline=""`
    handle reads it; anything but a `str` raises TypeError unread. Year, month
    and counts are ASCII integers. Errors name the line a row ends on.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_counts takes decoded text (str), not {type(text).__name__}")
    rows = []
    for line, (journal, *numbers) in _records(text, COUNTS_HEADER):
        try:
            if not _plain_numbers("".join(numbers)):
                raise ValueError
            year, month, submitted, accepted = map(int, numbers)
        except ValueError:
            raise DataError(f"non-integer count field at line {line}") from None
        if not MINYEAR <= year <= MAXYEAR:
            raise DataError(f"year out of range at line {line}")
        if not 1 <= month <= 12:
            raise DataError(f"month out of range at line {line}")
        if submitted < 0 or accepted < 0:
            raise DataError(f"negative count at line {line}")
        if accepted > submitted:
            raise DataError(f"accepted exceeds submitted at line {line}")
        rows.append((journal.strip(), year, month, submitted, accepted))
    return rows


def matrices_from_counts(rows: Sequence[tuple], journal: str,
                         years: Sequence[int] | None = None) -> tuple:
    """Build the (submitted, accepted) pair for one journal from counts rows.

    `years` defaults to every year from the journal's first row to its last;
    given years must be contiguous. Each must be present as a complete
    12-month block; a month with no events must be an explicit zero row.
    """
    try:
        mine = [r for r in rows if r[0] == journal]
    except (IndexError, KeyError):  # a row with no first field, such as "" or {}
        raise DataError("counts rows must have five fields") from None
    if not mine:
        raise DataError(f"empty selection: no rows for journal {journal!r}")
    return _matrices(mine, years, complete=True)
