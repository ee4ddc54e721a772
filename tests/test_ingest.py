"""Parsing, aggregation, and count-matrix construction."""

import csv
from datetime import date

import pytest
from hypothesis import given, strategies as st

from seasonstats.ingest import (
    DECISIONS,
    CountMatrix,
    DataError,
    EventRecord,
    aggregate,
    matrices_from_counts,
    parse_counts,
    parse_events,
)
from seasonstats.probability import conditional
from seasonstats.report import build_bundle

EVENT_LINES = [
    "journal,submitted_at,decision",
    "JSCS,2012-01-15,accepted",
    "JSCS,2012-01-20,rejected",
    "JSCS,2012-02-03,Accepted",
    "Entropy,2014-03-10,rejected",
    "JSCS,2013-12-31,accepted",
]


def test_parse_events_basic():
    records = parse_events(EVENT_LINES, "JSCS")
    assert len(records) == 4
    assert records[0].submitted_at == date(2012, 1, 15)
    assert records[2].decision == "accepted"  # case-insensitive
    assert parse_events(EVENT_LINES, "Entropy") == [
        EventRecord(date(2014, 3, 10), "rejected")]


def test_parse_events_errors_carry_line_numbers():
    with pytest.raises(DataError, match="header"):
        parse_events(["wrong,header,row"], "JSCS")
    with pytest.raises(DataError, match="line 2"):
        parse_events(["journal,submitted_at,decision", "JSCS,2012-13-01,accepted"], "JSCS")
    with pytest.raises(DataError, match="line 3"):
        parse_events(["journal,submitted_at,decision",
                      "JSCS,2012-01-01,accepted",
                      "JSCS,2012-01-02,maybe"], "JSCS")
    with pytest.raises(DataError, match="3 columns"):
        parse_events(["journal,submitted_at,decision", "JSCS,2012-01-01"], "JSCS")
    with pytest.raises(DataError, match="empty input"):
        parse_events([], "JSCS")
    # only YYYY-MM-DD, although Python 3.11's fromisoformat takes more forms
    for bad in ("20120117", "2012-W03-2", "2012-1-17"):
        with pytest.raises(DataError, match=f"^invalid date '{bad}' at line 3: expected YYYY-MM-DD$"):
            parse_events(["journal,submitted_at,decision",
                          "JSCS,2012-01-17,accepted",
                          f"JSCS,{bad},accepted"], "JSCS")
    # rows of other journals are validated too
    with pytest.raises(DataError, match="line 3"):
        parse_events(["journal,submitted_at,decision",
                      "JSCS,2012-01-01,accepted",
                      "Other,2012-02-30,accepted"], "JSCS")


def test_aggregate_counts_by_month_and_year():
    submitted, accepted = aggregate(parse_events(EVENT_LINES, "JSCS"), (2012, 2013))
    assert submitted.years == (2012, 2013)
    assert submitted.counts[0] == (2, 0)  # Jan 2012: two submissions
    assert accepted.counts[0] == (1, 0)
    assert submitted.counts[11] == (0, 1)  # Dec 2013
    assert submitted.totals == (3, 1)
    assert accepted.totals == (2, 1)


def test_aggregate_empty_selection():
    with pytest.raises(DataError, match="empty selection: no events in 2012-2012"):
        aggregate([], (2012,))
    with pytest.raises(DataError, match="empty selection: no events in 1999-1999"):
        aggregate(parse_events(EVENT_LINES, "JSCS"), (1999,))
    with pytest.raises(DataError, match="^empty year range$"):
        aggregate([])
    with pytest.raises(DataError, match="^empty year range$"):
        aggregate(parse_events(EVENT_LINES, "JSCS"), ())


def test_aggregate_default_years_span_first_to_last():
    records = parse_events(EVENT_LINES, "JSCS")
    assert aggregate(records) == aggregate(records, (2013, 2012, 2012))
    assert aggregate(records)[0].years == (2012, 2013)
    # a year without events inside the span is a zero column, not a skipped one
    gap = [EventRecord(date(2012, 3, 1), "accepted"), EventRecord(date(2014, 5, 2), "rejected")]
    submitted, accepted = aggregate(gap)
    assert submitted.years == (2012, 2013, 2014)
    assert submitted.totals == (1, 0, 1)
    assert accepted.totals == (1, 0, 0)
    assert aggregate(gap) == aggregate(gap, range(2012, 2015))


def _parse_all_then_filter(lines, journal):
    """Reference: build a record for every row, then keep one journal's."""
    reader = csv.reader(lines)
    next(reader)
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"expected 3 columns at line {lineno}, got {len(row)}")
        name, raw_date, raw_decision = (field.strip() for field in row)
        try:
            if len(raw_date) != 10 or raw_date[4] != "-" or raw_date[7] != "-":
                raise ValueError("expected YYYY-MM-DD")
            submitted_at = date.fromisoformat(raw_date)
        except ValueError as exc:
            raise DataError(f"invalid date {raw_date!r} at line {lineno}: {exc}") from None
        decision = raw_decision.lower()
        if decision not in DECISIONS:
            raise DataError(f"unknown decision {raw_decision!r} at line {lineno}")
        records.append((name, EventRecord(submitted_at, decision)))
    return [record for name, record in records if name == journal]


def _padded(values):
    return st.sampled_from(values).flatmap(
        lambda v: st.sampled_from((v, f" {v}", f"{v} ", f"  {v}\t")))


_JOURNALS = ("JSCS", "Entropy", "jscs", "Nature")
_GOOD_ROWS = st.tuples(
    _padded(_JOURNALS),
    _padded(("2012-01-15", "2013-02-28", "2016-02-29", "2014-12-31")),
    _padded(("accepted", "rejected", "Accepted", "REJECTED", "aCcEpTeD")),
).map(",".join)
_BAD_ROWS = st.one_of(
    st.tuples(_padded(_JOURNALS),
              _padded(("2013-02-29", "2012-13-01", "2012/01/15", "", "x",
                       "20120117", "2012-W03-2")),
              st.sampled_from(("accepted", "maybe"))).map(",".join),
    st.tuples(_padded(_JOURNALS), st.just("2012-01-15"),
              _padded(("maybe", "", "accept", "acceptéd"))).map(",".join),
    st.sampled_from(("JSCS,2012-01-15", "JSCS,2012-01-15,accepted,x", "JSCS", "\"a,b\",c")),
)


@given(st.lists(_GOOD_ROWS | st.just(""), max_size=30),
       st.lists(st.tuples(st.integers(0, 30), _BAD_ROWS), max_size=2),
       st.sampled_from(_JOURNALS + ("Absent",)))
def test_parse_events_matches_parse_all_then_filter(rows, bad, journal):
    for position, row in bad:
        rows.insert(position, row)
    lines = ["journal,submitted_at,decision", *rows]
    try:
        expected = _parse_all_then_filter(lines, journal)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            parse_events(lines, journal)
        assert str(raised.value) == str(exc)
    else:
        assert parse_events(lines, journal) == expected


def test_count_matrix_validation():
    with pytest.raises(DataError, match="12 month rows"):
        CountMatrix((2012,), ((1,),) * 11, "submitted")
    with pytest.raises(DataError, match="non-negative"):
        CountMatrix((2012,), ((-1,),) + ((0,),) * 11, "submitted")
    with pytest.raises(DataError, match="outcome"):
        CountMatrix((2012,), ((0,),) * 12, "published")


def test_count_matrix_series_is_chronological():
    counts = tuple((m + 1, 100 + m + 1) for m in range(12))
    matrix = CountMatrix((2012, 2013), counts, "submitted")
    series = matrix.series()
    assert series[:3] == (1, 2, 3)
    assert series[12:15] == (101, 102, 103)
    assert matrix.cumulated[0] == 102
    assert matrix.column(1)[0] == 101


COUNTS_LINES = [
    "journal,year,month,submitted,accepted",
    *(f"J,2012,{m},10,{m % 3}" for m in range(1, 13)),
]


def test_parse_counts_and_matrices():
    rows = parse_counts(COUNTS_LINES)
    assert len(rows) == 12
    submitted, accepted = matrices_from_counts(rows, "J")
    assert submitted.years == (2012,)
    assert submitted.totals == (120,)
    assert accepted.counts[0] == (1,)


def test_parse_counts_errors():
    with pytest.raises(DataError, match="header"):
        parse_counts(["a,b,c,d,e"])
    with pytest.raises(DataError, match="line 2"):
        parse_counts(["journal,year,month,submitted,accepted", "J,2012,13,5,1"])
    with pytest.raises(DataError, match="accepted exceeds submitted"):
        parse_counts(["journal,year,month,submitted,accepted", "J,2012,1,5,9"])
    with pytest.raises(DataError, match="non-integer"):
        parse_counts(["journal,year,month,submitted,accepted", "J,2012,1,five,1"])
    for year in ("0", "-1", "10000"):
        with pytest.raises(DataError, match="^year out of range at line 3$"):
            parse_counts(["journal,year,month,submitted,accepted", "J,2012,1,5,1",
                          f"J,{year},1,5,1"])
    assert parse_counts(["journal,year,month,submitted,accepted", "J,1,1,5,1",
                         "J,9999,12,5,1"]) == [("J", 1, 1, 5, 1), ("J", 9999, 12, 5, 1)]


def test_matrices_from_counts_requires_complete_years():
    rows = parse_counts(COUNTS_LINES[:-1])  # drop December
    with pytest.raises(DataError, match="missing month 2012-12"):
        matrices_from_counts(rows, "J")


def test_matrices_from_counts_rejects_duplicates():
    rows = parse_counts(COUNTS_LINES + ["J,2012,5,1,0"])
    with pytest.raises(DataError, match="duplicate"):
        matrices_from_counts(rows, "J")


def test_matrices_from_counts_empty_journal():
    rows = parse_counts(COUNTS_LINES)
    with pytest.raises(DataError, match="empty selection"):
        matrices_from_counts(rows, "K")


def test_matrices_from_counts_default_years_span_gap(journal_counts_rows):
    # JSCS 2012 and 2014 only: the default span still holds 2013, which has no rows
    rows = [r for r in journal_counts_rows if r[0] == "JSCS" and r[1] != 2013]
    for years in (None, range(2012, 2015)):
        with pytest.raises(DataError, match=r"^missing month 2013-01 for journal 'JSCS'$"):
            matrices_from_counts(rows, "JSCS", years)
    assert matrices_from_counts(journal_counts_rows, "JSCS", (2014, 2012, 2013, 2012)) \
        == matrices_from_counts(journal_counts_rows, "JSCS")
    with pytest.raises(DataError, match="^empty year range$"):
        matrices_from_counts(rows, "JSCS", ())


def test_non_contiguous_years_refused(journal_counts_rows):
    # the t6 DFT would join December 2012 to January 2014
    message = r"^years 2012-2014 are not contiguous: 2013 is missing$"
    for years in ((2012, 2014), (2014, 2012, 2014), [2012, 2014]):
        with pytest.raises(DataError, match=message):
            matrices_from_counts(journal_counts_rows, "JSCS", years)
    records = parse_events(EVENT_LINES, "JSCS")
    with pytest.raises(DataError, match=message):
        aggregate(records, (2012, 2014))
    with pytest.raises(DataError, match=r"^years 2010-2016 are not contiguous: 2011 is missing$"):
        aggregate(records, (2010, 2012, 2013, 2016))
    # contiguous given years are accepted in any order, repeats dropped
    assert aggregate(records, (2013, 2012, 2013))[0].years == (2012, 2013)


def test_pair_validation_rejects_excess_acceptance():
    # conditional, and so build_bundle, refuses a pair that parse_counts would not
    # have built; the first bad cell in month-major order is named
    submitted = CountMatrix((2012, 2013), ((10, 10),) * 12, "submitted")
    counts = [[1, 1] for _ in range(12)]
    counts[0][1] = 11  # month 1, year 2013
    counts[1][0] = 11  # month 2, year 2012
    bad = CountMatrix((2012, 2013), tuple(map(tuple, counts)), "accepted")
    other_years = CountMatrix((2012,), ((1,),) * 12, "accepted")
    for check in (conditional, build_bundle):
        with pytest.raises(DataError, match="^accepted exceeds submitted in month 1, year 2013$"):
            check(submitted, bad)
        with pytest.raises(DataError,
                           match="^submitted and accepted matrices cover different years$"):
            check(submitted, other_years)
    rows = parse_counts(COUNTS_LINES)
    submitted, accepted = matrices_from_counts(rows, "J")
    assert conditional(submitted, accepted).per_year[0] == (0.1,)
