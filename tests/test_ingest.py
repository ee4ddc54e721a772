"""Parsing, aggregation, and count-matrix construction."""

import csv
import datetime
import io
from datetime import date
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from seasonstats import ingest
from seasonstats.ingest import (
    DECISIONS,
    CountMatrix,
    DataError,
    aggregate,
    matrices_from_counts,
    parse_counts,
    parse_events,
)
from seasonstats.probability import conditional
from seasonstats.report import build_bundle, render


def _csv(*lines):
    """CSV text of `lines`, each ended by an LF, as `cli.main` reads a file."""
    return "".join(line + "\n" for line in lines)


EVENT_LINES = [
    "journal,submitted_at,decision",
    "JSCS,2012-01-15,accepted",
    "JSCS,2012-01-20,rejected",
    "JSCS,2012-02-03,Accepted",
    "Entropy,2014-03-10,rejected",
    "JSCS,2013-12-31,accepted",
]
EVENT_TEXT = _csv(*EVENT_LINES)


def test_parse_events_basic():
    # one counts row per month with events, in date order; decisions are
    # case-insensitive ("Accepted" in February)
    rows = [("JSCS", 2012, 1, 2, 1), ("JSCS", 2012, 2, 1, 1), ("JSCS", 2013, 12, 1, 1)]
    shuffled = _csv(EVENT_LINES[0], *reversed(EVENT_LINES[1:]))
    for text in (EVENT_TEXT, shuffled, shuffled[:-1], shuffled.replace("\n", "\r\n")):
        assert parse_events(text, "JSCS") == rows
    assert parse_events(EVENT_TEXT, "Entropy") == [("Entropy", 2014, 3, 1, 0)]
    assert parse_events(EVENT_TEXT, "Absent") == []


def test_parse_events_errors_carry_line_numbers():
    header = "journal,submitted_at,decision"
    with pytest.raises(DataError, match="header"):
        parse_events(_csv("wrong,header,row"), "JSCS")
    with pytest.raises(DataError, match="line 2"):
        parse_events(_csv(header, "JSCS,2012-13-01,accepted"), "JSCS")
    with pytest.raises(DataError, match="line 3"):
        parse_events(_csv(header, "JSCS,2012-01-01,accepted", "JSCS,2012-01-02,maybe"), "JSCS")
    with pytest.raises(DataError, match="3 columns"):
        parse_events(_csv(header, "JSCS,2012-01-01"), "JSCS")
    with pytest.raises(DataError, match="empty input"):
        parse_events("", "JSCS")
    # only YYYY-MM-DD, although Python 3.11's fromisoformat takes more forms
    for bad in ("20120117", "2012-W03-2", "2012-1-17"):
        with pytest.raises(DataError, match=f"^invalid date '{bad}' at line 3: expected YYYY-MM-DD$"):
            parse_events(_csv(header, "JSCS,2012-01-17,accepted", f"JSCS,{bad},accepted"), "JSCS")
    # rows of other journals are validated too
    with pytest.raises(DataError, match="line 3"):
        parse_events(_csv(header, "JSCS,2012-01-01,accepted", "Other,2012-02-30,accepted"), "JSCS")


@pytest.mark.parametrize("parse, lines, message", [
    (lambda stream: parse_events(stream, "JSCS"),
     ["journal,submitted_at,decision", '"J', 'X",2012-01-15,accepted',
      "JSCS,2012-01-16,accepted", "JSCS,2012-13-01,accepted"],
     r"^invalid date '2012-13-01' at line 5: "),
    (parse_counts,
     ["journal,year,month,submitted,accepted", '"J', 'X",2012,1,5,3',
      "JSCS,2012,1,5,3", "JSCS,2012,13,5,3"],
     r"^month out of range at line 5$"),
    (parse_counts,
     ["journal,year,month,submitted,accepted", '"J', 'X",2012,1,5,3',
      "", "JSCS,2012,1,-5,3"],
     r"^negative count at line 5$"),
], ids=["events", "counts", "counts-blank-line"])
def test_errors_name_the_line_after_a_field_over_two_lines(parse, lines, message):
    # the quoted label on lines 2-3 is one record, so the bad row is on line 5;
    # a blank line is skipped but still counted
    text = _csv(*lines)
    for stream in (text, text[:-1]):
        with pytest.raises(DataError, match=message):
            parse(stream)


def test_aggregate_counts_by_month_and_year():
    submitted, accepted = aggregate(parse_events(EVENT_TEXT, "JSCS"), (2012, 2013))
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
        aggregate(parse_events(EVENT_TEXT, "JSCS"), (1999,))
    with pytest.raises(DataError, match="^empty year range$"):
        aggregate([])
    with pytest.raises(DataError, match="^empty year range$"):
        aggregate(parse_events(EVENT_TEXT, "JSCS"), ())


def test_aggregate_default_years_span_first_to_last():
    records = parse_events(EVENT_TEXT, "JSCS")
    assert aggregate(records) == aggregate(records, (2013, 2012, 2012))
    assert aggregate(records)[0].years == (2012, 2013)
    # a year without events inside the span is a zero column, not a skipped one
    gap = parse_events(_csv("journal,submitted_at,decision",
                            "J,2012-03-01,accepted", "J,2014-05-02,rejected"), "J")
    assert gap == [("J", 2012, 3, 1, 1), ("J", 2014, 5, 1, 0)]
    submitted, accepted = aggregate(gap)
    assert submitted.years == (2012, 2013, 2014)
    assert submitted.totals == (1, 0, 1)
    assert accepted.totals == (1, 0, 0)
    assert submitted.counts[2] == (1, 0, 0) and submitted.counts[4] == (0, 0, 1)
    assert aggregate(gap) == aggregate(gap, range(2012, 2015))


def test_aggregate_rejects_repeated_months():
    # the same rule as matrices_from_counts: a second row for a month is refused,
    # not laid over the first
    with pytest.raises(DataError, match="^duplicate row for J 2012-01$"):
        aggregate([("J", 2012, 1, 1, 1), ("J", 2012, 1, 2, 0)])
    # a repeated month outside the selected years is never read
    assert aggregate([("J", 2011, 1, 1, 1), ("J", 2011, 1, 2, 0), ("J", 2012, 1, 1, 1)],
                     (2012,))[0].totals == (1,)


def _parse_all_then_filter(text, journal):
    """Reference: read every event, then keep one journal's (date, decision)
    pairs, in input order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _events_then_filter(reader, journal)
    except csv.Error as exc:
        raise DataError(f"unreadable CSV at line {reader.line_num}: {exc}") from None


def _events_then_filter(reader, journal):
    next(reader)
    events = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
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
        events.append((name, submitted_at, decision))
    return [(submitted_at, decision) for name, submitted_at, decision in events
            if name == journal]


def _tally_rows(journal, events):
    """Reference: one journal's counts rows, counted event by event."""
    cells = {}
    for submitted_at, decision in events:
        cell = cells.setdefault((submitted_at.year, submitted_at.month), [0, 0])
        cell[0] += 1
        cell[1] += decision == "accepted"
    return [(journal, year, month, submitted, accepted)
            for (year, month), (submitted, accepted) in sorted(cells.items())]


def _count_matrices(events, years):
    """Reference: the (submitted, accepted) pair counted event by event, with
    the year rule and the messages `aggregate` documents."""
    if years is None:
        present = [submitted_at.year for submitted_at, _ in events]
        years = range(min(present), max(present) + 1) if present else ()
    years = sorted(set(years))
    if not years:
        raise DataError("empty year range")
    for a, b in zip(years, years[1:]):
        if b != a + 1:
            raise DataError(f"years {years[0]}-{years[-1]} are not contiguous: "
                            f"{a + 1} is missing")
    sub = [[0] * len(years) for _ in range(12)]
    acc = [[0] * len(years) for _ in range(12)]
    for submitted_at, decision in events:
        if submitted_at.year in years:
            j = years.index(submitted_at.year)
            sub[submitted_at.month - 1][j] += 1
            acc[submitted_at.month - 1][j] += decision == "accepted"
    if not any(map(any, sub)):
        raise DataError(f"empty selection: no events in {years[0]}-{years[-1]}")
    return (CountMatrix(tuple(years), tuple(map(tuple, sub))),
            CountMatrix(tuple(years), tuple(map(tuple, acc))))


def _padded(values):
    return st.sampled_from(values).flatmap(
        lambda v: st.sampled_from((v, f" {v}", f"{v} ", f"  {v}\t")))


def _quoted(values):
    # a field with a comma must be quoted; any other may be
    return st.sampled_from(values).flatmap(
        lambda v: st.just(f'"{v}"') if "," in v else st.sampled_from((v, f'"{v}"')))


def _line_ends(lines):
    # csv.reader takes a line with its \r, \n or \r\n as it takes one without
    return lines.flatmap(lambda line: st.sampled_from(
        (line, line + "\n", line + "\r", line + "\r\n")))


# the fast path finds a journal's rows with a regular expression built from
# its label, so labels hold the characters a pattern reads otherwise; a NUL,
# which csv.reader reads as an ordinary character, is one of them
_JOURNALS = ("JSCS", "Entropy", "jscs", "Nature", "J.S", "JxS", "a+b", "(J)", "[J]", "J$",
             "^J", "J|S", "J\\S", "J\0X")
_GOOD_ROWS = st.tuples(
    _padded(_JOURNALS),
    _padded(("2012-01-15", "2013-02-28", "2016-02-29", "2014-12-31")),
    _padded(("accepted", "rejected", "Accepted", "REJECTED", "aCcEpTeD")),
).map(",".join)
# valid rows that str.split reads otherwise than csv.reader: quotes, a comma
# inside quotes, a quoted NUL and a line end
_CSV_ROWS = _line_ends(st.tuples(
    _quoted(_JOURNALS + ("J,X", "N\0L")).flatmap(lambda v: _padded((v,))),
    _padded(("2012-01-15", "2014-12-31")).flatmap(lambda v: _quoted((v,))),
    _padded(("accepted", "Rejected")).flatmap(lambda v: _quoted((v,))),
).map(",".join))
_BAD_ROWS = st.one_of(
    st.tuples(_padded(_JOURNALS),
              _padded(("2013-02-29", "2012-13-01", "2012/01/15", "", "x",
                       "20120117", "2012-W03-2")),
              st.sampled_from(("accepted", "maybe"))).map(",".join),
    st.tuples(_padded(_JOURNALS), st.just("2012-01-15"),
              _padded(("maybe", "", "accept", "acceptéd"))).map(",".join),
    st.sampled_from(("JSCS,2012-01-15", "JSCS,2012-01-15,accepted,x", "JSCS", "\"a,b\",c",
                     "J,X,2012-01-15,accepted", "JSCS,2012-01-15,accepted,2012-01-16,rejected",
                     "JSCS\r,2012-01-15,accepted",
                     "JSCS,2012-01-15\n,accepted", "JSCS,\"2012-01-15,accepted",
                     "JS\"CS,2012-01-15,accepted")),
)
_HEADERS = _line_ends(st.sampled_from((
    "journal,submitted_at,decision", "Journal , submitted_at,DECISION",
    '"journal",submitted_at,decision', 'journal,"submitted_at","decision"')))


# years for aggregate around the 2012-2016 of _GOOD_ROWS: inside the span,
# partly or wholly outside it, empty (a range of length 0), and lists that
# may have a gap or repeats
_YEARS = (st.none()
          | st.builds(lambda first, n: range(first, first + n),
                      st.integers(2008, 2018), st.integers(0, 4))
          | st.lists(st.integers(2010, 2018), max_size=4))


# the fast path splits text a chunk of whole lines at a time: one line or
# two, and the default size
_CHUNKS = (1, 40, ingest._CHUNK)
_HEADER = "journal,submitted_at,decision"


def _parse_text(text, journal):
    """`parse_events` on text at every chunk size; the one result or DataError message."""
    results = set()
    for size in _CHUNKS:
        with mock.patch.object(ingest, "_CHUNK", size):
            try:
                results.add(tuple(parse_events(text, journal)))
            except DataError as exc:
                results.add(str(exc))
    assert len(results) == 1, results
    return results.pop()


# a CR or LF inside a line that strip() removes from a field; an unquoted NUL,
# which the split reads as csv.reader does; lines
# that end with CRLF but for the last, which ends with CR unless the LF
# after the body follows it
@example(["JSCS,2012-01-15,accepted\r", "JSCS,2012-02-15,rejected\r"], [], "JSCS",
         _HEADER + "\r", None)
@example(["JSCS\r,2012-01-15,accepted"], [], "JSCS", _HEADER, None)
@example(["JSCS,2012-01-15\n,accepted"], [], "JSCS", _HEADER, None)
@example(["N\0L,2012-01-15,accepted"], [], "N\0L", _HEADER, None)
@example(["J\0X,2012-01-15,accepted", "JSCS,2012-02-15,rejected", "J\0X,2012-03-15,Rejected"],
         [], "J\0X", _HEADER, None)
# two 2-field lines, which split at their commas into the three fields of one
# row; lines of one and five fields; a blank line; the header alone; two LFs
# at the end
@example(["J07,", "2012-01-15,accepted"], [], "J07", _HEADER, None)
@example(["accepted"], [], "accepted", _HEADER, None)
@example(["JSCS,2012-01-15,accepted,2012-01-16,rejected"], [], "Absent", _HEADER, None)
@example(["JSCS,2012-01-15,accepted", "accepted"], [], "accepted", _HEADER, None)
@example(["JSCS,2012-01-15,accepted", "", "JSCS,2012-02-15,rejected"], [], "JSCS", _HEADER, None)
@example([], [], "JSCS", _HEADER, None)
@example(["JSCS,2012-01-15,accepted", ""], [], "JSCS", _HEADER, None)
# a label that is a prefix of another, and padded labels
@example(["J0,2012-01-15,accepted", "J07,2012-02-15,rejected", "J0,2012-03-15,rejected"],
         [], "J0", _HEADER, None)
@example([" JSCS,2012-01-15,accepted", "JSCS ,2012-02-15,rejected", "JSCS,2012-03-15,accepted",
          "\tJSCS\t,2012-03-16,Accepted", "JSCSX,2012-03-17,accepted"], [], "JSCS", _HEADER, None)
# a label whose dot would match the x of its neighbour if it were not escaped
@example(["J.S,2012-01-15,accepted", "JxS,2012-02-15,rejected", " J.S,2012-02-16,accepted"],
         [], "J.S", _HEADER, None)
# a year without events inside the span, and given years around it
@example(["JSCS,2012-01-15,accepted", "JSCS,2014-12-31,Rejected"], [], "JSCS", _HEADER, None)
@example(["JSCS,2012-01-15,accepted", "JSCS,2014-12-31,Rejected"], [], "JSCS", _HEADER, [2013])
@example(["JSCS,2012-01-15,accepted", "JSCS,2014-12-31,Rejected"], [], "JSCS", _HEADER,
         [2014, 2012])
@given(st.lists(_GOOD_ROWS, max_size=30)
       | st.lists(_GOOD_ROWS | _CSV_ROWS | st.just(""), max_size=30),
       st.lists(st.tuples(st.integers(0, 30), _BAD_ROWS), max_size=2),
       st.sampled_from(_JOURNALS + ("J,X", "N\0L", "Absent")),
       st.just(_HEADER) | _HEADERS,
       _YEARS)
def test_parse_events_matches_parse_all_then_filter(rows, bad, journal, header, years):
    for position, row in bad:
        rows.insert(position, row)
    body = "\n".join([header, *rows])
    for text in (body, body + "\n"):
        try:
            events = _parse_all_then_filter(text, journal)
        except DataError as exc:
            assert _parse_text(text, journal) == str(exc)
            continue
        counted = list(_parse_text(text, journal))
        assert counted == _tally_rows(journal, events)
        try:
            expected = _count_matrices(events, years)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                aggregate(counted, years)
            assert str(raised.value) == str(exc)
        else:
            assert aggregate(counted, years) == expected


@pytest.mark.parametrize("lines", [
    ["journal,submitted_at,decision", "JSCS,2012-01-15,accepted", "J" * 12 + ",2012-01-15,accepted"],
    ["journal,submitted_at,decision", "JSCS,2012-01-15,accepted", "J" * 13 + ",2012-01-15,accepted"],
    ["journal,submitted_at,decision", "JSCS,2012-01-15  ,accepted", "JSCS,2012-01-15   ,accepted"],
    ["journal,submitted_at,decision", "JSCS,2012-01-15,accepted" + " " * 5],
    ["journal,submitted_at,decision" + " " * 5, "JSCS,2012-01-15,accepted"],
    ["journal,submitted_at,decision", '"JSCS",2012-01-15,' + "x" * 13],
])
def test_parse_events_matches_reference_past_the_field_limit(lines):
    # a field longer than csv.field_size_limit() is a csv.Error, reported as a
    # DataError with its line; one of exactly the limit is read
    old = csv.field_size_limit(12)
    try:
        for text in (_csv(*lines), "\n".join(lines)):
            try:
                expected = _tally_rows("JSCS", _parse_all_then_filter(text, "JSCS"))
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    parse_events(text, "JSCS")
                assert str(raised.value) == str(exc)
                assert str(exc).endswith("field larger than field limit (12)")
            else:
                assert parse_events(text, "JSCS") == expected
    finally:
        csv.field_size_limit(old)


def test_parse_events_splits_clean_text_without_csv(monkeypatch):
    clean = ["journal,submitted_at,decision"] + [
        f"{('JSCS', 'Entropy')[i % 2]},2012-{i % 12 + 1:02d}-{i % 28 + 1:02d},"
        f"{DECISIONS[i % 3 == 0]}" for i in range(1000)] + [
        "JSCS,2016-02-29,accepted", "Entropy,2013-12-31,rejected", "JSCS,2014-12-31,rejected"]
    text = _csv(*clean)
    expected = _tally_rows("JSCS", _parse_all_then_filter(text, "JSCS"))
    # 500 JSCS events in the six odd months of 2012, one at the end of 2014
    # and one on a leap day
    assert [row[1:3] for row in expected] == [
        *((2012, month) for month in (1, 3, 5, 7, 9, 11)), (2014, 12), (2016, 2)]
    assert sum(row[3] for row in expected) == 502
    # a date padded with spaces goes to csv.reader, which strips it
    padded = (text.replace(",2012-01-", ", 2012-01-"),
              text.replace("-15,", "-15\t,").replace(",2016-02-29,", ", 2016-02-29  ,"))
    for stream in padded:
        assert parse_events(stream, "JSCS") == expected
    # an unquoted NUL in a label is an ordinary character to csv.reader and
    # to the split alike
    nul = text.replace("\nEntropy,", "\nJ\0X,")
    nul_expected = _tally_rows("J\0X", _parse_all_then_filter(nul, "J\0X"))
    assert sum(row[3] for row in nul_expected) == 501

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    with monkeypatch.context() as patched:
        patched.setattr(ingest.csv, "reader", refuse)
        # the 24 kB of rows in one chunk, and in chunks of one to a few lines
        for size in (ingest._CHUNK, 1, 100):
            patched.setattr(ingest, "_CHUNK", size)
            for stream in (text, text[:-1], text.replace("\n", "\r\n")):
                assert parse_events(stream, "JSCS") == expected
            assert parse_events(nul, "JSCS") == expected
            assert parse_events(nul, "J\0X") == nul_expected
        quoted = text.replace("\nJSCS,", '\n"JSCS",', 1)
        lone_cr = text.replace("\n", "\r\n").replace("\r\n", "\r", 1)
        for stream in (quoted, lone_cr, *padded):
            with pytest.raises(AssertionError, match="csv.reader called"):
                parse_events(stream, "JSCS")
    # two 2-field lines split at their commas into three fields, as one row does
    with pytest.raises(DataError, match="^expected 3 columns at line 2, got 2$"):
        parse_events(f"{clean[0]}\nJ07,\n2012-01-15,accepted\n", "J07")
    # a date of the right shape that names no day, or not in ASCII digits, is
    # reported by csv.reader as the reference reports it
    for bad in ("2013-02-29", "2012-13-01", "2012-00-10", "0000-01-01", "２０１２-01-15"):
        lines = clean.copy()
        lines[700] = f"Entropy,{bad},accepted"
        _assert_same_error(_csv(*lines), f"^invalid date '{bad}' at line 701: ")
    # below a date's ten characters the field limit refuses the header, as
    # csv.reader does, before any date is read
    old = csv.field_size_limit(9)
    try:
        _assert_same_error(text, r"^unreadable CSV at line 1: field larger than field limit \(9\)$")
    finally:
        csv.field_size_limit(old)


# ASCII, full-width and Arabic-Indic digits
_DIGITS = ("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",
           "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _near_date(year, month, day, dashes, digits, cut):
    """A `YYYY-MM-DD`-like field in `digits`, possibly one character short or long."""
    text = (year + dashes[0] + month + dashes[1] + day).translate(
        str.maketrans(_DIGITS[0], digits))
    return (text, text[1:], text[:-1], "0" + text, text + "0")[cut]


# years with and without a Feb 29, months 00 and 13, days 00 and 32, "/" or
# a space for a dash, and 9- and 11-character fields
_NEAR_DATES = st.builds(_near_date, st.sampled_from(("2012", "2013", "2000", "1900")),
                        st.sampled_from(("00", "01", "02", "12", "13")),
                        st.sampled_from(("00", "01", "28", "29", "31", "32")),
                        st.tuples(*[st.sampled_from(("-", "/", " "))] * 2),
                        st.sampled_from(_DIGITS), st.integers(0, 4))


@given(_NEAR_DATES)
@example("2012-02-29")
@example("2000-02-29")
@example("1900-02-29")
@example("2012-13-01")
@example("2012-00-10")
@example("2012-01-32")
def test_one_date_rule_on_both_paths(field):
    # clean text takes the fast path and the same text with one label quoted
    # takes csv.reader; both read the drawn date as the reference does
    clean = _csv("journal,submitted_at,decision", "JSCS,2012-01-15,accepted",
                 f"JSCS,{field},rejected", "Entropy,2013-03-01,accepted")
    for text in (clean, clean.replace("\nEntropy,", '\n"Entropy",')):
        try:
            expected = _tally_rows("JSCS", _parse_all_then_filter(text, "JSCS"))
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                parse_events(text, "JSCS")
            assert str(raised.value) == str(exc)
        else:
            assert parse_events(text, "JSCS") == expected
            if text is clean:
                with mock.patch.object(ingest.csv, "reader", side_effect=AssertionError):
                    assert parse_events(text, "JSCS") == expected


def _assert_same_error(text, pattern):
    """`parse_events` raises the reference's DataError on `text`, which matches `pattern`."""
    with pytest.raises(DataError, match=pattern) as reference:
        _parse_all_then_filter(text, "JSCS")
    with pytest.raises(DataError) as raised:
        parse_events(text, "JSCS")
    assert str(raised.value) == str(reference.value)


def test_count_matrix_validation():
    with pytest.raises(DataError, match="12 month rows"):
        CountMatrix((2012,), ((1,),) * 11)
    with pytest.raises(DataError, match="non-negative"):
        CountMatrix((2012,), ((-1,),) + ((0,),) * 11)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DataError, match="^counts must be non-negative integers$"):
            CountMatrix((2012,), ((bad,),) + ((0,),) * 11)


class _Year:
    """An integer year that is not an int, as a numpy.int64 is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_count_matrix_years_are_ints_that_run_up_by_one():
    # each year is one document column, which JSON keys by the year, and t6
    # reads the months of all years as one series
    counts = tuple((m + 2, m + 3) for m in range(12))
    for years, message in (((2012, 2012), "^years must run up by one, got 2012 after 2012$"),
                           ((2014, 2012), "^years must run up by one, got 2012 after 2014$"),
                           ((2012, 2014), "^years 2012-2014 are not contiguous: 2013 is missing$")):
        with pytest.raises(DataError, match=message):
            CountMatrix(years, counts)
    for years in ((2012.5,), (2012.0,), ("2012",), (None,)):
        with pytest.raises(DataError, match=r"^years must be integers, got \("):
            CountMatrix(years, ((1,),) * 12)
        with pytest.raises(DataError, match=r"^years must be integers, got \("):
            aggregate([("J", 2012, 1, 1, 1)], years)
    # an integer that is not an int is kept as a plain int, which json writes
    submitted = CountMatrix([_Year(2012), _Year(2013)], counts)
    assert submitted.years == (2012, 2013)
    assert all(type(year) is int for year in submitted.years)
    accepted = CountMatrix((2012, 2013), tuple((m // 2 + 1, m // 3 + 1) for m in range(12)))
    plain = build_bundle(CountMatrix((2012, 2013), counts), accepted)
    assert render(build_bundle(submitted, accepted), "json") == render(plain, "json")
    assert aggregate([("J", 2012, 1, 1, 1)], [_Year(2012)])[0].years == (2012,)


def test_count_matrix_series_is_chronological():
    counts = tuple((m + 1, 100 + m + 1) for m in range(12))
    matrix = CountMatrix((2012, 2013), counts)
    series = matrix.series()
    assert series[:3] == (1, 2, 3)
    assert series[12:15] == (101, 102, 103)
    assert matrix.cumulated[0] == 102
    assert matrix.column(1)[0] == 101


COUNTS_LINES = [
    "journal,year,month,submitted,accepted",
    *(f"J,2012,{m},10,{m % 3}" for m in range(1, 13)),
]


COUNTS_TEXT = _csv(*COUNTS_LINES)


@pytest.mark.parametrize("input_format", ["events", "counts"])
def test_parsers_take_text_only(input_format):
    # a handle is left unread; a list of lines, which would split a quoted
    # field over lines into two records, and bytes are refused as well
    parse, text = {"events": (lambda stream: parse_events(stream, "JSCS"), EVENT_TEXT),
                   "counts": (parse_counts, COUNTS_TEXT)}[input_format]
    handle = io.StringIO(text)
    for stream in (handle, text.splitlines(), text.encode(), None):
        with pytest.raises(TypeError, match=rf"^parse_{input_format} takes decoded text \(str\), "
                                            rf"not {type(stream).__name__}$"):
            parse(stream)
    assert handle.tell() == 0
    assert len(parse(text)) == {"events": 3, "counts": 12}[input_format]


def test_parse_counts_and_matrices():
    rows = parse_counts(COUNTS_TEXT)
    assert len(rows) == 12
    submitted, accepted = matrices_from_counts(rows, "J")
    assert submitted.years == (2012,)
    assert submitted.totals == (120,)
    assert accepted.counts[0] == (1,)


def test_parse_counts_errors():
    header = "journal,year,month,submitted,accepted"
    with pytest.raises(DataError, match="header"):
        parse_counts(_csv("a,b,c,d,e"))
    with pytest.raises(DataError, match="line 2"):
        parse_counts(_csv(header, "J,2012,13,5,1"))
    with pytest.raises(DataError, match="accepted exceeds submitted"):
        parse_counts(_csv(header, "J,2012,1,5,9"))
    with pytest.raises(DataError, match="non-integer"):
        parse_counts(_csv(header, "J,2012,1,five,1"))
    with pytest.raises(DataError, match="^empty input, expected a header row$"):
        parse_counts("")
    for year in ("0", "-1", "10000"):
        with pytest.raises(DataError, match="^year out of range at line 3$"):
            parse_counts(_csv(header, "J,2012,1,5,1", f"J,{year},1,5,1"))
    assert parse_counts(_csv(header, "J,1,1,5,1", "J,9999,12,5,1")) \
        == [("J", 1, 1, 5, 1), ("J", 9999, 12, 5, 1)]


def test_year_range_is_datetimes():
    # ingest states the range so that a counts run need not import datetime
    assert (ingest.MINYEAR, ingest.MAXYEAR) == (datetime.MINYEAR, datetime.MAXYEAR)


@pytest.mark.parametrize("row", [
    "J,2_012,1,5,1", "J,2012,0_1,5,1", "J,2012,1,1_0,5", "J,2012,1,5,0_1", "J,2_012,0_1,1_0,5",
    "J,\u0661\u0662,1,5,1", "J,2012,\uff11,5,1", "J,2012,1,\u0665,1", "J,2012,1,5,\u00a01",
])
def test_parse_counts_refuses_underscores_and_non_ascii_numbers(row):
    # int() reads "2_012" as 2012 and the Arabic-Indic "\u0661\u0662" as 12
    with pytest.raises(DataError, match="^non-integer count field at line 3$"):
        parse_counts(_csv("journal,year,month,submitted,accepted", "J,2012,2,5,1", row))


def test_parse_counts_keeps_padding_and_signs():
    # ASCII whitespace around a number and a sign stay accepted, and the
    # journal label may hold anything
    assert parse_counts(_csv("journal,year,month,submitted,accepted",
                             "J_\u00e9, 2012 ,\t+1, 05 ,-0")) == [("J_\u00e9", 2012, 1, 5, 0)]


def test_matrices_from_counts_requires_complete_years():
    rows = parse_counts(_csv(*COUNTS_LINES[:-1]))  # drop December
    with pytest.raises(DataError, match="missing month 2012-12"):
        matrices_from_counts(rows, "J")


def test_matrices_from_counts_rejects_duplicates():
    rows = parse_counts(COUNTS_TEXT + "J,2012,5,1,0\n")
    with pytest.raises(DataError, match="duplicate"):
        matrices_from_counts(rows, "J")


def test_matrices_from_counts_empty_journal():
    rows = parse_counts(COUNTS_TEXT)
    with pytest.raises(DataError, match="empty selection"):
        matrices_from_counts(rows, "K")


def test_matrices_from_counts_refuses_empty_rows():
    # a row with no first field has no journal to select it by
    for rows in ([""], [()], [{}]):
        with pytest.raises(DataError, match="^counts rows must have five fields$"):
            matrices_from_counts(rows, "x")


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
    records = parse_events(EVENT_TEXT, "JSCS")
    with pytest.raises(DataError, match=message):
        aggregate(records, (2012, 2014))
    with pytest.raises(DataError, match=r"^years 2010-2016 are not contiguous: 2011 is missing$"):
        aggregate(records, (2010, 2012, 2013, 2016))
    # contiguous given years are accepted in any order, repeats dropped
    assert aggregate(records, (2013, 2012, 2013))[0].years == (2012, 2013)


def test_pair_validation_rejects_excess_acceptance():
    # conditional, and so build_bundle, refuses a pair that parse_counts would not
    # have built; the first bad cell in month-major order is named
    submitted = CountMatrix((2012, 2013), ((10, 10),) * 12)
    counts = [[1, 1] for _ in range(12)]
    counts[0][1] = 11  # month 1, year 2013
    counts[1][0] = 11  # month 2, year 2012
    bad = CountMatrix((2012, 2013), tuple(map(tuple, counts)))
    other_years = CountMatrix((2012,), ((1,),) * 12)
    for check in (conditional, build_bundle):
        with pytest.raises(DataError, match="^accepted exceeds submitted in month 1, year 2013$"):
            check(submitted, bad)
        with pytest.raises(DataError,
                           match="^submitted and accepted matrices cover different years$"):
            check(submitted, other_years)
    rows = parse_counts(COUNTS_TEXT)
    submitted, accepted = matrices_from_counts(rows, "J")
    assert conditional(submitted, accepted).per_year[0] == (0.1,)
