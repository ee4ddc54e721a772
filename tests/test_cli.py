"""Command-line behavior: arguments, exit codes, emitted files."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from seasonstats import cli, ingest
from seasonstats.cli import _parse_orders, _parse_years, build_parser, main
from seasonstats.ingest import DataError, parse_counts, parse_events
from seasonstats.report import AnalysisOptions

import refvalues as rv

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def counts_csv():
    return DATA_DIR / "journal_counts.csv"


@pytest.fixture()
def events_csv(tmp_path):
    path = tmp_path / "events.csv"
    lines = ["journal,submitted_at,decision"]
    # two years, volume growing through the year, acceptance rate varying
    for month in range(1, 13):
        for i in range(month):
            first = "accepted" if i % 2 == 0 else "rejected"
            second = "accepted" if i % 3 == 0 else "rejected"
            lines.append(f"Demo,2021-{month:02d}-{min(i + 1, 28):02d},{first}")
            lines.append(f"Demo,2022-{month:02d}-{min(i + 1, 28):02d},{second}")
    lines.append("Other,2021-01-01,accepted")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _run(args):
    return main([str(a) for a in args])


def _grid(path):
    """The rows of a written CSV document."""
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _src_env():
    """The environment with this checkout's source first on PYTHONPATH."""
    paths = [str(DATA_DIR.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _spawn(args, module="seasonstats"):
    """`python -m seasonstats` (or another module) with args, on this checkout's source."""
    return subprocess.run([sys.executable, "-m", module, *map(str, args)],
                          capture_output=True, text=True, env=_src_env())


def test_counts_end_to_end(counts_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = _run(["--input", counts_csv, "--format", "counts",
                 "--journal", "JSCS", "--years", "2012:2014", "--out", out])
    assert code == 0
    assert capsys.readouterr().out.strip() == f"wrote 6 documents to {out}"
    files = sorted(p.name for p in out.iterdir())
    assert files == ["t1_submitted.csv", "t2_accepted.csv", "t3_conditional.csv",
                     "t4_monthly_entropy.csv", "t5_indices.csv", "t6_fourier.csv"]
    grid = _grid(out / "t1_submitted.csv")
    assert grid[0] == ["row", "2012", "2013", "2014", "[2012-2014]"]
    assert grid[1][1] == "0.08202"


def test_counts_json_emit(counts_csv, tmp_path):
    out = tmp_path / "json_out"
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "Entropy",
                 "--emit", "json", "--out", out])
    assert code == 0
    body = json.loads((out / "t5_indices.json").read_text())
    assert body["journal"] == "Entropy"
    assert body["years"] == [2014, 2015, 2016]
    d1 = body["blocks"]["submitted"]["columns"]["2014"]["D1"]
    assert d1 == pytest.approx(11.730, abs=5e-3)


def test_years_subset(counts_csv, tmp_path):
    out = tmp_path / "subset"
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--years", "2012:2013", "--out", out])
    assert code == 0
    grid = _grid(out / "t1_submitted.csv")
    assert grid[0] == ["row", "2012", "2013", "[2012-2013]"]


def test_events_end_to_end(events_csv, tmp_path):
    out = tmp_path / "ev"
    code = _run(["--input", events_csv, "--format", "events", "--journal", "Demo",
                 "--years", "2021:2022", "--out", out, "--emit", "md"])
    assert code == 0
    text = (out / "t3_conditional.md").read_text()
    assert text.startswith("| row")
    grid_text = (out / "t1_submitted.md").read_text().splitlines()
    assert "[2021-2022]" in grid_text[0]


def test_events_infer_years(events_csv, tmp_path, capsys):
    out = tmp_path / "inferred"
    code = _run(["--input", events_csv, "--format", "events",
                 "--journal", "Demo", "--out", out])
    assert code == 0
    assert capsys.readouterr().err == ""  # January to December: no coverage warning
    grid = _grid(out / "t1_submitted.csv")
    assert grid[0] == ["row", "2021", "2022", "[2021-2022]"]


def test_partial_year_events_warn(tmp_path, capsys):
    # events from January to July 2012 only: the documents count August to
    # December as zero, exactly as a counts file with explicit zero rows does,
    # and stderr says so
    events = ["journal,submitted_at,decision"]
    counts = ["journal,year,month,submitted,accepted"]
    for month in range(1, 13):
        accepted, rejected = (month % 3 + 1, month) if month <= 7 else (0, 0)
        events += [f"Demo,2012-{month:02d}-{day + 1:02d},accepted" for day in range(accepted)]
        events += [f"Demo,2012-{month:02d}-{day + 11:02d},rejected" for day in range(rejected)]
        counts.append(f"Demo,2012,{month},{accepted + rejected},{accepted}")
    outputs = {}
    for shape, lines in (("events", events), ("counts", counts)):
        path = tmp_path / f"{shape}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"out_{shape}"
        code = _run(["--input", path, "--format", shape, "--journal", "Demo", "--out", out])
        assert code == 0
        outputs[shape] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert capsys.readouterr().err == {
            "events": "analyze: warning: events run from 2012-01 to 2012-07, not 2012-01 "
                      "to 2012-12; the months outside count as zero\n",
            "counts": ""}[shape]
    assert len(outputs["events"]) == 6
    assert outputs["events"] == outputs["counts"]


def test_coverage_warning_comes_before_a_later_error(tmp_path, capsys):
    # one accepted and one rejected event in each of January to July 2012:
    # every defined acceptance ratio is 0.5, so t3's t test has no spread
    lines = ["journal,submitted_at,decision"]
    for month in range(1, 8):
        lines += [f"Demo,2012-{month:02d}-01,accepted", f"Demo,2012-{month:02d}-02,rejected"]
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["--input", path, "--format", "events", "--journal", "Demo", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "analyze: warning: events run from 2012-01 to 2012-07, not 2012-01 to 2012-12; "
        "the months outside count as zero\n"
        "analyze: t3_conditional, column 2012: degenerate sample: zero standard deviation\n")
    assert captured.out == "" and not out.exists()


# the stages perfbench/tracing.py times by replacing these names in
# seasonstats.cli, in the order a run on each input shape calls them
_TRACED_STAGES = {"counts": ["parse_counts", "matrices_from_counts", "build_bundle", "render"],
                  "events": ["parse_events", "aggregate", "build_bundle", "render"]}


@pytest.mark.parametrize("shape", sorted(_TRACED_STAGES))
def test_each_stage_is_called_once_through_its_cli_name(monkeypatch, tmp_path, counts_csv,
                                                         events_csv, shape):
    calls = []
    for name in {name for names in _TRACED_STAGES.values() for name in names}:
        def counted(*args, _name=name, _inner=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    source, journal = {"counts": (counts_csv, "JSCS"), "events": (events_csv, "Demo")}[shape]
    assert _run(["--input", source, "--format", shape, "--journal", journal,
                 "--out", tmp_path / "out"]) == 0
    assert calls == _TRACED_STAGES[shape]


def test_bad_date_in_other_journal_exits_1(events_csv, tmp_path, capsys):
    lines = events_csv.read_text(encoding="utf-8").splitlines()
    lines.insert(5, "Other,2021-02-30,accepted")  # line 6 of the file
    events_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = _run(["--input", events_csv, "--format", "events", "--journal", "Demo",
                 "--out", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid date '2021-02-30' at line 6" in err
    assert not (tmp_path / "x").exists()


def test_unknown_journal_exits_1(counts_csv, tmp_path, capsys):
    code = _run(["--input", counts_csv, "--format", "counts",
                 "--journal", "Nature", "--out", tmp_path / "x"])
    assert code == 1
    assert "empty selection" in capsys.readouterr().err


@pytest.mark.parametrize("years", [(), ("--years", "2021:2022")])
def test_events_unknown_journal_exits_1(events_csv, tmp_path, capsys, years):
    code = _run(["--input", events_csv, "--format", "events",
                 "--journal", "Nature", *years, "--out", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "empty selection" in err and "'Nature'" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("header", ["journal,submitted_at,decision",
                                    '"journal",submitted_at,decision'])
def test_events_header_alone_without_line_end_exits_1(tmp_path, capsys, header):
    # the plain header is read by the split fast path, the quoted one by csv.reader
    path = tmp_path / "events.csv"
    path.write_text(header, encoding="utf-8")
    assert (ingest._split_events(header, "Demo") is None) == header.startswith('"')
    code = _run(["--input", path, "--format", "events", "--journal", "Demo",
                 "--out", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == "analyze: empty selection: no rows for journal 'Demo'\n"
    assert not (tmp_path / "x").exists()


def test_events_years_without_rows_exit_1(events_csv, tmp_path, capsys):
    code = _run(["--input", events_csv, "--format", "events", "--journal", "Demo",
                 "--years", "1999:1999", "--out", tmp_path / "x"])
    assert code == 1
    assert "empty selection: no events in 1999-1999" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gap_year_exits_1_on_both_input_shapes(journal_counts_rows, events_from_counts,
                                                tmp_path, capsys):
    # JSCS 2012 and 2014 only: the default span is 2012..2014 for both shapes,
    # so 2013 is missing from the counts and empty in the events
    rows = [r for r in journal_counts_rows if r[0] == "JSCS" and r[1] != 2013]
    counts = tmp_path / "counts.csv"
    counts.write_text("journal,year,month,submitted,accepted\n"
                      + "".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    events = tmp_path / "events.csv"
    events.write_text(events_from_counts(rows), encoding="utf-8")
    for path, shape, message in ((counts, "counts", "missing month 2013-01 for journal 'JSCS'"),
                                 (events, "events", "empty year 2013: zero total")):
        for years in ((), ("--years", "2012:2014")):
            code = _run(["--input", path, "--format", shape, "--journal", "JSCS", *years,
                         "--out", tmp_path / "x"])
            assert code == 1
            assert capsys.readouterr().err == f"analyze: {message}\n"
    assert not (tmp_path / "x").exists()


def test_bad_year_range_exits_1(counts_csv, tmp_path, capsys):
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--years", "2014:2012", "--out", tmp_path / "x"])
    assert code == 1
    assert "year range" in capsys.readouterr().err
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--years", "banana", "--out", tmp_path / "x"])
    assert code == 1


def test_bad_q_exits_1(counts_csv, tmp_path, capsys):
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--q", "1,x", "--out", tmp_path / "x"])
    assert code == 1
    assert "diversity orders" in capsys.readouterr().err
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--q", "nan", "--out", tmp_path / "x"])
    assert code == 1
    assert "not finite" in capsys.readouterr().err
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--t-null", "nan", "--out", tmp_path / "x"])
    assert code == 1
    assert "t null value must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value", [
    ("--years", "2_012:2_014"), ("--years", "2012:2_014"), ("--years", "\u0662\u0660\u0661\u0662"),
    ("--precision", "0_5"), ("--precision", "\uff15"), ("--q", "1_0,\u0662"), ("--q", "1,2_0"),
    ("--t-null", "0_1"), ("--t-null", "\u00a00.1"), ("--z-sigma", "0_1"), ("--z-null", "\u0660.1"),
])
def test_numbers_with_underscores_or_non_ascii_exit_1(counts_csv, tmp_path, capsys, flag, value):
    # int() and float() read "1_0" and non-ASCII digits; each numeric flag
    # refuses them with the message it gives for text that is no number
    z_flags = ["--z-sigma", "0.02", "--z-null", "0.08"] if flag.startswith("--z") else []

    def run(text):
        argv = ["--input", counts_csv, "--format", "counts", "--journal", "JSCS", *z_flags,
                flag, text, "--out", tmp_path / "x"]
        try:
            code = _run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    code, captured = run(value)
    assert code == 1
    assert captured.out == ""
    assert captured.err == run("x")[1].err.replace("'x'", repr(value))
    assert not (tmp_path / "x").exists()


def test_numbers_keep_padding_signs_and_inf(counts_csv, tmp_path):
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--years", " 2012 : +2013 ", "--precision", " +4 ", "--q", " 1 , +inf ",
                 "--t-null", " 1e-1 ", "--z-sigma", "+.02", "--z-null", "0.08 ",
                 "--out", tmp_path / "x"])
    assert code == 0
    assert _grid(tmp_path / "x" / "t1_submitted.csv")[0] == ["row", "2012", "2013", "[2012-2013]"]


def test_orders_sharing_a_label_exit_1(counts_csv, tmp_path, capsys):
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--q", "1,1,2", "--out", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == (
        "analyze: diversity orders 1.0 and 1.0 share the row label D1\n")
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--q=-0,0", "--out", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == (
        "analyze: diversity orders 0.0 and 0.0 share the row label D0\n")
    assert not (tmp_path / "x").exists()
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--q=-0", "--out", tmp_path / "zero"])
    assert code == 0
    t5 = _grid(tmp_path / "zero" / "t5_indices.csv")
    assert [row[1] for row in t5 if row[0] == "submitted"][0] == "D0"


def test_infinite_and_large_orders(counts_csv, tmp_path):
    out = tmp_path / "qinf"
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--q", "inf,5000,1e308", "--out", out])
    assert code == 0
    t1 = _grid(out / "t1_submitted.csv")
    t5 = _grid(out / "t5_indices.csv")
    d_inf = next(row for row in t5 if row[:2] == ["submitted", "Dinf"])
    d_5000 = next(row for row in t5 if row[:2] == ["submitted", "D5000"])
    for j in range(1, len(t1[0])):
        max_share = max(float(row[j]) for row in t1[1:13])
        assert float(d_inf[j + 1]) == pytest.approx(1.0 / max_share, rel=1e-4)
        assert float(d_5000[j + 1]) == pytest.approx(float(d_inf[j + 1]), rel=1e-3)
    # q ln p_max passes the float range at q = 1e308, yet D_q is finite:
    # the Berger-Parker limit to the printed digits
    for block in ("submitted", "accepted", "conditional"):
        d_huge = next(row for row in t5 if row[:2] == [block, "D1e+308"])
        assert all(math.isfinite(float(cell)) for cell in d_huge[2:])
        assert d_huge[2:] == next(row for row in t5 if row[:2] == [block, "Dinf"])[2:]


def test_bom_prefixed_input(tmp_path):
    source = DATA_DIR / "journal_counts.csv"
    bom_copy = tmp_path / "bom.csv"
    bom_copy.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    out = tmp_path / "bom_out"
    code = _run(["--input", bom_copy, "--format", "counts", "--journal", "JSCS",
                 "--out", out])
    assert code == 0
    golden = DATA_DIR / "golden" / "jscs" / "t1_submitted.csv"
    assert (out / "t1_submitted.csv").read_text() == golden.read_text()


def test_z_flags_must_pair(counts_csv, tmp_path, capsys):
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--z-sigma", "0.02", "--out", tmp_path / "x"])
    assert code == 1
    assert "both" in capsys.readouterr().err
    for flags, message in ((["--z-sigma", "0.02", "--z-null", "nan"], "z null"),
                           (["--z-sigma", "inf", "--z-null", "0.08"], "z sigma")):
        code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                     *flags, "--out", tmp_path / "x"])
        assert code == 1
        assert f"{message} value must be finite" in capsys.readouterr().err


def test_z_flags_add_rows(counts_csv, tmp_path):
    out = tmp_path / "z"
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--z-sigma", "0.0236", "--z-null", "0.0833333", "--out", out])
    assert code == 0
    labels = [row[0] for row in _grid(out / "t1_submitted.csv")]
    assert "z" in labels and "z_p" in labels


@pytest.mark.parametrize("sigma", ["1e-320", "5e-324"])
def test_overflowing_z_statistic_exits_1(tmp_path, capsys, sigma):
    # sigma / sqrt(12) is subnormal (or, for 5e-324, zero), so the z statistic
    # passes the float range
    code = _run(["--input", DATA_DIR / "journal_counts.csv", "--format", "counts",
                 "--journal", "JSCS", "--z-sigma", sigma, "--z-null", "0.08",
                 "--out", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == (
        "analyze: t1_submitted, column 2012: z statistic overflows the float range\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("counts, journal, flags, message", [
    ("journal,year,month,submitted,accepted\nJ,2012,1,-5,1\n", "J", [],
     "negative count at line 2"),
    # the raw conditional ratios do not sum to 1, so near q = 1 their
    # diversity passes the float range
    (None, "JSCS", ["--q", "0.9999999"],
     "t5_indices conditional, column 2012: diversity is not finite for this input"),
    # one acceptance in 30 003 submissions is quoted 0.0000 at the four places
    # of the index inputs, so the column has nothing to normalize
    ("journal,year,month,submitted,accepted\n" + "".join(
        f"J,2012,{m},{30000 + m},{int(m == 3)}\n" for m in range(1, 13)), "J", [],
     "t5_indices conditional, column 2012: all entries are zero"),
    # the options refuse these with the texts of the library's checks
    (None, "JSCS", ["--q", "nan"],
     "diversity orders must not be NaN: an order that is not finite must be inf"),
    (None, "JSCS", ["--q=-1"], "diversity orders must be non-negative"),
    (None, "JSCS", ["--t-null", "inf"], "t null value must be finite"),
    (None, "JSCS", ["--z-sigma", "0", "--z-null", "0.08"], "z sigma must be positive"),
    (None, "JSCS", ["--z-sigma=-inf", "--z-null", "0.08"], "z sigma value must be finite"),
    (None, "JSCS", ["--z-null", "nan", "--z-sigma", "1"], "z null value must be finite"),
    (None, "JSCS", ["--z-sigma", "1"], "z test needs both a sigma and a null value"),
], ids=["negative-count", "q-near-1", "conditional-rounds-to-zero", "q-nan", "q-negative",
        "t-null-inf", "z-sigma-zero", "z-sigma-minus-inf", "z-null-nan", "z-sigma-alone"])
def test_refused_value_exits_1_with_its_message(tmp_path, capsys, counts, journal, flags,
                                                message):
    path = DATA_DIR / "journal_counts.csv"
    if counts is not None:
        path = tmp_path / "input.csv"
        path.write_text(counts, encoding="utf-8")
    code = _run(["--input", path, "--format", "counts", "--journal", journal, *flags,
                 "--out", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == f"analyze: {message}\n"
    assert not (tmp_path / "x").exists()


def test_precision_flag(counts_csv, tmp_path):
    out = tmp_path / "p4"
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--precision", "4", "--out", out])
    assert code == 0
    grid = _grid(out / "t1_submitted.csv")
    assert grid[1][1] == "0.0820"


def test_missing_input_exits_2(tmp_path, capsys):
    code = _run(["--input", tmp_path / "nope.csv", "--format", "counts",
                 "--journal", "JSCS", "--out", tmp_path / "x"])
    assert code == 2
    assert "cannot read input" in capsys.readouterr().err


def test_non_utf8_input_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"journal,year,month,submitted,accepted\nJ\xff,2012,1,5,1\n")
    code = _run(["--input", path, "--format", "counts", "--journal", "J",
                 "--out", tmp_path / "x"])
    assert code == 1
    assert "analyze: input is not UTF-8 text:" in capsys.readouterr().err


_SHAPES = {
    "events": ("journal,submitted_at,decision", "JSCS,2012-01-05,accepted"),
    "counts": ("journal,year,month,submitted,accepted", "JSCS,2012,1,5,3"),
}


@pytest.mark.parametrize("input_format", sorted(_SHAPES))
@pytest.mark.parametrize("problem", ["long header field", "long field", "NUL byte"])
def test_csv_reader_errors_exit_1(tmp_path, input_format, problem):
    # a field past csv.field_size_limit() stops the csv reader itself; a NUL
    # byte is an ordinary character, so the field that holds it is bad data
    header, row = _SHAPES[input_format]
    long_field = "x" * (csv.field_size_limit() + 1)
    lines = {"long header field": [long_field + header, row],
             "long field": [header, row, long_field + row],
             "NUL byte": [header, row, row.replace("5", "\0", 1)]}[problem]
    path = tmp_path / "input.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = _spawn(["--input", path, "--format", input_format, "--journal", "JSCS",
                     "--out", tmp_path / "x"])
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("analyze: ")
    if problem != "NUL byte":
        line = 1 if problem == "long header field" else 3
        assert result.stderr == (f"analyze: unreadable CSV at line {line}: field larger "
                                 f"than field limit ({csv.field_size_limit()})\n")
    elif input_format == "counts":
        assert result.stderr == "analyze: non-integer count field at line 3\n"
    else:
        with pytest.raises(ValueError) as refused:
            date.fromisoformat("2012-01-0\0")
        assert result.stderr == (f"analyze: invalid date '2012-01-0\\x00' at line 3: "
                                 f"{refused.value}\n")
    assert not (tmp_path / "x").exists()


def _complete_rows(input_format):
    """Rows of journal JSCS that make a whole analysis: 2012, 11 to 22
    submissions a month, 1 to 3 of them accepted."""
    if input_format == "counts":
        return [f"JSCS,2012,{m},{10 + m},{m % 3 + 1}" for m in range(1, 13)]
    return [f"JSCS,2012-{m:02d}-01,{'accepted' if i <= m % 3 else 'rejected'}"
            for m in range(1, 13) for i in range(10 + m)]


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("separator", ["\f", "\u2028", "\n", "\r", "\r\n"])
@pytest.mark.parametrize("input_format", sorted(_SHAPES))
def test_line_numbers_follow_csv_records(tmp_path, capsys, input_format, separator, line_end):
    # str.splitlines also breaks at \f and \u2028, which csv reads as field
    # text: line 3 is a valid row, and the error is the one on line 4; a
    # quoted label over lines 3-4 is one record, and the error is on line 5
    header, row = _SHAPES[input_format]
    bad = {"events": "JSCS,2012-13-01,accepted", "counts": "JSCS,2012,13,5,3"}[input_format]
    spans_lines = separator in ("\n", "\r", "\r\n")
    label, line = (f'"J{separator}X"', 5) if spans_lines else (f"J{separator}X", 4)
    lines = [header, row, row.replace("JSCS", label), bad]
    path = tmp_path / "input.csv"
    path.write_text(line_end.join(lines) + line_end, encoding="utf-8", newline="")
    parse = {"events": lambda t: parse_events(t, "JSCS"), "counts": parse_counts}[input_format]
    with open(path, encoding="utf-8-sig", newline="") as handle:
        text = handle.read()  # as cli.main reads it, keeping each CR
    with pytest.raises(DataError, match=rf" at line {line}\b") as raised:
        parse(text)
    result = _spawn(["--input", path, "--format", input_format, "--journal", "JSCS",
                     "--out", tmp_path / "x"])
    assert result.returncode == 1
    assert result.stderr == f"analyze: {raised.value}\n"
    assert not (tmp_path / "x").exists()
    if not spans_lines:
        return
    # the quoted label keeps its line end, as a newline="" handle reads it
    lines = [header, *(r.replace("JSCS", label) for r in _complete_rows(input_format))]
    path.write_text(line_end.join(lines) + line_end, encoding="utf-8", newline="")
    argv = ["--input", path, "--format", input_format]
    assert _run([*argv, "--journal", f"J{separator}X", "--out", tmp_path / "six"]) == 0
    assert len(list((tmp_path / "six").iterdir())) == 6
    assert _run([*argv, "--journal", "JX", "--out", tmp_path / "none"]) == 1
    assert capsys.readouterr().err == "analyze: empty selection: no rows for journal 'JX'\n"
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("exponent", [307, 400])
def test_chi_square_past_the_float_range_exits_1(tmp_path, exponent):
    # month m has m * 10**exponent submissions: at 307 the statistic, 2.2e308,
    # passes the float range while the expected count is 6.5e307; at 400 the
    # expected count itself does
    path = tmp_path / "huge.csv"
    path.write_text("journal,year,month,submitted,accepted\n" + "".join(
        f"J,2012,{m},{m * 10 ** exponent},{m}\n" for m in range(1, 13)), encoding="utf-8")
    result = _spawn(["--input", path, "--format", "counts", "--journal", "J",
                     "--out", tmp_path / "x"])
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == ("analyze: t1_submitted, column 2012: "
                             "chi-square statistic overflows the float range\n")
    assert not (tmp_path / "x").exists()


# row and 2012 cell of t1_submitted: the statistic's repr digits padded with zeros
_PAST_28_DIGITS = {"--t-null": ("t", "-1468716911839349700000000000.00000"),
                   "--z-sigma": ("z", "11547005383792490000000000000.00000")}


@pytest.mark.parametrize("emit", ["csv", "json", "md"])
@pytest.mark.parametrize("flags", [["--t-null", "1e25"],
                                   ["--z-sigma", "1e-30", "--z-null", "0.08"]])
def test_footer_value_past_28_digits_prints_in_full(tmp_path, capsys, emit, flags):
    # the t (or z) statistic is about -1e27 (1e28): more significant digits at
    # precision 5 than decimal's default context holds, where the run once
    # exited 1. Every finite value prints in full, and the run exits 0.
    row, cell = _PAST_28_DIGITS[flags[0]]
    out = tmp_path / "x"
    code = _run(["--input", DATA_DIR / "journal_counts.csv", "--format", "counts",
                 "--journal", "JSCS", "--emit", emit, "--out", out, *flags])
    assert code == 0
    assert capsys.readouterr().err == ""
    path = out / f"t1_submitted.{emit}"
    if emit == "json":
        text = path.read_text(encoding="utf-8")
        assert f'"{row}": {float(cell)!r},' in text
        assert json.loads(text)["columns"]["2012"]["footer"][row] == float(cell)
    elif emit == "csv":
        assert next(r for r in _grid(path) if r[0] == row)[1] == cell
    else:
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = next(line.split("|") for line in lines if line.startswith(f"| {row} "))
        assert cells[2].strip() == cell


def test_unwritable_out_exits_2(counts_csv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = _run(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                 "--out", blocker / "sub"])
    assert code == 2
    assert "cannot write output" in capsys.readouterr().err


def test_missing_required_args_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["--journal", "JSCS"])
    assert exc.value.code == 1


def test_bad_choice_exits_1(counts_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--input", str(counts_csv), "--format", "parquet",
              "--journal", "JSCS", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "analyze" in capsys.readouterr().out


def test_help_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--input", "--format", "--journal", "--years", "--q",
                 "--precision", "--emit", "--out", "--t-null", "--z-sigma", "--z-null"):
        assert flag in out


def test_module_invocation():
    result = subprocess.run([sys.executable, "-m", "seasonstats", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0


@pytest.mark.parametrize("module,emit", [("seasonstats", "csv"), ("seasonstats", "md"),
                                         ("seasonstats", "json"), ("seasonstats.cli", "csv")])
def test_module_run_writes_the_goldens(counts_csv, tmp_path, module, emit):
    # the process entry freezes the heap before exit; the documents, the
    # streams and the exit code come out as from main
    result = _spawn(["--input", counts_csv, "--format", "counts", "--journal", "JSCS",
                     "--emit", emit, "--out", tmp_path], module)
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, f"wrote 6 documents to {tmp_path}\n", "")
    goldens = sorted((DATA_DIR / "golden" / "jscs").glob(f"*.{emit}"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [g.name for g in goldens]
    for golden in goldens:
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), golden.name


# each process entry as a `python -c` statement that takes its arguments from sys.argv
_ENTRIES = {
    "run": "from seasonstats.cli import run; sys.exit(run())",
    "module": "import runpy; runpy.run_module('seasonstats', run_name='__main__')",
    "main": "from seasonstats.cli import main; sys.exit(main())",
}


def _at_exit(entry, argv):
    """(exit code, stderr, gc.get_freeze_count() at exit) of a fresh interpreter
    that runs one of `_ENTRIES` on argv."""
    probe = ("import atexit, gc, sys; atexit.register(lambda: print(gc.get_freeze_count())); "
             + _ENTRIES[entry])
    result = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                            capture_output=True, text=True, env=_src_env())
    return result.returncode, result.stderr, int(result.stdout.split()[-1])


def test_process_entries_freeze_and_main_does_not(counts_csv, tmp_path):
    # main runs many analyses in one process for the tests and the benchmark
    # worker, so only the process entry may move the heap out of collection
    argv = ["--input", counts_csv, "--format", "counts", "--journal", "JSCS", "--out", tmp_path]
    for entry in ("run", "module"):
        code, _, frozen = _at_exit(entry, argv)
        assert code == 0 and frozen > 0, entry
    assert _at_exit("main", argv) == (0, "", 0)


def test_analyze_script_enters_through_run():
    pyproject = (DATA_DIR.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nanalyze = "seasonstats.cli:run"\n' in pyproject


def test_run_passes_exit_codes_through(counts_csv, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cases = [(["--journal", "Nope", "--out", tmp_path / "out"], 1,
              "analyze: empty selection: no rows for journal 'Nope'"),
             (["--journal", "JSCS", "--out", blocker / "sub"], 2, "analyze: cannot write output: ")]
    for args, expected, message in cases:
        argv = ["--input", counts_csv, "--format", "counts", *args]
        for entry in _ENTRIES:
            code, stderr, _ = _at_exit(entry, argv)
            assert code == expected and stderr.startswith(message), (entry, stderr)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # start-up is most of a run on the bundled data; `dataclasses` drags in
    # `inspect`, `ast`, `dis` and `tokenize`, which the CLI never uses
    probe = "import sys; {}; print(*sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"

    def loaded(statement):
        result = subprocess.run([sys.executable, "-c", probe.format(statement)],
                                capture_output=True, text=True, env=_src_env(), check=True)
        return set(result.stdout.split())

    assert loaded("import seasonstats.cli") <= loaded("pass")


def _modules_added(statement):
    """The modules a fresh interpreter imports while it runs `statement`,
    without `site`, so that no .pth file imports any of them first."""
    probe = "import sys; before = set(sys.modules); {}; print(*sorted(set(sys.modules) - before))"
    result = subprocess.run([sys.executable, "-S", "-c", probe.format(statement)],
                            capture_output=True, text=True, env=_src_env(), check=True)
    return set(result.stdout.splitlines()[-1].split())


_LAZY_MODULES = {"decimal", "json", "datetime"}


def _cli_run(*args, out):
    """A statement that runs the CLI and fails unless it exits 0."""
    argv = ["--out", str(out), *map(str, args)]
    return f"from seasonstats.cli import main; code = main({argv!r}); assert code == 0, code"


def test_cli_import_leaves_out_decimal_json_and_datetime():
    added = _modules_added("import seasonstats.cli")
    assert not added & _LAZY_MODULES
    # and __future__: no module of the package postpones its annotations,
    # which every supported Python evaluates at definition
    assert "__future__" not in added


@pytest.mark.parametrize("emit", ["csv", "md"])
def test_counts_run_leaves_out_decimal_json_and_datetime(counts_csv, tmp_path, emit):
    added = _modules_added(_cli_run("--input", counts_csv, "--format", "counts",
                                    "--journal", "JSCS", "--emit", emit, out=tmp_path))
    assert not added & _LAZY_MODULES


def test_json_run_imports_json(counts_csv, tmp_path):
    added = _modules_added(_cli_run("--input", counts_csv, "--format", "counts",
                                    "--journal", "JSCS", "--emit", "json", out=tmp_path))
    assert added & _LAZY_MODULES == {"json"}


def test_events_run_imports_datetime(events_csv, tmp_path):
    added = _modules_added(_cli_run("--input", events_csv, "--format", "events",
                                    "--journal", "Demo", out=tmp_path))
    assert added & _LAZY_MODULES == {"datetime"}


def test_year_and_order_parsers():
    assert _parse_years("2012:2014") == (2012, 2013, 2014)
    assert _parse_years("2015") == (2015,)
    with pytest.raises(DataError):
        _parse_years("a:b")
    with pytest.raises(DataError):
        _parse_years("2014:2012")
    assert _parse_years("1") == (1,)
    assert _parse_years("9998:9999") == (9998, 9999)
    for text in ("0:1", "9999:10000", "0", "10000", "-5:-1"):
        with pytest.raises(DataError, match="years must lie in 1..9999"):
            _parse_years(text)
    assert _parse_orders("1,2,0.5") == (1.0, 2.0, 0.5)
    with pytest.raises(DataError):
        _parse_orders("one")


def test_parser_defaults():
    args = build_parser().parse_args(
        ["--input", "x.csv", "--format", "counts", "--journal", "J"])
    assert args.q == "1,2"
    assert args.precision == 5
    assert args.emit == "csv"
    assert args.out == "."
    assert args.t_null == pytest.approx(0.0833333)
    assert args.z_sigma is None and args.z_null is None
    # the flags' defaults are the options' own
    defaults = AnalysisOptions()
    assert _parse_orders(args.q) == defaults.q_orders
    assert (args.precision, args.t_null, args.z_sigma, args.z_null) \
        == (defaults.precision, defaults.t_null, defaults.z_sigma, defaults.z_null)
    help_text = build_parser().format_help()
    for flag, default in (("--q", "1,2"), ("--precision", "5"), ("--t-null", "0.0833333")):
        assert f"(default {default})" in help_text, flag


def _fuzz_events():
    lines = ["journal,submitted_at,decision"]
    for month in range(1, 13):
        for day in range(1, month + 3):
            decision = "accepted" if (day + month) % 3 == 0 else "rejected"
            lines.append(f"JSCS,2012-{month:02d}-{day:02d},{decision}")
            lines.append(f"Entropy,2013-{month:02d}-{day:02d},{decision}")
    return "\n".join(lines).encode("utf-8") + b"\n"


_FUZZ_SOURCES = {
    "counts": (DATA_DIR / "journal_counts.csv").read_bytes(),
    "events": _fuzz_events(),
}


@st.composite
def _fuzz_input(draw, source):
    """A valid input as is, cut short, with random bytes spliced in, or random bytes."""
    data = draw(st.sampled_from(("intact", "cut", "spliced", "random")))
    if data == "random":
        data = draw(st.binary(max_size=64))
    elif data == "cut":
        data = source[:draw(st.integers(0, len(source)))]
    elif data == "spliced":
        at = draw(st.integers(0, len(source)))
        data = source[:at] + draw(st.binary(min_size=1, max_size=8)) + source[at:]
    else:
        data = source
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


_FUZZ_VALUES = st.sampled_from(("nan", "inf", "-inf", "-1", "", "0", "1e-320", "0.02", "0.08"))
_FUZZ_FLAGS = {
    "--q": st.sampled_from(("nan", "inf", "-1", "", "1,2", "0,1,2,inf", "1,nan")),
    "--t-null": _FUZZ_VALUES,
    "--z-sigma": _FUZZ_VALUES,
    "--z-null": _FUZZ_VALUES,
    "--years": st.sampled_from(("nan", "inf", "-1", "", "2012", "2012:2014",
                                "2011:2012", "-3:-1", "2014:2012")),
}


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exit_codes_are_contractual(data):
    """Every input and flag value ends in exit 0, 1 or 2, never a traceback."""
    input_format = data.draw(st.sampled_from(("counts", "events")))
    content = data.draw(_fuzz_input(_FUZZ_SOURCES[input_format]))
    flags = data.draw(st.sets(st.sampled_from(sorted(_FUZZ_FLAGS)), max_size=3))
    journal = data.draw(st.sampled_from(("JSCS", "Entropy", "Nature")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(content)
        argv = ["--input", str(path), "--format", input_format, "--journal", journal,
                "--out", str(Path(tmp) / "out")]
        for flag in flags:
            argv.append(f"{flag}={data.draw(_FUZZ_FLAGS[flag])}")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
