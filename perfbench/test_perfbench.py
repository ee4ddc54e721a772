"""Tests of the benchmark's own parts: generator, output check, span arithmetic.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from seasonstats import cli  # noqa: E402


def analyze(tmp_path, input_path, fmt, journal, emit, *extra) -> dict:
    out = tmp_path / f"out-{journal}-{emit}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--input", str(input_path), "--format", fmt, "--journal", journal,
                         "--emit", emit, "--out", str(out), *extra])
    assert code == 0
    return {name: (out / f"{name}.{emit}").read_text(encoding="utf-8")
            for name in check.DOCUMENT_NAMES}


@pytest.fixture(scope="module")
def long_series(tmp_path_factory):
    text, tallies = gen.long_series_counts(5)
    path = tmp_path_factory.mktemp("long") / "counts.csv"
    path.write_text(text, encoding="utf-8")
    return path, tallies


# --- generator -------------------------------------------------------------

def test_generator_is_deterministic_for_a_seed():
    assert gen.long_series_counts(3) == gen.long_series_counts(3)
    assert gen.multi_journal_events(3) == gen.multi_journal_events(3)
    journals = ["a", "b", "c"]
    assert gen.journal_sequence(3, journals, 50) == gen.journal_sequence(3, journals, 50)
    assert gen.long_series_counts(3)[0] != gen.long_series_counts(4)[0]
    assert gen.multi_journal_events(3)[0] != gen.multi_journal_events(4)[0]


def test_generator_tallies_match_its_rows():
    text, tallies = gen.multi_journal_events(1)
    rows = text.splitlines()[1:]
    assert len(tallies.journals()) == gen.EVENT_JOURNALS
    assert sum(sub for sub, _ in tallies.values()) == len(rows)
    assert sum(acc for _, acc in tallies.values()) == sum(r.endswith(",accepted") for r in rows)
    for journal in tallies.journals():
        assert len(tallies.years(journal)) == gen.EVENT_YEARS  # complete years only
        for year in tallies.years(journal):
            assert gen._constant_column(tallies, journal, year) is None

    text, tallies = gen.long_series_counts(1)
    assert len(text.splitlines()) - 1 == len(tallies) == 12 * gen.LONG_YEARS
    assert any(sub == 0 for sub, _ in tallies.values())  # NA cells in t3


# --- output check ----------------------------------------------------------

@pytest.mark.parametrize("emit", ["csv", "md", "json"])
def test_check_accepts_program_output(tmp_path, long_series, emit):
    path, tallies = long_series
    docs = analyze(tmp_path, path, "counts", gen.LONG_JOURNAL, emit, *run.LONG_OPTIONS)
    expected = check.expected_tables(tallies, gen.LONG_JOURNAL)
    assert check.check_expected(docs, emit, expected, run.PRECISION) == []


def _corrupt(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("emit", ["csv", "md", "json"])
def test_check_rejects_one_corrupted_synthetic_cell(tmp_path, long_series, emit):
    path, tallies = long_series
    docs = analyze(tmp_path, path, "counts", gen.LONG_JOURNAL, emit, *run.LONG_OPTIONS)
    expected = check.expected_tables(tallies, gen.LONG_JOURNAL)
    first = check.flatten(docs, emit)[0]["t1_submitted"][(("Jan",), "2001")]
    wrong = f"{check.number(first) + 2e-5:.5f}"
    docs["t1_submitted"] = _corrupt(docs["t1_submitted"], str(first), wrong)
    problems = check.check_expected(docs, emit, expected, run.PRECISION)
    assert len(problems) == 1 and "t1_submitted" in problems[0]


@pytest.mark.parametrize("emit", ["csv", "md", "json"])
def test_check_rejects_one_corrupted_golden_cell(tmp_path, emit):
    docs = analyze(tmp_path, ROOT / "data" / "journal_counts.csv", "counts", "JSCS", emit)
    golden = ROOT / "data" / "golden" / "jscs"
    assert check.check_golden(docs, emit, golden) == []
    docs["t3_conditional"] = _corrupt(docs["t3_conditional"], "0.69231", "0.69232")
    problems = check.check_golden(docs, emit, golden)
    assert len(problems) == 1 and "t3_conditional" in problems[0]


def test_corrupted_document_counts_toward_failures(tmp_path):
    docs = analyze(tmp_path, ROOT / "data" / "journal_counts.csv", "counts", "JSCS", "md")
    bad = dict(docs, t6_fourier=_corrupt(docs["t6_fourier"], "65.27634", "65.27635"))
    outputs = []
    for name, body, count in (("good", docs, 4), ("bad", bad, 3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"journal": "JSCS", "emit": "md", "docs": body}))
        outputs.append({"path": str(path), "count": count})
    result = {"failures": ["exit 1: boom"], "outputs": outputs}
    workload = run.BundledCli(seed=0, run_dir=tmp_path)
    assert run.check_outputs(workload, result) == 1 + 3


# --- spans -----------------------------------------------------------------

def span(sid, parent, name, start, end, counts=None):
    return [sid, parent, name, start, end, 0, counts]


def test_self_time_on_hand_built_tree():
    spans = [
        span(0, None, "cli", 0.0, 10.0),
        span(1, 0, "report.build_bundle", 1.0, 4.0),
        span(2, 1, "stats.describe", 2.0, 3.0),
        span(3, 0, "report.render.csv", 3.5, 6.0),  # overlaps its sibling by 0.5
        span(4, 0, "ingest.parse_counts", 9.0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_split_describe_calls_by_parent():
    spans = [
        span(0, None, "cli", 0.0, 10.0, {"bytes": 100}),
        span(1, 0, "report.build_bundle", 1.0, 4.0),
        span(2, 1, "stats.describe", 2.0, 2.5),
        span(3, 1, "stats.describe", 2.5, 3.0),
        span(4, 0, "report.render.csv", 5.0, 6.0, {"bytes": 100}),
        span(5, 4, "stats.describe", 5.5, 6.0),
    ]
    m = run.layer_metrics(spans, scales=[1.0])
    assert m["stats.describe.calls"][0] == 3
    assert m["stats.describe.build_bundle.calls"][0] == 2
    assert m["stats.describe.render.calls"][0] == 1
    assert m["stats.describe.s"][0] == pytest.approx(1.5)
    assert m["report.build_bundle.self_s"][0] == pytest.approx(2.0)
    assert m["report.render.csv.s"][0] == pytest.approx(0.5)
    assert m["cli.self_s"][0] == pytest.approx(6.0)


def test_tracer_restores_the_pipeline_functions():
    from seasonstats import report
    original = report.describe
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert report.describe is not original
        report.describe([0.1, 0.2, 0.3])
    finally:
        tracer.uninstall()
    assert report.describe is original
    assert [s[tracing.NAME] for s in tracer.spans] == ["stats.describe"]


def test_benchmark_json_names_only_measured_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    loop = {"analyses": [[0.1, 1.0, True], [0.2, 1.0, True]], "maxrss_kb": 1024,
            "spans": [span(0, None, "cli", 0.0, 0.1), span(1, None, "cli", 0.2, 0.4)]}
    measured = run.all_metrics({"setup": 0.2, "interp": 0.1}, loop, loop, 0, 2)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert measured[metric["name"]][1] == metric["unit"], metric["name"]
