"""Metamorphic relations of the whole pipeline: a known change of the input
and the change it must make, or not make, in the output.

- Counts times k: every share, ratio, footer, entropy term and index is a
  function of ratios of counts, so it stays bit for bit the same; only the
  chi-square statistic (and its p-value) and the t6 amplitudes scale, by k.
- Shuffled events: the events of a journal, in any order and mixed with
  rows of other journals, give the documents of the counts they stand for.
- Renamed journal: a golden set's journal under another label, as counts
  or as events, gives the golden documents; only JSON's "journal" line
  changes, to the label as json.dumps writes it.
"""

import csv
import io
import json
import random
from pathlib import Path

import pytest

from seasonstats import cli
from seasonstats.ingest import aggregate, matrices_from_counts, parse_counts, parse_events
from seasonstats.report import FORMATS, AnalysisOptions, build_bundle, render

import refvalues as rv

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = DATA / "golden"
JOURNALS = {"JSCS": "jscs", "Entropy": "entropy"}
# the q = 0 row and the z footers besides the default rows
OPTIONS = AnalysisOptions(q_orders=(0.0, 1.0, 2.0), precision=7, z_sigma=0.03,
                          z_null=0.0833333)
CHI_SQUARE_ROWS = ("chi_square", "chi_square_p")


def _scaled_bundle(rows, journal, k):
    scaled = [(name, year, month, submitted * k, accepted * k)
              for name, year, month, submitted, accepted in rows]
    return build_bundle(*matrices_from_counts(scaled, journal), OPTIONS, journal=journal)


def _without_chi_square(footers):
    return [[(label, value) for label, value in column if label not in CHI_SQUARE_ROWS]
            for column in footers]


def _chi_squares(footers):
    return [value for column in footers for label, value in column if label == "chi_square"]


@pytest.mark.parametrize("journal", sorted(JOURNALS))
def test_counts_times_k_scale_only_chi_square_and_amplitudes(journal_counts_rows, journal):
    base = _scaled_bundle(journal_counts_rows, journal, 1)
    for k in (2, 3, 7, 1000, 10**6):
        bundle = _scaled_bundle(journal_counts_rows, journal, k)
        # repr tells every float apart bit for bit
        for field in ("submitted", "accepted", "conditional", "conditional_footers",
                      "entropy_terms", "entropy_footers", "index_blocks"):
            assert repr(getattr(bundle, field)) == repr(getattr(base, field)), (k, field)
        for field in ("submitted_footers", "accepted_footers"):
            footers, base_footers = getattr(bundle, field), getattr(base, field)
            assert repr(_without_chi_square(footers)) == repr(_without_chi_square(base_footers))
            for scaled, value in zip(_chi_squares(footers), _chi_squares(base_footers),
                                     strict=True):
                assert scaled == pytest.approx(k * value, rel=1e-12, abs=0.0), (k, field)
        for (name, peaks), (base_name, base_peaks) in zip(bundle.peaks, base.peaks, strict=True):
            assert name == base_name
            assert [p.frequency for p in peaks] == [p.frequency for p in base_peaks]
            assert [p.period for p in peaks] == [p.period for p in base_peaks]
            for peak, base_peak in zip(peaks, base_peaks):
                assert peak.amplitude == pytest.approx(k * base_peak.amplitude, rel=1e-12,
                                                       abs=0.0), (k, name)


def _documents(text, journal):
    """The 18 documents, csv, md and json, of `journal` from events text."""
    bundle = build_bundle(*aggregate(parse_events(text, journal)), AnalysisOptions(),
                          journal=journal)
    return {f"{doc.name}.{emit}": doc.text for emit in ("csv", "md", "json")
            for doc in render(bundle, emit)}


@pytest.mark.parametrize("journal", sorted(JOURNALS))
def test_shuffled_events_mixed_with_other_journals_give_the_same_documents(
        journal_counts_rows, events_from_counts, journal):
    golden = {path.name: path.read_text(encoding="utf-8")
              for path in (GOLDEN / JOURNALS[journal]).iterdir()}
    assert len(golden) == 18
    header, *lines = events_from_counts(
        [row for row in journal_counts_rows if row[0] == journal]).splitlines()
    base = _documents("\n".join([header, *lines]) + "\n", journal)
    rng = random.Random(f"shuffled events {journal}")
    # rows of the other golden journal, some relabelled with names that hold
    # this journal's name or differ from it only in case
    other, = set(JOURNALS) - {journal}
    _, *other_lines = events_from_counts(
        [row for row in journal_counts_rows if row[0] == other]).splitlines()
    labels = (other, f"{journal}2", f"X{journal}", journal.lower(), journal[:-1])
    mixed = [rng.choice(labels) + line[line.index(","):] for line in rng.sample(other_lines, 500)]
    rows = lines + mixed
    rng.shuffle(rows)
    shuffled = "\n".join([header, *rows])
    # split at its commas, and through csv.reader, which a quoted field forces
    quoted = shuffled.replace(f"\n{other},", f'\n"{other}",', 1)
    assert quoted != shuffled
    for text in (shuffled, shuffled + "\n", quoted):
        assert _documents(text, journal) == base
    # and the events in their own order give the counts' documents
    assert base == golden


# one label the writers must quote and csv.reader reads back, and one of
# bare regex metacharacters that the split path reads
RENAMED_JOURNALS = ('a"b,c\\d|\u00e9', "J.+[x]")
# a journal that the pattern J.+[x], matches, were the label not escaped
DECOY = "Jzzx"


def _csv_line(row):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(row)
    return out.getvalue()


def _renamed_inputs(rows, label, events_from_counts):
    """{"counts": text, "events": text} of `rows` under `label`, mixed with
    the events or counts of every other month under DECOY."""
    counts = [(label, *row[1:]) for row in rows] + [(DECOY, *row[1:]) for row in rows[::2]]
    header, *lines = events_from_counts(rows).splitlines()
    journal = _csv_line([label]).rstrip("\n")
    events = [journal + line[line.index(","):] for line in lines]
    _, *decoys = events_from_counts(rows[::2]).splitlines()
    mixed = events + [DECOY + line[line.index(","):] for line in decoys]
    random.Random(label).shuffle(mixed)
    return {"counts": "".join(map(_csv_line, [("journal", "year", "month", "submitted",
                                               "accepted"), *counts])),
            "events": "\n".join([header, *mixed]) + "\n"}


@pytest.mark.parametrize("run", sorted(rv.GOLDEN_RUNS))
def test_renamed_journal_changes_only_the_json_journal_line(events_from_counts, run):
    input_name, journal, extra = rv.GOLDEN_RUNS[run]
    rows = [row for row in parse_counts((DATA / input_name).read_text(encoding="utf-8-sig"))
            if row[0] == journal]
    golden_line = f'  "journal": {json.dumps(journal)},\n'
    for label in RENAMED_JOURNALS:
        for kind, text in _renamed_inputs(rows, label, events_from_counts).items():
            for emit in FORMATS:
                warnings = []
                args = cli.build_parser().parse_args(
                    ["--input", "-", "--format", kind, "--journal", label, "--emit", emit,
                     *extra])
                for doc in cli._analyze(text, args, warnings.append):
                    golden = (GOLDEN / run / f"{doc.name}.{emit}").read_text(encoding="utf-8")
                    if emit == "json":
                        assert golden.count(golden_line) == 1
                        golden = golden.replace(golden_line,
                                                f'  "journal": {json.dumps(label)},\n')
                    assert doc.text == golden, (label, kind, doc.name, emit)
                assert warnings == []
