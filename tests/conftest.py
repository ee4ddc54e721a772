"""Shared fixtures: the two bundled journals read from data/journal_counts.csv.

That file is committed input; test_acceptance checks its counts against the
published share tables, per-year totals and pinned count columns.
`events_from_counts` rewrites counts rows as the events CSV they stand for.
"""

from pathlib import Path

import pytest

from seasonstats.ingest import matrices_from_counts, parse_counts
from seasonstats.report import AnalysisOptions, build_bundle

JOURNAL_COUNTS = Path(__file__).resolve().parent.parent / "data" / "journal_counts.csv"


@pytest.fixture(scope="session")
def journal_counts_rows():
    return parse_counts(JOURNAL_COUNTS.read_text(encoding="utf-8").splitlines())


def _events_text(rows):
    """Events CSV text with one row per submission, dated in its month; of each
    cell's submissions the first `accepted` are accepted and the rest rejected."""
    lines = ["journal,submitted_at,decision"]
    for journal, year, month, submitted, accepted in rows:
        lines += [f"{journal},{year}-{month:02d}-{i % 28 + 1:02d},"
                  f"{'accepted' if i < accepted else 'rejected'}" for i in range(submitted)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def events_from_counts():
    return _events_text


@pytest.fixture(scope="session")
def jscs_matrices(journal_counts_rows):
    return matrices_from_counts(journal_counts_rows, "JSCS")


@pytest.fixture(scope="session")
def ent_matrices(journal_counts_rows):
    return matrices_from_counts(journal_counts_rows, "Entropy")


@pytest.fixture(scope="session")
def jscs_bundle(jscs_matrices):
    return build_bundle(*jscs_matrices, AnalysisOptions(), journal="JSCS")


@pytest.fixture(scope="session")
def ent_bundle(ent_matrices):
    return build_bundle(*ent_matrices, AnalysisOptions(), journal="Entropy")


@pytest.fixture(scope="session")
def both_bundles(jscs_bundle, ent_bundle):
    return {"JSCS": jscs_bundle, "Entropy": ent_bundle}
