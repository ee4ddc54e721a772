"""Shared fixtures: the two bundled journals read from data/journal_counts.csv.

That file is committed input; test_acceptance checks its counts against the
published share tables, per-year totals and pinned count columns.
"""

from pathlib import Path

import pytest

from seasonstats.ingest import matrices_from_counts, parse_counts
from seasonstats.report import AnalysisOptions, build_bundle

JOURNAL_COUNTS = Path(__file__).resolve().parent.parent / "data" / "journal_counts.csv"


def _matrices(journal):
    rows = parse_counts(JOURNAL_COUNTS.read_text(encoding="utf-8").splitlines())
    return matrices_from_counts(rows, journal)


@pytest.fixture(scope="session")
def jscs_matrices():
    return _matrices("JSCS")


@pytest.fixture(scope="session")
def ent_matrices():
    return _matrices("Entropy")


@pytest.fixture(scope="session")
def jscs_bundle(jscs_matrices):
    return build_bundle(*jscs_matrices, AnalysisOptions(), journal="JSCS")


@pytest.fixture(scope="session")
def ent_bundle(ent_matrices):
    return build_bundle(*ent_matrices, AnalysisOptions(), journal="Entropy")


@pytest.fixture(scope="session")
def both_bundles(jscs_bundle, ent_bundle):
    return {"JSCS": jscs_bundle, "Entropy": ent_bundle}
