"""Regenerate the golden CLI outputs from the committed input data.

Rewrites every golden set in data/golden/ in all three output formats by
running the CLI as `refvalues.GOLDEN_RUNS` lists: jscs and entropy on
data/journal_counts.csv with default options, edge on the hand-written
data/edge_counts.csv, and long on data/long_counts.csv (the benchmark
generator's 20-year series for seed 1). The three count files are committed
input and are not rewritten here; the acceptance suite checks
journal_counts.csv against the published shares and totals. Run from the
repository root:

    python3 scripts/build_reference_dataset.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import refvalues as rv  # noqa: E402

from seasonstats.cli import main  # noqa: E402
from seasonstats.report import FORMATS  # noqa: E402


def build_golden(data_dir: Path) -> None:
    for subdir, (input_name, journal, extra) in rv.GOLDEN_RUNS.items():
        for emit in FORMATS:
            code = main(["--input", str(data_dir / input_name), "--format", "counts",
                         "--journal", journal, "--emit", emit,
                         "--out", str(data_dir / "golden" / subdir), *extra])
            if code != 0:
                raise SystemExit(f"golden build failed for {subdir} {emit} (exit {code})")


if __name__ == "__main__":
    build_golden(ROOT / "data")
