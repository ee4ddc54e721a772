"""Rebuild the bundled dataset and golden CLI outputs.

Reconstructs integer monthly counts for both journals from the published
share tables and writes them as data/journal_counts.csv. Then regenerates
every golden set in data/golden/ in all three output formats by running the
CLI as `refvalues.GOLDEN_RUNS` lists: jscs and entropy on that file with
default options, edge on the hand-written data/edge_counts.csv, and long on
data/long_counts.csv (the benchmark generator's 20-year series for seed 1,
committed as data and not rebuilt here). Run from the repository root:

    python3 scripts/build_reference_dataset.py
"""

import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import refvalues as rv  # noqa: E402

from seasonstats.cli import main  # noqa: E402
from seasonstats.ingest import counts_from_shares  # noqa: E402
from seasonstats.report import FORMATS  # noqa: E402


def build_counts_csv(path: Path) -> None:
    lines = ["journal,year,month,submitted,accepted"]
    for journal, years, sub_totals, sub_shares, acc_totals, acc_shares in (
        ("JSCS", rv.JSCS_YEARS, rv.JSCS_SUB_TOTALS, rv.JSCS_SUB_SHARES,
         rv.JSCS_ACC_TOTALS, rv.JSCS_ACC_SHARES),
        ("Entropy", rv.ENT_YEARS, rv.ENT_SUB_TOTALS, rv.ENT_SUB_SHARES,
         rv.ENT_ACC_TOTALS, rv.ENT_ACC_SHARES),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the tables reconstruct exactly
            sub = counts_from_shares(sub_totals, sub_shares, years, "submitted")
            acc = counts_from_shares(acc_totals, acc_shares, years, "accepted")
        for j, year in enumerate(years):
            for m in range(12):
                lines.append(f"{journal},{year},{m + 1},"
                             f"{sub.counts[m][j]},{acc.counts[m][j]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(lines) - 1} rows)")


def build_golden(data_dir: Path) -> None:
    for subdir, (input_name, journal, extra) in rv.GOLDEN_RUNS.items():
        for emit in FORMATS:
            code = main(["--input", str(data_dir / input_name), "--format", "counts",
                         "--journal", journal, "--emit", emit,
                         "--out", str(data_dir / "golden" / subdir), *extra])
            if code != 0:
                raise SystemExit(f"golden build failed for {subdir} {emit} (exit {code})")


if __name__ == "__main__":
    build_counts_csv(ROOT / "data" / "journal_counts.csv")
    build_golden(ROOT / "data")
