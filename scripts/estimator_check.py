"""Compare discrete Gini estimators against the published index table.

For each of the 24 index-table Gini cells (three blocks, eight columns)
of the counts in data/journal_counts.csv this prints the population
mean-absolute-difference estimator used by the package, read from the
report's index block, next to the (n/(n-1))-rescaled sample variant (n the
defined entries of the column), and the published value. The population
form matches 23 of 24 cells; see the 2013 accepted column for the known
discrepancy. Run from the repository root:

    python3 scripts/estimator_check.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import refvalues as rv  # noqa: E402

from seasonstats.ingest import matrices_from_counts, parse_counts  # noqa: E402
from seasonstats.report import build_bundle  # noqa: E402


def main():
    rows = parse_counts((ROOT / "data" / "journal_counts.csv")
                        .read_text(encoding="utf-8").splitlines())
    bundles = [build_bundle(*matrices_from_counts(rows, journal))
               for journal in ("JSCS", "Entropy")]
    labels = [f"JSCS {y}" for y in rv.JSCS_YEARS] + ["JSCS cum"] \
        + [f"Entropy {y}" for y in rv.ENT_YEARS] + ["Entropy cum"]

    print(f"{'block':<12} {'column':<12} {'population':>10} {'sample':>10} "
          f"{'published':>10}  match")
    for block in ("submitted", "accepted", "conditional"):
        cells = []  # (Gini cell, defined entries of its column)
        for bundle in bundles:
            table = getattr(bundle, block)
            columns = [table.column(j) for j in range(len(table.years))] + [table.cumulated]
            for col, index_rows in zip(columns, dict(bundle.index_blocks)[block]):
                cells.append((dict(index_rows)["gini"], sum(v is not None for v in col)))
        published = rv.T5[block]["gi"]
        for label, (pop, n), pub in zip(labels, cells, published):
            sample = pop * n / (n - 1)
            flag = "yes" if abs(pop - pub) <= 1e-3 else "NO"
            print(f"{block:<12} {label:<12} {pop:>10.5f} {sample:>10.5f} "
                  f"{pub:>10.5f}  {flag}")


if __name__ == "__main__":
    main()
