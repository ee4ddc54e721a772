"""Compare discrete Gini estimators against the published index table.

For each of the 24 index-table Gini cells (three blocks, eight columns)
of the counts in data/journal_counts.csv this prints the population
mean-absolute-difference estimator used by the package next to the
(n/(n-1))-rescaled sample variant, and the published value. The population
form matches 23 of 24 cells; see the 2013 accepted column for the known
discrepancy. Run from the repository root:

    python3 scripts/estimator_check.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import refvalues as rv  # noqa: E402

from seasonstats.indices import gini  # noqa: E402
from seasonstats.probability import conditional, normalize, shares  # noqa: E402
from seasonstats.ingest import matrices_from_counts, parse_counts  # noqa: E402
from seasonstats.report import RATIO_QUOTED_PLACES, quote_half_down  # noqa: E402


def columns_for(block, sub, acc):
    """Index-table input vectors at print precision, as the reports use them."""
    table = {"submitted": shares(sub), "accepted": shares(acc)}.get(block)
    if table is not None:
        cols = [table.column(j) for j in range(3)] + [table.cumulated]
        places = 5
    else:
        cond = conditional(sub, acc)
        cols = [cond.column(j) for j in range(3)] + [cond.cumulated]
        places = RATIO_QUOTED_PLACES
    out = []
    for col in cols:
        rounded = [None if v is None else quote_half_down(v, places) for v in col]
        out.append(normalize(rounded))
    return out


def main():
    rows = parse_counts((ROOT / "data" / "journal_counts.csv")
                        .read_text(encoding="utf-8").splitlines())
    jscs = matrices_from_counts(rows, "JSCS")
    ent = matrices_from_counts(rows, "Entropy")
    labels = [f"JSCS {y}" for y in rv.JSCS_YEARS] + ["JSCS cum"] \
        + [f"Entropy {y}" for y in rv.ENT_YEARS] + ["Entropy cum"]

    print(f"{'block':<12} {'column':<12} {'population':>10} {'sample':>10} "
          f"{'published':>10}  match")
    for block in ("submitted", "accepted", "conditional"):
        vectors = columns_for(block, *jscs) + columns_for(block, *ent)
        published = rv.T5[block]["gi"]
        for label, vec, pub in zip(labels, vectors, published):
            values = [v for v in vec if v is not None]
            pop = gini(values)
            sample = pop * len(values) / (len(values) - 1)
            flag = "yes" if abs(pop - pub) <= 1e-3 else "NO"
            print(f"{block:<12} {label:<12} {pop:>10.5f} {sample:>10.5f} "
                  f"{pub:>10.5f}  {flag}")


if __name__ == "__main__":
    main()
