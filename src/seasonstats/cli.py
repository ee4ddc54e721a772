"""Command-line interface: analyze one journal's monthly event data.

Exit codes: 0 on success, 1 on validation problems (arguments or data),
2 on I/O problems (unreadable input, unwritable output).
"""
from __future__ import annotations

import argparse
import functools
import sys
from datetime import MAXYEAR, MINYEAR
from pathlib import Path

from . import __version__
from .ingest import (MONTHS_PER_YEAR, DataError, aggregate, matrices_from_counts, parse_counts,
                     parse_events)
from .report import FORMATS, AnalysisOptions, build_bundle, render

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; validation errors are exit 1 here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_years(text: str) -> tuple:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            first = last = int(parts[0])
        elif len(parts) == 2:
            first, last = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise DataError(f"invalid year range {text!r}, expected y0:y1") from None
    if last < first:
        raise DataError(f"invalid year range {text!r}: end before start")
    if first < MINYEAR or last > MAXYEAR:
        raise DataError(f"invalid year range {text!r}: years must lie in {MINYEAR}..{MAXYEAR}")
    return tuple(range(first, last + 1))

def _parse_orders(text: str) -> tuple:
    try:
        orders = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DataError(f"invalid diversity orders {text!r}, expected a comma list") from None
    return orders


def _coverage_warning(submitted) -> "str | None":
    """A warning when the counted events start after January of the first year
    or stop before December of the last; None when they reach both ends."""
    series = submitted.series()
    used = [i for i, count in enumerate(series) if count]
    if used[0] == 0 and used[-1] == len(series) - 1:
        return None
    def month(i):
        return f"{submitted.years[i // MONTHS_PER_YEAR]}-{i % MONTHS_PER_YEAR + 1:02d}"
    return (f"analyze: warning: events run from {month(used[0])} to {month(used[-1])}, "
            f"not {month(0)} to {month(len(series) - 1)}; the months outside count as zero")


def build_parser() -> _Parser:
    parser = _Parser(prog="analyze",
                     description="Seasonal analysis of monthly submission and acceptance counts.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--format", required=True, choices=("events", "counts"),
                        help="input shape: event rows or pre-aggregated counts")
    parser.add_argument("--journal", required=True, help="journal label to select")
    parser.add_argument("--years", default=None,
                        help="inclusive year range y0:y1 (default: the journal's first to last year)")
    parser.add_argument("--q", default="1,2",
                        help="comma list of Hill diversity orders (default 1,2)")
    parser.add_argument("--precision", type=int, default=5,
                        help="decimal places in rendered tables (default 5)")
    parser.add_argument("--emit", default="csv", choices=FORMATS,
                        help="output document format (default csv)")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--t-null", type=float, default=0.0833333, dest="t_null",
                        help="hypothesized mean for the t rows (default 1/12)")
    parser.add_argument("--z-sigma", type=float, default=None, dest="z_sigma",
                        help="known sigma for the z rows (needs --z-null)")
    parser.add_argument("--z-null", type=float, default=None, dest="z_null",
                        help="hypothesized mean for the z rows (needs --z-sigma)")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser `main` uses, built on the first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports often start with
        with open(args.input, encoding="utf-8-sig", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        print(f"analyze: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"analyze: cannot read input: {exc}", file=sys.stderr)
        return 2

    try:
        years = None if args.years is None else _parse_years(args.years)
        if args.format == "events":
            events = parse_events(text, args.journal)
            if not events:
                raise DataError(f"empty selection: no rows for journal {args.journal!r}")
            submitted, accepted = aggregate(events, years)
            warning = _coverage_warning(submitted)
            if warning:
                print(warning, file=sys.stderr)
        else:
            rows = parse_counts(text)
            submitted, accepted = matrices_from_counts(rows, args.journal, years)
        options = AnalysisOptions(
            q_orders=_parse_orders(args.q),
            precision=args.precision,
            t_null=args.t_null,
            z_sigma=args.z_sigma,
            z_null=args.z_null,
        )
        bundle = build_bundle(submitted, accepted, options, journal=args.journal)
        documents = render(bundle, args.emit)
    except DataError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for doc in documents:
            (out_dir / f"{doc.name}.{args.emit}").write_text(doc.text, encoding="utf-8")
    except OSError as exc:
        print(f"analyze: cannot write output: {exc}", file=sys.stderr)
        return 2

    print(f"wrote {len(documents)} documents to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
