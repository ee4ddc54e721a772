"""Command-line interface: analyze one journal's monthly event data.

Exit codes: 0 on success, 1 on validation problems (arguments or data),
2 on I/O problems (unreadable input, unwritable output).
"""
import argparse
import functools
import gc
import sys
from pathlib import Path

from . import __version__
from .ingest import (MAXYEAR, MINYEAR, MONTHS_PER_YEAR, DataError, _plain_numbers, aggregate,
                     matrices_from_counts, parse_counts, parse_events)
from .report import FORMATS, AnalysisOptions, build_bundle, render

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; validation errors are exit 1 here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(convert):
    """`convert` (int or float) of `_plain_numbers` text, under its name for argparse's messages."""
    def number(text: str):
        if not _plain_numbers(text):
            raise ValueError(text)
        return convert(text)
    number.__name__ = convert.__name__
    return number


_int, _float = _number(int), _number(float)


def _parse_years(text: str) -> tuple:
    first, colon, last = text.partition(":")
    try:
        first = _int(first)
        last = _int(last) if colon else first
    except ValueError:
        raise DataError(f"invalid year range {text!r}, expected y0:y1") from None
    if last < first:
        raise DataError(f"invalid year range {text!r}: end before start")
    if first < MINYEAR or last > MAXYEAR:
        raise DataError(f"invalid year range {text!r}: years must lie in {MINYEAR}..{MAXYEAR}")
    return tuple(range(first, last + 1))

def _parse_orders(text: str) -> tuple:
    try:
        return tuple(_float(part) for part in text.split(","))
    except ValueError:
        raise DataError(f"invalid diversity orders {text!r}, expected a comma list") from None


def _warn_coverage(submitted, warn) -> None:
    """Pass `warn` a warning when the counted events start after January of
    the first year or stop before December of the last."""
    series = submitted.series()
    used = [i for i, count in enumerate(series) if count]
    def month(i):
        return f"{submitted.years[i // MONTHS_PER_YEAR]}-{i % MONTHS_PER_YEAR + 1:02d}"
    if used[0] > 0 or used[-1] < len(series) - 1:
        warn(f"analyze: warning: events run from {month(used[0])} to {month(used[-1])}, "
             f"not {month(0)} to {month(len(series) - 1)}; the months outside count as zero")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The `analyze` parser, built on the first call and shared by every later
    one; parsing leaves it unchanged."""
    defaults = AnalysisOptions()
    parser = _Parser(prog="analyze",
                     description="Seasonal analysis of monthly submission and acceptance counts.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--format", required=True, choices=("events", "counts"),
                        help="input shape: event rows or pre-aggregated counts")
    parser.add_argument("--journal", required=True, help="journal label to select")
    parser.add_argument("--years", default=None,
                        help="inclusive year range y0:y1 (default: the journal's first to last year)")
    parser.add_argument("--q", default=",".join(f"{q:g}" for q in defaults.q_orders),
                        help="comma list of Hill diversity orders (default %(default)s)")
    parser.add_argument("--precision", type=_int, default=defaults.precision,
                        help="decimal places in rendered tables (default %(default)s)")
    parser.add_argument("--emit", default="csv", choices=FORMATS,
                        help="output document format (default csv)")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--t-null", type=_float, default=defaults.t_null, dest="t_null",
                        help="hypothesized mean for the t rows (default %(default)s)")
    parser.add_argument("--z-sigma", type=_float, default=None, dest="z_sigma",
                        help="known sigma for the z rows (needs --z-null)")
    parser.add_argument("--z-null", type=_float, default=None, dest="z_null",
                        help="hypothesized mean for the z rows (needs --z-sigma)")
    return parser


def _analyze(text: str, args, warn) -> list:
    """The `NamedDocument`s that `args` asks for from the input `text`.

    Raises DataError on a bad argument or bad data. The coverage warning of
    an events selection goes to `warn` as soon as it is found, so it comes
    before any later error. perfbench/tracing.py times the stages by
    replacing their names in this module, so they are called by those names.
    """
    years = None if args.years is None else _parse_years(args.years)
    if args.format == "events":
        events = parse_events(text, args.journal)
        if not events:
            raise DataError(f"empty selection: no rows for journal {args.journal!r}")
        submitted, accepted = aggregate(events, years)
        _warn_coverage(submitted, warn)
    else:
        submitted, accepted = matrices_from_counts(parse_counts(text), args.journal, years)
    options = AnalysisOptions(q_orders=_parse_orders(args.q), precision=args.precision,
                              t_null=args.t_null, z_sigma=args.z_sigma, z_null=args.z_null)
    return render(build_bundle(submitted, accepted, options, journal=args.journal), args.emit)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

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
        documents = _analyze(text, args, functools.partial(print, file=sys.stderr))
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


def run(argv=None) -> int:
    """`main(argv)` for a process that exits when it returns: the entry of the
    `analyze` script and of `python -m seasonstats`.

    Every object then alive is frozen into the permanent generation, which the
    interpreter's full collections at exit skip; reference counting, atexit
    handlers and the flush of stdout and stderr still run. `main` never
    freezes, so a process that runs many analyses keeps a collectable heap.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
