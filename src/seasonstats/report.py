"""Report assembly: six analysis tables with CSV, JSON, and Markdown forms.

The documents mirror a fixed publication layout: submitted shares (t1),
accepted shares (t2), conditional acceptance probabilities (t3), monthly
information-entropy terms of the conditionals (t4), the index block (t5),
and the dominant Fourier peaks (t6).

`build_bundle` computes each footer and index row once, as a (row label,
value) pair of its column; `render` lays the rows out as CSV, Markdown or
JSON at `AnalysisOptions.precision` and computes no statistics.

Index-block inputs are taken from the tables at their quoted precision:
shares at the configured precision, acceptance ratios at the four decimal
places the reference layout quotes them with (rounded, then renormalized
where a distribution is required; conditional diversities use the raw
rounded ratios). This keeps the index table arithmetically consistent
with the share and conditional tables as quoted.
"""
from __future__ import annotations

import csv
import io
import math
import operator
from functools import partial
from decimal import ROUND_HALF_DOWN, ROUND_HALF_UP, Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .indices import entropy, index_summary, monthly_entropy_terms
from .ingest import MONTHS_PER_YEAR, CountMatrix, DataError
from .probability import MonthTable, conditional, normalize, shares
from .spectral import top_peaks
from .stats import chi_square_uniform, describe, footer_statistics

# perfbench/tracing.py wraps functions at the names this module looks up.
# These stay bound for it, although the footers and the index block now
# reach them through footer_statistics and index_summary.
from .indices import diversity, exponential_entropy, gini, hhi, theil  # noqa: F401
from .stats import t_one_sample, z_one_sample  # noqa: F401

MONTH_LABELS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
DOCUMENT_NAMES = ("t1_submitted", "t2_accepted", "t3_conditional",
                  "t4_monthly_entropy", "t5_indices", "t6_fourier")
FORMATS = ("csv", "json", "md")
TOP_PEAK_COUNT = 2
# acceptance ratios are quoted one place short of shares in the reference
# layout; the index chain reads them at that quotation
RATIO_QUOTED_PLACES = 4


def _quantize(x: float, places: int, rounding: str) -> Decimal:
    """repr(x) rounded to `places` decimals; InvalidOperation if x is not finite."""
    value = Decimal(repr(float(x)))
    if value.is_nan():
        # quantize passes a quiet NaN through, where an infinity raises
        raise InvalidOperation(f"cannot round {value}")
    return value.quantize(Decimal(1).scaleb(-places), rounding=rounding)

# places -> (bound, "%.{places}f", "%.{places+1}f"). Below the bound,
# ulp(x) <= 2**-(10**(places+1)).bit_length() < 10**-(places+1), so the
# interval of reals that round to x holds at most one (places+1)-decimal
# string. The shortest repr and the exact binary value of x then lie on the
# same side of every rounding midpoint, unless the repr is that midpoint:
# exactly places+1 decimals ending in 5, which the probe format finds.
_FAST_ROUNDING = {places: (2.0 ** (53 - (10 ** (places + 1)).bit_length()),
                           f"%.{places}f", f"%.{places + 1}f")
                  for places in range(1, 13)}

def _fast_text(x: float, places: int) -> "str | None":
    """x correctly rounded to `places` decimals, or None where that may differ
    from rounding repr(x): a tie, a large or non-finite x, or unlisted places."""
    entry = _FAST_ROUNDING.get(places)
    if entry is None:
        return None
    bound, text, probe = entry
    if not -bound < x < bound:
        return None
    probe %= x
    if probe[-1] == "5" and float(probe) == x:
        return None
    return text % x

def quote_half_down(x: float, places: int) -> float:
    """Round repr(x) to `places` decimals, halves toward zero.

    The reference tables resolve exact ties this way (17/32 is quoted
    0.5312 and 30/64 is quoted 0.4687), so the index chain quotes its
    inputs with the same rule; rendered output keeps the
    half-away-from-zero convention.
    """
    text = _fast_text(x, places)
    if text is None:
        return float(_quantize(x, places, ROUND_HALF_DOWN))
    return float(text)

def format_number(x: float, places: int) -> str:
    """repr(x) rounded to `places` decimals, halves away from zero, as fixed-point text."""
    text = _fast_text(x, places)
    if text is None:
        # "f": str() would write values below 1e-6 as 0E-7, 3E-7
        return format(_quantize(x, places, ROUND_HALF_UP), "f")
    return text


def _diversity_label(q) -> str:
    """The t5 row label of Hill diversity at order q."""
    return f"D{q:g}"


class _OptionFields(NamedTuple):
    q_orders: tuple
    precision: int
    t_null: float
    z_sigma: "float | None"
    z_null: "float | None"


class AnalysisOptions(_OptionFields):
    __slots__ = ()

    def __new__(cls, q_orders: tuple = (1.0, 2.0), precision: int = 5,
                t_null: float = 0.0833333, z_sigma: "float | None" = None,
                z_null: "float | None" = None):
        try:
            places = operator.index(precision)
        except TypeError:
            raise DataError("precision must be an integer") from None
        if not 1 <= places <= 12:
            raise DataError("precision must lie in 1..12")
        if any(q < 0 for q in q_orders):
            raise DataError("diversity orders must be non-negative")
        q_orders = tuple(abs(q) if q == 0 else q for q in q_orders)  # -0.0 labels D-0
        # CSV and Markdown would hold two rows of one label, and JSON only the last
        first_orders = {}
        for q in q_orders:
            label = _diversity_label(q)
            if label in first_orders:
                raise DataError(f"diversity orders {first_orders[label]!r} and {q!r} "
                                f"share the row label {label}")
            first_orders[label] = q
        if (z_sigma is None) != (z_null is None):
            raise DataError("z test needs both a sigma and a null value")
        for name, value in (("t null", t_null), ("z null", z_null), ("z sigma", z_sigma)):
            if value is not None and not math.isfinite(value):
                raise DataError(f"{name} value must be finite")
        if z_sigma is not None and z_sigma <= 0:
            raise DataError("z sigma must be positive")
        return super().__new__(cls, q_orders, precision, t_null, z_sigma, z_null)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both run the checks in __new__
        return cls(*iterable)


class NamedDocument(NamedTuple):
    name: str
    text: str


class AnalysisBundle(NamedTuple):
    journal: str
    years: tuple
    column_labels: tuple  # per-year labels plus the cumulated label
    submitted: MonthTable  # shares
    accepted: MonthTable  # shares
    conditional: MonthTable  # acceptance ratios, None where nothing was submitted
    # each *_footers entry is one column's footer rows, a list of
    # (row label, value) pairs in document order
    submitted_footers: tuple
    accepted_footers: tuple
    conditional_footers: tuple
    entropy_terms: tuple  # per column, 12 terms with None preserved
    entropy_footers: tuple
    index_blocks: tuple  # (block name, per-column lists of (row label, value)) pairs
    peaks: tuple  # (series name, list of SpectralPeak) pairs
    options: AnalysisOptions


def _columns(table) -> list:
    """Per-year columns of a count, share or ratio table, then the cumulated one."""
    return [table.column(j) for j in range(len(table.years))] + [table.cumulated]

def _test_rows(name, result) -> list:
    return [(name, result.statistic), (f"{name}_p", result.p_value)]

def _band_rows(stats) -> list:
    return [("mean", stats.mean), ("std_dev", stats.std_dev),
            ("mean_minus_2sd", stats.band_low), ("mean_plus_2sd", stats.band_high)]

def _tested_rows(col, options) -> list:
    """The t rows, the z rows when a z test is configured, then the band rows."""
    t, z, stats = footer_statistics(col, options.t_null, options.z_null, options.z_sigma)
    rows = _test_rows("t", t)
    if z is not None:
        rows += _test_rows("z", z)
    return rows + _band_rows(stats)

def _defined_sum(col) -> float:
    return sum(v for v in col if v is not None)

def _share_footer(col, counts, options) -> list:
    return [*_test_rows("chi_square", chi_square_uniform(counts)),
            ("entropy", entropy(col)), *_tested_rows(col, options)]

def _conditional_footer(col, options) -> list:
    # cond_entropy is the entropy of the raw ratio column
    return [("sum", _defined_sum(col)), ("cond_entropy", entropy(col)),
            *_tested_rows(col, options)]

def _terms_footer(terms) -> list:
    return [("sum", _defined_sum(terms)), *_band_rows(describe(terms))]

def _index_column(vector, options, ratios: bool) -> list:
    places = RATIO_QUOTED_PLACES if ratios else options.precision
    rounded = tuple(None if v is None else quote_half_down(v, places)
                    for v in vector)
    summary = index_summary(normalize(rounded), options.q_orders, rounded if ratios else None)
    return [*zip(map(_diversity_label, options.q_orders), summary.diversities),
            ("exp_entropy", summary.exp_entropy), ("theil", summary.theil),
            ("hhi", summary.hhi), ("gini", summary.gini)]


def build_bundle(submitted: CountMatrix, accepted: CountMatrix,
                 options: "AnalysisOptions | None" = None,
                 journal: str = "") -> AnalysisBundle:
    """Assemble every table for one journal's (submitted, accepted) pair."""
    if options is None:
        options = AnalysisOptions()
    years = submitted.years
    labels = tuple(str(y) for y in years) + (f"[{years[0]}-{years[-1]}]",)

    sub_shares = shares(submitted)
    acc_shares = shares(accepted)
    cond = conditional(submitted, accepted)
    sub_cols, acc_cols, cond_cols = _columns(sub_shares), _columns(acc_shares), _columns(cond)

    def per_column(table_name, fn, *column_lists):
        """fn over each column; a ValueError becomes a DataError naming table and column."""
        results = []
        for label, *args in zip(labels, *column_lists):
            try:
                results.append(fn(*args))
            except ValueError as exc:
                raise DataError(f"{table_name}, column {label}: {exc}") from exc
        return tuple(results)

    share_footer = partial(_share_footer, options=options)
    sub_footers = per_column("t1_submitted", share_footer, sub_cols, _columns(submitted))
    acc_footers = per_column("t2_accepted", share_footer, acc_cols, _columns(accepted))
    cond_footers = per_column("t3_conditional", partial(_conditional_footer, options=options),
                              cond_cols)
    terms = tuple(monthly_entropy_terms(col) for col in cond_cols)
    terms_footers = per_column("t4_monthly_entropy", _terms_footer, terms)
    index_blocks = tuple(
        (block, per_column(f"t5_indices {block}",
                           partial(_index_column, options=options, ratios=ratios), cols))
        for block, cols, ratios in (("submitted", sub_cols, False),
                                    ("accepted", acc_cols, False),
                                    ("conditional", cond_cols, True))
    )

    peaks = (
        ("submitted", top_peaks(submitted.series(), TOP_PEAK_COUNT)),
        ("accepted", top_peaks(accepted.series(), TOP_PEAK_COUNT)),
    )

    return AnalysisBundle(
        journal=journal,
        years=years,
        column_labels=labels,
        submitted=sub_shares,
        accepted=acc_shares,
        conditional=cond,
        submitted_footers=sub_footers,
        accepted_footers=acc_footers,
        conditional_footers=cond_footers,
        entropy_terms=terms,
        entropy_footers=terms_footers,
        index_blocks=index_blocks,
        peaks=peaks,
        options=options,
    )


def _fmt(value, places):
    if value is None:
        return "NA"
    return format_number(value, places)

def _json_number(text: str) -> str:
    """repr(float(text)) for the fixed-point text of format_number.

    Stripped of its trailing zeros, text of at most 16 characters has at
    most 15 significant digits and an integer part below 10**15, so the
    float it reads as gives back the same digits, and float.__repr__ writes
    them in fixed point from 1e-4 on. Other text takes the round trip.
    """
    short = text.rstrip("0")
    if len(short) > 16 or short.startswith(("0.0000", "-0.0000")):
        return repr(float(text))
    return short + "0" if short[-1] == "." else short

def _jnum(value, places):
    """The JSON text of a value as format_number rounds it, or None."""
    if value is None:
        return None
    return _json_number(format_number(value, places))


_PEAK_COLUMNS = ("frequency", "period_months", "amplitude")


class _Layout(NamedTuple):
    keys: tuple  # names of the key columns
    value_names: tuple  # names of the value columns
    rows: list  # (row keys, raw values) pairs, one value per value column


def _labelled_rows(columns, keys=()) -> list:
    """One row per label of the per-column (label, value) lists, in their order."""
    return [((*keys, label), tuple(col[i][1] for col in columns))
            for i, (label, _) in enumerate(columns[0])]

def _month_layout(columns, footers, labels) -> _Layout:
    """Twelve month rows, then the footer rows."""
    rows = [((MONTH_LABELS[m],), tuple(col[m] for col in columns))
            for m in range(MONTHS_PER_YEAR)]
    return _Layout(("row",), labels, rows + _labelled_rows(footers))

def _layouts(bundle) -> dict:
    """Every document's rows, in raw values, keyed by document name."""
    labels = bundle.column_labels
    index_rows = [row for block, cols in bundle.index_blocks
                  for row in _labelled_rows(cols, (block,))]
    peak_rows = [((series, rank), (p.frequency, p.period, p.amplitude))
                 for series, peaks in bundle.peaks
                 for rank, p in enumerate(peaks, start=1)]
    return {
        "t1_submitted": _month_layout(_columns(bundle.submitted), bundle.submitted_footers, labels),
        "t2_accepted": _month_layout(_columns(bundle.accepted), bundle.accepted_footers, labels),
        "t3_conditional": _month_layout(_columns(bundle.conditional), bundle.conditional_footers,
                                        labels),
        "t4_monthly_entropy": _month_layout(bundle.entropy_terms, bundle.entropy_footers, labels),
        "t5_indices": _Layout(("block", "index"), labels, index_rows),
        "t6_fourier": _Layout(("series", "rank"), _PEAK_COLUMNS, peak_rows),
    }


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()

def _md_text(header, rows) -> str:
    table = [header] + rows
    widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
    def line(cells):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    parts = [line(header),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    parts.extend(line(row) for row in rows)
    return "\n".join(parts) + "\n"

def _grid(layout: _Layout, places):
    header = [*layout.keys, *layout.value_names]
    rows = [[*map(str, keys), *(_fmt(v, places) for v in values)]
            for keys, values in layout.rows]
    return header, rows


def _nest_columns(layout: _Layout, places):
    def cells(rows, j):
        return {row: _jnum(values[j], places) for (row,), values in rows}
    months, footers = layout.rows[:MONTHS_PER_YEAR], layout.rows[MONTHS_PER_YEAR:]
    # JSON footers list z and z_p last, after the band rows, where the grids
    # put them after t_p; the JSON bytes are part of the contract
    footers.sort(key=lambda row: row[0][0] in ("z", "z_p"))
    return {"columns": {label: {"months": cells(months, j), "footer": cells(footers, j)}
                        for j, label in enumerate(layout.value_names)}}

def _nest_blocks(layout: _Layout, places):
    blocks = {}
    for (block, index), values in layout.rows:
        columns = blocks.setdefault(
            block, {"columns": {label: {} for label in layout.value_names}})["columns"]
        for label, v in zip(layout.value_names, values):
            columns[label][index] = _jnum(v, places)
    return {"blocks": blocks}

def _nest_series(layout: _Layout, places):
    series = {}
    for (name, rank), values in layout.rows:
        entry = {"rank": rank}
        entry.update((col, _jnum(v, places)) for col, v in zip(layout.value_names, values))
        series.setdefault(name, []).append(entry)
    return {"series": series}

_NESTERS = {("row",): _nest_columns, ("block", "index"): _nest_blocks,
            ("series", "rank"): _nest_series}

# with default arguments json writes these types with these functions
_JSON_SCALARS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii,
                 type(None): lambda _: "null"}
# render's documents hold every string and number leaf as its JSON text
# already (numbers from _jnum), which is written as it is
_WRITTEN_LEAVES = {**_JSON_SCALARS, str: str}

def _json_text(value, indent="", scalars=_JSON_SCALARS) -> str:
    """json.dumps(value, indent=2) for None, int, finite float and str, nested in
    lists and str-keyed dicts; TypeError for any other type, bool and tuple included.
    `scalars` maps each leaf type to the function that writes it.

    json writes indented text with its pure-Python encoder, as its C encoder
    writes compact text only; this does the same work in fewer calls.
    """
    scalar = scalars.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON object key {key!r} is not a str")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(item, inner, scalars))
        opening, closing = "{", "}"
    elif type(value) is list:
        if not value:
            return "[]"
        items = [_json_text(item, inner, scalars) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + closing


def render(bundle: AnalysisBundle, format: str) -> list:
    """Render the six documents in the requested format at the bundle's precision."""
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}, expected one of {', '.join(FORMATS)}")
    if not bundle.years or not bundle.column_labels:
        raise DataError("empty bundle")
    places = bundle.options.precision

    documents = []
    for name, layout in _layouts(bundle).items():
        if format == "json":
            body = {"name": encode_basestring_ascii(name),
                    "journal": encode_basestring_ascii(bundle.journal),
                    "years": list(bundle.years), "precision": places}
            body.update(_NESTERS[layout.keys](layout, places))
            text = _json_text(body, scalars=_WRITTEN_LEAVES) + "\n"
        else:
            text = (_csv_text if format == "csv" else _md_text)(*_grid(layout, places))
        documents.append(NamedDocument(name, text))
    return documents
