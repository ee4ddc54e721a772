"""Report assembly: six analysis tables with CSV, JSON, and Markdown forms.

The documents mirror a fixed publication layout: submitted shares (t1),
accepted shares (t2), conditional acceptance probabilities (t3), monthly
information-entropy terms of the conditionals (t4), the index block (t5),
and the dominant Fourier peaks (t6).

`build_bundle` computes each footer and index row once, as a (row label,
value) pair of its column; `render` lays the rows out as CSV, Markdown or
JSON at `AnalysisOptions.precision` and computes no statistics.

One kernel, `_rounded`, rounds every printed or quoted number, a row or
column at a time: a document row, in every format, or an index-block
input column per call.

Index-block inputs are taken from the tables at their quoted precision:
shares at the configured precision, acceptance ratios at the four decimal
places the reference layout quotes them with (rounded, then renormalized
where a distribution is required; conditional diversities use the raw
rounded ratios). This keeps the index table arithmetically consistent
with the share and conditional tables as quoted.
"""
import math
import operator
import sys
from functools import partial
from itertools import groupby
from typing import NamedTuple

from .indices import _check_orders, _left_sum, entropy, index_summary, monthly_entropy_terms
from .ingest import MONTHS_PER_YEAR, CountMatrix, DataError, _check_type
from .probability import MonthTable, conditional, normalize, shares
from .spectral import top_peaks
from .stats import _check_finite, _check_sigma, chi_square_uniform, describe, footer_statistics

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
# the rounding rules of _rounded, equal to decimal's constants of these names;
# decimal itself is imported only for the values its fast path does not take
ROUND_HALF_UP = "ROUND_HALF_UP"
ROUND_HALF_DOWN = "ROUND_HALF_DOWN"
# acceptance ratios are quoted one place short of shares in the reference
# layout; the index chain reads them at that quotation
RATIO_QUOTED_PLACES = 4


# places -> (bound, "%.{places}f", "%.{places+1}f", a quarter of 10**-places),
# one entry per precision the options accept. Below the bound,
# ulp(x) <= 2**-(10**(places+1)).bit_length() < 10**-(places+1), so the
# interval of reals that round to x holds at most one (places+1)-decimal
# string. The shortest repr and the exact binary value of x then lie on the
# same side of every rounding midpoint, unless the repr is that midpoint:
# exactly places+1 decimals ending in 5, which the probe format finds. Such
# an x moved a quarter unit toward the side the rule picks lies at least a
# tenth of a unit from every midpoint, so its fixed-point text is the
# midpoint rounded by the rule. Twice the bound would also be safe: there
# ulp(x) < 2 * 10**-(places+1), so the repr has at most places+1 decimals
# and is the nearest such string to x, on x's side of every midpoint, and a
# moved midpoint lands strictly between the midpoint and the next
# places-decimal value (2.9 M values next to midpoints there all agreed).
_FAST_ROUNDING = {places: (2.0 ** (53 - (10 ** (places + 1)).bit_length()),
                           f"%.{places}f", f"%.{places + 1}f", 0.25 / 10 ** places)
                  for places in range(1, 13)}

def _rounded(values, places: int, rounding: str) -> list:
    """Each value's repr rounded to `places` decimals (a key of _FAST_ROUNDING)
    by `rounding` (ROUND_HALF_UP or ROUND_HALF_DOWN) as fixed-point text, None
    kept. Every finite value is written in full; inf and NaN raise DataError."""
    bound, text, probe, quarter = _FAST_ROUNDING[places]
    away = quarter if rounding == ROUND_HALF_UP else -quarter
    out = []
    for x in values:
        if x is None:
            out.append(None)
        elif -bound < x < bound:
            tail = probe % x
            if tail[-1] == "5" and float(tail) == x:
                # away from zero for half up, toward it for half down; a midpoint is not 0
                x = float(x) + (away if x > 0 else -away)
            out.append(text % x)
        elif isinstance(x, int) and abs(x) > sys.float_info.max:
            # math.isfinite and float() would raise OverflowError
            raise DataError("cannot round an integer past the float range")
        elif not math.isfinite(x):
            raise DataError(f"cannot round {x!r}: not a finite number")
        else:
            from decimal import Context, Decimal
            # the largest float has 309 integer digits, and places is at most 12
            value = Decimal(repr(float(x))).quantize(
                Decimal(1).scaleb(-places), rounding=rounding, context=Context(prec=309 + 12))
            # "f": str() would write values below 1e-6 as 0E-7, 3E-7
            out.append(format(value, "f"))
    return out


def _diversity_label(q) -> str:
    """The t5 row label of Hill diversity at order q."""
    return f"D{q:g}"


class _OptionFields(NamedTuple):
    q_orders: tuple
    precision: int
    t_null: float
    z_sigma: float | None
    z_null: float | None


class AnalysisOptions(_OptionFields):
    __slots__ = ()

    def __new__(cls, q_orders: tuple = (1.0, 2.0), precision: int = 5,
                t_null: float = 0.0833333, z_sigma: float | None = None,
                z_null: float | None = None):
        try:
            places = operator.index(precision)
        except TypeError:
            raise DataError("precision must be an integer") from None
        if places not in _FAST_ROUNDING:
            raise DataError("precision must lie in 1..12")
        # the parameter rules are those of the functions that read the values;
        # their ValueError is raised as DataError
        try:
            _check_orders(q_orders)
            q_orders = tuple(abs(q) if q == 0 else q for q in q_orders)  # -0.0 labels D-0
            # CSV and Markdown would hold two rows of one label, and JSON only the last
            first_orders = {}
            for q in q_orders:
                label = _diversity_label(q)
                if label in first_orders:
                    raise ValueError(f"diversity orders {first_orders[label]!r} and {q!r} "
                                     f"share the row label {label}")
                first_orders[label] = q
            if (z_sigma is None) != (z_null is None):
                raise ValueError("z test needs both a sigma and a null value")
            _check_finite("t null", t_null)
            if z_sigma is not None:
                _check_finite("z null", z_null)
                _check_sigma(z_sigma)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        return super().__new__(cls, q_orders, places, t_null, z_sigma, z_null)

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
    rows = table.counts if isinstance(table, CountMatrix) else table.per_year
    return [*zip(*rows), table.cumulated]

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
    return _left_sum([v for v in col if v is not None])

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
    # the inputs are quoted with halves toward zero, the rule by which the
    # reference tables resolve exact ties (17/32 is quoted 0.5312 and 30/64
    # 0.4687); rendered output keeps halves away from zero
    places = RATIO_QUOTED_PLACES if ratios else options.precision
    rounded = tuple(None if text is None else float(text)
                    for text in _rounded(vector, places, ROUND_HALF_DOWN))
    summary = index_summary(normalize(rounded), options.q_orders, rounded if ratios else None)
    return [*zip(map(_diversity_label, options.q_orders), summary.diversities),
            ("exp_entropy", summary.exp_entropy), ("theil", summary.theil),
            ("hhi", summary.hhi), ("gini", summary.gini)]


def build_bundle(submitted: CountMatrix, accepted: CountMatrix,
                 options: AnalysisOptions | None = None,
                 journal: str = "") -> AnalysisBundle:
    """Assemble every table for one journal's (submitted, accepted) pair."""
    if options is None:
        options = AnalysisOptions()
    _check_type(options, AnalysisOptions)
    # shares checks each matrix's type before its years are read
    sub_shares = shares(submitted)
    acc_shares = shares(accepted)
    cond = conditional(submitted, accepted)
    years = submitted.years
    labels = tuple(str(y) for y in years) + (f"[{years[0]}-{years[-1]}]",)
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


def _json_number(text: str | None) -> str:
    """repr(float(text)) for the fixed-point text of _rounded, null for None.

    Stripped of its trailing zeros, text of at most 16 characters has at
    most 15 significant digits and an integer part below 10**15, so the
    float it reads as gives back the same digits, and float.__repr__ writes
    them in fixed point from 1e-4 on. Other text takes the round trip.
    """
    if text is None:
        return "null"
    short = text.rstrip("0")
    if len(short) > 16 or short.startswith(("0.0000", "-0.0000")):
        return repr(float(text))
    return short + "0" if short[-1] == "." else short


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
    return dict(zip(DOCUMENT_NAMES, (
        _month_layout(_columns(bundle.submitted), bundle.submitted_footers, labels),
        _month_layout(_columns(bundle.accepted), bundle.accepted_footers, labels),
        _month_layout(_columns(bundle.conditional), bundle.conditional_footers, labels),
        _month_layout(bundle.entropy_terms, bundle.entropy_footers, labels),
        _Layout(("block", "index"), labels, index_rows),
        _Layout(("series", "rank"), _PEAK_COLUMNS, peak_rows),
    )))


def _csv_text(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in (header, *rows))

def _md_text(header, rows) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    def line(cells):
        return "| " + " | ".join(map(str.ljust, cells, widths)) + " |"
    parts = [line(header),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    parts.extend(map(line, rows))
    return "\n".join(parts) + "\n"


def _json_array(items, depth: int, brackets: str = "[]") -> str:
    """json.dumps(indent=2)'s text, at nesting `depth`, of a non-empty array
    of the items' JSON text (of an object for brackets "{}")."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]

def _json_object(pairs, depth: int) -> str:
    """The same of a non-empty object of (key, JSON text) pairs.

    json writes indented text with its pure-Python encoder, as its C encoder
    writes compact text only; the writers below hand this the text directly.
    """
    return _json_array(['"' + key + '": ' + text for key, text in pairs], depth, "{}")


def _column_objects(rows, depth: int) -> list:
    """Per value column of the (row keys, JSON texts) rows, the JSON object
    at `depth` of each row's last key and its text in that column."""
    names = [keys[-1] for keys, _ in rows]
    return [_json_object(zip(names, texts), depth) for texts in zip(*[t for _, t in rows])]

def _json_columns(value_names, rows) -> str:
    """t1-t4: per column, its "months" rows and its "footer" rows."""
    months = _column_objects(rows[:MONTHS_PER_YEAR], 3)
    footers = _column_objects(rows[MONTHS_PER_YEAR:], 3)
    return _json_object([(label, _json_object([("months", m), ("footer", f)], 2))
                         for label, m, f in zip(value_names, months, footers)], 1)

def _json_blocks(value_names, rows) -> str:
    """t5: per block, its "columns" of the block's index rows."""
    blocks = []
    for block, block_rows in groupby(rows, key=lambda row: row[0][0]):
        columns = zip(value_names, _column_objects(list(block_rows), 4))
        blocks.append((block, _json_object([("columns", _json_object(columns, 3))], 2)))
    return _json_object(blocks, 1)

def _json_series(value_names, rows) -> str:
    """t6: per series, its peaks in rank order."""
    series = []
    for name, series_rows in groupby(rows, key=lambda row: row[0][0]):
        peaks = [_json_object([("rank", repr(rank)), *zip(value_names, texts)], 3)
                 for (_, rank), texts in series_rows]
        series.append((name, _json_array(peaks, 2)))
    return _json_object(series, 1)

# each layout's JSON body: its key in the document and its writer
_JSON_BODIES = {("row",): ("columns", _json_columns), ("block", "index"): ("blocks", _json_blocks),
                ("series", "rank"): ("series", _json_series)}


def render(bundle: AnalysisBundle, format: str) -> list:
    """Render the six documents in the requested format at the bundle's precision.

    Each row's values are rounded once, halves away from zero, and that text
    is written as is in CSV and Markdown (NA for None) and as a JSON number
    (null for None). No label needs quoting or escaping in any format: month
    names, footer and index row names, D{q:g}, years, [y0-y1], block, series
    and peak names and NA hold no comma, quote, backslash, pipe, line end or
    non-ASCII character. Only the JSON journal value is escaped.
    """
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}, expected one of {', '.join(FORMATS)}")
    _check_type(bundle, AnalysisBundle)
    if not bundle.years or not bundle.column_labels:
        raise DataError("empty bundle")
    places = bundle.options.precision

    if format == "json":
        from json.encoder import encode_basestring_ascii
        head = [("journal", encode_basestring_ascii(bundle.journal)),
                ("years", _json_array(map(repr, bundle.years), 1)), ("precision", repr(places))]
    documents = []
    for name, layout in _layouts(bundle).items():
        rows = [(keys, _rounded(values, places, ROUND_HALF_UP)) for keys, values in layout.rows]
        if format == "json":
            key, write = _JSON_BODIES[layout.keys]
            body = write(layout.value_names,
                         [(keys, list(map(_json_number, texts))) for keys, texts in rows])
            text = _json_object([("name", '"' + name + '"'), *head, (key, body)], 0) + "\n"
        else:
            grid = [[*map(str, keys), *["NA" if text is None else text for text in texts]]
                    for keys, texts in rows]
            text = (_csv_text if format == "csv" else _md_text)(
                [*layout.keys, *layout.value_names], grid)
        documents.append(NamedDocument(name, text))
    return documents
