"""Report assembly: six analysis tables with CSV, JSON, and Markdown forms.

The documents mirror a fixed publication layout: submitted shares (t1),
accepted shares (t2), conditional acceptance probabilities (t3), monthly
information-entropy terms of the conditionals (t4), the index block (t5),
and the dominant Fourier peaks (t6).

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
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_DOWN, ROUND_HALF_UP, Decimal
from operator import attrgetter

from .indices import diversity, entropy, exponential_entropy, gini, hhi, monthly_entropy_terms, theil
from .ingest import MONTHS_PER_YEAR, CountMatrix, DataError, _check_pair
from .probability import ConditionalTable, ShareTable, conditional, normalize, shares
from .spectral import SpectralPeak, top_peaks
from .stats import DescriptiveStats, TestResult, chi_square_uniform, describe, t_one_sample, z_one_sample

MONTH_LABELS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
DOCUMENT_NAMES = ("t1_submitted", "t2_accepted", "t3_conditional",
                  "t4_monthly_entropy", "t5_indices", "t6_fourier")
FORMATS = ("csv", "json", "md")
TOP_PEAK_COUNT = 2
# acceptance ratios are quoted one place short of shares in the reference
# layout; the index chain reads them at that quotation
RATIO_QUOTED_PLACES = 4


def quote_half_down(x: float, places: int) -> float:
    """Round to `places` decimals, halves toward zero.

    The reference tables resolve exact ties this way (17/32 is quoted
    0.5312 and 30/64 is quoted 0.4687), so the index chain quotes its
    inputs with the same rule; rendered output keeps the
    half-away-from-zero convention.
    """
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_DOWN))

def format_number(x: float, places: int) -> str:
    q = Decimal(1).scaleb(-places)
    # "f": str() would write values below 1e-6 as 0E-7, 3E-7
    return format(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_UP), "f")


@dataclass(frozen=True)
class AnalysisOptions:
    q_orders: tuple = (1.0, 2.0)
    precision: int = 5
    t_null: float = 0.0833333
    z_sigma: "float | None" = None
    z_null: "float | None" = None

    def __post_init__(self):
        if not 1 <= int(self.precision) <= 12:
            raise DataError("precision must lie in 1..12")
        if any(q < 0 for q in self.q_orders):
            raise DataError("diversity orders must be non-negative")
        if (self.z_sigma is None) != (self.z_null is None):
            raise DataError("z test needs both a sigma and a null value")
        for name, value in (("t null", self.t_null), ("z null", self.z_null),
                            ("z sigma", self.z_sigma)):
            if value is not None and not math.isfinite(value):
                raise DataError(f"{name} value must be finite")
        if self.z_sigma is not None and self.z_sigma <= 0:
            raise DataError("z sigma must be positive")


@dataclass(frozen=True)
class ShareFooter:
    chi_square: TestResult
    entropy: float
    t: TestResult
    z: "TestResult | None"
    stats: DescriptiveStats


@dataclass(frozen=True)
class ConditionalFooter:
    total: float  # sum of the defined ratios
    cond_entropy: float  # entropy of the raw ratio column
    t: TestResult
    z: "TestResult | None"
    stats: DescriptiveStats


@dataclass(frozen=True)
class TermsFooter:
    total: float  # sum of the defined terms
    stats: DescriptiveStats


@dataclass(frozen=True)
class IndexColumn:
    label: str
    diversities: tuple  # (order q, value) pairs
    exponential_entropy: float
    theil: float
    hhi: float
    gini: float


@dataclass(frozen=True)
class NamedDocument:
    name: str
    text: str


@dataclass(frozen=True)
class AnalysisBundle:
    journal: str
    years: tuple
    column_labels: tuple  # per-year labels plus the cumulated label
    submitted: ShareTable
    accepted: ShareTable
    conditional: ConditionalTable
    submitted_footers: tuple
    accepted_footers: tuple
    conditional_footers: tuple
    entropy_terms: tuple  # per column, 12 terms with None preserved
    entropy_footers: tuple
    index_blocks: tuple  # (block name, tuple of IndexColumn) pairs
    peaks: tuple  # (series name, list of SpectralPeak) pairs
    options: AnalysisOptions


def _columns(table) -> list:
    """Per-year columns of a count, share or ratio table, then the cumulated one."""
    return [table.column(j) for j in range(len(table.years))] + [table.cumulated]

def _share_footer(col, counts, options) -> ShareFooter:
    return ShareFooter(
        chi_square=chi_square_uniform(counts),
        entropy=entropy(col),
        t=t_one_sample(col, options.t_null),
        z=None if options.z_sigma is None else z_one_sample(col, options.z_null, options.z_sigma),
        stats=describe(col),
    )

def _conditional_footer(col, options) -> ConditionalFooter:
    return ConditionalFooter(
        total=sum(v for v in col if v is not None),
        cond_entropy=entropy(col),
        t=t_one_sample(col, options.t_null),
        z=None if options.z_sigma is None else z_one_sample(col, options.z_null, options.z_sigma),
        stats=describe(col),
    )

def _terms_footer(terms) -> TermsFooter:
    return TermsFooter(total=sum(v for v in terms if v is not None), stats=describe(terms))

def _index_column(label, vector, options, ratios: bool) -> IndexColumn:
    places = RATIO_QUOTED_PLACES if ratios else options.precision
    rounded = tuple(None if v is None else quote_half_down(v, places)
                    for v in vector)
    normalized = normalize(rounded)
    if ratios:
        divs = tuple((q, diversity(rounded, q)) for q in options.q_orders)
    else:
        divs = tuple((q, diversity(normalized, q)) for q in options.q_orders)
    return IndexColumn(
        label=label,
        diversities=divs,
        exponential_entropy=exponential_entropy(normalized),
        theil=theil(normalized),
        hhi=hhi(normalized),
        gini=gini(normalized),
    )


def build_bundle(submitted: CountMatrix, accepted: CountMatrix,
                 options: "AnalysisOptions | None" = None,
                 journal: str = "") -> AnalysisBundle:
    """Assemble every table for one journal's (submitted, accepted) pair."""
    if options is None:
        options = AnalysisOptions()
    _check_pair(submitted, accepted)
    years = submitted.years
    labels = tuple(str(y) for y in years) + (f"[{years[0]}-{years[-1]}]",)

    sub_shares = shares(submitted)
    acc_shares = shares(accepted)
    cond = conditional(submitted, accepted)
    sub_cols, acc_cols, cond_cols = _columns(sub_shares), _columns(acc_shares), _columns(cond)

    def _context(table_name, label, fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            raise DataError(f"{table_name}, column {label}: {exc}") from exc

    sub_footers = tuple(
        _context("t1_submitted", lab, _share_footer, share_col, counts_col, options)
        for lab, share_col, counts_col in zip(labels, sub_cols, _columns(submitted))
    )
    acc_footers = tuple(
        _context("t2_accepted", lab, _share_footer, share_col, counts_col, options)
        for lab, share_col, counts_col in zip(labels, acc_cols, _columns(accepted))
    )
    cond_footers = tuple(
        _context("t3_conditional", lab, _conditional_footer, col, options)
        for lab, col in zip(labels, cond_cols)
    )
    terms = tuple(monthly_entropy_terms(col) for col in cond_cols)
    terms_footers = tuple(
        _context("t4_monthly_entropy", lab, _terms_footer, col)
        for lab, col in zip(labels, terms)
    )

    index_blocks = tuple(
        (block, tuple(_context(f"t5_indices {block}", lab, _index_column, lab, col, options, ratios)
                      for lab, col in zip(labels, cols)))
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

def _jnum(value, places):
    if value is None:
        return None
    return float(format_number(value, places))


# Row layout of every document: a (row label, attribute path) spec per footer
# or index row, read from the bundle's footer and index objects.
_SHARE_ROWS = (("chi_square", "chi_square.statistic"), ("chi_square_p", "chi_square.p_value"),
               ("entropy", "entropy"), ("t", "t.statistic"), ("t_p", "t.p_value"))
_CONDITIONAL_ROWS = (("sum", "total"), ("cond_entropy", "cond_entropy"),
                     ("t", "t.statistic"), ("t_p", "t.p_value"))
_TERMS_ROWS = (("sum", "total"),)
_Z_ROWS = (("z", "z.statistic"), ("z_p", "z.p_value"))
_BAND_ROWS = (("mean", "stats.mean"), ("std_dev", "stats.std_dev"),
              ("mean_minus_2sd", "stats.band_low"), ("mean_plus_2sd", "stats.band_high"))
_INDEX_ROWS = (("exp_entropy", "exponential_entropy"), ("theil", "theil"),
               ("hhi", "hhi"), ("gini", "gini"))
_PEAK_COLUMNS = ("frequency", "period_months", "amplitude")


@dataclass(frozen=True)
class _Layout:
    keys: tuple  # names of the key columns
    value_names: tuple  # names of the value columns
    rows: list  # (row keys, raw values) pairs, one value per value column


def _spec_rows(specs, objects, keys=()):
    return [((*keys, label), tuple(map(attrgetter(path), objects))) for label, path in specs]

def _month_layout(columns, footers, footer_specs, labels) -> _Layout:
    """Twelve month rows, then one row per footer spec."""
    rows = [((MONTH_LABELS[m],), tuple(col[m] for col in columns))
            for m in range(MONTHS_PER_YEAR)]
    return _Layout(("row",), labels, rows + _spec_rows(footer_specs, footers))

def _layouts(bundle) -> dict:
    """Every document's rows, in raw values, keyed by document name."""
    labels = bundle.column_labels
    z_rows = _Z_ROWS if bundle.submitted_footers[0].z is not None else ()
    share_rows = _SHARE_ROWS + z_rows + _BAND_ROWS
    index_rows = []
    for block, cols in bundle.index_blocks:
        for i, (q, _) in enumerate(cols[0].diversities):
            index_rows.append(((block, f"D{q:g}"), tuple(c.diversities[i][1] for c in cols)))
        index_rows += _spec_rows(_INDEX_ROWS, cols, (block,))
    peak_rows = [((series, rank), (p.frequency, p.period, p.amplitude))
                 for series, peaks in bundle.peaks
                 for rank, p in enumerate(peaks, start=1)]
    return {
        "t1_submitted": _month_layout(_columns(bundle.submitted), bundle.submitted_footers,
                                      share_rows, labels),
        "t2_accepted": _month_layout(_columns(bundle.accepted), bundle.accepted_footers,
                                     share_rows, labels),
        "t3_conditional": _month_layout(_columns(bundle.conditional), bundle.conditional_footers,
                                        _CONDITIONAL_ROWS + z_rows + _BAND_ROWS, labels),
        "t4_monthly_entropy": _month_layout(bundle.entropy_terms, bundle.entropy_footers,
                                            _TERMS_ROWS + _BAND_ROWS, labels),
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


def render(bundle: AnalysisBundle, format: str, precision: "int | None" = None) -> list:
    """Render the six documents in the requested format."""
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}, expected one of {', '.join(FORMATS)}")
    places = bundle.options.precision if precision is None else int(precision)
    if not 1 <= places <= 12:
        raise DataError("precision must lie in 1..12")
    if not bundle.years or not bundle.column_labels:
        raise DataError("empty bundle")

    documents = []
    for name, layout in _layouts(bundle).items():
        if format == "json":
            body = {"name": name, "journal": bundle.journal,
                    "years": list(bundle.years), "precision": places}
            body.update(_NESTERS[layout.keys](layout, places))
            text = json.dumps(body, indent=2) + "\n"
        else:
            text = (_csv_text if format == "csv" else _md_text)(*_grid(layout, places))
        documents.append(NamedDocument(name, text))
    return documents
