"""Bundle assembly and document rendering."""

import csv
import functools
import io
import json
import math
import re
import struct
from decimal import ROUND_HALF_DOWN, ROUND_HALF_UP, Context, Decimal
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seasonstats import cli, report
from seasonstats.indices import _left_sum, diversity, entropy, gini, hhi, lorenz
from seasonstats.ingest import (
    MONTHS_PER_YEAR,
    CountMatrix,
    DataError,
    matrices_from_counts,
    parse_counts,
)
from seasonstats.report import (
    DOCUMENT_NAMES,
    FORMATS,
    AnalysisBundle,
    AnalysisOptions,
    build_bundle,
    render,
)
from seasonstats.probability import normalize
from seasonstats.stats import chi_square_uniform, describe, t_one_sample, z_one_sample

import refvalues as rv

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def _doc(documents, name):
    return next(d for d in documents if d.name == name)


def test_rounded_texts():
    assert report._rounded([11.574, None], 4, ROUND_HALF_UP) == ["11.5740", None]
    assert report._rounded([0.084375, 23.2776], 5, ROUND_HALF_UP) == ["0.08438", "23.27760"]
    assert report._rounded([0.0, 3e-7], 7, ROUND_HALF_UP) == ["0.0000000", "0.0000003"]
    # the index inputs' tie rule, that of the reference tables
    assert report._rounded([17 / 32, 30 / 64], 4, ROUND_HALF_DOWN) == ["0.5312", "0.4687"]
    # every finite value is written in full: the repr's digits padded with zeros
    assert report._rounded([1e30, -1.4687169118393497e+27], 1, ROUND_HALF_UP) == [
        "1000000000000000000000000000000.0", "-1468716911839349700000000000.0"]
    assert report._rounded([-1.7976931348623157e308], 12, ROUND_HALF_DOWN) == [
        "-17976931348623157" + "0" * 292 + "." + "0" * 12]
    for bad in (math.inf, -math.inf, math.nan):
        # never "inf", "nan" or "NaN" text in a document, nor a nan index input
        for rounding in (ROUND_HALF_UP, ROUND_HALF_DOWN):
            with pytest.raises(DataError, match=f"^cannot round {bad!r}: not a finite number$"):
                report._rounded([None, bad], 5, rounding)


def test_rounded_midpoints_at_carry_sign_and_bound_edges():
    # a repr midpoint is moved a quarter unit toward the side the rule picks
    # and formatted; the move must carry through every digit, keep the sign
    # of a result that rounds to zero, and stay exact next to the fast bound
    cases = [
        (0.99995, 4, ROUND_HALF_UP, "1.0000"),
        (0.99995, 4, ROUND_HALF_DOWN, "0.9999"),
        (9.99995, 4, ROUND_HALF_UP, "10.0000"),
        (-9.99995, 4, ROUND_HALF_UP, "-10.0000"),
        (-0.00005, 4, ROUND_HALF_DOWN, "-0.0000"),
        (-0.00005, 4, ROUND_HALF_UP, "-0.0001"),
        (0.00005, 4, ROUND_HALF_DOWN, "0.0000"),
        (511.9999999999995, 12, ROUND_HALF_UP, "512.000000000000"),
        (511.9999999999995, 12, ROUND_HALF_DOWN, "511.999999999999"),
        (-511.9999999999995, 12, ROUND_HALF_UP, "-512.000000000000"),
        (-511.9999999999995, 12, ROUND_HALF_DOWN, "-511.999999999999"),
    ]
    for x, places, rounding, text in cases:
        assert x < report._FAST_ROUNDING[places][0]  # on the fast path
        assert report._rounded([x], places, rounding) == [text], (x, places, rounding)
        assert reference_rounded([x], places, rounding) == [text], (x, places, rounding)


def test_rounding_rules_are_decimals_constants():
    # callers may pass decimal's constants or the module's
    assert (report.ROUND_HALF_UP, report.ROUND_HALF_DOWN) == (ROUND_HALF_UP, ROUND_HALF_DOWN)


# more digits than any finite float has at 12 places, so the reference never refuses one
_WIDE = Context(prec=400)


def reference_rounded(values, places, rounding):
    # rounding the shortest repr in decimal: the rule _rounded implements
    return [None if x is None else
            format(Decimal(repr(float(x))).quantize(Decimal(1).scaleb(-places),
                                                    rounding=rounding, context=_WIDE), "f")
            for x in values]


@st.composite
def _rounding_values(draw, places):
    """x for `places`: raw bit patterns, decimal ties, the fast-path bound, subnormals."""
    kind = draw(st.sampled_from(("bits", "tie", "bound", "scaled", "tiny")))
    if kind == "bits":
        x = struct.unpack("<d", struct.pack("<Q", draw(st.integers(0, 2**64 - 1))))[0]
        assume(math.isfinite(x))
    elif kind == "tie":
        k = draw(st.integers(-10**17, 10**17))
        # (k + 1/2) / 10^places in float arithmetic, or the float nearest the exact tie
        x = ((k + 0.5) / 10**places if draw(st.booleans())
             else float(f"{10 * k + 5}e-{places + 1}"))
    elif kind == "bound":
        bound = report._FAST_ROUNDING[places][0]
        # the bound and its neighbours, or a float within a factor of 64 of it
        x = draw(st.sampled_from((math.nextafter(bound, 0.0), bound,
                                  math.nextafter(bound, math.inf)))
                 | st.floats(bound / 64, bound * 64))
        if draw(st.booleans()):
            # at most `places` decimals, so that the repr is short
            x = float(f"{x:.{draw(st.integers(0, places))}f}")
    elif kind == "scaled":
        x = draw(st.floats(1e-15, 1e15))
    else:
        x = draw(st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
    return x * draw(st.sampled_from((1.0, -1.0)))


_ROUNDINGS = st.sampled_from((ROUND_HALF_UP, ROUND_HALF_DOWN))


def _rounding_cases():
    """(x, places) with places in 1..12."""
    return st.integers(1, 12).flatmap(
        lambda places: st.tuples(_rounding_values(places), st.just(places)))


@settings(max_examples=1000)
@given(_rounding_cases())
@example((0.084375, 5))
@example((-0.084375, 5))
@example((2.5, 1))
@example((0.0, 3))
@example((-0.0, 3))
@example((5e-324, 12))
@example((511.99999999999994, 12))
@example((512.0, 12))
@example((1e30, 1))
@example((1.7976931348623157e308, 12))
@example((-1.7976931348623157e308, 1))
def test_rounding_matches_decimal_reference(case):
    x, places = case
    for rounding in (ROUND_HALF_UP, ROUND_HALF_DOWN):
        # the text tells -0.0 from 0.0
        assert report._rounded([x], places, rounding) == reference_rounded((x,), places, rounding)


@settings(max_examples=500)
@given(st.integers(1, 12).flatmap(lambda places: st.tuples(
    st.lists(st.none() | _rounding_values(places), max_size=8), st.just(places))), _ROUNDINGS)
@example(([None, 0.0, -0.0, 5e-324, -5e-324, 2.5, 0.084375, -0.084375, None], 5),
         ROUND_HALF_UP)
@example(([0.5312500, 0.46875, -0.46875, 2.5, -2.5, None], 4), ROUND_HALF_DOWN)
@example(([511.99999999999994, 512.0, -512.0, math.nextafter(512.0, 1024.0)], 12),
         ROUND_HALF_DOWN)
@example(([70368744177663.99, 70368744177664.0, 1e15], 1), ROUND_HALF_UP)
@example(([], 3), ROUND_HALF_UP)
@example(([0.1, 1e30], 1), ROUND_HALF_UP)
@example(([1e30, None], 1), ROUND_HALF_DOWN)
@example(([None, 1.7976931348623157e308, 0.5, -1e300], 12), ROUND_HALF_UP)
def test_rounded_kernel_matches_decimal_reference_per_value(case, rounding):
    values, places = case
    expected = [reference_rounded((x,), places, rounding)[0] for x in values]
    assert report._rounded(values, places, rounding) == expected


@pytest.mark.parametrize("name", ["edge", "long"])
def test_every_precision_renders_as_decimal_reference(name, monkeypatch):
    # precision 12 has the smallest fast-path bound (512), and no golden file
    # covers precisions other than 5 and 7
    input_name, journal, _ = rv.GOLDEN_RUNS[name]
    rows = parse_counts((DATA_DIR / input_name).read_text(encoding="utf-8-sig"))
    matrices = matrices_from_counts(rows, journal)

    def documents(precision):
        # the golden runs' options for these inputs, at the given precision
        options = AnalysisOptions(q_orders=(0.0, 1.0, 2.0), precision=precision,
                                  z_sigma=0.03, z_null=0.0833333)
        bundle = build_bundle(*matrices, options, journal=journal)
        return {fmt: render(bundle, fmt) for fmt in FORMATS}

    fast = {precision: documents(precision) for precision in range(1, 13)}
    rounded = {}

    def counted_reference(values, places, rounding):
        texts = reference_rounded(values, places, rounding)
        rounded[rounding] = rounded.get(rounding, 0) + len(texts)
        return texts

    monkeypatch.setattr(report, "_rounded", counted_reference)
    # each of the three index blocks quotes 12 inputs per column
    index_inputs = 3 * MONTHS_PER_YEAR * (len(matrices[0].years) + 1)
    for precision, rendered in fast.items():
        rounded.clear()
        assert documents(precision) == rendered, precision
        cells = sum(len(_csv_cells(doc.text)) for doc in rendered["csv"])
        # the reference wrote every cell of the three formats and quoted every index input
        assert rounded == {ROUND_HALF_UP: len(FORMATS) * cells,
                           ROUND_HALF_DOWN: index_inputs}, precision


def test_options_validation():
    with pytest.raises(DataError, match="precision"):
        AnalysisOptions(precision=0)
    with pytest.raises(DataError, match="precision"):
        AnalysisOptions(precision=13)
    for precision in (5.5, 5.0, "5"):
        with pytest.raises(DataError, match="precision must be an integer"):
            AnalysisOptions(precision=precision)
    with pytest.raises(DataError, match="non-negative"):
        AnalysisOptions(q_orders=(1.0, -2.0))
    # q < 0 is false for NaN, which the index block would refuse only later
    for orders in ((math.nan,), (1.0, -math.nan), (-1.0, math.nan)):
        with pytest.raises(DataError, match="^diversity orders must not be NaN: .* not finite "):
            AnalysisOptions(q_orders=orders)
    assert AnalysisOptions(q_orders=(0.0, math.inf)).q_orders == (0.0, math.inf)
    for orders, message in (((1.0, 1.0, 2.0), "1.0 and 1.0 share the row label D1"),
                            ((0.1234567, 0.1234568),
                             "0.1234567 and 0.1234568 share the row label D0.123457"),
                            ((2, 0.5, 2.0), "2 and 2.0 share the row label D2"),
                            ((-0.0, 0.0), "0.0 and 0.0 share the row label D0")):
        with pytest.raises(DataError, match=f"^diversity orders {re.escape(message)}$"):
            AnalysisOptions(q_orders=orders, precision=12)
    (zero,) = AnalysisOptions(q_orders=(-0.0,)).q_orders
    assert math.copysign(1.0, zero) == 1.0
    with pytest.raises(DataError, match="both"):
        AnalysisOptions(z_sigma=0.02)
    with pytest.raises(DataError, match="both"):
        AnalysisOptions(z_null=0.08)
    with pytest.raises(DataError, match="positive"):
        AnalysisOptions(z_sigma=-1.0, z_null=0.08)
    for fields in ({"t_null": float("nan")}, {"t_null": float("-inf")},
                   {"z_sigma": 0.02, "z_null": float("nan")},
                   {"z_sigma": float("inf"), "z_null": 0.08}):
        with pytest.raises(DataError, match="must be finite"):
            AnalysisOptions(**fields)


def test_options_keep_precision_as_int(jscs_matrices):
    # an integer-like precision must not reach the documents as itself: JSON
    # writes only int, and the rounding table is keyed by int
    class Five:
        def __index__(self):
            return 5

    assert type(AnalysisOptions(precision=True).precision) is int
    options = AnalysisOptions(precision=Five())
    assert type(options.precision) is int and options.precision == 5

    def json_documents(options):
        return render(build_bundle(*jscs_matrices, options, journal="JSCS"), "json")

    assert json_documents(options) == json_documents(AnalysisOptions(precision=5))


def test_bundle_structure(jscs_bundle):
    assert jscs_bundle.journal == "JSCS"
    assert jscs_bundle.column_labels == ("2012", "2013", "2014", "[2012-2014]")
    assert len(jscs_bundle.submitted_footers) == 4
    assert [name for name, _ in jscs_bundle.index_blocks] == [
        "submitted", "accepted", "conditional"]
    assert [name for name, _ in jscs_bundle.peaks] == ["submitted", "accepted"]
    assert all(len(p) == 2 for _, p in jscs_bundle.peaks)


def test_index_blocks_match_reference(jscs_bundle, ent_bundle):
    key_to_label = {"ee": "exp_entropy", "th": "theil", "hhi": "hhi", "gi": "gini"}
    for block_name, _ in jscs_bundle.index_blocks:
        for key, label in key_to_label.items():
            expected = rv.T5[block_name][key]
            for offset, bundle in ((0, jscs_bundle), (4, ent_bundle)):
                columns = dict(bundle.index_blocks)[block_name]
                for j, col in enumerate(columns):
                    if block_name == "accepted" and key == "gi" and offset + j == 1:
                        continue  # 2013 cell reflects a different distribution
                    tol = 1e-3 if key == "gi" else 5e-4
                    assert dict(col)[label] == pytest.approx(
                        expected[offset + j], abs=tol), (block_name, key, offset + j)


def test_diversity_rows_match_reference(jscs_bundle, ent_bundle):
    for block_name in ("submitted", "accepted", "conditional"):
        expected = rv.T5[block_name]["d1"]
        for offset, bundle in ((0, jscs_bundle), (4, ent_bundle)):
            columns = dict(bundle.index_blocks)[block_name]
            for j, col in enumerate(columns):
                d1 = dict(col)["D1"]
                assert d1 == pytest.approx(expected[offset + j], abs=5e-4 * expected[offset + j])


def test_render_names_and_formats(jscs_bundle):
    for fmt in ("csv", "json", "md"):
        documents = render(jscs_bundle, fmt)
        assert [d.name for d in documents] == list(DOCUMENT_NAMES)
    with pytest.raises(DataError, match="unknown format"):
        render(jscs_bundle, "xml")


def test_csv_share_document(jscs_bundle):
    text = _doc(render(jscs_bundle, "csv"), "t1_submitted").text
    grid = _parse_csv(text)
    assert grid[0] == ["row", "2012", "2013", "2014", "[2012-2014]"]
    assert grid[1][0] == "Jan"
    assert grid[1][1] == "0.08202"
    assert grid[12][0] == "Dec"
    labels = [row[0] for row in grid[13:]]
    assert labels == ["chi_square", "chi_square_p", "entropy", "t", "t_p",
                      "mean", "std_dev", "mean_minus_2sd", "mean_plus_2sd"]
    chi_row = grid[13]
    assert float(chi_row[1]) == pytest.approx(23.278, abs=0.05)
    entropy_row = grid[15]
    assert float(entropy_row[4]) == pytest.approx(2.4760, abs=5e-4)


def test_csv_conditional_document(ent_bundle):
    grid = _parse_csv(_doc(render(ent_bundle, "csv"), "t3_conditional").text)
    assert grid[0] == ["row", "2014", "2015", "2016", "[2014-2016]"]
    assert float(grid[1][1]) == pytest.approx(0.5818, abs=5e-4)
    labels = [row[0] for row in grid[13:]]
    assert labels == ["sum", "cond_entropy", "t", "t_p",
                      "mean", "std_dev", "mean_minus_2sd", "mean_plus_2sd"]
    centr_row = grid[14]
    for j, expected in enumerate((3.7919, 4.1450, 4.2943, 4.1883), start=1):
        assert float(centr_row[j]) == pytest.approx(expected, abs=5e-4)


def test_csv_index_document(jscs_bundle):
    grid = _parse_csv(_doc(render(jscs_bundle, "csv"), "t5_indices").text)
    assert grid[0] == ["block", "index", "2012", "2013", "2014", "[2012-2014]"]
    rows_per_block = len(jscs_bundle.options.q_orders) + 4
    assert len(grid) == 1 + 3 * rows_per_block
    assert grid[1][:2] == ["submitted", "D1"]
    assert float(grid[1][2]) == pytest.approx(11.574, abs=5e-3)
    assert grid[2][:2] == ["submitted", "D2"]
    gini_row = next(r for r in grid if r[:2] == ["submitted", "gini"])
    assert float(gini_row[5]) == pytest.approx(rv.JSCS_CUM_GINI, abs=1e-3)


def test_csv_fourier_document(jscs_bundle):
    grid = _parse_csv(_doc(render(jscs_bundle, "csv"), "t6_fourier").text)
    assert grid[0] == ["series", "rank", "frequency", "period_months", "amplitude"]
    assert len(grid) == 5
    assert grid[1][:2] == ["submitted", "1"]
    assert float(grid[1][4]) == pytest.approx(65.27634, abs=5e-4)
    assert float(grid[3][4]) == pytest.approx(50.47772, abs=5e-4)
    assert float(grid[3][3]) == pytest.approx(3.0)  # 12-month cycle over 36 months


def test_markdown_document(jscs_bundle):
    text = _doc(render(jscs_bundle, "md"), "t1_submitted").text
    lines = text.splitlines()
    assert lines[0].startswith("| row")
    assert set(lines[1]) <= {"|", "-"}
    assert len(lines) == 2 + 12 + 9
    assert all(line.startswith("|") and line.endswith("|") for line in lines[2:])


def _md_reference(header, rows):
    """Markdown table with each column padded to its widest cell, one cell at a time."""
    table = [header] + rows
    widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
    def line(cells):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    parts = [line(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    parts.extend(line(row) for row in rows)
    return "\n".join(parts) + "\n"


_CELLS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ("NA", "0.0833333", "-1.2500000", "\u00e9t\u00e9", "\U0001f600", "\u2028", ""))


@given(st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.lists(_CELLS, min_size=width, max_size=width),
    st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=6))))
@example((["row", "2012"], [["Jan", "0.1"], ["Feb", "\u00e9\u00e9\u00e9\u00e9"]]))
@example((["block", "index", "[2012-2014]"], []))
def test_markdown_widths_equal_per_cell_padding(table):
    header, rows = table
    assert report._md_text(header, rows) == _md_reference(header, rows)


def test_json_share_document(jscs_bundle):
    body = json.loads(_doc(render(jscs_bundle, "json"), "t1_submitted").text)
    assert body["name"] == "t1_submitted"
    assert body["journal"] == "JSCS"
    assert body["years"] == [2012, 2013, 2014]
    column = body["columns"]["2012"]
    assert column["months"]["Jan"] == pytest.approx(0.08202, abs=5e-6)
    footer = column["footer"]
    assert footer["entropy"] == pytest.approx(2.4487, abs=5e-4)
    assert footer["chi_square"] == pytest.approx(23.278, abs=0.05)
    assert "z" not in footer


def test_json_index_document(ent_bundle):
    body = json.loads(_doc(render(ent_bundle, "json"), "t5_indices").text)
    blocks = body["blocks"]
    assert set(blocks) == {"submitted", "accepted", "conditional"}
    cum = blocks["conditional"]["columns"]["[2014-2016]"]
    assert cum["D1"] == pytest.approx(65.912, abs=5e-2)
    assert cum["theil"] == pytest.approx(0.00365, abs=5e-4)


def test_z_rows_emitted_when_configured(jscs_matrices):
    options = AnalysisOptions(z_sigma=0.0236, z_null=1 / 12)
    bundle = build_bundle(*jscs_matrices, options, journal="JSCS")
    grid = _parse_csv(_doc(render(bundle, "csv"), "t1_submitted").text)
    labels = [row[0] for row in grid[13:]]
    assert labels == ["chi_square", "chi_square_p", "entropy", "t", "t_p",
                      "z", "z_p", "mean", "std_dev", "mean_minus_2sd", "mean_plus_2sd"]
    body = json.loads(_doc(render(bundle, "json"), "t1_submitted").text)
    assert "z" in body["columns"]["2012"]["footer"]
    assert "z_p" in body["columns"]["[2012-2014]"]["footer"]


def test_conditional_sum_row_matches_reference(jscs_bundle, ent_bundle):
    for bundle, offset in ((jscs_bundle, 0), (ent_bundle, 4)):
        for j, footer in enumerate(bundle.conditional_footers):
            assert dict(footer)["sum"] == pytest.approx(rv.T3_SUM[offset + j], abs=5e-4)


def test_precision_override(jscs_matrices):
    bundle = build_bundle(*jscs_matrices, AnalysisOptions(precision=4), journal="JSCS")
    grid = _parse_csv(_doc(render(bundle, "csv"), "t1_submitted").text)
    assert grid[1][1] == "0.0820"


def test_undefined_cells_render_na_and_null():
    sub_col = [10] * 12
    acc_col = [5, 4] * 6  # varied so the footer tests stay non-degenerate
    sub_col[7] = 0
    acc_col[7] = 0
    sub = CountMatrix((2020,), tuple((v,) for v in sub_col), "submitted")
    acc = CountMatrix((2020,), tuple((v,) for v in acc_col), "accepted")
    bundle = build_bundle(sub, acc, journal="demo")
    grid = _parse_csv(_doc(render(bundle, "csv"), "t3_conditional").text)
    assert grid[8][1] == "NA"  # August
    # the undefined month drops out of the sum: six ratios of 0.5, five of 0.4
    assert grid[13] == ["sum", "5.00000", "5.00000"]
    body = json.loads(_doc(render(bundle, "json"), "t3_conditional").text)
    assert body["columns"]["2020"]["months"]["Aug"] is None
    terms = json.loads(_doc(render(bundle, "json"), "t4_monthly_entropy").text)
    assert terms["columns"]["2020"]["months"]["Aug"] is None


def test_footer_errors_name_table_and_column():
    # equal monthly counts give a constant share column, which the t test
    # refuses before the z test and the band are reached
    sub = CountMatrix((2020,), ((10,),) * 12, "submitted")
    acc = CountMatrix((2020,), ((5,), (4,)) * 6, "accepted")
    for options in (AnalysisOptions(), AnalysisOptions(z_sigma=5e-324, z_null=0.08)):
        with pytest.raises(DataError, match=r"^t1_submitted, column 2020: degenerate sample"):
            build_bundle(sub, acc, options)


def _bits(rows):
    return [(label, value.hex()) for label, value in rows]


def _fold(terms):
    total = 0
    for term in terms:
        total = total + term
    return total


def test_float_sums_are_left_folds():
    # builtin sum compensates float sums from Python 3.12 on, where
    # sum([1e16, 1.0, -1e16]) is 1.0 and not 0.0; every sum behind the
    # documents adds left to right from 0, so their bytes do not depend on
    # the version. Each case tells that fold from the exactly rounded sum.
    assert _left_sum([1e16, 1.0, -1e16]) == 0.0 != math.fsum([1e16, 1.0, -1e16])
    # the fold starts from the int 0, so a lone -0.0 sums to +0.0
    assert math.copysign(1.0, _left_sum([-0.0])) == 1.0
    assert _left_sum([]) == 0 and type(_left_sum([])) is int
    assert report._defined_sum([1e16, None, 1.0, -1e16]) == 0.0
    assert normalize([1e16, 1.0, 1.0]) == (1.0, 1e-16, 1e-16)
    assert hhi([1e8, 1.0, 1.0]) == 1e16 != math.fsum([1e16, 1.0, 1.0])
    p = [0.4, 0.9, 0.3, 0.6]
    terms = [-v * math.log(v) for v in p]
    assert entropy(p) == _fold(terms) != math.fsum(terms)
    p = [0.3, 0.8, 0.3, 0.3]
    terms = [(v / 0.8) ** 2 for v in p]
    hill = [math.exp((2.0 * math.log(0.8) + math.log(total)) / -1.0)
            for total in (_fold(terms), math.fsum(terms))]
    assert diversity(p, 2.0) == hill[0] != hill[1]
    p = [0.9, 0.7, 0.4, 0.6]
    diffs = [abs(a - b) for a in p for b in p]
    assert gini(p) == _fold(diffs) / (2.0 * 4 * _fold(p)) != math.fsum(diffs) / (8.0 * math.fsum(p))
    assert lorenz([0.3, 0.1, 0.2])[1] == (1 / 3, 0.1 / _fold([0.1, 0.2, 0.3])) != (1 / 3, 0.1 / 0.6)
    # chi-square is no float sum: (n·Σo² − T²)/T from the integer counts is
    # 139/17 rounded once, where the fold of the float terms is 1 ulp above
    expected = 17 / 4
    terms = [(o - expected) ** 2 / expected for o in (1, 3, 9, 4)]
    assert chi_square_uniform([1, 3, 9, 4]).statistic == 8.176470588235293 == 139 / 17
    assert _fold(terms) == 8.176470588235295


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda years: st.lists(
           st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=12 * years,
           max_size=12 * years)),
       st.sampled_from([0.0, 0.0833333, 0.5]),
       st.none() | st.sampled_from([(0.0833333, 0.03), (0.2, 1.0), (0.0, 1e-300)]))
def test_tested_footers_equal_separate_calls(cells, t_null, z):
    # zero-submission months leave None in the t3 columns
    years = tuple(range(2001, 2001 + len(cells) // 12))
    sub = tuple(tuple(max(s, a) for s, a in cells[m::12]) for m in range(12))
    acc = tuple(tuple(a for _, a in cells[m::12]) for m in range(12))
    z_null, z_sigma = z if z is not None else (None, None)
    options = AnalysisOptions(t_null=t_null, z_null=z_null, z_sigma=z_sigma)
    try:
        bundle = build_bundle(CountMatrix(years, sub, "submitted"),
                              CountMatrix(years, acc, "accepted"), options)
    except DataError:
        assume(False)  # an empty year or a constant column
    for table, footers in (("submitted", bundle.submitted_footers),
                           ("accepted", bundle.accepted_footers),
                           ("conditional", bundle.conditional_footers)):
        for col, rows in zip(report._columns(getattr(bundle, table)), footers):
            t = t_one_sample(col, t_null)
            expected = [("t", t.statistic), ("t_p", t.p_value)]
            if z is not None:
                zr = z_one_sample(col, z_null, z_sigma)
                expected += [("z", zr.statistic), ("z_p", zr.p_value)]
            stats = describe(col)
            expected += [("mean", stats.mean), ("std_dev", stats.std_dev),
                         ("mean_minus_2sd", stats.band_low), ("mean_plus_2sd", stats.band_high)]
            assert _bits(rows[-len(expected):]) == _bits(expected)


def test_empty_bundle_rejected(jscs_bundle):
    hollow = jscs_bundle._replace(years=(), column_labels=())
    with pytest.raises(DataError, match="empty bundle"):
        render(hollow, "csv")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_render_refuses_a_value_that_is_not_finite(jscs_bundle, bad):
    # the footers and index chains refuse such values before render; a
    # bundle built by hand can still hold one, and render names it
    (label, _), *rest = jscs_bundle.accepted_footers[0]
    footers = ([(label, bad), *rest], *jscs_bundle.accepted_footers[1:])
    bundle = jscs_bundle._replace(accepted_footers=footers)
    for fmt in FORMATS:
        with pytest.raises(DataError, match=f"^cannot round {bad!r}: not a finite number$"):
            render(bundle, fmt)


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_past_the_float_range_raises_data_error(jscs_bundle, sign):
    # math.isfinite and float() raise OverflowError on such an int; the CLI
    # never builds one, but a bundle built by hand can hold it
    big = sign * 10**400
    message = "^cannot round an integer past the float range$"
    for rounding in (ROUND_HALF_UP, ROUND_HALF_DOWN):
        with pytest.raises(DataError, match=message):
            report._rounded([None, big], 5, rounding)
    (label, _), *rest = jscs_bundle.accepted_footers[0]
    footers = ([(label, big), *rest], *jscs_bundle.accepted_footers[1:])
    bundle = jscs_bundle._replace(accepted_footers=footers)
    for fmt in FORMATS:
        with pytest.raises(DataError, match=message):
            render(bundle, fmt)


def test_default_options_round_trip(jscs_matrices):
    bundle = build_bundle(*jscs_matrices)
    assert bundle.options.precision == 5
    assert bundle.options.q_orders == (1.0, 2.0)
    assert bundle.options.t_null == pytest.approx(0.0833333)


_JSON_NUMBER_INPUTS = st.one_of(
    st.floats(-1e22, 1e22),
    st.floats(-1e-3, 1e-3),
    # short decimals, whose rounded text often ends in zeros
    st.builds(lambda k, e: k / 10 ** e, st.integers(-10 ** 17, 10 ** 17), st.integers(0, 14)),
)


@given(_JSON_NUMBER_INPUTS, st.integers(1, 12))
@example(-0.0, 5)
@example(0.0, 1)
@example(-4e-6, 5)  # rounds to -0.00000
@example(3e-05, 7)  # below 1e-4: exponent form
@example(0.0001, 4)
@example(1e16, 5)
@example(2.5e17, 3)
@example(999999999999999.9, 1)  # 16 significant digits
@example(123456789012.34567, 5)  # 17 significant digits
@example(1234567890123.0, 3)  # a whole number: 1234567890123.000
@example(-12345678901234.5, 1)
@example(-1.4687169118393497e+27, 5)
@example(1.7976931348623157e308, 12)
def test_json_number_is_repr_of_rounded_text(x, places):
    # JSON numbers are the rounded CSV/Markdown text in float.__repr__ form
    (text,) = report._rounded([x], places, ROUND_HALF_UP)
    assert report._json_numbers([x, None], places) == [repr(float(text)), "null"]


@functools.lru_cache(maxsize=None)
def _golden_bundle(run):
    """The bundle of a golden run, with the options its CLI arguments give."""
    input_name, journal, extra = rv.GOLDEN_RUNS[run]
    args = cli.build_parser().parse_args(["--input", input_name, "--format", "counts",
                                          "--journal", journal, *extra])
    options = AnalysisOptions(q_orders=cli._parse_orders(args.q), precision=args.precision,
                              t_null=args.t_null, z_sigma=args.z_sigma, z_null=args.z_null)
    rows = parse_counts((DATA_DIR / input_name).read_text(encoding="utf-8-sig"))
    return build_bundle(*matrices_from_counts(rows, journal), options, journal=journal)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(rv.GOLDEN_RUNS)), st.sampled_from((None, 12)), st.text())
@example("edge", None, "\udfff")
@example("long", 12, "\U0001f600")
@example("jscs", None, "\u2028")
@example("entropy", 12, '"')
@example("edge", 12, "\\")
@example("jscs", 12, "\x00\x1f\x7f")
@example("jscs", 12, 'J\u00e9 "q" \u2028')
def test_json_documents_are_json_dumps_of_their_numbers(run, precision, journal):
    # numbers written from their text and quoted strings give the bytes
    # json.dumps gives for the parsed document: at each golden run's options
    # (edge's NA cells as null, z rows last, precision 7) and at precision 12
    bundle = _golden_bundle(run)._replace(journal=journal)
    if precision is not None:
        bundle = bundle._replace(options=bundle.options._replace(precision=precision))
    for doc in render(bundle, "json"):
        body = json.loads(doc.text)
        assert body["journal"] == journal
        assert doc.text == json.dumps(body, indent=2) + "\n"


@pytest.mark.parametrize("run", sorted(rv.GOLDEN_RUNS))
def test_golden_json_is_json_dumps_of_itself(run):
    golden = DATA_DIR / "golden" / run
    for doc in render(_golden_bundle(run), "json"):
        text = (golden / f"{doc.name}.json").read_text(encoding="utf-8")
        assert doc.text == text
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _csv_cells(text):
    """(row keys, column) of every value cell, with repeats, mapped to its text."""
    header, *rows = _parse_csv(text)
    keys = 1 if header[0] == "row" else 2
    return [((tuple(row[:keys]), column), cell)
            for row in rows for column, cell in zip(header[keys:], row[keys:])]

def _json_leaves(body):
    """The same (row keys, column) of every number or null in a JSON document."""
    if "columns" in body:
        return [(((row,), label), value) for label, parts in body["columns"].items()
                for part in parts.values() for row, value in part.items()]
    if "blocks" in body:
        return [(((block, index), label), value) for block, nested in body["blocks"].items()
                for label, column in nested["columns"].items()
                for index, value in column.items()]
    return [(((name, str(entry["rank"])), column), value)
            for name, entries in body["series"].items()
            for entry in entries for column, value in entry.items() if column != "rank"]

def _assert_json_holds_csv_cells(csv_text, json_text):
    cells, leaves = _csv_cells(csv_text), _json_leaves(json.loads(json_text))
    assert sorted(key for key, _ in cells) == sorted(key for key, _ in leaves)
    leaves = dict(leaves)
    for key, cell in cells:
        if cell == "NA":
            assert leaves[key] is None, key
        else:
            assert float(cell) == leaves[key], key


@pytest.mark.parametrize("run", sorted(rv.GOLDEN_RUNS))
def test_golden_json_holds_csv_cells(run):
    golden = DATA_DIR / "golden" / run
    for name in DOCUMENT_NAMES:
        _assert_json_holds_csv_cells((golden / f"{name}.csv").read_text(encoding="utf-8"),
                                     (golden / f"{name}.json").read_text(encoding="utf-8"))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.0000001, 2.0, 0.1234567, 0.1234568,
                                 math.inf)), min_size=1, max_size=4))
@example([1.0, 1.0, 2.0])
@example([0.1234567, 0.1234568])
def test_every_accepted_order_keeps_its_json_row(jscs_matrices, q_orders):
    try:
        options = AnalysisOptions(q_orders=tuple(q_orders), precision=12)
    except DataError as exc:
        assert "share the row label" in str(exc)
        return
    bundle = build_bundle(*jscs_matrices, options, journal="JSCS")
    for csv_doc, json_doc in zip(render(bundle, "csv"), render(bundle, "json")):
        _assert_json_holds_csv_cells(csv_doc.text, json_doc.text)
