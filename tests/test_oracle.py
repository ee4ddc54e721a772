"""The whole bundle against an independent numpy and scipy implementation.

Each drawn input is one journal's (submitted, accepted) counts over 1-6
years, with months that have no submissions (`NA` acceptance cells). The
oracle recomputes every raw value `build_bundle` holds: the shares and
ratios, every t1-t3 footer row (scipy's `chisquare`, `ttest_1samp` and
`norm.sf`, numpy's mean and `std(ddof=1)`), the t4 terms and footers, the
t5 index block from its inputs quoted half-down in decimal as
`report._index_column` quotes them, and the t6 peaks from `numpy.fft.rfft`.
Where the oracle meets a column it cannot compute (an empty year, fewer
than two defined values, a constant tested column, years with a gap),
`build_bundle` must refuse the input with `DataError`.
"""

import math
import sys
from decimal import ROUND_HALF_DOWN, Decimal

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import stats as spstats

from seasonstats.ingest import CountMatrix, DataError
from seasonstats.report import RATIO_QUOTED_PLACES, TOP_PEAK_COUNT, AnalysisOptions, build_bundle

# a value within this of the oracle's, relative to the larger of the two or,
# for a difference of larger terms (theil, t, z, mean - 2 sd), to those
# terms; below the normal float range the two compare absolutely
REL_TOL = 1e-9


class Undefined(Exception):
    """The oracle cannot compute a column, so the bundle must be refused."""


def _columns(matrix):
    """The per-year columns of a 12 x years array, then the month totals."""
    return [*matrix.T, matrix.sum(axis=1)]


def _tested(values, options):
    """The t rows, the z rows when configured, then the band rows of the
    defined values of one column."""
    if len(values) < 2:
        raise Undefined("fewer than two defined values")
    if np.ptp(values) == 0:
        raise Undefined("a constant column has no t statistic")
    mean, root_n = np.mean(values), math.sqrt(len(values))
    t = spstats.ttest_1samp(values, options.t_null)
    t_scale = (abs(mean) + abs(options.t_null)) / (np.std(values, ddof=1) / root_n)
    rows = [("t", t.statistic, t_scale), ("t_p", t.pvalue)]
    if options.z_sigma is not None:
        z = (mean - options.z_null) / (options.z_sigma / root_n)
        z_scale = (abs(mean) + abs(options.z_null)) / (options.z_sigma / root_n)
        rows += [("z", z, z_scale), ("z_p", min(1.0, 2.0 * spstats.norm.sf(abs(z))))]
    return rows + _bands(values)


def _bands(values):
    mean, sd = np.mean(values), np.std(values, ddof=1)
    return [("mean", mean), ("std_dev", sd),
            ("mean_minus_2sd", mean - 2.0 * sd, abs(mean) + 2.0 * sd),
            ("mean_plus_2sd", mean + 2.0 * sd)]


def _entropy(values):
    positive = values[values > 0]
    return -np.sum(positive * np.log(positive))


def _quoted(column, places):
    """Each defined value's repr rounded to `places` decimals, halves toward zero."""
    step = Decimal(1).scaleb(-places)
    return np.array([float(Decimal(repr(float(v))).quantize(step, rounding=ROUND_HALF_DOWN))
                     for v in column if not math.isnan(v)])


def _hill(values, q):
    if values.max() == 0:
        raise Undefined("all entries are zero")
    positive = values[values > 0]
    if q == 0:
        return float(len(positive))
    if q == 1:
        return math.exp(_entropy(values))
    if q == math.inf:
        return 1.0 / values.max()
    return np.sum(positive ** q) ** (1.0 / (1.0 - q))


def _index_rows(column, options, ratios):
    quoted = _quoted(column, RATIO_QUOTED_PLACES if ratios else options.precision)
    if quoted.sum() <= 0:
        raise Undefined("no positive quoted input")
    p = quoted / quoted.sum()
    hill = quoted if ratios else p
    h = _entropy(p)
    gini = np.abs(p[:, None] - p[None, :]).sum() / (2.0 * len(p) * p.sum())
    return [*((f"D{q:g}", _hill(hill, q)) for q in options.q_orders),
            ("exp_entropy", math.exp(-h)), ("theil", math.log(len(p)) - h, math.log(len(p))),
            ("hhi", np.sum(p * p)), ("gini", gini)]


def _peaks(series):
    T = len(series)
    magnitudes = np.abs(np.fft.rfft(series))[1:T // 2 + 1]
    return T, magnitudes


def oracle(years, submitted, accepted, options):
    """Every raw value of the bundle, keyed by table, or Undefined."""
    if list(years) != list(range(years[0], years[0] + len(years))):
        raise Undefined("years with a gap")
    sub, acc = np.array(submitted, dtype=float), np.array(accepted, dtype=float)
    out = {}
    for name, counts in (("t1_submitted", sub), ("t2_accepted", acc)):
        shares, footers = [], []
        for column in _columns(counts):
            if column.sum() == 0:
                raise Undefined("empty year")
            share = column / column.sum()
            chi = spstats.chisquare(column)
            shares.append(share)
            footers.append([("chi_square", chi.statistic), ("chi_square_p", chi.pvalue),
                            ("entropy", _entropy(share)), *_tested(share, options)])
        out[name] = shares, footers
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = [np.where(s > 0, a / s, np.nan) for s, a in zip(_columns(sub), _columns(acc))]
    cond_footers, terms, terms_footers = [], [], []
    for ratio in ratios:
        defined = ratio[~np.isnan(ratio)]
        cond_footers.append([("sum", np.sum(defined)), ("cond_entropy", _entropy(defined)),
                             *_tested(defined, options)])
        with np.errstate(invalid="ignore", divide="ignore"):
            term = np.where(ratio > 0, -ratio * np.log(ratio), np.where(ratio == 0, 0.0, np.nan))
        terms.append(term)
        defined_terms = term[~np.isnan(term)]
        terms_footers.append([("sum", np.sum(defined_terms)), *_bands(defined_terms)])
    out["t3_conditional"] = ratios, cond_footers
    out["t4_monthly_entropy"] = terms, terms_footers
    out["t5_indices"] = [
        (block, [_index_rows(column, options, block == "conditional") for column in columns])
        for block, columns in (("submitted", out["t1_submitted"][0]),
                               ("accepted", out["t2_accepted"][0]),
                               ("conditional", ratios))]
    out["t6_fourier"] = [(series, _peaks(counts.T.ravel()))
                         for series, counts in (("submitted", sub), ("accepted", acc))]
    return out


def _close(actual, expected, scale=0.0):
    return (math.isfinite(actual) and
            abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected), scale)
            + sys.float_info.min)


def _assert_cells(where, actual, expected):
    """Month cells: None exactly where the oracle has NaN, the rest close."""
    assert len(actual) == len(expected), where
    for month, (a, e) in enumerate(zip(actual, expected), start=1):
        if math.isnan(e):
            assert a is None, (where, month, a)
        else:
            assert a is not None and _close(a, e), (where, month, a, e)


def _assert_rows(where, actual, expected):
    """(row label, value) lists against the oracle's (row label, value[, scale])
    rows: the same labels in order, the values close."""
    assert [label for label, _ in actual] == [label for label, *_ in expected], where
    for (label, a), (_, e, *scale) in zip(actual, expected):
        assert _close(a, float(e), *scale), (where, label, a, e)


def _assert_peaks(where, peaks, T, magnitudes):
    # exact ties are broken toward the lower frequency; numpy's last bits may
    # order near-equal bins differently, so each peak is checked against the
    # oracle's magnitude of its own bin and against the oracle's ranking.
    # Magnitudes compare relative to the largest, as a bin that cancels to
    # zero holds rounding noise on both sides
    ranked = np.sort(magnitudes)[::-1]
    scale = REL_TOL * max(ranked[0], 1.0)
    assert len(peaks) == TOP_PEAK_COUNT, where
    for rank, peak in enumerate(peaks):
        k = round(peak.frequency * T)
        assert peak.frequency == k / T and _close(peak.period, T / k), (where, rank, peak)
        assert abs(peak.amplitude - magnitudes[k - 1]) <= scale, (where, rank, peak)
        assert abs(peak.amplitude - ranked[rank]) <= scale, (where, rank, peak)


@st.composite
def _count_pairs(draw):
    """(years, submitted rows, accepted rows): 12 month rows of one count per
    year, each accepted count at most the submitted one, with zero months."""
    n = draw(st.integers(1, 6))
    start = draw(st.integers(1990, 2030))
    cell = st.just(0) | st.integers(0, 40)
    submitted = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                              min_size=12, max_size=12))
    # drawn from either end, as a year that accepts nothing is refused
    accepted = [[draw(st.integers(0, s) | st.integers(0, s).map(s.__sub__)) for s in row]
                for row in submitted]
    return tuple(range(start, start + n)), submitted, accepted


_Q_ORDERS = st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, math.inf)),
                     min_size=1, max_size=4, unique=True)
# (z null, z sigma); (0.0, 0.02) puts a share column's z near 14, far in the tail
_Z_TESTS = st.none() | st.sampled_from(((0.0833333, 0.03), (0.2, 1.0), (0.0, 0.02)))

# two years in which month m has m + 1 and 14 - m submissions, about half accepted
_TWO_YEARS = ([[m + 1, 14 - m] for m in range(12)], [[m // 2, 7 - m // 2] for m in range(12)])


@settings(max_examples=200, deadline=None)
@given(_count_pairs(), _Q_ORDERS, st.integers(1, 12), _Z_TESTS)
# the z p-value far in the tail, which cancelled to 0 from z ~ 8.3 when it
# was taken as 1 - Phi(|z|)
@example(((2012, 2013), *_TWO_YEARS), [1.0, 2.0], 5, (0.0, 0.02))
# library years with a gap, which the DFT would read as one series
@example(((2012, 2014), *_TWO_YEARS), [1.0, 2.0], 5, None)
def test_bundle_matches_numpy_scipy_oracle(pair, q_orders, precision, z):
    years, submitted, accepted = pair
    z_null, z_sigma = z or (None, None)
    options = AnalysisOptions(q_orders=tuple(q_orders), precision=precision,
                              z_sigma=z_sigma, z_null=z_null)

    def bundle():
        return build_bundle(CountMatrix(years, tuple(map(tuple, submitted))),
                            CountMatrix(years, tuple(map(tuple, accepted))),
                            options, journal="J")

    try:
        expected = oracle(years, submitted, accepted, options)
    except Undefined as exc:
        try:
            bundle()
        except DataError:
            return
        raise AssertionError(f"the bundle was built where the oracle found {exc}")
    actual = bundle()
    assert actual.years == years
    for name, table, footers in (
            ("t1_submitted", actual.submitted, actual.submitted_footers),
            ("t2_accepted", actual.accepted, actual.accepted_footers),
            ("t3_conditional", actual.conditional, actual.conditional_footers)):
        columns, expected_footers = expected[name]
        cells = [table.column(j) for j in range(len(years))] + [table.cumulated]
        for label, col, exp_col, rows, exp_rows in zip(
                actual.column_labels, cells, columns, footers, expected_footers, strict=True):
            _assert_cells((name, label), col, exp_col)
            _assert_rows((name, label), rows, exp_rows)
    terms, terms_footers = expected["t4_monthly_entropy"]
    for label, col, exp_col, rows, exp_rows in zip(
            actual.column_labels, actual.entropy_terms, terms,
            actual.entropy_footers, terms_footers, strict=True):
        _assert_cells(("t4_monthly_entropy", label), col, exp_col)
        _assert_rows(("t4_monthly_entropy", label), rows, exp_rows)
    assert [block for block, _ in actual.index_blocks] == [b for b, _ in expected["t5_indices"]]
    for (block, columns), (_, exp_columns) in zip(actual.index_blocks, expected["t5_indices"]):
        for label, rows, exp_rows in zip(actual.column_labels, columns, exp_columns,
                                         strict=True):
            _assert_rows(("t5_indices", block, label), rows, exp_rows)
    for (series, peaks), (_, (T, magnitudes)) in zip(actual.peaks, expected["t6_fourier"],
                                                     strict=True):
        _assert_peaks(("t6_fourier", series), peaks, T, magnitudes)
