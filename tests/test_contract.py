"""One exception contract: hostile arguments raise ValueError or TypeError only.

Every public name, the special functions behind the significance tests and
the two validated constructors are called with arguments drawn from
non-finite, huge, subnormal and None values and short lists of them, mixed
with a few well-typed values (a format, a journal label, a count matrix,
options and a bundle) so that calls get past their first argument. A
`DataError` is a ValueError. Any other exception escaping is a failure, and
so is a probability or p-value outside [0, 1], and a NaN anywhere in a result
(the plain NamedTuple records aside, which hold what they are given).
"""

import inspect
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import seasonstats
from seasonstats import AnalysisOptions, CountMatrix, build_bundle, indices, special, stats

_SCALARS = st.sampled_from((math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
                            1e-310, 2**64, 10**400, None))
_MATRIX = CountMatrix((2012,), tuple((m + 1,) for m in range(12)))
_ACCEPTED = CountMatrix((2012,), tuple((m // 2,) for m in range(12)))
_WELL_TYPED = st.sampled_from(("csv", "JSCS", _MATRIX, AnalysisOptions(),
                               build_bundle(_MATRIX, _ACCEPTED, journal="JSCS")))
_HOSTILE = _SCALARS | st.lists(_SCALARS, max_size=4) | _WELL_TYPED

# the functions whose value is a probability
_PROBABILITIES = (stats.t_cdf, special.chi_square_sf, special.regularized_gamma_p,
                  special.regularized_gamma_q, special.regularized_beta, special.normal_cdf)
_CALLABLES = {**{name: getattr(seasonstats, name) for name in seasonstats.__all__},
              **{fn.__name__: fn for fn in _PROBABILITIES}}


def _arity(fn) -> tuple:
    """The fewest and most positional arguments `fn` takes (at most 3 for *args)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # DataError, whose signature is that of a builtin exception
        return 0, 3
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return 0, 3
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return sum(p.default is p.empty for p in positional), len(positional)


# constructors that store their arguments unchecked
_RECORDS = (seasonstats.AnalysisBundle, seasonstats.DescriptiveStats, seasonstats.MonthTable,
            seasonstats.NamedDocument, seasonstats.SpectralPeak, seasonstats.TestResult)


def _has_nan(result) -> bool:
    """Whether result is NaN or holds one, in tuples and lists at any depth."""
    if isinstance(result, (tuple, list)):
        return any(map(_has_nan, result))
    return isinstance(result, float) and math.isnan(result)


# the indices, which refuse a result that is not finite
_INDICES = {seasonstats.entropy, seasonstats.exponential_entropy, seasonstats.diversity,
            seasonstats.theil, seasonstats.hhi, seasonstats.gini, seasonstats.lorenz,
            seasonstats.monthly_entropy_terms}


def _has_infinity(result) -> bool:
    """Whether result is +/-inf or holds one, in tuples and lists at any depth."""
    if isinstance(result, (tuple, list)):
        return any(map(_has_infinity, result))
    return isinstance(result, float) and math.isinf(result)


def _assert_probabilities(fn, result):
    if fn in _PROBABILITIES:
        assert 0.0 <= result <= 1.0, result
    elif isinstance(result, seasonstats.TestResult) and fn is not seasonstats.TestResult:
        assert 0.0 <= result.p_value <= 1.0, result
    elif fn is seasonstats.normalize:
        assert all(0.0 <= share <= 1.0 for share in result if share is not None), result


@pytest.mark.parametrize("name", sorted(_CALLABLES))
def test_hostile_arguments_raise_only_value_or_type_error(name):
    fn = _CALLABLES[name]
    fewest, most = _arity(fn)

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.lists(_HOSTILE, min_size=fewest, max_size=most))
    def check(args):
        try:
            result = fn(*args)
        except (ValueError, TypeError):
            return
        _assert_probabilities(fn, result)
        assert fn in _RECORDS or not _has_nan(result), result
        assert fn not in _INDICES or not _has_infinity(result), result

    check()


_PAST_FLOAT = 10**400
# each call passes an int past the float range where the function first
# converts or compares that argument
_PAST_FLOAT_CALLS = {
    "AnalysisOptions q": lambda: AnalysisOptions(q_orders=(_PAST_FLOAT,)),
    "AnalysisOptions t null": lambda: AnalysisOptions(t_null=_PAST_FLOAT),
    "AnalysisOptions z sigma": lambda: AnalysisOptions(z_sigma=_PAST_FLOAT, z_null=0.0),
    "describe": lambda: seasonstats.describe([1.0, _PAST_FLOAT]),
    "t_one_sample": lambda: seasonstats.t_one_sample([1.0, 2.0], _PAST_FLOAT),
    "z_one_sample k": lambda: seasonstats.z_one_sample([1.0, 2.0], _PAST_FLOAT, 1.0),
    "z_one_sample sigma": lambda: seasonstats.z_one_sample([1.0, 2.0], 0.0, _PAST_FLOAT),
    "dft_magnitudes": lambda: seasonstats.dft_magnitudes([_PAST_FLOAT, 1.0]),
    "top_peaks": lambda: seasonstats.top_peaks([_PAST_FLOAT, 1.0], 1),
    "diversity": lambda: seasonstats.diversity([_PAST_FLOAT, 1.0], 2.0),
    "diversity q": lambda: seasonstats.diversity([0.5, 0.5], _PAST_FLOAT),
    **{name: partial(getattr(seasonstats, name), [_PAST_FLOAT, 1.0])
       for name in ("entropy", "exponential_entropy", "gini", "hhi", "lorenz",
                    "theil", "monthly_entropy_terms", "normalize")},
    "normalize alone": lambda: seasonstats.normalize([_PAST_FLOAT]),
    "normal_cdf": lambda: special.normal_cdf(_PAST_FLOAT),
    "regularized_gamma_p": lambda: special.regularized_gamma_p(1.0, _PAST_FLOAT),
    "regularized_gamma_q": lambda: special.regularized_gamma_q(1.0, _PAST_FLOAT),
    "chi_square_sf": lambda: special.chi_square_sf(_PAST_FLOAT, 3),
    "t_cdf dof": lambda: stats.t_cdf(1.0, _PAST_FLOAT),
    "t_cdf float dof": lambda: stats.t_cdf(_PAST_FLOAT, 5.0),
}


@pytest.mark.parametrize("name", sorted(_PAST_FLOAT_CALLS))
def test_ints_past_the_float_range_raise_value_error(name):
    with pytest.raises(ValueError, match="float range"):
        _PAST_FLOAT_CALLS[name]()


# a NaN or infinite entry placed among None holes and finite entries
_FINITE_ENTRY = st.none() | st.floats(0.0, 1e300) | st.integers(0, 10**6)
_NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))
_WITH_NON_FINITE = st.tuples(st.lists(_FINITE_ENTRY, max_size=6), _NON_FINITE,
                             st.lists(_FINITE_ENTRY, max_size=6)).map(
                                 lambda t: [*t[0], t[1], *t[2]])
_VECTOR_CALLS = {
    **{fn.__name__: fn for fn in (seasonstats.entropy, seasonstats.exponential_entropy,
                                   seasonstats.theil, seasonstats.hhi, seasonstats.gini,
                                   seasonstats.lorenz, seasonstats.monthly_entropy_terms,
                                   seasonstats.describe, seasonstats.normalize)},
    **{f"diversity q={q}": partial(seasonstats.diversity, q=q)
       for q in (0.0, 1.0, 2.0, math.inf)},
    "index_summary": lambda x: indices.index_summary(x, (1.0, 2.0)),
    "index_summary hill": lambda x: indices.index_summary([0.5, 0.5], (1.0,), x),
    "t_one_sample": lambda x: seasonstats.t_one_sample(x, 0.0),
    "z_one_sample": lambda x: seasonstats.z_one_sample(x, 0.0, 1.0),
    # a series has no None holes
    "dft_magnitudes": lambda x: seasonstats.dft_magnitudes([v or 0.0 for v in x]),
}


@pytest.mark.parametrize("name", sorted(_VECTOR_CALLS))
@settings(max_examples=60, deadline=None, database=None)
@given(_WITH_NON_FINITE)
def test_vectors_with_a_non_finite_entry_raise_value_error(name, vector):
    with pytest.raises(ValueError):
        _VECTOR_CALLS[name](vector)


_SAMPLE = [0.1, 0.2, 0.4]
# each call passes NaN or an infinity as a scalar parameter, refused by name
# where the function first reads it
_NAMED_PARAMETER_CALLS = {
    "t_one_sample nan": (lambda: seasonstats.t_one_sample(_SAMPLE, math.nan),
                         "t null value must be finite"),
    "t_one_sample inf": (lambda: seasonstats.t_one_sample(_SAMPLE, math.inf),
                         "t null value must be finite"),
    "footer_statistics t nan": (lambda: stats.footer_statistics(_SAMPLE, math.nan),
                                "t null value must be finite"),
    "footer_statistics z null inf": (
        lambda: stats.footer_statistics(_SAMPLE, 0.0, -math.inf, 1.0),
        "z null value must be finite"),
    "footer_statistics z sigma nan": (
        lambda: stats.footer_statistics(_SAMPLE, 0.0, 0.0, math.nan),
        "z sigma value must be finite"),
    "t_cdf nan": (lambda: stats.t_cdf(math.nan, 5), "t value must not be NaN"),
    "t_cdf dof nan": (lambda: stats.t_cdf(1.0, math.nan),
                      "degrees of freedom value must be finite"),
    "t_cdf dof inf": (lambda: stats.t_cdf(1.0, math.inf),
                      "degrees of freedom value must be finite"),
    "z_one_sample null nan": (lambda: seasonstats.z_one_sample(_SAMPLE, math.nan, 1.0),
                              "z null value must be finite"),
    "z_one_sample sigma nan": (lambda: seasonstats.z_one_sample(_SAMPLE, 0.0, math.nan),
                               "z sigma value must be finite"),
    "z_one_sample sigma inf": (lambda: seasonstats.z_one_sample(_SAMPLE, 0.0, math.inf),
                               "z sigma value must be finite"),
    # sigma is refused before the values are read
    "z_one_sample sigma nan, no values": (lambda: seasonstats.z_one_sample([], 0.0, math.nan),
                                          "z sigma value must be finite"),
    "diversity": (lambda: seasonstats.diversity([0.5, 0.5], math.nan),
                  "diversity orders must not be NaN: an order that is not finite must be inf"),
    "index_summary": (lambda: indices.index_summary([0.5, 0.5], (1.0, math.nan)),
                      "diversity orders must not be NaN: an order that is not finite must be inf"),
}


@pytest.mark.parametrize("name", sorted(_NAMED_PARAMETER_CALLS))
def test_nan_and_infinite_parameters_are_refused_by_name(name):
    call, message = _NAMED_PARAMETER_CALLS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


_ODD = st.sampled_from((math.nan, math.inf, -math.inf, -1, 0, -0.0, 5e-324, _PAST_FLOAT))
_ODD_ORDERS = st.lists(_ODD | st.sampled_from((0.5, 1.0, 2, 3.5)), min_size=1, max_size=3,
                       unique_by=lambda q: q == 0 or repr(q))  # no two share a row label
_SHARES = [0.25, 0.25, 0.5]


def _refusal(call, exception):
    """The message of the `exception` that call() raises, or None."""
    try:
        call()
    except exception as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_ODD_ORDERS.map(lambda q: {"q_orders": tuple(q)}),
                 (_ODD | st.floats(-1, 1)).map(lambda v: {"t_null": v}),
                 (_ODD | st.floats(-1, 1)).map(lambda v: {"z_null": v, "z_sigma": 0.5}),
                 (_ODD | st.floats(0.01, 1)).map(lambda v: {"z_null": 0.08, "z_sigma": v})))
def test_options_refuse_a_parameter_with_the_message_of_the_call_that_reads_it(given_options):
    # one parameter is drawn and the others are valid; AnalysisOptions and the
    # library function that consumes the value state one rule
    options = {"q_orders": (1.0, 2.0), "t_null": 0.08, "z_null": None, "z_sigma": None,
               **given_options}
    if "q_orders" in given_options:
        library = partial(indices.index_summary, _SHARES, options["q_orders"])
    else:
        library = partial(stats.footer_statistics, _SAMPLE, options["t_null"],
                          options["z_null"], options["z_sigma"])
    expected = _refusal(library, ValueError)
    got = _refusal(partial(AnalysisOptions, **options), seasonstats.DataError)
    if got is None:
        # sigma 5e-324 passes both, and the sample's z statistic then overflows
        assert expected in (None, "z statistic overflows the float range")
    else:
        assert got == expected


def test_top_peaks_takes_its_count_as_an_integer():
    with pytest.raises(TypeError, match="integer"):
        seasonstats.top_peaks([1.0, 2.0, 3.0, 4.0], 2.0)
    assert seasonstats.top_peaks([1.0, 2.0, 3.0, 4.0], True) == \
        seasonstats.top_peaks([1.0, 2.0, 3.0, 4.0], 1)


def test_t_cdf_keeps_its_limit_past_the_float_range():
    assert stats.t_cdf(_PAST_FLOAT, 5) == 1.0
    assert stats.t_cdf(-_PAST_FLOAT, 5) == 0.0
