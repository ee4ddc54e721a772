"""One exception contract: hostile arguments raise ValueError or TypeError only.

Every public name, the special functions behind the significance tests and
the two validated constructors are called with arguments drawn from
non-finite, huge, subnormal and None values and short lists of them, mixed
with a few well-typed values (a format, a journal label, a count matrix,
options and a bundle) so that calls get past their first argument. A
`DataError` is a ValueError. Any other exception escaping is a failure, and
so is a probability or p-value outside [0, 1].
"""

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

import seasonstats
from seasonstats import AnalysisOptions, CountMatrix, build_bundle, special, stats

_SCALARS = st.sampled_from((math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
                            1e-310, 2**64, None))
_MATRIX = CountMatrix((2012,), tuple((m + 1,) for m in range(12)), "submitted")
_ACCEPTED = CountMatrix((2012,), tuple((m // 2,) for m in range(12)), "accepted")
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

    check()
