"""The one vector reader, `indices._floats`, held to the readers it replaced.

Four readers used to state the rule for the defined values of a vector:
`indices._defined`, the loop of `indices.monthly_entropy_terms`,
`stats._values` and the checks of `probability.normalize`. They are copied
below as they were, and each public caller is computed from them through
the same private kernels it uses today. On vectors of None, finite floats
(zeros, negatives, subnormals, +/-1e308), ints and 10**400, every caller
gives the reference's result bit for bit or raises the reference's
exception class with its message. NaN and +/-inf are left out: the old
index readers let them through, and the new one refuses them (see
tests/test_contract.py).

normalize is the one caller whose errors changed: it now raises the
reader's messages, and the zero sum of the indices' `_total`, as DataError,
listed in `_NORMALIZE_REWORDED`, and reads
its entries in order, so an int past the float range that comes before the
first negative entry is named instead of that entry. The indices have since
refused a result that is not finite, and the old terms of
`monthly_entropy_terms` are held to that rule, `indices._finite`, too.
"""

import math
import sys
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import seasonstats
from seasonstats import DataError, indices, stats
from seasonstats.indices import _left_sum

_PAST_FLOAT = 10**400
_FLOAT_MAX = sys.float_info.max


# --- the readers as they were --------------------------------------------

def _defined_reference(p):
    out = []
    for v in p:
        if v is None:
            continue
        if v < 0:
            raise ValueError("negative entry in distribution")
        try:
            out.append(float(v))
        except OverflowError:  # an int past the float range
            raise ValueError("entries must lie within the float range") from None
    if not out:
        raise ValueError("no defined entries")
    return out


def _monthly_entropy_terms_reference(p):
    terms = []
    for v in p:
        if v is None:
            terms.append(None)
            continue
        if v < 0:
            raise ValueError("negative entry in distribution")
        try:
            terms.append(-v * math.log(v) if v > 0.0 else 0.0)
        except OverflowError:  # an int past the float range
            raise ValueError("entries must lie within the float range") from None
    return tuple(terms)


def _finite_terms(terms):
    """The old terms under the result rule of the indices: a term past the
    float range (-inf, from an entry near 1e308) is refused."""
    for term in terms:
        if term is not None:
            indices._finite("entropy term", term)
    return terms


def _values_reference(x):
    try:
        values = [float(v) for v in x if v is not None]
    except OverflowError:  # an int past the float range
        raise ValueError("values must lie within the float range") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    return values


def _normalize_reference(vector):
    defined = [v for v in vector if v is not None]
    if any(v < 0 for v in defined):
        raise DataError("negative entry")
    if not all(v <= _FLOAT_MAX for v in defined):  # false for NaN, inf and ints past it
        raise DataError("entries must be finite and within the float range")
    total = _left_sum(defined)
    if total <= 0:
        raise DataError("cannot normalize: no positive entries")
    if total == math.inf:
        raise DataError("sum of entries overflows the float range")
    return tuple(None if v is None else v / total for v in vector)


_NORMALIZE_REWORDED = {
    "negative entry": "negative entry in distribution",
    "entries must be finite and within the float range": "entries must lie within the float range",
    "cannot normalize: no positive entries": "all entries are zero",
}


# --- each public caller from the old readers and today's kernels ----------

def _lorenz_reference(z):
    values = sorted(_defined_reference(z))
    total = indices._total(values)
    n = len(values)
    points = [(0.0, 0.0)]
    running = 0.0
    for i, v in enumerate(values, start=1):
        running += v
        points.append((i / n, running / total))
    return points


def _theil_reference(p):
    values = _defined_reference(p)
    return math.log(len(values)) - indices._entropy(values)


def _moments_reference(x):
    values = _values_reference(x)
    if len(values) < 2:
        raise ValueError("need at least 2 values")
    return len(values), stats._mean(values), stats._stdev(values)


def _z_one_sample_reference(x, k, sigma):
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    values = _values_reference(x)
    if not values:
        raise ValueError("empty sample")
    return stats._z_test(len(values), stats._mean(values), k, sigma)


_PAIRS = {
    "entropy": (seasonstats.entropy, lambda x: indices._entropy(_defined_reference(x))),
    "hhi": (seasonstats.hhi, lambda x: indices._hhi(_defined_reference(x))),
    "gini": (seasonstats.gini, lambda x: indices._gini(_defined_reference(x))),
    "lorenz": (seasonstats.lorenz, _lorenz_reference),
    "theil": (seasonstats.theil, _theil_reference),
    **{f"diversity q={q}": (partial(seasonstats.diversity, q=q),
                            lambda x, q=q: indices._diversity(_defined_reference(x), q))
       for q in (0.0, 0.5, 1.0, 2.0, math.inf)},
    "monthly_entropy_terms": (seasonstats.monthly_entropy_terms,
                              lambda x: _finite_terms(_monthly_entropy_terms_reference(x))),
    "describe": (seasonstats.describe, lambda x: stats._band(*_moments_reference(x))),
    "t_one_sample": (lambda x: seasonstats.t_one_sample(x, 0.25),
                     lambda x: stats._t_test(*_moments_reference(x), 0.25)),
    "z_one_sample": (lambda x: seasonstats.z_one_sample(x, 0.25, 0.5),
                     lambda x: _z_one_sample_reference(x, 0.25, 0.5)),
    "normalize": (seasonstats.normalize, _normalize_reference),
}


def _outcome(fn, x):
    """fn(x) with each float as its hex, or the class and message it raised."""
    try:
        return "value", _exact(fn(x))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _exact(result):
    if isinstance(result, (tuple, list)):
        return type(result), tuple(map(_exact, result))
    if isinstance(result, float):
        return result.hex()
    return result


def _int_past_float_before_negative(x) -> bool:
    for v in x:
        if v is None:
            continue
        if v < 0:
            return False
        if v > _FLOAT_MAX:
            return True
    return False


_ENTRIES = (st.none()
            | st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, -1.0,
                               _PAST_FLOAT))
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(0.0, 10.0)
            | st.integers(-5, 2**70))


@pytest.mark.parametrize("name", sorted(_PAIRS))
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(_ENTRIES, max_size=8))
@example([_PAST_FLOAT, -1.0])
@example([-1.0, _PAST_FLOAT])
@example([None, None])
@example([2**60, 3, 3, 0.5])
@example([10**308, 10**308])
@example([1e308, 1e308, 0.5])
def test_each_caller_reads_its_vector_as_the_old_reader_did(name, x):
    fn, reference = _PAIRS[name]
    got, expected = _outcome(fn, x), _outcome(reference, x)
    if name == "normalize" and expected[0] is DataError:
        old_message = expected[1]
        expected = DataError, _NORMALIZE_REWORDED.get(old_message, old_message)
        if old_message == "negative entry" and _int_past_float_before_negative(x):
            expected = DataError, "entries must lie within the float range"
    assert got == expected
