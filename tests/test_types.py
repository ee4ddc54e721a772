"""The value types: immutable named tuples, two of which check their fields."""

import re
import typing

import pytest

import seasonstats
from seasonstats import (AnalysisBundle, AnalysisOptions, CountMatrix, DataError,
                         DescriptiveStats, MonthTable, NamedDocument,
                         SpectralPeak, describe, render)

_COUNTS = {"years": (2012,), "counts": ((1,),) * 12}

# (type, valid fields in field order, field to break, bad value, error, message)
VALIDATED = [
    pytest.param(CountMatrix, _COUNTS, "counts", ((1,),) * 11, DataError,
                 "count matrix must have 12 month rows", id="CountMatrix"),
    pytest.param(CountMatrix, _COUNTS, "years", (), DataError,
                 "count matrix must cover at least one year", id="CountMatrix-no-years"),
    pytest.param(CountMatrix, _COUNTS, "counts", ((1, 1),) * 12, DataError,
                 "count row width does not match year list", id="CountMatrix-row-width"),
    pytest.param(AnalysisOptions, {"q_orders": (1.0, 2.0), "precision": 5, "t_null": 0.1,
                                   "z_sigma": None, "z_null": None},
                 "precision", 5.5, DataError, "precision must be an integer",
                 id="AnalysisOptions"),
]


@pytest.mark.parametrize("cls, fields, name, bad, error, message", VALIDATED)
def test_bad_field_refused_on_every_path(cls, fields, name, bad, error, message):
    assert tuple(fields) == cls._fields
    good = cls(**fields)
    assert good == cls(*fields.values()) == cls._make(fields.values()) == tuple(fields.values())
    assert good._replace(**{name: fields[name]}) == good
    broken = {**fields, name: bad}
    for build in (lambda: cls(*broken.values()), lambda: cls(**broken),
                  lambda: good._replace(**{name: bad}), lambda: cls._make(broken.values())):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            build()
        assert type(caught.value) is error
    with pytest.raises(AttributeError):
        setattr(good, name, bad)
    with pytest.raises(AttributeError):
        good.note = "extra"
    assert getattr(good, name) == fields[name]


def test_result_types_are_named_tuples(jscs_bundle):
    doc = render(jscs_bundle, "csv")[0]
    stats = describe([1.0, 2.0, 3.0])
    values = (jscs_bundle, jscs_bundle.options, jscs_bundle.submitted,
              jscs_bundle.peaks[0][1][0], stats, doc)
    for value, cls in zip(values, (AnalysisBundle, AnalysisOptions, MonthTable,
                                   SpectralPeak, DescriptiveStats, NamedDocument)):
        assert type(value) is cls
        assert isinstance(value, tuple)
        assert value == tuple(value)
        assert repr(value).startswith(f"{cls.__name__}({cls._fields[0]}=")
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], None)
    assert stats == (2.0, 1.0, 0.0, 4.0, 3)
    assert doc == (doc.name, doc.text)
    # imported by a test module under its own name, pytest would collect it
    assert seasonstats.TestResult._fields == (
        "statistic", "p_value", "dof", "hypothesized_value", "test_kind")


@pytest.mark.parametrize("cls", [seasonstats.TestResult, DescriptiveStats, CountMatrix,
                                 MonthTable, SpectralPeak, AnalysisOptions, AnalysisBundle,
                                 NamedDocument])
def test_record_field_types_are_evaluated(cls):
    # a field type written as a string would reach typing as a ForwardRef;
    # CountMatrix and AnalysisOptions take their fields from a named-tuple base
    types = {}
    for base in cls.__mro__[:cls.__mro__.index(tuple)]:
        types = {**base.__annotations__, **types}
    assert tuple(types) == cls._fields
    assert not [kind for kind in types.values() if isinstance(kind, (str, typing.ForwardRef))]
