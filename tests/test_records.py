"""The immutable records: namedtuple subclasses with checked constructors.

Each record keeps the field names, order and defaults, keyword
construction, the error types and messages, immutability, and the
field-wise ``==`` and ``hash`` it had as a frozen dataclass (whose hash was
the hash of the tuple of its fields).  ``_make`` and ``_replace`` of a
checked record go through its checks, so the only unchecked path is the
RK4 loop of ``integrate``, which stores a state only after its checks
pass.  Importing ``rbkit.cli`` loads neither ``dataclasses`` nor
``inspect``.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import rbkit
from helpers import dual_forms
from rbkit import (
    AlgebraSpan,
    BoundaryPoint,
    ContactReport,
    FlowSpec,
    FlowState,
    IndexOutOfRange,
    NonFinite,
    SolitonParams,
    contact_report,
    generator,
    integrate,
)

PARAMS = {"n": 3, "a": ("1", "-2"), "b": "1/2", "c": (3, 1), "rho": "1/3"}


def _span_values():
    T, D = generator("T1", 2), generator("D", 2)
    return {"basis": (T, D), "brackets": (((0, 1), T, ((0, Fraction(1)),)),), "seed_dimension": 2,
            "added": (), "cap": 3, "cap_exceeded": False}


def _report_values():
    params = SolitonParams(**PARAMS)
    report = contact_report(params, *dual_forms(params))
    return {name: getattr(report, name) for name in ContactReport._fields}


# record type, field values (in field order) built afresh on each call
RECORDS = {
    "SolitonParams": (SolitonParams, lambda: dict(PARAMS)),
    "FlowState": (FlowState, lambda: {"coords": (0.5, -1, 2), "t": 0.25}),
    "FlowSpec": (FlowSpec, lambda: {"kind": "G1", "n": 3}),
    "AlgebraSpan": (AlgebraSpan, _span_values),
    "ContactReport": (ContactReport, _report_values),
}

FIELDS = {
    "SolitonParams": ("n", "a", "b", "c", "rho"),
    "FlowState": ("coords", "t"),
    "FlowSpec": ("kind", "n"),
    "AlgebraSpan": ("basis", "brackets", "seed_dimension", "added", "cap", "cap_exceeded"),
    "ContactReport": ("matrix", "pf", "det", "top_coeff", "cleared", "consistent", "is_contact"),
}


def test_import_of_cli_loads_no_dataclasses():
    # -S: no site hooks, so sys.modules holds only what the import loaded;
    # the layers load lazily, and FlowSpec and flat load every one of them
    src = pathlib.Path(rbkit.__file__).resolve().parents[1]
    probe = (
        "import sys, rbkit.cli; from rbkit import FlowSpec, flat; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_in_order(name):
    assert RECORDS[name][0]._fields == FIELDS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_give_equal_records_and_hashes(name):
    cls, values = RECORDS[name]
    first, second = cls(**values()), cls(**values())
    assert first is not second
    assert first == second and hash(first) == hash(second)
    # a frozen dataclass hashed the tuple of its fields
    assert hash(first) == hash(tuple(getattr(first, field) for field in FIELDS[name]))
    assert cls(*(getattr(first, field) for field in FIELDS[name])) == first


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    cls, values = RECORDS[name]
    record = cls(**values())
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**values()) == record


def test_defaults():
    params = SolitonParams(n=2, a=[1], b=0, c=[0])
    assert params.rho == Fraction(1)
    assert type(params.rho) is Fraction and type(params.a) is tuple
    state = FlowState([1, 2])
    assert state.t == 0.0 and type(state.t) is float and state.coords == (1.0, 2.0)


def test_values_are_coerced():
    params = SolitonParams(**PARAMS)
    assert params.a == (Fraction(1), Fraction(-2)) and params.c == (Fraction(3), Fraction(1))
    assert (params.b, params.rho) == (Fraction(1, 2), Fraction(1, 3))
    assert all(type(v) is Fraction for v in params.a + params.c + (params.b, params.rho))
    state = FlowState((1, 0), 3)
    assert state == ((1.0, 0.0), 3.0) and all(type(x) is float for x in state.coords + (state.t,))


# (record type, keyword arguments, error type, message)
INVALID = [
    (SolitonParams, dict(PARAMS, n=1, a=(), c=()), ValueError, "dimension must be >= 2, got 1"),
    (SolitonParams, dict(PARAMS, a=("1",)), ValueError, "a and c must have length n-1 = 2"),
    (SolitonParams, dict(PARAMS, c=(1, 2, 3)), ValueError, "a and c must have length n-1 = 2"),
    (SolitonParams, dict(PARAMS, rho="0/5"), ValueError, "rho must be nonzero"),
    (SolitonParams, dict(PARAMS, b="x"), ValueError, "Invalid literal for Fraction: 'x'"),
    (FlowState, {"coords": (0.0, -1.0)}, BoundaryPoint, "last coordinate must be nonnegative, got (0.0, -1.0)"),
    (FlowState, {"coords": ()}, BoundaryPoint, "last coordinate must be nonnegative, got ()"),
    (FlowState, {"coords": (float("nan"), 1)}, NonFinite, "non-finite state (nan, 1.0) at t=0.0"),
    (FlowState, {"coords": (0, 1), "t": "inf"}, NonFinite, "non-finite state (0.0, 1.0) at t=inf"),
    (FlowSpec, {"kind": "Q1", "n": 3}, ValueError, "unknown generator name 'Q1'"),
    (FlowSpec, {"kind": "T3", "n": 3}, IndexOutOfRange, "generator index 3 outside 1..2"),
    (FlowSpec, {"kind": "D", "n": 1}, ValueError, "dimension must be >= 2, got 1"),
]


@pytest.mark.parametrize("cls, kwargs, error, message", INVALID)
def test_validation_errors_keep_type_and_message(cls, kwargs, error, message):
    with pytest.raises(error) as raised:
        cls(**kwargs)
    assert str(raised.value) == message


@pytest.mark.parametrize("cls, kwargs, error, message", INVALID)
def test_make_and_replace_are_checked(cls, kwargs, error, message):
    valid = {
        SolitonParams: SolitonParams(**PARAMS),
        FlowState: FlowState((1.0, 2.0)),
        FlowSpec: FlowSpec("D", 3),
    }[cls]
    with pytest.raises(error) as raised:
        valid._replace(**kwargs)
    assert str(raised.value) == message
    values = valid._asdict()
    values.update(kwargs)
    with pytest.raises(error) as raised:
        cls._make(values[field] for field in cls._fields)
    assert str(raised.value) == message


def test_make_and_replace_coerce_like_the_constructor():
    params = SolitonParams(**PARAMS)
    assert params._replace(rho="1/2") == SolitonParams(**dict(PARAMS, rho="1/2"))
    assert type(params._replace(b=2).b) is Fraction
    assert SolitonParams._make(params) == params
    state = FlowState((1.0, 2.0), 0.5)
    assert type(state._replace(t=1).t) is float
    assert FlowState._make([(1, 2), 0.5]) == state


def test_trusted_state_equals_checked_state():
    # integrate stores its states without FlowState's checks, each one after
    # the generated loop's exact test passes; that test bounds each |x_j| by
    # COORD_LIMIT, so the T1 run from (6e8, 6e8), whose sum of the |x_j|
    # passes the limit, stores its states too
    runs = (
        (generator("T1", 2), FlowState((1.0, 2.0)), 0.3, 0.1),
        (generator("D", 3), FlowState((0.0, -0.0, 0.0), 3.5), 0.2, 0.1),
        (generator("G1", 2), FlowState((-1e-300, 1e-300), -2.0), 0.5, 0.25),
        (generator("T1", 2), FlowState((6e8, 6e8)), 2.0, 1.0),
    )
    for field, p0, t_max, dt in runs:
        states = integrate(field, p0, t_max, dt)
        assert len(states) > 1
        for trusted in states[1:]:
            checked = FlowState(trusted.coords, trusted.t)
            assert type(trusted) is FlowState and type(trusted.coords) is tuple and type(trusted.t) is float
            assert all(type(x) is float for x in trusted.coords)
            assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)


def test_record_equals_plain_tuple_of_its_values():
    assert FlowSpec("D", 3) == ("D", 3)
    assert FlowState((1, 2), 0.5) == ((1.0, 2.0), 0.5)
