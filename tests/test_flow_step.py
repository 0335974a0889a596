"""The generated RK4 loop against the term-by-term interpreter, bit for bit.

``flows._compile_loop`` turns a field into one straight-line Python
function for the whole fixed-step RK4 loop; the trajectory CSV bytes
depend on every float it computes.  Most tests here run it for one step.
Random Laurent fields (negative exponents in the last coordinate, empty
components) at random points, signed zeros, huge and non-finite values
included, must give the oracle's floats by ``float.hex``, so that
-0.0 and nan count, and must raise the oracle's exception (OverflowError
from ``**``, ZeroDivisionError from ``0.0**-e``) on the same inputs.
"""

import itertools
import math
import re
import struct
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rhs_oracle, rk4_step_oracle
from rbkit import FlowSpec, FlowState, LaurentPoly, VectorField, flows, generator, generator_names, integrate
from rbkit.flows import _compile_loop, _sum_lines, _terms


@st.composite
def laurent_fields(draw):
    n = draw(st.integers(1, 4))
    components = []
    for _ in range(n):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(n - 1)) + (draw(st.integers(-3, 3)),)
            terms[exps] = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 9)))
        components.append(LaurentPoly(n, terms))
    return VectorField(components)


COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e-200]),
    st.floats(-10.0, 10.0),
    st.floats(),
)
STEP = st.one_of(st.sampled_from([1e-3, -0.5, 0.0, 1e150]), st.floats(-2.0, 2.0), st.floats())


def one_step(field):
    """``step(y, h)``: the coordinates the generated loop of field reaches in one step of h.

    The loop is compiled with ``flows._escape``, which it calls when its
    escape test fails, patched to a no-op, so every step it takes is
    stored, escapes included, and its coordinates come back.
    """
    with mock.patch.object(flows, "_escape", lambda *args: None):
        run = _compile_loop(field)

    def step(y, h):
        states = [(tuple(y), 0.0)]
        run(states, [h], True)
        return states[-1][0]

    return step


def outcome(fn, *args):
    """The floats fn returns, as hex strings, or the type of the error it raises."""
    try:
        return [value.hex() for value in fn(*args)]
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field=laurent_fields(), data=st.data(), h=STEP)
def test_compiled_step_matches_the_oracle(field, data, h):
    y = tuple(data.draw(st.lists(COORD, min_size=field.n, max_size=field.n)))
    assert outcome(one_step(field), y, h) == outcome(rk4_step_oracle, rhs_oracle(field), y, h)


def test_overflow_and_zero_division_are_reached():
    # the second stage of the boost squares x1 of about 1e165
    boost, y = generator("G1", 2), (1e8, 1.0)
    assert outcome(one_step(boost), y, 1e150) is OverflowError
    assert outcome(rk4_step_oracle, rhs_oracle(boost), y, 1e150) is OverflowError
    inverse = VectorField([LaurentPoly.zero(2), LaurentPoly.monomial(2, (0, -2))])
    for y in ((1.0, 0.0), (1.0, -0.0)):
        assert outcome(one_step(inverse), y, 0.5) is ZeroDivisionError
        assert outcome(rk4_step_oracle, rhs_oracle(inverse), y, 0.5) is ZeroDivisionError
    # each component of the zero field is +0.0, so a step back adds -0.0 to each coordinate
    zero, y = VectorField.zero(3), (-0.0, -2.0, 0.0)
    expected = ["-0x0.0p+0", "-0x1.0000000000000p+1", "0x0.0p+0"]
    assert outcome(one_step(zero), y, -1.0) == outcome(rk4_step_oracle, rhs_oracle(zero), y, -1.0) == expected


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_unit_power_and_unit_coefficient_keep_every_bit():
    # the compiled step writes x**1 as x and drops a coefficient 1.0 before
    # a factor; both must hold for every class of float, signs included
    powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values = [0.0, 5e-324, 1.7976931348623157e308, math.inf, math.nan] + powers
    for x in values + [-v for v in values]:
        assert _bits(x**1) == _bits(x) and _bits(1.0 * x) == _bits(x), x


def test_compiled_generator_steps_match_the_oracle_with_the_elisions():
    # every generator but a translation (a constant 1.0) has a unit
    # coefficient or exponent to elide, and so a bare coordinate in its step
    grid = (-0.0, 0.0, 0.5, -1.25, 3.0)
    for n in range(2, 8):
        for name in generator_names(n) + (("G",) if n == 2 else ()):
            field = generator(name, n)
            source = [line for terms in _terms(field, {}) for line in _sum_lines("a", terms, "y")]
            assert any(re.search(r"y\d+(?![\d*])", line) for line in source) == (name[0] != "T"), name
            step, rhs = one_step(field), rhs_oracle(field)
            points = itertools.islice(itertools.product(grid, repeat=n), 0, None, 1 + 5**n // 400)
            for y in points:
                for h in (1e-3, -0.5):
                    assert outcome(step, y, h) == outcome(rk4_step_oracle, rhs, y, h), (name, y, h)


def test_step_of_a_component_with_thousands_of_terms():
    # component 1 of the boost G1 has n terms; a component written as one
    # expression nests one level per term, and CPython refuses to compile
    # about 3000 levels.  x1**0 + x1**1 + ... in two coordinates is as wide
    # at a fraction of the cost of G1 in 5000 coordinates.
    wide = LaurentPoly(2, {(e, 0): Fraction(1, e + 1) for e in range(5000)})
    field = VectorField([wide, LaurentPoly.zero(2)])
    y = (0.75, 1.0)
    assert outcome(one_step(field), y, 1e-3) == outcome(rk4_step_oracle, rhs_oracle(field), y, 1e-3)


def test_steps_whose_coordinate_sum_passes_the_limit_continue():
    # a rotation of the (x1, x2) plane at radius 7.5e8: |x1| + |x2| + x3
    # passes COORD_LIMIT after the first and third steps, while every
    # coordinate stays within it.  The loop tests each coordinate against
    # the limit, not their sum, so it stores those states and the run goes on.
    x1, x2 = LaurentPoly.monomial(3, (1, 0, 0)), LaurentPoly.monomial(3, (0, 1, 0))
    field = VectorField([-x2, x1, LaurentPoly.zero(3)])
    p0 = FlowState((7.5e8, 0.0, 1.0))
    states = integrate(field, p0, 2.25, 0.75)
    assert [state.t for state in states] == [0.0, 0.75, 1.5, 2.25]
    rhs, y = rhs_oracle(field), list(p0.coords)
    for state in states[1:]:
        y = rk4_step_oracle(rhs, y, 0.75)
        assert [v.hex() for v in state.coords] == [v.hex() for v in y]
        assert max(map(abs, y)) <= flows.COORD_LIMIT
    past_limit = [sum(map(abs, state.coords)) > flows.COORD_LIMIT for state in states[1:]]
    assert past_limit == [True, False, True]


def test_integrate_states_equal_validated_states():
    cases = [
        (generator("T1", 3), FlowState((-0.0, 0.5, 1.0), 0.25), 0.5, 0.01),
        (generator("D", 2), FlowState((0.0, 0.0)), 0.3, 0.1),
        (generator("G", 2), FlowState((0.3, 1.2)), 1.0, 0.03),
        (generator("G1", 3), FlowState((4.0, 0.0, 0.0)), 0.2, 0.01),  # on the boundary plane
        (generator("G2", 5), FlowState((0.2, -0.5, 0.7, -0.1, 0.9)), 1.0, 0.1),
        (FlowSpec(kind="G1", n=4).field(), FlowState((0.1, 0.2, -0.3, 0.4)), 0.37, 0.05),
    ]
    for field, p0, t_max, dt in cases:
        states = integrate(field, p0, t_max, dt)
        assert type(states) is list and states[0] is p0
        # the step sizes integrate takes: dt, then the leftover of t_max
        nsteps = round(t_max / dt)
        leftover = t_max - nsteps * dt
        steps = [dt] * nsteps + ([leftover] if leftover > 1e-15 else [])
        assert len(states) == len(steps) + 1
        rhs, y = rhs_oracle(field), list(p0.coords)
        for h, state in zip(steps, states[1:]):
            y = rk4_step_oracle(rhs, y, h)
            assert [v.hex() for v in state.coords] == [v.hex() for v in y]
        for state in states:
            assert type(state.coords) is tuple and all(type(v) is float for v in state.coords)
            assert type(state.t) is float
            assert repr(FlowState(state.coords, state.t)) == repr(state)
            assert FlowState(state.coords, state.t) == state
