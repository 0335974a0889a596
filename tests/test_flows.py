"""Numeric flows: RK4 vs closed forms, group law, isometry, escapes."""

import math
import random

import pytest

from helpers import closed_flow_oracle, closed_state, csv_gap, isometry_check, rhs_oracle
from rbkit import flows, solitons
from rbkit import (
    BoundaryEscape,
    BoundaryPoint,
    FlowEscape,
    FlowSpec,
    FlowState,
    IndexOutOfRange,
    LaurentPoly,
    NonFinite,
    VectorField,
    generator,
    integrate,
    write_trajectory_csv,
)


def test_flow_state_validation():
    with pytest.raises(BoundaryPoint):
        FlowState((0.0, -1.0))
    with pytest.raises(NonFinite):
        FlowState((float("nan"), 1.0))
    # boundary-plane starts are allowed for trajectory runs
    FlowState((0.0, 1.0, 0.0))


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        integrate(generator("D", 2), FlowState((0.0, 1.0)), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(generator("D", 2), FlowState((0.0, 1.0)), -1.0, 1e-3)
    with pytest.raises(ValueError, match="positive and finite"):
        integrate(generator("D", 2), FlowState((0.0, 1.0)), 1.0, math.inf)
    with pytest.raises(ValueError, match="differs from state arity"):
        integrate(generator("D", 3), FlowState((0.0, 1.0)), 1.0, 1e-3)
    # the name is checked when the spec is made, not when it is flowed
    with pytest.raises(ValueError):
        FlowSpec(kind="Q7", n=2)
    for kind in ("T3", "G3", "T9"):
        with pytest.raises(IndexOutOfRange):
            FlowSpec(kind=kind, n=3)
    with pytest.raises(ValueError):
        FlowSpec(kind="G", n=3)


def test_flow_spec_n_cap_checked_before_the_name(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was read above the n limit")

    assert flows.MAX_FLOW_N == 1000
    monkeypatch.setattr(solitons, "generator", refuse)
    monkeypatch.setattr(flows, "generator", refuse)
    assert FlowSpec("T1", flows.MAX_FLOW_N) == ("T1", 1000)
    # n is checked before the name is parsed, so an unknown name above the cap reports the cap
    monkeypatch.setattr(flows, "_parse_generator", refuse)
    for kind in ("T1", "G1", "Q7"):
        for n in (flows.MAX_FLOW_N + 1, 10**6):
            with pytest.raises(ValueError) as raised:
                FlowSpec(kind, n)
            assert str(raised.value) == f"n = {n} exceeds the limit of 1000"


def test_integrate_step_cap(monkeypatch):
    field, p0 = generator("T1", 2), FlowState((0.0, 1.0))
    # rejected before any step runs or any state list is built
    for t_max, dt in ((1e300, 1e-300), (1e3, 1e-9), (float("nan"), 1e-3), (1.0, float("nan"))):
        with pytest.raises(ValueError, match=f"limit of {flows.MAX_STEPS} steps"):
            integrate(field, p0, t_max, dt)
    monkeypatch.setattr(flows, "MAX_STEPS", 10)
    assert len(integrate(field, p0, 1.0, 0.1)) == 11
    with pytest.raises(ValueError, match="limit of 10 steps"):
        integrate(field, p0, 1.0, 0.09)


def test_integrate_stored_coordinate_cap(monkeypatch):
    def refuse(field):
        raise AssertionError("an RK4 loop was compiled above the stored-coordinate limit")

    assert flows.MAX_STORED_COORDS == 10**7
    field, p0 = generator("T1", 2), FlowState((0.0, 1.0))
    monkeypatch.setattr(flows, "MAX_STORED_COORDS", 22)
    assert len(integrate(field, p0, 1.0, 0.1)) == 11  # 11 states of 2 coordinates, at the limit
    # (steps + 1) * n is checked before any step is compiled or run
    monkeypatch.setattr(flows, "_compile_loop", refuse)
    for t_max in (1.1, 1.05):  # 11 steps; 10 steps and a leftover one
        with pytest.raises(ValueError) as raised:
            integrate(field, p0, t_max, 0.1)
        assert str(raised.value) == "(steps + 1) * n = 24 exceeds the limit of 22 stored coordinates"
    # the step-count and arity checks come first, with their own messages
    with pytest.raises(ValueError, match=f"limit of {flows.MAX_STEPS} steps"):
        integrate(field, p0, 1e300, 1e-300)
    with pytest.raises(ValueError, match="differs from state arity"):
        integrate(generator("T1", 3), p0, 10.0, 0.1)


def test_translation_flow_exact(tmp_path):
    spec = FlowSpec(kind="T1", n=4)
    p0 = FlowState((0.0, 0.0, 0.0, 1.0))
    states = integrate(spec.field(), p0, 1.0, 1e-3)
    assert max(abs(a - b) for a, b in zip(states[-1].coords, (1.0, 0.0, 0.0, 1.0))) < 1e-12
    assert csv_gap(spec, p0, 1.0, 1e-3, tmp_path) < 1e-12


def test_dilation_flow_reaches_e(tmp_path):
    spec = FlowSpec(kind="D", n=2)
    p0 = FlowState((0.0, 1.0))
    final = integrate(spec.field(), p0, 1.0, 1e-3)[-1]
    assert abs(final.coords[1] - math.e) < 1e-8
    assert csv_gap(spec, p0, 1.0, 1e-3, tmp_path) < 1e-8


def test_zero_field_constant_trajectory():
    zero = VectorField.zero(2)
    states = integrate(zero, FlowState((1.0, 2.0)), 0.5, 1e-2)
    assert all(s.coords == (1.0, 2.0) for s in states)


def test_rotation_closed_form_frozen_values():
    # z0 = i: e + i f = i, z(t) = -1/(t + i) = (-t + i)/(t^2 + 1)
    spec = FlowSpec(kind="G", n=2)
    p0 = FlowState((0.0, 1.0))
    assert closed_state(spec, p0, 0.0).coords == (0.0, 1.0)
    st = closed_state(spec, p0, 1.0)
    assert abs(st.coords[0] - (-0.5)) < 1e-15
    assert abs(st.coords[1] - 0.5) < 1e-15


def test_boost_closed_form_frozen_values():
    # start (0,1,0): s0 + i e0 = 2i, x1(t) = -2t/(t^2+4), r(t) = 4/(t^2+4)
    spec = FlowSpec(kind="G1", n=3)
    p0 = FlowState((0.0, 1.0, 0.0))
    for t in (0.0, 0.5, 1.0, 2.0):
        st = closed_state(spec, p0, t)
        assert abs(st.coords[0] - (-2 * t / (t * t + 4))) < 1e-15
        assert abs(st.coords[1] - (4 / (t * t + 4))) < 1e-15
        assert st.coords[2] == 0.0


def test_boost_transverse_rescaling_preserves_direction():
    spec = FlowSpec(kind="G2", n=5)
    p0 = FlowState((3.0, 0.5, 4.0, 0.0, 1.0))
    st = closed_state(spec, p0, 0.7)
    # transverse components stay proportional to the initial ones
    ratios = [st.coords[i] / p0.coords[i] for i in (0, 2, 4)]
    assert max(ratios) - min(ratios) < 1e-12
    assert st.coords[3] == 0.0
    # imaginary part stays positive, so the rescale factor is positive
    assert ratios[0] > 0


def test_dilation_identity_at_zero_time():
    spec = FlowSpec(kind="D", n=3)
    p0 = FlowState((2.0, -1.0, 0.5))
    assert closed_state(spec, p0, 0.0).coords == p0.coords


def test_trajectory_csv_gap_bounds(tmp_path):
    cases = [
        (FlowSpec(kind="T1", n=2), FlowState((0.0, 1.0)), 1e-10),
        (FlowSpec(kind="D", n=3), FlowState((1.0, 1.0, 1.0)), 1e-8),
        (FlowSpec(kind="G", n=2), FlowState((0.0, 1.0)), 1e-8),
        (FlowSpec(kind="G1", n=3), FlowState((0.0, 1.0, 0.0)), 1e-8),
        (FlowSpec(kind="G2", n=3), FlowState((1.0, 0.0, 1.0)), 1e-8),
        (FlowSpec(kind="G2", n=5), FlowState((1.0, 0.0, 0.0, 0.0, 1.0)), 1e-8),
    ]
    for spec, p0, bound in cases:
        assert csv_gap(spec, p0, 1.0, 1e-3, tmp_path) <= bound


def test_rk4_fourth_order_convergence(tmp_path):
    # run where truncation dominates roundoff: errors at dt and dt/2
    spec = FlowSpec(kind="G1", n=3)
    p0 = FlowState((0.0, 1.0, 0.0))
    coarse = csv_gap(spec, p0, 1.0, 1 / 64, tmp_path)
    fine = csv_gap(spec, p0, 1.0, 1 / 128, tmp_path)
    assert coarse / fine >= 12.0


def test_group_law_all_kinds():
    cases = [
        (FlowSpec(kind="T1", n=2), FlowState((0.3, 1.0))),
        (FlowSpec(kind="D", n=2), FlowState((0.3, 1.0))),
        (FlowSpec(kind="G", n=2), FlowState((0.3, 1.0))),
        (FlowSpec(kind="G1", n=3), FlowState((0.5, 1.0, 2.0))),
        (FlowSpec(kind="G2", n=5), FlowState((1.0, 0.5, 0.2, 0.1, 1.5))),
    ]
    for spec, p0 in cases:
        for s, t in ((0.3, 0.7), (0.1, 0.2), (1.0, 1.0)):
            stepwise = closed_state(spec, closed_state(spec, p0, s), t)
            direct = closed_state(spec, p0, s + t)
            gap = max(abs(a - b) for a, b in zip(stepwise.coords, direct.coords))
            assert gap <= 1e-9


def test_closed_form_time_derivative_matches_field():
    h = 1e-5
    cases = [
        (FlowSpec(kind="D", n=2), FlowState((0.7, 1.3))),
        (FlowSpec(kind="G", n=2), FlowState((0.4, 0.9))),
        (FlowSpec(kind="G1", n=3), FlowState((0.2, 0.8, 1.1))),
        (FlowSpec(kind="T2", n=3), FlowState((0.2, 0.8, 1.1))),
    ]
    for spec, p0 in cases:
        # the right-hand side RK4 evaluates
        rhs = rhs_oracle(spec.field())(p0.coords)
        forward = closed_state(spec, p0, h)
        backward = closed_state(spec, p0, -h)
        for i in range(spec.n):
            numeric = (forward.coords[i] - backward.coords[i]) / (2 * h)
            assert abs(numeric - rhs[i]) < 1e-6


def test_closed_form_fixed_at_origin():
    # the origin is a zero of D, of every boost G_k and of the plane rotation G
    for kind, n in (("D", 2), ("G1", 2), ("G", 2), ("G1", 3)):
        spec, p0 = FlowSpec(kind=kind, n=n), FlowState((0.0,) * n, 0.5)
        for t in (-1.0, 0.0, 2.0, 1e300):
            assert closed_state(spec, p0, t) == FlowState((0.0,) * n, 0.5 + t)


def test_boost_radius_stays_positive():
    spec = FlowSpec(kind="G1", n=3)
    p0 = FlowState((1.0, 0.5, 0.5))
    for t in (-5.0, -1.0, 0.0, 1.0, 5.0, 50.0):
        st = closed_state(spec, p0, t)
        assert st.coords[-1] > 0


def _outcome(fn, *args):
    """The exact result of fn: the floats as hex (signed zeros kept), or the error's type and message."""
    try:
        state = fn(*args)
    except (ArithmeticError, ValueError, BoundaryPoint, NonFinite) as exc:
        return type(exc), str(exc)
    return tuple(map(float.hex, state.coords)), state.t.hex()


def _closed_form_cases(rng):
    """(spec, start) pairs covering every kind and every branch of the closed forms."""
    cases = []
    for n in (2, 3, 5):
        interior = tuple(rng.uniform(-3, 3) for _ in range(n - 1)) + (rng.uniform(0.1, 3),)
        boundary = tuple(rng.uniform(-3, 3) for _ in range(n - 1)) + (0.0,)
        origin = (-0.0,) + (0.0,) * (n - 1)
        extreme = (1e300,) * (n - 1) + (5e-324,)
        names = ["D"] + [f"T{k}" for k in range(1, n)] + [f"G{k}" for k in range(1, n)]
        for name in names + (["G"] if n == 2 else []):
            for point in (interior, boundary, origin, extreme):
                cases.append((FlowSpec(name, n), point))
    # the rotation and the boosts on the axis (r0 == 0), with poles at t = 1/2
    cases += [(FlowSpec("G", 2), (2.0, 0.0)), (FlowSpec("G", 2), (-2.0, -0.0))]
    cases += [(FlowSpec("G1", 2), (4.0, 0.0)), (FlowSpec("G2", 3), (0.0, -4.0, 0.0))]
    cases += [(FlowSpec("G1", 3), (0.5, 0.0, -0.0)), (FlowSpec("G1", 3), (0.0, 0.0, 0.0))]
    # r0 == 0 off the origin: the squares of 1e-200 underflow, and 2 / xk has no value
    cases += [(FlowSpec("G1", 3), (0.0, 1e-200, 1e-200))]
    # boosts whose transverse radius passes the float limit even under hypot
    cases += [(FlowSpec("G1", 3), (1.0, 1.7e308, 1.7e308)), (FlowSpec("G2", 4), (-1e308, 0.5, -1.7e308, 1e308))]
    # the translation reaching the float limit, the dilation overflowing
    cases += [(FlowSpec("T1", 2), (1.7e308, 1.0)), (FlowSpec("D", 2), (1e10, 1.0))]
    return cases


def _times(rng):
    """Sampled times, negative ones included, plus the poles, exp overflow and the float limits."""
    fixed = [0.0, -0.0, 0.5, -0.5, 0.25, 4.0, 709.0, 710.0, -745.0, -800.0, 1e-300, -1e-300, 1e300, -1e300]
    return fixed + [rng.uniform(-20, 20) for _ in range(20)] + [rng.uniform(-1, 1) for _ in range(10)]


def test_closed_form_matches_the_per_call_oracle_bit_for_bit():
    rng = random.Random(20261018)
    for spec, point in _closed_form_cases(rng):
        for start_t in (0.0, -1.5, 1.7976931348623157e308):
            p0 = FlowState(point, start_t)
            for t in _times(rng):
                want = _outcome(closed_flow_oracle, spec, p0, t)
                assert _outcome(closed_state, spec, p0, t) == want, (spec, p0, t)
    # a start whose arity differs from the spec
    args = (FlowSpec("G1", 3), FlowState((0.0, 1.0)), 0.5)
    assert _outcome(closed_state, *args) == _outcome(closed_flow_oracle, *args)


def test_closed_form_pass_matches_the_per_call_oracle(tmp_path):
    # write_trajectory_csv checks the closed form without building a state
    # and must end exactly where the oracle does; repr round-trips, so the
    # cx columns of the CSV give the coordinates bit for bit
    rng = random.Random(1018)
    top = 1.7976931348623157e308
    out = tmp_path / "traj.csv"
    for spec, point in _closed_form_cases(rng):
        n = spec.n
        for start_t in (0.0, -1.5, top, -top):
            p0 = FlowState(point, start_t)
            times = sorted(_times(rng), key=abs)
            states = [p0] + [FlowState(p0.coords, p0.t + t) for t in times if math.isfinite(p0.t + t)]
            # from -top, the time since the start overflows
            states.append(FlowState(p0.coords, top))
            raised = []
            out.unlink(missing_ok=True)  # truncating a written file is slow on some filesystems
            try:
                write_trajectory_csv(out, states, spec)
            except (BoundaryPoint, NonFinite) as exc:
                raised.append((type(exc), str(exc)))
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            got = [tuple(float(v).hex() for v in row[1 + n : 1 + 2 * n]) for row in rows] + raised
            want = []
            for state in states:
                try:
                    reference = closed_flow_oracle(spec, p0, state.t - p0.t)
                except ArithmeticError:
                    want.append((NonFinite, f"the closed form has no finite value at t={state.t}"))
                    break
                except (BoundaryPoint, NonFinite) as exc:
                    want.append((type(exc), str(exc)))
                    break
                want.append(tuple(map(float.hex, reference.coords)))
            assert got == want, (spec, p0)


def _csv_outcome(path, states, spec):
    """The CSV bytes write_trajectory_csv leaves and its return value or error."""
    try:
        result = write_trajectory_csv(path, states, spec)
    except NonFinite as exc:
        result = (type(exc), str(exc))
    return path.read_bytes(), result


def test_trajectory_csv_reads_any_iterable_of_states(tmp_path):
    out = tmp_path / "traj.csv"
    cases = [
        (FlowSpec(kind="G2", n=5), FlowState((1.0, 0.5, 0.2, 0.1, 1.5)), 1.0),
        (FlowSpec(kind="D", n=3), FlowState((0.5, -0.5, 1.0), -1.5), 1.0),
        (FlowSpec(kind="G", n=2), FlowState((2.0, 0.0)), 0.5),  # ends on the pole at t = 1/2
    ]
    for spec, p0, t_max in cases:
        states = integrate(spec.field(), p0, t_max, 1 / 16)
        want = _csv_outcome(out, states, spec)
        assert _csv_outcome(out, iter(states), spec) == want, spec
        assert _csv_outcome(out, (state for state in states), spec) == want, spec
    # no states: the header alone, and no gap
    for states in ([], iter(())):
        assert write_trajectory_csv(out, states, FlowSpec(kind="D", n=2)) == 0.0
        assert out.read_text() == "t,x1,x2,cx1,cx2,err\n"


def test_isometry_checks():
    assert isometry_check(generator("D", 2), FlowState((0.0, 1.0)), FlowState((1.0, 1.0)), 1.0, 1e-3) <= 1e-8
    assert isometry_check(generator("T1", 2), FlowState((0.0, 1.0)), FlowState((1.0, 1.0)), 1.0, 1e-3) <= 1e-10
    assert isometry_check(generator("G1", 3), FlowState((0.0, 0.0, 1.0)), FlowState((1.0, 0.0, 1.0)), 0.0, 1e-3) == 0.0


def test_boundary_escape_detected():
    # contracting vertical field: y(t) = e^-t, crosses the threshold
    n = 2
    field = VectorField([LaurentPoly.zero(n), -1 * LaurentPoly.var(n, n)])
    p0 = FlowState((0.0, 1e-6))
    with pytest.raises(BoundaryEscape) as exc:
        integrate(field, p0, 20.0, 1e-2)
    partial = exc.value.trajectory
    assert partial and partial[-1].coords[-1] > 1e-9
    assert partial[-1].t < 20.0


def test_coordinate_blowup_detected():
    # x' = x^2 from x=1 blows up at t=1
    field = VectorField([LaurentPoly.var(2, 1) * LaurentPoly.var(2, 1), LaurentPoly.zero(2)])
    with pytest.raises((BoundaryEscape, NonFinite)):
        integrate(field, FlowState((1.0, 1.0)), 1.2, 1e-3)


def test_coordinate_limit_is_per_coordinate():
    # the first state with some |x_j| past COORD_LIMIT ends the trajectory
    with pytest.raises(BoundaryEscape, match=r"at t=3\.0$") as exc:
        integrate(generator("T1", 2), FlowState((flows.COORD_LIMIT - 2.5, 1.0)), 5.0, 1.0)
    assert [state.t for state in exc.value.trajectory] == [0.0, 1.0, 2.0]
    # a sum of |x_j| past the limit, with each one within it, is no escape
    big = 0.75 * flows.COORD_LIMIT
    states = integrate(generator("T1", 3), FlowState((big, -big, big)), 1e3, 1.0)
    assert len(states) == 1001 and states[-1].coords == (big + 1e3, -big, big)


def test_trajectory_csv_format(tmp_path):
    spec = FlowSpec(kind="D", n=2)
    p0 = FlowState((0.0, 1.0))
    states = integrate(spec.field(), p0, 0.01, 1e-3)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, states, spec)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,cx1,cx2,err"
    assert len(lines) == len(states) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[-1]) == 0.0


def test_trajectory_csv_returns_worst_gap(tmp_path):
    for spec, p0 in (
        (FlowSpec(kind="G1", n=3), FlowState((0.5, 1.0, 2.0))),
        (FlowSpec(kind="G", n=2), FlowState((0.3, 1.0))),
    ):
        states = integrate(spec.field(), p0, 1.0, 1 / 64)
        out = tmp_path / "traj.csv"
        worst = write_trajectory_csv(out, states, spec)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert worst > 0.0
        assert worst == max(float(row[-1]) for row in rows)


def test_closed_form_pole_raises_non_finite(tmp_path):
    spec, p0 = FlowSpec(kind="G", n=2), FlowState((2.0, 0.0))
    states = integrate(spec.field(), p0, 0.5, 0.5)  # x' = x^2 has its pole at t = 1/2
    out = tmp_path / "traj.csv"
    with pytest.raises(NonFinite, match="t=0.5"):
        write_trajectory_csv(out, states, spec)
    assert len(out.read_text().splitlines()) == 2


def test_dilation_closed_form_past_the_overflow_of_exp():
    # e^t overflows past t = 709.78; x e^t is returned wherever it is a float
    tiny, unit = FlowState((1e-320, 5e-324)), FlowState((1.25, 0.0))
    reference = flows._reference(FlowSpec("D", 2), tiny)
    assert reference(709.0) == (math.exp(709.0) * 1e-320, math.exp(709.0) * 5e-324)
    x, y = reference(740.0)
    assert math.isclose(x, 1e-320 * math.exp(370) * math.exp(370))
    assert math.isclose(y, 5e-324 * math.exp(370) * math.exp(370))
    assert all(map(math.isfinite, flows._reference(FlowSpec("D", 2), FlowState((5e-324, 5e-324)))(1450.0)))
    # where x e^t is no float, the closed form still has no finite value
    for state, t in ((tiny, 1460.0), (tiny, 2200.0), (unit, 710.0)):
        with pytest.raises(ArithmeticError):
            flows._reference(FlowSpec("D", 2), state)(t)


def test_time_overflow_raises_non_finite():
    # the origin is fixed by D, so only the time stamp can overflow
    p0 = FlowState((0.0, 0.0), 1.7976931348623157e308)
    with pytest.raises(NonFinite, match="at t=inf"):
        integrate(generator("D", 2), p0, 3e295, 1e295)


# a state the one step reaches that fails several checks raises the first
# escape in their order: non-finite coordinates, then the safe region, then
# a non-finite time
_TOP = 1.7976931348623157e308
_DECAY = VectorField([LaurentPoly.var(2, 1), -1 * LaurentPoly.var(2, 2)])


@pytest.mark.parametrize(
    "field,p0,t_max,dt,error,message",
    [
        # x1 sums past the float maximum to inf while x2 falls to 7.5e-10, below BOUNDARY_EPS
        (_DECAY, FlowState((1.7e308, 2e-9)), 1.0, 1.0, NonFinite, "non-finite coordinates at t=1.0"),
        # x1 passes COORD_LIMIT and t overflows in the same step
        (generator("T1", 2), FlowState((0.0, 1.0), _TOP), 3e295, 1e295, BoundaryEscape,
         "trajectory left the safe region at t=inf"),
        # finite coordinates inside the limits, t alone overflows
        (VectorField.zero(2), FlowState((0.5, 1.0), _TOP), 3e295, 1e295, NonFinite,
         "non-finite state (0.5, 1.0) at t=inf"),
    ],
    ids=["non_finite_and_below_eps", "past_limit_and_time_overflow", "time_overflow_alone"],
)
def test_a_state_failing_several_checks_raises_the_first_escape(field, p0, t_max, dt, error, message):
    with pytest.raises(FlowEscape) as exc:
        integrate(field, p0, t_max, dt)
    assert type(exc.value) is error and str(exc.value) == message
    assert exc.value.trajectory == [p0]


@pytest.mark.parametrize("t_max,dt,steps", [(1.6e-13, 1e-13, 2), (3.5e-13, 1e-13, 4), (1e-20, 0.1, 1)])
def test_short_horizon_ends_on_t_max(t_max, dt, steps):
    # a horizon that is not a whole number of steps ends with one shorter step
    states = integrate(generator("T1", 2), FlowState((0.0, 1.0)), t_max, dt)
    assert len(states) == steps + 1
    assert states[-1] == FlowState((t_max, 1.0), t_max)


def test_non_finite_coordinates_after_a_step_raise_non_finite():
    # the RK4 step of D sums its stages past the float maximum: float + gives
    # inf without raising, and the check after the step names it
    p0 = FlowState((1.7e308, 1.0))
    with pytest.raises(NonFinite, match=r"^non-finite coordinates at t=0\.001$") as exc:
        integrate(generator("D", 2), p0, 0.001, 0.001)
    assert exc.value.trajectory == [p0]


def test_division_by_zero_in_a_step_raises_non_finite():
    # xn^-2 at a start on the boundary plane, which is not watched
    inverse = VectorField([LaurentPoly.zero(2), LaurentPoly.monomial(2, (0, -2))])
    p0 = FlowState((0.0, 0.0))
    with pytest.raises(NonFinite, match="division by zero in the RK4 step from t=0.0") as exc:
        integrate(inverse, p0, 1.0, 0.1)
    assert exc.value.trajectory == [p0]
