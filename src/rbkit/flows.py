"""Numeric flows of the generator fields and their closed-form solutions.

Integration is classical fixed-step RK4: reproducible error tables and a
clean fourth-order convergence check matter more here than adaptive speed.
Closed forms:

    translation T_k   x_k(t) = x_k(0) + t
    dilation D        x(t)   = e^t x(0), or, where e^t overflows,
                      ((x(0) e^(t/3)) e^(t/3)) e^(t/3)
    boost G_k         z(t) = -2/(t + s0 + i e0), s0 + i e0 = -2/(x_k(0) + i r0)
                      where z = x_k + i r, r^2 = sum_{j != k} x_j^2; the
                      transverse coordinates rescale by r(t)/r0 (fixed angles)
    rotation G (n=2)  z(t) = -1/(t + e + i f), e + i f = -1/z0   [no 1/2 factor]
                      or, where -1/z0 overflows, z(t) = z0 / (1 - t z0)

The boost uses the half-coefficient convention (the field is G_k with the
1/2 in front of the quadratic term); the plane rotation "G" omits it.  Which
convention a run used is part of its report.

Each input is checked once, by its owner: ``FlowSpec`` the generator name
and n (at most MAX_FLOW_N, checked first, so no field is built above it),
``FlowState`` the start point, ``_step_sizes`` the step, horizon, step
count, arity and stored size, for ``integrate`` and for the ``flow``
command, which calls it before it opens the CSV.  A closed form with no
finite value (the pole of a start on the boundary plane, or a dilation
beyond the float range) raises NonFinite.

Compiled loop.  ``integrate`` checks its arguments (``_step_sizes``),
then compiles its field once per call into one straight-line Python
function for the whole fixed-step RK4 loop (``_compile_loop``, built as
source text and run with ``exec``) and runs it in one call.  The loop
keeps the coordinates in locals from step to step and appends each state
it reaches to the trajectory unchecked, as a FlowState built by
``tuple.__new__``: a state is stored only after the loop's one test
passes, and that test is exact, so it passes just when FlowState's checks
would and the state has not escaped.  The float operations of a step and
their order are part of the byte contract of the trajectory CSV: a
component is 0.0 plus its terms in ``terms`` order, a term is its
coefficient times ``x**e`` left to right, stage inputs are y + 0.5 * h * k
(y + h * k for the last stage), and the update is
y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d).  The loop leaves out only
what is the identity bit for bit in IEEE 754: ``x**1`` is written as ``x``
(it can neither overflow nor divide by zero, so the same errors are
raised), and a coefficient 1.0 before a factor is dropped (``1.0 * x`` is
``x``).  ``x**2`` stays a ``pow``, whose rounding ``x * x`` need not share.
Each term is one statement and no expression nests once per coordinate,
so a component with thousands of terms (the boost G1 in thousands of
coordinates) still compiles.  The test after each step is one flat ``and``
chain: the last coordinate is inside, ``-COORD_LIMIT <= y_j <= COORD_LIMIT``
for every j (a chained comparison is false for nan and +-inf, so this also
asks for finite coordinates) and t is finite.  When it fails the loop calls
``_escape``, which runs the separate checks in their order and raises, so
each escape keeps its type and message.

Closed-form reference.  ``_reference(spec, p0)`` reads the generator name
and works out every constant of the start point (r0, -2/(x_k + i r0),
-1/z0 and whether it is finite, the fixed origin, tested once for every
kind but T, the axis-bound branch, and the power-of-two scale of a boost
whose radius passes the float range) once per trajectory, and returns
``t -> coords``.  The float operations that depend on t, and their order,
are those of a closed form worked out from scratch at each t, so the two
agree bit for bit.
``write_trajectory_csv`` is the one pass that puts a trajectory beside its
closed form: it reads the states as any iterable whose first item is the
start point, checks each coordinate tuple the way ``FlowState`` does
(finite, last coordinate nonnegative, finite time) and builds the
FlowState only when a tuple fails, for the exact error it raises.  Its
row loop is compiled once per call for n coordinates (``_compile_rows``),
so every value of a row is a local and the row is one f-string of their
``repr``s, the bytes of ``",".join(map(repr, row))``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterable

from .errors import BoundaryEscape, BoundaryPoint, NonFinite
from .exterior import VectorField
from .solitons import _parse_generator, generator

BOUNDARY_EPS = 1e-9  # an interior trajectory whose xn falls to this level has escaped
COORD_LIMIT = 1e9  # rotation flows blow up in finite time near the pole
MAX_STEPS = 10**6  # integrate keeps every state; this bounds how many
MAX_STORED_COORDS = 10**7  # and this their coordinates, (steps + 1) * n: under 500 MB
MAX_FLOW_N = 1000  # a boost Gk holds about 2n^2 exponents; n = 8000 took 995 MB


class FlowState(namedtuple("FlowState", "coords t")):
    """A point of the half-space (a tuple of floats) with a float time stamp.

    The hyperbolic metric lives on xn > 0, but starts exactly on the
    boundary plane xn = 0 are accepted for trajectory runs: every generator
    flow is tangent to that plane (the last component carries a factor xn),
    so such trajectories are well defined even though the metric layer
    rejects their points.
    """

    __slots__ = ()

    def __new__(cls, coords, t=0.0):
        coords, t = tuple(float(x) for x in coords), float(t)
        if not all(math.isfinite(x) for x in coords) or not math.isfinite(t):
            raise NonFinite(f"non-finite state {coords} at t={t}")
        if not coords or coords[-1] < 0:
            raise BoundaryPoint(f"last coordinate must be nonnegative, got {coords}")
        return super().__new__(cls, coords, t)

    @classmethod
    def _make(cls, values):
        return cls(*values)

    @property
    def n(self) -> int:
        return len(self.coords)


class FlowSpec(namedtuple("FlowSpec", "kind n")):
    """What to flow: a generator name ("D", "Tk", "Gk", "G") in dimension n.

    n is checked against MAX_FLOW_N, then the name, without building the
    field, when the spec is made.
    """

    __slots__ = ()

    def __new__(cls, kind, n):
        if n > MAX_FLOW_N:
            raise ValueError(f"n = {n} exceeds the limit of {MAX_FLOW_N}")
        _parse_generator(kind, n)
        return super().__new__(cls, kind, n)

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def field(self) -> VectorField:
        return generator(self.kind, self.n)

    def convention(self) -> str:
        kind, k = _parse_generator(self.kind, self.n)
        if kind == "G" and not k:
            return "plane rotation without 1/2 factor; z(t) = -1/(t + e + i f)"
        if kind == "G":
            return "boost with 1/2 factor; z(t) = -2/(t + s0 + i e0)"
        return "affine flow (exact)"


def _terms(field: VectorField, constants: dict) -> list:
    """Each component of field as a list of terms, each a list of factor texts.

    The terms keep their ``terms`` order.  A term is its coefficient, then
    ``@j`` or ``@j**e`` for each coordinate index j of nonzero exponent e,
    left to right, where ``@`` stands for the name of the coordinates it is
    evaluated at.  Each coefficient is bound in constants as a float under
    its generated name, so the source text built from this holds only
    generated names and integer exponents.  Two factors are left out, as
    each is the identity bit for bit: the exponent 1 (x**1 is x, and it can
    neither overflow nor divide by zero) and a coefficient whose float is
    1.0 when a factor follows it (1.0 * x is x).
    """
    components = []
    for i, poly in enumerate(field.components):
        terms = []
        for t, (exps, coeff) in enumerate(poly._terms.items()):
            # LaurentPoly admits only int exponents, so the source holds integer literals
            factors = [f"@{j}" if e == 1 else f"@{j}**{e}" for j, e in enumerate(exps) if e]
            name = f"K{i}_{t}"
            constants[name] = float(coeff)
            terms.append(factors if factors and constants[name] == 1.0 else [name, *factors])
        components.append(terms)
    return components


def _sum_lines(dest: str, terms: list, var: str) -> list:
    """Statements that set dest to one component at the coordinates var0, var1, ...

    The component is 0.0 plus its terms in order (the 0.0 keeps the sign of
    a zero sum), one statement per term, and a term is the product of its
    factors left to right: the float operations and their order are part of
    the byte contract of the trajectory CSV.  Every power but x**1 keeps
    ``**``, so that a float overflow raises OverflowError and x**2 keeps the
    rounding of ``pow``.  One statement per term keeps the nesting of the
    source at the factor count of one term, whatever the number of terms.
    """
    lines, total = [], "0.0"
    for term in terms:
        lines.append(f"{dest} = {total} + " + " * ".join(term).replace("@", var))
        total = dest
    return lines or [f"{dest} = 0.0"]


def _define(name: str, params: str, body: list, **names):
    """The function ``def name(params)`` with the lines of body, with only names in scope."""
    namespace = {"__builtins__": {}, **names}
    exec(f"def {name}({params}):\n    " + "\n    ".join(body) + "\n", namespace)
    return namespace[name]


def _escape(states: list, y: tuple, t: float, watch: bool):
    """Raise the escape of the state (y, t) that the RK4 loop refused to store.

    The checks run in their order, so each escape keeps its type and
    message: a non-finite coordinate first, then a last coordinate that is
    not inside (above BOUNDARY_EPS when watch is true, else nonnegative) or
    some ``|y_j|`` past COORD_LIMIT, and only then a non-finite time, which
    is all that is left of the loop's test.  Each escape carries states.
    """
    if not all(map(math.isfinite, y)):
        raise NonFinite(f"non-finite coordinates at t={t}", states)
    if not (y[-1] > BOUNDARY_EPS if watch else y[-1] >= 0.0) or max(map(abs, y)) > COORD_LIMIT:
        raise BoundaryEscape(f"trajectory left the safe region at t={t}", states)
    # only from a start time near the float limit
    raise NonFinite(f"non-finite state {y} at t={t}", states)


def _compile_loop(field: VectorField):
    """The fixed-step RK4 loop of field, ``run(states, hs, watch)``, as straight-line code.

    run takes the coordinates and time of ``states[-1]`` into locals and
    makes one classical RK4 step for each step size h of hs.  Stage inputs
    are y_j + 0.5 * h * k_j (y_j + h * k_j for the last stage) and the
    update is y_j + (h / 6.0) * (a_j + 2.0 * b_j + 2.0 * c_j + d_j), the
    same float operations in the same order as one loop over stages; 0.5 * h
    and h / 6.0 are computed once per step.  After each step one flat
    ``and`` chain tests the state: the last coordinate is inside (above
    BOUNDARY_EPS when watch is true, else nonnegative), each coordinate
    satisfies ``-COORD_LIMIT <= y_j <= COORD_LIMIT`` (false for nan and
    +-inf) and t is finite.  Invariant: the chain holds exactly when the
    state may be stored, that is when ``FlowState(y, t)`` would accept it
    and it has not escaped, so run appends it unchecked, as
    ``tuple.__new__(FlowState, (y, t))``, and otherwise calls ``_escape``
    (read here, when the loop is compiled), which raises.  run returns
    None when hs runs out.  A float overflow or a division by zero in a
    step propagates, and the coordinates stored last are those before the
    step.
    """
    n = field.n
    constants: dict = {}
    components = _terms(field, constants)
    y = "(" + ", ".join(f"y{j}" for j in range(n)) + ",)"
    # one flat chain, which does not nest once per coordinate; the limits are
    # float literals, so no name is loaded or negated per coordinate
    inside = f"(y{n - 1} > {BOUNDARY_EPS!r} if watch else y{n - 1} >= 0.0)"
    bounded = (f"{-COORD_LIMIT!r} <= y{j} <= {COORD_LIMIT!r}" for j in range(n))
    test = " and ".join([inside, *bounded, "isfinite(t)"])
    step = ["half = 0.5 * h", "sixth = h / 6.0"]
    var = "y"
    for stage, scale in (("a", "half"), ("b", "half"), ("c", "h"), ("d", None)):
        for j, terms in enumerate(components):
            step += _sum_lines(f"{stage}{j}", terms, var)
        if scale is not None:
            step += [f"u{j} = y{j} + {scale} * {stage}{j}" for j in range(n)]
            var = "u"
    step += [f"y{j} = y{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})" for j in range(n)]
    step += [
        "t += h",
        f"if not ({test}):",
        f"    escape(states, {y}, t, watch)",
        f"append(new(FlowState, ({y}, t)))",
    ]
    body = ["append = states.append", f"{y}, t = states[-1]", "for h in hs:", *("    " + line for line in step)]
    return _define(
        "run", "states, hs, watch", body,
        escape=_escape, isfinite=math.isfinite, new=tuple.__new__, FlowState=FlowState, **constants,
    )


def _step_sizes(n: int, p0: FlowState, t_max: float, dt: float):
    """The step sizes of an RK4 run of an n-dimensional field from p0 to t_max.

    A horizon that is not a whole number of steps, to within 1e-12 * t_max,
    ends with one shorter step, landing on t_max.  Raises ValueError, in
    this order, for a dt that is not positive and finite, a negative t_max,
    a step count t_max / dt that is not finite or exceeds MAX_STEPS, an n
    that differs from the arity of p0, or more than MAX_STORED_COORDS
    stored coordinates (steps + 1) * n.
    """
    if dt <= 0 or dt == math.inf:
        raise ValueError("dt must be positive and finite")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    ratio = t_max / dt
    # also catches a nan dt or t_max and an infinite t_max
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {ratio!r} exceeds the limit of {MAX_STEPS} steps")
    if n != p0.n:
        raise ValueError(f"field dimension {n} differs from state arity {p0.n}")
    nsteps = steps = round(ratio)
    if abs(nsteps * dt - t_max) > 1e-12 * t_max:
        nsteps = int(ratio)
        steps = nsteps + 1  # the last step, t_max - nsteps * dt, is then positive
    leftover = t_max - nsteps * dt
    stored = (steps + 1) * n
    if stored > MAX_STORED_COORDS:
        raise ValueError(
            f"(steps + 1) * n = {stored} exceeds the limit of {MAX_STORED_COORDS} stored coordinates"
        )
    return chain(repeat(dt, nsteps), repeat(leftover, steps - nsteps))


def integrate(field: VectorField, p0: FlowState, t_max: float, dt: float) -> list:
    """Fixed-step RK4 trajectory from p0; raises BoundaryEscape/NonFinite.

    Either escape carries the valid prefix of the trajectory, at least p0; a
    float overflow or a division by zero inside a step (a negative power of
    xn at xn = 0) is reported as NonFinite.  The arguments are checked
    first, by ``_step_sizes``, which raises ValueError before any step
    runs.  The steps themselves run in one call of the compiled loop
    (``_compile_loop``).
    """
    hs = _step_sizes(field.n, p0, t_max, dt)
    run = _compile_loop(field)
    states = [p0]
    # a start on the boundary plane stays there exactly; only interior
    # trajectories can "escape" through the xn threshold
    watch_boundary = p0.coords[-1] > BOUNDARY_EPS
    try:
        run(states, hs, watch_boundary)
    except OverflowError as exc:
        # float ** raises where * would give inf
        raise NonFinite(f"float overflow in the RK4 step from t={states[-1].t}", states) from exc
    except ZeroDivisionError as exc:
        # 0.0 ** -k: a negative power of xn on the unwatched boundary plane
        raise NonFinite(f"division by zero in the RK4 step from t={states[-1].t}", states) from exc
    return states


def _reference(spec: FlowSpec, p0: FlowState):
    """The closed-form flow of spec from p0, as a function ``t -> coords``.

    What depends on p0 alone is worked out here, once; the function does
    only the float operations that depend on t.  It returns the coordinates
    unchecked and raises ArithmeticError where the closed form has no
    finite value (a pole hit exactly, x e^t overflowing).
    """
    coords = p0.coords
    n = len(coords)
    if n != spec.n:
        raise ValueError(f"state arity {n} differs from spec dimension {spec.n}")
    kind, k = _parse_generator(spec.kind, spec.n)
    if kind != "T" and not any(coords):
        # the origin is a zero of D, of every boost and of G: the flow stays
        # there at any t, where D's e^(t/3) overflows past t = 2129 and G's
        # -1/z0 divides by zero
        return lambda t: coords
    if kind == "D":

        def dilation(t):
            try:
                scale = math.exp(t)
            except OverflowError:
                # e^t overflows past t = 709.78 though x e^t may not; e^(t/3)
                # overflows only past t = 2129, where x e^t does too (every
                # nonzero |x| is at least 2^-1074)
                third = math.exp(t / 3)
                moved = tuple(x * third * third * third for x in coords)
                if not all(map(math.isfinite, moved)):
                    raise
                return moved
            return tuple(scale * x for x in coords)

        return dilation
    if kind == "T":
        head, xk, tail = coords[: k - 1], coords[k - 1], coords[k:]
        return lambda t: (*head, xk + t, *tail)
    if kind == "G" and not k:
        z0 = complex(coords[0], coords[1])
        e_f = -1.0 / z0
        # within about 1e-308 of the origin -1/z0 overflows; the same flow
        # z0 / (1 - t z0) does not, and a finite -1/z0 keeps its float operations
        finite = math.isfinite(e_f.real) and math.isfinite(e_f.imag)

        def rotation(t):
            z = -1.0 / (t + e_f) if finite else z0 / (1 - t * z0)
            return z.real, z.imag

        return rotation
    # boost Gk, the only kind left
    xk = coords[k - 1]
    transverse = coords[: k - 1] + coords[k:]
    r0 = math.sqrt(sum(x * x for x in transverse))
    if r0 == math.inf:
        # past about 1.34e154 a square, or the sum of the squares, passes the
        # float limit; hypot scales instead (only here, so every other r0
        # keeps its bytes)
        r0 = math.hypot(*transverse)
    if r0 == math.inf:
        # the radius itself passes the float limit.  A boost is quadratic, so
        # its flow is x(t) = s phi_(s t)(x / s) for every s > 0; with s the
        # power of two at the largest |x_j| the scaled radius is finite, and
        # the scaling of the start is exact
        s = math.ldexp(1.0, math.frexp(max(map(abs, coords)))[1] - 1)
        scaled = _reference(spec, FlowState(tuple(x / s for x in coords)))
        return lambda t: tuple(s * x for x in scaled(s * t))
    if r0 == 0.0:
        # axis-bound Riccati solution; from the open half-space, where
        # r0 >= xn > 0, only when the squares underflow
        if xk == 0.0:
            # a transverse radius that underflows to 0, as from (0, 1e-200,
            # 1e-200) under G1: the field is below the float range there, and
            # 2.0 / xk would divide by zero
            return lambda t: coords
        pole = 2.0 / xk
        zeros_head, zeros_tail = (0.0,) * (k - 1), (0.0,) * (n - k)
        return lambda t: (*zeros_head, -2.0 / (t - pole), *zeros_tail)
    s0_e0 = -2.0 / complex(xk, r0)

    def boost(t):
        z = -2.0 / (t + s0_e0)
        scale = z.imag / r0
        out = [x * scale for x in coords]
        out[k - 1] = z.real
        return tuple(out)

    return boost


def _compile_rows(n: int):
    """The row loop of the trajectory CSV for n coordinates, as straight-line code.

    ``rows(write, states, reference, t0)`` writes one row per state of
    states, each a coordinate tuple and a time stamp, and returns the
    largest err.  It takes the coordinates of a state and of its closed
    form ``reference(stamp - t0)`` into locals, checks the closed form the
    way FlowState does (finite, last coordinate nonnegative, finite time)
    and builds the FlowState only when that fails, for the exact error it
    raises.  err is the square root of the sum of the ``(y_j - c_j) ** 2``
    in coordinate order, and ``hypot`` of the differences where that sum
    passes the float range; each value is written as its ``repr``.
    """
    ys = [f"y{j}" for j in range(n)]
    cs = [f"c{j}" for j in range(n)]
    diffs = [f"y{j} - c{j}" for j in range(n)]
    fields = ",".join(f"{{{name}!r}}" for name in ("stamp", *ys, *cs, "gap"))
    body = [
        "worst = 0.0",
        f"for ({', '.join(ys)},), stamp in states:",
        "    t = stamp - t0",
        "    try:",
        "        coords = reference(t)",
        "    except ArithmeticError as exc:",
        '        raise NonFinite(f"the closed form has no finite value at t={stamp}") from exc',
        f"    ({', '.join(cs)},) = coords",
        f"    if not (all(map(isfinite, coords)) and c{n - 1} >= 0 and isfinite(t0 + t)):",
        "        FlowState(coords, t0 + t)",
        "    try:",
        "        gap = sqrt(sum((" + ", ".join(f"({d}) ** 2" for d in diffs) + ",)))",
        "    except OverflowError:",
        "        gap = inf",
        "    if gap == inf:",
        f"        gap = hypot({', '.join(diffs)})",
        f'    write(f"{fields}\\n")',
        "    if gap > worst:",
        "        worst = gap",
        "return worst",
    ]
    return _define(
        "rows", "write, states, reference, t0", body,
        all=all, map=map, sum=sum, ArithmeticError=ArithmeticError, OverflowError=OverflowError,
        isfinite=math.isfinite, sqrt=math.sqrt, hypot=math.hypot, inf=math.inf, NonFinite=NonFinite,
        FlowState=FlowState,
    )


def write_trajectory_csv(path, states: Iterable[FlowState], spec: FlowSpec) -> float:
    """Write `t,x1..xn,cx1..cxn,err` rows one by one; return the largest err.

    states is any iterable whose first item is the start point; with none,
    only the header is written and 0.0 returned.  A closed form with no
    finite value at some state (the pole of a boundary-plane rotation or
    boost, or an overflow) raises NonFinite after the rows before it are
    written.  Near 1e154 a square of a difference, or their sum, passes the
    float range; err is then ``hypot`` of the differences, which scales
    instead (only there, so every other err keeps its bytes).
    """
    n = spec.n
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"cx{i}" for i in range(1, n + 1)] + ["err"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        states = iter(states)
        p0 = next(states, None)
        if p0 is None:
            return 0.0
        reference = _reference(spec, p0)
        return _compile_rows(n)(handle.write, chain((p0,), states), reference, p0.t)
