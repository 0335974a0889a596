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

Each input is checked once, by its owner: ``FlowSpec`` the generator name,
``FlowState`` the start point, ``integrate`` the step, horizon, step count,
arity and stored size.  A closed form with no finite value (the pole of a
start on the boundary plane, or a dilation beyond the float range) raises
NonFinite.

Compiled step.  ``integrate`` compiles its field once per call into one
straight-line Python function for a whole RK4 step (``_compile_step``,
built as source text and run with ``exec``); the states it computes are
already checked, so it stores them without validating them again.  The
float operations of that step and their order are part of the byte
contract of the trajectory CSV: a component is 0.0 plus its terms in
``terms`` order, a term is its coefficient times ``x**e`` left to right,
stage inputs are y + 0.5 * h * k (y + h * k for the last stage), and the
update is y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d).  Each term is one
statement, so a component with thousands of terms (the boost G1 in
thousands of coordinates) still compiles.

Closed-form reference.  ``_reference(spec, p0)`` reads the generator name
and works out every constant of the start point (r0, -2/(x_k + i r0),
-1/z0 and whether it is finite, the fixed points and the axis-bound
branch) once per trajectory, and returns ``t -> coords``.  The float
operations that depend on t, and their order, are those of a closed form
worked out from scratch at each t, so the two agree bit for bit.
``write_trajectory_csv`` is the one pass that puts a trajectory beside its
closed form: it reads the states as any iterable whose first item is the
start point, checks each coordinate tuple the way ``FlowState`` does
(finite, last coordinate nonnegative, finite time) and builds the
FlowState only when a tuple fails, for the exact error it raises.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from typing import Iterable

from .errors import BoundaryEscape, BoundaryPoint, NonFinite
from .exterior import VectorField
from .halfspace import hyp_distance
from .solitons import _parse_generator, generator

BOUNDARY_EPS = 1e-9  # an interior trajectory whose xn falls to this level has escaped
COORD_LIMIT = 1e9  # rotation flows blow up in finite time near the pole
MAX_STEPS = 10**6  # integrate keeps every state; this bounds how many
MAX_STORED_COORDS = 10**7  # and this their coordinates, (steps + 1) * n: under 500 MB


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

    @classmethod
    def _trusted(cls, coords: tuple, t: float) -> "FlowState":
        """A state from values the caller has already checked, stored as is.

        Invariant: coords is a nonempty tuple of finite floats whose last
        entry is nonnegative, and t is a finite float, so that the state
        equals ``FlowState(coords, t)``.  ``integrate`` checks exactly this
        on every state before it stores it; no other path skips the checks.
        """
        return tuple.__new__(cls, (coords, t))

    @property
    def n(self) -> int:
        return len(self.coords)


class FlowSpec(namedtuple("FlowSpec", "kind n")):
    """What to flow: a generator name ("D", "Tk", "Gk", "G") in dimension n.

    The name is checked, without building the field, when the spec is made.
    """

    __slots__ = ()

    def __new__(cls, kind, n):
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
    """Each component of field as a list of (coefficient name, [(j, e), ...]).

    The terms keep their ``terms`` order, and a term lists the coordinate
    index j and exponent e of each nonzero exponent, left to right.  Each
    coefficient is bound in constants as a float under its generated name,
    so the source text built from this holds only generated names and
    integer exponents.
    """
    components = []
    for i, poly in enumerate(field.components):
        terms = []
        for t, (exps, coeff) in enumerate(poly._terms.items()):
            name = f"K{i}_{t}"
            constants[name] = float(coeff)
            # LaurentPoly admits only int exponents, so the source holds integer literals
            terms.append((name, [(j, e) for j, e in enumerate(exps) if e]))
        components.append(terms)
    return components


def _sum_lines(dest: str, terms: list, var: str) -> list:
    """Statements that set dest to one component at the coordinates var0, var1, ...

    The component is 0.0 plus its terms in order (the 0.0 keeps the sign of
    a zero sum), one statement per term, and a term is its coefficient times
    var_j**e left to right: the float operations and their order are part
    of the byte contract of the trajectory CSV.  ``**`` stays, so that a
    float overflow raises OverflowError.  One statement per term keeps the
    nesting of the source at the factor count of one term, whatever the
    number of terms.
    """
    lines, total = [], "0.0"
    for name, factors in terms:
        lines.append(f"{dest} = {total} + {name}" + "".join(f" * {var}{j}**{e}" for j, e in factors))
        total = dest
    return lines or [f"{dest} = 0.0"]


def _compile_step(field: VectorField):
    """One classical RK4 step ``step(y, h) -> tuple`` as straight-line code.

    Stage inputs are y_j + 0.5 * h * k_j (y_j + h * k_j for the last stage)
    and the update is y_j + (h / 6.0) * (a_j + 2.0 * b_j + 2.0 * c_j + d_j),
    the same float operations in the same order as one loop over stages;
    0.5 * h and h / 6.0 are computed once per step.
    """
    n = field.n
    constants: dict = {}
    components = _terms(field, constants)
    ys = ", ".join(f"y{j}" for j in range(n))
    lines = ["def step(y, h):", f"{ys}, = y", "half = 0.5 * h", "sixth = h / 6.0"]
    var = "y"
    for stage, scale in (("a", "half"), ("b", "half"), ("c", "h"), ("d", None)):
        for j, terms in enumerate(components):
            lines += _sum_lines(f"{stage}{j}", terms, var)
        if scale is not None:
            lines += [f"u{j} = y{j} + {scale} * {stage}{j}" for j in range(n)]
            var = "u"
    update = ", ".join(f"y{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})" for j in range(n))
    lines.append(f"return ({update},)")
    namespace = {"__builtins__": {}, **constants}
    exec("\n    ".join(lines) + "\n", namespace)
    return namespace["step"]


def integrate(field: VectorField, p0: FlowState, t_max: float, dt: float) -> list:
    """Fixed-step RK4 trajectory from p0; raises BoundaryEscape/NonFinite.

    Either escape carries the valid prefix of the trajectory, at least p0; a
    float overflow or a division by zero inside a step (a negative power of
    xn at xn = 0) is reported as NonFinite.  A horizon that is not a whole
    number of steps, to within 1e-12 * t_max, ends with one shorter step,
    landing on t_max.  A dt that is not
    positive and finite, a negative t_max, a step count t_max / dt that is
    not finite or exceeds MAX_STEPS, a field whose dimension differs from
    the arity of p0, or more than MAX_STORED_COORDS stored coordinates
    (steps + 1) * n raises ValueError before any step runs.
    """
    if dt <= 0 or dt == math.inf:
        raise ValueError("dt must be positive and finite")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    ratio = t_max / dt
    # also catches a nan dt or t_max and an infinite t_max
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {ratio!r} exceeds the limit of {MAX_STEPS} steps")
    if field.n != p0.n:
        raise ValueError(f"field dimension {field.n} differs from state arity {p0.n}")
    nsteps = steps = round(ratio)
    if abs(nsteps * dt - t_max) > 1e-12 * t_max:
        nsteps = int(ratio)
        steps = nsteps + 1  # the last step, t_max - nsteps * dt, is then positive
    leftover = t_max - nsteps * dt
    stored = (steps + 1) * p0.n
    if stored > MAX_STORED_COORDS:
        raise ValueError(
            f"(steps + 1) * n = {stored} exceeds the limit of {MAX_STORED_COORDS} stored coordinates"
        )
    step = _compile_step(field)
    states = [p0]
    y = p0.coords
    # a start on the boundary plane stays there exactly; only interior
    # trajectories can "escape" through the xn threshold
    watch_boundary = p0.coords[-1] > BOUNDARY_EPS
    t = p0.t
    isfinite = math.isfinite
    for i in range(steps):
        h = dt if i < nsteps else leftover
        try:
            y = step(y, h)
        except OverflowError as exc:
            # float ** raises where * would give inf
            raise NonFinite(f"float overflow in the RK4 step from t={t}", states) from exc
        except ZeroDivisionError as exc:
            # 0.0 ** -k: a negative power of xn on the unwatched boundary plane
            raise NonFinite(f"division by zero in the RK4 step from t={t}", states) from exc
        t += h
        if not all(map(isfinite, y)):
            raise NonFinite(f"non-finite coordinates at t={t}", states)
        escaped = y[-1] <= BOUNDARY_EPS if watch_boundary else y[-1] < 0.0
        if escaped or max(map(abs, y)) > COORD_LIMIT:
            raise BoundaryEscape(f"trajectory left the safe region at t={t}", states)
        if not isfinite(t):
            # only from a start time near the float limit
            raise NonFinite(f"non-finite state {y} at t={t}", states)
        states.append(FlowState._trusted(y, t))
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
    if kind == "D":
        if not any(coords):
            # the origin is a zero of the field; e^t would overflow for t > 709
            return lambda t: coords

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
        if z0 == 0:
            # the origin is a zero of the field: the flow stays there
            return lambda t: coords
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
    r0 = math.sqrt(sum(x * x for i, x in enumerate(coords) if i != k - 1))
    if r0 == 0.0:
        # axis-bound Riccati solution; unreachable from the open
        # half-space, where r0 >= xn > 0
        if xk == 0.0:
            # the origin is a zero of the field: the flow stays there
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


def isometry_check(field: VectorField, p: FlowState, q: FlowState, t_max: float, dt: float) -> float:
    """Max drift of the hyperbolic distance between two flowed points."""
    traj_p = integrate(field, p, t_max, dt)
    traj_q = integrate(field, q, t_max, dt)
    base = hyp_distance(p.coords, q.coords)
    worst = 0.0
    for sp, sq in zip(traj_p, traj_q):
        worst = max(worst, abs(hyp_distance(sp.coords, sq.coords) - base))
    return worst


def write_trajectory_csv(path, states: Iterable[FlowState], spec: FlowSpec) -> float:
    """Write `t,x1..xn,cx1..cxn,err` rows one by one; return the largest err.

    states is any iterable whose first item is the start point; with none,
    only the header is written and 0.0 returned.  A closed form with no
    finite value at some state (the pole of a boundary-plane rotation or
    boost, or an overflow) raises NonFinite after the rows before it are
    written.
    """
    n = spec.n
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"cx{i}" for i in range(1, n + 1)] + ["err"]
    worst = 0.0
    isfinite = math.isfinite
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        states = iter(states)
        p0 = next(states, None)
        if p0 is None:
            return worst
        reference = _reference(spec, p0)
        for state in chain((p0,), states):
            t = state.t - p0.t
            try:
                coords = reference(t)
            except ArithmeticError as exc:
                # a division by zero at the pole, or a float overflow
                raise NonFinite(f"the closed form has no finite value at t={state.t}") from exc
            if not (all(map(isfinite, coords)) and coords[-1] >= 0 and isfinite(p0.t + t)):
                # the checks of FlowState failed; it raises their exact error
                FlowState(coords, p0.t + t)
            try:
                gap = math.sqrt(sum((a - b) ** 2 for a, b in zip(state.coords, coords)))
            except OverflowError:
                gap = math.inf
            if gap == math.inf:
                # near 1e154 a square, or the sum of the squares, passes the
                # float limit; hypot scales instead (only here, so every
                # other gap keeps its bytes)
                gap = math.hypot(*(a - b for a, b in zip(state.coords, coords)))
            handle.write(",".join(map(repr, (state.t, *state.coords, *coords, gap))) + "\n")
            worst = max(worst, gap)
    return worst
