"""Shared random generators for the test suite (seeded, deterministic), the
paper's component formula of the soliton field used as the oracle for
``build_field``, the Laplace-expansion determinant and the first-row
Pfaffian expansion used as oracles for the library's Bareiss determinant
and skew elimination, the determinant as a checked Pf^2
(``det_via_pf``), the dual form w and dw of a parameter set
(``dual_forms``), three helpers that no command reaches: the one-hot
parameters of a generator (``one_hot_params``), the Reeb defect at a point
(``reeb_defect``) and the splitting of a tangent vector along the kernel of
the dual form (``decompose``, which raises ``DegeneratePoint``), random
parameters that may give a constant field (``rand_params``), the
``Fraction`` Gauss-Jordan solve used as the oracle for the span tracker of
``rbkit.solitons`` (``span_oracle``), the term-by-term
interpreter of a field and its RK4 step used as the oracle for the
compiled flow step, and the product-by-product ``Fraction`` loops of the
polynomial product, the wedge and interior products, the Lie bracket and
the direct Lie derivatives, used as oracles for the integer
sum-of-products kernel in ``rbkit.ratlaurent``, the dense index-cube loops
of the Christoffel symbols, Ricci tensor and scalar curvature, used as
oracles for the stored-entry contractions of ``rbkit.halfspace``, the closed-form flow
worked out from its start point at each call, used as the oracle for the
per-trajectory closed form of ``rbkit.flows``, and that closed form at one
time (``closed_state``) and the largest gap of the trajectory CSV pass
(``csv_gap``), the two views of ``write_trajectory_csv`` the flow tests
measure, and the float hyperbolic distance (``hyp_distance``) with the
largest drift of that distance along two RK4 trajectories
(``isometry_check``), which the flow tests use to see that a Killing flow
is an isometry."""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from rbkit import (
    BoundaryPoint,
    FlowSpec,
    FlowState,
    KForm,
    LaurentPoly,
    SolitonParams,
    SymTensor2,
    VectorField,
    build_field,
    ext_d,
    flat,
    integrate,
    interior,
    inverse_metric,
    metric,
    RBKitError,
    pfaffian,
    write_trajectory_csv,
)
from rbkit.flows import _reference
from rbkit.solitons import _det_from_pf, _parse_generator


def rand_fraction(rng, lo=-4, hi=4, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_exponents(rng, n, max_deg=2, laurent=True):
    exps = [rng.randint(0, max_deg) for _ in range(n)]
    if laurent:
        exps[-1] = rng.randint(-max_deg, max_deg)
    return tuple(exps)


def rand_poly(rng, n, terms=3, max_deg=2, laurent=True) -> LaurentPoly:
    out = {}
    for _ in range(rng.randint(0, terms)):
        out[rand_exponents(rng, n, max_deg, laurent)] = rand_fraction(rng)
    return LaurentPoly(n, out)


def rand_field(rng, n, terms=2, max_deg=2, laurent=False) -> VectorField:
    return VectorField([rand_poly(rng, n, terms, max_deg, laurent) for _ in range(n)])


def rand_params(rng, n) -> SolitonParams:
    """The draws of ``rbkit.random_params``, without its redraw of a constant field."""
    a = tuple(rand_fraction(rng) for _ in range(n - 1))
    b = rand_fraction(rng)
    c = tuple(rand_fraction(rng) for _ in range(n - 1))
    rho = rand_fraction(rng)
    while rho == 0:
        rho = rand_fraction(rng)
    return SolitonParams(n=n, a=a, b=b, c=c, rho=rho)


def rand_kform(rng, n, grade, terms=3) -> KForm:
    import itertools

    tuples = list(itertools.combinations(range(1, n + 1), grade))
    out = {}
    for idx in rng.sample(tuples, min(terms, len(tuples))):
        poly = rand_poly(rng, n)
        if poly:
            out[idx] = poly
    return KForm(n, grade, out)


def rand_antisymmetric(rng, size):
    """Random antisymmetric rational matrix, not restricted to rank 2."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = rand_fraction(rng)
            rows[i][j] = value
            rows[j][i] = -value
    return [tuple(r) for r in rows]


def build_field_oracle(params: SolitonParams) -> VectorField:
    """The field of (a, b, c), component by component.

    Component k < n:  a_k/2 (x_k^2 - sum_{j != k} x_j^2)
                      + (sum_{i != k, i < n} a_i x_i + b) x_k + c_k
    Component n:      (sum_k a_k x_k + b) xn
    """
    n = params.n
    x = [LaurentPoly.var(n, i) for i in range(1, n + 1)]
    half = Fraction(1, 2)
    comps = []
    for k in range(1, n):
        ak = params.a[k - 1]
        quad = x[k - 1] * x[k - 1]
        for j in range(1, n + 1):
            if j != k:
                quad = quad - x[j - 1] * x[j - 1]
        mixed = LaurentPoly.const(n, params.b)
        for i in range(1, n):
            if i != k:
                mixed = mixed + params.a[i - 1] * x[i - 1]
        comps.append(half * ak * quad + mixed * x[k - 1] + LaurentPoly.const(n, params.c[k - 1]))
    radial = LaurentPoly.const(n, params.b)
    for k in range(1, n):
        radial = radial + params.a[k - 1] * x[k - 1]
    comps.append(radial * x[n - 1])
    return VectorField(comps)


def det_cofactor(M) -> Fraction:
    """Exact determinant by Laplace expansion along the first row (O(k!))."""

    def rec(rows: list) -> Fraction:
        k = len(rows)
        if k == 0:
            return Fraction(1)
        total = Fraction(0)
        for j in range(k):
            if rows[0][j]:
                minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
                term = rows[0][j] * rec(minor)
                total += -term if j % 2 else term
        return total

    return rec([list(map(Fraction, row)) for row in M])


def pfaffian_oracle(M) -> Fraction:
    """Pfaffian by expansion along the first row ((k-1)!! terms), strict upper triangle only."""

    def rec(rows: list) -> Fraction:
        k = len(rows)
        if k == 0:
            return Fraction(1)
        total = Fraction(0)
        for j in range(1, k):
            if rows[0][j]:
                keep = [r for r in range(1, k) if r != j]
                term = rows[0][j] * rec([[rows[r][c] for c in keep] for r in keep])
                total += -term if j % 2 == 0 else term  # sign (-1)^(j+1) for 0-based j
        return total

    return rec([list(map(Fraction, row)) for row in M])


def det_via_pf(M) -> Fraction:
    """Determinant as Pf(M)^2, cross-checked against Bareiss elimination."""
    return _det_from_pf(M, pfaffian(M))


def one_hot_params(name: str, n: int) -> SolitonParams:
    """Parameters whose field is the named generator; "G" (n=2) has none."""
    kind, k = _parse_generator(name, n)
    if kind == "G" and not k:
        raise ValueError(f"unknown generator name {name!r}")
    coeffs = [0] * (2 * n - 1)
    coeffs[k - 1 if kind == "T" else n - 1 + k] = 1
    return SolitonParams(n=n, a=coeffs[n:], b=coeffs[n - 1], c=coeffs[: n - 1])


def reeb_defect(params: SolitonParams, point: Sequence) -> Fraction:
    """(i_X dw)(d/dxn) at a point; nonzero certifies X is not the Reeb field."""
    n = params.n
    pt = [Fraction(x) for x in point]
    if len(pt) != n:
        raise ValueError(f"point has arity {len(pt)}, expected {n}")
    if pt[-1] <= 0:
        raise BoundaryPoint("point not in the open half-space")
    field = build_field(params)
    contraction = interior(field, ext_d(flat(field)))
    return contraction.coeff((n,)).evaluate(pt)


class DegeneratePoint(RBKitError):
    """The dual form annihilates the field at this point; no splitting exists."""


def decompose(v: Sequence, params: SolitonParams, point: Sequence):
    """Split a tangent vector as v = v_ker + s X(p) with w_p(v_ker) = 0.

    Exact over the rationals; raises DegeneratePoint where w_p(X) = 0 (which
    happens only where every component of X vanishes).
    """
    n = params.n
    pt = [Fraction(x) for x in point]
    vec = [Fraction(x) for x in v]
    if len(pt) != n or len(vec) != n:
        raise ValueError(f"point and vector must have arity {n}")
    if pt[-1] <= 0:
        raise BoundaryPoint("point not in the open half-space")
    field = build_field(params)
    xp = [comp.evaluate(pt) for comp in field.components]
    weight = pt[-1] ** -2
    omega_x = sum(x * x for x in xp) * weight
    if omega_x == 0:
        raise DegeneratePoint(f"dual form annihilates the field at {tuple(map(str, pt))}")
    omega_v = sum(u * x for u, x in zip(vec, xp)) * weight
    s = omega_v / omega_x
    v_ker = tuple(u - s * x for u, x in zip(vec, xp))
    return s, v_ker


def dual_forms(params: SolitonParams) -> tuple:
    """(w, dw) of the field of params: w = flat(X) and dw = ext_d(w)."""
    omega = flat(build_field(params))
    return omega, ext_d(omega)


def rhs_oracle(field: VectorField):
    """y -> [X_1(y), ..., X_n(y)], interpreting the terms one by one.

    Each component is 0.0 plus its terms in ``terms`` order, and each term
    is its float coefficient times x**e for every nonzero exponent, left to
    right; the compiled right-hand side and RK4 step of ``rbkit.flows``
    must give the same floats, bit for bit.
    """
    comps = [[(float(c), exps) for exps, c in comp.terms.items()] for comp in field.components]

    def rhs(y) -> list:
        out = []
        for terms in comps:
            total = 0.0
            for coeff, exps in terms:
                value = coeff
                for x, e in zip(y, exps):
                    if e:
                        value *= x**e
                total += value
            out.append(total)
        return out

    return rhs


def rk4_step_oracle(rhs, y, h) -> list:
    """One classical RK4 step of y' = rhs(y), stage by stage."""
    k1 = rhs(y)
    k2 = rhs([yi + 0.5 * h * ki for yi, ki in zip(y, k1)])
    k3 = rhs([yi + 0.5 * h * ki for yi, ki in zip(y, k2)])
    k4 = rhs([yi + h * ki for yi, ki in zip(y, k3)])
    return [yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def closed_flow_oracle(spec: FlowSpec, p0: FlowState, t: float) -> FlowState:
    """The closed-form flow of spec.kind at time t, worked out from p0 at each call."""
    coords = list(p0.coords)
    n = len(coords)
    if n != spec.n:
        raise ValueError(f"state arity {n} differs from spec dimension {spec.n}")
    kind, k = _parse_generator(spec.kind, spec.n)
    if kind == "D":
        # the origin is a zero of the field; e^t would overflow for t > 709
        scale = math.exp(t) if any(coords) else 1.0
        return FlowState(tuple(scale * x for x in coords), p0.t + t)
    if kind == "T":
        coords[k - 1] += t
        return FlowState(tuple(coords), p0.t + t)
    if kind == "G" and not k:
        z0 = complex(coords[0], coords[1])
        if z0 == 0:
            # the origin is a zero of the field: the flow stays there
            return FlowState(p0.coords, p0.t + t)
        z = -1.0 / (t + (-1.0 / z0))
        return FlowState((z.real, z.imag), p0.t + t)
    # boost Gk, the only kind left
    transverse = [x for i, x in enumerate(coords) if i != k - 1]
    r0 = math.sqrt(sum(x * x for x in transverse))
    if r0 == math.inf:
        # a square, or the sum of the squares, passed the float limit
        r0 = math.hypot(*transverse)
    if r0 == math.inf:
        # the radius passes the float limit too: the boost is quadratic, so
        # x(t) = s phi_(s t)(x / s), here with s = 2^(e-1) for the largest |x_j| < 2^e
        s = 2.0 ** (math.frexp(max(abs(x) for x in coords))[1] - 1)
        y = [x / s for x in coords]
        ry = math.sqrt(sum(x * x for i, x in enumerate(y) if i != k - 1))
        z = -2.0 / (s * t + (-2.0 / complex(y[k - 1], ry)))
        out = [s * (x * (z.imag / ry)) for x in y]
        out[k - 1] = s * z.real
        return FlowState(tuple(out), p0.t + t)
    if r0 == 0.0:
        # axis-bound Riccati solution; unreachable from the open
        # half-space, where r0 >= xn > 0
        if coords[k - 1] == 0.0:
            # the origin is a zero of the field: the flow stays there
            return FlowState(p0.coords, p0.t + t)
        xk = -2.0 / (t - 2.0 / coords[k - 1])
        out = [0.0] * n
        out[k - 1] = xk
        return FlowState(tuple(out), p0.t + t)
    z = -2.0 / (t + (-2.0 / complex(coords[k - 1], r0)))
    scale = z.imag / r0
    out = [x * scale for x in coords]
    out[k - 1] = z.real
    return FlowState(tuple(out), p0.t + t)


def hyp_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Hyperbolic distance arcosh(1 + |p-q|^2 / (2 p_n q_n))."""
    if len(p) != len(q):
        raise ValueError("points of different dimensions")
    pn, qn = p[-1], q[-1]
    if pn <= 0 or qn <= 0:
        raise BoundaryPoint("points must have positive last coordinate")
    sq = sum((a - b) ** 2 for a, b in zip(p, q))
    return math.acosh(1.0 + sq / (2.0 * pn * qn))


def isometry_check(field: VectorField, p: FlowState, q: FlowState, t_max: float, dt: float) -> float:
    """Max drift of the hyperbolic distance between two flowed points."""
    traj_p = integrate(field, p, t_max, dt)
    traj_q = integrate(field, q, t_max, dt)
    base = hyp_distance(p.coords, q.coords)
    worst = 0.0
    for sp, sq in zip(traj_p, traj_q):
        worst = max(worst, abs(hyp_distance(sp.coords, sq.coords) - base))
    return worst


def closed_state(spec: FlowSpec, p0: FlowState, t: float) -> FlowState:
    """The closed form that ``write_trajectory_csv`` compares with, from p0 at time t, as a FlowState."""
    return FlowState(_reference(spec, p0)(t), p0.t + t)


def csv_gap(spec: FlowSpec, p0: FlowState, t_max: float, dt: float, tmp_path) -> float:
    """The largest err ``write_trajectory_csv`` gives for the RK4 trajectory from p0."""
    return write_trajectory_csv(tmp_path / "gap.csv", integrate(spec.field(), p0, t_max, dt), spec)


# -- Fraction-loop oracles of the sum-of-products kernel ------------------------


def mul_oracle(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p * q one Fraction product at a time, keys in first-occurrence order."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return LaurentPoly(p.n, out)


def sum_products_oracle(n: int, products) -> LaurentPoly:
    """The running sum total = total + sign * a * b over (sign, a, b) triples."""
    total = LaurentPoly.zero(n)
    for sign, a, b in products:
        term = mul_oracle(a, b)
        total = total + term if sign > 0 else total - term
    return total


def _accumulate(out: dict, key, value) -> None:
    prev = out.get(key)
    total = value if prev is None else prev + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def wedge_oracle(alpha: KForm, beta: KForm) -> KForm:
    out = {}
    for ia, pa in alpha.terms.items():
        for ib, pb in beta.terms.items():
            if set(ia).intersection(ib):
                continue
            inversions = sum(bisect_left(ib, a) for a in ia)
            term = mul_oracle(pa, pb)
            _accumulate(out, tuple(sorted(ia + ib)), -term if inversions % 2 else term)
    return KForm(alpha.n, alpha.grade + beta.grade, out)


def interior_oracle(field: VectorField, alpha: KForm) -> KForm:
    out = {}
    for idx, poly in alpha.terms.items():
        for pos, i in enumerate(idx):
            term = mul_oracle(poly, field.components[i - 1])
            if term:
                _accumulate(out, idx[:pos] + idx[pos + 1 :], -term if pos % 2 else term)
    return KForm(alpha.n, alpha.grade - 1, out)


def lie_derivative_direct_oracle(field: VectorField, omega: KForm) -> KForm:
    """(L_X w)_i = sum_j X^j d_j w_i + w_j d_i X^j on a 1-form."""
    n = omega.n
    out = {}
    for i in range(1, n + 1):
        total = LaurentPoly.zero(n)
        for j in range(1, n + 1):
            total = total + mul_oracle(field.components[j - 1], omega.coeff((i,)).deriv(j))
            total = total + mul_oracle(omega.coeff((j,)), field.components[j - 1].deriv(i))
        out[(i,)] = total
    return KForm(n, 1, out)


def lie_derivative_metric_oracle(field: VectorField) -> SymTensor2:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k over every k."""
    n = field.n
    g = metric(n)
    out = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            total = LaurentPoly.zero(n)
            for k in range(1, n + 1):
                total = total + mul_oracle(field.components[k - 1], g.get(i, j).deriv(k))
                total = total + mul_oracle(g.get(k, j), field.components[k - 1].deriv(i))
                total = total + mul_oracle(g.get(i, k), field.components[k - 1].deriv(j))
            out[(i, j)] = total
    return SymTensor2(n, out)


# -- dense index-cube oracles of the metric layer --------------------------------


def christoffel_oracle(n: int) -> dict:
    """(1/2) g^kl (d_j g_il + d_i g_jl - d_l g_ij) summed over every k, i, j, l, zeros dropped."""
    g, ginv = metric(n), inverse_metric(n)
    half = Fraction(1, 2)
    out = {}
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                total = LaurentPoly.zero(n)
                for l in range(1, n + 1):
                    gkl = ginv.get(k, l)
                    if not gkl:
                        continue
                    total = total + half * gkl * (
                        g.get(j, l).deriv(i) + g.get(i, l).deriv(j) - g.get(i, j).deriv(l)
                    )
                if total:
                    out[(k, i, j)] = total
    return out


def ricci_oracle(n: int) -> SymTensor2:
    """R_ij = d_k G^k_ij - d_i G^k_kj + G^k_kl G^l_ij - G^k_il G^l_kj over every k, l, from ``christoffel_oracle``."""
    gam = christoffel_oracle(n)
    zero = LaurentPoly.zero(n)

    def G(k, i, j):
        return gam.get((k, i, j), zero)

    out = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            total = LaurentPoly.zero(n)
            for k in range(1, n + 1):
                total = total + G(k, i, j).deriv(k) - G(k, k, j).deriv(i)
                for l in range(1, n + 1):
                    total = total + G(k, k, l) * G(l, i, j) - G(k, i, l) * G(l, k, j)
            out[(i, j)] = total
    return SymTensor2(n, out)


def scalar_curvature_oracle(n: int) -> LaurentPoly:
    """g^ij R_ij over every i, j, from ``ricci_oracle``."""
    ginv, ric = inverse_metric(n), ricci_oracle(n)
    total = LaurentPoly.zero(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = total + ginv.get(i, j) * ric.get(i, j)
    return total


def lie_bracket_oracle(A: VectorField, B: VectorField) -> VectorField:
    """[A, B]_j = sum_i (A_i d_i B_j - B_i d_i A_j)."""
    n = A.n
    comps = []
    for j in range(1, n + 1):
        total = LaurentPoly.zero(n)
        for i in range(1, n + 1):
            total = total + mul_oracle(A.components[i - 1], B.components[j - 1].deriv(i))
            total = total - mul_oracle(B.components[i - 1], A.components[j - 1].deriv(i))
        comps.append(total)
    return VectorField(comps)


def span_oracle(field: VectorField, basis: Sequence[VectorField]) -> tuple:
    """(rank of the basis, x) with field = sum_k x_k basis_k, or x = None.

    Gauss-Jordan elimination over ``Fraction`` on the ``terms`` view, one
    row per (component, exponent tuple) slot in sorted order; x sets the
    coordinates of non-pivot columns to 0, so it is the unique solution
    when the rank is len(basis).
    """
    vectors = [
        {(i, exps): c for i, poly in f.items() for exps, c in poly.terms.items()}
        for f in (*basis, field)
    ]
    k = len(basis)
    rows = [[vec.get(slot, Fraction(0)) for vec in vectors] for slot in sorted(set().union(*vectors))]
    pivots = []
    for col in range(k):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    rank = len(pivots)
    if any(row[k] for row in rows[rank:]):
        return rank, None
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        x[col] = rows[r][k]
    return rank, x
