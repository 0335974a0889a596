"""The family of soliton vector fields on the hyperbolic half-space.

Construction of the fields from their parameters, the named generators
(translations T_k, the expansion D, the boosts G_k), exact Lie brackets,
bracket-closure of spans with exact rational linear algebra, structure
constants, and the contact machinery for odd ambient dimension: the
antisymmetric parameter matrix, its Pfaffian and determinant, the top form
w ^ (dw)^m, the Reeb-defect evaluation, and the kernel/span splitting of
tangent vectors.

Subalgebra sizes are *measured*, never asserted: ``algebra_closure`` adjoins
escaping brackets until the span stabilizes and reports what it found.  It
is the one place where a span's brackets are computed: each basis pair is
bracketed and reduced once, and the span records the bracket with its
coordinates over the basis, so structure constants come from that pass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .errors import (
    BoundaryPoint,
    DegeneratePoint,
    DimensionMismatch,
    IndexOutOfRange,
    NotClosed,
    OddSize,
)
from .exterior import KForm, VectorField, ext_d, interior, power_wedge, wedge
from .halfspace import SolitonParams, flat
from .ratlaurent import LaurentPoly, _accumulate, _sum_products, grlex_key

# Convention note emitted with every contact report: the antisymmetric
# parameter matrix uses entries a_i*c_j - a_j*c_i.
MATRIX_CONVENTION = "M[i][j] = a_i*c_j - a_j*c_i"


def build_field(params: SolitonParams) -> VectorField:
    """Assemble the field from (a, b, c).

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


def generator(name: str, n: int) -> VectorField:
    """Named generator: "D", "Tk", "Gk" (1 <= k <= n-1), or "G" (n=2 only).

    "G" is the n=2 rotation (x^2-y^2, 2xy), twice the boost "G1"; both
    conventions appear in flows and algebra fingerprints.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    x = [LaurentPoly.var(n, i) for i in range(1, n + 1)]
    if name == "D":
        return VectorField(x)
    if name == "G" and n == 2:
        return VectorField([x[0] * x[0] - x[1] * x[1], 2 * x[0] * x[1]])
    kind, digits = name[:1], name[1:]
    if kind not in ("T", "G") or not digits.isdigit():
        raise ValueError(f"unknown generator name {name!r}")
    k = int(digits)
    if not 1 <= k <= n - 1:
        raise IndexOutOfRange(f"generator index {k} outside 1..{n - 1}")
    if kind == "T":
        comps = [LaurentPoly.zero(n)] * n
        comps[k - 1] = LaurentPoly.const(n, 1)
        return VectorField(comps)
    # boost: (1/2)(x_k^2 - sum_{j != k} x_j^2) d_k + sum_{j != k} x_k x_j d_j
    half = Fraction(1, 2)
    quad = x[k - 1] * x[k - 1]
    for j in range(1, n + 1):
        if j != k:
            quad = quad - x[j - 1] * x[j - 1]
    comps = [x[k - 1] * x[j - 1] for j in range(1, n + 1)]
    comps[k - 1] = half * quad
    return VectorField(comps)


def one_hot_params(name: str, n: int) -> SolitonParams:
    """Parameters whose field is the named generator (no "G" convention)."""
    a = [Fraction(0)] * (n - 1)
    c = [Fraction(0)] * (n - 1)
    b = Fraction(0)
    if name == "D":
        b = Fraction(1)
    else:
        kind, k = name[:1], int(name[1:])
        if not 1 <= k <= n - 1:
            raise IndexOutOfRange(f"generator index {k} outside 1..{n - 1}")
        if kind == "G":
            a[k - 1] = Fraction(1)
        elif kind == "T":
            c[k - 1] = Fraction(1)
        else:
            raise ValueError(f"unknown generator name {name!r}")
    return SolitonParams(n=n, a=tuple(a), b=b, c=tuple(c))


def lie_bracket(A: VectorField, B: VectorField) -> VectorField:
    """[A, B]_j = sum_i (A_i d_i B_j - B_i d_i A_j), one sum of products per j."""
    if A.n != B.n:
        raise DimensionMismatch(f"fields in dimensions {A.n} and {B.n}")
    n = A.n
    coords = range(n)
    comps = []
    for j in coords:
        Aj, Bj = A.components[j], B.components[j]
        products = []
        for i in coords:
            products.append((1, A.components[i], Bj.deriv(i + 1)))
            products.append((-1, B.components[i], Aj.deriv(i + 1)))
        comps.append(_sum_products(n, products))
    return VectorField(comps)


# -- exact linear algebra over a shared monomial frame ----------------------
#
# A vector field is a rational vector over frame slots (component index,
# exponent tuple).  Spans are tracked in sparse echelon form: each stored row
# has a unique pivot slot that is minimal in its support, so reducing a
# candidate against rows in pivot order terminates in one pass.


def _slot_key(slot) -> tuple:
    comp, exps = slot
    return (comp, grlex_key(exps))


def _sparse_vector(field: VectorField) -> dict:
    out = {}
    for comp in range(1, field.n + 1):
        for exps, coeff in field.component(comp).terms.items():
            out[(comp, exps)] = coeff
    return out


class _SpanTracker:
    """Echelonized span with bookkeeping of combinations over inserted fields."""

    def __init__(self):
        self.rows = []  # (pivot slot, sparse row, combination over inserted fields)
        self.size = 0  # number of independent fields inserted

    def _reduce(self, vec: dict):
        comb: dict[int, Fraction] = {}
        for pivot, row, rcomb in self.rows:
            factor = vec.get(pivot)
            if not factor:
                continue
            for slot, value in row.items():
                _accumulate(vec, slot, -factor * value)
            for idx, value in rcomb.items():
                _accumulate(comb, idx, factor * value)
        return vec, comb

    def coefficients(self, field: VectorField):
        """Express field over the inserted basis; None when it escapes."""
        residue, comb = self._reduce(_sparse_vector(field))
        if residue:
            return None
        out = [Fraction(0)] * self.size
        for idx, value in comb.items():
            out[idx] = value
        return out

    def insert(self, field: VectorField) -> bool:
        """Adjoin a field; False when it was already in the span."""
        residue, comb = self._reduce(_sparse_vector(field))
        if not residue:
            return False
        self._adjoin(residue, comb)
        return True

    def _adjoin(self, residue: dict, comb: dict) -> None:
        """Store the nonzero residue that _reduce left of a new field."""
        pivot = min(residue, key=_slot_key)
        inv = 1 / residue[pivot]
        row = {slot: value * inv for slot, value in residue.items()}
        rcomb = {idx: -value * inv for idx, value in comb.items()}
        rcomb[self.size] = inv
        self.rows.append((pivot, row, rcomb))
        self.rows.sort(key=lambda r: _slot_key(r[0]))
        self.size += 1


def in_span(field: VectorField, basis: Sequence[VectorField]) -> bool:
    """Exact rational membership of a field in the span of a basis."""
    if field.is_zero():
        return True
    tracker = _SpanTracker()
    for b in basis:
        tracker.insert(b)
    residue, _ = tracker._reduce(_sparse_vector(field))
    return not residue


def span_coefficients(field: VectorField, basis: Sequence[VectorField]):
    """Solve field = sum_k coeff_k basis_k exactly; None when unsolvable.

    Requires a linearly independent basis (the coefficients are then unique).
    """
    tracker = _SpanTracker()
    for b in basis:
        if not tracker.insert(b):
            raise ValueError("basis fields are not linearly independent")
    return tracker.coefficients(field)


class AlgebraSpan(namedtuple("AlgebraSpan", "basis brackets")):
    """A rational span of vector fields with the brackets of its basis.

    ``brackets`` holds one ``((i, j), field, coords)`` record per bracket
    the closure computed, for 0-based basis indices i < j: ``coords`` is the
    sparse tuple of ``(k, c)`` with ``field = sum c e_k``, or None for the
    bracket that escaped when the closure stopped at its cap.
    """

    __slots__ = ()


class ClosureReport(
    namedtuple("ClosureReport", "dimension seed_dimension already_closed added cap cap_exceeded")
):
    """What ``algebra_closure`` found; ``added`` holds ((i, j), field) per adjoined bracket."""

    __slots__ = ()


def algebra_closure(seeds: Sequence[VectorField], cap: int | None = None):
    """Close a span under brackets; returns (AlgebraSpan, ClosureReport).

    Brackets of basis pairs are adjoined whenever they escape the current
    span, until a pass adds nothing.  Hitting the cap stops adjoining and is
    reported, not raised.  Each pair is bracketed once; the span records
    every bracket with its coordinates (an adjoined one is the new unit
    vector).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed field")
    n = seeds[0].n
    if any(f.n != n for f in seeds):
        raise DimensionMismatch("seed fields in mixed dimensions")
    if cap is None:
        cap = n * (n + 1) // 2
    if cap < 1:
        raise ValueError("cap must be positive")

    tracker = _SpanTracker()
    basis: list[VectorField] = []
    for f in seeds:
        if tracker.insert(f):
            basis.append(f)
    seed_dim = len(basis)

    added = []
    brackets = []
    cap_exceeded = False
    j = 1
    while j < len(basis) and not cap_exceeded:
        for i in range(j):
            br = lie_bracket(basis[i], basis[j])
            residue, comb = tracker._reduce(_sparse_vector(br))
            if not residue:
                coords = tuple(sorted(comb.items()))
            elif len(basis) + 1 > cap:
                cap_exceeded = True
                brackets.append(((i, j), br, None))
                break
            else:
                tracker._adjoin(residue, comb)
                coords = ((len(basis), Fraction(1)),)
                basis.append(br)
                added.append(((i, j), br))
            brackets.append(((i, j), br, coords))
        j += 1

    span = AlgebraSpan(basis=tuple(basis), brackets=tuple(brackets))
    report = ClosureReport(
        dimension=len(basis),
        seed_dimension=seed_dim,
        already_closed=not added and not cap_exceeded,
        added=tuple(added),
        cap=cap,
        cap_exceeded=cap_exceeded,
    )
    return span, report


def structure_constants(span: AlgebraSpan) -> dict:
    """Constants c^k_ij with [e_i, e_j] = sum_k c^k_ij e_k (1-based, sparse).

    A read of the brackets ``algebra_closure`` recorded; raises NotClosed
    for a span whose closure stopped at its cap.
    """
    out = {}
    for (i, j), _, coords in span.brackets:
        if coords is None:
            raise NotClosed(f"bracket of elements {i + 1} and {j + 1} leaves the span")
        for k, value in coords:
            out[(i + 1, j + 1, k + 1)] = value
            out[(j + 1, i + 1, k + 1)] = -value
    return out


def sl2_check(n: int = 2) -> bool:
    """Fingerprint the n=2 algebra: e=T, f=-G, h=-2D satisfy the sl2 table."""
    if n != 2:
        raise ValueError("the sl2 fingerprint is defined for n=2 only")
    e = generator("T1", 2)
    f = -generator("G", 2)
    h = -2 * generator("D", 2)
    return (
        lie_bracket(h, e) == 2 * e
        and lie_bracket(h, f) == -2 * f
        and lie_bracket(e, f) == h
    )


# -- contact machinery (odd ambient dimension 2m+1) --------------------------


class ContactMatrix(namedtuple("ContactMatrix", "size entries")):
    """Antisymmetric matrix of parameter cross-products, size 2m."""

    __slots__ = ()

    def __new__(cls, size, entries):
        if len(entries) != size or any(len(r) != size for r in entries):
            raise ValueError("entries are not a square matrix of the declared size")
        if any(entries[i][j] != -entries[j][i] for i in range(size) for j in range(size)):
            raise ValueError("matrix is not antisymmetric")
        return super().__new__(cls, size, entries)

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def row_text(self) -> str:
        return "[" + "; ".join(",".join(str(v) for v in row) for row in self.entries) + "]"


def contact_matrix(params: SolitonParams) -> ContactMatrix:
    """M_ij = a_i c_j - a_j c_i over the 2m parameter indices."""
    if params.n % 2 == 0:
        raise OddSize(f"contact matrix needs odd ambient dimension, got n={params.n}")
    size = params.n - 1
    entries = tuple(
        tuple(params.a[i] * params.c[j] - params.a[j] * params.c[i] for j in range(size))
        for i in range(size)
    )
    return ContactMatrix(size=size, entries=entries)


def _as_matrix(M) -> list:
    rows = M.entries if isinstance(M, ContactMatrix) else M
    return [list(map(Fraction, row)) for row in rows]


def pfaffian(M) -> Fraction:
    """Pfaffian by recursive expansion along the first row."""
    mat = _as_matrix(M)
    size = len(mat)
    if size % 2:
        raise OddSize(f"Pfaffian needs even size, got {size}")

    def rec(rows: list) -> Fraction:
        k = len(rows)
        if k == 0:
            return Fraction(1)
        total = Fraction(0)
        for j in range(1, k):
            coeff = rows[0][j]
            if coeff == 0:
                continue
            keep = [r for r in range(1, k) if r != j]
            minor = [[rows[r][c] for c in keep] for r in keep]
            term = coeff * rec(minor)
            # expansion sign (-1)^j for 0-based column j
            total += -term if j % 2 == 0 else term
        return total

    return rec(mat)


def det_bareiss(M) -> Fraction:
    """Exact determinant by fraction-free elimination (Bareiss 1968).

    Each row is first scaled by the lcm of its denominators, so elimination
    runs on integers in O(k^3) steps; every division by the previous pivot
    is exact.  A zero pivot is replaced by a later row with a nonzero entry
    in its column (flipping the sign), and a column with none means det = 0.
    """
    rows = _as_matrix(M)
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("determinant needs a square matrix")
    scale = 1
    a = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        a.append([x.numerator * (den // x.denominator) for x in row])
    sign, prev = 1, 1
    for p in range(k - 1):
        if not a[p][p]:
            swap = next((r for r in range(p + 1, k) if a[r][p]), None)
            if swap is None:
                return Fraction(0)
            a[p], a[swap] = a[swap], a[p]
            sign = -sign
        pivot, top = a[p][p], a[p]
        for row in a[p + 1 :]:
            lead = row[p]
            for j in range(p + 1, k):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return Fraction(sign * a[-1][-1], scale) if k else Fraction(1)


def det_via_pf(M) -> Fraction:
    """Determinant as Pf(M)^2, cross-checked against Bareiss elimination."""
    return _det_from_pf(M, pfaffian(M))


def _det_from_pf(M, pf: Fraction) -> Fraction:
    square = pf**2
    if square != det_bareiss(M):
        raise AssertionError("Pf(M)^2 disagrees with the Bareiss determinant")
    return square


def contact_top_form(params: SolitonParams, field: VectorField | None = None) -> LaurentPoly:
    """Coefficient of dx1^...^dxn in w ^ (dw)^m, ambient dimension n = 2m+1.

    ``field`` is ``build_field(params)`` when the caller already has it.
    """
    n = params.n
    if n % 2 == 0:
        raise OddSize(f"top form needs odd ambient dimension, got n={n}")
    m = (n - 1) // 2
    omega = flat(build_field(params) if field is None else field)
    domega = ext_d(omega)
    top = wedge(omega, power_wedge(domega, m))
    return top.coeff(tuple(range(1, n + 1)))


_CONTACT_FIELDS = "n matrix pf det top_coeff cleared consistent is_contact convention"


class ContactReport(namedtuple("ContactReport", _CONTACT_FIELDS, defaults=(MATRIX_CONVENTION,))):
    """Exact contact diagnostics for one parameter set.

    ``cleared`` is the top coefficient times xn^n, and ``consistent`` means
    that it is a constant with |cleared / 2^m| == |Pf(M)|.
    """

    __slots__ = ()


def contact_report(params: SolitonParams, field: VectorField | None = None) -> ContactReport:
    """Compute the top form and compare it against the Pfaffian route.

    ``field`` is ``build_field(params)`` when the caller already has it.
    """
    n = params.n
    m = (n - 1) // 2
    M = contact_matrix(params)
    pf = pfaffian(M)
    det = _det_from_pf(M, pf)
    top = contact_top_form(params, field)
    cleared = top * LaurentPoly.monomial(n, (0,) * (n - 1) + (n,))
    const_key = (0,) * n
    is_constant = set(cleared.terms) <= {const_key}
    value = cleared.terms.get(const_key, Fraction(0))
    consistent = is_constant and abs(value) == abs(pf) * 2**m
    return ContactReport(
        n=n,
        matrix=M,
        pf=pf,
        det=det,
        top_coeff=top,
        cleared=cleared,
        consistent=consistent,
        is_contact=is_constant and value != 0,
    )


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
    xp = [field.component(i).evaluate(pt) for i in range(1, n + 1)]
    weight = pt[-1] ** -2
    omega_x = sum(x * x for x in xp) * weight
    if omega_x == 0:
        raise DegeneratePoint(f"dual form annihilates the field at {tuple(map(str, pt))}")
    omega_v = sum(u * x for u, x in zip(vec, xp)) * weight
    s = omega_v / omega_x
    v_ker = tuple(u - s * x for u, x in zip(vec, xp))
    return s, v_ker
