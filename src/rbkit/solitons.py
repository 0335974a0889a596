"""The family of soliton vector fields on the hyperbolic half-space.

The fields are the combinations sum c_k T_k + b D + sum a_k G_k over one
basis, ``generators(n)``, built once per n in the order of
``generator_names(n)``: T1..T(n-1), D, G1..G(n-1).  ``_parse_generator``
is the one reader of names ("D", "Tk", "Gk" with ASCII k, or "G" at n=2).

Also here: exact Lie brackets, bracket-closure of spans with exact
rational linear algebra (one echelon tracker whose ``insert`` adjoins a
field or returns its coordinates), structure constants, and the contact
machinery for odd ambient dimension: the antisymmetric parameter matrix,
its Pfaffian and determinant (fraction-free eliminations on one integer
matrix, O(k^3)) and the top form w ^ (dw)^m.

Subalgebra sizes are *measured*, never asserted: ``algebra_closure`` adjoins
escaping brackets until the span stabilizes and returns one ``AlgebraSpan``
that holds the basis, the brackets and what the closure found.  It is the
one place where a span's brackets are computed: each basis pair is
bracketed by ``lie_bracket``, the one bracket, and reduced once, and the
span records the bracket with its coordinates over the basis, so structure
constants come from that pass.  A bracket reads each component's
derivatives from its one cached ``partials``, which a basis field's
components build on its first bracket.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import halfspace
from .errors import DimensionMismatch, IndexOutOfRange, NotClosed, OddSize
from .exterior import KForm, VectorField, power_wedge, wedge
from .ratlaurent import LaurentPoly, _accumulate, _sum_grouped, _sum_products

# Convention note emitted with every contact report: the antisymmetric
# parameter matrix uses entries a_i*c_j - a_j*c_i.
MATRIX_CONVENTION = "M[i][j] = a_i*c_j - a_j*c_i"


def generator_names(n: int) -> tuple:
    """The basis order T1..T(n-1), D, G1..G(n-1) of ``generators(n)``."""
    return (*(f"T{k}" for k in range(1, n)), "D", *(f"G{k}" for k in range(1, n)))


@lru_cache(maxsize=None)
def generators(n: int) -> tuple:
    """The fields of ``generator_names(n)``, built once per n."""
    return tuple(generator(name, n) for name in generator_names(n))


def build_field(params: halfspace.SolitonParams) -> VectorField:
    """X = sum c_k T_k + b D + sum a_k G_k over ``generators(n)``, skipping zero coefficients."""
    field = VectorField.zero(params.n)
    for coeff, gen in zip((*params.c, params.b, *params.a), generators(params.n)):
        if coeff:
            field = field + coeff * gen
    return field


def _parse_generator(name: str, n: int) -> tuple:
    """The one reader of generator names: (kind, k), with k = 0 for "D" and for "G" at n=2."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if name == "D" or (name == "G" and n == 2):
        return name, 0
    kind, digits = name[:1], name[1:]
    if kind not in ("T", "G") or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"unknown generator name {name!r}")
    k = int(digits)
    if not 1 <= k <= n - 1:
        raise IndexOutOfRange(f"generator index {k} outside 1..{n - 1}")
    return kind, k


def generator(name: str, n: int) -> VectorField:
    """Named generator: "D", "Tk", "Gk" (1 <= k <= n-1), or "G" (n=2 only).

    "G" is the n=2 rotation (x^2-y^2, 2xy), twice the boost "G1"; both
    conventions appear in flows and algebra fingerprints.
    """
    kind, k = _parse_generator(name, n)
    if kind == "G" and not k:
        return 2 * generator("G1", 2)
    # flows evaluates a component's terms in their order, so it is part of the CSV bytes
    field = VectorField.zero(n)
    if kind == "T":
        return field._like({k: LaurentPoly.const(n, 1)})
    x = [LaurentPoly.var(n, j) for j in range(1, n + 1)]
    if kind == "D":
        return field._like(dict(enumerate(x, 1)))
    # boost: (1/2)(x_k^2 - sum_{j != k} x_j^2) d_k + sum_{j != k} x_k x_j d_j
    xk = x[k - 1]
    squares = [(1, xk, xk)] + [(-1, xj, xj) for j, xj in enumerate(x, 1) if j != k]
    quad = _sum_products(n, squares) * Fraction(1, 2)
    return field._like({j: quad if j == k else xk * xj for j, xj in enumerate(x, 1)})


def lie_bracket(A: VectorField, B: VectorField) -> VectorField:
    """[A, B]_j = sum_i (A_i d_i B_j - B_i d_i A_j), one sum of products per j.

    The derivatives d_i A_j and d_i B_j are read from the components' ``partials``.
    """
    if A.n != B.n:
        raise DimensionMismatch(f"fields in dimensions {A.n} and {B.n}")
    coords = range(A.n)
    Ac, Bc = A.components, B.components
    groups = {}
    for j in coords:
        products = groups[j + 1] = []
        dA, dB = Ac[j].partials, Bc[j].partials
        for i in coords:
            products.append((1, Ac[i], dB[i]))
            products.append((-1, Bc[i], dA[i]))
    return A._like(_sum_grouped(groups))


# -- exact linear algebra over a shared monomial frame ----------------------
#
# A vector field is a rational vector over frame slots (component index,
# packed monomial key of ``ratlaurent``).  Spans are tracked in sparse echelon
# form: each stored row has a unique pivot slot that is minimal in its
# support, so reducing a candidate against rows in pivot order terminates in
# one pass.  Any total order of the slots serves: membership and the
# coordinates over independent inserted fields do not depend on it.
# ``_SpanTracker.insert`` is the one way in: it reduces a field once, then
# adjoins it or returns its coordinates, which for a field that depends on
# the inserted ones is a kernel vector of those fields.


class _SpanTracker:
    """Echelonized span with bookkeeping of combinations over inserted fields."""

    def __init__(self):
        # one (pivot slot, sparse row, combination over inserted fields) per
        # independent field inserted, so len(rows) numbers the next one
        self.rows = []

    def insert(self, field: VectorField):
        """None after adjoining a field outside the span, else the field's coordinates.

        The coordinates are the sparse ``{k: c}`` with field = sum c f_k over
        the independent fields f_0, f_1, ... inserted so far, numbered in
        insertion order; the zero field gives ``{}``.  A field in the span
        is not stored.
        """
        vec = {}
        for comp, poly in field._terms.items():
            den = poly.den
            for key, num in poly.nums.items():
                vec[(comp, key)] = Fraction(num, den)
        comb: dict[int, Fraction] = {}
        for pivot, row, rcomb in self.rows:
            factor = vec.get(pivot)
            if not factor:
                continue
            for slot, value in row.items():
                _accumulate(vec, slot, -factor * value)
            for idx, value in rcomb.items():
                _accumulate(comb, idx, factor * value)
        if not vec:
            return comb
        pivot = min(vec)
        inv = 1 / vec[pivot]
        row = {slot: value * inv for slot, value in vec.items()}
        rcomb = {idx: -value * inv for idx, value in comb.items()}
        rcomb[len(self.rows)] = inv
        self.rows.append((pivot, row, rcomb))
        self.rows.sort(key=lambda r: r[0])
        return None


class AlgebraSpan(namedtuple("AlgebraSpan", "basis brackets seed_dimension added cap cap_exceeded")):
    """A rational span of vector fields with the brackets of its basis.

    ``brackets`` holds one ``((i, j), field, coords)`` record per bracket
    the closure computed, for 0-based basis indices i < j: ``coords`` is the
    sparse tuple of ``(k, c)`` with ``field = sum c e_k``, or None for the
    bracket that escaped when the closure stopped at its cap.  The records
    run in the order the pairs were bracketed: by j, then by i, so the
    pairs of the first ``seed_dimension`` fields come first.  The basis
    starts with the ``seed_dimension`` independent seeds; ``added`` holds
    ``((i, j), field)`` per adjoined bracket, and ``cap_exceeded`` says that
    the closure stopped at ``cap``.  The dimension is ``len(basis)``.
    """

    __slots__ = ()


def algebra_closure(seeds: Sequence[VectorField]) -> AlgebraSpan:
    """Close a span under brackets and return it with what the closure found.

    Brackets of basis pairs are adjoined whenever they escape the current
    span, until a pass adds nothing.  The cap is n(n+1)/2, the dimension of
    so(n,1): Killing fields of H^n never close beyond it.  Seeds that are
    not Killing may reach it; hitting it stops adjoining and is reported,
    not raised.  Each pair is bracketed once; the span records every
    bracket with its coordinates (an adjoined one is the new unit vector).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed field")
    n = seeds[0].n
    if any(f.n != n for f in seeds):
        raise DimensionMismatch("seed fields in mixed dimensions")
    cap = n * (n + 1) // 2

    tracker = _SpanTracker()
    basis: list[VectorField] = []
    for f in seeds:
        if tracker.insert(f) is None:
            basis.append(f)
    seed_dim = len(basis)

    added = []
    brackets = []
    cap_exceeded = False
    j = 1
    while j < len(basis) and not cap_exceeded:
        for i in range(j):
            br = lie_bracket(basis[i], basis[j])
            comb = tracker.insert(br)
            if comb is not None:
                coords = tuple(sorted(comb.items()))
            elif len(basis) >= cap:
                # insert has stored the escaping bracket, which is harmless: the closure stops
                cap_exceeded = True
                brackets.append(((i, j), br, None))
                break
            else:
                coords = ((len(basis), Fraction(1)),)
                basis.append(br)
                added.append(((i, j), br))
            brackets.append(((i, j), br, coords))
        j += 1

    return AlgebraSpan(tuple(basis), tuple(brackets), seed_dim, tuple(added), cap, cap_exceeded)


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


def sl2_check() -> bool:
    """Fingerprint the n=2 algebra: e=T, f=-G, h=-2D satisfy the sl2 table."""
    e = generator("T1", 2)
    f = -generator("G", 2)
    h = -2 * generator("D", 2)
    return (
        lie_bracket(h, e) == 2 * e
        and lie_bracket(h, f) == -2 * f
        and lie_bracket(e, f) == h
    )


# -- contact machinery (odd ambient dimension 2m+1) --------------------------


def contact_matrix(params: halfspace.SolitonParams) -> tuple:
    """The rows of M_ij = a_i c_j - a_j c_i over the 2m parameter indices."""
    if params.n % 2 == 0:
        raise OddSize(f"contact matrix needs odd ambient dimension, got n={params.n}")
    size = params.n - 1
    return tuple(
        tuple(params.a[i] * params.c[j] - params.a[j] * params.c[i] for j in range(size))
        for i in range(size)
    )


def _integer_matrix(M) -> tuple:
    """(L, rows): the rows of a square matrix times the lcm L of their denominators, as ints."""
    rows = [list(map(Fraction, row)) for row in M]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("needs a square matrix")
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def pfaffian(M) -> Fraction:
    """Pfaffian of the strict upper triangle by fraction-free skew elimination.

    Pf(LM) = L^(k/2) Pf(M).  Each updated entry is a sub-Pfaffian of LM, so
    every division by the previous pivot is exact (Tanner's identity).
    """
    scale, a = _integer_matrix(M)
    k = len(a)
    if k % 2:
        raise OddSize(f"Pfaffian needs even size, got {k}")
    a = [[a[i][j] if i < j else -a[j][i] if i > j else 0 for j in range(k)] for i in range(k)]
    sign, prev = 1, 1
    for p in range(0, k - 2, 2):
        q = next((q for q in range(p + 1, k) if a[p][q]), None)
        if q is None:
            return Fraction(0)
        if q != p + 1:
            a[p + 1], a[q] = a[q], a[p + 1]
            for row in a[p:]:
                row[p + 1], row[q] = row[q], row[p + 1]
            sign = -sign
        top, nxt, pivot = a[p], a[p + 1], a[p][p + 1]
        for i in range(p + 2, k):
            row, u, v = a[i], a[i][p], a[i][p + 1]
            for j in range(i + 1, k):
                row[j] = (pivot * row[j] - v * top[j] + u * nxt[j]) // prev
                a[j][i] = -row[j]
        prev = pivot
    return Fraction(sign * a[-2][-1], scale ** (k // 2)) if k else Fraction(1)


def det_bareiss(M) -> Fraction:
    """Exact determinant by fraction-free elimination (Bareiss 1968).

    det(LM) = L^k det(M); every division by the previous pivot is exact.  A
    zero pivot is swapped with a later row (flipping the sign), or det = 0.
    """
    scale, a = _integer_matrix(M)
    k = len(a)
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
    return Fraction(sign * a[-1][-1], scale**k) if k else Fraction(1)


def _det_from_pf(M, pf: Fraction) -> Fraction:
    square = pf**2
    if square != det_bareiss(M):
        raise AssertionError("Pf(M)^2 disagrees with the Bareiss determinant")
    return square


def contact_top_form(omega: KForm, domega: KForm) -> LaurentPoly:
    """Coefficient of dx1^...^dxn in w ^ (dw)^m, ambient dimension n = 2m+1.

    ``omega`` is the dual form w = flat(X) and ``domega`` is ext_d(omega).
    """
    n = omega.n
    if n % 2 == 0:
        raise OddSize(f"top form needs odd ambient dimension, got n={n}")
    m = (n - 1) // 2
    top = wedge(omega, power_wedge(domega, m))
    return top.coeff(tuple(range(1, n + 1)))


_CONTACT_FIELDS = "matrix pf det top_coeff cleared consistent is_contact"


class ContactReport(namedtuple("ContactReport", _CONTACT_FIELDS)):
    """Exact contact diagnostics for one parameter set.

    ``cleared`` is the top coefficient times xn^n, and ``consistent`` means
    that it is a constant with |cleared / 2^m| == |Pf(M)|.
    """

    __slots__ = ()


def contact_report(params: halfspace.SolitonParams, omega: KForm, domega: KForm) -> ContactReport:
    """Compute the top form and compare it against the Pfaffian route.

    ``omega`` is flat(build_field(params)) and ``domega`` is ext_d(omega).
    """
    n = params.n
    m = (n - 1) // 2
    M = contact_matrix(params)
    pf = pfaffian(M)
    det = _det_from_pf(M, pf)
    top = contact_top_form(omega, domega)
    cleared = top * LaurentPoly.monomial(n, (0,) * (n - 1) + (n,))
    const_key = (0,) * n
    is_constant = set(cleared.terms) <= {const_key}
    value = cleared.terms.get(const_key, Fraction(0))
    consistent = is_constant and abs(value) == abs(pf) * 2**m
    return ContactReport(
        matrix=M,
        pf=pf,
        det=det,
        top_coeff=top,
        cleared=cleared,
        consistent=consistent,
        is_contact=is_constant and value != 0,
    )
