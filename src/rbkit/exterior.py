"""Vector fields and differential forms with exact Laurent-polynomial coefficients.

Both are ``ratlaurent.SparseMap``s.  A vector field maps the 1-based index
i of each nonzero component to X^i; ``components`` is the dense tuple of
all n, zeros included.  ``jacobian`` is the field's one table of first
derivatives d[j][i] = d_(i+1) X^(j+1), built on first read and kept; the
Lie bracket, L_X g and the direct L_X w all read it, so a field is
differentiated once.  A sum, negation or multiple is a new field that
builds its own table.

A grade-k form is stored sparsely: strictly increasing index tuples
(i1 < ... < ik, 1-based) map to nonzero coefficient polynomials.  Grade-0
forms use the empty tuple.  Tuples longer than the ambient dimension cannot
be strictly increasing inside 1..n, so forms of grade > n are automatically
the zero form, matching the usual exterior-algebra convention.

Provides wedge products, the exterior derivative, interior products and the
Lie derivative, the latter computed by the homotopy (Cartan) identity
L_X a = i_X da + d(i_X a) and, on 1-forms, cross-checked against the direct
coordinate formula.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .errors import DimensionMismatch, GradeOverflow
from .ratlaurent import LaurentPoly, SparseMap, _accumulate, _sum_grouped

IndexTuple = tuple  # strictly increasing tuple[int, ...] with entries in 1..n


class VectorField(SparseMap):
    """n contravariant components, each a LaurentPoly in x1..xn, stored by 1-based index."""

    __slots__ = ("_terms", "_jacobian")

    def __init__(self, components: Sequence[LaurentPoly]):
        components = tuple(components)
        if not components:
            raise ValueError("a vector field needs at least one component")
        n = components[0].n
        if len(components) != n:
            raise ValueError("need exactly n components, each a polynomial in n coordinates")
        super().__init__(n, dict(enumerate(components, 1)))

    def _check(self, i, poly) -> tuple:
        if not 1 <= i <= self.n:
            raise ValueError(f"component index {i} outside 1..{self.n}")
        if not isinstance(poly, LaurentPoly) or poly.n != self.n:
            raise ValueError("need exactly n components, each a polynomial in n coordinates")
        return i, poly

    @classmethod
    def zero(cls, n: int) -> "VectorField":
        return cls([LaurentPoly.zero(n)] * n)

    @property
    def components(self) -> tuple:
        """All n components X^1..X^n, zeros included."""
        zero = LaurentPoly.zero(self.n)
        return tuple(self._terms.get(i, zero) for i in range(1, self.n + 1))

    @property
    def jacobian(self) -> tuple:
        """The table d[j][i] = d_(i+1) X^(j+1) of the n^2 first derivatives, built on first read."""
        if not hasattr(self, "_jacobian"):
            coords = range(1, self.n + 1)
            self._jacobian = tuple(tuple(comp.deriv(i) for i in coords) for comp in self.components)
        return self._jacobian

    def text(self) -> str:
        return "(" + ", ".join(p.text() for p in self.components) + ")"

    def __repr__(self) -> str:
        return f"VectorField{self.text()}"


class KForm(SparseMap):
    """Grade-k differential form in dimension n, sparsely stored."""

    __slots__ = ("grade", "_terms")

    def __init__(self, n: int, grade: int, terms=None):
        if grade < 0:
            raise ValueError(f"negative grade {grade}")
        self.n = n
        self.grade = grade
        self._terms = self._validated(terms)

    def _check(self, idx, poly) -> tuple:
        if not isinstance(idx, tuple):
            raise ValueError(f"index key {idx!r} is not a tuple")
        idx = tuple(idx)
        if len(idx) != self.grade:
            raise ValueError(f"index tuple {idx} has length {len(idx)}, expected grade {self.grade}")
        inside = all(type(i) is int and 1 <= i <= self.n for i in idx)
        if not inside or any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index tuple {idx} not strictly increasing ints inside 1..{self.n}")
        if not isinstance(poly, LaurentPoly) or poly.n != self.n:
            raise ValueError(f"coefficient is not a LaurentPoly in {self.n} coordinates")
        return idx, poly

    def _like(self, terms: dict, grade: int | None = None) -> "KForm":
        """A form of this dimension and of this grade (or ``grade``) wrapping clean terms."""
        form = SparseMap._like(self, terms)
        form.grade = self.grade if grade is None else grade
        return form

    def _shape(self):
        return (self.n, self.grade)

    def coeff(self, idx: Iterable[int]) -> LaurentPoly:
        return self._terms.get(tuple(idx), LaurentPoly.zero(self.n))

    def text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for idx, poly in self.items():
            key = "^".join(f"dx{i}" for i in idx)
            pieces.append(f"({poly.text()})" + (f"*{key}" if key else ""))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"KForm({self.n}, grade={self.grade}, {self.text()!r})"


def _merge_sign(left: IndexTuple, right: IndexTuple) -> int:
    """Sign of sorting the concatenation of two increasing index tuples."""
    inversions = 0
    for a in left:
        # every element of `right` smaller than `a` must jump over it
        inversions += bisect_left(right, a)
    return -1 if inversions % 2 else 1


def wedge(alpha: KForm, beta: KForm) -> KForm:
    """Exterior product; grades add, overlapping indices annihilate."""
    if alpha.n != beta.n:
        raise DimensionMismatch(f"forms in dimensions {alpha.n} and {beta.n}")
    groups: dict[IndexTuple, list] = {}
    for ia, pa in alpha._terms.items():
        seen = set(ia)
        for ib, pb in beta._terms.items():
            if not seen.intersection(ib):
                groups.setdefault(tuple(sorted(ia + ib)), []).append((_merge_sign(ia, ib), pa, pb))
    return alpha._like(_sum_grouped(groups), alpha.grade + beta.grade)


def ext_d(alpha: KForm) -> KForm:
    """Exterior derivative.

    On 1-forms the (i, j) coefficient is dw_j/dx_i - dw_i/dx_j for i < j; the
    general grade uses the same insert-with-sign rule per coordinate.
    """
    n = alpha.n
    out: dict[IndexTuple, LaurentPoly] = {}
    for idx, poly in alpha._terms.items():
        for i in range(1, n + 1):
            if i in idx:
                continue
            dpoly = poly.deriv(i)
            if not dpoly:
                continue
            pos = bisect_left(idx, i)
            if pos % 2:
                dpoly = -dpoly
            _accumulate(out, idx[:pos] + (i,) + idx[pos:], dpoly)
    return alpha._like(out, alpha.grade + 1)


def interior(field: VectorField, alpha: KForm) -> KForm:
    """Contraction i_X into the first slot, with alternating signs."""
    if field.n != alpha.n:
        raise DimensionMismatch(f"field in dimension {field.n}, form in {alpha.n}")
    if alpha.grade < 1:
        raise ValueError("interior product needs grade >= 1")
    components = field.components
    groups: dict[IndexTuple, list] = {}
    for idx, poly in alpha._terms.items():
        for pos, i in enumerate(idx):
            groups.setdefault(idx[:pos] + idx[pos + 1 :], []).append(
                (-1 if pos % 2 else 1, poly, components[i - 1])
            )
    return alpha._like(_sum_grouped(groups), alpha.grade - 1)


def _lie_derivative_direct(field: VectorField, omega: KForm) -> KForm:
    # (L_X w)_i = sum_j X^j d_j w_i + w_j d_i X^j, valid on 1-forms only
    coords = range(1, omega.n + 1)
    w = [omega.coeff((i,)) for i in coords]
    X, dX = field.components, field.jacobian
    groups = {}
    for i in coords:
        products = groups[(i,)] = []
        for j in coords:
            products.append((1, X[j - 1], w[i - 1].deriv(j)))
            products.append((1, w[j - 1], dX[j - 1][i - 1]))
    return omega._like(_sum_grouped(groups))


def lie_derivative_form(field: VectorField, alpha: KForm, d_alpha: KForm) -> KForm:
    """Lie derivative L_X alpha = i_X d_alpha + d(i_X alpha), for d_alpha = ext_d(alpha).

    On 1-forms the result is cross-checked against the direct coordinate
    formula, which does not read d_alpha.
    """
    if field.n != alpha.n:
        raise DimensionMismatch(f"field in dimension {field.n}, form in {alpha.n}")
    if alpha.grade == 0:
        return interior(field, d_alpha)
    result = interior(field, d_alpha) + ext_d(interior(field, alpha))
    if alpha.grade == 1:
        direct = _lie_derivative_direct(field, alpha)
        if direct != result:
            raise AssertionError(
                "homotopy-identity and direct Lie-derivative formulas disagree: "
                f"{result.text()} vs {direct.text()}"
            )
    return result


def _split_last(alpha: KForm) -> tuple[KForm, KForm]:
    """Split a form into (terms without index n, terms with index n)."""
    without, with_n = {}, {}
    for idx, poly in alpha._terms.items():
        (with_n if alpha.n in idx else without)[idx] = poly
    return alpha._like(without), alpha._like(with_n)


def power_wedge(alpha: KForm, m: int) -> KForm:
    """m-fold wedge power of a form.

    For 2-forms the result is also computed through the split
    (O + L)^m = O^m + m O^(m-1) ^ L, where L collects the dxn terms and
    L ^ L = 0; the two routes must agree exactly.  The split builds
    O^(m-1) once and takes O^m = O^(m-1) ^ O from it.
    """
    if m < 1:
        raise ValueError("wedge power needs m >= 1")
    if alpha.grade * m > alpha.n:
        raise GradeOverflow(f"grade {alpha.grade}*{m} exceeds dimension {alpha.n}")
    out = alpha
    for _ in range(m - 1):
        out = wedge(out, alpha)
    if alpha.grade == 2 and m >= 2:
        omega_part, last_part = _split_last(alpha)
        pow_prev = omega_part
        for _ in range(m - 2):
            pow_prev = wedge(pow_prev, omega_part)
        split = wedge(pow_prev, omega_part) + m * wedge(pow_prev, last_part)
        if split != out:
            raise AssertionError("direct and split wedge powers disagree")
    return out
