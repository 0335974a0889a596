"""Metric layer of the hyperbolic upper half-space {xn > 0}.

The metric is g_ij = delta_ij / xn^2.  Everything curved is *computed*, not
hard-coded: Christoffel symbols come with a cross-check against the standard
metric formula, and the Ricci tensor is contracted from them, so the facts
Ric = -(n-1) g and r = -n(n-1) are theorems of the code rather than inputs.
None of them depends on the field parameters, so each is computed, and the
cross-check run, once per dimension n and process; only results that passed
the cross-check are cached.

Also hosts the parameter record for the soliton field family, the flat
(index-lowering) map, the Lie derivative of the metric, the soliton residual,
and the numeric hyperbolic distance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

from .errors import BoundaryPoint
from .exterior import KForm, VectorField
from .ratlaurent import LaurentPoly, SparseMap, _sum_grouped


class SymTensor2(SparseMap):
    """Symmetric (0,2)-tensor; only keys (i, j) with i <= j are stored."""

    __slots__ = ("_terms",)

    def _check(self, key, poly) -> tuple:
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"key {key!r} is not a pair")
        i, j = key
        if type(i) is not int or type(j) is not int or not 1 <= i <= j <= self.n:
            raise ValueError(f"key ({i}, {j}) not ordered ints inside 1..{self.n}")
        if not isinstance(poly, LaurentPoly) or poly.n != self.n:
            raise ValueError(f"coefficient is not a LaurentPoly in {self.n} coordinates")
        return (i, j), poly

    def get(self, i: int, j: int) -> LaurentPoly:
        if i > j:
            i, j = j, i
        return self._terms.get((i, j), LaurentPoly.zero(self.n))

    def text(self) -> str:
        if not self._terms:
            return "0"
        return "; ".join(f"[{i},{j}] {p.text()}" for (i, j), p in self.items())


class SolitonParams(namedtuple("SolitonParams", "n a b c rho")):
    """Parameters (a_1..a_{n-1}, b, c_1..c_{n-1}, rho) of a soliton field.

    Every value is stored as Fraction (a and c as tuples).  The soliton
    constant is not a parameter: it is forced by the trace identities,
    ``soliton_lambda(n, rho)`` = (n-1)(n*rho - 1).  A parameter set with
    all a_k = 0 and b = 0 gives a constant (possibly zero) field; it is
    accepted but flagged ``degenerate`` so callers can report it instead
    of silently treating it as a generic family member.
    """

    __slots__ = ()

    def __new__(cls, n, a, b, c, rho=1):
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        a, c = tuple(map(Fraction, a)), tuple(map(Fraction, c))
        b, rho = Fraction(b), Fraction(rho)
        if len(a) != n - 1 or len(c) != n - 1:
            raise ValueError(f"a and c must have length n-1 = {n - 1}")
        if rho == 0:
            raise ValueError("rho must be nonzero")
        return super().__new__(cls, n, a, b, c, rho)

    @classmethod
    def _make(cls, values):
        return cls(*values)

    @property
    def degenerate(self) -> bool:
        """True when the field is constant (all a_k and b vanish)."""
        return self.b == 0 and all(x == 0 for x in self.a)


def random_params(rng, n: int) -> SolitonParams:
    """Draw small random rational parameters of a non-constant field, deterministic in ``rng``."""

    def q() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    while True:
        a = tuple(q() for _ in range(n - 1))
        b = q()
        c = tuple(q() for _ in range(n - 1))
        if any(x != 0 for x in a) or b != 0:
            break
    rho = q()
    while rho == 0:
        rho = q()
    return SolitonParams(n=n, a=a, b=b, c=c, rho=rho)


@lru_cache(maxsize=None)
def metric(n: int) -> SymTensor2:
    """Diagonal metric with entries xn^-2, built once per n."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    entry = LaurentPoly.monomial(n, (0,) * (n - 1) + (-2,))
    return SymTensor2(n, {(i, i): entry for i in range(1, n + 1)})


@lru_cache(maxsize=None)
def inverse_metric(n: int) -> SymTensor2:
    """Diagonal inverse metric with entries xn^2, built once per n."""
    entry = LaurentPoly.monomial(n, (0,) * (n - 1) + (2,))
    return SymTensor2(n, {(i, i): entry for i in range(1, n + 1)})


def _christoffel_closed(n: int) -> dict:
    inv_xn = LaurentPoly.monomial(n, (0,) * (n - 1) + (-1,))
    out = {}
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                value = int(i == j and k == n) - int(i == k and j == n) - int(j == k and i == n)
                if value:
                    out[(k, i, j)] = value * inv_xn
    return out


def _christoffel_from_metric(n: int) -> dict:
    g = metric(n)
    ginv = inverse_metric(n)
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


@lru_cache(maxsize=None)
def _christoffel_checked(n: int) -> dict:
    closed = _christoffel_closed(n)
    derived = _christoffel_from_metric(n)
    if closed != derived:
        raise AssertionError("closed-form Christoffel symbols disagree with the metric formula")
    return closed


def christoffel(n: int) -> dict:
    """Levi-Civita symbols as a sparse map (k, i, j) -> Gamma^k_ij.

    The closed form (delta_ij delta_kn - delta_ik delta_jn - delta_jk
    delta_in)/xn is validated against the standard metric formula
    (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) on the first call for each
    n.  Every call returns a fresh dict, so callers cannot alter the cache.
    """
    return dict(_christoffel_checked(n))


def flat(field: VectorField) -> KForm:
    """Index lowering: the dual 1-form w_i = X^i / xn^2."""
    n = field.n
    weight = LaurentPoly.monomial(n, (0,) * (n - 1) + (-2,))
    return KForm(n, 1, {(i,): X * weight for i, X in field.items()})


@lru_cache(maxsize=None)
def _metric_table(n: int) -> tuple:
    """(g, its dense entries, {(i, j): (d_1 g_ij, ..., d_n g_ij)}), built once per n."""
    g = metric(n)
    coords = range(1, n + 1)
    dense = tuple(tuple(g.get(i, j) for j in coords) for i in coords)
    return g, dense, {key: tuple(p.deriv(k) for k in coords) for key, p in g.items()}


def lie_derivative_metric(field: VectorField) -> SymTensor2:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k.

    The metric entries and their derivatives come from a per-n cache, the
    d_i X^k from the field's ``jacobian``, and each (i, j) entry is one sum
    of products.
    """
    n = field.n
    g, g_dense, dg = _metric_table(n)  # dg[(i, j)][k-1] = d_k g_ij
    coords = range(1, n + 1)
    zeros = [LaurentPoly.zero(n)] * n
    X, dX = field.components, field.jacobian  # dX[k-1][i-1] = d_i X^k
    groups = {}
    for i in coords:
        for j in range(i, n + 1):
            dg_ij = dg.get((i, j), zeros)
            products = groups[(i, j)] = []
            for k in coords:
                products.append((1, X[k - 1], dg_ij[k - 1]))
                products.append((1, g_dense[k - 1][j - 1], dX[k - 1][i - 1]))
                products.append((1, g_dense[i - 1][k - 1], dX[k - 1][j - 1]))
    return g._like(_sum_grouped(groups))


def ricci(n: int) -> SymTensor2:
    """Ricci tensor contracted from the Christoffel symbols, cached per n."""
    return _ricci(n)


@lru_cache(maxsize=None)
def _ricci(n: int) -> SymTensor2:
    gam = christoffel(n)
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
            if total:
                out[(i, j)] = total
    return SymTensor2(n, out)


def scalar_curvature(n: int) -> LaurentPoly:
    """r = g^ij R_ij; equals the constant -n(n-1) for the half-space; cached per n."""
    return _scalar_curvature(n)


@lru_cache(maxsize=None)
def _scalar_curvature(n: int) -> LaurentPoly:
    ginv = inverse_metric(n)
    ric = ricci(n)
    total = LaurentPoly.zero(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = total + ginv.get(i, j) * ric.get(i, j)
    return total


def soliton_lambda(n: int, rho) -> Fraction:
    """Soliton constant forced by L_X g = 0, Ric = -(n-1)g, r = -n(n-1)."""
    rho = Fraction(rho)
    if rho == 0:
        raise ValueError("rho must be nonzero")
    return Fraction(n - 1) * (n * rho - 1)


def rb_residual(lie_g: SymTensor2, params: SolitonParams) -> SymTensor2:
    """Defect of the soliton equation, L_X g + 2 Ric - 2(lam + rho r) g.

    ``lie_g`` is L_X g, ``lie_derivative_metric`` of the field of ``params``,
    and lam is ``soliton_lambda(n, rho)``.
    """
    n = params.n
    lam = soliton_lambda(n, params.rho)
    r = scalar_curvature(n)
    factor = LaurentPoly.const(n, 2 * lam) + LaurentPoly.const(n, 2) * params.rho * r
    return lie_g + 2 * ricci(n) - metric(n) * factor


def hyp_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Hyperbolic distance arcosh(1 + |p-q|^2 / (2 p_n q_n))."""
    if len(p) != len(q):
        raise ValueError("points of different dimensions")
    pn, qn = p[-1], q[-1]
    if pn <= 0 or qn <= 0:
        raise BoundaryPoint("points must have positive last coordinate")
    sq = sum((a - b) ** 2 for a, b in zip(p, q))
    return math.acosh(1.0 + sq / (2.0 * pn * qn))
