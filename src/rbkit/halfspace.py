"""Metric layer of the hyperbolic upper half-space {xn > 0}.

The metric is g_ij = delta_ij / xn^2.  Everything curved is *computed*, not
hard-coded: Christoffel symbols come with a cross-check against the standard
metric formula, and the Ricci tensor is contracted from them, so the facts
Ric = -(n-1) g and r = -n(n-1) are theorems of the code rather than inputs.
None of them depends on the field parameters, so each is computed, and the
cross-check run, once per dimension n and process; only results that passed
the cross-check are cached.

The metric is read once per n, into ``_metric_table(n)``: the diagonal
entries g_ii of ``metric(n)``, their reciprocals g^ii and their nonzero
first derivatives d_k g_ii.  The table holds a diagonal of monomials only
and raises NotImplementedError on any other metric.  Every reader of the
metric goes through it, so ``metric(n)`` is the one place that states the
metric, and ``_christoffel_closed``, the cross-check's second route, the
one place that states its geometry on its own.

Every contraction runs over stored entries only: the metric formula is
three products per nonzero d_m g_aa, the Ricci tensor runs over the stored
Gamma^k_ij (3n - 2 of the n^3), r = g^ii R_ii, L_X g runs over the
diagonal and its nonzero derivatives, and w = flat(X) is w_i = g_ii X^i.
Every first derivative (the d_k g_ii, the d_i X^k, and the d_k Gamma^k_ij
and d_i Gamma^k_kj of the Ricci tensor) is read from the one cached
``partials`` of its polynomial, so the metric's one shared diagonal entry
is differentiated once.  Each sum is exact and order-free, so the results
are those of the sums over the whole index cube, which the test suite
keeps as oracles.

Also hosts the parameter record for the soliton field family, the flat
(index-lowering) map, the Lie derivative of the metric and the soliton
residual.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from fractions import Fraction

from .exterior import KForm, VectorField
from .ratlaurent import LaurentPoly, SparseMap, _accumulate, _sum_grouped, _sum_products


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
    """Diagonal inverse metric, the reciprocals g^ii of ``_metric_table(n)``, built once per n."""
    _, ginv, _ = _metric_table(n)
    return SymTensor2(n, {(i, i): h for i, h in enumerate(ginv, 1)})


@lru_cache(maxsize=None)
def _metric_table(n: int) -> tuple:
    """(g_ii, g^ii, the nonzero d_k g_ii) of ``metric(n)``, three n-tuples built once per n.

    Entry i of the derivatives is ((k, d_k g_ii), ...), read from the
    ``partials`` of g_ii.  Every reader of the metric goes through this
    table, which holds a diagonal of monomials only (the reciprocal of each
    must be Laurent too): any other metric raises NotImplementedError.
    """
    entries = metric(n)._terms
    g = tuple(entries.get((i, i)) for i in range(1, n + 1))
    if len(entries) != n or not all(p and len(p.nums) == 1 for p in g):
        raise NotImplementedError("the metric layer reads only a diagonal metric of monomials")
    # each g_ii is one term c x^e, so its reciprocal is c^-1 x^-e
    ginv = tuple(LaurentPoly(n, {tuple(-e for e in exps): 1 / c}) for p in g for exps, c in p.terms.items())
    dg = tuple(tuple((k, d) for k, d in enumerate(p.partials, 1) if d) for p in g)
    return g, ginv, dg


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
    """(1/2) g^kk (d_i g_jk + d_j g_ik - d_k g_ij) of the diagonal g: three products per nonzero d_m g_aa."""
    _, ginv, dg = _metric_table(n)
    half = [Fraction(1, 2) * h for h in ginv]
    groups = {}
    for a, derivatives in enumerate(dg, 1):
        for m, d in derivatives:
            # d_i g_jk at (k, i, j) = (a, m, a), d_j g_ik at (a, a, m), -d_k g_ij at (m, a, a)
            groups.setdefault((a, m, a), []).append((1, half[a - 1], d))
            groups.setdefault((a, a, m), []).append((1, half[a - 1], d))
            groups.setdefault((m, a, a), []).append((-1, half[m - 1], d))
    return _sum_grouped(groups)


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
    """Index lowering: the dual 1-form w_i = g_ii X^i, over the diagonal of ``_metric_table(n)``."""
    X = field._terms
    g, _, _ = _metric_table(field.n)
    groups = {(i,): [(1, X[i], gii)] for i, gii in enumerate(g, 1) if i in X}
    return KForm(field.n, 1, _sum_grouped(groups))


def lie_derivative_metric(field: VectorField) -> SymTensor2:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k.

    The diagonal g_ii and its nonzero d_k g_ii come from ``_metric_table(n)``,
    the d_i X^k from the components' ``partials``, so (i, j) is one sum of
    X^k d_k g_ii (at i = j only), g_jj d_i X^j and g_ii d_j X^i.
    """
    n = field.n
    g, _, dg = _metric_table(n)
    X = field.components
    dX = [p.partials for p in X]  # dX[k-1][i-1] = d_i X^k
    groups = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            products = groups[(i, j)] = [(1, X[k - 1], d) for k, d in dg[i - 1]] if i == j else []
            products += [(1, g[j - 1], dX[j - 1][i - 1]), (1, g[i - 1], dX[i - 1][j - 1])]
    return SymTensor2(n)._like(_sum_grouped(groups))


def ricci(n: int) -> SymTensor2:
    """Ricci tensor contracted from the Christoffel symbols, cached per n."""
    return _ricci(n)


@lru_cache(maxsize=None)
def _ricci(n: int) -> SymTensor2:
    # R_ij = d_k G^k_ij - d_i G^k_kj + G^k_kl G^l_ij - G^k_il G^l_kj, over the stored G
    gam = christoffel(n)
    trace = {}  # T_j = G^k_kj
    rows = {}  # (l, k) -> [(j, G^l_kj), ...]
    for (k, i, j), p in gam.items():
        if k == i:
            _accumulate(trace, j, p)
        rows.setdefault((k, i), []).append((j, p))
    groups = {}
    for (k, i, l), p in gam.items():
        if i <= l and k in trace:  # T_k G^k_il at (i, l)
            groups.setdefault((i, l), []).append((1, trace[k], p))
        for j, q in rows.get((l, k), ()):  # -G^k_il G^l_kj at (i, j)
            if i <= j:
                groups.setdefault((i, j), []).append((-1, p, q))
    out = _sum_grouped(groups)
    for (k, i, j), p in gam.items():
        if i <= j:
            _accumulate(out, (i, j), p.partials[k - 1])
    for j, t in trace.items():
        for i in range(1, j + 1):
            _accumulate(out, (i, j), -t.partials[i - 1])
    return SymTensor2(n, out)


def scalar_curvature(n: int) -> LaurentPoly:
    """r = g^ij R_ij; equals the constant -n(n-1) for the half-space; cached per n."""
    return _scalar_curvature(n)


@lru_cache(maxsize=None)
def _scalar_curvature(n: int) -> LaurentPoly:
    ric = ricci(n)
    _, ginv, _ = _metric_table(n)
    return _sum_products(n, [(1, h, ric.get(i, i)) for i, h in enumerate(ginv, 1)])


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

