"""Exact Laurent-polynomial arithmetic over the rationals.

A polynomial in coordinates x1..xn is stored sparsely as a map from exponent
tuples of ``int`` to nonzero rational coefficients.  Negative exponents are
allowed in the *last* coordinate only: every denominator arising from the
half-space metric is a pure power of xn, and restricting the Laurent
direction to xn keeps normal forms canonical.  The zero polynomial is the
empty map.

    x1^2 * x3^-2   ->   {(2, 0, -2): Fraction(1)}        (n = 3)

Coefficients are ``fractions.Fraction``, never floats, so "is this
identically zero" is an exact, decidable question: two polynomials are equal
iff their term maps are equal.

Monomials are totally ordered graded-lexicographically (total degree first,
then the exponent tuple).  The order fixes printing and serialization, so a
polynomial's text form is reproducible byte for byte.  Coordinate indices in
the public API are 1-based, matching the x1..xn naming.

Shared kernel.  ``LaurentPoly``, ``exterior.VectorField``,
``exterior.KForm`` and ``halfspace.SymTensor2`` are sparse maps over a
shape (n, and for forms the grade) and inherit from ``SparseMap`` the
validating merge of their public constructors, ``+``, ``-``, negation,
coefficient scaling, ``==``, hashing and the zero test.  Adding maps of
different shapes raises ``DimensionMismatch``.

Trusted construction.  Internal results of all four types are built with
``SparseMap._like``, which wraps a term map as is in the shape of an
existing map (the product kernel below wraps its sums the same way).  That
map must already be clean: every key passes the type's key check, every
value is nonzero (a ``Fraction``, or a ``LaurentPoly`` of the same n), and
nothing else holds a reference to the dict.  The
operations keep this invariant by construction (sums and products of valid
exponents stay valid, ``deriv`` lowers only nonzero exponents, wedge
products sort their index tuples) and by dropping the zero coefficients
that cancellation leaves, so trusted and validated results are
interchangeable: ``p == LaurentPoly(p.n, p.terms)``,
``f == KForm(f.n, f.grade, f.terms)`` and ``X == VectorField(X.components)``.

Products.  Every polynomial product is a sum of products, sum sign * a * b
over (sign, a, b) triples, and one private kernel, ``_sum_products``,
computes each of them exactly: ``p * q`` is its one-pair case, and the
wedge and interior products, the Lie bracket and the direct Lie
derivatives of a form and of the metric group their products by output
key and make one kernel call per output coefficient (``_sum_grouped``).
Its invariants:

- each factor's coefficients are scaled to integer numerators over the lcm
  of that factor's denominators, and the products are multiplied and
  accumulated as Python ints into one dict over a common denominator;
- each output term is normalised once, as one ``Fraction(num, den)``, and
  the terms whose sum cancels to zero are dropped at the end;
- output keys are in first-occurrence order over the triples, and for a
  pair over the double loop (the terms of ``a`` outer, of ``b`` inner).
  ``flows`` evaluates a field's terms in ``terms`` order, so the key order
  of ``p * q`` is part of the byte contract of the trajectory CSV.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Iterator, Mapping, Sequence

from .errors import BoundaryPoint, DimensionMismatch

# Arbitrary-precision p/q with gcd(p, q) = 1, q > 0, zero canonically 0/1.
Rational = Fraction

Exponents = tuple  # tuple[int, ...], one entry per coordinate


def grlex_key(exps: Exponents) -> tuple:
    """Sort key for graded-lexicographic monomial order."""
    return (sum(exps), exps)


def _accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum cancels."""
    prev = out.get(key)
    if prev is None:
        out[key] = value
    else:
        total = prev + value
        if total:
            out[key] = total
        else:
            del out[key]


class SparseMap:
    """Sparse map from keys to nonzero coefficients, in a fixed shape.

    Subclasses supply ``_check(key, value)``, which validates one term and
    returns it normalised, and ``text``; a subclass with more shape than n
    also overrides ``__init__``, ``_like`` and ``_shape``.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self._terms = self._validated(terms)

    def _validated(self, terms) -> dict:
        """Check and merge a term mapping into a clean dict."""
        clean: dict = {}
        for key, value in (terms or {}).items():
            key, value = self._check(key, value)
            if value:
                _accumulate(clean, key, value)
        return clean

    def _like(self, terms: dict):
        """A map of this shape wrapping a clean term map (module docstring)."""
        out = object.__new__(type(self))
        out.n = self.n
        out._terms = terms
        return out

    def _shape(self):
        """What two maps must share to be added or compared."""
        return self.n

    def _promote(self, other):
        """A non-map operand as a map of this shape, or None."""
        return None

    def _coerce(self, other):
        if type(other) is not type(self):
            other = self._promote(other)
            if other is None:
                return None
        if other._shape() != self._shape():
            raise DimensionMismatch(
                f"{type(self).__name__} operands of shapes {self._shape()} and {other._shape()}"
            )
        return other

    def items(self) -> Iterator:
        """Terms in ascending key order."""
        return iter(sorted(self._terms.items()))

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._shape(), frozenset(self._terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, value in other._terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = value
            else:
                total = prev + value
                if total:
                    out[key] = total
                else:
                    del out[key]
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -value for key, value in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _scale(self, scale):
        """Every coefficient times a scalar; without zero divisors, no new zero appears."""
        if not scale:
            return self._like({})
        return self._like({key: value * scale for key, value in self._terms.items()})

    __mul__ = __rmul__ = _scale

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.text()!r})"


class LaurentPoly(SparseMap):
    """Multivariate polynomial, Laurent in the last coordinate."""

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Exponents, object] | None = None):
        if n < 1:
            raise ValueError(f"need at least one coordinate, got n={n}")
        super().__init__(n, terms)

    def _check(self, exps, coeff) -> tuple:
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError(f"exponent tuple {exps} has arity {len(exps)}, expected {self.n}")
        if any(type(e) is not int for e in exps):
            raise ValueError(f"non-integer exponent in {exps}")
        if any(e < 0 for e in exps[:-1]):
            raise ValueError(f"negative exponent outside the last coordinate: {exps}")
        return exps, Fraction(coeff)

    # -- constructors ------------------------------------------------------

    @classmethod
    @lru_cache(maxsize=None)  # one shared zero polynomial per n
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> "LaurentPoly":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def var(cls, n: int, i: int) -> "LaurentPoly":
        """The coordinate polynomial x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"coordinate index {i} outside 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(n, {tuple(exps): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in ascending graded-lex order."""
        return iter(sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0])))

    # -- ring operations ---------------------------------------------------

    def _promote(self, other) -> "LaurentPoly | None":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.n, other)
        return None

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self._scale(Fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_products(self.n, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers: build the monomial directly")
        out = LaurentPoly.const(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def deriv(self, i: int) -> "LaurentPoly":
        """Partial derivative with respect to x_i (1-based).

        Exponent rule e -> e-1 with coefficient scaled by e; for the last
        coordinate negative exponents follow the same rule.
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate index {i} outside 1..{self.n}")
        # exps -> dexps is injective on terms with e != 0, so no two terms merge
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            e = exps[i - 1]
            if e:
                out[exps[: i - 1] + (e - 1,) + exps[i:]] = coeff * e
        return self._like(out)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact substitution at a rational point with point[n] != 0."""
        if len(point) != self.n:
            raise ValueError(f"point has arity {len(point)}, expected {self.n}")
        pt = [Fraction(x) for x in point]
        if pt[-1] == 0:
            raise BoundaryPoint("last coordinate is 0: metric singular on the boundary")
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            value = coeff
            for x, e in zip(pt, exps):
                if e:
                    value *= x**e
            total += value
        return total

    # -- printing ----------------------------------------------------------

    def text(self) -> str:
        """Canonical text form: descending graded-lex, rationals as p/q."""
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
            vars_part = "*".join(
                f"x{i + 1}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exps)
                if e != 0
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.text()


def _integral(p: LaurentPoly) -> tuple:
    """(d, [(exps, c * d), ...]) for d the lcm of p's denominators: integer numerators."""
    den = lcm(*[c.denominator for c in p._terms.values()])
    return den, [(exps, c.numerator * (den // c.denominator)) for exps, c in p._terms.items()]


def _sum_products(n: int, products) -> LaurentPoly:
    """The sum of sign * a * b over (sign, a, b) triples, exactly (module docstring)."""
    scaled = []
    den = 1
    for sign, a, b in products:
        if a._terms and b._terms:
            da, ta = _integral(a)
            db, tb = _integral(b)
            scaled.append((sign, da * db, ta, tb))
            den = lcm(den, da * db)
    acc: dict[Exponents, int] = {}
    get = acc.get
    for sign, d, ta, tb in scaled:
        factor = sign * (den // d)
        for ea, na in ta:
            na *= factor
            for eb, nb in tb:
                exps = tuple(map(add, ea, eb))
                acc[exps] = get(exps, 0) + na * nb
    out = object.__new__(LaurentPoly)
    out.n = n
    out._terms = {exps: Fraction(num, den) for exps, num in acc.items() if num}
    return out


def _sum_grouped(n: int, groups: dict) -> dict:
    """{key: _sum_products(n, products)} over groups, keeping the nonzero sums."""
    out = {}
    for key, products in groups.items():
        total = _sum_products(n, products)
        if total._terms:
            out[key] = total
    return out


def parse_rational(s: str) -> Fraction:
    """Parse the wire format ``-?[0-9]+(/[1-9][0-9]*)?`` into a Fraction."""
    import re

    if not isinstance(s, str) or not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)
