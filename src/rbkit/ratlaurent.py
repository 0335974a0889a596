"""Exact Laurent-polynomial arithmetic over the rationals.

A polynomial in coordinates x1..xn is stored sparsely as a map from exponent
tuples to nonzero rational coefficients.  Negative exponents are allowed in
the *last* coordinate only: every denominator arising from the half-space
metric is a pure power of xn, and restricting the Laurent direction to xn
keeps normal forms canonical.  The zero polynomial is the empty map.

    x1^2 * x3^-2   ->   {(2, 0, -2): Fraction(1)}        (n = 3)

Coefficients are ``fractions.Fraction``, never floats, so "is this
identically zero" is an exact, decidable question: two polynomials are equal
iff their term maps are equal.

Monomials are totally ordered graded-lexicographically (total degree first,
then the exponent tuple).  The order fixes printing and serialization, so a
polynomial's text form is reproducible byte for byte.  Coordinate indices in
the public API are 1-based, matching the x1..xn naming.

Trusted construction.  The public constructor ``LaurentPoly(n, terms)``
validates and normalises whatever it is given.  The ring operations and
``deriv`` instead build their results with ``LaurentPoly._trusted``, which
wraps a term map as is.  That map must already be clean: every key is a
tuple of n ints, only the last entry may be negative, every value is a
nonzero ``Fraction``, and nothing else holds a reference to the dict.  The
operations keep this invariant by construction (sums and products of valid
exponents stay valid, ``deriv`` lowers only nonzero exponents) and by
dropping the zero coefficients that cancellation leaves, so trusted and
validated results are interchangeable: ``p == LaurentPoly(p.n, p.terms)``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterator, Mapping, Sequence

from .errors import BoundaryPoint

# Arbitrary-precision p/q with gcd(p, q) = 1, q > 0, zero canonically 0/1.
Rational = Fraction

Exponents = tuple  # tuple[int, ...], one entry per coordinate


def grlex_key(exps: Exponents) -> tuple:
    """Sort key for graded-lexicographic monomial order."""
    return (sum(exps), exps)


class LaurentPoly:
    """Multivariate polynomial, Laurent in the last coordinate."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Exponents, object] | None = None):
        if n < 1:
            raise ValueError(f"need at least one coordinate, got n={n}")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} has arity {len(exps)}, expected {n}")
            if any(e < 0 for e in exps[:-1]):
                raise ValueError(f"negative exponent outside the last coordinate: {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "LaurentPoly":
        """Wrap a clean term map without checks or copies (module docstring)."""
        poly = object.__new__(cls)
        poly.n = n
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
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

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.n != self.n:
                raise ValueError(f"mixed arities {self.n} and {other.n}")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.n, other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            prev = out.get(exps)
            if prev is None:
                out[exps] = coeff
            else:
                total = prev + coeff
                if total:
                    out[exps] = total
                else:
                    del out[exps]
        return LaurentPoly._trusted(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly._trusted(self.n, {})
            scale = Fraction(other)
            return LaurentPoly._trusted(self.n, {e: c * scale for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        get = out.get
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(map(add, ea, eb))
                prev = get(exps)
                out[exps] = ca * cb if prev is None else prev + ca * cb
        return LaurentPoly._trusted(self.n, {e: c for e, c in out.items() if c})

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
        return LaurentPoly._trusted(self.n, out)

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

    def eval_float(self, point: Sequence[float]) -> float:
        """Floating-point substitution, used by the numeric flow integrator."""
        total = 0.0
        for exps, coeff in self._terms.items():
            value = float(coeff)
            for x, e in zip(point, exps):
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

    def __repr__(self) -> str:
        return f"LaurentPoly({self.n}, {self.text()!r})"


def parse_rational(s: str) -> Fraction:
    """Parse the wire format ``-?[0-9]+(/[1-9][0-9]*)?`` into a Fraction."""
    import re

    if not isinstance(s, str) or not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)
