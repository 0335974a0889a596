"""Exact Laurent-polynomial arithmetic over the rationals.

A polynomial in coordinates x1..xn is a sparse map, its ``terms``, from
exponent tuples of ``int`` to nonzero rational coefficients.  Negative
exponents are allowed in the *last* coordinate only: every denominator
arising from the half-space metric is a pure power of xn, and restricting
the Laurent direction to xn keeps normal forms canonical.  The zero
polynomial is the empty map.

    x1^2 * x3^-2   ->   {(2, 0, -2): Fraction(1)}        (n = 3)

Coefficients are rationals, never floats, so "is this identically zero" is
an exact, decidable question: two polynomials are equal iff their term maps
are equal.

Monomials are totally ordered graded-lexicographically (total degree first,
then the exponent tuple).  The order fixes printing and serialization, so a
polynomial's text form is reproducible byte for byte.  Coordinate indices in
the public API are 1-based, matching the x1..xn naming.

Shared kernel.  ``LaurentPoly``, ``exterior.VectorField``,
``exterior.KForm`` and ``halfspace.SymTensor2`` are sparse maps over a
shape (n, and for forms the grade).  All four inherit from ``SparseMap``
the validating copy of their public constructors; the three maps with
``LaurentPoly`` values also inherit ``+``, ``-``, negation, coefficient
scaling, ``==``, hashing and the zero test, which ``LaurentPoly`` does
on its stored form instead (below).  A map adds only to a map of its own
type and shape: a number is never promoted to a constant polynomial, so
``p + 1`` raises ``TypeError``, and adding maps of different shapes
raises ``DimensionMismatch``.  Scaling takes an ``int`` or a ``Fraction``
(and, for the maps with ``LaurentPoly`` values, a polynomial of the same
n); a power is a product, or ``LaurentPoly.monomial``.

Stored form.  A ``LaurentPoly`` keeps one denominator ``den`` and a map
``nums`` from packed monomial keys to nonzero ``int`` numerators (the
coefficient of the monomial of ``key`` is ``nums[key] / den``), in normal
form: ``den > 0``, ``gcd(den, *nums.values()) == 1``, and zero is
``den = 1``, ``nums = {}``.  The form is canonical, so ``==`` and hashing
compare it directly, and ``+``, negation, scaling and ``deriv`` are
integer loops with one ``gcd`` per result.

A key is one ``int`` holding the n exponents in fixed-width fields of
``_WIDTH`` = 16 bits, x1 in the highest field.  Each field holds the
exponent plus the bias 2^15, so the key of x^0 is ``zero`` (every field at
the bias; ``_layout(n)``), the key of a product is ``ka + kb - zero``, and
the derivative in x_i lowers the key by ``1 << 16(n-i)``.  Every stored
exponent lies in ``range(-EXP_LIMIT, EXP_LIMIT)``, EXP_LIMIT = 2^14, half
the range a field holds, so the sum of two never carries into the next
field.  An exponent outside that range raises ``ExponentOverflow``: in the
constructor, on each output key of the kernel below and on the keys of a
derivative in the last coordinate (the one that can fall).  The check is
one subtract and mask per key (``_overflow``), and nothing ever wraps.
Tuples are made only at the readers: the constructor packs them (its
``_check``; ``var`` packs its one key directly), and ``terms`` unpacks
them, together with the ``Fraction`` each coefficient needs.  ``terms`` is
also read as ``_terms`` by ``text`` and ``evaluate`` and by ``flows``,
which compiles each term into its RK4 step.  Of the inherited
``SparseMap`` methods only ``items`` reads it (terms in ascending
exponent-tuple order); ``LaurentPoly`` overrides every other one that
reads ``_terms``.  ``bench/tracer.py`` reads the alias for the peak term
count and coefficient height.  The span tracker of ``solitons`` reads
``nums`` and ``den`` directly.

Trusted construction.  Internal results of all four types are built with
``_like``, which wraps a clean term map as is in the shape of an existing
map; ``LaurentPoly._like(nums, den)`` also divides out the common factor
of the numerators and ``den``.  The map must already be clean: every key
passes the type's key check (for a ``LaurentPoly``, a packed key of
exponents in range), every value is nonzero (an ``int`` numerator, or a
``LaurentPoly`` of the same n), and nothing else holds a reference to the
dict.  The operations keep this invariant by construction (sums and
products of valid exponents stay valid or raise, ``deriv`` lowers only
nonzero exponents, wedge products sort their index tuples) and by
dropping the zero values that cancellation leaves, so trusted and
validated results are interchangeable: ``p == LaurentPoly(p.n, p.terms)``,
``f == KForm(f.n, f.grade, f.terms)`` and ``X == VectorField(X.components)``.

Products.  Every polynomial product is a sum of products, sum sign * a * b
over (sign, a, b) triples, and one private kernel, ``_sum_products``,
computes each of them exactly: ``p * q`` is its one-pair case, and the
wedge and interior products, the Lie bracket and the direct Lie
derivatives of a form and of the metric group their products by output
key and make one kernel call per output coefficient (``_sum_grouped``,
which reads the arity of each call from the group's first factor).  Its
invariants:

- each pair costs one ``int`` add for its key (``ka - zero`` is taken once
  per term of ``a``) and one multiply of numerators, accumulated into one
  dict over the lcm of the products' denominators ``a.den * b.den``;
- the sums that cancel to zero are dropped at the end, every surviving key
  passes the range check, and the result is reduced by one ``gcd``
  (``_like``); a term that cancels raises nothing;
- output keys are in first-occurrence order over the triples, and for a
  pair over the double loop (the terms of ``a`` outer, of ``b`` inner).
  ``flows`` evaluates a field's terms in ``terms`` order, so the key order
  of ``p * q`` is part of the byte contract of the trajectory CSV.  Every
  other operation keeps the key order of the same operation on a
  ``Fraction`` term map: a sum lists the left operand's keys, then the new
  keys of the right one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from struct import Struct
from typing import Iterator, Mapping, Sequence

from .errors import BoundaryPoint, DimensionMismatch, ExponentOverflow

Exponents = tuple  # tuple[int, ...], one entry per coordinate

_WIDTH = 16  # bits per packed exponent field; the readers unpack fields as ">h"
EXP_LIMIT = 1 << (_WIDTH - 2)  # every stored exponent lies in range(-EXP_LIMIT, EXP_LIMIT)


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """(zero, low, fields) of the packed keys in n coordinates (module docstring).

    ``zero`` is the key of x^0 (every field at the bias 2^(_WIDTH-1)), ``low``
    the key with every exponent at -EXP_LIMIT, and ``fields`` the ``Struct``
    that packs and unpacks the exponents as signed big-endian fields.
    """
    ones = int.from_bytes(b"\x00\x01" * n, "big")
    return ones << (_WIDTH - 1), ones << (_WIDTH - 2), Struct(f">{n}h")


def _overflow(n: int, keys) -> None:
    """Raise ExponentOverflow unless every packed key holds exponents in range."""
    zero, low, fields = _layout(n)
    for key in keys:
        if (key - low) & zero:  # a field outside [0, 2 EXP_LIMIT) sets its top bit
            exps = fields.unpack((key ^ zero).to_bytes(2 * n, "big"))  # no field wrapped
            raise ExponentOverflow(f"exponent tuple {exps} leaves range({-EXP_LIMIT}, {EXP_LIMIT})")


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

    Subclasses keep their term map in ``_terms`` and supply
    ``_check(key, value)``, which validates one term and returns it
    normalised, and ``text``; a subclass with more shape than n also
    overrides ``__init__``, ``_like`` and ``_shape``.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        self._terms = self._validated(terms)

    def _validated(self, terms) -> dict:
        """Check a term mapping into a clean dict; each ``_check`` is injective, so none merge."""
        clean: dict = {}
        for key, value in (terms or {}).items():
            key, value = self._check(key, value)
            if value:
                clean[key] = value
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

    def _coerce(self, other):
        """``other`` when it is a map of this type and shape, else None; raises on a shape mismatch."""
        if type(other) is not type(self):
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
        return not self

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
            _accumulate(out, key, value)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -value for key, value in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def _scale(self, scale):
        """Every coefficient times a scalar; without zero divisors, no new zero appears."""
        if not scale:
            return self._like({})
        return self._like({key: value * scale for key, value in self._terms.items()})

    __mul__ = __rmul__ = _scale

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.text()!r})"


class LaurentPoly(SparseMap):
    """Multivariate polynomial, Laurent in the last coordinate.

    Stored as ``int`` numerators ``nums`` over one denominator ``den``, in
    normal form (module docstring).
    """

    __slots__ = ("den", "nums")

    def __init__(self, n: int, terms: Mapping[Exponents, object] | None = None):
        if n < 1:
            raise ValueError(f"need at least one coordinate, got n={n}")
        self.n = n
        clean = self._validated(terms)
        self.den = den = lcm(*[c.denominator for c in clean.values()])
        self.nums = {exps: c.numerator * (den // c.denominator) for exps, c in clean.items()}

    def _like(self, nums: dict, den: int = 1) -> "LaurentPoly":
        """Clean numerators over den > 0, in this n, divided by their common factor."""
        if den != 1:
            common = gcd(den, *nums.values())
            if common != 1:
                nums = {exps: num // common for exps, num in nums.items()}
                den //= common
        out = object.__new__(LaurentPoly)
        out.n, out.den, out.nums = self.n, den, nums
        return out

    @property
    def terms(self) -> dict:
        """The terms as a fresh ``{exps: Fraction}`` dict, keys unpacked to tuples."""
        zero, _, fields = _layout(self.n)
        size, den = 2 * self.n, self.den
        return {
            fields.unpack((key ^ zero).to_bytes(size, "big")): Fraction(num, den)
            for key, num in self.nums.items()
        }

    _terms = terms  # read by SparseMap.items, text, evaluate, flows and bench/tracer.py

    def _check(self, exps, coeff) -> tuple:
        if not isinstance(exps, tuple):
            raise ValueError(f"exponent key {exps!r} is not a tuple")
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError(f"exponent tuple {exps} has arity {len(exps)}, expected {self.n}")
        if set(map(type, exps)) - {int}:
            raise ValueError(f"non-integer exponent in {exps}")
        if min(exps[:-1], default=0) < 0:
            raise ValueError(f"negative exponent outside the last coordinate: {exps}")
        if not (-EXP_LIMIT <= min(exps) and max(exps) < EXP_LIMIT):
            raise ExponentOverflow(f"exponent tuple {exps} leaves range({-EXP_LIMIT}, {EXP_LIMIT})")
        zero, _, fields = _layout(self.n)
        return int.from_bytes(fields.pack(*exps), "big") ^ zero, Fraction(coeff)

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
        return cls.zero(n)._like({_layout(n)[0] + (1 << _WIDTH * (n - i)): 1})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int]) -> "LaurentPoly":
        """The monomial x^exps with coefficient 1; scale it for another coefficient."""
        return cls(n, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not LaurentPoly:
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.n, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)  # both sides as numerators over den
        scale, other_scale = den // self.den, den // other.den
        out = {exps: num * scale for exps, num in self.nums.items()}
        get = out.get
        for exps, num in other.nums.items():
            total = get(exps, 0) + num * other_scale
            if total:
                out[exps] = total
            else:
                del out[exps]
        return self._like(out, den)

    __radd__ = __add__  # no other type adds to a polynomial; the name stays for bench/tracer.py

    def __neg__(self) -> "LaurentPoly":
        return self._like({exps: -num for exps, num in self.nums.items()}, self.den)

    def _scale(self, scale) -> "LaurentPoly":
        """Every coefficient times an int or a Fraction."""
        factor = scale.numerator
        scaled = {exps: num * factor for exps, num in self.nums.items()} if factor else {}
        return self._like(scaled, self.den * scale.denominator)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_products(self.n, ((1, self, other),))

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def deriv(self, i: int) -> "LaurentPoly":
        """Partial derivative with respect to x_i (1-based).

        Exponent rule e -> e-1 with coefficient scaled by e; for the last
        coordinate negative exponents follow the same rule.
        """
        n = self.n
        if not 1 <= i <= n:
            raise ValueError(f"coordinate index {i} outside 1..{n}")
        shift = _WIDTH * (n - i)
        step, mask, bias = 1 << shift, (1 << _WIDTH) - 1, 1 << (_WIDTH - 1)
        # key -> key - step is injective on terms with e != 0, so no two terms merge
        out: dict[int, int] = {}
        for key, num in self.nums.items():
            e = (key >> shift & mask) - bias
            if e:
                out[key - step] = num * e
        if i == n:  # only the last exponent can be negative, and fall below the range
            _overflow(n, out)
        return self._like(out, self.den)

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


def _sum_products(n: int, products) -> LaurentPoly:
    """The sum of sign * a * b over (sign, a, b) triples, exactly (module docstring)."""
    scaled = []
    den = 1
    for sign, a, b in products:
        if a.nums and b.nums:
            scaled.append((sign, a.den * b.den, a.nums.items(), b.nums.items()))
            den = lcm(den, a.den * b.den)
    zero = _layout(n)[0]
    acc: dict[int, int] = {}
    get = acc.get
    for sign, d, ta, tb in scaled:
        factor = sign * (den // d)
        for ka, na in ta:
            ka -= zero  # the key of x^ea * x^eb is ka + kb - zero
            na *= factor
            for kb, nb in tb:
                key = ka + kb
                acc[key] = get(key, 0) + na * nb
    nums = {key: num for key, num in acc.items() if num}
    _overflow(n, nums)
    return LaurentPoly.zero(n)._like(nums, den)


def _sum_grouped(groups: dict) -> dict:
    """{key: sum of products} over groups, keeping the nonzero sums.

    Every group is nonempty, so its arity is that of its first factor.
    """
    out = {}
    for key, products in groups.items():
        total = _sum_products(products[0][1].n, products)
        if total:
            out[key] = total
    return out


def parse_rational(s: str) -> Fraction:
    """Parse the wire format ``-?[0-9]+(/[1-9][0-9]*)?`` into a Fraction."""
    import re

    if not isinstance(s, str) or not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)
