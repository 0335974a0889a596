"""Exact polynomial ring: representation, calculus, ring axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_poly
from rbkit import BoundaryPoint, LaurentPoly
from rbkit.ratlaurent import parse_rational


def P(n, terms):
    return LaurentPoly(n, terms)


def test_zero_is_empty_map():
    zero = LaurentPoly.zero(3)
    assert zero.is_zero()
    assert zero.terms == {}
    assert not zero


def test_construction_drops_zero_coefficients():
    p = P(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_negative_exponent_rejected_outside_last_coordinate():
    with pytest.raises(ValueError):
        P(3, {(-1, 0, 0): 1})
    # last coordinate may be Laurent
    P(3, {(0, 0, -5): 1})


def test_cancellation_normalizes_to_zero():
    x = LaurentPoly.var(2, 1)
    assert (x - x).is_zero()


def test_deriv_power_rule():
    x = LaurentPoly.var(2, 1)
    assert (x * x).deriv(1) == 2 * x


def test_deriv_laurent_power_rule():
    # c * xn^-2 -> -2c * xn^-3
    c = Fraction(3, 7)
    p = LaurentPoly.monomial(3, (0, 0, -2), c)
    assert p.deriv(3) == LaurentPoly.monomial(3, (0, 0, -3), -2 * c)


def test_deriv_kills_constant_terms():
    p = LaurentPoly.const(2, Fraction(5, 3))
    assert p.deriv(1).is_zero()
    assert p.deriv(2).is_zero()


@pytest.mark.parametrize("a,b,c", [(1, 0, 0), (Fraction(3, 2), -2, Fraction(1, 5))])
def test_deriv_of_quadratic_family_component(a, b, c):
    # p = a/2 (x^2 - y^2) + b x + c, d/dy p = -a y
    x, y = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    p = Fraction(a, 2) * (x * x - y * y) + b * x + LaurentPoly.const(2, c)
    assert p.deriv(2) == -a * y


def test_evaluate_inverse_power():
    p = LaurentPoly.monomial(2, (0, -1))
    assert p.evaluate((7, 2)) == Fraction(1, 2)


def test_evaluate_zero_polynomial():
    assert LaurentPoly.zero(2).evaluate((3, 1)) == 0


def test_evaluate_quadratic_sum():
    # a x^2 + a y^2 + 2bx + 2c with a=1, b=c=0 at (1,1) -> 2 (direct substitution)
    x, y = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    p = x * x + y * y
    assert p.evaluate((1, 1)) == 2


def test_evaluate_rejects_boundary():
    p = LaurentPoly.var(2, 1)
    with pytest.raises(BoundaryPoint):
        p.evaluate((1, 0))


def test_is_zero_detects_tiny_nonzero():
    p = LaurentPoly.monomial(3, (0, 0, -3), Fraction(1, 10**12))
    assert not p.is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240501)
    for _ in range(1000):
        n = rng.randint(1, 4)
        p = rand_poly(rng, n)
        q = rand_poly(rng, n)
        r = rand_poly(rng, n)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p


def test_deriv_commutes():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 5)
        p = rand_poly(rng, n)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        assert p.deriv(i).deriv(j) == p.deriv(j).deriv(i)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 4)
        p = rand_poly(rng, n)
        q = rand_poly(rng, n)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        while pt[-1] == 0:
            pt[-1] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_canonical_text_form():
    p = P(3, {(2, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2), (1, 0, -2): 1})
    assert p.text() == "1/2*x1^2 - 1/2*x2^2 + x1*x3^-2"
    assert LaurentPoly.zero(2).text() == "0"
    assert LaurentPoly.const(2, -3).text() == "-3"
    assert (2 * LaurentPoly.var(2, 1)).text() == "2*x1"


def test_text_is_deterministic_under_term_insertion_order():
    a = P(2, {(1, 0): 1, (0, 1): 2})
    b = P(2, {(0, 1): 2, (1, 0): 1})
    assert a.text() == b.text()
    assert a == b
    assert hash(a) == hash(b)


def test_equality_is_exact():
    p = P(2, {(1, 0): Fraction(1, 3)})
    q = P(2, {(1, 0): Fraction(33333333, 100000000)})
    assert p != q


def test_pow():
    x = LaurentPoly.var(2, 1)
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x**0) == LaurentPoly.const(2, 1)
    with pytest.raises(ValueError):
        x**-1


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    for bad in ("1.5", "1/0", "1/-2", "", "x", "1/02"):
        with pytest.raises(ValueError):
            parse_rational(bad)


_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _polys(draw, n):
    exps = st.tuples(*[st.integers(0, 3)] * (n - 1), st.integers(-3, 3))
    return LaurentPoly(n, draw(st.dictionaries(exps, _coeffs, max_size=4)))


@st.composite
def _operands(draw):
    n = draw(st.integers(1, 3))
    return draw(_polys(n)), draw(_polys(n)), draw(_coeffs | st.integers(-3, 3)), draw(st.integers(1, n))


def _assert_clean(p):
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert p == LaurentPoly(p.n, p.terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_operands())
def test_operation_results_are_clean(operands):
    p, q, scale, i = operands
    n = p.n
    results = [p + q, p - q, q - q, -p, p * scale, scale * p, p * 0, p * q, p ** 3, p.deriv(i), (p - p).deriv(i)]
    for result in results:
        _assert_clean(result)
    # the same results through the validating constructor alone
    sums = {}
    for poly, sign in ((p, 1), (q, -1)):
        for exps, coeff in poly.terms.items():
            sums[exps] = sums.get(exps, 0) + sign * coeff
    assert p - q == LaurentPoly(n, sums)
    prods = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            prods[exps] = prods.get(exps, 0) + ca * cb
    assert p * q == LaurentPoly(n, prods)
    assert (q - q).is_zero() and (p * 0).is_zero() and (p - p).deriv(i).is_zero()
