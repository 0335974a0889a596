"""The exact sum-of-products kernel and the callers built on it.

``ratlaurent._sum_products`` computes sum sign * a * b over integer
numerators; the product-by-product ``Fraction`` loops it replaced are kept
in ``helpers`` and serve as the oracles here.  The callers are compared on
random fields that are not Killing and forms that are not dual forms, so
their results are nonzero.
"""

import contextlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    interior_oracle,
    lie_bracket_oracle,
    lie_derivative_direct_oracle,
    mul_oracle,
    rand_field,
    rand_kform,
    sum_products_oracle,
    wedge_oracle,
)
from rbkit import ExponentOverflow, LaurentPoly, generator, interior, lie_bracket, wedge
from rbkit.exterior import _lie_derivative_direct
from rbkit.ratlaurent import EXP_LIMIT, _sum_products

# negative numerators and denominators above 1, never zero
_coeffs = st.builds(
    lambda num, den, neg: Fraction(-num if neg else num, den),
    st.integers(1, 12),
    st.sampled_from([1, 2, 3, 4, 6, 9]),
    st.booleans(),
)


@st.composite
def _polys(draw, n, max_size=4):
    # few exponents, so products collide and sums cancel
    exps = st.tuples(*[st.integers(0, 2)] * (n - 1), st.integers(-2, 2))
    return LaurentPoly(n, draw(st.dictionaries(exps, _coeffs, max_size=max_size)))


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 3))
    # zero, one-term and wider factors
    return draw(_polys(n, draw(st.sampled_from([0, 1, 4])))), draw(_polys(n))


@st.composite
def _triples(draw):
    n = draw(st.integers(1, 3))
    triples = draw(st.lists(st.tuples(st.sampled_from([1, -1]), _polys(n), _polys(n)), max_size=5))
    # a product and its negation, so that whole sums cancel
    if triples and draw(st.booleans()):
        sign, a, b = draw(st.sampled_from(triples))
        triples.append((-sign, a, b) if draw(st.booleans()) else (sign, -a, b))
    return n, triples


def _assert_normalised(p):
    for c in p.terms.values():
        assert type(c) is Fraction and c
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
    assert all(type(key) is int for key in p.nums)  # packed monomial keys
    assert LaurentPoly(p.n, p.terms) == p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pairs())
def test_product_matches_fraction_loop_in_value_and_key_order(pair):
    p, q = pair
    product, oracle = p * q, mul_oracle(p, q)
    assert product == oracle
    assert list(product.terms) == list(oracle.terms)
    _assert_normalised(product)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_triples())
def test_sum_of_products_matches_fraction_loop(case):
    n, triples = case
    total = _sum_products(n, triples)
    assert total == sum_products_oracle(n, triples)
    _assert_normalised(total)


def test_cancelling_sum_is_the_zero_polynomial():
    x = Fraction(-2, 3) * LaurentPoly.monomial(2, (1, -1))
    y = LaurentPoly(2, {(0, 1): Fraction(3, 4), (1, 0): Fraction(-5, 2)})
    total = _sum_products(2, [(1, x, y), (-1, y, x), (1, x, x), (1, -x, x)])
    assert total.is_zero() and total.terms == {}
    # a key cancels in the sum while its neighbours survive
    partial = _sum_products(2, [(1, x, y), (-1, x, Fraction(3, 4) * LaurentPoly.monomial(2, (0, 1)))])
    assert partial.terms == {(2, -1): Fraction(5, 3)}


def test_product_keeps_first_occurrence_order_with_a_cancelled_key():
    # (x1 - x2) * (x1 + x2): the x1*x2 key cancels in the middle of the loop
    x1, x2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    product = (x1 - x2) * (x1 + x2)
    assert list(product.terms) == [(2, 0), (0, 2)]
    assert product.terms == {(2, 0): 1, (0, 2): -1}


# -- packed monomial keys: exponents at the edge of range(-EXP_LIMIT, EXP_LIMIT)

_L = EXP_LIMIT


@st.composite
def _edge_polys(draw, n):
    # small exponents and exponents within two of the limit; only the last
    # slot is negative.  Sums of two edge exponents leave the range.
    head = st.integers(0, 2) | st.sampled_from([_L - 2, _L - 1])
    last = st.integers(-2, 2) | st.sampled_from([-_L, -(_L - 1), -(_L - 2), _L - 2, _L - 1])
    exps = st.tuples(*[head] * (n - 1), last)
    return LaurentPoly(n, draw(st.dictionaries(exps, _coeffs, max_size=3)))


@st.composite
def _edge_triples(draw):
    n = draw(st.integers(1, 3))
    triples = draw(st.lists(st.tuples(st.sampled_from([1, -1]), _edge_polys(n), _edge_polys(n)), max_size=3))
    return n, triples


def _in_range(exps) -> bool:
    return all(-_L <= e < _L for e in exps)


def _products_reference(n, triples) -> dict:
    """sum sign * a * b as a Fraction map in the kernel's key order, with no range check."""
    acc = {}
    for sign, a, b in triples:
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc[exps] = acc.get(exps, 0) + sign * ca * cb
    return {exps: c for exps, c in acc.items() if c}


def _assert_matches(compute, reference):
    """compute() equals reference in value and key order, or raises when a term leaves the range.

    Returns the result, or None when it raised.
    """
    if not all(map(_in_range, reference)):
        with pytest.raises(ExponentOverflow):
            compute()
        return None
    result = compute()
    assert list(result.terms.items()) == list(reference.items())
    _assert_normalised(result)
    return result


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_edge_triples(), st.integers(1, 3))
def test_packed_kernel_matches_fraction_loops_at_the_exponent_limit(case, i):
    n, triples = case
    i = min(i, n)
    for _, a, b in triples:
        product = _assert_matches(lambda: a * b, _products_reference(n, [(1, a, b)]))
        with contextlib.suppress(ExponentOverflow):  # the oracle checks cancelled keys too
            assert product == mul_oracle(a, b)
        derivative = {e[: i - 1] + (e[i - 1] - 1,) + e[i:]: c * e[i - 1] for e, c in a.terms.items() if e[i - 1]}
        _assert_matches(lambda: a.deriv(i), derivative)
    total = _assert_matches(lambda: _sum_products(n, triples), _products_reference(n, triples))
    # the oracle adds one product at a time, so a product term that cancels
    # in the sum can still raise in it
    with contextlib.suppress(ExponentOverflow):
        assert total == sum_products_oracle(n, triples)


def test_exponent_past_the_limit_raises_at_construction():
    for exps in [(_L, 0), (0, _L), (0, -_L - 1), (2 * _L, 0), (0, -(2**40))]:
        with pytest.raises(ExponentOverflow, match="leaves range"):
            LaurentPoly(2, {exps: 1})
    assert issubclass(ExponentOverflow, ValueError)
    edge = LaurentPoly(2, {(_L - 1, -_L): 1, (0, _L - 1): 2})
    assert edge.terms == {(_L - 1, -_L): 1, (0, _L - 1): 2}


def test_product_past_the_limit_raises():
    x1, x2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    top = LaurentPoly.monomial(2, (_L - 1, 0))
    bottom = LaurentPoly.monomial(2, (0, -_L))
    inv = LaurentPoly.monomial(2, (0, -1))
    for overflow in (lambda: top * x1, lambda: bottom * inv, lambda: x2 * top * x1, lambda: bottom.deriv(2),
                     lambda: top * top, lambda: bottom * bottom,
                     lambda: _sum_products(2, [(1, x2, x2), (-1, top, x1)])):
        with pytest.raises(ExponentOverflow):
            overflow()
    # a term that cancels is no term of the result
    assert _sum_products(2, [(1, top, x1), (-1, x1, top)]).is_zero()


def test_product_exactly_at_the_limit_is_kept():
    x1 = LaurentPoly.var(2, 1)
    top = 3 * LaurentPoly.monomial(2, (_L - 2, 0)) * x1
    assert top.terms == {(_L - 1, 0): 3}
    bottom = LaurentPoly.monomial(2, (0, -(_L - 1))) * (Fraction(1, 2) * LaurentPoly.monomial(2, (0, -1)))
    assert bottom.terms == {(0, -_L): Fraction(1, 2)}
    assert LaurentPoly.monomial(2, (0, 1 - _L)).deriv(2).terms == {(0, -_L): 1 - _L}
    assert (top * bottom).terms == {(_L - 1, -_L): Fraction(3, 2)}
    for p in (top, bottom, top * bottom):
        _assert_normalised(p)


def _nonzero_share(results):
    return sum(1 for r in results if r) / len(results)


def test_interior_and_wedge_match_fraction_loops():
    rng = random.Random(41)
    interiors, wedges = [], []
    for _ in range(40):
        n = rng.randint(2, 5)
        X = rand_field(rng, n, terms=3, laurent=True)
        k = rng.randint(1, n - 1)
        alpha, beta = rand_kform(rng, n, k, terms=n), rand_kform(rng, n, rng.randint(1, n - k), terms=n)
        inner = interior(X, alpha)
        assert inner == interior_oracle(X, alpha)
        product = wedge(alpha, beta)
        assert product == wedge_oracle(alpha, beta)
        interiors.append(inner)
        wedges.append(product)
    assert _nonzero_share(interiors) > 0.8 and _nonzero_share(wedges) > 0.8


def test_direct_lie_derivative_matches_fraction_loop():
    # the metric's counterpart is test_halfspace's generic-formula test
    rng = random.Random(43)
    forms = []
    for _ in range(30):
        n = rng.randint(2, 5)
        X = rand_field(rng, n, terms=3, laurent=True)
        omega = rand_kform(rng, n, 1, terms=n)
        direct = _lie_derivative_direct(X, omega)
        assert direct == lie_derivative_direct_oracle(X, omega)
        forms.append(direct)
    assert _nonzero_share(forms) > 0.8


def test_lie_bracket_matches_fraction_loop():
    rng = random.Random(47)
    brackets = []
    for _ in range(30):
        n = rng.randint(2, 5)
        A = rand_field(rng, n, terms=3, laurent=True)
        B = rand_field(rng, n, terms=3, laurent=True)
        bracket = lie_bracket(A, B)
        assert bracket == lie_bracket_oracle(A, B)
        brackets.append(bracket)
    assert _nonzero_share([not b.is_zero() for b in brackets]) > 0.8
    # and on the generators, whose brackets the algebra command prints
    names = ["T1", "T2", "D", "G1", "G2"]
    for a in names:
        for b in names:
            A, B = generator(a, 3), generator(b, 3)
            assert lie_bracket(A, B) == lie_bracket_oracle(A, B)
