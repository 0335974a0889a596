"""The exact sum-of-products kernel and the callers built on it.

``ratlaurent._sum_products`` computes sum sign * a * b over integer
numerators; the product-by-product ``Fraction`` loops it replaced are kept
in ``helpers`` and serve as the oracles here.  The callers are compared on
random fields that are not Killing and forms that are not dual forms, so
their results are nonzero.
"""

import math
import random
from fractions import Fraction

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
from rbkit import LaurentPoly, generator, interior, lie_bracket, wedge
from rbkit.exterior import _lie_derivative_direct
from rbkit.ratlaurent import _sum_products

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
    x = LaurentPoly.monomial(2, (1, -1), Fraction(-2, 3))
    y = LaurentPoly(2, {(0, 1): Fraction(3, 4), (1, 0): Fraction(-5, 2)})
    total = _sum_products(2, [(1, x, y), (-1, y, x), (1, x, x), (1, -x, x)])
    assert total.is_zero() and total.terms == {}
    # a key cancels in the sum while its neighbours survive
    partial = _sum_products(2, [(1, x, y), (-1, x, LaurentPoly.monomial(2, (0, 1), Fraction(3, 4)))])
    assert partial.terms == {(2, -1): Fraction(5, 3)}


def test_product_keeps_first_occurrence_order_with_a_cancelled_key():
    # (x1 - x2) * (x1 + x2): the x1*x2 key cancels in the middle of the loop
    x1, x2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    product = (x1 - x2) * (x1 + x2)
    assert list(product.terms) == [(2, 0), (0, 2)]
    assert product.terms == {(2, 0): 1, (0, 2): -1}


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
