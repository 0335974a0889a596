"""Exact polynomial ring: representation, calculus, ring axioms."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_poly
from rbkit import (
    BoundaryPoint,
    DimensionMismatch,
    KForm,
    LaurentPoly,
    SolitonParams,
    SymTensor2,
    VectorField,
    build_field,
    ext_d,
    interior,
    lie_bracket,
    lie_derivative_metric,
    wedge,
)
from rbkit.exterior import _lie_derivative_direct, _split_last
from rbkit.ratlaurent import parse_rational


def P(n, terms):
    return LaurentPoly(n, terms)


def test_zero_is_empty_map():
    zero = LaurentPoly.zero(3)
    assert zero.is_zero()
    assert zero.terms == {}
    assert not zero


def test_zero_is_one_shared_instance_per_n():
    assert LaurentPoly.zero(3) is LaurentPoly.zero(3)
    assert LaurentPoly.zero(3) != LaurentPoly.zero(4)
    assert LaurentPoly.zero(3) + LaurentPoly.var(3, 1) == LaurentPoly.var(3, 1)
    assert LaurentPoly.zero(3).is_zero()


def test_coordinate_is_the_validated_monomial():
    for n in (1, 2, 5):
        for i in range(1, n + 1):
            exps = tuple(int(j == i) for j in range(1, n + 1))
            x = LaurentPoly.var(n, i)
            assert x == LaurentPoly(n, {exps: 1}) and x.terms == {exps: 1}
            _assert_clean(x)
    for i in (0, 3):
        with pytest.raises(ValueError):
            LaurentPoly.var(2, i)


def test_construction_drops_zero_coefficients():
    p = P(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_shape_errors():
    with pytest.raises(ValueError, match="need at least one coordinate, got n=0"):
        LaurentPoly(0)
    with pytest.raises(ValueError, match=re.escape("exponent tuple (1, 0, 0) has arity 3, expected 2")):
        P(2, {(1, 0, 0): 1})
    x = LaurentPoly.var(2, 1)
    for i in (0, 3):
        with pytest.raises(ValueError, match=re.escape(f"coordinate index {i} outside 1..2")):
            x.deriv(i)
    with pytest.raises(ValueError, match="point has arity 1, expected 2"):
        x.evaluate((1,))


def test_negative_exponent_rejected_outside_last_coordinate():
    with pytest.raises(ValueError):
        P(3, {(-1, 0, 0): 1})
    # last coordinate may be Laurent
    P(3, {(0, 0, -5): 1})


def test_non_integer_exponent_rejected():
    # fractional powers would break the normal form and the exec'd RK4 step
    for exps in [(0.5, 1), (1.0, 0), (Fraction(1), 0), (True, 0), (0, -2.0)]:
        with pytest.raises(ValueError, match="non-integer exponent"):
            P(2, {exps: 1})
        with pytest.raises(ValueError, match="non-integer exponent"):
            LaurentPoly.monomial(2, exps)


def test_cancellation_normalizes_to_zero():
    x = LaurentPoly.var(2, 1)
    assert (x - x).is_zero()


def test_deriv_power_rule():
    x = LaurentPoly.var(2, 1)
    assert (x * x).deriv(1) == 2 * x


def test_deriv_laurent_power_rule():
    # c * xn^-2 -> -2c * xn^-3
    c = Fraction(3, 7)
    p = c * LaurentPoly.monomial(3, (0, 0, -2))
    assert p.deriv(3) == -2 * c * LaurentPoly.monomial(3, (0, 0, -3))


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
    p = Fraction(1, 10**12) * LaurentPoly.monomial(3, (0, 0, -3))
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


def test_partials_are_the_first_derivatives_built_once(monkeypatch):
    rng = random.Random(28)
    calls, deriv = [], LaurentPoly.deriv

    def counted(poly, i):
        calls.append(i)
        return deriv(poly, i)

    monkeypatch.setattr(LaurentPoly, "deriv", counted)
    for n in (1, 2, 3, 5):
        p = rand_poly(rng, n, laurent=True)
        calls.clear()
        partials = p.partials
        assert calls == list(range(1, n + 1))  # built through deriv, once per coordinate
        assert partials == tuple(deriv(p, i) for i in range(1, n + 1))
        assert p.partials is partials and len(calls) == n
        # the cache changes neither equality nor hashing
        copy = LaurentPoly(n, p.terms)
        assert copy == p and hash(copy) == hash(p)
        # results of operations are new polynomials that build their own
        for q in (p + p, -p, p * p, 3 * p, partials[-1]):
            assert q.partials == tuple(deriv(q, i) for i in range(1, n + 1))
        with pytest.raises(AttributeError):
            p.partials = partials


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
    assert str(p) == p.text()
    assert repr(p) == "LaurentPoly(3, '1/2*x1^2 - 1/2*x2^2 + x1*x3^-2')"


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


def test_numbers_are_not_promoted_to_polynomials():
    p = LaurentPoly.var(2, 1)
    for operation in (
        lambda: LaurentPoly.var(2, 1) + 1,
        lambda: 1 - p,
        lambda: p + Fraction(1, 2),
        lambda: p ** 2,
        lambda: VectorField.zero(2) + 1,
        lambda: SolitonParams(n=2, a=[1], b=0, c=[0], lam=1),
    ):
        with pytest.raises(TypeError):
            operation()
    assert 2 * p == LaurentPoly(2, {(1, 0): 2})
    assert p * Fraction(1, 2) == LaurentPoly(2, {(1, 0): Fraction(1, 2)})
    # == and - hand a non-map back to Python, which then compares unequal or raises
    for value in (p, VectorField.zero(2)):
        assert value.__eq__(1) is NotImplemented and value != 1
        assert value.__sub__(1) is NotImplemented
        with pytest.raises(TypeError):
            value - 1


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
    # the stored normal form: den > 0, gcd(den, numerators) = 1, zero is (1, {})
    assert type(p.den) is int and p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1
    assert all(type(key) is int and type(num) is int and num for key, num in p.nums.items())
    assert p.nums or p.den == 1
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert p == LaurentPoly(p.n, p.terms)


def _sum_reference(p, q, sign) -> dict:
    """p + sign * q over plain Fraction term maps: p's keys, then q's new keys."""
    out = p.terms
    for exps, coeff in q.terms.items():
        total = out.get(exps, 0) + sign * coeff
        if total:
            out[exps] = total
        else:
            del out[exps]
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_operands())
def test_operation_results_are_clean(operands):
    p, q, scale, i = operands
    n = p.n
    results = [p + q, p - q, q - q, -p, p * scale, scale * p, p * 0, p * q, p * p * p, p.deriv(i), (p - p).deriv(i)]
    for result in results:
        _assert_clean(result)
    # key order and values of a plain Fraction-dict reference; through
    # flows._terms the key order decides the bytes of a trajectory CSV
    references = [
        (p + q, _sum_reference(p, q, 1)),
        (p - q, _sum_reference(p, q, -1)),
        (-p, {exps: -coeff for exps, coeff in p.terms.items()}),
        (p * scale, {exps: coeff * scale for exps, coeff in p.terms.items() if scale}),
        (p.deriv(i), {e[: i - 1] + (e[i - 1] - 1,) + e[i:]: c * e[i - 1] for e, c in p.terms.items() if e[i - 1]}),
    ]
    for result, reference in references:
        assert list(result.terms.items()) == list(reference.items())
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


# -- the sparse-map kernel shared by LaurentPoly, VectorField, KForm and SymTensor2


@st.composite
def _forms(draw, n, grade):
    slots = st.lists(st.integers(1, n), min_size=grade, max_size=grade, unique=True).map(sorted).map(tuple)
    return KForm(n, grade, draw(st.dictionaries(slots, _polys(n), max_size=3)))


@st.composite
def _tensors(draw, n):
    keys = st.tuples(st.integers(1, n), st.integers(1, n)).map(sorted).map(tuple)
    return SymTensor2(n, draw(st.dictionaries(keys, _polys(n), max_size=3)))


@st.composite
def _form_operands(draw):
    n = draw(st.integers(1, 3))
    k, l = draw(st.integers(0, n)), draw(st.integers(0, n))
    field = VectorField([draw(_polys(n)) for _ in range(n)])
    scale = draw(_coeffs | st.integers(-3, 3) | _polys(n))
    return draw(_forms(n, k)), draw(_forms(n, k)), draw(_forms(n, l)), field, scale


@st.composite
def _tensor_operands(draw):
    n = draw(st.integers(2, 3))
    field = VectorField([draw(_polys(n)) for _ in range(n)])
    scale = draw(_coeffs | st.integers(-3, 3) | _polys(n))
    return draw(_tensors(n)), draw(_tensors(n)), field, scale


@st.composite
def _field_operands(draw):
    n = draw(st.integers(2, 3))
    fields = [VectorField([draw(_polys(n)) for _ in range(n)]) for _ in range(2)]
    scale = draw(_coeffs | st.integers(-3, 3) | _polys(n))
    a, c = (draw(st.lists(_coeffs | st.just(0), min_size=n - 1, max_size=n - 1)) for _ in range(2))
    return *fields, scale, SolitonParams(n=n, a=a, b=draw(_coeffs | st.just(0)), c=c)


def _assert_clean_map(f, rebuild):
    for c in f.terms.values():
        assert type(c) is LaurentPoly and c
        _assert_clean(c)
    assert f == rebuild(f.terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_form_operands())
def test_form_results_are_clean(operands):
    alpha, beta, gamma, field, scale = operands
    results = [alpha + beta, alpha - beta, beta - beta, -alpha, alpha * scale, scale * alpha, alpha * 0]
    results += [wedge(alpha, gamma), wedge(alpha, alpha), ext_d(alpha), ext_d(ext_d(alpha)), *_split_last(alpha)]
    if alpha.grade >= 1:
        results.append(interior(field, alpha))
    if alpha.grade >= 2:
        results.append(interior(field, interior(field, alpha)))
    if alpha.grade == 1:
        results.append(_lie_derivative_direct(field, alpha))
    for f in results:
        _assert_clean_map(f, lambda terms, f=f: KForm(f.n, f.grade, terms))
    assert (beta - beta).is_zero() and (alpha * 0).is_zero() and ext_d(ext_d(alpha)).is_zero()
    # odd forms square to zero, so their cross terms cancel pairwise
    assert wedge(alpha, alpha).is_zero() or alpha.grade % 2 == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tensor_operands())
def test_tensor_results_are_clean(operands):
    s, t, field, scale = operands
    results = [s + t, s - t, t - t, -s, s * scale, scale * s, s * 0, lie_derivative_metric(field)]
    for f in results:
        _assert_clean_map(f, lambda terms, f=f: SymTensor2(f.n, terms))
    assert (t - t).is_zero() and (s * 0).is_zero()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_field_operands())
def test_field_results_are_clean(operands):
    A, B, scale, params = operands
    results = [A + B, A - B, B - B, -A, A * scale, scale * A, A * 0, lie_bracket(A, B), lie_bracket(A, A)]
    for f in [*results, build_field(params)]:
        assert set(f.terms) <= set(range(1, f.n + 1))
        _assert_clean_map(f, lambda terms, f=f: VectorField(f.components))
    assert (B - B).is_zero() and (A * 0).is_zero() and lie_bracket(A, A).is_zero()


def test_zero_maps_are_falsy_and_hashable():
    zeros = [LaurentPoly.zero(3), VectorField.zero(3), KForm(3, 2), SymTensor2(3)]
    for zero in zeros:
        assert zero.is_zero() and not zero
        assert hash(zero) == hash(zero + zero)
    x = LaurentPoly.var(3, 1)
    assert SymTensor2(3, {(1, 2): x})
    assert len({SymTensor2(3, {(1, 2): x}), SymTensor2(3, {(1, 2): x * 1})}) == 1


def test_mixed_shape_addition_is_a_dimension_mismatch():
    def dx(n, i):
        return KForm(n, 1, {(i,): LaurentPoly.const(n, 1)})

    pairs = [
        (LaurentPoly.var(2, 1), LaurentPoly.var(3, 1)),
        (dx(2, 1), dx(3, 1)),
        (dx(3, 1), wedge(dx(3, 1), dx(3, 2))),
        (SymTensor2(2), SymTensor2(3)),
        (VectorField([LaurentPoly.var(2, 1)] * 2), VectorField([LaurentPoly.var(3, 1)] * 3)),
    ]
    for left, right in pairs:
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(DimensionMismatch):
                op(left, right)
            with pytest.raises(ValueError):
                op(left, right)


def test_form_and_tensor_terms_are_checked():
    one = LaurentPoly.const(2, 1)
    bad = [
        lambda: LaurentPoly(2, {1: 1}),  # a key that is not a tuple
        lambda: KForm(2, 1, {1: one}),
        lambda: SymTensor2(2, {1: one}),
        lambda: KForm(2, 1, {(1,): 5}),  # not a polynomial
        lambda: KForm(2, 1, {(1,): LaurentPoly.const(3, 1)}),  # another arity
        lambda: KForm(2, 1, {(1.0,): one}),
        lambda: KForm(2, 2, {(1, 2.0): one}),
        lambda: KForm(2, 1, {(True,): one}),
        lambda: SymTensor2(2, {(1, 1): 5}),
        lambda: SymTensor2(2, {(1, 1): LaurentPoly.const(3, 1)}),
        lambda: SymTensor2(2, {(1.0, 1.5): one}),
        lambda: SymTensor2(2, {(1, 2.0): one}),
    ]
    for build in bad:
        with pytest.raises(ValueError):
            build()
    assert KForm(2, 2, {(1, 2): one}).text() == "(1)*dx1^dx2"
    assert SymTensor2(2, {(1, 2): one}).text() == "[1,2] 1"
    assert SymTensor2(2).text() == "0"
