"""Exterior algebra: wedge, derivative, contraction, Lie derivative."""

import random
import re
from fractions import Fraction

import pytest

from helpers import lie_derivative_direct_oracle, mul_oracle, rand_field, rand_kform, rand_poly
from rbkit import (
    DimensionMismatch,
    GradeOverflow,
    KForm,
    LaurentPoly,
    SolitonParams,
    VectorField,
    build_field,
    ext_d,
    flat,
    interior,
    lie_derivative_form,
    power_wedge,
    wedge,
)


def dx(n, *idx):
    """dx_i1 ^ ... ^ dx_ik, from basis 1-forms built by the constructor."""
    one = LaurentPoly.const(n, 1)
    out = KForm(n, 1, {(idx[0],): one})
    for i in idx[1:]:
        out = wedge(out, KForm(n, 1, {(i,): one}))
    return out


def test_wedge_self_annihilates():
    assert wedge(dx(3, 1), dx(3, 1)).is_zero()


def test_wedge_anticommutes_on_basis():
    assert wedge(dx(3, 2), dx(3, 1)) == -dx(3, 1, 2)


_FIELD_SHAPE = "need exactly n components, each a polynomial in n coordinates"


@pytest.mark.parametrize(
    "components, message",
    [
        ([], "a vector field needs at least one component"),
        ([LaurentPoly.var(3, 1), LaurentPoly.var(3, 2)], _FIELD_SHAPE),  # fewer than the arity
        ([LaurentPoly.var(2, 1), LaurentPoly.var(3, 1)], _FIELD_SHAPE),  # a component of another arity
    ],
)
def test_vector_field_shape_errors(components, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        VectorField(components)


def test_vector_field_components_must_be_polynomials():
    # n is the number of components, so a non-polynomial fails the one shape check
    with pytest.raises(ValueError, match=re.escape(_FIELD_SHAPE)):
        VectorField([1, 2])


def test_form_and_field_shape_mismatches():
    field, form = VectorField.zero(2), dx(3, 1)
    for operation in (
        lambda: interior(field, form),
        lambda: lie_derivative_form(field, form, ext_d(form)),
    ):
        with pytest.raises(DimensionMismatch, match="field in dimension 2, form in 3"):
            operation()
    with pytest.raises(ValueError, match="negative grade -1"):
        KForm(3, -1)
    with pytest.raises(ValueError, match="wedge power needs m >= 1"):
        power_wedge(dx(3, 1), 0)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(dx(2, 1), dx(3, 1))


def test_wedge_beyond_top_grade_is_zero_form():
    top = dx(2, 1, 2)
    result = wedge(top, dx(2, 1))
    assert result.grade == 3 and result.is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(2, n))
        l = rng.randint(1, min(2, n))
        alpha = rand_kform(rng, n, k)
        beta = rand_kform(rng, n, l)
        left = wedge(alpha, beta)
        right = wedge(beta, alpha)
        assert left == (right if (k * l) % 2 == 0 else -right)


def test_wedge_associativity():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(3, 5)
        a = rand_kform(rng, n, 1)
        b = rand_kform(rng, n, 1)
        c = rand_kform(rng, n, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_ext_d_constant_scalar():
    assert ext_d(KForm(2, 0, {(): LaurentPoly.const(2, 5)})).is_zero()


def test_ext_d_squares_to_zero():
    rng = random.Random(13)
    for grade in (1, 2):
        for _ in range(100):
            n = rng.randint(max(2, grade), 6)
            alpha = rand_kform(rng, n, grade)
            assert ext_d(ext_d(alpha)).is_zero()


def test_ext_d_plane_family_dual_form():
    # dual form of the (a, b, c) plane field: dw = (a y^2 + a x^2 + 2bx + 2c)/y^3 dx^dy
    for a, b, c in [(1, 0, 0), (Fraction(2, 3), -1, Fraction(5, 2)), (0, 1, 4)]:
        params = SolitonParams(n=2, a=(a,), b=b, c=(c,))
        domega = ext_d(flat(build_field(params)))
        y3 = LaurentPoly.monomial(2, (0, -3))
        x = LaurentPoly.var(2, 1)
        y = LaurentPoly.var(2, 2)
        expected = (a * y * y + a * x * x + 2 * b * x + LaurentPoly.const(2, 2 * c)) * y3
        assert domega.coeff((1, 2)) == expected


def test_ext_d_three_dim_family_dual_form():
    # the three displayed coefficients of dw in dimension 3
    for a1, a2, b, c1, c2 in [(1, 0, 0, 0, 1), (2, -1, 3, Fraction(1, 2), -2)]:
        params = SolitonParams(n=3, a=(a1, a2), b=b, c=(c1, c2))
        domega = ext_d(flat(build_field(params)))
        x1, x2, x3 = (LaurentPoly.var(3, i) for i in (1, 2, 3))
        inv2 = LaurentPoly.monomial(3, (0, 0, -2))
        inv3 = LaurentPoly.monomial(3, (0, 0, -3))
        assert domega.coeff((1, 2)) == 2 * (a1 * x2 - a2 * x1) * inv2
        assert domega.coeff((1, 3)) == (
            a1 * x3 * x3 + a1 * (x1 * x1 - x2 * x2) + 2 * a2 * x1 * x2 + 2 * b * x1 + LaurentPoly.const(3, 2 * c1)
        ) * inv3
        assert domega.coeff((2, 3)) == (
            a2 * x3 * x3 + a2 * (x2 * x2 - x1 * x1) + 2 * a1 * x1 * x2 + 2 * b * x2 + LaurentPoly.const(3, 2 * c2)
        ) * inv3


def test_interior_on_basis_one_form():
    rng = random.Random(14)
    X = rand_field(rng, 3)
    assert interior(X, dx(3, 2)).coeff(()) == X.components[1]


def test_interior_on_two_form():
    # i_X(dx_i ^ dx_j) = X^i dx_j - X^j dx_i
    rng = random.Random(15)
    X = rand_field(rng, 4)
    result = interior(X, dx(4, 2, 4))
    assert result.coeff((4,)) == X.components[1]
    assert result.coeff((2,)) == -X.components[3]


def test_interior_scalar_of_plane_dual_form():
    # i_X w = (1/y^2)(a/2 (x^2-y^2) + bx + c)^2 + (ax+b)^2
    a, b, c = Fraction(3, 2), Fraction(-1), Fraction(2, 5)
    params = SolitonParams(n=2, a=(a,), b=b, c=(c,))
    X = build_field(params)
    got = interior(X, flat(X)).coeff(())
    x, y = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    xi = Fraction(1, 2) * a * (x * x - y * y) + b * x + LaurentPoly.const(2, c)
    zeta = a * x + LaurentPoly.const(2, b)
    expected = xi * xi * LaurentPoly.monomial(2, (0, -2)) + zeta * zeta
    assert got == expected


def test_interior_squares_to_zero():
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(2, 5)
        grade = rng.randint(2, n)
        X = rand_field(rng, n)
        alpha = rand_kform(rng, n, grade)
        assert interior(X, interior(X, alpha)).is_zero()


def test_interior_grade_zero_rejected():
    with pytest.raises(ValueError):
        interior(VectorField.zero(2), KForm(2, 0, {(): LaurentPoly.const(2, 1)}))


def test_lie_derivative_of_zero_form():
    X = VectorField([LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)])
    assert lie_derivative_form(X, KForm(2, 1), KForm(2, 2)).is_zero()


def test_lie_derivative_plane_family_preserves_dual_form():
    rng = random.Random(17)
    for _ in range(20):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        params = SolitonParams(n=2, a=(a,), b=b, c=(c,))
        X = build_field(params)
        omega = flat(X)
        assert lie_derivative_form(X, omega, ext_d(omega)).is_zero()


def test_lie_derivative_five_dim_family_preserves_dual_form():
    rng = random.Random(18)
    from rbkit import random_params

    for _ in range(5):
        params = random_params(rng, 5)
        X = build_field(params)
        omega = flat(X)
        assert lie_derivative_form(X, omega, ext_d(omega)).is_zero()


def test_cartan_matches_direct_formula_on_random_inputs():
    # the library asserts agreement internally; recompute the direct formula
    # here as an independent oracle
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(2, 4)
        X = rand_field(rng, n)
        omega = rand_kform(rng, n, 1)
        assert lie_derivative_form(X, omega, ext_d(omega)) == lie_derivative_direct_oracle(X, omega)


def test_lie_derivative_cross_check_raises_on_disagreement(monkeypatch):
    from rbkit import exterior

    x1, x2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    X, omega = VectorField([x1, x2]), KForm(2, 1, {(2,): x1})
    assert lie_derivative_form(X, omega, ext_d(omega)) == 2 * omega
    direct = exterior._lie_derivative_direct
    bump = KForm(2, 1, {(1,): LaurentPoly.const(2, 1)})
    monkeypatch.setattr(exterior, "_lie_derivative_direct", lambda field, form: direct(field, form) + bump)
    with pytest.raises(AssertionError, match="disagree"):
        lie_derivative_form(X, omega, ext_d(omega))


def test_lie_derivative_of_a_function_is_its_directional_derivative():
    # grade 0: L_X f = i_X df = sum_i X^i d_i f
    rng = random.Random(29)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            X, f = rand_field(rng, n, laurent=True), rand_kform(rng, n, 0)
            expected = LaurentPoly.zero(n)
            for i, component in enumerate(X.components, 1):
                expected = expected + mul_oracle(component, f.coeff(()).deriv(i))
            assert lie_derivative_form(X, f, ext_d(f)) == KForm(n, 0, {(): expected})


def test_lie_derivative_satisfies_leibniz():
    rng = random.Random(20)
    for _ in range(30):
        n = rng.randint(3, 4)
        X = rand_field(rng, n)
        alpha = rand_kform(rng, n, 1)
        beta = rand_kform(rng, n, 1)

        def lie(form):
            return lie_derivative_form(X, form, ext_d(form))

        left = lie(wedge(alpha, beta))
        right = wedge(lie(alpha), beta) + wedge(alpha, lie(beta))
        assert left == right


def test_power_wedge_identity_cases():
    alpha = dx(4, 1, 2)
    assert power_wedge(alpha, 1) == alpha
    two_form = dx(4, 1, 2) + dx(4, 3, 4)
    assert power_wedge(two_form, 2) == 2 * dx(4, 1, 2, 3, 4)


def test_power_wedge_overflow():
    with pytest.raises(GradeOverflow):
        power_wedge(dx(3, 1, 2), 2)


def test_power_wedge_split_oracle_five_dim():
    # (dw)^2 must equal O^2 + 2 O ^ L with L collecting the dx5 terms
    rng = random.Random(21)
    from rbkit import random_params

    for _ in range(5):
        params = random_params(rng, 5)
        domega = ext_d(flat(build_field(params)))
        with_last = {i: p for i, p in domega.terms.items() if 5 in i}
        without = {i: p for i, p in domega.terms.items() if 5 not in i}
        omega_part = KForm(5, 2, without)
        last_part = KForm(5, 2, with_last)
        split = wedge(omega_part, omega_part) + 2 * wedge(omega_part, last_part)
        assert power_wedge(domega, 2) == split


def test_power_wedge_split_route_builds_each_power_once(monkeypatch):
    from rbkit import exterior

    x1 = LaurentPoly.var(6, 1)
    alpha = dx(6, 1, 2) + dx(6, 3, 4) + 2 * dx(6, 5, 6) + KForm(6, 2, {(1, 6): x1})
    calls = []
    plain = exterior.wedge

    def counted(a, b):
        calls.append((a, b))
        return plain(a, b)

    monkeypatch.setattr(exterior, "wedge", counted)
    for m in (1, 2, 3):
        calls.clear()
        power = power_wedge(alpha, m)
        # m - 1 direct wedges; the split route adds O^(m-1) and two more
        assert len(calls) == (2 * m - 1 if m >= 2 else 0)
    assert power == 12 * dx(6, 1, 2, 3, 4, 5, 6)
    # the split route still checks the direct one
    monkeypatch.setattr(exterior, "_split_last", lambda a: (a, a))
    with pytest.raises(AssertionError, match="split"):
        power_wedge(alpha, 2)


def _fresh_table(field):
    coords = range(1, field.n + 1)
    return tuple(tuple(comp.deriv(i) for i in coords) for comp in field.components)


def _partials_table(field):
    return tuple(comp.partials for comp in field.components)


def test_partials_are_each_field_components_own():
    rng = random.Random(22)
    for n in (2, 3, 4):
        A, B = rand_field(rng, n), rand_field(rng, n, laurent=True)
        # the components' partials are cached before the derived fields are made
        assert _partials_table(A) == _fresh_table(A) and _partials_table(B) == _fresh_table(B)
        assert A.components[0].partials[n - 1] == A.components[0].deriv(n)  # partials[i] = d_(i+1)
        for field in (A + B, A - B, -A, 2 * A, A * Fraction(1, 3)):
            assert _partials_table(field) == _fresh_table(field)
        assert _partials_table(A * 0) == ((LaurentPoly.zero(n),) * n,) * n
        with pytest.raises(AttributeError):
            A.components[0].partials = B.components[0].partials


def _fresh_form_table(omega):
    coords = range(1, omega.n + 1)
    return tuple(tuple(omega.coeff((i,)).deriv(j) for j in coords) for i in coords)


def _form_partials(omega):
    return tuple(omega.coeff((i,)).partials for i in range(1, omega.n + 1))


def test_partials_are_each_one_form_coefficients_own(monkeypatch):
    rng = random.Random(27)
    for n in (2, 3, 4, 5):
        w, v = rand_kform(rng, n, 1, terms=n), rand_kform(rng, n, 1, terms=n)
        assert _form_partials(w) == _fresh_form_table(w)
        assert w.coeff((1,)).partials[n - 1] == w.coeff((1,)).deriv(n)  # partials[j] = d_(j+1)
        for form in (w + v, w - v, -w, 3 * w, KForm(n, 1, w.terms)):
            assert _form_partials(form) == _fresh_form_table(form)
        # a form built from w's coefficient objects shares their partials
        assert all(p is q for p, q in zip(_form_partials(KForm(n, 1, w.terms)), _form_partials(w)))
        dw = ext_d(w)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert dw.coeff((i, j)) == w.coeff((j,)).deriv(i) - w.coeff((i,)).deriv(j)
        with pytest.raises(AttributeError):
            w.coeff((1,)).partials = v.coeff((1,)).partials
    # once the partials are built, ext_d and the direct Lie derivative differentiate nothing of w
    X, w = rand_field(rng, 4), rand_kform(rng, 4, 1, terms=4)
    _partials_table(X), _form_partials(w)
    from rbkit import exterior

    calls, deriv = [], LaurentPoly.deriv

    def counted(poly, i):
        calls.append(poly)
        return deriv(poly, i)

    monkeypatch.setattr(LaurentPoly, "deriv", counted)
    ext_d(w)
    exterior._lie_derivative_direct(X, w)
    assert not [p for p in calls if any(p is c for c in w.terms.values())]


def test_kform_rejects_bad_index_tuples():
    with pytest.raises(ValueError):
        KForm(3, 2, {(2, 2): LaurentPoly.const(3, 1)})
    with pytest.raises(ValueError):
        KForm(3, 2, {(0, 1): LaurentPoly.const(3, 1)})
    with pytest.raises(ValueError):
        KForm(3, 1, {(4,): LaurentPoly.const(3, 1)})
    with pytest.raises(ValueError, match=re.escape("index tuple (1,) has length 1, expected grade 2")):
        KForm(3, 2, {(1,): LaurentPoly.const(3, 1)})


def test_kform_text_uses_wedge_keys():
    omega = KForm(3, 2, {(1, 3): LaurentPoly.const(3, 2)})
    assert omega.text() == "(2)*dx1^dx3"
    assert repr(omega) == "KForm(3, grade=2, '(2)*dx1^dx3')"
    assert KForm(3, 1).text() == "0"
    assert repr(VectorField([LaurentPoly.var(2, 1), LaurentPoly.zero(2)])) == "VectorField(x1, 0)"
