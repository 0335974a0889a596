"""Metric layer: curvature, Killing residuals, soliton residual, distance."""

import math
import random
from fractions import Fraction

import pytest

from helpers import lie_derivative_metric_oracle, rand_field
from rbkit import (
    BoundaryPoint,
    LaurentPoly,
    SolitonParams,
    VectorField,
    build_field,
    christoffel,
    flat,
    hyp_distance,
    inverse_metric,
    lie_derivative_metric,
    metric,
    random_params,
    rb_residual,
    ricci,
    scalar_curvature,
    soliton_lambda,
)
from rbkit import halfspace
from rbkit.halfspace import SymTensor2


def test_metric_is_diagonal_inverse_square():
    g = metric(3)
    entry = LaurentPoly.monomial(3, (0, 0, -2))
    for i in range(1, 4):
        assert g.get(i, i) == entry
    assert g.get(1, 2).is_zero()


def test_metric_times_inverse_is_identity():
    n = 4
    g, ginv = metric(n), inverse_metric(n)
    one = LaurentPoly.const(n, 1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = LaurentPoly.zero(n)
            for k in range(1, n + 1):
                total = total + g.get(i, k) * ginv.get(k, j)
            assert total == (one if i == j else LaurentPoly.zero(n))


def test_christoffel_frozen_plane_entries():
    # n=2: Gamma^y_xx = 1/y, Gamma^x_xy = -1/y, Gamma^y_yy = -1/y, rest zero
    gam = christoffel(2)
    inv_y = LaurentPoly.monomial(2, (0, -1))
    assert gam[(2, 1, 1)] == inv_y
    assert gam[(1, 1, 2)] == -inv_y
    assert gam[(1, 2, 1)] == -inv_y
    assert gam[(2, 2, 2)] == -inv_y
    assert set(gam) == {(2, 1, 1), (1, 1, 2), (1, 2, 1), (2, 2, 2)}


def test_christoffel_vanishes_below_last_index():
    for n in (3, 4, 5):
        gam = christoffel(n)
        for (k, i, j) in gam:
            assert k == n or i == n or j == n


def test_christoffel_first_entry_all_dimensions():
    for n in (2, 3, 4, 5, 6):
        assert christoffel(n)[(n, 1, 1)] == LaurentPoly.monomial(n, (0,) * (n - 1) + (-1,))


def test_christoffel_symmetric_in_lower_indices():
    gam = christoffel(4)
    for (k, i, j), poly in gam.items():
        assert gam.get((k, j, i)) == poly


def _clear_curvature_caches():
    for cache in (halfspace._christoffel_checked, halfspace._ricci, halfspace._scalar_curvature):
        cache.cache_clear()


def test_curvature_cross_check_runs_once_per_dimension(monkeypatch):
    calls = []
    from_metric = halfspace._christoffel_from_metric

    def counted(n):
        calls.append(n)
        return from_metric(n)

    monkeypatch.setattr(halfspace, "_christoffel_from_metric", counted)
    _clear_curvature_caches()
    for _ in range(3):
        christoffel(3)
        ricci(3)
        scalar_curvature(3)
        params = random_params(random.Random(5), 3)
        rb_residual(lie_derivative_metric(build_field(params)), params)
    christoffel(4)
    assert calls == [3, 4]


def test_christoffel_hands_out_copies():
    gam = christoffel(3)
    gam[(1, 1, 1)] = LaurentPoly.const(3, 7)
    del gam[(3, 1, 1)]
    assert christoffel(3) == halfspace._christoffel_closed(3)


def test_failed_christoffel_cross_check_is_not_cached(monkeypatch):
    calls = []

    def broken(n):
        calls.append(n)
        return {}

    monkeypatch.setattr(halfspace, "_christoffel_from_metric", broken)
    _clear_curvature_caches()
    for _ in range(2):
        with pytest.raises(AssertionError):
            christoffel(3)
        with pytest.raises(AssertionError):
            ricci(3)
    assert calls == [3, 3, 3, 3]
    monkeypatch.undo()
    assert christoffel(3) == halfspace._christoffel_closed(3)
    assert ricci(3) == -2 * metric(3)


def test_ricci_proportional_to_metric():
    for n in (2, 3):
        assert ricci(n) == -(n - 1) * metric(n)


def test_scalar_curvature_constant():
    for n in (2, 3, 4):
        assert scalar_curvature(n) == LaurentPoly.const(n, -n * (n - 1))


def test_family_fields_are_killing():
    rng = random.Random(31)
    for n in range(2, 7):
        for _ in range(5):
            X = build_field(random_params(rng, n))
            assert lie_derivative_metric(X).is_zero()


def test_vertical_scaling_field_is_not_killing():
    # X = xn d/dxn: (L_X g)_ii = -2 xn^-2 for i < n, (n, n) entry cancels
    n = 3
    comps = [LaurentPoly.zero(n)] * (n - 1) + [LaurentPoly.var(n, n)]
    result = lie_derivative_metric(VectorField(comps))
    expected = SymTensor2(
        n,
        {(i, i): -2 * LaurentPoly.monomial(n, (0, 0, -2)) for i in range(1, n)},
    )
    assert result == expected
    assert not result.is_zero()


def test_lie_derivative_metric_matches_generic_formula():
    # the plain triple sum over every (i, j, k), one Fraction product at a
    # time, on fields that are not Killing
    rng = random.Random(37)
    nonzero = 0
    for n in range(2, 6):
        for _ in range(4):
            X = rand_field(rng, n, terms=3, laurent=True)
            result = lie_derivative_metric(X)
            assert result == lie_derivative_metric_oracle(X)
            nonzero += not result.is_zero()
    assert nonzero >= 14


def test_zero_field_is_killing():
    assert lie_derivative_metric(VectorField.zero(4)).is_zero()


def test_soliton_lambda_values():
    assert soliton_lambda(2, Fraction(1, 2)) == 0
    assert soliton_lambda(3, 1) == 4
    with pytest.raises(ValueError):
        soliton_lambda(3, 0)


def test_rb_residual_vanishes_at_derived_lambda():
    rng = random.Random(32)
    for n in (2, 3, 5):
        params = random_params(rng, n)
        assert rb_residual(lie_derivative_metric(build_field(params)), params).is_zero()


def test_rb_residual_perturbed_lambda_gives_minus_two_metric(monkeypatch):
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1), rho=Fraction(1, 3))
    monkeypatch.setattr(halfspace, "soliton_lambda", lambda n, rho: soliton_lambda(n, rho) + 1)
    residual = rb_residual(lie_derivative_metric(build_field(params)), params)
    assert residual == -2 * metric(3)


def test_params_validation():
    with pytest.raises(ValueError):
        SolitonParams(n=1, a=(), b=0, c=())
    with pytest.raises(ValueError):
        SolitonParams(n=3, a=(1,), b=0, c=(0, 0))
    with pytest.raises(ValueError):
        SolitonParams(n=2, a=(1,), b=0, c=(0,), rho=0)


def test_params_degenerate_flag():
    assert SolitonParams(n=2, a=(0,), b=0, c=(1,)).degenerate
    assert SolitonParams(n=2, a=(0,), b=0, c=(0,)).degenerate  # zero field accepted
    assert not SolitonParams(n=2, a=(1,), b=0, c=(0,)).degenerate
    assert not SolitonParams(n=2, a=(0,), b=1, c=(0,)).degenerate


def test_random_params_never_degenerate_by_default():
    rng = random.Random(33)
    for _ in range(200):
        assert not random_params(rng, 2).degenerate


def test_flat_of_basis_field():
    X = VectorField([LaurentPoly.const(3, 1), LaurentPoly.zero(3), LaurentPoly.zero(3)])
    omega = flat(X)
    assert omega.coeff((1,)) == LaurentPoly.monomial(3, (0, 0, -2))
    assert omega.coeff((2,)).is_zero()


def test_flat_last_component_of_three_dim_family():
    # w_3 = (a1 x1 + a2 x2 + b)/x3
    a1, a2, b = Fraction(2), Fraction(-1, 2), Fraction(3)
    params = SolitonParams(n=3, a=(a1, a2), b=b, c=(1, 1))
    omega = flat(build_field(params))
    x1, x2 = LaurentPoly.var(3, 1), LaurentPoly.var(3, 2)
    inv = LaurentPoly.monomial(3, (0, 0, -1))
    assert omega.coeff((3,)) == (a1 * x1 + a2 * x2 + LaurentPoly.const(3, b)) * inv


def test_hyp_distance_vertical_geodesic():
    assert abs(hyp_distance((0.0, 1.0), (0.0, math.e)) - 1.0) < 1e-12


def test_hyp_distance_identity_and_symmetry():
    rng = random.Random(34)
    assert hyp_distance((1.0, 2.0), (1.0, 2.0)) == 0.0
    for _ in range(50):
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 3))
        q = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 3))
        assert abs(hyp_distance(p, q) - hyp_distance(q, p)) < 1e-12


def test_hyp_distance_rejects_boundary():
    with pytest.raises(BoundaryPoint):
        hyp_distance((0.0, 0.0), (0.0, 1.0))
