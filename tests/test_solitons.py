"""Field family, Lie algebra closure, and contact machinery."""

import random
from fractions import Fraction

import pytest

from helpers import (
    DegeneratePoint,
    build_field_oracle,
    decompose,
    det_cofactor,
    det_via_pf,
    dual_forms,
    one_hot_params,
    pfaffian_oracle,
    rand_antisymmetric,
    rand_field,
    rand_fraction,
    rand_params,
    reeb_defect,
    span_oracle,
)
from rbkit import (
    BoundaryPoint,
    DimensionMismatch,
    FlowSpec,
    IndexOutOfRange,
    LaurentPoly,
    NotClosed,
    OddSize,
    SolitonParams,
    VectorField,
    algebra_closure,
    build_field,
    contact_matrix,
    contact_report,
    contact_top_form,
    det_bareiss,
    ext_d,
    flat,
    generator,
    generator_names,
    generators,
    interior,
    lie_bracket,
    pfaffian,
    random_params,
    sl2_check,
    structure_constants,
)
from rbkit import solitons


def V(*texts_n):
    """Build a field from polynomials given as {exps: coeff} maps."""
    n, *maps = texts_n
    return VectorField([LaurentPoly(n, m) for m in maps])


# -- constructors ------------------------------------------------------------


def test_build_field_plane_example():
    X = build_field(SolitonParams(n=2, a=(1,), b=0, c=(0,)))
    assert X == V(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}, {(1, 1): 1})


def test_build_field_three_dim_expansion():
    X = build_field(SolitonParams(n=3, a=(0, 0), b=1, c=(0, 0)))
    assert X == generator("D", 3)


def test_build_field_three_dim_boost():
    X = build_field(SolitonParams(n=3, a=(1, 0), b=0, c=(0, 0)))
    expected = V(
        3,
        {(2, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2), (0, 0, 2): Fraction(-1, 2)},
        {(1, 1, 0): 1},
        {(1, 0, 1): 1},
    )
    assert X == expected
    assert X == generator("G1", 3)


def test_build_field_mixed_term_couples_components():
    # the a_2 parameter contributes a_2 x_2 x_1 to the first component
    X = build_field(SolitonParams(n=3, a=(0, 1), b=0, c=(0, 0)))
    assert X.components[0] == LaurentPoly(3, {(1, 1, 0): 1})


def test_build_field_linearity():
    rng = random.Random(41)
    for n in (2, 3, 5):
        p1 = [rand_fraction(rng) for _ in range(2 * n - 1)]
        p2 = [rand_fraction(rng) for _ in range(2 * n - 1)]

        def params(values):
            return SolitonParams(
                n=n, a=tuple(values[: n - 1]), b=values[n - 1], c=tuple(values[n:]),
            )

        total = [x + y for x, y in zip(p1, p2)]
        lhs = build_field(params(total))
        rhs = build_field(params(p1)) + build_field(params(p2))
        assert lhs == rhs


def test_generator_matches_one_hot_parameters():
    rng = random.Random(43)
    for n in range(2, 10):
        names = [f"T{k}" for k in range(1, n)] + ["D"] + [f"G{k}" for k in range(1, n)]
        assert generator_names(n) == tuple(names)
        assert generators(n) == tuple(generator(name, n) for name in names)
        for name in names:
            params = one_hot_params(name, n)
            assert generator(name, n) == build_field(params) == build_field_oracle(params)
        # the basis combination against the paper's component formula
        for _ in range(20):
            params = rand_params(rng, n)
            assert build_field(params) == build_field_oracle(params)
        zero = SolitonParams(n=n, a=(0,) * (n - 1), b=0, c=(0,) * (n - 1))
        assert build_field(zero) == build_field_oracle(zero) == VectorField.zero(n)


@pytest.mark.parametrize("name", ["Tx", "T-1", "", "T\u00b2", "T\u0661", "Q1", "T0", "T9", "G"])
def test_one_generator_grammar(name):
    # generator, FlowSpec and one_hot_params read names with one parser
    raised = []
    for make in (generator, FlowSpec, one_hot_params):
        with pytest.raises((ValueError, IndexOutOfRange)) as info:
            make(name, 3)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == raised[2]
    if name in ("T0", "T9"):
        assert raised[0] == (IndexOutOfRange, f"generator index {name[1]} outside 1..2")
    else:
        assert raised[0] == (ValueError, f"unknown generator name {name!r}")


def test_generator_translation():
    assert generator("T1", 3) == V(3, {(0,) * 3: 1}, {}, {})


def test_generator_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        generator("T3", 3)
    with pytest.raises(IndexOutOfRange):
        generator("G5", 4)
    with pytest.raises(ValueError):
        generator("Q1", 3)


def test_plane_rotation_is_twice_the_boost():
    assert generator("G", 2) == 2 * generator("G1", 2)
    # so it has no one-hot parameter set
    with pytest.raises(ValueError, match="unknown generator name 'G'"):
        one_hot_params("G", 2)


# -- brackets ----------------------------------------------------------------


def test_bracket_translation_with_expansion():
    T, D = generator("T1", 2), generator("D", 2)
    assert lie_bracket(T, D) == T


def test_bracket_translation_with_rotation():
    T, D, G = generator("T1", 2), generator("D", 2), generator("G", 2)
    assert lie_bracket(T, G) == 2 * D


def test_bracket_antisymmetry():
    rng = random.Random(42)
    for _ in range(30):
        A = rand_field(rng, 3)
        assert lie_bracket(A, A).is_zero()
        B = rand_field(rng, 3)
        assert lie_bracket(A, B) == -lie_bracket(B, A)


def test_bracket_bilinearity():
    rng = random.Random(43)
    for _ in range(20):
        A, B, C = (rand_field(rng, 3) for _ in range(3))
        s = rand_fraction(rng)
        assert lie_bracket(A + s * B, C) == lie_bracket(A, C) + s * lie_bracket(B, C)


def test_bracket_jacobi_identity():
    rng = random.Random(44)
    for _ in range(50):
        n = rng.randint(2, 5)
        A, B, C = (rand_field(rng, n) for _ in range(3))
        total = (
            lie_bracket(A, lie_bracket(B, C))
            + lie_bracket(B, lie_bracket(C, A))
            + lie_bracket(C, lie_bracket(A, B))
        )
        assert total.is_zero()


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lie_bracket(generator("D", 2), generator("D", 3))


# -- span and closure --------------------------------------------------------


def test_span_tracker_insert_returns_coordinates():
    T, D = generator("T1", 2), generator("D", 2)
    zero = VectorField.zero(2)
    tracker = solitons._SpanTracker()
    assert tracker.insert(zero) == {}
    assert tracker.insert(T) is None and tracker.insert(D) is None
    assert tracker.insert(T + 3 * D) == {0: 1, 1: 3}
    assert tracker.insert(generator("G", 2)) is None
    assert tracker.insert(zero) == {}
    assert tracker.size == 3


def test_span_tracker_matches_gauss_jordan_oracle():
    # seeded bases with dependent members and zero fields, over few slots (so
    # some dependence is accidental) and Laurent exponents (negative in xn)
    rng = random.Random(218)
    seen = {"independent": 0, "dependent": 0, "in_span": 0, "outside": 0}
    for _ in range(150):
        n = rng.randint(2, 4)
        shape = {"terms": rng.randint(1, 2), "max_deg": rng.randint(1, 2), "laurent": rng.random() < 0.5}
        basis = [rand_field(rng, n, **shape) for _ in range(rng.randint(0, 4))]
        if basis and rng.random() < 0.4:
            basis.append(sum((rand_fraction(rng) * b for b in basis), VectorField.zero(n)))
        if rng.random() < 0.2:
            basis.append(VectorField.zero(n))
        rng.shuffle(basis)
        combination = sum((rand_fraction(rng) * b for b in basis), VectorField.zero(n))
        tracker = solitons._SpanTracker()
        kept = []  # the fields insert adjoined, numbered as in its coordinates
        for member in basis:
            seen["dependent" if _insert_checked(tracker, kept, member) else "independent"] += 1
        assert tracker.size == span_oracle(VectorField.zero(n), basis)[0]
        for field in (rand_field(rng, n, **shape), combination, VectorField.zero(n)):
            seen["in_span" if _insert_checked(tracker, kept, field) else "outside"] += 1
    assert min(seen.values()) > 0, seen


def _insert_checked(tracker, kept: list, field) -> bool:
    """Insert a field, checking what insert returns against ``span_oracle``
    over the kept fields; True when the field lay in their span."""
    _, coords = span_oracle(field, kept)
    expected = None if coords is None else {k: c for k, c in enumerate(coords) if c}
    assert tracker.insert(field) == expected
    if coords is None:
        kept.append(field)
    return coords is not None


def already_closed(span) -> bool:
    """What ``rbkit algebra`` prints as already_closed: no bracket adjoined, cap not hit."""
    return not span.added and not span.cap_exceeded


def test_closure_plane_already_closed():
    seeds = [generator(name, 2) for name in ("T1", "D", "G1")]
    span = algebra_closure(seeds)
    assert len(span.basis) == 3
    assert already_closed(span)
    assert span.cap == 3
    assert not span.cap_exceeded


def test_closure_single_translation():
    span = algebra_closure([generator("T1", 4)])
    assert len(span.basis) == 1 and already_closed(span)


def test_closure_three_dim_adjoins_rotation():
    names = ["T1", "T2", "D", "G1", "G2"]
    seeds = [generator(name, 3) for name in names]
    span = algebra_closure(seeds)
    assert span.seed_dimension == 5
    assert len(span.basis) == 6
    assert span.cap == 6
    assert not span.cap_exceeded
    ((i, j), adjoined), = span.added
    assert (names[i], names[j]) == ("T2", "G1")
    assert adjoined == V(3, {(0, 1, 0): -1}, {(1, 0, 0): 1}, {})


def test_escaping_bracket_is_the_rotation():
    rotation = lie_bracket(generator("T2", 3), generator("G1", 3))
    assert rotation == V(3, {(0, 1, 0): -1}, {(1, 0, 0): 1}, {})
    seeds = [generator(name, 3) for name in ("G1", "G2", "D", "T1", "T2")]
    assert span_oracle(rotation, seeds)[1] is None


def test_closure_monotone_in_seeds():
    base = [generator(name, 3) for name in ("T1", "D")]
    small = algebra_closure(base)
    large = algebra_closure(base + [generator("G1", 3)])
    assert len(large.basis) >= len(small.basis)


def _unending_seeds():
    # x1^2 d1 and x1^3 d1 are not Killing: [x1^a d1, x1^b d1] = (b - a) x1^(a+b-1) d1,
    # so their closure never ends, and at n=2 it stops at the cap 3 with x1^4 d1
    return [V(2, {(2, 0): 1}, {}), V(2, {(3, 0): 1}, {})]


def test_closure_respects_cap():
    span = algebra_closure(_unending_seeds())
    assert span.cap_exceeded
    assert len(span.basis) == span.cap == 3
    assert span.added == (((0, 1), V(2, {(4, 0): 1}, {})),)


def test_closure_stops_at_first_escape_when_seeds_exceed_cap():
    # four affine plane seeds d1, x1 d2, x2 d1, x2 d2 already exceed the cap 3,
    # and their first bracket [d1, x1 d2] = d2 escapes their span
    seeds = [V(2, {(0, 0): 1}, {}), V(2, {}, {(1, 0): 1}), V(2, {(0, 1): 1}, {}), V(2, {}, {(0, 1): 1})]
    span = algebra_closure(seeds)
    assert (len(span.basis), span.seed_dimension, span.cap) == (4, 4, 3)
    assert span.cap_exceeded and not already_closed(span)
    assert span.added == ()
    assert span.brackets == (((0, 1), V(2, {}, {(0, 0): 1}), None),)


def test_closure_records_each_bracket_with_its_coordinates():
    # bracketing and solving over the final basis is the oracle
    seed_sets = [
        [generator(f"T{k}", n) for k in range(1, n)]
        + [generator("D", n)]
        + [generator(f"G{k}", n) for k in range(1, n)]
        for n in range(2, 6)
    ]
    seed_sets.append([generator("T2", 3), generator("G1", 3)])
    for seeds in seed_sets:
        span = algebra_closure(seeds)
        basis = list(span.basis)
        dim = len(basis)
        assert [pair for pair, _, _ in span.brackets] == [
            (i, j) for j in range(dim) for i in range(j)
        ]
        expected = {}
        for (i, j), field, coords in span.brackets:
            assert field == lie_bracket(basis[i], basis[j])
            oracle = {k: c for k, c in enumerate(span_oracle(field, basis)[1]) if c}
            assert dict(coords) == oracle
            for k, c in oracle.items():
                expected[(i + 1, j + 1, k + 1)] = c
                expected[(j + 1, i + 1, k + 1)] = -c
        assert structure_constants(span) == expected
        hash(span)


def test_closure_takes_each_basis_fields_derivatives_once(monkeypatch):
    calls = []
    deriv = LaurentPoly.deriv

    def counted(poly, i):
        calls.append(i)
        return deriv(poly, i)

    monkeypatch.setattr(LaurentPoly, "deriv", counted)
    for n in (2, 3, 4):
        # fresh fields: the cached generators(n) may carry tables an earlier test built
        seeds = [generator(name, n) for name in generator_names(n)]
        calls.clear()
        span = algebra_closure(seeds)
        assert not span.cap_exceeded
        # n^2 derivatives per basis field; a bracket per pair took 2 n^2
        assert len(calls) == len(span.basis) * n * n


def test_lie_bracket_reads_each_fields_table_once(monkeypatch):
    A, B = generator("G1", 3), generator("D", 3) + generator("T2", 3)
    first = lie_bracket(A, B)
    calls = []
    deriv = LaurentPoly.deriv

    def counted(poly, i):
        calls.append(i)
        return deriv(poly, i)

    monkeypatch.setattr(LaurentPoly, "deriv", counted)
    assert lie_bracket(A, B) == first
    assert lie_bracket(B, A) == -first
    assert calls == []


def test_structure_constants_plane_table():
    T, D, G = generator("T1", 2), generator("D", 2), generator("G", 2)
    span = algebra_closure([T, D, G])
    assert already_closed(span)
    constants = structure_constants(span)
    # [T,D] = T, [T,G] = 2D, [D,G] = G
    assert constants[(1, 2, 1)] == 1
    assert constants[(1, 3, 2)] == 2
    assert constants[(2, 3, 3)] == 1
    assert constants[(2, 1, 1)] == -1


def test_structure_constants_abelian_pair():
    span = algebra_closure([generator("T1", 3), generator("T2", 3)])
    assert structure_constants(span) == {}


def test_structure_constants_not_closed():
    # [e1, e3] = 2 x1^5 d1 escapes after the cap 3 is reached
    span = algebra_closure(_unending_seeds())
    assert span.cap_exceeded
    with pytest.raises(NotClosed, match="elements 1 and 3"):
        structure_constants(span)


def test_sl2_fingerprint():
    assert sl2_check()


# -- contact machinery -------------------------------------------------------


def test_contact_matrix_three_dim():
    M = contact_matrix(SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1)))
    assert M == ((0, 1), (-1, 0))
    assert pfaffian(M) == 1


def test_contact_matrix_is_its_rows():
    rng = random.Random(55)
    for n in (3, 5, 7, 9):
        for _ in range(3):
            params = rand_params(rng, n)
            a, c = params.a, params.c
            M = contact_matrix(params)
            assert M == tuple(tuple(a[i] * c[j] - a[j] * c[i] for j in range(n - 1)) for i in range(n - 1))
            assert type(M) is tuple and all(type(row) is tuple for row in M)
            assert all(M[i][j] == -M[j][i] for i in range(n - 1) for j in range(n - 1))
            assert pfaffian(M) == pfaffian_oracle(M)
            assert det_bareiss(M) == det_cofactor(M)


def test_contact_matrix_needs_odd_dimension():
    with pytest.raises(OddSize):
        contact_matrix(SolitonParams(n=4, a=(1, 0, 0), b=0, c=(0, 1, 0)))


def test_pfaffian_two_by_two():
    assert pfaffian([[0, 1], [-1, 0]]) == 1
    assert det_via_pf([[0, 1], [-1, 0]]) == 1


def test_pfaffian_odd_size_rejected():
    with pytest.raises(OddSize):
        pfaffian([[0]])


def test_pfaffian_squares_to_determinant():
    rng = random.Random(51)
    for size in (2, 4, 6):
        for _ in range(20):
            M = rand_antisymmetric(rng, size)
            assert pfaffian(M) ** 2 == det_cofactor(M)
            assert det_via_pf(M) == det_cofactor(M)


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(68)
    for size in range(7):
        for trial in range(12):
            M = [[rand_fraction(rng) for _ in range(size)] for _ in range(size)]
            if size >= 2 and trial % 3 == 1:
                M[-1] = [rand_fraction(rng, 1, 3) * x for x in M[0]]  # singular
            if size >= 2 and trial % 3 == 2:
                M[0][0] = Fraction(0)  # zero leading pivot
                if trial % 2:
                    for row in M[1:-1]:
                        row[0] = Fraction(0)  # first nonzero pivot candidate is the last row
            assert det_bareiss(M) == det_cofactor(M), M
    assert det_bareiss([]) == 1
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 1], [0, 1]]) == 0


def test_bareiss_rejects_non_square():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])


def _pfaffian_cases(rng, size):
    """Skew matrices (dense, sparse, with a zero leading pivot, of rank 2
    and rank 4) and non-skew square matrices, rational, of one size."""
    half = size // 2
    for density in (1.0, 0.4, 0.1):
        M = [[x if rng.random() < density else Fraction(0) for x in row] for row in rand_antisymmetric(rng, size)]
        M = [[M[i][j] if i < j else -M[j][i] for j in range(size)] for i in range(size)]
        yield True, M
    if size >= 4:
        M = [list(row) for row in rand_antisymmetric(rng, size)]
        M[0][1] = M[1][0] = Fraction(0)  # the first pivot needs a swap
        if size >= 6:
            M[0][2] = M[2][0] = Fraction(0)
        yield True, M
    for rank in (2, 4):
        vecs = [[rand_fraction(rng) for _ in range(size)] for _ in range(rank)]
        yield True, [
            [sum(u[i] * v[j] - u[j] * v[i] for u, v in zip(vecs[::2], vecs[1::2])) for j in range(size)]
            for i in range(size)
        ]
    yield False, [[rand_fraction(rng) for _ in range(size)] for _ in range(size)]
    yield False, [[rand_fraction(rng) if j <= i or j > half else Fraction(0) for j in range(size)] for i in range(size)]


def test_pfaffian_matches_first_row_expansion():
    rng = random.Random(53)
    for size in range(0, 11, 2):
        for _ in range(4):
            for skew, M in _pfaffian_cases(rng, size):
                pf = pfaffian(M)
                assert pf == pfaffian_oracle(M), M
                if skew:
                    assert pf**2 == det_bareiss(M), M
    with pytest.raises(OddSize):
        pfaffian([[rand_fraction(rng) for _ in range(5)] for _ in range(5)])


def test_pfaffian_squares_to_bareiss_beyond_the_expansion():
    rng = random.Random(54)
    for size in (12, 16, 20, 24):
        for skew, M in _pfaffian_cases(rng, size):
            if skew:
                assert pfaffian(M) ** 2 == det_bareiss(M)


def test_pfaffian_rejects_non_square():
    for M in ([[0, 1, 2], [-1, 0, 3]], [[0, 1], [-1]]):
        with pytest.raises(ValueError):
            pfaffian(M)


def test_pfaffian_plucker_identity_for_rank_two_matrices():
    # M = a c^T - c a^T has rank <= 2: Pf = M12 M34 - M13 M24 + M14 M23 = 0
    rng = random.Random(52)
    for _ in range(20):
        params = SolitonParams(
            n=5,
            a=tuple(rand_fraction(rng) for _ in range(4)),
            b=rand_fraction(rng),
            c=tuple(rand_fraction(rng) for _ in range(4)),
        )
        M = contact_matrix(params)
        plucker = M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]
        assert plucker == 0
        assert pfaffian(M) == plucker == 0


def test_contact_report_three_dim_contact_case():
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    report = contact_report(params, *dual_forms(params))
    assert report.top_coeff == -2 * LaurentPoly.monomial(3, (0, 0, -3))
    assert report.pf == 1
    assert report.consistent
    assert report.is_contact


def test_contact_report_computes_the_pfaffian_once(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M)
        return pfaffian(M)

    monkeypatch.setattr(solitons, "pfaffian", counted)
    for params in (
        SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1)),
        SolitonParams(n=5, a=(1, 2, 0, -1), b=1, c=(0, 1, 3, 1)),
    ):
        calls.clear()
        report = contact_report(params, *dual_forms(params))
        assert len(calls) == 1
        assert report.det == report.pf**2
    # the Pf^2 = det cross-check still runs on every report
    monkeypatch.setattr(solitons, "pfaffian", lambda M: Fraction(7))
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    with pytest.raises(AssertionError, match="Bareiss"):
        contact_report(params, *dual_forms(params))


def test_contact_report_three_dim_noncontact_case():
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(1, 0))
    report = contact_report(params, *dual_forms(params))
    assert report.top_coeff.is_zero()
    assert report.pf == 0
    assert report.consistent
    assert not report.is_contact


def test_contact_top_form_three_dim_grid():
    # top coefficient is 2(c1 a2 - c2 a1)/x3^3 on a small parameter grid
    values = [Fraction(v) for v in (-2, 0, 1)]
    inv3 = LaurentPoly.monomial(3, (0, 0, -3))
    for a1 in values:
        for c2 in values:
            params = SolitonParams(n=3, a=(a1, 1), b=1, c=(Fraction(1, 2), c2))
            expected = 2 * (Fraction(1, 2) * 1 - c2 * a1) * inv3
            assert contact_top_form(*dual_forms(params)) == expected
    params = SolitonParams(n=3, a=(2, -1), b=1, c=(3, 1))
    c1a2_minus_c2a1 = Fraction(3) * (-1) - Fraction(1) * 2
    assert contact_top_form(*dual_forms(params)) == 2 * c1a2_minus_c2a1 * inv3


def test_contact_top_form_five_dim_vanishes():
    rng = random.Random(53)
    for _ in range(10):
        params = SolitonParams(
            n=5,
            a=tuple(rand_fraction(rng) for _ in range(4)),
            b=rand_fraction(rng),
            c=tuple(rand_fraction(rng) for _ in range(4)),
        )
        report = contact_report(params, *dual_forms(params))
        assert report.pf == 0
        assert report.top_coeff.is_zero()
        assert report.consistent
        assert not report.is_contact


def test_reeb_defect_value_at_unit_point():
    # frozen by hand: B X1 + C X2 at (0,0,1) = 1*(-1/2) + 2*1 = 3/2
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    assert reeb_defect(params, (0, 0, 1)) == Fraction(3, 2)


def test_reeb_defect_polynomial_identity():
    # i_X dw (d/dxn) + d/dxn (i_X w) = 0 because the field preserves w
    params = SolitonParams(n=3, a=(1, -2), b=Fraction(1, 2), c=(3, 1))
    X = build_field(params)
    omega = flat(X)
    lhs = interior(X, ext_d(omega)).coeff((3,))
    rhs = interior(X, omega).coeff(()).deriv(3)
    assert (lhs + rhs).is_zero()


def test_reeb_defect_zero_field():
    params = SolitonParams(n=3, a=(0, 0), b=0, c=(0, 0))
    assert reeb_defect(params, (1, 1, 1)) == 0


def test_reeb_defect_boundary_point():
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    with pytest.raises(BoundaryPoint):
        reeb_defect(params, (0, 0, 0))


def test_decompose_field_direction():
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    point = (0, 0, 1)
    X = build_field(params)
    xp = [comp.evaluate(point) for comp in X.components]
    s, v_ker = decompose(xp, params, point)
    assert s == 1
    assert all(v == 0 for v in v_ker)


def test_decompose_kernel_vector():
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    point = (0, 0, 1)
    # X(p) = (-1/2, 1, 0); v = (2, 1, 0) is w_p-orthogonal to it
    s, v_ker = decompose((2, 1, 0), params, point)
    assert s == 0
    assert v_ker == (2, 1, 0)


def test_decompose_splitting_property():
    rng = random.Random(54)
    params = SolitonParams(n=3, a=(1, 0), b=0, c=(0, 1))
    X = build_field(params)
    for _ in range(25):
        point = (rand_fraction(rng), rand_fraction(rng), abs(rand_fraction(rng)) + 1)
        v = tuple(rand_fraction(rng) for _ in range(3))
        s, v_ker = decompose(v, params, point)
        xp = [comp.evaluate(point) for comp in X.components]
        assert tuple(k + s * x for k, x in zip(v_ker, xp)) == v
        assert sum(k * x for k, x in zip(v_ker, xp)) == 0  # w_p(v_ker) = 0


def test_decompose_degenerate_point():
    # X = (1/2(x^2 - y^2) + 2, xy) vanishes at (0, 2)
    params = SolitonParams(n=2, a=(1,), b=0, c=(2,))
    with pytest.raises(DegeneratePoint):
        decompose((1, 0), params, (0, 2))
