"""Shared random generators for the test suite (seeded, deterministic), and
the Laplace-expansion determinant used as an oracle for the library's
Bareiss determinant and Pfaffian."""

from __future__ import annotations

from fractions import Fraction

from rbkit import KForm, LaurentPoly, VectorField


def rand_fraction(rng, lo=-4, hi=4, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_exponents(rng, n, max_deg=2, laurent=True):
    exps = [rng.randint(0, max_deg) for _ in range(n)]
    if laurent:
        exps[-1] = rng.randint(-max_deg, max_deg)
    return tuple(exps)


def rand_poly(rng, n, terms=3, max_deg=2, laurent=True) -> LaurentPoly:
    out = {}
    for _ in range(rng.randint(0, terms)):
        out[rand_exponents(rng, n, max_deg, laurent)] = rand_fraction(rng)
    return LaurentPoly(n, out)


def rand_field(rng, n, terms=2, max_deg=2, laurent=False) -> VectorField:
    return VectorField([rand_poly(rng, n, terms, max_deg, laurent) for _ in range(n)])


def rand_kform(rng, n, grade, terms=3) -> KForm:
    import itertools

    tuples = list(itertools.combinations(range(1, n + 1), grade))
    out = {}
    for idx in rng.sample(tuples, min(terms, len(tuples))):
        poly = rand_poly(rng, n)
        if poly:
            out[idx] = poly
    return KForm(n, grade, out)


def rand_antisymmetric(rng, size):
    """Random antisymmetric rational matrix, not restricted to rank 2."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = rand_fraction(rng)
            rows[i][j] = value
            rows[j][i] = -value
    return [tuple(r) for r in rows]


def det_cofactor(M) -> Fraction:
    """Exact determinant by Laplace expansion along the first row (O(k!))."""

    def rec(rows: list) -> Fraction:
        k = len(rows)
        if k == 0:
            return Fraction(1)
        total = Fraction(0)
        for j in range(k):
            if rows[0][j]:
                minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
                term = rows[0][j] * rec(minor)
                total += -term if j % 2 else term
        return total

    return rec([list(map(Fraction, row)) for row in M])
