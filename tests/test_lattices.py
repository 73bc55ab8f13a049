import random

import pytest

from oracles import in_integer_rowspan, in_rational_rowspan, rational_rank
from tordyn.intmat import det, identity, mat_mul
from tordyn.lattices import (
    Lattice,
    annihilator_rows,
    contains_vector,
    hnf_basis,
    hnf_pivots,
    hnf_with_transform,
    is_canonical_hnf,
    left_kernel,
    matrix_minimal_polynomial,
    saturate_rows,
    trusted_hnf_basis,
)


def test_hnf_examples():
    assert hnf_basis([(2, 0), (0, 2)], 2) == ((2, 0), (0, 2))
    assert hnf_basis([(1, 2), (2, 4)], 2) == ((1, 2),)


def test_hnf_2x2_derived_example():
    # independent oracle: rank and determinant of the span of (2,1),(1,2)
    rows = ((2, 1), (1, 2))
    h = hnf_basis(rows, 2)
    assert rational_rank(h) == 2
    d = det(h)
    assert abs(d) == 3
    for r in rows:
        assert in_integer_rowspan(h, r)
    for r in h:
        assert in_integer_rowspan(rows, r)


def test_hnf_idempotent_and_span_preserving():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 4)
        k = rng.randint(0, n + 1)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k))
        h = hnf_basis(rows, n)
        assert hnf_basis(h, n) == h
        for r in rows:
            assert in_integer_rowspan(h, r) or not any(r)
        for r in h:
            assert in_integer_rowspan(rows, r)


def test_trusted_hnf_kernel_matches_validating_entry():
    rng = random.Random(174)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(0, n + 2))]
        assert trusted_hnf_basis(rows) == hnf_basis(rows, n)
    with pytest.raises(ValueError):
        hnf_basis([(1, 2)], 3)
    with pytest.raises(ValueError):
        hnf_basis([(1, 2), (3,)], 2)
    with pytest.raises(ValueError):
        hnf_basis([(1, "2")], 2)


def test_hnf_invariant_under_unimodular_row_operations():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(2, 4)
        k = rng.randint(2, n + 1)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        h1 = hnf_basis([tuple(r) for r in rows], n)
        for _ in range(8):
            a, b = rng.randrange(k), rng.randrange(k)
            if a != b:
                c = rng.randint(-3, 3)
                rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
            if rng.random() < 0.25:
                rows[a] = [-x for x in rows[a]]
            if rng.random() < 0.25:
                a, b = rng.randrange(k), rng.randrange(k)
                rows[a], rows[b] = rows[b], rows[a]
        h2 = hnf_basis([tuple(r) for r in rows], n)
        assert h1 == h2


def test_hnf_canonical_shape():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        h = hnf_basis(rows, n)
        pivots = hnf_pivots(h)
        assert pivots == sorted(pivots)
        for i, (row, p) in enumerate(zip(h, pivots)):
            assert row[p] > 0
            assert all(x == 0 for x in row[:p])
            for above in range(i):
                assert 0 <= h[above][p] < row[p]


def test_hnf_with_transform_is_unimodular():
    rng = random.Random(24)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k))
        h, u = hnf_with_transform(rows)
        assert det(u) in (1, -1)
        padded = h + tuple((0,) * n for _ in range(k - len(h)))
        assert mat_mul(u, rows) == padded


def test_left_kernel():
    assert left_kernel(((1, 2), (2, 4)), 2) == ((2, -1),)
    rng = random.Random(25)
    for _ in range(60):
        rows_n = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(rows_n))
        kern = left_kernel(m, rows_n)
        for v in kern:
            prod = [sum(v[i] * m[i][j] for i in range(rows_n)) for j in range(cols)]
            assert all(x == 0 for x in prod)
        assert len(kern) == rows_n - rational_rank(m)


def test_saturate_examples():
    assert saturate_rows([(2, 4)], 2) == ((1, 2),)
    assert saturate_rows([(1, 0)], 2) == ((1, 0),)
    assert saturate_rows([(2, 0), (0, 3)], 2) == identity(2)


def test_saturate_properties():
    rng = random.Random(26)
    for _ in range(120):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k))
        sat = saturate_rows(rows, n)
        assert saturate_rows(sat, n) == sat
        assert rational_rank(sat) == rational_rank(rows)
        # every saturated basis vector lies in the rational span
        for v in sat:
            assert in_rational_rowspan(rows, v)
        # every original row is in the integer span of the saturation
        for r in rows:
            assert in_integer_rowspan(sat, r) or not any(r)


def test_is_saturated_agrees_with_saturation_at_every_rank():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
        lat = Lattice.from_rows(n, rows)
        assert lat.is_saturated() == (lat.saturation() == lat)


def test_membership_oracle_agreement():
    rng = random.Random(27)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k))
        h = hnf_basis(rows, n)
        v = tuple(rng.randint(-8, 8) for _ in range(n))
        assert contains_vector(h, v) == in_integer_rowspan(rows, v) or not h


def test_lattice_class_roundtrip_and_equality():
    a = Lattice.from_rows(2, [(2, 4), (1, 2)])
    b = Lattice.from_rows(2, [(1, 2)])
    assert a == b
    with pytest.raises(ValueError):
        Lattice(2, ((2, 4), (1, 2)))  # not canonical


def test_matrix_minimal_polynomial():
    assert matrix_minimal_polynomial(identity(3)) == (-1, 1)
    assert matrix_minimal_polynomial(((0, 1), (1, 0))) == (-1, 0, 1)
    # nilpotent block: minimal polynomial x^2 over the shear's difference
    assert matrix_minimal_polynomial(((1, 1), (0, 1))) == (1, -2, 1)


def test_is_canonical_hnf():
    assert is_canonical_hnf(((1, 2),))
    assert is_canonical_hnf(((2, 4),))  # unsaturated but still canonical HNF
    assert not is_canonical_hnf(((-1, 2),))  # negative pivot
    assert not is_canonical_hnf(((1, 2), (2, 4)))  # dependent rows
    assert not is_canonical_hnf(((0, 1), (1, 0)))  # pivots out of order
