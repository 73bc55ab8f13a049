import random

import pytest

from oracles import rational_solve_row
from tordyn.lattices import Lattice
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    annihilator,
    canonicalize_covector,
    contains,
    covector_to_hyperplane,
    hyperplane_to_covector,
    iter_primitive_covectors,
    primitive_covectors,
    trusted_canonicalize_covector,
)


def test_from_generators_examples():
    h = Subtorus.from_generators(2, [(2, 4)])
    assert h.basis == ((1, 2),) and h.dim == 1
    assert Subtorus.from_generators(2, []) == Subtorus.trivial(2)
    assert Subtorus.from_generators(2, [(1, 0), (0, 1)]) == Subtorus.full(2)


def test_from_generators_scaling_invariance():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        h1 = Subtorus.from_generators(n, vecs)
        factors = [rng.choice((1, 2, 3, -2)) for _ in vecs]
        scaled = [tuple(c * x for x in v) for c, v in zip(factors, vecs)]
        h2 = Subtorus.from_generators(n, scaled)
        assert h1 == h2
        mixed = list(vecs)
        if k >= 2:
            mixed[0] = tuple(a + 3 * b for a, b in zip(vecs[0], vecs[1]))
        assert Subtorus.from_generators(n, mixed) == h1


def test_annihilator_examples():
    h = Subtorus.from_generators(2, [(1, 2)])
    assert annihilator(h).basis == ((2, -1),)
    assert annihilator(Subtorus.full(2)).basis == ()
    assert annihilator(Subtorus.trivial(2)).basis == ((1, 0), (0, 1))


def test_annihilator_rank_complement():
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(0, n)
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        )
        ann = annihilator(h)
        assert h.dim + ann.rank == n
        for g in ann.basis:
            for v in h.basis:
                assert sum(a * b for a, b in zip(g, v)) == 0


def test_double_duality():
    from tordyn.subtori import subtorus_from_annihilator

    rng = random.Random(33)
    for _ in range(80):
        n = rng.randint(2, 5)
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n))]
        )
        assert subtorus_from_annihilator(n, annihilator(h).basis) == h


def test_hyperplane_covector_examples():
    h = Subtorus.from_generators(2, [(1, 2)])
    assert hyperplane_to_covector(h).entries == (2, -1)
    assert covector_to_hyperplane(PrimitiveCovector((0, 1))).basis == ((1, 0),)


def test_hyperplane_covector_roundtrip():
    rng = random.Random(34)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        v = tuple(rng.randint(-7, 7) for _ in range(n))
        if not any(v):
            continue
        done += 1
        g = PrimitiveCovector.from_entries(v)
        h = covector_to_hyperplane(g)
        assert h.dim == n - 1
        assert hyperplane_to_covector(h) == g


def test_hyperplane_to_covector_rejects_other_dims():
    with pytest.raises(ValueError):
        hyperplane_to_covector(Subtorus.trivial(2))
    with pytest.raises(ValueError):
        hyperplane_to_covector(Subtorus.full(3))


def test_contains():
    full = Subtorus.full(2)
    h10 = Subtorus.from_generators(2, [(1, 0)])
    h12 = Subtorus.from_generators(2, [(1, 2)])
    assert contains(full, h10) and contains(full, h12)
    assert contains(h10, Subtorus.trivial(2))
    assert not contains(h10, h12) and not contains(h12, h10)
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(2, 4)
        sub = Subtorus.from_generators(
            n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n))]
        )
        assert contains(Subtorus.full(n), sub)
        assert contains(sub, Subtorus.trivial(n))
        assert contains(sub, sub)


def test_covector_canonical_validation():
    with pytest.raises(ValueError):
        PrimitiveCovector((2, 4))
    with pytest.raises(ValueError):
        PrimitiveCovector((-1, 2))
    with pytest.raises(ValueError):
        PrimitiveCovector((0, 0))
    for entries in ((True, 2.0), (True, 2), (1, 2.0)):
        with pytest.raises(ValueError, match="vector entries must be exact integers"):
            PrimitiveCovector(entries)
    assert PrimitiveCovector.from_entries((-2, 4)).entries == (1, -2)
    assert canonicalize_covector((0, -3)) == (0, 1)


def test_trusted_canonicalization_matches_validating_one():
    rng = random.Random(173)
    for _ in range(400):
        n = rng.randint(1, 6)
        scale = rng.choice((1, 1, -1, 2, -3, 12))
        v = tuple(scale * rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-2**70, 2**70)))
                  for _ in range(n))
        if any(v):
            assert trusted_canonicalize_covector(v) == canonicalize_covector(v)
            assert canonicalize_covector(list(v)) == canonicalize_covector(v)
        else:
            with pytest.raises(ValueError):
                trusted_canonicalize_covector(v)
            with pytest.raises(ValueError):
                canonicalize_covector(v)


def test_primitive_covector_enumeration():
    got = primitive_covectors(2, 2)
    assert got == [
        (0, 1), (1, -1), (1, 0), (1, 1),
        (1, -2), (1, 2), (2, -1), (2, 1),
    ]
    lazy = []
    for v in iter_primitive_covectors(2):
        if max(abs(x) for x in v) > 2:
            break
        lazy.append(v)
    assert lazy == got
    # gcd-1, canonical sign, norm-sorted
    prev_norm = 0
    for v in primitive_covectors(3, 3):
        norm = max(abs(x) for x in v)
        assert norm >= prev_norm
        prev_norm = norm
        assert next(x for x in v if x) > 0


def test_subtorus_validation():
    with pytest.raises(ValueError):
        Subtorus(2, Lattice(2, ((2, 4),)))  # unsaturated lattice
    h = Subtorus.from_generators(3, [(0, 2, 4)])
    assert h.basis == ((0, 1, 2),)
    assert rational_solve_row(((0, 2, 4),), h.basis[0]) is not None
