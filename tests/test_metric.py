import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tordyn.lattices
from oracles import reference_hausdorff, reference_isolation
from tordyn.metric import (
    MetricEstimate,
    enumerate_hnf_lattices,
    hausdorff_distance,
    isolation_radius_lower_bound,
)
from tordyn.lattices import saturate_rows
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    covector_to_hyperplane,
    subtorus_from_annihilator,
)

RES = Fraction(1, 50)


def interval_contains(est: MetricEstimate, x) -> bool:
    return est.lower <= Fraction(x).limit_denominator(10**12) <= est.upper


def test_identical_subtori_have_distance_zero():
    h = Subtorus.from_generators(2, [(1, 2)])
    est = hausdorff_distance(h, h, RES)
    assert est.value == 0 and est.error_bound == 0


def test_coordinate_axes_distance_half():
    h1 = Subtorus.from_generators(2, [(1, 0)])
    h2 = Subtorus.from_generators(2, [(0, 1)])
    est = hausdorff_distance(h1, h2, RES)
    assert interval_contains(est, Fraction(1, 2))


def test_trivial_to_full_distance_is_covering_radius():
    est = hausdorff_distance(Subtorus.trivial(2), Subtorus.full(2), RES)
    assert est.lower <= Fraction(math.sqrt(2) / 2).limit_denominator(10**9) <= est.upper


def test_rejects_nonpositive_resolution():
    h = Subtorus.full(2)
    with pytest.raises(ValueError):
        hausdorff_distance(h, h, 0)
    with pytest.raises(ValueError):
        hausdorff_distance(h, h, Fraction(-1, 10))


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        hausdorff_distance(Subtorus.full(2), Subtorus.full(3), RES)


def test_symmetry_and_triangle_within_error():
    rng = random.Random(41)
    subs = [
        Subtorus.from_generators(2, [(1, 0)]),
        Subtorus.from_generators(2, [(0, 1)]),
        Subtorus.from_generators(2, [(1, 1)]),
        Subtorus.from_generators(2, [(1, 2)]),
        Subtorus.trivial(2),
        Subtorus.full(2),
    ]
    for _ in range(12):
        a, b, c = rng.sample(subs, 3)
        dab = hausdorff_distance(a, b, RES)
        dba = hausdorff_distance(b, a, RES)
        assert abs(dab.value - dba.value) <= dab.error_bound + dba.error_bound
        dac = hausdorff_distance(a, c, RES)
        dcb = hausdorff_distance(c, b, RES)
        slack = 2 * (dab.error_bound + dac.error_bound + dcb.error_bound)
        assert dab.value <= dac.value + dcb.value + slack


def test_trivial_subgroup_is_far_from_every_subtorus():
    # any positive-dimensional subtorus passes through a point with some
    # coordinate 1/2, so its distance from the trivial subgroup is >= 1/2
    triv = Subtorus.trivial(2)
    for gens in [(1, 0), (0, 1), (1, 1), (2, 1), (5, -1), (3, 2)]:
        est = hausdorff_distance(triv, Subtorus.from_generators(2, [gens]), RES)
        assert est.upper >= Fraction(1, 2)
        assert est.lower >= Fraction(1, 2) - 2 * est.error_bound


def test_interval_is_sound_for_known_halves():
    # image of span{(1,1)}: farthest point of the torus is at distance
    # sqrt(2)/4 plus lattice effects; just check certified interval nests
    h = Subtorus.from_generators(2, [(1, 1)])
    coarse = hausdorff_distance(h, Subtorus.full(2), Fraction(1, 10))
    fine = hausdorff_distance(h, Subtorus.full(2), Fraction(1, 200))
    assert fine.error_bound < coarse.error_bound
    assert coarse.lower <= fine.value <= coarse.upper


def test_enumerate_hnf_lattices():
    lats = enumerate_hnf_lattices(2, 1, 2)
    assert ((1, 0),) in lats and ((2, 1),) in lats
    for b in lats:
        from tordyn.lattices import hnf_basis

        assert hnf_basis(b, 2) == b
        assert max(abs(x) for row in b for x in row) <= 2


def test_rank_one_enumeration_needs_no_canonicity_filter():
    # one row with a positive pivot is its own HNF, so the enumerator skips
    # the check at rank 1: its output must be every such row, all canonical
    from itertools import product

    from tordyn.lattices import hnf_basis

    for n in range(1, 5):
        for bound in range(1, 4):
            lats = enumerate_hnf_lattices(n, 1, bound)
            assert lats == [b for b in lats if hnf_basis(b, n) == b]
            rows = [(row,) for row in product(range(-bound, bound + 1), repeat=n)
                    if any(row) and next(x for x in row if x) > 0]
            assert sorted(lats) == sorted(rows)
    # rank 2 keeps the filter: two rows with positive pivots need not be reduced
    for n in (2, 3):
        for bound in (1, 2):
            assert all(hnf_basis(b, n) == b for b in enumerate_hnf_lattices(n, 2, bound))


def test_isolation_examples():
    h10 = Subtorus.from_generators(2, [(1, 0)])
    rep = isolation_radius_lower_bound(h10, 5, Fraction(1, 100))
    assert rep.bound > Fraction(9, 100)
    assert rep.candidates > 10
    h11 = Subtorus.from_generators(2, [(1, 1)])
    rep2 = isolation_radius_lower_bound(h11, 5, Fraction(1, 100))
    assert rep2.bound > 0


def test_isolation_rejects_trivial_and_full():
    with pytest.raises(ValueError):
        isolation_radius_lower_bound(Subtorus.trivial(2), 5)
    with pytest.raises(ValueError):
        isolation_radius_lower_bound(Subtorus.full(2), 5)


def test_isolation_all_candidates_positive():
    # every enumerated candidate at the cap keeps a certified positive distance
    h = Subtorus.from_generators(2, [(1, 0)])
    rep = isolation_radius_lower_bound(h, 4, Fraction(1, 100))
    assert rep.bound > 0
    assert rep.nearest is not None and rep.nearest != h


@pytest.mark.parametrize(
    "h",
    [
        Subtorus.from_generators(3, [(1, 0, 1), (0, 1, -2)]),
        Subtorus.from_generators(4, [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, -1)]),
    ],
)
def test_isolation_is_the_minimum_of_pairwise_distances(h):
    res = Fraction(1, 12)
    n = h.ambient_dim
    best = nearest = None
    count = 0
    for rank in range(n - h.dim + 1):
        for ann_rows in enumerate_hnf_lattices(n, rank, 2):
            if saturate_rows(ann_rows, n) != ann_rows:
                continue
            cand = subtorus_from_annihilator(n, ann_rows)
            if cand == h:
                continue
            count += 1
            lower = hausdorff_distance(h, cand, res).lower
            if best is None or lower < best:
                best, nearest = lower, cand
    rep = isolation_radius_lower_bound(h, 2, res)
    assert (rep.bound, rep.nearest, rep.candidates) == (best, nearest, count)


def _primitive(n, draw):
    entries = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    return PrimitiveCovector.from_entries(entries).entries


@st.composite
def _isolation_jobs(draw):
    """A hyperplane of T^2..T^5 at cap 1 or 2 and a fine resolution, or a
    line in T^3 at cap 1 and a coarse one."""
    if draw(st.booleans()):
        h = covector_to_hyperplane(PrimitiveCovector(_primitive(draw(st.integers(2, 5)), draw)))
        res = draw(st.sampled_from([Fraction(1, 12), Fraction(1, 50)]))
        return h, draw(st.integers(1, 2)), res
    return Subtorus.from_generators(3, [_primitive(3, draw)]), 1, Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(_isolation_jobs())
def test_isolation_matches_the_reference_scan(job):
    assert isolation_radius_lower_bound(*job) == reference_isolation(*job)


@pytest.mark.parametrize(
    "h, cap, res",
    [
        (covector_to_hyperplane(PrimitiveCovector((0, 0, 0, 0, 1))), 2, Fraction(1, 12)),
        (Subtorus.from_generators(4, [(1, 0, 1, 0), (0, 1, 0, -1)]), 1, Fraction(2, 3)),
        # cap 2 brings unsaturated rank-2 annihilators, 2/5 a mesh that
        # does not divide the Lipschitz bounds
        (Subtorus.from_generators(3, [(1, 2, -1)]), 2, Fraction(2, 5)),
    ],
)
def test_isolation_matches_the_reference_scan_on_fixed_subtori(h, cap, res):
    assert isolation_radius_lower_bound(h, cap, res) == reference_isolation(h, cap, res)


@settings(max_examples=40, deadline=None)
@given(
    gens=st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=0, max_size=3
    ),
    other=st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=0, max_size=3
    ),
    res=st.sampled_from([Fraction(1, 2), Fraction(2, 3)]),
)
def test_distance_matches_the_reference_estimate(gens, other, res):
    h1 = Subtorus.from_generators(3, gens)
    h2 = Subtorus.from_generators(3, other)
    est = hausdorff_distance(h1, h2, res)
    assert (est.value, est.error_bound) == reference_hausdorff(h1, h2, res)


def test_isolation_scan_makes_one_kernel_call_per_hyperplane_candidate(monkeypatch):
    calls = []
    kernel = tordyn.lattices.left_kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(tordyn.lattices, "left_kernel", counted)
    h = covector_to_hyperplane(PrimitiveCovector((0, 0, 0, 0, 1)))
    rep = isolation_radius_lower_bound(h, 2, Fraction(1, 12))
    # every candidate but the full torus is a saturated rank-1 annihilator
    assert rep.candidates == 1441
    assert len(calls) <= rep.candidates + 3


@pytest.mark.parametrize("res", [0, Fraction(-1, 12)])
def test_isolation_rejects_nonpositive_resolution(res):
    with pytest.raises(ValueError):
        isolation_radius_lower_bound(Subtorus.from_generators(2, [(1, 0)]), 2, res)
