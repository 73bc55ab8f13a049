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
    hyperplane_isolation_bound,
    isolation_radius_lower_bound,
)
from tordyn.lattices import Lattice, saturate_rows
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    covector_to_hyperplane,
    hyperplane_to_covector,
    subtorus_from_annihilator,
)

RES = Fraction(1, 50)


def interval_contains(est: MetricEstimate, x) -> bool:
    return est.lower <= Fraction(x).limit_denominator(10**12) <= est.upper


def _norm2(h: Subtorus) -> int:
    """|gamma|_2^2 for the hyperplane h = ker(gamma)."""
    return sum(x * x for x in hyperplane_to_covector(h).entries)


def _enclosure(norm2: int) -> Fraction:
    """s / 2^24 for the largest s with (s / 2^24)^2 <= 1 / (4 norm2): the
    lower end of the square-root enclosure of 1/(2 sqrt(norm2))."""
    s = math.isqrt((1 << 48) // (4 * norm2))
    assert 4 * norm2 * s * s <= 1 << 48 < 4 * norm2 * (s + 1) ** 2
    return Fraction(s, 1 << 24)


def _holds_square(lo, hi, x2) -> bool:
    """Whether the nonnegative number with square x2 lies in [lo, hi]."""
    return max(lo, 0) ** 2 <= x2 <= hi * hi


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
    # span{(1,1)} is the kernel of (1,-1): the farthest point of the torus is
    # at exactly sqrt(2)/4, whatever the resolution, within the reference's
    # grid intervals at every resolution
    h = Subtorus.from_generators(2, [(1, 1)])
    full = Subtorus.full(2)
    coarse = hausdorff_distance(h, full, Fraction(1, 10))
    fine = hausdorff_distance(h, full, Fraction(1, 200))
    assert (coarse.value, coarse.error_bound) == (fine.value, fine.error_bound)
    assert fine.error_bound <= Fraction(1, 1 << 25)
    assert _holds_square(fine.lower, fine.upper, Fraction(1, 8))
    for res in (Fraction(1, 10), Fraction(1, 200)):
        value, err = reference_hausdorff(h, full, res)
        assert _holds_square(value - err, value + err, Fraction(1, 8))
        assert fine.lower >= value - err


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
    assert rep.bound == Fraction(1, 2) == _enclosure(1)
    assert rep.nearest == Subtorus.full(2) and rep.candidates == 1
    h11 = Subtorus.from_generators(2, [(1, 1)])
    rep2 = isolation_radius_lower_bound(h11, 5, Fraction(1, 100))
    assert rep2.bound == _enclosure(2) > 0
    assert rep2.nearest == Subtorus.full(2) and rep2.candidates == 1


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
        Subtorus.from_generators(3, [(1, 1, 0)]),
    ],
)
def test_isolation_is_the_minimum_of_pairwise_distances(h):
    n = h.ambient_dim
    # a coarse mesh keeps the line's scan, which grids its targets, small
    res = Fraction(1, 12) if h.dim == n - 1 else Fraction(1, 2)
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
    if h.dim == n - 1:
        # a hyperplane inspects only the full torus, which no candidate beats
        assert (rep.bound, rep.nearest, rep.candidates) == (best, nearest, 1)
        assert rep.bound == _enclosure(_norm2(h)) and nearest == Subtorus.full(n)
        assert count > 1
    else:
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


def _assert_isolation_against_reference(h, cap, res):
    """The live report is the reference scan's where no codimension-1 target
    is involved.  A hyperplane's report is the exact (enclosure of
    1/(2 |gamma|), T^n, 1), inside the reference interval to T^n and no
    lower than the reference's bound."""
    rep = isolation_radius_lower_bound(h, cap, res)
    ref = reference_isolation(h, cap, res)
    n = h.ambient_dim
    if h.dim < n - 1:
        assert rep == ref
        return
    norm2 = _norm2(h)
    assert (rep.bound, rep.nearest, rep.candidates) == (_enclosure(norm2), Subtorus.full(n), 1)
    assert rep.bound >= ref.bound
    assert ref.bound ** 2 <= Fraction(1, 4 * norm2)
    value, err = reference_hausdorff(h, Subtorus.full(n), res)
    assert _holds_square(value - err, value + err, Fraction(1, 4 * norm2))


@settings(max_examples=40, deadline=None)
@given(_isolation_jobs())
def test_isolation_matches_the_reference_scan(job):
    _assert_isolation_against_reference(*job)


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
    _assert_isolation_against_reference(h, cap, res)


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
    value, err = reference_hausdorff(h1, h2, res)
    hyperplanes = [h for h in (h1, h2) if h.dim == 2]
    if not hyperplanes:
        assert (est.value, est.error_bound) == (value, err)
        return
    # a codimension-1 target is measured exactly: the live interval is no
    # lower than the reference's and meets it
    assert est.lower >= value - err
    assert est.lower <= value + err
    if h1 != h2 and all(h.dim >= 2 for h in (h1, h2)):
        # two hyperplanes, or a hyperplane and T^3: max over the
        # hyperplanes of 1/(2 |gamma|), in both intervals
        exact2 = Fraction(1, 4 * min(_norm2(h) for h in hyperplanes))
        assert _holds_square(est.lower, est.upper, exact2)
        assert _holds_square(value - err, value + err, exact2)
        assert est.error_bound <= Fraction(1, 1 << 24)


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    kernel = tordyn.lattices.left_kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(tordyn.lattices, "left_kernel", counted)
    return calls


def test_full_and_trivial_subtori_make_no_kernel_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    assert Subtorus.full(5).dim == 5
    assert Subtorus.trivial(5).dim == 0
    assert calls == []
    # a full-rank lattice other than Z^n is still refused as a subtorus
    with pytest.raises(ValueError, match="saturated"):
        Subtorus(2, Lattice(2, ((1, 0), (0, 2))))


def test_isolation_scan_makes_one_kernel_call_per_hyperplane_candidate(monkeypatch):
    h = covector_to_hyperplane(PrimitiveCovector((0, 0, 0, 0, 1)))
    full = Subtorus.full(5)
    line = Subtorus.from_generators(3, [(1, 1, 0)])
    calls = _count_kernel_calls(monkeypatch)
    # a hyperplane is not scanned: its report is exact, with no kernel call
    rep = isolation_radius_lower_bound(h, 2, Fraction(1, 12))
    assert (rep.bound, rep.nearest, rep.candidates) == (Fraction(1, 2), full, 1)
    assert calls == []
    # a line's scan: one kernel per hyperplane candidate, two per rank-2 one
    rep = isolation_radius_lower_bound(line, 1, Fraction(1, 2))
    rank1 = sum(1 for (row,) in enumerate_hnf_lattices(3, 1, 1) if math.gcd(*row) == 1)
    assert rank1 < rep.candidates
    assert len(calls) <= rank1 + 2 * (rep.candidates - rank1) + 3


@pytest.mark.parametrize("res", [0, Fraction(-1, 12)])
def test_isolation_rejects_nonpositive_resolution(res):
    with pytest.raises(ValueError):
        isolation_radius_lower_bound(Subtorus.from_generators(2, [(1, 0)]), 2, res)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hyperplane_isolation_and_distances_are_exact(data):
    n = data.draw(st.integers(2, 6))
    h1 = covector_to_hyperplane(PrimitiveCovector(_primitive(n, data.draw)))
    h2 = covector_to_hyperplane(PrimitiveCovector(_primitive(n, data.draw)))
    res = data.draw(st.sampled_from([Fraction(1, 12), Fraction(1, 50)]))
    for cap in (1, 2, 50):
        rep = isolation_radius_lower_bound(h1, cap, res)
        assert (rep.bound, rep.nearest, rep.candidates) == (
            _enclosure(_norm2(h1)), Subtorus.full(n), 1
        )
    # the checker's closed form, from the covector, is the report's bound
    assert hyperplane_isolation_bound(_norm2(h1)) == rep.bound
    # d_H(H, H') = max(1/(2 |gamma|), 1/(2 |gamma'|)) within 2^-23
    est = hausdorff_distance(h1, h2, res)
    exact2 = 0 if h1 == h2 else Fraction(1, 4 * min(_norm2(h1), _norm2(h2)))
    assert _holds_square(est.lower, est.upper, exact2)
    assert est.upper - est.lower <= Fraction(1, 1 << 23)


def test_hyperplane_isolation_is_the_same_at_every_cap_without_kernels(monkeypatch):
    from dataclasses import replace

    h = covector_to_hyperplane(PrimitiveCovector((0, 0, 0, 0, 0, 1)))
    calls = _count_kernel_calls(monkeypatch)
    at2 = isolation_radius_lower_bound(h, 2, Fraction(1, 12))
    at50 = isolation_radius_lower_bound(h, 50, Fraction(1, 12))
    assert calls == []
    assert replace(at2, dual_norm_bound=50) == at50
    assert (at50.bound, at50.candidates) == (Fraction(1, 2), 1)
