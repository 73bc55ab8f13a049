import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import covector_orbit_scan, random_word, saturation_lift
from tordyn.dynamics import act, converges_to_full, dual_matrix, orbit, orbit_is_periodic
from tordyn.families import (
    Budget,
    FamilyConstructionError,
    disjoint_hyperplane_orbits,
    fixed_subtori,
    lift_member,
    non_expansivity_certificate,
    reduce_mod_lattice,
    unipotent_family,
    unipotent_invariant,
    unipotent_invariant_pm,
)
from tordyn.intmat import UnimodularMatrix, inverse_unimodular, mat_vec, transpose
from tordyn.metric import hausdorff_distance
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    canonicalize_covector,
    covector_to_hyperplane,
    primitive_covectors,
)
from tordyn.verify import verify_certificate

CAT = UnimodularMatrix(((2, 1), (1, 1)))
ROT = UnimodularMatrix(((0, -1), (1, 0)))
SHEAR = UnimodularMatrix(((1, 1), (0, 1)))
IDENT2 = UnimodularMatrix(((1, 0), (0, 1)))
COMPANION = UnimodularMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 0)))


def brute_force_orbits_disjoint(t, g1, g2, window=200):
    scan1 = set(covector_orbit_scan(dual_matrix(t).rows, g1, window).values())
    scan2 = set(covector_orbit_scan(dual_matrix(t).rows, g2, window).values())
    return not scan1.intersection(scan2)


def test_unipotent_invariant_shear_dual_example():
    s = ((1, 0), (-1, 1))  # dual of the shear: (a, b) -> (a, b - a)
    inv = unipotent_invariant(s, (2, 1))
    assert inv.difference_lattice == ((0, 2),)
    assert inv.reduced == (2, 1)
    inv2 = unipotent_invariant(s, (2, 3))
    assert inv2.reduced == (2, 1)  # 3 mod 2 = 1: same class
    inv3 = unipotent_invariant(s, (3, 1))
    assert inv3.difference_lattice == ((0, 3),)


def test_unipotent_invariant_constant_along_orbit():
    s = ((1, 0), (-1, 1))
    rng = random.Random(81)
    for _ in range(60):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if not any(v):
            continue
        cur = v
        base = unipotent_invariant_pm(s, canonicalize_covector(v))
        for _ in range(6):
            cur = mat_vec(s, cur)
            assert unipotent_invariant_pm(s, canonicalize_covector(cur)) == base


def test_unipotent_invariants_against_bruteforce_partition():
    # S = [[1,0],[-1,1]]: orbits of all primitive covectors of norm <= 12
    s = ((1, 0), (-1, 1))
    bound = 12
    covs = primitive_covectors(2, bound)
    sinv = inverse_unimodular(s)
    reps = {}
    for v in covs:
        pts = {v}
        for step in (s, sinv):
            cur = v
            for _ in range(2 * bound + 2):
                cur = mat_vec(step, cur)
                c = canonicalize_covector(cur)
                if max(abs(x) for x in c) <= bound:
                    pts.add(c)
        reps[v] = min(pts)
    by_invariant = {}
    for v in covs:
        key = unipotent_invariant_pm(s, v)
        by_invariant.setdefault(
            (key.difference_lattice, key.reduced), set()
        ).add(reps[v])
    for group in by_invariant.values():
        assert len(group) == 1  # same invariant means same orbit here


def test_reduce_mod_lattice():
    assert reduce_mod_lattice(((0, 2),), (2, 5)) == (2, 1)
    assert reduce_mod_lattice((), (3, 4)) == (3, 4)


def test_unipotent_family_examples():
    fam = unipotent_family(SHEAR, 1)
    assert fam.count == 1
    fam = unipotent_family(SHEAR, 3)
    assert fam.count == 3
    assert len(set(fam.invariant_sets)) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert brute_force_orbits_disjoint(SHEAR, fam.members[i], fam.members[j], 60)
    with pytest.raises(ValueError):
        unipotent_family(IDENT2, 2)
    with pytest.raises(ValueError):
        unipotent_family(CAT, 2)


def test_unipotent_family_n3_corner_block():
    t = UnimodularMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    fam = unipotent_family(t, 3)
    assert fam.count == 3
    res = verify_certificate(fam)
    assert res.ok, res.failures


def test_disjoint_family_cat_map():
    fam = disjoint_hyperplane_orbits(CAT, 10)
    assert fam.count == 10 and fam.complete and fam.rigorous
    assert len(set(fam.members)) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert brute_force_orbits_disjoint(CAT, fam.members[i], fam.members[j])
    assert verify_certificate(fam).ok


def test_disjoint_family_identity():
    fam = disjoint_hyperplane_orbits(IDENT2, 5)
    assert fam.count == 5 and fam.branch == "finite_order"
    for rep in fam.orbit_reports:
        assert rep.status == "periodic" and rep.period == 1
    assert verify_certificate(fam).ok


def test_disjoint_family_companion_cubic():
    fam = disjoint_hyperplane_orbits(COMPANION, 10)
    assert fam.count == 10 and fam.complete and fam.rigorous
    for i in range(10):
        for j in range(i + 1, 10):
            assert brute_force_orbits_disjoint(COMPANION, fam.members[i], fam.members[j], 120)
    assert verify_certificate(fam).ok


def test_disjoint_family_shear():
    fam = disjoint_hyperplane_orbits(SHEAR, 10)
    assert fam.count == 10 and fam.branch == "unipotent_power" and fam.rigorous
    for i in range(10):
        for j in range(i + 1, 10):
            assert brute_force_orbits_disjoint(SHEAR, fam.members[i], fam.members[j], 80)
    assert verify_certificate(fam).ok


def test_disjoint_family_quotient_branch():
    # block triangular with an invariant line and a hyperbolic quotient
    t = UnimodularMatrix(((1, 1, 0), (0, 2, 1), (0, 1, 1)))
    fam = disjoint_hyperplane_orbits(t, 4)
    assert fam.count == 4
    assert fam.branch in ("quotient", "irreducible_greedy")
    res = verify_certificate(fam)
    assert res.ok, res.failures
    for i in range(4):
        for j in range(i + 1, 4):
            assert brute_force_orbits_disjoint(t, fam.members[i], fam.members[j], 120)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lift_member_matches_the_saturation_lift(data):
    n = data.draw(st.integers(3, 5), label="n")
    kdim = data.draw(st.integers(1, n - 2), label="kdim")
    w = random_word(data.draw(st.randoms(use_true_random=False)), n).rows
    inner = data.draw(st.lists(st.integers(-6, 6), min_size=n - kdim, max_size=n - kdim)
                      .filter(any), label="inner covector")
    gamma = canonicalize_covector(inner)
    assert lift_member(inverse_unimodular(w), kdim, gamma) == saturation_lift(w, kdim, gamma)


def test_greedy_selection_is_stable_under_k():
    small = disjoint_hyperplane_orbits(CAT, 5)
    large = disjoint_hyperplane_orbits(CAT, 10)
    assert large.members[:5] == small.members
    small = disjoint_hyperplane_orbits(SHEAR, 4)
    large = disjoint_hyperplane_orbits(SHEAR, 9)
    assert large.members[:4] == small.members


def test_family_on_random_words():
    rng = random.Random(82)
    for _ in range(10):
        n = rng.choice((2, 3))
        t = random_word(rng, n, entry_cap=30)
        fam = disjoint_hyperplane_orbits(t, 4)
        assert fam.count == 4
        res = verify_certificate(fam)
        assert res.ok, (t.rows, res.failures)
        for i in range(4):
            for j in range(i + 1, 4):
                assert brute_force_orbits_disjoint(t, fam.members[i], fam.members[j], 60)


def test_fixed_subtori_examples():
    rep = fixed_subtori(CAT, 1)
    assert rep.members == () and rep.complete
    rep = fixed_subtori(SHEAR, 1)
    assert len(rep.members) == 1 and rep.complete
    assert rep.members[0] == Subtorus.from_generators(2, [(1, 0)])
    rep = fixed_subtori(IDENT2, 1, dual_norm_bound=3)
    expected = {covector_to_hyperplane(PrimitiveCovector(g)) for g in primitive_covectors(2, 3)}
    assert set(rep.members) == expected and not rep.complete


def test_fixed_subtori_cross_check_with_periodic_orbits():
    rng = random.Random(83)
    for t in [CAT, SHEAR, ROT, random_word(rng, 2), random_word(rng, 3)]:
        n = t.n
        rep = fixed_subtori(t, n - 1, dual_norm_bound=20)
        fixed_set = set(rep.members)
        for gamma in primitive_covectors(n, 8):
            h = covector_to_hyperplane(PrimitiveCovector(gamma))
            is_fixed = act(t, h) == h
            assert (h in fixed_set) == is_fixed or not rep.complete
            if is_fixed:
                assert orbit(t, h, 1).period == 1


def test_fixed_subtori_low_dimension():
    t = UnimodularMatrix(((1, 0, 0), (0, 2, 1), (0, 1, 1)))
    rep = fixed_subtori(t, 1, dual_norm_bound=4)
    assert Subtorus.from_generators(3, [(1, 0, 0)]) in rep.members
    for h in rep.members:
        assert act(t, h) == h and h.dim == 1


def test_non_expansivity_finite_order():
    cert = non_expansivity_certificate(ROT, 10)
    assert cert.branch == "finite_order" and cert.order == 4
    assert len(cert.fixed) >= 2 and len(set(cert.fixed)) == len(cert.fixed)
    assert verify_certificate(cert).ok


def test_non_expansivity_cat():
    cert = non_expansivity_certificate(CAT, 10)
    assert cert.branch == "infinitely_many_orbits"
    assert cert.family.count == 10
    assert all(cert.converges)
    assert cert.rigorous and cert.complete
    assert cert.isolation is not None and cert.isolation.bound > 0
    assert verify_certificate(cert).ok


def test_non_expansivity_shear_uses_injective_members():
    cert = non_expansivity_certificate(SHEAR, 10)
    assert cert.branch == "infinitely_many_orbits"
    assert cert.family.branch == "unipotent_power"
    for g in cert.family.members:
        h = covector_to_hyperplane(PrimitiveCovector(g))
        assert not orbit_is_periodic(SHEAR, h)
    assert all(cert.converges)
    assert verify_certificate(cert).ok


def test_non_expansivity_members_approach_full_torus_metrically():
    cert = non_expansivity_certificate(CAT, 4)
    full = Subtorus.full(2)
    for g in cert.family.members[:2]:
        h = covector_to_hyperplane(PrimitiveCovector(g))
        best = None
        for m in range(1, 9):
            h = act(CAT, h)
            est = hausdorff_distance(h, full, Fraction(1, 50))
            val = est.upper
            best = val if best is None else min(best, val)
        assert best < Fraction(1, 10)


def test_injective_only_rejects_finite_order():
    with pytest.raises(FamilyConstructionError):
        disjoint_hyperplane_orbits(ROT, 3, injective_only=True)


def test_partial_family_on_tiny_budget():
    tiny = Budget(max_norm=1, max_window=8, max_candidates=3)
    fam = disjoint_hyperplane_orbits(CAT, 10, tiny)
    assert not fam.complete
    assert fam.explanation is not None
    assert fam.count < 10


def test_rigor_flag_is_honest_under_window_starvation():
    starving = Budget(max_norm=64, max_window=1, max_candidates=200)
    fam = disjoint_hyperplane_orbits(CAT, 3, starving)
    floors_clear = all(
        rep.min_exterior_norm is not None
        and rep.min_exterior_norm > max(max(abs(x) for x in g) for g in fam.members)
        for rep in fam.orbit_reports
    )
    assert fam.rigorous == floors_clear
    if not fam.rigorous:
        assert "member" in fam.explanation and "window radius 1" in fam.explanation
    if not fam.complete:
        assert "budget exhausted" in fam.explanation
    res = verify_certificate(fam)
    assert res.ok, res.failures


def test_fixed_subtori_n3_cross_check_with_dual_scan():
    t = COMPANION
    rep = fixed_subtori(t, 2, dual_norm_bound=20)
    assert rep.members == () and rep.complete
    s = dual_matrix(t).rows
    for gamma in primitive_covectors(3, 20):
        moved = canonicalize_covector(mat_vec(s, gamma))
        assert moved != gamma  # no invariant hyperplane anywhere in the ball


def test_non_expansivity_companion_members_approach_full_torus():
    # dual covectors grow like the plastic number, so the certified distance
    # crosses 0.1 after roughly a dozen steps
    cert = non_expansivity_certificate(COMPANION, 3)
    full = Subtorus.full(3)
    g = cert.family.members[0]
    h = covector_to_hyperplane(PrimitiveCovector(g))
    best = None
    for _ in range(16):
        h = act(COMPANION, h)
        est = hausdorff_distance(h, full, Fraction(1, 50))
        best = est.upper if best is None else min(best, est.upper)
    assert best < Fraction(1, 10)


def test_family_dimension_four_quartic():
    c4 = UnimodularMatrix(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 1)))
    fam = disjoint_hyperplane_orbits(c4, 5)
    assert fam.count == 5 and fam.rigorous
    assert verify_certificate(fam).ok


def test_family_mixed_spectrum_block_diagonal():
    mix = UnimodularMatrix(((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)))
    fam = disjoint_hyperplane_orbits(mix, 5)
    assert fam.count == 5
    res = verify_certificate(fam)
    assert res.ok, res.failures
