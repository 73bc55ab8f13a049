import random
from itertools import combinations
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import covector_orbit_scan, random_word
from tordyn.cli import run_job
from tordyn.dynamics import act, converges_to_full, dual_matrix, orbit, orbit_is_periodic
from tordyn.families import (
    Budget,
    FamilyConstructionError,
    PowerInvariants,
    disjoint_hyperplane_orbits,
    fixed_subtori,
    non_expansivity_certificate,
    unipotent_family,
    unipotent_invariant,
    unipotent_invariant_pm,
)
from tordyn.intmat import (
    UnimodularMatrix,
    evaluate_poly_at_matrix,
    inverse_unimodular,
    mat_vec,
    transpose,
)
from tordyn.lattices import reduce_mod_lattice
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
    s = dual_matrix(SHEAR).rows
    assert len({PowerInvariants(s, 1).invariant_set(g) for g in fam.members}) == 3
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
    # block triangular with an invariant line and a hyperbolic quotient: the
    # greedy picks its members in the kernel of x^2 - 3x + 1 at S
    t = UnimodularMatrix(((1, 1, 0), (0, 2, 1), (0, 1, 1)))
    fam = disjoint_hyperplane_orbits(t, 4)
    assert fam.count == 4
    assert fam.branch == "greedy"
    res = verify_certificate(fam)
    assert res.ok, res.failures
    for i in range(4):
        for j in range(i + 1, 4):
            assert brute_force_orbits_disjoint(t, fam.members[i], fam.members[j], 120)


def companion(coeffs):
    """Companion matrix of the monic polynomial with these coefficients,
    highest degree first."""
    n = len(coeffs) - 1
    rows = [tuple(int(j == i + 1) for j in range(n)) for i in range(n - 1)]
    return tuple(rows) + (tuple(-c for c in reversed(coeffs[1:])),)


def block_sum(a, b, sign=1):
    """a (+) sign * b, block-aligned."""
    n, m = len(a), len(b)
    return tuple(tuple(r) + (0,) * m for r in a) + tuple((0,) * n + tuple(sign * x for x in r) for r in b)


# Reducible inputs on which a greedy over all of Z^n loses rigor, with f, the
# first non-cyclotomic factor of the characteristic polynomial of S = T^-T
# (ascending coefficients): here the one of the first block.  In the first,
# every covector outside a block's kernel has four dominant roots of one
# modulus.
REDUCIBLE_INPUTS = {
    "(x^3-x-1) + -(x^3-x-1)": (block_sum(companion((1, 0, -1, -1)), companion((1, 0, -1, -1)), -1),
                               (-1, 0, 1, 1)),
    "(x^3-2x^2-1) + (x^3+x+1)": (block_sum(companion((1, -2, 0, -1)), companion((1, 0, 1, 1))),
                                 (-1, 2, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE_INPUTS))
def test_reducible_greedy_picks_members_in_one_kernel_lattice(name):
    rows, f = REDUCIBLE_INPUTS[name]
    t = UnimodularMatrix(rows)
    f_at_s = evaluate_poly_at_matrix(f, dual_matrix(t).rows)
    rows = [list(r) for r in rows]
    for k in (4, 8):
        # run_job raises Inconclusive (exit 3) when incomplete, VerifyFailed (exit 4)
        cert = run_job({"command": "disjoint-family", "matrix": rows, "parameters": {"count": k}})
        assert cert["branch"] == "greedy" and cert["rigorous"] and cert["complete"]
        run_job({"command": "verify", "certificate": cert})
        members = [tuple(g) for g in cert["members"]]
        assert all(not any(mat_vec(f_at_s, g)) for g in members)
        for g1, g2 in combinations(members, 2):
            assert brute_force_orbits_disjoint(t, g1, g2, 120)
    cert = run_job({"command": "certify-nonexpansive", "matrix": rows, "parameters": {"count": 4}})
    assert cert["rigorous"] and cert["complete"]
    run_job({"command": "verify", "certificate": cert})


# irreducible polynomials, highest degree first, cyclotomic or not
BLOCKS = ((1, 1), (1, -1), (1, 0, 1), (1, 1, 1), (1, -1, -1), (1, -3, 1),
          (1, 0, -1, -1), (1, 0, 1, 1), (1, -2, 0, -1), (1, 1, 0, -1))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BLOCKS), st.sampled_from(BLOCKS), st.sampled_from((1, -1)))
def test_block_sums_of_two_companions_give_complete_families(a, b, sign):
    fam = disjoint_hyperplane_orbits(UnimodularMatrix(block_sum(companion(a), companion(b), sign)), 3)
    assert fam.complete
    res = verify_certificate(fam)
    assert res.ok, res.failures


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
    assert cert.isolation is not None and cert.isolation > 0
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


def test_finite_order_family_obeys_the_candidate_cap():
    # (0, 1), (1, -1) and (1, 0) are the first candidates, and the rotation
    # carries (0, 1) to (1, 0) up to sign
    fam = disjoint_hyperplane_orbits(ROT, 10, Budget(max_candidates=3))
    assert not fam.complete and fam.count == 2
    assert fam.explanation == "candidate budget exhausted"


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


def _count_growth_searches(monkeypatch):
    """Record the annihilator of every growth search a family build starts,
    and the (annihilator, radius) of every derivation a search makes."""
    import tordyn.families as families
    from tordyn.growth import GrowthSearch

    searches, derivations = [], []

    class Counted(GrowthSearch):
        def __init__(self, g):
            searches.append(g)
            super().__init__(g)

        def _derive(self, window):
            derivations.append((self.g, window))
            return super()._derive(window)

    monkeypatch.setattr(families, "GrowthSearch", Counted)
    return searches, derivations


def test_family_derives_growth_once_per_annihilator_and_window(monkeypatch):
    searches, derivations = _count_growth_searches(monkeypatch)
    cert = disjoint_hyperplane_orbits(CAT, 60)
    assert cert.count == 60 and cert.rigorous
    # every member of the cat map has one annihilator and one window radius
    radii = {rep.window_radius for rep in cert.orbit_reports}
    assert len(radii) == 1
    assert searches == [cert.orbit_reports[0].growth.annihilator]
    assert derivations == [(searches[0], *radii)]

    searches.clear()
    derivations.clear()
    cert = disjoint_hyperplane_orbits(COMPANION, 20)
    assert cert.count == 20
    # one search for the one annihilator, one derivation per radius any
    # member reached, final or on the way
    assert searches == [cert.orbit_reports[0].growth.annihilator]
    assert {rep.growth.annihilator for rep in cert.orbit_reports} == set(searches)
    assert len(derivations) == len(set(derivations))
    assert {g for g, _ in derivations} == set(searches)
    assert {rep.window_radius for rep in cert.orbit_reports} <= {r for _, r in derivations}


def test_narrow_gap_sextic_derives_once_at_radius_24(monkeypatch):
    # no cone in one direction at any radius, but a Lyapunov form: both
    # members clear the target at the first radius, on one derivation
    searches, derivations = _count_growth_searches(monkeypatch)
    sextic = UnimodularMatrix((
        (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (-1, 1, -1, 1, 2, 0),
    ))  # companion of x^6 - 2x^4 - x^3 + x^2 - x + 1
    cert = disjoint_hyperplane_orbits(sextic, 2)
    assert cert.count == 2 and cert.complete and cert.rigorous
    # S = T^-T has the reciprocal annihilator x^6 - x^5 + x^4 + x^3 - 2x^2 + 1
    assert searches == [(1, 0, -2, -1, 1, -1, 1)]
    assert derivations == [(searches[0], 24)]
    assert all(rep.window_radius == 24 for rep in cert.orbit_reports)
    assert {rep.growth.forward.kind for rep in cert.orbit_reports} == {"lyapunov"}
    assert {rep.growth.backward.kind for rep in cert.orbit_reports} == {"cone"}
    assert verify_certificate(cert).ok


def test_cubic_searches_once_through_three_radii(monkeypatch):
    # x^3 - x - 1 has cones both ways; its members widen through 24, 36 and
    # 54 on one search, which derives at each radius once
    searches, derivations = _count_growth_searches(monkeypatch)
    cert = disjoint_hyperplane_orbits(COMPANION, 20)
    assert cert.count == 20 and cert.rigorous
    assert searches == [cert.orbit_reports[0].growth.annihilator]
    assert derivations == [(searches[0], r) for r in (24, 36, 54)]
    assert {rep.window_radius for rep in cert.orbit_reports} == {24, 36, 54}
    assert {dc.kind for rep in cert.orbit_reports
            for dc in (rep.growth.forward, rep.growth.backward)} == {"cone"}


def test_second_build_derives_again(monkeypatch):
    # the table of growth searches lives as long as one build
    searches, derivations = _count_growth_searches(monkeypatch)
    first = disjoint_hyperplane_orbits(CAT, 60)
    assert len(searches) == 1 and len(derivations) == 1
    second = disjoint_hyperplane_orbits(CAT, 60)
    assert len(searches) == 2 and searches[0] == searches[1]
    assert len(derivations) == 2 and derivations[0] == derivations[1]
    assert first == second
