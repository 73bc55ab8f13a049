import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    block_diag,
    covector_orbit_scan,
    cyclotomic_radical_matrix,
    direct_order_bound_12,
    first_repetition_is_injective,
    hyperoctahedral_generators,
    mod3_closure_reference,
    random_word,
    reference_group_closure,
    signed_permutation_matrices,
)
from tordyn.dynamics import (
    act,
    acts_distally_on_subp,
    converges_to_full,
    covector_window_set,
    dual_matrix,
    group_is_finite,
    invariant_rational_subspaces,
    is_distal_linear,
    is_ergodic,
    orbit,
    orbit_is_periodic,
    orbit_window,
)
from tordyn.intmat import (
    UnimodularMatrix,
    identity,
    is_unipotent,
    is_zero,
    mat_mul,
    mat_pow,
    mat_sub,
    matrix_order,
    mat_vec,
    transpose,
)
from tordyn.lattices import Lattice, hnf_basis
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    canonicalize_covector,
    contains,
    covector_to_hyperplane,
    hyperplane_to_covector,
    primitive_covectors,
    subtorus_from_annihilator,
)

CAT = UnimodularMatrix(((2, 1), (1, 1)))
ROT = UnimodularMatrix(((0, -1), (1, 0)))
SHEAR = UnimodularMatrix(((1, 1), (0, 1)))
IDENT2 = UnimodularMatrix(((1, 0), (0, 1)))
H10 = Subtorus.from_generators(2, [(1, 0)])


def test_act_examples():
    assert act(IDENT2, H10) == H10
    assert act(CAT, H10) == Subtorus.from_generators(2, [(2, 1)])
    assert act(CAT.inv(), act(CAT, H10)) == H10


def test_act_is_group_action_and_preserves_dimension():
    rng = random.Random(51)
    for _ in range(60):
        n = rng.choice((2, 3))
        t1, t2 = random_word(rng, n), random_word(rng, n)
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n))]
        )
        assert act(t1 * t2, h) == act(t1, act(t2, h))
        assert act(t1, h).dim == h.dim


def test_act_matches_validating_construction():
    # act (through the trusted HNF kernel) and subtorus_from_annihilator build
    # subtori without re-validation; the validating constructors are the
    # reference
    rng = random.Random(57)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            t = random_word(rng, n)
            for k in range(n + 1):
                h = Subtorus.trivial(n)
                while h.dim != k:
                    h = Subtorus.from_generators(
                        n, [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
                    )
                image = act(t, h)
                image_rows = [mat_vec(t.rows, v) for v in h.basis]
                assert image.basis == hnf_basis(image_rows, n)
                assert image == Subtorus.from_generators(n, image_rows)
                assert Subtorus(n, Lattice(n, image.basis)) == image
                dual = subtorus_from_annihilator(n, h.basis)
                assert Subtorus(n, Lattice(n, dual.basis)) == dual
                assert dual.dim == n - k
            gamma = [0] * n
            while not any(gamma):
                gamma = [rng.randint(-9, 9) for _ in range(n)]
            hyper = covector_to_hyperplane(PrimitiveCovector.from_entries(gamma))
            assert Subtorus(n, Lattice(n, hyper.basis)) == hyper
            assert hyper.dim == n - 1


def test_act_preserves_containment():
    rng = random.Random(52)
    for _ in range(40):
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        h1 = Subtorus.from_generators(
            n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        )
        h2 = Subtorus.from_generators(n, list(h1.basis[: max(0, h1.dim - 1)]))
        assert contains(h1, h2)
        assert contains(act(t, h1), act(t, h2))


def test_dual_matrix_examples():
    assert dual_matrix(ROT).rows == ((0, -1), (1, 0))
    assert dual_matrix(SHEAR).rows == ((1, 0), (-1, 1))


def test_duality_square_commutes():
    rng = random.Random(53)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        t = random_word(rng, 2 if n == 2 else 3) if n in (2, 3) else None
        if t is None or t.n != n:
            continue
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        if not any(v):
            continue
        done += 1
        gamma = PrimitiveCovector.from_entries(v)
        h = covector_to_hyperplane(gamma)
        lhs = hyperplane_to_covector(act(t, h)).entries
        rhs = canonicalize_covector(mat_vec(dual_matrix(t).rows, gamma.entries))
        assert lhs == rhs


def test_orbit_examples():
    rep = orbit(ROT, H10, 3)
    assert rep.status == "periodic" and rep.period == 2
    rep = orbit(CAT, H10, 6)
    assert rep.status == "injective"
    assert rep.rigorous and rep.min_exterior_norm is not None
    rep = orbit(IDENT2, H10, 1)
    assert rep.status == "periodic" and rep.period == 1


def test_orbit_window_contents():
    rep = orbit(CAT, H10, 4)
    # window entries are canonical HNF bases; Lattice validates exactly that
    window = {m: Subtorus(2, Lattice(2, basis)) for m, basis in rep.window}
    assert window[0] == H10
    assert window[1] == act(CAT, H10)
    assert window[-1] == act(CAT.inv(), H10)
    assert len(rep.window) == 9


def test_covector_window_set_matches_orbit_window():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for _ in range(6):
            t = random_word(rng, n, max_len=8, entry_cap=20)
            gamma = rng.choice(primitive_covectors(n, 2))
            h0 = covector_to_hyperplane(PrimitiveCovector(gamma))
            for r in (0, 1, 5):
                expected = {hyperplane_to_covector(h).entries for _, h in orbit_window(t, h0, r)}
                assert covector_window_set(t, dual_matrix(t).rows, gamma, r) == expected


def test_orbit_rejects_bad_window():
    with pytest.raises(ValueError):
        orbit(CAT, H10, 0)


def test_orbit_trivial_and_full():
    assert orbit(CAT, Subtorus.trivial(2), 2).period == 1
    assert orbit(CAT, Subtorus.full(2), 2).period == 1


def test_converges_to_full_examples():
    assert converges_to_full(CAT, H10) is True
    assert converges_to_full(ROT, H10) is False
    h_ker10 = covector_to_hyperplane(PrimitiveCovector((1, 0)))
    h_ker01 = covector_to_hyperplane(PrimitiveCovector((0, 1)))
    assert converges_to_full(SHEAR, h_ker10) is True
    assert converges_to_full(SHEAR, h_ker01) is False


def test_converges_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        converges_to_full(CAT, Subtorus.trivial(2))


def test_converges_iff_not_periodic_exhaustive_small():
    # codimension-1 duals of norm <= 20 at n = 2 for a fixed sample of maps
    rng = random.Random(54)
    maps = [random_word(rng, 2) for _ in range(6)] + [CAT, ROT, SHEAR]
    covs = primitive_covectors(2, 20)
    for t in maps:
        s = dual_matrix(t).rows
        radical = cyclotomic_radical_matrix(s)
        for gamma in covs:
            h = covector_to_hyperplane(PrimitiveCovector(gamma))
            periodic = all(x == 0 for x in mat_vec(radical, gamma))
            assert converges_to_full(t, h) == (not periodic)
            assert orbit_is_periodic(t, h) == periodic


def test_invariant_rational_subspaces_examples():
    assert invariant_rational_subspaces(CAT).exists is False
    rep = invariant_rational_subspaces(SHEAR)
    assert rep.exists and rep.witnesses[0] == H10
    rep = invariant_rational_subspaces(IDENT2)
    assert rep.exists and rep.witnesses[0] == H10


def test_invariant_subspace_witnesses_are_invariant():
    rng = random.Random(56)
    for _ in range(60):
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        rep = invariant_rational_subspaces(t)
        for w in rep.witnesses:
            assert 0 < w.dim < n
            assert act(t, w) == w


def test_invariant_subspace_verdict_against_bruteforce():
    rng = random.Random(57)
    for _ in range(25):
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        rep = invariant_rational_subspaces(t)
        found = None
        for gamma in primitive_covectors(n, 6):
            h = covector_to_hyperplane(PrimitiveCovector(gamma))
            if act(t, h) == h:
                found = h
                break
        if n == 2 and found is not None:
            assert rep.exists
        if not rep.exists:
            assert found is None


def test_is_distal_linear():
    assert is_distal_linear(ROT) is True
    assert is_distal_linear(CAT) is False
    assert is_distal_linear(SHEAR) is True


def test_distal_linear_forces_unipotent_power():
    from math import lcm

    from tordyn.polynomials import cyclotomic_orders_if_product
    from tordyn.intmat import char_poly

    rng = random.Random(58)
    for _ in range(60):
        t = random_word(rng, rng.choice((2, 3)))
        if not is_distal_linear(t):
            continue
        orders = cyclotomic_orders_if_product(char_poly(t.rows))
        m = lcm(*orders) if orders else 1
        power = t.power(m)
        n = t.n
        assert is_zero(mat_pow(mat_sub(power.rows, identity(n)), n))


def test_is_ergodic():
    assert is_ergodic(CAT) is True
    assert is_ergodic(SHEAR) is False
    assert is_ergodic(ROT) is False


def test_acts_distally_examples():
    v = acts_distally_on_subp(ROT)
    assert v.distal and v.order == 4 and v.witness is None
    v = acts_distally_on_subp(IDENT2)
    assert v.distal and v.order == 1
    v = acts_distally_on_subp(CAT)
    assert not v.distal and v.order is None
    assert v.witness == H10 and v.witness_covector.entries == (0, 1)
    assert v.witness_converges_to_full is True


def test_distality_verdict_with_independent_scan():
    rng = random.Random(59)
    for _ in range(60):
        t = random_word(rng, rng.choice((2, 3)))
        v = acts_distally_on_subp(t)
        assert v.distal == direct_order_bound_12(t)
        if not v.distal:
            s = dual_matrix(t).rows
            assert first_repetition_is_injective(s, v.witness_covector.entries, 60)


def test_orbit_periodicity_of_powers_divides():
    rng = random.Random(60)
    for _ in range(30):
        t = random_word(rng, 2)
        h = covector_to_hyperplane(PrimitiveCovector.from_entries((1, 3)))
        rep = orbit(t, h, 2)
        rep_sq = orbit(t * t, h, 2)
        if rep.status == "periodic":
            assert rep_sq.status == "periodic"
            assert rep.period % rep_sq.period == 0 or rep_sq.period % rep.period == 0


def test_conjugation_maps_orbits_to_orbits():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        u = random_word(rng, n)
        tu = u * t * u.inv()
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - 1)]
        )
        if h.dim != n - 1:
            continue
        rep = orbit(t, h, 3)
        rep_c = orbit(tu, act(u, h), 3)
        assert rep.status == rep_c.status
        if rep.status == "periodic":
            assert rep.period == rep_c.period
        for (m1, b1), (m2, b2) in zip(rep.window, rep_c.window):
            s1, s2 = Subtorus(n, Lattice(n, b1)), Subtorus(n, Lattice(n, b2))
            assert m1 == m2 and act(u, s1) == s2


def test_group_is_finite_examples():
    assert group_is_finite([ROT]).status == "finite"
    assert group_is_finite([ROT]).order == 4
    swap = UnimodularMatrix(((0, 1), (1, 0)))
    rep = group_is_finite([ROT, swap])
    assert rep.status == "finite" and rep.order == 8
    rep = group_is_finite([SHEAR])
    assert rep.status == "infinite" and rep.witness is not None
    assert matrix_order(UnimodularMatrix(rep.witness)) is None


def test_group_closure_really_is_a_group():
    swap = UnimodularMatrix(((0, 1), (1, 0)))
    rep = group_is_finite([ROT, swap])
    elems = set(rep.elements)
    assert identity(2) in elems
    from tordyn.intmat import inverse_unimodular, mat_mul

    for a in elems:
        assert inverse_unimodular(a) in elems
        for b in elems:
            assert mat_mul(a, b) in elems


def test_group_inconclusive_on_tiny_cap():
    big = UnimodularMatrix(((0, -1), (1, 0)))
    swap = UnimodularMatrix(((0, 1), (1, 0)))
    rep = group_is_finite([big, swap], cap=3)
    assert rep.status == "inconclusive"


def test_group_is_finite_matches_reference_closure():
    rng = random.Random(29)
    swap = ((0, 1), (1, 0))
    cases = []
    for n in (3, 4):
        signed = list(signed_permutation_matrices(n))
        for p in rng.sample(signed, 2):
            gens = [mat_mul(mat_mul(p, g), transpose(p)) for g in hyperoctahedral_generators(n)]
            cases.append((gens, 20000, "finite"))
    cases += [
        ([ROT.rows, swap], 20000, "finite"),
        # S and S T generate SL_2(Z): both have finite order, their product not
        ([ROT.rows, ((0, -1), (1, 1))], 20000, "infinite"),
        ([SHEAR.rows], 20000, "infinite"),
        # cyclotomic characteristic polynomial, yet infinite order
        (list(hyperoctahedral_generators(4)) + [block_diag(SHEAR.rows, ROT.rows)],
         20000, "infinite"),
        ([ROT.rows, swap], 3, "inconclusive"),
        (hyperoctahedral_generators(3), 47, "inconclusive"),
    ]
    for gens, cap, status in cases:
        rep = group_is_finite(gens, cap=cap)
        assert rep.status == status
        assert (rep.status, rep.order, rep.elements) == reference_group_closure(gens, cap)[:3]
        if status == "infinite":
            assert_in_gamma_3(rep.witness)


def assert_in_gamma_3(w):
    """w is a nontrivial element of the congruence kernel mod 3, so of
    infinite order."""
    n = len(w)
    assert all((x - (i == j)) % 3 == 0 for i, row in enumerate(w) for j, x in enumerate(row))
    assert w != identity(n)
    assert matrix_order(UnimodularMatrix(w)) is None


def test_group_is_finite_agrees_with_reference_in_low_dimension():
    rng = random.Random(47)
    s_mat, st_mat = ROT.rows, ((0, -1), (1, 1))
    for n in (2, 3):
        signed = list(signed_permutation_matrices(n))
        # ST has order 6 and is no signed permutation; the others have infinite order
        extra = [SHEAR.rows, CAT.rows, st_mat] if n == 2 else [
            ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
            block_diag(CAT.rows, ((1,),)),
            block_diag(st_mat, ((1,),)),
        ]
        for _ in range(12):
            gens = rng.sample(signed, rng.randint(1, 3))
            if rng.random() < 0.4:
                gens.append(rng.choice(extra))
            rep = group_is_finite(gens)
            ref = reference_group_closure(gens)
            assert rep.status == ref[0] and rep.status != "inconclusive"
            assert (rep.order, rep.elements) == ref[1:3]
            if rep.status == "infinite":
                assert_in_gamma_3(rep.witness)
    # S and S T, embedded in GL_3(Z): each of finite order, together infinite
    gens = [block_diag(s_mat, ((1,),)), block_diag(st_mat, ((1,),))]
    rep = group_is_finite(gens)
    assert rep.status == reference_group_closure(gens)[0] == "infinite"
    assert_in_gamma_3(rep.witness)


def test_group_is_finite_ignores_repeated_and_self_inverse_generators():
    swap = ((0, 1), (1, 0))
    rep = group_is_finite([swap, swap, ROT.rows])
    assert rep.status == "finite" and rep.order == 8
    assert rep.elements == group_is_finite([swap, ROT.rows]).elements
    assert rep.elements == reference_group_closure([swap, swap, ROT.rows])[2]
    # the identity as a generator, and a generator that is its own inverse
    assert group_is_finite([swap, identity(2)]).elements == tuple(sorted((swap, identity(2))))


def test_group_inconclusive_before_first_collision_at_tiny_cap():
    # Id, SHEAR, SHEAR^2 are distinct mod 3; SHEAR^3 would be the collision
    assert group_is_finite([SHEAR], cap=2).status == "inconclusive"
    rep = group_is_finite([SHEAR], cap=3)
    assert rep.status == "infinite" and rep.witness == ((1, 3), (0, 1))


def _transvections(n):
    """I + c E_ij for i != j and c = +-1: they generate SL_n(Z)."""
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for c in (1, -1):
                    out.append(tuple(tuple(int(r == k) + (c if (r, k) == (i, j) else 0)
                                           for k in range(n)) for r in range(n)))
    return out


@st.composite
def _closure_jobs(draw):
    """1-3 generators, repeats allowed, each a product of 1-3 signed
    permutations and elementary transvections, with a cap that can stop
    the closure early."""
    n = draw(st.integers(1, 4))
    atoms = st.sampled_from(list(signed_permutation_matrices(n)) + _transvections(n))
    generator = st.lists(atoms, min_size=1, max_size=3).map(
        lambda factors: functools.reduce(mat_mul, factors))
    gens = draw(st.lists(generator, min_size=1, max_size=3))
    return gens, draw(st.sampled_from((1, 2, 3, 47, 20000)))


@settings(max_examples=150, deadline=None)
@given(_closure_jobs())
@example(([((1,),)], 20000))
@example(([((-1,),)], 20000))
@example(([((-1,),), ((-1,),)], 1))
def test_group_is_finite_equals_mod3_closure_reference(job):
    # the whole report, witness and the cap's stopping point included
    gens, cap = job
    assert group_is_finite(gens, cap) == mod3_closure_reference(gens, cap)


def test_group_closure_of_b5_with_a_unipotent_is_infinite():
    # B5's transposition and 5-cycle with the upper-bidiagonal unipotent:
    # no element agrees mod 3 with another until thousands are found
    swap, cycle, _ = hyperoctahedral_generators(5)
    unipotent = tuple(tuple(int(j in (i, i + 1)) for j in range(5)) for i in range(5))
    rep = group_is_finite([swap, cycle, unipotent])
    assert rep.status == "infinite" and rep.order is None and rep.elements is None
    assert_in_gamma_3(rep.witness)


def test_orbit_scan_agreement_with_reports():
    rng = random.Random(62)
    for _ in range(25):
        t = random_word(rng, 2)
        gamma = (1, 2)
        h = covector_to_hyperplane(PrimitiveCovector(gamma))
        rep = orbit(t, h, 5)
        scan = covector_orbit_scan(dual_matrix(t).rows, gamma, 5)
        for m, basis in rep.window:
            sub = Subtorus(2, Lattice(2, basis))
            assert hyperplane_to_covector(sub).entries == scan[m]


def test_orbit_low_dimensional_subtorus_periodic():
    perm = UnimodularMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    h = Subtorus.from_generators(3, [(1, 0, 0)])
    rep = orbit(perm, h, 4)
    assert rep.status == "periodic" and rep.period == 3


def test_orbit_low_dimensional_subtorus_injective_floor_sound():
    from tordyn.subtori import annihilator

    companion = UnimodularMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 0)))
    h = Subtorus.from_generators(3, [(1, 0, 0)])
    rep = orbit(companion, h, 10)
    assert rep.status == "injective"
    assert rep.min_exterior_norm is not None and rep.rigorous
    brute = None
    for step in (companion, companion.inv()):
        cur = h
        for m in range(1, 120):
            cur = act(step, cur)
            if m > 10:
                norm = max(abs(x) for row in annihilator(cur).basis for x in row)
                brute = norm if brute is None else min(brute, norm)
    assert brute >= rep.min_exterior_norm


def test_exterior_power_annihilator_convention():
    # the annihilator Plucker vector of act(T, H) is the exterior-power image
    # of the annihilator Plucker vector of H, up to canonical sign
    from tordyn.dynamics import annihilator_orbit_data, plucker_vector
    from tordyn.subtori import annihilator

    rng = random.Random(64)
    checked = 0
    while checked < 120:
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        k = rng.randint(1, n - 1)
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        )
        if h.dim == 0 or h.is_full():
            continue
        checked += 1
        m, pv = annihilator_orbit_data(dual_matrix(t).rows, h)
        lhs = plucker_vector(annihilator(act(t, h)).basis, n)
        rhs = canonicalize_covector(mat_vec(m, pv))
        assert lhs == rhs


def test_hyperplane_orbit_data_is_the_dual_matrix_and_the_covector():
    # family members and the checker pass (S, gamma) as a hyperplane's orbit data
    from tordyn.dynamics import annihilator_orbit_data

    rng = random.Random(66)
    for _ in range(200):
        n = rng.randint(2, 5)
        t = random_word(rng, n)
        entries = [0] * n
        while not any(entries):
            entries = [rng.randint(-3, 3) for _ in range(n)]
        gamma = PrimitiveCovector.from_entries(entries)
        s = dual_matrix(t).rows
        assert annihilator_orbit_data(s, covector_to_hyperplane(gamma)) == (s, gamma.entries)


def test_period_walked_on_orbit_data_is_the_subtorus_period():
    # canonicalize(M^p v) = v exactly when T^p H = H, for subtori of every
    # dimension under finite-order maps (signed permutations, conjugated)
    from tordyn.dynamics import annihilator_orbit_data, periodic_orbit_period
    from tordyn.growth import minimal_annihilator

    rng = random.Random(67)
    checked = 0
    while checked < 60:
        n = rng.choice((2, 3, 4))
        u = random_word(rng, n, max_len=4)
        t = UnimodularMatrix(mat_mul(mat_mul(u.rows, rng.choice(list(signed_permutation_matrices(n)))), u.inv().rows))
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
        )
        if h.dim in (0, n):
            continue
        checked += 1
        m, v = annihilator_orbit_data(dual_matrix(t).rows, h)
        g = minimal_annihilator(m, v)
        brute, cur = 1, act(t, h)
        while cur != h:
            brute, cur = brute + 1, act(t, cur)
        assert periodic_orbit_period(m, v, g) == brute


def test_periodicity_decision_against_long_scans_n3():
    # the exact decision claims injectivity for all time; long scans corroborate
    rng = random.Random(65)
    from tordyn.subtori import hyperplane_to_covector

    checked_injective = 0
    for _ in range(40):
        t = random_word(rng, 3, entry_cap=40)
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(v):
            continue
        h = covector_to_hyperplane(PrimitiveCovector.from_entries(v))
        gamma = hyperplane_to_covector(h).entries
        s = dual_matrix(t).rows
        if orbit_is_periodic(t, h):
            rep = orbit(t, h, 1)
            assert act(t.power(rep.period), h) == h
        else:
            checked_injective += 1
            assert first_repetition_is_injective(s, gamma, 300)
    assert checked_injective > 5


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 5).flatmap(lambda d: st.tuples(
        st.sampled_from((1, -1)),
        st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1),
    )),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.integers(0, 2),
)
def test_widened_report_equals_orbit_at_final_radius(poly, steps, which):
    # a report built once and widened through several radii is the report
    # orbit() builds at the final radius, and widening runs each act step once
    import tordyn.dynamics as dynamics
    from tordyn.dynamics import OrbitBuilder
    from tordyn.growth import growth_evidence

    c0, middle = poly
    low = (c0, *middle, 1)  # monic, unit constant term
    d = len(low) - 1
    rows = [tuple(1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)]
    rows.append(tuple(-c for c in low[:-1]))
    t = UnimodularMatrix(tuple(rows))
    gamma = tuple(1 if j == which % d else 0 for j in range(d))
    h = covector_to_hyperplane(PrimitiveCovector(gamma))
    tinv = t.inv()
    builder = OrbitBuilder(t, tinv, h, dual_matrix(t).rows, gamma)
    acts = []
    original = dynamics.act
    dynamics.act = lambda *args: acts.append(args) or original(*args)
    try:
        radius = 0
        for step in steps:
            radius += step + 1
            builder.widen(radius, growth_evidence)
    finally:
        dynamics.act = original
    assert len(acts) == 2 * radius
    assert builder.report() == orbit(t, h, radius)
