import random

import pytest

from oracles import random_word
from tordyn.dynamics import dual_matrix
from tordyn.growth import (
    check_growth_certificate,
    derive_growth_certificate,
    impulse_values,
    minimal_annihilator,
    reciprocal_monic,
    transfer_constant,
)
from tordyn.intmat import (
    UnimodularMatrix,
    inverse_unimodular,
    mat_vec,
    transpose,
)

CAT_DUAL = transpose(inverse_unimodular(((2, 1), (1, 1))))
COMPANION = ((0, 1, 0), (0, 0, 1), (1, 1, 0))  # of x^3 - x - 1
COMPANION_DUAL = transpose(inverse_unimodular(COMPANION))
SHEAR_DUAL = transpose(inverse_unimodular(((1, 1), (0, 1))))


def brute_min_norm_outside_window(m_rows, v, window, span):
    minv = None
    m_inv = inverse_unimodular(m_rows)
    for step in (m_rows, m_inv):
        cur = v
        for m in range(1, span + 1):
            cur = mat_vec(step, cur)
            if m > window:
                norm = max(abs(x) for x in cur)
                minv = norm if minv is None else min(minv, norm)
    return minv


def test_minimal_annihilator_examples():
    assert minimal_annihilator(CAT_DUAL, (0, 1)) == (1, -3, 1)
    assert minimal_annihilator(SHEAR_DUAL, (1, 0)) == (1, -2, 1)
    assert minimal_annihilator(SHEAR_DUAL, (0, 1)) == (-1, 1)


def test_minimal_annihilator_annihilates():
    from tordyn.intmat import evaluate_poly_at_matrix

    rng = random.Random(71)
    for _ in range(60):
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        if not any(v):
            continue
        g = minimal_annihilator(t.rows, v)
        gm = evaluate_poly_at_matrix(g, t.rows)
        assert all(x == 0 for x in mat_vec(gm, v))


def test_impulse_values_run_both_directions():
    vals = impulse_values((1, -3, 1), -6, 6)
    # x^2 = 3x - 1: forward 1, 0, -1, -3, -8, -21, -55
    assert [vals[i] for i in range(7)] == [1, 0, -1, -3, -8, -21, -55]
    # backward values satisfy the reversed recurrence
    g = (1, -3, 1)
    for m in range(-6, 4):
        assert vals[m + 2] == 3 * vals[m + 1] - vals[m]


def test_reciprocal_monic():
    assert reciprocal_monic((1, -3, 1)) == (1, -3, 1)
    assert reciprocal_monic((-1, -1, 0, 1)) == (-1, 0, 1, 1)
    with pytest.raises(ValueError):
        reciprocal_monic((2, 0, 1))


def test_transfer_constant_bounds_coordinates():
    from fractions import Fraction

    basis = ((1, 0), (3, 1))
    k = transfer_constant(basis)
    rng = random.Random(72)
    for _ in range(50):
        y = (rng.randint(-9, 9), rng.randint(-9, 9))
        ambient = tuple(
            sum(y[i] * basis[i][j] for i in range(2)) for j in range(2)
        )
        assert max(abs(a) for a in y) <= k * max(abs(a) for a in ambient)


def test_cat_certificate_sound_against_bruteforce():
    cert = derive_growth_certificate(CAT_DUAL, (0, 1), 8)
    assert cert.rigorous and cert.min_exterior_norm is not None
    assert check_growth_certificate(CAT_DUAL, (0, 1), cert, 8) == []
    brute = brute_min_norm_outside_window(CAT_DUAL, (0, 1), 8, 300)
    assert brute >= cert.min_exterior_norm


def companion_dual(low):
    """Dual of the companion matrix of the monic polynomial with coefficients
    low (constant term first)."""
    d = len(low) - 1
    rows = [tuple(1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)]
    rows.append(tuple(-c for c in low[:-1]))
    return transpose(inverse_unimodular(tuple(rows)))


def random_companion_duals(rng, per_degree):
    """Duals of companions of random monic polynomials of degree 3-6 with
    unit constant term, whose orbit of e_d is not periodic."""
    from tordyn.polynomials import is_squarefree_product_of_cyclotomics

    out = []
    for d in (3, 4, 5, 6):
        done = 0
        while done < per_degree:
            low = (rng.choice((1, -1)),) + tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,)
            s = companion_dual(low)
            if not is_squarefree_product_of_cyclotomics(minimal_annihilator(s, (0,) * (d - 1) + (1,))):
                out.append(s)
                done += 1
    return out


def test_companion_certificate_handles_complex_dominance():
    cert = derive_growth_certificate(COMPANION_DUAL, (0, 0, 1), 20)
    assert cert.rigorous
    kinds = {cert.forward.kind, cert.backward.kind}
    assert kinds == {"cone"}
    assert 2 in {cert.forward.level, cert.backward.level}
    # random companions of degree 3-6: every cone the producer emits, at
    # level 1 or 2, passes the checker and bounds the true orbit norms
    levels = set()
    for s in [COMPANION_DUAL] + random_companion_duals(random.Random(75), 4):
        v = (0,) * (len(s) - 1) + (1,)
        cert = derive_growth_certificate(s, v, 20)
        levels |= {dc.level for dc in (cert.forward, cert.backward) if dc.kind == "cone"}
        assert check_growth_certificate(s, v, cert, 20) == []
        if cert.min_exterior_norm is not None:
            brute = brute_min_norm_outside_window(s, v, 20, 400)
            assert brute >= cert.min_exterior_norm
    assert levels == {1, 2}


def test_unipotent_certificate_polynomial_path():
    cert = derive_growth_certificate(SHEAR_DUAL, (1, 0), 10)
    assert cert.rigorous
    assert {cert.forward.kind, cert.backward.kind} == {"polynomial"}
    assert check_growth_certificate(SHEAR_DUAL, (1, 0), cert, 10) == []
    brute = brute_min_norm_outside_window(SHEAR_DUAL, (1, 0), 10, 400)
    assert brute >= cert.min_exterior_norm


def test_periodic_orbits_are_rejected():
    with pytest.raises(ValueError):
        derive_growth_certificate(SHEAR_DUAL, (0, 1), 5)


def test_certificate_floors_grow_with_window():
    prev = 0
    for w in (10, 25, 45):
        cert = derive_growth_certificate(CAT_DUAL, (0, 1), w)
        assert cert.min_exterior_norm >= prev
        prev = cert.min_exterior_norm
    assert prev > 1000


def test_checker_rejects_mutations():
    from dataclasses import replace

    cert = derive_growth_certificate(CAT_DUAL, (0, 1), 8)
    bad = replace(cert, annihilator=(1, -2, 1))
    assert check_growth_certificate(CAT_DUAL, (0, 1), bad, 8)
    bad = replace(cert, min_exterior_norm=10**9)
    assert check_growth_certificate(CAT_DUAL, (0, 1), bad, 8)
    bad = replace(cert, forward=replace(cert.forward, floor_seq=10**12))
    assert check_growth_certificate(CAT_DUAL, (0, 1), bad, 8)
    bad = replace(cert, forward=replace(cert.forward, mu=cert.forward.nu * 2))
    assert check_growth_certificate(CAT_DUAL, (0, 1), bad, 8)
    for q in (0, -1):
        bad = replace(cert, forward=replace(cert.forward, power_step=q))
        assert check_growth_certificate(CAT_DUAL, (0, 1), bad, 8)


def test_checker_rejects_a_cone_that_is_not_invariant():
    # the honest level 2 cone of the cubic companion, written out so that it
    # does not depend on the producer, which shares the cone test
    from dataclasses import replace
    from fractions import Fraction

    from tordyn.growth import ConeEntry, DirectionCertificate

    honest = DirectionCertificate(
        "forward", "cone", 2, 2, Fraction(19, 16), Fraction(643, 256),
        (ConeEntry(0, 6, -1), ConeEntry(1, 5, -1)), floor_seq=4, floor_norm=2,
    )
    cert = replace(derive_growth_certificate(COMPANION_DUAL, (0, 0, 1), 20), forward=honest)
    assert check_growth_certificate(COMPANION_DUAL, (0, 0, 1), cert, 20) == []
    # every entry chain still fits under nu = 2, but the q-step recurrence
    # leaves that cone, which only the invariance inequality catches
    bad = replace(cert, forward=replace(honest, nu=Fraction(2)))
    problems = check_growth_certificate(COMPANION_DUAL, (0, 0, 1), bad, 20)
    assert problems[0] == "forward: cone ratios out of range or not invariant"
    assert not any("entry" in p for p in problems)


def test_random_hyperbolic_words_certify_and_hold():
    rng = random.Random(73)
    done = 0
    while done < 12:
        t = random_word(rng, 2, entry_cap=40)
        from tordyn.intmat import matrix_order, char_poly
        from tordyn.polynomials import cyclotomic_orders_if_product

        if cyclotomic_orders_if_product(char_poly(t.rows)) is not None:
            continue
        done += 1
        s = dual_matrix(t).rows
        cert = derive_growth_certificate(s, (0, 1), 12)
        assert check_growth_certificate(s, (0, 1), cert, 12) == []
        if cert.min_exterior_norm is not None:
            brute = brute_min_norm_outside_window(s, (0, 1), 12, 150)
            assert brute >= cert.min_exterior_norm


def test_random_n3_words_certify_and_hold():
    rng = random.Random(74)
    from tordyn.polynomials import cyclotomic_orders_if_product
    from tordyn.intmat import char_poly
    from tordyn.growth import is_squarefree_product_of_cyclotomics

    done = 0
    while done < 8:
        t = random_word(rng, 3, entry_cap=40)
        s = transpose(inverse_unimodular(t.rows))
        g = minimal_annihilator(s, (0, 0, 1))
        if is_squarefree_product_of_cyclotomics(g):
            continue
        done += 1
        cert = derive_growth_certificate(s, (0, 0, 1), 16)
        assert check_growth_certificate(s, (0, 0, 1), cert, 16) == []
        if cert.min_exterior_norm is not None:
            brute = brute_min_norm_outside_window(s, (0, 0, 1), 16, 180)
            assert brute >= cert.min_exterior_norm
