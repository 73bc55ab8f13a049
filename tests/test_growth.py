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


def test_companion_certificate_handles_complex_dominance():
    cert = derive_growth_certificate(COMPANION_DUAL, (0, 0, 1), 20)
    assert cert.rigorous
    kinds = {cert.forward.kind, cert.backward.kind}
    assert kinds == {"cone"}
    assert 2 in {cert.forward.level, cert.backward.level}
    assert check_growth_certificate(COMPANION_DUAL, (0, 0, 1), cert, 20) == []
    brute = brute_min_norm_outside_window(COMPANION_DUAL, (0, 0, 1), 20, 400)
    assert brute >= cert.min_exterior_norm


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
