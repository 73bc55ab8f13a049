import random
from contextlib import contextmanager
from fractions import Fraction
from math import ceil, floor
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import pseudo_inverse_transfer_constant, random_word, rational_rank
from tordyn.dynamics import dual_matrix
from tordyn.growth import (
    DirectionSequence,
    GrowthSearch,
    ImpulseResponse,
    check_growth_certificate,
    derive_growth_certificate,
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
    t = ImpulseResponse((1, -3, 1))
    # x^2 = 3x - 1: forward 1, 0, -1, -3, -8, -21, -55
    assert [t[i] for i in range(7)] == [1, 0, -1, -3, -8, -21, -55]
    # backward values satisfy the reversed recurrence
    for m in range(-6, 4):
        assert t[m + 2] == 3 * t[m + 1] - t[m]
    assert t.known == (-6, 6)


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


def test_transfer_constant_matches_pseudo_inverse_oracle():
    # the integer adjugate quotient gives the very Fraction of the rational
    # pseudo-inverse formula
    rng = random.Random(171)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 7)
        d = rng.randint(1, min(n, 6))
        basis = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(d))
        if rational_rank(basis) < d:
            continue
        assert transfer_constant(basis) == pseudo_inverse_transfer_constant(basis)
        checked += 1


def test_transfer_constant_rejects_rank_deficient_bases():
    rng = random.Random(172)
    for _ in range(40):
        n = rng.randint(1, 7)
        d = rng.randint(2, min(n, 6) + 1)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d - 1)]
        # the last row is an integer combination of the others
        coeffs = [rng.randint(-2, 2) for _ in rows]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
        rng.shuffle(rows)
        with pytest.raises(ValueError):
            transfer_constant(tuple(map(tuple, rows)))


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
    bad = replace(cert, transfer=cert.transfer / 2)
    assert check_growth_certificate(CAT_DUAL, (0, 1), bad, 8) == ["transfer constant mismatch"]
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
        (ConeEntry(0, 6, -1), ConeEntry(1, 5, -1)), floor_seq=4,
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


def _numpy_hints(p):
    """The hint rule applied to numpy.roots of p itself: what the cone
    search read before it took its hints from the annihilator's roots."""
    import numpy as np

    from tordyn.growth import _root_hints

    return _root_hints([complex(z) for z in np.roots([float(c) for c in reversed(p)])])


def _usable(hints):
    return hints is not None and hints[0] > 1.0001 and hints[1] < 0.999 * hints[0]


def _hint_mismatches(g):
    """Every (direction, level, q) at which the hints from the roots of g and
    from numpy.roots(root_power_poly(...)) disagree on usability or, where
    floats determine it, on the picked (mu, nu).

    A q-step polynomial with a coefficient beyond the float range is
    skipped: numpy cannot take it, so the old search had no hint there.
    Picks are compared where the q-step polynomial is squarefree and rho is
    below 2^22.  numpy splits an m-fold root by about eps^(1/m), which moves
    the second modulus by up to 1e-4 (the roots of g repeat a multiple root
    exactly).  Above 2^22, 256 * nu exceeds 2^32, and a relative error of
    1e-15 in rho, within both methods' precision, moves the rounded nu."""
    from itertools import combinations

    from tordyn.growth import (
        CONE_POWER_STEPS,
        _pick_cone_ratios,
        _powered_hints,
        float_roots,
    )
    from tordyn.polynomials import exterior_square_poly, root_power_poly, squarefree_decomposition

    roots = float_roots(g)
    out = []
    for direction in ("forward", "backward"):
        rec = g if direction == "forward" else reciprocal_monic(g)
        rr = roots if direction == "forward" else [1 / z for z in roots]
        levels = [(1, rec, rr)]
        if len(g) - 1 >= 3:
            levels.append((2, exterior_square_poly(rec), [a * b for a, b in combinations(rr, 2)]))
        for level, rec_l, rr_l in levels:
            for q in CONE_POWER_STEPS:
                qpoly = root_power_poly(rec_l, q)
                try:
                    [float(c) for c in qpoly]
                except OverflowError:
                    continue
                old, new = _numpy_hints(qpoly), _powered_hints(rr_l, q)
                if _usable(old) != _usable(new):
                    out.append((direction, level, q, "usability", old, new))
                elif (_usable(old) and old[0] < 2**22
                      and squarefree_decomposition(qpoly) == [(qpoly, 1)]
                      and _pick_cone_ratios(qpoly, *old) != _pick_cone_ratios(qpoly, *new)):
                    out.append((direction, level, q, "pick", old, new))
    return out


def test_root_hints_agree_with_numpy_on_a_seeded_sample():
    from tordyn.polynomials import is_squarefree_product_of_cyclotomics

    rng = random.Random(2031)
    checked = 0
    while checked < 200:
        d = rng.randint(2, 6)
        g = (rng.choice((1, -1)), *(rng.randint(-3, 3) for _ in range(d - 1)), 1)
        if is_squarefree_product_of_cyclotomics(g):
            continue  # a periodic orbit: no growth evidence is searched
        checked += 1
        assert _hint_mismatches(g) == [], g


@pytest.mark.parametrize("g", [
    (1, 2, -1, -2, 1),  # (x^2 - x - 1)^2: level 2 has the simple root phi^2 = phi * phi
    (1, 2, 1, -2, -2, 0, 1),  # (x^3 - x - 1)^2
])
def test_root_hints_agree_with_numpy_on_repeated_roots(g):
    # a double root found as two nearby floats would make their product, a
    # simple root of the Hankel recurrence, complex
    assert _hint_mismatches(g) == []


@pytest.mark.parametrize("g", [
    (1, -1, -10**10, 1),  # x^3 - 10^10 x^2 - x + 1: roots near 1e10 and +-1e-5
    # x^5 - 10^10 x^3 + 1: roots near +-1e5 and of modulus 4.6e-4; its level 2
    # polynomials at q = 16 and 24 leave the float range
    (1, 0, 0, -10**10, 0, 1),
])
def test_float_roots_of_widely_spread_moduli(g):
    import numpy as np

    from tordyn.growth import float_roots

    ref = [complex(z) for z in np.roots([float(c) for c in reversed(g)])]
    for z in float_roots(g):
        nearest = min(ref, key=lambda r: abs(r - z))
        assert abs(nearest - z) <= 1e-9 * abs(nearest)
        ref.remove(nearest)
    assert _hint_mismatches(g) == []


@contextmanager
def recorded_terms():
    """Record every impulse term and every Hankel determinant computed in the
    block, as ("t", side, list position) and ("hankel", direction sign,
    index), and every impulse response that computed a term."""
    computed, responses = [], []
    extend, det = ImpulseResponse._extend, DirectionSequence._det

    def counted_extend(self, ahead, i):
        if self not in responses:
            responses.append(self)
        n = len(self._ahead if ahead else self._behind)
        computed.extend(("t", ahead, k) for k in range(n, i + 1))
        extend(self, ahead, i)

    def counted_det(self, j):
        computed.append(("hankel", self._sign, j))
        return det(self, j)

    with patch.object(ImpulseResponse, "_extend", counted_extend), \
            patch.object(DirectionSequence, "_det", counted_det):
        yield computed, responses


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda d: st.tuples(
        st.sampled_from((1, -1)),
        st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1),
    )),
    st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True),
)
# (x - 1)^2: the polynomial path reads past the window, so a search that did
# not extend its impulse values would fail at the wider radius
@example((1, [-2]), [1, 300])
# the two narrow-gap sextics through the radii of their family builds
@example((1, [0, -2, -1, 1, -1]), [24, 36, 54, 81, 96])
@example((1, [1, 2, 1, 1, 1]), [24, 36, 54, 81, 96])
def test_one_search_through_many_radii_equals_fresh_searches(poly, radii):
    # a search keeps its impulse response, sequences, roots and cone ratios
    # across radii, and computes each impulse term and Hankel determinant
    # once; at each radius its evidence is what a fresh search derives there,
    # when it is widened through the radii in ascending order and in drawn
    # order
    from tordyn.polynomials import is_squarefree_product_of_cyclotomics

    c0, middle = poly
    g = (c0, *middle, 1)
    assume(not is_squarefree_product_of_cyclotomics(g))
    fresh = {radius: GrowthSearch(g).evidence(radius) for radius in radii}
    for order in (sorted(radii), radii):
        with recorded_terms() as (computed, _):
            search = GrowthSearch(g)
            for radius in order:
                assert search.evidence(radius) == fresh[radius]
        assert len(set(computed)) == len(computed)


def test_checker_computes_only_the_terms_its_tests_read():
    # the honest cone evidence of the x^5 - x - 1 family members' annihilator
    # at radius 54, where both directions have a cone (the family itself now
    # stops at a smaller radius, on a Lyapunov form): each direction reads
    # its entry chains, at most q (dd - 1) past the entry at or below
    # cover_from + 1, and computes no impulse term beyond them, far short of
    # the span the checker allows
    from tordyn.families import disjoint_hyperplane_orbits
    from tordyn.growth import check_growth_evidence, growth_evidence

    companion = UnimodularMatrix(((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                                  (0, 0, 0, 0, 1), (1, 1, 0, 0, 0)))
    report = disjoint_hyperplane_orbits(companion, 3).orbit_reports[0]
    window, annihilator = 54, report.growth.annihilator
    evidence = growth_evidence(annihilator, window)
    assert {dc.kind for dc in evidence} == {"cone"}
    with recorded_terms() as (_, responses):
        assert check_growth_evidence(annihilator, evidence, window) == []
    (t,) = responses
    d = len(annihilator) - 1
    reach = {dc.direction: window + 2 + dc.power_step * ((d if dc.level == 1 else d * (d - 1) // 2) - 1)
             for dc in evidence}
    span = window + 2 + (max(dc.power_step for dc in evidence) + 26) * (d * d + d + 2)
    lo, hi = t.known
    assert hi + 1 <= reach["forward"] < span
    assert -lo <= reach["backward"] < span


def _ratios():
    """Rationals with arbitrary denominators, zero and negative ones among them."""
    return st.fractions(min_value=-3, max_value=40, max_denominator=10**6)


@st.composite
def cones(draw):
    """A monic recurrence of degree <= 15 and ratios (mu, nu): drawn freely,
    or around a dominant coefficient c, where the cone [c - x, c + y] is
    often invariant."""
    degree = draw(st.integers(1, 15))
    low = draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree))
    if draw(st.booleans()):
        c = draw(st.integers(2, 10**4))
        low[-1] = -c
        slack = st.fractions(min_value=0, max_value=1, max_denominator=10**4)
        mu, nu = c - draw(slack), c + draw(slack)
    else:
        mu, nu = draw(_ratios()), draw(_ratios())
    return (*low, 1), mu, nu


@settings(max_examples=300, deadline=None)
@given(cones())
@example(((-2, 1), Fraction(2), Fraction(2)))  # x - 2: the cone [2, 2] holds exactly
@example(((-1, -1, 1), Fraction(1), Fraction(2)))  # mu = 1 is refused
@example(((-1, -3, 1), Fraction(3), Fraction(5, 2)))  # mu > nu is refused
def test_integer_cone_invariance_matches_fractions(cone):
    from oracles import fraction_cone_is_invariant

    from tordyn.growth import cone_is_invariant

    qpoly, mu, nu = cone
    assert cone_is_invariant(qpoly, mu, nu) == fraction_cone_is_invariant(qpoly, mu, nu)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_cone_entries_and_floors_match_fractions(data):
    # chains built to stay inside [mu, nu] where the integers allow, so that
    # entries are often accepted; any rational mu and nu, including mu > nu
    from oracles import fraction_cone_floor, fraction_enters_cone

    from tordyn.growth import ConeEntry, _cone_floor, enters_cone

    mu, nu = data.draw(_ratios()), data.draw(_ratios())
    q, dd = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    sign = data.draw(st.sampled_from((1, -1)))
    start = data.draw(st.integers(-2, 6))
    seq = {j: data.draw(st.integers(-50, 50)) for j in range(-2, start + q * (dd + 3) + 2)}
    x = data.draw(st.integers(1, 10**6))
    for i in range(dd):
        seq[start + q * i] = sign * x
        lo, hi = max(ceil(mu * x), 1), floor(nu * x)
        x = data.draw(st.integers(lo, hi) if lo <= hi else st.integers(-5, 10**6))
    entry = ConeEntry(start % q, start, sign)
    assert enters_cone(seq, q, dd, mu, nu, entry) == fraction_enters_cone(seq, q, dd, mu, nu, start, sign)
    cover_from = data.draw(st.integers(start - 1, start + 3 * q))
    starts = [start] + data.draw(st.lists(st.integers(-2, cover_from + 1), max_size=3))
    entries = [ConeEntry(s % q, s, 1) for s in starts]
    assert _cone_floor(seq, q, mu, entries, cover_from) == fraction_cone_floor(seq, q, mu, starts, cover_from)


@pytest.mark.parametrize("g", [(1, -3, 1), (-1, -1, 0, 1), (1, 1, 2, 1, 1, 1, 1)])
def test_direction_sequences_read_the_impulse_response_on_their_range(g):
    # levels 0 and 1 read t(j) forward and t(-j) backward on [-2, cap]; level
    # 2 reads the Hankel determinants on [-2, cap - 2]; `in` computes nothing
    from tordyn.growth import direction_sequence
    from tordyn.polynomials import exterior_square_poly

    cap, t = 30, ImpulseResponse(g)
    for direction, sign, g_dir in (("forward", 1, g), ("backward", -1, reciprocal_monic(g))):
        for level in (0, 1, 2):
            seq = direction_sequence(t, direction, level, cap)
            if level == 2 and len(g) - 1 < 3:
                assert seq is None
                continue
            shift = 2 if level == 2 else 0
            assert seq.recurrence == (exterior_square_poly(g_dir) if level == 2 else g_dir)
            assert seq.max_index == cap - shift and seq.cover_from(12) == 12 - shift
            known = t.known
            assert [j for j in range(-10, cap + 10) if j in seq] == list(range(-2, cap - shift + 1))
            assert t.known == known
            for j in (-3, cap - shift + 1):
                with pytest.raises(KeyError):
                    seq[j]
            for j in range(-2, cap - shift + 1):
                s = [t[sign * (j + i)] for i in range(3)]
                assert seq[j] == (s[0] * s[2] - s[1] ** 2 if level == 2 else s[0])
    assert direction_sequence(t, "sideways", 1, cap) is None


# the narrow-gap annihilators of the bench (constant term first), whose
# families have a cone in one direction only
NARROW_GAP = [(1, 2, -1, 0, 0, 1), (1, 1, 2, 1, 1, 1, 1), (1, -1, 1, -1, -2, 0, 1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(-12, 12), st.integers(1, 6).flatmap(
    lambda d: st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_positive_definite_matches_fraction_ldl(shift, rows):
    # symmetric integer matrices, shifted along the diagonal so that both
    # answers occur
    from oracles import fraction_ldl_pivots

    from tordyn.lyapunov import is_positive_definite

    d = len(rows)
    m = [[rows[i][j] + rows[j][i] + (shift if i == j else 0) for j in range(d)] for i in range(d)]
    assert is_positive_definite(m) == all(p > 0 for p in fraction_ldl_pivots(m))


@pytest.mark.parametrize("g", NARROW_GAP + [(-1, -1, 0, 1), (1, -3, 1)])
def test_power_coordinates_and_stein_residual_match_the_companion(g):
    # x_m is C^m e_0 both ways, its first entry is the impulse response, and
    # the residual is C^T N C - N by matrix products
    from oracles import mat_mul_triple_loop, multiplication_by_x

    from tordyn.lyapunov import power_coordinates, stein_residual

    d = len(g) - 1
    c = multiplication_by_x(g)
    c_inv = inverse_unimodular(tuple(map(tuple, c)))
    t = ImpulseResponse(g)
    x = y = (1,) + (0,) * (d - 1)
    for m in range(1, 30):
        x, y = mat_vec(c, x), mat_vec(c_inv, y)
        assert power_coordinates(g, m) == x and power_coordinates(g, -m) == y
        assert x[0] == t[m] and y[0] == t[-m]
    n = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(d)] for i in range(d)]
    n = [[n[i][j] + n[j][i] for j in range(d)] for i in range(d)]
    expected = mat_mul_triple_loop(mat_mul_triple_loop(transpose(c), n), c)
    assert stein_residual(g, n) == [[e - x for e, x in zip(er, nr)] for er, nr in zip(expected, n)]


@pytest.mark.parametrize("g", NARROW_GAP)
def test_narrow_gap_floors_hold_on_the_direct_walk(g):
    # every member's Lyapunov floor at radius 24 is at most the least norm of
    # the orbit for 24 < |m| < 200, walked directly
    s = companion_dual(g)
    v = (0,) * (len(s) - 1) + (1,)
    cert = derive_growth_certificate(s, v, 24)
    assert cert.rigorous and "lyapunov" in {cert.forward.kind, cert.backward.kind}
    assert check_growth_certificate(s, v, cert, 24) == []
    assert brute_min_norm_outside_window(s, v, 24, 199) >= cert.min_exterior_norm


def _no_root_on_the_unit_circle(g) -> bool:
    import numpy as np

    return all(abs(abs(z) - 1) > 1e-6 for z in np.roots(list(reversed(g))))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda d: st.tuples(
        st.sampled_from((1, -1)),
        st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1),
    )),
    st.integers(1, 30),
)
@example((1, [2, -1, 0, 0]), 24)
@example((1, [1, 2, 1, 1, 1]), 24)
@example((1, [-1, 1, -1, -2, 0]), 24)
@example((-1, [-1, 1, -1]), 24)  # x^4 - x^3 + x^2 - x - 1
@example((-1, [-1, 0, 0, 0]), 3)  # x^5 - x - 1
def test_lyapunov_floors_hold_three_windows_out(poly, window):
    # whenever the search gives a Lyapunov direction, the checker accepts the
    # certificate, and every S^m v with window < |m| <= 3 window in that
    # direction meets the derived norm floor, and its coordinates x_m the
    # sequence floor
    from tordyn.growth import norm_floor
    from tordyn.lyapunov import power_coordinates

    c0, middle = poly
    g = (c0, *middle, 1)
    assume(_no_root_on_the_unit_circle(g))
    s = companion_dual(g)
    v = (0,) * (len(s) - 1) + (1,)
    cert = derive_growth_certificate(s, v, window)
    assert check_growth_certificate(s, v, cert, window) == []
    for dc, step, sign in ((cert.forward, s, 1), (cert.backward, inverse_unimodular(s), -1)):
        if dc.kind != "lyapunov":
            continue
        floor = norm_floor(dc.floor_seq, dc.level, cert.transfer)
        cur = v
        for m in range(1, 3 * window + 1):
            cur = mat_vec(step, cur)
            if m > window:
                assert max(map(abs, cur)) >= floor
                assert max(map(abs, power_coordinates(cert.annihilator, sign * m))) >= dc.floor_seq


def test_checker_rejects_lyapunov_forgeries():
    # the honest form of x^4 - x^3 + x^2 - x - 1 backward at radius 24, and
    # one forgery per exact test, each refused by its own message
    from dataclasses import replace

    from tordyn.growth import DirectionCertificate, check_growth_evidence, growth_evidence

    g = (-1, 1, -1, 1, 1)
    window_only = DirectionCertificate("forward", "window_only")
    honest = growth_evidence(g, 24)[1]
    assert honest.kind == "lyapunov"
    assert check_growth_evidence(g, (window_only, honest), 24) == []
    form = honest.form
    forgeries = {
        "not positive definite": replace(honest, form=tuple(tuple(-x for x in row) for row in form)),
        "not symmetric": replace(honest, form=((form[0][0], form[0][1] + 1, *form[0][2:]), *form[1:])),
        "not 4 x 4": replace(honest, form=tuple(row[:3] for row in form[:3])),
        "floor too large": replace(honest, floor_seq=honest.floor_seq + 1),
        "carries cone data": replace(honest, power_step=1),
    }
    for message, forged in forgeries.items():
        (problem,) = check_growth_evidence(g, (window_only, forged), 24)
        assert message in problem, (message, problem)
    # V is negative up to x_4, so the honest form has the wrong sign at the
    # forward edge of a window of radius 2
    forward = replace(honest, direction="forward", floor_seq=1)
    assert check_growth_evidence(g, (forward, replace(window_only, direction="backward")), 2) == [
        "forward: V has the wrong sign at the window edge"
    ]
