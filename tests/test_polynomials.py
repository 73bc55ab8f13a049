import random
import time
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tordyn.growth import CONE_POWER_STEPS
from tordyn.intmat import char_poly, compound_matrix, mat_pow
from tordyn.polynomials import (
    cyclotomic,
    cyclotomic_orders_if_product,
    divides,
    divmod_exact,
    exterior_square_poly,
    is_squarefree_product_of_cyclotomics,
    mul,
    normalize,
    power_poly,
    primitive_part,
    rational_factors,
    reciprocal,
    root_power_poly,
    strip_cyclotomic_factors,
    totient,
)


def test_cyclotomic_small_orders():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_is_x_pow_m_minus_one():
    for m in (1, 2, 3, 4, 6, 8, 12, 15):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = mul(prod, cyclotomic(d))
        expected = tuple([-1] + [0] * (m - 1) + [1])
        assert prod == expected


def test_totient_values():
    values = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 12: 4, 30: 8}
    for m, phi in values.items():
        assert totient(m) == phi


def test_divmod_exact_requires_unit_lead():
    q, r = divmod_exact((1, 0, 1), (1, 1))  # x^2 + 1 = (x+1)(x-1) + 2
    assert q == (-1, 1) and r == (2,)
    with pytest.raises(ValueError):
        divmod_exact((1, 0, 1), (1, 2))


def test_is_product_of_cyclotomics_examples():
    assert cyclotomic_orders_if_product((1, 0, 1)) == [4]
    assert cyclotomic_orders_if_product((1, -3, 1)) is None
    assert cyclotomic_orders_if_product((1, -2, 1)) == [1, 1]


def test_cyclotomic_stripping_leaves_the_noncyclotomic_part():
    p = mul((1, -3, 1), cyclotomic(4))
    orders, rest = strip_cyclotomic_factors(p)
    assert orders == [4]
    assert rest == (1, -3, 1)


def test_squarefree_cyclotomic_product():
    assert is_squarefree_product_of_cyclotomics((-1, 0, 0, 1))  # x^3 - 1
    assert not is_squarefree_product_of_cyclotomics((1, -2, 1))  # (x-1)^2
    assert not is_squarefree_product_of_cyclotomics((1, -3, 1))


def test_rational_factors_examples():
    # irreducible: no rational roots, not a square discriminant
    assert rational_factors((1, -3, 1)) == [((1, -3, 1), 1)]
    facts = rational_factors((-1, 0, 1))  # x^2 - 1
    assert [(f, e) for f, e in facts] == [((-1, 1), 1), ((1, 1), 1)]
    # irreducible: x^3 - x - 1, no rational roots
    assert rational_factors((-1, -1, 0, 1)) == [((-1, -1, 0, 1), 1)]


def test_rational_factors_reconstruct_randomized():
    rng = random.Random(11)
    atoms = [(-1, 1), (1, 1), (1, 0, 1), (1, -3, 1), (-1, -1, 0, 1), (1, 1, 1)]
    for _ in range(40):
        p = (1,)
        for _ in range(rng.randint(1, 3)):
            p = mul(p, atoms[rng.randrange(len(atoms))])
        facts = rational_factors(p)
        check = (1,)
        for f, e in facts:
            check = mul(check, power_poly(f, e))
        assert check == p or check == tuple(-c for c in p)


def test_rational_root_oracle_agreement():
    # any integer root r of p must show up as a factor (x - r)
    rng = random.Random(5)
    for _ in range(30):
        r = rng.randint(-4, 4)
        cof = (rng.randint(-3, 3), 1)
        p = mul((-r, 1), cof)
        facts = rational_factors(p)
        assert any(f == (-r, 1) or f == (r, -1) for f, _ in facts) or (-r, 1) == cof


def _sympy_factors(p):
    """sympy's factor_list over Z, in the form rational_factors returns."""
    from sympy import Poly as SymPoly, Symbol, ZZ

    _, factors = SymPoly(list(reversed(p)), Symbol("x"), domain=ZZ).factor_list()
    out = [(primitive_part(normalize(reversed([int(c) for c in f.all_coeffs()]))), int(e))
           for f, e in factors]
    return sorted(out, key=lambda fe: (len(fe[0]), fe[0]))


def _monic_up_to_sign_factor():
    return st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d),
            st.sampled_from((1, -1)),
        ).map(lambda parts: (*parts[0], parts[1]))
    )


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(_monic_up_to_sign_factor(), st.integers(1, 3)),
                      min_size=1, max_size=4))
def test_rational_factors_match_sympy_on_products(parts):
    p = (1,)
    for f, e in parts:
        if len(p) - 1 + e * (len(f) - 1) <= 10:
            p = mul(p, power_poly(f, e))
    if len(p) < 2:
        p = parts[0][0]
    assert rational_factors(p) == _sympy_factors(p)


@settings(max_examples=40, deadline=None)
@given(orders=st.lists(st.integers(1, 30), min_size=1, max_size=4))
def test_rational_factors_match_sympy_on_cyclotomic_products(orders):
    p = reduce(mul, (cyclotomic(m) for m in orders))
    assert rational_factors(p) == _sympy_factors(p)


def _bench_matrices():
    """The matrices of the benchmark workloads, up to conjugation: the cat
    map, companions, the finite-order, shear and block matrices, the
    hyperoctahedral and SL_2(Z) generators, and every companion the seeded
    family-spread sample can draw (cubics and quartics with coefficients in
    [-2, 2] and constant term +-1)."""
    polys = [(-1, -1, 0, 1), (-1, -1, 0, 0, 0, 1), (1, 2, -1, 0, 0, 1),
             (1, 1, 2, 1, 1, 1, 1), (1, -1, 1, -1, -2, 0, 1)]
    for d in (3, 4):
        for const in (1, -1):
            for mid in product(range(-2, 3), repeat=d - 1):
                polys.append((const, *mid, 1))
    mats = [_companion(p) for p in polys]
    mats += [((2, 1), (1, 1)), ((0, 0, -1), (1, 0, 0), (0, 1, 0)), ((1, 1), (0, 1)),
             ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
             ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
             ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0)),
             ((0, -1), (1, 0)), ((0, -1), (1, 1))]
    for n in (4, 5):
        mats.append(tuple(tuple(1 if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1) else 0
                                for j in range(n)) for i in range(n)))
        mats.append(tuple(tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n)))
        mats.append(tuple(tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(n))
                          for i in range(n)))
    return mats


def test_rational_factors_match_sympy_on_bench_characteristic_polynomials():
    for m in _bench_matrices():
        p = char_poly(m)
        assert rational_factors(p) == _sympy_factors(p), m


@pytest.mark.parametrize("p", [
    (1, 0, 0, 0, 1),  # x^4 + 1
    (1, 0, -10, 0, 1),  # minimal polynomial of sqrt 2 + sqrt 3
    (576, 0, -960, 0, 352, 0, -40, 0, 1),  # of sqrt 2 + sqrt 3 + sqrt 5
])
def test_irreducible_polynomial_split_mod_every_prime_is_fast(p):
    # each splits into factors of degree <= 2 mod every prime, so irreducibility
    # is only decided when no subset of the lifted factors divides
    started = time.perf_counter()
    assert rational_factors(p) == [(p, 1)]
    assert time.perf_counter() - started < 1


def test_distinct_cyclotomic_divisors():
    # a repeated factor is stripped with its multiplicity; its order is the
    # one distinct cyclotomic divisor
    p = mul(mul(cyclotomic(1), cyclotomic(1)), (1, -3, 1))
    orders, rest = strip_cyclotomic_factors(p)
    assert orders == [1, 1]
    assert sorted(set(orders)) == [1]
    assert rest == (1, -3, 1)


def test_reciprocal():
    assert reciprocal((2, 0, 1)) == (1, 0, 2)
    assert reciprocal((0, 1)) == (1,)


def _companion(p):
    """Companion matrix of the monic p (ascending coefficients); its
    characteristic polynomial is p."""
    d = len(p) - 1
    rows = [tuple(1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)]
    rows.append(tuple(-c for c in p[:-1]))
    return tuple(rows)


def _monic_unit_constant(min_degree):
    return st.integers(min_degree, 6).flatmap(
        lambda d: st.tuples(
            st.sampled_from((1, -1)),
            st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1),
        ).map(lambda parts: (parts[0], *parts[1], 1))
    )


@settings(max_examples=150, deadline=None)
@given(
    p=_monic_unit_constant(1),
    q=st.one_of(st.sampled_from(CONE_POWER_STEPS), st.integers(1, 96)),
)
def test_root_power_poly_matches_companion_power(p, q):
    assert root_power_poly(p, q) == char_poly(mat_pow(_companion(p), q))


@settings(max_examples=150, deadline=None)
@given(p=_monic_unit_constant(2))
def test_exterior_square_poly_matches_second_compound(p):
    assert exterior_square_poly(p) == char_poly(compound_matrix(_companion(p), 2))


def test_power_sum_routines_reject_bad_input():
    with pytest.raises(ValueError):
        root_power_poly((1, 1, 2), 2)  # not monic
    with pytest.raises(ValueError):
        root_power_poly((-1, -1, 1), 0)
    with pytest.raises(ValueError):
        exterior_square_poly((1, 2))
