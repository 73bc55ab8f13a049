import random

import pytest
from hypothesis import given, settings, strategies as st

from tordyn.growth import CONE_POWER_STEPS
from tordyn.intmat import char_poly, compound_matrix, mat_pow
from tordyn.polynomials import (
    cyclotomic,
    cyclotomic_orders_if_product,
    distinct_cyclotomic_divisors,
    divides,
    divmod_exact,
    exterior_square_poly,
    is_irreducible,
    is_squarefree_product_of_cyclotomics,
    mul,
    power_poly,
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
    assert is_irreducible((1, -3, 1))  # no rational roots, not a square disc
    facts = rational_factors((-1, 0, 1))  # x^2 - 1
    assert [(f, e) for f, e in facts] == [((-1, 1), 1), ((1, 1), 1)]
    assert is_irreducible((-1, -1, 0, 1))  # x^3 - x - 1, no rational roots


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


def test_distinct_cyclotomic_divisors():
    p = mul(mul(cyclotomic(1), cyclotomic(1)), (1, -3, 1))
    assert distinct_cyclotomic_divisors(p) == [1]


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
