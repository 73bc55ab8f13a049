import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    block_diag,
    charpoly_cofactor,
    direct_order,
    direct_order_bound_12,
    mat_mul_triple_loop,
    random_word,
    signed_permutation_matrices,
)
from tordyn.intmat import (
    UnimodularMatrix,
    char_poly,
    compound_matrix,
    det,
    identity,
    inverse_unimodular,
    is_unipotent,
    mat_mul,
    matrix_order,
    transpose,
)


def test_char_poly_examples():
    assert char_poly(identity(2)) == (1, -2, 1)
    assert char_poly(((2, 1), (1, 1))) == (1, -3, 1)
    assert char_poly(((0, -1), (1, 0))) == (1, 0, 1)


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        assert char_poly(a) == charpoly_cofactor(a)


def test_char_poly_constant_term_is_signed_det():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 3)
        t = random_word(rng, n)
        cp = char_poly(t.rows)
        assert cp[0] == (-1) ** n * det(t.rows)
        assert cp[0] in (1, -1)


def test_unimodular_validation():
    with pytest.raises(ValueError):
        UnimodularMatrix(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        UnimodularMatrix(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        UnimodularMatrix(((1.5, 0), (0, 1)))


@pytest.mark.parametrize("rows", [
    ((1.0, True), (0, 1)),  # equal to ((1, 1), (0, 1)), but neither entry is an int
    ((True, 0), (0, 1)),
    ((1, 0), (0, 1.0)),
])
def test_unimodular_rejects_bool_and_float_entries(rows):
    with pytest.raises(ValueError, match="vector entries must be exact integers"):
        UnimodularMatrix(rows)


def test_inverse_unimodular():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 3)
        t = random_word(rng, n)
        inv = inverse_unimodular(t.rows)
        assert mat_mul(t.rows, inv) == identity(n)
        assert mat_mul(inv, t.rows) == identity(n)


def test_matrix_order_examples():
    assert matrix_order(UnimodularMatrix(((1, 0), (0, 1)))) == 1
    assert matrix_order(UnimodularMatrix(((0, -1), (1, 0)))) == 4
    assert matrix_order(UnimodularMatrix(((1, 1), (0, 1)))) is None
    assert matrix_order(UnimodularMatrix(((0, -1), (1, -1)))) == 3
    assert matrix_order(UnimodularMatrix(((2, 1), (1, 1)))) is None


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        rows += [(0,) * offset + tuple(r) + (0,) * (n - offset - len(b)) for r in b]
        offset += len(b)
    return tuple(rows)


@pytest.mark.parametrize(
    "last_block, expected",
    [(((1, 1), (0, 1)), None), (((1, 0), (0, 1)), 4620)],
    ids=["shear", "identity"],
)
def test_matrix_order_at_lcm_4620_is_fast(last_block, expected):
    # companions of Phi_3, Phi_4, Phi_5, Phi_7, Phi_11 plus a 2x2 block:
    # n = 26, and the orders bound the search at lcm = 4620
    import time

    from tordyn.polynomials import cyclotomic

    def companion(low):
        d = len(low) - 1
        return [tuple(1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)] + [
            tuple(-c for c in low[:-1])
        ]

    t = UnimodularMatrix(_block_diagonal(
        *(companion(cyclotomic(m)) for m in (3, 4, 5, 7, 11)), last_block
    ))
    assert t.n == 26
    started = time.perf_counter()
    assert matrix_order(t) == expected
    assert time.perf_counter() - started < 0.5


def test_matrix_order_against_direct_powering():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.choice((2, 3))
        t = random_word(rng, n)
        order = matrix_order(t)
        assert (order is not None) == direct_order_bound_12(t)
        if order is not None:
            assert t.power(order).is_identity()
            for d in range(1, order):
                assert not t.power(d).is_identity()


def test_matrix_order_in_dimensions_four_and_five():
    from tordyn.polynomials import cyclotomic_orders_if_product

    shear2 = ((1, 1), (0, 1))
    shear3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    rot4 = ((0, -1), (1, 0))
    rot6 = ((0, 0, -1), (1, 0, 0), (0, 1, 0))
    for rows in (block_diag(shear2, rot4), block_diag(shear2, rot6),
                 block_diag(shear3, rot4)):
        assert cyclotomic_orders_if_product(char_poly(rows)) is not None
        assert matrix_order(UnimodularMatrix(rows)) is None
    # every finite order in GL_4(Z) divides 120 = lcm{m : phi(m) <= 4}
    for rows in signed_permutation_matrices(4):
        t = UnimodularMatrix(rows)
        assert matrix_order(t) == direct_order(t, 120) is not None


def test_matrix_order_consistent_with_cyclotomic_test():
    from tordyn.polynomials import cyclotomic_orders_if_product

    rng = random.Random(9)
    for _ in range(80):
        t = random_word(rng, rng.choice((2, 3)))
        order = matrix_order(t)
        cyclo = cyclotomic_orders_if_product(char_poly(t.rows))
        if order is not None:
            assert cyclo is not None
        if cyclo is None:
            assert order is None


def _matrices(rows, cols):
    entry = st.integers(-10 ** 30, 10 ** 30)
    row = st.lists(entry, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


@st.composite
def _product_pairs(draw):
    m, k, p = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 6))
    return draw(_matrices(m, k)), draw(_matrices(k, p))


@settings(max_examples=200, deadline=None)
@given(_product_pairs())
@example((((1, 2, 3),), ((), (), ())))
def test_mat_mul_matches_triple_loop(pair):
    a, b = pair
    assert mat_mul(a, b) == mat_mul_triple_loop(a, b)


def test_is_unipotent():
    assert is_unipotent(UnimodularMatrix(((1, 1), (0, 1))))
    assert is_unipotent(UnimodularMatrix(((1, 0), (0, 1))))
    assert not is_unipotent(UnimodularMatrix(((0, -1), (1, 0))))


def test_compound_matrix_multiplicative():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        a = random_word(rng, 2 if n == 2 else 3).rows if n in (2, 3) else None
        if a is None or len(a) != n:
            a = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
            if det(a) == 0:
                continue
        b = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        if det(b) == 0:
            continue
        left = compound_matrix(mat_mul(a, b), k)
        right = mat_mul(compound_matrix(a, k), compound_matrix(b, k))
        assert left == right


def test_compound_adjugate_identity():
    # for n x n unimodular T, the (n-1)-compound is det(T) times the
    # inverse-transpose up to index ordering; check via determinants
    rng = random.Random(17)
    for _ in range(20):
        t = random_word(rng, 3)
        c = compound_matrix(t.rows, 2)
        assert det(c) in (1, -1)


def test_transpose_involution():
    a = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(a)) == a


def test_minimal_polynomial_divides_power_relation():
    from tordyn.lattices import matrix_minimal_polynomial
    from tordyn.polynomials import divides

    rng = random.Random(19)
    seen_finite = 0
    while seen_finite < 25:
        t = random_word(rng, rng.choice((2, 3)))
        order = matrix_order(t)
        if order is None:
            continue
        seen_finite += 1
        mu = matrix_minimal_polynomial(t.rows)
        x_m_minus_1 = tuple([-1] + [0] * (order - 1) + [1])
        assert divides(mu, x_m_minus_1)
