"""The spectrum a matrix carries (intmat.Spectrum), and how often it is built.

Each property compares one piece of the spectrum with the computation it
replaces, on conjugated block sums of rotations, shears, the cat map and
companions of cyclotomic polynomials, n <= 6.  The call counts run CLI jobs
through cli.run_job with counting wrappers bound the way bench/tracing.py
binds its tracer: every name in a tordyn module that refers to the function.
"""

import sys
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import block_diag, matrix_minimal_polynomial, matrix_order_by_descent
from tordyn.cli import run_job
from tordyn.dynamics import acts_distally_on_subp, dual_matrix, is_distal_linear
from tordyn.intmat import (
    UnimodularMatrix,
    char_poly,
    det,
    identity,
    inverse_unimodular,
    mat_mul,
)
from tordyn.polynomials import cyclotomic, rational_factors, squarefree_decomposition


def _companion(p):
    d = len(p) - 1
    return tuple(tuple(1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)) + (
        tuple(-c for c in p[:-1]),)


BLOCKS = (
    ((1,),),
    ((-1,),),
    ((0, -1), (1, 0)),  # rotation of order 4
    ((0, -1), (1, -1)),  # rotation of order 3
    ((1, 1), (0, 1)),  # shear
    ((2, 1), (1, 1)),  # cat map
    ((1, 1, 0), (0, 1, 1), (0, 0, 1)),  # shear of T^3
) + tuple(_companion(cyclotomic(m)) for m in (5, 7, 8, 9, 10, 12))


@st.composite
def conjugated_block_sums(draw):
    """U B U^-1 for a block sum B of size n <= 6 and a unimodular U: a
    signed permutation times a few elementary matrices."""
    blocks, n = [], 0
    while True:
        fitting = [b for b in BLOCKS if n + len(b) <= 6]
        if not fitting:
            break
        b = draw(st.sampled_from(fitting))
        blocks.append(b)
        n += len(b)
        if draw(st.booleans()):
            break
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    u = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
    if n > 1:
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
        for i, j, c in draw(st.lists(ops, max_size=3)):
            if i != j:
                e = tuple(tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n))
                          for a in range(n))
                u = mat_mul(e, u)
    return UnimodularMatrix(mat_mul(mat_mul(u, reduce(block_diag, blocks)), inverse_unimodular(u)))


def _squarefree(p) -> bool:
    return all(e == 1 for _, e in squarefree_decomposition(p))


@settings(max_examples=150, deadline=None)
@given(conjugated_block_sums())
def test_spectrum_matches_the_separate_computations(t):
    spec = t.spectrum
    assert spec.order == matrix_order_by_descent(t)
    assert spec.factors == tuple(rational_factors(char_poly(t.rows)))
    assert spec.dual_factors == tuple(rational_factors(char_poly(dual_matrix(t).rows)))
    assert spec.minimal_polynomial == matrix_minimal_polynomial(t.rows)


@settings(max_examples=60, deadline=None)
@given(conjugated_block_sums())
def test_distal_on_subp_iff_distal_linear_with_squarefree_minimal_polynomial(t):
    mu = matrix_minimal_polynomial(t.rows)
    assert acts_distally_on_subp(t).distal == (is_distal_linear(t) and _squarefree(mu))


def test_distal_on_subp_iff_distal_linear_with_squarefree_minimal_polynomial_in_t2():
    # every automorphism of T^2 with entries in [-2, 2], through the CLI
    seen = 0
    for a, b, c, d in product(range(-2, 3), repeat=4):
        rows = [[a, b], [c, d]]
        if det(rows) not in (1, -1):
            continue
        seen += 1
        res = run_job({"command": "classify", "matrix": rows})
        mu = matrix_minimal_polynomial(tuple(map(tuple, rows)))
        assert res["distal_on_subp"] == (res["distal_linear"] and _squarefree(mu)), rows
        assert res["invariant_rational_subspaces"]["minimal_polynomial"] == list(mu)
    assert seen > 100


def _count_calls(monkeypatch, names):
    """Count the calls of tordyn.<module>.<function> for each name, through
    every alias a tordyn module holds."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key == "tordyn" or key.startswith("tordyn.")]
    for name in names:
        module, function = name.split(".")
        original = getattr(sys.modules[f"tordyn.{module}"], function)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


CAT = [[2, 1], [1, 1]]
ROTATION = [[0, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]
ORDER_6 = [[0, 0, -1], [1, 0, 0], [0, 1, 0]]
CAT_ROTATION = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
SHEAR_ROTATION = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
SIGNED_4_CYCLE = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]
SHEAR_3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]

# (command, matrix, count, whether verify reads the spectrum)
JOBS = [
    ("classify", m, None, False) for m in (CAT, ORDER_6, SHEAR_3, CAT_ROTATION, SIGNED_4_CYCLE)
] + [
    ("disjoint-family", ORDER_6, 4, True),
    ("disjoint-family", SHEAR, 4, True),
    ("disjoint-family", CAT, 4, False),
    ("disjoint-family", CAT_ROTATION, 3, False),
    ("certify-nonexpansive", ROTATION, 3, True),
    ("certify-nonexpansive", SHEAR_ROTATION, 3, True),
    ("certify-nonexpansive", CAT, 3, True),
]


@pytest.mark.parametrize("command, matrix, count, verify_reads_spectrum", JOBS,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(JOBS)])
def test_one_characteristic_polynomial_per_job(monkeypatch, command, matrix, count,
                                               verify_reads_spectrum):
    counts = _count_calls(monkeypatch, ("intmat.char_poly", "polynomials.rational_factors"))
    job = {"command": command, "matrix": matrix}
    if count is not None:
        job["parameters"] = {"count": count}
    cert = run_job(job)
    assert counts["intmat.char_poly"] == 1
    assert counts["polynomials.rational_factors"] <= 1
    if command == "classify":
        return
    counts.update(dict.fromkeys(counts, 0))
    assert run_job({"command": "verify", "certificate": cert})["ok"]
    # a greedy family's check reads the members' own orbits, not the spectrum
    assert counts["intmat.char_poly"] == (1 if verify_reads_spectrum else 0)
    assert counts["polynomials.rational_factors"] == 0


def test_spectrum_is_computed_once_per_matrix(monkeypatch):
    counts = _count_calls(monkeypatch, ("intmat.char_poly",))
    t = UnimodularMatrix(identity(3))
    assert t.spectrum is t.spectrum
    assert (t.spectrum.order, t.spectrum.factors, t.spectrum.dual_factors) == (
        1, (((-1, 1), 3),), (((-1, 1), 3),))
    assert counts["intmat.char_poly"] == 1
