"""Arbitrary-precision integer matrices: products, determinants, characteristic
polynomials, exterior powers, and the group elements of the automorphism group
of the n-torus (integer matrices of determinant +-1).

Matrices are tuples of row tuples of Python ints, so every value is immutable
and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .polynomials import Poly, cyclotomic_orders_if_product, normalize

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def as_vector(entries) -> Vec:
    """The entries as a tuple, each a Python int: a bool or an integral float
    is not an exact integer entry."""
    v = tuple(entries)
    if not all(type(x) is int for x in v):
        raise ValueError("vector entries must be exact integers")
    return v


def as_matrix(rows) -> Mat:
    m = tuple(as_vector(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> Mat:
    return tuple((0,) * cols for _ in range(rows))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a: Mat, v: Vec) -> Vec:
    """Matrix times column vector."""
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(a: Mat, k: int) -> Mat:
    if k < 0:
        raise ValueError("negative power; invert first")
    n = len(a)
    result = identity(n)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def is_zero(a: Mat) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def det(a: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rational_inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse over Q of a nonsingular square matrix, by Gauss-Jordan
    elimination on integer or Fraction entries."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def inverse_unimodular(a: Mat) -> Mat:
    """Exact inverse of an integer matrix with determinant +-1."""
    if det(a) not in (1, -1):
        raise ValueError("matrix is not unimodular")
    inv = []
    for row in rational_inverse(a):
        if any(x.denominator != 1 for x in row):
            raise AssertionError("unimodular inverse must be integral")
        inv.append(tuple(int(x) for x in row))
    return tuple(inv)


def _add_scalar(a: Mat, c: int) -> Mat:
    return tuple(
        tuple(x + c if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(a)
    )


def char_poly(a: Mat) -> Poly:
    """Characteristic polynomial det(xI - a), ascending coefficients, monic.

    Faddeev-LeVerrier recursion; all divisions are exact over the integers.
    """
    n = len(a)
    if n == 0:
        return (1,)
    if any(len(r) != n for r in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        c = -(tr // k)
        coeffs[n - k] = c
        m = _add_scalar(am, c)
    if not is_zero(m):
        raise AssertionError("Faddeev-LeVerrier must terminate at zero")
    return normalize(coeffs)


def compound_matrix(a: Mat, k: int) -> Mat:
    """k-th exterior power: entries are k x k minors, index sets in lex order."""
    n = len(a)
    if not 0 <= k <= n:
        raise ValueError("compound order out of range")
    idx = list(combinations(range(n), k))
    out = []
    for rows in idx:
        line = []
        for cols in idx:
            sub = tuple(tuple(a[i][j] for j in cols) for i in rows)
            line.append(det(sub))
        out.append(tuple(line))
    return tuple(out)


def evaluate_poly_at_matrix(p: Poly, a: Mat) -> Mat:
    n = len(a)
    acc = zero_matrix(n, n)
    for c in reversed(p):
        acc = mat_mul(acc, a)
        if c:
            acc = _add_scalar(acc, c)
    return acc


@dataclass(frozen=True)
class UnimodularMatrix:
    """An automorphism of the n-torus: an integer matrix with det = +-1."""

    rows: Mat

    def __post_init__(self):
        rows = as_matrix(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("automorphism matrix must be square and nonempty")
        if det(rows) not in (1, -1):
            raise ValueError("automorphism matrix must have determinant +-1")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def determinant(self) -> int:
        return det(self.rows)

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(mat_mul(self.rows, other.rows))

    def inv(self) -> "UnimodularMatrix":
        return UnimodularMatrix(inverse_unimodular(self.rows))

    def power(self, k: int) -> "UnimodularMatrix":
        if k >= 0:
            return UnimodularMatrix(mat_pow(self.rows, k))
        return UnimodularMatrix(mat_pow(inverse_unimodular(self.rows), -k))

    def is_identity(self) -> bool:
        return self.rows == identity(self.n)


def is_unipotent(t: UnimodularMatrix) -> bool:
    n = t.n
    nil = mat_sub(t.rows, identity(n))
    return is_zero(mat_pow(nil, n))


def order_bound(a: Mat) -> int | None:
    """A multiple of the order of the square matrix a if it has one: the lcm
    of the cyclotomic orders when its characteristic polynomial is a product
    of cyclotomics, which a finite order needs; otherwise None.  A power at
    the bound that is not the identity means infinite order (a nontrivial
    Jordan block, as in shear + rotation)."""
    orders = cyclotomic_orders_if_product(char_poly(a))
    if orders is None:
        return None
    return lcm(*orders) if orders else 1


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def matrix_order(t: UnimodularMatrix) -> int | None:
    """Smallest m >= 1 with t^m = Id, or None when no power is the identity.

    t^order_bound != Id means infinite order; otherwise each prime is divided
    out of the bound while the power stays the identity, one mat_pow per
    test."""
    order = order_bound(t.rows)
    eye = identity(t.n)
    if order is None or mat_pow(t.rows, order) != eye:
        return None
    for p in _prime_factors(order):
        while order % p == 0 and mat_pow(t.rows, order // p) == eye:
            order //= p
    return order
