"""Arbitrary-precision integer matrices: products, determinants, characteristic
polynomials, exterior powers, and the group elements of the automorphism group
of the n-torus (integer matrices of determinant +-1).  Each of these is
validated once and carries, computed the first time it is read, its inverse
(built with no second determinant, and linked back to it), its dual
S = T^-T, and its spectrum.

Matrices are tuples of row tuples of Python ints, so every value is immutable
and exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .polynomials import (
    ONE,
    Poly,
    cyclotomic,
    divmod_exact,
    normalize,
    primitive_part,
    rational_factors,
    reciprocal,
    sorted_factors,
    strip_cyclotomic_factors,
)

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
    return _integral_inverse(a)


def _integral_inverse(a: Mat) -> Mat:
    """inverse_unimodular without the determinant check: the caller
    guarantees that a is unimodular."""
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


class Spectrum:
    """The spectrum of a square integer matrix T, from one characteristic
    polynomial chi_T: the orders m of its cyclotomic factors Phi_m, with
    multiplicity, and the cyclotomic-free cofactor.  Every eigenvalue is a
    root of unity exactly when the cofactor is 1 (Kronecker); `order_bound`,
    the lcm of the orders, is None otherwise.  The rest is computed when
    first read."""

    def __init__(self, rows: Mat):
        self.rows = rows
        self.char = char_poly(rows)
        orders, self.cofactor = strip_cyclotomic_factors(self.char)
        self.orders = tuple(orders)
        self.order_bound = lcm(*orders) if self.cofactor == ONE else None

    @cached_property
    def order(self) -> int | None:
        """The order of T, or None when it is infinite.  T^p = Id for p =
        order_bound makes T diagonalisable with a primitive m-th root of unity
        as an eigenvalue for every order m, so its order is exactly p."""
        p = self.order_bound
        if p is None or mat_pow(self.rows, p) != identity(len(self.rows)):
            return None
        return p

    @cached_property
    def factors(self) -> tuple[tuple[Poly, int], ...]:
        """The irreducible factors of chi_T with multiplicities, as
        rational_factors(chi_T) returns them: the stripped cyclotomic
        factors and the factors of the cofactor."""
        out = [(cyclotomic(m), e) for m, e in Counter(self.orders).items()]
        if self.cofactor != ONE:
            out += rational_factors(self.cofactor)
        return tuple(sorted_factors(out))

    @cached_property
    def dual_factors(self) -> tuple[tuple[Poly, int], ...]:
        """The factors of chi_S for S = T^-T, whose eigenvalues are the
        inverses of T's: each factor of chi_T reversed, sign made positive."""
        return tuple(sorted_factors((primitive_part(reciprocal(f)), e) for f, e in self.factors))

    @cached_property
    def minimal_polynomial(self) -> Poly:
        """mu_T: chi_T with the exponent of each factor lowered while the
        quotient still annihilates T; each factor of chi_T divides mu_T."""
        mu = self.char
        for f, e in self.factors:
            for _ in range(e - 1):
                q = divmod_exact(mu, f)[0]
                if not is_zero(evaluate_poly_at_matrix(q, self.rows)):
                    break
                mu = q
        return mu


@dataclass(frozen=True)
class UnimodularMatrix:
    """An automorphism of the n-torus: an integer matrix with det = +-1.

    The matrix is validated once, where it enters.  Its inverse is computed
    the first time `inv` is called, without a second determinant, and the two
    are linked both ways (t.inv().inv() is t).  `dual`, the rows of
    S = T^-T, which steps the covectors of hyperplanes, is read off the
    inverse once."""

    rows: Mat

    def __post_init__(self):
        rows = as_matrix(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("automorphism matrix must be square and nonempty")
        if det(rows) not in (1, -1):
            raise ValueError("automorphism matrix must have determinant +-1")

    @classmethod
    def _trusted(cls, rows: Mat) -> "UnimodularMatrix":
        """A UnimodularMatrix without validation: the caller guarantees that
        rows is a square tuple of int tuples with determinant +-1."""
        t = object.__new__(cls)
        t.__dict__["rows"] = rows
        return t

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(mat_mul(self.rows, other.rows))

    def inv(self) -> "UnimodularMatrix":
        inverse = self.__dict__.get("_inverse")
        if inverse is None:
            inverse = UnimodularMatrix._trusted(_integral_inverse(self.rows))
            inverse.__dict__["_inverse"] = self
            self.__dict__["_inverse"] = inverse
        return inverse

    @cached_property
    def dual(self) -> Mat:
        """The rows of S = T^-T."""
        return transpose(self.inv().rows)

    def power(self, k: int) -> "UnimodularMatrix":
        if k >= 0:
            return UnimodularMatrix(mat_pow(self.rows, k))
        return UnimodularMatrix(mat_pow(inverse_unimodular(self.rows), -k))

    def is_identity(self) -> bool:
        return self.rows == identity(self.n)

    @cached_property
    def spectrum(self) -> Spectrum:
        return Spectrum(self.rows)


def is_unipotent(t: UnimodularMatrix) -> bool:
    """chi_T = (x - 1)^n."""
    return t.spectrum.orders == (1,) * t.n


def matrix_order(t: UnimodularMatrix) -> int | None:
    """Smallest m >= 1 with t^m = Id, or None when no power is the identity."""
    return t.spectrum.order
