"""Sublattices of Z^n in a canonical Hermite normal form.

The canonical form used throughout: row-style HNF with positive pivots and
every entry above a pivot reduced into [0, pivot).  Two sublattices are equal
as sets exactly when their canonical bases are identical tuples, which makes
lattice values usable as dictionary keys and orbit states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import Mat, Vec, as_matrix, identity, transpose
from .polynomials import Poly, normalize as poly_normalize


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _echelon_insert(basis: list[list[int]], pivots: list[int], vec: list[int]) -> None:
    """Insert vec into an integer row-echelon basis, combining rows by xgcd."""
    n = len(vec)
    j = 0
    while True:
        while j < n and vec[j] == 0:
            j += 1
        if j == n:
            return
        if j in pivots:
            k = pivots.index(j)
            row = basis[k]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for t in range(j, n):
                    vec[t] -= q * row[t]
            else:
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                for t in range(j, n):
                    rt, vt = row[t], vec[t]
                    row[t] = x * rt + y * vt
                    vec[t] = -bg * rt + ag * vt
        else:
            # vec starts a new pivot column
            where = 0
            while where < len(pivots) and pivots[where] < j:
                where += 1
            basis.insert(where, vec)
            pivots.insert(where, j)
            return


def _canonicalize(basis: list[list[int]], pivots: list[int]) -> Mat:
    for k, (row, p) in enumerate(zip(basis, pivots)):
        if row[p] < 0:
            basis[k] = [-x for x in row]
    for k in range(len(basis)):
        p = pivots[k]
        piv = basis[k][p]
        for i in range(k):
            q = basis[i][p] // piv  # floor division puts the entry in [0, piv)
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return tuple(tuple(r) for r in basis)


def hnf_basis(rows, n: int | None = None) -> Mat:
    """Canonical HNF basis of the integer row span. Zero rows are dropped.

    Validates its input; trusted_hnf_basis is the kernel behind it."""
    m = as_matrix(rows)
    if m and n is not None and len(m[0]) != n:
        raise ValueError("row length does not match ambient dimension")
    return trusted_hnf_basis(m)


def trusted_hnf_basis(rows) -> Mat:
    """hnf_basis without the checks: the caller guarantees that rows are
    sequences of Python ints, all of one length."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for r in rows:
        _echelon_insert(basis, pivots, list(r))
    return _canonicalize(basis, pivots)


def hnf_pivots(basis: Mat) -> list[int]:
    out = []
    for row in basis:
        j = next(i for i, x in enumerate(row) if x != 0)
        out.append(j)
    return out


def is_canonical_hnf(rows: Mat) -> bool:
    try:
        m = as_matrix(rows)
    except ValueError:
        return False
    if not m:
        return True
    return trusted_hnf_basis(m) == m


def hnf_with_transform(rows) -> tuple[Mat, Mat]:
    """Return (H, U) with U unimodular, U @ rows = H padded with zero rows.

    H is the canonical HNF basis; U has len(rows) rows and records the row
    operations, including those that zeroed out dependent rows.
    """
    m = as_matrix(rows)
    k = len(m)
    n = len(m[0]) if m else 0
    basis: list[list[int]] = []
    pivots: list[int] = []
    for i, r in enumerate(m):
        _echelon_insert(basis, pivots, list(r) + [int(i == j) for j in range(k)])
    # rows whose first n columns reduced to zero have their pivot in the
    # transform columns; only the lattice part is canonicalized
    lat = _canonicalize(
        [r for p, r in zip(pivots, basis) if p < n], [p for p in pivots if p < n]
    )
    kernel_rows = [r for p, r in zip(pivots, basis) if p >= n]
    h = tuple(r[:n] for r in lat)
    u = tuple(r[n:] for r in lat) + tuple(tuple(r[n:]) for r in kernel_rows)
    return h, u


def left_kernel(m_rows, nrows: int) -> Mat:
    """Canonical basis of {x in Z^nrows : x @ m_rows = 0}."""
    m = as_matrix(m_rows)
    if len(m) != nrows:
        raise ValueError("nrows mismatch")
    if nrows == 0:
        return ()
    h, u = hnf_with_transform(m)
    return trusted_hnf_basis(u[len(h):])


def annihilator_rows(basis: Mat, n: int) -> Mat:
    """Basis of {g in Z^n : g . v = 0 for every row v}."""
    if not basis:
        return identity(n)
    return left_kernel(transpose(basis), n)


def saturate_rows(rows, n: int) -> Mat:
    """Basis of (Q-span of rows) intersected with Z^n, canonical HNF."""
    b = hnf_basis(rows, n)
    ann = annihilator_rows(b, n)
    return annihilator_rows(ann, n)


def reduce_mod_lattice(basis: Mat, v: Vec) -> Vec:
    """Canonical coset representative of v modulo the lattice of a canonical
    HNF basis."""
    w = list(v)
    for row, p in zip(basis, hnf_pivots(basis)):
        q = w[p] // row[p]
        if q:
            for t in range(p, len(w)):
                w[t] -= q * row[t]
    return tuple(w)


def contains_vector(basis: Mat, v: Vec) -> bool:
    """Membership of v in the integer row span of a canonical HNF basis: each
    row leaves the pivot columns of the rows before it alone, so v is in the
    lattice exactly when it reduces to 0."""
    return not any(reduce_mod_lattice(basis, v))


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^n held by its canonical HNF basis."""

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        b = as_matrix(self.basis)
        object.__setattr__(self, "basis", b)
        if b and len(b[0]) != self.ambient_dim:
            raise ValueError("basis rows must have ambient length")
        if trusted_hnf_basis(b) != b:
            raise ValueError("basis is not in canonical HNF")

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Lattice":
        return cls(ambient_dim, hnf_basis(rows, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Lattice":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Lattice":
        return cls(ambient_dim, identity(ambient_dim))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return contains_vector(self.basis, v)

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(r) for r in other.basis)

    def saturation(self) -> "Lattice":
        return Lattice(self.ambient_dim, saturate_rows(self.basis, self.ambient_dim))

    def is_saturated(self) -> bool:
        # rank 0 is saturated; a full-rank lattice is saturated exactly when
        # it is Z^n, whose canonical HNF basis is the identity
        if self.rank == 0:
            return True
        if self.rank == self.ambient_dim:
            return all(row[i] == 1 for i, row in enumerate(self.basis))
        return self.saturation() == self


def matrix_minimal_polynomial(a: Mat) -> Poly:
    """Minimal polynomial of an integer matrix, monic with integer coefficients."""
    n = len(a)
    from .intmat import mat_mul

    powers = [identity(n)]
    for _ in range(n):
        powers.append(mat_mul(a, powers[-1]))
    for d in range(1, n + 1):
        stacked = tuple(
            tuple(x for row in powers[i] for x in row) for i in range(d + 1)
        )
        kern = left_kernel(stacked, d + 1)
        if kern:
            rel = kern[0]
            if rel[-1] < 0:
                rel = tuple(-x for x in rel)
            if rel[-1] != 1:
                raise AssertionError("minimal polynomial must be monic")
            return poly_normalize(rel)
    raise AssertionError("unreachable: char poly annihilates")
