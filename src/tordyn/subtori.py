"""Closed connected subgroups of the n-torus and their character duals.

A subtorus is the image in R^n/Z^n of a rational subspace W, stored as the
saturated lattice W intersect Z^n in canonical HNF.  Codimension-1 subtori
correspond to primitive integer covectors (gcd 1, sign canonical) through the
annihilator pairing; that bijection is what every orbit computation here
reduces to.  A hyperplane carries its covector (`Subtorus.covector`): one
built from a covector keeps it, and one read off a basis computes it the
first time it is asked for.  The canonical basis of the hyperplane of a
covector has a closed form (`hyperplane_basis`), so a covector step needs no
echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .intmat import Mat, Vec, as_vector
from .lattices import Lattice, annihilator_rows, hnf_basis, saturate_rows


@dataclass(frozen=True)
class Subtorus:
    """A k-dimensional subtorus of the n-torus (k = 0 is the trivial subgroup)."""

    ambient_dim: int
    lattice: Lattice

    def __post_init__(self):
        if self.lattice.ambient_dim != self.ambient_dim:
            raise ValueError("lattice ambient dimension mismatch")
        if not self.lattice.is_saturated():
            raise ValueError("subtorus lattice must be saturated")

    @classmethod
    def from_generators(cls, ambient_dim: int, vectors) -> "Subtorus":
        rows = tuple(as_vector(v) for v in vectors)
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("generator length mismatch")
        sat = saturate_rows(rows, ambient_dim)
        return cls(ambient_dim, Lattice(ambient_dim, sat))

    @classmethod
    def trivial(cls, ambient_dim: int) -> "Subtorus":
        return cls(ambient_dim, Lattice.zero(ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subtorus":
        return cls(ambient_dim, Lattice.full(ambient_dim))

    @property
    def dim(self) -> int:
        return self.lattice.rank

    @property
    def basis(self) -> Mat:
        return self.lattice.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @cached_property
    def covector(self) -> Vec:
        """The canonical primitive covector of a codimension-1 subtorus; it
        takes no part in equality or hashing, which the lattice decides."""
        return hyperplane_to_covector(self).entries


def annihilator(h: Subtorus) -> Lattice:
    """Characters vanishing on h; saturated of rank n - dim(h)."""
    rows = annihilator_rows(h.basis, h.ambient_dim)
    return Lattice(h.ambient_dim, rows)


def _trusted_subtorus(ambient_dim: int, basis: Mat) -> Subtorus:
    """Build a Subtorus without re-validating it.

    The caller guarantees that basis is the canonical HNF basis of a saturated
    sublattice of Z^ambient_dim.  Three callers rely on this: act, whose basis
    for codimension >= 2 is trusted_hnf_basis of the image rows of a
    validated subtorus under a validated UnimodularMatrix (a unimodular image
    of a saturated lattice is saturated), trusted_hyperplane (the closed-form
    basis of a kernel), and subtorus_from_annihilator (a kernel lattice is
    saturated).  Outside input is validated where it enters, by Subtorus and
    Lattice, and never reaches this function unchecked.
    """
    # a frozen dataclass keeps its fields in the instance __dict__; writing
    # there skips both __post_init__ and the frozen __setattr__
    lattice = object.__new__(Lattice)
    fields = lattice.__dict__
    fields["ambient_dim"] = ambient_dim
    fields["basis"] = basis
    h = object.__new__(Subtorus)
    fields = h.__dict__
    fields["ambient_dim"] = ambient_dim
    fields["lattice"] = lattice
    return h


def subtorus_from_annihilator(ambient_dim: int, ann_rows) -> Subtorus:
    """The subtorus on which every character in ann_rows vanishes."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    rows = annihilator_rows(hnf_basis(ann_rows, ambient_dim), ambient_dim)
    return _trusted_subtorus(ambient_dim, rows)


def contains(h1: Subtorus, h2: Subtorus) -> bool:
    """Whether h2 is a subgroup of h1."""
    if h1.ambient_dim != h2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return h1.lattice.contains_lattice(h2.lattice)


def canonicalize_covector(entries) -> Vec:
    """Divide by the gcd and make the first nonzero entry positive.

    Validates its input; trusted_canonicalize_covector is the kernel behind
    it."""
    return trusted_canonicalize_covector(as_vector(entries))


def trusted_canonicalize_covector(v: Vec) -> Vec:
    """canonicalize_covector without the checks: the caller guarantees that v
    is a tuple of Python ints, such as a mat_vec image.  A v that is already
    canonical is returned as it is."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero covector")
    for x in v:
        if x:
            break
    if x < 0:
        g = -g
    if g == 1:
        return v
    return tuple([x // g for x in v])


@dataclass(frozen=True)
class PrimitiveCovector:
    """A character of the n-torus with coprime entries and canonical sign."""

    entries: Vec

    def __post_init__(self):
        v = as_vector(self.entries)
        if trusted_canonicalize_covector(v) != v:
            raise ValueError("covector is not primitive with canonical sign")
        object.__setattr__(self, "entries", v)

    @classmethod
    def from_entries(cls, entries) -> "PrimitiveCovector":
        return cls(canonicalize_covector(entries))

    @property
    def ambient_dim(self) -> int:
        return len(self.entries)


def hyperplane_to_covector(h: Subtorus) -> PrimitiveCovector:
    """The primitive character whose kernel is the codimension-1 subtorus h,
    computed from its basis."""
    if h.dim != h.ambient_dim - 1:
        raise ValueError("covector duality needs a codimension-1 subtorus")
    ann = annihilator(h)
    assert ann.rank == 1
    return PrimitiveCovector.from_entries(ann.basis[0])


def covector_to_hyperplane(gamma: PrimitiveCovector) -> Subtorus:
    """The codimension-1 subtorus annihilated by gamma."""
    if gamma.ambient_dim < 2:
        raise ValueError("hyperplanes need ambient dimension >= 2")
    return trusted_hyperplane(gamma.entries)


def trusted_hyperplane(gamma: Vec) -> Subtorus:
    """covector_to_hyperplane without the checks: the caller guarantees that
    gamma is a canonical primitive covector, such as the
    trusted_canonicalize_covector of a unimodular image of one.  The
    hyperplane carries gamma."""
    h = _trusted_subtorus(len(gamma), hyperplane_basis(gamma))
    h.__dict__["covector"] = gamma
    return h


def hyperplane_basis(gamma: Vec) -> Mat:
    """The canonical HNF basis of {v in Z^n : gamma . v = 0}, for a primitive
    gamma, in closed form.

    Let g_j = gcd(gamma_j, ..., gamma_{n-1}) and k the last index with
    gamma_k != 0.  A vector of the kernel that vanishes before column j has
    gamma_j v_j in g_{j+1} Z, and every such v_j occurs, so the pivot of
    column j < k is d_j = g_{j+1} / g_j (g_0 = 1, as gamma is primitive);
    column k is no pivot (v_k = 0 there), and every column after k has the
    pivot row e_j.  Row j < k is d_j e_j plus entries in the pivot columns
    i = j+1, ..., k-1, each reduced into [0, d_i), and one in column k.
    Column by column, with c the partial sum gamma . v so far (a multiple of
    g_i), the rest of the row sums to a multiple of g_{i+1}, so v_i is the
    unique residue mod d_i with (gamma_i / g_i) v_i = -c / g_i; gamma_i / g_i
    is a unit mod d_i, whose inverse is taken once per column.  A column
    with d_i = 1 has v_i = 0.  The entry in column k is then -c / gamma_k
    exactly.
    """
    n = len(gamma)
    k = n - 1
    while not gamma[k]:
        k -= 1
    gk = gamma[k]
    pivot = [1] * k
    # (i, g_i, d_i, gamma_i, inverse of gamma_i / g_i mod d_i) for the
    # columns 0 < i < k with d_i > 1, the only ones a row reduces into
    wide = []
    g_next = abs(gk)
    for i in range(k - 1, -1, -1):
        gi = gamma[i]
        g = gcd(g_next, gi)
        if g != g_next:
            d = pivot[i] = g_next // g
            if i:
                wide.append((i, g, d, gi, pow(gi // g, -1, d)))
        g_next = g
    wide.reverse()
    rows = []
    for j in range(k):
        row = [0] * n
        row[j] = dj = pivot[j]
        c = gamma[j] * dj
        for i, g, d, gi, unit in wide:
            if i > j:
                v = -(c // g) * unit % d
                if v:
                    row[i] = v
                    c += gi * v
        row[k] = -c // gk
        rows.append(tuple(row))
    for j in range(k + 1, n):
        row = [0] * n
        row[j] = 1
        rows.append(tuple(row))
    return tuple(rows)


def covector_norm_inf(v: Vec) -> int:
    return max(abs(x) for x in v)


def iter_primitive_covectors(n: int, max_norm: int | None = None):
    """Canonical primitive covectors in (sup norm, lexicographic) order.

    This is the enumeration order used by every greedy selection, so
    certificates are reproducible.  Lazy: each norm shell is generated only
    when reached.
    """
    if n < 1:
        return
    r = 1
    while max_norm is None or r <= max_norm:
        shell: list[Vec] = []
        for v in _shell_vectors(n, r, True):
            g = 0
            for x in v:
                g = gcd(g, x)
            if g != 1:
                continue
            first = next(x for x in v if x != 0)
            if first < 0:
                continue
            shell.append(v)
        shell.sort()
        yield from shell
        r += 1


def primitive_covectors(n: int, max_norm: int) -> list[Vec]:
    """All canonical primitive covectors with sup norm <= max_norm."""
    return list(iter_primitive_covectors(n, max_norm))


def _shell_vectors(n: int, r: int, must_hit: bool):
    """Integer vectors of length n with sup norm exactly r (when must_hit)."""
    if n == 0:
        if not must_hit:
            yield ()
        return
    for head in range(-r, r + 1):
        hit = abs(head) == r
        for tail in _shell_vectors(n - 1, r, must_hit and not hit):
            yield (head,) + tail
