"""Closed connected subgroups of the n-torus and their character duals.

A subtorus is the image in R^n/Z^n of a rational subspace W, stored as the
saturated lattice W intersect Z^n in canonical HNF.  Codimension-1 subtori
correspond to primitive integer covectors (gcd 1, sign canonical) through the
annihilator pairing; that bijection is what every orbit computation here
reduces to.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def annihilator(h: Subtorus) -> Lattice:
    """Characters vanishing on h; saturated of rank n - dim(h)."""
    rows = annihilator_rows(h.basis, h.ambient_dim)
    return Lattice(h.ambient_dim, rows)


def _trusted_subtorus(ambient_dim: int, basis: Mat) -> Subtorus:
    """Build a Subtorus without re-validating it.

    The caller guarantees that basis is the canonical HNF basis of a saturated
    sublattice of Z^ambient_dim.  Only act (a unimodular image of a saturated
    lattice is saturated) and subtorus_from_annihilator (a kernel lattice is
    saturated) may rely on this; outside input goes through Subtorus.
    """
    lattice = object.__new__(Lattice)
    object.__setattr__(lattice, "ambient_dim", ambient_dim)
    object.__setattr__(lattice, "basis", basis)
    h = object.__new__(Subtorus)
    object.__setattr__(h, "ambient_dim", ambient_dim)
    object.__setattr__(h, "lattice", lattice)
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
    """Divide by the gcd and make the first nonzero entry positive."""
    v = as_vector(entries)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero covector")
    if next(x for x in v if x != 0) < 0:
        g = -g
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class PrimitiveCovector:
    """A character of the n-torus with coprime entries and canonical sign."""

    entries: Vec

    def __post_init__(self):
        v = as_vector(self.entries)
        if canonicalize_covector(v) != v:
            raise ValueError("covector is not primitive with canonical sign")
        object.__setattr__(self, "entries", v)

    @classmethod
    def from_entries(cls, entries) -> "PrimitiveCovector":
        return cls(canonicalize_covector(entries))

    @property
    def ambient_dim(self) -> int:
        return len(self.entries)


def hyperplane_to_covector(h: Subtorus) -> PrimitiveCovector:
    """The primitive character whose kernel is the codimension-1 subtorus h."""
    if h.dim != h.ambient_dim - 1:
        raise ValueError("covector duality needs a codimension-1 subtorus")
    ann = annihilator(h)
    assert ann.rank == 1
    return PrimitiveCovector.from_entries(ann.basis[0])


def covector_to_hyperplane(gamma: PrimitiveCovector) -> Subtorus:
    """The codimension-1 subtorus annihilated by gamma."""
    n = gamma.ambient_dim
    if n < 2:
        raise ValueError("hyperplanes need ambient dimension >= 2")
    return subtorus_from_annihilator(n, (gamma.entries,))


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
