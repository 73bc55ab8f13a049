"""Constructive engines: disjoint-orbit families of codimension-1 subtori and
non-expansivity certificates.

Family construction dispatches on the spectrum of the automorphism
(intmat.Spectrum, which the matrix carries):

* every eigenvalue a root of unity: for p the lcm of their orders (the
  spectrum's order_bound), S^p is unipotent (S = T^-T), and orbits on the
  dual side are separated by exact invariants (the class of a covector
  modulo the sublattice its own difference orbit under S^p spans).  A
  T-orbit is the union of p interleaved T^p-orbits, so each member has the
  set of invariants of its p translates, and disjointness of those sets is
  the evidence.  T has finite order exactly when T^p = I; then each
  invariant is the covector itself up to sign, its set is its orbit, and
  the family is tagged `finite_order` (otherwise `unipotent_power`).  A
  covector's orbit is periodic exactly when its difference lattice is {0}.
* some eigenvalue off the unit circle: greedy selection of covectors by
  increasing norm, certified by orbit windows plus norm-growth floors.  The
  candidates lie in L = ker f(S), for f the first irreducible factor of the
  characteristic polynomial of S that is not cyclotomic (the spectrum's
  dual_factors), so every member has the annihilator f, an injective orbit
  and the growth evidence of f.  For irreducible T, f(S) = 0 and L = Z^n.

A non-expansivity certificate stores the spectrum's order when it is finite.

One build reads T^-1 and S = T^-T off the matrix, which computes each once
(FamilyOrbits).  Each member's orbit report is built once and widened in
place (dynamics.OrbitBuilder); the greedy selection tests a candidate
against the covectors the hyperplanes of each kept window carry
(dynamics.window_covectors), which verify reads the same way.  The
growth evidence depends only on the annihilator and the window radius: a
table that lives as long as the build holds one growth search per
annihilator, which does its radius-independent work once and derives the
evidence once per radius; only the transfer constant is a member's own.

Every certificate is pure data, and stores only what the verify module
cannot recompute from the matrix and the members: the invariant sets of the
root-of-unity branches are recomputed there by the routine that builds them
here (PowerInvariants).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .dynamics import (
    OrbitBuilder,
    OrbitReport,
    act,
    window_covectors,
)
from .growth import GrowthSearch
from .intmat import (
    Mat,
    UnimodularMatrix,
    Vec,
    evaluate_poly_at_matrix,
    identity,
    is_unipotent,
    is_zero,
    mat_pow,
    mat_sub,
    mat_vec,
    transpose,
)
from .lattices import (
    Lattice,
    annihilator_rows,
    reduce_mod_lattice,
    saturate_rows,
    trusted_hnf_basis,
)
from .metric import enumerate_hnf_lattices, hyperplane_isolation_bound
from .polynomials import Poly, is_squarefree_product_of_cyclotomics
from .subtori import (
    PrimitiveCovector,
    Subtorus,
    covector_norm_inf,
    covector_to_hyperplane,
    iter_primitive_covectors,
    primitive_covectors,
    subtorus_from_annihilator,
    trusted_canonicalize_covector,
)


@dataclass(frozen=True)
class Budget:
    """Caps for every search; exhausting them yields partial results, never
    wrong certificates.  `max_norm` caps the sup norm of the coefficients c
    of a candidate c B in the HNF basis B of the lattice searched: the
    kernel lattice of the greedy, Z^n (B = I, so the covector's own norm)
    everywhere else."""

    max_norm: int = 64
    max_window: int = 96
    max_candidates: int = 4000

    def __post_init__(self):
        for name in ("max_norm", "max_window", "max_candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name} must be >= 1")


@dataclass(frozen=True, order=True)
class UnipotentInvariant:
    """Orbit invariant of a covector under a unipotent dual action: the HNF
    basis of the lattice spanned by its difference orbit, and the covector
    reduced modulo that lattice."""

    difference_lattice: Mat
    reduced: Vec


@dataclass(frozen=True)
class DisjointFamilyCertificate:
    matrix: Mat
    count: int
    requested: int  # complete exactly when count == requested
    members: tuple[Vec, ...]  # canonical primitive covectors of the hyperplanes
    orbit_reports: tuple[OrbitReport, ...]
    branch: str
    rigorous: bool
    complete: bool
    explanation: str | None


class FamilyConstructionError(Exception):
    pass


def _difference_lattice(nilpotent: Mat, gamma: Vec) -> Mat:
    """HNF basis of the lattice spanned by N gamma, N^2 gamma, ... for N the
    nilpotent part S - Id of a unipotent S."""
    rows = []
    cur = mat_vec(nilpotent, gamma)
    while any(cur):
        rows.append(cur)
        cur = mat_vec(nilpotent, cur)
        if len(rows) > len(nilpotent):
            raise ValueError("matrix is not unipotent")
    return trusted_hnf_basis(rows)


def unipotent_invariant(s_rows: Mat, gamma: Vec) -> UnipotentInvariant:
    """Exact orbit invariant of gamma under a unipotent S.

    S^m gamma - gamma always lies in N * span{N^i gamma}, N = S - Id, and that
    sublattice is itself orbit-constant, so the reduced class never moves.
    """
    p = _difference_lattice(mat_sub(s_rows, identity(len(s_rows))), gamma)
    return UnipotentInvariant(p, reduce_mod_lattice(p, gamma))


def _invariant_pm(nilpotent: Mat, gamma: Vec) -> UnipotentInvariant:
    """Invariant of the pair {gamma, -gamma}, which share one difference
    lattice: the lesser of their reduced classes."""
    p = _difference_lattice(nilpotent, gamma)
    neg = tuple(-x for x in gamma)
    return UnipotentInvariant(p, min(reduce_mod_lattice(p, gamma), reduce_mod_lattice(p, neg)))


def unipotent_invariant_pm(s_rows: Mat, gamma: Vec) -> UnipotentInvariant:
    """Sign-free version: invariant of the pair {gamma, -gamma}."""
    return _invariant_pm(mat_sub(s_rows, identity(len(s_rows))), gamma)


class PowerInvariants:
    """Orbit invariants under a dual matrix S = T^-T, given by its rows, for a
    power with S^power unipotent.  The invariant set of a covector gamma is
    the sorted sign-free invariants of its translates gamma, S gamma, ...,
    S^(power-1) gamma under S^power; two covectors lie on one orbit exactly
    when their sets meet.  The nilpotent part S^power - Id is computed once,
    here; it is 0 exactly when T^power = Id."""

    def __init__(self, s: Mat, power: int):
        self.s, self.power = s, power
        self.nilpotent = mat_sub(mat_pow(s, power), identity(len(s)))

    def invariant_set(self, gamma: Vec) -> tuple[UnipotentInvariant, ...]:
        out = []
        cur = gamma
        for _ in range(self.power):
            out.append(_invariant_pm(self.nilpotent, trusted_canonicalize_covector(cur)))
            cur = mat_vec(self.s, cur)
        return tuple(sorted(out))


class FamilyOrbits:
    """The automorphism of one family build with T^-1 and S = T^-T (both
    computed once by the matrix), and the orbit reports of its members.

    `evidence` reads the build's table of growth searches, one per
    annihilator (growth.GrowthSearch): members that share an annihilator
    share its radius-independent work, and members that share a window too
    share one derivation at that radius.  The table belongs to this object,
    so a new build searches afresh."""

    def __init__(self, t: UnimodularMatrix):
        self.t = t
        self.tinv = t.inv()
        self.s = t.dual
        self._searches: dict[Poly, GrowthSearch] = {}

    def evidence(self, g: Poly, radius: int):
        if g not in self._searches:
            self._searches[g] = GrowthSearch(g)
        return self._searches[g].evidence(radius)

    def start(self, gamma: Vec, radius: int) -> OrbitBuilder:
        """The orbit of the hyperplane gamma annihilates, with a window of `radius`."""
        builder = OrbitBuilder(self.t, self.tinv,
                               covector_to_hyperplane(PrimitiveCovector(gamma)), self.s, gamma)
        builder.widen(radius, self.evidence)
        return builder

    def reports(self, members, radius: int) -> tuple[OrbitReport, ...]:
        return tuple(self.start(gamma, radius).report() for gamma in members)


def _candidate_covectors(basis: Mat, budget: Budget):
    """The primitive covectors c B of the saturated lattice with basis rows B,
    canonical, for the primitive c in (norm, lexicographic) order: at most
    max_candidates of them, with norm(c) <= max_norm."""
    columns = transpose(basis)
    coefficients = iter_primitive_covectors(len(basis), budget.max_norm)
    for c in islice(coefficients, budget.max_candidates):
        yield trusted_canonicalize_covector(mat_vec(columns, c))


def _kernel_lattice(orbits: FamilyOrbits) -> Mat:
    """HNF basis of L = ker f(S), for the first non-cyclotomic factor f of
    the characteristic polynomial of S (Spectrum.dual_factors): every
    covector of L has the irreducible annihilator f, so its orbit is
    injective.  L is saturated."""
    f = next(f for f, _ in orbits.t.spectrum.dual_factors
             if not is_squarefree_product_of_cyclotomics(f))
    return annihilator_rows(evaluate_poly_at_matrix(f, orbits.s), len(orbits.s))


def _root_of_unity_family(
    orbits: FamilyOrbits, k: int, budget: Budget, injective_only: bool
) -> DisjointFamilyCertificate:
    """The family of a T whose eigenvalues are roots of unity: members of
    disjoint invariant sets under S^power, for power the spectrum's
    order_bound (1 for a unipotent T)."""
    power = orbits.t.spectrum.order_bound
    invariants = PowerInvariants(orbits.s, power)
    finite = is_zero(invariants.nilpotent)
    if finite and injective_only:
        raise FamilyConstructionError("finite-order automorphisms have no injective hyperplane orbits")
    members: list[Vec] = []
    taken: set[UnipotentInvariant] = set()
    for gamma in _candidate_covectors(identity(orbits.t.n), budget):
        if len(members) == k:
            break
        iset = invariants.invariant_set(gamma)
        # S^power fixes gamma, so its orbit is periodic, exactly when its
        # difference lattice is {0}
        if injective_only and not iset[0].difference_lattice:
            continue
        if taken.intersection(iset):
            continue
        members.append(gamma)
        taken.update(iset)
    complete = len(members) == k
    radius = power if finite else 2 * power + 4
    return DisjointFamilyCertificate(
        matrix=orbits.t.rows,
        count=len(members),
        requested=k,
        members=tuple(members),
        orbit_reports=orbits.reports(members, min(budget.max_window, radius)),
        branch="finite_order" if finite else "unipotent_power",
        rigorous=True,
        complete=complete,
        explanation=None if complete else "candidate budget exhausted",
    )


def unipotent_family(t: UnimodularMatrix, k: int, budget: Budget = Budget()) -> DisjointFamilyCertificate:
    """Disjoint orbit family for a unipotent automorphism, separated by the
    exact flag invariants of the dual action."""
    if not is_unipotent(t):
        raise ValueError("automorphism must be unipotent")
    if t.is_identity():
        raise ValueError("the identity is excluded")
    if k < 1:
        raise ValueError("need k >= 1")
    return _root_of_unity_family(FamilyOrbits(t), k, budget, injective_only=False)


def _greedy_family(orbits: FamilyOrbits, k: int, budget: Budget) -> DisjointFamilyCertificate:
    kept: list[Vec] = []
    builders: dict[Vec, OrbitBuilder] = {}
    window_sets: dict[Vec, frozenset[Vec]] = {}

    def clears(builder: OrbitBuilder, target: int) -> bool:
        return builder.min_exterior_norm is not None and builder.min_exterior_norm > target

    def widen(builder: OrbitBuilder, target: int) -> None:
        """Widen the window until the growth floor clears target or the budget ends."""
        while not clears(builder, target) and builder.radius < budget.max_window:
            w = builder.radius
            builder.widen(min(budget.max_window, w + max(12, w // 2)), orbits.evidence)

    for gamma in _candidate_covectors(_kernel_lattice(orbits), budget):
        if len(kept) == k:
            break
        if any(gamma in window_sets[g] for g in kept):
            continue
        kept.append(gamma)
        builder = orbits.start(gamma, min(24, budget.max_window))
        widen(builder, max(covector_norm_inf(g) for g in kept))
        builders[gamma] = builder
        window_sets[gamma] = window_covectors(builder.window)
        # a wider window may reveal an earlier member on this orbit
        if any(other != gamma and other in window_sets[gamma] for other in kept):
            kept.pop()
            del builders[gamma], window_sets[gamma]
    # every member's floor must clear the final maximal norm
    target = max((covector_norm_inf(g) for g in kept), default=0)
    for gamma in kept:
        widen(builders[gamma], target)
    complete = len(kept) == k
    reasons = [] if complete else ["budget exhausted before the requested family size"]
    short = next((i for i, g in enumerate(kept) if not clears(builders[g], target)), None)
    if short is not None:
        b = builders[kept[short]]
        floor = (
            "growth gave no floor"
            if b.min_exterior_norm is None
            else f"growth floor {b.min_exterior_norm} is too low"
        )
        reasons.append(
            f"member {short} {list(kept[short])} at window radius {b.radius}: "
            f"{floor} to clear the maximal member norm {target}"
        )
    rigorous = bool(kept) and short is None
    return DisjointFamilyCertificate(
        matrix=orbits.t.rows,
        count=len(kept),
        requested=k,
        members=tuple(kept),
        orbit_reports=tuple(builders[g].report() for g in kept),
        branch="greedy",
        rigorous=rigorous,
        complete=complete,
        explanation="; ".join(reasons) or None,
    )


def disjoint_hyperplane_orbits(
    t: UnimodularMatrix,
    k: int,
    budget: Budget = Budget(),
    injective_only: bool = False,
) -> DisjointFamilyCertificate:
    """k codimension-1 subtori with pairwise disjoint orbits, with evidence.

    Dispatches on the spectrum of the automorphism: every eigenvalue a root
    of unity (invariant sets under S^p, finite order included), or some
    eigenvalue off the unit circle (greedy selection in the kernel lattice,
    with growth floors).
    """
    if t.n < 2:
        raise ValueError("needs ambient dimension >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    orbits = FamilyOrbits(t)
    if t.spectrum.order_bound is not None:
        return _root_of_unity_family(orbits, k, budget, injective_only)
    # every candidate of the greedy has an injective orbit
    return _greedy_family(orbits, k, budget)


@dataclass(frozen=True)
class FixedSubtoriReport:
    dimension: int
    members: tuple[Subtorus, ...]
    complete: bool  # True when the list is exhaustive without any norm cap
    dual_norm_bound: int


def fixed_subtori(
    t: UnimodularMatrix, k: int, dual_norm_bound: int = 20
) -> FixedSubtoriReport:
    """T-invariant k-dimensional subtori.

    For k = n-1 the answer is exact and complete whenever the +-1 eigenspaces
    of the dual matrix are at most lines; otherwise (and for k < n-1) the
    enumeration is complete within the annihilator norm cap.
    """
    n = t.n
    if not 1 <= k <= n - 1:
        raise ValueError("dimension out of range")
    if k == n - 1:
        s = t.dual
        members = []
        capped = False
        for sign in (1, -1):
            shifted = mat_sub(s, tuple(
                tuple(sign if i == j else 0 for j in range(n)) for i in range(n)
            ))
            kern = annihilator_rows(shifted, n)
            if len(kern) == 0:
                continue
            if len(kern) == 1:
                members.append(covector_to_hyperplane(
                    PrimitiveCovector.from_entries(kern[0])
                ))
            else:
                capped = True
                lat = Lattice(n, kern)
                for gamma in primitive_covectors(n, dual_norm_bound):
                    if lat.contains(gamma):
                        members.append(covector_to_hyperplane(PrimitiveCovector(gamma)))
        uniq = sorted(set(members), key=lambda h: h.basis)
        return FixedSubtoriReport(k, tuple(uniq), not capped, dual_norm_bound)
    members = []
    for ann_rows in enumerate_hnf_lattices(n, n - k, dual_norm_bound):
        if saturate_rows(ann_rows, n) != ann_rows:
            continue
        h = subtorus_from_annihilator(n, ann_rows)
        if act(t, h) == h:
            members.append(h)
    uniq = sorted(set(members), key=lambda h: h.basis)
    return FixedSubtoriReport(k, tuple(uniq), False, dual_norm_bound)


@dataclass(frozen=True)
class NonExpansivityCertificate:
    """Evidence that the automorphism does not act expansively on the space of
    subtori: either a finite order with more fixed subtori than expansivity
    allows, or a family of disjoint injective hyperplane orbits exceeding any
    claimed finite orbit count, all converging to the full torus."""

    matrix: Mat
    branch: str  # "finite_order" or "infinitely_many_orbits"
    rigorous: bool
    complete: bool
    explanation: str | None
    # the evidence of the branch; the fields of the other branch are None
    order: int | None = None
    fixed: tuple[Subtorus, ...] | None = None
    family: DisjointFamilyCertificate | None = None
    converges: tuple[bool, ...] | None = None
    # the isolation bound of the first member's hyperplane
    # (metric.hyperplane_isolation_bound), None for an empty family
    isolation: Fraction | None = None


# fixed hyperplanes listed for a finite-order automorphism
FIXED_COUNT = 2


def non_expansivity_certificate(
    t: UnimodularMatrix,
    orbit_count: int = 10,
    budget: Budget = Budget(),
) -> NonExpansivityCertificate:
    if t.n < 2:
        raise ValueError("needs ambient dimension >= 2")
    if orbit_count < 1:
        raise ValueError("need orbit_count >= 1")
    order = t.spectrum.order
    if order is not None:
        # T^order is the identity and fixes every hyperplane; n >= 2 gives at
        # least two of norm 1
        fixed = tuple(covector_to_hyperplane(PrimitiveCovector(gamma))
                      for gamma in islice(iter_primitive_covectors(t.n, 1), FIXED_COUNT))
        return NonExpansivityCertificate(
            matrix=t.rows,
            branch="finite_order",
            order=order,
            fixed=fixed,
            rigorous=True,
            complete=True,
            explanation=None,
        )
    family = disjoint_hyperplane_orbits(t, orbit_count, budget, injective_only=True)
    # a hyperplane orbit converges to the full torus exactly when it is
    # injective (dynamics.converges_to_full), which each orbit report decides
    conv = tuple(rep.status == "injective" for rep in family.orbit_reports)
    iso = None
    if family.members:
        iso = hyperplane_isolation_bound(sum(x * x for x in family.members[0]))
    complete = family.complete and all(conv)
    reasons = [family.explanation] if family.explanation else []
    if iso is not None and iso <= 0:
        reasons.append(f"isolation bound {iso} is not positive")
    return NonExpansivityCertificate(
        matrix=t.rows,
        branch="infinitely_many_orbits",
        family=family,
        converges=conv,
        isolation=iso,
        rigorous=family.rigorous and (iso is None or iso > 0),
        complete=complete,
        explanation="; ".join(reasons) or None,
    )
