"""Constructive engines: disjoint-orbit families of codimension-1 subtori and
non-expansivity certificates.

Family construction dispatches on the structure of the automorphism:

* finite order: every orbit is finite; representatives of distinct orbits are
  collected by exact enumeration of the orbits themselves.
* infinite order but all eigenvalues roots of unity: some power is unipotent,
  and orbits on the dual side are separated by exact invariants (the class of
  a covector modulo the sublattice its own difference orbit spans).  A
  T-orbit is the union of m interleaved T^m-orbits, so each member carries
  the set of invariants of its m translates and disjointness of those sets is
  the evidence.
* an invariant proper rational subspace exists: recurse through the induced
  automorphism of the quotient torus and lift the family.
* no invariant rational subspace: greedy selection of covectors by increasing
  norm, certified by orbit windows plus norm-growth floors.

Every certificate is pure data; the verify module re-checks all evidence from
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dynamics import (
    OrbitReport,
    act,
    covector_orbit_is_periodic,
    covector_window_set,
    cyclotomic_radical_matrix,
    dual_matrix,
    invariant_rational_subspaces,
    orbit,
)
from .intmat import (
    Mat,
    UnimodularMatrix,
    Vec,
    char_poly,
    identity,
    inverse_unimodular,
    is_unipotent,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    matrix_order,
    transpose,
)
from .lattices import (
    Lattice,
    annihilator_rows,
    complete_to_unimodular,
    hnf_basis,
    hnf_pivots,
    saturate_rows,
)
from .metric import IsolationReport, enumerate_hnf_lattices, isolation_radius_lower_bound
from .polynomials import cyclotomic_orders_if_product
from .subtori import (
    PrimitiveCovector,
    Subtorus,
    canonicalize_covector,
    covector_norm_inf,
    covector_to_hyperplane,
    iter_primitive_covectors,
    primitive_covectors,
    subtorus_from_annihilator,
)


@dataclass(frozen=True)
class Budget:
    """Caps for every search; exhausting them yields partial results, never
    wrong certificates."""

    max_norm: int = 64
    max_window: int = 96
    max_candidates: int = 4000

    def __post_init__(self):
        for name in ("max_norm", "max_window", "max_candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name} must be >= 1")


@dataclass(frozen=True)
class UnipotentInvariant:
    """Orbit invariant of a covector under a unipotent dual action: the HNF
    basis of the lattice spanned by its difference orbit, and the covector
    reduced modulo that lattice."""

    difference_lattice: Mat
    reduced: Vec


@dataclass(frozen=True)
class QuotientEvidence:
    invariant_subtorus: Subtorus
    completion: Mat  # unimodular; first rows are the invariant lattice basis
    quotient_matrix: Mat  # the induced automorphism downstairs
    inner: "DisjointFamilyCertificate"


@dataclass(frozen=True)
class DisjointFamilyCertificate:
    matrix: Mat
    count: int
    members: tuple[Vec, ...]  # canonical primitive covectors of the hyperplanes
    orbit_reports: tuple[OrbitReport, ...]
    branch: str
    rigorous: bool
    complete: bool
    explanation: str | None
    # the evidence of the branch; the fields of the other branches are None
    periodic_orbits: tuple[tuple[Vec, ...], ...] | None = None
    unipotent_power: int | None = None
    invariant_sets: tuple[tuple[UnipotentInvariant, ...], ...] | None = None
    quotient: QuotientEvidence | None = None


class FamilyConstructionError(Exception):
    pass


def reduce_mod_lattice(basis: Mat, v: Vec) -> Vec:
    """Canonical coset representative of v modulo the HNF-basis lattice."""
    w = list(v)
    for row, p in zip(basis, hnf_pivots(basis)):
        q = w[p] // row[p]
        if q:
            for t in range(p, len(w)):
                w[t] -= q * row[t]
    return tuple(w)


def unipotent_invariant(s_rows: Mat, gamma: Vec) -> UnipotentInvariant:
    """Exact orbit invariant of gamma under a unipotent S.

    S^m gamma - gamma always lies in N * span{N^i gamma}, N = S - Id, and that
    sublattice is itself orbit-constant, so the reduced class never moves.
    """
    n = len(s_rows)
    nmat = mat_sub(s_rows, identity(n))
    rows = []
    cur = mat_vec(nmat, gamma)
    while any(cur):
        rows.append(cur)
        cur = mat_vec(nmat, cur)
        if len(rows) > n:
            raise ValueError("matrix is not unipotent")
    p = hnf_basis(tuple(rows), n)
    return UnipotentInvariant(p, reduce_mod_lattice(p, gamma))


def unipotent_invariant_pm(s_rows: Mat, gamma: Vec) -> UnipotentInvariant:
    """Sign-free version: invariant of the pair {gamma, -gamma}."""
    a = unipotent_invariant(s_rows, gamma)
    b = unipotent_invariant(s_rows, tuple(-x for x in gamma))
    return min((a, b), key=lambda u: (u.difference_lattice, u.reduced))


def _candidate_covectors(t: UnimodularMatrix, budget: Budget):
    s = dual_matrix(t).rows
    radical = cyclotomic_radical_matrix(s)
    count = 0
    for gamma in iter_primitive_covectors(t.n, budget.max_norm):
        if count >= budget.max_candidates:
            return
        count += 1
        yield gamma, covector_orbit_is_periodic(radical, gamma)


def _member_report(t: UnimodularMatrix, gamma: Vec, window: int) -> OrbitReport:
    h = covector_to_hyperplane(PrimitiveCovector(gamma))
    return orbit(t, h, window)


def periodic_covector_orbit(s: Mat, gamma: Vec, order: int) -> tuple[Vec, ...]:
    """The orbit {canonicalize(S^m gamma) : 0 <= m < order}, sorted, of a
    covector under a dual matrix S whose order divides `order`."""
    orb = set()
    cur = gamma
    for _ in range(order):
        orb.add(canonicalize_covector(cur))
        cur = mat_vec(s, cur)
    return tuple(sorted(orb))


def _periodic_family(
    t: UnimodularMatrix, k: int, order: int, budget: Budget
) -> DisjointFamilyCertificate:
    s = dual_matrix(t).rows
    members: list[Vec] = []
    orbits: list[tuple[Vec, ...]] = []
    taken: set[Vec] = set()
    for gamma in iter_primitive_covectors(t.n, budget.max_norm):
        if len(members) == k:
            break
        if gamma in taken:
            continue
        orbset = periodic_covector_orbit(s, gamma, order)
        if taken.intersection(orbset):
            continue
        members.append(gamma)
        orbits.append(orbset)
        taken.update(orbset)
    complete = len(members) == k
    reports = tuple(
        _member_report(t, m, min(order, budget.max_window)) for m in members
    )
    return DisjointFamilyCertificate(
        matrix=t.rows,
        count=len(members),
        members=tuple(members),
        orbit_reports=reports,
        branch="finite_order",
        periodic_orbits=tuple(orbits),
        rigorous=True,
        complete=complete,
        explanation=None if complete else "candidate norm budget exhausted",
    )


def invariant_set_for(t: UnimodularMatrix, gamma: Vec, power: int) -> tuple[UnipotentInvariant, ...]:
    s = dual_matrix(t).rows
    s_pow = mat_pow(s, power)
    out = []
    cur = gamma
    for _ in range(power):
        out.append(unipotent_invariant_pm(s_pow, canonicalize_covector(cur)))
        cur = mat_vec(s, cur)
    return tuple(sorted(out, key=lambda u: (u.difference_lattice, u.reduced)))


def cyclotomic_power(t: UnimodularMatrix) -> int | None:
    """The least power whose eigenvalues are all 1 when every eigenvalue is a
    root of unity (the lcm of their orders), else None."""
    orders = cyclotomic_orders_if_product(char_poly(t.rows))
    return None if orders is None else lcm(*orders, 1)


def _unipotent_power_family(
    t: UnimodularMatrix,
    k: int,
    budget: Budget,
    injective_only: bool,
) -> DisjointFamilyCertificate:
    power = cyclotomic_power(t)
    assert power is not None
    t_pow = t.power(power)
    if not is_unipotent(t_pow):
        raise AssertionError("the cyclotomic-order power must be unipotent")
    if t_pow.is_identity():
        raise FamilyConstructionError("automorphism has finite order")
    members: list[Vec] = []
    inv_sets: list[tuple[UnipotentInvariant, ...]] = []
    taken: set[UnipotentInvariant] = set()
    for gamma, periodic in _candidate_covectors(t, budget):
        if len(members) == k:
            break
        if injective_only and periodic:
            continue
        iset = invariant_set_for(t, gamma, power)
        if taken.intersection(iset):
            continue
        members.append(gamma)
        inv_sets.append(iset)
        taken.update(iset)
    complete = len(members) == k
    window = min(budget.max_window, 2 * power + 4)
    reports = tuple(_member_report(t, m, window) for m in members)
    return DisjointFamilyCertificate(
        matrix=t.rows,
        count=len(members),
        members=tuple(members),
        orbit_reports=reports,
        branch="unipotent_power",
        unipotent_power=power,
        invariant_sets=tuple(inv_sets),
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
    return _unipotent_power_family(t, k, budget, injective_only=False)


def quotient_action(t: UnimodularMatrix, w: Mat, kdim: int) -> Mat | None:
    """The action induced on the quotient coordinates of a unimodular w whose
    first kdim rows span an invariant lattice: the lower-right block of
    w T^T w^-1, or None if that conjugate does not preserve the flag."""
    m_prime = mat_mul(mat_mul(w, transpose(t.rows)), inverse_unimodular(w))
    if any(x for row in m_prime[:kdim] for x in row[kdim:]):
        return None
    return tuple(row[kdim:] for row in m_prime[kdim:])


def lift_member(winv: Mat, kdim: int, inner_gamma: Vec) -> Vec:
    """The covector of the hyperplane that contains the invariant subtorus and
    maps onto the quotient hyperplane inner_gamma: a covector c vanishes on the
    rows y w with y in 0^kdim x ker(inner_gamma) exactly when w c lies in
    0^kdim x Z inner_gamma, so c is w^-1 (0, inner_gamma)."""
    return canonicalize_covector(mat_vec(winv, (0,) * kdim + tuple(inner_gamma)))


def _quotient_family(
    t: UnimodularMatrix,
    k: int,
    budget: Budget,
    injective_only: bool,
    h_star: Subtorus,
) -> DisjointFamilyCertificate:
    if act(t, h_star) != h_star:
        raise FamilyConstructionError("chosen subspace is not invariant")
    kdim = h_star.dim
    w = complete_to_unimodular(h_star.basis, t.n)
    d_block = quotient_action(t, w, kdim)
    if d_block is None:
        raise FamilyConstructionError("subtorus is not invariant in quotient coordinates")
    inner = disjoint_hyperplane_orbits(UnimodularMatrix(transpose(d_block)), k, budget, injective_only)
    winv = inverse_unimodular(w)
    members = tuple(lift_member(winv, kdim, g) for g in inner.members)
    window = min(budget.max_window, 16)
    reports = tuple(_member_report(t, m, window) for m in members)
    return DisjointFamilyCertificate(
        matrix=t.rows,
        count=len(members),
        members=members,
        orbit_reports=reports,
        branch="quotient",
        quotient=QuotientEvidence(h_star, w, d_block, inner),
        rigorous=inner.rigorous,
        complete=inner.complete and len(members) == k,
        explanation=inner.explanation,
    )


def _greedy_family(
    t: UnimodularMatrix,
    k: int,
    budget: Budget,
    injective_only: bool,
) -> DisjointFamilyCertificate:
    kept: list[Vec] = []
    reports: dict[Vec, OrbitReport] = {}
    window_sets: dict[Vec, frozenset[Vec]] = {}

    def clears(report: OrbitReport, target: int) -> bool:
        return report.min_exterior_norm is not None and report.min_exterior_norm > target

    def widen(gamma: Vec, report: OrbitReport, target: int) -> OrbitReport:
        """Widen the window until the growth floor clears target or the budget ends."""
        while not clears(report, target) and report.window_radius < budget.max_window:
            w = report.window_radius
            report = _member_report(t, gamma, min(budget.max_window, w + max(12, w // 2)))
        return report

    for gamma, periodic in _candidate_covectors(t, budget):
        if len(kept) == k:
            break
        if periodic:
            continue  # greedy evidence machinery covers injective orbits only
        if any(gamma in window_sets[g] for g in kept):
            continue
        kept.append(gamma)
        report = _member_report(t, gamma, min(24, budget.max_window))
        report = widen(gamma, report, max(covector_norm_inf(g) for g in kept))
        reports[gamma] = report
        window_sets[gamma] = covector_window_set(t, gamma, report.window_radius)
        # a wider window may reveal an earlier member on this orbit
        if any(other != gamma and other in window_sets[gamma] for other in kept):
            kept.pop()
            del reports[gamma], window_sets[gamma]
    # every member's floor must clear the final maximal norm
    target = max((covector_norm_inf(g) for g in kept), default=0)
    for gamma in kept:
        reports[gamma] = widen(gamma, reports[gamma], target)
    complete = len(kept) == k
    reasons = [] if complete else ["budget exhausted before the requested family size"]
    short = next((i for i, g in enumerate(kept) if not clears(reports[g], target)), None)
    if short is not None:
        rep = reports[kept[short]]
        floor = (
            "growth gave no floor"
            if rep.min_exterior_norm is None
            else f"growth floor {rep.min_exterior_norm} is too low"
        )
        reasons.append(
            f"member {short} {list(kept[short])} at window radius {rep.window_radius}: "
            f"{floor} to clear the maximal member norm {target}"
        )
    rigorous = bool(kept) and short is None
    return DisjointFamilyCertificate(
        matrix=t.rows,
        count=len(kept),
        members=tuple(kept),
        orbit_reports=tuple(reports[g] for g in kept),
        branch="irreducible_greedy",
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

    Dispatches on the automorphism: finite order, root-of-unity spectrum,
    invariant rational subspace (quotient recursion), or irreducible action
    (greedy selection with growth floors).
    """
    if t.n < 2:
        raise ValueError("needs ambient dimension >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    order = matrix_order(t)
    if order is not None:
        if injective_only:
            raise FamilyConstructionError(
                "finite-order automorphisms have no injective hyperplane orbits"
            )
        return _periodic_family(t, k, order, budget)
    if cyclotomic_power(t) is not None:
        return _unipotent_power_family(t, k, budget, injective_only)
    report = invariant_rational_subspaces(t)
    if not report.exists:
        return _greedy_family(t, k, budget, injective_only)
    witness = next((w for w in report.witnesses if w.dim <= t.n - 2), None)
    if witness is None:
        raise AssertionError(
            "a reducible characteristic polynomial yields a witness of codimension >= 2"
        )
    try:
        return _quotient_family(t, k, budget, injective_only, witness)
    except FamilyConstructionError:
        return _greedy_family(t, k, budget, injective_only)


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
        s = dual_matrix(t).rows
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
    isolation: IsolationReport | None = None


# fixed hyperplanes listed for a finite-order automorphism, and the dual norm
# cap of the isolation bound of the first member
FIXED_COUNT = 2
ISOLATION_CAP = 2


def non_expansivity_certificate(
    t: UnimodularMatrix,
    orbit_count: int = 10,
    budget: Budget = Budget(),
) -> NonExpansivityCertificate:
    if t.n < 2:
        raise ValueError("needs ambient dimension >= 2")
    if orbit_count < 1:
        raise ValueError("need orbit_count >= 1")
    order = matrix_order(t)
    if order is not None:
        power = t.power(order)
        assert power.is_identity()
        fixed = []
        for gamma in iter_primitive_covectors(t.n, budget.max_norm):
            if len(fixed) == FIXED_COUNT:
                break
            h = covector_to_hyperplane(PrimitiveCovector(gamma))
            assert act(power, h) == h
            fixed.append(h)
        return NonExpansivityCertificate(
            matrix=t.rows,
            branch="finite_order",
            order=order,
            fixed=tuple(fixed),
            rigorous=True,
            complete=len(fixed) >= 2,
            explanation=None if len(fixed) >= 2 else "fewer than two fixed hyperplanes",
        )
    family = disjoint_hyperplane_orbits(t, orbit_count, budget, injective_only=True)
    # a hyperplane orbit converges to the full torus exactly when it is
    # injective (dynamics.converges_to_full), which each orbit report decides
    conv = tuple(rep.status == "injective" for rep in family.orbit_reports)
    resolution = Fraction(1, 50) if t.n == 2 else Fraction(1, 12)
    iso = None
    if family.members:
        iso = isolation_radius_lower_bound(
            covector_to_hyperplane(PrimitiveCovector(family.members[0])),
            ISOLATION_CAP,
            resolution,
        )
    complete = family.complete and all(conv)
    reasons = [family.explanation] if family.explanation else []
    if iso is not None and iso.bound <= 0:
        reasons.append(
            f"isolation bound {iso.bound} is not positive at dual norm cap "
            f"{ISOLATION_CAP} and resolution {resolution}"
        )
    return NonExpansivityCertificate(
        matrix=t.rows,
        branch="infinitely_many_orbits",
        family=family,
        converges=conv,
        isolation=iso,
        rigorous=family.rigorous and (iso is None or iso.bound > 0),
        complete=complete,
        explanation="; ".join(reasons) or None,
    )
