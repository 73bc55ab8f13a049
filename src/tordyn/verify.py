"""Independent re-verification of emitted certificates.

The checker never trusts the producer: it recomputes orbit windows, periods,
growth floors, the invariant sets of the root-of-unity branches and the
isolation bound from the matrix and the members.  What a certificate stores
it compares with the recomputation; what it does not store (the invariant
sets, whose disjointness is then checked on the recomputed sets) it uses as
recomputed.  Any discrepancy is reported with the offending member or
pair named.  The greedy branch's check reads only the members and their
reports, not how the producer chose them.

Each piece of evidence has one routine, which the producer calls to build it
and the checker calls to recompute it: the orbit windows
(`dynamics.widen_window`, which `dynamics.orbit_window` starts from the
radius-0 window, and `dynamics.covector_window_set`); the orbit dichotomy and
period, on a member's orbit data (S, gamma) (`growth.minimal_annihilator`,
`dynamics.periodic_orbit_period`); growth (`growth.check_growth_certificate`,
which shares with the producer the sequence of a direction and level, the
cone-invariance and entry-chain tests, the Lyapunov-form test and floor and
the norm-floor conversion); the invariant sets under S^p of both
root-of-unity branches, `finite_order` and `unipotent_power`
(`families.PowerInvariants`), whose tag is checked against
whether T^p = I; and the isolation bound of the first member's hyperplane,
the closed form 1/(2 ||gamma||_2)
(`metric.hyperplane_isolation_bound`).  Convergence to the full torus is
read off each orbit report's status, which `verify_family` has matched with
the recomputed orbit dichotomy.

Trusted base: the exact arithmetic of `intmat`, `polynomials` (including the
Newton power-sum routines behind the q-step and Hankel recurrences) and
`lattices`; the subtorus and covector code of `subtori`; and the shared
routines of `dynamics`, `growth`, `metric` and `families` named above.  A
Lyapunov growth direction is checked by `lyapunov.check_lyapunov_direction`,
on the integer routines of `lyapunov`: `power_coordinates` (the coefficients
of x^m mod g), `stein_residual` and `is_positive_definite` (fraction-free
LDL^T pivots), and `lyapunov_floor`; the float Stein solve that proposes a
form is the producer's alone.  Every name it imports is public and comes from
one of these modules.  Input is validated once, where it enters: the matrix
by `UnimodularMatrix` and each member by `canonicalize_covector` and
`PrimitiveCovector`, after the parser has read every integer exactly.  The
recomputation then runs on kernels that take these trusted ints and check
nothing again: `lattices.trusted_hnf_basis` behind every `act` step of a
window, `subtori.trusted_canonicalize_covector` behind the covector walks,
and the integer quotient of `growth.transfer_constant`.

`verify_family` inverts the matrix once: T^-1 steps the windows backwards
and S = T^-T carries the annihilator data and the covector windows.  Members
that share everything the growth direction check reads (the annihilator, the
window radius and both directions' evidence) are direction-checked once; each
member's annihilator and transfer constant are checked on their own.  A
member's floor and rigor claims are checked in one place,
`_check_member_report`, against the floors its checked growth evidence
derives.  A family is complete exactly when it has the number of members
requested, and a finite-order non-expansivity certificate, whose two fixed
subtori are all it claims, must be complete.

The checker bounds its work by the size of the certificate and the matrix: a
window radius must come with its 2r + 1 entries, a cone power step is at most
the number of entry indices the cone can use, and the power p that sizes the
recomputed invariant sets comes from the matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import (
    act,
    covector_window_set,
    periodic_orbit_period,
    widen_window,
)
from .families import (
    DisjointFamilyCertificate,
    NonExpansivityCertificate,
    PowerInvariants,
)
from .growth import check_growth_certificate, minimal_annihilator
from .intmat import (
    UnimodularMatrix,
    is_zero,
    matrix_order,
    order_bound,
    transpose,
)
from .metric import hyperplane_isolation_bound
from .polynomials import is_squarefree_product_of_cyclotomics
from .subtori import (
    PrimitiveCovector,
    canonicalize_covector,
    covector_norm_inf,
    covector_to_hyperplane,
)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]


def _fail(failures: list[str], msg: str) -> None:
    failures.append(msg)


def _check_member_report(t, tinv, s, gamma, report, failures, idx, growth_checks) -> None:
    """Check one member's orbit report; tinv is T^-1, s the rows of S = T^-T,
    and growth_checks the direction-check outcomes the members share."""
    try:
        h = covector_to_hyperplane(PrimitiveCovector(gamma))
    except ValueError as exc:
        _fail(failures, f"member {idx}: invalid covector ({exc})")
        return
    w = report.window_radius
    if w < 1:
        _fail(failures, f"member {idx}: window radius {w} is below 1")
        return
    if len(report.window) != 2 * w + 1:
        _fail(failures, f"member {idx}: window has {len(report.window)} entries, expected {2 * w + 1}")
        return
    # recomputed bases are canonical and saturated, so a stored entry that is
    # not (or has the wrong length) cannot compare equal and is rejected here
    expected = tuple((m, sub.basis) for m, sub in widen_window(t, tinv, ((0, h),), w))
    if tuple(report.window) != expected:
        m = next(e[0] for e, r in zip(expected, report.window) if e != r)
        _fail(failures, f"member {idx}: window entry at exponent {m} does not match recomputation")
        return
    # (S, gamma) is the hyperplane's orbit data, as in the producer
    g = minimal_annihilator(s, gamma)
    periodic = is_squarefree_product_of_cyclotomics(g)
    if periodic != (report.status == "periodic"):
        _fail(failures, f"member {idx}: orbit status is wrong")
        return
    if periodic:
        true_period = periodic_orbit_period(s, gamma, g)
        if report.period != true_period:
            _fail(failures, f"member {idx}: period {report.period} but recomputed {true_period}")
        return
    growth = report.growth
    if growth is None:
        if report.min_exterior_norm is not None:
            _fail(failures, f"member {idx}: exterior norm claim without growth evidence")
        if report.rigorous:
            _fail(failures, f"member {idx}: rigor claimed without growth evidence")
        return
    problems = check_growth_certificate(s, gamma, growth, w, growth_checks, g)
    for p in problems:
        _fail(failures, f"member {idx}: growth certificate: {p}")
    # only evidence without problems certifies the floor it derives; members
    # are hyperplanes, so the annihilator floor is the growth floor
    floor = None if problems else growth.min_exterior_norm
    if report.min_exterior_norm is not None and (floor is None or report.min_exterior_norm > floor):
        _fail(failures, f"member {idx}: claimed exterior norm exceeds the growth floor")
    if report.rigorous and not growth.rigorous:
        _fail(failures, f"member {idx}: rigor claimed beyond the growth evidence")


def verify_family(cert: DisjointFamilyCertificate) -> VerificationResult:
    failures: list[str] = []
    try:
        t = UnimodularMatrix(cert.matrix)
    except ValueError as exc:
        return VerificationResult(False, (f"matrix: {exc}",))
    n = t.n
    if cert.count != len(cert.members):
        _fail(failures, "count does not equal the number of members")
    if len(set(cert.members)) != len(cert.members):
        dup = [m for m in cert.members if cert.members.count(m) > 1][0]
        _fail(failures, f"duplicate member {dup}")
    for i, g in enumerate(cert.members):
        if len(g) != n:
            _fail(failures, f"member {i}: wrong length")
        elif canonicalize_covector(g) != g:
            _fail(failures, f"member {i}: covector not canonical")
    if len(cert.orbit_reports) != len(cert.members):
        _fail(failures, "one orbit report per member is required")
        return VerificationResult(False, tuple(failures))
    if failures:
        return VerificationResult(False, tuple(failures))
    tinv = t.inv()
    s = transpose(tinv.rows)
    growth_checks: dict = {}
    for i, (g, rep) in enumerate(zip(cert.members, cert.orbit_reports)):
        _check_member_report(t, tinv, s, g, rep, failures, i, growth_checks)
    if cert.complete != (cert.count == cert.requested):
        _fail(failures, f"complete is {cert.complete} for {cert.count} of {cert.requested} "
                        "requested members")
    checker = {
        "finite_order": _verify_root_of_unity_branch,
        "unipotent_power": _verify_root_of_unity_branch,
        "greedy": _verify_greedy_branch,
    }.get(cert.branch)
    if checker is None:
        _fail(failures, f"unknown branch {cert.branch!r}")
    else:
        checker(t, s, cert, failures)
    return VerificationResult(not failures, tuple(failures))


def _check_disjoint(sets, what: str, failures) -> None:
    """Fail every pair of members whose recomputed sets share an element."""
    owner: dict = {}
    clashes = set()
    for j, items in enumerate(sets):
        for x in items:
            i = owner.setdefault(x, j)
            if i != j:
                clashes.add((i, j))
    for i, j in sorted(clashes):
        _fail(failures, f"members {i} and {j}: {what} intersect")


def _verify_root_of_unity_branch(t, s, cert, failures):
    # the power comes from the matrix, which also bounds the work
    power = order_bound(t.rows)
    if power is None:
        _fail(failures, "some eigenvalue is not a root of unity")
        return
    invariants = PowerInvariants(s, power)
    finite = is_zero(invariants.nilpotent)
    if finite != (cert.branch == "finite_order"):
        _fail(failures, f"branch {cert.branch} but T^{power} is {'' if finite else 'not '}the identity")
        return
    _check_disjoint([invariants.invariant_set(g) for g in cert.members],
                    "invariant sets", failures)


def _verify_greedy_branch(t, s, cert, failures):
    # the radius is read off the stored window, which _check_member_report
    # has matched entry for entry with 2 * window_radius + 1 recomputed ones;
    # a radius claimed without its entries then costs no extra work here
    window_sets = [
        covector_window_set(t, s, g, (len(rep.window) - 1) // 2)
        for g, rep in zip(cert.members, cert.orbit_reports)
    ]
    for i in range(len(cert.members)):
        for j in range(len(cert.members)):
            if i == j:
                continue
            gi, gj = cert.members[i], cert.members[j]
            rep_i = cert.orbit_reports[i]
            if gj in window_sets[i]:
                _fail(failures, f"members {i} and {j}: the second lies on the first orbit window")
                continue
            # the growth-floor obligation binds only when rigor is claimed;
            # otherwise the evidence is labeled window-only and stays advisory
            if i < j and cert.rigorous:
                if rep_i.min_exterior_norm is None:
                    _fail(
                        failures,
                        f"members {i} and {j}: no growth floor although the certificate claims rigor",
                    )
                elif covector_norm_inf(gj) >= rep_i.min_exterior_norm:
                    _fail(
                        failures,
                        f"members {i} and {j}: norm of the second reaches the growth floor of the first",
                    )
    if cert.rigorous and any(not rep.rigorous for rep in cert.orbit_reports):
        _fail(failures, "certificate claims rigor but some member evidence is window-only")


def verify_non_expansivity(cert: NonExpansivityCertificate) -> VerificationResult:
    failures: list[str] = []
    try:
        t = UnimodularMatrix(cert.matrix)
    except ValueError as exc:
        return VerificationResult(False, (f"matrix: {exc}",))
    order = matrix_order(t)
    if cert.branch == "finite_order":
        if order is None:
            _fail(failures, "matrix has infinite order")
        elif cert.order != order:
            _fail(failures, f"stored order {cert.order}, recomputed {order}")
        if cert.fixed is None or len(cert.fixed) < 2:
            _fail(failures, "need at least two fixed subtori")
        else:
            if not cert.complete:
                _fail(failures, "complete is false beside two fixed subtori")
            if len(set(cert.fixed)) != len(cert.fixed):
                _fail(failures, "fixed subtori are not distinct")
            if order is not None:
                tp = t.power(order)
                for i, h in enumerate(cert.fixed):
                    if act(tp, h) != h:
                        _fail(failures, f"fixed subtorus {i} is not fixed by the power")
    elif cert.branch == "infinitely_many_orbits":
        if order is not None:
            _fail(failures, "matrix has finite order; wrong branch")
        if cert.family is None:
            _fail(failures, "missing the disjoint family")
            return VerificationResult(False, tuple(failures))
        if cert.family.matrix != cert.matrix:
            _fail(failures, "family certificate is for a different matrix")
            return VerificationResult(False, tuple(failures))
        sub = verify_family(cert.family)
        for f in sub.failures:
            _fail(failures, f"family: {f}")
        if cert.converges is None or len(cert.converges) != len(cert.family.members):
            _fail(failures, "need convergence evidence per member")
        else:
            # verify_family has matched every report's status with the
            # recomputed dichotomy, or failed; a hyperplane orbit converges to
            # the full torus exactly when it is injective
            # (dynamics.converges_to_full)
            for i, (rep, claimed) in enumerate(zip(cert.family.orbit_reports, cert.converges)):
                if rep.status != "injective":
                    _fail(failures, f"member {i}: orbit is periodic, so it does not converge")
                elif not claimed:
                    _fail(failures, f"member {i}: convergence claim is wrong")
        if cert.rigorous and not cert.family.rigorous:
            _fail(failures, "certificate claims rigor but the family does not")
        if cert.complete != cert.family.complete:
            _fail(failures, "complete flag differs from the family's")
        members = cert.family.members
        if members and cert.isolation is None:
            _fail(failures, "missing the isolation bound of the first member")
        elif cert.isolation is not None:
            # verify_family has checked that the members are canonical covectors
            if not members or cert.isolation != hyperplane_isolation_bound(
                sum(x * x for x in members[0])
            ):
                _fail(failures, "isolation bound does not match recomputation")
            elif cert.rigorous and cert.isolation <= 0:
                _fail(failures, "isolation bound is not positive")
    else:
        _fail(failures, f"unknown branch {cert.branch!r}")
    return VerificationResult(not failures, tuple(failures))


def verify_certificate(cert) -> VerificationResult:
    """Verify a parsed certificate object (family or non-expansivity).

    Tampered data may violate invariants deep inside the recomputation; any
    internal error counts as a rejection, never as acceptance.
    """
    if isinstance(cert, DisjointFamilyCertificate):
        checker = verify_family
    elif isinstance(cert, NonExpansivityCertificate):
        checker = verify_non_expansivity
    else:
        raise TypeError(f"cannot verify objects of type {type(cert).__name__}")
    try:
        return checker(cert)
    except Exception as exc:
        return VerificationResult(False, (f"evidence recomputation failed: {exc}",))
