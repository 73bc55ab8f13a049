"""Independent re-verification of emitted certificates.

The checker never trusts the producer: it recomputes orbit windows, periods,
invariants, growth floors and quotient data from the matrix and the members,
and compares them with what the certificate claims.  Any discrepancy is
reported with the offending member or pair named.

Each piece of evidence has one routine, which the producer calls to build it
and the checker calls to recompute it: the orbit windows
(`dynamics.orbit_window`, `dynamics.covector_window_set`); growth
(`growth.check_growth_certificate`, which shares with the producer the
sequence of a direction and level, the cone-invariance and entry-chain tests
and the norm-floor conversion); the finite-order orbits
(`families.periodic_covector_orbit`); the unipotent invariant sets
(`families.invariant_set_for`); the quotient action and lift
(`families.quotient_action`, `families.lift_member`); and the isolation bound
(`metric.isolation_radius_lower_bound`).  Convergence to the full torus is
read off each orbit report's status, which `verify_family` has matched with
the recomputed orbit dichotomy.

Trusted base: the exact arithmetic of `intmat`, `polynomials` (including the
Newton power-sum routines behind the q-step and Hankel recurrences) and
`lattices`; the subtorus and covector code of `subtori`; and the shared
routines of `dynamics`, `growth`, `metric` and `families` named above.  Every
name it imports is public and comes from one of these modules.

The checker bounds most of its work by the size of the certificate: a window
radius must come with its 2r + 1 entries, a cone power step is at most the
number of entry indices the cone can use, and the unipotent power is
recomputed before any suborbit is walked.  The isolation recomputation is the
exception: its cost grows with the stored dual norm cap and resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import (
    act,
    annihilator_orbit_data,
    covector_window_set,
    dual_matrix,
    orbit_is_periodic,
    orbit_window,
    periodic_orbit_period,
)
from .families import (
    DisjointFamilyCertificate,
    NonExpansivityCertificate,
    cyclotomic_power,
    invariant_set_for,
    lift_member,
    periodic_covector_orbit,
    quotient_action,
)
from .growth import check_growth_certificate
from .intmat import (
    UnimodularMatrix,
    det,
    inverse_unimodular,
    is_unipotent,
    matrix_order,
    transpose,
)
from .metric import isolation_radius_lower_bound
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


def _check_member_report(t, gamma, report, failures, idx) -> None:
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
    expected = tuple((m, s.basis) for m, s in orbit_window(t, h, w))
    if tuple(report.window) != expected:
        m = next(e[0] for e, r in zip(expected, report.window) if e != r)
        _fail(failures, f"member {idx}: window entry at exponent {m} does not match recomputation")
        return
    periodic = orbit_is_periodic(t, h)
    if periodic != (report.status == "periodic"):
        _fail(failures, f"member {idx}: orbit status is wrong")
        return
    if periodic:
        true_period = periodic_orbit_period(t, h)
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
    m_rows, pv = annihilator_orbit_data(t, h)
    for p in check_growth_certificate(m_rows, pv, growth, w):
        _fail(failures, f"member {idx}: growth certificate: {p}")
    # members are hyperplanes, so the annihilator floor is the growth floor
    if report.min_exterior_norm is not None and (
        growth.min_exterior_norm is None or report.min_exterior_norm > growth.min_exterior_norm
    ):
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
    for i, (g, rep) in enumerate(zip(cert.members, cert.orbit_reports)):
        _check_member_report(t, g, rep, failures, i)
    checker = {
        "finite_order": _verify_periodic_branch,
        "unipotent_power": _verify_unipotent_branch,
        "quotient": _verify_quotient_branch,
        "irreducible_greedy": _verify_greedy_branch,
    }.get(cert.branch)
    if checker is None:
        _fail(failures, f"unknown branch {cert.branch!r}")
    else:
        checker(t, cert, failures)
    return VerificationResult(not failures, tuple(failures))


def _verify_periodic_branch(t, cert, failures):
    order = matrix_order(t)
    if order is None:
        _fail(failures, "branch claims finite order but the matrix has infinite order")
        return
    if cert.periodic_orbits is None or len(cert.periodic_orbits) != len(cert.members):
        _fail(failures, "periodic branch needs one enumerated orbit per member")
        return
    s = dual_matrix(t).rows
    for i, (g, orb) in enumerate(zip(cert.members, cert.periodic_orbits)):
        if tuple(orb) != periodic_covector_orbit(s, g, order):
            _fail(failures, f"member {i}: stored orbit does not match recomputation")
    for i in range(len(cert.members)):
        for j in range(i + 1, len(cert.members)):
            if set(cert.periodic_orbits[i]).intersection(cert.periodic_orbits[j]):
                _fail(failures, f"members {i} and {j}: periodic orbits intersect")


def _verify_unipotent_branch(t, cert, failures):
    # the stored power must be the recomputed one, which also bounds the work
    power = cyclotomic_power(t)
    if power is None or cert.unipotent_power != power:
        _fail(failures, f"unipotent power {cert.unipotent_power}, recomputed {power}")
        return
    tp = t.power(power)
    if not is_unipotent(tp):
        _fail(failures, f"T^{power} is not unipotent")
        return
    if tp.is_identity():
        _fail(failures, f"T^{power} is the identity; the finite-order branch applies")
        return
    if cert.invariant_sets is None or len(cert.invariant_sets) != len(cert.members):
        _fail(failures, "unipotent branch needs one invariant set per member")
        return
    for i, (g, stored) in enumerate(zip(cert.members, cert.invariant_sets)):
        recomputed = invariant_set_for(t, g, power)
        if tuple(stored) != recomputed:
            _fail(failures, f"member {i}: invariant set does not match recomputation")
    for i in range(len(cert.members)):
        for j in range(i + 1, len(cert.members)):
            if set(cert.invariant_sets[i]).intersection(cert.invariant_sets[j]):
                _fail(failures, f"members {i} and {j}: invariant sets intersect")


def _verify_quotient_branch(t, cert, failures):
    q = cert.quotient
    if q is None:
        _fail(failures, "quotient branch needs quotient evidence")
        return
    n = t.n
    h_star = q.invariant_subtorus
    kdim = h_star.dim
    if not 0 < kdim <= n - 2:
        _fail(failures, "invariant subtorus must have codimension at least 2")
        return
    if act(t, h_star) != h_star:
        _fail(failures, "the quotient subtorus is not invariant")
        return
    w = q.completion
    if len(w) != n or det(w) not in (1, -1):
        _fail(failures, "completion matrix is not unimodular")
        return
    if tuple(w[:kdim]) != h_star.basis:
        _fail(failures, "completion does not start with the invariant basis")
        return
    d_block = quotient_action(t, w, kdim)
    if d_block is None:
        _fail(failures, "conjugated action does not preserve the flag")
        return
    if d_block != q.quotient_matrix:
        _fail(failures, "stored quotient matrix does not match the conjugation")
        return
    if q.inner.matrix != transpose(d_block):
        _fail(failures, "inner certificate is for a different quotient automorphism")
        return
    inner_result = verify_family(q.inner)
    for f in inner_result.failures:
        _fail(failures, f"quotient interior: {f}")
    if cert.rigorous and not q.inner.rigorous:
        _fail(failures, "certificate claims rigor but the quotient family does not")
    if len(q.inner.members) != len(cert.members):
        _fail(failures, "member count differs from the quotient family")
        return
    winv = inverse_unimodular(w)
    for i, inner_gamma in enumerate(q.inner.members):
        if lift_member(winv, kdim, inner_gamma) != cert.members[i]:
            _fail(failures, f"member {i}: does not lift the quotient member")


def _verify_greedy_branch(t, cert, failures):
    # the radius is read off the stored window, which _check_member_report
    # has matched entry for entry with 2 * window_radius + 1 recomputed ones;
    # a radius claimed without its entries then costs no extra work here
    window_sets = [
        covector_window_set(t, g, (len(rep.window) - 1) // 2)
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
        iso = cert.isolation
        if cert.family.members and iso is None:
            _fail(failures, "missing the isolation bound of the first member")
        elif iso is not None:
            if not cert.family.members or iso.subtorus != covector_to_hyperplane(
                PrimitiveCovector(cert.family.members[0])
            ):
                _fail(failures, "isolation report is not about the first member")
            elif isolation_radius_lower_bound(
                iso.subtorus, iso.dual_norm_bound, iso.resolution
            ) != iso:
                _fail(failures, "isolation bound does not match recomputation")
            if cert.rigorous and iso.bound <= 0:
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
