"""Canonical JSON encodings for every report and certificate type.

Encoding rules: matrices are row-major integer arrays, lattices are HNF basis
rows, covectors are integer arrays, rationals are "p/q" strings, certificates
are tagged by a "kind" field, and keys are emitted in sorted order so that
serialized certificates diff cleanly.  parse_* functions validate: integer
entries must be exact, automorphism matrices must have determinant +-1, and
subtorus bases must already be canonical (a non-canonical basis is rejected,
never silently fixed).

Orbit-window entries are the exception: each is an [m, basis] pair read as
exact integers only (rows of one length), not as a subtorus.  The checker
recomputes every window entry as a canonical, saturated HNF basis and
compares, so a stored basis that is not canonical, not saturated or of the
wrong length fails that comparison (verification failure, exit 4) instead of
a parse error (exit 2).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dynamics import DistalityVerdict, GroupReport, InvariantSubspaceReport, OrbitReport
from .families import (
    Budget,
    DisjointFamilyCertificate,
    NonExpansivityCertificate,
    PairDisjointness,
    QuotientEvidence,
    UnipotentInvariant,
)
from .growth import ConeEntry, DirectionCertificate, GrowthCertificate
from .intmat import Mat, UnimodularMatrix, as_matrix, as_vector
from .lattices import Lattice, is_canonical_hnf
from .metric import IsolationReport, MetricEstimate
from .subtori import PrimitiveCovector, Subtorus

FORMAT_VERSION = 1
TOOL_NAME = "tordyn"
TOOL_VERSION = "0.1.0"


class ParseError(ValueError):
    pass


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s) -> Fraction:
    if not isinstance(s, str) or "/" not in s:
        raise ParseError(f"expected a 'p/q' rational, got {s!r}")
    num, den = s.split("/", 1)
    return Fraction(int(num), int(den))


def _matrix_payload(m: Mat) -> list:
    return [list(row) for row in m]


def _parse_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"expected an exact integer, got {x!r}")
    return x


def _parse_optional_int(x) -> int | None:
    return None if x is None else _parse_int(x)


def _parse_bool(x) -> bool:
    if not isinstance(x, bool):
        raise ParseError(f"expected true or false, got {x!r}")
    return x


def _parse_matrix(data, what: str = "matrix") -> Mat:
    if not isinstance(data, list):
        raise ParseError(f"{what} must be an array of rows")
    try:
        return as_matrix([[_parse_int(x) for x in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid {what}: {exc}") from exc


def parse_unimodular(data) -> UnimodularMatrix:
    rows = _parse_matrix(data, "automorphism matrix")
    try:
        return UnimodularMatrix(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def encode_subtorus(h: Subtorus) -> dict:
    return {"ambient_dim": h.ambient_dim, "basis": _matrix_payload(h.basis)}


def parse_subtorus(data) -> Subtorus:
    if not isinstance(data, dict) or "ambient_dim" not in data or "basis" not in data:
        raise ParseError("subtorus needs 'ambient_dim' and 'basis'")
    n = _parse_int(data["ambient_dim"])
    basis = _parse_matrix(data["basis"], "subtorus basis")
    if not is_canonical_hnf(basis):
        raise ParseError("non-canonical basis: subtorus bases must be in HNF")
    try:
        return Subtorus(n, Lattice(n, basis))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def encode_covector(g) -> list:
    entries = g.entries if isinstance(g, PrimitiveCovector) else g
    return list(entries)


def parse_covector(data) -> PrimitiveCovector:
    if not isinstance(data, list):
        raise ParseError("covector must be an integer array")
    v = as_vector([_parse_int(x) for x in data])
    try:
        return PrimitiveCovector(v)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def encode_metric_estimate(e: MetricEstimate) -> dict:
    return {
        "value": float(e.value),
        "value_exact": _frac_str(e.value),
        "error_bound": float(e.error_bound),
        "error_bound_exact": _frac_str(e.error_bound),
        "resolution": _frac_str(e.resolution),
    }


def encode_orbit_report(r: OrbitReport) -> dict:
    return {
        "status": r.status,
        "period": r.period,
        "window_radius": r.window_radius,
        "window": [[m, _matrix_payload(basis)] for m, basis in r.window],
        "min_exterior_norm": r.min_exterior_norm,
        "rigorous": r.rigorous,
        "growth": encode_growth(r.growth) if r.growth is not None else None,
    }


def _parse_window_entry(item) -> tuple[int, Mat]:
    if not isinstance(item, list) or len(item) != 2:
        raise ParseError(f"orbit window entry must be an [m, basis] pair, got {item!r}")
    return _parse_int(item[0]), _parse_matrix(item[1], "window basis")


def parse_orbit_report(data) -> OrbitReport:
    if not isinstance(data, dict):
        raise ParseError("orbit report must be an object")
    status = data.get("status")
    if status not in ("periodic", "injective"):
        raise ParseError(f"unknown orbit status {status!r}")
    window_radius = _parse_int(data["window_radius"])
    rigorous = _parse_bool(data["rigorous"])
    period = _parse_optional_int(data.get("period"))
    min_exterior_norm = _parse_optional_int(data.get("min_exterior_norm"))
    window = data.get("window")
    if not isinstance(window, list):
        raise ParseError("orbit window must be an array of [m, basis] pairs")
    growth = data.get("growth")
    return OrbitReport(
        status=status,
        period=period,
        window_radius=window_radius,
        window=tuple(_parse_window_entry(item) for item in window),
        min_exterior_norm=min_exterior_norm,
        growth=parse_growth(growth) if growth is not None else None,
        rigorous=rigorous,
    )


def encode_growth(g: GrowthCertificate) -> dict:
    return {
        "window_radius": g.window_radius,
        "annihilator": list(g.annihilator),
        "transfer": _frac_str(g.transfer),
        "forward": encode_direction(g.forward),
        "backward": encode_direction(g.backward),
        "rigorous": g.rigorous,
        "min_exterior_norm": g.min_exterior_norm,
    }


def parse_growth(data) -> GrowthCertificate:
    return GrowthCertificate(
        window_radius=_parse_int(data["window_radius"]),
        annihilator=tuple(_parse_int(x) for x in data["annihilator"]),
        transfer=_parse_frac(data["transfer"]),
        forward=parse_direction(data["forward"]),
        backward=parse_direction(data["backward"]),
        rigorous=_parse_bool(data["rigorous"]),
        min_exterior_norm=_parse_optional_int(data.get("min_exterior_norm")),
    )


def encode_direction(d: DirectionCertificate) -> dict:
    return {
        "direction": d.direction,
        "kind": d.kind,
        "level": d.level,
        "power_step": d.power_step,
        "mu": _frac_str(d.mu),
        "nu": _frac_str(d.nu),
        "entries": [
            {"residue": e.residue, "start_index": e.start_index, "sign": e.sign}
            for e in d.entries
        ],
        "floor_seq": d.floor_seq,
        "floor_norm": d.floor_norm,
    }


def parse_direction(data) -> DirectionCertificate:
    return DirectionCertificate(
        direction=data["direction"],
        kind=data["kind"],
        level=_parse_int(data.get("level", 0)),
        power_step=_parse_int(data.get("power_step", 0)),
        mu=_parse_frac(data["mu"]),
        nu=_parse_frac(data["nu"]),
        entries=tuple(
            ConeEntry(
                residue=_parse_int(e["residue"]),
                start_index=_parse_int(e["start_index"]),
                sign=_parse_int(e["sign"]),
            )
            for e in data.get("entries", [])
        ),
        floor_seq=_parse_int(data.get("floor_seq", 0)),
        floor_norm=_parse_int(data.get("floor_norm", 0)),
    )


def encode_budget(b: Budget) -> dict:
    return {"max_norm": b.max_norm, "max_window": b.max_window, "max_candidates": b.max_candidates}


def parse_budget(data) -> Budget:
    return Budget(
        max_norm=_parse_int(data["max_norm"]),
        max_window=_parse_int(data["max_window"]),
        max_candidates=_parse_int(data["max_candidates"]),
    )


def encode_invariant(u: UnipotentInvariant) -> dict:
    return {
        "difference_lattice": _matrix_payload(u.difference_lattice),
        "reduced": list(u.reduced),
    }


def parse_invariant(data) -> UnipotentInvariant:
    return UnipotentInvariant(
        difference_lattice=_parse_matrix(data["difference_lattice"], "invariant lattice"),
        reduced=tuple(_parse_int(x) for x in data["reduced"]),
    )


def encode_family(c: DisjointFamilyCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "disjoint_family",
        "matrix": _matrix_payload(c.matrix),
        "count": c.count,
        "members": [list(m) for m in c.members],
        "orbit_reports": [encode_orbit_report(r) for r in c.orbit_reports],
        "branch": c.branch,
        "pairwise": [
            {"first": p.first, "second": p.second, "kind": p.kind, "note": p.note}
            for p in c.pairwise
        ],
        "periodic_orbits": (
            [[list(v) for v in orb] for orb in c.periodic_orbits]
            if c.periodic_orbits is not None
            else None
        ),
        "unipotent_power": c.unipotent_power,
        "invariant_sets": (
            [[encode_invariant(u) for u in s] for s in c.invariant_sets]
            if c.invariant_sets is not None
            else None
        ),
        "quotient": encode_quotient(c.quotient) if c.quotient is not None else None,
        "rigorous": c.rigorous,
        "complete": c.complete,
        "explanation": c.explanation,
        "budget": encode_budget(c.budget),
    }


def encode_quotient(q: QuotientEvidence) -> dict:
    return {
        "invariant_subtorus": encode_subtorus(q.invariant_subtorus),
        "completion": _matrix_payload(q.completion),
        "quotient_matrix": _matrix_payload(q.quotient_matrix),
        "inner": encode_family(q.inner),
    }


def parse_family(data) -> DisjointFamilyCertificate:
    if not isinstance(data, dict):
        raise ParseError("certificate must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unknown format version {data.get('format_version')!r}")
    if data.get("kind") != "disjoint_family":
        raise ParseError("not a disjoint-family certificate")
    matrix = parse_unimodular(data["matrix"]).rows
    members = tuple(parse_covector(m).entries for m in data["members"])
    reports = tuple(parse_orbit_report(r) for r in data["orbit_reports"])
    quotient = None
    if data.get("quotient") is not None:
        qd = data["quotient"]
        quotient = QuotientEvidence(
            invariant_subtorus=parse_subtorus(qd["invariant_subtorus"]),
            completion=_parse_matrix(qd["completion"], "completion"),
            quotient_matrix=_parse_matrix(qd["quotient_matrix"], "quotient matrix"),
            inner=parse_family(qd["inner"]),
        )
    return DisjointFamilyCertificate(
        matrix=matrix,
        count=_parse_int(data["count"]),
        members=members,
        orbit_reports=reports,
        branch=data["branch"],
        pairwise=tuple(
            PairDisjointness(
                _parse_int(p["first"]), _parse_int(p["second"]), p["kind"], p["note"]
            )
            for p in data.get("pairwise", [])
        ),
        periodic_orbits=(
            tuple(tuple(tuple(_parse_int(x) for x in v) for v in orb) for orb in data["periodic_orbits"])
            if data.get("periodic_orbits") is not None
            else None
        ),
        unipotent_power=_parse_optional_int(data.get("unipotent_power")),
        invariant_sets=(
            tuple(tuple(parse_invariant(u) for u in s) for s in data["invariant_sets"])
            if data.get("invariant_sets") is not None
            else None
        ),
        quotient=quotient,
        rigorous=_parse_bool(data["rigorous"]),
        complete=_parse_bool(data["complete"]),
        explanation=data.get("explanation"),
        budget=parse_budget(data["budget"]),
    )


def encode_isolation(r: IsolationReport) -> dict:
    return {
        "subtorus": encode_subtorus(r.subtorus),
        "dual_norm_bound": r.dual_norm_bound,
        "resolution": _frac_str(r.resolution),
        "candidates": r.candidates,
        "bound": float(r.bound),
        "bound_exact": _frac_str(r.bound),
        "nearest": encode_subtorus(r.nearest) if r.nearest is not None else None,
    }


def parse_isolation(data) -> IsolationReport:
    return IsolationReport(
        subtorus=parse_subtorus(data["subtorus"]),
        dual_norm_bound=_parse_int(data["dual_norm_bound"]),
        resolution=_parse_frac(data["resolution"]),
        candidates=_parse_int(data["candidates"]),
        bound=_parse_frac(data["bound_exact"]),
        nearest=parse_subtorus(data["nearest"]) if data.get("nearest") is not None else None,
    )


def encode_non_expansivity(c: NonExpansivityCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "non_expansivity",
        "matrix": _matrix_payload(c.matrix),
        "branch": c.branch,
        "order": c.order,
        "fixed_subtori": [encode_subtorus(h) for h in c.fixed] if c.fixed is not None else None,
        "family": encode_family(c.family) if c.family is not None else None,
        "converges_to_full": list(c.converges) if c.converges is not None else None,
        "isolation": encode_isolation(c.isolation) if c.isolation is not None else None,
        "rigorous": c.rigorous,
        "complete": c.complete,
        "explanation": c.explanation,
    }


def parse_non_expansivity(data) -> NonExpansivityCertificate:
    if data.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unknown format version {data.get('format_version')!r}")
    if data.get("kind") != "non_expansivity":
        raise ParseError("not a non-expansivity certificate")
    matrix = parse_unimodular(data["matrix"]).rows
    return NonExpansivityCertificate(
        matrix=matrix,
        branch=data["branch"],
        order=_parse_optional_int(data.get("order")),
        fixed=(
            tuple(parse_subtorus(h) for h in data["fixed_subtori"])
            if data.get("fixed_subtori") is not None
            else None
        ),
        family=parse_family(data["family"]) if data.get("family") is not None else None,
        converges=(
            tuple(_parse_bool(x) for x in data["converges_to_full"])
            if data.get("converges_to_full") is not None
            else None
        ),
        isolation=(
            parse_isolation(data["isolation"]) if data.get("isolation") is not None else None
        ),
        rigorous=_parse_bool(data["rigorous"]),
        complete=_parse_bool(data["complete"]),
        explanation=data.get("explanation"),
    )


def encode_distality_verdict(v: DistalityVerdict) -> dict:
    return {
        "distal": v.distal,
        "order": v.order if v.order is not None else "infinite",
        "witness": encode_subtorus(v.witness) if v.witness is not None else None,
        "witness_covector": encode_covector(v.witness_covector)
        if v.witness_covector is not None
        else None,
        "witness_converges_to_full": v.witness_converges_to_full,
    }


def encode_group_report(r: GroupReport) -> dict:
    return {
        "status": r.status,
        "order": r.order,
        "elements": [_matrix_payload(m) for m in r.elements] if r.elements is not None else None,
        "witness": _matrix_payload(r.witness) if r.witness is not None else None,
    }


def encode_invariant_subspaces(r: InvariantSubspaceReport) -> dict:
    return {
        "exists": r.exists,
        "witnesses": [encode_subtorus(h) for h in r.witnesses],
        "characteristic_factors": [
            {"coefficients": list(f), "multiplicity": e} for f, e in r.characteristic_factors
        ],
        "minimal_polynomial": list(r.minimal_polynomial),
    }


def parse_certificate(data):
    """Parse any certificate payload by its kind tag."""
    if not isinstance(data, dict):
        raise ParseError("certificate must be a JSON object")
    kind = data.get("kind")
    if kind == "disjoint_family":
        return parse_family(data)
    if kind == "non_expansivity":
        return parse_non_expansivity(data)
    raise ParseError(f"unknown certificate kind {kind!r}")
