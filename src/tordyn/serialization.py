"""Canonical JSON encodings for every report and certificate type.

Encoding rules: matrices are row-major integer arrays, lattices are HNF basis
rows, covectors are integer arrays, rationals are "p/q" strings in lowest
terms and certificates are tagged by a "kind" field.  Every report envelope is
written in one compact canonical form (`canonical_json`): keys in sorted
order, no insignificant whitespace, one trailing newline, so equal payloads
give equal bytes.  `python -m json.tool` prints it indented for reading; the
parsers take any JSON layout, so an indented certificate checks the same.

Certificates are at format version 4 and store only what the checker reads
and cannot recompute from the matrix and the members: no enumerated periodic
orbit, unipotent power or invariant set, no growth rigor flag or norm floor
(growth.GrowthCertificate derives them) and, of the isolation bound, only its
exact value.  Any other version is rejected, as there is one parser.
parse_* functions are strict, and every violation is a ParseError (exit 2):
each object has exactly one key set (no missing key, no unknown key, no
defaults), and a growth direction's kind picks it: a Lyapunov direction
stores its form, a matrix of rationals with rows of one length, and its
floor, and every other kind the cone fields; integers are exact, flags JSON
booleans, rationals canonical, `explanation` a string or null, and tags
(branch, status, direction, kind) one of their values; automorphism matrices
have determinant +-1 and subtorus bases are canonical (rejected, never
fixed); `period` is an integer >= 1 exactly for a periodic orbit report,
which carries no growth evidence; and a non-expansivity certificate's branch
decides which of its evidence fields are present and which are null.

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
from .families import DisjointFamilyCertificate, NonExpansivityCertificate
from .growth import ConeEntry, DirectionCertificate, GrowthCertificate
from .intmat import Mat, UnimodularMatrix
from .lattices import Lattice, is_canonical_hnf
from .metric import IsolationReport, MetricEstimate
from .subtori import PrimitiveCovector, Subtorus

FORMAT_VERSION = 4
TOOL_NAME = "tordyn"
TOOL_VERSION = "0.1.0"


class ParseError(ValueError):
    pass


def canonical_json(payload) -> str:
    # no indent: only then does json use its C encoder
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _matrix_payload(m: Mat) -> list:
    return [list(row) for row in m]


def _maybe(encode, x):
    return None if x is None else encode(x)


def _array(data, what: str) -> list:
    if not isinstance(data, list):
        raise ParseError(f"{what} must be an array")
    return data


def _record(data, what: str, parsers: dict) -> dict:
    """Parse an object with exactly the keys of `parsers`, in their order; a
    key whose parser is None is required but left out of the result."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be an object")
    if data.keys() != parsers.keys():
        missing = sorted(parsers.keys() - data.keys())
        unknown = sorted(data.keys() - parsers.keys())
        raise ParseError(f"{what}: missing keys {missing}, unknown keys {unknown}")
    values = {}
    for key, parse in parsers.items():
        if parse is not None:
            try:
                values[key] = parse(data[key])
            except ParseError as exc:
                raise ParseError(f"{what} {key}: {exc}") from None
    return values


def _optional(parse):
    return lambda x: None if x is None else parse(x)


def _tuple_of(parse, what: str):
    return lambda x: tuple(parse(item) for item in _array(x, what))


def _choice(*options: str):
    def parse(x):
        if not isinstance(x, str) or x not in options:
            raise ParseError(f"unknown value {x!r}, expected one of {list(options)}")
        return x
    return parse


def _parse_frac(s) -> Fraction:
    try:
        num, den = s.split("/")
        x = Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError):
        x = None
    if x is None or _frac_str(x) != s:
        raise ParseError(f"expected a 'p/q' rational in lowest terms, got {s!r}")
    return x


def _parse_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"expected an exact integer, got {x!r}")
    return x


def _parse_bool(x) -> bool:
    if not isinstance(x, bool):
        raise ParseError(f"expected true or false, got {x!r}")
    return x


def _parse_explanation(x) -> str | None:
    if x is not None and not isinstance(x, str):
        raise ParseError(f"explanation must be a string or null, got {x!r}")
    return x


_parse_optional_int = _optional(_parse_int)


def _parse_vector(data, what: str = "vector") -> tuple[int, ...]:
    # one type test per entry; only an entry that fails it goes through
    # _parse_int, for its error
    return tuple([x if type(x) is int else _parse_int(x) for x in _array(data, what)])


def _parse_matrix(data, what: str = "matrix") -> Mat:
    row_what = f"{what} row"
    rows = tuple([_parse_vector(row, row_what) for row in _array(data, what)])
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(f"invalid {what}: ragged rows")
    return rows


def _branch_evidence(values: dict, evidence: dict[str, tuple[str, ...]]) -> None:
    """The evidence fields of the branch are present, those of the others null."""
    branch = values["branch"]
    for key in sorted({k for keys in evidence.values() for k in keys}):
        needed = key in evidence[branch]
        if (values[key] is not None) != needed:
            raise ParseError(f"branch {branch!r} {'needs' if needed else 'carries no'} {key!r}")


def parse_unimodular(data) -> UnimodularMatrix:
    rows = _parse_matrix(data, "automorphism matrix")
    try:
        return UnimodularMatrix(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def encode_subtorus(h: Subtorus) -> dict:
    return {"ambient_dim": h.ambient_dim, "basis": _matrix_payload(h.basis)}


def parse_subtorus(data) -> Subtorus:
    v = _record(data, "subtorus", {"ambient_dim": _parse_int, "basis": _parse_matrix})
    if not is_canonical_hnf(v["basis"]):
        raise ParseError("non-canonical basis: subtorus bases must be in HNF")
    try:
        return Subtorus(v["ambient_dim"], Lattice(v["ambient_dim"], v["basis"]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def encode_covector(g) -> list:
    entries = g.entries if isinstance(g, PrimitiveCovector) else g
    return list(entries)


def parse_covector(data) -> PrimitiveCovector:
    v = _parse_vector(data, "covector")
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
        "growth": _maybe(encode_growth, r.growth),
    }


def _parse_window_entry(item) -> tuple[int, Mat]:
    if not isinstance(item, list) or len(item) != 2:
        raise ParseError(f"orbit window entry must be an [m, basis] pair, got {item!r}")
    return _parse_int(item[0]), _parse_matrix(item[1], "window basis")


def parse_orbit_report(data) -> OrbitReport:
    # scalars first, so that a bad one costs no walk over the window
    v = _record(data, "orbit report", {
        "status": _choice("periodic", "injective"),
        "window_radius": _parse_int,
        "rigorous": _parse_bool,
        "period": _parse_optional_int,
        "min_exterior_norm": _parse_optional_int,
        "window": _tuple_of(_parse_window_entry, "orbit window of [m, basis] pairs"),
        "growth": _optional(parse_growth),
    })
    if v["status"] == "injective" and v["period"] is not None:
        raise ParseError(f"an injective orbit report has period null, got {v['period']!r}")
    if v["status"] == "periodic":
        if v["period"] is None or v["period"] < 1:
            raise ParseError(f"a periodic orbit report needs a period >= 1, got {v['period']!r}")
        if v["growth"] is not None or v["min_exterior_norm"] is not None:
            raise ParseError("a periodic orbit report carries no growth evidence")
    return OrbitReport(**v)


def encode_growth(g: GrowthCertificate) -> dict:
    return {
        "annihilator": list(g.annihilator),
        "transfer": _frac_str(g.transfer),
        "forward": encode_direction(g.forward),
        "backward": encode_direction(g.backward),
    }


def parse_growth(data) -> GrowthCertificate:
    return GrowthCertificate(**_record(data, "growth certificate", {
        "annihilator": _parse_vector,
        "transfer": _parse_frac,
        "forward": lambda x: parse_direction(x, "forward"),
        "backward": lambda x: parse_direction(x, "backward"),
    }))


def encode_direction(d: DirectionCertificate) -> dict:
    if d.kind == "lyapunov":
        return {
            "direction": d.direction,
            "kind": d.kind,
            "form": [[_frac_str(x) for x in row] for row in d.form],
            "floor_seq": d.floor_seq,
        }
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
    }


def _parse_cone_entry(data) -> ConeEntry:
    return ConeEntry(**_record(data, "cone entry", dict.fromkeys(
        ("residue", "start_index", "sign"), _parse_int)))


def _parse_form(data) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(_tuple_of(_parse_frac, "form row")(row) for row in _array(data, "form"))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("invalid form: ragged rows")
    return rows


def parse_direction(data, direction: str) -> DirectionCertificate:
    """Growth evidence for the named direction ("forward" or "backward").  A
    Lyapunov direction has its own key set, and its evidence is a level 1
    floor."""
    parsers = {
        "direction": _choice(direction),
        "kind": _choice("cone", "polynomial", "lyapunov", "window_only"),
    }
    if isinstance(data, dict) and data.get("kind") == "lyapunov":
        v = _record(data, f"{direction} growth direction", {
            **parsers, "form": _parse_form, "floor_seq": _parse_int,
        })
        return DirectionCertificate(**v, level=1)
    return DirectionCertificate(**_record(data, f"{direction} growth direction", {
        **parsers,
        "level": _parse_int,
        "power_step": _parse_int,
        "mu": _parse_frac,
        "nu": _parse_frac,
        "entries": _tuple_of(_parse_cone_entry, "cone entries"),
        "floor_seq": _parse_int,
    }))


def encode_family(c: DisjointFamilyCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "disjoint_family",
        "matrix": _matrix_payload(c.matrix),
        "count": c.count,
        "requested": c.requested,
        "members": [list(m) for m in c.members],
        "orbit_reports": [encode_orbit_report(r) for r in c.orbit_reports],
        "branch": c.branch,
        "rigorous": c.rigorous,
        "complete": c.complete,
        "explanation": c.explanation,
    }


def _check_header(data, kind: str) -> None:
    if not isinstance(data, dict):
        raise ParseError("certificate must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unknown format version {data.get('format_version')!r}")
    if data.get("kind") != kind:
        raise ParseError(f"not a {kind} certificate")


def parse_family(data) -> DisjointFamilyCertificate:
    _check_header(data, "disjoint_family")
    v = _record(data, "disjoint-family certificate", {
        "format_version": None,
        "kind": None,
        "matrix": lambda x: parse_unimodular(x).rows,
        "count": _parse_int,
        "requested": _parse_int,
        "members": _tuple_of(lambda x: parse_covector(x).entries, "members"),
        "orbit_reports": _tuple_of(parse_orbit_report, "orbit reports"),
        "branch": _choice("finite_order", "unipotent_power", "greedy"),
        "rigorous": _parse_bool,
        "complete": _parse_bool,
        "explanation": _parse_explanation,
    })
    return DisjointFamilyCertificate(**v)


def encode_isolation(r: IsolationReport) -> dict:
    return {
        "subtorus": encode_subtorus(r.subtorus),
        "dual_norm_bound": r.dual_norm_bound,
        "resolution": _frac_str(r.resolution),
        "candidates": r.candidates,
        "bound": float(r.bound),
        "bound_exact": _frac_str(r.bound),
        "nearest": _maybe(encode_subtorus, r.nearest),
    }


def _parse_isolation_bound(data) -> Fraction:
    return _record(data, "isolation bound", {"bound_exact": _parse_frac})["bound_exact"]


def encode_non_expansivity(c: NonExpansivityCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "non_expansivity",
        "matrix": _matrix_payload(c.matrix),
        "branch": c.branch,
        "order": c.order,
        "fixed_subtori": _maybe(lambda fixed: [encode_subtorus(h) for h in fixed], c.fixed),
        "family": _maybe(encode_family, c.family),
        "converges_to_full": _maybe(list, c.converges),
        "isolation": _maybe(lambda bound: {"bound_exact": _frac_str(bound)}, c.isolation),
        "rigorous": c.rigorous,
        "complete": c.complete,
        "explanation": c.explanation,
    }


_NON_EXPANSIVITY_EVIDENCE = {
    "finite_order": ("order", "fixed_subtori"),
    # `isolation` is null exactly when the family is empty, which verify checks
    "infinitely_many_orbits": ("family", "converges_to_full"),
}


def parse_non_expansivity(data) -> NonExpansivityCertificate:
    _check_header(data, "non_expansivity")
    v = _record(data, "non-expansivity certificate", {
        "format_version": None,
        "kind": None,
        "matrix": lambda x: parse_unimodular(x).rows,
        "branch": _choice(*_NON_EXPANSIVITY_EVIDENCE),
        "order": _parse_optional_int,
        "fixed_subtori": _optional(_tuple_of(parse_subtorus, "fixed subtori")),
        "family": _optional(parse_family),
        "converges_to_full": _optional(_tuple_of(_parse_bool, "convergence flags")),
        "isolation": _optional(_parse_isolation_bound),
        "rigorous": _parse_bool,
        "complete": _parse_bool,
        "explanation": _parse_explanation,
    })
    _branch_evidence(v, _NON_EXPANSIVITY_EVIDENCE)
    if v["branch"] == "finite_order" and v["isolation"] is not None:
        raise ParseError("branch 'finite_order' carries no 'isolation'")
    v["fixed"] = v.pop("fixed_subtori")
    v["converges"] = v.pop("converges_to_full")
    return NonExpansivityCertificate(**v)


def encode_distality_verdict(v: DistalityVerdict) -> dict:
    return {
        "distal": v.distal,
        "order": v.order if v.order is not None else "infinite",
        "witness": _maybe(encode_subtorus, v.witness),
        "witness_covector": _maybe(encode_covector, v.witness_covector),
        "witness_converges_to_full": v.witness_converges_to_full,
    }


def encode_group_report(r: GroupReport) -> dict:
    return {
        "status": r.status,
        "order": r.order,
        "elements": _maybe(lambda els: [_matrix_payload(m) for m in els], r.elements),
        "witness": _maybe(_matrix_payload, r.witness),
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
