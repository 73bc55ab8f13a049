"""Command-line front end.

One job per invocation: read a JSON job from --input (file or stdin), run the
corresponding library operation, and write a report envelope to --output.

Exit codes: 0 success, 2 invalid input, 3 budget exhausted before a complete
answer, 4 certificate verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .dynamics import (
    acts_distally_on_subp,
    group_is_finite,
    invariant_rational_subspaces,
    is_distal_linear,
    is_ergodic,
    orbit,
)
from .families import (
    Budget,
    disjoint_hyperplane_orbits,
    non_expansivity_certificate,
)
from .metric import hausdorff_distance, isolation_radius_lower_bound
from .serialization import (
    FORMAT_VERSION,
    ParseError,
    TOOL_NAME,
    TOOL_VERSION,
    canonical_json,
    encode_distality_verdict,
    encode_family,
    encode_group_report,
    encode_invariant_subspaces,
    encode_isolation,
    encode_metric_estimate,
    encode_non_expansivity,
    encode_orbit_report,
    parse_certificate,
    parse_covector,
    parse_subtorus,
    parse_unimodular,
)
from .subtori import covector_to_hyperplane
from .verify import verify_certificate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFY_FAILED = 4

COMMANDS = (
    "classify",
    "orbit",
    "disjoint-family",
    "certify-nonexpansive",
    "distance",
    "isolation",
    "group-finite",
    "verify",
)


class Inconclusive(Exception):
    def __init__(self, payload, budget, consumed):
        super().__init__("budget exhausted")
        self.payload = payload
        self.budget = budget
        self.consumed = consumed


class VerifyFailed(Exception):
    def __init__(self, payload):
        super().__init__("verification failed")
        self.payload = payload


def _int_param(params: dict, key: str, default: int) -> int:
    """An explicit value, 0 included, is passed on; only absence means default.
    Only an exact integer is accepted: no float, bool or string."""
    value = params.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"parameter {key!r} must be an integer, got {value!r}")
    return value


def _budget(params: dict) -> Budget:
    b = Budget()
    return Budget(
        _int_param(params, "budget_norm", b.max_norm),
        _int_param(params, "budget_window", b.max_window),
        b.max_candidates,
    )


def _resolution(params: dict) -> Fraction:
    raw = params.get("resolution")
    if raw is None:
        return Fraction(1, 100)
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ParseError(f"bad resolution {raw!r}")
    try:
        return Fraction(raw) if not isinstance(raw, float) else Fraction(raw).limit_denominator(10**9)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # a non-finite float (JSON 1e400 reads as inf) is no resolution
        raise ParseError(f"bad resolution {raw!r}") from exc


def run_job(job: dict) -> dict:
    """Execute a validated job and return the result payload."""
    return _execute(job)[0]


def _execute(job: dict) -> tuple[dict, dict | None, dict | None]:
    """Execute a validated job: the result payload, and the envelope's
    `budget` (the caps the command reads) and `budget_consumed` summary,
    each None for a command without a budget."""
    if not isinstance(job, dict):
        raise ParseError("job must be a JSON object")
    command = job.get("command")
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    params = job.get("parameters", {})
    if not isinstance(params, dict):
        raise ParseError("'parameters' must be an object")

    if command == "classify":
        t = parse_unimodular(job.get("matrix"))
        verdict = acts_distally_on_subp(t)
        return {
            "distal_on_subp": verdict.distal,
            "order": verdict.order if verdict.order is not None else "infinite",
            "ergodic": is_ergodic(t),
            "distal_linear": is_distal_linear(t),
            "witness": encode_distality_verdict(verdict)["witness_covector"],
            "invariant_rational_subspaces": encode_invariant_subspaces(
                invariant_rational_subspaces(t)
            ) if t.n >= 2 else None,
        }, None, None

    if command == "orbit":
        t = parse_unimodular(job.get("matrix"))
        if "covector" in job:
            h = covector_to_hyperplane(parse_covector(job["covector"]))
        elif "subtorus" in job:
            h = parse_subtorus(job["subtorus"])
        else:
            raise ParseError("orbit needs 'covector' or 'subtorus'")
        window = _int_param(params, "budget_window", 16)
        return encode_orbit_report(orbit(t, h, window)), {"window_radius": window}, None

    if command == "disjoint-family":
        t = parse_unimodular(job.get("matrix"))
        k = _int_param(params, "count", 10)
        budget = _budget(params)
        cert = disjoint_hyperplane_orbits(t, k, budget)
        payload = encode_family(cert)
        if not cert.complete:
            raise Inconclusive(payload, asdict(budget), _consumed(payload))
        return payload, asdict(budget), _consumed(payload)

    if command == "certify-nonexpansive":
        t = parse_unimodular(job.get("matrix"))
        k = _int_param(params, "count", 10)
        budget = _budget(params)
        cert = non_expansivity_certificate(t, k, budget)
        payload = encode_non_expansivity(cert)
        if not cert.complete:
            raise Inconclusive(payload, asdict(budget), _consumed(payload["family"]))
        return payload, asdict(budget), _consumed(payload["family"])

    if command == "distance":
        h1 = parse_subtorus(job.get("first"))
        h2 = parse_subtorus(job.get("second"))
        return encode_metric_estimate(hausdorff_distance(h1, h2, _resolution(params))), None, None

    if command == "isolation":
        h = parse_subtorus(job.get("subtorus"))
        cap = _int_param(params, "budget_norm", 5)
        report = isolation_radius_lower_bound(h, cap, _resolution(params))
        return encode_isolation(report), {"max_norm": cap}, None

    if command == "group-finite":
        matrices = job.get("matrices")
        if not isinstance(matrices, list) or not matrices:
            raise ParseError("group-finite needs a nonempty 'matrices' array")
        gens = [parse_unimodular(m) for m in matrices]
        cap = _int_param(params, "count", 20000)
        report = group_is_finite(gens, cap)
        payload = encode_group_report(report)
        consumed = {"elements_found": report.elements_found}
        if report.status == "inconclusive":
            raise Inconclusive(payload, {"cap": cap}, consumed)
        return payload, {"cap": cap}, consumed

    if command == "verify":
        if "certificate" not in job:
            raise ParseError("verify needs a 'certificate'")
        try:
            cert = parse_certificate(job["certificate"])
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"malformed certificate: {exc}") from exc
        result = verify_certificate(cert)
        payload = {"ok": result.ok, "failures": list(result.failures)}
        if not result.ok:
            raise VerifyFailed(payload)
        return payload, None, None

    raise AssertionError("unreachable")


def _consumed(family: dict | None) -> dict | None:
    """Budget-consumption summary of a family payload: None when the branch
    built no family (finite order)."""
    if not family:
        return None
    radii = [r["window_radius"] for r in family.get("orbit_reports", [])]
    norms = [max(abs(x) for x in m) for m in family.get("members", [])]
    return {
        "max_window_used": max(radii, default=0),
        "max_member_norm": max(norms, default=0),
        "members_found": len(family.get("members", [])),
    }


def _envelope(command: str, job: dict, result: dict, budget: dict | None, consumed: dict | None,
              started: float) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
        "input": job,
        "result": result,
        "budget": budget,
        "budget_consumed": consumed,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }


def _read_input(path: str | None) -> dict:
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON input: {exc}") from exc


def _write_output(path: str | None, payload: dict) -> None:
    text = canonical_json(payload)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tordyn",
        description="Exact dynamics of torus automorphisms on the space of subtori",
    )
    # every command takes the same options, so one parser serves them all
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default="-", help="input JSON file, or - for stdin")
    parser.add_argument("--output", default="-", help="output JSON file, or - for stdout")
    parser.add_argument("--budget-norm", type=int, default=None)
    parser.add_argument("--budget-window", type=int, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--resolution", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        job = _read_input(args.input)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not isinstance(job, dict):
        print("error: job must be a JSON object", file=sys.stderr)
        return EXIT_INVALID
    job = dict(job)
    job["command"] = args.command
    params = dict(job.get("parameters", {}))
    for key in ("budget_norm", "budget_window", "count", "resolution"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    job["parameters"] = params
    try:
        result, budget, consumed = _execute(job)
        status = EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"error: invalid input ({exc})", file=sys.stderr)
        return EXIT_INVALID
    except Inconclusive as exc:
        result, budget, consumed = exc.payload, exc.budget, exc.consumed
        status = EXIT_INCONCLUSIVE
    except VerifyFailed as exc:
        result, budget, consumed = exc.payload, None, None
        status = EXIT_VERIFY_FAILED
    _write_output(args.output, _envelope(args.command, job, result, budget, consumed, started))
    return status


if __name__ == "__main__":
    sys.exit(main())
