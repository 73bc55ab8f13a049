"""Benchmark of tordyn: certificate production and checking, end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload family-shared --seed 1 --seconds 40 --trace 0

It drives the CLI in-process through `tordyn.cli.main`, one thread, with JSON
job files generated from the seed (see workloads.py), checks every output with
the independent code in checks.py, and prints one JSON object as the last
line of standard output.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones from a traced run (tracing.py).

Every timed CLI job, and the set-up, is scaled by a fixed pure-Python
reference loop that imports nothing from tordyn, run right before and after
the job and in short samples during it (refclock.py).  A reported time reads
as seconds on the machine the benchmark was calibrated on.  See README.md.
"""

import refclock

if __name__ == "__main__":
    # The set-up is timed from here, after one reference loop and before
    # anything else loads.
    _CLOCK = refclock.ReferenceClock()
    _SETUP_START = _CLOCK.begin(sample=False)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".bench_work"
UNITS = {
    "setup_s": "s",
    "produce_s": "s",
    "verify_s": "s",
    "certificate_bytes": "bytes",
    "rigorous_certificates": "count",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs CLI jobs in-process, each timed by the reference clock."""

    def __init__(self, cli, clock, work: str):
        self.cli = cli
        self.clock = clock
        self.job_path = os.path.join(work, f"job-{os.getpid()}.json")
        self.out_path = os.path.join(work, f"out-{os.getpid()}.json")

    def run(self, command: str, payload: dict, args=()) -> tuple[int, dict | None, float, float]:
        """Returns (exit code, envelope or None, raw seconds, scaled seconds)."""
        with open(self.job_path, "w") as fh:
            json.dump(payload, fh)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = [command, "--input", self.job_path, "--output", self.out_path, *args]
        started = self.clock.begin()
        code = self.cli.main(argv)
        raw, scaled = self.clock.end(started)
        envelope = None
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                envelope = json.load(fh)
        return code, envelope, raw, scaled

    def close(self) -> None:
        for path in (self.job_path, self.out_path):
            if os.path.exists(path):
                os.remove(path)


def canonical_size(cert: dict) -> int:
    """Bytes of the certificate in the CLI's canonical JSON form: sorted keys,
    two-space indent, trailing newline."""
    return len((json.dumps(cert, sort_keys=True, indent=2) + "\n").encode())


def tampered(cert: dict, how: str) -> dict:
    """A copy of a greedy family certificate with one fault."""
    c = json.loads(json.dumps(cert))
    reports = c["orbit_reports"]
    if how == "member-on-window":
        s = checks.dual(c["matrix"])
        c["members"][1] = list(checks.canonical(checks.mat_vec(s, c["members"][0])))
    elif how == "inflated-exterior-norm":
        reports[0]["min_exterior_norm"] = 4 * reports[0]["min_exterior_norm"] + 1
    elif how == "truncated-window":
        reports[0]["window"] = reports[0]["window"][:-1]
    elif how == "status-bogus":
        reports[0]["status"] = "bogus"
    elif how == "rigorous-string":
        c["rigorous"] = "false"
    else:
        raise ValueError(how)
    return c


class Round:
    """Outcome of one round: per-job scaled times and what was checked."""

    def __init__(self):
        self.produce: list[float] = []
        self.verify: list[float] = []
        self.raw_produce = 0.0
        self.raw_verify = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs of operations that did not fail
        self.failures: list[str] = []  # operations that failed
        self.certificate_bytes = 0
        self.rigorous = 0
        self.jobs: list[tuple[str, str, float, float]] = []
        # for the traced run's derived ratios
        self.members = 0
        self.annihilators: set = set()
        self.verify_window_steps = 0
        self.verify_act_calls = 0
        self.act_shortfalls: list[str] = []

    @property
    def total(self) -> float:
        return sum(self.produce) + sum(self.verify)


def run_round(runner: Runner, tasks, tracer=None) -> Round:
    out = Round()
    distances = {}

    def job(task_label, role, command, payload, args=()):
        mark = tracer.mark() if tracer else None
        code, env, raw, scaled = runner.run(command, payload, args)
        out.attempted += 1
        (out.produce if role == "produce" else out.verify).append(scaled)
        if role == "produce":
            out.raw_produce += raw
        else:
            out.raw_verify += raw
        out.jobs.append((task_label, role, raw, scaled))
        calls = tracer.calls_since(mark) if tracer else None
        return code, env, calls

    for task in tasks:
        code, env, _ = job(task.label, "produce", task.command, task.payload, task.args)
        if code != 0 or env is None:
            out.failed += 1
            out.failures.append(f"{task.label}: {task.command} exited {code}")
            continue
        result = env["result"]
        if task.command == "disjoint-family":
            problems = checks.check_family(result, task.payload["matrix"], task.expect["count"])
        elif task.command == "certify-nonexpansive":
            problems = checks.check_non_expansivity(result, task.payload["matrix"], task.expect["count"])
        elif task.command == "group-finite":
            problems = checks.check_group(result, task.payload["matrices"], task.expect["order"])
        elif task.command == "classify":
            problems = checks.check_classify(result, task.payload["matrix"])
        elif task.command == "isolation":
            problems = checks.check_isolation(result, task.payload["subtorus"])
        elif task.command == "distance":
            distances[task.expect["pair"]] = result
            problems = []
        else:
            raise ValueError(task.command)
        out.problems += [f"{task.label}: {p}" for p in problems]
        if task.command not in ("disjoint-family", "certify-nonexpansive"):
            continue
        out.certificate_bytes += canonical_size(result)
        out.members += checks.members_kept(result)
        out.annihilators |= checks.annihilators(result)
        code, env, calls = job(task.label, "verify", "verify", {"certificate": result})
        if code != 0 or env is None or env["result"].get("ok") is not True:
            out.failed += 1
            out.failures.append(f"{task.label}: verify exited {code} on the honest certificate")
            continue
        if tracer:
            # verify recomputes every window by stepping both ways
            steps = checks.window_steps(result)
            out.verify_window_steps += steps
            out.verify_act_calls += calls["dynamics.act"]
            if calls["dynamics.act"] < 2 * steps:
                out.act_shortfalls.append(
                    f"{task.label}: verify made {calls['dynamics.act']} act calls for "
                    f"windows of total radius {steps}")
        if result.get("rigorous") is True and not problems:
            out.rigorous += 1
        for how in task.tamper:
            code, _, _ = job(f"{task.label} [{how}]", "verify", "verify",
                             {"certificate": tampered(result, how)})
            if code not in (2, 4):
                out.failed += 1
                out.failures.append(f"{task.label}: tampered copy {how} accepted with exit {code}")
    if distances:
        out.problems += checks.check_distances(distances)
    return out


def checkout_source(root: str) -> str | None:
    src = os.path.join(root, "src")
    return src if os.path.isfile(os.path.join(src, "tordyn", "cli.py")) else None


def setup(work: str):
    """Cold set-up, timed from the first lines of this script, after one
    reference loop: import tordyn and finish one small job that pulls in the
    lazy imports (sympy for rational factorisation, numpy for growth hints)."""
    from tordyn import cli

    runner = Runner(cli, _CLOCK, work)
    with open(runner.job_path, "w") as fh:
        json.dump({"matrix": [[2, 1], [1, 1]]}, fh)
    code = cli.main(["disjoint-family", "--input", runner.job_path, "--output", runner.out_path,
                     "--count", "1"])
    raw, scaled = _CLOCK.end(_SETUP_START)
    if code != 0:
        raise SystemExit(f"set-up job exited {code}")
    return runner, raw, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = checkout_source(root)
    if src is None:
        _CLOCK.close()
        print("error: run from the root of a tordyn checkout (src/tordyn is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        _CLOCK.close()
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)

    runner, setup_raw, setup_scaled = setup(work)
    import tordyn

    if not os.path.abspath(tordyn.__file__).startswith(src + os.sep):
        _CLOCK.close()
        print(f"error: imported tordyn from {tordyn.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    # Round 0 warms up and is left out of the timings.  A traced run then
    # alternates traced and untraced rounds, so that the tracing overhead is
    # measured against untraced rounds of the same process.
    rounds: list[Round] = []
    traced_rounds: list[tuple[Round, dict, dict]] = []
    span_rounds = []
    loop_start = time.perf_counter()
    while True:
        rnd = len(rounds) + len(traced_rounds)
        tasks = workloads.make_round(args.workload, args.seed, rnd)
        started = time.perf_counter()
        if tracer is not None and rnd % 2 == 1:
            tracer.install([label for label, _, _ in LAYER_METRICS])
            mark = tracer.mark()
            result = run_round(runner, tasks, tracer)
            tracer.uninstall()
            self_s, calls = tracer.summary(mark)
            span_rounds.append({"round": rnd, "first_span": mark[0], "last_span": len(tracer.start)})
            traced_rounds.append((result, self_s, calls))
        else:
            rounds.append(run_round(runner, tasks))
        now = time.perf_counter()
        enough = len(rounds) >= 2 and (tracer is None or traced_rounds)
        if enough and (now - loop_start) + (now - started) > args.seconds:
            break

    runner.close()
    _CLOCK.close()
    all_rounds = rounds + [r for r, _, _ in traced_rounds]
    problems = [p for r in all_rounds for p in r.problems]
    failures = sorted({f for r in all_rounds for f in r.failures})
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)

    if tracer is None:
        metrics = end_to_end(rounds[1:], setup_scaled)
        report_lines(args, rounds, setup_raw, setup_scaled, metrics)
        print(f"# reference loop: median {statistics.median(_CLOCK.loops):.5f} s over "
              f"{len(_CLOCK.loops)} loops, R0 = {refclock.R0} s")
    else:
        metrics = per_layer(rounds[1:], traced_rounds)
        problems += [f for r, _, _ in traced_rounds for f in r.act_shortfalls]
        tracer.write(os.path.join(work, f"spans-{args.workload}-{args.seed}.bin"), span_rounds)
    for f in failures:
        print(f"# failed operation (every round): {f}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"# {args.workload}: attempted {attempted} operations, failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _median_per_job(values_per_round: list[list[float]]) -> float:
    """Sum over job positions of each position's median across rounds."""
    return sum(statistics.median(col) for col in zip(*values_per_round))


def end_to_end(rounds: list[Round], setup_scaled: float) -> dict:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": setup_scaled,
        "produce_s": _median_per_job([r.produce for r in rounds]),
        "verify_s": _median_per_job([r.verify for r in rounds]),
        "certificate_bytes": statistics.median(r.certificate_bytes for r in rounds),
        "rigorous_certificates": statistics.median(r.rigorous for r in rounds),
        "peak_rss_mb": peak_mb,
    }
    return {k: (v, UNITS[k]) for k, v in values.items()}


# Per-layer metrics: (label, calls?, self_s?).
LAYER_METRICS = (
    ("cli.main", False, True),
    ("serialization.encode", False, True),
    ("serialization.canonical_json", False, True),
    ("serialization.parse_certificate", False, True),
    ("verify.verify_certificate", False, True),
    ("families.disjoint_hyperplane_orbits", False, True),
    ("families.non_expansivity_certificate", False, True),
    ("dynamics.act", True, True),
    ("dynamics.orbit", True, True),
    ("dynamics.orbit_is_periodic", True, True),
    ("dynamics.group_is_finite", False, True),
    ("dynamics.invariant_rational_subspaces", False, True),
    ("subtori.covector_to_hyperplane", True, True),
    ("subtori.hyperplane_to_covector", True, True),
    ("lattices.hnf_basis", True, True),
    ("lattices.saturate_rows", True, True),
    ("lattices.left_kernel", True, True),
    ("growth.derive_growth_certificate", True, True),
    ("growth.check_growth_certificate", True, True),
    ("growth.minimal_annihilator", True, False),
    ("intmat.char_poly", True, True),
    ("intmat.matrix_order", True, True),
    ("intmat.mat_mul", True, True),
    ("polynomials.rational_factors", True, True),
    ("metric.isolation_radius_lower_bound", True, True),
    ("metric.hausdorff_distance", True, True),
)


def per_layer(rounds, traced_rounds):
    """Per-layer metrics, per round, as medians over the traced rounds.

    Self seconds are reference-scaled with the factor of the round they
    belong to: traced round time scaled / raw."""
    def med(f):
        return statistics.median(f(r, s, c) for r, s, c in traced_rounds)

    def factor(r):
        raw = r.raw_produce + r.raw_verify
        return r.total / raw if raw else 1.0

    out = {}
    for label, with_calls, with_self in LAYER_METRICS:
        if with_calls:
            out[f"{label}.calls"] = (med(lambda r, s, c: c[label]), "count")
        if with_self:
            out[f"{label}.self_s"] = (med(lambda r, s, c: s[label] * factor(r)), "s")
    out["families.orbit_reports_per_member"] = (
        med(lambda r, s, c: c["dynamics.orbit"] / r.members if r.members else 0.0), "ratio")
    out["growth.derive_per_annihilator"] = (
        med(lambda r, s, c: c["growth.derive_growth_certificate"] / len(r.annihilators)
            if r.annihilators else 0.0), "ratio")
    out["verify.act_calls_per_window_step"] = (
        med(lambda r, s, c: r.verify_act_calls / (2 * r.verify_window_steps)
            if r.verify_window_steps else 0.0), "ratio")
    untraced = statistics.median(r.total for r in rounds)
    out["trace.overhead"] = (med(lambda r, s, c: r.total) / untraced - 1, "ratio")
    return out


def report_lines(args, rounds, setup_raw, setup_scaled, metrics):
    """Human-readable lines before the result line: raw and scaled seconds
    per job, medians over the rounds after the warm-up."""
    print(f"# workload {args.workload}, seed {args.seed}, {len(rounds)} rounds, round 0 warms up")
    print(f"# set-up: raw {setup_raw:.4f} s, scaled {setup_scaled:.4f} s")
    for i, (label, role, _, _) in enumerate(rounds[0].jobs):
        raw = statistics.median(r.jobs[i][2] for r in rounds[1:])
        scaled = statistics.median(r.jobs[i][3] for r in rounds[1:])
        print(f"# {role:7s} {label:45s} raw {raw:8.4f} s  scaled {scaled:8.4f} s")
    for i, r in enumerate(rounds):
        print(f"# round {i}: produce raw {r.raw_produce:.4f} s scaled {sum(r.produce):.4f} s, "
              f"verify raw {r.raw_verify:.4f} s scaled {sum(r.verify):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
