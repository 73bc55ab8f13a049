import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tordyn.cli import EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main
from tordyn.serialization import FORMAT_VERSION


def run_cli(args, payload, capsys):
    import io

    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        code = main(args)
    finally:
        sys.stdin = stdin
    out = capsys.readouterr()
    env = json.loads(out.out) if out.out.strip() else None
    return code, env, out.err


def test_classify_cat(capsys):
    code, env, _ = run_cli(["classify"], {"matrix": [[2, 1], [1, 1]]}, capsys)
    assert code == EXIT_OK
    res = env["result"]
    assert res["distal_on_subp"] is False
    assert res["order"] == "infinite"
    assert res["ergodic"] is True
    assert res["witness"] == [0, 1]


def test_classify_rotation(capsys):
    code, env, _ = run_cli(["classify"], {"matrix": [[0, -1], [1, 0]]}, capsys)
    assert code == EXIT_OK
    assert env["result"]["distal_on_subp"] is True
    assert env["result"]["order"] == 4


def test_invalid_matrix_is_exit_2(capsys):
    code, env, err = run_cli(["classify"], {"matrix": [[2, 1], [1, 3]]}, capsys)
    assert code == EXIT_INVALID
    assert "determinant" in err


def test_malformed_json_is_exit_2(capsys):
    import io

    stdin = sys.stdin
    sys.stdin = io.StringIO("{not json")
    try:
        code = main(["classify"])
    finally:
        sys.stdin = stdin
    assert code == EXIT_INVALID


def test_dimension_mismatch_is_exit_2(capsys):
    code, _, err = run_cli(
        ["orbit"],
        {"matrix": [[2, 1], [1, 1]], "covector": [1, 0, 0]},
        capsys,
    )
    assert code == EXIT_INVALID


def test_orbit_command(capsys):
    code, env, _ = run_cli(
        ["orbit", "--budget-window", "4"],
        {"matrix": [[0, -1], [1, 0]], "covector": [0, 1]},
        capsys,
    )
    assert code == EXIT_OK
    assert env["result"]["status"] == "periodic"
    assert env["result"]["period"] == 2


def test_disjoint_family_and_verify_pipeline(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "5"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    assert code == EXIT_OK
    cert = env["result"]
    assert len(cert["members"]) == 5
    code, env2, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_OK
    assert env2["result"]["ok"] is True


def test_verify_rejects_tampered_certificate_exit_4(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "4"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    cert = env["result"]
    cert["members"][1] = [9, 1]
    code, env2, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_VERIFY_FAILED
    assert env2["result"]["ok"] is False
    assert env2["result"]["failures"]
    assert "member" in env2["result"]["failures"][0]


def _cat_certificate(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "4"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    assert code == EXIT_OK
    return env["result"]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda row: [-x for x in row],  # not canonical: negative pivot
        lambda row: [2 * x for x in row],  # canonical HNF, not saturated
        lambda row: row + [0],  # wrong ambient length
    ],
    ids=["negated", "doubled", "wrong-length"],
)
def test_verify_rejects_tampered_window_basis_exit_4(tamper, capsys):
    # window bases parse as plain integer rows; the comparison with the
    # recomputed canonical saturated basis is what rejects them
    cert = _cat_certificate(capsys)
    m, basis = cert["orbit_reports"][1]["window"][2]
    cert["orbit_reports"][1]["window"][2] = [m, [tamper(basis[0])]]
    code, env, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_VERIFY_FAILED
    assert env["result"]["ok"] is False
    assert any(
        f.startswith(f"member 1: window entry at exponent {m}")
        for f in env["result"]["failures"]
    )


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("slot", ["exponent", "basis"])
def test_verify_rejects_non_integer_window_entry_exit_2(bad, slot, capsys):
    cert = _cat_certificate(capsys)
    entry = cert["orbit_reports"][0]["window"][1]
    if slot == "exponent":
        entry[0] = bad
    else:
        entry[1][0][0] = bad
    code, env, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_INVALID
    assert env is None


def _set_entry(cert, slot, value):
    if slot == "window basis":
        cert["orbit_reports"][0]["window"][1][1][0][0] = value
    elif slot == "member":
        cert["members"][1][0] = value
    else:
        cert["matrix"][0][1] = value


_ENTRY_CONTEXT = {
    "window basis": "orbit_reports: orbit report window",
    "member": "members",
    "matrix": "matrix",
}


@pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=["true", "float", "string", "null"])
@pytest.mark.parametrize("slot", list(_ENTRY_CONTEXT))
def test_verify_non_integer_entry_names_it_exit_2(bad, slot, capsys):
    # the one-pass integer parser gives each entry the message it had when
    # every entry went through the full integer check
    cert = _cat_certificate(capsys)
    _set_entry(cert, slot, bad)
    code, env, err = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_INVALID
    assert env is None
    assert err == (f"error: disjoint-family certificate {_ENTRY_CONTEXT[slot]}: "
                   f"expected an exact integer, got {bad!r}\n")


@pytest.mark.parametrize("slot", ["window basis", "member"])
def test_verify_reads_a_huge_entry_as_an_integer_exit_4(slot, capsys):
    # 2^70 parses as the exact integer it is, so the certificate reaches the
    # checker, whose recomputed window it does not match
    cert = _cat_certificate(capsys)
    _set_entry(cert, slot, 2**70)
    code, env, err = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_VERIFY_FAILED
    assert err == ""
    assert "window entry at exponent" in env["result"]["failures"][0]


def test_job_matrix_with_a_huge_entry_parses_exactly(capsys):
    code, env, _ = run_cli(["classify"], {"matrix": [[1, 2**70], [0, 1]]}, capsys)
    assert code == EXIT_OK
    assert env["input"]["matrix"] == [[1, 2**70], [0, 1]]
    assert env["result"]["order"] == "infinite"


def test_golden_greedy_certificate_written_byte_for_byte(capsys):
    # a cat-map greedy family with windows and cone growth evidence; the CLI
    # writes the certificate inside its envelope, whose keys are sorted
    import io

    golden = (Path(__file__).parent / "data" / "golden_greedy_cat_k4.json").read_text()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps({"matrix": [[2, 1], [1, 1]]}))
    try:
        code = main(["disjoint-family", "--count", "4"])
    finally:
        sys.stdin = stdin
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert golden.endswith("}\n") and golden.count("\n") == 1
    assert f'"result":{golden[:-1]},' in out
    cert = json.loads(golden)
    assert cert["branch"] == "greedy" and cert["rigorous"] is True
    assert all(r["window"] and r["growth"]["forward"]["kind"] == "cone"
               and r["growth"]["backward"]["kind"] == "cone" for r in cert["orbit_reports"])
    code, env, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_OK and env["result"]["ok"] is True


@pytest.mark.parametrize(
    "args, payload",
    [
        (["orbit", "--budget-window", "0"], {"matrix": [[2, 1], [1, 1]], "covector": [0, 1]}),
        (["disjoint-family", "--count", "0"], {"matrix": [[2, 1], [1, 1]]}),
        (["certify-nonexpansive", "--count", "0"], {"matrix": [[0, -1], [1, 0]]}),
        (["isolation", "--budget-norm", "0"], {"subtorus": {"ambient_dim": 2, "basis": [[1, 0]]}}),
        (["group-finite", "--count", "0"], {"matrices": [[[0, -1], [1, 0]]]}),
    ],
)
def test_explicit_zero_is_rejected_not_defaulted(args, payload, capsys):
    code, env, err = run_cli(args, payload, capsys)
    assert code == EXIT_INVALID
    assert env is None
    assert "must be >= 1" in err or "need" in err


@pytest.mark.parametrize(
    "command, job",
    [
        ("disjoint-family", '{"matrix": [[2, 1], [1, 1]], "parameters": {"count": 2.5}}'),
        ("disjoint-family", '{"matrix": [[2, 1], [1, 1]], "parameters": {"count": true}}'),
        ("disjoint-family", '{"matrix": [[2, 1], [1, 1]], "parameters": {"count": 1e400}}'),
        ("isolation", '{"subtorus": {"ambient_dim": 2, "basis": [[1, 0]]}, '
                      '"parameters": {"resolution": 1e400}}'),
    ],
)
def test_job_parameters_that_are_not_exact_or_finite_are_exit_2(command, job, capsys):
    # JSON 1e400 reads as an infinite float; an integer parameter takes only
    # an exact integer, and a resolution only a finite value
    import io

    stdin = sys.stdin
    sys.stdin = io.StringIO(job)
    try:
        code = main([command])
    finally:
        sys.stdin = stdin
    out = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_certify_nonexpansive(capsys):
    code, env, _ = run_cli(
        ["certify-nonexpansive", "--count", "5"], {"matrix": [[1, 1], [0, 1]]}, capsys
    )
    assert code == EXIT_OK
    assert env["result"]["branch"] == "infinitely_many_orbits"
    code, env2, _ = run_cli(["verify"], {"certificate": env["result"]}, capsys)
    assert code == EXIT_OK


def test_verify_rejects_isolation_bound_display_exit_2(capsys):
    code, env, _ = run_cli(
        ["certify-nonexpansive", "--count", "2"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    assert code == EXIT_OK
    cert = env["result"]
    # members[0] is (0, 1), whose hyperplane's isolation radius is exactly 1/2;
    # the exact bound alone is evidence, so format 3 stores no float display
    assert cert["isolation"] == {"bound_exact": "1/2"}
    cert["isolation"]["bound"] = 0.5
    code, env2, err = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_INVALID
    assert env2 is None
    assert "unknown keys ['bound']" in err


@pytest.mark.parametrize(
    "field, value",
    [("dual_norm_bound", 64), ("dual_norm_bound", 256), ("resolution", "1/1000")],
)
def test_verify_rejects_isolation_work_settings_exit_2(field, value, capsys):
    # a hyperplane's isolation bound depends on no cap and no resolution, so
    # format 3 stores neither, and a copy that names one is not parsed
    code, env, _ = run_cli(
        ["certify-nonexpansive", "--count", "2"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    assert code == EXIT_OK
    cert = env["result"]
    cert["isolation"][field] = value
    code, env2, err = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_INVALID
    assert env2 is None
    assert f"unknown keys ['{field}']" in err


def test_inconclusive_budget_exit_3(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "30", "--budget-norm", "1"],
        {"matrix": [[2, 1], [1, 1]]},
        capsys,
    )
    assert code == EXIT_INCONCLUSIVE
    assert env["result"]["complete"] is False


def test_verify_rejects_relabelled_partial_family_exit_4(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "30", "--budget-norm", "1"],
        {"matrix": [[2, 1], [1, 1]]},
        capsys,
    )
    assert code == EXIT_INCONCLUSIVE
    cert = env["result"]
    assert (cert["count"], cert["requested"], cert["complete"]) == (2, 30, False)
    code, _, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_OK
    cert.update(complete=True, explanation=None)
    code, env2, _ = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_VERIFY_FAILED
    assert "complete is True for 2 of 30 requested members" in env2["result"]["failures"]


def test_unknown_command_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--count", "2"])
    assert exc.value.code == EXIT_INVALID
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_distance_command(capsys):
    job = {
        "first": {"ambient_dim": 2, "basis": [[1, 0]]},
        "second": {"ambient_dim": 2, "basis": [[0, 1]]},
    }
    code, env, _ = run_cli(["distance", "--resolution", "1/50"], job, capsys)
    assert code == EXIT_OK
    val = env["result"]["value"]
    err = env["result"]["error_bound"]
    assert abs(val - 0.5) <= err + 1e-9


def test_isolation_command(capsys):
    job = {"subtorus": {"ambient_dim": 2, "basis": [[1, 0]]}}
    code, env, _ = run_cli(
        ["isolation", "--budget-norm", "3", "--resolution", "1/20"], job, capsys
    )
    assert code == EXIT_OK
    assert env["result"]["bound"] > 0


@pytest.mark.parametrize("resolution", ["0", "-1/12"])
def test_isolation_rejects_nonpositive_resolution(resolution, capsys):
    job = {"subtorus": {"ambient_dim": 2, "basis": [[1, 0]]}}
    code, env, err = run_cli(
        ["isolation", "--budget-norm", "3", f"--resolution={resolution}"], job, capsys
    )
    assert code == EXIT_INVALID
    assert "resolution must be positive" in err


def test_group_finite_command(capsys):
    code, env, _ = run_cli(
        ["group-finite"], {"matrices": [[[0, -1], [1, 0]]]}, capsys
    )
    assert code == EXIT_OK
    assert env["result"]["status"] == "finite" and env["result"]["order"] == 4
    code, env, _ = run_cli(
        ["group-finite"], {"matrices": [[[1, 1], [0, 1]]]}, capsys
    )
    assert code == EXIT_OK
    assert env["result"]["status"] == "infinite"


def test_group_finite_cat_map_witness_is_congruent_to_identity(capsys):
    code, env, _ = run_cli(["group-finite"], {"matrices": [[[2, 1], [1, 1]]]}, capsys)
    assert code == EXIT_OK
    result = env["result"]
    assert result["status"] == "infinite" and result["elements"] is None
    w = result["witness"]
    assert w != [[1, 0], [0, 1]]
    assert all((x - (i == j)) % 3 == 0 for i, row in enumerate(w) for j, x in enumerate(row))


def test_determinism_modulo_timing(capsys):
    job = {"matrix": [[2, 1], [1, 1]]}
    _, env1, _ = run_cli(["classify"], job, capsys)
    _, env2, _ = run_cli(["classify"], job, capsys)
    env1.pop("timing_seconds")
    env2.pop("timing_seconds")
    assert env1 == env2


def test_console_entry_point():
    # the child interpreter must find this checkout's package whether or not
    # tordyn is installed or PYTHONPATH is set by the caller
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "tordyn.cli", "classify", "--input", "-"],
        input='{"matrix": [[0, -1], [1, -1]]}',
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == EXIT_OK
    env = json.loads(result.stdout)
    assert env["result"]["order"] == 3
    assert env["tool"] == "tordyn"


def test_file_io(tmp_path, capsys):
    inp = tmp_path / "job.json"
    outp = tmp_path / "out.json"
    inp.write_text('{"matrix": [[0, -1], [1, 0]]}')
    code = main(["classify", "--input", str(inp), "--output", str(outp)])
    assert code == EXIT_OK
    env = json.loads(outp.read_text())
    assert env["result"]["order"] == 4


@pytest.mark.parametrize("indent", [None, 2])
def test_certificate_file_verifies_compact_or_reindented(indent, tmp_path, capsys):
    job = tmp_path / "job.json"
    cert_out = tmp_path / "cert.json"
    job.write_text('{"matrix": [[2, 1], [1, 1]]}')
    assert main(["disjoint-family", "--count", "5", "--input", str(job), "--output", str(cert_out)]) == EXIT_OK
    text = cert_out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    cert = json.loads(text)["result"]
    # indent 2 is the layout certificates were written in before the compact form
    verify_job = tmp_path / "verify.json"
    verify_job.write_text(json.dumps({"certificate": cert}, indent=indent))
    verdict = tmp_path / "verdict.json"
    assert main(["verify", "--input", str(verify_job), "--output", str(verdict)]) == EXIT_OK
    assert json.loads(verdict.read_text())["result"] == {"ok": True, "failures": []}


def test_classify_dimension_one(capsys):
    code, env, _ = run_cli(["classify"], {"matrix": [[-1]]}, capsys)
    assert code == EXIT_OK
    assert env["result"]["distal_on_subp"] is True
    assert env["result"]["order"] == 2


def test_verify_garbage_certificate_is_invalid_input(capsys):
    code, _, err = run_cli(["verify"], {"certificate": {"kind": "disjoint_family",
                                                        "format_version": FORMAT_VERSION}}, capsys)
    assert code == EXIT_INVALID
    assert "missing keys" in err


def test_verify_rejects_v1_certificate_and_bare_job(capsys):
    code, env, _ = run_cli(["disjoint-family", "--count", "3"], {"matrix": [[2, 1], [1, 1]]}, capsys)
    assert code == EXIT_OK
    cert = env["result"]
    # a certificate without the 'certificate' wrapper is not a verify job
    code, _, err = run_cli(["verify"], cert, capsys)
    assert code == EXIT_INVALID and "'certificate'" in err
    # format 1 carried pairwise notes and the producer budget; no parser reads it
    old = dict(cert, format_version=1, pairwise=[], budget={"max_norm": 64})
    code, _, err = run_cli(["verify"], {"certificate": old}, capsys)
    assert code == EXIT_INVALID and "unknown format version 1" in err


def test_verify_rejects_v2_certificate_exit_2(capsys):
    code, env, _ = run_cli(["disjoint-family", "--count", "3"], {"matrix": [[2, 1], [1, 1]]}, capsys)
    assert code == EXIT_OK
    cert = env["result"]
    assert cert["format_version"] == FORMAT_VERSION == 4
    # format 2 had no `requested` and stored what format 3 recomputes
    old = {k: v for k, v in cert.items() if k != "requested"}
    old.update(format_version=2, periodic_orbits=None, unipotent_power=None, invariant_sets=None)
    code, _, err = run_cli(["verify"], {"certificate": old}, capsys)
    assert code == EXIT_INVALID and "unknown format version 2" in err


def test_verify_rejects_v3_certificate_exit_2(capsys):
    code, env, _ = run_cli(["disjoint-family", "--count", "3"], {"matrix": [[2, 1], [1, 1]]}, capsys)
    assert code == EXIT_OK
    # format 3 had the family key `quotient` and the branch `irreducible_greedy`
    old = dict(env["result"], format_version=3, quotient=None, branch="irreducible_greedy")
    code, _, err = run_cli(["verify"], {"certificate": old}, capsys)
    assert code == EXIT_INVALID and "unknown format version 3" in err


def test_budget_consumed_summary(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "4"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    assert code == EXIT_OK
    consumed = env["budget_consumed"]
    assert consumed["members_found"] == 4
    assert consumed["max_window_used"] >= 1
    assert consumed["max_member_norm"] >= 1


@pytest.mark.parametrize("matrices, args, code, consumed", [
    # the rotation S has order 4
    ([[[0, -1], [1, 0]]], [], EXIT_OK, {"elements_found": 4}),
    # Id, the shear and its square are met before the cube agrees with Id mod 3
    ([[[1, 1], [0, 1]]], [], EXIT_OK, {"elements_found": 3}),
    # the third element passes the cap 2
    ([[[1, 1], [0, 1]]], ["--count", "2"], EXIT_INCONCLUSIVE, {"elements_found": 3}),
])
def test_group_finite_budget_consumed(matrices, args, code, consumed, capsys):
    got, env, _ = run_cli(["group-finite", *args], {"matrices": matrices}, capsys)
    assert got == code
    assert env["budget_consumed"] == consumed


def test_group_finite_b12_reaches_the_default_cap(capsys):
    # B_12 has order 2^12 12!, far above the default cap 20000
    n = 12
    swap = [[int((i, j) in ((0, 1), (1, 0)) or (i == j and i > 1)) for j in range(n)]
            for i in range(n)]
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) * int(i == j) for j in range(n)] for i in range(n)]
    code, env, _ = run_cli(["group-finite"], {"matrices": [swap, cycle, flip]}, capsys)
    assert code == EXIT_INCONCLUSIVE
    assert env["result"]["status"] == "inconclusive"
    assert env["budget_consumed"] == {"elements_found": 20001}


FAMILY_BUDGET = {"max_norm": 64, "max_window": 96, "max_candidates": 4000}
SUBTORUS_A = {"ambient_dim": 2, "basis": [[1, 0]]}
SUBTORUS_B = {"ambient_dim": 2, "basis": [[1, 1]]}


@pytest.mark.parametrize("args, job, code, budget", [
    (["disjoint-family", "--count", "2"], {"matrix": [[2, 1], [1, 1]]}, EXIT_OK, FAMILY_BUDGET),
    (["disjoint-family", "--count", "9", "--budget-norm", "1"], {"matrix": [[0, -1], [1, 0]]},
     EXIT_INCONCLUSIVE, dict(FAMILY_BUDGET, max_norm=1)),
    (["certify-nonexpansive", "--count", "2", "--budget-window", "40"],
     {"matrix": [[2, 1], [1, 1]]}, EXIT_OK, dict(FAMILY_BUDGET, max_window=40)),
    (["orbit"], {"matrix": [[2, 1], [1, 1]], "covector": [1, 2]}, EXIT_OK, {"window_radius": 16}),
    (["orbit", "--budget-window", "3"], {"matrix": [[2, 1], [1, 1]], "covector": [1, 2]},
     EXIT_OK, {"window_radius": 3}),
    (["isolation"], {"subtorus": SUBTORUS_A}, EXIT_OK, {"max_norm": 5}),
    (["group-finite"], {"matrices": [[[0, -1], [1, 0]]]}, EXIT_OK, {"cap": 20000}),
    (["group-finite", "--count", "2"], {"matrices": [[[1, 1], [0, 1]]]}, EXIT_INCONCLUSIVE,
     {"cap": 2}),
    (["classify", "--budget-norm", "3"], {"matrix": [[2, 1], [1, 1]]}, EXIT_OK, None),
    (["distance"], {"first": SUBTORUS_A, "second": SUBTORUS_B}, EXIT_OK, None),
])
def test_envelope_budget_is_what_the_command_reads(args, job, code, budget, capsys):
    got, env, _ = run_cli(args, job, capsys)
    assert got == code
    assert env["budget"] == budget


@pytest.mark.parametrize("tamper, code", [(False, EXIT_OK), (True, EXIT_VERIFY_FAILED)])
def test_verify_envelope_has_no_budget(tamper, code, capsys):
    _, env, _ = run_cli(["disjoint-family", "--count", "2"], {"matrix": [[2, 1], [1, 1]]}, capsys)
    cert = env["result"]
    if tamper:
        cert["members"][1] = cert["members"][0]
    got, env, _ = run_cli(["verify", "--budget-window", "5"], {"certificate": cert}, capsys)
    assert got == code
    assert env["budget"] is None


def test_orbit_command_with_subtorus_input(capsys):
    job = {
        "matrix": [[0, -1], [1, 0]],
        "subtorus": {"ambient_dim": 2, "basis": [[1, 0]]},
    }
    code, env, _ = run_cli(["orbit", "--budget-window", "3"], job, capsys)
    assert code == EXIT_OK
    assert env["result"]["status"] == "periodic" and env["result"]["period"] == 2


def test_certify_nonexpansive_finite_order_branch(capsys):
    code, env, _ = run_cli(
        ["certify-nonexpansive"], {"matrix": [[0, -1], [1, 0]]}, capsys
    )
    assert code == EXIT_OK
    res = env["result"]
    assert res["branch"] == "finite_order" and res["order"] == 4
    assert len(res["fixed_subtori"]) >= 2
    code, env2, _ = run_cli(["verify"], {"certificate": res}, capsys)
    assert code == EXIT_OK and env2["result"]["ok"] is True


_NO_HEAVY_IMPORTS = """
import json, os, sys
from tordyn.cli import main

work = sys.argv[1]
def run(command, payload, *args):
    job, out = os.path.join(work, "job.json"), os.path.join(work, "out.json")
    with open(job, "w") as fh:
        json.dump(payload, fh)
    code = main([command, "--input", job, "--output", out, *args])
    with open(out) as fh:
        return code, json.load(fh)["result"]

codes = []
code, cert = run("disjoint-family", {"matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]]}, "--count", "3")
codes.append(code)
cat_rotation = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
code, classified = run("classify", {"matrix": cat_rotation})
codes.append(code)
code, verdict = run("verify", {"certificate": cert})
codes.append(code)
print(json.dumps({"codes": codes, "reducible": classified["invariant_rational_subspaces"]["exists"],
                  "ok": verdict["ok"],
                  "loaded": sorted(m for m in ("numpy", "sympy") if m in sys.modules)}))
"""


def test_cli_jobs_import_neither_numpy_nor_sympy(tmp_path):
    # a family of the x^3 - x - 1 companion, classify of the reducible cat +
    # rotation (which factors its characteristic polynomial) and verify
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _NO_HEAVY_IMPORTS, str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report == {"codes": [EXIT_OK] * 3, "reducible": True, "ok": True, "loaded": []}


def test_no_module_imports_numpy_or_sympy():
    import ast

    package = Path(__file__).resolve().parents[1] / "src" / "tordyn"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("numpy", "sympy"), f"{path.name} imports {name}"
