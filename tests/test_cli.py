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
    exact = cert["isolation"]["bound_exact"]
    assert round(cert["isolation"]["bound"], 2) == 0.48
    # the display must be the float of the exact bound, which alone is evidence
    cert["isolation"]["bound"] = 0.5
    code, env2, err = run_cli(["verify"], {"certificate": cert}, capsys)
    assert code == EXIT_INVALID
    assert env2 is None
    assert f"bound_exact {exact}" in err


def test_inconclusive_budget_exit_3(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "30", "--budget-norm", "1"],
        {"matrix": [[2, 1], [1, 1]]},
        capsys,
    )
    assert code == EXIT_INCONCLUSIVE
    assert env["result"]["complete"] is False


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


def test_budget_consumed_summary(capsys):
    code, env, _ = run_cli(
        ["disjoint-family", "--count", "4"], {"matrix": [[2, 1], [1, 1]]}, capsys
    )
    assert code == EXIT_OK
    consumed = env["budget_consumed"]
    assert consumed["members_found"] == 4
    assert consumed["max_window_used"] >= 1
    assert consumed["max_member_norm"] >= 1


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
