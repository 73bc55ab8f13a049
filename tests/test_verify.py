import copy
import json
import random
from pathlib import Path

import pytest

from oracles import random_word
from tordyn.dynamics import dual_matrix, orbit
from tordyn.families import disjoint_hyperplane_orbits, non_expansivity_certificate
from tordyn.intmat import UnimodularMatrix, mat_vec
from tordyn.serialization import (
    encode_family,
    encode_non_expansivity,
    encode_orbit_report,
    parse_family,
    parse_non_expansivity,
)
from tordyn.subtori import PrimitiveCovector, canonicalize_covector, covector_to_hyperplane
from tordyn.verify import verify_certificate

CAT = UnimodularMatrix(((2, 1), (1, 1)))
ROT = UnimodularMatrix(((0, -1), (1, 0)))
SHEAR = UnimodularMatrix(((1, 1), (0, 1)))
COMPANION = UnimodularMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 0)))


@pytest.fixture(scope="module")
def cat_family():
    return encode_family(disjoint_hyperplane_orbits(CAT, 8))


@pytest.fixture(scope="module")
def shear_family():
    return encode_family(disjoint_hyperplane_orbits(SHEAR, 8))


def reject(payload):
    cert = parse_family(payload) if payload.get("kind") == "disjoint_family" else parse_non_expansivity(payload)
    result = verify_certificate(cert)
    assert not result.ok
    return result


def accept(payload):
    cert = parse_family(payload) if payload.get("kind") == "disjoint_family" else parse_non_expansivity(payload)
    result = verify_certificate(cert)
    assert result.ok, result.failures
    return result


def test_producer_output_verifies(cat_family, shear_family):
    accept(cat_family)
    accept(shear_family)


def test_in_memory_and_round_tripped_family_verify():
    cert = disjoint_hyperplane_orbits(CAT, 8)
    assert verify_certificate(cert).ok
    parsed = parse_family(json.loads(json.dumps(encode_family(cert))))
    assert parsed == cert
    assert verify_certificate(parsed).ok


def test_member_substitution_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    bad["members"][2] = [9, 4]
    res = reject(bad)
    assert any("member 2" in f for f in res.failures)


def test_window_truncation_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    bad["orbit_reports"][1]["window"] = bad["orbit_reports"][1]["window"][:-4]
    res = reject(bad)
    assert any("window" in f for f in res.failures)


def test_window_entry_swap_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    w = bad["orbit_reports"][0]["window"]
    w[0], w[1] = [w[0][0], w[1][1]], [w[1][0], w[0][1]]
    reject(bad)


def test_duplicate_exponent_window_forgery_rejected():
    # members 0 and 3 lie on one orbit (3 = S^w 0); each window hides the
    # other by repeating the neighbouring exponent in place of +w or -w
    bad = encode_family(disjoint_hyperplane_orbits(CAT, 3))
    rep0 = bad["orbit_reports"][0]
    w = rep0["window_radius"]
    g = tuple(bad["members"][0])
    for _ in range(w):
        g = mat_vec(dual_matrix(CAT).rows, g)
    g = canonicalize_covector(g)
    rep3 = encode_orbit_report(orbit(CAT, covector_to_hyperplane(PrimitiveCovector(g)), w))
    rep0["window"][-1] = copy.deepcopy(rep0["window"][-2])
    rep3["window"][0] = copy.deepcopy(rep3["window"][1])
    bad["members"].append(list(g))
    bad["orbit_reports"].append(rep3)
    bad["count"] = 4
    bad["rigorous"] = False
    res = reject(bad)
    assert any("member 0: window" in f for f in res.failures)
    assert any("member 3: window" in f for f in res.failures)


def test_periodic_orbit_forgery_rejected():
    data = encode_family(disjoint_hyperplane_orbits(ROT, 2))
    accept(data)
    bad = copy.deepcopy(data)
    bad["periodic_orbits"][0] = bad["periodic_orbits"][0][:-1]
    res = reject(bad)
    assert any("stored orbit" in f for f in res.failures)


def test_invariant_forgery_rejected(shear_family):
    bad = copy.deepcopy(shear_family)
    bad["invariant_sets"][0][0]["reduced"] = [123, 456]
    res = reject(bad)
    assert any("invariant" in f for f in res.failures)


def test_duplicated_member_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    bad["members"][3] = bad["members"][0]
    bad["orbit_reports"][3] = copy.deepcopy(bad["orbit_reports"][0])
    res = reject(bad)
    assert any("duplicate" in f for f in res.failures)


def test_same_orbit_member_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    g0 = tuple(bad["members"][0])
    moved = canonicalize_covector(mat_vec(dual_matrix(CAT).rows, g0))
    bad["members"][4] = list(moved)
    reject(bad)


def test_growth_floor_forgery_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    bad["orbit_reports"][0]["min_exterior_norm"] = 10**9
    res = reject(bad)
    assert any("floor" in f or "exterior" in f for f in res.failures)


def test_cone_parameter_forgery_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    g = bad["orbit_reports"][0]["growth"]
    g["forward"]["floor_seq"] = 10**15
    reject(bad)


def test_count_forgery_rejected(cat_family):
    bad = copy.deepcopy(cat_family)
    bad["count"] = bad["count"] + 3
    res = reject(bad)
    assert any("count" in f for f in res.failures)


def test_rigor_flag_forgery_detected(cat_family):
    bad = copy.deepcopy(cat_family)
    for rep in bad["orbit_reports"]:
        rep["min_exterior_norm"] = None
        rep["growth"] = None
        rep["rigorous"] = False
    assert bad["rigorous"] is True
    res = reject(bad)
    assert any("rigor" in f for f in res.failures)


def test_nonexpansivity_convergence_forgery(cat_family):
    cert = non_expansivity_certificate(COMPANION, 5)
    data = encode_non_expansivity(cert)
    accept(data)
    bad = copy.deepcopy(data)
    bad["converges_to_full"][1] = False
    res = reject(bad)
    assert any("convergence" in f for f in res.failures)


def test_nonexpansivity_order_forgery():
    data = encode_non_expansivity(non_expansivity_certificate(ROT, 5))
    accept(data)
    bad = copy.deepcopy(data)
    bad["order"] = 2
    res = reject(bad)
    assert any("order" in f for f in res.failures)


def test_nonexpansivity_fixed_subtorus_duplication():
    data = encode_non_expansivity(non_expansivity_certificate(ROT, 5))
    bad = copy.deepcopy(data)
    bad["fixed_subtori"][1] = bad["fixed_subtori"][0]
    res = reject(bad)
    assert any("distinct" in f for f in res.failures)


def test_isolation_bound_forgery():
    data = encode_non_expansivity(non_expansivity_certificate(CAT, 4))
    bad = copy.deepcopy(data)
    # the float display must follow the exact bound, or parsing rejects it
    bad["isolation"]["bound_exact"] = "999/1000"
    bad["isolation"]["bound"] = 0.999
    res = reject(bad)
    assert any("isolation" in f for f in res.failures)


def test_quotient_matrix_forgery():
    t = UnimodularMatrix(((1, 1, 0), (0, 2, 1), (0, 1, 1)))
    fam = disjoint_hyperplane_orbits(t, 3)
    if fam.branch != "quotient":
        pytest.skip("dispatch did not take the quotient branch")
    data = encode_family(fam)
    accept(data)
    bad = copy.deepcopy(data)
    bad["quotient"]["quotient_matrix"][0][0] += 1
    reject(bad)
    bad = copy.deepcopy(data)
    bad["quotient"]["inner"]["members"][0] = [5, 3]
    reject(bad)


def test_random_families_verify_and_random_tampering_rejected():
    rng = random.Random(101)
    for _ in range(6):
        t = random_word(rng, rng.choice((2, 3)), entry_cap=30)
        fam = disjoint_hyperplane_orbits(t, 3)
        data = encode_family(fam)
        accept(data)
        bad = copy.deepcopy(data)
        gamma = list(bad["members"][rng.randrange(len(bad["members"]))])
        gamma[0] += 1 if gamma[0] >= 0 else -1
        bad["members"][0] = gamma
        cert = parse_family(bad)
        assert not verify_certificate(cert).ok


def test_verify_imports_public_names_of_its_trusted_base_only():
    import ast
    import re

    import tordyn.verify

    tree = ast.parse(Path(tordyn.verify.__file__).read_text())
    doc = ast.get_docstring(tree)
    paragraph = doc[doc.index("Trusted base:"):].split("\n\n")[0]
    trusted = {name.split(".")[0] for name in re.findall(r"`([\w.]+)`", paragraph)}
    assert {"intmat", "subtori", "growth", "families"} <= trusted
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "tordyn" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "tordyn":
                continue  # standard library
            module = node.module.removeprefix("tordyn.")
            assert module in trusted, f"verify imports from {module}, outside its trusted base"
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"verify imports private names {private} from {module}"
