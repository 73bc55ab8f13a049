"""Single-field mutations of small certificates: strict parsing and the checker
together must reject every mutant that claims more than is true.

Each mutation changes one field of one encoded certificate: it deletes a key,
adds a key, retypes a value, changes an integer by one or flips a flag.  The
mutant then goes through `tordyn verify` (cli.run_job), which may only exit 2
(ParseError) or 4 (VerifyFailed); any other exception escapes the test.  A
mutant that is accepted must fall in one of the classes of `weaker_claim`.
"""

import copy
import re
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tordyn.cli import VerifyFailed, run_job
from tordyn.families import disjoint_hyperplane_orbits, non_expansivity_certificate
from tordyn.intmat import UnimodularMatrix, mat_vec, transpose
from tordyn.lattices import saturate_rows
from tordyn.serialization import (
    ParseError,
    encode_family,
    encode_non_expansivity,
    parse_certificate,
)
from tordyn.verify import verify_certificate

ROT = UnimodularMatrix(((0, -1), (1, 0)))
SHEAR = UnimodularMatrix(((1, 1), (0, 1)))
CAT = UnimodularMatrix(((2, 1), (1, 1)))
REDUCIBLE = UnimodularMatrix(((1, 1, 0), (0, 2, 1), (0, 1, 1)))
# companion of x^4 - x^3 + x^2 - x - 1: a cone forward, a Lyapunov form backward
QUARTIC = UnimodularMatrix(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -1, 1)))


NAMES = (
    "finite_order",
    "unipotent_power",
    "greedy",
    "greedy_reducible",
    "greedy_lyapunov",
    "non_expansivity_finite",
    "non_expansivity_infinite",
)


@lru_cache(maxsize=None)
def certificates() -> dict:
    """One small encoded certificate per family branch and per non-expansivity
    branch, keyed by NAMES."""
    certs = {
        "finite_order": encode_family(disjoint_hyperplane_orbits(ROT, 2)),
        "unipotent_power": encode_family(disjoint_hyperplane_orbits(SHEAR, 2)),
        "greedy": encode_family(disjoint_hyperplane_orbits(CAT, 2)),
        "greedy_reducible": encode_family(disjoint_hyperplane_orbits(REDUCIBLE, 2)),
        "greedy_lyapunov": encode_family(disjoint_hyperplane_orbits(QUARTIC, 2)),
        "non_expansivity_finite": encode_non_expansivity(non_expansivity_certificate(ROT, 2)),
        "non_expansivity_infinite": encode_non_expansivity(non_expansivity_certificate(CAT, 2)),
    }
    for name in NAMES[:5]:
        assert certs[name]["branch"] == name.removesuffix("_reducible").removesuffix("_lyapunov")
    return certs


def exit_code(certificate) -> int:
    """Exit code of `tordyn verify` on the certificate: 0, 2 or 4."""
    try:
        run_job({"command": "verify", "certificate": certificate})
    except ParseError:
        return 2
    except VerifyFailed:
        return 4
    return 0


def _retyped(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return 1
    if value is None:
        return 1
    if isinstance(value, list):
        return {}
    return []


def mutations(node, path=()):
    """(path, kind, new value) for every single-field mutation below node; for
    "delete" and "add" the path names the key."""
    out = []
    if isinstance(node, dict):
        out.append((path + ("unexpected",), "add", 0))
        for key, value in node.items():
            out.append((path + (key,), "delete", None))
            out += mutations(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out += mutations(value, path + (i,))
    if path:
        out.append((path, "retype", _retyped(node)))
    if isinstance(node, bool):
        out.append((path, "change", not node))
    elif isinstance(node, int):
        out += [(path, "change", node + 1), (path, "change", node - 1)]
    return out


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def mutate(certificate, path, kind, value):
    mutant = copy.deepcopy(certificate)
    parent = _at(mutant, path[:-1])
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return mutant


def weaker_claim(certificate, path, kind, value) -> str | None:
    """The class of an accepted mutant, or None if accepting it is a fault.

    An accepted mutant must claim less than the original, or make a claim that
    the checker recomputes in full from other, equally valid evidence:
    * a `rigorous` or `complete` flag turned from true to false;
    * a lower floor: `min_exterior_norm` or `floor_seq`;
    * a cone entry moved to another index of its residue class (possible when
      the power step is 1): the checker re-verifies the cone chain there and
      recomputes the floor from it;
    * another fixed subtorus: for a finite-order automorphism every subtorus
      is fixed by T^order, which the checker re-verifies;
    * another automorphism of a family that acts as the original does on the
      members' orbit lattice (`same_action_on_members`): every orbit, window
      and growth certificate of a member is the same under both, and the
      checker recomputes all of them from the new matrix.
    """
    if kind != "change":
        return None
    key = path[-1]
    old = _at(certificate, path)
    if key in ("rigorous", "complete") and old is True and value is False:
        return "flag withdrawn"
    if key in ("min_exterior_norm", "floor_seq") and value < old:
        return "lower floor"
    if key == "start_index" and _at(certificate, path[:-3])["power_step"] == 1:
        return "cone entry moved within its residue class"
    if path[0] == "fixed_subtori":
        return "another fixed subtorus"
    if path[0] == "matrix" and "members" in certificate and same_action_on_members(
        certificate, mutate(certificate, path, kind, value)["matrix"]
    ):
        return "another automorphism with the same action on the members"
    return None


def same_action_on_members(certificate, matrix) -> bool:
    """Whether T'^T agrees with T^T on the saturated lattice L spanned by the
    orbits of the members under T^T.  L is invariant under T^T and its
    inverse S, so then S' and S agree on L as well, and each member has the
    same covector orbit under both."""
    tt, tt_new = transpose(certificate["matrix"]), transpose(matrix)
    n = len(tt)
    rows = [tuple(g) for g in certificate["members"]]
    for _ in range(n):
        rows += [mat_vec(tt, r) for r in rows[-len(certificate["members"]):]]
    return all(mat_vec(tt, b) == mat_vec(tt_new, b) for b in saturate_rows(tuple(rows), n))


@pytest.mark.parametrize("name", NAMES)
def test_small_certificates_verify(name):
    assert exit_code(certificates()[name]) == 0


@lru_cache(maxsize=None)
def mutation_sites(name: str) -> list:
    return mutations(certificates()[name])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_field_mutation_claims_no_more(data):
    certs = certificates()
    name = data.draw(st.sampled_from(NAMES), label="certificate")
    path, kind, value = data.draw(st.sampled_from(mutation_sites(name)), label="mutation")
    code = exit_code(mutate(certs[name], path, kind, value))
    assert code in (0, 2, 4)
    if code == 0:
        assert weaker_claim(certs[name], path, kind, value), (name, path, kind, value)


# one encoded object of each kind, as (certificate, path to the object)
OBJECTS = {
    "disjoint-family certificate": ("greedy", ()),
    "orbit report": ("greedy", ("orbit_reports", 0)),
    "growth certificate": ("greedy", ("orbit_reports", 0, "growth")),
    "cone direction": ("greedy", ("orbit_reports", 0, "growth", "forward")),
    "polynomial direction": ("unipotent_power", ("orbit_reports", 1, "growth", "forward")),
    "lyapunov direction": ("greedy_lyapunov", ("orbit_reports", 0, "growth", "backward")),
    "cone entry": ("greedy", ("orbit_reports", 0, "growth", "forward", "entries", 0)),
    "non-expansivity certificate": ("non_expansivity_infinite", ()),
    "isolation report": ("non_expansivity_infinite", ("isolation",)),  # only bound_exact
    "subtorus": ("non_expansivity_finite", ("fixed_subtori", 0)),
}


@pytest.mark.parametrize("what", sorted(OBJECTS))
def test_encoders_emit_exactly_the_parsed_key_set(what):
    name, path = OBJECTS[what]
    certificate = certificates()[name]
    obj = _at(certificate, path)
    assert isinstance(obj, dict) and obj
    parse_certificate(certificate)
    for key in obj:
        with pytest.raises(ParseError, match="missing keys|format version|kind"):
            parse_certificate(mutate(certificate, path + (key,), "delete", None))
    with pytest.raises(ParseError, match="unknown keys"):
        parse_certificate(mutate(certificate, path + ("unexpected",), "add", 0))


# the rows of the README's key-set table, by the object of OBJECTS each names;
# the cone and polynomial directions share the row "growth direction"
README_ROWS = {
    "disjoint family": ("disjoint-family certificate",),
    "orbit report": ("orbit report",),
    "growth": ("growth certificate",),
    "growth direction": ("cone direction", "polynomial direction"),
    "Lyapunov direction": ("lyapunov direction",),
    "cone entry": ("cone entry",),
    "non-expansivity": ("non-expansivity certificate",),
    "isolation": ("isolation report",),
    "subtorus": ("subtorus",),
}


def readme_key_table() -> dict[str, list[str]]:
    """The `| object | keys |` table of README.md, as {object: keys}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| object | keys |"):].split("\n\n")[0].splitlines()[2:]
    rows = {}
    for line in table:
        what, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[what] = re.findall(r"`([^`]+)`", keys)
    return rows


def test_readme_key_table_matches_the_encoders():
    rows = readme_key_table()
    assert rows.keys() == README_ROWS.keys()
    assert {o for objects in README_ROWS.values() for o in objects} == OBJECTS.keys()
    for what, keys in rows.items():
        assert len(set(keys)) == len(keys), what
        for obj in README_ROWS[what]:
            name, path = OBJECTS[obj]
            assert set(_at(certificates()[name], path)) == set(keys), (what, obj)


def test_finite_order_non_expansivity_must_be_complete():
    certificate = copy.deepcopy(certificates()["non_expansivity_finite"])
    certificate["complete"] = False
    assert exit_code(certificate) == 4


@pytest.mark.parametrize(
    "name, direction",
    [
        ("greedy", "forward"),  # cone
        ("unipotent_power", "backward"),  # polynomial
        ("greedy", "window_only"),
    ],
)
def test_hostile_power_step_is_rejected_quickly(name, direction):
    certificate = copy.deepcopy(certificates()[name])
    report = next(r for r in certificate["orbit_reports"] if r["growth"])
    growth = report["growth"]
    if direction == "window_only":
        growth["forward"].update(kind="window_only", level=0, power_step=0, mu="0/1", nu="0/1",
                                 entries=[], floor_seq=0)
        report.update(rigorous=False, min_exterior_norm=None)
        certificate["rigorous"] = False
        direction = "forward"
    assert exit_code(certificate) == 0
    growth[direction]["power_step"] = 10**9
    started = time.perf_counter()
    assert exit_code(certificate) == 4
    assert time.perf_counter() - started < 1


def test_unknown_growth_key_is_rejected_quickly():
    certificate = copy.deepcopy(certificates()["greedy"])
    certificate["orbit_reports"][0]["growth"]["window_radius"] = 10**9
    started = time.perf_counter()
    assert exit_code(certificate) == 2
    assert time.perf_counter() - started < 1


def test_hostile_unipotent_power_is_rejected_quickly():
    # the checker recomputes the power from the matrix, so format 3 stores
    # none, and a certificate that adds one is refused before any work
    certificate = copy.deepcopy(certificates()["unipotent_power"])
    certificate["unipotent_power"] = 10**6
    started = time.perf_counter()
    assert exit_code(certificate) == 2
    assert time.perf_counter() - started < 1


def test_forged_level_2_cone_computes_no_term_past_the_checker_cap():
    # a degree 6 annihilator with the largest power step the checker admits
    # and entry chains that start as late as they may, at cover_from + 1, and
    # ratios so loose that a chain of one sign reads to its end: the checker
    # refuses the cone and computes no impulse term past its cap
    from test_growth import recorded_terms

    # the companion of x^6 - 2x^4 - x^3 + x^2 - x + 1
    sextic = UnimodularMatrix(tuple(
        tuple(int(j == i + 1) for j in range(6)) for i in range(5)
    ) + ((-1, 1, -1, 1, 2, 0),))
    certificate = encode_family(disjoint_hyperplane_orbits(sextic, 1))
    report = certificate["orbit_reports"][0]
    window = report["window_radius"]
    q, cover_from = window + 4, window - 2
    report["growth"]["forward"] = {
        "direction": "forward", "kind": "cone", "level": 2, "power_step": q,
        "mu": "1/1000000000000", "nu": "1000000000000000000000000000000/1",
        "entries": [{"residue": r, "start_index": r if r <= cover_from + 1 else r - q, "sign": 1}
                    for r in range(q)],
        "floor_seq": 1,
    }
    with recorded_terms() as (_, responses):
        assert exit_code(certificate) == 4
    d = 6
    span = window + 2 + (q + 26) * (d * d + d + 2)
    assert responses
    for t in responses:
        lo, hi = t.known
        assert -span <= lo and hi <= span


def _lyapunov_forgery(forge):
    """The small Lyapunov certificate with its first member's backward
    direction changed by forge."""
    certificate = copy.deepcopy(certificates()["greedy_lyapunov"])
    direction = _at(certificate, OBJECTS["lyapunov direction"][1])
    assert direction["kind"] == "lyapunov"
    forge(direction)
    return certificate


def _negated(direction):
    direction["form"] = [[f"{-Fraction(x).numerator}/{Fraction(x).denominator}" for x in row]
                         for row in direction["form"]]


def _asymmetric(direction):
    x = Fraction(direction["form"][0][1]) + 1
    direction["form"][0][1] = f"{x.numerator}/{x.denominator}"


def _shrunk(direction):
    direction["form"] = [row[:-1] for row in direction["form"][:-1]]


def _inflated(direction):
    direction["floor_seq"] += 1


@pytest.mark.parametrize("forge", [_negated, _asymmetric, _shrunk, _inflated])
def test_lyapunov_forgery_is_rejected(forge):
    # C^T P C - P not positive definite, P not symmetric, P of the wrong
    # size, a sequence floor above the derived one
    assert exit_code(_lyapunov_forgery(forge)) == 4


def test_lyapunov_form_of_the_wrong_sign_at_the_edge_is_rejected():
    # V is negative on x_m up to m = 4 for this form, so claimed forward at a
    # window of radius 2 it has the wrong sign at the edge x_3; the rest of
    # the forgery claims nothing else: the window is cut to radius 2, the
    # backward direction is window-only and no rigor is claimed
    certificate = _lyapunov_forgery(lambda direction: direction.update(direction="forward", floor_seq=1))
    report = certificate["orbit_reports"][0]
    growth = report["growth"]
    growth["forward"], growth["backward"] = growth["backward"], {
        "direction": "backward", "kind": "window_only", "level": 0, "power_step": 0,
        "mu": "0/1", "nu": "0/1", "entries": [], "floor_seq": 0,
    }
    report.update(window_radius=2, window=[e for e in report["window"] if abs(e[0]) <= 2],
                  rigorous=False, min_exterior_norm=None)
    certificate.update(rigorous=False, explanation="window only")
    result = verify_certificate(parse_certificate(certificate))
    assert result.failures == (
        "member 0: growth certificate: forward: V has the wrong sign at the window edge",
    )
    assert exit_code(certificate) == 4


@pytest.mark.parametrize("forge", [
    lambda direction: direction.pop("form"),
    lambda direction: direction.update(level=1),  # a cone key
    lambda direction: direction["form"][0].__setitem__(0, "-8/2"),
    lambda direction: direction["form"][0].__setitem__(0, "-4"),
    lambda direction: direction["form"][0].pop(),  # ragged rows
])
def test_lyapunov_direction_is_parsed_strictly(forge):
    # a missing or unknown key, a rational not in lowest 'p/q' form
    assert exit_code(_lyapunov_forgery(forge)) == 2


def test_every_field_mutation_of_a_lyapunov_direction_claims_no_more():
    name, path = "greedy_lyapunov", OBJECTS["lyapunov direction"][1]
    certificate = certificates()[name]
    for site in mutations(_at(certificate, path), path):
        code = exit_code(mutate(certificate, *site))
        assert code in (0, 2, 4)
        if code == 0:
            assert weaker_claim(certificate, *site), site
