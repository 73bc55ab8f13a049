import json
import random
from pathlib import Path

import pytest

from oracles import random_word
from tordyn.dynamics import orbit
from tordyn.families import disjoint_hyperplane_orbits, non_expansivity_certificate
from tordyn.intmat import UnimodularMatrix
from tordyn.metric import hausdorff_distance
from tordyn.serialization import (
    FORMAT_VERSION,
    ParseError,
    canonical_json,
    encode_family,
    encode_metric_estimate,
    encode_non_expansivity,
    encode_orbit_report,
    encode_subtorus,
    parse_certificate,
    parse_covector,
    parse_family,
    parse_non_expansivity,
    parse_orbit_report,
    parse_subtorus,
    parse_unimodular,
)
from tordyn.subtori import Subtorus

DATA = Path(__file__).parent / "data"

ROT = UnimodularMatrix(((0, -1), (1, 0)))
CAT = UnimodularMatrix(((2, 1), (1, 1)))


def test_subtorus_roundtrip_random():
    rng = random.Random(91)
    for _ in range(100):
        n = rng.randint(2, 4)
        h = Subtorus.from_generators(
            n, [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, n))]
        )
        assert parse_subtorus(json.loads(json.dumps(encode_subtorus(h)))) == h


def test_parse_rejects_non_canonical_basis():
    with pytest.raises(ParseError, match="non-canonical basis"):
        parse_subtorus({"ambient_dim": 2, "basis": [[0, 1], [1, 0]]})
    with pytest.raises(ParseError, match="non-canonical basis"):
        parse_subtorus({"ambient_dim": 2, "basis": [[-1, 2]]})
    # canonical but unsaturated bases are rejected for the saturation invariant
    with pytest.raises(ParseError, match="saturated"):
        parse_subtorus({"ambient_dim": 2, "basis": [[2, 4]]})


def test_parse_rejects_non_integer_entries():
    with pytest.raises(ParseError):
        parse_unimodular([[1.5, 0], [0, 1]])
    with pytest.raises(ParseError):
        parse_unimodular([[True, False], [False, True]])
    with pytest.raises(ParseError):
        parse_covector([1, 2.5])


def test_parse_rejects_non_unimodular():
    with pytest.raises(ParseError, match="determinant"):
        parse_unimodular([[2, 0], [0, 1]])


def test_family_roundtrip():
    fam = disjoint_hyperplane_orbits(CAT, 6)
    text = canonical_json(encode_family(fam))
    assert parse_family(json.loads(text)) == fam
    # canonical output is stable under a reserialize cycle
    again = canonical_json(encode_family(parse_family(json.loads(text))))
    assert again == text


def test_non_expansivity_roundtrip():
    for t in (ROT, CAT):
        cert = non_expansivity_certificate(t, 5)
        text = canonical_json(encode_non_expansivity(cert))
        assert parse_non_expansivity(json.loads(text)) == cert


def test_orbit_report_roundtrip():
    h = Subtorus.from_generators(2, [(1, 0)])
    rep = orbit(CAT, h, 6)
    data = json.loads(json.dumps(encode_orbit_report(rep)))
    assert parse_orbit_report(data) == rep


def test_unknown_version_rejected():
    fam = disjoint_hyperplane_orbits(CAT, 3)
    data = encode_family(fam)
    data["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ParseError, match="format version"):
        parse_family(data)
    ne = encode_non_expansivity(non_expansivity_certificate(ROT, 3))
    ne["format_version"] = 99
    with pytest.raises(ParseError, match="format version"):
        parse_non_expansivity(ne)


@pytest.fixture(scope="module")
def cat_non_expansivity():
    return encode_non_expansivity(non_expansivity_certificate(CAT, 3))


@pytest.mark.parametrize(
    "path, value",
    [
        (("family", "orbit_reports", 0, "status"), "bogus"),
        (("family", "orbit_reports", 0, "rigorous"), "true"),
        (("family", "orbit_reports", 0, "growth", "transfer"), 0),
        (("family", "orbit_reports", 0, "min_exterior_norm"), 3.5),
        (("family", "orbit_reports", 0, "period"), "2"),
        (("family", "rigorous"), "false"),
        (("family", "complete"), 1),
        (("family", "requested"), True),
        (("converges_to_full", 0), "yes"),
        (("order",), 2.0),
        (("rigorous",), None),
        (("complete",), "true"),
    ],
)
def test_parse_rejects_mistyped_fields(cat_non_expansivity, path, value):
    data = json.loads(json.dumps(cat_non_expansivity))
    parse_non_expansivity(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        parse_non_expansivity(data)


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("status", "bogus", "status"),
        ("window_radius", 1.5, "integer"),
        ("rigorous", "false", "true or false"),
    ],
)
def test_orbit_report_scalars_parse_before_window(key, value, match):
    # a bad scalar is reported even when the window itself is garbage, so it
    # costs no walk over the window entries
    data = encode_orbit_report(orbit(CAT, Subtorus.from_generators(2, [(1, 0)]), 3))
    data["window"] = [None]
    data[key] = value
    with pytest.raises(ParseError, match=match):
        parse_orbit_report(data)


@pytest.mark.parametrize(
    "status, changes",
    [
        ("injective", {"period": 2}),
        ("periodic", {"period": None}),
        ("periodic", {"period": 0}),
        ("periodic", {"min_exterior_norm": 3}),
        ("periodic", {"growth": {}}),
    ],
)
def test_orbit_report_period_is_tied_to_status(status, changes):
    h = Subtorus.from_generators(2, [(1, 0)])
    data = encode_orbit_report(orbit(CAT if status == "injective" else ROT, h, 3))
    assert data["status"] == status
    parse_orbit_report(data)
    data.update(changes)
    with pytest.raises(ParseError, match="period|growth"):
        parse_orbit_report(data)


@pytest.mark.parametrize("text", ["2/4", "1/-2", " 1/2", "1_0/3", "1/0", "3", 3])
def test_rationals_must_be_canonical(text):
    data = encode_orbit_report(orbit(CAT, Subtorus.from_generators(2, [(1, 0)]), 3))
    data["growth"]["transfer"] = text
    with pytest.raises(ParseError, match="lowest terms"):
        parse_orbit_report(data)


@pytest.mark.parametrize("value", [0, ["note"], {"text": "x"}])
def test_explanation_is_a_string_or_null(value):
    data = encode_family(disjoint_hyperplane_orbits(CAT, 2))
    parse_family(data)
    data["explanation"] = value
    with pytest.raises(ParseError, match="explanation"):
        parse_family(data)


_MISSING = object()


@pytest.mark.parametrize(
    "window",
    [_MISSING, None, {}, [[0]], [[0, [[1, 0]], 1]], [[0, [[1, 0], [1]]]], [[0, [1, 0]]]],
    ids=["missing", "null", "object", "short-pair", "long-pair", "ragged", "flat-basis"],
)
def test_orbit_window_must_be_integer_pairs(window):
    data = encode_orbit_report(orbit(CAT, Subtorus.from_generators(2, [(1, 0)]), 3))
    if window is _MISSING:
        del data["window"]
    else:
        data["window"] = window
    with pytest.raises(ParseError):
        parse_orbit_report(data)


def test_parse_certificate_dispatch():
    fam = disjoint_hyperplane_orbits(CAT, 3)
    assert parse_certificate(encode_family(fam)) == fam
    with pytest.raises(ParseError, match="kind"):
        parse_certificate({"kind": "mystery", "format_version": 1})


def test_metric_estimate_exact_fields():
    est = hausdorff_distance(
        Subtorus.from_generators(2, [(1, 0)]), Subtorus.from_generators(2, [(0, 1)]), "1/50"
    )
    data = encode_metric_estimate(est)
    num, den = map(int, data["value_exact"].split("/"))
    assert abs(data["value"] - num / den) < 1e-12


# The golden certificate's payload as it stood when the file was written with
# indent 2: the compact form changed its whitespace and nothing else, and
# formats 3 and 4 its format_version and nothing else.
GOLDEN_PAYLOAD = {
    "branch": "finite_order",
    "complete": True,
    "converges_to_full": None,
    "explanation": None,
    "family": None,
    "fixed_subtori": [
        {"ambient_dim": 2, "basis": [[1, 0]]},
        {"ambient_dim": 2, "basis": [[1, 1]]},
    ],
    "format_version": 4,
    "isolation": None,
    "kind": "non_expansivity",
    "matrix": [[0, -1], [1, 0]],
    "order": 4,
    "rigorous": True,
}


def test_golden_finite_order_certificate():
    cert = non_expansivity_certificate(ROT, 10)
    text = canonical_json(encode_non_expansivity(cert))
    golden = (DATA / "golden_finite_order_rotation.json").read_text()
    assert text == golden
    assert json.loads(text) == GOLDEN_PAYLOAD


def test_canonical_json_is_one_compact_line_that_reencodes_to_itself():
    payloads = [
        GOLDEN_PAYLOAD,
        encode_family(disjoint_hyperplane_orbits(CAT, 5)),
        {"z": [1, -2, {"b": None, "a": "1/3"}], "a": 0.25, "m": "é\n"},
    ]
    for payload in payloads:
        text = canonical_json(payload)
        assert text.endswith("\n") and text.count("\n") == 1
        assert ": " not in text and ", " not in text
        assert canonical_json(json.loads(text)) == text


def test_roundtrip_many_random_families():
    rng = random.Random(92)
    for _ in range(6):
        t = random_word(rng, rng.choice((2, 3)), entry_cap=30)
        fam = disjoint_hyperplane_orbits(t, 3)
        text = canonical_json(encode_family(fam))
        assert parse_family(json.loads(text)) == fam
