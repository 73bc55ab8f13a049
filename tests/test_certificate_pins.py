"""Certificates of the greedy growth search are pinned byte for byte.

Each pin is the sha256 of the canonical JSON (serialization.canonical_json) of
the certificate a job produces through cli.run_job.  The jobs cover the paths
of the growth search: narrow-gap annihilators that widen through several
radii without a cone (the two sextics and the quintic), a cone at one radius
shared by many members (x^3-x-1 and the cat map) and a unipotent spectrum
(the T^3 shear).

The pins were generated with the search that rebuilt every piece of evidence
at every radius, before the search kept its radius-independent part across
radii, by running this file as a script on that tree:

    PYTHONPATH=src python tests/test_certificate_pins.py

which prints one `label digest` line per job.  A change that moves a pin
changes a certificate; if it does so on purpose, regenerate the pins the same
way and say why.
"""

import hashlib

import pytest

from tordyn.cli import run_job
from tordyn.serialization import canonical_json


def companion(coeffs_high_to_low):
    """Companion matrix of x^d + c_{d-1} x^{d-1} + ... + c_0, given as
    (1, c_{d-1}, ..., c_0)."""
    c = coeffs_high_to_low[1:]
    d = len(c)
    rows = [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d - 1)]
    rows.append([-c[d - 1 - j] for j in range(d)])
    return rows


JOBS = {
    "x^6+x^5+x^4+x^3+2x^2+x+1 family k=2":
        ("disjoint-family", companion((1, 1, 1, 1, 2, 1, 1)), 2),
    "x^6-2x^4-x^3+x^2-x+1 family k=2":
        ("disjoint-family", companion((1, 0, -2, -1, 1, -1, 1)), 2),
    "x^5-x^2+2x+1 certify k=2":
        ("certify-nonexpansive", companion((1, 0, 0, -1, 2, 1)), 2),
    "x^3-x-1 family k=20": ("disjoint-family", companion((1, 0, -1, -1)), 20),
    "shear T^3 family k=16": ("disjoint-family", [[1, 1, 0], [0, 1, 1], [0, 0, 1]], 16),
    "cat family k=60": ("disjoint-family", [[2, 1], [1, 1]], 60),
}

PINS = {
    "x^6+x^5+x^4+x^3+2x^2+x+1 family k=2":
        "301d6d490edd246cc630ebfd1d692b0c62b2515c459a318fc92911d1dca57a24",
    "x^6-2x^4-x^3+x^2-x+1 family k=2":
        "99e0d7af78af37e80380065d2ee3cfe415899ce0fa60ccd02318e97ba2c7d23b",
    "x^5-x^2+2x+1 certify k=2":
        "1adf2b39ccfb52c97fc8e0fed799f76c073f18ce1929852b7aec058b1a986598",
    "x^3-x-1 family k=20":
        "d17adb86f3ea1671cfc69a5d424af8dc2c9d042ff5cc3643a1664f142030afee",
    "shear T^3 family k=16":
        "ffa45238dbcf35669dc321ac4801294e8c095d8fa69f63d04593ee62e6611a40",
    "cat family k=60":
        "4acb2b5d4ae42ff8b978fe29c0d797c88831059d8a40db4fcb6f533752d52fa2",
}


def certificate_digest(label: str) -> str:
    command, matrix, count = JOBS[label]
    payload = run_job({"command": command, "matrix": matrix, "parameters": {"count": count}})
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(JOBS))
def test_certificate_matches_its_pin(label):
    assert certificate_digest(label) == PINS[label]


if __name__ == "__main__":
    for label in JOBS:
        print(label, certificate_digest(label))
