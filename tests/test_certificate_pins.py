"""Certificates of the family builders are pinned byte for byte.

Each pin is the sha256 of the canonical JSON (serialization.canonical_json) of
the certificate a job produces through cli.run_job.  The first six jobs cover
the paths of the growth search: narrow-gap annihilators that have a cone in
one direction only and a Lyapunov form in the other, so that every member is
rigorous at the first radius, 24 (the two sextics and the quintic), a cone at
one radius shared by many members (x^3-x-1 and the cat map) and a unipotent
spectrum (the T^3 shear).  The last five cover the root-of-unity spectrum:
finite order (the rotation, the identity and an order-6 matrix of T^3), a
unipotent T^2 shear, and shear + rotation, whose non-expansivity family
keeps only members with injective orbits.

The three narrow-gap pins were generated once the search tried a Lyapunov
form after the cones; before that, the same jobs widened every member
through 24, 36, 54, 81 and 96 and ended `rigorous: false`.  Of the other
pins, three were generated with the search that rebuilt every piece of
evidence at every radius, before the search kept its radius-independent
part across radii, and five with separate finite-order and unipotent-power
family builders, before one builder served both.  Each was generated by
running this file as a script on that tree:

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
    "rotation family k=2": ("disjoint-family", [[0, -1], [1, 0]], 2),
    "identity family k=5": ("disjoint-family", [[1, 0], [0, 1]], 5),
    "order 6 in T^3 family k=12":
        ("disjoint-family", [[0, 0, -1], [1, 0, 0], [0, 1, 0]], 12),
    "shear T^2 family k=16": ("disjoint-family", [[1, 1], [0, 1]], 16),
    "shear + rotation certify k=10":
        ("certify-nonexpansive",
         [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], 10),
}

PINS = {
    "x^6+x^5+x^4+x^3+2x^2+x+1 family k=2":
        "354de990936f0aa128c4bf18ba00a2278b5dd7679689170a0f56c96ebedd06b5",
    "x^6-2x^4-x^3+x^2-x+1 family k=2":
        "d111c7e575fc3f106e7354aa8674b7dfce2905480b3fd37420d018aec569ddc2",
    "x^5-x^2+2x+1 certify k=2":
        "a4235a53ae567d31ff70b74aa5ecb593ebc57ad31f35b7d8b4429ac0a827faa0",
    "x^3-x-1 family k=20":
        "d17adb86f3ea1671cfc69a5d424af8dc2c9d042ff5cc3643a1664f142030afee",
    "shear T^3 family k=16":
        "ffa45238dbcf35669dc321ac4801294e8c095d8fa69f63d04593ee62e6611a40",
    "cat family k=60":
        "4acb2b5d4ae42ff8b978fe29c0d797c88831059d8a40db4fcb6f533752d52fa2",
    "rotation family k=2":
        "d9ffcf5c8f609c2b2ec476fdf371011648ef21c7612a1044363f61bcbc0ebf8b",
    "identity family k=5":
        "703b475f45facda5a1f8030ed38f059ef5394d8c516be3cd0a66caf13dd0ed1e",
    "order 6 in T^3 family k=12":
        "9eecd1bdccbdc37f85101a16887b3a875e8b7b80da30c3f551e4a6ae5d6c0c2e",
    "shear T^2 family k=16":
        "e9734690184cf5de2c9c3f345bb75b7439f7c285b81a5d60d0cf5b7903a2ccca",
    "shear + rotation certify k=10":
        "f8879a6caa4c0999ef4444a87377e68c06b2d59ad59d02820fb8b84421524988",
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
