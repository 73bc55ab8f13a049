"""Results of `group-finite` are pinned byte for byte.

Each pin is the sha256 of the canonical JSON (serialization.canonical_json) of
the `result` payload a `group-finite` job produces through cli.run_job; an
inconclusive job's payload is the one its `Inconclusive` exception carries.
The jobs cover every way the closure ends: B4 and B5 as the structured
benchmark conjugates them (seed 5, round 0) end `finite` with 384 and 3840
sorted elements; SL2(Z) from S and ST, and B4 with a shear beside a rotation,
end `infinite` with a witness; B6 at the default cap 20000 ends
`inconclusive`; the shear alone ends `inconclusive` at cap 2 and `infinite`
at cap 3.

The pins were generated with the closure that multiplied matrices and filed
each product under its entries mod 3, before the closure ran over a table of
rows, by running this file as a script on that tree:

    PYTHONPATH=src python tests/test_group_pins.py

which prints one `label digest` line per job.  A change that moves a pin
changes a result; if it does so on purpose, regenerate the pins the same way
and say why.
"""

import hashlib

import pytest

from tordyn.cli import Inconclusive, run_job
from tordyn.serialization import canonical_json

SHEAR = [[1, 1], [0, 1]]
S = [[0, -1], [1, 0]]
ST = [[0, -1], [1, 1]]


def hyperoctahedral_generators(n):
    """A transposition, an n-cycle and one sign change: they generate B_n."""
    swap = [[1 if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1) else 0 for j in range(n)]
            for i in range(n)]
    cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return [swap, cycle, flip]


# hyperoctahedral_generators(n) conjugated by a signed permutation, as the
# structured benchmark workload draws them at seed 5, round 0
B4_BENCH = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[0, 1, 0, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 0, 1, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
]
B5_BENCH = [
    [[1, 0, 0, 0, 0], [0, 0, 0, 0, -1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, -1, 0, 0, 0]],
    [[0, 0, 0, 0, 1], [0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [-1, 0, 0, 0, 0], [0, -1, 0, 0, 0]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, -1]],
]
# the shear beside the rotation S, a cyclotomic block matrix of infinite order
SHEAR_PLUS_S = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

JOBS = {
    "B4 bench seed 5": (B4_BENCH, None),
    "B5 bench seed 5": (B5_BENCH, None),
    "SL2(Z) from S and ST": ([S, ST], None),
    "B4 and shear + rotation": (hyperoctahedral_generators(4) + [SHEAR_PLUS_S], None),
    "B6 default cap": (hyperoctahedral_generators(6), None),
    "shear cap 2": ([SHEAR], 2),
    "shear cap 3": ([SHEAR], 3),
}

PINS = {
    "B4 bench seed 5":
        "7e1cfd71ecb7dc4b7897adf7b0d62b0626f2cf95dc9a61ad662a4e1f1f50790c",
    "B5 bench seed 5":
        "1d86603c9c4e1c2a66a364fd2d0076d6d697b440fb43c8f54a7f3e6f89109bd5",
    "SL2(Z) from S and ST":
        "6fbb882b57762fdf744dca3fa943966df8ed623ed822e4132399991a439962f9",
    "B4 and shear + rotation":
        "477e3f362ff9c5d3e73f2bb0f35df6bbb00ef242d5f2f13503567454bb203d69",
    "B6 default cap":
        "0818ae4b2e896ddfc706468e0955284459e4c73f63da796471627e43621a1768",
    "shear cap 2":
        "0818ae4b2e896ddfc706468e0955284459e4c73f63da796471627e43621a1768",
    "shear cap 3":
        "c4556da322198c2aac26e6de43bbe1e12d2c930fa8163c85ead2fb6f74d5236a",
}


def result_digest(label: str) -> str:
    matrices, cap = JOBS[label]
    job = {"command": "group-finite", "matrices": matrices}
    if cap is not None:
        job["parameters"] = {"count": cap}
    try:
        payload = run_job(job)
    except Inconclusive as exc:
        payload = exc.payload
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(JOBS))
def test_group_result_matches_its_pin(label):
    assert result_digest(label) == PINS[label]


if __name__ == "__main__":
    for label in JOBS:
        print(label, result_digest(label))
