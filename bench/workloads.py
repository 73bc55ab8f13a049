"""Seeded inputs for the three benchmark workloads.

A workload is a list of tasks that make one round.  Every round of a run has
the same tasks in the same order; only the inputs change from round to round,
so that no result computed for one round can be reused by the next.  The
inputs of round r depend on the seed and on r alone.

Matrices are varied by conjugation with a signed permutation P, T' = P T P^T,
or, for companion matrices, with a diagonal of signs.  P preserves the sup
norm of covectors, so the conjugate has the same dynamics, the same covector
norms and the same amount of work, while every matrix, member and window of
the certificate is a different integer tuple.

Nothing here imports tordyn: the program receives only the generated jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial

# Cat map and the companions of x^3 - x - 1 and x^5 - x - 1.  In each family
# every member has the same minimal annihilator.
CAT = ((2, 1), (1, 1))
# Companions whose families build complete but not rigorous: the two
# narrow-gap sextics, and a quintic with a narrow gap between its two
# dominant complex pairs (moduli 1.300 and 1.201).
NARROW_GAP_SEXTICS = (
    (1, 1, 1, 1, 2, 1, 1),  # x^6 + x^5 + x^4 + x^3 + 2x^2 + x + 1
    (1, 0, -2, -1, 1, -1, 1),  # x^6 - 2x^4 - x^3 + x^2 - x + 1
)
NARROW_GAP_QUINTIC = (1, 0, 0, -1, 2, 1)  # x^5 - x^2 + 2x + 1
ROTATION4 = ((0, -1), (1, 0))


@dataclass
class Task:
    """One producing CLI job.  A certificate it produces is then checked by
    `verify`, honest and in the tampered copies named in `tamper`, each of
    which must be rejected.  `expect` holds what the independent checks need
    to know besides the input: family size, group order, distance pair."""

    label: str
    command: str
    payload: dict
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)
    tamper: tuple[str, ...] = ()


def companion(coeffs_high_to_low) -> tuple[tuple[int, ...], ...]:
    """Companion matrix of the monic polynomial x^d + c_{d-1} x^{d-1} + ... + c_0,
    given as (1, c_{d-1}, ..., c_0)."""
    c = coeffs_high_to_low[1:]
    d = len(c)
    rows = [tuple(1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)]
    rows.append(tuple(-c[d - 1 - j] for j in range(d)))
    return tuple(rows)


def signed_permutation(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))


def conjugate(p, t) -> tuple[tuple[int, ...], ...]:
    """P T P^T for a signed permutation P (whose inverse is its transpose)."""
    n = len(t)
    pt = [[sum(p[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(tuple(sum(pt[i][k] * p[j][k] for k in range(n)) for j in range(n)) for i in range(n))


def _conj(rng: random.Random, t):
    return [list(r) for r in conjugate(signed_permutation(rng, len(t)), t)]


def _conj_signs(rng: random.Random, t):
    """D T D for a diagonal D of signs.  Companion matrices are conjugated
    this way only: permuting their coordinates changes which covectors the
    greedy search meets first, and with them the window radii (by up to 24%
    for x^3 - x - 1), while sign changes leave the radii as they are."""
    n = len(t)
    d = [1] + [rng.choice((-1, 1)) for _ in range(n - 1)]
    return [[d[i] * t[i][j] * d[j] for j in range(n)] for i in range(n)]


def _conj_blocks(rng: random.Random, a, b):
    """Conjugate of the block matrix a + b by a signed permutation that keeps
    each block's coordinates together, so that the invariant subtorus, and
    with it the shape of the quotient certificate, stays the same."""
    p = block_diag(signed_permutation(rng, len(a)), signed_permutation(rng, len(b)))
    return [list(r) for r in conjugate(p, block_diag(a, b))]


def block_diag(a, b):
    n, m = len(a), len(b)
    rows = [tuple(a[i]) + (0,) * m for i in range(n)]
    rows += [(0,) * n + tuple(b[i]) for i in range(m)]
    return tuple(rows)


def hyperoctahedral_generators(n: int):
    """A transposition, an n-cycle and one sign change: they generate B_n,
    the signed permutation matrices, of order 2^n n!."""
    swap = tuple(
        tuple(1 if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1) else 0 for j in range(n))
        for i in range(n)
    )
    cycle = tuple(tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n))
    flip = tuple(tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(n)) for i in range(n))
    return (swap, cycle, flip)


def _is_irreducible_over_q(coeffs) -> bool:
    """Irreducibility over Q of a monic integer polynomial of degree 3 or 4
    with constant term +-1: no rational root (only +-1 can occur) and, for
    degree 4, no factorisation into two monic integer quadratics."""
    def value(x):
        acc = 0
        for c in coeffs:
            acc = acc * x + c
        return acc

    if value(1) == 0 or value(-1) == 0:
        return False
    if len(coeffs) == 4:
        return True
    _, a3, a2, a1, a0 = coeffs
    # (x^2 + p x + q)(x^2 + r x + s) with q s = a0 = +-1
    for q in (1, -1):
        s = a0 // q
        for p in range(-8, 9):
            r = a3 - p
            if q + s + p * r == a2 and p * s + q * r == a1:
                return False
    return True


def _is_cyclotomic(coeffs) -> bool:
    # The cyclotomic polynomials of degree 3 or 4 (there are none of degree 3).
    return tuple(coeffs) in {
        (1, 1, 1, 1, 1),  # Phi_5
        (1, 0, 0, 0, 1),  # Phi_8
        (1, -1, 1, -1, 1),  # Phi_10
        (1, 0, -1, 0, 1),  # Phi_12
    }


def random_spread_polynomial(rng: random.Random, degree: int):
    """A monic irreducible non-cyclotomic integer polynomial of the given
    degree (3 or 4), coefficients in [-2, 2] and constant term +-1, so its
    companion is unimodular with an injective hyperplane orbit."""
    while True:
        coeffs = (1,) + tuple(rng.randint(-2, 2) for _ in range(degree - 1)) + (rng.choice((-1, 1)),)
        if _is_irreducible_over_q(coeffs) and not _is_cyclotomic(coeffs):
            return coeffs


def spread_sample(seed: int):
    """The seeded part of `family-spread`, fixed for the whole run: a cubic
    and a quartic."""
    rng = random.Random(f"family-spread:{seed}:sample")
    return [random_spread_polynomial(rng, d) for d in (3, 4)]


def _family(label, t, k, tamper=()):
    return Task(
        label, "disjoint-family", {"matrix": t}, ("--count", str(k)),
        expect={"count": k}, tamper=tamper,
    )


def family_shared(seed: int, rnd: int) -> list[Task]:
    rng = random.Random(f"family-shared:{seed}:{rnd}")
    return [
        _family("cat k=60", _conj(rng, CAT), 60),
        _family("x^3-x-1 k=20", _conj_signs(rng, companion((1, 0, -1, -1))), 20),
        _family(
            "x^5-x-1 k=3", _conj_signs(rng, companion((1, 0, 0, 0, -1, -1))), 3,
            tamper=TAMPERINGS,
        ),
    ]


def _certify(label, t, k):
    return Task(label, "certify-nonexpansive", {"matrix": t}, ("--count", str(k)),
                expect={"count": k})


def family_spread(seed: int, rnd: int, sample) -> list[Task]:
    rng = random.Random(f"family-spread:{seed}:{rnd}")
    tasks = [_certify(f"certify {poly_name(p)} k=3", _conj_signs(rng, companion(p)), 3)
             for p in sample]
    tasks.append(_certify(f"certify {poly_name(NARROW_GAP_QUINTIC)} k=2",
                          _conj_signs(rng, companion(NARROW_GAP_QUINTIC)), 2))
    tasks += [_family(f"{poly_name(p)} k=2", _conj_signs(rng, companion(p)), 2)
              for p in NARROW_GAP_SEXTICS]
    return tasks


def poly_name(coeffs) -> str:
    """x^3-x-1 for (1, 0, -1, -1)."""
    d = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        e = d - i
        if c == 0:
            continue
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        mag = str(abs(c)) if abs(c) != 1 or e == 0 else ""
        terms.append(("-" if c < 0 else "+") + mag + mono)
    return "".join(terms).lstrip("+")


def _subtorus_t3(rng: random.Random):
    """A codimension-1 subtorus of T^3 with HNF basis [[1,0,a],[0,1,b]]."""
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    return {"ambient_dim": 3, "basis": [[1, 0, a], [0, 1, b]]}


def structured(seed: int, rnd: int) -> list[Task]:
    rng = random.Random(f"structured:{seed}:{rnd}")
    tasks = [
        _family("finite order 6 in T^3", _conj(rng, ((0, 0, -1), (1, 0, 0), (0, 1, 0))), 12),
        _family("shear T^2", _conj(rng, ((1, 1), (0, 1))), 16),
        _family("shear T^3", _conj(rng, ((1, 1, 0), (0, 1, 1), (0, 0, 1))), 16),
        _family("cat + rotation", _conj_blocks(rng, CAT, ROTATION4), 8),
    ]
    for n in (4, 5):
        p = signed_permutation(rng, n)
        gens = [[list(r) for r in conjugate(p, g)] for g in hyperoctahedral_generators(n)]
        tasks.append(Task(f"group B{n}", "group-finite", {"matrices": gens},
                          expect={"order": 2 ** n * factorial(n)}))
    # S and S T generate SL_2(Z): both have finite order, their product does not.
    p = signed_permutation(rng, 2)
    gens = [[list(r) for r in conjugate(p, g)] for g in (((0, -1), (1, 0)), ((0, -1), (1, 1)))]
    tasks.append(Task("group SL2(Z)", "group-finite", {"matrices": gens}, expect={"order": None}))
    for label, t in (
        ("cat", CAT),
        ("order 6", ((0, 0, -1), (1, 0, 0), (0, 1, 0))),
        ("shear", ((1, 1, 0), (0, 1, 1), (0, 0, 1))),
        ("cat + rotation", block_diag(CAT, ROTATION4)),
        ("signed 4-cycle", ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0))),
    ):
        tasks.append(Task(f"classify {label}", "classify", {"matrix": _conj(rng, t)}))
    hs = []
    while len(hs) < 3:
        h = _subtorus_t3(rng)
        if h not in hs:
            hs.append(h)
    for i in (0, 1):
        tasks.append(Task(f"isolation H{i}", "isolation", {"subtorus": hs[i]},
                          ("--budget-norm", "3", "--resolution", "1/12")))
    a, b, c = hs
    for name, x, y in (("AB", a, b), ("BA", b, a), ("AA", a, a), ("BC", b, c), ("AC", a, c)):
        tasks.append(Task(f"distance {name}", "distance", {"first": x, "second": y},
                          ("--resolution", "1/50"), expect={"pair": name}))
    return tasks


# Tampered copies verified after the honest copy of a greedy certificate.
# The first three are rejected today.  `status-bogus` and `rigorous-string`
# are accepted with exit 0 (orbit status and the rigour flag are parsed
# loosely); they are counted as failed operations until parsing is strict.
TAMPERINGS = (
    "member-on-window",
    "inflated-exterior-norm",
    "truncated-window",
    "status-bogus",
    "rigorous-string",
)

WORKLOADS = ("family-shared", "family-spread", "structured")


def make_round(workload: str, seed: int, rnd: int) -> list[Task]:
    if workload == "family-shared":
        return family_shared(seed, rnd)
    if workload == "family-spread":
        return family_spread(seed, rnd, spread_sample(seed))
    if workload == "structured":
        return structured(seed, rnd)
    raise ValueError(f"unknown workload {workload!r}")
