"""The automorphism action on subtori: orbits, convergence, and the deciders
for distality, ergodicity, invariant rational subspaces, and finiteness of
automorphism subgroups.

Everything is exact.  Orbit periodicity of a subtorus reduces to the orbit of
an integer vector: the maximal-minor (Plucker) vector of its annihilator
lattice under the corresponding exterior-power matrix.  That orbit is periodic
exactly when the minimal annihilator of the vector is a squarefree product of
cyclotomic polynomials, which is a finite, exact test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .growth import (
    GrowthCertificate,
    cyclic_basis,
    derive_growth_certificate,
    minimal_annihilator,
)
from .intmat import (
    Mat,
    UnimodularMatrix,
    Vec,
    char_poly,
    compound_matrix,
    cyclic_powers,
    det,
    evaluate_poly_at_matrix,
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    matrix_order,
    transpose,
)
from .lattices import (
    Lattice,
    annihilator_rows,
    hnf_basis,
    matrix_minimal_polynomial,
    saturate_rows,
)
from .polynomials import (
    Poly,
    cyclotomic_orders_if_product,
    distinct_cyclotomic_divisors,
    cyclotomic,
    is_squarefree_product_of_cyclotomics,
    rational_factors,
    degree as poly_degree,
)
from .subtori import (
    PrimitiveCovector,
    Subtorus,
    _trusted_subtorus,
    annihilator,
    canonicalize_covector,
    covector_to_hyperplane,
    iter_primitive_covectors,
)


def act(t: UnimodularMatrix, h: Subtorus) -> Subtorus:
    """Image of the subtorus under the automorphism; dimension is preserved."""
    if t.n != h.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    # a unimodular map sends a saturated lattice onto a saturated lattice, so
    # the HNF of the image is already the canonical basis of the image
    rows = tuple(mat_vec(t.rows, r) for r in h.basis)
    return _trusted_subtorus(h.ambient_dim, hnf_basis(rows, h.ambient_dim))


def dual_matrix(t: UnimodularMatrix) -> UnimodularMatrix:
    """Inverse transpose; intertwines the action on codimension-1 subtori with
    the action on their primitive annihilating covectors."""
    return UnimodularMatrix(transpose(inverse_unimodular(t.rows)))


def plucker_vector(basis: Mat, n: int) -> Vec:
    """Maximal minors of a rank-k basis, index sets in lex order, gcd-reduced
    and sign-canonicalized.  Determines a saturated lattice uniquely."""
    k = len(basis)
    if k == 0:
        return (1,)
    coords = []
    for cols in combinations(range(n), k):
        sub = tuple(tuple(row[j] for j in cols) for row in basis)
        coords.append(det(sub))
    return canonicalize_covector(coords)


@dataclass(frozen=True)
class OrbitReport:
    """Exact status of the orbit of a subtorus under one automorphism."""

    status: str  # "periodic" or "injective"
    period: int | None
    window_radius: int
    # (m, canonical HNF basis of T^m H) for |m| <= window_radius, sorted by m
    window: tuple[tuple[int, Mat], ...]
    min_exterior_norm: int | None
    growth: GrowthCertificate | None
    rigorous: bool


def annihilator_orbit_data(t: UnimodularMatrix, h: Subtorus) -> tuple[Mat, Vec]:
    """Matrix and integer vector whose orbit mirrors the subtorus orbit.

    The annihilator lattice of act(T, H) is S(ann H) with S the dual matrix,
    so its Plucker vector moves under the (n-dim H)-th exterior power of S.
    """
    n = t.n
    r = n - h.dim
    s = dual_matrix(t).rows
    m = compound_matrix(s, r)
    pv = plucker_vector(annihilator(h).basis, n)
    return m, pv


def orbit_is_periodic(t: UnimodularMatrix, h: Subtorus) -> bool:
    if h.dim in (0, h.ambient_dim):
        return True
    m, pv = annihilator_orbit_data(t, h)
    g = minimal_annihilator(m, pv)
    return is_squarefree_product_of_cyclotomics(g)


def periodic_orbit_period(t: UnimodularMatrix, h: Subtorus) -> int:
    m, pv = annihilator_orbit_data(t, h)
    g = minimal_annihilator(m, pv)
    orders = cyclotomic_orders_if_product(g)
    assert orders is not None
    cap = lcm(*orders) if orders else 1
    cur = h
    for p in range(1, cap + 1):
        cur = act(t, cur)
        if cur == h:
            return p
    raise AssertionError("periodic orbit must return within the order bound")


def orbit_window(
    t: UnimodularMatrix, h: Subtorus, radius: int
) -> tuple[tuple[int, Subtorus], ...]:
    """The window ((m, T^m H) for |m| <= radius), sorted by m."""
    if t.n != h.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    forward = []
    cur = h
    for m in range(1, radius + 1):
        cur = act(t, cur)
        forward.append((m, cur))
    backward = []
    cur = h
    tinv = t.inv()
    for m in range(1, radius + 1):
        cur = act(tinv, cur)
        backward.append((-m, cur))
    return tuple(reversed(backward)) + ((0, h),) + tuple(forward)


def covector_window_set(t: UnimodularMatrix, gamma: Vec, radius: int) -> frozenset[Vec]:
    """{canonicalize(S^m gamma) : |m| <= radius} with S = T^-T: the primitive
    covectors of the hyperplanes in the window of the hyperplane gamma
    annihilates, without building any subtorus."""
    if t.n != len(gamma):
        raise ValueError("ambient dimension mismatch")
    out = {canonicalize_covector(gamma)}
    for step in (dual_matrix(t).rows, transpose(t.rows)):
        cur = gamma
        for _ in range(radius):
            cur = mat_vec(step, cur)
            out.add(canonicalize_covector(cur))
    return frozenset(out)


def orbit(
    t: UnimodularMatrix,
    h: Subtorus,
    window_radius: int,
) -> OrbitReport:
    """Decide the exact orbit dichotomy and enumerate a window around m = 0.

    Periodic orbits report their minimal period.  Injective orbits carry a
    norm-growth certificate when one can be established; otherwise the report
    is flagged non-rigorous (window-verified only).
    """
    if window_radius < 1:
        raise ValueError("window radius must be >= 1")
    window = tuple((m, s.basis) for m, s in orbit_window(t, h, window_radius))
    if h.dim in (0, h.ambient_dim) or orbit_is_periodic(t, h):
        period = 1 if h.dim in (0, h.ambient_dim) and act(t, h) == h else None
        if period is None:
            period = periodic_orbit_period(t, h)
        return OrbitReport("periodic", period, window_radius, window, None, None, True)
    m, pv = annihilator_orbit_data(t, h)
    growth = derive_growth_certificate(m, pv, window_radius)
    min_ext = None
    if growth.min_exterior_norm is not None:
        min_ext = _plucker_floor_to_annihilator_floor(growth.min_exterior_norm, t.n - h.dim)
    return OrbitReport(
        "injective", None, window_radius, window, min_ext, growth, growth.rigorous
    )


def _plucker_floor_to_annihilator_floor(floor: int, r: int) -> int:
    """Translate a bound on the annihilator Plucker sup norm into a bound on
    the annihilator HNF basis sup norm: an r x r minor is at most r! * B^r."""
    if r == 1:
        return floor
    fact = 1
    for i in range(2, r + 1):
        fact *= i
    b = 1
    while fact * (b + 1) ** r < floor:
        b += 1
    return b


def converges_to_full(t: UnimodularMatrix, h: Subtorus) -> bool:
    """Whether T^m(H) converges to the full torus as m goes to +-infinity.

    Exact for codimension-1 subtori: the orbit converges exactly when the dual
    covector orbit is not periodic, since an injective integer orbit meets
    every finite set of characters only finitely often.
    """
    if h.dim != h.ambient_dim - 1:
        raise ValueError("exact convergence decision needs a codimension-1 subtorus")
    return not orbit_is_periodic(t, h)


def cyclotomic_radical_matrix(s: Mat) -> Mat:
    """Product of Phi_m(S) over the distinct cyclotomic divisors of the minimal
    polynomial of S.  A covector orbit under S is periodic exactly when this
    matrix kills the covector."""
    mu = matrix_minimal_polynomial(s)
    out = identity(len(s))
    for m in distinct_cyclotomic_divisors(mu):
        out = mat_mul(out, evaluate_poly_at_matrix(cyclotomic(m), s))
    return out


def covector_orbit_is_periodic(radical: Mat, gamma: Vec) -> bool:
    return all(x == 0 for x in mat_vec(radical, gamma))


def is_distal_linear(t: UnimodularMatrix) -> bool:
    """Distality of the linear action on R^n: every eigenvalue on the unit
    circle, which for integer matrices forces roots of unity."""
    return cyclotomic_orders_if_product(char_poly(t.rows)) is not None


def is_ergodic(t: UnimodularMatrix) -> bool:
    """No eigenvalue is a root of unity."""
    return not distinct_cyclotomic_divisors(char_poly(t.rows))


@dataclass(frozen=True)
class DistalityVerdict:
    distal: bool
    order: int | None  # None means no power of T is the identity
    witness: Subtorus | None
    witness_covector: PrimitiveCovector | None
    witness_converges_to_full: bool | None


def acts_distally_on_subp(t: UnimodularMatrix) -> DistalityVerdict:
    """Distality of the action on the space of subtori.

    Distal exactly when T has finite order.  A non-distal verdict carries a
    hyperplane whose orbit converges to the full torus in both directions, an
    explicit proximal pair with the full torus.
    """
    order = matrix_order(t)
    if order is not None:
        return DistalityVerdict(True, order, None, None, None)
    if t.n < 2:
        raise AssertionError("every automorphism of the circle has finite order")
    s = dual_matrix(t).rows
    radical = cyclotomic_radical_matrix(s)
    for gamma in iter_primitive_covectors(t.n):
        if not covector_orbit_is_periodic(radical, gamma):
            cov = PrimitiveCovector(gamma)
            h = covector_to_hyperplane(cov)
            return DistalityVerdict(False, None, h, cov, converges_to_full(t, h))
    raise AssertionError("an infinite-order automorphism moves some covector")


@dataclass(frozen=True)
class InvariantSubspaceReport:
    exists: bool
    witnesses: tuple[Subtorus, ...]
    characteristic_factors: tuple[tuple[Poly, int], ...]
    minimal_polynomial: Poly


def invariant_rational_subspaces(t: UnimodularMatrix) -> InvariantSubspaceReport:
    """Proper nonzero T-invariant rational subspaces, as subtori.

    They exist exactly when the characteristic polynomial is reducible over
    the rationals; each witness returned is minimal (the saturated cyclic
    lattice of a kernel vector of an irreducible factor).
    """
    if t.n < 2:
        raise ValueError("needs ambient dimension >= 2")
    cp = char_poly(t.rows)
    factors = tuple(rational_factors(cp))
    mu = matrix_minimal_polynomial(t.rows)
    reducible = len(factors) > 1 or factors[0][1] > 1
    if not reducible:
        return InvariantSubspaceReport(False, (), factors, mu)
    witnesses = []
    for f, _ in factors:
        d = poly_degree(f)
        if d >= t.n:
            continue
        fk = evaluate_poly_at_matrix(f, t.rows)
        kern = annihilator_rows(fk, t.n)
        if not kern:
            continue
        cyc = saturate_rows(cyclic_basis(t.rows, kern[0], t.n), t.n)
        if 0 < len(cyc) < t.n:
            witnesses.append(Subtorus(t.n, Lattice(t.n, cyc)))
    witnesses.sort(key=lambda h: (h.dim, h.basis))
    assert witnesses, "reducible characteristic polynomial must yield a witness"
    return InvariantSubspaceReport(True, tuple(witnesses), factors, mu)


@dataclass(frozen=True)
class GroupReport:
    status: str  # "finite", "infinite" or "inconclusive"
    order: int | None
    elements: tuple[Mat, ...] | None
    witness: Mat | None


def group_is_finite(generators, cap: int = 20000) -> GroupReport:
    """Breadth-first closure of the generated subgroup.

    Finite when the closure stabilizes within cap elements; infinite as soon
    as an element of infinite order appears; inconclusive when the cap is hit
    with every element so far of finite order.

    Each element's order is decided exactly before it is inserted.  One power
    walk (`cyclic_powers`) decides the whole cyclic subgroup it generates: its
    powers all have finite order and lie in the group, so they wait in
    `finite` and need no walk of their own when the closure reaches them.
    """
    gens = [g if isinstance(g, UnimodularMatrix) else UnimodularMatrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators must share one dimension")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    step = [g.rows for g in gens] + [inverse_unimodular(g.rows) for g in gens]
    seen: dict[Mat, None] = {identity(n): None}
    # elements known to have finite order that are not yet in seen
    finite: set[Mat] = set()
    frontier = [identity(n)]
    while frontier:
        new_frontier = []
        for a in frontier:
            for s in step:
                b = mat_mul(a, s)
                if b in seen:
                    continue
                if b in finite:
                    finite.remove(b)
                else:
                    powers = cyclic_powers(b)
                    if powers is None:
                        return GroupReport("infinite", None, None, b)
                    finite.update(p for p in powers[1:] if p not in seen)
                seen[b] = None
                if len(seen) > cap:
                    return GroupReport("inconclusive", None, None, None)
                new_frontier.append(b)
        frontier = new_frontier
    elements = tuple(sorted(seen))
    return GroupReport("finite", len(elements), elements, None)
