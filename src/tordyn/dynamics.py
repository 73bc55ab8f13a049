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
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .growth import (
    GrowthCertificate,
    cyclic_basis,
    growth_evidence,
    minimal_annihilator,
    transfer_constant,
)
from .intmat import (
    Mat,
    UnimodularMatrix,
    Vec,
    char_poly,
    compound_matrix,
    det,
    evaluate_poly_at_matrix,
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    matrix_order,
    order_bound,
    transpose,
)
from .lattices import (
    Lattice,
    annihilator_rows,
    matrix_minimal_polynomial,
    saturate_rows,
    trusted_hnf_basis,
)
from .polynomials import (
    Poly,
    cyclotomic_orders_if_product,
    is_squarefree_product_of_cyclotomics,
    rational_factors,
    strip_cyclotomic_factors,
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
    trusted_canonicalize_covector,
)


def act(t: UnimodularMatrix, h: Subtorus) -> Subtorus:
    """Image of the subtorus under the automorphism; dimension is preserved."""
    if t.n != h.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    # a unimodular map sends a saturated lattice onto a saturated lattice, so
    # the HNF of the image is already the canonical basis of the image; the
    # rows of t and h were validated when t and h were built
    rows = [mat_vec(t.rows, r) for r in h.basis]
    return _trusted_subtorus(h.ambient_dim, trusted_hnf_basis(rows))


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
    return trusted_canonicalize_covector(tuple(coords))


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


def annihilator_orbit_data(s: Mat, h: Subtorus) -> tuple[Mat, Vec]:
    """Matrix and integer vector whose orbit mirrors the subtorus orbit.

    The annihilator lattice of act(T, H) is S(ann H) with S = T^-T the dual
    matrix (given by its rows), so its Plucker vector moves under the
    (n-dim H)-th exterior power of S.
    """
    n = len(s)
    m = compound_matrix(s, n - h.dim)
    pv = plucker_vector(annihilator(h).basis, n)
    return m, pv


def orbit_is_periodic(t: UnimodularMatrix, h: Subtorus) -> bool:
    if h.dim in (0, h.ambient_dim):
        return True
    m, pv = annihilator_orbit_data(dual_matrix(t).rows, h)
    g = minimal_annihilator(m, pv)
    return is_squarefree_product_of_cyclotomics(g)


def periodic_orbit_period(m: Mat, v: Vec, g: Poly) -> int:
    """Least p with canonicalize(M^p v) = v, for the orbit data (M, v) of a
    subtorus H whose minimal annihilator g is a squarefree product of
    cyclotomics: the Plucker vector v determines the saturated lattice, so
    this is the least p with T^p H = H."""
    orders = cyclotomic_orders_if_product(g)
    assert orders is not None
    cap = lcm(*orders) if orders else 1
    cur = v
    for p in range(1, cap + 1):
        cur = mat_vec(m, cur)
        if trusted_canonicalize_covector(cur) == v:
            return p
    raise AssertionError("periodic orbit must return within the order bound")


def widen_window(
    t: UnimodularMatrix,
    tinv: UnimodularMatrix,
    window: tuple[tuple[int, Subtorus], ...],
    radius: int,
) -> tuple[tuple[int, Subtorus], ...]:
    """The window ((m, T^m H) for |m| <= radius), sorted by m, extended from
    the two ends of a window of smaller radius around the same H; tinv is
    T^-1."""
    r = (len(window) - 1) // 2
    if radius < r:
        raise ValueError("a window cannot be narrowed")
    forward = []
    cur = window[-1][1]
    for m in range(r + 1, radius + 1):
        cur = act(t, cur)
        forward.append((m, cur))
    backward = []
    cur = window[0][1]
    for m in range(r + 1, radius + 1):
        cur = act(tinv, cur)
        backward.append((-m, cur))
    return tuple(reversed(backward)) + window + tuple(forward)


def orbit_window(
    t: UnimodularMatrix, h: Subtorus, radius: int
) -> tuple[tuple[int, Subtorus], ...]:
    """The window ((m, T^m H) for |m| <= radius), sorted by m: the radius-0
    window widened to `radius`."""
    if t.n != h.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return widen_window(t, t.inv(), ((0, h),), radius)


def covector_window_set(t: UnimodularMatrix, s: Mat, gamma: Vec, radius: int) -> frozenset[Vec]:
    """{canonicalize(S^m gamma) : |m| <= radius} with S = T^-T given by its
    rows: the primitive covectors of the hyperplanes in the window of the
    hyperplane gamma annihilates, without building any subtorus."""
    if t.n != len(gamma):
        raise ValueError("ambient dimension mismatch")
    out = {canonicalize_covector(gamma)}
    for step in (s, transpose(t.rows)):
        cur = gamma
        for _ in range(radius):
            cur = mat_vec(step, cur)
            out.add(trusted_canonicalize_covector(cur))
    return frozenset(out)


class OrbitBuilder:
    """The orbit report of one subtorus, built once and widened in place.

    The orbit dichotomy is decided once, from the orbit data (M, v) the
    caller passes: annihilator_orbit_data of the subtorus, or (S, gamma) with
    S = T^-T for the hyperplane gamma annihilates.  A periodic orbit gets its
    period, an injective one its minimal annihilator and transfer constant.
    `widen` extends the window from its two ends, so no `act` step runs
    twice, and takes the growth evidence of the annihilator at the new radius
    from `evidence`: growth.growth_evidence, a fresh search, or the table of
    a family build (families.FamilyOrbits), which keeps one
    growth.GrowthSearch per annihilator.  The transfer constant is the
    orbit's own.
    """

    def __init__(self, t: UnimodularMatrix, tinv: UnimodularMatrix, h: Subtorus, m: Mat, v: Vec):
        """tinv is T^-1, and (m, v) the orbit data of h."""
        self.t, self.tinv, self.h = t, tinv, h
        self.window: tuple[tuple[int, Subtorus], ...] = ((0, h),)
        self.period: int | None = 1
        self.annihilator: Poly | None = None
        self.transfer: Fraction | None = None
        self.growth: GrowthCertificate | None = None
        self.min_exterior_norm: int | None = None
        if h.dim in (0, h.ambient_dim):
            return
        g = minimal_annihilator(m, v)
        if is_squarefree_product_of_cyclotomics(g):
            self.period = periodic_orbit_period(m, v, g)
        else:
            self.period = None
            self.annihilator = g
            self.transfer = transfer_constant(cyclic_basis(m, v, len(g) - 1))

    @property
    def radius(self) -> int:
        return (len(self.window) - 1) // 2

    def widen(self, radius: int, evidence) -> None:
        """Widen the window to `radius`; evidence(g, radius) gives the growth
        evidence of an injective orbit there, and with it the annihilator
        norm floor outside the window, min_exterior_norm, kept until the
        next widening."""
        self.window = widen_window(self.t, self.tinv, self.window, radius)
        if self.annihilator is not None:
            self.growth = GrowthCertificate(
                self.annihilator, self.transfer, *evidence(self.annihilator, radius)
            )
            floor = self.growth.min_exterior_norm
            if floor is not None:
                floor = _plucker_floor_to_annihilator_floor(floor, self.h.ambient_dim - self.h.dim)
            self.min_exterior_norm = floor

    def report(self) -> OrbitReport:
        window = tuple((m, sub.basis) for m, sub in self.window)
        if self.period is not None:
            return OrbitReport("periodic", self.period, self.radius, window, None, None, True)
        return OrbitReport("injective", None, self.radius, window, self.min_exterior_norm,
                           self.growth, self.growth.rigorous)


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
    if t.n != h.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    tinv = t.inv()
    builder = OrbitBuilder(t, tinv, h, *annihilator_orbit_data(transpose(tinv.rows), h))
    builder.widen(window_radius, growth_evidence)
    return builder.report()


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


def is_distal_linear(t: UnimodularMatrix) -> bool:
    """Distality of the linear action on R^n: every eigenvalue on the unit
    circle, which for integer matrices forces roots of unity."""
    return order_bound(t.rows) is not None


def is_ergodic(t: UnimodularMatrix) -> bool:
    """No eigenvalue is a root of unity."""
    orders, _ = strip_cyclotomic_factors(char_poly(t.rows))
    return not orders


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
    for gamma in iter_primitive_covectors(t.n):
        if not is_squarefree_product_of_cyclotomics(minimal_annihilator(s, gamma)):
            cov = PrimitiveCovector(gamma)
            # the covector orbit is injective, which is exactly when the
            # hyperplane orbit converges (converges_to_full)
            return DistalityVerdict(False, None, covector_to_hyperplane(cov), cov, True)
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
    elements_found: int  # distinct elements met, the identity included


def group_is_finite(generators, cap: int = 20000) -> GroupReport:
    """Decide whether the generators span a finite subgroup G of GL_n(Z).

    By Minkowski's lemma the congruence kernel Gamma(3) of GL_n(Z) -> GL_n(Z/3)
    is torsion-free, so a finite G meets it only in Id: reduction mod 3 is
    injective on G.  An infinite G cannot be injective there, because
    GL_n(Z/3) is finite.  So G is finite exactly when no two of its elements
    agree mod 3.

    The closure is breadth first from Id, multiplying on the right by the
    distinct generators only, with no inverses: a finite submonoid of a group
    is a subgroup (a^j = a^k with j < k gives a^(k-j) = Id), so when the
    products close up they are all of G.

    It runs over a table of rows and multiplies no matrices.  Row i of a s is
    (row i of a) s, so `rows` keeps each distinct row met once, an element is
    the n-tuple of its rows' indices there, and a product is n lookups in the
    generator's memo from a row's index to the index of the row times s.  A
    memo entry is filled the first time it is asked for: mapping every known
    row eagerly would never end on an infinite group, whose rows never run
    out.  As each row is stored once, two elements are equal exactly when
    their index tuples are, so a repeated product is skipped by tuple
    membership before any work mod 3.  A new element is filed in `seen`
    under the tuple of its rows' residue classes mod 3, which are its entries
    mod 3.  A new element b whose classes are already there with another
    element a proves G infinite, with witness b a^-1: it is in Gamma(3) and is
    not Id, so it has infinite order.  A closure that ends without such a
    collision is G; only then, or for the colliding pair, are matrices built,
    and the elements are returned sorted.  `cap` bounds the number of
    distinct elements (the identity included) before the answer is
    inconclusive; at n <= 3 the default exceeds |GL_n(Z/3)| (48 and 11232),
    so the default always decides.
    """
    gens = [g if isinstance(g, UnimodularMatrix) else UnimodularMatrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators must share one dimension")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    step = list(dict.fromkeys(g.rows for g in gens))
    columns = [tuple(zip(*s)) for s in step]
    images: list[dict[int, int]] = [{} for _ in step]
    rows: list[Vec] = []
    row_index: dict[Vec, int] = {}
    row_class: list[int] = []
    class_index: dict[Vec, int] = {}

    def index_of(row: Vec) -> int:
        i = row_index.get(row)
        if i is None:
            i = row_index[row] = len(rows)
            rows.append(row)
            row_class.append(class_index.setdefault(tuple([x % 3 for x in row]), len(class_index)))
        return i

    def matrix(e: tuple[int, ...]) -> Mat:
        return tuple([rows[i] for i in e])

    eye = tuple([index_of(r) for r in identity(n)])
    members = {eye}
    seen = {tuple([row_class[i] for i in eye]): eye}
    frontier = [eye]
    while frontier:
        new_frontier = []
        for a in frontier:
            for cols, image in zip(columns, images):
                b = []
                for i in a:
                    j = image.get(i)
                    if j is None:
                        row = rows[i]
                        j = image[i] = index_of(tuple([sum(map(mul, row, col)) for col in cols]))
                    b.append(j)
                b = tuple(b)
                if b in members:
                    continue
                key = tuple([row_class[i] for i in b])
                c = seen.get(key)
                if c is not None:
                    witness = mat_mul(matrix(b), inverse_unimodular(matrix(c)))
                    return GroupReport("infinite", None, None, witness, len(seen))
                members.add(b)
                seen[key] = b
                if len(seen) > cap:
                    return GroupReport("inconclusive", None, None, None, len(seen))
                new_frontier.append(b)
        frontier = new_frontier
    elements = tuple(sorted(map(matrix, members)))
    return GroupReport("finite", len(elements), elements, None, len(seen))
