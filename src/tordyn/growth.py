"""Certified lower bounds for the norm growth of injective covector orbits.

For a covector v and an integer matrix M, the iterates M^m v live in the
cyclic lattice spanned by v, Mv, ..., M^(d-1)v, and their coordinates there
are the coefficients x_m of x^m modulo the minimal annihilator g of v; their
first entries form a single integer sequence t (the impulse response of g).
A growth certificate is a statement

    every orbit element with |exponent| > window has sup norm > floor

backed by one of three exact mechanisms, checkable by pure integer/rational
re-computation:

* cone: a two-sided ratio cone mu <= s(j+1)/s(j) <= nu that the q-step
  recurrence provably preserves, entered at explicitly verified indices.
  Level 1 runs on t itself (unique dominant real eigenvalue); level 2 runs on
  the 2x2 Hankel determinants of t, whose recurrence is the second exterior
  power and turns a dominant complex-conjugate pair into a dominant positive
  real value.  The q-step recurrence (roots raised to the q-th power) and the
  Hankel recurrence (pairwise products of roots) are computed from Newton
  power sums of the annihilator's roots, in exact integers
  (polynomials.root_power_poly and polynomials.exterior_square_poly).
* polynomial: when every eigenvalue is a root of unity (with multiplicity),
  each residue class of t along step q = lcm of the orders is an exact
  polynomial, bounded below by elementary tail estimates.
* lyapunov: a rational symmetric form P with C^T P C - P positive definite,
  for C the multiplication by x mod g, so that V(x) = x^T P x increases
  along the orbit, and a sign of V at the window's edge that bounds the
  coordinates x_m past it (tordyn.lyapunov).  Such a form exists exactly
  when no root of g lies on the unit circle, and it needs no gap between
  the root moduli, which the cones do.  The search tries it after both cone
  levels.

A certificate has two parts.  The direction evidence depends only on the
annihilator g and the window radius: for each direction the kind, level, q,
mu, nu, entries, Lyapunov form and sequence floor.  Only the transfer
constant belongs to the orbit itself.  Nothing else is stored: the norm floor
of a direction is norm_floor(floor_seq, level, transfer), where a Lyapunov
floor, which bounds all of x_m, counts as level 1, and the rigor and the
exterior norm floor of a certificate are properties computed from the two
parts.  derive_growth_certificate composes them.

Sequences are computed on demand.  ImpulseResponse runs the recurrence of g
the first time an index is read and keeps the terms; direction_sequence gives
a view of it for one direction and level (a DirectionSequence), which keeps
the Hankel determinants it has read.  A view's index range is capped, at
window + a fixed tail in the producer and at a span that the certificate's
power steps, the window and the degree bound in the checker, but only the
terms a test reads are computed.

The producer searches for the direction evidence in two parts (GrowthSearch).
Once per annihilator: the float roots, the impulse response with one
sequence per direction and level, per direction, level and q, the invariant
cone ratios mu, nu or the fact that there are none, and, the first time a
direction needs it, the Lyapunov form; none of these reads the window.  Once
per radius: the cone entries, their floor, the polynomial path and the sign
and floor of V at the window's edge, which do.  A family build keeps one
search per annihilator, so members that widen through several radii share
all of the first part and every term computed so far; growth_evidence is a
fresh search at one radius, and every search gives at each radius what a
fresh one gives there.

The producer and the checker (check_growth_certificate) share one routine for
each step of the evidence: direction_sequence gives the sequence, its
recurrence and the last index a window covers, for a direction and level;
cone_is_invariant and enters_cone test a cone and its entries, in integers;
the cone and polynomial floors come from _cone_floor and
_try_polynomial_direction; lyapunov.form_is_lyapunov tests a form and
lyapunov.lyapunov_floor derives its floor; and norm_floor turns a sequence
floor into a norm floor.  The checker recomputes all of it from scratch, and
splits the same way as a certificate: the direction evidence is checked once
per (annihilator, window, directions), and each orbit's annihilator and
transfer constant on their own.  Floating point appears only as a hint source
in the producer, which searches; the checker only re-runs the exact tests.  A
Lyapunov form is proposed by a float solve of the Stein equation
C^T P C - P = I.  The cone hints come from float approximations of the roots
z of the annihilator, found once per search (float_roots, an Aberth-Ehrlich
iteration): the backward direction reads 1/z, level 2 the pairwise products
z_i z_j, and a q-step cone the q-th powers, which are the roots of the
recurrences above.  A bad hint can only make the search miss a cone or a
form; every cone it proposes is still checked exactly by cone_is_invariant,
and every form by lyapunov.form_is_lyapunov.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import exp, isfinite, isqrt, lcm, log, pi
from operator import mul

from .intmat import Mat, Vec, det, mat_vec
from .lattices import left_kernel
from .polynomials import (
    Poly,
    exterior_square_poly,
    is_squarefree_product_of_cyclotomics,
    neg,
    normalize,
    root_power_poly,
    squarefree_decomposition,
    strip_cyclotomic_factors,
)

CONE_POWER_STEPS = (1, 2, 3, 4, 6, 8, 12, 16, 24)


def minimal_annihilator(m: Mat, v: Vec) -> Poly:
    """Monic integer polynomial g of least degree with g(M) v = 0."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no cyclic structure")
    rows = [v]
    cur = v
    for _ in range(len(v)):
        cur = mat_vec(m, cur)
        rows.append(cur)
        kern = left_kernel(tuple(rows), len(rows))
        if kern:
            rel = kern[0]
            if rel[-1] < 0:
                rel = tuple(-x for x in rel)
            if rel[-1] != 1:
                raise AssertionError("minimal annihilator must be monic")
            return normalize(rel)
    raise AssertionError("no annihilator found below the ambient dimension")


def cyclic_basis(m: Mat, v: Vec, d: int) -> Mat:
    rows = [v]
    cur = v
    for _ in range(d - 1):
        cur = mat_vec(m, cur)
        rows.append(cur)
    return tuple(rows)


class ImpulseResponse:
    """The impulse response t of a monic integer g with unit constant term:
    t[j] = (j == 0) for 0 <= j < deg g, and the recurrence extends it both
    ways because the constant term of g is a unit.

    Terms are computed the first time they are needed and then kept: reading
    t[j] computes the terms between the known ones and j, once, and nothing
    beyond j."""

    def __init__(self, g: Poly):
        d = len(g) - 1
        if d < 1 or g[-1] != 1 or g[0] not in (1, -1):
            raise ValueError("need a monic annihilator with unit constant term")
        self.g = g
        # t[j] = ahead[j] for j >= 0, and t[-k] = behind[d - 1 + k] for k >= 0:
        # behind runs t[d-1], ..., t[0], t[-1], ... by the reciprocal recurrence
        self._ahead = [1] + [0] * (d - 1)
        self._behind = [0] * (d - 1) + [1]
        self.reciprocal = reciprocal_monic(g)

    @property
    def known(self) -> tuple[int, int]:
        """The index range [lo, hi] whose terms have been computed."""
        return len(self.g) - 1 - len(self._behind), len(self._ahead) - 1

    def __getitem__(self, j: int) -> int:
        if j >= 0:
            if j >= len(self._ahead):
                self._extend(True, j)
            return self._ahead[j]
        i = len(self.g) - 2 - j
        if i >= len(self._behind):
            self._extend(False, i)
        return self._behind[i]

    def _extend(self, ahead: bool, i: int) -> None:
        """Run the recurrence of one side until its list holds position i."""
        vals, p = (self._ahead, self.g) if ahead else (self._behind, self.reciprocal)
        low, d = p[:-1], len(p) - 1
        while len(vals) <= i:
            vals.append(-sum(map(mul, low, vals[-d:])))


def recurrence_from_poly(p: Poly) -> tuple[int, ...]:
    """Coefficients b with s(j+D) = sum b_i s(j+i) for a monic p."""
    if p[-1] != 1:
        raise ValueError("recurrence polynomial must be monic")
    return tuple(-c for c in p[:-1])


def reciprocal_monic(g: Poly) -> Poly:
    """Monic polynomial whose roots are the inverses of the roots of g."""
    rev = tuple(reversed(g))
    if rev[-1] == -1:
        rev = neg(rev)
    if rev[-1] != 1:
        raise ValueError("reciprocal is not monic; constant term must be a unit")
    return normalize(rev)


def transfer_constant(basis: Mat) -> Fraction:
    """Exact K with  |coords|_inf <= K * |coords @ basis|_inf  for all coords.

    Pseudo-inverse bound: coords = (coords @ basis) @ P with P = B^T G^-1,
    B = basis and G = B B^T, and K is the largest column sum of |P|.  As
    G^-1 = adj(G) / det(G), that is an integer quotient:
    K = max_j sum_i |(B^T adj G)_ij| / |det G|, the cofactors of G by
    Bareiss determinants.  A basis of deficient rank has det G = 0 and is
    rejected.
    """
    d = len(basis)
    gram = [[sum(map(mul, r1, r2)) for r2 in basis] for r1 in basis]
    g = det(gram)
    if g == 0:
        raise ValueError("matrix is singular")
    # adj(G)[a][j] is the (j, a) cofactor of G
    adj = [[(-1) ** (a + j) * det(_minor(gram, j, a)) for j in range(d)] for a in range(d)]
    return Fraction(
        max(sum(abs(sum(map(mul, col, adj_col))) for col in zip(*basis))
            for adj_col in zip(*adj)),
        abs(g),
    )


def _minor(m: list[list[int]], i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """m without row i and column j."""
    return tuple(tuple(x for c, x in enumerate(row) if c != j) for r, row in enumerate(m) if r != i)


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def ceil_sqrt_fraction(x: Fraction) -> int:
    """Smallest integer s with s*s >= x, for x >= 0."""
    if x <= 0:
        return 0
    s = isqrt(ceil_fraction(x))
    while Fraction(s * s) < x:
        s += 1
    return s


@dataclass(frozen=True)
class ConeEntry:
    residue: int
    start_index: int
    sign: int


@dataclass(frozen=True)
class DirectionCertificate:
    """Growth evidence for one orbit direction (exponents m > 0 or m < 0)."""

    direction: str  # "forward" or "backward"
    kind: str  # "cone", "polynomial", "lyapunov" or "window_only"
    level: int = 0  # 1 = scalar sequence or coordinates, 2 = Hankel determinants
    power_step: int = 0
    mu: Fraction = Fraction(0)
    nu: Fraction = Fraction(0)
    entries: tuple[ConeEntry, ...] = ()
    floor_seq: int = 0  # certified bound for the underlying sequence
    form: tuple[tuple[Fraction, ...], ...] = ()  # the Lyapunov form P


@dataclass(frozen=True)
class GrowthCertificate:
    """Growth evidence for the orbit outside a window whose radius the orbit
    report carries."""

    annihilator: Poly
    transfer: Fraction
    forward: DirectionCertificate
    backward: DirectionCertificate

    @property
    def rigorous(self) -> bool:
        return self.forward.kind != "window_only" and self.backward.kind != "window_only"

    @property
    def min_exterior_norm(self) -> int | None:
        """The sup-norm floor of the orbit outside the window, when rigorous."""
        if not self.rigorous:
            return None
        return min(norm_floor(dc.floor_seq, dc.level, self.transfer)
                   for dc in (self.forward, self.backward))


def float_roots(p: Poly) -> list[complex]:
    """Approximate complex roots, with multiplicity, of the monic integer p
    with nonzero constant term; none when the coefficients or the iterates
    leave the float range.  Each squarefree part of p has simple roots, which
    the Aberth-Ehrlich iteration finds to full precision; a root of
    multiplicity m is then repeated m times, exactly."""
    roots: list[complex] = []
    for part, mult in squarefree_decomposition(p):
        found = _aberth_roots(part)
        if not found:
            return []
        roots += found * mult
    return roots


def _aberth_roots(p: Poly) -> list[complex]:
    """Aberth-Ehrlich iteration for the roots of the monic p with nonzero
    constant term.  The start points lie on the circles of the Newton
    polygon of log |coefficient| (Bini 1996): an edge from degree i to degree
    j puts j - i points on the circle of radius |p_i / p_j|^(1/(j - i)), so
    roots of very different sizes each start near their own modulus."""
    try:
        a = [float(c) for c in p]
    except OverflowError:
        return []
    n = len(a) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(a):
        if c:
            pt = (i, log(abs(c)))
            # keep the upper hull: drop a last point on or below the new chord
            while len(hull) >= 2 and (
                (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
                <= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(pt)
    z: list[complex] = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        radius = exp((li - lj) / (j - i))
        for m in range(j - i):
            z.append(radius * cmath.exp(2j * pi * (m / (j - i) + i / n) + 0.4j))
    size = [abs(c) for c in a]
    done = [False] * n
    for _ in range(200):
        for k in range(n):
            if done[k]:
                continue
            x = z[k]
            val, der, bound, r = a[n], 0j, size[n], abs(x)
            for c, sc in zip(a[n - 1::-1], size[n - 1::-1]):
                der = der * x + val
                val = val * x + c
                bound = bound * r + sc
            if not (cmath.isfinite(val) and cmath.isfinite(der)):
                return []
            # |p(x)| within the rounding error of evaluating it: x is a root
            # of a polynomial within float precision of p
            if abs(val) <= 4 * n * 2.0**-52 * bound:
                done[k] = True
                continue
            pull = sum(1 / (x - y) for m, y in enumerate(z) if m != k and y != x)
            ratio = val / der if der else val  # off a critical point, any step
            denom = 1 - ratio * pull
            z[k] = x - (ratio / denom if denom else ratio)
        if all(done):
            break
    return z


def _root_hints(roots: list[complex]) -> tuple[float, float] | None:
    """(dominant modulus if it is a single positive real root, second modulus)."""
    mods = sorted((abs(z) for z in roots), reverse=True)
    if not mods or not isfinite(mods[0]):
        return None
    top = mods[0]
    candidates = [z for z in roots if abs(abs(z) - top) < 1e-9 * max(1.0, top)]
    if len(candidates) != 1:
        return None
    z = candidates[0]
    if abs(z.imag) > 1e-9 * max(1.0, top) or z.real <= 0:
        return None
    second = mods[1] if len(mods) > 1 else 0.0
    return top, second


def _powered_hints(roots: list[complex], q: int) -> tuple[float, float] | None:
    """_root_hints of the q-th powers of the roots: the roots of
    root_power_poly(p, q) for the p that has the given roots."""
    try:
        return _root_hints([z**q for z in roots])
    except OverflowError:
        return None


class DirectionSequence:
    """The sequence s of one orbit direction and level on the indices
    [-2, max_index], read from an impulse response t on demand.

    Levels 0 (polynomial) and 1 read t(j) for the forward direction and
    t(-j), which runs the reciprocal recurrence, for the backward one.  Level
    2 reads the Hankel determinants s(j) s(j+2) - s(j+1)^2 of that sequence,
    whose recurrence has the pairwise root products as roots; determinant j
    reads two indices further, so both max_index and the last index a window
    covers are two fewer than at level 1.  Each determinant is computed the
    first time it is read and kept.  Reading an index outside the range
    raises KeyError; `in` tests the range and computes nothing.  cap, the
    last index of t the sequence may read, can be raised."""

    def __init__(self, t: ImpulseResponse, direction: str, level: int, recurrence: Poly, cap: int):
        self.recurrence = recurrence
        self.cap = cap
        self._t = t
        self._sign = 1 if direction == "forward" else -1
        self._shift = 2 if level == 2 else 0
        self._dets: dict[int, int] | None = {} if level == 2 else None

    @property
    def max_index(self) -> int:
        return self.cap - self._shift

    def cover_from(self, window: int) -> int:
        """The last index the window of radius `window` covers."""
        return window - self._shift

    def __contains__(self, j: int) -> bool:
        return -2 <= j <= self.cap - self._shift

    def __getitem__(self, j: int) -> int:
        if not -2 <= j <= self.cap - self._shift:
            raise KeyError(j)
        if self._dets is None:
            return self._t[self._sign * j]
        h = self._dets.get(j)
        if h is None:
            h = self._dets[j] = self._det(j)
        return h

    def _det(self, j: int) -> int:
        t, sign = self._t, self._sign
        return t[sign * j] * t[sign * (j + 2)] - t[sign * (j + 1)] ** 2


def direction_sequence(t: ImpulseResponse, direction: str, level: int, cap: int) -> DirectionSequence | None:
    """The sequence of the evidence of one orbit direction at one level, with
    its recurrence, or None if the direction is unknown or the level does not
    apply (level 2 needs degree 3 or more)."""
    if direction == "forward":
        g_dir = t.g
    elif direction == "backward":
        g_dir = t.reciprocal
    else:
        return None
    if level in (0, 1):
        return DirectionSequence(t, direction, level, g_dir, cap)
    if level == 2 and len(t.g) - 1 >= 3:
        return DirectionSequence(t, direction, level, exterior_square_poly(g_dir), cap)
    return None


def cone_is_invariant(qpoly: Poly, mu: Fraction, nu: Fraction) -> bool:
    """Whether 1 < mu <= nu and the q-step recurrence qpoly maps the ratio cone
    mu <= s(j+1)/s(j) <= nu into itself.

    The recurrence is s(j+D+1) = sum_{i<=D} r_i s(j+i).  Inside the cone,
    s(j+i)/s(j+D) lies in [nu^-(D-i), mu^-(D-i)], so the next ratio
    s(j+D+1)/s(j+D) lies in [lb, ub] with lb = P+(1/nu) + P-(1/mu) and
    ub = P+(1/mu) + P-(1/nu), where P(y) = sum r_i y^(D-i) is split into its
    positive and negative coefficients.  For mu = a/b and nu = c/e,
    a^D P(b/a) = sum r_i a^i b^(D-i) is an integer, so lb >= mu and
    ub <= nu are compared in integers."""
    if not 1 < mu <= nu:
        return False
    coeffs = recurrence_from_poly(qpoly)
    pos = [max(x, 0) for x in coeffs]
    neg = [min(x, 0) for x in coeffs]
    a, b, c, e = mu.numerator, mu.denominator, nu.numerator, nu.denominator
    D = len(coeffs) - 1
    aD, cD = a**D, c**D
    return (b * (aD * _homogeneous(pos, c, e) + cD * _homogeneous(neg, a, b)) >= a * aD * cD
            and e * (cD * _homogeneous(pos, a, b) + aD * _homogeneous(neg, c, e)) <= c * aD * cD)


def _homogeneous(coeffs: list[int], x: int, y: int) -> int:
    """sum coeffs[i] x^i y^(D-i) for D = len(coeffs) - 1."""
    acc, xp = 0, 1
    for c in coeffs:
        acc = acc * y + c * xp
        xp *= x
    return acc


def enters_cone(seq, q: int, dd: int, mu: Fraction, nu: Fraction, entry: ConeEntry) -> bool:
    """Whether the dd values sign * seq(start + q i), i < dd, are positive with
    every ratio of neighbours in [mu, nu].  The values are read in order up
    to the first that fails; a missing index read raises KeyError."""
    a, b, c, e = mu.numerator, mu.denominator, nu.numerator, nu.denominator
    prev = entry.sign * seq[entry.start_index]
    if prev <= 0:
        return False
    for i in range(1, dd):
        cur = entry.sign * seq[entry.start_index + q * i]
        if cur <= 0 or not (a * prev <= b * cur and e * cur <= c * prev):
            return False
        prev = cur
    return True


def norm_floor(floor_seq: int, level: int, transfer: Fraction) -> int:
    """Sup-norm floor of the orbit vectors implied by a floor of the sequence.

    At level 2, |t(j) t(j+2) - t(j+1)^2| >= F forces max |t| >= sqrt(F / 2);
    the transfer constant then bounds coordinates by the ambient norm."""
    if level == 2:
        floor_seq = ceil_sqrt_fraction(Fraction(floor_seq, 2))
    return ceil_fraction(Fraction(floor_seq) / transfer)


def _invariant_cone(rec_poly: Poly, roots: list[complex], q: int) -> tuple[Fraction, Fraction] | None:
    """Ratios (mu, nu) of a cone that the q-step recurrence of rec_poly
    provably preserves, or None; roots are float approximations of the roots
    of rec_poly, the only hint source."""
    hints = _powered_hints(roots, q)
    if hints is None:
        return None
    rho, second = hints
    if rho <= 1.0001 or second >= rho * 0.999:
        return None
    return _pick_cone_ratios(root_power_poly(rec_poly, q), rho, second)


def _pick_cone_ratios(qpoly: Poly, rho: float, second: float) -> tuple[Fraction, Fraction] | None:
    gap = rho - max(second, 1.0)
    if gap <= 0:
        return None
    for shrink in (0.5, 0.25, 0.125):
        lo = max(second, 1.0) + shrink * gap
        hi = rho + shrink * gap * 4
        mu = Fraction(max(1, round(lo * 256)), 256)
        nu = Fraction(round(hi * 256) + 1, 256)
        if cone_is_invariant(qpoly, mu, nu):
            return mu, nu
    return None


def _find_entries(seq, q, dd, mu, nu, cover_from) -> tuple[ConeEntry, ...] | None:
    """The first cone entry at or below cover_from + 1 of every residue mod q,
    or None if some residue has none."""
    entries = []
    for r in range(q):
        e = r
        while e <= cover_from + 1:
            ent = ConeEntry(residue=r, start_index=e, sign=1 if seq[e] > 0 else -1)
            if enters_cone(seq, q, dd, mu, nu, ent):
                entries.append(ent)
                break
            e += q
        else:
            return None
    return tuple(entries)


def _cone_floor(seq, q, mu, entries, cover_from) -> int:
    """Certified integer lower bound for |seq(j)| over indices j > cover_from:
    the least over the entries of ceil(|seq(start)| mu^steps), where steps
    counts the q-steps from the entry to its first index past cover_from (the
    ceiling of the least bound is the least ceiling)."""
    a, b = mu.numerator, mu.denominator
    floors = []
    for ent in entries:
        steps = -((ent.start_index - cover_from - 1) // q)
        assert steps >= 0
        floors.append(-((-abs(seq[ent.start_index]) * a**steps) // b**steps))
    return min(floors)


def _residue_polynomial(vals: list[int]) -> list[Fraction]:
    """Monomial coefficients of the degree < len(vals) polynomial through
    (0, vals[0]), (1, vals[1]), ... via Newton forward differences."""
    diffs = [Fraction(v) for v in vals]
    newton = [diffs[0]]
    while len(diffs) > 1:
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        newton.append(diffs[0])
    coeffs = [Fraction(0)] * len(newton)
    basis = [Fraction(1)]  # binomial C(j, i) expanded in powers of j
    for i, c in enumerate(newton):
        if i > 0:
            new = [Fraction(0)] * (len(basis) + 1)
            for p, a in enumerate(basis):
                new[p + 1] += a
                new[p] -= a * (i - 1)
            basis = [x / i for x in new]
        for p, a in enumerate(basis):
            coeffs[p] += c * a
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval_fraction(coeffs: list[Fraction], j: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * j + c
    return acc


def _poly_tail_floor(coeffs: list[Fraction], j_min: int) -> Fraction:
    """Exact lower bound for |P(j)| over integers j >= j_min >= 0."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return abs(coeffs[0])
    lead = abs(coeffs[-1])
    rest = sum(abs(c) for c in coeffs[:-1])
    # beyond T the crude bound lead*j^deg - rest*j^(deg-1) >= (lead/2) j^deg grows
    t = ceil_fraction(2 * rest / lead) + 1
    t = max(t, j_min, 1)
    best = (lead / 2) * Fraction(t) ** deg
    for j in range(j_min, t):
        val = abs(_poly_eval_fraction(coeffs, j))
        if val < best:
            best = val
    return best


def _try_polynomial_direction(
    seq: dict[int, int], g_dir: Poly, cover_from: int, max_index: int
) -> tuple[int, int] | None:
    """Certify polynomial growth when every root of g_dir is a root of unity.

    Returns (q, floor) where floor bounds |seq(j)| for every j > cover_from.
    """
    orders, rest = strip_cyclotomic_factors(g_dir)
    if rest != (1,):
        return None
    q = lcm(*orders) if orders else 1
    d = len(g_dir) - 1
    if q * (d + 1) + cover_from + 1 > max_index:
        return None
    best: Fraction | None = None
    for r in range(q):
        # values of the residue-class subsequence starting at the first index
        # >= cover_from + 1 in this class
        start = cover_from + 1
        while start % q != r:
            start += 1
        vals = [seq[start + q * i] for i in range(d + 1)]
        coeffs = _residue_polynomial(vals)
        floor_r = _poly_tail_floor(coeffs, 0)
        if best is None or floor_r < best:
            best = floor_r
    assert best is not None
    if best <= 0:
        return None
    return q, ceil_fraction(best)


class GrowthSearch:
    """The producer's search for the forward and backward evidence of one
    non-periodic annihilator g, at any number of window radii.

    Most of the search does not read the window and is done once: the float
    roots of g, one impulse response of g and one sequence per direction and
    level over it, whose terms are computed when a test first reads them and
    kept for every later radius, for each direction, level and power step q
    the invariant cone ratios (mu, nu), or the fact that there are none, and
    the Lyapunov form of g, or the fact that none was found.
    evidence(radius) runs only what reads the window, the cone entries, their
    floor, the polynomial path and the sign and floor of V at the window's
    edge, once per radius.  At every radius it gives what a fresh search
    gives there: the search reads no index more than a fixed tail past the
    last one the window covers, however many terms earlier radii computed."""

    def __init__(self, g: Poly):
        if is_squarefree_product_of_cyclotomics(g):
            raise ValueError("orbit is periodic; growth certificates do not apply")
        d = len(g) - 1
        self.g = g
        # the cone entries of every q reach at most 12 d^2 indices past the
        # covered one; the polynomial path checks its own reach
        self._tail = 2 + 24 * (d * d + d + 2)
        self._t = ImpulseResponse(g)
        self._sequences: dict[tuple[str, int], DirectionSequence | None] = {}
        # hints: the backward recurrence has the inverse roots as roots, the
        # Hankel recurrence the pairwise products
        roots = float_roots(g)
        inverses = [1 / z for z in roots]
        self._hints = {
            ("forward", 1): roots,
            ("backward", 1): inverses,
            ("forward", 2): [y * z for y, z in combinations(roots, 2)],
            ("backward", 2): [y * z for y, z in combinations(inverses, 2)],
        }
        self._cones: dict[tuple[str, int, int], tuple[Fraction, Fraction] | None] = {}
        self._evidence: dict[int, tuple[DirectionCertificate, DirectionCertificate]] = {}

    def evidence(self, window: int) -> tuple[DirectionCertificate, DirectionCertificate]:
        """The forward and backward evidence outside the window of radius `window`."""
        if window not in self._evidence:
            self._evidence[window] = self._derive(window)
        return self._evidence[window]

    def _derive(self, window: int) -> tuple[DirectionCertificate, DirectionCertificate]:
        return self._direction("forward", window), self._direction("backward", window)

    def _sequence(self, direction: str, level: int, window: int) -> DirectionSequence | None:
        """The kept sequence of a direction and level, its cap raised to
        window + tail."""
        key = (direction, level)
        cap = window + self._tail
        if key not in self._sequences:
            self._sequences[key] = direction_sequence(self._t, direction, level, cap)
        seq = self._sequences[key]
        if seq is not None:
            seq.cap = max(seq.cap, cap)
        return seq

    def _direction(self, direction: str, window: int) -> DirectionCertificate:
        """A level 1 cone on the raw sequence, then the polynomial path for
        root-of-unity spectra, then a level 2 cone on the Hankel
        determinants (dominant complex pair), then the Lyapunov form (no
        root on the unit circle, whatever the gaps between the moduli)."""
        seq = self._sequence(direction, 1, window)
        res = self._try_cone(seq, direction, 1, window)
        if res is not None:
            return DirectionCertificate(direction, "cone", 1, *res)
        respoly = _try_polynomial_direction(seq, seq.recurrence, window, window + self._tail)
        if respoly is not None:
            q, floor = respoly
            return DirectionCertificate(direction, "polynomial", 0, q, floor_seq=floor)
        hseq = self._sequence(direction, 2, window)
        if hseq is not None:
            res = self._try_cone(hseq, direction, 2, window)
            if res is not None:
                return DirectionCertificate(direction, "cone", 2, *res)
        if self._lyapunov is not None:
            from .lyapunov import lyapunov_floor

            form, scaled = self._lyapunov
            floor = lyapunov_floor(self.g, scaled, direction, window)
            if floor is not None:
                return DirectionCertificate(direction, "lyapunov", 1, floor_seq=floor, form=form)
        return DirectionCertificate(direction, "window_only")

    @cached_property
    def _lyapunov(self) -> tuple[tuple[tuple[Fraction, ...], ...], Mat] | None:
        """The Lyapunov form of g and its integer multiple, or None: proposed
        and checked the first time a direction needs it, once per search."""
        from .lyapunov import lyapunov_form

        return lyapunov_form(self.g)

    def _try_cone(
        self, seq: DirectionSequence, direction: str, level: int, window: int
    ) -> tuple[int, Fraction, Fraction, tuple[ConeEntry, ...], int] | None:
        """(q, mu, nu, entries, floor) certifying seq(j) growth for j past
        the last index the window covers, or None."""
        dd = len(seq.recurrence) - 1
        cover_from = seq.cover_from(window)
        for q in CONE_POWER_STEPS:
            key = (direction, level, q)
            if key not in self._cones:
                self._cones[key] = _invariant_cone(seq.recurrence, self._hints[direction, level], q)
            if self._cones[key] is None:
                continue
            mu, nu = self._cones[key]
            entries = _find_entries(seq, q, dd, mu, nu, cover_from)
            if entries is None:
                continue
            floor = _cone_floor(seq, q, mu, entries, cover_from)
            if floor >= 1:
                return q, mu, nu, entries, floor
        return None


def growth_evidence(g: Poly, window: int) -> tuple[DirectionCertificate, DirectionCertificate]:
    """The part of a growth certificate that depends only on the annihilator
    g and the window radius, from a fresh search: the forward and backward
    evidence.

    g must not be a squarefree product of cyclotomics (a periodic orbit)."""
    return GrowthSearch(g).evidence(window)


def derive_growth_certificate(m: Mat, v: Vec, window: int) -> GrowthCertificate:
    """Produce a growth certificate for the orbit of v under M.

    The orbit must be non-periodic (minimal annihilator not a squarefree
    product of cyclotomics).
    """
    g = minimal_annihilator(m, v)
    transfer = transfer_constant(cyclic_basis(m, v, len(g) - 1))
    return GrowthCertificate(g, transfer, *growth_evidence(g, window))


def check_growth_certificate(
    m: Mat,
    v: Vec,
    cert: GrowthCertificate,
    window: int,
    evidence_checks: dict | None = None,
    g: Poly | None = None,
) -> list[str]:
    """Re-verify a growth certificate for the orbit outside the window of
    radius `window` from scratch; returns a list of failures.

    g, when given, is minimal_annihilator(m, v), already recomputed by the
    caller; otherwise it is recomputed here.

    The direction evidence is checked by check_growth_evidence, whose outcome
    `evidence_checks` holds per (annihilator, window, directions): the orbits
    of one certificate pass one dict, so members that share all of these are
    checked once.  The annihilator and the transfer constant are checked for
    every orbit.  A certificate without failures certifies the floors it
    derives (min_exterior_norm): no stored sequence floor exceeds the
    recomputed one, and norm_floor grows with it."""
    problems: list[str] = []
    for dc in (cert.forward, cert.backward):
        # a cone covers every residue mod q with an entry at an index in
        # [-2, window + 1]; a larger q is rejected before it sizes any work
        if dc.kind == "cone" and not 1 <= dc.power_step <= window + 4:
            problems.append(f"{dc.direction}: power step {dc.power_step} is outside [1, {window + 4}]")
    if problems:
        return problems
    if g is None:
        try:
            g = minimal_annihilator(m, v)
        except (ValueError, AssertionError) as exc:
            return [f"annihilator recomputation failed: {exc}"]
    if g != cert.annihilator:
        return ["stored annihilator does not match the recomputed one"]
    if is_squarefree_product_of_cyclotomics(g):
        return ["orbit is periodic; growth certificate is vacuous"]
    if transfer_constant(cyclic_basis(m, v, len(g) - 1)) != cert.transfer:
        problems.append("transfer constant mismatch")
    key = (g, window, cert.forward, cert.backward)
    if evidence_checks is None:
        evidence_checks = {}
    if key not in evidence_checks:
        evidence_checks[key] = check_growth_evidence(g, (cert.forward, cert.backward), window)
    return problems + evidence_checks[key]


def check_growth_evidence(
    g: Poly, evidence: tuple[DirectionCertificate, DirectionCertificate], window: int
) -> list[str]:
    """The failures of the forward and backward evidence of the non-periodic
    annihilator g outside the window of radius `window`.

    The sequences may read the impulse response up to index +-span, which
    the certificate's power steps, the window and the degree of g bound; the
    tests compute only the terms they read.  A Lyapunov direction reads no
    sequence: it walks x_m to the window's edge, and its form is checked to
    be d x d before any arithmetic."""
    d = len(g) - 1
    q_max = max((dc.power_step for dc in evidence if dc.kind == "cone"), default=0)
    span = window + 2 + (q_max + 26) * (d * d + d + 2)
    t = ImpulseResponse(g)
    return [p for dc in evidence for p in _check_direction(t, dc, window, span)]


def _check_direction(t: ImpulseResponse, dc: DirectionCertificate, window: int, span: int) -> list[str]:
    """Failures of one direction's evidence, whose sequence floor must not
    exceed the recomputed one."""
    if dc.kind == "window_only":
        if dc != DirectionCertificate(dc.direction, "window_only"):
            return [f"{dc.direction}: window-only evidence carries data"]
        return []
    if dc.kind == "lyapunov":
        from .lyapunov import check_lyapunov_direction

        return check_lyapunov_direction(t.g, dc, window)
    if dc.kind not in ("cone", "polynomial"):
        return [f"unknown growth kind {dc.kind!r}"]
    if (dc.kind == "polynomial") != (dc.level == 0):
        return [f"{dc.direction}: level {dc.level} does not fit {dc.kind} evidence"]
    seq = direction_sequence(t, dc.direction, dc.level, span)
    if seq is None:
        return [f"{dc.direction}: no level {dc.level} evidence for this annihilator"]
    rec, cover_from = seq.recurrence, seq.cover_from(window)
    if dc.kind == "polynomial":
        res = _try_polynomial_direction(seq, rec, cover_from, seq.max_index)
        if res is None:
            return [f"{dc.direction}: polynomial evidence cannot be reproduced"]
        q, floor = res
        bare = DirectionCertificate(dc.direction, "polynomial", 0, q, floor_seq=dc.floor_seq)
        if dc != bare:
            return [f"{dc.direction}: polynomial evidence has a wrong step or carries cone data"]
        if floor < dc.floor_seq:
            return [f"{dc.direction}: stored polynomial floor too large"]
        return []
    problems = []
    q = dc.power_step
    if not cone_is_invariant(root_power_poly(rec, q), dc.mu, dc.nu):
        problems.append(f"{dc.direction}: cone ratios out of range or not invariant")
    dd = len(rec) - 1
    for ent in dc.entries:
        if ent.sign not in (1, -1):
            problems.append(f"{dc.direction}: entry sign {ent.sign} for residue {ent.residue} is not +-1")
        elif ent.start_index % q != ent.residue or ent.start_index > cover_from + 1:
            problems.append(f"{dc.direction}: entry for residue {ent.residue} out of place")
        elif not all(ent.start_index + q * i in seq for i in range(dd)):
            problems.append(f"{dc.direction}: entry indices outside recomputed range")
        elif not enters_cone(seq, q, dd, dc.mu, dc.nu, ent):
            problems.append(f"{dc.direction}: entry for residue {ent.residue} does not enter the cone")
    if {ent.residue for ent in dc.entries} != set(range(q)):
        problems.append(f"{dc.direction}: cone entries do not cover all residues mod {q}")
    if not problems and _cone_floor(seq, q, dc.mu, dc.entries, cover_from) < dc.floor_seq:
        problems.append(f"{dc.direction}: stored sequence floor too large")
    return problems
