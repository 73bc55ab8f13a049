"""Certified lower bounds for the norm growth of injective covector orbits.

For a covector v and an integer matrix M, the iterates M^m v live in the
cyclic lattice spanned by v, Mv, ..., M^(d-1)v, and their coordinates there
form a single integer sequence t (the impulse response of the minimal
annihilator of v).  A growth certificate is a statement

    every orbit element with |exponent| > window has sup norm > floor

backed by one of two exact mechanisms, checkable by pure integer/rational
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

The producer (derive_growth_certificate) and the checker
(check_growth_certificate) share one routine for each step of the evidence:
direction_sequence gives the sequence, recurrence and covered index of a
direction and level; cone_is_invariant and enters_cone test a cone and its
entries; the cone and polynomial floors come from _cone_floor and
_try_polynomial_direction; and norm_floor turns a sequence floor into a norm
floor.  Floating point appears only as a hint source for picking q, mu, nu in
the producer, which searches; the checker only re-runs the exact tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .intmat import Mat, Vec, mat_vec, rational_inverse, transpose
from .lattices import left_kernel
from .polynomials import (
    Poly,
    exterior_square_poly,
    is_squarefree_product_of_cyclotomics,
    neg,
    normalize,
    root_power_poly,
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


def impulse_values(g: Poly, lo: int, hi: int) -> dict[int, int]:
    """Impulse response of the monic recurrence g on the index range [lo, hi].

    t[j] = (j == 0) for 0 <= j < deg g; the recurrence extends both ways
    because the constant term of g is a unit.
    """
    d = len(g) - 1
    if d < 1 or g[-1] != 1 or g[0] not in (1, -1):
        raise ValueError("need a monic annihilator with unit constant term")
    vals = {j: 1 if j == 0 else 0 for j in range(d)}
    j = d
    while j <= hi:
        vals[j] = -sum(g[i] * vals[j - d + i] for i in range(d))
        j += 1
    j = -1
    while j >= lo:
        # g0 t[j] = -(t[j+d] + sum_{i=1..d-1} g_i t[j+i]);  g0 is +-1
        s = vals[j + d] + sum(g[i] * vals[j + i] for i in range(1, d))
        vals[j] = -s * g[0]
        j -= 1
    return {k: t for k, t in vals.items() if lo <= k <= hi}


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

    Pseudo-inverse bound: coords = (coords @ basis) @ basis^T (basis basis^T)^-1.
    """
    d = len(basis)
    bt = transpose(basis)
    gram = [[Fraction(sum(x * y for x, y in zip(r1, r2))) for r2 in basis] for r1 in basis]
    ginv = rational_inverse(gram)
    # pseudo-inverse P = basis^T @ ginv, shape n x d
    p = [[sum(Fraction(bt[i][a]) * ginv[a][j] for a in range(d)) for j in range(d)]
         for i in range(len(bt))]
    return max(sum(abs(p[i][j]) for i in range(len(p))) for j in range(d))


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
    kind: str  # "cone", "polynomial" or "window_only"
    level: int = 0  # 1 = scalar sequence, 2 = Hankel determinants
    power_step: int = 0
    mu: Fraction = Fraction(0)
    nu: Fraction = Fraction(0)
    entries: tuple[ConeEntry, ...] = ()
    floor_seq: int = 0  # certified bound for the underlying sequence
    floor_norm: int = 0  # implied bound on the ambient covector sup norm


@dataclass(frozen=True)
class GrowthCertificate:
    """Growth evidence for the orbit outside a window whose radius the orbit
    report carries."""

    annihilator: Poly
    transfer: Fraction
    forward: DirectionCertificate
    backward: DirectionCertificate
    rigorous: bool
    min_exterior_norm: int | None


def _cone_bounds(b: tuple[int, ...], mu: Fraction, nu: Fraction) -> tuple[Fraction, Fraction]:
    """Worst-case next/current ratios of the cone given recurrence coefficients."""
    dd = len(b)
    lb = Fraction(0)
    ub = Fraction(0)
    for i, c in enumerate(b):
        drop = dd - 1 - i
        if c > 0:
            lb += c / nu**drop
            ub += c / mu**drop
        elif c < 0:
            lb += c / mu**drop
            ub += c / nu**drop
    return lb, ub


def _root_hints(p: Poly) -> tuple[float, float] | None:
    """(dominant modulus if it is a single positive real root, second modulus)."""
    import numpy as np

    try:
        coeffs = [float(c) for c in reversed(p)]
    except OverflowError:
        return None
    roots = np.roots(coeffs)
    mods = sorted((abs(z) for z in roots), reverse=True)
    top = mods[0]
    candidates = [z for z in roots if abs(abs(z) - top) < 1e-9 * max(1.0, top)]
    if len(candidates) != 1:
        return None
    z = candidates[0]
    if abs(z.imag) > 1e-9 * max(1.0, top) or z.real <= 0:
        return None
    second = mods[1] if len(mods) > 1 else 0.0
    return top, second


def direction_sequence(
    vals: dict[int, int], g: Poly, direction: str, level: int, window: int
) -> tuple[dict[int, int], Poly, int] | None:
    """(sequence, recurrence polynomial, last index the window covers) for the
    evidence of one orbit direction at one level, or None if the direction is
    unknown or the level does not apply.

    Levels 0 (polynomial) and 1 run on the impulse response t, read backwards
    with the reciprocal recurrence for the backward direction.  Level 2 runs
    on the Hankel determinants t(j) t(j+2) - t(j+1)^2, whose recurrence has
    the pairwise root products as roots; determinant j involves t(j+2), so
    the window covers two indices fewer."""
    if direction == "forward":
        g_dir = g
        seq = {j: vals[j] for j in vals if j >= -2}
    elif direction == "backward":
        g_dir = reciprocal_monic(g)
        seq = {-j: vals[j] for j in vals if j <= 2}
    else:
        return None
    if level in (0, 1):
        return seq, g_dir, window
    if level == 2 and len(g) - 1 >= 3:
        hseq = {j: seq[j] * seq[j + 2] - seq[j + 1] ** 2 for j in seq if j + 2 in seq}
        return hseq, exterior_square_poly(g_dir), window - 2
    return None


def cone_is_invariant(qpoly: Poly, mu: Fraction, nu: Fraction) -> bool:
    """Whether 1 < mu <= nu and the q-step recurrence qpoly maps the ratio cone
    mu <= s(j+1)/s(j) <= nu into itself."""
    if not 1 < mu <= nu:
        return False
    lb, ub = _cone_bounds(recurrence_from_poly(qpoly), mu, nu)
    return lb >= mu and ub <= nu


def enters_cone(seq: dict[int, int], q: int, dd: int, mu: Fraction, nu: Fraction,
                entry: ConeEntry) -> bool:
    """Whether the dd values sign * seq(start + q i), i < dd, are positive with
    every ratio of neighbours in [mu, nu].  A missing index raises KeyError."""
    sv = [entry.sign * seq[entry.start_index + q * i] for i in range(dd)]
    return all(x > 0 for x in sv) and all(
        mu * sv[i] <= sv[i + 1] <= nu * sv[i] for i in range(dd - 1)
    )


def norm_floor(floor_seq: int, level: int, transfer: Fraction) -> int:
    """Sup-norm floor of the orbit vectors implied by a floor of the sequence.

    At level 2, |t(j) t(j+2) - t(j+1)^2| >= F forces max |t| >= sqrt(F / 2);
    the transfer constant then bounds coordinates by the ambient norm."""
    if level == 2:
        floor_seq = ceil_sqrt_fraction(Fraction(floor_seq, 2))
    return ceil_fraction(Fraction(floor_seq) / transfer)


def _try_cone_direction(
    seq: dict[int, int],
    rec_poly: Poly,
    cover_from: int,
    max_index: int,
) -> tuple[int, Fraction, Fraction, tuple[ConeEntry, ...], int] | None:
    """Search for (q, mu, nu, entries, floor) certifying seq(j) growth for j > cover_from."""
    dd = len(rec_poly) - 1
    for q in CONE_POWER_STEPS:
        if cover_from + 1 + q * dd > max_index:
            continue
        qpoly = root_power_poly(rec_poly, q)
        hints = _root_hints(qpoly)
        if hints is None:
            continue
        rho, second = hints
        if rho <= 1.0001 or second >= rho * 0.999:
            continue
        pair = _pick_cone_ratios(qpoly, rho, second)
        if pair is None:
            continue
        mu, nu = pair
        entries = _find_entries(seq, q, dd, mu, nu, cover_from)
        if entries is None:
            continue
        floor = _cone_floor(seq, q, mu, entries, cover_from)
        if floor >= 1:
            return q, mu, nu, entries, floor
    return None


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
    """Certified integer lower bound for |seq(j)| over indices j > cover_from."""
    best: Fraction | None = None
    for ent in entries:
        base = abs(seq[ent.start_index])
        m = cover_from + 1
        while (m - ent.start_index) % q:
            m += 1
        steps = (m - ent.start_index) // q
        assert steps >= 0
        bound = Fraction(base) * mu**steps
        if best is None or bound < best:
            best = bound
    assert best is not None
    return ceil_fraction(best)


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


def derive_direction(
    vals: dict[int, int],
    g: Poly,
    direction: str,
    window: int,
    transfer: Fraction,
) -> DirectionCertificate:
    # level 1 cone on the raw sequence, then the polynomial path for
    # root-of-unity spectra, then a level 2 cone on Hankel determinants
    # (dominant complex pair)
    seq, g_dir, cover_from = direction_sequence(vals, g, direction, 1, window)
    res = _try_cone_direction(seq, g_dir, cover_from, max(seq))
    if res is not None:
        q, mu, nu, entries, floor = res
        return DirectionCertificate(direction, "cone", 1, q, mu, nu, entries, floor,
                                    norm_floor(floor, 1, transfer))
    respoly = _try_polynomial_direction(seq, g_dir, cover_from, max(seq))
    if respoly is not None:
        q, floor = respoly
        return DirectionCertificate(direction, "polynomial", 0, q, floor_seq=floor,
                                    floor_norm=norm_floor(floor, 0, transfer))
    hankel = direction_sequence(vals, g, direction, 2, window)
    if hankel is not None:
        hseq, hpoly, cover_from = hankel
        res = _try_cone_direction(hseq, hpoly, cover_from, max(hseq, default=0))
        if res is not None:
            q, mu, nu, entries, floor = res
            return DirectionCertificate(direction, "cone", 2, q, mu, nu, entries, floor,
                                        norm_floor(floor, 2, transfer))
    return DirectionCertificate(direction, "window_only")


def derive_growth_certificate(m: Mat, v: Vec, window: int) -> GrowthCertificate:
    """Produce a growth certificate for the orbit of v under M.

    The orbit must be non-periodic (minimal annihilator not a squarefree
    product of cyclotomics).
    """
    g = minimal_annihilator(m, v)
    if is_squarefree_product_of_cyclotomics(g):
        raise ValueError("orbit is periodic; growth certificates do not apply")
    d = len(g) - 1
    span = window + 2 + 24 * (d * d + d + 2)
    vals = impulse_values(g, -span, span)
    basis = cyclic_basis(m, v, d)
    k = transfer_constant(basis)
    fwd = derive_direction(vals, g, "forward", window, k)
    bwd = derive_direction(vals, g, "backward", window, k)
    rigorous = fwd.kind != "window_only" and bwd.kind != "window_only"
    floor = min(fwd.floor_norm, bwd.floor_norm) if rigorous else None
    return GrowthCertificate(g, k, fwd, bwd, rigorous, floor)


def check_growth_certificate(m: Mat, v: Vec, cert: GrowthCertificate, window: int) -> list[str]:
    """Re-verify a growth certificate for the orbit outside the window of
    radius `window` from scratch; returns a list of failures."""
    problems: list[str] = []
    for dc in (cert.forward, cert.backward):
        # a cone covers every residue mod q with an entry at an index in
        # [-2, window + 1]; a larger q is rejected before it sizes any work
        if dc.kind == "cone" and not 1 <= dc.power_step <= window + 4:
            problems.append(f"{dc.direction}: power step {dc.power_step} is outside [1, {window + 4}]")
    if problems:
        return problems
    try:
        g = minimal_annihilator(m, v)
    except (ValueError, AssertionError) as exc:
        return [f"annihilator recomputation failed: {exc}"]
    if g != cert.annihilator:
        return ["stored annihilator does not match the recomputed one"]
    if is_squarefree_product_of_cyclotomics(g):
        return ["orbit is periodic; growth certificate is vacuous"]
    d = len(g) - 1
    basis = cyclic_basis(m, v, d)
    k = transfer_constant(basis)
    if k != cert.transfer:
        problems.append("transfer constant mismatch")
    q_max = max((dc.power_step for dc in (cert.forward, cert.backward) if dc.kind == "cone"), default=0)
    span = window + 2 + (q_max + 26) * (d * d + d + 2)
    vals = impulse_values(g, -span, span)
    floors = []
    for dc in (cert.forward, cert.backward):
        errs, floor_norm = _check_direction(vals, g, dc, window, k)
        problems.extend(errs)
        floors.append(floor_norm)
    if cert.rigorous:
        if cert.forward.kind == "window_only" or cert.backward.kind == "window_only":
            problems.append("certificate marked rigorous with window-only evidence")
        elif cert.min_exterior_norm is None:
            problems.append("rigorous certificate missing its exterior norm bound")
    # a window-only direction certifies floor 0, so no positive bound passes
    if cert.min_exterior_norm is not None and min(floors) < cert.min_exterior_norm:
        problems.append("claimed exterior norm bound exceeds the certified floor")
    return problems


def _check_direction(vals, g, dc: DirectionCertificate, window, transfer):
    if dc.kind == "window_only":
        if dc != DirectionCertificate(dc.direction, "window_only"):
            return [f"{dc.direction}: window-only evidence carries data"], 0
        return [], 0
    if dc.kind not in ("cone", "polynomial"):
        return [f"unknown growth kind {dc.kind!r}"], 0
    if (dc.kind == "polynomial") != (dc.level == 0):
        return [f"{dc.direction}: level {dc.level} does not fit {dc.kind} evidence"], 0
    setup = direction_sequence(vals, g, dc.direction, dc.level, window)
    if setup is None:
        return [f"{dc.direction}: no level {dc.level} evidence for this annihilator"], 0
    seq, rec, cover_from = setup
    if dc.kind == "polynomial":
        res = _try_polynomial_direction(seq, rec, cover_from, max(seq))
        if res is None:
            return [f"{dc.direction}: polynomial evidence cannot be reproduced"], 0
        q, floor = res
        bare = DirectionCertificate(dc.direction, "polynomial", 0, q, floor_seq=dc.floor_seq,
                                    floor_norm=dc.floor_norm)
        if dc != bare:
            return [f"{dc.direction}: polynomial evidence has a wrong step or carries cone data"], 0
        if floor < dc.floor_seq:
            return [f"{dc.direction}: stored polynomial floor too large"], 0
    else:
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
        if problems:
            return problems, 0
        floor = _cone_floor(seq, q, dc.mu, dc.entries, cover_from)
        if floor < dc.floor_seq:
            return [f"{dc.direction}: stored sequence floor too large"], 0
    fnorm = norm_floor(floor, dc.level, transfer)
    if fnorm < dc.floor_norm:
        return [f"{dc.direction}: stored norm floor too large"], 0
    return [], fnorm
