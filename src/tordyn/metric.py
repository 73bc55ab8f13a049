"""Certified Hausdorff distance estimates between subtori of the flat torus.

The torus carries the quotient metric of the Euclidean norm on R^n.  The
distance from a rational point to a subtorus is an exact closest-vector
computation in annihilator coordinates, so grid sampling plus the 1-Lipschitz
property of distance functions gives two-sided bounds: the true Hausdorff
distance always lies in [value - error_bound, value + error_bound].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from .growth import ceil_fraction, ceil_sqrt_fraction
from .intmat import Mat, rational_inverse
from .lattices import hnf_basis, saturate_rows
from .subtori import Subtorus, annihilator, contains, subtorus_from_annihilator


@dataclass(frozen=True)
class MetricEstimate:
    """An interval certificate [value - error_bound, value + error_bound]."""

    value: Fraction
    error_bound: Fraction
    resolution: Fraction

    @property
    def upper(self) -> Fraction:
        return self.value + self.error_bound

    @property
    def lower(self) -> Fraction:
        return self.value - self.error_bound


class _SubtorusGeometry:
    """Exact data of one subtorus for distances: its annihilator basis (for
    point-to-subtorus distances) and the Lipschitz bound of its
    parametrization (for sampling it)."""

    def __init__(self, h: Subtorus, ann: Mat):
        """ann must be the canonical annihilator basis of h."""
        self.h = h
        self.ann = ann
        self.r = len(ann)
        self.lip = sum(_row_norm_upper(row) for row in h.basis)
        if self.r:
            gram = [
                [Fraction(sum(x * y for x, y in zip(r1, r2))) for r2 in ann]
                for r1 in ann
            ]
            self.ginv = rational_inverse(gram)
            self.trace_g = sum(gram[i][i] for i in range(self.r))

    def dist2(self, point: tuple[Fraction, ...]) -> Fraction:
        """Exact squared distance from the point (mod Z^n) to the subtorus."""
        if self.r == 0:
            return Fraction(0)
        y0 = [sum(Fraction(a) * p for a, p in zip(row, point)) for row in self.ann]
        # start from the componentwise nearest integer shift
        z0 = [-_round_half_down(y) for y in y0]
        best = self._form([y + z for y, z in zip(y0, z0)])
        radius2 = best * self.trace_g
        rad = ceil_sqrt_fraction(radius2)
        ranges = []
        for y in y0:
            lo = ceil_fraction(-y - rad)
            hi = -ceil_fraction(-(-y + rad))  # floor(-y + rad)
            ranges.append(range(lo, hi + 1))
        for z in product(*ranges):
            val = self._form([y + zz for y, zz in zip(y0, z)])
            if val < best:
                best = val
        return best

    def _form(self, u: list[Fraction]) -> Fraction:
        return sum(
            u[i] * self.ginv[i][j] * u[j] for i in range(self.r) for j in range(self.r)
        )


def _round_half_down(x: Fraction) -> int:
    return ceil_fraction(x - Fraction(1, 2))


def _sqrt_interval(x: Fraction, scale: int = 1 << 24) -> tuple[Fraction, Fraction]:
    """Rational enclosure [lo, hi] of sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    num = x.numerator * scale * scale
    s = isqrt(num // x.denominator)
    lo = Fraction(s, scale)
    while lo * lo > x:
        s -= 1
        lo = Fraction(s, scale)
    hi = Fraction(s + 1, scale)
    return lo, hi


def _row_norm_upper(row) -> int:
    return ceil_sqrt_fraction(Fraction(sum(x * x for x in row)))


def _reduce_mod_one(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _grid_points(basis: Mat, n: int, steps: int):
    """Points t . basis with t on the uniform grid of the parameter cube,
    coordinates reduced mod 1."""
    k = len(basis)
    if k == 0:
        yield tuple(Fraction(0) for _ in range(n))
        return
    for combo in product(range(steps), repeat=k):
        point = [Fraction(0)] * n
        for ti, row in zip(combo, basis):
            t = Fraction(ti, steps)
            for j, b in enumerate(row):
                point[j] += t * b
        yield tuple(_reduce_mod_one(x) for x in point)


def _geometry(h: Subtorus) -> _SubtorusGeometry:
    return _SubtorusGeometry(h, annihilator(h).basis)


def _directional_sup(
    src_geom: _SubtorusGeometry, geom: _SubtorusGeometry, resolution: Fraction
) -> tuple[Fraction, Fraction]:
    """Interval [lo, hi] for sup over the source of the distance to the target."""
    src = src_geom.h
    if contains(geom.h, src):
        return Fraction(0), Fraction(0)
    lip = src_geom.lip
    if lip == 0:
        steps = 1
        mesh = Fraction(0)
    else:
        steps = max(1, ceil_fraction(Fraction(lip) / (2 * resolution)))
        mesh = Fraction(lip, 2 * steps)
    if geom.r == 1:
        best2 = _grid_max_dist2_hyperplane(src.basis, geom, steps)
    else:
        best2 = Fraction(0)
        for point in _grid_points(src.basis, src.ambient_dim, steps):
            d2 = geom.dist2(point)
            if d2 > best2:
                best2 = d2
    lo, hi = _sqrt_interval(best2)
    return lo, hi + mesh


def _grid_max_dist2_hyperplane(basis: Mat, geom: _SubtorusGeometry, steps: int) -> Fraction:
    """Exact grid maximum of dist^2 to a codimension-1 target, no loop needed.

    At grid points t = j/steps the character value gamma . p runs over the
    subgroup of (1/steps)Z/Z generated by the integers gamma . b_i, so the
    farthest fractional part is the subgroup element nearest to 1/2.
    """
    from math import gcd

    gamma = geom.ann[0]
    g = steps
    for row in basis:
        c = sum(a * b for a, b in zip(gamma, row))
        g = gcd(g, c % steps)
    if g == 0:
        return Fraction(0)
    m1 = (steps // (2 * g)) * g
    candidates = [m1]
    if m1 + g < steps:
        candidates.append(m1 + g)
    maxmin = max(min(m, steps - m) for m in candidates)
    gram = sum(x * x for x in gamma)
    return Fraction(maxmin, steps) ** 2 / gram


def hausdorff_distance(h1: Subtorus, h2: Subtorus, resolution) -> MetricEstimate:
    """Certified approximation of the Hausdorff distance between two subtori.

    resolution controls the sampling mesh; the certified error bound is at
    most resolution plus the negligible width of the square-root enclosure.
    """
    res = Fraction(resolution)
    if res <= 0:
        raise ValueError("resolution must be positive")
    if h1.ambient_dim != h2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _hausdorff(_geometry(h1), _geometry(h2), res)


def _hausdorff(
    g1: _SubtorusGeometry, g2: _SubtorusGeometry, res: Fraction
) -> MetricEstimate:
    lo1, hi1 = _directional_sup(g1, g2, res)
    lo2, hi2 = _directional_sup(g2, g1, res)
    lo = max(lo1, lo2)
    hi = max(hi1, hi2)
    return MetricEstimate(value=(lo + hi) / 2, error_bound=(hi - lo) / 2, resolution=res)


def enumerate_hnf_lattices(n: int, rank: int, bound: int) -> list[Mat]:
    """All canonical HNF bases of the given rank with entries of sup norm
    <= bound.  Small n and bound only."""
    if rank == 0:
        return [()]
    from itertools import combinations

    out: list[Mat] = []
    for pivots in combinations(range(n), rank):
        rows_choices: list[list[tuple[int, ...]]] = []
        for pc in pivots:
            choices: list[tuple[int, ...]] = []

            def build(row, col):
                if col == n:
                    choices.append(tuple(row))
                elif col < pc:
                    build(row + [0], col + 1)
                elif col == pc:
                    for p in range(1, bound + 1):
                        build(row + [p], col + 1)
                else:
                    # only bounded here; canonicity is filtered afterwards
                    for v in range(-bound, bound + 1):
                        build(row + [v], col + 1)

            build([], 0)
            rows_choices.append(choices)
        for rows in product(*rows_choices):
            cand = tuple(rows)
            if hnf_basis(cand, n) == cand:
                out.append(cand)
    return out


@dataclass(frozen=True)
class IsolationReport:
    """Enumeration-capped isolation evidence for one subtorus."""

    subtorus: Subtorus
    dual_norm_bound: int
    resolution: Fraction
    candidates: int
    bound: Fraction
    nearest: Subtorus | None


def isolation_radius_lower_bound(
    h: Subtorus, dual_norm_bound: int, resolution=Fraction(1, 100)
) -> IsolationReport:
    """Positive lower bound on the distance from h to every other subtorus of
    dimension >= dim(h) whose annihilator basis has sup norm <= the cap.

    The bound is relative to the enumeration cap: subtori with larger
    annihilators are not inspected.
    """
    if h.dim == 0 or h.is_full():
        raise ValueError("isolation applies to proper nontrivial subtori")
    if dual_norm_bound < 1:
        raise ValueError("dual norm bound must be >= 1")
    res = Fraction(resolution)
    n = h.ambient_dim
    r_max = n - h.dim
    h_geom = _geometry(h)
    best: Fraction | None = None
    nearest = None
    count = 0
    for rank in range(0, r_max + 1):
        for ann_rows in enumerate_hnf_lattices(n, rank, dual_norm_bound):
            if saturate_rows(ann_rows, n) != ann_rows:
                continue
            cand = subtorus_from_annihilator(n, ann_rows)
            if cand == h:
                continue
            count += 1
            # ann_rows is saturated and in canonical HNF, so it is the
            # annihilator basis of cand
            est = _hausdorff(h_geom, _SubtorusGeometry(cand, ann_rows), res)
            lower = est.lower
            if best is None or lower < best:
                best = lower
                nearest = cand
    assert best is not None
    return IsolationReport(h, dual_norm_bound, res, count, best, nearest)
