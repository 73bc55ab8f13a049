"""Certified Hausdorff distance estimates between subtori of the flat torus.

The torus carries the quotient metric of the Euclidean norm on R^n.  The
distance from x to a hyperplane H_gamma is ||gamma . x||_{R/Z} / ||gamma||_2,
and a character gamma that does not vanish on a subtorus takes every value
mod 1 on it (the subtorus is connected), so the sup there is exactly
1/(2 ||gamma||_2).  For targets of codimension >= 2 the distance from a
rational point is an exact closest-vector computation in annihilator
coordinates, so grid sampling plus the 1-Lipschitz property of distance
functions gives two-sided bounds.  Either way the true Hausdorff distance lies
in [value - error_bound, value + error_bound].

hausdorff_distance and the isolation scan share one path.  A hyperplane's
isolation radius is its distance to T^n, so it needs no scan.  A candidate of
the scan costs one kernel, plus a second one only when its annihilator has
rank >= 2 (the saturation test; a single row is saturated when its gcd is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from .growth import ceil_fraction, ceil_sqrt_fraction
from .intmat import Mat, det, mat_mul, rational_inverse, transpose
from .lattices import annihilator_rows, hnf_basis
from .subtori import Subtorus, annihilator, subtorus_from_annihilator


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
    """Exact data of one subtorus for distances: its basis, its annihilator
    basis (for point-to-subtorus distances), the Lipschitz bound of its
    parametrization and the grid it is sampled on at one resolution."""

    def __init__(self, n: int, basis: Mat, ann: Mat, res: Fraction):
        """basis and ann must be the canonical bases of a saturated lattice
        and of its annihilator."""
        self.n = n
        self.basis = basis
        self.ann = ann
        self.r = len(ann)
        self.lip = sum(_isqrt_ceil(sum(x * x for x in row)) for row in basis)
        # ceil(lip / (2 res)) grid steps make the mesh lip / (2 steps) <= res
        num = self.lip * res.denominator
        self.steps = max(1, -(-num // (2 * res.numerator)))
        if self.r > 1:
            # only the generic point-to-subtorus distance reads the Gram inverse
            gram = [
                [Fraction(sum(x * y for x, y in zip(r1, r2))) for r2 in ann]
                for r1 in ann
            ]
            self.ginv = rational_inverse(gram)
            self.trace_g = sum(gram[i][i] for i in range(self.r))

    def dist2(self, point: tuple[Fraction, ...]) -> Fraction:
        """Exact squared distance from the point (mod Z^n) to the subtorus,
        for r >= 2."""
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


def _isqrt_ceil(m: int) -> int:
    """Smallest integer s with s*s >= m, for m >= 0."""
    s = isqrt(m)
    return s if s * s == m else s + 1


# square roots are enclosed in [s, s + 1] / _SQRT_SCALE
_SQRT_SCALE = 1 << 24


def _sqrt_floor_scaled(dist2: tuple[int, int]) -> int:
    """floor(_SQRT_SCALE * sqrt(num / den)) for dist2 = (num, den), num >= 0."""
    num, den = dist2
    return isqrt(num * _SQRT_SCALE * _SQRT_SCALE // den)


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


def _geometry(h: Subtorus, res: Fraction) -> _SubtorusGeometry:
    return _SubtorusGeometry(h.ambient_dim, h.basis, annihilator(h).basis, res)


def _max_dist2(src: _SubtorusGeometry, tgt: _SubtorusGeometry) -> tuple[int, int] | None:
    """dist^2 to the target maximized over the source, as an exact (numerator,
    denominator) pair: the true maximum for a codimension-1 target, the
    maximum over the source's grid otherwise; None when the source lies in the
    target.

    The target's lattice is saturated, so it contains the source exactly when
    every annihilator row of the target is orthogonal to every source row."""
    if all(sum(a * b for a, b in zip(g, row)) == 0 for g in tgt.ann for row in src.basis):
        return None
    if tgt.r == 1:
        # gamma takes every value mod 1 on the connected source (module docstring)
        return 1, 4 * sum(x * x for x in tgt.ann[0])
    best2 = Fraction(0)
    for point in _grid_points(src.basis, src.n, src.steps):
        d2 = tgt.dist2(point)
        if d2 > best2:
            best2 = d2
    return best2.numerator, best2.denominator


def _directional_sup(
    src: _SubtorusGeometry, tgt: _SubtorusGeometry
) -> tuple[Fraction, Fraction]:
    """Interval [lo, hi] for sup over the source of the distance to the target."""
    dist2 = _max_dist2(src, tgt)
    if dist2 is None:
        return Fraction(0), Fraction(0)
    s = _sqrt_floor_scaled(dist2)
    hi = Fraction(s + 1, _SQRT_SCALE) if dist2[0] else Fraction(0)
    if tgt.r > 1:
        # what the grid misses: the mesh times the Lipschitz bound
        hi += Fraction(src.lip, 2 * src.steps)
    return Fraction(s, _SQRT_SCALE), hi


def _lower_scaled(g1: _SubtorusGeometry, g2: _SubtorusGeometry) -> int:
    """The lower end of the Hausdorff estimate, times _SQRT_SCALE: the larger
    of the two directional lower ends."""
    return max(
        0 if d is None else _sqrt_floor_scaled(d)
        for d in (_max_dist2(g1, g2), _max_dist2(g2, g1))
    )


def hausdorff_distance(h1: Subtorus, h2: Subtorus, resolution) -> MetricEstimate:
    """Certified approximation of the Hausdorff distance between two subtori.

    resolution controls the sampling mesh toward targets of codimension >= 2;
    the certified error bound is at most resolution plus the negligible width
    of the square-root enclosure, and only that width when neither subtorus
    has codimension >= 2 (two hyperplanes, or a hyperplane and T^n).
    """
    res = Fraction(resolution)
    if res <= 0:
        raise ValueError("resolution must be positive")
    if h1.ambient_dim != h2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    g1, g2 = _geometry(h1, res), _geometry(h2, res)
    lo1, hi1 = _directional_sup(g1, g2)
    lo2, hi2 = _directional_sup(g2, g1)
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
            # one row with a positive pivot is already canonical
            if rank == 1 or hnf_basis(cand, n) == cand:
                out.append(cand)
    return out


def hyperplane_isolation_bound(norm2: int) -> Fraction:
    """The certified lower bound on the isolation radius 1/(2 ||gamma||_2) of
    the hyperplane of a primitive covector gamma, from norm2 = ||gamma||_2^2:
    the lower end of the square-root enclosure."""
    return Fraction(_sqrt_floor_scaled((1, 4 * norm2)), _SQRT_SCALE)


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

    A hyperplane H_gamma is nearest to T^n, at 1/(2 ||gamma||_2), since
    every other hyperplane H' has d(H_gamma, H') = max(that, d(H', T^n)); so
    its bound holds at any cap.  Below codimension 1 the bound is relative to
    the cap: subtori with larger annihilators are not inspected.  Each
    candidate is the lower end of its hausdorff_distance estimate from h.
    """
    if h.dim == 0 or h.is_full():
        raise ValueError("isolation applies to proper nontrivial subtori")
    if dual_norm_bound < 1:
        raise ValueError("dual norm bound must be >= 1")
    res = Fraction(resolution)
    if res <= 0:
        raise ValueError("resolution must be positive")
    n = h.ambient_dim
    if h.dim == n - 1:
        # ||gamma||_2^2 = det(B B^T) for the saturated basis B (Cauchy-Binet:
        # its maximal minors are the entries of gamma up to sign), no kernel
        bound = hyperplane_isolation_bound(det(mat_mul(h.basis, transpose(h.basis))))
        return IsolationReport(h, dual_norm_bound, res, 1, bound, subtorus_from_annihilator(n, ()))
    h_geom = _geometry(h, res)
    best: int | None = None
    nearest = None
    count = 0
    for rank in range(0, n - h.dim + 1):
        for ann_rows in enumerate_hnf_lattices(n, rank, dual_norm_bound):
            # a canonical HNF basis is saturated exactly when it is the
            # annihilator of its own kernel; one row needs only its gcd
            if ann_rows == h_geom.ann or rank == 1 and gcd(*ann_rows[0]) != 1:
                continue
            basis = annihilator_rows(ann_rows, n)
            if rank != 1 and annihilator_rows(basis, n) != ann_rows:
                continue
            count += 1
            lower = _lower_scaled(h_geom, _SubtorusGeometry(n, basis, ann_rows, res))
            if best is None or lower < best:
                best = lower
                nearest = ann_rows
    assert best is not None
    return IsolationReport(
        h, dual_norm_bound, res, count, Fraction(best, _SQRT_SCALE),
        subtorus_from_annihilator(n, nearest),
    )
