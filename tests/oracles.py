"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: row spans are tested by rational elimination, characteristic
polynomials by cofactor expansion, hyperplanes by the left kernel of their
covector, covector periodicity by one matrix that kills exactly the periodic
covectors, orbits by direct stepping, finite order by direct powering or by
dividing primes out of the cyclotomic bound one matrix power at a time,
minimal polynomials by the first linear relation among the matrix powers,
products by a triple loop, group closures by one order check per element or
by multiplying matrices and filing each product under its entries mod 3, and
the growth cone tests by Fraction arithmetic.
"""

from fractions import Fraction
from itertools import permutations, product
from math import lcm

from tordyn.dynamics import GroupReport
from tordyn.intmat import (
    Mat,
    UnimodularMatrix,
    evaluate_poly_at_matrix,
    identity,
    inverse_unimodular,
    mat_mul,
    char_poly,
    mat_pow,
    mat_vec,
)
from tordyn.lattices import left_kernel
from tordyn.polynomials import (
    cyclotomic,
    cyclotomic_orders_if_product,
    divides,
    normalize,
    orders_with_totient_at_most,
)
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    canonicalize_covector,
    subtorus_from_annihilator,
)


def covectors():
    """Hypothesis strategy: canonical primitive covectors of length 2..6, with
    small or huge (up to 2^70) entries of either sign and a tail of zeros."""
    from hypothesis import strategies as st

    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    return st.integers(2, 6).flatmap(
        lambda n: st.lists(entry, min_size=1, max_size=n).map(lambda head: head + [0] * (n - len(head)))
    ).filter(any).map(canonicalize_covector)


def left_kernel_hyperplane(gamma: PrimitiveCovector) -> Subtorus:
    """The codimension-1 subtorus annihilated by gamma, by the left-kernel
    route (HNF of the covector, then its annihilator): what
    `covector_to_hyperplane` computed before its closed form."""
    n = gamma.ambient_dim
    if n < 2:
        raise ValueError("hyperplanes need ambient dimension >= 2")
    return subtorus_from_annihilator(n, (gamma.entries,))


def rational_solve_row(rows, target):
    """Coefficients x with x @ rows = target over Q, or None."""
    if not rows:
        return None if any(target) else ()
    m = len(rows)
    n = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(m)] for j in range(n)]
    rhs = [Fraction(t) for t in target]
    piv_cols = []
    row = 0
    for col in range(m):
        sel = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        rhs[row], rhs[sel] = rhs[sel], rhs[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        rhs[row] /= pv
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
                rhs[r] -= f * rhs[row]
        piv_cols.append(col)
        row += 1
    for r in range(row, n):
        if rhs[r] != 0:
            return None
    x = [Fraction(0)] * m
    for r, col in enumerate(piv_cols):
        x[col] = rhs[r]
    return tuple(x)


def in_integer_rowspan(rows, v):
    """Membership of v in the integer span of rows by textbook Euclidean row
    reduction (column by column gcd elimination) plus divisibility checks."""
    work = [list(r) for r in rows if any(r)]
    n = len(v)
    echelon = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            small, big = live[0], live[1]
            q = big[col] // small[col]
            for t in range(n):
                big[t] -= q * small[t]
            live = [r for r in work if r[col] != 0]
        if live:
            pivot_row = live[0]
            work.remove(pivot_row)
            echelon.append(pivot_row)
        work = [r for r in work if any(r)]
    vv = list(v)
    for row in echelon:
        col = next(i for i, x in enumerate(row) if x != 0)
        if vv[col] % row[col]:
            return False
        q = vv[col] // row[col]
        for t in range(n):
            vv[t] -= q * row[t]
    return all(x == 0 for x in vv)


def in_rational_rowspan(rows, v):
    return rational_solve_row(rows, v) is not None


def rational_rank(rows):
    if not rows:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    n_cols = len(m[0])
    rank = 0
    for col in range(n_cols):
        sel = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def pseudo_inverse_transfer_constant(basis):
    """max_j sum_i |P_ij| for the pseudo-inverse P = B^T (B B^T)^-1 of a
    full-rank basis B, by Fraction Gauss-Jordan on [G | I] with G = B B^T;
    ValueError when G is singular."""
    d = len(basis)
    work = [[Fraction(sum(x * y for x, y in zip(r1, r2))) for r2 in basis]
            + [Fraction(int(i == j)) for j in range(d)] for i, r1 in enumerate(basis)]
    for col in range(d):
        sel = next((r for r in range(col, d) if work[r][col] != 0), None)
        if sel is None:
            raise ValueError("Gram matrix is singular")
        work[col], work[sel] = work[sel], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(d):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    ginv = [row[d:] for row in work]
    n = len(basis[0])
    p = [[sum(basis[a][i] * ginv[a][j] for a in range(d)) for j in range(d)] for i in range(n)]
    return max(sum(abs(p[i][j]) for i in range(n)) for j in range(d))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_neg(p):
    return tuple(-x for x in p)


def charpoly_cofactor(a):
    """det(xI - a) by cofactor expansion over polynomial entries."""
    n = len(a)
    entries = [
        [(-a[i][j], 1) if i == j else ((-a[i][j],) if a[i][j] else ())
         for j in range(n)]
        for i in range(n)
    ]

    def det_poly(mat):
        size = len(mat)
        if size == 1:
            return mat[0][0]
        total = ()
        for j in range(size):
            if not mat[0][j]:
                continue
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = poly_mul(mat[0][j], det_poly(minor))
            total = poly_add(total, term if j % 2 == 0 else poly_neg(term))
        return total

    return det_poly(entries)


def cyclotomic_radical_matrix(s):
    """Product of Phi_m(S) over the distinct cyclotomic divisors of the
    characteristic polynomial of S (by cofactor expansion).  A covector orbit
    under S is periodic exactly when this matrix kills the covector, so one
    matrix product decides a whole array of covectors at once."""
    cp = charpoly_cofactor(s)
    out = identity(len(s))
    for m in orders_with_totient_at_most(len(s)):
        if divides(cyclotomic(m), cp):
            out = mat_mul(out, evaluate_poly_at_matrix(cyclotomic(m), s))
    return out


GL2_GENERATORS = (
    ((0, -1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 0), (0, -1)),
)

def gl_generators(n):
    """Generators of GL_n(Z): for n >= 3 a cyclic shift, an elementary
    transvection, a sign change and a transposition."""
    if n == 2:
        return GL2_GENERATORS
    eye = [list(row) for row in identity(n)]
    shift = tuple(tuple(int(j == (i - 1) % n) for j in range(n)) for i in range(n))
    transvection = [row[:] for row in eye]
    transvection[0][1] = 1
    flip = [row[:] for row in eye]
    flip[n - 1][n - 1] = -1
    swap = [row[:] for row in eye]
    swap[0], swap[1] = swap[1], swap[0]
    return (shift,) + tuple(tuple(tuple(r) for r in m) for m in (transvection, flip, swap))


def random_word(rng, n, max_len=12, entry_cap=None):
    """A random word in the standard generators, optionally resampled until
    the entries stay under a cap."""
    gens = gl_generators(n)
    while True:
        word = identity(n)
        for _ in range(rng.randint(1, max_len)):
            g = gens[rng.randrange(len(gens))]
            if rng.random() < 0.5:
                g = inverse_unimodular(g)
            word = mat_mul(word, g)
        if entry_cap is None or max(abs(x) for row in word for x in row) <= entry_cap:
            return UnimodularMatrix(word)


def direct_order_bound_12(t: UnimodularMatrix):
    """Finite order by direct powering: at dimensions <= 3 every finite order
    divides 12, so T has finite order exactly when T^12 = Id."""
    assert t.n <= 3
    return t.power(12).is_identity()


def direct_order(t: UnimodularMatrix, bound: int):
    """Smallest m <= bound with t^m = Id, by multiplying by t one step at a
    time, or None."""
    eye = identity(t.n)
    cur = t.rows
    for m in range(1, bound + 1):
        if cur == eye:
            return m
        cur = mat_mul(cur, t.rows)
    return None


def order_bound(a: Mat) -> int | None:
    """A multiple of the order of the square matrix a if it has one: the lcm
    of the cyclotomic orders when its characteristic polynomial is a product
    of cyclotomics, which a finite order needs; otherwise None.  A power at
    the bound that is not the identity means infinite order (a nontrivial
    Jordan block, as in shear + rotation)."""
    orders = cyclotomic_orders_if_product(char_poly(a))
    if orders is None:
        return None
    return lcm(*orders) if orders else 1


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def matrix_order_by_descent(t: UnimodularMatrix) -> int | None:
    """Smallest m >= 1 with t^m = Id, or None when no power is the identity.

    t^order_bound != Id means infinite order; otherwise each prime is divided
    out of the bound while the power stays the identity, one mat_pow per
    test."""
    order = order_bound(t.rows)
    eye = identity(t.n)
    if order is None or mat_pow(t.rows, order) != eye:
        return None
    for p in _prime_factors(order):
        while order % p == 0 and mat_pow(t.rows, order // p) == eye:
            order //= p
    return order


def matrix_minimal_polynomial(a: Mat):
    """Minimal polynomial of an integer matrix, monic with integer coefficients."""
    n = len(a)

    powers = [identity(n)]
    for _ in range(n):
        powers.append(mat_mul(a, powers[-1]))
    for d in range(1, n + 1):
        stacked = tuple(
            tuple(x for row in powers[i] for x in row) for i in range(d + 1)
        )
        kern = left_kernel(stacked, d + 1)
        if kern:
            rel = kern[0]
            if rel[-1] < 0:
                rel = tuple(-x for x in rel)
            if rel[-1] != 1:
                raise AssertionError("minimal polynomial must be monic")
            return normalize(rel)
    raise AssertionError("unreachable: char poly annihilates")


def mat_mul_triple_loop(a, b):
    """Product of an m x k and a k x p matrix by the textbook triple loop."""
    p = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        row = []
        for j in range(p):
            acc = 0
            for t in range(len(b)):
                acc += a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def signed_permutation_matrices(n):
    """Every n x n signed permutation matrix: the hyperoctahedral group B_n,
    of order 2^n n!."""
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            yield tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                        for i in range(n))


def hyperoctahedral_generators(n):
    """A transposition, an n-cycle and one sign change; they generate B_n."""
    eye = [list(row) for row in identity(n)]
    swap = [row[:] for row in eye]
    swap[0], swap[1] = swap[1], swap[0]
    cycle = tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))
    flip = [row[:] for row in eye]
    flip[0][0] = -1
    return (tuple(map(tuple, swap)), cycle, tuple(map(tuple, flip)))


def block_diag(a, b):
    n, m = len(a), len(b)
    return tuple(tuple(a[i]) + (0,) * m for i in range(n)) + tuple(
        (0,) * n + tuple(b[i]) for i in range(m))


def reference_group_closure(generators, cap=20000):
    """(status, order, sorted elements, witness) of the breadth-first closure
    that decides every new element with its own `matrix_order_by_descent`
    call."""
    gens = [g if isinstance(g, UnimodularMatrix) else UnimodularMatrix(g) for g in generators]
    n = gens[0].n
    step = [g.rows for g in gens] + [inverse_unimodular(g.rows) for g in gens]
    seen = {identity(n): None}
    frontier = [identity(n)]
    while frontier:
        new_frontier = []
        for a in frontier:
            for s in step:
                b = mat_mul(a, s)
                if b in seen:
                    continue
                if matrix_order_by_descent(UnimodularMatrix(b)) is None:
                    return ("infinite", None, None, b)
                seen[b] = None
                if len(seen) > cap:
                    return ("inconclusive", None, None, None)
                new_frontier.append(b)
        frontier = new_frontier
    elements = tuple(sorted(seen))
    return ("finite", len(elements), elements, None)


def mod3_closure_reference(generators, cap: int = 20000) -> GroupReport:
    """The closure `group_is_finite` ran before it kept a table of rows:
    breadth first from Id over the distinct generators, one `mat_mul` per
    product and each product filed under its entries mod 3.  Copied verbatim,
    except that each report also records len(seen), the distinct elements
    found."""
    gens = [g if isinstance(g, UnimodularMatrix) else UnimodularMatrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators must share one dimension")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    step = list(dict.fromkeys(g.rows for g in gens))
    eye = identity(n)
    seen: dict[tuple[int, ...], Mat] = {_residues_mod_3(eye): eye}
    frontier = [eye]
    while frontier:
        new_frontier = []
        for a in frontier:
            for s in step:
                b = mat_mul(a, s)
                key = _residues_mod_3(b)
                c = seen.get(key)
                if c is not None:
                    if c != b:
                        return GroupReport("infinite", None, None, mat_mul(b, inverse_unimodular(c)),
                                           len(seen))
                    continue
                seen[key] = b
                if len(seen) > cap:
                    return GroupReport("inconclusive", None, None, None, len(seen))
                new_frontier.append(b)
        frontier = new_frontier
    elements = tuple(sorted(seen.values()))
    return GroupReport("finite", len(elements), elements, None, len(seen))


def _residues_mod_3(a) -> tuple[int, ...]:
    return tuple([x % 3 for row in a for x in row])

def covector_orbit_scan(s_rows, gamma, window):
    """Canonical covectors on the orbit of gamma within |m| <= window."""
    from tordyn.subtori import canonicalize_covector

    out = {0: canonicalize_covector(gamma)}
    sinv = inverse_unimodular(s_rows)
    cur = gamma
    for m in range(1, window + 1):
        cur = mat_vec(s_rows, cur)
        out[m] = canonicalize_covector(cur)
    cur = gamma
    for m in range(1, window + 1):
        cur = mat_vec(sinv, cur)
        out[-m] = canonicalize_covector(cur)
    return out


def first_repetition_is_injective(s_rows, gamma, window):
    """True when no canonical covector repeats within the window scan."""
    scan = covector_orbit_scan(s_rows, gamma, window)
    values = list(scan.values())
    return len(set(values)) == len(values)


class _ReferenceGeometry:
    """The Fraction-based subtorus geometry of the isolation scan as first
    written: annihilator basis, Lipschitz bound and Gram inverse."""

    def __init__(self, h, ann):
        from tordyn.intmat import rational_inverse

        self.h = h
        self.ann = ann
        self.r = len(ann)
        self.lip = sum(_reference_row_norm_upper(row) for row in h.basis)
        if self.r:
            gram = [
                [Fraction(sum(x * y for x, y in zip(r1, r2))) for r2 in ann]
                for r1 in ann
            ]
            self.ginv = rational_inverse(gram)
            self.trace_g = sum(gram[i][i] for i in range(self.r))

    def dist2(self, point):
        from tordyn.growth import ceil_fraction, ceil_sqrt_fraction

        if self.r == 0:
            return Fraction(0)
        y0 = [sum(Fraction(a) * p for a, p in zip(row, point)) for row in self.ann]
        z0 = [-ceil_fraction(y - Fraction(1, 2)) for y in y0]
        best = self._form([y + z for y, z in zip(y0, z0)])
        radius2 = best * self.trace_g
        rad = ceil_sqrt_fraction(radius2)
        ranges = []
        for y in y0:
            lo = ceil_fraction(-y - rad)
            hi = -ceil_fraction(-(-y + rad))
            ranges.append(range(lo, hi + 1))
        for z in product(*ranges):
            val = self._form([y + zz for y, zz in zip(y0, z)])
            if val < best:
                best = val
        return best

    def _form(self, u):
        return sum(
            u[i] * self.ginv[i][j] * u[j] for i in range(self.r) for j in range(self.r)
        )


def _reference_row_norm_upper(row):
    from tordyn.growth import ceil_sqrt_fraction

    return ceil_sqrt_fraction(Fraction(sum(x * x for x in row)))


def _reference_sqrt_interval(x, scale=1 << 24):
    from math import isqrt

    if x == 0:
        return Fraction(0), Fraction(0)
    num = x.numerator * scale * scale
    s = isqrt(num // x.denominator)
    lo = Fraction(s, scale)
    while lo * lo > x:
        s -= 1
        lo = Fraction(s, scale)
    return lo, Fraction(s + 1, scale)


def _reference_grid_points(basis, n, steps):
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
        yield tuple(x - (x.numerator // x.denominator) for x in point)


def _reference_grid_max_dist2_hyperplane(basis, geom, steps):
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


def _reference_directional_sup(src_geom, geom, resolution):
    from tordyn.growth import ceil_fraction
    from tordyn.subtori import contains

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
        best2 = _reference_grid_max_dist2_hyperplane(src.basis, geom, steps)
    else:
        best2 = Fraction(0)
        for point in _reference_grid_points(src.basis, src.ambient_dim, steps):
            d2 = geom.dist2(point)
            if d2 > best2:
                best2 = d2
    lo, hi = _reference_sqrt_interval(best2)
    return lo, hi + mesh


def reference_hausdorff(h1, h2, res):
    """(value, error_bound) of the Hausdorff estimate by the reference path."""
    from tordyn.subtori import annihilator

    g1 = _ReferenceGeometry(h1, annihilator(h1).basis)
    g2 = _ReferenceGeometry(h2, annihilator(h2).basis)
    lo1, hi1 = _reference_directional_sup(g1, g2, res)
    lo2, hi2 = _reference_directional_sup(g2, g1, res)
    lo, hi = max(lo1, lo2), max(hi1, hi2)
    return (lo + hi) / 2, (hi - lo) / 2


def reference_isolation(h, dual_norm_bound, resolution):
    """The isolation scan as first written: each candidate is saturated by
    saturate_rows, built by subtorus_from_annihilator and measured by the
    Fraction-based geometry above, three kernel computations apiece."""
    from tordyn.lattices import saturate_rows
    from tordyn.metric import IsolationReport, enumerate_hnf_lattices
    from tordyn.subtori import annihilator, subtorus_from_annihilator

    res = Fraction(resolution)
    n = h.ambient_dim
    h_geom = _ReferenceGeometry(h, annihilator(h).basis)
    best = nearest = None
    count = 0
    for rank in range(0, n - h.dim + 1):
        for ann_rows in enumerate_hnf_lattices(n, rank, dual_norm_bound):
            if saturate_rows(ann_rows, n) != ann_rows:
                continue
            cand = subtorus_from_annihilator(n, ann_rows)
            if cand == h:
                continue
            count += 1
            geom = _ReferenceGeometry(cand, ann_rows)
            lo1, hi1 = _reference_directional_sup(h_geom, geom, res)
            lo2, hi2 = _reference_directional_sup(geom, h_geom, res)
            lo, hi = max(lo1, lo2), max(hi1, hi2)
            lower = (lo + hi) / 2 - (hi - lo) / 2
            if best is None or lower < best:
                best = lower
                nearest = cand
    return IsolationReport(h, dual_norm_bound, res, count, best, nearest)


def fraction_cone_bounds(b, mu, nu):
    """Worst-case next/current ratios of the cone mu <= ratio <= nu under the
    recurrence with coefficients b, in Fraction arithmetic."""
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


def fraction_cone_is_invariant(qpoly, mu, nu):
    """Whether 1 < mu <= nu and the monic recurrence qpoly maps the ratio
    cone [mu, nu] into itself, by fraction_cone_bounds."""
    if not 1 < mu <= nu:
        return False
    lb, ub = fraction_cone_bounds(tuple(-c for c in qpoly[:-1]), mu, nu)
    return lb >= mu and ub <= nu


def fraction_enters_cone(seq, q, dd, mu, nu, start, sign):
    """Whether sign * seq(start + q i), i < dd, are positive with every ratio
    of neighbours in [mu, nu], comparing Fractions."""
    sv = [sign * seq[start + q * i] for i in range(dd)]
    return all(x > 0 for x in sv) and all(
        mu * sv[i] <= sv[i + 1] <= nu * sv[i] for i in range(dd - 1)
    )


def fraction_cone_floor(seq, q, mu, starts, cover_from):
    """The ceiling of the least |seq(start)| mu^steps over the entry starts,
    steps counting the q-steps to the first index past cover_from."""
    best = None
    for start in starts:
        m = cover_from + 1
        while (m - start) % q:
            m += 1
        bound = Fraction(abs(seq[start])) * mu ** ((m - start) // q)
        if best is None or bound < best:
            best = bound
    return -((-best.numerator) // best.denominator)


def fraction_ldl_pivots(m):
    """The pivots of the LDL^T factorization of the symmetric matrix m, in
    Fraction arithmetic, up to the first that is not positive."""
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    for k in range(len(a)):
        pivots.append(a[k][k])
        if a[k][k] <= 0:
            break
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, len(a)):
                a[i][j] -= f * a[k][j]
    return pivots


def multiplication_by_x(g):
    """The matrix C of multiplication by x on the coefficients mod the monic
    g (constant term first), so that C x_m = x_(m+1), built column by column
    from x * x^i mod g."""
    d = len(g) - 1
    columns = [[int(k == i + 1) for k in range(d)] for i in range(d - 1)] + [[-c for c in g[:-1]]]
    return [[columns[j][i] for j in range(d)] for i in range(d)]
