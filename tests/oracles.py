"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: row spans are tested by rational elimination, characteristic
polynomials by cofactor expansion, orbits by direct stepping, finite order
by direct powering, products by a triple loop, and group closures by one
order check per element.
"""

from fractions import Fraction
from itertools import permutations, product

from tordyn.intmat import (
    UnimodularMatrix,
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    matrix_order,
)


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
    that decides every new element with its own `matrix_order` call."""
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
                if matrix_order(UnimodularMatrix(b)) is None:
                    return ("infinite", None, None, b)
                seen[b] = None
                if len(seen) > cap:
                    return ("inconclusive", None, None, None)
                new_frontier.append(b)
        frontier = new_frontier
    elements = tuple(sorted(seen))
    return ("finite", len(elements), elements, None)


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


def saturation_lift(w, kdim, inner_gamma):
    """Covector of the hyperplane spanned by the first kdim rows of the
    unimodular w and the rows y w, y in 0^kdim x (the hyperplane of T^(n-kdim)
    that inner_gamma annihilates): the rows are built, saturated and turned
    back into a covector through a kernel, as the quotient lift once did."""
    from tordyn.lattices import Lattice, saturate_rows
    from tordyn.subtori import (
        PrimitiveCovector,
        Subtorus,
        covector_to_hyperplane,
        hyperplane_to_covector,
    )

    n = len(w)
    inner_h = covector_to_hyperplane(PrimitiveCovector(inner_gamma))
    rows = list(w[:kdim])
    for r in inner_h.basis:
        y = (0,) * kdim + tuple(r)
        rows.append(tuple(sum(y[i] * w[i][j] for i in range(n)) for j in range(n)))
    lifted = Subtorus(n, Lattice(n, saturate_rows(tuple(rows), n)))
    return hyperplane_to_covector(lifted).entries
