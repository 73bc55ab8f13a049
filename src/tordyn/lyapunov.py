"""Quadratic Lyapunov forms: growth evidence for an orbit whose annihilator
has no root on the unit circle, whatever the gaps between its root moduli.

Let g be a monic integer polynomial of degree d with g_0 = +-1, x_m the
coefficients of x^m mod g (power_coordinates: the coordinates of the m-th
orbit element in the cyclic basis, and x_m[0] the impulse response t(m)) and
C the multiplication by x mod g, so that x_(m+1) = C x_m.  A rational
symmetric d x d matrix P with M = C^T P C - P positive definite makes
V(x) = x^T P x strictly increase along every orbit.  Such a P exists
exactly when no root of g lies on the unit circle: the discrete inertia
theorem (Ostrowski and Schneider, J. Math. Anal. Appl. 4, 1962; Stein,
J. Res. NBS 48, 1952, for the stable case).  A sign of V at the window's
edge then bounds |x_m|_inf below past the edge (lyapunov_floor), and the
transfer constant turns that into a norm floor as it does a level 1 floor.

Floats only propose P (_propose_form, which solves the Stein equation
C^T P C - P = I in floats and rounds P to the denominator
LYAPUNOV_DENOMINATOR).  Everything else is exact and shared by the producer
(growth.GrowthSearch) and the checker (check_lyapunov_direction): P is
tested on its integer multiple N, by stein_residual and is_positive_definite
(form_is_lyapunov), and lyapunov_floor derives the floor from N.  The module
is loaded the first time a search or a check needs a form, so a run whose
orbits all have cones never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from operator import mul

from .growth import DirectionCertificate, ceil_sqrt_fraction
from .intmat import Mat, Vec
from .polynomials import Poly

LYAPUNOV_DENOMINATOR = 2**20


def power_coordinates(g: Poly, m: int) -> Vec:
    """The coefficients x_m of x^m mod g, constant term first, for any integer
    m: |m| multiplications by x, or by x^-1 = -g_0 (g_1 + g_2 x + ... + x^(d-1)),
    which exists because g_0 = +-1.  x_m[0] is the impulse response t(m)."""
    d = len(g) - 1
    x = [1] + [0] * (d - 1)
    if m >= 0:
        for _ in range(m):
            top = x[-1]
            x = [-g[0] * top] + [x[j - 1] - g[j] * top for j in range(1, d)]
    else:
        for _ in range(-m):
            c = g[0] * x[0]
            x = [x[j + 1] - c * g[j + 1] for j in range(d - 1)] + [-c]
    return tuple(x)


def _float_solve(rows: list[list[float]]) -> list[float] | None:
    """The solution of the square system with augmented rows, by Gaussian
    elimination with partial pivoting, or None when a pivot vanishes."""
    n = len(rows)
    scale = max(abs(x) for row in rows for x in row[:-1])
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if not abs(rows[p][k]) > 1e-12 * scale:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    sol = [0.0] * n
    for k in reversed(range(n)):
        sol[k] = (rows[k][n] - sum(rows[k][j] * sol[j] for j in range(k + 1, n))) / rows[k][k]
    return sol


def _propose_form(g: Poly) -> Mat | None:
    """An integer matrix N with P = N / LYAPUNOV_DENOMINATOR close to the
    solution of the Stein equation C^T P C - P = I, or None.  The equation is
    linear in the d(d+1)/2 unknowns P_ij, i <= j, whose columns are the
    exact residuals of the symmetric unit matrices; it is solved in floats.
    It has a unique solution exactly when no two eigenvalues of C have
    product 1, so a root of g on the unit circle leaves it singular."""
    d = len(g) - 1
    unknowns = [(i, j) for i in range(d) for j in range(i, d)]
    columns = []
    for i, j in unknowns:
        unit = [[int({a, b} == {i, j}) for b in range(d)] for a in range(d)]
        residual = stein_residual(g, unit)
        columns.append([residual[a][b] for a, b in unknowns])
    try:
        rows = [[float(col[k]) for col in columns] + [float(a == b)]
                for k, (a, b) in enumerate(unknowns)]
    except OverflowError:
        return None
    sol = _float_solve(rows)
    if sol is None or not all(isfinite(x * LYAPUNOV_DENOMINATOR) for x in sol):
        return None
    p = [[0] * d for _ in range(d)]
    for (i, j), x in zip(unknowns, sol):
        p[i][j] = p[j][i] = round(x * LYAPUNOV_DENOMINATOR)
    return tuple(map(tuple, p))


def integer_form(form) -> Mat:
    """The rational form P as the integer matrix D P, for D the least common
    denominator of its entries; the form tests read only its multiples."""
    den = lcm(*(x.denominator for row in form for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in form)


def stein_residual(g: Poly, scaled: Mat) -> list[list[int]]:
    """C^T N C - N for the integer d x d matrix N and the multiplication C by
    x mod g, whose columns are e_1, ..., e_(d-1) and -(g_0, ..., g_(d-1))."""
    d = len(g) - 1
    # (N C)[i][b] is N[i][b + 1] for b < d - 1, and -sum_j N[i][j] g_j for b = d - 1
    nc = [list(row[1:]) + [-sum(map(mul, row, g))] for row in scaled]
    # (C^T X)[a] is X[a + 1] for a < d - 1, and -sum_j g_j X[j] for a = d - 1
    last = [-sum(g[j] * nc[j][b] for j in range(d)) for b in range(d)]
    return [[x - y for x, y in zip(row, n_row)] for row, n_row in zip(nc[1:] + [last], scaled)]


def is_positive_definite(m: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix m is positive definite, that is
    every pivot of its LDL^T factorization is positive.  Fraction-free
    (Bareiss) elimination without pivoting leaves the k-th leading principal
    minor on the diagonal, and the k-th pivot is its quotient by the one
    before, so the pivots are positive exactly when these minors are."""
    a = [list(row) for row in m]
    prev = 1
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True


def form_is_lyapunov(g: Poly, scaled: Mat) -> bool:
    """Whether M = C^T N C - N is positive definite, for the symmetric integer
    d x d matrix N and C the multiplication by x mod g.  Then V(x) = x^T N x
    strictly increases along the orbit x_m of every nonzero x."""
    return is_positive_definite(stein_residual(g, scaled))


def lyapunov_form(g: Poly) -> tuple[tuple[tuple[Fraction, ...], ...], Mat] | None:
    """A rational symmetric P with C^T P C - P positive definite, and the
    integer multiple N = LYAPUNOV_DENOMINATOR P, or None.  Floats only
    propose N (_propose_form); form_is_lyapunov decides it in integers."""
    scaled = _propose_form(g)
    if scaled is None or not form_is_lyapunov(g, scaled):
        return None
    return tuple(tuple(Fraction(x, LYAPUNOV_DENOMINATOR) for x in row) for row in scaled), scaled


def lyapunov_floor(g: Poly, scaled: Mat, direction: str, window: int) -> int | None:
    """Floor of |x_m|_inf over the orbit past the window of radius `window`,
    m > window forward and m < -window backward, for a form N that passed
    form_is_lyapunov; None unless V(x) = x^T N x has the sign at the window's
    edge (x_(window+1) forward, x_(-window-1) backward) that carries it.

    V increases along the orbit, so past a positive forward edge V(x_m) >=
    V(x_edge) > 0, and past a negative backward edge |V(x_m)| >= |V(x_edge)|.
    With lam the largest absolute row sum of N, |V(x)| <= lam |x|_2^2 <=
    lam d |x|_inf^2, so |x_m|_inf >= ceil(sqrt(|V(x_edge)| / (lam d))).  The
    bound is the same for every positive multiple of N."""
    forward = direction == "forward"
    x = power_coordinates(g, window + 1 if forward else -window - 1)
    v = sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, scaled))
    if (v <= 0) if forward else (v >= 0):
        return None
    lam = max(sum(map(abs, row)) for row in scaled)
    return ceil_sqrt_fraction(Fraction(abs(v), lam * len(x)))


def check_lyapunov_direction(g: Poly, dc: DirectionCertificate, window: int) -> list[str]:
    """Failures of one direction's Lyapunov evidence: its form P must be a
    symmetric d x d matrix with C^T P C - P positive definite, V must have
    the right sign at the window's edge, and the stored floor must not exceed
    the floor lyapunov_floor derives."""
    bare = DirectionCertificate(dc.direction, "lyapunov", 1, floor_seq=dc.floor_seq, form=dc.form)
    if dc != bare:
        return [f"{dc.direction}: Lyapunov evidence carries cone data"]
    d, form = len(g) - 1, dc.form
    if len(form) != d or any(len(row) != d for row in form):
        return [f"{dc.direction}: Lyapunov form is not {d} x {d}"]
    if any(form[i][j] != form[j][i] for i in range(d) for j in range(i)):
        return [f"{dc.direction}: Lyapunov form is not symmetric"]
    scaled = integer_form(form)
    if not form_is_lyapunov(g, scaled):
        return [f"{dc.direction}: C^T P C - P is not positive definite"]
    floor = lyapunov_floor(g, scaled, dc.direction, window)
    if floor is None:
        return [f"{dc.direction}: V has the wrong sign at the window edge"]
    if floor < dc.floor_seq:
        return [f"{dc.direction}: stored Lyapunov floor too large"]
    return []
