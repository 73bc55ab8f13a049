"""Independent checks of the CLI's outputs.

Nothing here imports tordyn.  Every check recomputes what it needs with its
own exact integer arithmetic: the inverse of T, the dual action S = T^-T on
covectors, determinants, matrix powers and Euler's totient.  Each function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_pow(a, e):
    result = identity(len(a))
    base = [list(r) for r in a]
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def det(a):
    """Bareiss fraction-free elimination."""
    m = [list(r) for r in a]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse_unimodular(a):
    """Adjugate divided by the determinant, which must be +-1."""
    n = len(a)
    d = det(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    if n == 1:
        return [[d]]
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]
            inv[j][i] = (-1) ** (i + j) * det(minor) * d
    return inv


def dual(t):
    """S = T^-T: a covector gamma of the hyperplane H maps to S gamma for T(H)."""
    inv = inverse_unimodular(t)
    return [list(col) for col in zip(*inv)]


def canonical(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    v = tuple(x // g for x in v)
    first = next(x for x in v if x != 0)
    return v if first > 0 else tuple(-x for x in v)


def sup(v):
    return max(abs(x) for x in v)


def hyperplane_covector(basis):
    """The primitive covector annihilating the rows of an (n-1) x n basis:
    the signed maximal minors."""
    n = len(basis[0])
    return canonical(
        tuple((-1) ** j * det([row[:j] + row[j + 1:] for row in basis]) for j in range(n))
    )


def totient(m):
    result, x, p = m, m, 2
    while p * p <= x:
        if x % p == 0:
            while x % p == 0:
                x //= p
            result -= result // p
        p += 1
    if x > 1:
        result -= result // x
    return result


def finite_order_exponent(n):
    """L = lcm{m : phi(m) <= n}.  T has finite order exactly when T^L = I,
    since a finite order is the lcm of orders of roots of unity of degree
    at most n."""
    bound = 2 * n * n + 6  # phi(m) >= sqrt(m / 2) for every m
    return lcm(*[m for m in range(1, bound + 1) if totient(m) <= n])


def has_finite_order(t):
    return mat_pow(t, finite_order_exponent(len(t))) == identity(len(t))


# --- certificates -----------------------------------------------------------


def _orbit(s, s_inv, gamma, radius):
    """{m: S^m gamma} for |m| <= radius, not canonicalised."""
    out = {0: tuple(gamma)}
    cur = tuple(gamma)
    for m in range(1, radius + 1):
        cur = mat_vec(s, cur)
        out[m] = cur
    cur = tuple(gamma)
    for m in range(1, radius + 1):
        cur = mat_vec(s_inv, cur)
        out[-m] = cur
    return out


def _periodic_orbit(s, gamma, cap=100000):
    seen = [canonical(gamma)]
    cur = tuple(gamma)
    for _ in range(cap):
        cur = mat_vec(s, cur)
        c = canonical(cur)
        if c == seen[0]:
            return set(seen)
        seen.append(c)
    raise ValueError("orbit did not close")


def check_family(cert, matrix, count, where="family"):
    """A disjoint-family certificate for `matrix` with `count` members.

    Members are canonical, primitive, distinct and `count` in number.  Each
    window entry is the hyperplane of S^m gamma.  Periodic members' orbits,
    enumerated directly, are pairwise disjoint.  Injective members are
    stepped to twice their window radius: no member lands on another
    member's orbit, and past the window a rigorous member's covectors never
    fall below the claimed `min_exterior_norm`.
    """
    problems = []

    def fail(msg):
        problems.append(f"{where}: {msg}")

    if [list(r) for r in cert["matrix"]] != [list(r) for r in matrix]:
        fail("certificate is for another matrix")
        return problems
    n = len(matrix)
    members = [tuple(m) for m in cert["members"]]
    if cert["count"] != count or len(members) != count:
        fail(f"{len(members)} members, {count} requested")
    if len(set(members)) != len(members):
        fail("members are not distinct")
    for m in members:
        if len(m) != n or canonical(m) != m:
            fail(f"member {m} is not a canonical primitive covector")
            return problems
    if not cert["complete"]:
        fail("family is not complete")
    reports = cert["orbit_reports"]
    if len(reports) != len(members):
        fail("one orbit report per member is required")
        return problems
    s = dual(matrix)
    s_inv = inverse_unimodular(s)
    orbit_sets = []
    for i, (gamma, rep) in enumerate(zip(members, reports)):
        w = rep["window_radius"]
        if rep["status"] == "periodic":
            orbit_sets.append(_periodic_orbit(s, gamma))
            steps = _orbit(s, s_inv, gamma, w)
        else:
            steps = _orbit(s, s_inv, gamma, 2 * w)
            orbit_sets.append({canonical(v) for v in steps.values()})
            floor = rep.get("min_exterior_norm")
            if rep["rigorous"] and floor is not None:
                low = min(sup(v) for m, v in steps.items() if abs(m) > w)
                if low < floor:
                    fail(f"member {i}: covector of norm {low} beyond the window, floor {floor}")
        window = rep["window"]
        if sorted(m for m, _ in window) != list(range(-w, w + 1)):
            fail(f"member {i}: window exponents are not -{w}..{w}")
            continue
        for m, basis in window:
            if hyperplane_covector(basis) != canonical(steps[m]):
                fail(f"member {i}: window entry at {m} is not T^{m} of the member")
                break
    for i in range(len(members)):
        for j in range(len(members)):
            if i != j and members[j] in orbit_sets[i]:
                fail(f"member {j} lies on the orbit of member {i}")
    if cert["branch"] == "finite_order":
        for i in range(len(orbit_sets)):
            for j in range(i + 1, len(orbit_sets)):
                if orbit_sets[i] & orbit_sets[j]:
                    fail(f"periodic orbits {i} and {j} intersect")
    if cert["rigorous"] and not all(r["rigorous"] for r in reports):
        fail("rigorous certificate with non-rigorous member evidence")
    quotient = cert.get("quotient")
    if quotient is not None:
        inner = quotient["inner"]
        problems += check_family(inner, inner["matrix"], count, where + "/quotient")
    return problems


def check_non_expansivity(cert, matrix, count):
    problems = []
    if cert["branch"] != "infinitely_many_orbits":
        problems.append(f"branch {cert['branch']!r} for a matrix of infinite order")
        return problems
    if has_finite_order(matrix):
        problems.append("matrix has finite order")
    problems += check_family(cert["family"], matrix, count)
    conv = cert["converges_to_full"]
    if conv != [True] * count:
        problems.append("every member must converge to the full torus")
    iso = cert.get("isolation")
    if cert["rigorous"]:
        if not cert["family"]["rigorous"]:
            problems.append("rigorous certificate around a non-rigorous family")
        if iso is None or Fraction(iso["bound_exact"]) <= 0:
            problems.append("rigorous certificate without a positive isolation bound")
    return problems


def window_steps(cert) -> int:
    """Sum of window radii over every orbit report the certificate holds,
    nested families included.  `verify` recomputes each window by stepping
    the action both ways, so it makes at least twice this many `act` calls."""
    if cert.get("kind") == "non_expansivity":
        return window_steps(cert["family"]) if cert.get("family") else 0
    total = sum(r["window_radius"] for r in cert["orbit_reports"])
    if cert.get("quotient") is not None:
        total += window_steps(cert["quotient"]["inner"])
    return total


def annihilators(cert):
    """Minimal annihilators named by the growth evidence of a certificate."""
    if cert.get("kind") == "non_expansivity":
        return annihilators(cert["family"]) if cert.get("family") else set()
    out = {tuple(r["growth"]["annihilator"]) for r in cert["orbit_reports"] if r.get("growth")}
    if cert.get("quotient") is not None:
        out |= annihilators(cert["quotient"]["inner"])
    return out


def members_kept(cert) -> int:
    if cert.get("kind") == "non_expansivity":
        return members_kept(cert["family"]) if cert.get("family") else 0
    total = len(cert["members"])
    if cert.get("quotient") is not None:
        total += members_kept(cert["quotient"]["inner"])
    return total


# --- other commands ---------------------------------------------------------


def check_group(result, generators, order):
    problems = []
    n = len(generators[0])
    if order is not None:
        if result["status"] != "finite" or result["order"] != order:
            problems.append(f"group status {result['status']}, order {result['order']}; expected {order}")
            return problems
        elements = {tuple(map(tuple, e)) for e in result["elements"]}
        if len(elements) != order:
            problems.append("elements are not distinct")
        for e in elements:
            if sorted(abs(x) for row in e for x in row) != [0] * (n * n - n) + [1] * n or any(
                sum(abs(x) for x in row) != 1 for row in e
            ) or any(sum(abs(row[j]) for row in e) != 1 for j in range(n)):
                problems.append("an element is not a signed permutation matrix")
                break
        return problems
    if result["status"] != "infinite":
        problems.append(f"group status {result['status']}, expected infinite")
        return problems
    witness = result["witness"]
    if has_finite_order(witness):
        problems.append("the infinite-order witness W has W^L = I")
    return problems


def check_classify(result, matrix):
    problems = []
    finite = has_finite_order(matrix)
    if result["distal_on_subp"] != finite:
        problems.append(f"distal_on_subp is {result['distal_on_subp']} but T^L = I is {finite}")
    order = result["order"]
    if finite:
        n = len(matrix)
        if not isinstance(order, int) or mat_pow(matrix, order) != identity(n) or any(
            mat_pow(matrix, d) == identity(n) for d in range(1, order) if order % d == 0
        ):
            problems.append(f"order {order} is not the order of T")
    elif order != "infinite":
        problems.append(f"order {order} for a matrix of infinite order")
    return problems


def check_isolation(result, subtorus):
    problems = []
    if result["subtorus"] != subtorus:
        problems.append("isolation report is for another subtorus")
    if Fraction(result["bound_exact"]) <= 0:
        problems.append("isolation bound is not positive")
    if result["nearest"] == subtorus:
        problems.append("the nearest subtorus is the subtorus itself")
    return problems


def interval(result):
    v, e = Fraction(result["value_exact"]), Fraction(result["error_bound_exact"])
    return v - e, v + e


def check_distances(results):
    """`results` maps AB, BA, AA, BC and AC to distance reports.  The true
    distances lie in the intervals, so d(A,B) and d(B,A) intervals meet,
    d(A,A)'s interval holds 0, and d(A,C) <= d(A,B) + d(B,C) within the
    error bounds."""
    problems = []
    ab, ba, aa, bc, ac = (interval(results[k]) for k in ("AB", "BA", "AA", "BC", "AC"))
    if ab[0] > ba[1] or ba[0] > ab[1]:
        problems.append("d(A,B) and d(B,A) intervals are disjoint")
    if not aa[0] <= 0 <= aa[1]:
        problems.append("d(A,A) interval does not contain 0")
    if ac[0] > ab[1] + bc[1]:
        problems.append("triangle inequality fails for d(A,C)")
    return problems
