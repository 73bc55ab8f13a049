"""Exact integer polynomial arithmetic, cyclotomic polynomials and root-of-unity tests.

Polynomials are tuples of integer coefficients in ascending degree order;
the empty tuple is the zero polynomial.  Everything here is exact: no
floating point is used anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def normalize(coeffs) -> Poly:
    """Drop trailing zero coefficients and return a tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    """Degree of p; the zero polynomial has degree -1."""
    return len(p) - 1


def leading(p: Poly) -> int:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return normalize(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p: Poly) -> Poly:
    return tuple(-a for a in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return normalize(out)


def scale(p: Poly, c: int) -> Poly:
    if c == 0:
        return ZERO
    return tuple(c * a for a in p)


def divmod_exact(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Division with remainder over the integers.

    Requires the leading coefficient of d to be a unit (+-1), so the
    quotient stays integral.
    """
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    lead = d[-1]
    if lead not in (1, -1):
        raise ValueError("divisor must have unit leading coefficient")
    rem = list(p)
    quo = [0] * max(0, len(p) - len(d) + 1)
    dd = len(d) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c * lead  # lead is +-1 so this is exact
        quo[i - dd] = q
        for j, b in enumerate(d):
            rem[i - dd + j] -= q * b
    return normalize(quo), normalize(rem)


def divides(d: Poly, p: Poly) -> bool:
    if not p:
        return True
    if not d or degree(d) > degree(p):
        return False
    _, r = divmod_exact(p, d)
    return r == ZERO


def content(p: Poly) -> int:
    g = 0
    for a in p:
        g = gcd(g, a)
    return g


def primitive_part(p: Poly) -> Poly:
    """Divide by the content and make the leading coefficient positive."""
    if not p:
        return ZERO
    g = content(p)
    q = tuple(a // g for a in p)
    if q[-1] < 0:
        q = neg(q)
    return q


def monic_normalize(p: Poly) -> Poly:
    """Flip the sign so the leading coefficient is +1; reject non-unit leads."""
    if not p:
        raise ValueError("zero polynomial")
    if p[-1] == 1:
        return p
    if p[-1] == -1:
        return neg(p)
    raise ValueError("polynomial is not monic up to sign")


def is_monic_up_to_sign(p: Poly) -> bool:
    return bool(p) and p[-1] in (1, -1)


def reciprocal(p: Poly) -> Poly:
    """Reversed-coefficient polynomial x^deg * p(1/x)."""
    return normalize(reversed(p))


def power_poly(p: Poly, e: int) -> Poly:
    out = ONE
    for _ in range(e):
        out = mul(out, p)
    return out


def _power_sums(p: Poly, count: int) -> list[int]:
    """[s_0, s_1, ..., s_count] with s_k the sum of the k-th powers of the
    roots of the monic p, by the Newton recurrence."""
    d = len(p) - 1
    s = [d]
    for k in range(1, count + 1):
        acc = k * p[d - k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += p[d - i] * s[k - i]
        s.append(-acc)
    return s


def _poly_from_power_sums(sums: list[int]) -> Poly:
    """Monic polynomial of degree len(sums) whose roots have the power sums
    sums[0], sums[1], ... (s_1, s_2, ...), by Newton's identities."""
    d = len(sums)
    c = [0] * d + [1]
    for k in range(1, d + 1):
        acc = sums[k - 1] + sum(c[d - i] * sums[k - i - 1] for i in range(1, k))
        if acc % k:
            raise AssertionError("Newton identity division must be exact")
        c[d - k] = -(acc // k)
    return tuple(c)


def _require_monic(p: Poly) -> None:
    if not p or p[-1] != 1:
        raise ValueError("polynomial must be monic")


def root_power_poly(p: Poly, q: int) -> Poly:
    """Monic polynomial whose roots are the q-th powers of the roots of the
    monic p, with multiplicity: the characteristic polynomial of C^q for the
    companion matrix C of p."""
    _require_monic(p)
    if q < 1:
        raise ValueError("root power must be >= 1")
    d = len(p) - 1
    s = _power_sums(p, d * q)
    return _poly_from_power_sums([s[j * q] for j in range(1, d + 1)])


def exterior_square_poly(p: Poly) -> Poly:
    """Monic polynomial whose roots are the products r_i r_j (i < j) of the
    roots of the monic p: the characteristic polynomial of the second
    compound of the companion matrix of p."""
    _require_monic(p)
    d = len(p) - 1
    big = d * (d - 1) // 2
    s = _power_sums(p, 2 * big)
    pair_sums = []
    for k in range(1, big + 1):
        twice = s[k] * s[k] - s[2 * k]
        if twice % 2:
            raise AssertionError("pair power sums must be integers")
        pair_sums.append(twice // 2)
    return _poly_from_power_sums(pair_sums)


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    if m < 1:
        raise ValueError("totient needs m >= 1")
    result = m
    n = m
    f = 2
    while f * f <= n:
        if n % f == 0:
            while n % f == 0:
                n //= f
            result -= result // f
        f += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> Poly:
    """The m-th cyclotomic polynomial, ascending coefficients."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if m == 1:
        return (-1, 1)
    # x^m - 1 divided by the product of lower-order cyclotomics
    p: Poly = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            q, r = divmod_exact(p, cyclotomic(d))
            assert r == ZERO
            p = q
    return p


def orders_with_totient_at_most(n: int) -> list[int]:
    """All m with totient(m) <= n. Uses totient(m) >= sqrt(m/2)."""
    bound = 2 * n * n + 1
    return [m for m in range(1, bound + 1) if totient(m) <= n]


def strip_cyclotomic_factors(p: Poly) -> tuple[list[int], Poly]:
    """Divide out every cyclotomic factor, with multiplicity.

    Returns the multiset of cyclotomic orders removed and the remaining
    cofactor (monic, cyclotomic-free).
    """
    q = monic_normalize(p)
    orders: list[int] = []
    for m in orders_with_totient_at_most(degree(q)):
        phi = cyclotomic(m)
        while degree(q) >= degree(phi) and divides(phi, q):
            q, _ = divmod_exact(q, phi)
            orders.append(m)
        if degree(q) == 0:
            break
    return sorted(orders), q


def cyclotomic_orders_if_product(p: Poly) -> list[int] | None:
    """Orders [m1, m2, ...] with p = +-prod cyclotomic(mi), else None."""
    orders, rest = strip_cyclotomic_factors(p)
    return orders if rest == ONE else None


def distinct_cyclotomic_divisors(p: Poly) -> list[int]:
    """Distinct orders m with cyclotomic(m) dividing p."""
    q = monic_normalize(p)
    return [
        m
        for m in orders_with_totient_at_most(degree(q))
        if degree(q) >= totient(m) and divides(cyclotomic(m), q)
    ]


def is_squarefree_product_of_cyclotomics(p: Poly) -> bool:
    """True iff p is +- a product of distinct cyclotomic polynomials."""
    q = monic_normalize(p)
    for m in orders_with_totient_at_most(degree(q)):
        phi = cyclotomic(m)
        if degree(q) >= degree(phi) and divides(phi, q):
            q, _ = divmod_exact(q, phi)
            if divides(phi, q):
                return False
    return q == ONE


def rational_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q, as primitive integer polynomials.

    Input must be monic up to sign with degree >= 1.  Each factor is
    returned with a positive leading coefficient together with its
    multiplicity; the product of all factors reproduces p up to sign.
    """
    if degree(p) < 1:
        raise ValueError("need degree >= 1")
    if not is_monic_up_to_sign(p):
        raise ValueError("polynomial must be monic up to sign")
    from sympy import Poly as SymPoly, Symbol, ZZ

    x = Symbol("x")
    sp = SymPoly(list(reversed(p)), x, domain=ZZ)
    _, factors = sp.factor_list()
    out: list[tuple[Poly, int]] = []
    for f, e in factors:
        coeffs = normalize(reversed([int(c) for c in f.all_coeffs()]))
        out.append((primitive_part(coeffs), int(e)))
    out.sort(key=lambda fe: (degree(fe[0]), fe[0]))
    check = ONE
    for f, e in out:
        check = mul(check, power_poly(f, e))
    if check != monic_normalize(p):
        raise AssertionError("factorization does not reproduce the input")
    return out


def is_irreducible(p: Poly) -> bool:
    facts = rational_factors(p)
    return len(facts) == 1 and facts[0][1] == 1
