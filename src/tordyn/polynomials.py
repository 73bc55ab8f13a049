"""Exact integer polynomial arithmetic, cyclotomic polynomials and root-of-unity tests.

Polynomials are tuples of integer coefficients in ascending degree order;
the empty tuple is the zero polynomial.  Everything here is exact: no
floating point is used anywhere.  Factorization over Q is Zassenhaus's
algorithm (factors mod a small prime, Hensel lifting, recombination), with
no computer algebra library.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt

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


def is_squarefree_product_of_cyclotomics(p: Poly) -> bool:
    """True iff p is +- a product of distinct cyclotomic polynomials."""
    orders = cyclotomic_orders_if_product(p)
    return orders is not None and len(set(orders)) == len(orders)


def _derivative(p: Poly) -> Poly:
    return normalize(i * a for i, a in enumerate(p) if i)


def _pseudo_remainder(a: Poly, b: Poly) -> Poly:
    """lead(b)^(deg a - deg b + 1) * a  mod  b, in integers."""
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        rem = [lead * x for x in rem]
        for j, x in enumerate(b):
            rem[i - db + j] -= c * x
        rem.pop()
    return normalize(rem)


def _integer_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd, with positive leading coefficient, of two integer
    polynomials that are not both zero (primitive remainder sequence)."""
    a, b = primitive_part(a), primitive_part(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive_part(_pseudo_remainder(a, b))
    return a if len(a) > 1 else ONE


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: the squarefree, pairwise coprime a_i of degree >= 1
    with f = prod a_i^i, for a monic integer f.  Each gcd divides a monic
    polynomial, so it is monic and every division is exact."""
    out = []
    df = _derivative(f)
    a = _integer_gcd(f, df)
    b = divmod_exact(f, a)[0]
    c = divmod_exact(df, a)[0]
    i = 1
    while len(b) > 1:
        d = sub(c, _derivative(b))
        a = _integer_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = divmod_exact(b, a)[0]
        c = divmod_exact(d, a)[0]
        i += 1
    return out


# Polynomials modulo m: lists of residues in [0, m), ascending, without
# trailing zeros.  Division needs an invertible leading coefficient, and
# the gcd routines need m prime.


def _reduce(a, m: int) -> list[int]:
    r = [x % m for x in a]
    while r and r[-1] == 0:
        r.pop()
    return r


def _combine(a, b, sign: int = 1) -> list[int]:
    """a + sign * b, coefficientwise, unreduced."""
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(n)]


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    quo = [0] * max(0, len(a) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % m
        if c:
            quo[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] -= c * y
    return _reduce(quo, m), _reduce(rem[:db], m)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod the prime p, for a nonzero a."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _bezout_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 mod the prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_combine(s0, _mul_mod(q, s1, p), -1), p)
        t0, t1 = t1, _reduce(_combine(t0, _mul_mod(q, t1, p), -1), p)
    inv = pow(r0[0], -1, p)  # r0 is the nonzero constant gcd
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def _pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod (f, p)."""
    out = [1]
    base = _divmod_mod(base, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
    return out


def _distinct_degree_mod(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of a monic squarefree f mod the prime p:
    pairs (product of the irreducible factors of degree d, d)."""
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _pow_mod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd_mod(f, _reduce(_combine(h, [0, 1], -1), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_mod(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: the irreducible factors of a monic squarefree f mod
    an odd prime p, all of whose irreducible factors have degree d."""
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _reduce([rng.randrange(p) for _ in range(len(f) - 1)], p)
        if len(a) < 2:
            continue
        b = _reduce(_combine(_pow_mod(a, e, f, p), [1], -1), p)
        g = _gcd_mod(f, b, p)
        if 1 < len(g) < len(f):
            return (_equal_degree_mod(g, d, p, rng)
                    + _equal_degree_mod(_divmod_mod(f, g, p)[0], d, p, rng))


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Monic factors mod p^k, with product f mod p^k, lifted from the
    pairwise coprime monic factors mod p of the monic f.  The list is split
    in halves, each half's product is lifted one power of p at a time, and
    then each half is lifted against its product."""
    if len(factors) == 1:
        return [_reduce(f, p**k)]
    half = len(factors) // 2
    g0 = h0 = [1]
    for a in factors[:half]:
        g0 = _mul_mod(g0, a, p)
    for a in factors[half:]:
        h0 = _mul_mod(h0, a, p)
    s, t = _bezout_mod(g0, h0, p)
    g, h, pj = g0, h0, p
    for _ in range(k - 1):
        # f = g h + pj e mod pj p; a h + b g = e mod p keeps g and h monic
        e = [x // pj for x in _reduce(_combine(f, _mul_mod(g, h, pj * p), -1), pj * p)]
        q, a = _divmod_mod(_mul_mod(t, e, p), g0, p)
        b = _reduce(_combine(_mul_mod(s, e, p), _mul_mod(q, h0, p)), p)
        g = _combine(g, [pj * x for x in a])
        h = _combine(h, [pj * x for x in b])
        pj *= p
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _recombine(f: Poly, lifted: list[list[int]], modulus: int) -> list[Poly]:
    """The irreducible factors of the monic squarefree f from its monic
    factors mod a modulus above twice its factors' coefficient bound: the
    product of each subset, in increasing size, in symmetric representation,
    is tried as a divisor."""
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [1]
            for i in subset:
                g = _mul_mod(g, lifted[i], modulus)
            cand = tuple(c - modulus if 2 * c > modulus else c for c in g)
            if f[0] and (cand[0] == 0 or f[0] % cand[0]):
                continue
            quo, rem = divmod_exact(f, cand)
            if rem == ZERO:
                found.append(cand)
                f = quo
                lifted = [a for i, a in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found.append(f)
    return found


def _odd_primes():
    p = 3
    while True:
        if all(p % k for k in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _irreducible_factors(f: Poly) -> list[Poly]:
    """Zassenhaus: the monic irreducible factors over Q of a monic squarefree
    integer f.  Among the first five odd primes that keep f squarefree, the
    one with the fewest factors is used; a prime with one proves f
    irreducible."""
    n = len(f) - 1
    if n == 1:
        return [f]
    best = None
    good = 0
    for p in _odd_primes():
        fp = _reduce(f, p)
        if len(_gcd_mod(fp, _reduce(_derivative(f), p), p)) > 1:
            continue
        ddf = _distinct_degree_mod(fp, p)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ddf)
        good += 1
        if good == 5:
            break
    _, p, ddf = best
    rng = random.Random(0)
    modular = [h for g, d in ddf for h in _equal_degree_mod(g, d, p, rng)]
    # Mignotte: a monic factor of f has sup norm at most 2^n |f|_2
    bound = 2**n * (isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p**k <= 2 * bound:
        k += 1
    return _recombine(f, _hensel_lift(list(f), modular, p, k), p**k)


def sorted_factors(factors) -> list[tuple[Poly, int]]:
    """(factor, multiplicity) pairs in the order rational_factors returns
    them: by degree, then by coefficients."""
    return sorted(factors, key=lambda fe: (degree(fe[0]), fe[0]))


def rational_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q, as primitive integer polynomials.

    Input must be monic up to sign with degree >= 1.  Each factor is
    returned with a positive leading coefficient together with its
    multiplicity; the product of all factors reproduces p up to sign.
    The factors come from Yun's squarefree decomposition and Zassenhaus's
    algorithm on each squarefree part.
    """
    if degree(p) < 1:
        raise ValueError("need degree >= 1")
    if not is_monic_up_to_sign(p):
        raise ValueError("polynomial must be monic up to sign")
    out = sorted_factors((f, e) for a, e in squarefree_decomposition(monic_normalize(p))
                         for f in _irreducible_factors(a))
    check = ONE
    for f, e in out:
        check = mul(check, power_poly(f, e))
    if check != monic_normalize(p):
        raise AssertionError("factorization does not reproduce the input")
    return out
