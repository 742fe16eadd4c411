"""Dense univariate polynomial arithmetic and factorization over F_p.

Polynomials are python lists of residues, lowest degree first, with no
trailing zeros.  Factorization is squarefree / distinct-degree /
equal-degree (Cantor-Zassenhaus), which needs p odd; FieldSpec already
guarantees that.  Minimal-polynomial callers also keep deg f < p, so the
squarefree step never meets a vanishing derivative.
"""

from __future__ import annotations


def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list) -> int:
    return len(f) - 1


def add(f: list, g: list, p: int) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(f: list, g: list, p: int) -> list:
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def scale(f: list, c: int, p: int) -> list:
    c %= p
    if c == 0:
        return []
    return [a * c % p for a in f]


def mul(f: list, g: list, p: int) -> list:
    """Schoolbook product; python ints hold every partial sum exactly."""
    if not f or not g:
        return []
    n = len(g)
    out = [0] * (len(f) + n - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + n] = [c + a * b for c, b in zip(out[i:i + n], g)]
    return trim([c % p for c in out])


def divmod_poly(f: list, g: list, p: int):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], p - 2, p)
    for i in range(len(f) - len(g), -1, -1):
        c = r[i + len(g) - 1] * inv % p
        if c:
            q[i] = c
            for j, gc in enumerate(g):
                r[i + j] = (r[i + j] - c * gc) % p
    return trim(q), trim(r)


def mod_poly(f: list, g: list, p: int) -> list:
    return divmod_poly(f, g, p)[1]


def monic(f: list, p: int) -> list:
    if not f:
        return f
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f: list, g: list, p: int) -> list:
    a, b = list(f), list(g)
    while b:
        a, b = b, mod_poly(a, b, p)
    return monic(a, p)


def pow_mod(base: list, e: int, modulus: list, p: int) -> list:
    """base^e mod modulus; e may be huge (p^d sized)."""
    out = [1]
    b = mod_poly(base, modulus, p)
    while e:
        if e & 1:
            out = mod_poly(mul(out, b, p), modulus, p)
        e >>= 1
        if e:
            b = mod_poly(mul(b, b, p), modulus, p)
    return out


def derivative(f: list, p: int) -> list:
    return trim([c * i % p for i, c in enumerate(f)][1:])


def squarefree_part(f: list, p: int) -> list:
    """Radical of f; valid whenever deg f < p (no p-th power factors)."""
    f = monic(f, p)
    if deg(f) <= 1:
        return f
    if deg(f) >= p:
        raise ValueError("squarefree part needs deg f < p")
    d = derivative(f, p)
    if not d:
        raise ValueError("vanishing derivative with deg f < p cannot happen")
    g = gcd(f, d, p)
    return divmod_poly(f, g, p)[0]


def distinct_degree(f: list, p: int) -> list:
    """Split squarefree monic f into [(d, product of degree-d factors)]."""
    out = []
    x = [0, 1]
    h = list(x)
    rest = list(f)
    d = 0
    while deg(rest) > 0:
        d += 1
        if 2 * d > deg(rest):
            out.append((deg(rest), rest))
            break
        h = pow_mod(h, p, rest, p)
        g = gcd(sub(h, x, p), rest, p)
        if deg(g) > 0:
            out.append((d, g))
            rest = divmod_poly(rest, g, p)[0]
            h = mod_poly(h, rest, p)
    return out


def _equal_degree_split(f: list, d: int, p: int, rng) -> list:
    """One random split of f = product of degree-d irreducibles, deg f > d."""
    n = deg(f)
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = trim(a)
        if deg(a) < 1:
            continue
        g = gcd(a, f, p)
        if 0 < deg(g) < n:
            return g
        b = pow_mod(a, (pow(p, d) - 1) // 2, f, p)
        g = gcd(sub(b, [1], p), f, p)
        if 0 < deg(g) < n:
            return g


def factor_squarefree(f: list, p: int, rng) -> list:
    """Monic irreducible factors of a squarefree monic f, sorted."""
    factors = []
    for d, block in distinct_degree(monic(f, p), p):
        stack = [block]
        while stack:
            g = stack.pop()
            if deg(g) == d:
                factors.append(monic(g, p))
                continue
            h = _equal_degree_split(g, d, p, rng)
            stack.append(h)
            stack.append(divmod_poly(g, h, p)[0])
    factors.sort()
    return factors


def is_irreducible(f: list, p: int) -> bool:
    f = monic(f, p)
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    h = pow_mod(x, pow(p, n), f, p)
    if sub(h, x, p):
        return False
    # x^(p^(n/q)) - x must be coprime to f for every prime q | n
    m, q = n, 2
    primes = set()
    while q * q <= m:
        while m % q == 0:
            primes.add(q)
            m //= q
        q += 1
    if m > 1:
        primes.add(m)
    for q in sorted(primes):
        h = pow_mod(x, pow(p, n // q), f, p)
        if deg(gcd(sub(h, x, p), f, p)) > 0:
            return False
    return True


def roots(f: list, p: int, rng) -> list:
    """All roots in F_p, without multiplicity, sorted."""
    f = monic(f, p)
    if deg(f) < 1:
        return []
    x = [0, 1]
    xp = pow_mod(x, p, f, p)
    g = gcd(sub(xp, x, p), f, p)
    if deg(g) == 0:
        return []
    out = []
    stack = [g]
    while stack:
        h = stack.pop()
        if deg(h) == 1:
            out.append((-h[0]) * pow(h[1], p - 2, p) % p)
            continue
        s = _equal_degree_split(h, 1, p, rng)
        stack.append(s)
        stack.append(divmod_poly(h, s, p)[0])
    return sorted(out)
