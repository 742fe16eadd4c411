"""Dense univariate polynomial arithmetic over F_p, and the roots of a
polynomial in F_p.

Polynomials are python lists of residues, lowest degree first, with no
trailing zeros.  The roots are those of the gcd with t^p - t, split by
Cantor-Zassenhaus, which needs p odd; FieldSpec already guarantees that.
The splits draw from a fixed stream, and the roots come out sorted, so the
answer is deterministic.

pow_mod, where both root steps spend their time, packs a polynomial of
degree below 2d = 2 deg(modulus) into one python int, a W-bit slot per
coefficient, W the bit length of 2d(p-1)^2.  A product of reduced
polynomials is one int multiply with slots below d(p-1)^2; folding slots
d..2d-2 back through the packed x^(d+k) mod the modulus adds below
(d-1)(p-1)^2, so no slot carries.  Near p = 2^31 a slot passes 64 bits:
this module stays on python ints, never numpy.
"""

from __future__ import annotations

from .rng import Stream


def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list) -> int:
    return len(f) - 1


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


def divmod_poly(f: list, g: list, p: int):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = 1 if g[-1] == 1 else pow(g[-1], p - 2, p)
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
    """f scaled to leading coefficient 1; f itself when it has that."""
    if not f or f[-1] == 1:
        return f
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f: list, g: list, p: int) -> list:
    # every divisor is monic, so divmod_poly inverts nothing
    a, b = list(f), monic(g, p)
    while b:
        a, b = b, monic(mod_poly(a, b, p), p)
    return monic(a, p)


def pow_mod(base: list, e: int, modulus: list, p: int) -> list:
    """base^e mod modulus, e as large as p^d, on packed ints."""
    b = mod_poly(base, modulus, p)
    d = deg(modulus)
    if not e or d < 1:
        return [] if e else [1]
    w = (2 * d * (p - 1) ** 2).bit_length()
    slot = (1 << w) - 1
    shifts = range(0, d * w, w)
    low = (1 << d * w) - 1
    # x^(d+k) mod modulus for k = 0..d-2, each by one step from the last
    top = scale(modulus[:-1], -pow(modulus[-1], p - 2, p), p)
    rows = [top]
    while len(rows) < d - 1:
        r = rows[-1]
        rows.append([(a + r[-1] * c) % p for a, c in zip([0] + r[:-1], top)])
    folds = [sum([c << s for c, s in zip(r, shifts)]) for r in rows]

    def reduce(t: int) -> int:
        high = t >> d * w
        t &= low
        for f in folds:
            t += (high & slot) % p * f
            high >>= w
        return sum([((t >> s) & slot) % p << s for s in shifts])

    a = packed = sum([c % p << s for c, s in zip(b, shifts)])
    for bit in bin(e)[3:]:
        a = reduce(a * a)
        if bit == "1":
            a = reduce(a * packed)
    return trim([(a >> s) & slot for s in shifts])


def _split_roots(f: list, p: int, rng) -> list:
    """One random proper factor of f, a product of distinct linear factors
    of degree above 1: gcd(a, f) or gcd(a^((p-1)/2) - 1, f)."""
    n = deg(f)
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if deg(a) < 1:
            continue
        g = gcd(a, f, p)
        if 0 < deg(g) < n:
            return g
        g = gcd(sub(pow_mod(a, (p - 1) // 2, f, p), [1], p), f, p)
        if 0 < deg(g) < n:
            return g


def roots(f: list, p: int) -> list:
    """All roots in F_p, without multiplicity, sorted.  The splits draw
    from a fixed stream; the sorted output cannot depend on it."""
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
    rng = Stream(0)
    while stack:
        h = stack.pop()
        if deg(h) == 1:
            out.append(-h[0] % p)  # h is monic
            continue
        s = _split_roots(h, p, rng)
        stack.append(s)
        stack.append(divmod_poly(h, s, p)[0])
    return sorted(out)
