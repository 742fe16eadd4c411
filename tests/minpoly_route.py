"""The minimal-polynomial route to locality, kept as the oracle of the
Frobenius route in qfiber.zerodim.

Each algebra's variables get their minimal polynomials (a Krylov sequence
on the unit); at_origin holds when each is a power of t; the nilpotent
parts are X_v - h_v(X_v), h_v the semisimple polynomial found by Newton
iteration on the squarefree part; and an algebra is split by random
linear forms, a piece being accepted only when its residue dimension is 1
or a form's squarefree minimal polynomial is irreducible of that degree.
Squarefree parts need dim < p.  The univariate helpers (squarefree part,
distinct- and equal-degree factorization, the irreducibility test) are
the ones the route used.  So are the schoolbook product `mul` and the
list-based square-and-multiply `pow_mod`, which stay here as the oracle
of the packed qfiber.univar.pow_mod.
"""

import numpy as np

from qfiber import univar as uv
from qfiber.linalg import identity, mat_mul, rank, rref
from qfiber.zerodim import minpoly_of_vector

# --- univariate helpers ------------------------------------------------------


def add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return uv.trim(out)


def mul(f, g, p):
    """Schoolbook product; python ints hold every partial sum exactly."""
    if not f or not g:
        return []
    n = len(g)
    out = [0] * (len(f) + n - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + n] = [c + a * b for c, b in zip(out[i:i + n], g)]
    return uv.trim([c % p for c in out])


def pow_mod(base, e, modulus, p):
    """base^e mod modulus by right-to-left square-and-multiply on lists."""
    out = [1]
    b = uv.mod_poly(base, modulus, p)
    while e:
        if e & 1:
            out = uv.mod_poly(mul(out, b, p), modulus, p)
        e >>= 1
        if e:
            b = uv.mod_poly(mul(b, b, p), modulus, p)
    return out


def derivative(f, p):
    return uv.trim([c * i % p for i, c in enumerate(f)][1:])


def squarefree_part(f, p):
    """Radical of f; valid whenever deg f < p (no p-th power factors)."""
    f = uv.monic(f, p)
    if uv.deg(f) <= 1:
        return f
    if uv.deg(f) >= p:
        raise ValueError("squarefree part needs deg f < p")
    g = uv.gcd(f, derivative(f, p), p)
    return uv.divmod_poly(f, g, p)[0]


def distinct_degree(f, p):
    """Split squarefree monic f into [(d, product of degree-d factors)]."""
    out = []
    x = [0, 1]
    h = list(x)
    rest = list(f)
    d = 0
    while uv.deg(rest) > 0:
        d += 1
        if 2 * d > uv.deg(rest):
            out.append((uv.deg(rest), rest))
            break
        h = pow_mod(h, p, rest, p)
        g = uv.gcd(uv.sub(h, x, p), rest, p)
        if uv.deg(g) > 0:
            out.append((d, g))
            rest = uv.divmod_poly(rest, g, p)[0]
            h = uv.mod_poly(h, rest, p)
    return out


def equal_degree_split(f, d, p, rng):
    """One random split of f = product of degree-d irreducibles, deg f > d."""
    n = uv.deg(f)
    while True:
        a = uv.trim([rng.randrange(p) for _ in range(n)])
        if uv.deg(a) < 1:
            continue
        g = uv.gcd(a, f, p)
        if 0 < uv.deg(g) < n:
            return g
        b = pow_mod(a, (pow(p, d) - 1) // 2, f, p)
        g = uv.gcd(uv.sub(b, [1], p), f, p)
        if 0 < uv.deg(g) < n:
            return g


def factor_squarefree(f, p, rng):
    """Monic irreducible factors of a squarefree monic f, sorted."""
    factors = []
    for d, block in distinct_degree(uv.monic(f, p), p):
        stack = [block]
        while stack:
            g = stack.pop()
            if uv.deg(g) == d:
                factors.append(uv.monic(g, p))
                continue
            h = equal_degree_split(g, d, p, rng)
            stack.append(h)
            stack.append(uv.divmod_poly(g, h, p)[0])
    factors.sort()
    return factors


def is_irreducible(f, p):
    f = uv.monic(f, p)
    n = uv.deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    if uv.sub(pow_mod(x, pow(p, n), f, p), x, p):
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
        if uv.deg(uv.gcd(uv.sub(h, x, p), f, p)) > 0:
            return False
    return True


# --- polynomials of matrices -------------------------------------------------


def eval_matrix_poly(coeffs, M, p):
    """Horner evaluation of a univariate polynomial at a square matrix."""
    d = M.shape[0]
    out = np.zeros((d, d), dtype=np.int64)
    for c in reversed(coeffs):
        out = mat_mul(out, M, p)
        if c % p:
            out = (out + (c % p) * identity(d)) % p
    return out


def linear_form(coeffs, mats, p):
    """The matrix sum_v c_v X_v of a linear form on commuting matrices."""
    out = np.zeros(mats[0].shape, dtype=np.int64)
    for c, X in zip(coeffs, mats):
        if c % p:
            out = (out + (c % p) * np.asarray(X, dtype=np.int64)) % p
    return out


def inv_mod(f, modulus, p):
    """Inverse of f modulo a univariate polynomial, via extended euclid."""
    r0, r1 = list(modulus), uv.mod_poly(f, modulus, p)
    s0, s1 = [], [1]
    while r1:
        q, r = uv.divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, uv.sub(s0, mul(q, s1, p), p)
    if uv.deg(r0) != 0:
        raise ValueError("element is not invertible modulo the given "
                         "polynomial")
    c = pow(r0[0], p - 2, p)
    return uv.mod_poly(uv.scale(s0, c, p), modulus, p)


def compose_mod(f, g, modulus, p):
    """f(g) mod modulus by Horner."""
    out = []
    for c in reversed(f):
        out = uv.mod_poly(mul(out, g, p), modulus, p)
        if c:
            out = add(out, [c], p)
    return out


def semisimple_poly(minpoly, p):
    """Polynomial h with h(T) the semisimple part of T mod the minimal poly.

    Newton iteration on the squarefree part f: t <- t - f(t)/f'(t), carried
    out in F_p[T]/(minpoly); converges quadratically in the multiplicity.
    """
    f = squarefree_part(minpoly, p)
    if uv.deg(f) == uv.deg(minpoly):
        return [0, 1]  # already semisimple
    df = derivative(f, p)
    t = [0, 1]
    for _ in range(max(1, uv.deg(minpoly)).bit_length() + 1):
        ft = compose_mod(f, t, minpoly, p)
        if not ft:
            break
        dft = compose_mod(df, t, minpoly, p)
        t = uv.sub(t, uv.mod_poly(mul(ft, inv_mod(dft, minpoly, p), p),
                                  minpoly, p), p)
    if compose_mod(f, t, minpoly, p):
        raise RuntimeError("newton iteration failed to converge")
    return t


# --- the route on an algebra -------------------------------------------------


def minimal_polynomials(alg):
    """The minimal polynomial of each X_v, from its Krylov sequence on the
    unit (the algebra is a faithful cyclic module over itself)."""
    return [minpoly_of_vector(X, alg.one, alg.p) for X in alg.actions()]


def nilpotent_parts(alg, mats):
    """X_v - h_v(X_v) on the matrices of a module, h_v the semisimple
    polynomial of x_v's minimal polynomial."""
    p = alg.p
    return [np.mod(Y - eval_matrix_poly(semisimple_poly(mp, p), Y, p), p)
            for Y, mp in zip(mats, minimal_polynomials(alg))]


# random forms one piece may draw before the split gives up on it
DRAWS = 64


def decompose(alg, stream):
    """The local factors of the algebra by random linear forms, as
    (length, projector E, point, residue degree) in the order
    (length, E*1)."""
    acts, p = alg.actions(), alg.p
    out = []
    _decompose_into(acts, nilpotent_parts(alg, acts), alg.one, p, stream,
                    (), out)
    factors = []
    for length, chain, point, r in out:
        E = identity(alg.dim)
        for coeffs, upoly in chain:
            L = linear_form(coeffs, acts, p)
            E = mat_mul(E, eval_matrix_poly(list(upoly), L, p), p)
        factors.append((length, E, point, r))
    return sorted(factors, key=lambda f: (f[0], mat_mul(f[1], alg.one,
                                                        p).tolist()))


def _decompose_into(actions, nils, one, p, stream, chain, out):
    dim = len(one)
    r = dim - rank(np.vstack([N.T for N in nils]), p)
    if r == 1:
        inv = pow(dim, p - 2, p)
        point = tuple(int(np.trace(X)) * inv % p for X in actions)
        out.append((dim, chain, point, 1))
        return
    for _ in range(DRAWS):
        coeffs = tuple(stream.randrange(p) for _ in actions)
        L = linear_form(coeffs, actions, p)
        mp = minpoly_of_vector(L, one, p)
        red = squarefree_part(mp, p)
        if is_irreducible(red, p):
            if uv.deg(red) == r:
                out.append((dim, chain, None, r))
                return
            continue
        for branch, q in enumerate(factor_squarefree(red, p, stream)):
            # idempotent of the q-primary part: cof * (cof^-1 mod q^e)
            # mod mp, with q^e the largest power of q dividing mp
            qe = q
            while not uv.divmod_poly(mp, mul(qe, q, p), p)[1]:
                qe = mul(qe, q, p)
            cof = uv.divmod_poly(mp, qe, p)[0]
            u = uv.mod_poly(mul(cof, inv_mod(cof, qe, p), p), mp, p)
            E = eval_matrix_poly(u, L, p)
            # the factor is the image of E, in the rref basis B of its
            # columns, where a vector's coordinates are its pivot entries
            B, piv = rref(E.T, p)
            acts, parts = ([mat_mul(X, B[:len(piv)].T, p)[piv] for X in mats]
                           for mats in (actions, nils))
            _decompose_into(acts, parts, mat_mul(E, one, p)[piv], p,
                            stream.fork(branch),
                            chain + ((coeffs, tuple(u)),), out)
        return
    raise RuntimeError("no random linear form split or certified "
                       "a local factor")
