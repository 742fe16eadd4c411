"""Univariate F_p arithmetic and roots, and the factorization helpers of
the minimal-polynomial oracle route (minpoly_route).  The packed pow_mod
is checked against the route's list-based square-and-multiply, and roots
against enumeration of F_p."""

import random

import pytest

from qfiber import univar as uv

import minpoly_route as mr

P = 32003
PRIMES = (3, 5, 7, 101, 32003, 2147483647)


def from_roots(roots, p):
    f = [1]
    for a in roots:
        f = mr.mul(f, [(-a) % p, 1], p)
    return f


class TestArithmetic:
    def test_mul_divmod_roundtrip(self):
        rng = random.Random(3)
        for _ in range(25):
            f = uv.trim([rng.randrange(P) for _ in range(rng.randrange(1, 9))])
            g = uv.trim([rng.randrange(P) for _ in range(rng.randrange(1, 6))])
            if not g:
                continue
            q, r = uv.divmod_poly(f, g, P)
            back = mr.add(mr.mul(q, g, P), r, P)
            assert back == f
            assert uv.deg(r) < uv.deg(g)

    def test_mul_near_the_field_bound(self):
        # residue products near 2^62: every partial sum must stay exact
        p = 2147483629
        rng = random.Random(11)
        for m, n in ((5, 7), (9, 6), (12, 12)):
            f = [rng.randrange(1, p) for _ in range(m)]
            g = [rng.randrange(1, p) for _ in range(n)]
            direct = [sum(f[i] * g[k - i] for i in range(m) if 0 <= k - i < n)
                      % p for k in range(m + n - 1)]
            assert mr.mul(f, g, p) == uv.trim(direct)

    def test_gcd_of_products(self):
        rng = random.Random(5)
        a = from_roots([1, 2, 3], P)
        b = from_roots([3, 4], P)
        g = uv.gcd(a, b, P)
        assert g == from_roots([3], P)

    def test_pow_mod(self):
        f = from_roots([5], 101)  # x - 5
        # x^e mod (x - 5) is the constant 5^e
        h = uv.pow_mod([0, 1], 77, f, 101)
        assert h == [pow(5, 77, 101)]

    def test_pow_mod_edges(self):
        # e = 0 gives [1], a constant modulus leaves nothing for e > 0, and
        # the zero modulus raises before any powering
        assert uv.pow_mod([3, 4], 0, [2, 0, 1], P) == [1]
        assert uv.pow_mod([3, 4], 0, [5], P) == [1]
        assert uv.pow_mod([3, 4], 7, [5], P) == []
        with pytest.raises(ZeroDivisionError):
            uv.pow_mod([3, 4], 0, [], P)
        with pytest.raises(ZeroDivisionError):
            uv.pow_mod([3, 4], 5, [], P)

    @pytest.mark.parametrize("p", PRIMES)
    def test_pow_mod_matches_the_list_oracle(self, p):
        rng = random.Random(p)
        for _ in range(60):
            d = rng.randrange(1, 13)
            lead = 1 if rng.random() < 0.5 else rng.randrange(1, p)
            modulus = [rng.randrange(p) for _ in range(d)] + [lead]
            width = rng.choice([0, d, d + 1, 2 * d + 3])
            base = uv.trim([rng.randrange(p) for _ in range(width)])
            for e in (0, 1, 2, 3, p, (p - 1) // 2, p * p,
                      rng.randrange(p ** 3)):
                assert uv.pow_mod(base, e, modulus, p) == \
                    mr.pow_mod(base, e, modulus, p)

    def test_pow_mod_full_slots(self):
        # every coefficient p - 1 at the largest field and degree 12: each
        # product slot and each fold comes nearest the slot width there
        p = 2147483647
        modulus = [p - 1] * 13
        base = [p - 1] * 12
        for e in (2, 3, p, (p - 1) // 2):
            assert uv.pow_mod(base, e, modulus, p) == \
                mr.pow_mod(base, e, modulus, p)
        monic = [p - 1] * 12 + [1]
        assert uv.pow_mod(base, p, monic, p) == mr.pow_mod(base, p, monic, p)

    def test_eval(self):
        # the remainder of f by x - a is f(a)
        f = [3, 0, 1]  # x^2 + 3
        assert uv.mod_poly(f, [(-10) % P, 1], P) == [103]


class TestFactor:
    def test_squarefree_part(self):
        p = 101
        f = mr.mul(mr.mul(from_roots([3], p), from_roots([3], p), p), from_roots([5], p), p)
        assert mr.squarefree_part(f, p) == from_roots([3, 5], p)

    def test_roots(self):
        wanted = [2, 40, 17, 99]
        f = from_roots(wanted, P)
        assert uv.roots(f, P) == sorted(wanted)
        # a repeated root once, and x^2 + 1 (P = 3 mod 4) adds none
        g = mr.mul(mr.mul(f, from_roots([40, 3], P), P), [1, 0, 1], P)
        assert uv.roots(g, P) == sorted(wanted + [3])
        assert uv.roots(mr.mul(from_roots([1, 1, 2], 3), [1, 0, 1], 3),
                        3) == [1, 2]

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_roots_against_enumeration(self, p):
        # repeated roots, no roots, and random polynomials of every shape
        rng = random.Random(p)
        cases = [from_roots([1, 1, 2, 2, 2], p), [1, 0, 1], [1, 1, 1],
                 mr.mul(from_roots([0, 0], p), [1, 0, 1], p)]
        for _ in range(40):
            d = rng.randrange(1, 2 * p + 2)
            cases.append([rng.randrange(p) for _ in range(d)]
                         + [rng.randrange(1, p)])
        for f in cases:
            wanted = [a for a in range(p)
                      if not uv.mod_poly(f, [(-a) % p, 1], p)]
            assert uv.roots(f, p) == wanted

    def test_roots_none(self):
        # x^2 + 1 over p = 3 mod 4 has no roots
        assert uv.roots([1, 0, 1], 7) == []

    def test_factor_mixed_degrees(self):
        rng = random.Random(11)
        p = 7
        f = mr.mul(from_roots([1, 2], p), [1, 0, 1], p)  # (x-1)(x-2)(x^2+1)
        factors = mr.factor_squarefree(f, p, rng)
        assert sorted(uv.deg(g) for g in factors) == [1, 1, 2]
        prod = [1]
        for g in factors:
            prod = mr.mul(prod, g, p)
        assert prod == uv.monic(f, p)

    def test_distinct_degree_blocks(self):
        rng = random.Random(13)
        p = 31
        # an irreducible quadratic: x^2 - 3 with 3 a non-residue mod 31
        assert pow(3, 15, 31) == 30
        f = mr.mul(from_roots([4], p), [(-3) % p, 0, 1], p)
        blocks = dict(mr.distinct_degree(f, p))
        assert uv.deg(blocks[1]) == 1 and uv.deg(blocks[2]) == 2

    def test_is_irreducible(self):
        rng = random.Random(17)
        assert mr.is_irreducible([1, 0, 1], 7)  # x^2 + 1 mod 7
        assert not mr.is_irreducible([6, 0, 1], 7)  # x^2 - 1
        assert mr.is_irreducible([3, 1], 7)
        # x^4 + x + 1 is irreducible over F_2 but 5 divides ... check over F_3:
        # x^3 - x + 1 has no roots mod 3 and degree 3, hence irreducible
        assert mr.is_irreducible([1, 2, 0, 1], 3)

    def test_random_factor_refactor(self):
        rng = random.Random(19)
        for _ in range(10):
            roots = rng.sample(range(1, P), rng.randrange(2, 6))
            f = from_roots(roots, P)
            fac = mr.factor_squarefree(f, P, rng)
            got = sorted((-g[0]) % P for g in fac)
            assert got == sorted(roots)
