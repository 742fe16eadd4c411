"""Artinian algebras: bases, actions, local splitting, tangent invariants."""

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from qfiber.algebra import (LEX, FieldSpec, PolyRing, block_order,
                            mono_divides)
from qfiber.groebner import Ideal, _Enc, _Reducer, _Repack
from qfiber.linalg import mat_mul, rank, rref
from qfiber.parser import parse_ideal, parse_session
from qfiber import univar as uv
from qfiber.rng import Stream
from qfiber.scenarios import (Seed, gen_EI_model, gen_fatpoint_model,
                              gen_quadric_graph, scenario_text)
from qfiber import zerodim
from qfiber.zerodim import (
    ArtinianAlgebra,
    cm_regularity,
    derivations_dim,
    local_decompose,
    minpoly_of_vector,
    zariski_tangent_dim,
)
import minpoly_route as mr
from polys import parse_polynomial

P = 32003


def horner(f, a, p):
    """f(a) mod p for a coefficient list f, lowest degree first."""
    out = 0
    for c in reversed(f):
        out = (out * a + c) % p
    return out


def ring(names="x,y", p=P):
    return PolyRing(FieldSpec(p), tuple(names.split(",")))


def algebra(R, text):
    return ArtinianAlgebra.from_ideal(Ideal(R, parse_ideal(text, R)))


class TestAlgebra:
    def test_monomial_basis(self):
        R = ring()
        A = algebra(R, "x^2, y^2")
        assert A.dim == 4
        assert set(A.std) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert A.std[0] == (0, 0)
        assert A.one.tolist() == [1, 0, 0, 0]

    def test_one_algebra_per_ideal(self):
        # the algebra is kept on the ideal, as its basis is
        R = ring()
        I = Ideal(R, parse_ideal("x^2, y^2", R))
        assert ArtinianAlgebra.from_ideal(I) is ArtinianAlgebra.from_ideal(I)
        J = Ideal(R, I.gens)
        assert ArtinianAlgebra.from_ideal(J) is not \
            ArtinianAlgebra.from_ideal(I)

    def test_freed_without_the_cycle_collector(self):
        # the algebra keeps no reference to its ideal: dropping both
        # frees them
        gc.disable()
        try:
            sc = gen_quadric_graph(3, Seed(0))
            for q in sc.Z.std:
                sc.Z.monomial_matrix(q)
            freed = weakref.ref(sc.Z)
            del sc
            assert freed() is None
        finally:
            gc.enable()

    def test_ideal_outlives_its_first_object(self):
        # the algebra hands out an ideal on its generators whose cached
        # basis and quotient are its own, before and after the ideal it was
        # built from is gone, so nothing is computed again
        R = ring()
        I = Ideal(R, parse_ideal("x^2 - y, y^3", R))
        A = ArtinianAlgebra.from_ideal(I)
        gb = I.groebner()
        assert A.ideal.gens == I.gens
        assert A.ideal.groebner() is gb
        assert ArtinianAlgebra.from_ideal(A.ideal) is A
        del I
        J = A.ideal
        assert J.gens == tuple(parse_ideal("x^2 - y, y^3", R))
        assert J.groebner() is gb
        assert ArtinianAlgebra.from_ideal(J) is A
        assert A.lift(A.coords(parse_polynomial("x^2", R))) == \
            parse_polynomial("y", R)

    def test_rejects_positive_dim(self):
        R = ring()
        with pytest.raises(ValueError):
            algebra(R, "x*y")
        with pytest.raises(ValueError):
            algebra(R, "x, x + 1")

    def test_actions_square_to_zero(self):
        R = ring()
        A = algebra(R, "x^2, y^2")
        Xx, Xy = A.actions()
        assert not mat_mul(Xx, Xx, P).any()
        assert not mat_mul(Xy, Xy, P).any()
        assert (mat_mul(Xx, Xy, P) == mat_mul(Xy, Xx, P)).all()

    def test_coords_lift_roundtrip(self):
        R = ring()
        A = algebra(R, "x^2 - y, y^3")
        f = parse_polynomial("x^2 + 3*x + 5", R)
        v = A.coords(f)
        g = A.lift(v)
        assert (A.coords(g) == v).all()
        # x^2 reduces to y in the quotient
        assert A.lift(A.coords(parse_polynomial("x^2", R))) == parse_polynomial("y", R)

    def test_element_matrix_at_largest_prime(self):
        # sum_j c_j M_(std_j) multiplies by the element with coordinates c;
        # at p = 2^31 - 1 every product of the memo is a chunked contraction
        p = 2**31 - 1
        A = algebra(ring(p=p),
                    "x^3 + 3*x*y + 5*y + 7, y^2 + 11*x + 13*y + 17")
        vec = [p - 1 - j for j in range(A.dim)]
        M = [A.monomial_matrix(q) for q in A.std]
        f = A.lift(vec)
        for b, q in enumerate(A.std):
            got = [sum(c * int(Mj[a, b]) for c, Mj in zip(vec, M)) % p
                   for a in range(A.dim)]
            assert got == A.coords(f * A.ring.monomial(q)).tolist()


# --- the build on exponent tuples and Polynomial normal forms, kept as the
# oracle of the packed walk and the border columns


def walked_std(ideal):
    """Standard monomials by a breadth-first walk on exponent tuples, each
    candidate tested against every leading monomial, sorted in the ring's
    order."""
    ring = ideal.ring
    lms = ideal.groebner().leading_monomials()
    walk = [(0,) * ring.nvars]
    seen = set(walk)
    for m in walk:
        for v in range(ring.nvars):
            mm = m[:v] + (m[v] + 1,) + m[v + 1:]
            if mm in seen or any(mono_divides(lm, mm) for lm in lms):
                continue
            seen.add(mm)
            walk.append(mm)
    return tuple(sorted(walk, key=ring.order.key))


def coords_actions(A):
    """The action matrices column by column: a unit column where x_v * m is
    standard, else the coordinates of its Polynomial normal form."""
    ring, d = A.ring, A.dim
    index = {m: i for i, m in enumerate(A.std)}
    out = []
    for v in range(ring.nvars):
        X = np.zeros((d, d), dtype=np.int64)
        for j, m in enumerate(A.std):
            mm = m[:v] + (m[v] + 1,) + m[v + 1:]
            hit = index.get(mm)
            if hit is not None:
                X[hit, j] = 1
            else:
                X[:, j] = A.coords(ring.monomial(mm))
        out.append(X)
    return out


def border_columns(gb, std):
    """Columns of the multiplication matrices of the variables on std:
    out[v][j] lists (i, c) for the normal form sum c * std[i] of x_v *
    std[j], each border monomial reduced packed, from scratch, on a table
    of this call.  A field overflow widens the codec for the call as
    normal_form does."""
    enc, engine = gb._enc, gb._engine
    while True:
        try:
            red = _Reducer(enc, gb.ring.p)
            packed = [enc.pack(m) for m in std]
            keys = [enc.key(m) for m in packed]
            index = {m: i for i, m in enumerate(packed)}
            out = []
            for u in (1 << s for s in enc._shifts):
                uk = enc.key(u)
                cols = []
                for m, k in zip(packed, keys):
                    hit = index.get(m + u)
                    if hit is not None:
                        cols.append([(hit, 1)])
                        continue
                    nf = red.reduce([(k + uk, m + u, 1)], engine)
                    cols.append([(index[r], c) for _, r, c in nf])
                out.append(cols)
            return out
        except _Repack:
            enc = _Enc(gb.ring.nvars, gb.ring.order, 2 * enc.B)
            engine = [(t[0][0], t[0][1], t[1:])
                      for t in map(enc.encode_poly, gb.polys)]


def border_actions(A):
    """The action matrices filled from border_columns, the reductions the
    border plan replaced."""
    d, out = A.dim, []
    for cols in border_columns(A.ideal.groebner(), A.std):
        X = np.zeros((d, d), dtype=np.int64)
        at = np.array([(i, j, c) for j, col in enumerate(cols)
                       for i, c in col], dtype=np.int64).reshape(-1, 3)
        X[at[:, 0], at[:, 1]] = at[:, 2]
        out.append(X)
    return out


def assert_actions_equal(got, want):
    assert len(got) == len(want)
    for X, Y in zip(got, want):
        assert X.dtype == Y.dtype and np.array_equal(X, Y)


def assert_free_as_oracle(A, want):
    """The free variables are those whose e_v leads no element, their
    stack holds the oracle's matrices of them, and every action, the bound
    ones minus their tails on that stack, is the oracle's."""
    lead = set(A.ideal.groebner().leading_monomials())
    unit = [tuple(int(w == v) for w in range(A.nvars)) for v in range(A.nvars)]
    assert A.free == tuple(v for v in range(A.nvars) if unit[v] not in lead)
    free = A.free_actions()
    assert free.shape == (len(A.free), A.dim, A.dim)
    assert_actions_equal(list(free), [want[w] for w in A.free])
    assert_actions_equal(A.actions(), want)


def assert_built_as_oracle(A):
    assert A.std == walked_std(A.ideal)
    got = A.actions()
    assert len(got) == A.nvars
    assert_actions_equal(got, coords_actions(A))
    assert_free_as_oracle(A, border_actions(A))


FIXED_SESSIONS = {
    "two_points": "ring R = Fp(32003)[x, y], grevlex;\n"
                  "ideal X = y, x^2 - 1;\nideal Y = y;\n",
    "line_meets_axes": "ring R = Fp(32003)[x, y, z], grevlex;\n"
                       "ideal X = z, x + y - 1;\nideal Y = x*y, y*z, x*z;\n",
    "plane_holds_points": "ring R = Fp(32003)[x, y, z], grevlex;\n"
                          "ideal X = z;\nideal Y = x^2 - x, y^2, x*y, z;\n",
}


def session_algebra(text):
    """The algebra of X + Y of a compute session."""
    ring, ideals, _ = parse_session(text)
    return ArtinianAlgebra.from_ideal(Ideal(ring, ideals["X"] + ideals["Y"]))


# the six sessions of the benchmark's compute workload
SESSIONS = {
    "graph3": lambda: scenario_text(gen_quadric_graph(3, Seed(0))),
    "graph4": lambda: scenario_text(gen_quadric_graph(4, Seed(0))),
    "fatpoint": lambda: scenario_text(gen_fatpoint_model(Seed(0))),
    **{name: (lambda text=text: text) for name, text in FIXED_SESSIONS.items()},
}


def random_zero_dim(rng, p=101):
    """A zero-dimensional ideal over F_p: a pure power of each variable and
    two random polynomials, in one of three orders."""
    names = "x,y,z"[:2 * rng.randrange(2, 4) - 1]
    order = rng.choice([None, LEX, block_order(1)])
    R = PolyRing(FieldSpec(p), tuple(names.split(",")),
                 *(() if order is None else (order,)))
    n = R.nvars
    gens = [R.monomial(tuple(rng.randrange(2, 5) * (i == v) for i in range(n)))
            for v in range(n)]
    for _ in range(2):
        terms = {tuple(rng.randrange(4) for _ in range(n)): rng.randrange(1, p)
                 for _ in range(rng.randrange(2, 6))}
        gens.append(R.poly(terms))
    return Ideal(R, gens)


# border monomials and derived columns of the free variables' plan on the
# graph rows at seed 0: an all-variable plan takes 12/6, 33/23, 68/52,
# 161/136, 328/289, 752/686 and 1502/1396
BORDER_WORK = {2: (3, 0), 3: (9, 3), 4: (18, 7), 5: (41, 22), 6: (83, 51),
               7: (192, 134), 8: (368, 271)}


@pytest.mark.parametrize("n", sorted(BORDER_WORK))
def test_border_work_is_pinned(n):
    A = gen_quadric_graph(n, Seed(0)).Z
    places, _, derived = A.ideal.groebner().border_plan(A.free)
    border = {j for row in places for j in row if j >= A.dim}
    assert (len(border), len(derived)) == BORDER_WORK[n]


class TestPackedBuild:
    """std and the actions against the build on tuples and coords."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_graph_charts(self, n):
        assert_built_as_oracle(ArtinianAlgebra.from_ideal(
            gen_quadric_graph(n, Seed(0)).chart_ideal))

    @pytest.mark.parametrize("make", [gen_EI_model, gen_fatpoint_model])
    def test_ei_and_fat_point(self, make):
        assert_built_as_oracle(make(Seed(0)).Z)

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_compute_sessions(self, name):
        assert_built_as_oracle(session_algebra(SESSIONS[name]()))

    def test_random_ideals(self):
        rng = random.Random(101)
        built = 0
        for _ in range(60):
            I = random_zero_dim(rng)
            if I.is_trivial():
                continue
            assert_built_as_oracle(ArtinianAlgebra.from_ideal(I))
            built += 1
        assert built > 40

    def test_graph_row_8(self):
        A = gen_quadric_graph(8, Seed(0)).Z
        assert_free_as_oracle(A, border_actions(A))

    @pytest.mark.parametrize("n,seed", [(n, s) for n in range(2, 8)
                                        for s in (0, 1)] + [(8, 1)])
    def test_graph_rows(self, n, seed):
        # the x_i lead elements with tail 0: only the a's are free
        A = gen_quadric_graph(n, Seed(seed)).Z
        assert len(A.free) == A.nvars - n - 1
        assert_free_as_oracle(A, border_actions(A))

    @pytest.mark.parametrize("text", ["x, y", "x - 1, y + 2"])
    def test_reduced_point(self, text):
        # every variable leads a linear element: no free variable, and each
        # X_v is the constant minus its tail
        A = algebra(ring(), text)
        assert A.free == () and A.free_actions().shape == (0, 1, 1)
        assert_built_as_oracle(A)

    def test_bound_tails_with_a_constant(self):
        # x + y - 1 leads with x, so X_x is 1 - X_y on the stack of y
        A = session_algebra(FIXED_SESSIONS["line_meets_axes"])
        assert A.free == (1,)
        assert A.coords(A.ring.var(0))[0] == 1
        assert_built_as_oracle(A)

    def test_leading_variable_with_a_nonlinear_tail(self):
        # in lex, x leads x - y^2: every border monomial x*y^k is x * y^k
        # over a smaller one, down to the leading x itself
        R = PolyRing(FieldSpec(P), ("x", "y"), LEX)
        I = Ideal(R, parse_ideal("x - y^2, y^3", R))
        assert [f.leading_monomial() for f in I.groebner()] == [(0, 3),
                                                                (1, 0)]
        assert_built_as_oracle(ArtinianAlgebra.from_ideal(I))

    def test_after_the_codec_widens(self):
        # a normal form past the basis codec, before the algebra is built,
        # widens a codec of its own and leaves the basis's
        R = ring("x,y,z")
        I = Ideal(R, parse_ideal(
            "x*y - z^2, y*z - x^2, x*z - y^2, x^3 - y*z^2, z^4", R))
        gb = I.groebner()
        bits, engine = gb._enc.B, gb._engine
        f = R.monomial((0, 0, 200))
        assert I.normal_form(f).is_zero()
        assert (gb._enc.B, gb._engine) == (bits, engine)
        assert_built_as_oracle(ArtinianAlgebra.from_ideal(I))

    def test_codec_widens_between_std_and_actions(self):
        # the same normal form between the standard monomials and the
        # actions leaves the walk the basis memoised, so the border plan
        # reads the monomials std was read off
        R = ring("x,y,z")
        I = Ideal(R, parse_ideal(
            "x*y - z^2, y*z - x^2, x*z - y^2, x^3 - y*z^2, z^4", R))
        gb = I.groebner()
        bits = gb._enc.B
        A = ArtinianAlgebra.from_ideal(I)
        walk = gb._walk()
        assert I.normal_form(R.monomial((0, 0, 200))).is_zero()
        assert gb._enc.B == bits and gb._walk() is walk
        assert_built_as_oracle(A)


def scenario_algebra(name):
    if name == "fatpoint":
        return gen_fatpoint_model(Seed(0)).Z
    return gen_quadric_graph(3, Seed(0)).Z


def action_power(A, q):
    """X^q as a plain product of action matrices."""
    M = np.eye(A.dim, dtype=np.int64)
    for v, e in enumerate(q):
        for _ in range(e):
            M = mat_mul(A.actions()[v], M, P)
    return M


class TestMonomialMatrices:
    @pytest.mark.parametrize("name", ["fatpoint", "graph3"])
    def test_products_of_action_powers(self, name):
        A = scenario_algebra(name)
        n = A.nvars
        top = A.std[-1]
        outside = [tuple(3 * (i == v) for i in range(n)) for v in range(n)]
        outside += [(1,) * n, top[:-1] + (top[-1] + 2,)]
        assert not set(outside) & set(A.std)
        for q in A.std + tuple(outside):
            assert np.array_equal(A.monomial_matrix(q), action_power(A, q))


class TestMinpoly:
    def test_nilpotent_shift(self):
        R = ring("x")
        A = algebra(R, "x^3")
        mp = minpoly_of_vector(A.actions()[0], A.one, P)
        assert mp == [0, 0, 0, 1]

    def test_split_element(self):
        R = ring("x")
        A = algebra(R, "x^2 - 1")
        mp = minpoly_of_vector(A.actions()[0], A.one, P)
        assert mp == [P - 1, 0, 1]

    def test_by_definition(self):
        # f is monic, f(M) v = 0, and deg f is the rank of the Krylov
        # matrix [v, Mv, ..., M^d v]: no monic polynomial of lower degree
        # kills v
        rng = np.random.default_rng(7)
        d = 6
        N = np.triu(rng.integers(0, P, (d, d)), k=1)  # nilpotent
        D = np.diag([3, 3, 5, 5, 5, 9])
        cases = [(N, rng.integers(0, P, d)), (N, np.eye(d, dtype=np.int64)[0]),
                 (np.mod(D + N, P), rng.integers(0, P, d)),
                 (np.mod(D + N, P), np.eye(d, dtype=np.int64)[2])]
        for M, v in cases:
            M = np.asarray(M, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
            f = minpoly_of_vector(M, v, P)
            assert f[-1] == 1
            assert not mat_mul(mr.eval_matrix_poly(f, M, P), v, P).any()
            krylov = [v]
            for _ in range(d):
                krylov.append(mat_mul(M, krylov[-1], P))
            assert len(f) - 1 == rank(np.stack(krylov, axis=1), P)
        # on a nilpotent M every vector has minimal polynomial t^k; the last
        # unit vector runs through the whole flag, and e_0 is killed at once
        assert minpoly_of_vector(N, np.eye(d, dtype=np.int64)[d - 1], P) \
            == [0] * d + [1]
        assert minpoly_of_vector(N, np.eye(d, dtype=np.int64)[0], P) == [0, 1]
        # the zero vector is killed by the constant 1
        assert minpoly_of_vector(N, np.zeros(d, dtype=np.int64), P) == [1]
        assert minpoly_of_vector(np.zeros((0, 0), dtype=np.int64),
                                 np.zeros(0, dtype=np.int64), P) == [1]


class TestTangent:
    def test_fat_point_tangent(self):
        R = ring()
        I = Ideal(R, parse_ideal("x^2, x*y, y^2", R))
        assert zariski_tangent_dim(I) == 2

    def test_smooth_point_tangent(self):
        R = ring()
        assert zariski_tangent_dim(Ideal(R, parse_ideal("x^2 - y", R))) == 1
        assert zariski_tangent_dim(Ideal(R, parse_ideal("x - y, x + y", R))) == 0

    def test_origin_membership_enforced(self):
        R = ring()
        with pytest.raises(ValueError):
            zariski_tangent_dim(Ideal(R, parse_ideal("x - 1", R)))


class TestDerivations:
    def test_dual_numbers(self):
        R = ring("x")
        assert derivations_dim(algebra(R, "x^2")) == 1

    def test_jet_line(self):
        # k[x]/(x^3) has x d/dx and x^2 d/dx
        R = ring("x")
        assert derivations_dim(algebra(R, "x^3")) == 2

    def test_square_zero_plane(self):
        # derivations of k + V with V^2 = 0 are End(V): dimension 4
        R = ring()
        assert derivations_dim(algebra(R, "x^2, x*y, y^2")) == 4

    def test_etale_has_none(self):
        R = ring("x")
        assert derivations_dim(algebra(R, "x^2 - 1")) == 0


# --- oracles of locality, kept from the routes the minimal polynomials
# of the variables replaced, which the Frobenius map replaced in turn


def is_nilpotent(X, p):
    """True when X^d = 0 for the size d of X, by repeated squaring."""
    N = np.mod(X, p)
    for _ in range(max(1, X.shape[0]).bit_length() + 1):
        if not N.any():
            return True
        N = mat_mul(N, N, p)
    return not N.any()


def rational_point(actions, length, p):
    """Support point of a local factor if rational, else None: each action
    is its mean eigenvalue tr/length plus a nilpotent matrix."""
    point = []
    for X in actions:
        a = int(np.trace(X) % p) * pow(length % p, p - 2, p) % p
        if not is_nilpotent(X - a * np.eye(X.shape[0], dtype=np.int64), p):
            return None
        point.append(a)
    return tuple(point)


def free_stack(alg, mats):
    """The stack of the matrices of the algebra's free variables among the
    matrices mats of every variable, on a module of dimension m."""
    m = mats[0].shape[0]
    return np.array([mats[w] for w in alg.free],
                    dtype=np.int64).reshape(len(alg.free), m, m)


def restricted(factor, alg, mats, p):
    """The matrices on the image of the factor's projector E, the action
    of its idempotent, in the rref basis of that image, with E and the
    pivots of that basis."""
    E = alg.evaluate([factor.idempotent], free_stack(alg, mats))[0]
    B, piv = rref(E.T, p)
    return [mat_mul(X, B[:len(piv)].T, p)[piv] for X in mats], E, piv


def factor_point(factor, alg):
    """rational_point on the factor's own restricted actions."""
    acts = restricted(factor, alg, alg.actions(), alg.p)[0]
    return rational_point(acts, factor.length, alg.p)


def factor_mu(factor, mod):
    """(local module length, local mu) on one factor by the per-factor
    route: the minimal polynomial of each variable on the factor's own
    unit, its semisimple polynomial h_v, and the rank of the parts
    X_v - h_v(X_v) of the module actions restricted to the factor."""
    alg, p = mod.algebra, mod.algebra.p
    acts, E, piv = restricted(factor, alg, alg.actions(), p)
    one = mat_mul(E, alg.one, p)[piv]
    mats = restricted(factor, alg, mod.actions, p)[0]
    dim_c = mats[0].shape[0]
    if not dim_c:
        return 0, 0
    nil = []
    for A, X in zip(acts, mats):
        h = mr.semisimple_poly(minpoly_of_vector(A, one, p), p)
        nil.append(np.mod(X - mr.eval_matrix_poly(h, X, p), p))
    return dim_c, dim_c - rank(np.concatenate(nil, axis=1), p)


def root_streams(monkeypatch, seed):
    """Point the root finder's fixed stream at another seed."""
    monkeypatch.setattr(uv, "Stream", lambda _: Stream(seed))


class TestDecompose:
    def test_two_rational_points(self):
        R = ring("x")
        A = algebra(R, "x^2 - 1")
        parts = local_decompose(A)
        assert [f.length for f in parts] == [1, 1]
        assert sorted(f.point for f in parts) == [(1,), (P - 1,)]

    def test_local_stays_whole(self):
        R = ring("x")
        A = algebra(R, "x^2")
        parts = local_decompose(A)
        assert len(parts) == 1
        assert parts[0].length == 2
        assert parts[0].point == (0,)
        assert parts[0].idempotent == (1, 0)

    def test_mixed_multiplicities(self):
        R = ring("x")
        A = algebra(R, "(x - 1)*(x + 1)*(x - 5)^2")
        parts = local_decompose(A)
        assert sorted(f.length for f in parts) == [1, 1, 2]
        pts = {f.point for f in parts}
        assert pts == {(1,), (P - 1,), (5,)}

    def test_irrational_point(self):
        # x^2 = c with c a non-residue: one local factor, no rational point
        c = next(a for a in range(2, 50) if pow(a, (P - 1) // 2, P) == P - 1)
        R = ring("x")
        A = algebra(R, f"x^2 - {c}")
        parts = local_decompose(A)
        assert len(parts) == 1
        assert parts[0].length == 2
        assert parts[0].point is None
        assert parts[0].residue_degree == 2

    def test_two_variables(self):
        R = ring()
        A = algebra(R, "x^2 - 1, y - x")
        parts = local_decompose(A)
        assert sorted(f.point for f in parts) == [(1, 1), (P - 1, P - 1)]

    def test_projector_identity_sum(self):
        R = ring("x")
        A = algebra(R, "(x - 2)*(x - 3)*(x - 4)")
        parts = local_decompose(A)
        acts = A.actions()
        total = np.zeros((A.dim, A.dim), dtype=np.int64)
        projectors = A.evaluate([f.idempotent for f in parts],
                                 free_stack(A, acts))
        for f, E in zip(parts, projectors):
            assert (mat_mul(E, E, P) == E).all()
            assert mat_mul(E, A.one, P).tolist() == list(f.idempotent)
            total = (total + E) % P
        assert (total == np.eye(A.dim, dtype=np.int64)).all()

    def test_splits_on_bare_matrices(self, monkeypatch):
        # the split runs on the actions, the Frobenius map and the c x c
        # matrices of ker(F - 1): no algebra is built
        A = algebra(ring(), "x^2 - 1, y^2 - 4")
        A.actions()

        def refuse(self, *args, **kwargs):
            raise AssertionError("local_decompose built an algebra")

        monkeypatch.setattr(ArtinianAlgebra, "__init__", refuse)
        assert len(local_decompose(A)) == 4

    def test_deterministic(self):
        R = ring()
        a = local_decompose(algebra(R, "x^2 - 1, y^2 - 4"))
        b = local_decompose(algebra(R, "x^2 - 1, y^2 - 4"))
        assert a == b
        assert len(a) == 4

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_two_points_split_on_every_seed(self, p, monkeypatch):
        # whatever stream the root finder splits with, the pair is split
        # into its two points, in one order
        for seed in range(400):
            root_streams(monkeypatch, seed)
            A = algebra(ring("x", p), "x^2 - 1")
            parts = local_decompose(A)
            assert [f.point for f in parts] == [(p - 1,), (1,)], seed

    def test_order_does_not_depend_on_the_stream(self, monkeypatch):
        # by length, then by the idempotent e*1, which is intrinsic
        orders = set()
        for seed in range(20):
            root_streams(monkeypatch, seed)
            A = algebra(ring(), "x^2 - 1, y^2 - 4")
            orders.add(tuple(f.point for f in local_decompose(A)))
        assert len(orders) == 1


def brute_force_points(A):
    """{point: local length} over the rational points of the algebra's
    zero set, found by trying every point of F_p^n, with each length
    taken by localising: dim R/(I + m_a^d), d = dim A, at or above the
    Loewy length of the local ring."""
    ring_, p, gens = A.ring, A.p, A.ideal.gens
    out = {}
    for a in itertools.product(range(p), repeat=A.nvars):
        if any(g.evaluate(a) % p for g in gens):
            continue
        m = Ideal(ring_, [ring_.var(v) - ring_.constant(c)
                          for v, c in zip(range(A.nvars), a)])
        out[a] = ArtinianAlgebra.from_ideal(A.ideal + m.power(A.dim)).dim
    return out


class TestDimensionAtLeastP:
    # (variables, p, ideal) -> c, dim rad and the residue degrees, sorted;
    # every algebra over F_3 has dim >= p, and x^4 + 1 over F_5 splits
    # into two factors of residue degree 2
    CASES = {
        "x^3 - x": ("x", 3, "x^3 - x", 3, 0, [1, 1, 1]),
        "nine points": ("x,y", 3, "x^3 - x, y^3 - y", 9, 0, [1] * 9),
        "fat line points": ("x,y", 3, "(x^3 - x)^2, y^2", 3, 9, [1, 1, 1]),
        "(x^2 + 1)^3": ("x", 3, "(x^2 + 1)^3", 1, 4, [2]),
        "x^4 + 1": ("x", 5, "x^4 + 1", 2, 0, [2, 2]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_against_brute_force(self, case):
        names, p, text, c, rad, degrees = self.CASES[case]
        A = algebra(ring(names, p), text)
        assert A.dim >= p or p == 5
        factors = local_decompose(A)
        assert len(factors) == c
        assert rank(np.hstack(A.nilpotent_parts(A.free_actions())), p) == rad
        rational = {f.point: f.length for f in factors if f.point}
        assert rational == brute_force_points(A)
        # the residue degrees: r = rank(F^N L_e), L_e's columns x^q e
        got = []
        for f in factors:
            L = A.along_std(np.array(f.idempotent), A.actions()).T
            got.append(rank(A.frobenius_power(L, A.depth), p))
        assert sorted(got) == degrees
        assert sum(f.length for f in factors) == A.dim
        assert A.dim - rad == sum(degrees)
        assert all((f.point is None) == (r > 1) for f, r in zip(factors, got))

    def test_no_separating_linear_form(self):
        # every linear form takes equal values on two of the nine points,
        # so no form splits them all; the basis of ker(F - 1) does
        A = algebra(ring("x,y", 3), "x^3 - x, y^3 - y")
        points = [f.point for f in local_decompose(A)]
        for a, b in itertools.product(range(3), repeat=2):
            values = {(a * x + b * y) % 3 for x, y in points}
            assert len(values) < 9
        assert sorted(points) == sorted(itertools.product(range(3),
                                                          repeat=2))


class TestLocality:
    @pytest.mark.parametrize("names,p,text,origin", [
        ("x", P, "x^3", True), ("x,y", P, "x^2, x*y, y^2", True),
        ("x,y", P, "x^2 - y, y^3", True), ("x", P, "(x - 2)^3", False),
        ("x,y", P, "x^2 + 1, y^2", False),
        # dimension at least p: no squarefree part is taken
        ("x", 3, "x^3", True), ("x", 5, "x^5", True),
        ("x,y", 3, "x^3, y^2", True), ("x", 3, "x^3 - x", False)])
    def test_at_origin_matches_the_oracle(self, names, p, text, origin):
        A = algebra(ring(names, p), text)
        assert A.at_origin() is origin
        assert origin == all(is_nilpotent(X, p) for X in A.actions())

    def test_frobenius_is_memoised(self, monkeypatch):
        # one X_v^p per variable of the standard monomials, the map built
        # once, and the split done once, whoever asks first
        A = algebra(ring(), "x^2 - 1, y^3")
        calls = []
        plain = zerodim._matrix_power

        def counting(X, e, p):
            calls.append(e)
            return plain(X, e, p)

        monkeypatch.setattr(zerodim, "_matrix_power", counting)
        nils = A.nilpotent_parts(A.free_actions())
        F = A.frobenius()
        assert not A.at_origin()
        factors = local_decompose(A)
        assert A.frobenius() is F
        assert local_decompose(A) == factors
        assert all(np.array_equal(N, M) for N, M in
                   zip(A.nilpotent_parts(A.free_actions()), nils))
        assert calls == [P, P]
        assert [(f.length, f.point) for f in factors] == [
            (3, (P - 1, 0)), (3, (1, 0))]

    def test_frobenius_by_definition(self):
        # column q of F is the coordinates of (x^q)^p
        A = algebra(ring("x,y", 5), "x^3 - y^2 + 1, y^3 - x")
        F = A.frobenius()
        for i, q in enumerate(A.std):
            want = A.coords(A.ring.monomial(q) ** 5)
            assert F[:, i].tolist() == want.tolist()


class TestSemisimple:
    def test_split_polynomial(self):
        # minimal polynomial (T-3)^2 (T-5): h sends T to its diagonal part
        mp = [1]
        for root, mult in ((3, 2), (5, 1)):
            for _ in range(mult):
                mp = mr.mul(mp, [(-root) % P, 1], P)
        h = mr.semisimple_poly(mp, P)
        # h(3) = 3 and h(5) = 5, and h'(...) kills the nilpotent direction:
        # (h(T) - 3) must be divisible by (T-3)^2 after subtracting
        assert horner(h, 3, P) == 3
        assert horner(h, 5, P) == 5
        assert horner(mr.derivative(h, P), 3, P) == 0

    def test_newton_failure_raises(self, monkeypatch):
        # every inverse forced to zero: t never moves off T, which is not
        # semisimple mod (T-2)^2, and the oracle refuses it
        mp = mr.mul([P - 2, 1], [P - 2, 1], P)
        assert mr.semisimple_poly(mp, P) == [2]
        monkeypatch.setattr(mr, "inv_mod", lambda f, modulus, p: [])
        with pytest.raises(RuntimeError, match="newton"):
            mr.semisimple_poly(mp, P)

    @staticmethod
    def nilpotent_part(A):
        """x - h(x) for the one variable, by the minimal-polynomial route."""
        X = A.actions()[0]
        h = mr.semisimple_poly(minpoly_of_vector(X, A.one, P), P)
        return (X - mr.eval_matrix_poly(h, X, P)) % P

    def test_nilpotent_parts_jet(self):
        R = ring("x")
        A = algebra(R, "(x - 2)^3")
        N = self.nilpotent_part(A)
        want = (A.actions()[0] - 2 * np.eye(3, dtype=np.int64)) % P
        assert (N == want).all()
        assert rank(N, P) == 2

    def test_nilpotent_parts_etale(self):
        c = next(a for a in range(2, 50) if pow(a, (P - 1) // 2, P) == P - 1)
        R = ring("x")
        A = algebra(R, f"x^2 - {c}")
        assert not self.nilpotent_part(A).any()
        assert not A.nilpotent_parts(A.free_actions())[0].any()

    @pytest.mark.parametrize("text", ["(x - 2)^3", "x^2 - 3", "x^4 - x^2"])
    def test_algebra_nilpotent_parts(self, text):
        A = algebra(ring("x"), text)
        assert np.array_equal(A.nilpotent_parts(A.free_actions())[0],
                              self.nilpotent_part(A))


class TestRegularity:
    def test_single_point(self):
        R = ring("x,y,z")
        res = cm_regularity(Ideal(R, parse_ideal("x, y", R)))
        assert res.regularity == 1
        assert res.degree == 1
        assert res.saturation_steps == 0

    def test_three_collinear_points(self):
        R = ring("x,y,z")
        I = Ideal(R, parse_ideal("y, x*(x - z)*(x - 2*z)", R))
        res = cm_regularity(I)
        assert res.degree == 3
        assert res.regularity == 3
        assert res.hilbert_values == (1, 2, 3)

    def test_complete_intersection_of_conics(self):
        R = ring("x,y,z")
        res = cm_regularity(Ideal(R, parse_ideal("x^2 - y*z, y^2 - x*z", R)))
        assert res.degree == 4
        assert res.regularity == 3
        assert res.hilbert_values == (1, 3, 4)

    def test_saturation_recorded(self):
        R = ring("x,y,z")
        # (x, y) times the irrelevant ideal: saturating recovers the point
        I = Ideal(R, parse_ideal("x^2, x*y, x*z, y^2, y*z", R))
        res = cm_regularity(I)
        assert res.saturation_steps >= 1
        assert res.degree == 1
        assert res.regularity == 1

    def test_rejects_curves(self):
        R = ring("x,y,z")
        with pytest.raises(ValueError):
            cm_regularity(Ideal(R, parse_ideal("x", R)))

    def test_rejects_inhomogeneous(self):
        R = ring("x,y,z")
        with pytest.raises(ValueError):
            cm_regularity(Ideal(R, parse_ideal("x - 1, y", R)))
