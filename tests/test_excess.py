"""Conormal modules, Hom duals, and the defect-module invariants."""

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from qfiber.algebra import FieldSpec, PolyRing
from qfiber import excess
from qfiber.excess import (
    ExcessIntersection,
    FinModule,
    IntersectionScenario,
    conormal_in_X,
    conormal_restricted,
    hilbert_tangent_dim,
    make_scenario,
    minimal_generators,
    minimal_presentation,
    module_mu,
    q_affine_pair,
    q_module,
    qbar,
    symmetry_check,
    _defect_report,
    _in_row_space,
    _koszul_mu,
    _relation_space,
    _replay,
    _submodule,
)
from qfiber import groebner as gb_module
from qfiber import linalg, zerodim
from qfiber.groebner import (Ideal, _linear_witnesses, groebner,
                             pair_budget)
from qfiber.linalg import as_mod_array, identity, mat_mul, nullspace, rank, rref
from qfiber.parser import parse_ideal
from qfiber.rng import Stream
from qfiber.scenarios import (Seed, gen_EI_model, gen_fatpoint_model,
                              gen_quadric_graph)
from qfiber.zerodim import (
    ArtinianAlgebra,
    derivations_dim,
    local_decompose,
    tangent_data,
)
import minpoly_route as mr
from polys import parse_polynomial
from test_groebner import (assert_exact, assert_replay_layout,
                           repeated_terms, replayed, trace_entries)
from test_zerodim import (SESSIONS, factor_mu, factor_point, is_nilpotent,
                          random_zero_dim, session_algebra)

P = 32003


def _block_apply(X, rows, p):
    """One algebra action on rows of k^(g*d), blockwise on each d-chunk:
    the one-action-at-a-time product that the stacked products of the
    library replace, kept as their oracle."""
    r, w = rows.shape
    d = X.shape[0]
    if r == 0 or w == 0:
        return rows
    return mat_mul(rows.reshape(-1, d), X.T, p).reshape(r, w)


def ring(names="x,y", p=P):
    return PolyRing(FieldSpec(p), tuple(names.split(",")))


def idl(R, text):
    return Ideal(R, parse_ideal(text, R))


def scenario(R, xtext, ytext, dim_x, codim_y, **kw):
    return make_scenario(R, idl(R, xtext), idl(R, ytext), dim_x, codim_y, **kw)


def graph2():
    """Graph of three spanning quadrics on A^2 against its linear axis space."""
    R = ring("x1,x2,x3,a,b")
    chart = ring("a,b")
    return scenario(R, "x1 - a^2, x2 - a*b, x3 - b^2", "x1, x2, x3", 2, 3,
                    chart_ideal=idl(chart, "a^2, a*b, b^2"))


def fatpoint():
    """Square of the maximal ideal on a 3-plane, cut by a graph-style CI."""
    names = "x,y,z," + ",".join(f"u{i}" for i in range(1, 7))
    R = ring(names)
    quads = ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"]
    ytext = ", ".join(f"{q} - u{i}" for i, q in enumerate(quads, start=1))
    xtext = ", ".join(f"u{i}" for i in range(1, 7))
    chart = ring("x,y,z")
    return scenario(R, xtext, ytext, 3, 6,
                    chart_ideal=idl(chart, ", ".join(quads)))


def multipoint():
    """Graph scenario whose intersection splits into two rational points."""
    R = ring("x1,x2,a")
    return scenario(R, "x1 - a^2 + 1, x2", "x1, x2", 1, 2)


def axes_on_line():
    """The three coordinate axes, not a complete intersection, met by a
    line in the plane z = 0; the restricted conormal module is not free."""
    R = ring("x,y,z")
    return scenario(R, "z, x + y - 1", "x*y, y*z, x*z", 1, 2)


def plane_holds_points():
    """A double point and a simple point in the plane z = 0, cut out by four
    generators in codimension 3: not a complete intersection."""
    R = ring("x,y,z")
    return scenario(R, "z", "x^2 - x, y^2, x*y, z", 2, 3)


def swapped(s):
    """The scenario with X and Y exchanged, as symmetry_check builds it."""
    r = s.ring.nvars
    return IntersectionScenario(s.ring, s.I_Y, s.I_X,
                                (r - s.dims[1], r - s.dims[0]), s.Z)


# complete-intersection Y: graph n = 2..5 (axis Y), the fat point (its
# witnesses u1..u6 carry a full-rank matrix, not a permutation), EI (graph
# Y), and graph n = 3 swapped (graph Y)
CI_SCENARIOS = {
    **{f"graph{n}": (lambda n=n: gen_quadric_graph(n, Seed(0)))
       for n in range(2, 6)},
    "fatpoint": lambda: gen_fatpoint_model(Seed(0)),
    "ei": lambda: gen_EI_model(Seed(0)),
    "swapped3": lambda: swapped(gen_quadric_graph(3, Seed(0))),
}


def length_drop_generators(alg):
    """The general path of minimal_generators, kept as its oracle: the basis
    elements at the pivot columns of the rref of their coordinates modulo
    (maximal ideal) * ideal, whose count must be the length drop from the
    algebra of (maximal ideal) * ideal to the algebra itself."""
    ring = alg.ring
    polys = alg.ideal.groebner().polys
    mvars = [ring.var(nm) for nm in ring.variables]
    amod = ArtinianAlgebra.from_ideal(
        Ideal(ring, [v * f for v in mvars for f in polys]))
    _, piv = rref(np.array([amod.coords(f) for f in polys]).T, amod.p)
    assert len(piv) == amod.dim - alg.dim
    return [polys[j] for j in piv]


def eliminated_chart(ideal, doomed):
    """The general path of the minimal chart, kept as its oracle: the
    block-order elimination of the doomed variables."""
    ring = ideal.ring
    small = PolyRing(ring.field,
                     tuple(nm for nm in ring.variables if nm not in doomed))
    return Ideal(small, [f.to_ring(small) for f in ideal.eliminate(doomed)])


def spanning_kernel(gens, relations, alg):
    """Relation space of the module spanned by {gen_i * mono_j} mod relations.

    The module is the image of k^(g*d) under (i, j) -> gen_i * mono_j over
    the standard monomials mono_j of the algebra; the rows returned are a
    k-basis of the kernel of that spanning map, read off from the normal
    forms modulo a Groebner basis of the relation ideal.  The general path
    that _relation_space replaces, kept here as its oracle.
    """
    ring = relations.ring
    gb = relations.groebner()
    cols: dict = {}
    sparse = []
    for f in gens:
        for m in alg.std:
            nf = gb.normal_form(f * ring.monomial(m))
            sparse.append([(cols.setdefault(t, len(cols)), c)
                           for t, c in nf.terms])
    E = np.zeros((len(sparse), max(len(cols), 1)), dtype=np.int64)
    for i, row in enumerate(sparse):
        for j, c in row:
            E[i, j] = c
    return nullspace(E.T, alg.p)


def rref_rows(A):
    R, piv = rref(A, P)
    return R[:len(piv)]


def big_relations(s):
    """Relation space of the restricted conormal module by the general path."""
    relations = s.I_Y.power(2) + s.I_X * s.I_Y
    return spanning_kernel(s.I_Y.gens, relations, s.Z)


def small_relations(s):
    """Relation space of the conormal module in X by the general path."""
    relations = s.I_X + s.I_Y.power(2)
    return spanning_kernel(s.I_Y.gens, relations, s.Z)


def nonresidue():
    c = 2
    while pow(c, (P - 1) // 2, P) == 1:
        c += 1
    return c


def _quotient_rep(big_rows, small_rows, alg):
    """Basis size, action matrices, and coordinates for span(big)/span(small).

    Rows live in k^(g*d), where the algebra acts blockwise on each d-chunk.
    Assumes span(small) <= span(big) and both stable under that action.
    A row of span(big) is read in the pivot coordinates of rref(big); there
    the quotient basis is the non-pivot columns of rref(small), and coordize
    sends any rows inside span(big) to their coordinates in that basis (the
    non-pivot columns of their reduction modulo rref(small), which are all
    it computes).  The quotient of the Hom-row route that the image of the
    relation map replaced, kept as its oracle.
    """
    p = alg.p
    R_b, piv_b = rref(big_rows, p)
    R_s, piv_s = rref(as_mod_array(small_rows, p)[:, piv_b], p)
    pivset = set(piv_s)
    free = [j for j in range(len(piv_b)) if j not in pivset]
    R_free = R_s[: len(piv_s)][:, free]

    def coordize(rows):
        rows = as_mod_array(rows, p)[:, piv_b]
        out = rows[:, free]
        if piv_s and rows.shape[0]:
            out = np.mod(out - mat_mul(rows[:, piv_s], R_free, p), p)
        return out

    mats = tuple(coordize(_block_apply(X, R_b[free], p)).T.copy()
                 for X in alg.actions())
    return len(free), mats, coordize


def element_matrices(vecs, alg):
    """Multiplication matrices of the elements whose coordinates are the
    rows of vecs: sum_j vec_j * M_(std_j), one d x d matrix per row."""
    d = alg.dim
    T = np.stack([alg.monomial_matrix(q) for q in alg.std])
    return mat_mul(vecs.reshape(-1, d), T.reshape(d, d * d),
                   alg.p).reshape(-1, d, d)


def _hom_rows(kernel, g, alg):
    """Solution space of the Hom constraints of the module k^(g*d)/kernel.

    A homomorphism into the algebra is a block vector (phi_1, ..., phi_g);
    each relation row kappa imposes sum_i mult(kappa_i) @ phi_i = 0, and a
    k-basis of relations is enough because the constraint is linear in
    kappa.  The element-matrix route that the kernel of the relation map
    replaced, kept as its oracle.
    """
    d = alg.dim
    mults = element_matrices(kernel, alg).reshape(-1, g, d, d)
    return nullspace(mults.transpose(0, 2, 1, 3).reshape(-1, g * d), alg.p)


def hom_spaces(s):
    """The Hom rows of both conormal modules, from their relation spaces."""
    g = len(s.I_Y.gens)
    return (_hom_rows(conormal_restricted(s), g, s.Z),
            _hom_rows(conormal_in_X(s), g, s.Z))


def q_space(s):
    """Defect-module actions straight from the internals, for oracles."""
    dim, mats, _ = _quotient_rep(*hom_spaces(s), s.Z)
    return dim, mats


@dataclass
class Presented(FinModule):
    """The module k^(g*d)/kernel over an algebra, keeping its relation space
    and, when one is stated, an ideal that must annihilate it."""

    kernel: np.ndarray | None = None
    annihilator: Ideal | None = None


def presented(kernel, g, A, annihilator=None):
    """k^(g*d)/kernel over A, generated by the g block ones."""
    dim, mats, coordize = _quotient_rep(identity(g * A.dim), kernel, A)
    return Presented(dim, mats, coordize(np.kron(identity(g), A.one)), A,
                     kernel, annihilator)


def conormal_modules(s):
    """Both conormal modules of a scenario, presented from K_big, K_small."""
    g, ann = len(s.I_Y.gens), s.I_X + s.I_Y
    return (presented(conormal_restricted(s), g, s.Z, ann),
            presented(conormal_in_X(s), g, s.Z, ann))


def free_rank_one(A, annihilator):
    return presented(np.zeros((0, A.dim), dtype=np.int64), 1, A, annihilator)


def poly_action(actions, f, dim, p):
    """Matrix by which the polynomial f acts, given the variable actions."""
    out = np.zeros((dim, dim), dtype=np.int64)
    for m, c in f.terms:
        w = identity(dim)
        for X, e in zip(actions, m):
            for _ in range(e):
                w = mat_mul(X, w, p)
        out = (out + c * w) % p
    return out


def check_annihilates(mod, ideal):
    """Certify that every generator of the stated annihilator acts as zero."""
    for f in ideal.gens:
        if poly_action(mod.actions, f, mod.basis_dim, mod.algebra.p).any():
            raise RuntimeError("annihilator check failed: inconsistent module")


def hom_module(M, A):
    """Hom_A(M, A) of a presented module through its relation space.

    The homomorphisms are the solutions of the _hom_rows constraints and
    the induced action is (a*phi)(m) = a*phi(m); commutant_hom is the
    independent route it is checked against.
    """
    if not isinstance(M, Presented) or M.algebra is not A:
        raise ValueError("hom_module needs a presented module over the "
                         "given algebra")
    if M.annihilator is not None:
        check_annihilates(M, M.annihilator)
    rows = _hom_rows(M.kernel, M.generator_images.shape[0], A)
    dim, mats, _ = _quotient_rep(
        rows, np.zeros((0, rows.shape[1]), dtype=np.int64), A)
    return FinModule(dim, mats, identity(dim), A)


def reduce_then_rref_quotient(big_rows, small_rows, alg):
    """span(big)/span(small) by reducing big modulo rref(small) and taking
    the rref of what is left; (dim, actions).  The route _quotient_rep
    replaced, kept as its oracle."""
    p = alg.p
    R_s, piv_s = rref(small_rows, p)
    R_s = R_s[:len(piv_s)]

    def mod_small(rows):
        rows = np.mod(np.asarray(rows, dtype=np.int64), p)
        if piv_s and rows.shape[0]:
            rows = np.mod(rows - mat_mul(rows[:, piv_s], R_s, p), p)
        return rows

    R_q, piv_q = rref(mod_small(big_rows), p)
    R_q = R_q[:len(piv_q)]
    mats = tuple(mod_small(_block_apply(X, R_q, p))[:, piv_q].T.copy()
                 for X in alg.actions())
    return len(piv_q), mats


def _left_apply(X, rows, m, p):
    """Post-compose flattened (d x m) maps with the action matrix X."""
    r, d = rows.shape[0], X.shape[0]
    if r == 0:
        return rows
    V = rows.reshape(r, d, m).transpose(1, 0, 2).reshape(d, r * m)
    out = mat_mul(X, V, p)
    return out.reshape(d, r, m).transpose(1, 0, 2).reshape(r, d * m)


def commutant_hom(M, A):
    """Hom_A(M, A) as the commutant: k-linear phi with phi o x_v = x_v o phi.

    Reads only the action matrices of M, so it is independent of the
    relation-space route inside hom_module; the oracle it is checked
    against.
    """
    m, d, p = M.basis_dim, A.dim, A.p
    acts = A.actions()
    assert len(acts) == len(M.actions)
    if m == 0:
        return FinModule(0, tuple(identity(0) for _ in acts), identity(0), A)
    blocks = [np.mod(np.kron(X, identity(m)) - np.kron(identity(d), B.T), p)
              for X, B in zip(acts, M.actions)]
    R, piv = rref(nullspace(np.vstack(blocks), p), p)
    R = R[:len(piv)]
    mats = tuple(_left_apply(X, R, m, p)[:, piv].T.copy() for X in acts)
    return FinModule(len(piv), mats, identity(len(piv)), A)


class TestConormal:
    def test_cotangent_of_point(self):
        # X the whole plane: the restricted conormal module is m/m^2
        R = ring()
        s = make_scenario(R, Ideal(R, []), idl(R, "x, y"), 2, 2)
        big, _ = conormal_modules(s)
        assert big.basis_dim == 2
        assert rank(big.generator_images, P) == 2

    def test_ci_freeness(self):
        s = graph2()
        assert conormal_restricted(s).shape == (0, 3 * 3)
        assert conormal_modules(s)[0].basis_dim == 3 * 3
        f = fatpoint()
        assert conormal_modules(f)[0].basis_dim == 6 * 4

    def test_small_module_dims(self):
        # over the chart the small side is m^2/m^4: 3 + 4 = 7 for the plane,
        # 6 + 10 = 16 for three variables
        assert conormal_modules(graph2())[1].basis_dim == 7
        assert conormal_modules(fatpoint())[1].basis_dim == 16

    def test_small_module_on_curve(self):
        R = ring("x1,a")
        s = scenario(R, "x1 - a^2", "x1", 1, 1)
        assert conormal_modules(s)[1].basis_dim == 2

    def test_small_module_transversal_point(self):
        R = ring("x,y,z")
        s = scenario(R, "z", "x, y - z", 2, 2)
        assert conormal_modules(s)[1].basis_dim == 2

    def test_restriction_is_onto(self):
        # both sides are quotients of k^(g*d); the big relation space lies
        # in the small one, so the identity induces the surjection 9 -> 7
        s = graph2()
        big, small = conormal_restricted(s), conormal_in_X(s)
        assert tuple(M.basis_dim for M in conormal_modules(s)) == (9, 7)
        assert small.shape == (2, 9)
        assert rank(np.vstack([small, big]), P) == 2
        # not a complete intersection: the containment has rows to test
        s = axes_on_line()
        big, small = conormal_restricted(s), conormal_in_X(s)
        assert big.shape[0] > 0
        assert rank(np.vstack([small, big]), P) == small.shape[0]

    @pytest.mark.parametrize("case", ["pair0", "pair1", "pair2", "pair3",
                                      "axes_on_line", "plane_holds_points"])
    def test_containment_read_off_the_rref(self, case):
        # K_small is in rref, so K_big lies in it exactly when each row v
        # equals v[piv] @ K_small: the verdict of the rank of the stack,
        # both ways round and for a big side pushed off the small one
        if case.startswith("pair"):
            L, I, modulus = affine_cases()[int(case[-1])]
            extra = Ideal(I.ring, []) if modulus is None else modulus
            alg = ArtinianAlgebra.from_ideal(I + L + extra)
            big = _relation_space(I.gens, I + extra, alg)
            small = _relation_space(I.gens, alg.ideal, alg)
        else:
            s = {"axes_on_line": axes_on_line,
                 "plane_holds_points": plane_holds_points}[case]()
            big, small = conormal_restricted(s), conormal_in_X(s)
        assert small.shape[0] and np.array_equal(small, rref_rows(small))
        cases = [(big, small), (small, big)]
        # and with the unit vector of a column outside the pivots of K_small
        width = small.shape[1]
        free = sorted(set(range(width)) - set(rref(small, P)[1]))
        if free:
            off = np.eye(1, width, free[0], dtype=np.int64)
            cases.append((np.vstack([big, off]), small))
        verdicts = []
        for rows, R in cases:
            want = rank(np.vstack([R, rows]), P) == R.shape[0]
            assert _in_row_space(rows, R, P) == want
            verdicts.append(want)
        assert verdicts[0] and not (free and verdicts[-1])

    def test_restriction_outside_relations_rejected(self):
        # a big side whose relations escape the small side admits no
        # restriction map at all
        s = graph2()
        with pytest.raises(RuntimeError, match="onto"):
            _defect_report(identity(9), conormal_in_X(s), s.Z, s.c)

    @pytest.mark.parametrize("case", sorted(CI_SCENARIOS))
    def test_free_big_module_matches_general_path(self, case):
        s = CI_SCENARIOS[case]()
        # every case, the fat point too, is certified by linear witnesses
        assert _linear_witnesses(s.I_Y.gens, s.ring.p)
        width = len(s.I_Y.gens) * s.Z.dim
        assert conormal_restricted(s).shape == (0, width)
        assert big_relations(s).shape == (0, width)

    @pytest.mark.parametrize("make", [axes_on_line, plane_holds_points])
    def test_non_ci_takes_general_path(self, make):
        s = make()
        kernel = conormal_restricted(s)
        assert kernel.shape[0] > 0
        assert np.array_equal(kernel, rref_rows(big_relations(s)))

    def test_wrong_codim_rejected(self):
        R = ring("x1,x2,x3,a,b")
        s = scenario(R, "x1 - a^2, x2 - a*b, x3 - b^2", "x1, x2, x3", 2, 2)
        with pytest.raises(RuntimeError, match="codim Y is 3"):
            q_module(s)

    def test_actions_commute(self):
        s = graph2()
        small = conormal_modules(s)[1]
        assert len(small.actions) == s.Z.nvars and small.basis_dim == 7
        for A in small.actions:
            for B in small.actions:
                assert np.array_equal(mat_mul(A, B, P), mat_mul(B, A, P))

    def test_annihilated_by_intersection_ideal(self):
        s = graph2()
        big = conormal_modules(s)[0]
        assert big.basis_dim == 9
        for f in (s.I_X + s.I_Y).gens:
            assert not poly_action(big.actions, f, big.basis_dim, P).any()


def affine_cases():
    """(L, I, modulus) inputs of q_affine_pair, as the pair tests use them."""
    R = ring()
    L, I = idl(R, "y"), idl(R, "x^2, x*y")
    R4 = ring("x,y,u,v")
    I4 = idl(R4, "x^2") + idl(R4, "u^2")
    return [(L, I, None), (L, I, I * L), (L, I, idl(R, "x^2")),
            (idl(R4, "y, v"), I4, idl(R4, "u^2"))]


# graph n = 2..6, the fat point, EI and graph n = 3, 4 swapped
SMALL_SIDE_SCENARIOS = {
    **{f"graph{n}": (lambda n=n: gen_quadric_graph(n, Seed(0)))
       for n in range(2, 7)},
    "fatpoint": lambda: gen_fatpoint_model(Seed(0)),
    "ei": lambda: gen_EI_model(Seed(0)),
    "swapped3": lambda: swapped(gen_quadric_graph(3, Seed(0))),
    "swapped4": lambda: swapped(gen_quadric_graph(4, Seed(0))),
    "multipoint": multipoint,
}


class TestRelationSpace:
    """The syzygy route against the general path through I^2-type bases."""

    @pytest.mark.parametrize("case", sorted(SMALL_SIDE_SCENARIOS))
    def test_small_side_matches_general_path(self, case):
        s = SMALL_SIDE_SCENARIOS[case]()
        assert np.array_equal(conormal_in_X(s),
                              rref_rows(small_relations(s)))

    @pytest.mark.parametrize("make", [axes_on_line, plane_holds_points])
    def test_both_sides_of_non_ci(self, make):
        s = make()
        assert np.array_equal(conormal_restricted(s),
                              rref_rows(big_relations(s)))
        assert np.array_equal(conormal_in_X(s),
                              rref_rows(small_relations(s)))

    @pytest.mark.parametrize("text", [
        "x^2, y^2, z^2, x*y, x*z, y*z", "x^2, y^3, x*z, z^2 - x*y",
        "x - y^2, y^3, z^2", "x, y, z"])
    def test_squared_ideal_inputs(self, text):
        # hilbert_tangent_dim takes the generators of I, qbar the minimal
        # generators of its minimal presentation J; both against I^2
        I = idl(ring("x,y,z"), text)
        alg = ArtinianAlgebra.from_ideal(I)
        assert np.array_equal(_relation_space(I.gens, I, alg), rref_rows(
            spanning_kernel(I.gens, I.power(2), alg)))
        J = minimal_presentation(I)
        algj = ArtinianAlgebra.from_ideal(J)
        gens = minimal_generators(algj)
        assert np.array_equal(_relation_space(gens, Ideal(J.ring, gens),
                                              algj), rref_rows(
            spanning_kernel(gens, Ideal(J.ring, gens).power(2), algj)))

    @pytest.mark.parametrize("idx", range(4))
    def test_affine_pair_inputs(self, idx):
        L, I, modulus = affine_cases()[idx]
        extra = Ideal(I.ring, []) if modulus is None else modulus
        alg = ArtinianAlgebra.from_ideal(I + L + extra)
        isq = I.power(2)
        big = _relation_space(I.gens, I + extra, alg)
        small = _relation_space(I.gens, alg.ideal, alg)
        assert np.array_equal(big, rref_rows(
            spanning_kernel(I.gens, isq + I * L + extra, alg)))
        assert np.array_equal(small, rref_rows(
            spanning_kernel(I.gens, isq + L + extra, alg)))

    def test_repacked_tracked_run(self):
        # with y^8 the generators fit the initial packed fields (exponents
        # up to 31), but their cofactors as polynomials would outgrow them
        R = ring()
        f = parse_ideal("x^7*y^3 + x*y^2, x*y^8", R)
        I = Ideal(R, f)
        Z = I + idl(R, "x^3, y^3")
        alg = ArtinianAlgebra.from_ideal(Z)
        K = _relation_space(f, I, alg)
        assert K.shape[0] > 0
        assert np.array_equal(K, rref_rows(spanning_kernel(f, I * Z, alg)))

    def test_small_side_starts_no_basis_run(self, monkeypatch):
        # K_small and the Hilbert tangent space read the run that built Z
        s = gen_quadric_graph(4, Seed(0))
        runs = []

        def counting_run(ring, gens):
            runs.append(gens)
            return plain_run(ring, gens)

        plain_run = gb_module._run
        monkeypatch.setattr(gb_module, "_run", counting_run)
        with pair_budget(1):
            assert conormal_in_X(s).shape[0] > 0
            assert hilbert_tangent_dim(s.Z) > 0
        assert runs == []

    def test_second_replay_builds_no_monomial_matrix(self, monkeypatch):
        # the replay's M_q live on the algebra, so a second K_small on the
        # same scenario multiplies no matrix in zerodim
        s = gen_quadric_graph(3, Seed(0))
        products = []

        def counting(a, b, p):
            products.append(a.shape)
            return plain(a, b, p)

        plain = zerodim.mat_mul
        monkeypatch.setattr(zerodim, "mat_mul", counting)
        first = conormal_in_X(s)
        built = len(products)
        assert built > 0
        assert np.array_equal(conormal_in_X(s), first)
        assert len(products) == built

    def test_f_must_be_a_run_of_generators(self):
        R = ring("x,y,z")
        I = idl(R, "x^2, x*y, y^2, z")
        alg = ArtinianAlgebra.from_ideal(I)
        assert _relation_space(I.gens[1:3], I, alg).shape[1] == 2 * alg.dim
        gens = I.gens
        with pytest.raises(ValueError, match="run of generators"):
            _relation_space([gens[0], gens[2]], I, alg)
        with pytest.raises(ValueError, match="run of generators"):
            _relation_space([gens[0] + gens[1]], I, alg)

    def test_no_squared_ideal(self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("Ideal.power was called")

        monkeypatch.setattr(Ideal, "power", refuse)
        rep = q_module(gen_quadric_graph(4, Seed(0)))
        assert (rep.deg_z, rep.q, rep.mu_q) == (10, 5, 5)
        R = ring("x,y,z")
        assert hilbert_tangent_dim(ArtinianAlgebra.from_ideal(
            idl(R, "x^2, y^2, z^2, x*y, x*z, y*z"))) == 18


class TestHom:
    def test_hom_of_free_rank_one(self):
        R = ring()
        A = ArtinianAlgebra.from_ideal(idl(R, "x^2, y^2"))
        h = hom_module(free_rank_one(A, A.ideal), A)
        assert h.basis_dim == A.dim
        # the dual of the free cover is again free: one generator suffices
        assert module_mu(h) == (1, ((4, 4, 1),))

    def test_hom_into_socle(self):
        R = ring("x")
        A = ArtinianAlgebra.from_ideal(idl(R, "x^2"))
        # the residue field: one generator with the relation x * gen = 0
        residue = presented(np.array([[0, 1]], dtype=np.int64), 1, A,
                            idl(R, "x"))
        assert residue.basis_dim == 1
        h = hom_module(residue, A)
        assert h.basis_dim == 1
        assert module_mu(h) == (1, ((2, 1, 1),))

    def test_dual_routes_agree(self):
        def agree(M, A):
            h, oracle = hom_module(M, A), commutant_hom(M, A)
            assert h.basis_dim == oracle.basis_dim
            assert module_mu(h) == module_mu(oracle)
            return h.basis_dim

        for s, expected in ((graph2(), 6), (fatpoint(), 18)):
            assert agree(conormal_modules(s)[1], s.Z) == expected
        # two local factors; a non-free big side (K_big != 0)
        for s in (multipoint(), axes_on_line()):
            for M in conormal_modules(s):
                agree(M, s.Z)
        assert conormal_restricted(axes_on_line()).shape[0] > 0
        # qbar is the cokernel of the Hom rows of I/I^2 in k^(g*d); present
        # the same module here, so that it keeps its relation space
        R = ring("x,y,z")
        zbar = qbar(ArtinianAlgebra.from_ideal(
            idl(R, "x^2, y^2, z^2, x*y, x*z, y*z")))
        A = zbar.algebra
        gens = minimal_generators(A)
        g = len(gens)
        K = _relation_space(gens, Ideal(A.ring, gens), A)
        M = presented(_hom_rows(K, g, A), g, A)
        assert M.basis_dim == zbar.basis_dim
        assert all(np.array_equal(X, Y)
                   for X, Y in zip(M.actions, zbar.actions))
        assert agree(M, A) > 0

    def test_free_dual_has_full_rank(self):
        s = fatpoint()
        big = conormal_modules(s)[0]
        assert hom_module(big, s.Z).basis_dim == 6 * 4
        assert commutant_hom(big, s.Z).basis_dim == 6 * 4

    def test_needs_presented_module(self):
        R = ring("x")
        A = ArtinianAlgebra.from_ideal(idl(R, "x^2"))
        with pytest.raises(ValueError):
            hom_module(commutant_hom(free_rank_one(A, None), A), A)
        B = ArtinianAlgebra.from_ideal(idl(R, "x^3"))
        with pytest.raises(ValueError):
            hom_module(free_rank_one(A, None), B)

    def test_wrong_annihilator_rejected(self):
        R = ring("x")
        A = ArtinianAlgebra.from_ideal(idl(R, "x^2"))
        bad = free_rank_one(A, annihilator=idl(R, "x"))
        with pytest.raises(RuntimeError):
            hom_module(bad, A)

    def test_hilbert_tangent(self):
        def tangent(R, text):
            return hilbert_tangent_dim(ArtinianAlgebra.from_ideal(idl(R, text)))

        assert tangent(ring("x,y,z"), "x^2, y^2, z^2, x*y, x*z, y*z") == 18
        assert tangent(ring("x"), "x^2") == 2
        assert tangent(ring(), "x, y") == 2


class TestQModule:
    def test_graph_report(self):
        rep = q_module(graph2())
        assert rep.to_json_dict() == {
            "deg_Z": 3, "c": 1, "dim_M_big": 9, "dim_M_small": 7,
            "hilb_tangent_dim": 6, "dim_Q": 3, "q": "3/1", "mu_Q": 3,
            "components": [{"length": 3, "dim_Q": 3, "mu": 3}],
        }
        assert rep.q == Fraction(3)

    def test_fatpoint_report(self):
        rep = q_module(fatpoint())
        assert (rep.deg_z, rep.dim_m_big, rep.dim_m_small) == (4, 24, 16)
        assert rep.hilb_tangent_dim == 18
        assert rep.dim_q == 6
        assert rep.q == Fraction(2)
        assert rep.mu_q == 6
        assert rep.per_component == ((4, 6, 6),)

    def test_formula_paths_agree(self):
        # route 2: deg Z * codim Y - embedded tangent dimension;
        # route 3: deg Z * c - t1 + derivations, both over the chart
        for s in (graph2(), fatpoint()):
            rep = q_module(s)
            assert rep.dim_q == rep.deg_z * s.dims[1] - rep.hilb_tangent_dim
            td = tangent_data(s.chart_ideal)
            assert td.hilb_tangent_dim == rep.hilb_tangent_dim
            assert rep.dim_q == (rep.deg_z * s.c - td.t1_dim
                                 + td.derivations_dim)

    def test_two_rational_points(self):
        rep = q_module(multipoint())
        assert (rep.deg_z, rep.dim_m_big, rep.dim_m_small) == (2, 4, 2)
        assert rep.dim_q == 2 and rep.q == Fraction(2)
        assert rep.per_component == ((1, 1, 1), (1, 1, 1))

    def test_conjugate_point_pair(self):
        R = ring("x1,x2,a")
        s = scenario(R, f"x1 - a^2 + {nonresidue()}, x2", "x1, x2", 1, 2)
        rep = q_module(s)
        assert rep.deg_z == 2
        assert rep.dim_q == 2
        # one irreducible component; lengths count F_p dimensions
        assert rep.per_component == ((2, 2, 2),)

    def test_lines_meeting_at_point(self):
        # two lines through the origin of A^3: expected dimension is -1,
        # so the meeting itself is the excess; by hand M_big = <z, x - y>
        # and M_small = <z> over the reduced point
        R = ring("x,y,z")
        rep = q_module(scenario(R, "x, y", "z, x - y", 1, 2))
        assert (rep.deg_z, rep.dim_m_big, rep.dim_m_small) == (1, 2, 1)
        assert rep.hilb_tangent_dim == 1
        assert rep.dim_q == 1 and rep.q == Fraction(1)
        assert rep.per_component == ((1, 1, 1),)

    def test_no_excess_codimension_raises(self):
        R = ring()
        s = scenario(R, "x", "y", 1, 1)
        with pytest.raises(ExcessIntersection) as info:
            q_module(s)
        rep = info.value.report
        assert rep.q is None and rep.dim_q == 0 and rep.deg_z == 1

    def test_mu_against_global_radical_route(self):
        for s in (graph2(), multipoint(), fatpoint()):
            rep = q_module(s)
            dim, mats = q_space(s)
            assert dim == rep.dim_q
            blocks = mr.nilpotent_parts(s.Z, mats)
            mu = dim - rank(np.concatenate(blocks, axis=1), P)
            assert mu == rep.mu_q

    def test_hom_dims_assemble(self):
        s = graph2()
        rep = q_module(s)
        big_dual = hom_module(conormal_modules(s)[0], s.Z)
        assert big_dual.basis_dim == rep.dim_q + rep.hilb_tangent_dim

    def test_one_quotient_per_report(self, monkeypatch):
        # only the defect module gets a basis and actions; the conormal
        # modules stay relation spaces, and with a free big side no kernel
        # of a relation map is taken
        calls = []

        def counting(*args):
            calls.append(args)
            return FinModule(*args)

        def refuse(*args):
            raise AssertionError("a kernel was taken")

        monkeypatch.setattr(excess, "FinModule", counting)
        monkeypatch.setattr(excess, "nullspace", refuse)
        rep = q_module(gen_quadric_graph(4, Seed(0)))
        assert (rep.deg_z, rep.q, rep.mu_q) == (10, 5, 5)
        assert len(calls) == 1


class TestQuotient:
    """_quotient_rep against the reduce-then-rref route it replaced."""

    @pytest.mark.parametrize("make", [axes_on_line, plane_holds_points])
    def test_proper_big_span(self, make):
        # K_big != 0, so the big Hom space is a proper subspace and the two
        # routes pick different bases of the same quotient
        s = make()
        nb, ns = hom_spaces(s)
        assert 0 < nb.shape[0] < nb.shape[1]
        dim, mats, _ = _quotient_rep(nb, ns, s.Z)
        odim, omats = reduce_then_rref_quotient(nb, ns, s.Z)
        assert dim == odim > 0
        assert module_mu(FinModule(dim, mats, identity(dim), s.Z)) == \
            module_mu(FinModule(odim, omats, identity(odim), s.Z))
        # the ranks of the actions do not depend on the basis; x and y act
        # nontrivially here
        ranks = [rank(X, P) for X in mats]
        assert ranks == [rank(X, P) for X in omats] and any(ranks)

    @pytest.mark.parametrize("make", [
        multipoint, lambda: gen_quadric_graph(3, Seed(0)),
        lambda: gen_EI_model(Seed(0))], ids=["multipoint", "graph3", "ei"])
    def test_whole_space_is_bit_identical(self, make):
        # a free big module has dual k^(g*d), where both routes read the
        # quotient basis off the non-pivot columns of rref(small); on these
        # inputs some variable acts on Q by a nonzero matrix
        s = make()
        nb, ns = hom_spaces(s)
        assert np.array_equal(nb, identity(nb.shape[1]))
        dim, mats, _ = _quotient_rep(nb, ns, s.Z)
        odim, omats = reduce_then_rref_quotient(nb, ns, s.Z)
        assert dim == odim
        assert any(X.any() for X in mats)
        assert all(np.array_equal(X, Y) for X, Y in zip(mats, omats))


class TestQbar:
    def test_complete_intersections_vanish(self):
        R = ring("x")
        assert qbar(ArtinianAlgebra.from_ideal(idl(R, "x^2"))).basis_dim == 0
        R2 = ring()
        assert qbar(ArtinianAlgebra.from_ideal(idl(R2, "x, y"))).basis_dim == 0

    def test_fat_point_intrinsic(self):
        R = ring("x,y,z")
        zbar = qbar(ArtinianAlgebra.from_ideal(
            idl(R, "x^2, y^2, z^2, x*y, x*z, y*z")))
        assert zbar.basis_dim == 6
        assert zbar.generator_images.shape[0] == 6
        assert module_mu(zbar) == (6, ((4, 6, 6),))

    def test_embedding_dimension_reduction(self):
        R = ring()
        zbar = qbar(ArtinianAlgebra.from_ideal(idl(R, "x - y^2, y^3")))
        assert zbar.basis_dim == 0
        assert zbar.algebra.nvars == 1
        assert zbar.generator_images.shape[0] == 1

    def test_independence_relation(self):
        s = graph2()
        rep = q_module(s)
        zbar = qbar(ArtinianAlgebra.from_ideal(s.chart_ideal))
        gap = rep.dim_q - zbar.basis_dim
        assert gap % rep.deg_z == 0
        m = gap // rep.deg_z
        assert m >= 0
        assert m == s.dims[1] - zbar.generator_images.shape[0]
        assert rep.mu_q == module_mu(zbar)[0] + m

    def test_nonlocal_rejected(self):
        R = ring("x")
        with pytest.raises(ValueError):
            qbar(ArtinianAlgebra.from_ideal(idl(R, "x^2 - 1")))

    @pytest.mark.parametrize("names,p,text", [
        ("x", 3, "x^3"), ("x", 5, "x^5"), ("x,y", 3, "x^3, y^2")])
    def test_dimension_at_least_p(self, names, p, text):
        # the origin test takes no squarefree part, which needs dim < p
        Z = ArtinianAlgebra.from_ideal(idl(ring(names, p), text))
        assert Z.dim >= p
        assert qbar(Z).basis_dim == 0

    def test_nonlocal_rejected_in_dimension_p(self):
        Z = ArtinianAlgebra.from_ideal(idl(ring("x", 3), "x^3 - x"))
        with pytest.raises(ValueError,
                           match="algebra is not local at the origin"):
            qbar(Z)

    def test_minimal_generators(self):
        # the exact Groebner elements kept, in basis order
        cases = [
            ("x,y", "x^2, x*y, y^2", "y^2, x*y, x^2"),
            ("x,y", "x, y^2", "x, y^2"),
            # redundant spanning sets collapse
            ("x,y", "x^2, y^2, x^2 + y^2", "y^2, x^2"),
            # Groebner elements inside (maximal ideal) * ideal are dropped,
            # the first one too
            ("x,y,z", "x^2, y^3, x*z, z^2 - x*y",
             "x*z, x*y - z^2, x^2, y^3"),
            ("x,y", "x^3 + y^2, x*y^2, y^3 + x^2*y",
             "x*y^2, x^2*y, x^3 + y^2"),
        ]
        for names, text, kept in cases:
            R = ring(names)
            A = ArtinianAlgebra.from_ideal(idl(R, text))
            assert minimal_generators(A) == \
                [parse_polynomial(t, R) for t in kept.split(", ")]


# local ideals whose minimal generators the ladder and qbar read: the
# cases of TestQbar.test_minimal_generators, the qbar inputs, the graph
# charts n = 2..5 and the fat point
MU_CASES = {
    "square": ("x,y", "x^2, x*y, y^2"),
    "x-y2": ("x,y", "x, y^2"),
    "redundant": ("x,y", "x^2, y^2, x^2 + y^2"),
    "drop-first": ("x,y,z", "x^2, y^3, x*z, z^2 - x*y"),
    "cusp": ("x,y", "x^3 + y^2, x*y^2, y^3 + x^2*y"),
    "fat3": ("x,y,z", "x^2, y^2, z^2, x*y, x*z, y*z"),
    "x2": ("x", "x^2"),
    "embedded": ("x,y", "x - y^2, y^3"),
    "embedded3": ("x,y,z", "x - y^2, y^3, z^2"),
    "point": ("x,y,z", "x, y, z"),
    # y^4 + x*y^3 lies in (maximal ideal) * ideal, neither element does:
    # the later one goes
    "tie": ("x,y", "x^3 + y^3, x^2*y + x*y^2, x^4, y^4"),
}


def local_ideal(case):
    if case in MU_CASES:
        names, text = MU_CASES[case]
        return idl(ring(names), text)
    if case == "fatpoint":
        return gen_fatpoint_model(Seed(0)).chart_ideal
    return gen_quadric_graph(int(case[5:]), Seed(0)).chart_ideal


def chart_and_doomed(ideal, monkeypatch, eliminate=True):
    """minimal_presentation's chart and the variables it dropped; with
    eliminate False, Ideal.eliminate raises meanwhile."""
    seen = []
    plain = excess._drop_variables

    def recording(ideal, doomed):
        seen.append(doomed)
        return plain(ideal, doomed)

    def refuse(self, names):
        raise AssertionError("the block-order elimination ran")

    with monkeypatch.context() as m:
        m.setattr(excess, "_drop_variables", recording)
        if not eliminate:
            m.setattr(Ideal, "eliminate", refuse)
        J = minimal_presentation(ideal)
    return J, seen[0]


class TestMinimalChart:
    @pytest.mark.parametrize("case", ["graph2", "graph3", "graph4", "graph5",
                                      "fatpoint"])
    def test_read_off_the_reduced_basis(self, case, monkeypatch):
        ideal = CI_SCENARIOS[case]().Z.ideal
        J, doomed = chart_and_doomed(ideal, monkeypatch, eliminate=False)
        assert doomed and J.ring.nvars == ideal.ring.nvars - len(doomed)
        assert J.groebner().polys == \
            eliminated_chart(ideal, doomed).groebner().polys
        # the chart's generators are its reduced basis, which mu replays
        assert J.gens == J.groebner().polys

    def test_variable_leading_no_element_takes_the_elimination(
            self, monkeypatch):
        # x has a linear part but leads no element (y^2 leads x - y^2)
        ideal = idl(ring(), "x - y^2, y^3")
        calls = []
        plain = Ideal.eliminate

        def counting(self, names):
            calls.append(tuple(names))
            return plain(self, names)

        monkeypatch.setattr(Ideal, "eliminate", counting)
        J, doomed = chart_and_doomed(ideal, monkeypatch)
        assert doomed == ["x"] and calls == [("x",)]
        assert J.groebner().polys == \
            eliminated_chart(ideal, doomed).groebner().polys
        assert ArtinianAlgebra.from_ideal(J).dim == 3


class TestMinimalGenerators:
    @pytest.mark.parametrize("case", sorted(MU_CASES) + [
        "graph2", "graph3", "graph4", "graph5", "fatpoint"])
    def test_matches_the_length_drop(self, case):
        # the ideal itself and its minimal chart, which qbar reads
        ideal = local_ideal(case)
        for I in (ideal, minimal_presentation(ideal)):
            alg = ArtinianAlgebra.from_ideal(I)
            kept = minimal_generators(alg)
            assert kept == length_drop_generators(alg)
            assert len(kept) == _koszul_mu(alg)

    def test_replays_the_charts_own_run(self, monkeypatch):
        J = minimal_presentation(gen_quadric_graph(4, Seed(0)).Z.ideal)
        alg = ArtinianAlgebra.from_ideal(J)
        runs = []
        plain = gb_module._run

        def counting(ring, gens):
            runs.append(tuple(gens))
            return plain(ring, gens)

        monkeypatch.setattr(gb_module, "_run", counting)
        assert len(minimal_generators(alg)) == 5
        assert runs == []

    def test_other_generators_run_on_the_basis(self, monkeypatch):
        I = idl(ring(), "x^2, x*y, y^2")
        alg = ArtinianAlgebra.from_ideal(I)
        polys = I.groebner().polys
        assert I.gens != polys
        runs = []
        plain = gb_module._run

        def counting(ring, gens):
            runs.append(tuple(gens))
            return plain(ring, gens)

        monkeypatch.setattr(gb_module, "_run", counting)
        assert minimal_generators(alg) == list(polys)
        assert runs == [polys]

    def test_count_mismatch_raises(self, monkeypatch):
        alg = ArtinianAlgebra.from_ideal(local_ideal("fat3"))
        monkeypatch.setattr(excess, "_koszul_mu", lambda alg: 5)
        with pytest.raises(RuntimeError, match="Koszul"):
            minimal_generators(alg)


# --- the per-term replay the batched one replaced, kept as its oracle


def per_term_replay(gb, units, shift, p):
    """Each sum of gb's run replayed term by term: its parts c * x^q * v
    grouped by shift, each group acted on by shift(q), the sums that
    reached zero returned in run order, one row each."""
    shifts, entries = trace_entries(gb)
    vals, out = list(units), []
    for adds, coeffs, qs, srcs in entries:
        by_shift: dict = {}
        for c, q, src in zip(coeffs, qs, srcs):
            by_shift[q] = (by_shift.get(q, 0) + c * vals[src]) % p
        total = sum(mat_mul(v, shift(shifts[q]).T, p)
                    for q, v in by_shift.items()) % p
        (vals if adds else out).append(total)
    width = np.prod(units.shape[1:], dtype=int)
    return np.array(out, dtype=np.int64).reshape(len(out), width)


def unit_cofactors(f, ideal, alg):
    gens, g = ideal.gens, len(f)
    at = gens.index(f[0])
    units = np.zeros((len(gens), g, alg.dim), dtype=np.int64)
    units[at + np.arange(g), np.arange(g)] = alg.one
    return units


def assert_replays_as_oracle(f, ideal, alg):
    """The batched replay against the per-term one, row for row, and the
    relation space against the span of the per-term rows."""
    units = unit_cofactors(f, ideal, alg)
    gb = ideal.groebner()
    want = per_term_replay(gb, units, alg.monomial_matrix, alg.p)
    assert np.array_equal(_replay(gb, units, alg.monomial_matrix, alg.p),
                          want)
    assert np.array_equal(_relation_space(f, ideal, alg),
                          _submodule(want, alg)[0])
    return want


def zero_entries(ideal):
    return [e for e in trace_entries(ideal.groebner())[1] if not e[0]]


def constant_term_replay(alg):
    """The arguments of minimal_generators' replay: the run of the reduced
    basis, the unit vectors of k^g with d = 1, and evaluation at the
    origin as the shift."""
    polys = alg.ideal.groebner().polys
    g = len(polys)
    return (Ideal(alg.ring, polys).groebner(), identity(g).reshape(g, g, 1),
            lambda q: np.array([[0 if any(q) else 1]]), alg.p)


def per_term_minimal_generators(alg):
    """minimal_generators on the per-term replay of the constant terms."""
    polys = alg.ideal.groebner().polys
    g = len(polys)
    k0 = per_term_replay(*constant_term_replay(alg))
    _, piv = rref(k0[:, ::-1], alg.p)
    dropped = {g - 1 - j for j in piv}
    return [f for j, f in enumerate(polys) if j not in dropped]


class TestBatchedReplay:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_graph_small_side(self, n, seed):
        s = gen_quadric_graph(n, Seed(seed))
        assert_replays_as_oracle(s.I_Y.gens, s.Z.ideal, s.Z)

    @pytest.mark.parametrize("make", [gen_EI_model, gen_fatpoint_model])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ei_and_fat_point(self, make, seed):
        s = make(Seed(seed))
        assert_replays_as_oracle(s.I_Y.gens, s.Z.ideal, s.Z)

    @pytest.mark.parametrize("make", [axes_on_line, plane_holds_points])
    def test_both_sides_of_non_ci(self, make):
        s = make()
        assert_replays_as_oracle(s.I_Y.gens, s.I_Y, s.Z)
        assert_replays_as_oracle(s.I_Y.gens, s.Z.ideal, s.Z)

    @pytest.mark.parametrize("idx", range(4))
    def test_affine_pairs(self, idx):
        L, I, modulus = affine_cases()[idx]
        extra = Ideal(I.ring, []) if modulus is None else modulus
        alg = ArtinianAlgebra.from_ideal(I + L + extra)
        assert_replays_as_oracle(I.gens, I + extra, alg)
        assert_replays_as_oracle(I.gens, alg.ideal, alg)

    def test_no_zero_entries(self):
        # coprime leading terms: the one pair is never formed, so no sum
        # reaches zero and the relation space is zero, as I^2 says
        I = idl(ring(), "x^2, y^3")
        alg = ArtinianAlgebra.from_ideal(I)
        assert zero_entries(I) == []
        assert assert_replays_as_oracle(I.gens, I, alg).shape == (0,
                                                                  2 * alg.dim)
        assert _relation_space(I.gens, I, alg).shape[0] == 0
        assert spanning_kernel(I.gens, I.power(2), alg).shape[0] == 0

    def test_no_zero_sums(self):
        # the inputs row-reduce to x^2 - y and x + y, whose one S-pair adds
        # y^2 - y, and every later pair is coprime
        I = idl(ring(), "x^2 + x, x^2 - y")
        alg = ArtinianAlgebra.from_ideal(I)
        entries = trace_entries(I.groebner())[1]
        assert len(entries) == 3 and all(e[0] for e in entries)
        assert assert_replays_as_oracle(I.gens, I, alg).shape == (0,
                                                                  2 * alg.dim)

    def test_only_entries_are_the_inputs(self):
        # the cotangent space of a point: the runs of (x, y) on both sides
        # hold one entry per input and nothing else
        R = ring()
        s = make_scenario(R, Ideal(R, []), idl(R, "x, y"), 2, 2)
        for ideal in (s.I_Y, s.Z.ideal):
            entries = trace_entries(ideal.groebner())[1]
            assert sorted((e[0], e[2], e[3]) for e in entries) == [
                (True, [0], [0]), (True, [0], [1])]
            assert assert_replays_as_oracle(s.I_Y.gens, ideal,
                                            s.Z).shape == (0, 2)

    def test_only_zero_entry_is_a_duplicate_input(self):
        R = ring()
        I = Ideal(R, parse_ideal("x^2, y^3, x^2", R))
        alg = ArtinianAlgebra.from_ideal(I)
        assert len(zero_entries(I)) == 1
        rows = assert_replays_as_oracle(I.gens, I, alg)
        # the syzygy e_1 - e_3 of x^2 - x^2 = 0, on the unit of the algebra
        d = alg.dim
        want = np.zeros((1, 3 * d), dtype=np.int64)
        want[0, :d], want[0, 2 * d:] = alg.one, (P - alg.one) % P
        assert np.array_equal(rows * pow(int(rows[0, 0]), P - 2, P) % P,
                              want)
        assert np.array_equal(_relation_space(I.gens, I, alg), rref_rows(
            spanning_kernel(I.gens, I.power(2), alg)))

    # (inputs, combinations of them that vanish)
    DEPENDENT_INPUTS = {
        "repeated": ("x^2 - y, y^2 - x, x^2 - y", 1),
        "scalar_multiple": ("x^2 - y, y^2 - x, 3*x^2 - 3*y", 1),
        "sum_of_two": ("x^2 - y, y^2 - x, x^2 + y^2 - x - y", 1),
        "equal_leading": ("x^2 + y, x^2 - x*y, x^2 + x - y^2", 0),
        "non_homogeneous": ("x^3 - y, x*y - 1, x^3 + x*y - y - 1, y^2 - x",
                            1),
    }

    @pytest.mark.parametrize("case", sorted(DEPENDENT_INPUTS))
    def test_dependent_inputs(self, case):
        # the run row-reduces its inputs first: a dependency among them is
        # a zero entry of unshifted inputs, and the basis, the syzygies and
        # the relation space are those of the general path
        text, vanish = self.DEPENDENT_INPUTS[case]
        R = ring()
        gens = parse_ideal(text, R)
        I = Ideal(R, gens)
        gb = I.groebner()
        assert gb.polys == groebner(R, gens[::-1]).polys
        assert repeated_terms(gb) == []
        assert_replay_layout(gb, len(gens))
        inputs = trace_entries(gb)[1][:len(gens)]
        assert sum(not e[0] for e in inputs) == vanish
        assert_exact(R, gens, replayed(gb, gens))
        alg = ArtinianAlgebra.from_ideal(I)
        assert_replays_as_oracle(I.gens, I, alg)
        assert np.array_equal(_relation_space(I.gens, I, alg), rref_rows(
            spanning_kernel(I.gens, I.power(2), alg)))

    @pytest.mark.parametrize("case", sorted(MU_CASES) + [
        "graph2", "graph3", "graph4", "graph5", "fatpoint"])
    def test_minimal_generators(self, case):
        # the d = 1 replay of the constant terms, row for row
        alg = ArtinianAlgebra.from_ideal(local_ideal(case))
        args = constant_term_replay(alg)
        assert np.array_equal(_replay(*args), per_term_replay(*args))
        assert minimal_generators(alg) == per_term_minimal_generators(alg)


    @staticmethod
    def counted_replay(monkeypatch, *args):
        """_replay on the arguments, and the number of products it took."""
        calls = []

        def counting(A, B, p):
            calls.append(1)
            return mat_mul(A, B, p)

        with monkeypatch.context() as m:
            m.setattr(excess, "mat_mul", counting)
            return _replay(*args), len(calls)

    @staticmethod
    def input_entries(gb, n):
        """Whether each entry of gb's trace holds only unshifted inputs, of
        the n the run was built from."""
        shifts, entries = trace_entries(gb)
        return [all(not any(shifts[q]) for q in e[2]) and max(e[3]) < n
                for e in entries]

    @pytest.mark.parametrize("text", ["x, y", "x^2, y^3", "x^2 + x, y^2",
                                      "x^2, y^3, x^2"])
    def test_input_entries_take_no_product(self, text, monkeypatch):
        # no input entry takes a product of its own: each input's element,
        # and the combination that vanishes, x^2 - x^2 in the last case, is
        # a combination of unit cofactors, and all of them share one product
        I = idl(ring(), text)
        alg = ArtinianAlgebra.from_ideal(I)
        gb = I.groebner()
        n = len(I.gens)
        assert self.input_entries(gb, n) == [True] * n
        units = unit_cofactors(I.gens, I, alg)
        got, calls = self.counted_replay(monkeypatch, gb, units,
                                         alg.monomial_matrix, P)
        assert np.array_equal(got, per_term_replay(gb, units,
                                                   alg.monomial_matrix, P))
        assert calls == 1

    @pytest.mark.parametrize("case", sorted(MU_CASES) + [
        "graph2", "graph3", "graph4", "graph5", "fatpoint"])
    def test_origin_replay_skips_vanishing_shifts(self, case, monkeypatch):
        # at the origin every x^q with q != 0 is zero: past the one product
        # the input entries share, an S-pair entry takes its two products
        # only when a term sits at x^0, and the S-pair sums that reach zero
        # take one shift and one sum when any does
        alg = ArtinianAlgebra.from_ideal(local_ideal(case))
        args = constant_term_replay(alg)
        shifts, entries = trace_entries(args[0])
        inputs = self.input_entries(args[0], args[1].shape[0])
        at_one = [[not any(shifts[q]) for q in e[2]] for e in entries]
        pairs = sum(any(one) for e, one, i in zip(entries, at_one, inputs)
                    if e[0] and not i)
        sums = any(any(one) for e, one, i in zip(entries, at_one, inputs)
                   if not e[0] and not i)
        got, calls = self.counted_replay(monkeypatch, *args)
        assert np.array_equal(got, per_term_replay(*args))
        assert calls == 1 + 2 * pairs + 2 * sums
        if case.startswith("graph"):
            assert not all(map(all, at_one))


class TestAffinePairs:
    def test_frozen_oracle(self):
        R = ring()
        rep = q_affine_pair(R, idl(R, "y"), idl(R, "x^2, x*y"))
        assert rep.to_json_dict() == {
            "deg_Z": 2, "c": None, "dim_M_big": 3, "dim_M_small": 2,
            "hilb_tangent_dim": 2, "dim_Q": 1, "q": None, "mu_Q": 1,
            "components": [{"length": 2, "dim_Q": 1, "mu": 1}],
        }

    def test_transversal_pair_vanishes(self):
        R = ring()
        L, I = idl(R, "x"), idl(R, "y")
        assert I.intersect(L).equals(I * L)
        assert q_affine_pair(R, L, I).dim_q == 0

    def test_equal_pair(self):
        # I = L = (x) in one variable: the source Hom module is zero while
        # the target is the dual of a free rank-one module
        R = ring("x")
        rep = q_affine_pair(R, idl(R, "x"), idl(R, "x"))
        assert rep.dim_m_small == 0
        assert rep.dim_q == 1

    def test_reduction_modulo_product(self):
        # L' = I*L always satisfies I cap L' = I*L', so the defect module
        # is unchanged after passing to the quotient by L'
        R = ring()
        L, I = idl(R, "y"), idl(R, "x^2, x*y")
        prod = I * L
        assert I.intersect(prod).equals(prod)
        plain = q_affine_pair(R, L, I)
        reduced = q_affine_pair(R, L, I, modulus=prod)
        assert plain.dim_q == reduced.dim_q
        assert plain.mu_q == reduced.mu_q

    def test_monotone_in_modulus(self):
        R = ring()
        L, I = idl(R, "y"), idl(R, "x^2, x*y")
        sub = idl(R, "x^2")
        assert all(I.contains(f) for f in sub.gens)
        assert q_affine_pair(R, L, I, modulus=sub).dim_q <= \
            q_affine_pair(R, L, I).dim_q

    def test_additive_decomposition(self):
        # split generators over disjoint variables; both hypotheses are
        # verified computationally before the additivity assertion
        R = ring("x,y,u,v")
        Ia, Ib = idl(R, "x^2"), idl(R, "u^2")
        L = idl(R, "y, v")
        I = Ia + Ib
        assert Ia.intersect(Ib).equals(Ia * Ib)
        assert Ia.intersect(Ib + L).equals(Ia * (Ib + L))
        whole = q_affine_pair(R, L, I)
        parta = q_affine_pair(R, L, I, modulus=Ia)
        partb = q_affine_pair(R, L, I, modulus=Ib)
        assert whole.dim_q == parta.dim_q + partb.dim_q


class TestSymmetry:
    def test_graph_scenario(self):
        rep = symmetry_check(graph2())
        assert rep.agree
        assert rep.forward.dim_q == rep.reverse.dim_q == 3
        assert rep.forward.mu_q == rep.reverse.mu_q == 3

    def test_crossing_lines(self):
        R = ring("x,y,z")
        rep = symmetry_check(scenario(R, "x, y", "z, x - y", 1, 2))
        assert rep.agree
        assert rep.forward.dim_q == rep.reverse.dim_q == 1


class TestTangentData:
    def test_double_point_on_line(self):
        R = ring("x")
        td = tangent_data(idl(R, "x^2"))
        assert (td.zariski_dim, td.derivations_dim) == (1, 1)
        assert (td.t1_dim, td.hilb_tangent_dim) == (1, 2)

    def test_reduced_point(self):
        R = ring("x,y,z")
        assert tangent_data(idl(R, "x, y, z")).t1_dim == 0

    def test_fat_point(self):
        R = ring("x,y,z")
        td = tangent_data(idl(R, "x^2, y^2, z^2, x*y, x*z, y*z"))
        assert (td.zariski_dim, td.derivations_dim) == (3, 9)
        assert (td.t1_dim, td.hilb_tangent_dim) == (15, 18)

    @pytest.mark.parametrize("names,p,text,want", [
        ("x", 3, "x^3", (1, 3, 3, 3)), ("x", 5, "x^5", (1, 5, 5, 5)),
        ("x,y", 3, "x^3, y^2", (2, 9, 9, 12)),
        ("x", 3, "x^3 - x", (0, 0, 0, 3))])
    def test_dimension_at_least_p(self, names, p, text, want):
        td = tangent_data(idl(ring(names, p), text))
        assert (td.zariski_dim, td.derivations_dim, td.t1_dim,
                td.hilb_tangent_dim) == want

    def test_one_algebra_per_call(self, monkeypatch):
        ideal = gen_fatpoint_model(Seed(0)).chart_ideal
        built = []
        from_ideal = ArtinianAlgebra.from_ideal.__func__

        def counting(cls, ideal):
            built.append(ideal)
            return from_ideal(cls, ideal)

        monkeypatch.setattr(ArtinianAlgebra, "from_ideal",
                            classmethod(counting))
        td = tangent_data(ideal)
        assert td.hilb_tangent_dim == 18
        assert len(built) == 1


# --- the image of the relation map against the Hom-row route -----------------


def two_points():
    """Two reduced points cut on the line y = 0, as a compute session reads
    them: dim X = 0, codim Y = 1."""
    return scenario(ring(), "y, x^2 - 1", "y", 0, 1)


def madic_hilbert(mod):
    """dim m^k*M for k = 0, 1, ... until it stops falling, for m = (x) the
    ideal of the origin: an invariant of the module, not of its basis."""
    p = mod.algebra.p
    V = identity(mod.basis_dim)
    dims = [mod.basis_dim]
    while V.shape[0]:
        R, piv = rref(np.vstack([mat_mul(V, X.T, p) for X in mod.actions]), p)
        V = R[:len(piv)]
        if len(piv) == dims[-1]:
            break
        dims.append(len(piv))
    return dims


def reported_q(run, monkeypatch):
    """The report of run() and the defect module it computed mu on."""
    seen = []
    plain = excess.module_mu

    def recording(mod):
        seen.append(mod)
        return plain(mod)

    with monkeypatch.context() as m:
        m.setattr(excess, "module_mu", recording)
        rep = run()
    return rep, seen[0]


def invariants(mod):
    """(dim, mu and per-component over the report's factors, the m-adic
    Hilbert function) of a module over its algebra."""
    return mod.basis_dim, module_mu(mod), madic_hilbert(mod)


def hom_route_qbar(Z):
    """qbar by the Hom-row route: the quotient of k^(g*d) by the Hom rows
    of I/I^2 for the minimal generators of the minimal chart."""
    alg = ArtinianAlgebra.from_ideal(minimal_presentation(Z.ideal))
    gens = minimal_generators(alg)
    g = len(gens)
    rows = _hom_rows(_relation_space(gens, Ideal(alg.ring, gens), alg), g, alg)
    dim, mats, coordize = _quotient_rep(identity(g * alg.dim), rows, alg)
    return FinModule(dim, mats, coordize(np.kron(identity(g), alg.one)), alg)


def assert_matches_hom_rows(rep, mod, nb, ns, alg):
    """The report and its defect module against ker Phi_big / ker Phi_small
    from the Hom rows nb, ns of the two sides."""
    dim, mats, _ = _quotient_rep(nb, ns, alg)
    oracle = invariants(FinModule(dim, mats, identity(dim), alg))
    assert invariants(mod) == oracle
    assert (rep.dim_q, (rep.mu_q, rep.per_component)) == oracle[:2]
    assert rep.hilb_tangent_dim == ns.shape[0]


IMAGE_SCENARIOS = {
    **{f"graph{n}-{seed}": (lambda n=n, seed=seed:
                            gen_quadric_graph(n, Seed(seed)))
       for n in range(2, 8) for seed in (0, 1)},
    "graph8-0": lambda: gen_quadric_graph(8, Seed(0)),
    "ei": lambda: gen_EI_model(Seed(0)),
    "fatpoint": lambda: gen_fatpoint_model(Seed(0)),
    "two_points": two_points,
    "line_meets_axes": axes_on_line,
    "plane_holds_points": plane_holds_points,
}


class TestImageRoute:
    """Q = Phi_small(ker Phi_big) against ker Phi_big / ker Phi_small."""

    @pytest.mark.parametrize("case", list(IMAGE_SCENARIOS))
    def test_defect_module_matches_hom_rows(self, case, monkeypatch):
        s = IMAGE_SCENARIOS[case]()
        rep, mod = reported_q(lambda: q_module(s), monkeypatch)
        nb, ns = hom_spaces(s)
        assert_matches_hom_rows(rep, mod, nb, ns, s.Z)
        # the big side is free, its dual all of k^(g*d), but on non-CI Y
        free = nb.shape[0] == nb.shape[1]
        assert free == (case not in ("line_meets_axes", "plane_holds_points"))

    @pytest.mark.parametrize("idx", range(4))
    def test_affine_pair_matches_hom_rows(self, idx, monkeypatch):
        # every input of affine_cases has a big side that is not free
        L, I, modulus = affine_cases()[idx]
        rep, mod = reported_q(lambda: q_affine_pair(I.ring, L, I, modulus),
                              monkeypatch)
        extra = Ideal(I.ring, []) if modulus is None else modulus
        alg, g = mod.algebra, len(I.gens)
        big = _relation_space(I.gens, I + extra, alg)
        assert big.shape[0] > 0
        nb = _hom_rows(big, g, alg)
        ns = _hom_rows(_relation_space(I.gens, alg.ideal, alg), g, alg)
        assert_matches_hom_rows(rep, mod, nb, ns, alg)

    @pytest.mark.parametrize("case", sorted(MU_CASES) + [
        "graph2", "graph3", "graph4", "graph5", "graph6", "fatpoint"])
    def test_qbar_and_tangent_match_hom_rows(self, case):
        Z = ArtinianAlgebra.from_ideal(local_ideal(case))
        zbar, oracle = qbar(Z), hom_route_qbar(Z)
        assert invariants(zbar) == invariants(oracle)
        assert zbar.generator_images.shape == oracle.generator_images.shape
        gens = Z.ideal.gens
        kernel = _relation_space(gens, Z.ideal, Z)
        assert hilbert_tangent_dim(Z) == \
            _hom_rows(kernel, len(gens), Z).shape[0]

    def test_tangent_off_the_origin(self):
        # two reduced points: no action is nilpotent, so every relation row
        # serves as a generator of K
        Z = ArtinianAlgebra.from_ideal(idl(ring(), "y, x^2 - 1"))
        kernel = _relation_space(Z.ideal.gens, Z.ideal, Z)
        cols = excess._relation_columns(kernel, Z)
        assert cols.shape[1] == kernel.shape[0] * Z.dim
        assert hilbert_tangent_dim(Z) == 4 == \
            _hom_rows(kernel, len(Z.ideal.gens), Z).shape[0]

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_generators_span_the_relation_space(self, n):
        # the rows outside m*K generate K; at n = 7 they are 14 of 42
        s = gen_quadric_graph(n, Seed(0))
        K, g, d = conormal_in_X(s), len(s.I_Y.gens), s.Z.dim
        cols = excess._relation_columns(K, s.Z)
        gens = cols.reshape(g, -1, d).transpose(1, 0, 2).reshape(-1, g * d)
        assert np.array_equal(excess._submodule(gens, s.Z)[0], K)
        assert gens.shape[0] <= K.shape[0]
        if n == 7:
            assert (gens.shape[0], K.shape[0]) == (14, 42)


def all_variable_columns(K, g, alg):
    """The Nakayama columns of Phi_K with m*K stacked over every variable,
    the route _relation_columns narrowed to the free variables."""
    p, acts = alg.p, alg.actions()
    if K.shape[0] and all(is_nilpotent(X, p) for X in acts):
        mK, piv = rref(np.vstack([_block_apply(X, K, p)
                                  for X in acts]), p)
        K, piv = rref(K - mat_mul(K[:, piv], mK[:len(piv)], p), p)
        K = K[:len(piv)]
    m, d = K.shape[0], alg.dim
    return K.reshape(m, g, d).transpose(1, 0, 2).reshape(g, m * d)


def reduced_point_relations():
    """A reduced point on redundant generators: every variable is a linear
    pivot, so m*K is stacked over no variable at all."""
    ideal = idl(ring(), "x, y, x + y")
    alg = ArtinianAlgebra.from_ideal(ideal)
    return _relation_space(ideal.gens, ideal, alg), 3, alg


COTANGENT_CASES = {
    **{f"graph{n}": (lambda n=n: gen_quadric_graph(n, Seed(0)))
       for n in range(2, 8)},
    "ei": lambda: gen_EI_model(Seed(0)),
    "fatpoint": lambda: gen_fatpoint_model(Seed(0)),
    "reduced_point": None,
}


class TestCotangentColumns:
    """m*K from the free variables against m*K from all."""

    @pytest.mark.parametrize("case", list(COTANGENT_CASES))
    def test_matches_all_variables(self, case):
        if case == "reduced_point":
            K, g, alg = reduced_point_relations()
            assert K.shape[0]
        else:
            s = COTANGENT_CASES[case]()
            K, g, alg = conormal_in_X(s), len(s.I_Y.gens), s.Z
        cols = excess._relation_columns(K, alg)
        assert np.array_equal(cols, all_variable_columns(K, g, alg))
        # the narrowing to the free variables leaves out at least one
        # variable, all of them on the reduced point
        assert len(alg.free) < alg.nvars
        assert (not alg.free) == (case == "reduced_point")


def all_variable_submodule(rows, alg):
    """The alg-submodule the rows span, closed under the actions of every
    variable: the closure _submodule narrowed to the algebra's
    generators."""
    p, acts = alg.p, alg.actions()
    R, piv = rref(rows, p)
    R = R[:len(piv)]
    new = R
    while new.shape[0]:
        cand = np.vstack([_block_apply(X, new, p) for X in acts])
        if piv:
            cand -= mat_mul(cand[:, piv], R, p)
            np.mod(cand, p, out=cand)
        new, piv_new = rref(cand, p)
        new = new[:len(piv_new)]
        if piv_new:
            R, piv = rref(np.vstack([R, new]), p)
            R = R[:len(piv)]
    return R, piv


def closure_inputs(alg, seed=0):
    """Rows to close over alg: the replayed syzygies of its ideal's
    generators, three random rows of k^(2d) and one unit row."""
    ideal = alg.ideal
    yield _replay(ideal.groebner(), unit_cofactors(ideal.gens, ideal, alg),
                  alg.monomial_matrix, alg.p)
    yield np.random.default_rng(seed).integers(0, alg.p, (3, 2 * alg.dim))
    unit = np.zeros((1, 2 * alg.dim), dtype=np.int64)
    unit[0, -1] = 1
    yield unit


def assert_closes_as_oracle(rows, alg):
    R, piv = excess._submodule(rows, alg)
    want, want_piv = all_variable_submodule(rows, alg)
    assert np.array_equal(R, want) and list(piv) == list(want_piv)


def generator_count(alg):
    """The variables whose e_v leads no element of the reduced basis."""
    lead = set(alg.ideal.groebner().leading_monomials())
    return sum(tuple(int(w == v) for w in range(alg.nvars)) not in lead
               for v in range(alg.nvars))


class TestGeneratorClosure:
    """_submodule over the algebra's generators against the closure over
    every variable."""

    @pytest.mark.parametrize("case", [c for c in COTANGENT_CASES
                                      if c != "reduced_point"])
    def test_scenarios(self, case):
        s = COTANGENT_CASES[case]()
        alg, f = s.Z, s.I_Y.gens
        cols = excess._relation_columns(conormal_in_X(s), alg)
        replayed = _replay(alg.ideal.groebner(),
                           unit_cofactors(f, alg.ideal, alg),
                           alg.monomial_matrix, alg.p)
        for rows in (cols, replayed, *closure_inputs(alg)):
            assert_closes_as_oracle(rows, alg)
        if case.startswith("graph"):
            # the n + 1 variables x_i lead elements and act by zero
            n = int(case[5:])
            assert generator_count(alg) == alg.nvars - n - 1

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_compute_sessions(self, name):
        alg = session_algebra(SESSIONS[name]())
        for rows in closure_inputs(alg):
            assert_closes_as_oracle(rows, alg)

    def test_random_ideals(self):
        rng = random.Random(17)
        for k in range(20):
            I = random_zero_dim(rng)
            if I.is_trivial():
                continue
            alg = ArtinianAlgebra.from_ideal(I)
            for rows in closure_inputs(alg, k):
                assert_closes_as_oracle(rows, alg)

    @pytest.mark.parametrize("text", ["x, y", "x - 1, y + 2", "x, y, x + y"])
    def test_reduced_point_has_no_generators(self, text):
        # every variable leads a linear element: the span is the module
        alg = ArtinianAlgebra.from_ideal(idl(ring(), text))
        assert alg.dim == 1 and generator_count(alg) == 0
        for rows in closure_inputs(alg):
            assert_closes_as_oracle(rows, alg)


def jacobian_block_derivations_dim(alg):
    """dim Der_k(A) by the Jacobian blocks that the relation map replaced:
    the images phi_v of the variables solve sum_v mult(df/dx_v) @ phi_v = 0
    for each element f of the reduced basis.  The oracle of
    derivations_dim."""
    n, d = alg.nvars, alg.dim
    polys = alg.ideal.groebner().polys
    jac = np.array([[alg.coords(f.diff(v)) for v in range(n)] for f in polys],
                   dtype=np.int64)
    mults = element_matrices(jac, alg).reshape(len(polys), n, d, d)
    return n * d - rank(mults.transpose(0, 2, 1, 3).reshape(-1, n * d), alg.p)


# two reduced points, on the line and in the plane: no action is nilpotent
NON_LOCAL = {"x^2 - 1": "x", "y, x^2 - 1": "x,y"}


class TestDerivationsRoute:
    """dim Der_k(A) = n*d - dim Phi_J(A^n) against the Jacobian blocks."""

    @pytest.mark.parametrize("case", sorted(MU_CASES) + [
        "graph2", "graph3", "graph4", "graph5", "graph6", "fatpoint",
        *NON_LOCAL])
    def test_matches_jacobian_blocks(self, case):
        ideal = idl(ring(NON_LOCAL[case]), case) if case in NON_LOCAL \
            else local_ideal(case)
        alg = ArtinianAlgebra.from_ideal(ideal)
        assert derivations_dim(alg) == jacobian_block_derivations_dim(alg)


# --- locality against the routes the minimal polynomials replaced -----------


def conjugate_pair():
    """Two conjugate points over F_P(sqrt(c)), one factor of length 2."""
    R = ring("x1,x2,a")
    return scenario(R, f"x1 - a^2 + {nonresidue()}, x2", "x1, x2", 1, 2)


LOCALITY_SCENARIOS = {
    **{f"graph{n}": (lambda n=n: gen_quadric_graph(n, Seed(0)))
       for n in range(2, 8)},
    **{f"{name}-1": (lambda make=make: make(Seed(1))) for name, make in (
        ("graph3", lambda s: gen_quadric_graph(3, s)),
        ("graph4", lambda s: gen_quadric_graph(4, s)),
        ("fatpoint", gen_fatpoint_model))},
    "ei": lambda: gen_EI_model(Seed(0)),
    "fatpoint": lambda: gen_fatpoint_model(Seed(0)),
    "two_points": two_points,
    "two_points_f3": lambda: scenario(ring(p=3), "y, x^2 - 1", "y", 0, 1),
    "line_meets_axes": axes_on_line,
    "plane_holds_points": plane_holds_points,
    "conjugate_pair": conjugate_pair,
}

# algebras off the origin -> (length, point) of each factor; -1 is not a
# square mod P
OFF_ORIGIN = {
    "x^2 + 1, y^2 + 1": [(2, None), (2, None)],
    "x^2 + 1, y^2": [(4, None)],
    "x^2 + 1, (y - 3)^2": [(4, None)],
    "(x - 1)*(x + 1)*(x - 5)^2, y^2": [(2, (1, 0)), (2, (P - 1, 0)),
                                        (4, (5, 0))],
}
LOCALITY_ALGEBRAS = {**MU_CASES,
                     **{text: ("x,y", text) for text in OFF_ORIGIN}}


def assert_matches_oracles(alg, factors, mod):
    """at_origin, the factor points and mu per factor against repeated
    squaring, the trace point checked nilpotent, and the per-factor
    minimal polynomials."""
    p = alg.p
    assert alg.at_origin() == all(is_nilpotent(X, p) for X in alg.actions())
    assert [f.point for f in factors] == [factor_point(f, alg)
                                          for f in factors]
    assert module_mu(mod)[1] == tuple(
        (f.length, *factor_mu(f, mod)) for f in factors)


class TestLocalityOracles:
    @pytest.mark.parametrize("case", list(LOCALITY_SCENARIOS))
    def test_reports(self, case, monkeypatch):
        s = LOCALITY_SCENARIOS[case]()
        rep, mod = reported_q(lambda: q_module(s), monkeypatch)
        assert_matches_oracles(s.Z, rep.factors, mod)
        assert rep.per_component == module_mu(mod)[1]
        if case == "two_points_f3":
            assert [f.point for f in rep.factors] == [(2, 0), (1, 0)]
        if case == "conjugate_pair":
            assert [f.point for f in rep.factors] == [None]

    @pytest.mark.parametrize("case", list(LOCALITY_ALGEBRAS))
    def test_algebras(self, case):
        names, text = LOCALITY_ALGEBRAS[case]
        alg = ArtinianAlgebra.from_ideal(idl(ring(names), text))
        factors = local_decompose(alg)
        regular = FinModule(alg.dim, tuple(alg.actions()), identity(alg.dim),
                            alg)
        assert_matches_oracles(alg, factors, regular)
        assert alg.at_origin() == (case in MU_CASES)
        if alg.at_origin():
            zbar = qbar(alg)
            zfactors = local_decompose(zbar.algebra)
            assert_matches_oracles(zbar.algebra, zfactors, zbar)
        else:
            assert [(f.length, f.point) for f in factors] == OFF_ORIGIN[case]

    def test_one_frobenius_map_per_algebra(self, monkeypatch):
        # the graph bases are homogeneous, so their reports build no
        # Frobenius map; a local algebra whose basis is not builds one,
        # memoised, with one X_v^p per variable of its standard monomials
        calls = []
        plain = zerodim._matrix_power

        def counting(X, e, p):
            calls.append(X.shape)
            return plain(X, e, p)

        monkeypatch.setattr(zerodim, "_matrix_power", counting)
        # nor do they build a module monomial matrix: each report evaluates
        # the unit alone, the idempotent of its one factor
        supports = []
        plain_evaluate = ArtinianAlgebra.evaluate

        def recording(self, vectors, mats):
            supports.extend(np.flatnonzero(a).tolist() for a in vectors)
            return plain_evaluate(self, vectors, mats)

        monkeypatch.setattr(ArtinianAlgebra, "evaluate", recording)
        reps = [q_module(gen_quadric_graph(n, Seed(1))) for n in range(2, 7)]
        assert [(r.deg_z, r.q, r.mu_q) for r in reps] == [
            (3, 3, 3), (6, 6, 3), (10, 5, 5), (20, 20, 6), (35, 7, 7)]
        assert calls == []
        assert supports == [[0]] * 5
        R = ring()
        alg = ArtinianAlgebra.from_ideal(idl(R, "x^2 - y^3, x*y"))
        assert alg.ideal.groebner().polys == tuple(
            parse_ideal("x*y, y^3 - x^2, x^3", R))
        assert alg.at_origin()
        factors = local_decompose(alg)
        assert [(f.length, f.point) for f in factors] == [(5, (0, 0))]
        module_mu(FinModule(alg.dim, tuple(alg.actions()), identity(alg.dim),
                            alg))
        assert len(calls) == alg.nvars == 2


# --- the Frobenius route against the minimal-polynomial route ---------------


def factor_summary(factors):
    """(length, idempotent e*1, point, residue degree) of each factor, in
    local_decompose's order."""
    return sorted(((f.length, list(f.idempotent), f.point, f.residue_degree)
                   for f in factors), key=lambda t: t[:2])


def minimal_polynomial_route(alg):
    """at_origin, the nilpotent parts of the actions and the local factors
    read off the minimal polynomials of the variables and split by random
    forms (minpoly_route), on every algebra, with no homogeneous
    shortcut."""
    acts, p = alg.actions(), alg.p
    factors = [(length, mat_mul(E, alg.one, p).tolist(), point, r)
               for length, E, point, r in mr.decompose(alg, Stream(0))]
    return (not any(any(mp[:-1]) for mp in mr.minimal_polynomials(alg)),
            mr.nilpotent_parts(alg, acts), factors)


# the locality scenarios hold graph n = 2..7, EI and the fat point
SHORTCUT_ALGEBRAS = {
    "graph8": lambda: gen_quadric_graph(8, Seed(0)).Z,
    "fatpoint-chart": lambda: ArtinianAlgebra.from_ideal(
        gen_fatpoint_model(Seed(0)).chart_ideal),
    **{f"scenario-{case}": (lambda make=make: make().Z)
       for case, make in LOCALITY_SCENARIOS.items()},
    **{f"algebra-{case}": (lambda names=names, text=text:
                           ArtinianAlgebra.from_ideal(idl(ring(names), text)))
       for case, (names, text) in LOCALITY_ALGEBRAS.items()},
}


class TestOriginShortcut:
    @pytest.mark.parametrize("case", list(SHORTCUT_ALGEBRAS))
    def test_matches_minimal_polynomials(self, case, monkeypatch):
        alg = SHORTCUT_ALGEBRAS[case]()
        homogeneous = alg.ideal.is_homogeneous()
        calls = []
        plain = zerodim._matrix_power

        def counting(X, e, p):
            calls.append(1)
            return plain(X, e, p)

        with monkeypatch.context() as m:
            m.setattr(zerodim, "_matrix_power", counting)
            origin = alg.at_origin()
            nils = alg.nilpotent_parts(alg.free_actions())
            factors = factor_summary(local_decompose(alg))
        # a homogeneous basis builds no Frobenius map and cuts out the
        # origin alone
        assert not (homogeneous and calls)
        assert origin or not homogeneous
        want_origin, want_nils, want_factors = minimal_polynomial_route(alg)
        assert origin == want_origin
        # the free variables generate the algebra, so their parts alone
        # span the radical
        want_nils = [want_nils[w] for w in alg.free]
        assert len(nils) == len(want_nils) and all(
            np.array_equal(N, W) for N, W in zip(nils, want_nils))
        assert factors == want_factors
        if origin:
            assert factors == [(alg.dim, alg.one.tolist(),
                                (0,) * alg.nvars, 1)]


# --- Q's free actions and mu against every variable -------------------------


def built_modules(run, monkeypatch):
    """run()'s answer and the (R, piv, module) of each module that
    excess._quotient_module built during it."""
    seen = []
    plain = excess._quotient_module

    def recording(R, piv, gens, alg):
        mod = plain(R, piv, gens, alg)
        seen.append((R, piv, mod))
        return mod

    with monkeypatch.context() as m:
        m.setattr(excess, "_quotient_module", recording)
        out = run()
    return out, seen


def element_on(mod, a):
    """The matrix of the element with standard-monomial coordinates a on
    the module, from the actions of every variable, one at a time."""
    alg, p, m = mod.algebra, mod.algebra.p, mod.basis_dim
    out = np.zeros((m, m), dtype=np.int64)
    for i in np.flatnonzero(a):
        M = identity(m)
        for v, e in enumerate(alg.std[i]):
            for _ in range(e):
                M = mat_mul(mod.actions[v], M, p)
        out = (out + int(a[i]) * M) % p
    return out


def all_variable_mu(mod):
    """(mu, per factor) with rad(A)*M spanned by the nilpotent parts of
    every variable's action (the minimal-polynomial route), each factor's
    projector built from every action."""
    alg, p = mod.algebra, mod.algebra.p
    blocks = mr.nilpotent_parts(alg, mod.actions)
    radical = np.hstack(blocks) if blocks else np.zeros(
        (mod.basis_dim, 0), dtype=np.int64)
    per = []
    for f in local_decompose(alg):
        E = element_on(mod, np.array(f.idempotent))
        dim_c = rank(E, p)
        per.append((f.length, dim_c, dim_c - rank(mat_mul(E, radical, p), p)))
    return sum(t[2] for t in per), tuple(per)


def assert_module_as_oracle(R, piv, mod):
    """Every action of the module is the one-action-at-a-time product of
    that variable's X_v with the basis rows, read at the pivots, and mu
    is the all-variable count."""
    alg, p = mod.algebra, mod.algebra.p
    want = [_block_apply(X, R, p)[:, piv].T for X in alg.actions()]
    assert len(mod.actions) == len(want)
    for Y, W in zip(mod.actions, want):
        assert np.array_equal(Y, W)
    assert module_mu(mod) == all_variable_mu(mod)


REDUCED_POINTS = {
    "origin": lambda: scenario(ring(), "y", "x, y", 1, 2),
    "off_origin": lambda: scenario(ring(), "y - 1", "x - 2, y - 1", 1, 2),
}


class TestQuotientModuleActions:
    """Q's actions and mu on the free stack against every variable."""

    @pytest.mark.parametrize("case", list(LOCALITY_SCENARIOS))
    def test_scenarios(self, case, monkeypatch):
        s = LOCALITY_SCENARIOS[case]()
        rep, seen = built_modules(lambda: q_module(s), monkeypatch)
        (R, piv, mod), = seen
        assert mod.basis_dim == rep.dim_q
        assert_module_as_oracle(R, piv, mod)

    @pytest.mark.parametrize("case", list(REDUCED_POINTS))
    def test_reduced_points(self, case, monkeypatch):
        # no free variable: Q's actions are the point's coordinates
        s = REDUCED_POINTS[case]()
        assert s.Z.dim == 1 and s.Z.free == ()
        rep, seen = built_modules(lambda: q_module(s), monkeypatch)
        (R, piv, mod), = seen
        assert rep.dim_q == rep.mu_q == 1
        assert_module_as_oracle(R, piv, mod)
        point = [int(Y[0, 0]) for Y in mod.actions]
        assert [f.point for f in rep.factors] == [tuple(point)]

    @pytest.mark.parametrize("case", list(MU_CASES))
    def test_qbar(self, case, monkeypatch):
        names, text = MU_CASES[case]
        alg = ArtinianAlgebra.from_ideal(idl(ring(names), text))
        zbar, seen = built_modules(lambda: qbar(alg), monkeypatch)
        (R, piv, mod), = seen
        assert mod is zbar
        assert_module_as_oracle(R, piv, mod)


# mat_mul calls of one q_module on the graph rows at seed 0, the algebra's
# free actions included; with every variable's plan and one product per
# action they were 114 and 208
Q_MODULE_PRODUCTS = {5: 88, 6: 181}


@pytest.mark.parametrize("n", sorted(Q_MODULE_PRODUCTS))
def test_q_module_products_are_pinned(n, monkeypatch):
    s = gen_quadric_graph(n, Seed(0))
    calls = []
    plain = linalg.mat_mul

    def counting(A, B, p):
        calls.append(1)
        return plain(A, B, p)

    for module in (linalg, zerodim, excess):
        monkeypatch.setattr(module, "mat_mul", counting)
    q_module(s)
    assert len(calls) == Q_MODULE_PRODUCTS[n]
