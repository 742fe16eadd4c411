"""Excess intersection modules over artinian coordinate algebras.

The central object is the defect module of a finite intersection X cap Y
inside affine space: the cokernel of the restriction map between the duals
of the two conormal modules, taken over the finite-dimensional coordinate
algebra of the intersection.  Its length, the exact rational invariant
q = length / excess codimension, and its minimal number of generators mu
are all computed by exact linear algebra over F_p on top of Groebner
normal forms.

A module generated by g elements over an algebra of dimension d is handled
as a quotient of k^(g*d) by its relation space K.  Every K here has the
form {u : sum u_i f_i in (f)*I + (h)} over the algebra R/I, and it is the
image of the f-parts of the syzygies of (f, h).  So the Groebner work is
one run over f and h that tracks cofactors, the normal forms of the
syzygies it finds, and, for the algebra, the basis of I; no basis of a
squared ideal is built.  After that every action, Hom space, and quotient
is numpy on int64 residues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import GREVLEX, PolyRing, Polynomial
from .groebner import Ideal, syzygies
from .linalg import (RowBasis, as_mod_array, identity, kernel_intersection,
                     mat_mul, rank, rref)
from .rng import Stream
from .zerodim import (ArtinianAlgebra, _eval_matrix_poly, _image_basis,
                      _is_nilpotent, _restrict, local_decompose,
                      minpoly_of_vector, semisimple_poly)

# Local decompositions inside reports use a fixed stream so that repeated
# runs of the same scenario agree bit for bit.
_REPORT_SEED = 0x51B7


class ExcessIntersection(Exception):
    """The intersection has no excess codimension, so q is undefined.

    The report computed so far (with q = None) rides along in .report.
    """

    def __init__(self, message: str, report: "QReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class FinModule:
    """Finite-length module over an artinian algebra, in an explicit basis.

    actions holds one square matrix per ambient variable of the algebra;
    generator_images the coordinates of the distinguished generators, one
    row each.  Presented modules k^(g*d)/K keep their relation space K (for
    a conormal module, a k-basis of the kernel of
    (u_ij) -> sum u_ij * gen_i * mono_j), which is what hom_module consumes.
    """

    basis_dim: int
    actions: tuple
    generator_images: np.ndarray
    algebra: ArtinianAlgebra
    annihilator: Ideal | None = None
    _kernel: np.ndarray | None = field(default=None, repr=False)

    @property
    def ngens(self) -> int:
        return self.generator_images.shape[0]


@dataclass
class IntersectionScenario:
    """An intersection X cap Y in affine space, finite by construction.

    dims holds (dim X, codim Y, dim Z); codim Y is certified against I_Y
    when the conormal modules are built; smoothness of X is the caller's
    responsibility (generators build graphs and linear spaces, smooth by
    construction).  chart_ring/chart_ideal, when present, re-present the
    intersection inside a coordinate chart of X and feed the intrinsic
    tangent computations.
    """

    ring: PolyRing
    I_X: Ideal
    I_Y: Ideal
    dims: tuple
    Z: ArtinianAlgebra
    chart_ring: PolyRing | None = None
    chart_ideal: Ideal | None = None
    _big: FinModule | None = field(default=None, repr=False, compare=False)
    _small: FinModule | None = field(default=None, repr=False, compare=False)

    @property
    def c(self) -> int:
        """Excess codimension codim Y - dim X."""
        return self.dims[1] - self.dims[0]


def make_scenario(ring: PolyRing, ideal_x: Ideal, ideal_y: Ideal,
                  dim_x: int, codim_y: int, chart_ring: PolyRing | None = None,
                  chart_ideal: Ideal | None = None) -> IntersectionScenario:
    """Bundle the data of an intersection, checking finiteness up front."""
    alg = ArtinianAlgebra.from_ideal(ideal_x + ideal_y)
    return IntersectionScenario(ring, ideal_x, ideal_y, (dim_x, codim_y, 0),
                                alg, chart_ring, chart_ideal)


@dataclass(frozen=True)
class QReport:
    """Sizes and invariants of the defect module of one intersection.

    per_component lists (local length of Z, local defect length, local mu)
    over the local factors of the coordinate algebra; q is exact or None
    when the excess codimension is not positive (affine pairs never set it).
    """

    deg_z: int
    c: int | None
    dim_m_big: int
    dim_m_small: int
    hilb_tangent_dim: int
    dim_q: int
    q: Fraction | None
    mu_q: int
    per_component: tuple

    def to_json_dict(self) -> dict:
        return {
            "deg_Z": self.deg_z,
            "c": self.c,
            "dim_M_big": self.dim_m_big,
            "dim_M_small": self.dim_m_small,
            "hilb_tangent_dim": self.hilb_tangent_dim,
            "dim_Q": self.dim_q,
            "q": None if self.q is None else
                 f"{self.q.numerator}/{self.q.denominator}",
            "mu_Q": self.mu_q,
            "components": [
                {"length": ln, "dim_Q": dq, "mu": mu}
                for ln, dq, mu in self.per_component
            ],
        }


@dataclass(frozen=True)
class SymmetryReport:
    forward: QReport
    reverse: QReport
    agree: bool
    note: str


# --- presentation engine ----------------------------------------------------


def _relation_space(f, h, alg: ArtinianAlgebra) -> np.ndarray:
    """k-basis, in rref, of K = {u in alg^g : sum u_i f_i in (f)*I + (h)}.

    I is the ideal of the algebra and must contain f and h; K is the
    relation space of the module (f)/((f)*I + (h)) presented on the g
    generators f over the standard monomials.  K is the image of the
    f-parts of Syz(f, h): writing sum u_i f_i = sum v_i f_i + sum e_k h_k
    with v in I^g, the vector (u - v, -e) is a syzygy and u - v = u in
    alg^g; conversely the f-part s of a syzygy has sum s_i f_i in (h).
    So the images of the generators from groebner.syzygies span K as an
    alg-module, and K is their span closed under the variable actions.
    """
    g, d, p = len(f), alg.dim, alg.p
    rows = [np.concatenate([alg.coords(c) for c in s])
            for s in syzygies(alg.ring, f, h)]
    R, piv = rref(np.array(rows, dtype=np.int64).reshape(-1, g * d), p)
    R = R[:len(piv)]
    new = R
    while new.shape[0]:
        cand = np.vstack([_block_apply(X, new, p) for X in alg.actions()])
        if piv:
            cand = np.mod(cand - mat_mul(cand[:, piv], R, p), p)
        new, piv_new = rref(cand, p)
        new = new[:len(piv_new)]
        if piv_new:
            R, piv = rref(np.vstack([R, new]), p)
            R = R[:len(piv)]
    return R


def _block_apply(X: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """One algebra action on rows of k^(g*d), blockwise on each d-chunk."""
    r, w = rows.shape
    d = X.shape[0]
    if r == 0 or w == 0:
        return rows
    return mat_mul(rows.reshape(-1, d), X.T, p).reshape(r, w)


def _quotient_rep(big_rows: np.ndarray, small_rows: np.ndarray,
                  alg: ArtinianAlgebra):
    """Basis size, action matrices, and coordinates for span(big)/span(small).

    Rows live in k^(g*d), where the algebra acts blockwise on each d-chunk.
    Assumes span(small) <= span(big) and both stable under that action.
    coordize sends any rows inside span(big) to their coordinates in the
    quotient basis (the rref rows of big reduced modulo small).
    """
    p = alg.p
    R_s, piv_s = rref(small_rows, p)
    R_s = R_s[: len(piv_s)]

    def _mod_small(rows):
        rows = as_mod_array(rows, p)
        if piv_s and rows.shape[0]:
            rows = np.mod(rows - mat_mul(rows[:, piv_s], R_s, p), p)
        return rows

    R_q, piv_q = rref(_mod_small(big_rows), p)
    dim = len(piv_q)
    R_q = R_q[:dim]

    def coordize(rows):
        if dim == 0:
            return np.zeros((np.asarray(rows).shape[0], 0), dtype=np.int64)
        return _mod_small(rows)[:, piv_q]

    mats = tuple(coordize(_block_apply(X, R_q, p)).T.copy()
                 for X in alg.actions())
    return dim, mats, coordize


def _presented_module(kernel: np.ndarray, g: int, alg: ArtinianAlgebra,
                      annihilator: Ideal | None) -> FinModule:
    """The module k^(g*d)/kernel over alg, generated by the g block ones.

    kernel is a k-basis of an alg-stable subspace of k^(g*d); the module
    keeps it as its relation space.
    """
    dim, mats, coordize = _quotient_rep(identity(g * alg.dim), kernel, alg)
    ones = np.kron(identity(g), alg.one)
    return FinModule(dim, mats, coordize(ones), alg, annihilator,
                     _kernel=kernel)


def _hom_rows(kernel: np.ndarray, g: int, alg: ArtinianAlgebra) -> np.ndarray:
    """Solution space of the Hom constraints of a presented module.

    A homomorphism into the algebra is a block vector (phi_1, ..., phi_g);
    each relation row kappa imposes sum_i mult(kappa_i) @ phi_i = 0, and a
    k-basis of relations is enough because the constraint is linear in
    kappa.
    """
    d, p = alg.dim, alg.p

    def blocks():
        for row in kernel:
            k = row.reshape(g, d)
            yield np.concatenate([alg.element_matrix(k[i]) for i in range(g)],
                                 axis=1)

    return kernel_intersection(blocks(), g * d, p)


def _poly_action(actions, f: Polynomial, dim: int, p: int) -> np.ndarray:
    """Matrix by which the polynomial f acts, given the variable actions."""
    out = np.zeros((dim, dim), dtype=np.int64)
    for m, c in f.terms:
        w = identity(dim)
        for X, e in zip(actions, m):
            for _ in range(e):
                w = mat_mul(X, w, p)
        out = (out + c * w) % p
    return out


def _check_annihilates(mod: FinModule, ideal: Ideal):
    """Certify that every generator of the stated annihilator acts as zero."""
    for f in ideal.gens:
        if _poly_action(mod.actions, f, mod.basis_dim, mod.algebra.p).any():
            raise RuntimeError("annihilator check failed: inconsistent module")


# --- conormal modules of a scenario ----------------------------------------


def conormal_restricted(s: IntersectionScenario) -> FinModule:
    """Conormal module of Y restricted to the intersection.

    Spanned by the generators of I_Y times the monomial basis of the
    coordinate algebra, with relations I_Y^2 + I_X*I_Y.  codim Y is
    certified from I_Y itself and must match the stated one.  When it
    equals the number g of generators, they form a regular sequence (the
    polynomial ring is Cohen-Macaulay), so I_Y/I_Y^2 is free over O_Y on
    their classes and the module is free of rank g: its relation space is
    zero and no syzygy is computed.  Otherwise the relation space is the
    image of Syz(I_Y gens).
    """
    if s._big is None:
        codim_y = s.ring.nvars - s.I_Y.krull_dim()
        if codim_y != s.dims[1]:
            raise RuntimeError(f"codim Y is {codim_y}, but the scenario "
                               f"states {s.dims[1]}")
        g = len(s.I_Y.gens)
        if codim_y == g:
            kernel = np.zeros((0, g * s.Z.dim), dtype=np.int64)
        else:
            kernel = _relation_space(s.I_Y.gens, [], s.Z)
        s._big = _presented_module(kernel, g, s.Z, s.I_X + s.I_Y)
    return s._big


def conormal_in_X(s: IntersectionScenario) -> FinModule:
    """Conormal module of the intersection inside X.

    Same generators as the restricted conormal module (the I_X part dies in
    the quotient), with relations I_X + I_Y^2; the relation space is the
    image of the I_Y-parts of Syz(I_Y gens, I_X gens).  Both modules are
    quotients of the same k^(g*d), so the natural map from the restricted
    module is well defined, and then onto, exactly when its relation space
    lies in this one; that containment is certified here.
    """
    if s._small is None:
        big = conormal_restricted(s)
        kernel = _relation_space(s.I_Y.gens, s.I_X.gens, s.Z)
        small = _presented_module(kernel, big.ngens, s.Z,
                                  annihilator=s.I_X + s.I_Y)
        both = np.vstack([small._kernel, big._kernel])
        if rank(both, s.Z.p) != small._kernel.shape[0]:
            raise RuntimeError("restriction map failed to be onto")
        s._small = small
    return s._small


# --- Hom --------------------------------------------------------------------


def hom_module(M: FinModule, A: ArtinianAlgebra) -> FinModule:
    """Hom_A(M, A) with its induced module structure.

    M must be a presented module over A (it carries its relation space);
    the homomorphisms are the solutions of the relation-space constraints,
    and the induced action is (a*phi)(m) = a*phi(m).
    """
    if M._kernel is None or M.algebra is not A:
        raise ValueError("hom_module needs a presented module over the "
                         "given algebra")
    if M.annihilator is not None:
        _check_annihilates(M, M.annihilator)
    rows = _hom_rows(M._kernel, M.ngens, A)
    dim, mats, _ = _quotient_rep(
        rows, np.zeros((0, rows.shape[1]), dtype=np.int64), A)
    return FinModule(dim, mats, identity(dim), A, annihilator=A.ideal)


def hilbert_tangent_dim(ideal: Ideal) -> int:
    """dim Hom(I/I^2, A/I): first-order deformations of the finite scheme
    V(I) inside its ambient affine space."""
    alg = ArtinianAlgebra.from_ideal(ideal)
    kernel = _relation_space(ideal.gens, [], alg)
    return _hom_rows(kernel, len(ideal.gens), alg).shape[0]


# --- minimal generator counts ----------------------------------------------


def _factor_mu(factor, actions, p: int):
    """(local length of the module, local mu) on one local factor.

    The maximal ideal of the factor is generated by the nilpotent parts
    x_v - h_v(x_v) of the variables, with h_v the squarefree-projection
    polynomial of the minimal polynomial of x_v on the factor; mu is the
    codimension of the span of their images.
    """
    E = factor.projector(actions, p)
    B, piv = _image_basis(E, p)
    dim_c = len(piv)
    if dim_c == 0:
        return 0, 0
    nil = []
    for v, X in enumerate(actions):
        Xc = _restrict(B, piv, X, p)
        mp = minpoly_of_vector(np.asarray(factor.actions[v], dtype=np.int64),
                               np.asarray(factor.one, dtype=np.int64), p)
        h = semisimple_poly(mp, p)
        nil.append(np.mod(Xc - _eval_matrix_poly(list(h), Xc, p), p))
    radical = np.concatenate(nil, axis=1)
    return dim_c, dim_c - rank(radical, p)


def module_mu(mod: FinModule, stream: Stream | None = None):
    """Minimal number of generators of the module, with its per-component
    breakdown over the local factors of the base algebra.

    Returns (mu, components) with components a tuple of (local length of
    the algebra, local module length, local mu).
    """
    A = mod.algebra
    factors = local_decompose(A, stream or Stream(_REPORT_SEED))
    per = []
    for f in factors:
        dim_c, mu_c = _factor_mu(f, mod.actions, A.p)
        per.append((f.length, dim_c, mu_c))
    return sum(t[2] for t in per), tuple(per)


# --- the defect module ------------------------------------------------------


def _defect_report(big: FinModule, small: FinModule, alg: ArtinianAlgebra,
                   c: int | None, dim_z: int,
                   stream: Stream | None) -> QReport:
    """Assemble the report from the two conormal modules.

    The two Hom spaces live in the same spanning coordinates and the
    smaller one embeds in the bigger (its relation space contains the
    other), so the defect module is a genuine quotient of subspaces.
    """
    g = big.ngens
    n_big = _hom_rows(big._kernel, g, alg)
    n_small = _hom_rows(small._kernel, g, alg)
    if rank(np.vstack([n_big, n_small]), alg.p) != n_big.shape[0]:
        raise RuntimeError("dual of the restriction map failed to embed")
    dim_q, q_actions, _ = _quotient_rep(n_big, n_small, alg)
    mu_q, per = module_mu(FinModule(dim_q, q_actions, identity(dim_q), alg),
                          stream)
    if sum(t[1] for t in per) != dim_q:
        raise RuntimeError("local defect lengths do not add up")
    q = None
    if c is not None and c - dim_z >= 1:
        q = Fraction(dim_q, c - dim_z)
    return QReport(deg_z=alg.dim, c=c, dim_m_big=big.basis_dim,
                   dim_m_small=small.basis_dim,
                   hilb_tangent_dim=n_small.shape[0], dim_q=dim_q, q=q,
                   mu_q=mu_q, per_component=per)


def q_module(s: IntersectionScenario, stream: Stream | None = None) -> QReport:
    """Defect module report of a scenario; q = dim_Q / (c - dim Z) exactly.

    Raises ExcessIntersection (carrying the report, q = None) when the
    excess codimension c - dim Z is not positive.
    """
    big = conormal_restricted(s)
    small = conormal_in_X(s)
    report = _defect_report(big, small, s.Z, s.c, s.dims[2], stream)
    if report.q is None:
        raise ExcessIntersection(
            "q undefined: codim Y - dim X - dim Z <= 0", report)
    return report


def q_affine_pair(A: PolyRing, L: Ideal, I: Ideal,
                  modulus: Ideal | None = None,
                  stream: Stream | None = None) -> QReport:
    """Two-ideal defect module over A (or A/modulus), with no smoothness
    or complete-intersection hypotheses.

    The big side is I/(I^2 + I*L), the small side (I+L)/(I^2 + L); both are
    generated by the images of the generators of I, because L dies in the
    small quotient.  c and q are not defined for a bare pair and stay None.
    """
    extra = Ideal(A, []) if modulus is None else modulus
    ann = I + L + extra
    alg = ArtinianAlgebra.from_ideal(ann)
    g = len(I.gens)
    big = _relation_space(I.gens, extra.gens, alg)
    small = _relation_space(I.gens, L.gens + extra.gens, alg)
    return _defect_report(_presented_module(big, g, alg, ann),
                          _presented_module(small, g, alg, ann),
                          alg, None, 0, stream)


# --- intrinsic defect module of the intersection algebra --------------------


def _drop_variables(ideal: Ideal, doomed: list) -> Ideal:
    """Image of the ideal in the polynomial ring on the surviving variables."""
    ring = ideal.ring
    kept = [nm for nm in ring.variables if nm not in set(doomed)]
    small = PolyRing(ring.field, tuple(kept), GREVLEX)
    keep_idx = [ring.var_index(nm) for nm in kept]
    out = []
    for f in ideal.eliminate(doomed):
        terms = {tuple(m[i] for i in keep_idx): c for m, c in f.terms}
        out.append(small.poly(terms))
    return Ideal(small, out)


def minimal_generators(ideal: Ideal) -> list:
    """Minimal generating subset of the Groebner basis of an ideal supported
    at the origin, by span selection modulo (maximal ideal) * ideal."""
    ring = ideal.ring
    gb_polys = ideal.groebner().polys
    mvars = [ring.var(nm) for nm in ring.variables]
    m_ideal = Ideal(ring, [v * f for v in mvars for f in gb_polys])
    amod = ArtinianAlgebra.from_ideal(m_ideal)
    quot = ArtinianAlgebra.from_ideal(ideal)
    basis = RowBasis(amod.dim, amod.p)
    out = []
    for f in gb_polys:
        idx, _ = basis.insert(amod.coords(f))
        if idx >= 0:
            out.append(f)
    if len(out) != amod.dim - quot.dim:
        raise RuntimeError("generator count disagrees with the length drop")
    return out


def minimal_presentation(ideal: Ideal) -> Ideal:
    """Image of an origin-supported ideal in its minimal chart.

    Eliminates every variable that carries a linear part in the ideal,
    keeping one variable when all of them would go (a reduced point), and
    verifies the quotient length survives the move.
    """
    ring = ideal.ring
    n = ring.nvars
    p = ring.p
    gb = ideal.groebner().polys
    lin = np.zeros((len(gb), n), dtype=np.int64)
    for i, f in enumerate(gb):
        part = f.homogeneous_part(1)
        for v in range(n):
            lin[i, v] = part.coeff_of(tuple(1 if j == v else 0 for j in range(n)))
    _, piv = rref(lin, p)
    doomed = [ring.variables[j] for j in piv]
    if len(doomed) == n:
        # a reduced point; keep one variable so the re-presented ring is
        # nontrivial (the ideal becomes principal on it)
        doomed = doomed[:-1]
    if not doomed:
        return ideal
    before = ArtinianAlgebra.from_ideal(ideal).dim
    J = _drop_variables(ideal, doomed)
    if ArtinianAlgebra.from_ideal(J).dim != before:
        raise RuntimeError("minimal re-presentation changed the length")
    return J


def qbar(Z: ArtinianAlgebra) -> FinModule:
    """Intrinsic defect module of a local finite algebra at the origin.

    Re-presents the algebra minimally (eliminating every variable with a
    linear part in the defining ideal, checking the length survives), takes
    a minimal generating set of the re-presented ideal, and returns the
    cokernel of Hom(I/I^2, A/I) inside the dual of the minimal free cover.
    The result has no free summand.
    """
    if Z.ideal is None:
        raise ValueError("needs an ideal-born algebra")
    if not all(_is_nilpotent(X, Z.p) for X in Z.actions()):
        raise ValueError("algebra is not local at the origin")
    J = minimal_presentation(Z.ideal)
    alg = ArtinianAlgebra.from_ideal(J)
    if alg.dim != Z.dim:
        raise RuntimeError("minimal re-presentation changed the length")
    gens = minimal_generators(J)
    kernel = _relation_space(gens, [], alg)
    hom_rows = _hom_rows(kernel, len(gens), alg)
    return _presented_module(hom_rows, len(gens), alg, annihilator=J)


# --- symmetry ----------------------------------------------------------------


def symmetry_check(s: IntersectionScenario,
                   stream: Stream | None = None) -> SymmetryReport:
    """Defect reports of the scenario and of its swapped orientation.

    Both orientations share the intersection algebra, so the excess
    codimension is the same on both sides; agreement of lengths, mu, and
    the per-component breakdown is what the report records.  Smoothness of
    both sides is assumed, not verified.
    """
    st = stream or Stream(_REPORT_SEED)
    r = s.ring.nvars
    swapped = IntersectionScenario(s.ring, s.I_Y, s.I_X,
                                   (r - s.dims[1], r - s.dims[0], s.dims[2]),
                                   s.Z)
    forward = q_module(s, st.fork(1))
    reverse = q_module(swapped, st.fork(2))
    agree = (forward.dim_q == reverse.dim_q
             and forward.mu_q == reverse.mu_q
             and sorted(forward.per_component) == sorted(reverse.per_component))
    return SymmetryReport(forward, reverse, agree,
                          "smoothness of both sides is assumed, not checked")
