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
image of the f-parts of the syzygies of (f, h).  They come from replaying
the trace of a basis run over f and h, which for the conormal modules and
the tangent space is a run already cached (that of I itself, or of I_Y),
on cofactors kept as (g x d) arrays in the coordinates of R/I, shifted by
the algebra's memoised monomial matrices.  The replay is batched: the
trace comes as flat lists, which become arrays with one np.array each,
so no Python loop runs per term, and no entry repeats a (shift, source)
term, so nothing is summed.  In the layout the run records, one product
gives the cofactors of all the input entries, then one pair of matrix
products runs per S-pair entry that adds an element, and one pair per
distinct shift for all the S-pair sums that reach zero (_replay).  No
basis of a squared ideal is built.  After that all is numpy on int64
residues, with every product through linalg.mat_mul; the algebra acts on
a block of rows by its free variables alone, in one product per block.

A conormal module is kept as its relation space K alone (dim M = g*d -
dim K).  Every Hom into the algebra is read off a relation map: the dual
of O^g/K is the kernel of Phi_K : O^g -> O^m, phi -> (sum_i kappa^(j)_i
phi_i)_j over O-generators kappa^(1..m) of K, so the defect module
ker Phi_big / ker Phi_small is Phi_small(ker Phi_big).  With a free big
module (a complete-intersection Y) that is the O-span of the g columns of
Phi_small, and no kernel is taken; otherwise ker Phi_big is the nullspace
of the k-matrix of Phi_big, which is built from its columns alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .algebra import GREVLEX, PolyRing
from .groebner import Ideal
from .linalg import identity, mat_mul, nullspace, rank, rref, stack_apply
from .zerodim import ArtinianAlgebra, _linear_parts, local_decompose


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
    row each.  The defect module and qbar are built this way; a conormal
    module is never presented, only its relation space is kept.
    """

    basis_dim: int
    actions: tuple
    generator_images: np.ndarray
    algebra: ArtinianAlgebra


@dataclass
class IntersectionScenario:
    """An intersection X cap Y in affine space, finite by construction.

    dims holds (dim X, codim Y); Z is finite (make_scenario), so dim Z = 0.
    codim Y is certified against I_Y when the conormal modules are built;
    smoothness of X is the caller's responsibility (generators build graphs
    and linear spaces, smooth by construction).  chart_ideal, when present,
    re-presents the intersection inside a coordinate chart of X, in the
    chart's own ring, and feeds the intrinsic tangent computations.
    """

    ring: PolyRing
    I_X: Ideal
    I_Y: Ideal
    dims: tuple
    Z: ArtinianAlgebra
    chart_ideal: Ideal | None = None

    @property
    def c(self) -> int:
        """Excess codimension codim Y - dim X."""
        return self.dims[1] - self.dims[0]


def make_scenario(ring: PolyRing, ideal_x: Ideal, ideal_y: Ideal,
                  dim_x: int, codim_y: int,
                  chart_ideal: Ideal | None = None) -> IntersectionScenario:
    """Bundle the data of an intersection, checking finiteness up front.

    I_X + I_Y is formed once, here: its Groebner basis serves both the
    finiteness check and the algebra Z, whose ideal it stays.  Raises
    ValueError when the intersection is not finite or is empty.
    """
    ideal_z = ideal_x + ideal_y
    dim_z = ideal_z.krull_dim()
    if dim_z > 0:
        raise ValueError("intersection not finite")
    if dim_z < 0:
        raise ValueError("intersection is empty")
    alg = ArtinianAlgebra.from_ideal(ideal_z)
    return IntersectionScenario(ring, ideal_x, ideal_y, (dim_x, codim_y),
                                alg, chart_ideal)


@dataclass(frozen=True)
class QReport:
    """Sizes and invariants of the defect module of one intersection.

    per_component lists (local length of Z, local defect length, local mu)
    over the local factors of the coordinate algebra; q is exact or None
    when the excess codimension is not positive (affine pairs never set it).
    factors holds those local factors, in the same order, so that later
    per-point work reads the one decomposition the report was built from;
    it is left out of the JSON form, equality and repr.
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
    factors: tuple = field(repr=False, compare=False)

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


def _relation_space(f, ideal: Ideal, alg: ArtinianAlgebra) -> np.ndarray:
    """k-basis, in rref, of K = {u in alg^g : sum u_i f_i in (f)*I + (h)}.

    f is a run of consecutive generators of the ideal, h the others, and
    I, the ideal of the algebra, contains the ideal.  K is the relation
    space of the module (f)/((f)*I + (h)) on the g generators f over the
    standard monomials, and the image of the f-parts of Syz(f, h): writing
    sum u_i f_i = sum v_i f_i + sum e_k h_k with v in I^g, (u - v, -e) is a
    syzygy and u - v = u in alg^g; conversely the f-part s of a syzygy has
    sum s_i f_i in (h).  So the replay of the ideal's basis run on the unit
    cofactors of f, zero on h, spans K as an alg-module.  A cofactor is a
    (g x d) array in alg coordinates; x^q acts by the algebra's memoised
    monomial matrix M_q, shared by every replay on the algebra.
    """
    g, d, p = len(f), alg.dim, alg.p
    gens = ideal.gens
    at = next((o for o in range(len(gens) - g + 1)
               if gens[o:o + g] == tuple(f)), None)
    if at is None:
        raise ValueError("f is not a run of generators of the ideal")
    units = np.zeros((len(gens), g, d), dtype=np.int64)
    units[at + np.arange(g), np.arange(g)] = alg.one
    return _submodule(_replay(ideal.groebner(), units, alg.monomial_matrix, p),
                      alg)[0]


# rows x columns of one product of the deferred replay sums
_REPLAY_CELLS = 1 << 16


def _grouped(major: np.ndarray, minor: np.ndarray, groups: int, size: int):
    """The distinct minor values of each major group, ascending, and the
    place of every item among those of its group.

    Returns (starts, values, local): group k's values are
    values[starts[k]:starts[k + 1]], and item i is values[starts[major[i]]
    + local[i]].  major < groups and 0 <= minor < size.
    """
    keys, inv = np.unique(major * size + minor, return_inverse=True)
    starts = np.searchsorted(keys // size, np.arange(groups + 1))
    return starts, keys % size, inv - starts[major]


def _blocks(major, minor, srcs, coeffs, groups: int, size: int, nv: int):
    """For each major group k < groups, in order: its distinct minor values,
    its distinct sources, and the (minor x source) matrix of the
    coefficients of its terms, which are distinct (major, minor, source)
    triples with minor < size and source < nv."""
    order = np.argsort(major, kind="stable")
    major, minor, srcs, coeffs = (a[order] for a in (major, minor, srcs,
                                                      coeffs))
    ma, mv, ml = _grouped(major, minor, groups, size)
    sa, sv, sl = _grouped(major, srcs, groups, nv)
    cut = np.searchsorted(major, np.arange(groups + 1))
    for k in range(groups):
        at = slice(cut[k], cut[k + 1])
        M = np.zeros((ma[k + 1] - ma[k], sa[k + 1] - sa[k]), dtype=np.int64)
        M[ml[at], sl[at]] = coeffs[at]
        yield mv[ma[k]:ma[k + 1]], sv[sa[k]:sa[k + 1]], M


def _replay(gb, units: np.ndarray, shift, p: int) -> np.ndarray:
    """The sums of gb's basis run that reached zero, replayed on the unit
    cofactors: one row of k^(g*d) each.

    units[k] is the (g x d) cofactor of the k-th of the n generators and
    shift(q) the (d x d) matrix of x^q on the d columns, so x^q acts on a
    cofactor v as v @ shift(q).T.  The trace (GroebnerBasis.replay_trace)
    becomes one array of its entries and one of its terms, and one product
    scales the terms of the adding entries; no entry repeats a (shift,
    source) term, so none is summed.  The first n entries, r that add an
    element then n - r that vanish, combine inputs at x^0: with T their
    (entry x input) coefficients, T @ units holds the cofactors of the
    first r elements, then of the first n - r zero sums.  Every later term
    names an element, so the table keeps one cofactor per element, and a
    term whose shift matrix is zero adds nothing and is dropped.  An
    S-pair entry that adds an element is one product of its (shift x
    source) coefficients with the stacked cofactors of its sources, then
    one of the results, side by side, with the stacked transposed shift
    matrices.  The S-pair sums that reach zero feed no later entry, so
    they are taken last and together: per distinct shift, one product
    shifts the cofactors of the sources it meets, and one more, in chunks
    of rows that keep the temporaries small, sums them with the (sum x
    source) coefficients.
    """
    n, g, d = units.shape
    shifts, entries, terms = gb.replay_trace()
    scales, counts = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    C, qs, srcs = np.array(terms, dtype=np.int64).reshape(-1, 3).T
    ent = np.repeat(np.arange(len(counts)), counts)
    adds = scales != 0
    C = C * np.where(adds, scales, 1)[ent] % p
    mats = [shift(q).T for q in shifts]
    r, m = int(adds[:n].sum()), int(counts[:n].sum())
    T = np.zeros((n, n), dtype=np.int64)
    T[ent[:m], srcs[:m]] = C[:m]
    V = mat_mul(T, units.reshape(n, g * d), p)
    nv, nz = int(adds.sum()), int((~adds).sum())
    vals = np.zeros((nv, g * d), dtype=np.int64)
    vals[:r] = V[:r]
    out = np.zeros((nz, g * d), dtype=np.int64)
    out[:n - r] = V[r:]
    added = np.cumsum(adds) - 1
    sums = np.cumsum(~adds) - 1
    ent, C, qs, srcs = ent[m:], C[m:], qs[m:], srcs[m:] - n
    live = np.array([M.any() for M in mats], dtype=bool)[qs]
    adding, zero = live & adds[ent], live & ~adds[ent]
    for t, (used, sources, M) in enumerate(_blocks(
            added[ent[adding]] - r, qs[adding], srcs[adding], C[adding],
            nv - r, len(shifts), nv), r):
        if not sources.size:
            continue
        W = mat_mul(M, vals[sources], p).reshape(len(used), g, d)
        W = W.transpose(1, 0, 2).reshape(g, len(used) * d)
        vals[t] = mat_mul(W, np.concatenate([mats[q] for q in used]),
                          p).reshape(g * d)
    step = max(1, _REPLAY_CELLS // (g * d or 1))
    for Mt, (rows, sources, M) in zip(mats, _blocks(
            qs[zero], sums[ent[zero]], srcs[zero], C[zero], len(shifts), nz,
            nv)):
        if not sources.size:
            continue
        S = mat_mul(vals[sources].reshape(-1, d), Mt, p).reshape(
            len(sources), g * d)
        for lo in range(0, len(rows), step):
            out[rows[lo:lo + step]] += mat_mul(M[lo:lo + step], S, p)
    return np.mod(out, p, out=out)


def _submodule(rows: np.ndarray, alg: ArtinianAlgebra):
    """rref k-basis and pivots of the alg-submodule the rows span, rows of
    k^(w*d) acted on blockwise: each round reduces the images of the rows
    new in the last round modulo the basis so far, all the free actions
    taken in one product (stack_apply).  Only the free variables act:
    every other one is minus its element's tail, a polynomial in those, so
    they generate the algebra.  With none (a reduced point) the span is the
    module."""
    p, S = alg.p, alg.free_actions()
    R, piv = rref(rows, p)
    R = R[:len(piv)]
    new = R
    while new.shape[0] and len(S):
        cand = stack_apply(S, new, p).reshape(-1, new.shape[1])
        if piv:
            cand -= mat_mul(cand[:, piv], R, p)
            np.mod(cand, p, out=cand)
        new, piv_new = rref(cand, p)
        new = new[:len(piv_new)]
        if piv_new:
            R, piv = rref(np.vstack([R, new]), p)
            R = R[:len(piv)]
    return R, piv


def _relation_columns(K: np.ndarray, alg: ArtinianAlgebra):
    """The images c_i = (kappa^(1)_i, ..., kappa^(m)_i) of the g block ones
    under Phi_K, g*d the width of K, rows of k^(m*d); they span
    Phi_K(alg^g) as a module (_submodule).  When every variable acts
    nilpotently the kappa are the rows of K outside m*K, which generate it
    (Nakayama); otherwise all rows of K.  There the free variables generate
    m, since a bound x_v is minus its tail, which has no constant term, so
    m*K is spanned by the X_w*K, taken in one product (stack_apply)."""
    p, S = alg.p, alg.free_actions()
    if K.shape[0] and alg.at_origin():
        if len(S):
            mK, piv = rref(stack_apply(S, K, p).reshape(-1, K.shape[1]), p)
            K = K - mat_mul(K[:, piv], mK[:len(piv)], p)
        K, piv = rref(K, p)
        K = K[:len(piv)]
    (m, w), d = K.shape, alg.dim
    return K.reshape(m, w // d, d).transpose(1, 0, 2).reshape(w // d, m * d)


def _relation_matrix(cols: np.ndarray, alg: ArtinianAlgebra) -> np.ndarray:
    """The k-matrix of Phi_K on alg^g from its columns c_i: row (i, a) is
    the a-th standard monomial times c_i, so Phi_K(phi) = phi @ matrix."""
    g, w = cols.shape
    M = np.stack([alg.monomial_matrix(q) for q in alg.std])
    return stack_apply(M, cols, alg.p).transpose(1, 0, 2).reshape(
        g * alg.dim, w)


def _quotient_module(R: np.ndarray, piv, gens: np.ndarray,
                     alg: ArtinianAlgebra) -> FinModule:
    """The module with k-basis the rref rows R, a row's coordinates its
    entries at the pivots piv, and generators gens: the free actions are
    read off the rows' images in one product (stack_apply), the others
    are minus their tails on those (ArtinianAlgebra.module_actions)."""
    free = stack_apply(alg.free_actions(), R, alg.p)[:, :, piv]
    return FinModule(len(piv), tuple(alg.module_actions(
        free.transpose(0, 2, 1))), gens, alg)


# --- conormal modules of a scenario ----------------------------------------


def conormal_restricted(s: IntersectionScenario) -> np.ndarray:
    """Relation space K_big of the conormal module of Y restricted to the
    intersection.

    The module is spanned by the generators of I_Y times the monomial basis
    of the coordinate algebra, with relations I_Y^2 + I_X*I_Y; K_big is
    returned as rref rows in k^(g*d).  codim Y is certified from I_Y itself
    and must match the stated one.  When it equals the number g of
    generators, they form a regular sequence (the polynomial ring is
    Cohen-Macaulay), so I_Y/I_Y^2 is free over O_Y on their classes and the
    module is free of rank g: K_big is zero and no syzygy is computed.
    Otherwise K_big is the image of Syz(I_Y gens), read off the basis run
    of I_Y that certifying codim Y has cached.
    """
    codim_y = s.ring.nvars - s.I_Y.krull_dim()
    if codim_y != s.dims[1]:
        raise RuntimeError(f"codim Y is {codim_y}, but the scenario "
                           f"states {s.dims[1]}")
    g = len(s.I_Y.gens)
    if codim_y == g:
        return np.zeros((0, g * s.Z.dim), dtype=np.int64)
    return _relation_space(s.I_Y.gens, s.I_Y, s.Z)


def conormal_in_X(s: IntersectionScenario) -> np.ndarray:
    """Relation space K_small of the conormal module of the intersection
    inside X, as rref rows in k^(g*d).

    Same generators as the restricted conormal module (the I_X part dies in
    the quotient), with relations I_X + I_Y^2; K_small is the image of the
    I_Y-parts of Syz(I_Y gens, I_X gens), read off the basis run of
    I_X + I_Y that built the algebra Z, so no basis run starts here.  Both
    modules are quotients of the same k^(g*d), so the natural map from the
    restricted module is well defined, and then onto, exactly when K_big
    lies in K_small; the defect report certifies that containment.
    """
    return _relation_space(s.I_Y.gens, s.Z.ideal, s.Z)


# --- first-order deformations -----------------------------------------------


def hilbert_tangent_dim(alg: ArtinianAlgebra) -> int:
    """dim Hom(I/I^2, A/I) for the algebra A/I: first-order deformations of
    the finite scheme V(I) inside its ambient affine space.  The relations
    come from the basis run of I that built the algebra; by rank-nullity
    the dimension is g*d - dim Phi_K(alg^g)."""
    gens = alg.ideal.gens
    cols = _relation_columns(_relation_space(gens, alg.ideal, alg), alg)
    return len(gens) * alg.dim - len(_submodule(cols, alg)[1])


# --- minimal generator counts ----------------------------------------------


def module_mu(mod: FinModule):
    """Minimal number of generators of the module, with its per-component
    breakdown over the local factors of the base algebra (local_decompose,
    memoised on the algebra).

    Returns (mu, components) with components a tuple of (local length of
    the algebra, local module length, local mu), one per factor in order.
    The nilpotent parts N_w of the free actions, built once, span
    rad(A)*M (ArtinianAlgebra.nilpotent_parts).  With E the action of a
    factor's idempotent, E*M is the local module and E*rad(A)*M its
    maximal ideal times it, so by Nakayama mu_c = rank E -
    rank(E*[N_1 | ... | N_f]).  The E of all factors come from one
    ArtinianAlgebra.evaluate call, so they share their monomial matrices
    Y^q.
    """
    alg, p, m = mod.algebra, mod.algebra.p, mod.basis_dim
    factors = local_decompose(alg)
    free = np.asarray(mod.actions)[list(alg.free)]
    N = alg.nilpotent_parts(free)
    radical = N.transpose(1, 0, 2).reshape(m, len(N) * m)
    projectors = alg.evaluate([f.idempotent for f in factors], free)
    per = []
    for f, E in zip(factors, projectors):
        dim_c = rank(E, p)
        per.append((f.length, dim_c, dim_c - rank(mat_mul(E, radical, p), p)))
    return sum(t[2] for t in per), tuple(per)


# --- the defect module ------------------------------------------------------


def _in_row_space(rows: np.ndarray, R: np.ndarray, p: int) -> bool:
    """True when the rows lie in the row space of R, nonzero rows in rref:
    a vector v of that space is v[piv] @ R, piv the pivot columns of R."""
    piv = (R != 0).argmax(axis=1)
    return np.array_equal(mat_mul(rows[:, piv], R, p), rows)


def _defect_report(big: np.ndarray, small: np.ndarray, alg: ArtinianAlgebra,
                   c: int | None) -> QReport:
    """Assemble the report from the relation spaces of the two conormal
    modules: Q = Phi_small(ker Phi_big), dim ker Phi_small = g*d -
    dim Phi_small(alg^g).  The restriction map exists, and is onto, exactly
    when K_big lies in K_small; that is certified first, on the rref rows
    of K_small with no elimination (_in_row_space).  Unless K_big = 0,
    ker Phi_big is the nullspace of the k-matrix of Phi_big, and its k-basis
    is mapped through that of Phi_small (_relation_matrix).  Q's actions are
    read off its rref basis, where a row's coordinates are its pivot
    entries, the free ones in one product (_quotient_module).  Z is split
    into local factors once (local_decompose); the report keeps them.
    """
    p, width = alg.p, small.shape[1]
    if big.shape[0] and not _in_row_space(big, small, p):
        raise RuntimeError("restriction map failed to be onto")
    cols = _relation_columns(small, alg)
    R, piv = _submodule(cols, alg)
    hilb_tangent_dim = width - len(piv)
    if big.shape[0]:
        cols_big = _relation_columns(big, alg)
        ker_big = nullspace(_relation_matrix(cols_big, alg).T, p)
        R, piv = rref(mat_mul(ker_big, _relation_matrix(cols, alg), p), p)
        R = R[:len(piv)]
    dim_q, factors = len(piv), tuple(local_decompose(alg))
    mu_q, per = module_mu(_quotient_module(R, piv, identity(dim_q), alg))
    if sum(t[1] for t in per) != dim_q:
        raise RuntimeError("local defect lengths do not add up")
    q = Fraction(dim_q, c) if c is not None and c >= 1 else None
    return QReport(deg_z=alg.dim, c=c, dim_m_big=width - big.shape[0],
                   dim_m_small=width - small.shape[0],
                   hilb_tangent_dim=hilb_tangent_dim, dim_q=dim_q, q=q,
                   mu_q=mu_q, per_component=per, factors=factors)


def q_module(s: IntersectionScenario) -> QReport:
    """Defect module report of a scenario; q = dim_Q / c exactly.

    Z is split into its local factors with no randomness, so the report
    depends on the scenario alone.  Raises ExcessIntersection (carrying
    the report, q = None) when the excess codimension c is not positive;
    Z is finite (make_scenario), so its dimension takes nothing off c.
    """
    big = conormal_restricted(s)
    small = conormal_in_X(s)
    report = _defect_report(big, small, s.Z, s.c)
    if report.q is None:
        raise ExcessIntersection(
            "q undefined: codim Y - dim X - dim Z <= 0", report)
    return report


def q_affine_pair(A: PolyRing, L: Ideal, I: Ideal,
                  modulus: Ideal | None = None) -> QReport:
    """Two-ideal defect module over A (or A/modulus), with no smoothness
    or complete-intersection hypotheses.

    The big side is I/(I^2 + I*L), the small side (I+L)/(I^2 + L); both are
    generated by the images of the generators of I, because L dies in the
    small quotient.  c and q are not defined for a bare pair and stay None.
    """
    extra = Ideal(A, []) if modulus is None else modulus
    alg = ArtinianAlgebra.from_ideal(I + L + extra)
    big = _relation_space(I.gens, I + extra, alg)
    small = _relation_space(I.gens, alg.ideal, alg)
    return _defect_report(big, small, alg, None)


# --- intrinsic defect module of the intersection algebra --------------------


def _drop_variables(ideal: Ideal, doomed: list) -> Ideal:
    """Image of the ideal in the polynomial ring on the surviving variables.

    When every doomed x_v leads an element g_v of the reduced basis, no
    other element and no tail of a g_v holds a doomed variable, since the
    basis is reduced.  Then x_v -> x_v - g_v retracts onto k[kept], so the
    other elements generate I cap k[kept].  Otherwise the block-order
    elimination runs.
    """
    ring = ideal.ring
    kept = tuple(nm for nm in ring.variables if nm not in doomed)
    small = PolyRing(ring.field, kept, GREVLEX)
    polys = ideal.groebner().polys
    lead = {tuple(int(nm == v) for nm in ring.variables) for v in doomed}
    if lead <= {f.leading_monomial() for f in polys}:
        gens = [f for f in polys if f.leading_monomial() not in lead]
    else:
        gens = ideal.eliminate(doomed)
    return Ideal(small, [f.to_ring(small) for f in gens])


def _koszul_mu(alg: ArtinianAlgebra) -> int:
    """dim H_1(x; A) = dim Tor_1(k, A) = dim I/mI for A = R/I with I in m.

    The Koszul complex A^C(n,2) -> A^n -> A on the actions X_v has
    d1 = [X_1 ... X_n] and d2(e_ij) = x_i e_j - x_j e_i, so the count is
    n*d - rank d1 - rank d2.
    """
    X, n, d, p = alg.actions(), alg.nvars, alg.dim, alg.p
    pairs = list(combinations(range(n), 2))
    d2 = np.zeros((len(pairs) * d, n * d), dtype=np.int64)  # transposed
    for k, (i, j) in enumerate(pairs):
        d2[k * d:(k + 1) * d, j * d:(j + 1) * d] = X[i].T
        d2[k * d:(k + 1) * d, i * d:(i + 1) * d] = (-X[j].T) % p
    return n * d - rank(np.hstack(X), p) - rank(d2, p)


def minimal_generators(alg: ArtinianAlgebra) -> list:
    """Minimal generating subset of the Groebner basis of the ideal of an
    algebra supported at the origin.

    I/mI = k^g / K(0) for the g basis elements, K(0) the constant terms of
    their syzygies: sum s_j(0) g_j = -sum (s_j - s_j(0)) g_j lies in mI.
    Evaluation at the origin kills each x^q with q != 0 and each entry in
    I, so a basis run on the elements (the ideal's own when its generators
    are its reduced basis), replayed on the unit vectors of k^g, spans
    K(0).  Element j is kept when e_j lies outside K(0) + span(e_<j): the
    complement of the pivots of rref(K(0)) with reversed columns.  The
    count must equal the Koszul count (_koszul_mu).
    """
    ideal = alg.ideal
    polys = ideal.groebner().polys
    run = (ideal if ideal.gens == polys else Ideal(alg.ring, polys)).groebner()
    g, p = len(polys), alg.p
    k0 = _replay(run, identity(g).reshape(g, g, 1),
                 lambda q: np.array([[0 if any(q) else 1]]), p)
    _, piv = rref(k0[:, ::-1], p)
    dropped = {g - 1 - j for j in piv}
    kept = [f for j, f in enumerate(polys) if j not in dropped]
    if len(kept) != _koszul_mu(alg):
        raise RuntimeError("generator count disagrees with the Koszul count")
    return kept


def minimal_presentation(ideal: Ideal) -> Ideal:
    """Image of an origin-supported ideal in its minimal chart.

    Eliminates every variable that carries a linear part in the ideal: the
    pivot columns of the rref of the linear parts of its reduced basis,
    which the other variables give modulo m^2.  It keeps one variable when
    all of them would go (a reduced point), and verifies the quotient
    length survives the move.  When each of those variables leads an
    element of the reduced basis, the image is read off the basis
    (_drop_variables); otherwise a block-order elimination runs.
    """
    ring = ideal.ring
    linear = _linear_parts(ideal.groebner().polys, ring.nvars)
    doomed = [ring.variables[j] for j in rref(linear, ring.p)[1]]
    if len(doomed) == ring.nvars:
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
    cokernel of Hom(I/I^2, A/I) = ker Phi_K inside the dual A^g of the
    minimal free cover: the image of Phi_K.  It has no free summand.
    """
    if not Z.at_origin():
        raise ValueError("algebra is not local at the origin")
    J = minimal_presentation(Z.ideal)
    alg = ArtinianAlgebra.from_ideal(J)
    gens = minimal_generators(alg)
    cols = _relation_columns(
        _relation_space(gens, Ideal(alg.ring, gens), alg), alg)
    R, piv = _submodule(cols, alg)
    return _quotient_module(R, piv, cols[:, piv], alg)


# --- symmetry ----------------------------------------------------------------


def symmetry_check(s: IntersectionScenario) -> SymmetryReport:
    """Defect reports of the scenario and of its swapped orientation.

    Both orientations share the intersection algebra, so the excess
    codimension is the same on both sides; agreement of lengths, mu, and
    the per-component breakdown is what the report records.  Smoothness of
    both sides is assumed, not verified.
    """
    r = s.ring.nvars
    swapped = IntersectionScenario(s.ring, s.I_Y, s.I_X,
                                   (r - s.dims[1], r - s.dims[0]), s.Z)
    forward = q_module(s)
    reverse = q_module(swapped)
    agree = (forward.dim_q == reverse.dim_q
             and forward.mu_q == reverse.mu_q
             and sorted(forward.per_component) == sorted(reverse.per_component))
    return SymmetryReport(forward, reverse, agree,
                          "smoothness of both sides is assumed, not checked")
