"""Finite-dimensional quotient algebras and their local structure.

An ArtinianAlgebra is F_p[x]/I for a zero-dimensional I, represented by its
standard-monomial basis and the memoised monomial matrices M_q = X^q built
from the multiplication matrices X_v of the variables.  Its locality comes
from the reduced basis when every element is homogeneous: the zero set is
then a finite cone, the origin alone, so every x_v is nilpotent and the X_v
span the radical themselves.  Otherwise it comes from the memoised minimal
polynomial of each X_v: every x_v is nilpotent when each is a power of t
(at_origin), and the nilpotent parts X_v - h_v(X_v), h_v their semisimple
polynomials, span its radical on the algebra and on any module over it.
On top of that live the tangent-space and derivation-module dimensions,
the splitting of the algebra into certified local factors through
idempotents (on bare action matrices), and the regularity of projective
point ideals.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import univar as uv
from .algebra import Polynomial
from .groebner import Ideal, hilbert_data
from .linalg import identity, mat_mul, rank, rref
from .rng import Stream


class ArtinianAlgebra:
    """F_p[x]/I for a zero-dimensional ideal I, in its standard monomials.

    The ideal keeps the algebra beside its Groebner basis (from_ideal), so
    each ideal has one; the algebra keeps the basis and refers to the ideal
    weakly (see ideal).  Every d x d matrix of the algebra is a monomial
    matrix M_q = X^q, built once and memoised, and so are the minimal
    polynomial of each X_v with its semisimple polynomial and the answer
    of at_origin.  A homogeneous basis answers at_origin with neither
    polynomial built, and at the origin the nilpotent parts are the
    matrices themselves.
    """

    def __init__(self, ideal: Ideal, std):
        self._ideal = weakref.ref(ideal)
        self._gens = ideal.gens
        self._gb = ideal.groebner()
        self.ring = ideal.ring
        self.p = self.ring.p
        self.std = tuple(std)
        self.dim = len(self.std)
        self._index = {m: i for i, m in enumerate(self.std)}
        zero = (0,) * self.ring.nvars
        self.one = np.zeros(self.dim, dtype=np.int64)
        self.one[self._index[zero]] = 1
        self._actions = None
        self._monomials = {zero: identity(self.dim)}
        self._minpolys = None
        self._semisimple = None
        self._origin = None

    @classmethod
    def from_ideal(cls, ideal: Ideal) -> "ArtinianAlgebra":
        """The quotient algebra of a zero-dimensional ideal, built once and
        kept on the ideal beside its Groebner basis."""
        if ideal._alg is not None:
            return ideal._alg
        gb = ideal.groebner()
        if gb.is_trivial():
            raise ValueError("the quotient by the unit ideal is zero")
        if not ideal.is_zero_dimensional():
            raise ValueError("quotient is not finite-dimensional")
        ideal._alg = cls(ideal, gb.standard_monomials())
        return ideal._alg

    @property
    def ideal(self) -> Ideal:
        """The ideal of the algebra.  Once the caller's ideal object is gone,
        an equal one is made on the same basis, with this algebra as its
        cached quotient, so nothing is computed again."""
        ideal = self._ideal()
        if ideal is None:
            ideal = Ideal(self.ring, self._gens)
            ideal._gb, ideal._alg = self._gb, self
            self._ideal = weakref.ref(ideal)
        return ideal

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    # -- coordinates

    def coords(self, f: Polynomial) -> np.ndarray:
        nf = self._gb.normal_form(f)
        v = np.zeros(self.dim, dtype=np.int64)
        for m, c in nf.terms:
            v[self._index[m]] = c
        return v

    def lift(self, vec) -> Polynomial:
        d = {}
        for m, c in zip(self.std, vec):
            c = int(c) % self.p
            if c:
                d[m] = c
        return self.ring.poly(d)

    # -- multiplication

    def actions(self) -> list:
        if self._actions is None:
            self._actions = self._build_actions()
        return self._actions

    def action(self, v: int) -> np.ndarray:
        return self.actions()[v]

    def _build_actions(self) -> list:
        """The X_v on one array of the columns of GroebnerBasis.border_plan:
        the direct ones set at once, then each derived one in turn."""
        d, p = self.dim, self.p
        places, direct, derived = self._gb.border_plan(self.std)
        places = np.array(places, dtype=np.int64)
        C = np.zeros((d, places.max() + 1), dtype=np.int64)
        at = np.array(direct, dtype=np.int64)
        C[at[:, 0], at[:, 1]] = at[:, 2]
        for k, w, b in derived:
            nz = C[:, b].nonzero()[0]
            if nz.size:
                C[:, k] = mat_mul(C[:, places[w, nz]], C[nz, b], p)
        return [C[:, cols] for cols in places]

    def monomial_matrix(self, q) -> np.ndarray:
        """M_q, the multiplication matrix of x^q for any exponent q.

        M_q = X_v M_(q - e_v) with v the first variable of q, memoised
        through every missing M_(q - e_v) on the way.  The actions commute
        and products mod p are exact, so any chain gives the same matrix.
        """
        memo = self._monomials
        chain = []
        while q not in memo:
            v = next(i for i, e in enumerate(q) if e)
            chain.append((q, v))
            q = q[:v] + (q[v] - 1,) + q[v + 1:]
        for r, v in reversed(chain):
            memo[r] = mat_mul(self.action(v), memo[q], self.p)
            q = r
        return memo[q]

    # -- locality

    def minimal_polynomials(self) -> list:
        """The minimal polynomial of each X_v, lowest degree first.

        The algebra is a faithful cyclic module over itself on the unit:
        f(X_v) kills 1 exactly when f(x_v) = 0, and then kills everything.
        So the Krylov sequence of X_v on the unit gives X_v's own minimal
        polynomial.
        """
        if self._minpolys is None:
            self._minpolys = [minpoly_of_vector(X, self.one, self.p)
                              for X in self.actions()]
        return self._minpolys

    def at_origin(self) -> bool:
        """True when every x_v is nilpotent: the algebra is local with its
        point at the origin.  When every element of the reduced basis is
        homogeneous, the zero set is a finite cone, so the origin alone,
        and no minimal polynomial is built.  Otherwise each minimal
        polynomial must be a power of t.  No squarefree part is taken
        either way, so any dimension is fine."""
        if self._origin is None:
            self._origin = (
                all(f.is_homogeneous() for f in self._gb.polys)
                or not any(any(mp[:-1]) for mp in self.minimal_polynomials()))
        return self._origin

    def nilpotent_parts(self, mats) -> list:
        """N_v = Y_v - h_v(Y_v) for the matrices Y_v of the variables on a
        module over the algebra, h_v the semisimple_poly of x_v's minimal
        polynomial.  The minimal polynomial of Y_v divides that of x_v, so
        N_v is Y_v's nilpotent part.  The n_v = x_v - h_v(x_v) generate
        rad A: the quotient by them is generated by the h_v(x_v), which
        commute and have squarefree minimal polynomials, so over the
        perfect field F_p it is reduced.  The columns of the N_v thus span
        rad(A)*M.  At the origin every h_v is 0 and N_v = Y_v, at any
        dimension; elsewhere it needs dim A < p, as squarefree parts do.
        """
        if self.at_origin():
            return list(mats)
        if self._semisimple is None:
            self._semisimple = [semisimple_poly(mp, self.p)
                                for mp in self.minimal_polynomials()]
        return [np.mod(Y - _eval_matrix_poly(h, Y, self.p), self.p)
                for Y, h in zip(mats, self._semisimple)]


# --- tangent and derivation dimensions ------------------------------------


def _linear_parts(polys, n: int) -> np.ndarray:
    """The degree-one coefficients of the polynomials, one row each and
    one column per variable."""
    out = np.zeros((len(polys), n), dtype=np.int64)
    for i, f in enumerate(polys):
        for m, c in f.terms:
            if sum(m) == 1:
                out[i, m.index(1)] = c
    return out


def zariski_tangent_dim(ideal: Ideal) -> int:
    """dim of the Zariski tangent space of V(I) at the origin."""
    ring = ideal.ring
    if any(g.constant_part() != 0 for g in ideal.gens):
        raise ValueError("the origin does not lie on the scheme")
    return ring.nvars - rank(_linear_parts(ideal.gens, ring.nvars), ring.p)


def derivations_dim(alg: ArtinianAlgebra) -> int:
    """dim_k Der_k(A) of the algebra A = R/I, R = k[x_1..x_n].

    Der_k(A) = Hom_A(Omega_A, A), and Omega_A = A^n/(J) for J the Jacobian
    rows (df_j/dx_v)_v of generators f_j of I (Eisenbud, Commutative
    Algebra, ch. 16); the generators suffice by the Leibniz rule, since a
    derivation that kills f_j kills a*f_j in A.  So Der_k(A) is the kernel
    of the relation map Phi_J : A^n -> A^m, and by rank-nullity its
    dimension is n*d - dim Phi_J(A^n), the submodule spanned by the n
    columns c_v = (df_j/dx_v)_j.
    """
    from .excess import _submodule  # deferred: excess builds on us

    gens, n = alg.ideal.gens, alg.nvars
    cols = np.array([[alg.coords(f.diff(v)) for f in gens] for v in range(n)],
                    dtype=np.int64).reshape(n, len(gens) * alg.dim)
    return n * alg.dim - len(_submodule(cols, alg)[1])


# --- local decomposition ---------------------------------------------------


@dataclass(frozen=True)
class LocalFactor:
    """One local factor of an artinian algebra, certified by
    local_decompose.

    chain holds (linear form coefficients, idempotent polynomial) pairs,
    outermost first; evaluating each polynomial at the corresponding linear
    combination of action matrices and multiplying the results yields the
    idempotent projector of this factor in any module over the algebra.
    point is the rational support point, or None when the residue field is
    a proper extension of F_p.
    """

    length: int
    chain: tuple
    point: tuple | None

    def projector(self, action_mats, p: int) -> np.ndarray:
        """Idempotent of this factor acting on a module via its actions."""
        E = identity(action_mats[0].shape[0])
        for coeffs, upoly in self.chain:
            L = _linear_form(coeffs, action_mats, p)
            E = mat_mul(E, _eval_matrix_poly(list(upoly), L, p), p)
        return E


def _linear_form(coeffs, mats, p: int) -> np.ndarray:
    """The matrix sum_v c_v X_v of a linear form on commuting matrices."""
    out = np.zeros(mats[0].shape, dtype=np.int64)
    for c, X in zip(coeffs, mats):
        if c % p:
            out = (out + (c % p) * np.asarray(X, dtype=np.int64)) % p
    return out


def _eval_matrix_poly(coeffs, M: np.ndarray, p: int) -> np.ndarray:
    """Horner evaluation of a univariate polynomial at a square matrix."""
    d = M.shape[0]
    out = np.zeros((d, d), dtype=np.int64)
    for c in reversed(coeffs):
        out = mat_mul(out, M, p)
        if c % p:
            out = (out + (c % p) * identity(d)) % p
    return out


def minpoly_of_vector(M: np.ndarray, v, p: int) -> list:
    """Minimal polynomial of M acting on the cyclic subspace of v.

    Reads the rref of the Krylov matrix [v, Mv, ..., M^d v]: once M^k v
    depends on the vectors before it, so do all later powers, so the
    pivots are the columns 0..k-1 and column k writes M^k v in them.  The
    polynomial is t^k minus that combination, lowest degree first.
    """
    d = M.shape[0]
    cols = [np.asarray(v, dtype=np.int64) % p]
    for _ in range(d):
        cols.append(mat_mul(M, cols[-1], p))
    R, piv = rref(np.stack(cols, axis=1), p)
    k = len(piv)
    return [int(-c) % p for c in R[:k, k]] + [1]


# random forms one piece may draw before local_decompose gives up on it;
# with dim < p a form fails to split or certify with probability below
# 1/2, so giving up on a good piece is a 2^-64 event
_DRAWS = 64


def local_decompose(alg: ArtinianAlgebra, stream: Stream) -> list:
    """Split an artinian algebra into its local factors, each certified.

    An algebra at the origin is its one factor, at any dimension, with no
    rank taken.  Any other is split on its bare matrices: the actions X_v,
    their nilpotent parts N_v, which span its radical
    (ArtinianAlgebra.nilpotent_parts), and its unit vector.  A piece's
    residue algebra has dimension r = dim - rank[N_1 | ... | N_n].  With
    r = 1 the piece is local with the rational point a_v = tr X_v / dim.
    Otherwise random linear forms are drawn: one whose minimal polynomial
    has a reducible squarefree part splits the piece by idempotents, and
    one where that part is irreducible of degree r certifies a local piece
    with residue field F_p[form], no rational point.  Any other form is
    redrawn, and after _DRAWS of them RuntimeError is raised: randomness
    finds splittings, it never accepts a factor.  Factors are sorted by
    length, then by their idempotent e*1 in standard-monomial coordinates,
    so the order does not depend on the stream.  Off the origin the
    squarefree parts need dim < p, and a larger algebra raises ValueError.
    """
    if alg.at_origin():
        return [LocalFactor(alg.dim, (), (0,) * alg.nvars)]
    if alg.dim >= alg.p:
        raise ValueError("algebra dimension must stay below the field size")
    acts, p = alg.actions(), alg.p
    out = []
    _decompose_into(acts, alg.nilpotent_parts(acts), alg.one, p, stream, (),
                    out)
    out.sort(key=lambda f: (f.length, mat_mul(f.projector(acts, p), alg.one,
                                              p).tolist()))
    return out


def _decompose_into(actions, nils, one, p, stream, chain, out):
    dim = len(one)
    r = dim - rank(np.vstack([N.T for N in nils]), p)
    if r == 1:
        inv = pow(dim, p - 2, p)
        point = tuple(int(np.trace(X)) * inv % p for X in actions)
        out.append(LocalFactor(dim, chain, point))
        return
    for _ in range(_DRAWS):
        coeffs = tuple(stream.randrange(p) for _ in actions)
        L = _linear_form(coeffs, actions, p)
        mp = minpoly_of_vector(L, one, p)
        red = uv.squarefree_part(mp, p)
        if uv.is_irreducible(red, p):
            if uv.deg(red) == r:
                out.append(LocalFactor(dim, chain, None))
                return
            continue
        for branch, q in enumerate(uv.factor_squarefree(red, p, stream)):
            # idempotent of the q-primary part: cof * (cof^-1 mod q^e)
            # mod mp, with q^e the largest power of q dividing mp
            qe = q
            while not uv.divmod_poly(mp, uv.mul(qe, q, p), p)[1]:
                qe = uv.mul(qe, q, p)
            cof = uv.divmod_poly(mp, qe, p)[0]
            u = uv.mod_poly(uv.mul(cof, _inv_mod(cof, qe, p), p), mp, p)
            E = _eval_matrix_poly(u, L, p)
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


def _inv_mod(f, modulus, p):
    """Inverse of f modulo a univariate polynomial, via extended euclid."""
    r0, r1 = list(modulus), uv.mod_poly(f, modulus, p)
    s0, s1 = [], [1]
    while r1:
        q, r = uv.divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, uv.sub(s0, uv.mul(q, s1, p), p)
    if uv.deg(r0) != 0:
        raise ValueError("element is not invertible modulo the given polynomial")
    c = pow(r0[0], p - 2, p)
    return uv.mod_poly(uv.scale(s0, c, p), modulus, p)


# --- semisimple parts ------------------------------------------------------


def semisimple_poly(minpoly: list, p: int) -> list:
    """Polynomial h with h(T) the semisimple part of T mod the minimal poly.

    Newton iteration on the squarefree part f: t <- t - f(t)/f'(t), carried
    out in F_p[T]/(minpoly); converges quadratically in the multiplicity.
    """
    f = uv.squarefree_part(minpoly, p)
    if uv.deg(f) == uv.deg(minpoly):
        return [0, 1]  # already semisimple
    df = uv.derivative(f, p)
    t = [0, 1]
    for _ in range(max(1, uv.deg(minpoly)).bit_length() + 1):
        ft = _compose_mod(f, t, minpoly, p)
        if not ft:
            break
        dft = _compose_mod(df, t, minpoly, p)
        inv = _inv_mod(dft, minpoly, p)
        t = uv.sub(t, uv.mod_poly(uv.mul(ft, inv, p), minpoly, p), p)
    if _compose_mod(f, t, minpoly, p):
        raise RuntimeError("newton iteration failed to converge")
    return t


def _compose_mod(f, g, modulus, p):
    """f(g) mod modulus by Horner."""
    out = []
    for c in reversed(f):
        out = uv.mod_poly(uv.mul(out, g, p), modulus, p)
        if c:
            out = uv.add(out, [c], p)
    return out


# --- regularity of projective point ideals ---------------------------------


@dataclass(frozen=True)
class RegularityResult:
    """saturation_steps is 0 when the input ideal was already saturated by
    the irrelevant ideal and 1 when saturating changed it."""

    regularity: int
    degree: int
    hilbert_values: tuple
    saturation_steps: int


def cm_regularity(ideal: Ideal) -> RegularityResult:
    """Regularity of a saturated ideal of points in projective space.

    The input is first saturated with respect to the irrelevant ideal
    (saturation_steps is 0 when it already was, 1 otherwise); the quotient
    must then have a 1-dimensional affine cone.  The regularity is read off
    the Hilbert function: 1 + the first degree where it reaches the number
    of points.
    """
    ring = ideal.ring
    if not ideal.is_homogeneous():
        raise ValueError("regularity needs a homogeneous ideal")
    irrelevant = Ideal(ring, [ring.var(i) for i in range(ring.nvars)])
    sat, steps = ideal.saturate(irrelevant)
    hd = hilbert_data(sat)
    if hd.krull_dim != 1:
        raise ValueError("regularity here applies to finite sets of points")
    deg = hd.degree
    i = 0
    values = []
    while True:
        values.append(hd.hf(i))
        if values[-1] == deg:
            break
        if i > 4 * deg + ring.nvars + 4:
            raise RuntimeError("hilbert function failed to stabilize")
        i += 1
    return RegularityResult(i + 1, deg, tuple(values), steps)


# --- first-order deformation data -------------------------------------------


@dataclass(frozen=True)
class TangentData:
    """First-order data of a finite subscheme of affine space.

    hilb_tangent_dim is the dimension of the space of embedded first-order
    deformations, t1_dim the intrinsic count left after subtracting the
    reparametrizations of the ambient space that do not restrict to
    derivations of the quotient.
    """

    zariski_dim: int
    derivations_dim: int
    t1_dim: int
    hilb_tangent_dim: int


def tangent_data(ideal: Ideal) -> TangentData:
    """Tangent, derivation, and deformation dimensions of V(ideal)."""
    from .excess import hilbert_tangent_dim  # deferred: excess builds on us

    alg = ArtinianAlgebra.from_ideal(ideal)
    hil = hilbert_tangent_dim(alg)
    der = derivations_dim(alg)
    n = ideal.ring.nvars
    return TangentData(zariski_tangent_dim(ideal), der,
                       hil - n * alg.dim + der, hil)
