"""Finite-dimensional quotient algebras and their local structure.

An ArtinianAlgebra is F_p[x]/I for a zero-dimensional I, represented by its
standard-monomial basis and the memoised monomial matrices M_q = X^q built
from the multiplication matrices X_v of the variables.  The free x_w, whose
e_w leads no element of the reduced basis, generate it: any other x_v is
minus the tail of the element it leads, on standard monomials, which hold
free variables alone.  So only the free X_w are built, as one stack, and a
bound X_v is that tail evaluated on them.  Its locality comes from the
reduced basis when every element is homogeneous: the zero set is then a
finite cone, the origin alone, so every x_v is nilpotent and the X_v span
the radical themselves.  Otherwise it comes from the Frobenius map
F(a) = a^p, which is F_p-linear on the algebra and memoised on it as a
matrix: F^N kills the radical once p^N >= dim (at_origin), ker(F - 1) is
the split subalgebra F_p^c with one copy per local factor, and F^N maps
onto the reduced part, where the semisimple part s_v of each x_v lives
(Berlekamp, Math. Comp. 24 (1970); Ronyai, J. Symbolic Comput. 9 (1990)).
So the splitting of the algebra into its local factors, their points and
the nilpotent parts x_v - s_v, which span its radical on the algebra and
on any module over it, need no randomness and hold at every p.  On top of
that live the tangent-space and derivation-module dimensions and the
regularity of projective point ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from . import univar as uv
from .algebra import Polynomial
from .groebner import Ideal, hilbert_data
from .linalg import identity, mat_mul, nullspace, rank, rref, stack_apply


class ArtinianAlgebra:
    """F_p[x]/I for a zero-dimensional ideal I, in its standard monomials.

    The ideal keeps the algebra beside its Groebner basis (from_ideal), so
    each ideal has one; the algebra keeps the generators and the basis, not
    the ideal, so the two make no reference cycle (see ideal).  free lists
    the free variables and _tails the coordinates of each bound x_v.  Every
    d x d matrix of the algebra is a monomial matrix M_q = X^q, built once
    and memoised, and so are the actions, the matrix of the Frobenius map,
    the local factors with the semisimple parts of the variables, and the
    answer of at_origin.  A homogeneous basis answers at_origin with no
    Frobenius map built, and at the origin the nilpotent parts are the
    matrices themselves.
    """

    def __init__(self, ideal: Ideal):
        self._gens = ideal.gens
        self._gb = ideal.groebner()
        self.ring = ideal.ring
        self.p = p = self.ring.p
        self.std = self._gb.standard_monomials()
        self.dim = len(self.std)
        self._index = {m: i for i, m in enumerate(self.std)}
        n = self.ring.nvars
        zero = (0,) * n
        self.one = np.zeros(self.dim, dtype=np.int64)
        self.one[self._index[zero]] = 1
        lead = {f.leading_monomial(): f for f in self._gb.polys}
        self._tails = {}
        for v in range(n):
            f = lead.get(zero[:v] + (1,) + zero[v + 1:])
            if f is not None:
                a = self._tails[v] = np.zeros(self.dim, dtype=np.int64)
                for m, c in f.terms[1:]:
                    a[self._index[m]] = p - c
        self.free = tuple(v for v in range(n) if v not in self._tails)
        # the least N >= 1 with p^N >= dim: F^N kills every nilpotent
        self.depth = next(N for N in count(1) if p ** N >= self.dim)
        self._free = self._actions = None
        self._monomials = {zero: identity(self.dim)}
        self._frobenius = None
        self._local = None
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
        ideal._alg = cls(ideal)
        return ideal._alg

    @property
    def ideal(self) -> Ideal:
        """The ideal of the algebra: an ideal on its generators with the
        algebra's basis and the algebra itself as its cached basis and
        quotient, so nothing is computed again."""
        ideal = Ideal(self.ring, self._gens)
        ideal._gb, ideal._alg = self._gb, self
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

    def free_actions(self) -> np.ndarray:
        """The X_w of the free variables, in order, as one (f x d x d) stack
        (_build_actions); with actions, memoised."""
        if self._free is None:
            self._free = self._build_actions()
            self._actions = self.module_actions(self._free)
        return self._free

    def actions(self) -> list:
        """X_v for every variable: views of the free stack, then the bound
        ones (module_actions)."""
        self.free_actions()
        return self._actions

    def module_actions(self, free: np.ndarray) -> list:
        """The action of every variable on a module over the algebra whose
        free variables act by the stack free: free[k] for the k-th free
        variable, and minus its element's tail evaluated on them for a bound
        x_v (evaluate), 0 where that tail is 0."""
        bound = [v for v, a in self._tails.items() if a.any()]
        tails = self.evaluate([self._tails[v] for v in bound], free)
        acts = list(np.zeros((self.nvars,) + free.shape[1:], dtype=np.int64))
        for v, Y in [*zip(self.free, free), *zip(bound, tails)]:
            acts[v] = Y
        return acts

    def _build_actions(self) -> np.ndarray:
        """The free X_w on one array of the columns of border_plan, a row
        each: the direct ones set at once, then each derived one in turn.
        The stack is a view of H = [X_1^T | ... | X_f^T], the rows of the
        x_w * std[j] side by side, which stack_apply multiplies by."""
        d, p, f = self.dim, self.p, len(self.free)
        places, direct, derived = self._gb.border_plan(self.free)
        places = np.array(places, dtype=np.int64).reshape(f, d)
        C = np.zeros((places.max(initial=d - 1) + 1, d), dtype=np.int64)
        at = np.array(direct, dtype=np.int64)
        C[at[:, 1], at[:, 0]] = at[:, 2]
        for k, w, b in derived:
            nz = C[b].nonzero()[0]
            if nz.size:
                C[k] = mat_mul(C[b, nz], C[places[w, nz]], p)
        return C[places.T].reshape(d, f, d).transpose(1, 2, 0)

    def monomial_matrix(self, q) -> np.ndarray:
        """M_q, the multiplication matrix of x^q for any exponent q
        (_monomial on the actions, memoised on the algebra)."""
        return _monomial(self._monomials, self.actions(), q, self.p)

    def along_std(self, start: np.ndarray, mats) -> np.ndarray:
        """x^q * start for every standard monomial q, stacked in the order
        of std, with x_v acting by mats[v].  Each is mats[v] applied to the
        one for q - e_v, v the first variable of q: q - e_v is standard
        and comes earlier, since std ascends from 1 in a monomial order."""
        out = np.empty((self.dim,) + start.shape, dtype=np.int64)
        out[0] = start
        for i, q in enumerate(self.std[1:], 1):
            v = next(j for j, e in enumerate(q) if e)
            prev = self._index[q[:v] + (q[v] - 1,) + q[v + 1:]]
            out[i] = mat_mul(mats[v], out[prev], self.p)
        return out

    def evaluate(self, vectors, free: np.ndarray) -> np.ndarray:
        """The stacked matrices of the elements, given by their
        standard-monomial coordinates a, on a module over the algebra whose
        free variables act by the stack free: the sum of a_q Y^q over the
        element's support, each Y^q built once for all the elements
        (_monomial).  The element 1 is the identity, with no product."""
        p, std, m = self.p, self.std, free.shape[1]
        memo = {std[0]: identity(m)}
        mats = dict(zip(self.free, free))
        out = np.zeros((len(vectors), m, m), dtype=np.int64)
        for M, a in zip(out, vectors):
            for i in np.flatnonzero(a):
                M += int(a[i]) * _monomial(memo, mats, std[i], p)
                M %= p
        return out

    # -- locality

    def frobenius(self) -> np.ndarray:
        """The matrix of F(a) = a^p on the standard monomials.  Column q is
        (x^q)^p = P_v (x^(q - e_v))^p for P_v = X_v^p, so it is built
        along the standard monomials (along_std), with P_w by repeated
        squaring for the free variables, those of the standard monomials."""
        if self._frobenius is None:
            P = {w: _matrix_power(X, self.p, self.p)
                 for w, X in zip(self.free, self.free_actions())}
            self._frobenius = self.along_std(self.one, P).T
        return self._frobenius

    def frobenius_power(self, Y: np.ndarray, k: int) -> np.ndarray:
        """F^k applied to the columns of Y."""
        F = self.frobenius()
        for _ in range(k):
            Y = mat_mul(F, Y, self.p)
        return Y

    def at_origin(self) -> bool:
        """True when every x_v is nilpotent: the algebra is local with its
        point at the origin.  When every element of the reduced basis is
        homogeneous, the zero set is a finite cone, so the origin alone,
        and no Frobenius map is built.  Otherwise F^N must kill every x_v,
        N the depth: a nilpotent's index is at most dim <= p^N.  x_v is the
        first column of X_v, x_v * 1."""
        if self._origin is None:
            self._origin = all(f.is_homogeneous() for f in self._gb.polys)
            if not self._origin:
                xs = np.stack([X[:, 0] for X in self.actions()], axis=1)
                self._origin = not self.frobenius_power(xs, self.depth).any()
        return self._origin

    def nilpotent_parts(self, free: np.ndarray) -> np.ndarray:
        """The stack of N_w = Y_w - S_w for the stack free of the Y_w of the
        free variables on a module over the algebra, S_w the action of the
        semisimple part s_w of x_w (local_decompose).  Each n_w = x_w - s_w
        is nilpotent, and the s_w lie in the reduced subalgebra F^N(A).  The
        x_w generate A, so the quotient by the n_w, generated by the images
        of the s_w, is a product of fields: the n_w generate rad A, and the
        columns of the N_w span rad(A)*M.  At the origin N_w = Y_w."""
        if self.at_origin():
            return free
        semisimple = self._local_parts()[1][:, self.free]
        return np.mod(free - self.evaluate(semisimple.T, free), self.p)

    def _local_parts(self) -> tuple:
        """(local factors, semisimple parts), memoised (_split)."""
        if self._local is None:
            self._local = _split(self)
        return self._local


def _monomial(memo: dict, mats, q, p: int) -> np.ndarray:
    """Y^q for commuting matrices Y_v: Y^q = Y_v Y^(q - e_v) with v the
    first variable of q, memoised through every missing Y^(q - e_v) on
    the way.  The matrices commute and products mod p are exact, so any
    chain gives the same matrix."""
    chain = []
    while q not in memo:
        v = next(i for i, e in enumerate(q) if e)
        chain.append((q, v))
        q = q[:v] + (q[v] - 1,) + q[v + 1:]
    for r, v in reversed(chain):
        memo[r] = mat_mul(mats[v], memo[q], p)
        q = r
    return memo[q]


def _matrix_power(X: np.ndarray, e: int, p: int) -> np.ndarray:
    """X^e for e >= 1 by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = X if out is None else mat_mul(out, X, p)
        e >>= 1
        if not e:
            return out
        X = mat_mul(X, X, p)


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
    """One local factor e*A of an artinian algebra A, from local_decompose.

    idempotent is its primitive idempotent e in standard-monomial
    coordinates, e*1, which also orders the factors; point is the rational
    support point, or None when the residue field is a proper extension of
    F_p; residue_degree is the degree r of that residue field over F_p.
    """

    length: int
    idempotent: tuple
    point: tuple | None
    residue_degree: int


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


def local_decompose(alg: ArtinianAlgebra) -> list:
    """Split an artinian algebra A into its local factors, with no
    randomness and at every p; memoised on the algebra.

    An algebra at the origin is its one factor, at any dimension, with no
    rank taken.  Any other is split with the Frobenius map F(a) = a^p
    (ArtinianAlgebra.frobenius).  A = prod A_c with A_c local of residue
    field F_(p^(r_c)), and ker(F - 1) = {a : a^p = a} is F_p^c, one copy
    per factor, so c = dim ker(F - 1) and the primitive idempotents e_c of
    A are those of ker(F - 1) (_idempotents).  A factor's length is
    rank L_e, for L_e the multiplication matrix of its idempotent, and its
    residue degree is r = rank(F^N L_e), N the algebra's depth: F^N kills
    the maximal ideal and maps e*A onto its residue field.  When r = 1 its
    point a is read off F^N(e*x_v) = a_v*e.  The semisimple part of x_v is
    s_v = sum_c F^(k_c)(e_c*x_v), k_c the least multiple of r_c at or above
    N: F has order r_c on the residue field and kills the nilpotents by
    then.  Factors are sorted by length, then by e*1.
    """
    return list(alg._local_parts()[0])


def _split(alg: ArtinianAlgebra) -> tuple:
    """(factors, semisimple parts s_v as the columns of a d x n array, or
    None at the origin): the work of local_decompose."""
    d, n, p, N = alg.dim, alg.nvars, alg.p, alg.depth
    if alg.at_origin():
        return [LocalFactor(d, tuple(alg.one.tolist()), (0,) * n, 1)], None
    F = alg.frobenius()
    # the basis has full rank, so rref keeps every row
    K, piv = rref(nullspace(np.mod(F - identity(d), p), p), p)
    E = mat_mul(K.T, _idempotents(alg, K, piv), p)
    c = E.shape[1]
    # row q of L_e is x^q * e, so L holds every L_e transposed
    L = alg.along_std(E, alg.actions())
    FL = alg.frobenius_power(L.transpose(1, 0, 2).reshape(d, d * c), N)
    FL = FL.reshape(d, d, c)
    lengths = [rank(L[:, :, k], p) for k in range(c)]
    degrees = [rank(FL[:, :, k], p) for k in range(c)]
    steps = [-(-N // r) * r for r in degrees]
    # Y holds the e_k * x_v, taken through F one step at a time
    Y = stack_apply(np.stack(alg.actions()), E.T, p).transpose(2, 0, 1)
    semisimple = np.zeros((d, n), dtype=np.int64)
    points = [None] * c
    for j in range(1, max(steps) + 1):
        Y = mat_mul(F, Y.reshape(d, n * c), p).reshape(d, n, c)
        for k in (k for k in range(c) if steps[k] == j):
            semisimple = (semisimple + Y[:, :, k]) % p
            if degrees[k] == 1:
                t = np.flatnonzero(E[:, k])[0]
                inv = pow(int(E[t, k]), p - 2, p)
                points[k] = tuple(int(a) * inv % p for a in Y[t, :, k])
    factors = sorted((LocalFactor(lengths[k], tuple(E[:, k].tolist()),
                                  points[k], degrees[k]) for k in range(c)),
                     key=lambda f: (f.length, f.idempotent))
    return factors, semisimple


def _idempotents(alg: ArtinianAlgebra, K: np.ndarray, piv) -> np.ndarray:
    """The primitive idempotents of B = ker(F - 1), as columns in the
    coordinates of its rref basis K (a vector's entries at piv).

    B is F_p^c, so each basis element b_i has a split squarefree minimal
    polynomial, a divisor of t^p - t, whose roots (univar.roots, sorted)
    give the idempotents of b_i by Lagrange interpolation.  Refining the
    idempotents found so far by those of b_1, b_2, ... ends at the c
    primitive ones, since the basis separates the c points of B.  All of
    it runs on B's own c x c multiplication matrices: S[:, i, j] holds
    b_i*b_j, and b_i*b_j = sum_q K[j, q] x^q*b_i, with the x^q*b_i built
    along the standard monomials.
    """
    d, p, c = alg.dim, alg.p, len(piv)
    one = alg.one[piv]
    if c == 1:
        return one[:, None]
    B = alg.along_std(K.T, alg.actions())
    S = mat_mul(B.transpose(1, 2, 0).reshape(d * c, d), K.T, p)
    S = S.reshape(d, c, c)[piv]
    pieces = one[:, None]
    for i in range(c):
        if pieces.shape[1] == c:
            break
        T = S[:, i, :]
        roots = uv.roots(minpoly_of_vector(T, one, p), p)
        m = len(roots)
        if m == 1:
            continue
        powers = [one]
        for _ in range(m - 1):
            powers.append(mat_mul(T, powers[-1], p))
        # Lagrange polynomials: the inverse of the evaluation matrix
        values = np.array([[pow(a, k, p) for k in range(m)] for a in roots],
                          dtype=np.int64)
        lagrange = rref(np.hstack([values, identity(m)]), p)[0][:, m:]
        split = mat_mul(np.stack(powers, axis=1), lagrange, p)
        # w * f for each piece w and idempotent f of b_i; S is symmetric,
        # so S times w is the multiplication matrix of w
        mults = mat_mul(S.reshape(c * c, c), pieces, p)
        prods = np.hstack([mat_mul(mults[:, k].reshape(c, c), split, p)
                           for k in range(pieces.shape[1])])
        pieces = prods[:, prods.any(axis=0)]
    if pieces.shape[1] != c:
        raise RuntimeError("the basis of ker(F - 1) failed to separate "
                           "its points")
    return pieces


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
