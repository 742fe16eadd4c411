"""Finite-dimensional quotient algebras and their local structure.

An ArtinianAlgebra is F_p[x]/I for a zero-dimensional I, represented by its
standard-monomial basis and the multiplication matrices of the variables.
On top of that live the tangent-space and derivation-module dimensions, the
splitting of the algebra into local factors through idempotents, semisimple
parts of multiplication operators, and the regularity of projective point
ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import univar as uv
from .algebra import Polynomial, mono_divides
from .groebner import Ideal, hilbert_data
from .linalg import identity, mat_mul, rank, rref
from .rng import Stream


class ArtinianAlgebra:
    """F_p-algebra of finite dimension with explicit multiplication.

    Built either from a zero-dimensional ideal (carrying a monomial basis
    and normal forms) or from raw commuting action matrices (as happens for
    local factors, which have no distinguished monomial basis).
    """

    def __init__(self, p: int, dim: int, actions, one, ring=None, ideal=None,
                 std=None, parents=None):
        self.p = p
        self.dim = dim
        self._actions = actions
        self.one = np.asarray(one, dtype=np.int64)
        self.ring = ring
        self.ideal = ideal
        self.std = std
        self._parents = parents
        self._index = {m: i for i, m in enumerate(std)} if std is not None else None
        self._tensor = None

    # -- constructors

    @classmethod
    def from_ideal(cls, ideal: Ideal) -> "ArtinianAlgebra":
        """The quotient algebra of a zero-dimensional ideal, built once and
        kept on the ideal beside its Groebner basis."""
        if ideal._alg is not None:
            return ideal._alg
        ring = ideal.ring
        gb = ideal.groebner()
        if gb.is_trivial():
            raise ValueError("the quotient by the unit ideal is zero")
        if not ideal.is_zero_dimensional():
            raise ValueError("quotient is not finite-dimensional")
        lms = gb.leading_monomials()
        zero = (0,) * ring.nvars
        # breadth-first walk of the standard monomials; parents feed the
        # chained construction of multiplication matrices
        seen = {zero: None}
        queue = [zero]
        while queue:
            m = queue.pop(0)
            for v in range(ring.nvars):
                mm = tuple(e + 1 if i == v else e for i, e in enumerate(m))
                if mm in seen or any(mono_divides(l, mm) for l in lms):
                    continue
                seen[mm] = (m, v)
                queue.append(mm)
        std = sorted(seen, key=ring.order.key)
        index = {m: i for i, m in enumerate(std)}
        d = len(std)
        alg = cls(ring.p, d, None, np.zeros(d, dtype=np.int64), ring=ring,
                  ideal=ideal, std=tuple(std),
                  parents=tuple(
                      (index[seen[m][0]], seen[m][1]) if seen[m] is not None else None
                      for m in std
                  ))
        alg.one[index[zero]] = 1
        ideal._alg = alg
        return alg

    @classmethod
    def from_matrices(cls, p: int, actions, one) -> "ArtinianAlgebra":
        actions = [np.asarray(a, dtype=np.int64) for a in actions]
        d = actions[0].shape[0] if actions else len(one)
        return cls(p, d, actions, one)

    @property
    def nvars(self) -> int:
        if self._actions is not None:
            return len(self._actions)
        return self.ring.nvars

    # -- coordinates

    def coords(self, f: Polynomial) -> np.ndarray:
        nf = self.ideal.normal_form(f)
        v = np.zeros(self.dim, dtype=np.int64)
        for m, c in nf.terms:
            v[self._index[m]] = c
        return v

    def lift(self, vec) -> Polynomial:
        if self.std is None:
            raise ValueError("no monomial basis on a matrix-born algebra")
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
        ring, gb = self.ring, self.ideal.groebner()
        d = self.dim
        out = []
        for v in range(ring.nvars):
            X = np.zeros((d, d), dtype=np.int64)
            for j, m in enumerate(self.std):
                mm = tuple(e + 1 if i == v else e for i, e in enumerate(m))
                hit = self._index.get(mm)
                if hit is not None:
                    X[hit, j] = 1
                else:
                    X[:, j] = self.coords(ring.monomial(mm))
            out.append(X)
        return out

    def mult_tensor(self) -> np.ndarray:
        """tensor[j] is the matrix of multiplication by the j-th basis element."""
        if self._tensor is None:
            d, p = self.dim, self.p
            T = np.zeros((d, d, d), dtype=np.int64)
            if self._parents is None:
                raise ValueError("multiplication tensor needs a monomial basis")
            for j in range(d):
                if self._parents[j] is None:
                    T[j] = identity(d)
                else:
                    par, v = self._parents[j]
                    T[j] = mat_mul(self.action(v), T[par], p)
            self._tensor = T
        return self._tensor

    def element_matrix(self, vec) -> np.ndarray:
        """Multiplication matrix of the element with the given coordinates."""
        T = self.mult_tensor()
        d = self.dim
        row = np.asarray(vec, dtype=np.int64).reshape(1, d) % self.p
        return mat_mul(row, T.reshape(d, d * d), self.p).reshape(d, d)

    def poly_matrix(self, f: Polynomial) -> np.ndarray:
        return self.element_matrix(self.coords(f))

    def linear_form_matrix(self, coeffs) -> np.ndarray:
        acts = self.actions()
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for c, X in zip(coeffs, acts):
            if c % self.p:
                out = (out + (c % self.p) * X) % self.p
        return out


# --- tangent and derivation dimensions ------------------------------------


def zariski_tangent_dim(ideal: Ideal) -> int:
    """dim of the Zariski tangent space of V(I) at the origin."""
    ring = ideal.ring
    n = ring.nvars
    rows = []
    for g in ideal.gens:
        if g.constant_part() != 0:
            raise ValueError("the origin does not lie on the scheme")
        lin = g.homogeneous_part(1)
        rows.append([lin.coeff_of(tuple(1 if i == v else 0 for i in range(n)))
                     for v in range(n)])
    if not rows:
        return n
    return n - rank(np.array(rows, dtype=np.int64), ring.p)


def derivations_dim(alg: ArtinianAlgebra) -> int:
    """dim_k of the module of k-derivations of the algebra.

    A derivation is determined by the images v_i of the variables, subject
    to sum_i (df/dx_i) v_i = 0 in the algebra for every defining relation f;
    the generators of the ideal suffice by the Leibniz rule.
    """
    ring = alg.ring
    n, d, p = ring.nvars, alg.dim, alg.p
    gens = alg.ideal.groebner().polys
    blocks = []
    for f in gens:
        row = np.zeros((d, n * d), dtype=np.int64)
        for v in range(n):
            df = f.diff(v)
            if df.is_zero():
                continue
            row[:, v * d:(v + 1) * d] = alg.poly_matrix(df)
        blocks.append(row)
    if not blocks:
        return n * d
    A = np.vstack(blocks)
    return n * d - rank(A, p)


# --- local decomposition ---------------------------------------------------


@dataclass(frozen=True)
class LocalFactor:
    """One local factor of an artinian algebra.

    chain holds (linear form coefficients, idempotent polynomial) pairs,
    outermost first; evaluating each polynomial at the corresponding linear
    combination of action matrices and multiplying the results yields the
    idempotent projector of this factor in any module over the algebra.
    point is the rational support point, or None when the residue field is
    a proper extension of F_p.
    """

    length: int
    chain: tuple
    actions: tuple
    one: tuple
    point: tuple | None

    def projector(self, action_mats, p: int) -> np.ndarray:
        """Idempotent of this factor acting on a module via its actions."""
        d = action_mats[0].shape[0]
        E = identity(d)
        for coeffs, upoly in self.chain:
            L = np.zeros((d, d), dtype=np.int64)
            for c, X in zip(coeffs, action_mats):
                if c:
                    L = (L + c * np.asarray(X, dtype=np.int64)) % p
            E = mat_mul(E, _eval_matrix_poly(list(upoly), L, p), p)
        return E


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


def minpoly_of_element(alg: ArtinianAlgebra, coeffs) -> list:
    """Minimal polynomial of the linear form sum c_v x_v in the algebra."""
    M = alg.linear_form_matrix(coeffs)
    return minpoly_of_vector(M, alg.one, p=alg.p)


def _restrict(B: np.ndarray, pivots, X: np.ndarray, p: int) -> np.ndarray:
    """Matrix of X on the invariant subspace spanned by the rref rows B."""
    XB = mat_mul(np.asarray(X, dtype=np.int64), B.T, p)
    return XB[pivots, :]


def _is_nilpotent(X: np.ndarray, p: int) -> bool:
    """True when X^d = 0 for the size d of X, by repeated squaring."""
    N = np.mod(X, p)
    for _ in range(max(1, X.shape[0]).bit_length() + 1):
        if not N.any():
            return True
        N = mat_mul(N, N, p)
    return not N.any()


def _rational_point(actions, length: int, p: int):
    """Support point if rational: each action is scalar plus nilpotent."""
    point = []
    for A in actions:
        a = int(np.trace(A) % p) * pow(length % p, p - 2, p) % p
        if not _is_nilpotent(A - a * identity(A.shape[0]), p):
            return None
        point.append(a)
    return tuple(point)


_CONFIRM = 2
_FORMS = 8


def local_decompose(alg: ArtinianAlgebra, stream: Stream) -> list:
    """Split an artinian algebra into its local factors.

    Monte Carlo: a factor is accepted as local once _CONFIRM extra random
    linear forms in a row have a primary minimal polynomial.  Each level
    retries up to _FORMS forms before giving up (which raises, carrying
    the stream's seed for reproduction).
    """
    if alg.dim >= alg.p:
        raise ValueError("algebra dimension must stay below the field size")
    out = []
    _decompose_into(alg, stream, (), out)
    # canonical order: by length, then by chain for ties
    out.sort(key=lambda f: (f.length, f.chain))
    return out


def _decompose_into(alg, stream, chain, out):
    n = alg.nvars
    p = alg.p
    if alg.dim == 1:
        out.append(LocalFactor(1, chain, tuple(np.asarray(a) % p for a in alg.actions()),
                               tuple(int(c) % p for c in alg.one),
                               _rational_point(alg.actions(), 1, p)))
        return
    agreeing = 0
    for trial in range(_FORMS):
        coeffs = tuple(stream.randrange(p) for _ in range(n))
        mp = minpoly_of_element(alg, coeffs)
        red = uv.squarefree_part(mp, p)
        if uv.deg(red) == 1 or uv.is_irreducible(red, p):
            agreeing += 1
            if agreeing > _CONFIRM:
                out.append(LocalFactor(
                    alg.dim, chain,
                    tuple(np.asarray(a) % p for a in alg.actions()),
                    tuple(int(c) % p for c in alg.one),
                    _rational_point(alg.actions(), alg.dim, p),
                ))
                return
            continue
        factors = uv.factor_squarefree(red, p, stream)
        _split_by(alg, coeffs, mp, factors, stream, chain, out)
        return
    raise RuntimeError(
        f"local decomposition made no progress after {_FORMS} linear forms "
        f"(stream seed {stream.seed})"
    )


def _split_by(alg, coeffs, mp, factors, stream, chain, out):
    p = alg.p
    # primary parts of the minimal polynomial
    primaries = []
    for q in factors:
        e = 0
        rest = list(mp)
        while True:
            quo, rem = uv.divmod_poly(rest, q, p)
            if rem:
                break
            rest = quo
            e += 1
        primaries.append((q, e))
    L = alg.linear_form_matrix(coeffs)
    for branch, (q, e) in enumerate(primaries):
        qe = [1]
        for _ in range(e):
            qe = uv.mul(qe, q, p)
        cof = uv.divmod_poly(mp, qe, p)[0]
        # idempotent: cof * (cof^{-1} mod q^e), reduced mod the minimal poly
        inv = _inv_mod(cof, qe, p)
        u = uv.mod_poly(uv.mul(cof, inv, p), mp, p)
        E = _eval_matrix_poly(u, L, p)
        # the factor is the image of the projector
        B, pivots = _image_basis(E, p)
        sub_actions = [_restrict(B, pivots, X, p) for X in alg.actions()]
        one_vec = mat_mul(E, alg.one.reshape(-1, 1), p).ravel()
        sub = ArtinianAlgebra.from_matrices(p, sub_actions, one_vec[pivots])
        _decompose_into(sub, stream.fork(branch),
                        chain + ((tuple(coeffs), tuple(u)),), out)


def _image_basis(E: np.ndarray, p: int):
    """Row-reduced basis of the column space, with pivot row indices."""
    R, pivots = rref(E.T, p)
    B = R[: len(pivots)]
    return B, pivots


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
    assert not _compose_mod(f, t, minpoly, p), "newton iteration failed to converge"
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
    regularity: int
    degree: int
    hilbert_values: tuple
    saturation_steps: int


def cm_regularity(ideal: Ideal) -> RegularityResult:
    """Regularity of a saturated ideal of points in projective space.

    The input is first saturated with respect to the irrelevant ideal
    (saturation_steps == 0 means it already was); the quotient must then
    have a 1-dimensional affine cone.  The regularity is read off the
    Hilbert function: 1 + the first degree where it reaches the number of
    points.
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


def t1_dim(ideal: Ideal) -> int:
    """Intrinsic first-order deformation dimension of the finite scheme."""
    return tangent_data(ideal).t1_dim
