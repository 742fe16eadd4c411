"""Exact linear algebra over F_p on numpy int64 arrays.

Coefficients are residues in [0, p).  This module holds every matrix
product of the package, all through mat_mul, which has three routes.  A
small product (rows * k * columns at most _SMALL_PRODUCT for the
contraction length k) with k * (p-1)^2 below 2^63 is one int64 product,
exact as it stands.  A larger one whose k keeps k * (p-1)^2 below 2^53
runs in float64 BLAS, where every integer below 2^53 is exact; one above
it runs on int64, chunked along the contraction axis so that k * (p-1)^2
stays below 2^62, so any prime accepted by FieldSpec (below 2^31) is
safe.  numpy's fixed cost per call decides the size cut: on the products
of a benchmark pass (2-core x86_64 host, numpy 2.4) the int64 product
beats the float64 one, casts included, up to about 4,500 multiply-adds
(at 2,500 it takes 8.5 us against 10.7 us) and loses from about 5,000.

rref has two routes as well.  A matrix of at most _SMALL_CELLS cells is
eliminated on lists of Python ints, a row at a time; a larger one by
column operations on the int64 array.  Both return the same int64 (R,
pivots), and both are exact: the list route reduces every entry mod p
after each step, and the array route's products stay below (p-1)^2 <
2^62.  The cut is where the two cross on the eliminations of a benchmark
pass, same host: near 512 cells (at 225 cells the rows take 30-34 us
against 62-65 us, and at 850 cells they run 3x slower).

The determinant pencils det(A + t*B) of small matrices are Leibniz
expansions on stacked arrays (pencil_dets), reduced after each linear
factor, so their sums stay below 2*(p-1)^2 < 2^63 for the same primes.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np


def as_mod_array(A, p: int) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    return np.mod(A, p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


# output cells per block of a float64 product, which bounds its temporaries
_BLOCK_CELLS = 1 << 16
# multiply-adds up to which one int64 product beats the float64 route
_SMALL_PRODUCT = 1 << 12
# cells up to which rref eliminates on lists of Python ints
_SMALL_CELLS = 512


def mat_mul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(A @ B) mod p, exact for entries in (-p, p).

    Every partial sum is an integer of absolute value at most k * (p-1)^2
    for the contraction length k.  A small product below 2^63 is one
    int64 product.  Otherwise, below 2^53 the float64 product is exact;
    it runs in blocks of rows, each cast into the int64 result and
    reduced there.  Above it int64 partial sums over chunks of the
    contraction axis stay below 2^62.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    k = A.shape[-1]
    shape = A.shape[:-1] + B.shape[1:]
    if k == 0:
        return np.zeros(shape, dtype=np.int64)
    bound = k * (p - 1) ** 2
    if bound < 1 << 63 and A.size * (B.size // k) <= _SMALL_PRODUCT:
        return np.mod(A @ B, p)
    if bound < 1 << 53:
        rows, Bf = A.reshape(-1, k), B.astype(np.float64)
        step = max(1, _BLOCK_CELLS // max(1, Bf[0].size))
        if rows.shape[0] <= step:
            out = (rows.astype(np.float64) @ Bf).astype(np.int64)
        else:
            out = np.empty((rows.shape[0],) + B.shape[1:], dtype=np.int64)
            for s in range(0, rows.shape[0], step):
                out[s:s + step] = rows[s:s + step].astype(np.float64) @ Bf
        return np.mod(out, p, out=out).reshape(shape)
    chunk = max(1, (1 << 62) // ((p - 1) * (p - 1)))
    out = np.zeros(shape, dtype=np.int64)
    for s in range(0, k, chunk):
        out = np.mod(out + A[..., s:s + chunk] @ B[s:s + chunk], p)
    return out


def stack_apply(S: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """Each action of the stack S (k x d x d) on rows of k^w, blockwise on
    each d-chunk, as one product with H = [S[0]^T | ... | S[k-1]^T]: a
    (k x r x w) array, [i] the rows acted on by S[i]."""
    k, d = S.shape[:2]
    r, w = rows.shape
    H = S.transpose(2, 0, 1).reshape(d, k * d)
    out = mat_mul(rows.reshape(-1, d), H, p)
    return out.reshape(r, w // d, k, d).transpose(2, 0, 1, 3).reshape(k, r, w)


def rref(A, p: int):
    """Reduced row echelon form.

    Returns (R, pivots) where R is fully reduced with monic pivots and
    pivots lists the pivot column of each nonzero row, in order.  Up
    to _SMALL_CELLS cells the elimination runs on rows of Python ints
    (_rref_rows); above it, on columns of the array (_rref_columns).  Both
    end at the first pivotless column below which every row is zero,
    where R and pivots are final: at once for the zero matrix.
    """
    A = as_mod_array(A, p)  # np.mod returns a fresh array
    if A.size > _SMALL_CELLS:
        R, pivots = _rref_columns(A, p)
    else:
        rows, pivots = _rref_rows(A, p)
        R = np.array(rows, dtype=np.int64).reshape(A.shape)
    return R, pivots


def _rref_columns(A: np.ndarray, p: int):
    """rref of a matrix of residues in place, one int64 rank-1 update per
    pivot.  Rows below the last pivot are zero left of the column in hand
    and change only at a pivot, so they are tested once, at the column
    after it (or the first column) when that holds no pivot."""
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            if c == (pivots[-1] + 1 if pivots else 0) and \
                    not A[r:, c + 1:].any():
                break
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        # row r is zero left of c, so only columns c.. change
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = A[r, c:] * inv % p
        col = A[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            A[rows, c:] = np.mod(A[rows, c:] - np.outer(col[rows], A[r, c:]),
                                 p)
        pivots.append(c)
        r += 1
    return A, pivots


def _rref_rows(A: np.ndarray, p: int):
    """rref of a small matrix of residues as (rows, pivots), rows lists of
    Python ints: Gauss-Jordan on its rows, the same steps and early end as
    the column loop, so the same (R, pivots).  A row is zero left of its
    pivot column, so subtracting it leaves the columns left of that
    untouched."""
    m, n = A.shape
    rows = A.tolist()
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            if c == (pivots[-1] + 1 if pivots else 0) and \
                    not any(map(any, rows[r:])):
                break
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], -1, p)
        top = rows[r] = [x * inv % p for x in rows[r]]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(c)
    return rows, pivots


def rank(A, p: int) -> int:
    A = np.asarray(A, dtype=np.int64)
    if A.size == 0:
        return 0
    return len(rref(A, p)[1])


def nullspace(A, p: int) -> np.ndarray:
    """Basis of the right kernel, one vector per row."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("need a 2d array")
    m, n = A.shape
    if m == 0:
        return identity(n)
    R, pivots = rref(A, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
    if pivots and free:
        # solve pivot coordinates from the free ones
        basis[:, pivots] = np.mod(-R[: len(pivots), free].T, p)
    return basis


@cache
def _signed_permutations(n: int) -> tuple:
    """(the permutations of range(n), one per row, and their signs +-1,
    the parities of their inversions) for the Leibniz expansion."""
    perms = list(permutations(range(n)))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), n)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum((1, 2))
    return perms, 1 - 2 * (inversions % 2)


def pencil_dets(A, B, p: int) -> np.ndarray:
    """Coefficients of det(A_k + t*B_k) mod p, lowest degree first, one
    row of n + 1 per pencil, for stacks A, B of k small n x n matrices.

    The Leibniz expansion runs over all n! permutations and all k pencils
    at once: each permutation's product starts at its sign and is
    multiplied by its n linear factors a + t*b in turn, reduced mod p
    after each step, so every partial sum stays below 2*(p-1)^2 < 2^63,
    and the n! products, each below p, sum below 2^63 for n <= 12.  The
    result is exact for every p, also when F_p has too few points to
    interpolate a degree-n polynomial; a 0 x 0 determinant is 1.
    """
    A, B = as_mod_array(A, p), as_mod_array(B, p)
    n = A.shape[-1]
    perms, signs = _signed_permutations(n)
    # a[k, s, i] = A_k[i, perms[s, i]], the i-th factor of permutation s
    a, b = A[:, np.arange(n), perms], B[:, np.arange(n), perms]
    f = np.zeros(a.shape[:2] + (n + 1,), dtype=np.int64)
    f[..., 0] = signs % p
    for i in range(n):
        g = f * a[..., i, None]
        g[..., 1:] += f[..., :-1] * b[..., i, None]
        f = np.mod(g, p, out=g)
    return np.mod(f.sum(axis=1), p)


def kernel_intersection(blocks, dim: int, p: int) -> np.ndarray:
    """Basis of the intersection of kernels of an iterable of matrices.

    Each block is a 2d array with dim columns.  The intersection is the
    nullspace of all blocks stacked, taken in one elimination; with no
    blocks it is all of k^dim.
    """
    return nullspace(np.vstack([np.zeros((0, dim), dtype=np.int64), *blocks]),
                     p)
