"""Exact F_p linear algebra: echelon forms, kernels, products."""

import random
from itertools import permutations

import numpy as np
import pytest

from qfiber import linalg
from qfiber.linalg import (
    identity,
    kernel_intersection,
    mat_mul,
    nullspace,
    pencil_dets,
    rank,
    rref,
)

P = 32003


def rand_matrix(rng, m, n, p=P):
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                    dtype=np.int64).reshape(m, n)


def full_update_rref(A, p):
    """rref updating whole rows at each pivot: the oracle for the
    column-restricted elimination in linalg.rref."""
    A = np.mod(np.asarray(A, dtype=np.int64), p)
    m, n = A.shape
    pivots, r = [], 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        col = A[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            A[rows] = np.mod(A[rows] - np.outer(col[rows], A[r]), p)
        pivots.append(c)
        r += 1
    return A, pivots


class TestRref:
    def test_known(self):
        A = [[1, 2], [2, 4]]
        R, piv = rref(A, 7)
        assert piv == [0]
        assert R[0].tolist() == [1, 2]
        assert not R[1].any()

    def test_idempotent(self):
        rng = random.Random(3)
        A = rand_matrix(rng, 6, 9)
        R, piv = rref(A, P)
        R2, piv2 = rref(R, P)
        assert piv == piv2
        assert (R == R2).all()

    @pytest.mark.parametrize("p", [3, 32003, 2147483629])
    def test_matches_full_row_update(self, p):
        rng = random.Random(p)
        for _ in range(40):
            m, n = rng.randrange(1, 9), rng.randrange(1, 11)
            A = rand_matrix(rng, m, n, p)
            A[:, rng.randrange(n)] = 0
            if m > 1:
                A[rng.randrange(m)] = A[0]
            if rng.randrange(3) == 0 and m > 2:
                # a rank-deficient product
                A = mat_mul(rand_matrix(rng, m, 2, p),
                            rand_matrix(rng, 2, n, p), p)
            R, piv = rref(A, p)
            R0, piv0 = full_update_rref(A, p)
            assert piv == piv0
            assert R.dtype == R0.dtype and (R == R0).all()

    @pytest.mark.parametrize("p", [3, 32003, 2147483629])
    def test_both_routes_match_full_row_update(self, p):
        # up to _SMALL_CELLS cells rref eliminates on rows of Python ints,
        # above it on columns of the array: draws up to 40 x 40 reach both,
        # with zero columns, repeated rows, low and zero rank, empty sides
        rng = random.Random(p + 1)
        small = linalg._SMALL_CELLS
        shapes = [(rng.randrange(lo, hi), rng.randrange(lo, hi))
                  for lo, hi in [(1, 23), (24, 41)] for _ in range(15)]
        shapes += [(16, small // 16), (16, small // 16 + 1), (1, small),
                   (small + 1, 1), (40, 40), (0, 7), (0, 600), (7, 0), (600, 0)]
        cells = [m * n for m, n in shapes]
        assert min(cells) == 0 and max(cells) > 3 * small
        assert sum(c <= small for c in cells) > 15
        assert sum(c > small for c in cells) > 15
        for k, (m, n) in enumerate(shapes):
            A, kind = rand_matrix(rng, m, n, p), k % 4
            if m and n:
                A[:, rng.sample(range(n), 1 + n // 8)] = 0
                if kind == 1:
                    A[rng.randrange(m)] = A[0]
                    A[rng.randrange(m)] = A[-1]
                elif kind == 2:
                    r = rng.randrange(1, 4)
                    A = mat_mul(rand_matrix(rng, m, r, p),
                                rand_matrix(rng, r, n, p), p)
                elif kind == 3:
                    A[:] = 0
            R, piv = rref(A, p)
            R0, piv0 = full_update_rref(A, p)
            assert piv == piv0
            assert R.shape == R0.shape and R.dtype == R0.dtype
            assert (R == R0).all()
            assert rank(A, p) == len(piv0)
            if kind == 3 or not (m and n):
                assert piv == [] and not R.any()

    @pytest.mark.parametrize("p", [3, 32003, 2147483629])
    @pytest.mark.parametrize("m,n", [(3, 40), (20, 50), (42, 490), (84, 245),
                                     (7, 91), (30, 30), (600, 2)])
    def test_early_ends_match_full_row_update(self, p, m, n):
        # the loop ends at the first pivotless column below which every
        # row is zero: the zero matrix, rank exhausted before the last
        # column (a low-rank product, then pivots in the last columns
        # only), and wide matrices on both routes
        rng = random.Random(m * n + p)
        low = mat_mul(rand_matrix(rng, m, 2, p), rand_matrix(rng, 2, n, p), p)
        late = np.zeros((m, n), dtype=np.int64)
        late[:, -2:] = rand_matrix(rng, m, 2, p)
        late[0, -1] = 1  # at least one pivot, in the last column or before
        # one nonzero entry, in the top row and the last column: every row
        # below the top one is zero from the first column on
        top = np.zeros((m, n), dtype=np.int64)
        top[0, -1] = 1
        # the pivot columns each case allows
        cases = [(np.zeros((m, n), dtype=np.int64), set()),
                 (low, set(range(n))), (late, {n - 2, n - 1}),
                 (rand_matrix(rng, m, n, p), set(range(n))), (top, {n - 1})]
        for k, (A, allowed) in enumerate(cases):
            R, piv = rref(A, p)
            R0, piv0 = full_update_rref(A, p)
            assert piv == piv0 and set(piv) <= allowed
            assert (len(piv) == 0) == (k == 0)
            if k == 1:
                assert len(piv) <= 2
            assert R.dtype == R0.dtype and (R == R0).all()
            assert rank(A, p) == len(piv)

    def test_rank_random_products(self):
        rng = random.Random(5)
        # rank of an outer product of full-rank factors is the inner dim
        for r in (1, 2, 3):
            A = rand_matrix(rng, 7, r)
            B = rand_matrix(rng, r, 6)
            assert rank(mat_mul(A, B, P), P) == r


class TestNullspace:
    def test_annihilates(self):
        rng = random.Random(11)
        for _ in range(10):
            A = rand_matrix(rng, 5, 8)
            N = nullspace(A, P)
            assert N.shape[0] == 8 - rank(A, P)
            assert not mat_mul(A, N.T, P).any()

    def test_zero_matrix(self):
        N = nullspace(np.zeros((3, 4), dtype=np.int64), P)
        assert N.shape == (4, 4)
        assert rank(N, P) == 4


class TestMatMul:
    def test_chunked_matches_direct(self):
        # large prime forces chunking along the contraction axis
        p = 1_000_003
        rng = random.Random(17)
        A = rand_matrix(rng, 3, 5000, p)
        B = rand_matrix(rng, 5000, 2, p)
        direct = np.zeros((3, 2), dtype=object)
        for i in range(3):
            for j in range(2):
                direct[i, j] = int(sum(int(a) * int(b) for a, b in zip(A[i], B[:, j]))) % p
        C = mat_mul(A, B, p)
        assert all(int(C[i, j]) == direct[i, j] for i in range(3) for j in range(2))

    def test_largest_prime(self):
        p = 2**31 - 1
        A = np.array([[p - 1, p - 2], [p - 3, p - 5]], dtype=np.int64)
        want = [[sum(int(A[i, k]) * int(A[k, j]) for k in range(2)) % p
                 for j in range(2)] for i in range(2)]
        assert mat_mul(A, A, p).tolist() == want


    def test_route_at_the_float_bound(self):
        # p - 1 just below 2^26: two products of residues sum below 2^53,
        # exact in float64, and three may not, so k = 3 must take the int64
        # route; the plain float64 product shows the difference.  64 x 64
        # outputs keep both products above the small int64 route
        p = 67108859  # the largest prime below 2^26
        assert 2 * (p - 1) ** 2 < 1 << 53 <= 3 * (p - 1) ** 2
        rows = 64
        assert rows * 2 * rows > linalg._SMALL_PRODUCT
        rng = random.Random(26)
        for k in (2, 3):
            A = np.array([[p - 2] * k] + [[rng.randrange(p) for _ in range(k)]
                                          for _ in range(rows - 1)],
                         dtype=np.int64)
            assert mat_mul(A, A.T, p).tolist() == product_oracle(A, A.T, p)
        top = np.full((1, 3), p - 2, dtype=np.float64)
        assert int((top @ top.T)[0, 0]) % p != (3 * (p - 2) ** 2) % p

    @pytest.mark.parametrize("p", [3, 32003, 67108859, 2147483647])
    def test_routes_straddle_the_work_threshold(self, p):
        # products of rows * k * columns around _SMALL_PRODUCT, with
        # entries in (-p, p), take the int64 product below it and the
        # float64 or chunked route above it
        rng = random.Random(p)
        small = linalg._SMALL_PRODUCT
        shapes = [(small // 256 + d, 16, 16) for d in (-1, 0, 1)]
        shapes += [(rng.randrange(1, 40), rng.randrange(1, 40),
                    rng.randrange(1, 40)) for _ in range(20)]
        work = [m * k * n for m, k, n in shapes]
        assert sum(w <= small for w in work) > 3
        assert sum(w > small for w in work) > 3
        for m, k, n in shapes:
            A = rand_matrix(rng, m, k, 2 * p - 1) - (p - 1)
            B = rand_matrix(rng, k, n, 2 * p - 1) - (p - 1)
            got = mat_mul(A, B, p)
            assert got.dtype == np.int64
            assert got.tolist() == product_oracle(A, B, p)

    @pytest.mark.parametrize("p", [32003, 2147483647])
    def test_vector_and_stacked_operands(self, p):
        # a 1-d right operand and a stack of left operands, on both sides
        # of the work threshold
        rng = random.Random(7)
        small = linalg._SMALL_PRODUCT
        for m in (4, 2 * small // 5):
            A, b = rand_matrix(rng, m, 5, p), rand_matrix(rng, 5, 1, p)[:, 0]
            got = mat_mul(A, b, p)
            assert got.shape == (m,) and got.tolist() == product_oracle(A, b, p)
        for s in (2, small // 8):
            A = np.stack([rand_matrix(rng, 2, 3, p) for _ in range(s)])
            B = rand_matrix(rng, 3, 4, p)
            got = mat_mul(A, B, p)
            assert got.shape == (s, 2, 4)
            assert got.tolist() == product_oracle(A, B, p)

    def test_largest_prime_leaves_the_int64_product(self):
        # at 2^31 - 1 two products of residues sum below 2^63 and three do
        # not, so a small product with k >= 3 must not be one int64 product:
        # every entry +-(p - 1) would overflow it
        p = 2**31 - 1
        assert 2 * (p - 1) ** 2 < 1 << 63 <= 3 * (p - 1) ** 2
        for k in (2, 3, 4, 9):
            for sign in (1, -1):
                A = np.full((2, k), p - 1, dtype=np.int64)
                B = np.full((k, 3), sign * (p - 1), dtype=np.int64)
                assert A.size * 3 <= linalg._SMALL_PRODUCT
                assert mat_mul(A, B, p).tolist() == product_oracle(A, B, p)


def product_oracle(A, B, p):
    """(A @ B) mod p on Python ints, as nested lists."""
    return np.mod(np.asarray(A).astype(object) @ np.asarray(B).astype(object),
                  p).tolist()


class TestKernelIntersection:
    def test_matches_stacked(self):
        rng = random.Random(29)
        blocks = [rand_matrix(rng, 3, 9) for _ in range(4)]
        N = kernel_intersection(blocks, 9, P)
        stacked = np.vstack(blocks)
        M = nullspace(stacked, P)
        assert N.shape[0] == M.shape[0]
        for H in blocks:
            assert not mat_mul(H, N.T, P).any()
        # same span: each basis lies in the other's row space
        joint = np.vstack([N, M])
        assert rank(joint, P) == N.shape[0]

    def test_empty_blocks(self):
        N = kernel_intersection([], 5, P)
        assert (N == identity(5)).all()


def elimination_det(A, p):
    """Determinant by Gaussian elimination over F_p: the oracle for the
    Leibniz expansion."""
    A = [[int(x) % p for x in row] for row in A]
    n, out = len(A), 1
    for c in range(n):
        r = next((r for r in range(c, n) if A[r][c]), None)
        if r is None:
            return 0
        if r != c:
            A[c], A[r] = A[r], A[c]
            out = -out
        out = out * A[c][c] % p
        inv = pow(A[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = A[r][c] * inv % p
            A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    return out % p


def pencil_det(A, B, p):
    """Coefficients of det(A + t*B) mod p, lowest degree first, for one
    pencil of small square matrices: the Leibniz expansion on lists, one
    permutation and one linear factor a + t*b at a time, kept as the
    oracle for the stacked linalg.pencil_dets."""
    A = [[int(x) for x in row] for row in A]
    B = [[int(x) for x in row] for row in B]
    n = len(A)
    acc = [0] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        f = [-1 if inversions % 2 else 1]
        for i, j in enumerate(perm):
            a, b = A[i][j], B[i][j]
            f = [(x * a + y * b) % p for x, y in zip(f + [0], [0] + f)]
        acc = [u + v for u, v in zip(acc, f)]
    return [c % p for c in acc]


def det(A, p):
    """det A mod p: the constant coefficient of the stacked expansion of
    the pencil A + t*0."""
    A = np.asarray(A, dtype=np.int64)
    return int(pencil_dets(A[None], np.zeros_like(A)[None], p)[0, 0])


class TestDeterminants:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_det_matches_elimination(self, n):
        rng = random.Random(n)
        for p in (3, 5, P, 2147483647):
            for _ in range(5):
                A = rand_matrix(rng, n, n, p)
                assert det(A, p) == elimination_det(A, p)

    def test_det_singular(self):
        A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
        assert det(A, P) == 0 and rank(A, P) == 2

    @pytest.mark.parametrize("p", [3, 5, P])
    def test_pencil_matches_every_evaluation(self, p):
        # det(A + t*B) has degree <= 4, above p - 1 when p = 3: the
        # expansion must hold at every t in F_p without interpolating
        rng = random.Random(p)
        for _ in range(5):
            A, B = rand_matrix(rng, 4, 4, p), rand_matrix(rng, 4, 4, p)
            coeffs = pencil_dets(A[None], B[None], p)[0].tolist()
            assert len(coeffs) == 5
            assert coeffs[0] == det(A, p) and coeffs[4] == det(B, p)
            for t in range(p if p < 50 else 7):
                value = sum(c * t ** k for k, c in enumerate(coeffs)) % p
                assert value == elimination_det((A + t * B) % p, p)

    def test_pencil_keeps_a_vanishing_leading_coefficient(self):
        # B of rank 1: det(A + t*B) is linear in t
        A = np.array([[1, 0], [0, 1]], dtype=np.int64)
        B = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert pencil_dets(A[None], B[None], P).tolist() == [[1, 5, 0]]

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("p", [3, 5, 7, P, 2147483647])
    def test_stacks_match_the_list_expansion(self, n, p):
        # entries in (-p, p), and B = 0 for the plain determinants; at
        # 2^31 - 1 each step's sums come within a factor 2 of 2^63
        rng = random.Random(100 * n + p % 97)
        for k in (1, 6, 10):
            A = np.array([rand_matrix(rng, n, n, 2 * p) - p for _ in range(k)],
                         dtype=np.int64).reshape(k, n, n)
            for B in (np.array([rand_matrix(rng, n, n, p) for _ in range(k)],
                               dtype=np.int64).reshape(k, n, n),
                      np.zeros_like(A)):
                got = pencil_dets(A, B, p)
                assert got.shape == (k, n + 1) and got.dtype == np.int64
                assert got.tolist() == [pencil_det(a, b, p)
                                        for a, b in zip(A, B)]

    def test_largest_prime_at_its_extreme_entries(self):
        # every entry p - 1, the largest factor a step can meet
        p = 2147483647
        A = np.full((1, 5, 5), p - 1, dtype=np.int64)
        assert pencil_dets(A, A, p).tolist() == [pencil_det(A[0], A[0], p)]

    def test_empty_determinant_is_one(self):
        for p in (3, P):
            empty = np.zeros((3, 0, 0), dtype=np.int64)
            assert pencil_dets(empty, empty, p).tolist() == [[1]] * 3
