"""Seeded generators for the worked intersection scenarios and experiments.

Every construction is a pure function of its parameters and a Seed, so a
(seed, prime) pair reproduces a run bit for bit.  Degenerate random draws
are redrawn up to a fixed budget and then raised with the seed attached;
silent retries would hide genericity failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from . import univar as uv
from .algebra import (
    FieldSpec,
    PolyRing,
    Polynomial,
    poly_to_string,
    random_poly,
)
from .excess import IntersectionScenario, make_scenario
from .groebner import Ideal
from .linalg import mat_mul, nullspace, pencil_dets, rank, rref
from .rng import Stream
from .zerodim import ArtinianAlgebra, _linear_parts, local_decompose

_BUDGET = 8


@dataclass(frozen=True)
class Seed:
    """Reproducibility token: 64-bit seed plus the coefficient field."""

    seed: int
    p: FieldSpec = field(default_factory=lambda: FieldSpec(32003))

    def stream(self) -> Stream:
        return Stream(self.seed)


def _graph_scenario(s: Seed, graph_count: int, base_count: int, label: str,
                    expected: int, graph_is_x: bool) -> IntersectionScenario:
    """Graph of random quadrics against its axis plane.

    The chart ring carries the quadrics themselves; the ambient ring lists
    the graph variables first, then the base variables.  Which side plays
    the smooth first argument is the only difference between the two
    published models built this way.  The graph meets its axis in
    O_Z = k[a]/(quadrics), so a draw is kept when Z is finite of the
    expected length, read off the one basis run that builds Z.
    """
    chart = PolyRing(s.p, tuple(f"a{i}" for i in range(1, base_count + 1)))
    names = tuple(f"x{i}" for i in range(1, graph_count + 1)) + chart.variables
    R = PolyRing(s.p, names)
    axis = Ideal(R, [R.var(i) for i in range(graph_count)])
    stream = s.stream()
    for trial in range(_BUDGET):
        st = stream.fork(trial)
        quads = [random_poly(chart, 2, st.fork(i), homogeneous=True)
                 for i in range(graph_count)]
        graph_gens = []
        for i, f in enumerate(quads):
            g = R.var(i) - f.to_ring(R)
            if g.homogeneous_part(1) != R.var(i):
                raise RuntimeError("graph generator lost its linear witness")
            graph_gens.append(g)
        graph = Ideal(R, graph_gens)
        x, y = (graph, axis) if graph_is_x else (axis, graph)
        try:
            scen = make_scenario(R, x, y, base_count, graph_count,
                                 chart_ideal=Ideal(chart, quads))
        except ValueError as exc:
            if str(exc) != "intersection not finite":
                raise
            continue
        if scen.Z.dim == expected:
            return scen
    raise RuntimeError(f"degenerate quadrics for {label} from seed {s.seed}")


def gen_quadric_graph(n: int, s: Seed) -> IntersectionScenario:
    """Graph of n+1 random quadrics on A^n against the axis n-plane.

    The intersection is supported at the origin with length
    C(n+1, ceil(n/2)); draws missing that length are redrawn.
    """
    if not 1 <= n <= 8:
        raise ValueError("supported range is 1 <= n <= 8")
    expected = comb(n + 1, (n + 1) // 2)
    return _graph_scenario(s, n + 1, n, f"quadric graph n={n}", expected,
                           graph_is_x=True)


def gen_EI_model(s: Seed) -> IntersectionScenario:
    """Four-fold axis plane meeting the graph of 7 random quadrics on A^4."""
    return _graph_scenario(s, 7, 4, "excess model", 8, graph_is_x=False)


def gen_fatpoint_model(s: Seed) -> IntersectionScenario:
    """Square of a point on a 3-plane, cut out by a codim-6 graph CI.

    The second argument maps each degree-2 monomial in x, y, z to an
    independent random linear form in the u variables; the intersection
    ideal is exactly (x,y,z)^2 + (u).
    """
    R = PolyRing(s.p, ("x", "y", "z") + tuple(f"u{i}" for i in range(1, 7)))
    chart = PolyRing(s.p, ("x", "y", "z"))
    p = R.p
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    stream = s.stream()
    for trial in range(_BUDGET):
        st = stream.fork(trial)
        M = np.array([[st.randrange(p) for _ in range(6)] for _ in range(6)],
                     dtype=np.int64)
        if rank(M, p) == 6:
            break
    else:
        raise RuntimeError(f"degenerate linear forms from seed {s.seed}")
    ygens = []
    for j, m in enumerate(monos):
        quad = R.poly({m + (0,) * 6: 1})
        ell = R.poly({tuple(0 if k != 3 + i else 1 for k in range(9)):
                      int(M[j][i]) for i in range(6) if M[j][i]})
        ygens.append(quad - ell)
    I_X = Ideal(R, [R.var(3 + i) for i in range(6)])
    I_Y = Ideal(R, ygens)
    chart_ideal = Ideal(chart, [chart.poly({m: 1}) for m in monos])
    scen = make_scenario(R, I_X, I_Y, 3, 6, chart_ideal=chart_ideal)
    reference = Ideal(R, [R.poly({m + (0,) * 6: 1}) for m in monos]
                      + [R.var(3 + i) for i in range(6)])
    if not scen.Z.ideal.equals(reference):
        raise RuntimeError(f"intersection ideal drifted from seed {s.seed}")
    return scen


# --- determinantal surface and its trisecant lines ----------------------------


@dataclass(frozen=True)
class ReyeData:
    """Symmetric 4x4 matrix A of linear forms on P^5; its 3x3 minors cut
    out the rank <= 2 surface X.

    The trisecant check reads A only through its coefficient tensor, which
    is where the entries are checked to be linear forms.  I_X and det A
    are expanded by _minors_and_det, on Polynomial arithmetic, on first
    read and kept, so a caller who never reads them never pays for the
    expansion.
    """

    ring: PolyRing
    A: tuple

    @cached_property
    def coefficients(self) -> np.ndarray:
        """C of shape (nvars, 4, 4) with A(x) = sum_k x_k C[k] mod p.

        Raises ValueError unless every entry is a linear form with no
        constant term.
        """
        C = np.zeros((self.ring.nvars, 4, 4), dtype=np.int64)
        for i, row in enumerate(self.A):
            for j, f in enumerate(row):
                for m, c in f.terms:
                    if sum(m) != 1:
                        raise ValueError("matrix entries must be linear "
                                         "forms without constant term")
                    C[m.index(1), i, j] = c
        return C

    @cached_property
    def _expansion(self) -> tuple:
        # A is symmetric, so minor (j, i) is the transpose of minor (i, j)
        # and has the same determinant: only the minors with i <= j are
        # expanded, and equal minors are kept once, in row-major order of
        # first appearance
        minors, det_a = _minors_and_det(self.A, self.ring)
        return Ideal(self.ring, dict.fromkeys(minors)), det_a

    @property
    def I_X(self) -> Ideal:
        return self._expansion[0]

    @property
    def detA(self) -> Polynomial:
        return self._expansion[1]


@dataclass(frozen=True)
class ReyeCheck:
    """One trisecant-line verification at a sampled quartic point."""

    point: tuple
    det_degree: int
    point_on_line: bool
    intersection_degree: int
    attempts: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point),
            "det_degree": self.det_degree,
            "point_on_line": self.point_on_line,
            "line_degree": self.intersection_degree,
            "attempts": self.attempts,
            "passed": self.passed,
        }


def _minors_and_det(A, ring: PolyRing):
    """The 3x3 minors (i, j), i <= j in row-major order, and det A of a
    4x4 matrix of polynomials.

    Every sub-determinant is expanded along its first row on Polynomial
    arithmetic and memoised by (rows, cols), so the minors share their
    2x2 blocks.  det A is the row-0 expansion over the minors (0, j),
    which the memo already holds.
    """
    memo = {}
    full = tuple(range(4))
    minors = [_sub_det(A, full[:i] + full[i + 1:], full[:j] + full[j + 1:],
                       ring, memo)
              for i in range(4) for j in range(i, 4)]
    return minors, _sub_det(A, full, full, ring, memo)


def _sub_det(A, rows, cols, ring: PolyRing, memo: dict) -> Polynomial:
    """Determinant of A on (rows, cols), expanded along its first row;
    memo holds the expansions by (rows, cols)."""
    if len(rows) == 1:
        return A[rows[0]][cols[0]]
    got = memo.get((rows, cols))
    if got is None:
        got = ring.zero()
        for k, c in enumerate(cols):
            term = A[rows[0]][c] * _sub_det(A, rows[1:],
                                            cols[:k] + cols[k + 1:],
                                            ring, memo)
            got = got - term if k % 2 else got + term
        memo[(rows, cols)] = got
    return got


def gen_reye(s: Seed) -> ReyeData:
    """Symmetric matrix model of a surface in P^5 swept by trisecants.

    det A is a quartic form or zero, and det A(e_k) = det C[k] at the
    coordinate points, so one nonzero det C[k] proves det A nonzero
    without expanding it.  The six probes are one stacked Leibniz
    expansion (linalg.pencil_dets, exact at every p).  Only when every
    probe is zero is det A expanded, to decide the draw exactly.
    """
    ring = PolyRing(s.p, tuple(f"y{i}" for i in range(6)))
    st = s.stream()
    entries = {}
    k = 0
    for i in range(4):
        for j in range(i, 4):
            f = random_poly(ring, 1, st.fork(k), homogeneous=True)
            entries[(i, j)] = entries[(j, i)] = f
            k += 1
    A = tuple(tuple(entries[(i, j)] for j in range(4)) for i in range(4))
    d = ReyeData(ring, A)
    C = d.coefficients
    if not pencil_dets(C, np.zeros_like(C), ring.p)[:, 0].any() \
            and d.detA.degree() != 4:
        raise RuntimeError(f"degenerate symmetric matrix from seed {s.seed}")
    return d


def _common_roots(polys, p: int) -> list:
    """Sorted common roots in F_p of nonzero coefficient lists (lowest
    degree first), as the roots of their gcd."""
    g = []
    for coeffs in polys:
        g = uv.gcd(g, uv.trim([int(c) % p for c in coeffs]), p)
    return uv.roots(g, p)


def _line_degree(forms, d: int, p: int) -> tuple:
    """Cone dimension and degree of k[s, t]/(F_1, ..., F_m) for binary
    forms F_i of degree d, each given by the coefficients of F_i(1, t),
    lowest degree first.

    Restricting a homogeneous ideal I to a line L spanned by a and b,
    x = s*a + t*b, gives S/(I + I_L) = k[s, t]/(F_i) as graded rings, so
    this reads the cone dimension and degree of X meeting L.

    Theorem.  If some F_i is nonzero, let G = gcd(F_i).  Then
    (F_i) = G*J' with J' = (F_i/G), whose generators share no factor, so
    J' is primary to (s, t) or the unit ideal and holds every form of
    large degree e.  The Hilbert function of k[s, t]/(F_i) is then
    (e + 1) - (e - deg G + 1) = deg G in large degree e: the cone has
    dimension 1 and degree deg G when G is not constant, and dimension 0
    when it is (X and L do not meet; the degree is reported as 0).  When
    every F_i is zero, L lies in X: dimension 2 and degree 1.  G is
    s^a*H with a = min(d - deg f_i), the multiplicity of the root
    (s : t) = (0 : 1), the point b, and H(1, t) = gcd(f_i).
    """
    fs = [f for f in (uv.trim([int(c) % p for c in f]) for f in forms) if f]
    if not fs:
        return 2, 1
    g = []
    for f in fs:
        g = uv.gcd(g, f, p)
    degree = min(d - uv.deg(f) for f in fs) + uv.deg(g)
    return (1, degree) if degree else (0, 0)


def _at(C: np.ndarray, points, p: int) -> np.ndarray:
    """The scalar matrices sum_k x_k C[k] mod p, one per point x."""
    n = C.shape[0]
    flat = mat_mul(np.asarray(points, dtype=np.int64), C.reshape(n, -1), p)
    return flat.reshape((-1,) + C.shape[1:])


# rows and columns of the 3x3 minors (i, j), i <= j, in row-major order
_MINORS = [(i, j) for i in range(4) for j in range(i, 4)]
_MINOR_ROWS = np.array([[k for k in range(4) if k != i] for i, _ in _MINORS])
_MINOR_COLS = np.array([[k for k in range(4) if k != j] for _, j in _MINORS])


def _pencil_minors(C: np.ndarray, a, b, p: int) -> np.ndarray:
    """The ten 3x3 minors (i, j), i <= j, of A(a) + t*A(b), one row of
    coefficients in t each: F_ij(1, t) for the binary cubics F_ij that the
    minors of A restrict to on the line spanned by a and b.  All ten are
    one stacked Leibniz expansion (linalg.pencil_dets)."""
    at = (_MINOR_ROWS[:, :, None], _MINOR_COLS[:, None, :])
    A0, A1 = _at(C, [a, b], p)
    return pencil_dets(A0[at], A1[at], p)


def reye_trisecant(d: ReyeData, s: Seed) -> ReyeCheck:
    """Sample a point of det A = 0 and verify the trisecant line through it.

    Everything runs on the coefficient tensor C of A, with scalar
    matrices and polynomials in one variable.  det A restricted to a
    random line u + t*w is the quartic det(A(u) + t*A(w)), a Leibniz
    expansion exact at every p (linalg.pencil_dets); at a root the
    scalar matrix has a kernel row v, and the four linear forms of v*A
    cut out a line L through the point.  L meets the minor surface in a
    projective scheme of degree 3: the minors restrict to the binary
    cubics of the pencil A(b0) + t*A(b1), with b0, b1 spanning L, and
    _line_degree reads cone dimension and degree off their gcd.  No
    Groebner basis is built and det A is never expanded: det_degree is 4
    because the restricted quartic is nonzero and the entries are linear
    forms.
    """
    C = d.coefficients
    n, p = d.ring.nvars, d.ring.p
    st = s.stream().fork(7)
    attempts = 0
    for trial in range(_BUDGET):
        attempts += 1
        tr = st.fork(trial)
        u = [tr.randrange(p) for _ in range(n)]
        w = [tr.randrange(p) for _ in range(n)]
        Au, Aw = _at(C, [u, w], p)
        quartic = pencil_dets(Au[None], Aw[None], p)[0]
        if not any(quartic):
            continue
        for t0 in _common_roots([quartic], p):
            pt = [(a + t0 * b) % p for a, b in zip(u, w)]
            if not any(pt):
                continue
            ker = nullspace((Au + t0 * Aw) % p, p)
            if ker.shape[0] != 1:
                continue
            # row j: coefficients of the linear form sum_i ker_i A[i][j]
            rows = mat_mul(ker, C.transpose(1, 0, 2).reshape(4, -1),
                           p).reshape(n, 4).T
            span = nullspace(rows, p)  # nullity 2 of 6 columns: rank 4
            if span.shape[0] != 2:
                continue
            on_line = not np.any(mat_mul(rows, np.array(pt, dtype=np.int64),
                                         p))
            dim, degree = _line_degree(_pencil_minors(C, *span, p), 3, p)
            if dim != 1:
                continue
            return ReyeCheck(tuple(pt), 4, on_line, degree, attempts,
                             on_line and degree == 3)
    raise RuntimeError(f"no usable quartic point from seed {s.seed}")


# --- secant lines of complete intersections -----------------------------------


_ACCEPTED = {(1, 2), (2, 3)}


@dataclass(frozen=True)
class CISecantScenario:
    """Complete intersection of r-n degree-l forms in P^r, r = nl/(l-1)+1."""

    ring: PolyRing
    gens: tuple
    n: int
    l: int
    r: int
    seed: Seed


@dataclass(frozen=True)
class SecantCheck:
    """Line-through-a-point verification for the secant sweep."""

    point: tuple
    cone_nonempty: bool
    direction: tuple | None
    line_degree: int | None
    attempts: int
    passed: bool
    note: str

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point),
            "cone_nonempty": self.cone_nonempty,
            "direction": None if self.direction is None
            else list(self.direction),
            "line_degree": self.line_degree,
            "attempts": self.attempts,
            "passed": self.passed,
            "note": self.note,
        }


def gen_ci_secant(n: int, l: int, s: Seed) -> CISecantScenario:
    """Complete intersection whose l-secant lines sweep all of P^r.

    A draw of r - n forms of degree l is kept when its affine cone has
    dimension n + 1.  Homogeneous forms whose codimension equals their
    number form a regular sequence (Matsumura, Commutative Ring Theory,
    Thm 17.4), so the draw is a complete intersection, of degree
    l^(r - n) by Bezout.
    """
    if (n, l) not in _ACCEPTED:
        raise ValueError("accepted (n, l) pairs: (1, 2) and (2, 3); other "
                         "parameters degenerate or exceed desk scale")
    r = (n * l) // (l - 1) + 1
    ring = PolyRing(s.p, tuple(f"y{i}" for i in range(r + 1)))
    stream = s.stream()
    for trial in range(_BUDGET):
        st = stream.fork(trial)
        gens = [random_poly(ring, l, st.fork(i), homogeneous=True)
                for i in range(r - n)]
        if Ideal(ring, gens).krull_dim() == n + 1:
            return CISecantScenario(ring, tuple(gens), n, l, r, s)
    raise RuntimeError(
        f"degenerate forms for (n,l)=({n},{l}) from seed {s.seed}")


def _cone_forms(hp: Polynomial, l: int, dring: PolyRing) -> list:
    """Coefficient forms of the t-expansion about the 0th coordinate point."""
    buckets = [dict() for _ in range(l + 1)]
    for m, c in hp.terms:
        j = l - m[0]
        if j > 0:
            buckets[j][tuple(m[1:])] = c
    return [dring.poly(b) for b in buckets[1:] if b]


def _coeffs_in(g: Polynomial, j: int) -> list:
    """Coefficients of a polynomial in the j-th variable alone, lowest
    degree first."""
    coeffs = [0] * (max(m[j] for m, _ in g.terms) + 1)
    for m, c in g.terms:
        coeffs[m[j]] = c
    return coeffs


def _rational_cone_point(cone, dring: PolyRing):
    """A projective F_p-point of the direction cone, or None.

    F is the list of free columns of the cone's linear forms (the non-pivot
    columns of their rref), so every point of the cone has a nonzero
    F-coordinate.  Chart j of the cone sets d_F[i] = 0 for i < j and
    d_F[j] = 1.  A chart that misses the cone is skipped, and one that meets
    it in positive dimension gives up.  Otherwise the chart is finite, and
    local_decompose splits its algebra with the Frobenius map; of the
    rational points of its factors, the one with the least F-coordinates
    is returned.  A chart with none passes to the next.
    """
    p = dring.p
    # the forms are homogeneous, so their degree-one parts are the linear forms
    pivots = rref(_linear_parts(cone, dring.nvars), p)[1]
    free = [v for v in range(dring.nvars) if v not in pivots]
    for j, f in enumerate(free):
        chart = Ideal(dring, list(cone) + [dring.var(v) for v in free[:j]]
                      + [dring.var(f) - dring.one()])
        if chart.is_trivial():
            continue
        if not chart.is_zero_dimensional():
            return None
        points = [fac.point for fac in
                  local_decompose(ArtinianAlgebra.from_ideal(chart))
                  if fac.point is not None]
        if not points:
            continue
        v = min(points, key=lambda pt: [pt[u] for u in free])
        for g in cone:
            if g.evaluate(v) % p:
                raise RuntimeError("cone point fails to satisfy a cone form")
        return v
    return None


def _restrict(gens, a, b) -> list:
    """Coefficients of g(a + t*b) in t, lowest degree first, for each g."""
    ring = gens[0].ring
    tring = PolyRing(ring.field, ("t",))
    images = {name: tring.poly({(0,): a[v], (1,): b[v]})
              for v, name in enumerate(ring.variables)}
    out = []
    for g in gens:
        h = g.substitute(images)
        out.append([] if h.is_zero() else _coeffs_in(h, 0))
    return out


def _frame(pt, p: int) -> np.ndarray:
    """Invertible matrix whose first column is pt (unit columns elsewhere)."""
    m = len(pt)
    pivot = next(i for i, x in enumerate(pt) if x % p)
    cols = [np.array(pt, dtype=np.int64) % p]
    cols += [np.eye(m, dtype=np.int64)[:, j] for j in range(m) if j != pivot]
    return np.stack(cols, axis=1)


def secant_through_point(scen: CISecantScenario) -> SecantCheck:
    """Find an l-secant line of the CI through a random point.

    Asserts that the cone of directions is nonempty over the closure; the
    rational-direction leg is best effort (a finite field may lack one),
    and when a direction exists the line's intersection degree with the
    CI is verified to be at least l.  As in reye_trisecant, that degree
    is read by _line_degree off the binary forms of degree l that the
    generators restrict to on the line through the point and the
    direction, with no Groebner basis.
    """
    st = scen.seed.stream().fork(101)
    ring, l, r = scen.ring, scen.l, scen.r
    p = ring.p
    dring = PolyRing(ring.field, tuple(f"d{i}" for i in range(1, r + 1)))
    fallback = None
    for trial in range(_BUDGET):
        tr = st.fork(trial)
        pt = [tr.randrange(p) for _ in range(r + 1)]
        vals = np.array([[g.evaluate(pt) for g in scen.gens]], dtype=np.int64)
        if not np.any(vals % p) or not any(pt):
            continue
        members = []
        for lam in nullspace(vals, p):
            h = ring.zero()
            for i, c in enumerate(lam):
                if c:
                    h = h + ring.constant(int(c)) * scen.gens[i]
            members.append(h)
        M = _frame(pt, p)
        images = {
            name: ring.poly({tuple(1 if t == j else 0 for t in range(r + 1)):
                             int(M[i][j]) for j in range(r + 1) if M[i][j]})
            for i, name in enumerate(ring.variables)
        }
        cone = []
        for h in members:
            cone.extend(_cone_forms(h.substitute(images), l, dring))
        nonempty = Ideal(dring, cone).krull_dim() >= 1
        v = _rational_cone_point(cone, dring)
        if v is None:
            fallback = SecantCheck(
                tuple(pt), nonempty, None, None, trial + 1, nonempty,
                "no rational direction; existence holds over the closure")
            continue
        q = [int(x) for x in mat_mul(M, np.concatenate([[0], v]), p)]
        dim, degree = _line_degree(_restrict(scen.gens, pt, q), l, p)
        deg = degree if dim == 1 else None
        return SecantCheck(tuple(pt), nonempty,
                           tuple(int(x) for x in v), deg, trial + 1,
                           nonempty and deg is not None and deg >= l, "")
    if fallback is not None:
        return fallback
    raise RuntimeError(f"no usable sample point from seed {scen.seed.seed}")


def _order_token(order) -> str:
    if order.kind == "block":
        return f"block({order.split})"
    return order.kind


def scenario_text(s: IntersectionScenario) -> str:
    """Dump a scenario in the parser's session format for reproduction."""
    R = s.ring
    head = (f"ring R = Fp({R.p})[{', '.join(R.variables)}], "
            f"{_order_token(R.order)}")
    xs = ", ".join(poly_to_string(g) for g in s.I_X.gens) or "0"
    ys = ", ".join(poly_to_string(g) for g in s.I_Y.gens) or "0"
    return f"{head};\nideal X = {xs};\nideal Y = {ys};\n"
