"""Seeded scenario generators: reproducibility, genericity, frozen reports."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qfiber import groebner as gb_module
from qfiber import scenarios
from qfiber import univar as uv
from qfiber.algebra import FieldSpec, Polynomial, PolyRing, random_poly
from qfiber.cli import main
from qfiber.excess import q_module
from qfiber.groebner import Ideal, hilbert_data
from qfiber.invariants import corank_fiber_lower_bound
from qfiber.linalg import nullspace, rref
from qfiber.parser import parse_session
from qfiber.scenarios import (
    ReyeData,
    Seed,
    _common_roots,
    _minors_and_det,
    _pencil_minors,
    gen_EI_model,
    gen_ci_secant,
    gen_fatpoint_model,
    gen_quadric_graph,
    gen_reye,
    reye_trisecant,
    scenario_text,
    secant_through_point,
)
from test_groebner import assert_saturates_like_the_loop
from test_linalg import elimination_det, pencil_det


class TestSeed:
    def test_default_prime(self):
        assert Seed(3).p.p == 32003

    def test_stream_reproducible(self):
        a, b = Seed(9).stream(), Seed(9).stream()
        assert [a.randrange(100) for _ in range(5)] == \
            [b.randrange(100) for _ in range(5)]


class TestQuadricGraph:
    def test_reproducible(self):
        a = gen_quadric_graph(2, Seed(5))
        b = gen_quadric_graph(2, Seed(5))
        assert list(a.I_Y.gens) == list(b.I_Y.gens)
        assert list(a.I_X.gens) == list(b.I_X.gens)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            gen_quadric_graph(0, Seed(0))
        with pytest.raises(ValueError):
            gen_quadric_graph(9, Seed(0))

    def test_linear_witness(self):
        # graph generators read x_i - f_i(a); the linear part is the witness
        sc = gen_quadric_graph(3, Seed(1))
        for i, g in enumerate(sc.I_X.gens):
            assert g.homogeneous_part(1) == sc.ring.var(i)

    def test_length_matches_central_binomial(self):
        for n in (1, 2, 3):
            sc = gen_quadric_graph(n, Seed(n))
            assert sc.Z.dim == corank_fiber_lower_bound(n)

    def test_n1_report(self):
        r = q_module(gen_quadric_graph(1, Seed(0)))
        assert (r.deg_z, r.c, r.dim_q, r.mu_q) == (2, 1, 2, 1)
        assert r.q == 2
        assert r.per_component == ((2, 2, 1),)

    def test_n2_report(self):
        r = q_module(gen_quadric_graph(2, Seed(0)))
        assert (r.deg_z, r.dim_q, r.mu_q) == (3, 3, 3)
        assert r.q == 3
        assert r.hilb_tangent_dim == 6

    def test_n3_report(self):
        r = q_module(gen_quadric_graph(3, Seed(0)))
        assert (r.deg_z, r.dim_q, r.mu_q) == (6, 6, 3)
        assert r.q == 6
        assert (r.dim_m_big, r.dim_m_small) == (24, 19)

    def test_one_basis_run(self, monkeypatch):
        # O_Z = k[a]/(quadrics): the draw is judged on the run that builds Z
        runs = []
        plain = gb_module.groebner

        def counting(ring, gens):
            runs.append(tuple(gens))
            return plain(ring, gens)

        monkeypatch.setattr(gb_module, "groebner", counting)
        sc = gen_quadric_graph(4, Seed(0))
        assert runs == [sc.I_X.gens + sc.I_Y.gens]

    def test_all_draws_degenerate(self, monkeypatch):
        # equal quadrics leave Z infinite on every draw
        def square(ring, degree, stream, homogeneous=False):
            return ring.var(0) ** 2

        monkeypatch.setattr(scenarios, "random_poly", square)
        with pytest.raises(RuntimeError, match="degenerate quadrics"):
            gen_quadric_graph(2, Seed(0))

    def test_chart_matches_ambient(self):
        sc = gen_quadric_graph(2, Seed(4))
        assert sc.chart_ideal.ring.nvars == 2
        assert sc.Z.dim == 3


class TestFatpointModel:
    def test_intersection_ideal_exact(self):
        sc = gen_fatpoint_model(Seed(3))
        R = sc.ring
        monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                 (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        want = Ideal(R, [R.poly({m + (0,) * 6: 1}) for m in monos]
                     + [R.var(3 + i) for i in range(6)])
        assert (sc.I_X + sc.I_Y).equals(want)

    def test_one_intersection_basis(self, monkeypatch):
        # the drift check reads the basis the scenario built for Z
        runs = []
        plain = gb_module.groebner

        def counting(ring, gens):
            runs.append(tuple(gens))
            return plain(ring, gens)

        monkeypatch.setattr(gb_module, "groebner", counting)
        sc = gen_fatpoint_model(Seed(3))
        assert runs.count(sc.I_X.gens + sc.I_Y.gens) == 1

    def test_report_independent_of_seed(self):
        # the random linear forms never change the intersection invariants
        for seed in (0, 11):
            r = q_module(gen_fatpoint_model(Seed(seed)))
            assert (r.deg_z, r.c, r.dim_m_big, r.dim_m_small) == (4, 3, 24, 16)
            assert (r.hilb_tangent_dim, r.dim_q, r.mu_q) == (18, 6, 6)
            assert r.q == 2
            assert r.per_component == ((4, 6, 6),)


class TestEIModel:
    def test_report(self):
        r = q_module(gen_EI_model(Seed(0)))
        assert (r.deg_z, r.c) == (8, 3)
        assert (r.hilb_tangent_dim, r.dim_q, r.mu_q) == (25, 31, 7)
        assert r.q == Fraction(31, 3)


def _det(rows, ring):
    """Cofactor expansion along the first row, recomputed for every
    minor: the oracle for the memoised expansion in the scenario
    generator."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor, ring)
        acc = acc - term if j % 2 else acc + term
    return acc


def _drop(A, i, j):
    """A with row i and column j removed."""
    return [[A[a][b] for b in range(len(A)) if b != j]
            for a in range(len(A)) if a != i]


def _helper_against_oracle(A, ring):
    """_minors_and_det on A, checked term for term against _det."""
    minors, det_a = _minors_and_det(A, ring)
    assert [m.terms for m in minors] == [
        _det(_drop(A, i, j), ring).terms
        for i in range(4) for j in range(i, 4)]
    assert det_a.terms == _det(A, ring).terms
    return minors, det_a


class TestReye:
    def test_matrix_and_minors(self):
        d = gen_reye(Seed(0))
        assert len(d.I_X.gens) == 10
        assert d.detA.degree() == 4
        for i in range(4):
            for j in range(4):
                assert d.A[i][j] == d.A[j][i]

    def test_trisecant_degree_three(self):
        for seed in (0, 1):
            d = gen_reye(Seed(seed))
            chk = reye_trisecant(d, Seed(seed))
            assert chk.point_on_line
            assert chk.intersection_degree == 3
            assert chk.passed

    def test_minors_match_the_full_expansion(self):
        # the expansion the generator used before it took only the minors
        # with i <= j: all 16 cofactor determinants, deduplicated in
        # row-major order, and det A expanded from scratch
        for seed in range(40):
            d = gen_reye(Seed(seed))
            A = d.A
            minors, seen = [], set()
            for i in range(4):
                for j in range(4):
                    m = _det(_drop(A, i, j), d.ring)
                    if m not in seen:
                        seen.add(m)
                        minors.append(m)
            gens = Ideal(d.ring, minors).gens
            assert [g.terms for g in d.I_X.gens] == [g.terms for g in gens]
            assert d.detA.terms == _det([list(row) for row in A],
                                        d.ring).terms

    def test_minors_agree_with_scalar_determinants(self):
        # an oracle that shares no expansion with the helper: at a point x,
        # each minor and det A evaluate to the determinants of the scalar
        # matrix A(x) = sum_k x_k C[k]
        for seed in range(10):
            d = gen_reye(Seed(seed))
            p = d.ring.p
            C = d.coefficients
            minors, det_a = _minors_and_det(d.A, d.ring)
            st = Seed(seed).stream().fork(99)
            for _ in range(3):
                x = [st.randrange(p) for _ in range(d.ring.nvars)]
                Ax = [[sum(xk * int(C[k, i, j]) for k, xk in enumerate(x)) % p
                       for j in range(4)] for i in range(4)]
                assert det_a.evaluate(x) == elimination_det(Ax, p)
                assert [m.evaluate(x) for m in minors] == [
                    elimination_det(_drop(Ax, i, j), p)
                    for i in range(4) for j in range(i, 4)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_helper_on_a_general_matrix_with_zeros(self, seed):
        # not symmetric, some entries zero, one entry with a constant term
        ring = PolyRing(Seed(0).p, tuple(f"y{i}" for i in range(6)))
        st = Seed(seed).stream()
        A = [[random_poly(ring, 1, st.fork(4 * i + j)) for j in range(4)]
             for i in range(4)]
        A[0][1] = A[2][2] = A[3][0] = ring.zero()
        A[1][3] = A[1][3] + ring.constant(5)
        minors, det_a = _helper_against_oracle(A, ring)
        assert det_a.degree() == 4

    def test_helper_on_a_singular_matrix(self):
        # row 3 = row 1 + 2 * row 2: det A is the zero polynomial
        ring = PolyRing(Seed(0).p, tuple(f"y{i}" for i in range(6)))
        st = Seed(3).stream()
        A = [[random_poly(ring, 1, st.fork(4 * i + j)) for j in range(4)]
             for i in range(3)]
        A.append([a + b * 2 for a, b in zip(A[1], A[2])])
        minors, det_a = _helper_against_oracle(A, ring)
        assert det_a.is_zero()
        # minor (0, 0) keeps the dependent rows, minor (3, 3) drops one
        assert minors[0].is_zero() and not minors[-1].is_zero()

    def test_degenerate_draw_raises(self, monkeypatch):
        # every entry y0: A has rank 1, so det A is the zero polynomial
        monkeypatch.setattr(
            scenarios, "random_poly",
            lambda ring, degree, rng, homogeneous=True: ring.var(0))
        with pytest.raises(RuntimeError,
                           match="degenerate symmetric matrix from seed 5"):
            gen_reye(Seed(5))

    def test_expansion_multiplies_no_polynomials(self, monkeypatch):
        # a draw with a nonzero det C[k] expands nothing: the minors and
        # det A wait for their first read
        calls = []
        plain = Polynomial.__mul__

        def counting(self, other):
            calls.append(1)
            return plain(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        d = gen_reye(Seed(0))
        assert calls == []
        assert d.detA.degree() == 4

    def test_draw_and_check_expand_no_minors(self, monkeypatch, capsys):
        # a nonzero det C[k] decides the draw, and the check works on the
        # coefficient tensor: the minors and det A are never expanded
        def refuse(A, ring):
            raise AssertionError("_minors_and_det was called")

        monkeypatch.setattr(scenarios, "_minors_and_det", refuse)
        for seed in range(5):
            d = gen_reye(Seed(seed))
            assert reye_trisecant(d, Seed(seed)).passed
        assert main(["scenario", "reye", "--seed", "1"]) == 0

    def test_expansion_on_first_read_only(self):
        d = gen_reye(Seed(0))
        assert "_expansion" not in vars(d)
        first = d.I_X
        assert d.I_X is first and d.detA is d._expansion[1]

    def test_pencil_minors_match_the_list_expansion(self):
        # each of the ten minors (i, j), i <= j, of A(a) + t*A(b), against
        # the list expansion of the pencil with row i and column j dropped
        for seed in range(5):
            d = gen_reye(Seed(seed))
            p, C = d.ring.p, d.coefficients
            st = Seed(seed).stream().fork(5)
            a, b = ([st.randrange(p) for _ in range(6)] for _ in range(2))
            A0, A1 = (np.tensordot(x, C, axes=1) % p for x in (a, b))
            assert _pencil_minors(C, a, b, p).tolist() == [
                pencil_det(_drop(A0, i, j), _drop(A1, i, j), p)
                for i in range(4) for j in range(i, 4)]

    def test_coefficient_tensor(self):
        d = gen_reye(Seed(4))
        C = d.coefficients
        assert C.shape == (6, 4, 4)
        for i in range(4):
            for j in range(4):
                for k in range(6):
                    unit = tuple(int(v == k) for v in range(6))
                    assert C[k, i, j] == dict(d.A[i][j].terms).get(unit, 0)

    @pytest.mark.parametrize("bad", ["square", "constant"])
    def test_check_needs_linear_forms(self, bad):
        d = gen_reye(Seed(0))
        ring = d.ring
        extra = ring.var(0) * ring.var(1) if bad == "square" \
            else ring.constant(5)
        A = [list(row) for row in d.A]
        A[1][2] = A[2][1] = A[1][2] + extra
        with pytest.raises(ValueError, match="linear forms"):
            reye_trisecant(ReyeData(ring, tuple(map(tuple, A))), Seed(0))

    def test_json_shape(self):
        d = gen_reye(Seed(2))
        chk = reye_trisecant(d, Seed(2))
        js = chk.to_json_dict()
        assert js["det_degree"] == 4
        assert js["passed"] is True


class TestCISecant:
    def test_parameter_filter(self):
        with pytest.raises(ValueError):
            gen_ci_secant(1, 3, Seed(0))
        with pytest.raises(ValueError):
            gen_ci_secant(3, 2, Seed(0))

    def test_conic_case(self):
        scen = gen_ci_secant(1, 2, Seed(0))
        assert scen.r == 3
        assert len(scen.gens) == 2
        chk = secant_through_point(scen)
        assert chk.cone_nonempty
        if chk.direction is not None:
            assert chk.line_degree >= 2
        assert chk.passed

    def test_cubic_case(self):
        scen = gen_ci_secant(2, 3, Seed(0))
        assert scen.r == 4
        chk = secant_through_point(scen)
        assert chk.cone_nonempty
        if chk.direction is not None:
            assert chk.line_degree >= 3
        assert chk.passed

    def test_reproducible(self):
        a = gen_ci_secant(2, 3, Seed(7))
        b = gen_ci_secant(2, 3, Seed(7))
        assert list(a.gens) == list(b.gens)

    def test_dimension_decides_like_the_hilbert_series(self):
        # forms whose codimension is their number are a regular sequence,
        # so the dimension count accepts exactly the draws the Hilbert
        # series shows to be complete intersections of degree l^(r-n)
        decided = set()
        for n, l in ((1, 2), (2, 3)):
            r = (n * l) // (l - 1) + 1
            for p in (32003, 101, 7, 5, 3):
                ring = PolyRing(FieldSpec(p),
                                tuple(f"y{i}" for i in range(r + 1)))
                stream = Seed(0, FieldSpec(p)).stream()
                draws = []
                for trial in range(scenarios._BUDGET):
                    st = stream.fork(trial)
                    draws.append([random_poly(ring, l, st.fork(i),
                                              homogeneous=True)
                                  for i in range(r - n)])
                f = draws[0][0]
                # a repeated form, and forms with a common linear factor
                draws.append([f] * (r - n))
                draws.append([ring.var(0) * g.homogeneous_part(l - 1)
                              for g in draws[1]])
                for gens in draws:
                    ideal = Ideal(ring, gens)
                    accept = ideal.krull_dim() == n + 1
                    hd = hilbert_data(ideal)
                    assert accept == (hd.krull_dim == n + 1
                                      and hd.degree == l ** (r - n))
                    decided.add(accept)
        assert decided == {True, False}

    def test_cone_point_is_the_least_rational_point(self, monkeypatch):
        # every cone the sweep meets over small fields, against a search
        # over the free coordinates of each chart in turn
        cones = []
        real = scenarios._rational_cone_point

        def recording(cone, dring):
            got = real(cone, dring)
            cones.append((cone, dring, got))
            return got

        monkeypatch.setattr(scenarios, "_rational_cone_point", recording)
        for p in (3, 5, 7):
            for seed in range(4):
                for n, l in ((1, 2), (2, 3)):
                    secant_through_point(
                        gen_ci_secant(n, l, Seed(seed, FieldSpec(p))))
        found = 0
        for cone, dring, got in cones:
            want = _least_cone_point(cone, dring)
            if got is None and want is not None:
                # a chart met the cone in a curve: the sweep gives up there
                assert Ideal(dring, cone).krull_dim() >= 2
                continue
            assert (None if got is None else list(got)) == want
            found += want is not None
        assert found and found < len(cones)


def _least_cone_point(cone, dring):
    """The cone's rational point with d_F[i] = 0 for i < j, d_F[j] = 1, j
    least, then least in its F-coordinates, F the free columns of the
    linear forms; found by running over the F-coordinates in order."""
    p, m = dring.p, dring.nvars
    unit = [tuple(int(k == v) for k in range(m)) for v in range(m)]
    rows = np.array([[dict(g.terms).get(u, 0) for u in unit]
                     for g in cone if g.degree() == 1], dtype=np.int64)
    R, piv = rref(rows.reshape(-1, m), p)
    free = [v for v in range(m) if v not in piv]
    for j in range(len(free)):
        for tail in product(range(p), repeat=len(free) - j - 1):
            v = [0] * m
            for f, x in zip(free[j:], (1, *tail)):
                v[f] = x
            for k, c in enumerate(piv):
                v[c] = -sum(int(R[k, f]) * v[f] for f in free) % p
            if all(g.evaluate(v) % p == 0 for g in cone):
                return v
    return None

def _examined_lines(monkeypatch, check, *args):
    """Run a secant check; for every line whose degree it reads, return
    (a, b, forms, degree of the forms, the helper's answer), with a and b
    spanning the line."""
    spans, answers = [], []
    restrictors = {"_pencil_minors": scenarios._pencil_minors,
                   "_restrict": scenarios._restrict}

    def recording(name):
        plain = restrictors[name]

        def restrict(x, a, b, *rest):
            spans.append(([int(c) for c in a], [int(c) for c in b]))
            return plain(x, a, b, *rest)
        return restrict

    line_degree = scenarios._line_degree

    def answering(forms, d, p):
        got = line_degree(forms, d, p)
        answers.append((forms, d, got))
        return got

    for name in restrictors:
        monkeypatch.setattr(scenarios, name, recording(name))
    monkeypatch.setattr(scenarios, "_line_degree", answering)
    check(*args)
    monkeypatch.undo()
    assert len(spans) == len(answers)
    return [span + answer for span, answer in zip(spans, answers)]


def _line_ideal(gens, a, b):
    """The ideal generated by gens and the linear forms vanishing on the
    line spanned by a and b."""
    ring = gens[0].ring
    forms = [ring.poly({tuple(int(k == v) for k in range(ring.nvars)):
                        int(c) for v, c in enumerate(row)})
             for row in nullspace(np.array([a, b]), ring.p)]
    return Ideal(ring, list(gens) + forms)


def _assert_hilbert_agrees(ideal, cone):
    """The helper's (cone dimension, degree) against hilbert_data of the
    unsaturated ideal and of its saturation by the irrelevant ideal; for
    a line missing X the saturation is the unit ideal, of degree 0.  The
    saturation is pinned against the quotient loop (test_groebner.py)."""
    ring = ideal.ring
    irrelevant = Ideal(ring, [ring.var(i) for i in range(ring.nvars)])
    a = hilbert_data(ideal)
    b = hilbert_data(assert_saturates_like_the_loop(ideal, irrelevant))
    dim, degree = cone
    assert a.krull_dim == dim
    assert b.degree == degree
    if dim >= 1:
        assert (a.degree, b.krull_dim) == (degree, dim)
    else:
        assert b.krull_dim == -1


class TestNoSaturation:
    """The secant checks read cone dimension and degree of X meeting a line
    off the gcd of binary forms; that must equal the Hilbert data of the
    unsaturated I + I_L, which saturation leaves unchanged."""

    def test_saturation_agrees(self, monkeypatch):
        runs = []
        for seed in range(1, 6):
            d = gen_reye(Seed(seed))
            runs.append((d.I_X.gens, _examined_lines(
                monkeypatch, reye_trisecant, d, Seed(seed))))
        for n, l in ((1, 2), (2, 3)):
            scen = gen_ci_secant(n, l, Seed(0))
            runs.append((scen.gens, _examined_lines(
                monkeypatch, secant_through_point, scen)))
        for gens, lines in runs:
            assert lines
            for a, b, _, _, cone in lines:
                _assert_hilbert_agrees(_line_ideal(gens, a, b), cone)

    def test_point_of_x_at_infinity(self, monkeypatch):
        # reparametrize each examined line so that its second vector is a
        # rational point of X: the root at (0 : 1) then carries degree
        found = 0
        for seed in range(1, 6):
            d = gen_reye(Seed(seed))
            p = d.ring.p
            for a, b, forms, _, cone in _examined_lines(
                    monkeypatch, reye_trisecant, d, Seed(seed)):
                for t0 in _common_roots(forms, p):
                    on_x = [(x + t0 * y) % p for x, y in zip(a, b)]
                    moved = scenarios._pencil_minors(d.coefficients, b, on_x,
                                                     p)
                    assert all(len(uv.trim(list(f))) <= 3 for f in moved)
                    assert scenarios._line_degree(moved, 3, p) == cone
                    _assert_hilbert_agrees(_line_ideal(d.I_X.gens, b, on_x),
                                           cone)
                    found += 1
        assert found

    def test_line_missing_x(self):
        d = gen_reye(Seed(1))
        p = d.ring.p
        st = Seed(1).stream().fork(55)
        for _ in range(3):
            a = [st.randrange(p) for _ in range(6)]
            b = [st.randrange(p) for _ in range(6)]
            forms = scenarios._pencil_minors(d.coefficients, a, b, p)
            cone = scenarios._line_degree(forms, 3, p)
            assert cone == (0, 0)
            _assert_hilbert_agrees(_line_ideal(d.I_X.gens, a, b), cone)

    def test_line_inside_x(self):
        # (y0*y2 + y1*y3, y2^2 - y1*y3) contains the line y2 = y3 = 0
        ring = PolyRing(Seed(0).p, ("y0", "y1", "y2", "y3"))
        y0, y1, y2, y3 = (ring.var(i) for i in range(4))
        gens = [y0 * y2 + y1 * y3, y2 * y2 - y1 * y3]
        a, b = [1, 0, 0, 0], [0, 1, 0, 0]
        cone = scenarios._line_degree(scenarios._restrict(gens, a, b), 2,
                                      ring.p)
        assert cone == (2, 1)
        _assert_hilbert_agrees(_line_ideal(gens, a, b), cone)

    def test_double_root_at_infinity(self):
        # on the line y2 = 0, y0*y1^2 + y2^3 and y1^3 share the factor
        # y1^2: a double point at e0, which is b in the second chart
        ring = PolyRing(Seed(0).p, ("y0", "y1", "y2"))
        y0, y1, y2 = (ring.var(i) for i in range(3))
        gens = [y0 * y1 * y1 + y2 * y2 * y2, y1 * y1 * y1]
        for a, b in (([1, 0, 0], [0, 1, 0]), ([0, 1, 0], [1, 0, 0])):
            forms = scenarios._restrict(gens, a, b)
            cone = scenarios._line_degree(forms, 3, ring.p)
            assert cone == (1, 2)
            _assert_hilbert_agrees(_line_ideal(gens, a, b), cone)
        # in the second chart f = F(1, t) keeps no root: t and 1
        assert forms == [[0, 1], [1]]


class TestScenarioText:
    def test_round_trip(self):
        sc = gen_quadric_graph(2, Seed(6))
        ring, ideals, loose = parse_session(scenario_text(sc))
        assert ring.variables == sc.ring.variables
        assert ring.order == sc.ring.order
        assert not loose
        assert Ideal(ring, ideals["X"]).equals(sc.I_X)
        assert Ideal(ring, ideals["Y"]).equals(sc.I_Y)

    def test_fatpoint_round_trip(self):
        sc = gen_fatpoint_model(Seed(6))
        ring, ideals, _ = parse_session(scenario_text(sc))
        assert Ideal(ring, ideals["Y"]).equals(sc.I_Y)


class TestRootsScan:
    def test_quadratic(self):
        p = 32003
        assert _common_roots([[p - 1, 0, 1]], p) == [1, p - 1]

    def test_rootless(self):
        # t^2 + t + 1 has no roots mod 5
        assert _common_roots([[1, 1, 1]], 5) == []
