"""Seeded scenario generators: reproducibility, genericity, frozen reports."""

from fractions import Fraction

import pytest

from qfiber import groebner as gb_module
from qfiber import scenarios
from qfiber.algebra import Polynomial, PolyRing, random_poly
from qfiber.excess import q_module
from qfiber.groebner import Ideal, hilbert_data
from qfiber.invariants import corank_fiber_lower_bound
from qfiber.parser import parse_session
from qfiber.scenarios import (
    Seed,
    _common_roots,
    _minors_and_det,
    gen_EI_model,
    gen_ci_secant,
    gen_fatpoint_model,
    gen_quadric_graph,
    gen_reye,
    reye_trisecant,
    scenario_text,
    secant_through_point,
)


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
        assert sc.chart_ring.nvars == 2
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
    """Cofactor expansion along the first row on Polynomial arithmetic:
    the oracle for the packed expansion in the scenario generator."""
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
    minors, det = _minors_and_det(A, ring)
    assert [m.terms for m in minors] == [
        _det(_drop(A, i, j), ring).terms
        for i in range(4) for j in range(i, 4)]
    assert det.terms == _det(A, ring).terms
    return minors, det


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_helper_on_a_general_matrix_with_zeros(self, seed):
        # not symmetric, some entries zero, one entry with a constant term
        ring = PolyRing(Seed(0).p, tuple(f"y{i}" for i in range(6)))
        st = Seed(seed).stream()
        A = [[random_poly(ring, 1, st.fork(4 * i + j)) for j in range(4)]
             for i in range(4)]
        A[0][1] = A[2][2] = A[3][0] = ring.zero()
        A[1][3] = A[1][3] + ring.constant(5)
        minors, det = _helper_against_oracle(A, ring)
        assert det.degree() == 4

    def test_helper_on_a_singular_matrix(self):
        # row 3 = row 1 + 2 * row 2: det A is the zero polynomial
        ring = PolyRing(Seed(0).p, tuple(f"y{i}" for i in range(6)))
        st = Seed(3).stream()
        A = [[random_poly(ring, 1, st.fork(4 * i + j)) for j in range(4)]
             for i in range(3)]
        A.append([a + b * 2 for a, b in zip(A[1], A[2])])
        minors, det = _helper_against_oracle(A, ring)
        assert det.is_zero()
        # minor (0, 0) keeps the dependent rows, minor (3, 3) drops one
        assert minors[0].is_zero() and not minors[-1].is_zero()

    def test_helper_needs_linear_entries(self):
        ring = PolyRing(Seed(0).p, ("y0", "y1"))
        A = [[ring.var(0)] * 4 for _ in range(4)]
        A[2][1] = ring.var(1) * ring.var(1)
        with pytest.raises(ValueError, match="linear"):
            _minors_and_det(A, ring)

    def test_degenerate_draw_raises(self, monkeypatch):
        # every entry y0: A has rank 1, so det A is the zero polynomial
        monkeypatch.setattr(
            scenarios, "random_poly",
            lambda ring, degree, rng, homogeneous=True: ring.var(0))
        with pytest.raises(RuntimeError,
                           match="degenerate symmetric matrix from seed 5"):
            gen_reye(Seed(5))

    def test_expansion_multiplies_no_polynomials(self, monkeypatch):
        # the minors are expanded on packed monomials, not Polynomial terms
        calls = []
        plain = Polynomial.__mul__

        def counting(self, other):
            calls.append(1)
            return plain(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        d = gen_reye(Seed(0))
        assert calls == []
        assert d.detA.degree() == 4

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


def _checked_ideals(monkeypatch, check, *args):
    """Run a secant check, returning the ideals it hands to hilbert_data."""
    seen = []

    def recording(ideal):
        seen.append(ideal)
        return hilbert_data(ideal)

    monkeypatch.setattr(scenarios, "hilbert_data", recording)
    check(*args)
    monkeypatch.undo()
    return seen


class TestNoSaturation:
    """The secant checks read cone dimension and degree of unsaturated
    ideals; saturating by the irrelevant ideal must not change either."""

    def test_saturation_agrees(self, monkeypatch):
        runs = []
        for seed in range(1, 6):
            d = gen_reye(Seed(seed))
            runs.append(_checked_ideals(monkeypatch, reye_trisecant, d,
                                        Seed(seed)))
        for n, l in ((1, 2), (2, 3)):
            scen = gen_ci_secant(n, l, Seed(0))
            runs.append(_checked_ideals(monkeypatch, secant_through_point,
                                        scen))
        for ideals in runs:
            assert ideals
            for ideal in ideals:
                ring = ideal.ring
                irrelevant = Ideal(ring, [ring.var(i)
                                          for i in range(ring.nvars)])
                a = hilbert_data(ideal)
                b = hilbert_data(ideal.saturate(irrelevant)[0])
                assert (a.krull_dim, a.degree) == (b.krull_dim, b.degree)


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
