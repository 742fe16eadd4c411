"""Bound calculators, the licci ladder, and the dichotomy checks."""

from fractions import Fraction
from math import comb

import pytest

from qfiber.algebra import FieldSpec, PolyRing
from qfiber.excess import QReport, make_scenario, minimal_generators, q_module
from qfiber.groebner import Ideal
from qfiber.invariants import (
    BoundReport,
    LicciVerdict,
    LICCI,
    UNKNOWN,
    cnr_constant,
    corank_fiber_lower_bound,
    licci_check,
    main1_report,
    mather_bound,
    plane_sweep_bound,
    plane_sweep_report,
    qlength_verify,
    secant_sweep_bound,
)
from qfiber.parser import parse_ideal
from qfiber.scenarios import Seed, gen_fatpoint_model
from qfiber.zerodim import ArtinianAlgebra
from prop22_counting import prop22_experiment

P = 32003


def ring(names="x,y", p=P):
    return PolyRing(FieldSpec(p), tuple(names.split(",")))


def idl(R, text):
    return Ideal(R, parse_ideal(text, R))


def scenario(R, xtext, ytext, dim_x, codim_y, **kw):
    return make_scenario(R, idl(R, xtext), idl(R, ytext), dim_x, codim_y, **kw)


def graph2():
    R = ring("x1,x2,x3,a,b")
    chart = ring("a,b")
    return scenario(R, "x1 - a^2, x2 - a*b, x3 - b^2", "x1, x2, x3", 2, 3,
                    chart_ideal=idl(chart, "a^2, a*b, b^2"))


def fatpoint():
    names = "x,y,z," + ",".join(f"u{i}" for i in range(1, 7))
    R = ring(names)
    quads = ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"]
    ytext = ", ".join(f"{q} - u{i}" for i, q in enumerate(quads, start=1))
    xtext = ", ".join(f"u{i}" for i in range(1, 7))
    chart = ring("x,y,z")
    return scenario(R, xtext, ytext, 3, 6,
                    chart_ideal=idl(chart, ", ".join(quads)))


def fake_report(q, mu=1, degz=1, c=1):
    return QReport(degz, c, 0, 0, 0, 0, q, mu, (), ())


class TestMather:
    def test_triple_point_boundary(self):
        rep = mather_bound(2, 1, [0, 0, 0])
        assert rep.observed_value == 3 and rep.bound_value == 3
        assert rep.satisfied

    def test_curve_corank_violation(self):
        rep = mather_bound(1, 1, [1])
        assert rep.observed_value == 3 and rep.bound_value == 2
        assert not rep.satisfied
        assert rep.to_json_dict()["observed_value"] == "3/1"

    def test_corank_two_violation(self):
        rep = mather_bound(4, 1, [2])
        assert rep.observed_value == 7 and rep.bound_value == 5
        assert not rep.satisfied

    def test_exact_rational_boundary(self):
        rep = mather_bound(3, 2, [1])
        assert rep.observed_value == Fraction(5, 2)
        assert rep.bound_value == Fraction(5, 2)
        assert rep.satisfied

    def test_empty_fiber_rejected(self):
        with pytest.raises(ValueError):
            mather_bound(2, 1, [])


class TestCorankBound:
    def test_spec_values(self):
        assert corank_fiber_lower_bound(0) == 1
        assert corank_fiber_lower_bound(2) == 3
        assert corank_fiber_lower_bound(4) == 10
        assert corank_fiber_lower_bound(7) == 70

    def test_closed_form(self):
        for d in range(12):
            assert corank_fiber_lower_bound(d) == comb(d + 1, -(-d // 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            corank_fiber_lower_bound(-1)


class TestSecantSweep:
    def test_space_curve(self):
        rep = secant_sweep_bound(1, 2)
        assert rep.bound_value == 3
        assert rep.context["floor"] == 3

    def test_reye_congruence_dimension(self):
        assert secant_sweep_bound(2, 3).bound_value == 4

    def test_many_secancy_floor(self):
        for n in range(1, 51):
            assert secant_sweep_bound(n, n + 2).context["floor"] == n + 1

    def test_low_secancy_rejected(self):
        with pytest.raises(ValueError):
            secant_sweep_bound(3, 1)


class TestPlaneSweep:
    def test_trisecants_of_a_curve(self):
        assert plane_sweep_bound(1, 3, 3, 2) == Fraction(5)

    def test_no_secancy_term(self):
        assert plane_sweep_bound(1, 3, 0, 2) == \
            Fraction(comb(3, 2) * 1, comb(2, 2)) + 2

    def test_surface_in_p5(self):
        assert plane_sweep_bound(2, 5, 6, 3) == Fraction(6)

    def test_report_clamps_to_ambient(self):
        rep = plane_sweep_report(1, 3, 0, 2)
        assert rep.bound_value == 5
        assert rep.observed_value == 3
        assert "note" in rep.context

    def test_line_case_rejected(self):
        with pytest.raises(ValueError):
            plane_sweep_bound(1, 4, 2, 1)


class TestCnr:
    def test_curves_have_no_correction(self):
        assert cnr_constant(1, 5) == 0

    def test_surface_in_p5(self):
        assert cnr_constant(2, 5) == 4

    def test_threefold_in_p6(self):
        assert cnr_constant(3, 6) == 14

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            cnr_constant(3, 3)


class TestLicciLadder:
    def test_complete_intersection(self):
        R = ring()
        v = licci_check(idl(R, "x^2, y^3"))
        assert v.is_licci and v.rule == "CI"

    def test_low_codimension(self):
        R = ring()
        v = licci_check(idl(R, "x^2, x*y, y^2"))
        assert v.is_licci and v.rule == "codim<=2"

    def test_four_generators(self):
        R = ring("x,y,z")
        v = licci_check(idl(R, "x^2, y^2, z^2, x*y"))
        assert v.is_licci and v.rule == "mu<=4"

    def test_small_tangent_space(self):
        R = ring("x,y,z")
        v = licci_check(idl(R, "z, x^4, x^3*y, x^2*y^2, x*y^3, y^4"))
        assert v.is_licci and v.rule == "tangent<=2"

    def test_almost_complete_intersection(self):
        R = ring("x,y,z,w")
        v = licci_check(idl(R, "w, x^2, y^2, z^2, x*y"))
        assert v.is_licci and v.rule == "almost-CI-tangent<=3"

    def test_fat_point_stays_unknown(self):
        R = ring("x,y,z")
        v = licci_check(idl(R, "x^2, y^2, z^2, x*y, x*z, y*z"))
        assert v.status == UNKNOWN and v.rule is None
        assert v.to_json_dict() == {"status": "Unknown", "rule": None}

    def test_nonlocal_rejected(self):
        R = ring("x")
        with pytest.raises(ValueError):
            licci_check(idl(R, "x^2 - 1"))

    def test_reads_no_deformation_space(self, monkeypatch):
        # the ladder reads the Zariski tangent dimension only, so it must
        # not build the relation space of I^2 behind hilbert_tangent_dim
        cases = [(gen_fatpoint_model(Seed(0)).chart_ideal, (UNKNOWN, None)),
                 (idl(ring(), "x^2, y^3"), (LICCI, "CI"))]

        def refuse(ideal):
            raise AssertionError("hilbert_tangent_dim was called")

        monkeypatch.setattr("qfiber.excess.hilbert_tangent_dim", refuse)
        for ideal, want in cases:
            v = licci_check(ideal)
            assert (v.status, v.rule) == want

    def test_one_algebra_per_call(self, monkeypatch):
        # one algebra of the ideal, read by the locality check and by
        # minimal_generators; (maximal ideal) * ideal gets none, since mu
        # comes from the syzygies of the basis and the Koszul count
        built = []
        plain = ArtinianAlgebra.from_ideal.__func__

        def counting(cls, ideal):
            built.append(ideal)
            return plain(cls, ideal)

        monkeypatch.setattr(ArtinianAlgebra, "from_ideal",
                            classmethod(counting))
        for text in ("x^2, y^3", "x^2, x*y, y^2"):
            built.clear()
            licci_check(idl(ring(), text))
            assert len(built) == 1

    @pytest.mark.parametrize("names,text", [
        ("x,y", "x^2, y^3"),
        ("x,y,z", "x^2, y^2, z^2, x*y, x*z, y*z"),
        ("x,y,z,w", "w, x^2, y^2, z^2, x*y"),
        ("x,y,z", "x^2 - 3*y*z, y^2 - 5*x*z, z^2 - 7*x*y, x*y*z"),
        ("x,y,z", "x^2 - 2*y^2, y^2 - 3*z^2, x*y - 5*z^2, x*z, y*z, z^3"),
        ("x,y,z,w", "x^2 - 2*y*z, y^2 - 3*z*w, z^2 - 5*w*x, w^2 - 7*x*y, "
                    "x*z - 11*y*w, x*w, y*z"),
    ])
    def test_largest_prime_agrees(self, names, text):
        # the replay behind mu sums products of residues near 2^31 there
        def ladder(p):
            I = idl(ring(names, p), text)
            alg = ArtinianAlgebra.from_ideal(I)
            return licci_check(I), len(minimal_generators(alg))

        assert ladder(2147483629) == ladder(P)


class TestQLength:
    def test_licci_scenario_forces_equality(self):
        s = graph2()
        rep = q_module(s)
        verdict = licci_check(s.chart_ideal)
        assert verdict.is_licci and verdict.rule == "codim<=2"
        check = qlength_verify(rep, verdict)
        assert check.equality_required and check.equality_holds
        assert check.mu_bound_holds
        assert not check.floor_bound_required
        assert check.passed

    def test_certified_non_licci_floor(self):
        s = fatpoint()
        rep = q_module(s)
        verdict = licci_check(s.chart_ideal)
        assert verdict.status == UNKNOWN
        check = qlength_verify(rep, verdict, non_licci_certified=True)
        assert check.floor_bound == 2
        assert check.floor_bound_required and check.floor_bound_holds
        assert not check.equality_required
        assert not check.equality_holds
        assert check.passed
        assert check.to_json_dict()["floor_bound"] == "2/1"

    def test_component_decomposition(self):
        # a reduced point at a = 1 and the cluster a^2 + 1 = 0, irreducible
        # over F_32003: residue degrees 1 and 2, read off the factors
        R = ring("x1,x2,a")
        s = scenario(R, "x1 - (a - 1)*(a^2 + 1), x2", "x1, x2", 1, 2)
        rep = q_module(s)
        assert [(f.length, f.residue_degree) for f in rep.factors] == [
            (1, 1), (2, 2)]
        ci, unknown = LicciVerdict(LICCI, "CI"), LicciVerdict(UNKNOWN, None)
        for verdicts, bound in (((ci, ci), 3), ((ci, unknown), 1 + 5 * 2),
                                ((unknown, unknown), 5 + 5 * 2)):
            check = qlength_verify(rep, ci, component_verdicts=verdicts)
            assert check.floor_bound == 5
            assert check.decomposition_bound == bound
            assert check.decomposition_holds == (rep.q >= bound)

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            qlength_verify(fake_report(Fraction(1), degz=1),
                           LicciVerdict(LICCI, "CI"),
                           component_verdicts=(LicciVerdict(LICCI, "CI"),))


class TestConjectureReports:
    def test_main1_at_the_bound(self):
        rep = main1_report(fake_report(Fraction(5)), 4)
        assert rep.satisfied and rep.bound_value == 5
        assert "note" not in rep.context

    def test_main1_violation_is_labeled(self):
        rep = main1_report(fake_report(Fraction(6)), 3)
        assert not rep.satisfied
        assert rep.context["note"] == "not a generic-projection fiber"


class TestProp22:
    def test_corank_two(self):
        res = prop22_experiment(2, 0)
        assert res.ci_hilbert == (1, 3, 3, 1)
        assert res.dropped_length == 3
        assert res.passed

    def test_corank_four(self):
        res = prop22_experiment(4, 1)
        assert res.ci_hilbert == (1, 5, 10, 10, 5, 1)
        assert res.dropped_length == 10 == res.expected_length
        assert res.passed

    def test_corank_five(self):
        res = prop22_experiment(5, 2)
        assert res.dropped_length == 20
        assert res.passed

    def test_deterministic(self):
        assert prop22_experiment(3, 7) == prop22_experiment(3, 7)

    def test_desk_scale(self):
        with pytest.raises(ValueError):
            prop22_experiment(7, 0)
        with pytest.raises(ValueError):
            prop22_experiment(0, 0)
