"""Command line front end: golden JSON fields, exit codes, error paths."""

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from qfiber import cli, excess, zerodim
from qfiber import groebner as gb_module
from qfiber.algebra import FieldSpec, PolyRing
from qfiber.cli import main
from qfiber.excess import make_scenario, minimal_presentation, q_module
from qfiber.invariants import licci_check
from qfiber.groebner import Ideal, ResourceAbort, groebner, pair_budget
from qfiber.parser import parse_ideal, parse_session
from qfiber.scenarios import (Seed, gen_fatpoint_model, gen_quadric_graph,
                              scenario_text)
from qfiber.zerodim import local_decompose

QG2 = """\
ring R = Fp(32003)[x1, x2, x3, a1, a2], grevlex;
ideal X = x1 - a1^2, x2 - a1*a2, x3 - a2^2;
ideal Y = x1, x2, x3;
"""

TWO_POINTS = """\
ring R = Fp(32003)[x, y], grevlex;
ideal X = y, x^2 - 1;
ideal Y = y;
"""

# the same two points over F_3, where a random linear form would miss
# their difference with probability 1/3
TWO_POINTS_F3 = """\
ring R = Fp(3)[x, y];
ideal X = y, x^2 - 1;
ideal Y = y;
"""

# fat points at the origin of length at least the field size, in the
# line and in 3-space: {p} is filled in with the characteristic
ORIGIN_LINE = """\
ring R = Fp({p})[x, y];
ideal X = y;
ideal Y = x^3, y;
"""

ORIGIN_SPACE = """\
ring R = Fp({p})[x, y, z];
ideal X = z;
ideal Y = x^2, y^2, z;
"""

# two points, of lengths 2 and 1
PLANE_HOLDS_POINTS = """\
ring R = Fp(32003)[x, y, z], grevlex;
ideal X = z;
ideal Y = x^2 - x, y^2, x*y, z;
"""

# two points, neither at the origin
LINE_MEETS_AXES = """\
ring R = Fp(32003)[x, y, z], grevlex;
ideal X = z, x + y - 1;
ideal Y = x*y, y*z, x*z;
"""

# Y = (x - 1, y, z)^2 * (x, y, z) + (w): a reduced point at the origin and
# a fat point of length 4 at (1, 0, 0, 0)
FAT_OFF_ORIGIN = """\
ring R = Fp(32003)[x, y, z, w], grevlex;
ideal X = w;
ideal Y = (x-1)^2*x, (x-1)^2*y, (x-1)^2*z, (x-1)*y*x, (x-1)*y^2, (x-1)*y*z,
          (x-1)*z*x, (x-1)*z*y, (x-1)*z^2, y^2*x, y^3, y^2*z, y*z*x, y*z^2,
          z^2*x, z^3, w;
"""

# x^3 + x = x (x^2 + 1), and -1 is not a square mod 32003: a rational
# point at the origin and a cluster of length 2
CLUSTER = """\
ring R = Fp(32003)[x, y], grevlex;
ideal X = y;
ideal Y = y, x^3 + x;
"""

TRANSVERSAL = """\
ring R = Fp(32003)[x, y], grevlex;
ideal X = x;
ideal Y = y;
"""


# (attempts, sampled point) of scenario reye by seed, at p = 32003
REYE_REPORTS = {
    0: (2, [29915, 14993, 27299, 25144, 24750, 31833]),
    1: (1, [29585, 325, 14726, 11933, 864, 14405]),
    2: (3, [10304, 19040, 3707, 19204, 28640, 18718]),
    3: (1, [5359, 21881, 7692, 16396, 28414, 9685]),
    4: (3, [17866, 1717, 8561, 13381, 24660, 6355]),
    5: (1, [27990, 14460, 18968, 9166, 9266, 31539]),
    6: (3, [50, 3144, 2093, 21284, 7376, 19172]),
    7: (1, [17410, 20586, 16882, 1542, 23992, 21409]),
    8: (1, [23420, 12367, 13151, 5285, 15008, 27932]),
    9: (1, [31854, 22988, 2933, 10401, 19456, 23099]),
    10: (4, [31018, 26603, 21600, 31445, 23053, 8194]),
    101: (1, [19179, 28969, 5834, 14049, 14627, 28168]),
    977: (1, [9785, 26316, 2087, 23665, 25921, 2908]),
}

# (attempts, sampled point, direction) of scenario secant-demo by
# (seed, p, n, l)
SECANT_REPORTS = {
    (0, 32003, 1, 2): (2, [28197, 2033, 4107, 2253], [26144, 1, 7675]),
    (0, 32003, 2, 3): (2, [28197, 2033, 4107, 2253, 28434],
                       [24100, 1, 4654, 23536]),
    (0, 7, 1, 2): (1, [5, 1, 0, 3], [3, 1, 5]),
    (0, 7, 2, 3): (1, [5, 1, 0, 3, 5], [6, 0, 1, 0]),
    (0, 3, 1, 2): (1, [1, 1, 2, 0], [1, 1, 0]),
    (0, 3, 2, 3): (5, [2, 1, 1, 1, 1], [0, 1, 2, 2]),
    (1, 32003, 1, 2): (1, [29933, 4127, 14234, 3646], [1833, 1, 20544]),
    (1, 32003, 2, 3): (2, [21062, 22406, 29375, 19536, 9580],
                       [14723, 1, 6691, 17182]),
    (1, 7, 1, 2): (2, [3, 5, 2, 1], [1, 0, 1]),
    (1, 7, 2, 3): (1, [1, 3, 4, 5, 1], [1, 1, 1, 2]),
    (1, 3, 1, 2): (1, [2, 0, 1, 2], [0, 1, 0]),
    (1, 3, 2, 3): (1, [2, 0, 1, 2, 0], [1, 0, 0, 0]),
    (2, 32003, 1, 2): (2, [21981, 20648, 9330, 26663], [2680, 1, 8198]),
    (2, 32003, 2, 3): (1, [13209, 8601, 26435, 6588, 19029],
                       [14693, 1, 3131, 10603]),
    (2, 7, 1, 2): (1, [2, 5, 2, 0], [1, 0, 0]),
    (2, 7, 2, 3): (1, [2, 5, 2, 0, 3], [0, 1, 1, 1]),
    (2, 3, 1, 2): (1, [1, 1, 1, 2], [2, 1, 0]),
    (2, 3, 2, 3): (1, [1, 1, 1, 2, 2], [1, 2, 1, 1]),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestTable:
    def test_rows_match_published_values(self, capsys):
        code, doc, _ = run_json(capsys, "table", "--n-min", "2",
                                "--n-max", "3")
        assert code == 0
        assert doc["all_pass"] is True
        rows = doc["rows"]
        assert [(r["n"], r["deg_Z"], r["q"], r["mu"]) for r in rows] == \
            [(2, 3, "3/1", 3), (3, 6, "6/1", 3)]
        assert all(r["pass"] for r in rows)
        assert all("seconds" in r and "seed" in r for r in rows)

    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--n-min", "2", "--n-max", "2",
                           "--output", "text")
        assert code == 0
        assert "deg Z" in out
        assert "ok" in out

    def test_rows_beyond_8_and_extended_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--n-min", "2", "--n-max", "9")
        assert code == 1
        assert "n-max <= 8" in err
        code, _, err = run(capsys, "table", "--n-max", "6", "--extended")
        assert code == 1
        assert "unrecognized arguments: --extended" in err

    def test_range_check(self, capsys):
        code, _, err = run(capsys, "table", "--n-min", "1", "--n-max", "3")
        assert code == 1

    def test_abort_marks_rows_and_exits_3(self, capsys):
        R = PolyRing(FieldSpec(32003), ("x", "y", "z"))
        gens = parse_ideal("x^2 + y^2 + z^2 - 1, x*y*z - 1, x + y - z^2", R)
        with pytest.raises(ResourceAbort), pair_budget(5):
            groebner(R, gens)  # this basis needs more than 5 S-pairs
        code, doc, _ = run_json(capsys, "table", "--n-min", "4",
                                "--n-max", "4", "--max-pairs", "5")
        assert code == 3
        assert doc["rows"][0]["aborted"] is True
        # the budget ends with main: the same basis succeeds afterwards
        assert len(groebner(R, gens)) > 0

    @pytest.mark.parametrize("jobs, pools", [("4", [2]), ("1", [])],
                             ids=["jobs4-rows2", "jobs1"])
    def test_workers_capped_by_rows(self, capsys, monkeypatch, jobs, pools):
        started = []

        class SerialPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        code, doc, _ = run_json(capsys, "table", "--n-min", "2",
                                "--n-max", "3", "--jobs", jobs)
        assert code == 0
        assert [r["n"] for r in doc["rows"]] == [2, 3]
        assert started == pools

    def test_row_whose_report_raises(self, capsys, monkeypatch):
        # a failed assertion in a row's report is its "error" row and
        # exit 2; an abort is an "aborted" row and exit 3
        def failing(scen):
            raise RuntimeError("restriction map failed to be onto")

        monkeypatch.setattr(cli, "q_module", failing)
        code, doc, _ = run_json(capsys, "table", "--n-min", "2",
                                "--n-max", "2")
        assert code == 2
        (row,) = doc["rows"]
        assert row.pop("seconds") >= 0
        assert row == {"n": 2, "seed": 0, "pass": False,
                       "error": "restriction map failed to be onto"}
        assert doc["all_pass"] is False
        raised = iter([RuntimeError("restriction map failed to be onto"),
                       ResourceAbort(6, 4, 5)])

        def raising(scen):
            raise next(raised)

        monkeypatch.setattr(cli, "q_module", raising)
        code, out, _ = run(capsys, "table", "--n-min", "2", "--n-max", "3",
                           "--output", "text")
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == "p = 32003, seed = 0"
        rows = [line.split() for line in lines[2:]]
        assert [r[:5] + r[6:] for r in rows] == [
            ["2", "-", "-", "-", "-", "error"],
            ["3", "-", "-", "-", "-", "aborted"]]
        assert all(r[5].endswith("s") for r in rows)

    def test_parallel_rows(self, capsys):
        code, doc, _ = run_json(capsys, "table", "--n-min", "2",
                                "--n-max", "3", "--jobs", "2")
        assert code == 0
        assert doc["all_pass"] is True


class TestCompute:
    def test_quadric_graph_session(self, capsys, tmp_path):
        f = tmp_path / "qg2.txt"
        f.write_text(QG2)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert doc["q"] == "3/1"
        assert doc["mu_Q"] == 3
        assert doc["deg_Z"] == 3
        assert (doc["dim_X"], doc["codim_Y"]) == (2, 3)
        assert doc["licci"][0]["verdict"] == "Licci"
        assert doc["checks"]["qlength"]["status"] == "pass"
        assert doc["checks"]["main1"]["status"] == "report-only"

    def test_two_points_component_isolation(self, capsys, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert doc["deg_Z"] == 2
        assert doc["q"] == "2/1"
        assert doc["components"] == [
            {"length": 1, "dim_Q": 1, "mu": 1},
            {"length": 1, "dim_Q": 1, "mu": 1},
        ]
        points = sorted(tuple(e["point"]) for e in doc["licci"])
        assert points == [(1, 0), (32002, 0)]
        assert all(e["verdict"] == "Licci" and e["rule"] == "CI"
                   for e in doc["licci"])
        qc = doc["checks"]["qlength"]
        assert qc["decomposition_bound"] == "2/1"
        assert qc["decomposition_holds"] is True

    def test_text_output_of_a_nested_report(self, capsys, tmp_path):
        # dicts indent under their key, lists of dicts number their items,
        # lists of scalars dash theirs; the input line names the file
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS)
        code, out, _ = run(capsys, "compute", "--input", str(f), "--output",
                           "text")
        assert code == 0
        lines = out.splitlines()
        lines.remove(f"input: {f}")
        assert lines == [
            "c: 1",
            "checks:",
            "  main1:",
            "    bound_value: 1/1",
            "    context:",
            "      c: 1",
            "      label: generic-projection",
            "      n: 0",
            "      note: not a generic-projection fiber",
            "    observed_value: 2/1",
            "    satisfied: False",
            "    status: report-only",
            "  qlength:",
            "    decomposition_bound: 2/1",
            "    decomposition_holds: True",
            "    deg_Z: 2",
            "    equality_holds: True",
            "    equality_required: True",
            "    floor_bound: 5/1",
            "    floor_bound_holds: False",
            "    floor_bound_required: False",
            "    mu_bound_holds: True",
            "    mu_over_c: 2/1",
            "    note: hypotheses attested by the input, not verified",
            "    passed: True",
            "    q: 2/1",
            "    status: pass",
            "    verdict:",
            "      rule: every-component",
            "      status: Licci",
            "codim_Y: 1",
            "command: compute",
            "components:",
            "  [0]",
            "    dim_Q: 1",
            "    length: 1",
            "    mu: 1",
            "  [1]",
            "    dim_Q: 1",
            "    length: 1",
            "    mu: 1",
            "deg_Z: 2",
            "dim_M_big: 2",
            "dim_M_small: 0",
            "dim_Q: 2",
            "dim_X: 0",
            "hilb_tangent_dim: 0",
            "licci:",
            "  [0]",
            "    length: 1",
            "    note: ",
            "    point:",
            "      - 32002",
            "      - 0",
            "    rule: CI",
            "    verdict: Licci",
            "  [1]",
            "    length: 1",
            "    note: ",
            "    point:",
            "      - 1",
            "      - 0",
            "    rule: CI",
            "    verdict: Licci",
            "mu_Q: 2",
            "p: 32003",
            "q: 2/1",
            "seed: 0",
        ]

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_verdict_unavailable(self, capsys, tmp_path, monkeypatch, error):
        # a ladder that fails on a component leaves it Unknown, with the
        # reason in its note, and the report goes on
        def failing(ideal):
            raise error("no minimal chart")

        monkeypatch.setattr(cli, "licci_check", failing)
        f = tmp_path / "qg2.txt"
        f.write_text(QG2)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        (comp,) = doc["licci"]
        assert (comp["verdict"], comp["rule"], comp["note"]) == (
            "Unknown", None, "verdict unavailable: no minimal chart")
        assert doc["checks"]["qlength"]["verdict"] == {"status": "Unknown",
                                                       "rule": None}
        assert (code, doc["q"], doc["mu_Q"]) == (0, "3/1", 3)

    def test_all_licci_fiber_requires_equality(self, capsys, tmp_path,
                                               monkeypatch):
        # q is the sum of the local q's and a licci factor's q is its
        # length, so two reduced points must give q = deg Z = 2
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        qc = doc["checks"]["qlength"]
        assert qc["verdict"] == {"status": "Licci", "rule": "every-component"}
        assert qc["equality_required"] is True
        assert qc["equality_holds"] is True
        assert qc["status"] == "pass"
        # a report whose q missed deg Z would now fail the session
        real = cli.q_module
        monkeypatch.setattr(cli, "q_module", lambda scen: dataclasses.replace(
            real(scen), q=Fraction(3)))
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 2
        assert doc["checks"]["qlength"]["equality_holds"] is False

    def test_two_points_over_f3_stay_apart(self, capsys, tmp_path):
        # a random linear form would miss the points' difference at this
        # seed; ker(F - 1) splits them at every seed
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS_F3)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f),
                                "--seed", "3")
        assert code == 0
        assert doc["components"] == [{"length": 1, "dim_Q": 1, "mu": 1}] * 2
        points = sorted(tuple(e["point"]) for e in doc["licci"])
        assert points == [(1, 0), (2, 0)]
        assert doc["checks"]["qlength"]["decomposition_bound"] == "2/1"

    @pytest.mark.parametrize("text,seeds", [
        (TWO_POINTS, 4), (TWO_POINTS_F3, 400), (LINE_MEETS_AXES, 4)],
        ids=["two-points", "two-points-f3", "line-axes"])
    def test_report_does_not_depend_on_the_seed(self, capsys, tmp_path,
                                                 text, seeds):
        # the split draws nothing, so the seed only echoes into the report
        f = tmp_path / "in.txt"
        f.write_text(text)
        docs = []
        for seed in range(seeds):
            code, doc, _ = run_json(capsys, "compute", "--input", str(f),
                                    "--seed", str(seed))
            assert code == 0 and doc.pop("seed") == seed
            docs.append(doc)
        assert all(doc == docs[0] for doc in docs[1:])

    @pytest.mark.parametrize("text,want", [
        (ORIGIN_LINE, (3, 3, "3/1", 1, 3, [0, 0])),
        (ORIGIN_SPACE, (4, 4, "4/1", 1, 8, [0, 0, 0]))],
        ids=["line", "space"])
    def test_origin_at_any_field_size(self, capsys, tmp_path, text, want):
        # an algebra at the origin is its one local factor, so deg Z >= p
        # is reported over F_3 as over F_32003
        f = tmp_path / "in.txt"
        for p in (3, 32003):
            f.write_text(text.format(p=p))
            code, doc, _ = run_json(capsys, "compute", "--input", str(f))
            assert code == 0
            assert tuple(doc[k] for k in ("deg_Z", "dim_Q", "q", "mu_Q",
                                          "hilb_tangent_dim")) == want[:5]
            assert [e["point"] for e in doc["licci"]] == [want[5]]

    def test_off_origin_at_any_field_size(self, capsys, tmp_path):
        # all three points of a line over F_3, deg Z = p: ker(F - 1) splits
        # them with no squarefree part taken
        f = tmp_path / "in.txt"
        f.write_text("ring R = Fp(3)[x, y];\n"
                     "ideal X = y, x^3 - x;\nideal Y = y;\n")
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert doc["deg_Z"] == 3
        assert doc["components"] == [{"length": 1, "dim_Q": 1, "mu": 1}] * 3
        assert sorted(e["point"] for e in doc["licci"]) == [
            [0, 0], [1, 0], [2, 0]]
        assert all((e["verdict"], e["rule"]) == ("Licci", "CI")
                   for e in doc["licci"])

    def test_transversal_reports_null_q(self, capsys, tmp_path):
        f = tmp_path / "tr.txt"
        f.write_text(TRANSVERSAL)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert doc["q"] is None
        assert doc["dim_Q"] == 0
        assert doc["checks"]["qlength"]["status"] == "skipped"
        assert "note" in doc

    @pytest.mark.parametrize("text,gens,codim", [
        (LINE_MEETS_AXES, 3, 2), (PLANE_HOLDS_POINTS, 4, 3)],
        ids=["line-axes", "plane-points"])
    def test_non_ci_y_skips_qlength(self, capsys, tmp_path, text, gens,
                                    codim):
        # q is defined, but the length bounds assume a complete
        # intersection Y, which more generators than codim Y rule out
        f = tmp_path / "in.txt"
        f.write_text(text)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert doc["q"] is not None and doc["codim_Y"] == codim
        assert doc["checks"]["qlength"] == {
            "status": "skipped",
            "reason": "Y is not certified a complete intersection: "
                      f"{gens} generators in codimension {codim}"}
        assert doc["checks"]["main1"]["status"] == "report-only"

    def test_y_is_the_whole_space(self, capsys, tmp_path):
        # Y has no generators: both conormal modules have g = 0 generators,
        # so every relation space is empty and has width 0
        f = tmp_path / "y0.txt"
        f.write_text("ring R = Fp(32003)[x, y], grevlex;\n"
                     "ideal X = x, y;\nideal Y = 0;\n")
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert doc["codim_Y"] == 0 and doc["deg_Z"] == 1
        assert doc["dim_Q"] == 0 and doc["q"] is None

    def test_not_finite(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        f.write_text("ring R = Fp(32003)[x, y, z], grevlex;\n"
                     "ideal X = x;\nideal Y = y;\n")
        code, _, err = run(capsys, "compute", "--input", str(f))
        assert code == 1
        assert "intersection not finite" in err

    def test_empty_intersection(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("ring R = Fp(32003)[x, y], grevlex;\n"
                     "ideal X = x;\nideal Y = x - 1, y;\n")
        code, _, err = run(capsys, "compute", "--input", str(f))
        assert code == 1
        assert "empty" in err

    def test_missing_ideal(self, capsys, tmp_path):
        f = tmp_path / "noy.txt"
        f.write_text("ring R = Fp(32003)[x, y], grevlex;\nideal X = x;\n")
        code, _, err = run(capsys, "compute", "--input", str(f))
        assert code == 1
        assert "X and Y" in err

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("ring R = Fp(32003)[x, y], grevlex;\nideal X = x +;\n")
        code, _, err = run(capsys, "compute", "--input", str(f))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("ring, where", [
        ("ring R = Fp(101)[x, y, z], block(0);", "line 1, col 34"),
        ("ring R = Fp(101)[x, y, z], block(3);", "line 1, col 34"),
        ("ring R = Fp(101)[x, y, x];", "line 1, col 24"),
    ], ids=["block0", "block-nvars", "duplicate"])
    def test_ring_statement_error_exits_1(self, capsys, tmp_path, ring,
                                         where):
        f = tmp_path / "bad.txt"
        f.write_text(ring + "\nideal X = x;\nideal Y = y;\n")
        code, _, err = run(capsys, "compute", "--input", str(f))
        assert code == 1
        assert err.startswith(f"error: {where}: ")

    def test_largest_prime(self, capsys, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS.replace("32003", "2147483647"))
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert (doc["deg_Z"], doc["q"]) == (2, "2/1")
        assert doc["checks"]["qlength"]["status"] == "pass"
        points = sorted(tuple(e["point"]) for e in doc["licci"])
        assert points == [(1, 0), (2147483646, 0)]

    def test_prime_above_bound_exits_1(self, capsys, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS.replace("32003", "2147483659"))
        for argv in (["compute", "--input", str(f)],
                     ["scenario", "fatpoint", "--p", "2147483659"],
                     ["table", "--n-min", "2", "--n-max", "2",
                      "--p", "2147483659"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and "2^31" in err and not out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "--input", "/no/such/file")
        assert code == 1

    def test_field_option_exits_1(self, capsys, tmp_path):
        # the input file fixes the ring, field included
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS)
        code, out, err = run(capsys, "compute", "--input", str(f),
                             "--p", "7")
        assert code == 1 and not out
        assert "--p" in err

    @pytest.mark.parametrize("text", [QG2, TWO_POINTS, PLANE_HOLDS_POINTS],
                             ids=["graph", "two-points", "plane-points"])
    def test_one_decomposition_per_session(self, capsys, tmp_path,
                                           monkeypatch, text):
        # local_decompose is memoised on the algebra, so count the splits
        calls = []
        plain = zerodim._split

        def counting(alg):
            calls.append(alg.dim)
            return plain(alg)

        monkeypatch.setattr(zerodim, "_split", counting)
        f = tmp_path / "in.txt"
        f.write_text(text)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert calls == [doc["deg_Z"]]
        # the component lines and the licci lines come from one list
        assert [c["length"] for c in doc["components"]] == \
            [e["length"] for e in doc["licci"]]

    @pytest.mark.parametrize("text", [TWO_POINTS, LINE_MEETS_AXES],
                             ids=["two-points", "line-axes"])
    def test_one_intersection_basis_per_session(self, capsys, tmp_path,
                                                monkeypatch, text):
        # sessions whose points lie off the origin, so that the ladder
        # works on shifted generators, not on those of I_X + I_Y
        ring, ideals, _ = parse_session(text)
        zgens = Ideal(ring, ideals["X"]).gens + Ideal(ring, ideals["Y"]).gens
        runs = []

        def counting(ring, gens):
            runs.append(tuple(gens))
            return groebner(ring, gens)

        monkeypatch.setattr(gb_module, "groebner", counting)
        f = tmp_path / "in.txt"
        f.write_text(text)
        code, _, _ = run(capsys, "compute", "--input", str(f))
        assert code == 0
        assert runs.count(zgens) == 1

    def test_work_per_session(self, capsys, tmp_path, monkeypatch):
        # one compute on QG2: no basis run twice on the same generators,
        # and one algebra per basis, the single origin factor reusing Z's;
        # K_small and the tangent space read the syzygies off Z's run.  The
        # two runs are Z's and that of its minimal chart J, read off Z's
        # basis with no elimination run; mu(J) replays J's run, so
        # (maximal ideal) * J gets no basis and no algebra
        runs, built = [], []
        plain_run = gb_module._run
        plain_init = zerodim.ArtinianAlgebra.__init__

        def counting_run(ring, gens):
            runs.append(tuple(gens))
            return plain_run(ring, gens)

        def counting_init(self, *args, **kwargs):
            plain_init(self, *args, **kwargs)
            if self.ideal is not None:
                built.append(self.ideal.groebner().polys)

        monkeypatch.setattr(gb_module, "_run", counting_run)
        monkeypatch.setattr(zerodim.ArtinianAlgebra, "__init__",
                            counting_init)
        f = tmp_path / "qg2.txt"
        f.write_text(QG2)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0 and doc["licci"][0]["verdict"] == "Licci"
        assert len(runs) == len(set(runs)) == 2
        assert len(built) == len(set(built)) == 2

    @pytest.mark.parametrize("text", [TWO_POINTS, LINE_MEETS_AXES],
                             ids=["two-points", "line-axes"])
    def test_reduced_point_verdict_matches_the_ladder(self, text):
        # a length-1 rational factor is decided as a complete intersection;
        # the ladder on its isolated, shifted ideal stays the oracle
        ring, ideals, _ = parse_session(text)
        I_X, I_Y = Ideal(ring, ideals["X"]), Ideal(ring, ideals["Y"])
        scen = make_scenario(ring, I_X, I_Y, I_X.krull_dim(),
                             ring.nvars - I_Y.krull_dim())
        Z, p = scen.Z, ring.p
        factors = q_module(scen).factors
        assert len(factors) == 2
        for f in factors:
            assert f.length == 1 and f.point is not None
            ideal = Z.ideal + Ideal(ring, [ring.one() - Z.lift(f.idempotent)])
            ideal = Ideal(ring, [g.shift([int(a) % p for a in f.point])
                                 for g in ideal.gens])
            oracle = licci_check(minimal_presentation(ideal))
            verdict, note = cli._component_verdict(Z, f, isolate=True)
            assert (verdict, note) == (oracle, "")

    def test_reduced_points_take_no_ladder(self, capsys, tmp_path,
                                           monkeypatch):
        # before the shortcut, TWO_POINTS took 11 basis runs, 8 of them
        # isolating, re-presenting and laddering its two reduced points;
        # what is left is the bases of I_X and I_X + I_Y
        runs = []
        plain_run = gb_module._run

        def counting_run(ring, gens):
            runs.append(tuple(gens))
            return plain_run(ring, gens)

        monkeypatch.setattr(gb_module, "_run", counting_run)
        f = tmp_path / "two.txt"
        f.write_text(TWO_POINTS)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert [(e["verdict"], e["rule"]) for e in doc["licci"]] == \
            [("Licci", "CI")] * 2
        assert len(runs) == 2

    def test_fat_component_off_origin(self, capsys, tmp_path):
        f = tmp_path / "fat.txt"
        f.write_text(FAT_OFF_ORIGIN)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert [(e["point"], e["length"], e["verdict"], e["rule"])
                for e in doc["licci"]] == [
            ([0, 0, 0, 0], 1, "Licci", "CI"),
            ([1, 0, 0, 0], 4, "Unknown", None)]

    @pytest.mark.parametrize("text", [FAT_OFF_ORIGIN, TWO_POINTS, CLUSTER],
                             ids=["fat-off-origin", "two-points", "cluster"])
    def test_idempotent_cuts_out_the_component(self, text):
        # I_Z + (1 - e) against I_Z + m^k with k the local length, which is
        # at least the Loewy length
        ring, ideals, _ = parse_session(text)
        I_X, I_Y = Ideal(ring, ideals["X"]), Ideal(ring, ideals["Y"])
        scen = make_scenario(ring, I_X, I_Y, I_X.krull_dim(),
                             ring.nvars - I_Y.krull_dim())
        Z = scen.Z
        rational = 0
        for f in local_decompose(Z):
            if f.point is None:
                continue
            rational += 1
            cut = Z.ideal + Ideal(ring, [ring.one() - Z.lift(f.idempotent)])
            m = Ideal(ring, [ring.var(v) - a
                             for v, a in zip(ring.variables, f.point)])
            oracle = Z.ideal + m.power(f.length)
            assert cut.groebner().polys == oracle.groebner().polys
        assert rational >= 1

    def test_cluster_keeps_its_unknown_line(self, capsys, tmp_path):
        f = tmp_path / "cluster.txt"
        f.write_text(CLUSTER)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0
        assert [(e["point"], e["length"], e["verdict"], e["rule"])
                for e in doc["licci"]] == [
            ([0, 0], 1, "Licci", "CI"), (None, 2, "Unknown", None)]
        assert "cluster" in doc["licci"][1]["note"]
        # the point counts its length, the cluster its residue degree 2
        # times the floor 5
        qd = doc["checks"]["qlength"]
        assert qd["decomposition_bound"] == "11/1"
        # one factor is not certified licci, so equality is not required
        assert qd["verdict"] == {"status": "Unknown", "rule": None}
        assert qd["equality_required"] is False
        assert qd["note"] == "hypotheses attested by the input, not verified"

    @pytest.mark.parametrize("text", [TWO_POINTS, PLANE_HOLDS_POINTS],
                             ids=["two-points", "plane-points"])
    def test_report_keeps_its_factors(self, text):
        ring, ideals, _ = parse_session(text)
        I_X, I_Y = Ideal(ring, ideals["X"]), Ideal(ring, ideals["Y"])
        scen = make_scenario(ring, I_X, I_Y, I_X.krull_dim(),
                             ring.nvars - I_Y.krull_dim())
        rep = q_module(scen)
        assert len(rep.factors) == len(rep.per_component) == 2
        for f, (length, _, _) in zip(rep.factors, rep.per_component):
            assert f.length == length
        # the factors ride along outside the JSON form and equality
        assert "factors" not in rep.to_json_dict()
        assert "factors" not in repr(rep)

    def test_scenario_checks_finiteness(self):
        ring, ideals, _ = parse_session(
            "ring R = Fp(32003)[x, y, z], grevlex;\nideal X = x;\n"
            "ideal Y = y;\n")
        with pytest.raises(ValueError, match="intersection not finite"):
            make_scenario(ring, Ideal(ring, ideals["X"]),
                          Ideal(ring, ideals["Y"]), 2, 1)
        ring, ideals, _ = parse_session(
            "ring R = Fp(32003)[x, y], grevlex;\nideal X = x;\n"
            "ideal Y = x - 1, y;\n")
        with pytest.raises(ValueError, match="intersection is empty"):
            make_scenario(ring, Ideal(ring, ideals["X"]),
                          Ideal(ring, ideals["Y"]), 1, 2)


def benchmark_sessions(seed):
    """The six sessions of the benchmark's compute workload at a seed."""
    s = Seed(seed)
    return {"graph3": scenario_text(gen_quadric_graph(3, s)),
            "graph4": scenario_text(gen_quadric_graph(4, s)),
            "fatpoint": scenario_text(gen_fatpoint_model(s)),
            "two_points": TWO_POINTS, "line_meets_axes": LINE_MEETS_AXES,
            "plane_holds_points": PLANE_HOLDS_POINTS}


class TestBenchmarkSessions:
    def test_basis_runs_of_a_pass(self, capsys, tmp_path, monkeypatch):
        # one pass of the compute workload at seed 1, inputs included (27
        # runs before codim Y, the minimal chart and mu were certified by
        # theorem); a change that starts another basis run fails here
        runs = []
        plain = gb_module._run

        def counting(ring, gens):
            runs.append(tuple(gens))
            return plain(ring, gens)

        monkeypatch.setattr(gb_module, "_run", counting)
        sessions = benchmark_sessions(1)
        per = {"inputs": len(runs)}
        for name, text in sessions.items():
            runs.clear()
            f = tmp_path / f"{name}.txt"
            f.write_text(text)
            code, _, _ = run(capsys, "compute", "--input", str(f),
                             "--seed", "1")
            assert code == 0
            per[name] = len(runs)
        assert per == {"inputs": 4, "graph3": 2, "graph4": 2, "fatpoint": 2,
                       "two_points": 2, "line_meets_axes": 2,
                       "plane_holds_points": 4}
        assert sum(per.values()) == 18

    def test_fat_point_codim_y_takes_no_basis(self, capsys, tmp_path,
                                              monkeypatch):
        # u1..u6 occur only linearly, with a full-rank coefficient matrix
        text = benchmark_sessions(1)["fatpoint"]
        ring, ideals, _ = parse_session(text)
        ygens = Ideal(ring, ideals["Y"]).gens
        runs = []
        plain = gb_module._run

        def counting(ring, gens):
            runs.append(tuple(gens))
            return plain(ring, gens)

        monkeypatch.setattr(gb_module, "_run", counting)
        f = tmp_path / "fat.txt"
        f.write_text(text)
        code, doc, _ = run_json(capsys, "compute", "--input", str(f))
        assert code == 0 and doc["codim_Y"] == 6 and runs
        assert ygens not in runs

    def test_minimal_charts_match_the_elimination(self, capsys, tmp_path,
                                                  monkeypatch):
        # every chart the ladder reads in the workload is read off the
        # reduced basis; the block-order elimination is the oracle
        charts = []
        plain = excess._drop_variables
        eliminate = Ideal.eliminate

        def recording(ideal, doomed):
            charts.append((ideal, doomed, plain(ideal, doomed)))
            return charts[-1][2]

        def refuse(self, names):
            raise AssertionError("the block-order elimination ran")

        monkeypatch.setattr(excess, "_drop_variables", recording)
        monkeypatch.setattr(Ideal, "eliminate", refuse)
        for name, text in benchmark_sessions(1).items():
            f = tmp_path / f"{name}.txt"
            f.write_text(text)
            code, _, _ = run(capsys, "compute", "--input", str(f),
                             "--seed", "1")
            assert code == 0
        monkeypatch.undo()
        # graph n = 3, 4, the fat point and the double point of
        # plane_holds_points, cut out by its idempotent
        assert len(charts) == 4
        for ideal, doomed, J in charts:
            small = PolyRing(ideal.ring.field, J.ring.variables)
            oracle = Ideal(small, [h.to_ring(small)
                                   for h in eliminate(ideal, doomed)])
            assert J.ring == small
            assert J.groebner().polys == oracle.groebner().polys


class TestBounds:
    def test_secant(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "secant",
                                "--n", "2", "--l", "3")
        assert code == 0
        assert doc["bound_value"] == "4/1"
        assert doc["satisfied"] is True

    def test_corank(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "corank", "--d", "4")
        assert code == 0
        assert doc["value"] == 10

    def test_mather_violated_is_informational(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "mather", "--n", "1",
                                "--c", "1", "--coranks", "1")
        assert code == 0
        assert doc["satisfied"] is False

    def test_plane(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "plane", "--n", "1",
                                "--r", "3", "--l", "3", "--t", "2")
        assert code == 0
        assert doc["bound_value"] == "5/1"

    def test_cnr(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "cnr", "--n", "2",
                                "--r", "5")
        assert code == 0
        assert doc["value"] == 4

    @pytest.mark.parametrize("option", [("--max-pairs", "1"),
                                        ("--jobs", "2"), ("--p", "7"),
                                        ("--seed", "3")],
                             ids=lambda o: o[0].strip("-"))
    def test_options_it_would_ignore_exit_1(self, capsys, option):
        # closed forms use no field, no seed and no Groebner basis
        code, out, err = run(capsys, "bounds", "corank", "--d", "4", *option)
        assert code == 1 and not out
        assert option[0] in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "corank", "--d", "4",
                           "--output", "text")
        assert code == 0
        assert "value: 10" in out

    def test_bad_args_exit_1(self, capsys):
        code, _, err = run(capsys, "bounds", "plane", "--n", "1", "--r", "3",
                           "--l", "3", "--t", "1")
        assert code == 1


class TestScenario:
    def test_fatpoint(self, capsys):
        code, doc, _ = run_json(capsys, "scenario", "fatpoint")
        assert code == 0
        assert doc["deg_Z"] == 4
        assert doc["hilb_tangent_dim"] == 18
        assert doc["dim_Q"] == 6
        assert doc["seed"] == 0
        assert doc["session"].startswith("ring R = Fp(32003)")

    def test_quadric_graph(self, capsys):
        code, doc, _ = run_json(capsys, "scenario", "quadric-graph",
                                "--n", "2", "--seed", "1")
        assert code == 0
        assert doc["q"] == "3/1"
        assert doc["mu_Q"] == 3
        assert doc["seed"] == 1

    def test_quadric_graph_needs_n(self, capsys):
        code, _, err = run(capsys, "scenario", "quadric-graph")
        assert code == 1

    def test_reye(self, capsys):
        code, doc, _ = run_json(capsys, "scenario", "reye", "--seed", "3")
        assert code == 0
        assert doc["line_degree"] == 3
        assert doc["det_degree"] == 4
        assert doc["point_on_line"] is True
        assert doc["passed"] is True

    @pytest.mark.parametrize("seed", sorted(REYE_REPORTS))
    def test_reye_report_is_pinned(self, capsys, seed):
        # the whole report, byte for byte: the sampled point and the
        # attempts depend on every draw and root the check takes
        attempts, point = REYE_REPORTS[seed]
        code, out, _ = run(capsys, "scenario", "reye", "--seed", str(seed))
        assert code == 0
        assert out == json.dumps({
            "attempts": attempts, "command": "scenario", "det_degree": 4,
            "line_degree": 3, "p": 32003, "passed": True, "point": point,
            "point_on_line": True, "scenario": "reye", "seed": seed,
        }, indent=2) + "\n"

    def test_secant_demo(self, capsys):
        code, doc, _ = run_json(capsys, "scenario", "secant-demo",
                                "--n", "1", "--l", "2")
        assert code == 0
        assert doc["cone_nonempty"] is True
        assert doc["passed"] is True
        assert doc["r"] == 3

    def test_secant_checks_never_saturate(self, capsys, monkeypatch):
        # they read only the Hilbert polynomial, which saturation keeps;
        # the secant sweep keeps its draw by a dimension count and finds
        # its direction with the local decomposition, so it eliminates
        # nothing and takes no Hilbert series
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(Ideal, "saturate", refuse("Ideal.saturate"))
        for argv in (["reye", "--seed", "1"], ["reye", "--seed", "3"]):
            code, doc, _ = run_json(capsys, "scenario", *argv)
            assert code == 0 and doc["passed"] is True
        monkeypatch.setattr(Ideal, "eliminate", refuse("Ideal.eliminate"))
        # hilbert_data reads its numerator from its own module, whatever
        # name a caller imported it under
        monkeypatch.setattr(gb_module, "_hilbert_numerator",
                            refuse("hilbert_data"))
        for argv in (["secant-demo", "--n", "1", "--l", "2"],
                     ["secant-demo", "--n", "2", "--l", "3"]):
            code, doc, _ = run_json(capsys, "scenario", *argv)
            assert code == 0 and doc["passed"] is True

    @pytest.mark.parametrize("key", sorted(SECANT_REPORTS))
    def test_secant_demo_report_is_pinned(self, capsys, key):
        # the whole report, byte for byte: the point, the attempts and the
        # direction, the least rational point of the direction cone
        seed, p, n, l = key
        attempts, point, direction = SECANT_REPORTS[key]
        code, out, _ = run(capsys, "scenario", "secant-demo", "--n", str(n),
                           "--l", str(l), "--seed", str(seed), "--p", str(p))
        assert code == 0
        assert out == json.dumps({
            "attempts": attempts, "command": "scenario",
            "cone_nonempty": True, "direction": direction, "l": l,
            "line_degree": l, "n": n, "note": "", "p": p, "passed": True,
            "point": point, "r": len(point) - 1, "scenario": "secant-demo",
            "seed": seed,
        }, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [[], ["--n", "1"], ["--l", "2"]],
                             ids=["neither", "no-l", "no-n"])
    def test_secant_demo_needs_n_and_l(self, capsys, argv):
        code, out, err = run(capsys, "scenario", "secant-demo", *argv)
        assert (code, out) == (1, "")
        assert "secant-demo needs --n and --l" in err

    def test_secant_demo_rejects_parameters(self, capsys):
        code, _, err = run(capsys, "scenario", "secant-demo",
                           "--n", "1", "--l", "3")
        assert code == 1


class TestPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_failed_assertion_exits_2(self, capsys, monkeypatch):
        def failing(scen):
            raise RuntimeError("local defect lengths do not add up")

        monkeypatch.setattr(cli, "q_module", failing)
        code, out, err = run(capsys, "scenario", "ei")
        assert (code, out) == (2, "")
        assert err == "error: local defect lengths do not add up\n"


# every entry point that builds a basis honours --max-pairs; the table row
# runs in a pool worker, which sets the budget on its own side
@pytest.mark.parametrize("argv", [
    ["compute", "--input", "{qg2}", "--max-pairs", "1"],
    ["scenario", "secant-demo", "--n", "1", "--l", "2", "--max-pairs", "1"],
    ["scenario", "ei", "--max-pairs", "3"],
    ["table", "--n-min", "4", "--n-max", "4", "--max-pairs", "5",
     "--jobs", "2"],
], ids=["compute", "secant-demo", "ei", "table-jobs"])
def test_budget_exhausted_exits_3(capsys, tmp_path, argv):
    f = tmp_path / "qg2.txt"
    f.write_text(QG2)
    code, _, _ = run(capsys, *(a.format(qg2=f) for a in argv))
    assert code == 3


def test_reye_builds_no_basis_so_the_budget_cannot_bind(capsys, monkeypatch):
    # the trisecant check works on scalar matrices and binary cubics
    def refuse(ring, gens):
        raise AssertionError("groebner() was called")

    monkeypatch.setattr(gb_module, "groebner", refuse)
    code, doc, _ = run_json(capsys, "scenario", "reye", "--max-pairs", "1")
    assert code == 0
    assert doc["line_degree"] == 3 and doc["passed"] is True


class TestParserCache:
    def test_three_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        plain = cli.build_parser

        def counting():
            built.append(1)
            return plain()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert main(["bounds", "corank", "--d", "4"]) == 0
            assert main(["scenario", "reye", "--seed", "1"]) == 0
            assert main(["bounds", "cnr", "--n", "2", "--r", "4"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_cached_parser_keeps_no_caller_budget(self, capsys):
        # the first call builds the parser inside a tight budget; the
        # default of --max-pairs must not freeze at that budget
        cli._parser.cache_clear()
        with pair_budget(3):
            assert main(["bounds", "corank", "--d", "4"]) == 0
        capsys.readouterr()
        code, doc, _ = run_json(capsys, "scenario", "ei")
        assert code == 0
        assert doc["deg_Z"] == 8


def test_no_cyclic_garbage_from_the_package(capsys, tmp_path):
    # the cached parser and the package's own functions must not need the
    # cycle collector: with DEBUG_SAVEALL every unreachable object a
    # collection finds is kept in gc.garbage, where it can be inspected
    assert main(["bounds", "corank", "--d", "4"]) == 0  # parser built here
    f = tmp_path / "qg2.txt"
    f.write_text(QG2)
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert main(["scenario", "reye", "--seed", "1"]) == 0
        assert main(["compute", "--input", str(f), "--seed", "1"]) == 0
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not [o for o in garbage if isinstance(o, argparse.ArgumentParser)]
    assert not [o for o in garbage if isinstance(o, types.FunctionType)
                and o.__module__.startswith("qfiber")]


def test_python_m_runs_the_command_line():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "qfiber", "bounds", "corank", "--d", "4"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["value"] == 10
