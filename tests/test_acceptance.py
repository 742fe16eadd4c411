"""End-to-end acceptance checks for the shipped numerical claims.

One test per advertised capability.  Each prints exactly one PASS/FAIL
line (forced past pytest's capture so the run log always shows the full
scorecard) and then asserts, so a miss is loud in both places.  Values
are exact integer/rational comparisons; runtime ceilings are asserted
alongside them.  Heavy scenario builds are cached module-wide and shared
between criteria.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import lru_cache

from qfiber.algebra import FieldSpec, PolyRing, random_poly
from qfiber.cli import main as cli_main
from qfiber.excess import (
    hilbert_tangent_dim,
    make_scenario,
    minimal_presentation,
    module_mu,
    q_affine_pair,
    q_module,
    qbar,
    symmetry_check,
)
from qfiber.groebner import Ideal, hilbert_data
from qfiber.invariants import (
    UNKNOWN,
    corank_fiber_lower_bound,
    licci_check,
    secant_sweep_bound,
)
from qfiber.parser import parse_ideal
from qfiber.rng import Stream
from qfiber.scenarios import (
    Seed,
    gen_EI_model,
    gen_fatpoint_model,
    gen_quadric_graph,
    gen_reye,
    reye_trisecant,
)
from qfiber.zerodim import ArtinianAlgebra, cm_regularity, tangent_data
from prop22_counting import prop22_experiment

_FIELD = FieldSpec(32003)


def _verdict(capsys, num: int, label: str, problems: list, detail: str = ""):
    status = "PASS" if not problems else "FAIL"
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nacceptance {num:02d} [{status}] {label}{tail}", flush=True)
    assert not problems, f"{label}: " + "; ".join(problems)


@lru_cache(maxsize=None)
def _graph(n: int, seed: int):
    t0 = time.perf_counter()
    scen = gen_quadric_graph(n, Seed(seed))
    rep = q_module(scen)
    return scen, rep, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _excess_model():
    t0 = time.perf_counter()
    scen = gen_EI_model(Seed(0))
    rep = q_module(scen)
    return scen, rep, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _fat(seed: int = 0):
    t0 = time.perf_counter()
    scen = gen_fatpoint_model(Seed(seed))
    rep = q_module(scen)
    return scen, rep, time.perf_counter() - t0


# criterion 1: the reference table, three seeds per column, via the real CLI

TABLE_EXPECTED = {2: (3, "3/1", 3), 3: (6, "6/1", 3), 4: (10, "5/1", 5),
                  5: (20, "20/1", 6), 6: (35, "7/1", 7), 7: (70, "57/1", 8),
                  8: (126, "9/1", 9)}

# seeds 0, 1, 2 of the default rows, then the rows n = 7 and n = 8 at seed 0
TABLE_RUNS = [(["--n-min", "2", "--n-max", "6"], seed) for seed in (0, 1, 2)]
TABLE_RUNS += [(["--n-min", str(n), "--n-max", str(n)], 0) for n in (7, 8)]


def test_01_reference_table(capsys):
    problems, worst = [], 0.0
    for rows, seed in TABLE_RUNS:
        rc = cli_main(["table", *rows, "--seed", str(seed),
                       "--output", "json"])
        doc = json.loads(capsys.readouterr().out)
        if rc != 0:
            problems.append(f"seed {seed}: exit code {rc}")
            continue
        for row in doc["rows"]:
            got = (row.get("deg_Z"), row.get("q"), row.get("mu"))
            if got != TABLE_EXPECTED[row["n"]]:
                problems.append(f"n={row['n']} seed {seed}: got {got}")
            if row["seconds"] > 300:
                problems.append(f"n={row['n']} seed {seed}: "
                                f"{row['seconds']:.1f}s over the 300s ceiling")
            worst = max(worst, row["seconds"])
    _verdict(capsys, 1,
             "table n=2..6 exact over seeds 0,1,2, n=7 and n=8 at seed 0",
             problems, f"17 rows, slowest {worst:.2f}s; n=7 takes about "
             "0.5 s and n=8 about 2 s on a 2-core host")


# criterion 2: the excess model where the defect beats deg Z times c


def test_02_excess_model(capsys):
    _, rep, secs = _excess_model()
    problems = []
    if rep.deg_z != 8:
        problems.append(f"deg {rep.deg_z} != 8")
    if rep.hilb_tangent_dim != 25:
        problems.append(f"tangent {rep.hilb_tangent_dim} != 25")
    if rep.dim_q != 31:
        problems.append(f"defect {rep.dim_q} != 31")
    if rep.deg_z * rep.c != 24 or not rep.dim_q > rep.deg_z * rep.c:
        problems.append(f"defect {rep.dim_q} not above deg*c = "
                        f"{rep.deg_z * rep.c}")
    if secs > 120:
        problems.append(f"{secs:.1f}s over the 120s ceiling")
    _verdict(capsys, 2, "excess model: deg 8, tangent 25, defect 31 > 24",
             problems, f"{secs:.1f}s")


# criterion 3: the fat-point model, defect by two routes, mu logged


def test_03_fat_point_model(capsys):
    scen, rep, secs = _fat()
    problems = []
    if (rep.deg_z, rep.hilb_tangent_dim) != (4, 18):
        problems.append(f"(deg, tangent) = "
                        f"{(rep.deg_z, rep.hilb_tangent_dim)} != (4, 18)")
    if rep.dim_q != 6:
        problems.append(f"direct defect {rep.dim_q} != 6")
    formula = rep.deg_z * scen.dims[1] - rep.hilb_tangent_dim
    if formula != 6:
        problems.append(f"tangent-formula defect {formula} != 6")
    if secs > 30:
        problems.append(f"{secs:.1f}s over the 30s ceiling")
    mu_note = "matches" if rep.mu_q == 6 else "DIFFERS FROM"
    _verdict(capsys, 3, "fat point: deg 4, tangent 18, defect 6 both routes",
             problems,
             f"mu_Q={rep.mu_q} {mu_note} the reference value 6 "
             f"(report-only); {secs:.1f}s")


# criterion 4: three computation routes for the defect dimension agree


def _chart_routes(scen, rep):
    td = tangent_data(scen.chart_ideal)
    direct = rep.dim_q
    by_tangent = rep.deg_z * scen.dims[1] - td.hilb_tangent_dim
    by_t1 = rep.deg_z * scen.c - td.t1_dim + td.derivations_dim
    return direct, by_tangent, by_t1, td


PAIR_SHAPES = [(1, 1, 2, 0), (1, 2, 2, 0), (2, 1, 2, 0), (2, 2, 2, 0),
               (1, 1, 3, 0), (1, 2, 3, 0), (2, 1, 3, 0), (1, 1, 4, 0),
               (2, 1, 2, 1), (1, 2, 2, 1)]


def _transversal_pair(a: int, b: int, deg: int, seed: int):
    """Random degree-deg CI in b variables against a disjoint a-plane."""
    chart = PolyRing(_FIELD, tuple(f"u{i + 1}" for i in range(b)))
    st = Stream(seed).fork(100 * a + 10 * b + deg)
    for trial in range(8):
        tt = st.fork(trial)
        gens = [random_poly(chart, deg, tt.fork(i), homogeneous=True)
                for i in range(b)]
        hd = hilbert_data(Ideal(chart, gens))
        if hd.krull_dim == 0 and hd.degree == deg ** b:
            break
    else:
        raise RuntimeError(f"no regular sequence at shape {(a, b, deg)}")
    amb = PolyRing(_FIELD, tuple(f"x{i + 1}" for i in range(a))
                   + tuple(f"u{i + 1}" for i in range(b)))
    lifted = [g.to_ring(amb) for g in gens]
    plane = Ideal(amb, [amb.var(i) for i in range(a)])
    return amb, plane, Ideal(amb, lifted), Ideal(chart, gens)


def test_04_route_agreement(capsys):
    problems = []
    cases = [(f"graph n={n}",) + _graph(n, 0)[:2] for n in range(1, 6)]
    cases.append(("fat point",) + _fat()[:2])
    cases.append(("excess model",) + _excess_model()[:2])
    for label, scen, rep in cases:
        direct, by_tangent, by_t1, td = _chart_routes(scen, rep)
        if not direct == by_tangent == by_t1:
            problems.append(f"{label}: routes {direct}/{by_tangent}/{by_t1}")
        if rep.hilb_tangent_dim != td.hilb_tangent_dim:
            problems.append(f"{label}: ambient tangent {rep.hilb_tangent_dim}"
                            f" != chart tangent {td.hilb_tangent_dim}")
    for shape in PAIR_SHAPES:
        amb, plane, ideal, chart_ideal = _transversal_pair(*shape)
        if not ideal.intersect(plane).equals(ideal * plane):
            problems.append(f"pair {shape}: transversality lost")
            continue
        rep = q_affine_pair(amb, plane, ideal)
        td = tangent_data(chart_ideal)
        direct = rep.dim_q
        by_tangent = rep.deg_z * len(ideal.gens) - rep.hilb_tangent_dim
        # excess codimension is zero for a transversal pair
        by_t1 = -td.t1_dim + td.derivations_dim
        if not direct == by_tangent == by_t1 == 0:
            problems.append(f"pair {shape}: routes "
                            f"{direct}/{by_tangent}/{by_t1} != 0")
    _verdict(capsys, 4, "direct, tangent-formula, and derivation routes agree",
             problems,
             f"{len(cases)} chart scenarios + {len(PAIR_SHAPES)} "
             "transversal CI pairs, exact")


# criterion 5: the defect module does not see the order of its arguments


def _two_points_scenario():
    R = PolyRing(_FIELD, ("x", "y"))
    ix = Ideal(R, parse_ideal("y, x^2 - 1", R))
    iy = Ideal(R, parse_ideal("y", R))
    return make_scenario(R, ix, iy, 0, 1)


def test_05_swap_symmetry(capsys):
    # reversing a graph scenario squares the graph ideal, so the cost
    # climbs steeply with n; n <= 4 keeps every swap under 10 seconds
    scens = [_graph(n, 0)[0] for n in range(1, 5)]
    scens += [_graph(n, 1)[0] for n in (1, 2, 3, 4)]
    scens += [_fat(0)[0], _fat(11)[0], _two_points_scenario()]
    problems = []
    for i, scen in enumerate(scens):
        rep = symmetry_check(scen)
        if not rep.agree:
            problems.append(f"scenario {i}: lengths or mu moved under swap")
    _verdict(capsys, 5, "defect length and mu symmetric under argument swap",
             problems, f"{len(scens)} scenarios, exact")


# criterion 6: vanishing under transversality, additivity under splitting


VANISHING_TRIPLES = [
    (("x", "y"), "y", "x^2"),
    (("x", "y"), "y", "x^3"),
    (("x", "y"), "y", "x^2 + y"),
    (("x", "y"), "x", "y^4"),
    (("x", "y", "z"), "z", "x^2, y^2"),
    (("x", "y", "z"), "y, z", "x^3"),
    (("x", "y", "z"), "z", "x^2 + y^2, x*y"),
    (("x", "y", "z"), "x, y", "z^5"),
    (("x", "y", "u", "v"), "u, v", "x^2, y^3"),
    (("x", "y", "u", "v"), "u, v", "x^2 + y^2, x*y"),
    (("x", "y", "u", "v"), "y, u, v", "x^4"),
    (("x", "y", "u", "v"), "v", "x^2, y^2, u^3"),
]

ADDITIVE_TRIPLES = [
    ("x^2", "u^2", "y, v"),
    ("x^3", "u^2", "y, v"),
    ("x^2", "u^3", "y, v"),
    ("x^3", "u^3", "y, v"),
    ("x^4", "u^2", "y, v"),
    ("x^2", "u^4", "y, v"),
    ("x^2, y^2", "u^2", "v"),
    ("x^2", "u^2, v^2", "y"),
    ("x^2, y^3", "u^2", "v"),
]


def test_06_pair_decomposition(capsys):
    problems = []
    for names, ltext, itext in VANISHING_TRIPLES:
        R = PolyRing(_FIELD, names)
        L = Ideal(R, parse_ideal(ltext, R))
        I = Ideal(R, parse_ideal(itext, R))
        if not I.intersect(L).equals(I * L):
            problems.append(f"({itext}) vs ({ltext}): hypothesis fails")
            continue
        d = q_affine_pair(R, L, I).dim_q
        if d != 0:
            problems.append(f"({itext}) vs ({ltext}): defect {d} != 0")
    for atext, btext, ltext in ADDITIVE_TRIPLES:
        R = PolyRing(_FIELD, ("x", "y", "u", "v"))
        Ia = Ideal(R, parse_ideal(atext, R))
        Ib = Ideal(R, parse_ideal(btext, R))
        L = Ideal(R, parse_ideal(ltext, R))
        I = Ia + Ib
        split = (Ia.intersect(Ib).equals(Ia * Ib)
                 and Ia.intersect(Ib + L).equals(Ia * (Ib + L)))
        if not split:
            problems.append(f"({atext})+({btext}): hypothesis fails")
            continue
        whole = q_affine_pair(R, L, I).dim_q
        parts = (q_affine_pair(R, L, I, modulus=Ia).dim_q
                 + q_affine_pair(R, L, I, modulus=Ib).dim_q)
        if whole != parts:
            problems.append(f"({atext})+({btext}): {whole} != {parts}")
    total = len(VANISHING_TRIPLES) + len(ADDITIVE_TRIPLES)
    _verdict(capsys, 6, "transversal vanishing and split additivity",
             problems,
             f"{len(VANISHING_TRIPLES)} vanishing + "
             f"{len(ADDITIVE_TRIPLES)} additive = {total} triples, exact")


# criterion 7: embedded defect against the intrinsic module of the fiber


def test_07_intrinsic_comparison(capsys):
    problems = []
    for n in range(1, 6):
        scen, rep, _ = _graph(n, 0)
        core = qbar(ArtinianAlgebra.from_ideal(scen.chart_ideal))
        diff = rep.dim_q - core.basis_dim
        if diff % rep.deg_z:
            problems.append(f"n={n}: gap {diff} not divisible by deg "
                            f"{rep.deg_z}")
            continue
        m = diff // rep.deg_z
        if m < 0:
            problems.append(f"n={n}: negative multiplier {m}")
        mu_bar = module_mu(core)[0]
        if rep.mu_q != mu_bar + m:
            problems.append(f"n={n}: mu {rep.mu_q} != {mu_bar} + {m}")
    _verdict(capsys, 7, "intrinsic core: deg Z divides the gap, mu shifts by "
             "the quotient", problems, "graphs n=1..5, exact")


# criterion 8: licci verdicts line up with where q sits


def test_08_licci_dichotomy(capsys):
    problems = []
    for n in (2, 3):
        scen, rep, _ = _graph(n, 0)
        verdict = licci_check(minimal_presentation(scen.chart_ideal))
        if not verdict.is_licci:
            problems.append(f"n={n}: verdict {verdict.status}")
        if rep.q != Fraction(rep.deg_z):
            problems.append(f"n={n}: q {rep.q} != deg {rep.deg_z}")
    _, rep4, _ = _graph(4, 0)
    if rep4.c != 1:
        problems.append(f"n=4: excess codimension {rep4.c} != 1")
    floor = max(1 + Fraction(3, rep4.c), Fraction(5, rep4.c))
    if rep4.q != 5 or rep4.q != floor:
        problems.append(f"n=4: q {rep4.q} misses the floor {floor}")
    R3 = PolyRing(_FIELD, ("x", "y", "z"))
    square = Ideal(R3, parse_ideal("x^2, x*y, x*z, y^2, y*z, z^2", R3))
    v = licci_check(square)
    if v.status != UNKNOWN:
        problems.append(f"3-variable square ideal: verdict {v.status}")
    _verdict(capsys, 8, "licci rows reach q = deg Z; n=4 sits on the floor",
             problems, "n=2,3 Licci; n=4 q=5=max(1+3/c,5/c); (x,y,z)^2 "
             "Unknown")


# criterion 9: trisecants of the symmetric-determinant surface


def test_09_reye_trisecants(capsys):
    problems, worst = [], 0.0
    for seed in range(5):
        t0 = time.perf_counter()
        data = gen_reye(Seed(seed))
        chk = reye_trisecant(data, Seed(seed))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if not (chk.passed and chk.intersection_degree == 3
                and chk.det_degree == 4 and chk.point_on_line):
            problems.append(f"seed {seed}: degree {chk.intersection_degree},"
                            f" det {chk.det_degree}, on-line "
                            f"{chk.point_on_line}")
        if dt > 60:
            problems.append(f"seed {seed}: {dt:.1f}s over the 60s ceiling")
    _verdict(capsys, 9, "sampled trisecant meets the quartic surface in "
             "degree exactly 3", problems, f"5 seeds, slowest {worst:.2f}s")


# criterion 10: regularity of small point configurations


def test_10_point_regularity(capsys):
    R = PolyRing(_FIELD, ("x", "y", "z"))
    problems = []
    single = cm_regularity(Ideal(R, parse_ideal("x, y", R)))
    if (single.regularity, single.degree) != (1, 1):
        problems.append(f"single point: reg {single.regularity}")
    collinear = cm_regularity(
        Ideal(R, parse_ideal("x, y^2*z - y*z^2", R)))
    if (collinear.regularity, collinear.degree) != (3, 3):
        problems.append(f"three collinear points: reg {collinear.regularity}"
                        f" on degree {collinear.degree}")
    ci = cm_regularity(Ideal(R, parse_ideal("x^2 - y*z, y^2 - x*z", R)))
    if (ci.regularity, ci.degree) != (3, 4):
        problems.append(f"(2,2) intersection: reg {ci.regularity} on degree "
                        f"{ci.degree}")
    _verdict(capsys, 10, "regularity: single point 1, collinear triple 3, "
             "(2,2) intersection 3", problems, "exact")


# criterion 11: closed-form bounds and the corank counting experiment


def test_11_bound_calculators(capsys):
    problems = []
    t0 = time.perf_counter()
    for d, expected in {2: 3, 3: 6, 4: 10, 5: 20, 6: 35}.items():
        got = corank_fiber_lower_bound(d)
        if got != expected:
            problems.append(f"corank floor d={d}: {got} != {expected}")
    for n in range(1, 51):
        floor = secant_sweep_bound(n, n + 2).observed_value
        if floor != n + 1:
            problems.append(f"secant floor n={n}: {floor} != {n + 1}")
    fast = time.perf_counter() - t0
    if fast > 1.0:
        problems.append(f"closed forms took {fast:.2f}s")
    t0 = time.perf_counter()
    for d in range(1, 6):
        res = prop22_experiment(d, 0)
        if not res.passed:
            problems.append(f"counting experiment d={d} failed")
    slow = time.perf_counter() - t0
    if slow > 60:
        problems.append(f"experiments took {slow:.1f}s")
    _verdict(capsys, 11, "corank floors match the table, secant floors "
             "close, counting experiment passes d<=5", problems,
             f"closed forms {fast * 1000:.0f}ms, experiments {slow:.1f}s")
