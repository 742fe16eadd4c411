"""Command line front end.

Subcommands: compute (run the defect-module report on a session file),
table (reproduce the quadric-graph invariant table), bounds (closed-form
bound calculators), scenario (run a named generator end to end).  Output
is UTF-8 JSON on stdout with sorted keys, diagnostics on stderr; a text
renderer is available via --output=text.  Exit codes: 0 success or
informational report, 1 usage or input error, 2 failed mathematical
assertion, 3 resource abort.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .algebra import FieldSpec
from .excess import (
    ExcessIntersection,
    make_scenario,
    minimal_presentation,
    q_module,
)
from .groebner import _PAIR_BUDGET, Ideal, ResourceAbort, pair_budget
from .invariants import (
    UNKNOWN,
    LicciVerdict,
    cnr_constant,
    corank_fiber_lower_bound,
    licci_check,
    main1_report,
    mather_bound,
    plane_sweep_report,
    qlength_verify,
    secant_sweep_bound,
)
from .linalg import mat_mul
from .parser import ParseError, parse_session
from .rng import Stream
from .scenarios import (
    Seed,
    gen_EI_model,
    gen_ci_secant,
    gen_fatpoint_model,
    gen_quadric_graph,
    gen_reye,
    reye_trisecant,
    scenario_text,
    secant_through_point,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_ABORT = 3

# reference invariant table: n -> (deg Z, q, mu)
KNOWN_TABLE = {
    2: (3, 3, 3),
    3: (6, 6, 3),
    4: (10, 5, 5),
    5: (20, 20, 6),
    6: (35, 7, 7),
    7: (70, 57, 8),
    8: (126, 9, 9),
}


# --- output ------------------------------------------------------------------


def _emit(obj: dict, output: str) -> None:
    if output == "text":
        print("\n".join(_text_lines(obj)))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _text_lines(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}[{i}]")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _table_text(out: dict) -> str:
    lines = [
        f"p = {out['p']}, seed = {out['seed']}",
        f"{'n':>3} {'deg Z':>6} {'q':>8} {'mu':>4}"
        f" {'expected':>14} {'time':>9}  status",
    ]
    for row in out["rows"]:
        if row.get("aborted"):
            lines.append(f"{row['n']:>3} {'-':>6} {'-':>8} {'-':>4}"
                         f" {'-':>14} {row['seconds']:>8.1f}s  aborted")
            continue
        if "error" in row:
            lines.append(f"{row['n']:>3} {'-':>6} {'-':>8} {'-':>4}"
                         f" {'-':>14} {row['seconds']:>8.1f}s  error")
            continue
        e = row["expected"]
        exp = f"({e['deg_Z']},{e['q']},{e['mu']})"
        status = "ok" if row["pass"] else "MISMATCH"
        lines.append(f"{row['n']:>3} {row['deg_Z']:>6} {row['q']:>8}"
                     f" {row['mu']:>4} {exp:>14}"
                     f" {row['seconds']:>8.1f}s  {status}")
    return "\n".join(lines)


# --- compute -----------------------------------------------------------------


def _component_verdict(Z, factor, isolate: bool):
    """Licci ladder verdict for one local factor of the intersection Z.

    When Z has other factors, the component is cut out as I_Z + (1 - e),
    with e the factor's idempotent in O_Z lifted to a polynomial; the ideal
    of a component is unique, so this is I_Z + m^k for every k at or above
    its Loewy length.  A component off the origin is then translated to
    it.  A single factor at the origin thus hands I_Z itself, with its
    basis and algebra, to the minimal re-presentation and the ladder.
    Non-rational factors (clusters) stay Unknown.
    """
    p = Z.p
    if factor.point is None:
        return LicciVerdict(UNKNOWN, None), {
            "length": factor.length,
            "point": None,
            "verdict": UNKNOWN,
            "rule": None,
            "note": "residue field extends the ground field (cluster); "
                    "ladder not applied",
        }
    pt = [int(a) % p for a in factor.point]
    ideal = Z.ideal
    if isolate:
        e = mat_mul(factor.projector(Z.actions(), p), Z.one, p)
        ideal = ideal + Ideal(Z.ring, [Z.ring.one() - Z.lift(e)])
    if any(pt):
        ideal = Ideal(Z.ring, [g.shift(pt) for g in ideal.gens])
    verdict = licci_check(minimal_presentation(ideal))
    return verdict, {
        "length": factor.length,
        "point": pt,
        "verdict": verdict.status,
        "rule": verdict.rule,
        "note": "",
    }


def cmd_compute(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ring, ideals, _loose = parse_session(text)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if "X" not in ideals or "Y" not in ideals:
        print("error: input must declare ideals named X and Y",
              file=sys.stderr)
        return EXIT_USAGE
    I_X = Ideal(ring, ideals["X"])
    I_Y = Ideal(ring, ideals["Y"])
    dim_x = I_X.krull_dim()
    codim_y = ring.nvars - I_Y.krull_dim()
    scen = make_scenario(ring, I_X, I_Y, dim_x, codim_y)
    try:
        report = q_module(scen, Stream(args.seed))
        excess_note = ""
    except ExcessIntersection as e:
        report = e.report
        excess_note = str(e)
    # the ladder reads the factors the report was split into, so the
    # component lines and the verdicts pair up by construction
    factors = report.factors
    verdicts = []
    components = []
    for f in factors:
        try:
            v, d = _component_verdict(scen.Z, f, isolate=len(factors) > 1)
        except ResourceAbort:
            raise
        except (ValueError, RuntimeError) as e:
            v = LicciVerdict(UNKNOWN, None)
            d = {"length": f.length,
                 "point": None if f.point is None else list(f.point),
                 "verdict": UNKNOWN, "rule": None,
                 "note": f"verdict unavailable: {e}"}
        verdicts.append(v)
        components.append(d)
    overall = verdicts[0] if len(verdicts) == 1 else LicciVerdict(UNKNOWN,
                                                                  None)
    checks: dict = {}
    if report.q is None:
        checks["qlength"] = {"status": "skipped",
                             "reason": "q undefined: no excess codimension"}
        checks["main1"] = {"status": "skipped", "reason": "q undefined"}
    else:
        qc = qlength_verify(report, overall, attested=True,
                            component_verdicts=verdicts)
        qd = qc.to_json_dict()
        qd["note"] = ((qd["note"] + "; ") if qd["note"] else "") + \
            "hypotheses attested by the input, not verified"
        qd["status"] = "pass" if qc.passed else "fail"
        checks["qlength"] = qd
        md = main1_report(report, dim_x, report.c).to_json_dict()
        md["status"] = "report-only"
        checks["main1"] = md
    out = {
        "command": "compute",
        "input": args.input,
        "p": ring.p,
        "seed": args.seed,
        "dim_X": dim_x,
        "codim_Y": codim_y,
        **report.to_json_dict(),
        "licci": components,
        "checks": checks,
    }
    if excess_note:
        out["note"] = excess_note
    _emit(out, args.output)
    if checks["qlength"].get("status") == "fail":
        return EXIT_MATH
    return EXIT_OK


# --- table -------------------------------------------------------------------


def _table_row(task) -> dict:
    n, seed, p, max_pairs = task
    t0 = time.perf_counter()
    try:
        # a pool worker need not share the caller's context: set the budget
        with pair_budget(max_pairs):
            scen = gen_quadric_graph(n, Seed(seed, FieldSpec(p)))
            rep = q_module(scen, Stream(seed))
    except ResourceAbort as e:
        return {"n": n, "seed": seed, "aborted": True, "error": str(e),
                "seconds": round(time.perf_counter() - t0, 2)}
    except RuntimeError as e:
        return {"n": n, "seed": seed, "pass": False, "error": str(e),
                "seconds": round(time.perf_counter() - t0, 2)}
    exp = KNOWN_TABLE[n]
    ok = (rep.deg_z, rep.q, rep.mu_q) == exp
    return {
        "n": n,
        "seed": seed,
        "deg_Z": rep.deg_z,
        "q": rep.to_json_dict()["q"],
        "mu": rep.mu_q,
        "expected": {"deg_Z": exp[0], "q": exp[1], "mu": exp[2]},
        "pass": ok,
        "seconds": round(time.perf_counter() - t0, 2),
    }


def cmd_table(args) -> int:
    if not 2 <= args.n_min <= args.n_max <= 8:
        print("error: need 2 <= n-min <= n-max <= 8", file=sys.stderr)
        return EXIT_USAGE
    tasks = [(n, args.seed, args.p, args.max_pairs)
             for n in range(args.n_min, args.n_max + 1)]
    if args.jobs > 1:
        workers = min(args.jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_table_row, tasks))
    else:
        rows = [_table_row(t) for t in tasks]
    out = {
        "command": "table",
        "p": args.p,
        "seed": args.seed,
        "rows": rows,
        "all_pass": all(r.get("pass", False) for r in rows),
    }
    if args.output == "text":
        print(_table_text(out))
    else:
        _emit(out, args.output)
    if any(r.get("aborted") for r in rows):
        return EXIT_ABORT
    if not out["all_pass"]:
        return EXIT_MATH
    return EXIT_OK


# --- bounds ------------------------------------------------------------------


def cmd_bounds(args) -> int:
    if args.op == "mather":
        coranks = [int(t) for t in args.coranks.split(",") if t.strip()]
        payload = mather_bound(args.n, args.c, coranks).to_json_dict()
    elif args.op == "secant":
        payload = secant_sweep_bound(args.n, args.l).to_json_dict()
    elif args.op == "plane":
        payload = plane_sweep_report(args.n, args.r, args.l,
                                     args.t).to_json_dict()
    elif args.op == "cnr":
        payload = {"value": cnr_constant(args.n, args.r)}
    else:
        payload = {"value": corank_fiber_lower_bound(args.d)}
    out = {"command": "bounds", "op": args.op, **payload}
    _emit(out, args.output)
    return EXIT_OK


# --- scenario ----------------------------------------------------------------


def cmd_scenario(args) -> int:
    s = Seed(args.seed, FieldSpec(args.p))
    base = {"command": "scenario", "scenario": args.name,
            "seed": args.seed, "p": args.p}
    if args.name == "quadric-graph":
        if args.n is None:
            print("error: quadric-graph needs --n", file=sys.stderr)
            return EXIT_USAGE
        scen = gen_quadric_graph(args.n, s)
        rep = q_module(scen, Stream(args.seed))
        _emit({**base, "n": args.n, **rep.to_json_dict(),
               "session": scenario_text(scen)}, args.output)
        return EXIT_OK
    if args.name in ("fatpoint", "ei"):
        scen = gen_fatpoint_model(s) if args.name == "fatpoint" \
            else gen_EI_model(s)
        rep = q_module(scen, Stream(args.seed))
        _emit({**base, **rep.to_json_dict(),
               "session": scenario_text(scen)}, args.output)
        return EXIT_OK
    if args.name == "reye":
        data = gen_reye(s)
        chk = reye_trisecant(data, s)
        _emit({**base, **chk.to_json_dict()}, args.output)
        return EXIT_OK if chk.passed else EXIT_MATH
    # secant-demo
    if args.n is None or args.l is None:
        print("error: secant-demo needs --n and --l", file=sys.stderr)
        return EXIT_USAGE
    scen = gen_ci_secant(args.n, args.l, s)
    chk = secant_through_point(scen)
    _emit({**base, "n": args.n, "l": args.l, "r": scen.r,
           **chk.to_json_dict()}, args.output)
    return EXIT_OK if chk.passed else EXIT_MATH


# --- argument plumbing -------------------------------------------------------


def _output() -> argparse.ArgumentParser:
    o = argparse.ArgumentParser(add_help=False)
    o.add_argument("--output", choices=("json", "text"), default="json")
    return o


def _common(output: argparse.ArgumentParser) -> argparse.ArgumentParser:
    c = argparse.ArgumentParser(add_help=False, parents=[output])
    c.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    c.add_argument("--max-pairs", type=int, default=_PAIR_BUDGET.get(),
                   dest="max_pairs",
                   help="S-pair budget of each Groebner basis run; a run "
                        "that needs more aborts with exit 3 (default: "
                        "%(default)s)")
    c.add_argument("--jobs", type=int, default=1,
                   help="worker processes for table rows")
    return c


def build_parser() -> argparse.ArgumentParser:
    output = _output()
    common = _common(output)
    ap = argparse.ArgumentParser(
        prog="qfiber",
        description="Excess-intersection invariants over prime fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", parents=[common],
                       help="defect-module report of a session file")
    c.add_argument("--input", required=True,
                   help="session file declaring ideals X and Y")
    c.set_defaults(func=cmd_compute)

    t = sub.add_parser("table", parents=[common],
                       help="reproduce the quadric-graph invariant table")
    t.add_argument("--n-min", type=int, default=2, dest="n_min")
    t.add_argument("--n-max", type=int, default=6, dest="n_max",
                   help="last row (at most 8; n = 7 takes about 4 s and "
                        "n = 8 about 20 s)")
    t.set_defaults(func=cmd_table)

    # closed forms use no field, no seed and no Groebner basis: --output
    # alone, and the budget main sets stays at its default
    b = sub.add_parser("bounds", help="closed-form bound calculators")
    b.set_defaults(max_pairs=_PAIR_BUDGET.get())
    bsub = b.add_subparsers(dest="op", required=True)
    m = bsub.add_parser("mather", parents=[output])
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--c", type=int, required=True)
    m.add_argument("--coranks", required=True,
                   help="comma-separated fiber coranks")
    for name, flags in (("secant", ("n", "l")),
                        ("plane", ("n", "r", "l", "t")),
                        ("cnr", ("n", "r")),
                        ("corank", ("d",))):
        sp = bsub.add_parser(name, parents=[output])
        for f in flags:
            sp.add_argument(f"--{f}", type=int, required=True)
    for sp in bsub.choices.values():
        sp.set_defaults(func=cmd_bounds)

    sc = sub.add_parser("scenario", parents=[common],
                        help="run a named generator end to end")
    sc.add_argument("name", choices=("quadric-graph", "fatpoint", "ei",
                                     "reye", "secant-demo"))
    sc.add_argument("--n", type=int, default=None)
    sc.add_argument("--l", type=int, default=None)
    sc.set_defaults(func=cmd_scenario)
    # compute reads its ring, field included, from the input file
    for sp in (t, sc):
        sp.add_argument("--p", type=int, default=32003, help="prime field")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        with pair_budget(args.max_pairs):
            return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceAbort as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ABORT
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
