"""Seeded end-to-end benchmark of the qfiber command line.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every workload repeats one fixed unit of checked work, a *pass*, through
qfiber.cli.main in this process: one client, a closed loop, --jobs 1.
Each pass rebuilds its inputs from the seed, so no cached Groebner basis
carries over between passes, and every report is checked against
reference values held in this file.  Run from the root of a checkout; the
package is imported from its src/ directory.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics that
perfbench/layers.py derives from spans, taken over two or more traced
passes whose work counts must agree exactly.  `--workload all` runs each
workload in a process of its own and prints one table.  NOTES.md records
why each workload is here and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import heapq
import importlib
import importlib.util
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"  # session files of the compute workload

SETUP_REPS = 5
MIN_PASSES = 3
SLICE_STEPS = 5_000  # one calibration slice, a few ms
SLICE_EVERY = 0.1  # seconds between slices during a pass
# Host speed at which setup_s is reported: a slice takes this long.  It is
# about the fast state of the host the benchmark was written on.
REFERENCE_SLICE_S = 0.003
REYE_SEEDS = 10

# Reference values, held here rather than read from qfiber.cli.KNOWN_TABLE.
# quadric graph n -> (deg Z, q, mu)
TABLE_ROWS = {2: (3, 3, 3), 3: (6, 6, 3), 4: (10, 5, 5), 5: (20, 20, 6),
              6: (35, 7, 7)}
EI_REPORT = {"deg_Z": 8, "hilb_tangent_dim": 25, "dim_Q": 31, "mu_Q": 7}
FATPOINT_REPORT = {"deg_Z": 4, "dim_Q": 6, "q": 2, "mu_Q": 6}

# Multi-point or non-complete-intersection inputs of the compute workload.
FIXED_SESSIONS = {
    "two_points": "ring R = Fp(32003)[x, y], grevlex;\n"
                  "ideal X = y, x^2 - 1;\nideal Y = y;\n",
    "line_meets_axes": "ring R = Fp(32003)[x, y, z], grevlex;\n"
                       "ideal X = z, x + y - 1;\nideal Y = x*y, y*z, x*z;\n",
    "plane_holds_points": "ring R = Fp(32003)[x, y, z], grevlex;\n"
                          "ideal X = z;\nideal Y = x^2 - x, y^2, x*y, z;\n",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no importable qfiber)."""


@dataclass
class Job:
    """One CLI invocation of a pass and the check of its JSON report."""

    label: str
    argv: list
    check: Callable[[dict], list]  # problems found, one per failed report
    reports: int = 1


def _value(rep: dict, key: str):
    v = rep.get(key)
    return Fraction(v) if key == "q" and v is not None else v


def _expect(label: str, expected: dict):
    def check(rep):
        bad = {k: _value(rep, k) for k, v in expected.items()
               if _value(rep, k) != v}
        return [f"{label}: got {bad}, expected {expected}"] if bad else []
    return check


def _check_table(rep):
    problems = []
    rows = {row["n"]: row for row in rep["rows"]}
    for n, expected in TABLE_ROWS.items():
        row = rows.get(n, {})
        got = (row.get("deg_Z"), _value(row, "q"), row.get("mu"))
        if got != expected:
            problems.append(f"table n={n}: got {got}, expected {expected}")
    return problems


def _check_compute(label: str, expected: dict):
    exact = _expect(label, expected)

    def check(rep):
        problems = exact(rep)
        identity = rep["deg_Z"] * rep["codim_Y"] - rep["hilb_tangent_dim"]
        if not problems and rep["dim_Q"] != identity:
            problems.append(f"{label}: dim_Q {rep['dim_Q']} != deg_Z*codim_Y"
                            f" - hilb_tangent_dim = {identity}")
        return problems
    return check


def _check_reye(rep):
    if rep["line_degree"] == 3 and rep["passed"] is True:
        return []
    return [f"reye: line degree {rep['line_degree']}, passed {rep['passed']}"]


# --- workloads: seed -> the jobs of one pass ---------------------------------


def table_jobs(seed: int) -> list:
    argv = ["table", "--n-min", "2", "--n-max", "6", "--seed", str(seed)]
    return [Job("table", argv, _check_table, len(TABLE_ROWS))]


def excess_jobs(seed: int) -> list:
    return [Job("ei", ["scenario", "ei", "--seed", str(seed)],
                _expect("ei", EI_REPORT))]


def compute_jobs(seed: int) -> list:
    from qfiber.scenarios import (Seed, gen_fatpoint_model, gen_quadric_graph,
                                  scenario_text)

    s = Seed(seed)
    sessions = {
        "graph3": (scenario_text(gen_quadric_graph(3, s)),
                   dict(zip(("deg_Z", "q", "mu_Q"), TABLE_ROWS[3]))),
        "graph4": (scenario_text(gen_quadric_graph(4, s)),
                   dict(zip(("deg_Z", "q", "mu_Q"), TABLE_ROWS[4]))),
        "fatpoint": (scenario_text(gen_fatpoint_model(s)), FATPOINT_REPORT),
        **{name: (text, {}) for name, text in FIXED_SESSIONS.items()},
    }
    WORK.mkdir(exist_ok=True)
    jobs = []
    for name, (text, expected) in sessions.items():
        path = WORK / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        jobs.append(Job(name, ["compute", "--input", str(path),
                               "--seed", str(seed)],
                        _check_compute(name, expected)))
    return jobs


def reye_jobs(seed: int) -> list:
    return [Job(f"reye {s}", ["scenario", "reye", "--seed", str(s)],
                _check_reye)
            for s in range(seed, seed + REYE_SEEDS)]


# Workloads the driver runs, in BENCHMARK.json order, and the ones that
# can only be run by hand (see NOTES.md for why excess is not listed).
WORKLOADS = {"table": table_jobs, "compute": compute_jobs, "reye": reye_jobs}
BY_HAND = {"excess": excess_jobs}


# --- running and checking ----------------------------------------------------


def run_cli(argv: list, tracer=None) -> dict:
    """Run qfiber.cli.main on argv in-process; the parsed JSON report."""
    from qfiber.cli import main

    call = main if tracer is None else tracer.wrap("cli.main", main)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = call(argv + ["--jobs", "1"])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_problem: str = ""

    def record(self, reports: int, problems: list):
        self.attempted += reports
        self.failed += min(len(problems), reports)
        if problems and not self.first_problem:
            self.first_problem = problems[0]


def run_pass(jobs_of, seed: int, tally: Tally, tracer=None) -> None:
    """One pass: rebuild the inputs from the seed, run and check each job."""
    jobs = (jobs_of if tracer is None else tracer.wrap("inputs", jobs_of))(seed)
    for job in jobs:
        try:
            problems = job.check(run_cli(job.argv, tracer))
        except Exception as e:  # any failure of a report is counted, not fatal
            problems = [f"{job.label}: {type(e).__name__}: {e}"] * job.reports
        tally.record(job.reports, problems)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python slice of int, dict and heap work."""
    t0 = time.perf_counter()
    table, heap, acc = {}, [], 0
    for i in range(SLICE_STEPS):
        k = (i * 2654435761) % 1000003
        table[k] = table.get(k, 0) + i
        heapq.heappush(heap, k)
        if len(heap) > 64:
            acc += heapq.heappop(heap)
    dt = time.perf_counter() - t0
    if acc <= 0 or len(table) != SLICE_STEPS:
        raise RuntimeError("calibration loop went wrong")
    return dt


class Calibration:
    """Runs a calibration slice on a timer signal every SLICE_EVERY seconds
    while a pass runs.

    On a shared 2-core host the speed drifted by up to 2x within seconds
    (Python 3.11, numpy 2.4).  Slices spread over
    the whole pass follow that drift far better than a loop run only
    before and after it, so pass time over mean slice time stays steady.
    """

    def __enter__(self):
        self.slices = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY, SLICE_EVERY)
        return self

    def _tick(self, signum, frame):
        self.slices.append(calibrate())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)


def check_checkout() -> None:
    """Put this checkout's src/ first on sys.path and refuse to run unless
    qfiber imports from there."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("qfiber")
    if spec is None or spec.origin is None:
        raise SetupError(f"no qfiber package under {SRC}")
    if Path(spec.origin).resolve().parent.parent != SRC:
        raise SetupError(f"qfiber imports from {spec.origin}, not {SRC}")


def setup(jobs_of, seed: int) -> tuple:
    """Set up SETUP_REPS times: import qfiber afresh and build one pass's
    inputs.  Only the first repetition loads numpy.

    Returns the median set-up time in seconds, raw and scaled to the
    reference host speed (a calibration slice taking REFERENCE_SLICE_S),
    from slices run just before and after each set-up.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules
                     if n == "qfiber" or n.startswith("qfiber.")]:
            del sys.modules[name]
        before = calibrate()
        t0 = time.perf_counter()
        importlib.import_module("qfiber.cli")
        jobs_of(seed)
        dt = time.perf_counter() - t0
        speed = REFERENCE_SLICE_S / ((before + calibrate()) / 2)
        raw.append(dt)
        scaled.append(dt * speed)
    return statistics.median(raw), statistics.median(scaled)


def _more(times: list, started: float, seconds: float, least: int) -> bool:
    """Closed loop: run another pass while fewer than `least` are done or
    the next one (predicted at the median so far) ends in time."""
    if len(times) < least:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


def measure(jobs_of, seed: int, seconds: float, tally: Tally) -> dict:
    setup_raw, setup_s = setup(jobs_of, seed)
    times, rels = [], []
    started = time.perf_counter()
    while _more(times, started, seconds, MIN_PASSES):
        with Calibration() as cal:
            t0 = time.perf_counter()
            run_pass(jobs_of, seed, tally)
            dt = time.perf_counter() - t0 - sum(cal.slices)
        slices = cal.slices or [calibrate()]
        times.append(dt)
        rels.append(dt / statistics.mean(slices))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = [
        _line("pass_s", statistics.median(times), "s",
              f"median of {len(times)} passes, min {min(times):.3f},"
              f" max {max(times):.3f}"),
        _line("pass_rel", statistics.median(rels), "ratio",
              f"median of {len(rels)} passes; pass time over mean"
              f" calibration slice time"),
        _line("setup_s", setup_s, "s",
              f"median of {SETUP_REPS} set-ups at the reference speed"
              f" ({setup_raw:.4f} s as measured)"),
        _line("peak_rss_mb", rss_mb, "MB", "peak RSS of this process"),
        _line("error_rate", tally.failed / max(tally.attempted, 1), "ratio",
              f"{tally.failed} failed of {tally.attempted} reports"),
    ]
    print("\n".join(text for text, _ in lines))
    # pass_s is printed only: identical work reads 7.5 s or 11.2 s as the
    # host drifts, which no bound of BENCHMARK.json absorbs.  error_rate is
    # carried by "failed" and "attempted".
    return {k: m for _, (k, m) in lines if k not in ("pass_s", "error_rate")}


def _line(name, value, unit, note):
    return (f"  {name:<12} {value:>12.6g} {unit:<6} {note}",
            (name, {"value": value, "unit": unit}))


def measure_traced(jobs_of, seed: int, seconds: float, tally: Tally) -> tuple:
    """Alternate traced and untraced passes; per-layer metrics of the
    traced ones.  Returns (metrics, counts agree)."""
    from layers import Tracer, installed, layer_metrics, span_table

    setup(jobs_of, seed)
    traced, untraced, per_pass, first_spans = [], [], [], None
    started = time.perf_counter()
    # at least traced, untraced, traced: two traced passes to compare
    while _more(traced + untraced, started, seconds, 3):
        t0 = time.perf_counter()
        if len(traced) <= len(untraced):
            tracer = Tracer()
            with installed(tracer):
                run_pass(jobs_of, seed, tally, tracer)
            traced.append(time.perf_counter() - t0)
            per_pass.append(layer_metrics(tracer.spans))
            first_spans = first_spans or tracer.spans
        else:
            run_pass(jobs_of, seed, tally)
            untraced.append(time.perf_counter() - t0)
    counts = [c for c, _ in per_pass]
    agree = all(c == counts[0] for c in counts)
    if not agree:
        for k in counts[0]:
            values = [c[k] for c in counts]
            if len(set(values)) > 1:
                print(f"  count {k} differs between traced passes: {values}")
    print(f"  spans of the first traced pass ({len(traced)} traced,"
          f" {len(untraced)} untraced passes):")
    print(f"  {'span':<28} {'calls':>8} {'incl s':>10} {'self s':>10}")
    for name, n, incl, own in span_table(first_spans):
        print(f"  {name:<28} {n:>8} {incl:>10.4f} {own:>10.4f}")
    metrics = {k: {"value": v, "unit": "count"} for k, v in counts[0].items()}
    for key in per_pass[0][1]:
        metrics[key] = {"value": statistics.median(s[key] for _, s in per_pass),
                        "unit": "s"}
    pass_s = statistics.median(traced)
    metrics["trace.pass_s"] = {"value": pass_s, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": pass_s - statistics.median(untraced), "unit": "s"}
    for key, m in metrics.items():
        print(f"  {key:<28} {m['value']:>12.6g} {m['unit']}")
    return metrics, agree


def run_workload(args) -> int:
    jobs_of = {**WORKLOADS, **BY_HAND}[args.workload]
    try:
        check_checkout()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s,"
          f" trace {args.trace}: one client, closed loop, --jobs 1")
    tally = Tally()
    try:
        if args.trace:
            metrics, agree = measure_traced(jobs_of, args.seed, args.seconds,
                                            tally)
        else:
            metrics, agree = measure(jobs_of, args.seed, args.seconds,
                                     tally), True
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if tally.first_problem:
        print(f"  first failure: {tally.first_problem}")
    print(json.dumps({"correct": tally.failed == 0 and agree,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each listed workload in a process of its own, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<10} {'metric':<28} {'value':>12} unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<10} {key:<28} {m['value']:>12.6g} {m['unit']}")
        rate = res["failed"] / res["attempted"]
        print(f"{name:<10} {'error_rate':<28} {rate:>12.6g} ratio"
              f" ({res['failed']} of {res['attempted']} reports)")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, *BY_HAND, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; at least a few passes always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
