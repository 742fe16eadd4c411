"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of each qfiber layer from here, so
nothing under src/ changes.  A function is replaced at every module
attribute that holds it (its defining module and each ``from .x import f``
site); methods are replaced on their class.  Each call records a span
(name, start, end, parent, sizes) in memory; per-layer self times and
work counts are derived from the spans after the pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np


def _groebner_sizes(args, kwargs, out):
    return len(args[1]), len(out.polys)


def _matrix_sizes(*arrays):
    cells, cols = 0, 0
    for a in arrays:
        shape = np.shape(a)
        rows, width = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
        cells += rows * width
        cols = max(cols, width)
    return cells, cols


def _one_matrix(args, kwargs, out):
    return _matrix_sizes(args[0])


def _mat_mul(args, kwargs, out):
    return _matrix_sizes(args[0], args[1])


def _kernel_intersection(args, kwargs, out):
    # the blocks are consumed lazily; each one is counted by the mat_mul
    # call that applies it, so only the column count is taken here
    return 0, args[1]


def _factor_count(args, kwargs, out):
    return (len(out),)


# (module, attribute, sizer): the layer boundaries the benchmark wraps.
# Ideal.krull_dim, Ideal.saturate, Ideal.eliminate and hilbert_data are
# wrapped only so that groebner() calls can be split by their caller.
TARGETS = (
    ("qfiber.scenarios", "gen_quadric_graph", None),
    ("qfiber.scenarios", "gen_EI_model", None),
    ("qfiber.scenarios", "gen_fatpoint_model", None),
    ("qfiber.scenarios", "gen_reye", None),
    ("qfiber.groebner", "groebner", _groebner_sizes),
    ("qfiber.groebner", "GroebnerBasis.normal_form", None),
    ("qfiber.groebner", "Ideal.krull_dim", None),
    ("qfiber.groebner", "Ideal.saturate", None),
    ("qfiber.groebner", "Ideal.eliminate", None),
    ("qfiber.groebner", "hilbert_data", None),
    ("qfiber.excess", "conormal_restricted", None),
    ("qfiber.excess", "conormal_in_X", None),
    ("qfiber.excess", "q_module", None),
    ("qfiber.excess", "minimal_presentation", None),
    ("qfiber.linalg", "rref", _one_matrix),
    ("qfiber.linalg", "nullspace", _one_matrix),
    ("qfiber.linalg", "kernel_intersection", _kernel_intersection),
    ("qfiber.linalg", "mat_mul", _mat_mul),
    ("qfiber.zerodim", "ArtinianAlgebra.from_ideal", None),
    ("qfiber.zerodim", "local_decompose", _factor_count),
    ("qfiber.zerodim", "tangent_data", None),
    ("qfiber.invariants", "licci_check", None),
    ("qfiber.invariants", "qlength_verify", None),
)

SCENARIO_BUILDS = ("gen_quadric_graph", "gen_EI_model", "gen_fatpoint_model",
                   "gen_reye")
LINALG = ("rref", "nullspace", "kernel_intersection", "mat_mul")

# groebner() calls split by the span that called them
GROEBNER_SPLIT = {
    "conormal_restricted": "big",
    "conormal_in_X": "small",
    "Ideal.krull_dim": "check",
    "Ideal.saturate": "ideal",
    "Ideal.eliminate": "ideal",
    "hilbert_data": "ideal",
    "ArtinianAlgebra.from_ideal": "zalg",
}


class Tracer:
    """In-memory span recorder.

    spans[i] = (name, start, end, parent index or -1, sizes or None).
    Calls nest strictly (one thread), so a span's children lie inside it.
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, sizer=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                sizes = sizer(args, kwargs, out) if sizer and out is not None \
                    else None
                spans[idx] = (name, start, end, parent, sizes)

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every target with its traced wrapper; restore on exit."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "qfiber" or name.startswith("qfiber.")]
    try:
        for modname, attr, sizer in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(attr, raw.__func__, sizer))
                else:
                    new = tracer.wrap(attr, raw, sizer)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            fn = getattr(mod, attr)
            new = tracer.wrap(attr, fn, sizer)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    setattr(m, key, new)
                    undo.append((m, key, fn))
        yield tracer
    finally:
        for owner, key, old in reversed(undo):
            setattr(owner, key, old)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> tuple:
    """Per-layer work counts and self times of one traced pass.

    Returns (counts, seconds), two dicts keyed by metric name.
    """
    own = self_times(spans)
    calls: dict = {}
    secs: dict = {}
    counts = dict.fromkeys(
        ("groebner.input_gens", "groebner.basis_polys", "groebner.basis_max",
         "groebner.big_basis", "groebner.small_basis", "linalg.cells",
         "linalg.max_cols", "zerodim.local_factors"), 0)
    split = dict.fromkeys(
        (f"groebner.{side}_s" for side in GROEBNER_SPLIT.values()), 0.0)
    for (name, _, _, parent, sizes), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + t
        if sizes is None:  # the call raised; the pass is counted as failed
            continue
        if name == "groebner":
            counts["groebner.input_gens"] += sizes[0]
            counts["groebner.basis_polys"] += sizes[1]
            counts["groebner.basis_max"] = max(counts["groebner.basis_max"],
                                               sizes[1])
            side = GROEBNER_SPLIT.get(spans[parent][0]) if parent >= 0 else None
            if side:
                split[f"groebner.{side}_s"] += t
                if side in ("big", "small"):
                    counts[f"groebner.{side}_basis"] += sizes[1]
        elif name in LINALG:
            counts["linalg.cells"] += sizes[0]
            counts["linalg.max_cols"] = max(counts["linalg.max_cols"], sizes[1])
        elif name == "local_decompose":
            counts["zerodim.local_factors"] += sizes[0]

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    counts.update({
        "scenarios.build_calls": total(SCENARIO_BUILDS, calls),
        "groebner.calls": calls.get("groebner", 0),
        "groebner.nf_calls": calls.get("GroebnerBasis.normal_form", 0),
        "linalg.calls": total(LINALG, calls),
        "invariants.licci_calls": calls.get("licci_check", 0),
    })
    seconds = {
        "scenarios.build_s": total(SCENARIO_BUILDS, secs),
        "groebner.s": secs.get("groebner", 0.0),
        **split,
        "groebner.nf_s": secs.get("GroebnerBasis.normal_form", 0.0),
        "excess.big_s": secs.get("conormal_restricted", 0.0),
        "excess.small_s": secs.get("conormal_in_X", 0.0),
        "excess.defect_s": secs.get("q_module", 0.0),
        "excess.present_s": secs.get("minimal_presentation", 0.0),
        "linalg.s": total(LINALG, secs),
        "zerodim.algebra_s": secs.get("ArtinianAlgebra.from_ideal", 0.0),
        "zerodim.local_s": secs.get("local_decompose", 0.0),
        "zerodim.tangent_s": secs.get("tangent_data", 0.0),
        "invariants.licci_s": secs.get("licci_check", 0.0),
        "invariants.verify_s": secs.get("qlength_verify", 0.0),
    }
    return counts, seconds


def span_table(spans) -> list:
    """Rows (name, calls, inclusive s, self s), largest self time first."""
    own = self_times(spans)
    rows: dict = {}
    for (name, start, end, _, _), t in zip(spans, own):
        r = rows.setdefault(name, [0, 0.0, 0.0])
        r[0] += 1
        r[1] += end - start
        r[2] += t
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[3])
