"""Closed-form bound calculators and inequality cross-checks.

The checks come in two strengths.  Bounds certified by the underlying
results are asserted: a False `satisfied` on those is a genuine failure.
Conjecture-flavoured comparisons and checks whose hypotheses we cannot
certify computationally only report which way the inequality went.
Everything here is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import FieldSpec, PolyRing, random_poly
from .excess import QReport, minimal_generators
from .groebner import Ideal, hilbert_data
from .rng import Stream
from .zerodim import ArtinianAlgebra, zariski_tangent_dim

LICCI = "Licci"
UNKNOWN = "Unknown"


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality, observed against bound, with its labels."""

    bound_value: Fraction
    observed_value: Fraction
    satisfied: bool
    context: dict

    def to_json_dict(self) -> dict:
        return {
            "bound_value": _frac_str(self.bound_value),
            "observed_value": _frac_str(self.observed_value),
            "satisfied": self.satisfied,
            "context": dict(self.context),
        }


def mather_bound(n: int, c: int, coranks) -> BoundReport:
    """Multi-point corank bound: sum of d_i^2/c + d_i + 1 against n/c + 1.

    A fiber of a finite map X^n -> P^(n+c) with points of tangential
    corank d_i can only exist when the sum stays under the bound.
    """
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    coranks = list(coranks)
    if not coranks:
        raise ValueError("a fiber has at least one point")
    if any(d < 0 for d in coranks):
        raise ValueError("coranks are non-negative")
    lhs = sum(Fraction(d * d, c) + d + 1 for d in coranks)
    rhs = Fraction(n, c) + 1
    return BoundReport(rhs, lhs, lhs <= rhs,
                       {"n": n, "c": c, "coranks": coranks})


def corank_fiber_lower_bound(d: int) -> int:
    """Minimal fiber length forced by one corank-d point: C(d+1, ceil(d/2))."""
    if d < 0:
        raise ValueError("corank is non-negative")
    return comb(d + 1, (d + 1) // 2)


def secant_sweep_bound(n: int, l: int) -> BoundReport:
    """Dimension swept by l-secant lines of an n-fold: at most nl/(l-1) + 1.

    observed_value carries the integer floor, the largest dimension an
    actual sweep can achieve.
    """
    if l < 2:
        raise ValueError("secancy needs l >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    bound = Fraction(n * l, l - 1) + 1
    achievable = bound.numerator // bound.denominator
    return BoundReport(bound, Fraction(achievable), True,
                       {"n": n, "l": l, "floor": achievable})


def plane_sweep_bound(n: int, r: int, l: int, t: int) -> Fraction:
    """Sweep bound for t-planes meeting an n-fold in degree >= l schemes."""
    if t < 2:
        raise ValueError("need t >= 2: the formula divides by C(t,2)")
    if r < 3:
        raise ValueError("ambient projective space needs r >= 3")
    return Fraction(comb(t + 1, 2) * (r - 2) - l * (r - 2 - n),
                    comb(t, 2)) + 2


def plane_sweep_report(n: int, r: int, l: int, t: int) -> BoundReport:
    """plane_sweep_bound packaged with the ambient clamp.

    Bounds above r carry no information (nothing in P^r exceeds dimension
    r); the report clamps observed_value and notes the vacuity.
    """
    value = plane_sweep_bound(n, r, l, t)
    clamped = min(value, Fraction(r))
    ctx = {"n": n, "r": r, "l": l, "t": t}
    if value > r:
        ctx["note"] = "bound exceeds the ambient dimension; vacuous"
    return BoundReport(value, clamped, True, ctx)


def cnr_constant(n: int, r: int) -> int:
    """Secant-correction constant: sum of (i-2)*C(r-n-2+i, i), i = 3..n+1."""
    if n < 1 or r <= n:
        raise ValueError("need r > n >= 1")
    return sum((i - 2) * comb(r - n - 2 + i, i) for i in range(3, n + 2))


# --- licci sufficient conditions ---------------------------------------------


@dataclass(frozen=True)
class LicciVerdict:
    """Outcome of the sufficient-condition ladder.

    status Licci always names the rule that fired; Unknown never asserts
    non-licciness (the ladder is one-sided).
    """

    status: str
    rule: str | None

    @property
    def is_licci(self) -> bool:
        return self.status == LICCI

    def to_json_dict(self) -> dict:
        return {"status": self.status, "rule": self.rule}


def licci_check(ideal: Ideal) -> LicciVerdict:
    """First sufficient licci condition that fires, else Unknown.

    Ladder order: complete intersection; codimension at most 2; at most 4
    minimal generators; Zariski tangent dimension at most 2; almost
    complete intersection with tangent dimension at most 3.  mu is read
    off the syzygies of the ideal's basis at the origin and checked
    against the Koszul count (minimal_generators), on the one algebra of
    the ideal; (maximal ideal) * ideal gets no basis.
    """
    alg = ArtinianAlgebra.from_ideal(ideal)
    if not alg.at_origin():
        raise ValueError("licci ladder needs an ideal local at the origin")
    mu = len(minimal_generators(alg))
    codim = ideal.ring.nvars
    tdim = zariski_tangent_dim(ideal)
    if mu == codim:
        return LicciVerdict(LICCI, "CI")
    if codim <= 2:
        return LicciVerdict(LICCI, "codim<=2")
    if mu <= 4:
        return LicciVerdict(LICCI, "mu<=4")
    if tdim <= 2:
        return LicciVerdict(LICCI, "tangent<=2")
    if mu == codim + 1 and tdim <= 3:
        return LicciVerdict(LICCI, "almost-CI-tangent<=3")
    return LicciVerdict(UNKNOWN, None)


@dataclass(frozen=True)
class QLengthCheck:
    """Dichotomy evaluation: licci forces q = deg Z, otherwise q >= mu/c.

    The floor bound max(1 + 3/c, 5/c) and the per-component decomposition
    bound are certified only for established non-licci inputs, so they
    gate `passed` only when the caller sets non_licci_certified.
    """

    verdict: LicciVerdict
    q: Fraction
    deg_z: int
    equality_required: bool
    equality_holds: bool
    mu_over_c: Fraction
    mu_bound_holds: bool
    floor_bound: Fraction
    floor_bound_holds: bool
    floor_bound_required: bool
    decomposition_bound: Fraction | None
    decomposition_holds: bool | None
    note: str
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.to_json_dict(),
            "q": _frac_str(self.q),
            "deg_Z": self.deg_z,
            "equality_required": self.equality_required,
            "equality_holds": self.equality_holds,
            "mu_over_c": _frac_str(self.mu_over_c),
            "mu_bound_holds": self.mu_bound_holds,
            "floor_bound": _frac_str(self.floor_bound),
            "floor_bound_holds": self.floor_bound_holds,
            "floor_bound_required": self.floor_bound_required,
            "decomposition_bound": (None if self.decomposition_bound is None
                                    else _frac_str(self.decomposition_bound)),
            "decomposition_holds": self.decomposition_holds,
            "note": self.note,
            "passed": self.passed,
        }


def qlength_verify(report: QReport, verdict: LicciVerdict, *,
                   attested: bool = False,
                   component_verdicts=None,
                   component_reduced_degrees=None,
                   non_licci_certified: bool = False) -> QLengthCheck:
    """Check the licci/length dichotomy against a computed scenario report.

    The caller must attest the hypotheses (smooth first argument, complete
    intersection second, positive excess codimension, finite intersection);
    they are not re-derivable from the report.  component_verdicts, when
    given, holds one verdict per factor of report.factors, in order (so it
    aligns with report.per_component), and enables the decomposition
    bound: licci components contribute their full length, the rest
    contribute reduced degree (default 1 each; pass
    component_reduced_degrees to override) times the floor constant.
    """
    if not attested:
        raise ValueError("hypotheses must be attested by the caller")
    if report.q is None or report.c is None:
        raise ValueError("needs a scenario report with q defined")
    c = report.c
    q = report.q
    equality_required = verdict.is_licci
    equality_holds = q == Fraction(report.deg_z)
    mu_over_c = Fraction(report.mu_q, c)
    mu_bound_holds = q >= mu_over_c
    floor_bound = max(1 + Fraction(3, c), Fraction(5, c))
    floor_bound_holds = q >= floor_bound
    floor_bound_required = non_licci_certified and not verdict.is_licci
    notes = []
    decomposition_bound = None
    decomposition_holds = None
    if component_verdicts is not None:
        comps = report.per_component
        if len(component_verdicts) != len(comps):
            raise ValueError("one verdict per component required")
        if component_reduced_degrees is None:
            component_reduced_degrees = (1,) * len(comps)
            notes.append("reduced degrees defaulted to 1 per component; "
                         "lengths are counted over the ground field")
        decomposition_bound = Fraction(0)
        for (length, _, _), v, red in zip(comps, component_verdicts,
                                          component_reduced_degrees):
            if v.is_licci:
                decomposition_bound += length
            else:
                decomposition_bound += floor_bound * red
        decomposition_holds = q >= decomposition_bound
    required = [mu_bound_holds]
    if equality_required:
        required.append(equality_holds)
    if floor_bound_required:
        required.append(floor_bound_holds)
        if decomposition_holds is not None:
            required.append(decomposition_holds)
    return QLengthCheck(verdict, q, report.deg_z, equality_required,
                        equality_holds, mu_over_c, mu_bound_holds,
                        floor_bound, floor_bound_holds, floor_bound_required,
                        decomposition_bound, decomposition_holds,
                        "; ".join(notes), all(required))


def main1_report(report: QReport, n: int) -> BoundReport:
    """Report q against n/c + 1, c the report's excess codimension.

    Informational: constructed local models are not certified fibers of
    generic projections, so a violation is labeled, never asserted.
    """
    if report.q is None:
        raise ValueError("report has no q value")
    c = report.c
    bound = Fraction(n, c) + 1
    ok = report.q <= bound
    ctx = {"n": n, "c": c, "label": "generic-projection"}
    if not ok:
        ctx["note"] = "not a generic-projection fiber"
    return BoundReport(bound, report.q, ok, ctx)


def reg_vs_q_report(reg: int, report: QReport) -> BoundReport:
    """Conjecture-context comparison reg Z <= q; reported, never asserted."""
    if report.q is None:
        raise ValueError("report has no q value")
    return BoundReport(report.q, Fraction(reg), Fraction(reg) <= report.q,
                       {"label": "conjecture-context", "reg": reg})


# --- the Hilbert-function experiment behind the corank bound ------------------


@dataclass(frozen=True)
class Prop22Result:
    """Evidence record for the corank fiber bound's two counting claims."""

    d: int
    seed: int
    ci_hilbert: tuple
    binomials: tuple
    peak_index: int
    dropped_length: int
    expected_length: int
    attempts: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "seed": self.seed,
            "ci_hilbert": list(self.ci_hilbert),
            "binomials": list(self.binomials),
            "peak_index": self.peak_index,
            "dropped_length": self.dropped_length,
            "expected_length": self.expected_length,
            "attempts": self.attempts,
            "passed": self.passed,
        }


def prop22_experiment(d: int, seed: int, p: int = 32003) -> Prop22Result:
    """Seeded Hilbert-function experiment at corank d.

    Two checks: d+1 general quadrics in d+1 variables form a complete
    intersection whose graded Hilbert function is the full binomial row
    C(d+1, m); the same count of general quadrics in only d variables
    leaves an artinian quotient of total length C(d+1, ceil(d/2)), the
    peak of that row.  Degenerate samples are redrawn, budget 8.
    """
    if not 1 <= d <= 6:
        raise ValueError("desk scale covers 1 <= d <= 6")
    field = FieldSpec(p)
    stream = Stream(seed)
    peak = (d + 1) // 2
    binomials = tuple(comb(d + 1, m) for m in range(d + 2))

    def sample(nvars: int, label: int, ok):
        ring = PolyRing(field, tuple(f"y{i}" for i in range(1, nvars + 1)))
        for trial in range(8):
            st = stream.fork(label + trial)
            gens = [random_poly(ring, 2, st.fork(i), homogeneous=True)
                    for i in range(d + 1)]
            hd = hilbert_data(Ideal(ring, gens))
            if hd.krull_dim == 0 and ok(hd.degree):
                return hd, trial + 1
        raise RuntimeError(f"degenerate quadric samples from seed {seed}")

    ci, tries_ci = sample(d + 1, 0, lambda deg: deg == 2 ** (d + 1))
    ci_hf = tuple(ci.hf(m) for m in range(d + 2))
    dropped, tries_drop = sample(d, 64, lambda deg: deg == binomials[peak])
    passed = ci_hf == binomials and dropped.degree == binomials[peak]
    return Prop22Result(d, seed, ci_hf, binomials, peak, dropped.degree,
                        binomials[peak], tries_ci + tries_drop, passed)
