"""Closed-form bound calculators and inequality cross-checks.

The checks come in two strengths.  Bounds certified by the underlying
results are asserted: a False `satisfied` on those is a genuine failure.
Checks whose hypotheses we cannot certify computationally only report
which way the inequality went.
Everything here is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .excess import QReport, minimal_generators
from .groebner import Ideal
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
            "passed": self.passed,
        }


def qlength_verify(report: QReport, verdict: LicciVerdict, *,
                   component_verdicts=None,
                   non_licci_certified: bool = False) -> QLengthCheck:
    """Check the licci/length dichotomy against a computed scenario report.

    The hypotheses (smooth first argument, complete intersection second,
    positive excess codimension, finite intersection) are the caller's to
    attest; they are not re-derivable from the report.
    component_verdicts, when given, holds one verdict per factor of
    report.factors, in order (so it aligns with report.per_component), and
    enables the decomposition bound: licci components contribute their
    full length, the rest their residue degree times the floor constant.
    """
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
    decomposition_bound = None
    decomposition_holds = None
    if component_verdicts is not None:
        if len(component_verdicts) != len(report.factors):
            raise ValueError("one verdict per component required")
        decomposition_bound = sum(
            (f.length if v.is_licci else floor_bound * f.residue_degree
             for f, v in zip(report.factors, component_verdicts)),
            Fraction(0))
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
                        all(required))


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
