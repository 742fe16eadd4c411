"""qfiber: excess-intersection invariants of finite schemes over prime fields.

The package computes, for a pair of subschemes cut out by polynomial ideals
with finite intersection, the length of a canonically attached quotient of
dual modules, the normalized ratio built from it, and a collection of
companion invariants (tangent-space dimensions, first-order deformations,
regularity, linkage heuristics, multiplicity bounds).  All computations run
over F_p with exact integer arithmetic; no floating point touches any
mathematical value.
"""

from .algebra import FieldSpec, PolyRing
from .excess import (
    ExcessIntersection,
    minimal_presentation,
    q_affine_pair,
    q_module,
    symmetry_check,
)
from .groebner import Ideal, ResourceAbort, pair_budget
from .invariants import (
    cnr_constant,
    corank_fiber_lower_bound,
    licci_check,
    mather_bound,
    plane_sweep_report,
    secant_sweep_bound,
)
from .parser import ParseError, parse_ideal
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
from .zerodim import cm_regularity

__version__ = "0.1.0"

# Everything else is imported from its submodule (qfiber.excess, ...).
__all__ = [
    # what the README and demos/ import
    "FieldSpec",
    "Ideal",
    "PolyRing",
    "Seed",
    "cm_regularity",
    "cnr_constant",
    "corank_fiber_lower_bound",
    "gen_EI_model",
    "gen_ci_secant",
    "gen_fatpoint_model",
    "gen_quadric_graph",
    "gen_reye",
    "licci_check",
    "mather_bound",
    "minimal_presentation",
    "parse_ideal",
    "plane_sweep_report",
    "q_affine_pair",
    "q_module",
    "reye_trisecant",
    "scenario_text",
    "secant_sweep_bound",
    "secant_through_point",
    "symmetry_check",
    # the S-pair budget of every Groebner basis run
    "pair_budget",
    # the errors a caller may catch
    "ExcessIntersection",
    "ParseError",
    "ResourceAbort",
]
