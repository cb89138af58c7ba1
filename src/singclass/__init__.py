"""Exact symbolic engine for singularity/basic class expansions of genus-0
curve-to-curve maps and the completed-cycle calculus that mirrors them."""

from .classes import (
    BASIC,
    SINGULARITY,
    ClassExpr,
    basic_to_sing,
    point_coefficient_delta,
    point_coefficient_psi,
    psi_decomposition,
    psi_power_sing,
    sing_to_basic,
    product_expansion,
)
from .combinatorics import (
    aut_count,
    central_character,
    mn_character,
    profiles_with_sum,
    shifted_power_sum,
)
from .cycles import (
    CycleExpr,
    completed_cycle,
    genus0_equality_check,
    evaluate,
    genus0_part,
    multiply_central,
    rho,
    verify_in_group_algebra,
    x_polynomial,
)
from .exact import (
    PowerSeries,
    Rational,
    XiPolynomial,
    s_series,
    series_scale_arg,
)
from .grammar import parse_class, parse_cycles, render_class, render_cycles
from .local_models import (
    HurwitzCoordinates,
    RationalFunction,
    canonical_function,
    hurwitz_coordinates,
    profile_constants,
    reassemble,
)
from .trees import MarkedTree, canonicalize, codim, substitute, tree, vanishes

__version__ = "0.1.0"

__all__ = [
    "BASIC",
    "SINGULARITY",
    "ClassExpr",
    "CycleExpr",
    "HurwitzCoordinates",
    "MarkedTree",
    "PowerSeries",
    "Rational",
    "RationalFunction",
    "XiPolynomial",
    "aut_count",
    "basic_to_sing",
    "canonical_function",
    "canonicalize",
    "central_character",
    "codim",
    "completed_cycle",
    "genus0_equality_check",
    "evaluate",
    "genus0_part",
    "hurwitz_coordinates",
    "mn_character",
    "multiply_central",
    "parse_class",
    "parse_cycles",
    "point_coefficient_delta",
    "point_coefficient_psi",
    "profile_constants",
    "profiles_with_sum",
    "psi_decomposition",
    "psi_power_sing",
    "reassemble",
    "render_class",
    "render_cycles",
    "rho",
    "s_series",
    "series_scale_arg",
    "shifted_power_sum",
    "sing_to_basic",
    "substitute",
    "product_expansion",
    "tree",
    "vanishes",
    "verify_in_group_algebra",
    "x_polynomial",
]
