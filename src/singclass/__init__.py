"""Exact symbolic engine for singularity/basic class expansions of genus-0
curve-to-curve maps and the completed-cycle calculus that mirrors them.

The package root is lazy: ``import singclass`` loads no submodule, and the
first access to a public name (``singclass.X`` or ``from singclass import *``)
imports the module that defines it (PEP 562).  So a CLI call pays only for
the modules its verb runs.
"""

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(
        ("BASIC", "SINGULARITY", "ClassExpr", "basic_to_sing", "point_coefficient_psi",
         "psi_power_sing", "product_expansion", "sing_to_basic", "substitute"),
        "classes",
    ),
    **dict.fromkeys(
        ("CycleExpr", "aut_count", "central_character", "mn_character", "profiles_with_sum",
         "shifted_power_sum"),
        "combinatorics",
    ),
    **dict.fromkeys(
        ("completed_cycle", "evaluate", "genus0_part", "multiply_central",
         "point_coefficient_delta", "rho", "verify_in_group_algebra", "x_polynomial"),
        "cycles",
    ),
    **dict.fromkeys(("parse_class", "render_class"), "grammar"),
    **dict.fromkeys(("parse_cycles", "render_cycles"), "notation"),
    **dict.fromkeys(
        ("HurwitzCoordinates", "RationalFunction", "canonical_function", "hurwitz_coordinates",
         "profile_constants", "reassemble"),
        "local_models",
    ),
    **dict.fromkeys(("MarkedTree", "canonicalize"), "trees"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
