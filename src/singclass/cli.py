"""Command-line front end.

One verb per invocation; output format is text (default), json or latex.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 constraint
violation.  The environment variable SINGCLASS_MAX_CODIM (default 8) caps
the expansion depth of class-producing commands and of verify --max-m.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import classes, cycles, grammar, local_models, verification
from .classes import BASIC, SINGULARITY
from .errors import ConstraintError, ParseError, SingclassError
from .exact import format_rational

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3

_FORMATS = ("text", "json", "latex")


def _codim_cap() -> int:
    raw = os.environ.get("SINGCLASS_MAX_CODIM", "8")
    try:
        cap = int(raw)
    except ValueError:
        raise ConstraintError(f"SINGCLASS_MAX_CODIM must be an integer, got {raw!r}")
    if cap < 0:
        raise ConstraintError("SINGCLASS_MAX_CODIM must be nonnegative")
    return cap


def _check_depth(n: int):
    cap = _codim_cap()
    if n > cap:
        raise ConstraintError(
            f"expansion depth {n} exceeds the cap {cap} (set SINGCLASS_MAX_CODIM to raise it)"
        )


# grammar's emitter for each format, spelled for kind "class", "cycles" or "xpoly"
_EMITTERS = {"text": "render_{}", "latex": "render_{}_latex", "json": "{}_to_json"}


def _print_expr(kind: str, value, fmt: str):
    print(getattr(grammar, _EMITTERS[fmt].format(kind))(value))


def _print_value(value, fmt: str):
    if fmt == "json":
        print(json.dumps({"value": str(value)}))
    else:
        print(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singclass",
        description="Exact singularity/basic class expansions and completed-cycle calculus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=_FORMATS, default="text")
        return p

    p = add("product", "expansion of prod_{r=1}^m (r*psi - xi)")
    p.add_argument("m", type=int)

    p = add("psi", "expansion of psi^m in singularity classes")
    p.add_argument("m", type=int)

    p = add("to-sing", "convert a class expression to the singularity basis")
    p.add_argument("expression")

    p = add("to-basic", "convert a class expression to the basic basis")
    p.add_argument("expression")

    p = add("completed-cycle", "the completed (m+1)-cycle")
    p.add_argument("m", type=int)
    p.add_argument("--genus0", action="store_true", help="keep only the maximal-order terms")

    p = add("x-poly", "the coefficient polynomial in the variables x_k")
    p.add_argument("m", type=int)
    p.add_argument("--raw", action="store_true", help="without the 1/m! normalization")

    p = add("multiply-cycles", "product of two stable central elements")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--verify-at", type=int, metavar="N", default=None,
                   help="also verify the identity brute-force in S_N")

    p = add("char", "irreducible character value chi^lambda(mu)")
    p.add_argument("partition")
    p.add_argument("cycle_type")

    p = add("coeff", "point-class coefficient extractors")
    p.add_argument("which", choices=("psi", "delta"))
    p.add_argument("args", nargs="+",
                   help="psi: M PROFILE [--raw via flag]; delta: MS PROFILE")
    p.add_argument("--raw", action="store_true",
                   help="psi only: the variant scaled by m!")

    p = add("local-model", "Hurwitz coordinates of the canonical pole function")
    p.add_argument("profile")
    p.add_argument("x")
    p.add_argument("poles", help="comma-separated pole locations, one per branch")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verification.SUITES))
    p.add_argument("--max-m", type=int, default=None)

    return parser


def _cmd_product(args) -> int:
    if args.m < 1:
        raise ConstraintError("m must be >= 1")
    _check_depth(args.m)
    _print_expr("class", classes.product_expansion(args.m), args.format)
    return EXIT_OK


def _cmd_psi(args) -> int:
    if args.m < 0:
        raise ConstraintError("m must be nonnegative")
    _check_depth(args.m)
    _print_expr("class", classes.psi_power_sing(args.m), args.format)
    return EXIT_OK


def _cmd_convert(args, target: str) -> int:
    expr = grammar.parse_class(args.expression, default_basis=target)
    if expr.total_codim is not None:
        _check_depth(expr.total_codim)
    if target == SINGULARITY:
        out = classes.basic_to_sing(expr) if expr.basis == BASIC else expr
    else:
        out = classes.sing_to_basic(expr) if expr.basis == SINGULARITY else expr
    _print_expr("class", out, args.format)
    return EXIT_OK


def _cmd_completed_cycle(args) -> int:
    if args.m < 0:
        raise ConstraintError("m must be nonnegative")
    _check_depth(args.m)
    element = cycles.completed_cycle(args.m)
    if args.genus0:
        element = cycles.genus0_part(element, args.m)
    _print_expr("cycles", element, args.format)
    return EXIT_OK


def _cmd_x_poly(args) -> int:
    if args.m < 0:
        raise ConstraintError("m must be nonnegative")
    _check_depth(args.m)
    _print_expr("xpoly", cycles.x_polynomial(args.m, normalized=not args.raw), args.format)
    return EXIT_OK


def _cmd_multiply_cycles(args) -> int:
    p1 = grammar.parse_profile(args.p1)
    p2 = grammar.parse_profile(args.p2)
    product = cycles.multiply_central(p1, p2)
    _print_expr("cycles", product, args.format)
    if args.verify_at is not None:
        ok = cycles.verify_in_group_algebra(p1, p2, product, args.verify_at)
        print(f"group-algebra check at N={args.verify_at}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_char(args) -> int:
    lam = grammar.parse_partition(args.partition)
    mu = grammar.parse_partition(args.cycle_type)
    from .combinatorics import mn_character

    _print_value(mn_character(lam, mu), args.format)
    return EXIT_OK


def _cmd_coeff(args) -> int:
    if args.which == "psi":
        if len(args.args) != 2:
            raise ConstraintError("coeff psi expects: M PROFILE")
        try:
            m = int(args.args[0])
        except ValueError:
            raise ParseError(f"bad integer M: {args.args[0]!r}") from None
        profile = grammar.parse_profile(args.args[1])
        value = classes.point_coefficient_psi(m, profile, raw=args.raw)
    else:
        if len(args.args) != 2:
            raise ConstraintError("coeff delta expects: MS PROFILE")
        ms_text = args.args[0].strip()
        if ms_text.startswith("[") and ms_text.endswith("]"):
            ms_text = ms_text[1:-1]
        try:
            ms = [int(x) for x in ms_text.split(",")] if ms_text else []
        except ValueError:
            raise ParseError(f"bad exponent list: {args.args[0]!r}")
        profile = grammar.parse_profile(args.args[1])
        value = classes.point_coefficient_delta(ms, profile)
    _print_value(format_rational(value), args.format)
    return EXIT_OK


def _cmd_local_model(args) -> int:
    profile = grammar.parse_profile(args.profile)
    try:
        x = Fraction(args.x)
        poles = [Fraction(z) for z in args.poles.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParseError("x and poles must be rationals like 2, -1, or 3/2")
    constants = local_models.profile_constants(profile)
    f = local_models.canonical_function(profile, x, poles)
    coords = local_models.hurwitz_coordinates(f, profile, poles)
    if args.format == "json":
        payload = {
            "profile": list(profile),
            "K": constants.lcm,
            "r": list(constants.exponents),
            "d": constants.components,
            "function": grammar.format_rational_function(f),
            "constant": format_rational(coords.constant),
            "branches": [
                {
                    "pole": format_rational(b.pole),
                    "order": b.order,
                    "u": format_rational(b.u),
                    "a": [format_rational(a) for a in b.tail],
                }
                for b in coords.branches
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"profile: {grammar.format_profile(profile)}")
        print(f"K = {constants.lcm}, r = {constants.exponents}, d = {constants.components}")
        print(f"f = {grammar.format_rational_function(f)}")
        for b in coords.branches:
            tail = ", ".join(format_rational(a) for a in b.tail) or "-"
            print(f"pole {format_rational(b.pole)}: k = {b.order}, u = {format_rational(b.u)}, a = {tail}")
        print(f"constant = {format_rational(coords.constant)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_m is not None:
        _check_depth(args.max_m)
    results = verification.run_suite(args.suite, args.max_m)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    handlers = {
        "product": _cmd_product,
        "psi": _cmd_psi,
        "to-sing": lambda a: _cmd_convert(a, SINGULARITY),
        "to-basic": lambda a: _cmd_convert(a, BASIC),
        "completed-cycle": _cmd_completed_cycle,
        "x-poly": _cmd_x_poly,
        "multiply-cycles": _cmd_multiply_cycles,
        "char": _cmd_char,
        "coeff": _cmd_coeff,
        "local-model": _cmd_local_model,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.verb](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except SingclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    raise SystemExit(main())
