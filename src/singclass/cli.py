"""Command-line front end.

One verb per invocation; output format is text (default), json or latex.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 constraint
violation, 4 internal error (an exception that is not a SingclassError, so a
defect of singclass, reported on stderr as ``internal error: ...`` followed by
the traceback).  The environment variable SINGCLASS_MAX_CODIM (default 8) caps
the expansion depth of class-producing commands, of coeff and of verify --max-m;
char over 48 boxes and multiply-cycles over 2 400 000 point steps (a cycle tuple
or composition on N points is N steps) exit 3 as well.

Each call is a fresh process, and with no bytecode cache every module it
imports is compiled from source.  So the module top imports only notation
(the text of everything but class expressions) and errors, and each verb's
handler imports what it runs: the class verbs (product, psi, to-sing,
to-basic) load grammar and with it the class side, coeff psi loads classes,
the cycle verbs load cycles, only local-model loads local_models and only
verify loads verification; char loads nothing more.  The help formatters
are given argparse's own terminal width, read without shutil, which
argparse would otherwise import once per formatter it builds.  JSON is
written through notation's string escaper, and only local-model's json
format imports the json package, whose decoder no verb needs.

A process runs _entry (python -m and the installed script alike): it calls
main and then freezes the heap with gc.freeze, so that the collection
interpreter shutdown runs does not walk every object the call made.  main
leaves the collector alone, because tests and library callers run it in a
process that goes on.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from functools import partial

from . import notation
from .errors import ConstraintError, ParseError, SingclassError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_INTERNAL = 4

_FORMATS = ("text", "json", "latex")

# the names of verification.SUITES, sorted; a literal, so that parsing the
# arguments loads no verification module
_SUITES = ("appendix", "cycles", "equality", "ko", "roundtrip")


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


# the emitter for each format, spelled for kind "class" (in grammar), "cycles"
# or "xpoly" (in notation)
_EMITTERS = {"text": "render_{}", "latex": "render_{}_latex", "json": "{}_to_json"}


def _print_expr(module, kind: str, value, fmt: str):
    print(getattr(module, _EMITTERS[fmt].format(kind))(value))


def _print_value(value, fmt: str):
    if fmt == "json":
        print('{"value": ' + notation._json_str(str(value)) + "}")
    else:
        print(value)


def _terminal_width() -> int:
    """The width that argparse reads through shutil.get_terminal_size: COLUMNS
    if it is a positive int, else the columns of the terminal on stdout, else
    80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):  # stdout is None, closed or no terminal
        return 80


def _formatter():
    """argparse's help formatter at the width argparse computes (the terminal
    width minus 2), given up front: without a width, each of the formatters
    that building the parser makes, one per argument, imports shutil and
    with it fnmatch, zlib, bz2 and lzma."""
    return partial(argparse.HelpFormatter, width=_terminal_width() - 2)


def build_parser() -> argparse.ArgumentParser:
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="singclass",
        description="Exact singularity/basic class expansions and completed-cycle calculus",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
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

    p = sub.add_parser("verify", help="run a verification suite", formatter_class=formatter)
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--max-m", type=int, default=None)

    return parser


def _cmd_product(args) -> int:
    from . import classes, grammar

    _check_depth(args.m)
    _print_expr(grammar, "class", classes.product_expansion(args.m), args.format)
    return EXIT_OK


def _cmd_psi(args) -> int:
    from . import classes, grammar

    _check_depth(args.m)
    _print_expr(grammar, "class", classes.psi_power_sing(args.m), args.format)
    return EXIT_OK


def _cmd_convert(args) -> int:
    from . import classes, grammar

    target = classes.SINGULARITY if args.verb == "to-sing" else classes.BASIC
    expr = grammar.parse_class(args.expression, default_basis=target)
    if expr.degree is not None:
        _check_depth(expr.degree)
    if expr.basis == target:
        out = expr
    elif target == classes.SINGULARITY:
        out = classes.basic_to_sing(expr)
    else:
        out = classes.sing_to_basic(expr)
    _print_expr(grammar, "class", out, args.format)
    return EXIT_OK


def _cmd_completed_cycle(args) -> int:
    from . import cycles

    _check_depth(args.m)
    element = cycles.completed_cycle(args.m)
    if args.genus0:
        element = cycles.genus0_part(element, args.m)
    _print_expr(notation, "cycles", element, args.format)
    return EXIT_OK


def _cmd_x_poly(args) -> int:
    from . import cycles

    _check_depth(args.m)
    x_poly = cycles.x_polynomial(args.m, normalized=not args.raw)
    _print_expr(notation, "xpoly", x_poly, args.format)
    return EXIT_OK


def _cmd_multiply_cycles(args) -> int:
    from . import cycles

    p1 = notation.parse_profile(args.p1)
    p2 = notation.parse_profile(args.p2)
    product = cycles.multiply_central(p1, p2)
    # check before printing, so that a refused check leaves stdout empty
    ok = args.verify_at is None or cycles.verify_in_group_algebra(p1, p2, product, args.verify_at)
    _print_expr(notation, "cycles", product, args.format)
    if args.verify_at is not None:
        print(f"group-algebra check at N={args.verify_at}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_char(args) -> int:
    from .combinatorics import mn_character

    lam = notation.parse_partition(args.partition)
    mu = notation.parse_partition(args.cycle_type)
    _print_value(mn_character(lam, mu), args.format)
    return EXIT_OK


def _cmd_coeff(args) -> int:
    if args.which == "psi":
        if len(args.args) != 2:
            raise ConstraintError("coeff psi expects: M PROFILE")
        from . import classes

        try:
            m = int(args.args[0])
        except ValueError:
            raise ParseError(f"bad integer M: {args.args[0]!r}") from None
        _check_depth(m)
        profile = notation.parse_profile(args.args[1])
        value = classes.point_coefficient_psi(m, profile, raw=args.raw)
    else:
        if args.raw:
            raise ConstraintError("--raw applies to coeff psi only")
        if len(args.args) != 2:
            raise ConstraintError("coeff delta expects: MS PROFILE")
        from . import cycles

        ms = notation.parse_exponents(args.args[0])
        _check_depth(2 * len(ms) + sum(ms) - 2)  # the codim of psi^(s-2) d[ms], as M of psi^M
        profile = notation.parse_profile(args.args[1])
        value = cycles.point_coefficient_delta(ms, profile)
    _print_value(str(value), args.format)
    return EXIT_OK


def _cmd_local_model(args) -> int:
    from . import local_models

    orders = notation.parse_orders(args.profile)
    x = notation.parse_rational_value(args.x, "x value")
    poles = notation.parse_rational_list(args.poles, "pole list")
    # each pole belongs to the order typed at its position; the branches are
    # then listed by order (a count mismatch is left to canonical_function)
    if len(orders) == len(poles):
        orders, poles = zip(*sorted(zip(orders, poles), key=lambda branch: branch[0]))
    profile = tuple(sorted(orders))
    constants = local_models.profile_constants(profile)
    f = local_models.canonical_function(profile, x, poles)
    coords = local_models.hurwitz_coordinates(f, profile, poles)
    if args.format == "json":
        import json

        payload = {
            "profile": list(profile),
            "K": constants.lcm,
            "r": list(constants.exponents),
            "d": constants.components,
            "function": notation.format_function(f),
            "constant": str(coords.constant),
            "branches": [
                {
                    "pole": str(b.pole),
                    "order": b.order,
                    "u": str(b.u),
                    "a": [str(a) for a in b.tail],
                }
                for b in coords.branches
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"profile: {notation.format_profile(profile)}")
        print(f"K = {constants.lcm}, r = {constants.exponents}, d = {constants.components}")
        print(f"f = {notation.format_function(f)}")
        for b in coords.branches:
            tail = ", ".join(str(a) for a in b.tail) or "-"
            print(f"pole {b.pole}: k = {b.order}, u = {b.u}, a = {tail}")
        print(f"constant = {coords.constant}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verification

    if args.max_m is not None:
        _check_depth(args.max_m)
    results = verification.run_suite(args.suite, args.max_m)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# Verbs whose values may start with "-": a negated class expression, a
# negative point or pole.  argparse reads such a token as an option, but
# singclass has no single-dash option besides -h, so every other token after
# the verb that is not a "--" option (or the value of --format) is a value.
_SIGNED_VALUE_VERBS = ("to-sing", "to-basic", "local-model")


def _values_after_dashes(argv: list[str]) -> list[str]:
    """Reorder a signed-value verb's arguments as ``VERB OPTIONS -- VALUES``,
    keeping the values in the order typed, so argparse reads every value as
    a positional and --format still works before or after them."""
    if not argv or argv[0] not in _SIGNED_VALUE_VERBS:
        return argv
    options, values = [], []
    rest = iter(argv[1:])
    for token in rest:
        if token == "--":
            values.extend(rest)
        elif token.startswith("--") or token == "-h":
            options.append(token)
            if len(token) > 2 and "--format".startswith(token):  # its value follows
                options.extend(itertools.islice(rest, 1))
        else:
            values.append(token)
    return [argv[0], *options, "--", *values]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_values_after_dashes(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    handlers = {
        "product": _cmd_product,
        "psi": _cmd_psi,
        "to-sing": _cmd_convert,
        "to-basic": _cmd_convert,
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
    except Exception as exc:  # a defect of singclass, never a verification failure
        import traceback  # imported here: it would add to every call's start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def _entry() -> int:
    """The exit code of one whole ``singclass`` process: main() on the
    process's arguments, then the heap frozen before the interpreter shuts
    down (see the module docstring)."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(_entry())
