"""Command-line front end.

One verb per invocation; output format is text (default), json or latex.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 constraint
violation, 4 internal error (an exception that is not a SingclassError, so a
defect of singclass, reported on stderr as ``internal error: ...`` followed by
the traceback).  The environment variable SINGCLASS_MAX_CODIM (default 8) caps
the expansion depth of class-producing commands, of coeff and of verify --max-m;
char over 48 boxes and multiply-cycles over 4 000 000 point steps (an orbit
representative or composition on N points is N steps) exit 3 as well.

The verbs are spelled once, in _VERBS, and both argument readers come from
it.  _read_fast reads an argv that is well formed for its verb: exact option
spellings, each at most once, and the positionals in one run, of the right
number, with every int and choice valid; to-sing, to-basic and local-model
read a token that starts with a single "-" (not -h) as a value.  Any other
argv (no verb, -h, an abbreviation, --opt=value, "--", a missing or extra
argument, a bad int or choice) goes to argparse, which build_parser alone
imports and which writes every help, usage and error text.  So a well-formed
call loads no argparse, gettext, locale or shutil, and builds no parser.

Each call is a fresh process, and with no bytecode cache every module it
imports is compiled from source.  So the module top imports only notation
(the text of everything but class expressions) and errors, and each verb's
handler imports what it runs: the class verbs (product, psi, to-sing,
to-basic) load grammar and with it the class side, coeff psi loads classes,
the cycle verbs load cycles, only local-model loads local_models and only
verify loads verification; char loads nothing more.  Every verb writes its
JSON through notation's list writer and string escaper, so no call loads the
json package.

A process runs _entry (python -m and the installed script alike): it calls
main and then freezes the heap with gc.freeze, so that the collection
interpreter shutdown runs does not walk every object the call made.  main
leaves the collector alone, because tests and library callers run it in a
process that goes on.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
from types import SimpleNamespace

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
        from . import classes

        try:
            m = int(args.m)
        except ValueError:
            raise ParseError(f"bad integer M: {args.m!r}") from None
        _check_depth(m)
        profile = notation.parse_profile(args.profile)
        value = classes.point_coefficient_psi(m, profile, raw=args.raw)
    else:
        if args.raw:
            raise ConstraintError("--raw applies to coeff psi only")
        from . import cycles

        ms = notation.parse_exponents(args.m)
        _check_depth(2 * len(ms) + sum(ms) - 2)  # the codim of psi^(s-2) d[ms], as M of psi^M
        profile = notation.parse_profile(args.profile)
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
        json_list = notation._json_list
        rows = []
        for b in coords.branches:
            tail = json_list([f'"{a}"' for a in b.tail], "      ")
            rows.append(f'{{\n      "pole": "{b.pole}",\n      "order": {b.order},\n'
                        f'      "u": "{b.u}",\n      "a": {tail}\n    }}')
        function = notation._json_str(notation.format_function(f))
        print(f'{{\n  "profile": {json_list(list(map(str, profile)), "  ")},\n'
              f'  "K": {constants.lcm},\n'
              f'  "r": {json_list(list(map(str, constants.exponents)), "  ")},\n'
              f'  "d": {constants.components},\n  "function": {function},\n'
              f'  "constant": "{coords.constant}",\n  "branches": {json_list(rows, "  ")}\n}}')
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


# verb -> (help, handler, whether its values may start with "-", arguments).
# An argument is (name, reader[, help[, metavar]]), an option if its name
# starts with "--".  The reader is int, str, a tuple of choices (the first is
# an option's default) or None (a flag).
_FORMAT = ("--format", _FORMATS)
_M = ("m", int)
_VERBS = {
    "product": ("expansion of prod_{r=1}^m (r*psi - xi)", _cmd_product, False, _M, _FORMAT),
    "psi": ("expansion of psi^m in singularity classes", _cmd_psi, False, _M, _FORMAT),
    "to-sing": ("convert a class expression to the singularity basis", _cmd_convert, True,
                ("expression", str), _FORMAT),
    "to-basic": ("convert a class expression to the basic basis", _cmd_convert, True,
                 ("expression", str), _FORMAT),
    "completed-cycle": ("the completed (m+1)-cycle", _cmd_completed_cycle, False, _M, _FORMAT,
                        ("--genus0", None, "keep only the maximal-order terms")),
    "x-poly": ("the coefficient polynomial in the variables x_k", _cmd_x_poly, False, _M, _FORMAT,
               ("--raw", None, "without the 1/m! normalization")),
    "multiply-cycles": ("product of two stable central elements", _cmd_multiply_cycles, False,
                        ("p1", str), ("p2", str), _FORMAT,
                        ("--verify-at", int, "also verify the identity brute-force in S_N", "N")),
    "char": ("irreducible character value chi^lambda(mu)", _cmd_char, False,
             ("partition", str), ("cycle_type", str), _FORMAT),
    "coeff": ("point-class coefficient extractors", _cmd_coeff, False, ("which", ("psi", "delta")),
              ("m", str, "psi: the exponent M; delta: the exponent list MS", "M/MS"),
              ("profile", str, "the profile, as {k1,k2,...}", "PROFILE"),
              _FORMAT, ("--raw", None, "psi only: the variant scaled by m!")),
    "local-model": ("Hurwitz coordinates of the canonical pole function", _cmd_local_model, True,
                    ("profile", str), ("x", str),
                    ("poles", str, "comma-separated pole locations, one per branch"), _FORMAT),
    "verify": ("run a verification suite", _cmd_verify, False, ("suite", _SUITES), ("--max-m", int)),
}


# what argparse is told of each reader; a tuple of choices: those, the first the default
_ARGPARSE = {None: {"action": "store_true"}, int: {"type": int}, str: {"type": str}}


def build_parser():
    """The argparse parser of every verb, made from _VERBS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="singclass",
        description="Exact singularity/basic class expansions and completed-cycle calculus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, _, _, *arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name, reader, *more in arguments:
            how = _ARGPARSE.get(reader) or {"choices": reader, "default": reader[0]}
            p.add_argument(name, **how, **dict(zip(("help", "metavar"), more)))
    return parser


def _values_after_dashes(argv: list[str]) -> list[str]:
    """Reorder the arguments of a verb whose values may start with "-" as
    ``VERB OPTIONS -- VALUES``, in the order typed, so that argparse reads
    each value as a positional: every token but -h, a "--" option or the
    value of --format is a value, as singclass has no other "-" option."""
    if not argv or argv[0] not in _VERBS or not _VERBS[argv[0]][2]:
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


def _read(reader, token: str):
    """token as argparse reads it for reader str, int or a tuple of choices,
    or ValueError where argparse may refuse it (it reads "-3_0" as an option)."""
    if reader is str or type(reader) is tuple and token in reader:
        return token
    if reader is int and not token.startswith("-"):
        return int(token)
    raise ValueError(token)


def _read_fast(argv: list[str]):
    """The attributes argparse sets for an argv that is well formed for its
    verb (see the module docstring), read without argparse; else None."""
    row = _VERBS.get(argv[0]) if argv else None
    if row is None:
        return None
    _, _, signed, *arguments = row
    positionals = [a for a in arguments if not a[0].startswith("--")]
    options = {a[0]: (a[0][2:].replace("-", "_"), a[1]) for a in arguments if a[0].startswith("--")}
    args = {"verb": argv[0]}
    for dest, reader in options.values():  # the defaults
        args[dest] = None if reader is int else False if reader is None else reader[0]
    values, ended, tokens = [], False, iter(argv[1:])  # ended: an option came after a value
    try:
        for token in tokens:
            if token in options:  # popped, so that a second one is refused
                (dest, reader), ended = options.pop(token), bool(values)
                args[dest] = True if reader is None else _read(reader, next(tokens, "-"))
            elif ended or token.startswith("-") and not (signed and token[1:2] != "-" and token != "-h"):
                return None  # a second run of values, or a "-" token that is no value here
            else:
                values.append(token)
        if len(values) != len(positionals):
            return None
        for (name, reader, *_), value in zip(positionals, values):
            args[name] = _read(reader, value)
    except ValueError:
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_fast(argv)
    if args is None:
        try:
            args = build_parser().parse_args(_values_after_dashes(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return _VERBS[args.verb][1](args)
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
