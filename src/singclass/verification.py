"""Verification suites over the checked-in golden data.

Each suite returns one :class:`CheckResult` per identity so a failure points
at a single golden row; the CLI ``verify`` subcommand prints them and tests
reuse them directly.
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import classes, cycles, grammar, trees
from .classes import BASIC, SINGULARITY, ClassExpr, basic_to_sing, sing_to_basic
from .combinatorics import partitions_of, shifted_power_sum
from .errors import ConstraintError, ParseError, Record, _count, _integer

__all__ = [
    "CheckResult",
    "load_fixture_rows",
    "check_product_expansions",
    "check_psi_powers",
    "check_basic_to_sing",
    "check_sing_to_basic",
    "check_completed_cycles",
    "check_appendix",
    "check_shifted_power_sums",
    "genus0_equality_check",
    "check_genus0_equality",
    "check_cycle_products",
    "check_roundtrip",
    "run_suite",
    "SUITES",
]


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}"
        if not self.passed and self.detail:
            text += f"\n      {self.detail}"
        return text


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def load_fixture_rows(name: str) -> list[list[str]]:
    """The rows of the golden table ``name``, each split at ``::``; a name
    that is no golden table raises ConstraintError."""
    if name not in os.listdir(_GOLDEN):
        raise ConstraintError(f"no golden table named {name!r}")
    with open(os.path.join(_GOLDEN, name), encoding="utf-8") as f:
        source = f.read()
    rows = []
    for line in source.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([field.strip() for field in line.split("::")])
    return rows


def _diff(expected: str, computed: str) -> str:
    return f"expected: {expected}\n      computed: {computed}"


def _check_rows(fixture: str, label: str, compute, parse, render) -> list[CheckResult]:
    """One check per golden row ``key :: expected``: ``compute(key)`` must equal
    ``parse(expected)``; ``label`` names the row, formatted with its key."""
    out = []
    for key, expected_text in load_fixture_rows(fixture):
        expected = parse(expected_text)
        computed = compute(key)
        out.append(
            CheckResult(
                label.format(key),
                computed == expected,
                _diff(render(expected), render(computed)),
            )
        )
    return out


def check_product_expansions() -> list[CheckResult]:
    return _check_rows(
        "product_expansions.txt",
        "product expansion m={}",
        lambda m: classes.product_expansion(int(m)),
        grammar.parse_class,
        grammar.render_class,
    )


def check_psi_powers() -> list[CheckResult]:
    return _check_rows(
        "psi_powers.txt",
        "psi^{} expansion",
        lambda m: classes.psi_power_sing(int(m)),
        grammar.parse_class,
        grammar.render_class,
    )


def _is_nested(t: trees.MarkedTree) -> bool:
    return bool(t.children) and any(c.children for c in t.children)


def _parse_nested_specs(field: str) -> list[tuple[Fraction, int]]:
    specs = []
    for chunk in field.split(";"):
        coeff_text, power_text = chunk.strip().split("@")
        coeff = grammar.parse_rational_value(coeff_text, "nested coefficient")
        specs.append((coeff, int(power_text)))
    return sorted(specs)


def check_basic_to_sing() -> list[CheckResult]:
    out = []
    for row in load_fixture_rows("basic_to_sing.txt"):
        lhs_text, rhs_text = row[0], row[1]
        nested_specs = _parse_nested_specs(row[2]) if len(row) > 2 else []
        lhs = grammar.parse_class(lhs_text, default_basis=BASIC)
        computed = basic_to_sing(lhs)
        expected_scalar = grammar.parse_class(rhs_text)
        scalar_part: list[tuple[trees.MarkedTree, Fraction]] = []
        nested_monomials: list[tuple[Fraction, int]] = []
        for t, q, c in computed.monomials():
            if _is_nested(t):
                nested_monomials.append((c, q))
            else:
                scalar_part.append((t, c))
        scalar_expr = ClassExpr(SINGULARITY, computed.degree, scalar_part)
        ok = scalar_expr == expected_scalar and (
            sorted((c, q) for c, q in nested_monomials)
            == [(c, q) for c, q in nested_specs]
        )
        nested_text = "; ".join(
            f"{c}@{q}" for c, q in sorted(nested_monomials, key=lambda x: x[1])
        )
        out.append(
            CheckResult(
                f"basic->sing {lhs_text}",
                ok,
                _diff(
                    rhs_text + (f"  [nested: {row[2]}]" if len(row) > 2 else ""),
                    grammar.render_class(scalar_expr)
                    + (f"  [nested: {nested_text}]" if nested_text else ""),
                ),
            )
        )
    return out


def check_sing_to_basic() -> list[CheckResult]:
    return _check_rows(
        "sing_to_basic.txt",
        "sing->basic {}",
        lambda lhs: sing_to_basic(grammar.parse_class(lhs)),
        lambda text: grammar.parse_class(text, default_basis=BASIC),
        grammar.render_class,
    )


def check_completed_cycles() -> list[CheckResult]:
    return _check_rows(
        "completed_cycles.txt",
        "completed cycle m={}",
        lambda m: cycles.completed_cycle(int(m)),
        grammar.parse_cycles,
        grammar.render_cycles,
    )


def check_appendix() -> list[CheckResult]:
    return (
        check_product_expansions()
        + check_psi_powers()
        + check_basic_to_sing()
        + check_sing_to_basic()
        + check_completed_cycles()
    )


def _partitions_up_to(n: int):
    for size in range(0, n + 1):
        yield from partitions_of(size)


# the ko suite evaluates each completed cycle on every partition of at most this size
_KO_PARTITION_SIZE = 8


def check_shifted_power_sums(max_m: int = 5) -> list[CheckResult]:
    _floor("ko", max_m)
    out = []
    for m in range(0, max_m + 1):
        element = cycles.completed_cycle(m)
        bad = None
        count = 0
        for lam in _partitions_up_to(_KO_PARTITION_SIZE):
            count += 1
            left = cycles.evaluate(element, lam)
            right = shifted_power_sum(lam, m)
            if left != right:
                bad = (lam, left, right)
                break
        out.append(
            CheckResult(
                f"shifted-power-sum evaluation m={m} ({count} partitions)",
                bad is None,
                ""
                if bad is None
                else f"lambda={bad[0]}: evaluate={bad[1]} shifted={bad[2]}",
            )
        )
    return out


def genus0_equality_check(m: int) -> bool:
    """Genus-0 completed-cycle coefficients against the psi-power expansion.

    For every profile of maximal order m+2 (a monomial of x_polynomial(m)), the
    coefficient in the completed (m+1)-cycle must equal both the closed-form
    point coefficient and the coefficient actually extracted from the expansion
    of psi^m at the point-class tree (the stick, for one-part profiles).
    """
    g0 = cycles.genus0_part(cycles.completed_cycle(_count(m, "m", 1)), m)
    expansion = classes.psi_power_sing(m)
    profiles = [p for p, _ in cycles.x_polynomial(m).terms]
    if sorted(g0.profiles()) != sorted(profiles):
        return False
    for p in profiles:
        from_cycle = g0.coefficient(p)
        closed_form = classes.point_coefficient_psi(m, p)
        extracted = expansion.coefficient_at(classes.point_class_tree(p), 0)
        if not (from_cycle == closed_form == extracted):
            return False
    return True


def check_genus0_equality(max_m: int = 6) -> list[CheckResult]:
    return [
        CheckResult(f"genus-0 coefficients match psi^{m}", genus0_equality_check(m))
        for m in range(1, _floor("equality", max_m) + 1)
    ]


def check_cycle_products() -> list[CheckResult]:
    out = []
    squared = cycles.multiply_central((2,), (2,))
    expected = grammar.parse_cycles("C[2,2] + 3*C[3] + 1/2*C[1,1]")
    out.append(
        CheckResult(
            "C_2 * C_2",
            squared == expected,
            _diff(grammar.render_cycles(expected), grammar.render_cycles(squared)),
        )
    )
    for n in (4, 5):
        out.append(
            CheckResult(
                f"C_2 * C_2 in the group algebra of S_{n}",
                cycles.verify_in_group_algebra((2,), (2,), squared, n),
            )
        )
    ones = cycles.multiply_central((1,), (1,))
    expected_ones = grammar.parse_cycles("C[1,1] + C[1]")
    out.append(
        CheckResult(
            "C_1 * C_1",
            ones == expected_ones
            and cycles.verify_in_group_algebra((1,), (1,), ones, 3),
            _diff(grammar.render_cycles(expected_ones), grammar.render_cycles(ones)),
        )
    )
    return out


def check_roundtrip(max_codim: int = 6) -> list[CheckResult]:
    out = []
    generators = trees.enumerate_trees(_floor("roundtrip", max_codim))
    for name, basis, there, back in (
        ("sing_to_basic(basic_to_sing)", BASIC, basic_to_sing, sing_to_basic),
        ("basic_to_sing(sing_to_basic)", SINGULARITY, sing_to_basic, basic_to_sing),
    ):
        bad = None
        for t in generators:
            e = ClassExpr.single(basis, t)
            if back(there(e)) != e:
                bad = t
                break
        out.append(
            CheckResult(
                f"{name} identity on {len(generators)} generators (codim <= {max_codim})",
                bad is None,
                "" if bad is None else f"failed on tree {trees.encoding(bad)}",
            )
        )
    return out


# suite -> (checks, smallest max_m under which it compares something, or
# None when it takes no max_m, and the largest its callees' budgets admit, or
# None when they have none); each check refuses one outside through _floor,
# before any work
SUITES = {
    "appendix": (check_appendix, None, None),
    "ko": (check_shifted_power_sums, 0, None),
    "equality": (check_genus0_equality, 1, classes.EXPANSION_DEGREE_BUDGET),
    "cycles": (check_cycle_products, None, None),
    "roundtrip": (check_roundtrip, 0, classes.SING_TO_BASIC_BUDGET),
}


def _floor(suite: str, max_m: int) -> int:
    """max_m if it is an int at or above the suite's floor in SUITES, under
    which the suite would compare nothing, and within its ceiling; else
    ConstraintError."""
    _, smallest, most = SUITES[suite]
    if _integer(max_m, "max_m") < smallest:
        raise ConstraintError(
            f"verify {suite} needs --max-m >= {smallest}, got {max_m}: it would compare nothing"
        )
    return _count(max_m, f"verify {suite} --max-m", smallest, most)


def run_suite(name: str, max_m: int | None = None) -> list[CheckResult]:
    """Run one suite; a ``max_m`` under which it would compare nothing, or
    one given to a suite that takes none, raises ConstraintError."""
    if type(name) is not str or name not in SUITES:
        raise ParseError(f"unknown verify suite {name!r}")
    checks, smallest, _ = SUITES[name]
    if max_m is None:
        return checks()
    if smallest is None:
        raise ConstraintError(f"verify {name} takes no --max-m")
    return checks(max_m)
