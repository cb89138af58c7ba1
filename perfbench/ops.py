"""The four workloads: fixed op lists, their inputs and their checks.

An op is ``Op(name, run, check)``.  ``run()`` is the only code that is timed;
``check(result)`` runs after the whole op list and returns True when the
result is right.  The in-process workloads import singclass lazily, inside
``build``, so this module can be imported before the checkout's ``src`` is on
the path.  ``cli-calls`` is not built here: its ops are processes, listed by
``cli_calls``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

DATA = Path(__file__).resolve().parent / "data"

IN_PROCESS = ("class-tables", "cycle-products", "text-models")
WORKLOADS = IN_PROCESS + ("cli-calls",)

# text-models: this many seeded Hurwitz round trips follow the 92 text ops,
# chosen so that grammar and local_models each take at least a third of the
# traced self time (see DESIGN.md).
HURWITZ_OPS = 24
# cycle-products: the S_n oracle runs for products that fit in S_n with
# n <= ORACLE_MAX_N; all 30 pairs fit at the current size limit.
ORACLE_MAX_N = 7


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads((DATA / "expected.json").read_text())


def cli_calls() -> list[dict]:
    """The cli-calls op list: ``{"argv": [...], "stdout": "..."}`` per call."""
    return json.loads((DATA / "cli_calls.json").read_text())


def product_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered pairs of nonempty profiles with order(p1) + order(p2) <= 9."""
    from singclass.combinatorics import profiles_with_sum_and_length

    profiles = [
        p
        for order in range(2, 8)
        for length in range(1, order // 2 + 1)
        for p in profiles_with_sum_and_length(order - length, length)
    ]
    return [
        (a, b)
        for i, a in enumerate(profiles)
        for b in profiles[i:]
        if len(a) + sum(a) + len(b) + sum(b) <= 9
    ]


def hurwitz_shapes(count: int = HURWITZ_OPS) -> list[tuple[int, ...]]:
    """Pole orders of each Hurwitz op: 1 to 4 poles of order 1 to 5.

    The shapes are fixed so that every seed asks for the same amount of
    work; the seed picks only the rational values."""
    return [tuple(1 + (3 * i + 2 * j) % 5 for j in range(1 + i % 4)) for i in range(count)]


def hurwitz_inputs(seed: int, count: int = HURWITZ_OPS):
    """Seeded Hurwitz coordinates with the orders of ``hurwitz_shapes``."""
    from singclass.local_models import BranchCoordinates, HurwitzCoordinates

    rng = random.Random(seed)

    def small() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    out = []
    for orders in hurwitz_shapes(count):
        poles: list[Fraction] = []
        while len(poles) < len(orders):
            z = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            if z not in poles:
                poles.append(z)
        branches = []
        for z, k in zip(poles, orders):
            u = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if k % 2 and rng.random() < 0.5:
                u = -u
            branches.append(BranchCoordinates(z, k, u, tuple(small() for _ in range(k - 1))))
        out.append(HurwitzCoordinates(tuple(branches), small()))
    return out


def build(workload: str, seed: int) -> list[Op]:
    """The op list of an in-process workload, in its fixed order."""
    expected = load_expected()
    if workload == "class-tables":
        return _class_tables(expected)
    if workload == "cycle-products":
        return _cycle_products(expected)
    if workload == "text-models":
        return _text_models(expected, seed)
    raise ValueError(f"unknown in-process workload {workload!r}")


def _class_tables(expected: dict) -> list[Op]:
    from singclass import classes, grammar, trees
    from singclass.classes import BASIC, SINGULARITY, ClassExpr
    from singclass.combinatorics import profiles_with_sum_and_length

    texts = {t["name"]: t["text"] for t in expected["class_texts"]}
    golden = {row["name"]: row["fields"][-1] for row in expected["golden_rows"]}

    def expansion_check(kind: str, m: int):
        def check(e) -> bool:
            if grammar.render_class(e) != texts[f"{kind}:sing:{m}"]:
                return False
            if m <= 5 and e != grammar.parse_class(golden[f"{kind}:{m}"]):
                return False
            if kind == "psi":
                for length in range(1, m + 2):
                    for p in profiles_with_sum_and_length(m + 2 - length, length):
                        point = classes.point_class_tree(p)
                        if e.coefficient_at(point, 0) != classes.point_coefficient_psi(m, p):
                            return False
            return True

        return check

    ops = []
    for m in range(1, 13):
        ops.append(Op(f"product_expansion({m})", lambda m=m: classes.product_expansion(m),
                      expansion_check("product", m)))
        ops.append(Op(f"psi_power_sing({m})", lambda m=m: classes.psi_power_sing(m),
                      expansion_check("psi", m)))

    def round_trips(t):
        basic = ClassExpr.single(BASIC, t)
        sing = ClassExpr.single(SINGULARITY, t)
        return (
            classes.sing_to_basic(classes.basic_to_sing(basic)),
            classes.basic_to_sing(classes.sing_to_basic(sing)),
        )

    for t in trees.enumerate_trees(8):
        want = (ClassExpr.single(BASIC, t), ClassExpr.single(SINGULARITY, t))
        ops.append(Op(f"roundtrip {trees.encoding(t)}", lambda t=t: round_trips(t),
                      lambda got, want=want: got == want))
    return ops


def _cycle_products(expected: dict) -> list[Op]:
    from singclass import cycles, grammar
    from singclass.combinatorics import partitions_of, shifted_power_sum

    products = expected["products"]
    completed = expected["completed_cycles"]
    golden = {row["name"]: row["fields"][-1] for row in expected["golden_rows"]}

    def product_check(a, b):
        def check(c) -> bool:
            if grammar.render_cycles(c) != products[f"{a}*{b}"]:
                return False
            n = sum(a) + sum(b)
            return n > ORACLE_MAX_N or cycles.verify_in_group_algebra(a, b, c, n)

        return check

    def completed_check(m):
        def check(c) -> bool:
            if grammar.render_cycles(c) != completed[m]:
                return False
            return m > 4 or c == grammar.parse_cycles(golden[f"cycle:{m}"])

        return check

    ops = []
    for a, b in product_pairs():
        ops.append(Op(f"multiply_central({a}, {b})", lambda a=a, b=b: cycles.multiply_central(a, b),
                      product_check(a, b)))
    for m in range(0, 11):
        ops.append(Op(f"completed_cycle({m})", lambda m=m: cycles.completed_cycle(m),
                      completed_check(m)))

    def evaluations(m, n):
        element = cycles.completed_cycle(m)
        return [cycles.evaluate(element, lam) for lam in partitions_of(n)]

    for m in range(0, 8):
        for n in range(1, 11):
            ops.append(Op(
                f"evaluate(completed_cycle({m}), n={n})",
                lambda m=m, n=n: evaluations(m, n),
                lambda got, m=m, n=n: got == [shifted_power_sum(lam, m) for lam in partitions_of(n)],
            ))
    return ops


def _text_models(expected: dict, seed: int) -> list[Op]:
    from singclass import grammar, local_models
    from singclass.classes import BASIC, SINGULARITY

    bases = {"sing": SINGULARITY, "basic": BASIC}

    def render_all(e, cycle: bool):
        if cycle:
            return (grammar.render_cycles(e), grammar.render_cycles_latex(e), grammar.cycles_to_json(e))
        return (grammar.render_class(e), grammar.render_class_latex(e), grammar.class_to_json(e))

    def text_op(text: str, basis: str, cycle: bool):
        def run():
            if cycle:
                return render_all(grammar.parse_cycles(text), True)
            return render_all(grammar.parse_class(text, default_basis=bases[basis]), False)

        return run

    def outputs_check(want_text: str, latex_sha: str, json_sha: str):
        return lambda got: (got[0], sha256(got[1]), sha256(got[2])) == (want_text, latex_sha, json_sha)

    ops = []
    for t in expected["class_texts"]:
        ops.append(Op(f"text {t['name']}", text_op(t["text"], t["basis"], False),
                      outputs_check(t["text"], t["latex_sha256"], t["json_sha256"])))
    for row in expected["golden_rows"]:
        runs = [text_op(text, basis, basis == "cycle") for text, basis in zip(row["fields"], row["bases"])]
        want = [tuple(o) for o in row["outputs"]]
        ops.append(Op(
            f"golden {row['name']}",
            lambda runs=runs: [r() for r in runs],
            lambda got, want=want: [(o[0], sha256(o[1]), sha256(o[2])) for o in got] == want,
        ))

    def hurwitz_round_trip(coords):
        f = local_models.reassemble(coords)
        poles = [b.pole for b in coords.branches]
        orders = [b.order for b in coords.branches]
        return local_models.hurwitz_coordinates(f, orders, poles)

    for i, coords in enumerate(hurwitz_inputs(seed)):
        ops.append(Op(f"hurwitz #{i}", lambda c=coords: hurwitz_round_trip(c),
                      lambda got, c=coords: got == c))
    return ops
