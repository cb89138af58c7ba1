"""The engine leaves nothing for the cyclic garbage collector.

Each reference cycle a call makes stays allocated until a collection finds
it, and every collection walks the young objects; a self-recursive closure
is such a cycle (function -> cell -> function) on every call.  The check
runs in a fresh interpreter, because ``gc.set_debug`` is process-wide: it
imports every module, collects once, then runs the entry points with the
collector off and ``DEBUG_SAVEALL`` on, so a cycle shows up as an object
that the final collection finds.  The entry points include ``cli.main`` on
well-formed calls, which build no argparse parser; a call that goes to
argparse (help or a usage error) still leaves the parser's own cycles.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, gc, importlib, io, pkgutil
from collections import Counter
from fractions import Fraction

import singclass

for info in pkgutil.iter_modules(singclass.__path__):
    importlib.import_module("singclass." + info.name)
from singclass import classes, cli, combinatorics, cycles, grammar, local_models, trees, verification

gc.collect()
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)

p8 = classes.product_expansion(8)
s8 = classes.psi_power_sing(8)
for t in trees.enumerate_trees(6):
    basic = classes.ClassExpr.single(classes.BASIC, t)
    sing = classes.ClassExpr.single(classes.SINGULARITY, t)
    assert classes.sing_to_basic(classes.basic_to_sing(basic)) == basic
    assert classes.basic_to_sing(classes.sing_to_basic(sing)) == sing
classes.substitute(trees.star(0, (0, 1)), [classes.psi_power_sing(1), classes.psi_power_sing(2)])
trees.enumerate_trees(9)
combinatorics.partitions_of(12)
product = cycles.multiply_central((2,), (2, 1))
assert cycles.verify_in_group_algebra((2,), (2, 1), product, 5)
for e in (p8, s8):
    grammar.render_class_latex(e)
    grammar.class_to_json(e)
    assert grammar.parse_class(grammar.render_class(e), default_basis=e.basis) == e
grammar.parse_tree("(0;1,(0;0,0))")
B = local_models.BranchCoordinates
coords = local_models.HurwitzCoordinates(
    (B(Fraction(0), 2, Fraction(1), (Fraction(1, 3),)), B(Fraction(3), 1, Fraction(2), ())),
    Fraction(1),
)
f = local_models.reassemble(coords)
assert local_models.hurwitz_coordinates(f, (2, 1), (0, 3)) == coords
for suite in sorted(verification.SUITES):
    assert all(r.passed for r in verification.run_suite(suite))
# well-formed calls, which cli reads without building argparse's parser
for argv in (
    ["product", "3", "--format", "json"],
    ["completed-cycle", "4", "--genus0", "--format", "latex"],
    ["char", "[2,1]", "[3]", "--format", "text"],
    ["coeff", "psi", "4", "{1,1,1}", "--raw", "--format", "text"],
    ["local-model", "{2,1}", "0", "1,-3", "--format", "text"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0

found = gc.collect()
print(found, dict(Counter(type(o).__name__ for o in gc.garbage).most_common(8)))
"""


def test_the_entry_points_make_no_reference_cycle():
    result = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    found, kinds = result.stdout.split(" ", 1)
    assert int(found) == 0, f"objects only the cyclic collector frees: {kinds}"
