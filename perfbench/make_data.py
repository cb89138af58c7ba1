"""Regenerate ``data/expected.json`` and ``data/cli_calls.json``.

The expected outputs are the program's outputs at the commit that defined the
benchmark; the workloads compare every later commit against them.  Run from
the repository root, only when the benchmark itself is redefined:

    python3 perfbench/make_data.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ops import DATA, product_pairs, sha256  # noqa: E402

GOLDEN = ROOT / "src" / "singclass" / "golden"


def class_outputs(e) -> list[str]:
    from singclass import grammar

    text = grammar.render_class(e)
    return [text, sha256(grammar.render_class_latex(e)), sha256(grammar.class_to_json(e))]


def cycle_outputs(c) -> list[str]:
    from singclass import grammar

    text = grammar.render_cycles(c)
    return [text, sha256(grammar.render_cycles_latex(c)), sha256(grammar.cycles_to_json(c))]


def golden_rows() -> list[dict]:
    from singclass import grammar
    from singclass.classes import BASIC, SINGULARITY

    out = []
    for kind, name in (("product", "product_expansions.txt"), ("psi", "psi_powers.txt")):
        for m, expr in _rows(name):
            out.append({"name": f"{kind}:{m}", "fields": [expr], "bases": ["sing"]})
    for row in _rows("basic_to_sing.txt"):
        out.append({"name": f"b2s:{row[0]}", "fields": row[:2], "bases": ["basic", "sing"]})
    for row in _rows("sing_to_basic.txt"):
        out.append({"name": f"s2b:{row[0]}", "fields": row[:2], "bases": ["sing", "basic"]})
    for m, expr in _rows("completed_cycles.txt"):
        out.append({"name": f"cycle:{m}", "fields": [expr], "bases": ["cycle"]})
    bases = {"sing": SINGULARITY, "basic": BASIC}
    for row in out:
        row["outputs"] = [
            cycle_outputs(grammar.parse_cycles(text))
            if basis == "cycle"
            else class_outputs(grammar.parse_class(text, default_basis=bases[basis]))
            for text, basis in zip(row["fields"], row["bases"])
        ]
    return out


def expected() -> dict:
    from singclass import classes, cycles, grammar

    class_texts = []
    for kind, fn in (("product", classes.product_expansion), ("psi", classes.psi_power_sing)):
        for basis in ("sing", "basic"):
            for m in range(1, 13):
                e = fn(m) if basis == "sing" else classes.sing_to_basic(fn(m))
                text, latex_sha, json_sha = class_outputs(e)
                class_texts.append({"name": f"{kind}:{basis}:{m}", "basis": basis, "text": text,
                                    "latex_sha256": latex_sha, "json_sha256": json_sha})
    return {
        "class_texts": class_texts,
        "golden_rows": golden_rows(),
        "products": {f"{a}*{b}": grammar.render_cycles(cycles.multiply_central(a, b))
                     for a, b in product_pairs()},
        "completed_cycles": [grammar.render_cycles(cycles.completed_cycle(m)) for m in range(11)],
    }


def cli_argvs() -> list[list[str]]:
    formats = ("text", "json", "latex")
    b2s = [row[0] for row in _rows("basic_to_sing.txt")]
    s2b = [row[0] for row in _rows("sing_to_basic.txt")]
    argvs = []
    for verb in ("product", "psi"):
        argvs += [[verb, str(m)] for m in range(1, 9)]
        argvs += [[verb, str(m), "--format", f] for m in (2, 4, 6, 8) for f in formats[1:]]
    argvs += [["to-sing", expr] for expr in b2s]
    argvs += [["to-basic", expr] for expr in s2b]
    argvs += [["to-sing", b2s[-1], "--format", f] for f in formats[1:]]
    argvs += [["to-basic", s2b[-1], "--format", f] for f in formats[1:]]
    argvs += [["completed-cycle", str(m)] for m in range(0, 9)]
    argvs += [["completed-cycle", str(m), "--genus0", "--format", f] for m, f in zip((4, 6, 8), formats)]
    argvs += [["x-poly", str(m)] for m in (2, 6)] + [["x-poly", "4", "--raw"]]
    argvs += [["x-poly", "4", "--format", f] for f in formats]
    argvs += [
        ["multiply-cycles", "{1}", "{1}", "--verify-at", "3"],
        ["multiply-cycles", "{2}", "{2}", "--verify-at", "5", "--format", "json"],
        ["multiply-cycles", "{2}", "{1,1}", "--verify-at", "5", "--format", "latex"],
        ["multiply-cycles", "{3}", "{2}", "--verify-at", "5"],
    ]
    argvs += [
        ["char", "[2,1]", "[3]"],
        ["char", "[4,2,1]", "[3,3,1]", "--format", "json"],
        ["char", "[5,3]", "[2,2,2,1,1]", "--format", "latex"],
    ]
    argvs += [
        ["coeff", "psi", "4", "{1,1,1}"],
        ["coeff", "psi", "7", "{1,2,3}", "--raw", "--format", "json"],
        ["coeff", "delta", "[0,2]", "{1,3}"],
        ["coeff", "delta", "[1,1,2]", "{1,1,2,2}", "--format", "latex"],
    ]
    argvs += [
        ["local-model", "{1,1}", "0", "1,-1"],
        ["local-model", "{2,2}", "0", "1,-1", "--format", "json"],
        ["local-model", "{3}", "0", "1", "--format", "latex"],
    ]
    argvs += [["verify", suite] for suite in ("appendix", "ko", "equality", "cycles", "roundtrip")]
    return argvs


def _rows(name):
    for line in (GOLDEN / name).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield [field.strip() for field in line.split("::")]


def cli_expected() -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for argv in cli_argvs():
        proc = subprocess.run([sys.executable, "-S", "-m", "singclass.cli", *argv],
                              env=env, capture_output=True, text=True, check=True)
        out.append({"argv": argv, "stdout": proc.stdout})
    return out


def main():
    DATA.mkdir(exist_ok=True)
    (DATA / "expected.json").write_text(json.dumps(expected(), indent=1) + "\n")
    (DATA / "cli_calls.json").write_text(json.dumps(cli_expected(), indent=1) + "\n")


if __name__ == "__main__":
    main()
