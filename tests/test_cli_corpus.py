"""Byte-identity gate for the command line.

``cli_corpus.json`` holds a fixed corpus of ``singclass`` invocations, every
verb in every output format plus parse and constraint failures, with the
exact stdout and exit code each one produced when the file was written.
Refactors of the renderers, parsers or the CLI must reproduce them byte for
byte.  The calls run in process through ``singclass.cli.main``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from singclass.cli import main

CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_cli_output_is_unchanged(case, capsys):
    code = main(list(case["argv"]))
    assert (capsys.readouterr().out, code) == (case["stdout"], case["exit"])


VERBS = (
    "product", "psi", "to-sing", "to-basic", "completed-cycle", "x-poly",
    "multiply-cycles", "char", "coeff", "local-model",
)


def test_corpus_covers_every_verb_and_format():
    seen = {(c["argv"][0], c["argv"][-1]) for c in CORPUS if c["exit"] == 0}
    assert seen >= {(verb, fmt) for verb in VERBS for fmt in ("text", "json", "latex")}
    assert {c["argv"][1] for c in CORPUS if c["argv"][0] == "verify"} == {
        "appendix", "ko", "equality", "cycles", "roundtrip"
    }
