"""The ``singclass`` command as a whole process.

The other CLI tests call ``cli.main`` in process.  A process runs
``cli._entry``, which calls ``main`` and then freezes the heap with
``gc.freeze()`` before the interpreter shuts down, so that shutdown does
not walk every object the call made.  These tests spawn
``python -S -m singclass.cli`` and check that its exit codes and stdout
are what ``main`` gives, that the installed script runs the same entry,
and that ``main`` itself leaves the collector alone.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from singclass import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def _spawn(argv: list[str], **environ: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("SINGCLASS_MAX_CODIM", None)
    env.update(environ)
    return subprocess.run(
        [sys.executable, "-S", "-m", "singclass.cli", *argv],
        env=env, cwd=ROOT, capture_output=True, timeout=120,
    )


def _corpus_row(*argv: str) -> dict:
    return next(c for c in CORPUS if c["argv"] == list(argv))


# one row per exit code a process can reach without a patched check
ROWS = [
    ("char", "[2,1]", "[3]", "--format", "text"),
    ("product", "5", "--format", "json"),
    ("verify", "appendix"),
    ("to-sing", "i[1]"),
    ("product", "3", "--format", "yaml"),
    ("psi", "9"),
    ("local-model", "{2,1}", "0", "3/4,1", "--format", "json"),
]


@pytest.mark.parametrize("argv", ROWS, ids=" ".join)
def test_a_process_matches_the_corpus(argv):
    row = _corpus_row(*argv)
    result = _spawn(list(argv))
    assert (result.stdout.decode(), result.returncode) == (row["stdout"], row["exit"])


def test_the_rows_cover_exit_codes_0_2_and_3():
    assert {_corpus_row(*argv)["exit"] for argv in ROWS} == {0, 2, 3}


def test_a_raised_cap_still_meets_the_library_budget():
    # SINGCLASS_MAX_CODIM lets psi 40 through; psi_power_sing refuses it
    start = time.perf_counter()
    result = _spawn(["psi", "40"], SINGCLASS_MAX_CODIM="40")
    elapsed = time.perf_counter() - start
    assert (result.stdout, result.returncode) == (b"", 3)
    assert b"over the budget" in result.stderr
    assert elapsed < 1


def test_a_raised_cap_still_meets_the_basis_change_budget():
    # SINGCLASS_MAX_CODIM lets a_16 through; sing_to_basic refuses its degree
    start = time.perf_counter()
    result = _spawn(["to-basic", "a_16"], SINGCLASS_MAX_CODIM="16")
    elapsed = time.perf_counter() - start
    assert (result.stdout, result.returncode) == (b"", 3)
    assert b"over the budget" in result.stderr
    assert elapsed < 1


def test_a_process_writes_all_of_a_long_stdout(capsys):
    # over stdout's 8 KiB buffer, so its tail is written by the flush at
    # shutdown, after the heap is frozen
    argv = ["psi", "8", "--format", "json"]
    result = _spawn(argv)
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected.encode()) > 8192
    assert (result.stdout.decode(), result.returncode) == (expected, 0)
    assert result.stderr == b""


def test_the_installed_script_is_the_process_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^singclass\s*=\s*"([^"]+)"', scripts, re.M) == ["singclass.cli:_entry"]


def test_main_leaves_the_collector_alone(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["product", "3"]) == 0
    assert cli.main(["psi", "9"]) == 3
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_the_entry_returns_mains_code_and_freezes(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["singclass", "psi", "9"])
    try:
        assert cli._entry() == 3
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert "constraint violation" in capsys.readouterr().err
