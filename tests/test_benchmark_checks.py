"""The benchmark's own correctness checks, run in the test suite.

``perfbench/ops.py`` builds the op list of each in-process workload with a
check per op, and ``perfbench/data/cli_calls.json`` holds the argv and the
expected stdout of every call of the ``cli-calls`` workload.  A benchmark
run counts an op whose check fails, or a call whose exit code or stdout
differs, as incorrect.  Here every in-process op runs once for two seeds and
must pass its check, and every CLI call runs in process through
``singclass.cli.main`` and must exit 0 with the stored stdout, byte for byte.
The files under ``perfbench/`` are only read.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from singclass.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", PERFBENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


OPS = _load_ops()
CLI_CALLS = json.loads((PERFBENCH / "data" / "cli_calls.json").read_text())


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("workload", OPS.IN_PROCESS)
def test_every_in_process_op_passes_its_check(workload, seed):
    failed = [op.name for op in OPS.build(workload, seed) if not op.check(op.run())]
    assert failed == []


def test_every_cli_call_prints_its_stored_stdout(capsys):
    differ = []
    for call in CLI_CALLS:
        code = main(list(call["argv"]))
        if (code, capsys.readouterr().out) != (0, call["stdout"]):
            differ.append(" ".join(call["argv"]))
    assert differ == []
