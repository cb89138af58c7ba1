"""What a CLI call imports: only the stdlib modules the engine uses.

Every CLI call is a fresh process, so each module its import graph pulls in
is start-up time paid on every call.  ``dataclasses`` brings ``inspect``,
``ast`` and ``dis``; ``importlib.resources`` brings ``pathlib`` and
``tempfile``; none of them is needed at run time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs CODE, then prints the loaded modules among NAMES as the last line.
SCRIPT = """
import sys
{code}
names = {names!r}
print(' '.join(sorted(m for m in sys.modules if m in names)))
"""


def _loaded(code: str, names: set[str]) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT.format(code=code, names=names)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()


def test_the_cli_import_loads_no_unused_stdlib():
    names = {
        "dataclasses", "inspect", "ast", "dis", "typing",
        "importlib.resources", "pathlib", "tempfile",
    }
    assert _loaded("import singclass.cli", names) == []


def test_verify_reads_the_golden_tables_without_importlib_resources():
    code = (
        "from singclass import cli\n"
        "assert cli.main(['verify', 'appendix']) == 0"
    )
    assert _loaded(code, {"importlib.resources", "pathlib"}) == []
