"""The package imports and runs with the standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports every singclass module, runs one CLI call, then prints the exit code
# and every loaded module that is neither stdlib nor singclass.
SCRIPT = """
import importlib, pkgutil, sys
import singclass
from singclass import cli
for info in pkgutil.iter_modules(singclass.__path__):
    importlib.import_module("singclass." + info.name)
code = cli.main(["product", "3"])
allowed = sys.stdlib_module_names | {"singclass", "__main__"}
print(code, sorted(name for name in sys.modules if name.split(".")[0] not in allowed))
"""


def test_every_module_imports_and_runs_without_site_packages():
    # -S leaves site-packages off sys.path, as in a bare stdlib install
    result = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
