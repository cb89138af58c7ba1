"""What a CLI call imports: only the stdlib modules the engine uses, and
only the singclass modules its verb runs.

Every CLI call is a fresh process, so each module its import graph pulls in
is start-up time paid on every call, and without a bytecode cache each
singclass module is compiled from source.  ``dataclasses`` brings
``inspect``, ``ast`` and ``dis``; ``importlib.resources`` brings ``pathlib``
and ``tempfile``; none of them is needed at run time, and neither is the
``json`` package, decoder and all: ``notation`` escapes JSON strings itself,
and only ``local-model --format json`` imports ``json``.  A well-formed call
does not load argparse either, nor ``gettext``, ``locale`` and ``shutil``
with it: cli reads such an argv itself and builds argparse's parser only for
help and usage errors.  The package root is lazy, cli's top imports only
``notation`` (the text of everything but class expressions), and cli imports
``grammar`` and each engine module in the verbs that run them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import singclass
from singclass import cli, verification

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


# the json package, which notation's own escaper replaces: no verb decodes
# JSON, and only local-model's json format imports it
_JSON = {"json", "json.decoder", "json.scanner"}


def test_the_cli_import_loads_no_unused_stdlib():
    names = {
        "dataclasses", "inspect", "ast", "dis", "typing",
        "importlib.resources", "pathlib", "tempfile",
    } | _JSON
    assert _loaded("import singclass.cli", names) == []


def test_verify_reads_the_golden_tables_without_importlib_resources():
    code = (
        "from singclass import cli\n"
        "assert cli.main(['verify', 'appendix']) == 0"
    )
    assert _loaded(code, {"importlib.resources", "pathlib"}) == []


# the modules every call loads: cli, notation and what notation imports
_BASE = {"cli", "notation", "combinatorics", "errors"}

# the class text and what it imports
_CLASS_TEXT = {"grammar", "classes", "trees"}

# the one call of VERB_MODULES that is not well formed, so argparse reads it
MALFORMED = ["verify", "nosuch"]

# argv of one call -> the singclass modules it loads beyond _BASE
VERB_MODULES = [
    (["product", "3"], _CLASS_TEXT),
    (["psi", "2"], _CLASS_TEXT),
    (["to-sing", "d[0,1]"], _CLASS_TEXT),
    (["to-basic", "i[1,3]"], _CLASS_TEXT),
    (["product", "2", "--format", "json"], _CLASS_TEXT),
    (["char", "[2,1]", "[3]"], set()),
    (["char", "[2,1]", "[3]", "--format", "json"], set()),
    (["coeff", "psi", "2", "{1,1}"], {"classes", "trees"}),
    (["completed-cycle", "3"], {"cycles"}),
    (["completed-cycle", "3", "--format", "json"], {"cycles"}),
    (["x-poly", "3"], {"cycles"}),
    (["multiply-cycles", "{2}", "{2}"], {"cycles"}),
    (["coeff", "delta", "[1]", "{2}"], {"cycles"}),
    (["local-model", "{2}", "0", "1"], {"local_models"}),
    (["verify", "appendix"], {"verification", "cycles"} | _CLASS_TEXT),
    (MALFORMED, set()),
]

_SUBMODULES = {path.stem for path in (SRC / "singclass").glob("*.py")} - {"__init__"}

# argparse, what it imports and what its first message and help formatter load
_ARGPARSE = {"argparse", "gettext", "locale", "shutil"}


@pytest.mark.parametrize("argv, extra", VERB_MODULES, ids=[" ".join(a) for a, _ in VERB_MODULES])
def test_a_verb_loads_only_the_modules_it_runs(argv, extra):
    code = f"from singclass import cli\nassert cli.main({argv!r}) == {2 if argv == MALFORMED else 0}"
    names = {f"singclass.{m}" for m in _SUBMODULES} | _ARGPARSE | _JSON
    loaded = set(_loaded(code, names))
    assert loaded - _ARGPARSE == {f"singclass.{m}" for m in _BASE | extra}
    # only the malformed call goes through argparse, which reports it
    assert loaded & _ARGPARSE == (_ARGPARSE if argv == MALFORMED else set())


def test_a_full_call_loads_no_shutil():
    # argparse imports shutil (and fnmatch, zlib, bz2 and lzma with it) in
    # each help formatter; a well-formed call builds none
    code = "from singclass import cli\nassert cli.main(['char', '[2,1]', '[3]']) == 0"
    assert _loaded(code, {"shutil", "fnmatch", "zlib", "bz2", "lzma"}) == []


def test_cycle_text_from_the_package_root_loads_no_class_side():
    code = "import singclass\nsingclass.parse_cycles('C[2]')"
    names = {"singclass.classes", "singclass.trees", "singclass.grammar", "singclass.notation"}
    assert _loaded(code, names) == ["singclass.notation"]


def test_an_unknown_suite_exits_2_with_empty_stdout(capsys):
    assert cli.main(["verify", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'nosuch'" in captured.err


def test_the_suite_choices_are_the_suites():
    # cli spells them as a literal, so that parsing the arguments loads no verification
    assert cli._SUITES == tuple(sorted(verification.SUITES))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from singclass import *", namespace)
    assert set(singclass.__all__) <= set(namespace)
    for name in singclass.__all__:
        home = sys.modules[f"singclass.{singclass._HOMES[name]}"]
        assert namespace[name] is getattr(home, name)
    assert set(singclass.__all__) <= set(dir(singclass))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        singclass.nope
    assert not hasattr(singclass, "nope")
