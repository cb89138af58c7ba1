"""The module graph of the package, read from the source with ``ast``.

The class side (trees, classes) and the cycle side (cycles) rest on a shared
bottom layer and never import each other.  The text layer is split the same
way: notation, on the bottom layer alone, reads and writes everything but
class expressions, and grammar, above the class side, reads and writes
class expressions and tree literals.  Each text form has one home: grammar
re-exports no public name of notation but the four cycle-text names that the
benchmark reads through it, and no module, in ``src`` or among the tests,
reads a notation name through grammar.  Verification is the only other
module that uses both sides, and cli is on top.
``exact`` is an empty placeholder that no module imports: the truncated
power series it held had no engine user and are gone, and the file stays
only because the benchmark's tracer imports every module it names as a
layer (``test_every_benchmark_layer_is_a_module`` and
``test_the_benchmark_tracer_installs`` fail once a layer it names is missing).
Every import of a library module sits in its import block, so that block
says what the module depends on, and every name a module imports is read
in it.  Only the two entry points defer imports,
so that a CLI call loads just what its verb runs: each of cli's verb handlers
imports its engine module (and the class verbs grammar), cli's build_parser
imports argparse, which only help and usage errors need, and the package
root imports the home module of a public name on first access.  A library module that deferred an import would
pay for it inside every timed call.

The value types build their instances through their canonical constructors;
``object.__new__`` appears only in ``errors.Record._make``, the one unchecked
builder, and in ``trees.MarkedTree.__new__``, the one constructor of trees,
which hash-conses them in the one module-level table of ``trees``.  No
module defines a second tree constructor beside it, and no ``_make`` calls
``super()``: a class whose stored slots are not its fields names them in
``_stored``, so every value is built in the one frame of ``Record._make``,
and ``MarkedTree._make`` is the tree constructor, so it returns the interned
node.

Every memo table is named here: each ``lru_cache`` is unbounded and lives
as long as the process, so a new one is a reviewed change.  So are the two
module-level tables beside them, the node table of ``trees`` and the shape
table of ``combinatorics``.  No memo of
``grammar`` takes a parameter named ``text``: a memo keyed on a whole input
would answer repeated texts from its table, not from the parser; nor does
a memo of ``notation``.

No function nested in another refers to its own name: a closure that calls
itself holds a reference cycle (function -> cell -> function), which only
the cyclic collector frees, on every call of the function that defines it.
Recursion is written as a module-level function that takes its state as
arguments.

An argument is refused in ``errors``: a count through ``_count`` or
``_integer``, an operand of the wrong type through ``_operand``.  No other
module writes such a refusal by hand, an ``if`` that tests ``_integer(...)``
or ``not isinstance(...)`` and raises ``ConstraintError``, but the floor of
the verify suites, whose messages name the CLI option.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "singclass").glob("*.py"))

_BOTTOM = {"errors", "combinatorics"}
_SIDES = _BOTTOM | {"trees", "classes", "cycles", "local_models"}

# module -> the singclass modules it may import
ALLOWED = {
    "errors": set(),
    "exact": set(),
    "combinatorics": {"errors"},
    "trees": {"errors"},
    "classes": _BOTTOM | {"trees"},
    "cycles": _BOTTOM,
    "local_models": {"errors"},
    "notation": _BOTTOM,
    "grammar": _BOTTOM | {"notation", "trees", "classes"},
    "verification": _SIDES | {"notation", "grammar"},
    "cli": _SIDES | {"notation", "grammar", "verification"},
    "__init__": _SIDES | {"notation", "grammar"},
}

# module -> the (function, import) pairs allowed inside function bodies: the
# CLI loads traceback only when it reports an internal error, and each engine
# module and the class text only in the verbs that run them, to keep start-up
# short; the package root loads a name's home module on first access
DEFERRED = {
    "cli": {
        ("main", "traceback"),
        ("build_parser", "argparse"),
        ("_cmd_product", ".classes"),
        ("_cmd_product", ".grammar"),
        ("_cmd_psi", ".classes"),
        ("_cmd_psi", ".grammar"),
        ("_cmd_convert", ".classes"),
        ("_cmd_convert", ".grammar"),
        ("_cmd_completed_cycle", ".cycles"),
        ("_cmd_x_poly", ".cycles"),
        ("_cmd_multiply_cycles", ".cycles"),
        ("_cmd_char", ".combinatorics"),
        ("_cmd_coeff", ".classes"),
        ("_cmd_coeff", ".cycles"),
        ("_cmd_local_model", ".local_models"),
        ("_cmd_verify", ".verification"),
    },
    "__init__": {("__getattr__", "importlib")},
}


# (module, function) pairs that may name object.__new__
OBJECT_NEW = {("errors", "Record._make"), ("trees", "MarkedTree.__new__")}

# module -> the functions it memoises with lru_cache, fifteen tables in all
# (the beta sets of the partitions asked about live in the shape records of
# combinatorics, beside them)
MEMO_TABLES = {
    "classes": {"_psi_stick", "_product_ints", "_psi_ints", "_basic_ints", "_sing_ints"},
    "combinatorics": {"_partitions_of", "_mn", "_dimension"},
    "cycles": {"_log_s", "_completed_cycle"},
    "grammar": {"_class_atom", "_atom_ints", "_star_atom"},
    "trees": {"_encoding", "_branch_options"},
}

# (module, function) pairs that may refuse an argument by hand
HAND_GATES = {("verification", "_floor")}

# names of the canonical tree factory and its table, which MarkedTree replaced
RETIRED_TREE_NAMES = {"tree", "_canonical", "_CANONICAL"}


def _benchmark_layers() -> tuple[str, ...]:
    """The LAYERS tuple of perfbench/tracing.py, read with ast: the modules
    the benchmark's tracer imports."""
    tracing = SRC.parent / "perfbench" / "tracing.py"
    for node in _tree(tracing).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(node: ast.Import | ast.ImportFrom) -> set[str]:
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if node.level and not node.module:  # from . import a, b
        return {"." + alias.name for alias in node.names}
    return {"." * node.level + (node.module or "")}


def _singclass_imports(path: Path) -> set[str]:
    """Every singclass module the file imports, wherever the import stands."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _imported_names(node):
                if name.startswith("."):
                    out.add(name.lstrip(".").split(".")[0])
                elif name.startswith("singclass."):
                    out.add(name.split(".")[1])
    return out


def _function_imports(path: Path) -> set[tuple[str, str]]:
    """(function, imported name) for every import inside a function body."""
    out = set()
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    out.update((fn.name, name) for name in _imported_names(node))
    return out


def _object_new_users(path: Path) -> set[str]:
    """The dotted name of every class or function body that names object.__new__."""
    out = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__new__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                out.add(".".join(scope))
            visit(child, scope)

    visit(_tree(path), ())
    return out


def _makes_calling_super(tree: ast.AST) -> set[str]:
    """The dotted name of every function named _make whose body calls super()."""
    out = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + (child.name,)
                if child.name == "_make" and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "super"
                    for n in ast.walk(child)
                ):
                    out.add(".".join(name))
                visit(child, name)

    visit(tree, ())
    return out


def _nested_functions(tree: ast.AST) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(dotted name, node) of every function defined inside another function's body."""
    out = []

    def visit(node: ast.AST, scope: tuple[str, ...], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_function:
                    out.append((".".join(scope + (child.name,)), child))
                visit(child, scope + (child.name,), True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), in_function)
            else:
                visit(child, scope, in_function)

    visit(tree, (), False)
    return out


def _self_referring_closures(tree: ast.AST) -> set[str]:
    """The dotted name of every nested function whose body names itself."""
    return {
        name
        for name, fn in _nested_functions(tree)
        if any(_mentions(statement, fn.name) for statement in fn.body)
    }


def _mentions(node: ast.AST, name: str) -> bool:
    """Whether node names the bare name ``name`` anywhere."""
    return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))


def _hand_gates(path: Path) -> set[str]:
    """The dotted name of every function with an ``if`` whose test names
    _integer or is ``not isinstance(...)``, and whose body raises
    ConstraintError."""
    out = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.If):
                test = child.test
                gate = _mentions(test, "_integer") or (
                    isinstance(test, ast.UnaryOp)
                    and isinstance(test.op, ast.Not)
                    and _mentions(test.operand, "isinstance")
                )
                raises = any(
                    isinstance(n, ast.Raise) and n.exc is not None and _mentions(n.exc, "ConstraintError")
                    for statement in child.body
                    for n in ast.walk(statement)
                )
                if gate and raises:
                    out.add(".".join(scope))
            visit(child, scope)

    visit(_tree(path), ())
    return out


def _memoised_functions(path: Path) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function the file decorates with lru_cache or cache."""
    out = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in fn.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    out.append(fn)
    return out


def _memoised(path: Path) -> set[str]:
    """The name of every function the file decorates with lru_cache or cache."""
    return {fn.name for fn in _memoised_functions(path)}


def _module_bindings(path: Path) -> dict[str, ast.AST | None]:
    """Each name the module binds at its top level: to the assigned value,
    or to None for a function or a class."""
    out: dict[str, ast.AST | None] = {}
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node.value) for t in targets if isinstance(t, ast.Name))
    return out


def _unused_imports(path: Path) -> set[str]:
    """The names the file imports and never reads, ``from __future__``
    imports aside; a name in ``__all__`` counts as read, since the module
    exports it."""
    imported, read = set(), set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    exported = _module_bindings(path).get("__all__")
    if isinstance(exported, (ast.List, ast.Tuple)):
        read.update(ast.literal_eval(exported))
    return imported - read


def _is_dict(value: ast.AST | None) -> bool:
    return isinstance(value, (ast.Dict, ast.DictComp)) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "dict"
    )


def _grammar_reads(path: Path) -> set[str]:
    """The public names of notation that the file reads through grammar:
    ``grammar.X`` or ``from .grammar import X`` (``singclass.grammar`` alike)."""
    public = set(importlib.import_module("singclass.notation").__all__)
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "grammar":
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "grammar":
            out.add(node.attr)
    return out & public


def test_grammar_re_exports_only_what_the_benchmark_reads_through_it():
    # ROADMAP item 1 moves these reads of perfbench/ to notation, and then
    # the four re-exports go
    notation = importlib.import_module("singclass.notation")
    grammar = importlib.import_module("singclass.grammar")
    bench = set().union(*(_grammar_reads(SRC.parent / "perfbench" / f"{name}.py")
                          for name in ("ops", "make_data")))
    assert bench == {"parse_cycles", "render_cycles", "render_cycles_latex", "cycles_to_json"}
    assert set(grammar.__all__) & set(notation.__all__) == bench
    assert {name for name in notation.__all__ if hasattr(grammar, name)} == bench


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_reads_notation_through_grammar(path):
    assert _grammar_reads(path) == set()


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_test_reads_notation_through_grammar(path):
    assert _grammar_reads(path) == set()


def test_every_module_is_in_the_layer_map():
    assert {path.stem for path in MODULES} == set(ALLOWED)


def test_only_the_entry_points_defer_imports():
    assert set(DEFERRED) <= {"cli", "__init__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function_body(path):
    assert _function_imports(path) - DEFERRED.get(path.stem, set()) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    assert _singclass_imports(path) - ALLOWED[path.stem] == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    # no linter is a test dependency: an import left behind by a deletion
    # would otherwise only cost start-up time
    assert _unused_imports(path) == set()


def test_the_two_sides_never_import_each_other():
    imports = {path.stem: _singclass_imports(path) for path in MODULES}
    for module in ("trees", "classes"):
        assert "cycles" not in imports[module]
    assert "classes" not in imports["trees"]
    for module in ("cycles", "combinatorics"):
        assert imports[module].isdisjoint({"classes", "trees", "grammar"})
    # the text below both sides compiles neither side, nor the class text
    assert imports["notation"].isdisjoint({"classes", "trees", "cycles", "grammar"})


def test_the_package_root_loads_no_submodule():
    # `import singclass` loads no singclass module (the root is lazy), nor
    # importlib.resources: the golden tables are read with open()
    code = (
        "import sys, singclass; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith(('singclass', 'importlib.resources')))))"
    )
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=SRC, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert loaded == ["singclass"]


def test_values_are_built_without_their_constructor_in_two_places_only():
    found = {(path.stem, name) for path in MODULES for name in _object_new_users(path)}
    assert found == OBJECT_NEW


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_make_calls_super(path):
    # Record._make is the one builder: a subclass names its stored slots in
    # _stored, and an override that chains to it is a second frame per value
    assert _makes_calling_super(_tree(path)) == set()


def test_the_super_guard_sees_an_override():
    chained = ast.parse(
        "class Polynomial(Record):\n"
        "    @classmethod\n"
        "    def _make(cls, form):\n"
        "        self = super()._make()\n"
        "        return self\n"
        "    def scale(self, c):\n"
        "        return super().scale(c)\n"
    )
    assert _makes_calling_super(chained) == {"Polynomial._make"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_tree_factory_beside_the_constructor(path):
    assert set(_module_bindings(path)) & RETIRED_TREE_NAMES == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_nested_function_refers_to_itself(path):
    assert _self_referring_closures(_tree(path)) == set()


def test_the_closure_guard_sees_nested_functions():
    # notation._rational_literal's item is a nested function that does not call itself
    nested = {name for name, _ in _nested_functions(_tree(SRC / "singclass" / "notation.py"))}
    assert "_rational_literal.item" in nested
    recursive = ast.parse(
        "def graft(outer):\n"
        "    def rebuild(node):\n"
        "        return [rebuild(c) for c in node]\n"
        "    return rebuild(outer)\n"
        "class K:\n"
        "    def walk(self):\n"
        "        def step(n):\n"
        "            yield from step(n - 1)\n"
        "        return step\n"
    )
    assert _self_referring_closures(recursive) == {"graft.rebuild", "K.walk.step"}


def test_arguments_are_refused_in_errors_only():
    found = {
        (path.stem, name) for path in MODULES if path.stem != "errors" for name in _hand_gates(path)
    }
    assert found == HAND_GATES


def test_every_memo_table_is_listed():
    found = {path.stem: _memoised(path) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == MEMO_TABLES


def test_no_grammar_memo_is_keyed_on_a_text():
    # a memo keyed on a whole input text would answer a repeated text from
    # its table, so a benchmark that repeats texts would time the cache and
    # not the parser, and the table would grow with every distinct input
    found = {
        fn.name
        for module in ("grammar", "notation")
        for fn in _memoised_functions(SRC / "singclass" / f"{module}.py")
        if "text" in {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
    }
    assert found == set()


def test_trees_keep_one_node_table():
    bindings = _module_bindings(SRC / "singclass" / "trees.py")
    assert [name for name, value in bindings.items() if _is_dict(value)] == ["_NODES"]


def test_combinatorics_keeps_one_shape_table():
    # one shape record per canonical partition, in place of a beta-set memo
    bindings = _module_bindings(SRC / "singclass" / "combinatorics.py")
    assert [name for name, value in bindings.items() if _is_dict(value)] == ["_SHAPES"]


def test_exact_is_an_empty_placeholder():
    exact = importlib.import_module("singclass.exact")
    assert [name for name in vars(exact) if not name.startswith("_")] == []
    errors = importlib.import_module("singclass.errors")
    assert not hasattr(errors, "TruncationError")
    singclass = importlib.import_module("singclass")
    for name in ("PowerSeries", "s_series", "series_scale_arg"):
        assert name not in singclass.__all__
        with pytest.raises(AttributeError):
            getattr(singclass, name)


@pytest.mark.parametrize("layer", _benchmark_layers())
def test_every_benchmark_layer_is_a_module(layer):
    assert layer in ALLOWED
    assert (SRC / "singclass" / f"{layer}.py").is_file()


def test_the_benchmark_tracer_installs():
    # the tracer of perfbench/ imports every module it names as a layer, so
    # a module deleted before the benchmark's layer list drops it fails here
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']; import tracing; "
        "t = tracing.Tracer(); t.install(); t.uninstall()"
    )
    subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC.parent, check=True)
