"""Every ``src/repro`` module is reachable from an entry point, or is a
named test-only reference; every public name in a reachable module is
used outside the tests, or is a named test-only name.

A static walk of ``import`` / ``from ... import`` statements at any
depth (function-level lazy imports count) starts from every way the
package is entered: ``import repro`` and its lazily loaded
``repro._SUBMODULES``, each ``python -m`` package (``__main__.py``)
and the report driver.  A module
the walk never reaches is dead code unless a test compares production
numbers against it; those are listed in :data:`TEST_ONLY_REFERENCES`,
and production must never import them.

Inside the reached modules, each public module-level function or class
and each public method or property must have a caller: its identifier
read in a reached module (outside its own body; an ``__init__``
re-export or ``__all__`` entry is not a read), named in ``tools/``,
``perfbench/`` or ``examples/``, or used by a doctested block of the
docs.  Matching is by identifier alone, so a common name such as
``get`` counts as used.  The check runs to a fixpoint: a name read only
by the body of an uncalled name is uncalled too.  Names production never
calls but a test uses to watch production behaviour are listed in
:data:`TEST_ONLY_NAMES`.
"""

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Slow or event-level models production never loads, each with the
#: test that checks production numbers against it.
TEST_ONLY_REFERENCES = {
    "repro.dram.bank": "tests/test_dram.py",
    "repro.dram.vault": "tests/test_integration_event_replay.py",
    "repro.operators.hashtable": "tests/test_hashtable.py",
    "repro.operators.reference": "tests/test_reference_equivalence.py",
    "repro.operators.sort_algos": "tests/test_sort_algos.py",
}

#: Public names of reached modules that production never calls, each
#: with a test that reads production behaviour through it.
TEST_ONLY_NAMES = {
    "repro.columnar.hashtable.SegmentedLinearProbingTable.capacities": (
        "tests/test_columnar.py"
    ),
    "repro.memctrl.permutable.ShuffleBarrier.completion_vector": (
        "tests/test_reference_equivalence.py"
    ),
    "repro.memctrl.permutable.ShuffleBarrier.expected_bytes": (
        "tests/test_reference_equivalence.py"
    ),
    "repro.suites.runner.functional_digests": "tests/test_suites.py",
    "repro.telemetry.codec.decode_snapshot": "tests/test_telemetry.py",
    "repro.telemetry.trace.Tracer.find": "tests/test_telemetry.py",
}

#: Modules run directly rather than imported by the package.
ENTRY_MODULES = ("repro.experiments.run_all",)

#: Trees outside ``src/`` whose code counts as a production caller.
CALLER_DIRS = ("tools", "perfbench", "examples")

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DOCTEST_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def module_files():
    """Dotted module name -> source file, for every module under src/repro."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path, module):
    """Every module name an import statement in ``path`` may load.

    ``from a import b`` yields both ``a`` and ``a.b``; the caller keeps
    whichever names a real module.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            target = ".".join(p for p in (base, node.module) if p)
            names.add(target)
            names.update(f"{target}.{alias.name}" for alias in node.names)
    return names


def with_parents(name):
    """``a.b.c`` -> ``a``, ``a.b``, ``a.b.c``: importing a module runs
    every enclosing package's ``__init__``."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def reachable(modules, roots):
    seen = set()
    todo = [name for root in roots for name in with_parents(root)]
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        for imported in imported_names(modules[name], name):
            todo.extend(with_parents(imported))
    return seen


def entry_points(modules):
    roots = {"repro"}
    roots.update(f"repro.{name}" for name in repro._SUBMODULES)
    roots.update(name for name in modules if name.endswith(".__main__"))
    roots.update(ENTRY_MODULES)
    return roots


def production_modules():
    """Dotted name -> source file of every module production loads."""
    modules = module_files()
    reached = reachable(modules, entry_points(modules))
    return {name: modules[name] for name in sorted(reached)}


def public_definitions(module, path, tree):
    """``(qualified name, identifier, path, first line, last line)`` of
    each public module-level function or class and each public method
    or property of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not sub.name.startswith("_")
                ):
                    yield (
                        f"{module}.{node.name}.{sub.name}",
                        sub.name,
                        path,
                        sub.lineno,
                        sub.end_lineno,
                    )


def identifier_reads(tree):
    """``(identifier, line)`` of every name or attribute the code reads.

    Import aliases and string constants are not reads, so neither an
    ``__init__`` re-export nor an ``__all__`` entry counts.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def outside_callers():
    """Identifiers named by the caller trees or by doctested doc blocks."""
    names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names.update(_IDENTIFIER.findall(path.read_text()))
    for path in [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md")):
        for block in _DOCTEST_FENCE.findall(path.read_text()):
            if ">>>" in block:
                names.update(_IDENTIFIER.findall(block))
    return names


def uncalled_names(modules, kept):
    """Qualified name -> ``file:line`` of every public name in
    ``modules`` with no caller, found by iterating to a fixpoint.

    Names in ``kept`` count as called, and so do the names they read.
    """
    definitions = []
    reads = defaultdict(list)  # identifier -> [(path, line)]
    for module, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.extend(public_definitions(module, path, tree))
        for identifier, line in identifier_reads(tree):
            reads[identifier].append((path, line))
    called_outside = outside_callers()

    def inside(span, path, line):
        return span[0] == path and span[1] <= line <= span[2]

    dead = {}
    while True:
        dead_spans = list(dead.values())
        newly = {}
        for qualname, identifier, path, first, last in definitions:
            if qualname in dead or qualname in kept:
                continue
            if identifier in called_outside:
                continue
            own = (path, first, last)
            if any(
                not inside(own, where, line)
                and not any(inside(span, where, line) for span in dead_spans)
                for where, line in reads[identifier]
            ):
                continue
            newly[qualname] = own
        if not newly:
            return {
                qualname: f"{path.relative_to(ROOT)}:{first}"
                for qualname, (path, first, _) in sorted(dead.items())
            }
        dead.update(newly)


def test_every_module_is_reachable_or_a_named_reference():
    modules = module_files()
    reached = reachable(modules, entry_points(modules))
    leaked = reached & TEST_ONLY_REFERENCES.keys()
    assert not leaked, f"production imports test-only references: {sorted(leaked)}"
    assert set(modules) - reached == set(TEST_ONLY_REFERENCES)
    for reference, test_file in TEST_ONLY_REFERENCES.items():
        assert reference in imported_names(ROOT / test_file, "tests"), (
            f"{test_file} no longer compares against {reference}"
        )


def test_every_public_name_is_called_or_a_named_test_only_name():
    uncalled = uncalled_names(production_modules(), kept=TEST_ONLY_NAMES)
    assert not uncalled, "public names nothing calls:\n" + "\n".join(
        f"  {name} ({where})" for name, where in uncalled.items()
    )


def test_test_only_names_are_current():
    """Each listed name still exists, still has no production caller,
    and its test still uses it."""
    modules = production_modules()
    defined = {
        qualname
        for module, path in modules.items()
        for qualname, *_ in public_definitions(module, path, ast.parse(path.read_text()))
    }
    uncalled = uncalled_names(modules, kept=())
    for name, test_file in TEST_ONLY_NAMES.items():
        assert name in defined, f"{name} is gone; drop it from TEST_ONLY_NAMES"
        assert name in uncalled, f"production calls {name}; drop it from TEST_ONLY_NAMES"
        identifier = name.rpartition(".")[2]
        assert identifier in _IDENTIFIER.findall((ROOT / test_file).read_text()), (
            f"{test_file} no longer uses {name}"
        )


def test_oracles_are_defined_only_in_test_only_modules():
    oracles = {"LinearProbingHashTable", "PermutableRegionConfig", "PermutableWriteEngine"}
    production = {
        f"{module}.{node.name}"
        for module, path in production_modules().items()
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name in oracles
    }
    assert not production, f"oracles defined in production modules: {sorted(production)}"


# -- the checks themselves, on a small synthetic tree -------------------------


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """Write ``{relative path: source}`` under a fresh root and return
    the dotted-name -> file map of its ``src/pkg`` modules."""
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    for directory in ("src/pkg", "docs", *CALLER_DIRS):
        (tmp_path / directory).mkdir(parents=True)
    (tmp_path / "README.md").write_text("# pkg\n")

    def write(files):
        for relative, source in files.items():
            (tmp_path / relative).write_text(source)
        modules = {}
        for path in (tmp_path / "src" / "pkg").rglob("*.py"):
            parts = path.relative_to(tmp_path / "src").with_suffix("").parts
            modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        return modules

    return write


def test_an_uncalled_helper_is_named_with_its_file_and_line(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def used():\n"
            "    return 1\n"
            "\n"
            "def helper():\n"
            "    return 2\n"
            "\n"
            "class Thing:\n"
            "    def run(self):\n"
            "        return used()\n"
        ),
        "src/pkg/main.py": "from pkg.core import Thing\nThing().run()\n",
    })
    assert uncalled_names(modules, kept=()) == {"pkg.core.helper": "src/pkg/core.py:4"}


def test_a_name_read_only_by_an_uncalled_name_is_uncalled_too(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def outer():\n"
            "    return inner()\n"
            "\n"
            "def inner():\n"
            "    return 0\n"
        ),
    })
    assert set(uncalled_names(modules, kept=())) == {"pkg.core.outer", "pkg.core.inner"}
    assert uncalled_names(modules, kept={"pkg.core.outer"}) == {}


def test_a_reexport_or_all_entry_is_not_a_read(tree):
    modules = tree({
        "src/pkg/__init__.py": 'from pkg.core import helper\n__all__ = ["helper"]\n',
        "src/pkg/core.py": "def helper():\n    return 2\n",
    })
    assert set(uncalled_names(modules, kept=())) == {"pkg.core.helper"}


def test_caller_trees_and_doctested_docs_count_as_callers(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def from_example():\n    return 1\n"
            "def from_doctest():\n    return 2\n"
            "def from_plain_block():\n    return 3\n"
        ),
        "examples/demo.py": "from pkg.core import from_example\nfrom_example()\n",
        "docs/GUIDE.md": (
            "```python\n>>> from pkg.core import from_doctest\n>>> from_doctest()\n2\n```\n"
            "\n```python\nfrom_plain_block()\n```\n"
        ),
    })
    assert set(uncalled_names(modules, kept=())) == {"pkg.core.from_plain_block"}


def test_the_module_walk_follows_relative_and_lazy_imports(tree):
    modules = tree({
        "src/pkg/__init__.py": "",
        "src/pkg/a.py": "def load():\n    from . import b\n    return b\n",
        "src/pkg/b.py": "from .c import VALUE\n",
        "src/pkg/c.py": "VALUE = 1\n",
        "src/pkg/orphan.py": "VALUE = 2\n",
    })
    assert reachable(modules, {"pkg.a"}) == {"pkg", "pkg.a", "pkg.b", "pkg.c"}
