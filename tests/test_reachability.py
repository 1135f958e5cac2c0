"""Every ``src/repro`` module is reachable from an entry point, or is a
named test-only reference.

A static walk of ``import`` / ``from ... import`` statements at any
depth (function-level lazy imports count) starts from every way the
package is entered: ``import repro`` and its lazily loaded
``repro._SUBMODULES``, each ``python -m`` package (``__main__.py``)
and the report driver.  A module
the walk never reaches is dead code unless a test compares production
numbers against it; those are listed in :data:`TEST_ONLY_REFERENCES`,
and production must never import them.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Slow or event-level models production never loads, each with the
#: test that checks production numbers against it.
TEST_ONLY_REFERENCES = {
    "repro.dram.bank": "tests/test_dram.py",
    "repro.dram.vault": "tests/test_integration_event_replay.py",
    "repro.operators.reference": "tests/test_reference_equivalence.py",
}

#: Modules run directly rather than imported by the package.
ENTRY_MODULES = ("repro.experiments.run_all",)


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
