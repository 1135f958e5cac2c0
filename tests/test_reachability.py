"""Every ``src/repro`` module is reachable from an entry point, or is a
named test-only reference; every public name in a reachable module has
a caller outside the tests, or is a named test-only name; every
parameter default in a reachable module is set by some call outside the
tests, or is a named test seam; every import in any module is loaded or
re-exported.

A static walk of ``import`` / ``from ... import`` statements at any
depth (function-level lazy imports count) starts from every way the
package is entered: ``import repro`` and its lazily loaded
``repro._SUBMODULES``, each ``python -m`` package (``__main__.py``)
and the report driver.  A module
the walk never reaches is dead code unless a test compares production
numbers against it; those are listed in :data:`TEST_ONLY_REFERENCES`,
and production must never import them.

Inside the reached modules, rules 1-3 hold; rule 4 holds in every
module, test-only references included.  All four read code as parsed
Python (``ast``), never as text.

1. **Methods and properties.**  A public method or property of a
   module-level class is called only by an attribute read (``.name``,
   in load context).  A bare name never calls it, so a local variable
   of the same name keeps nothing alive.
2. **Module-level names.**  A public module-level function, class or
   constant (an assignment) is called by a bare name in load context
   or by an attribute read.  An assignment target is not a read, nor
   is an import alias, so neither an ``__init__`` re-export nor an
   ``__all__`` entry counts.
3. **Parameter defaults.**  Every parameter with a default, of every
   module-level function and every method, is set by some call outside
   the tests, by keyword or by position.  Calls match by callee
   identifier: an ``__init__``'s callee is its class, and
   ``super().__init__(...)`` calls the class's bases.  A callee ever
   called with ``*args`` or ``**kwargs`` has every parameter set.
   Deployment settings (:data:`DEPLOYMENT_SETTINGS`) are exempt.

For rules 1 and 2 a read counts when it is in a reached module
(outside the name's own body) or in the caller trees (``tools/``,
``perfbench/``, ``examples/``) or the doctested blocks of the docs.  In
the caller trees a string constant that is an identifier counts as an
attribute read too, since perfbench names the functions it patches as
strings.  The check runs to a fixpoint: a name read only by the body of
an uncalled name is uncalled too.  Names production never calls but a
test uses to watch production behaviour are listed in
:data:`TEST_ONLY_NAMES`.

For rule 3 the setting calls are those in the reached modules, the
caller trees and the doctested doc blocks; a call in ``tests/`` does not
count, so a default only a test sets is a knob production never turns.
A default that exists so a test can inject something (a clock, a
timeout, a seed) is listed in :data:`TEST_SEAMS` with the test file
that sets it.

4. **Imports.**  Every name an import statement binds in a module of
   ``src/repro`` (at any depth; ``__future__`` imports aside) is loaded
   in that module -- as a bare name, or inside a quoted annotation --
   or is a re-export: listed in the module's ``__all__``, or imported
   from that module by a module of ``src/repro``, the caller trees,
   the doctested doc blocks or ``tests/``.
"""

import ast
import doctest
import functools
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

#: Parameter defaults only a test sets, as ``"qualified name(parameter)"``,
#: each with the test file that sets it.
TEST_SEAMS = {
    # Input shapes production never draws: duplicate-heavy keys and
    # few, large groups.
    "repro.analytics.workload.make_groupby_workload(avg_group_size)": (
        "tests/test_reference_equivalence.py"
    ),
    "repro.analytics.workload.make_scan_workload(key_space_bits)": (
        "tests/test_reference_equivalence.py"
    ),
    "repro.analytics.workload.make_sort_workload(key_space_bits)": (
        "tests/test_reference_equivalence.py"
    ),
    # Production stops a daemon whenever it is done; the test bounds
    # the wait on a daemon it cut off from its port.
    "repro.service.daemon.ServerHandle.stop(timeout)": "tests/test_service_errors.py",
    # An injected router with tight hedge deadlines or dead ports.
    "repro.service.fleet.router.start_fleet_background(router)": "tests/test_fleet.py",
    # Fake clocks that step time past deadlines and reset windows.
    "repro.service.resilience.retry.CircuitBreaker.__init__(clock)": (
        "tests/test_resilience.py"
    ),
    "repro.service.resilience.retry.RetryBudget.__init__(clock)": (
        "tests/test_resilience.py"
    ),
    # Production's one seed is the model; tests draw others to check
    # the seeded per-destination permutation.
    "repro.shuffle.interleave.random_interleave(seed)": "tests/test_shuffle.py",
}

#: Modules run directly rather than imported by the package.
ENTRY_MODULES = ("repro.experiments.run_all",)

#: Parameter names that are deployment settings, exempt from the
#: default check: where a daemon listens and where a store lives.
DEPLOYMENT_SETTINGS = ("host", "port", "path", "root", "store")

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
    for node in ast.walk(parse(path)):
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


@functools.lru_cache(maxsize=None)
def parse(path):
    """The parsed file, read and parsed once per path (the trees are
    only read, never changed)."""
    return ast.parse(path.read_text(), filename=str(path))


@functools.lru_cache(maxsize=None)
def parse_example(source):
    """A doctest example's parsed source, parsed once per text."""
    return ast.parse(source)


def public_definitions(module, path, tree):
    """``(qualified name, identifier, bare, path, first line, last line)``
    of each public module-level function, class or constant and each
    public method or property of a module-level class.

    ``bare`` says whether a bare ``Name`` load can call it: true for
    module-level names, false for methods and properties, which only
    an attribute read (``.name``) calls.
    """
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield (
                            f"{module}.{name.id}",
                            name.id,
                            True,
                            path,
                            node.lineno,
                            node.end_lineno,
                        )
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, True, path, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not sub.name.startswith("_")
                ):
                    yield (
                        f"{module}.{node.name}.{sub.name}",
                        sub.name,
                        False,
                        path,
                        sub.lineno,
                        sub.end_lineno,
                    )


def identifier_reads(tree, strings=False):
    """``(identifier, line, is attribute)`` of every name or attribute
    the code loads.

    Assignment targets, import aliases and (unless ``strings``) string
    constants are not reads, so neither an ``__init__`` re-export nor an
    ``__all__`` entry counts.  With ``strings``, a string constant that
    is an identifier counts as an attribute read: the caller trees name
    the attributes they patch as strings.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno, True


def doctest_trees():
    """The parsed examples of every doctested block of the docs."""
    parser = doctest.DocTestParser()
    for path in [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md")):
        for block in _DOCTEST_FENCE.findall(path.read_text()):
            for example in parser.get_examples(block):
                yield parse_example(example.source)


def caller_trees():
    """The parsed code of the caller trees and the doctested doc blocks."""
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield parse(path)
    yield from doctest_trees()


def outside_callers():
    """Identifier -> set of ways (``True``: attribute, ``False``: bare
    name) the caller trees and doctested doc blocks read it."""
    ways = defaultdict(set)
    for tree in caller_trees():
        for identifier, _, attribute in identifier_reads(tree, strings=True):
            ways[identifier].add(attribute)
    return ways


def uncalled_names(modules, kept):
    """Qualified name -> ``file:line`` of every public name in
    ``modules`` with no caller, found by iterating to a fixpoint.

    Names in ``kept`` count as called, and so do the names they read.
    """
    definitions = []
    reads = defaultdict(list)  # identifier -> [(path, line, is attribute)]
    for module, path in modules.items():
        tree = parse(path)
        definitions.extend(public_definitions(module, path, tree))
        for identifier, line, attribute in identifier_reads(tree):
            reads[identifier].append((path, line, attribute))
    called_outside = outside_callers()

    def inside(span, path, line):
        return span[0] == path and span[1] <= line <= span[2]

    # An attribute read calls any name; a bare name calls only a
    # module-level one (``bare``).
    dead = {}
    while True:
        dead_spans = list(dead.values())
        newly = {}
        for qualname, identifier, bare, path, first, last in definitions:
            if qualname in dead or qualname in kept:
                continue
            if any(bare or attribute for attribute in called_outside[identifier]):
                continue
            own = (path, first, last)
            if any(
                (bare or attribute)
                and not inside(own, where, line)
                and not any(inside(span, where, line) for span in dead_spans)
                for where, line, attribute in reads[identifier]
            ):
                continue
            newly[qualname] = own
        if not newly:
            return {
                qualname: f"{path.relative_to(ROOT)}:{first}"
                for qualname, (path, first, _) in sorted(dead.items())
            }
        dead.update(newly)


def call_sites(tree):
    """``(callee identifier, call)`` of every call in ``tree``.

    The callee is the called name or attribute; ``super().__init__(...)``
    inside a class calls each of the class's bases.
    """

    def visit(node, bases):
        if isinstance(node, ast.ClassDef):
            bases = [
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            ]
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                for base in bases:
                    yield base, node
            elif isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, bases)

    yield from visit(tree, [])


def defaulted_parameters(module, path, tree):
    """``(qualified name, callee, parameter, position, line)`` of each
    parameter with a default of a module-level function or of a method
    of a module-level class.

    ``position`` is the parameter's index among the positional
    arguments a call passes (``self`` and ``cls`` excluded), or ``None``
    for a keyword-only parameter.  An ``__init__``'s callee is its class.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    owned = []  # (function, callee, owner, is method)
    for node in tree.body:
        if isinstance(node, functions):
            owned.append((node, node.name, module, False))
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, functions):
                    callee = node.name if sub.name == "__init__" else sub.name
                    owned.append((sub, callee, f"{module}.{node.name}", True))
    for node, callee, owner, method in owned:
        args = node.args
        positional = args.posonlyargs + args.args
        if method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        ):
            positional = positional[1:]
        first_default = len(positional) - len(args.defaults)
        params = [
            (arg, index) for index, arg in enumerate(positional) if index >= first_default
        ] + [
            (arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, position in params:
            yield f"{owner}.{node.name}", callee, arg.arg, position, arg.lineno


def setting_trees(modules):
    """Every tree whose calls can set a parameter in production: the
    reached modules, the caller trees and the doctested doc blocks."""
    for path in modules.values():
        yield parse(path)
    yield from caller_trees()


def setter(trees):
    """``is_set(callee, parameter, position)``: whether a call in
    ``trees`` sets the parameter, by keyword or by position.

    Calls match by callee identifier; a callee ever called with
    ``*args`` or ``**kwargs`` has every parameter set.
    """
    positional = defaultdict(int)  # callee -> most positional arguments passed
    keywords = defaultdict(set)  # callee -> keywords passed
    starred = set()  # callees called with *args or **kwargs
    for tree in trees:
        for callee, call in call_sites(tree):
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                keyword.arg is None for keyword in call.keywords
            ):
                starred.add(callee)
            positional[callee] = max(positional[callee], len(call.args))
            keywords[callee].update(keyword.arg for keyword in call.keywords)

    def is_set(callee, name, position):
        return (
            callee in starred
            or name in keywords[callee]
            or (position is not None and positional[callee] > position)
        )

    return is_set


def defaults(modules):
    """``qualified name(parameter)`` -> ``(callee, parameter, position,
    file:line)`` of every parameter default in ``modules``."""
    return {
        f"{function}({name})": (callee, name, position, f"{path.relative_to(ROOT)}:{line}")
        for module, path in modules.items()
        for function, callee, name, position, line in defaulted_parameters(
            module, path, parse(path)
        )
    }


def unset_defaults(modules, kept):
    """``qualified name(parameter)`` -> ``file:line`` of every parameter
    default in ``modules`` that no call in :func:`setting_trees` sets.

    Deployment settings (:data:`DEPLOYMENT_SETTINGS`) and names in
    ``kept`` are exempt.
    """
    is_set = setter(setting_trees(modules))
    return {
        key: where
        for key, (callee, name, position, where) in sorted(defaults(modules).items())
        if key not in kept
        and name not in DEPLOYMENT_SETTINGS
        and not is_set(callee, name, position)
    }


def bound_imports(path, module):
    """``(bound name, imported name, line)`` of every name an import
    statement in ``path`` binds, at any depth (``__future__`` aside).

    ``import a.b`` binds ``a``; ``from a import b as c`` binds ``c`` to
    ``a.b``.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                yield bound, alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            target = ".".join(p for p in (base, node.module) if p)
            for alias in node.names:
                yield alias.asname or alias.name, f"{target}.{alias.name}", node.lineno


def loaded_names(tree):
    """Bare names ``tree`` loads, quoted annotations included, plus the
    string entries of its ``__all__``."""
    names = {identifier for identifier, _, attribute in identifier_reads(tree)
             if not attribute}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations = [
                arg.annotation
                for arg in arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs + [arguments.vararg, arguments.kwarg]
                if arg is not None
            ] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                names.update(identifier for identifier, _, attribute
                             in identifier_reads(quoted) if not attribute)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                entry.value for entry in ast.walk(node.value)
                if isinstance(entry, ast.Constant) and isinstance(entry.value, str)
            )
    return names


def unused_imports(modules):
    """``module.bound name`` -> ``file:line`` of every import in
    ``modules`` that its module never loads and nothing re-imports
    from it."""
    imported_from = set()
    for module, path in modules.items():
        imported_from.update(full for _, full, _ in bound_imports(path, module))
    for directory in (*CALLER_DIRS, "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            imported_from.update(full for _, full, _ in bound_imports(path, directory))
    for tree in doctest_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported_from.update(f"{node.module}.{a.name}" for a in node.names)
    unused = {}
    for module, path in modules.items():
        loaded = loaded_names(parse(path))
        for bound, _, line in bound_imports(path, module):
            name = f"{module}.{bound}"
            if bound not in loaded and name not in imported_from:
                unused[name] = f"{path.relative_to(ROOT)}:{line}"
    return dict(sorted(unused.items()))


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


def test_every_parameter_default_is_set_or_a_named_test_seam():
    unset = unset_defaults(production_modules(), kept=TEST_SEAMS)
    assert not unset, "parameter defaults no call sets:\n" + "\n".join(
        f"  {name} ({where})" for name, where in unset.items()
    )


def test_every_import_is_loaded_or_reexported():
    unused = unused_imports(module_files())
    assert not unused, "imports nothing loads:\n" + "\n".join(
        f"  {name} ({where})" for name, where in unused.items()
    )


def test_test_only_names_are_current():
    """Each listed name or constant still exists, still has no
    production caller, and its test still uses it; each test seam still
    exists, production still leaves it unset, and its test file still
    sets it."""
    modules = production_modules()
    defined = {
        qualname
        for module, path in modules.items()
        for qualname, *_ in public_definitions(module, path, parse(path))
    }
    uncalled = uncalled_names(modules, kept=())
    for name, test_file in TEST_ONLY_NAMES.items():
        assert name in defined, f"{name} is gone; drop it from TEST_ONLY_NAMES"
        assert name in uncalled, f"production calls {name}; drop it from TEST_ONLY_NAMES"
        identifier = name.rpartition(".")[2]
        assert identifier in _IDENTIFIER.findall((ROOT / test_file).read_text()), (
            f"{test_file} no longer uses {name}"
        )
    unset = unset_defaults(modules, kept=())
    parameters = defaults(modules)
    for seam, test_file in TEST_SEAMS.items():
        assert seam in unset, (
            f"{seam} is gone or production sets it; drop it from TEST_SEAMS"
        )
        callee, name, position, _ = parameters[seam]
        assert setter([parse(ROOT / test_file)])(callee, name, position), (
            f"{test_file} no longer sets {seam}"
        )


def test_oracles_are_defined_only_in_test_only_modules():
    oracles = {"LinearProbingHashTable", "PermutableRegionConfig", "PermutableWriteEngine"}
    production = {
        f"{module}.{node.name}"
        for module, path in production_modules().items()
        for node in parse(path).body
        if isinstance(node, ast.ClassDef) and node.name in oracles
    }
    assert not production, f"oracles defined in production modules: {sorted(production)}"


# -- the checks themselves, on a small synthetic tree -------------------------


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """Write ``{relative path: source}`` under a fresh root and return
    the dotted-name -> file map of its ``src/pkg`` modules."""
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    for directory in ("src/pkg", "docs", "tests", *CALLER_DIRS):
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


def test_a_method_named_like_a_local_variable_is_uncalled(tree):
    modules = tree({
        "src/pkg/core.py": (
            "class Cost:\n"
            "    def scaled(self, factor):\n"
            "        return factor\n"
        ),
        "src/pkg/main.py": (
            "from pkg.core import Cost\n"
            "scaled = Cost()\n"
            "print(scaled)\n"
        ),
        "tools/report.py": "scaled = 2\nprint(scaled)\n",
    })
    assert uncalled_names(modules, kept=()) == {"pkg.core.Cost.scaled": "src/pkg/core.py:2"}


def test_an_assignment_target_is_not_a_read(tree):
    modules = tree({
        "src/pkg/core.py": "def helper():\n    return 1\n\nclass Box:\n    pass\n",
        "src/pkg/main.py": (
            "from pkg.core import Box\n"
            "def _main():\n"
            "    helper = Box()\n"
            "    Box.helper = 2\n"
            "_main()\n"
        ),
    })
    assert set(uncalled_names(modules, kept=())) == {"pkg.core.helper"}


def test_an_unread_public_constant_is_uncalled(tree):
    modules = tree({
        "src/pkg/__init__.py": 'from pkg.core import UNREAD\n__all__ = ["UNREAD"]\n',
        "src/pkg/core.py": (
            "LIMIT = 3\n"
            "UNREAD = 4\n"
            "_PRIVATE = 5\n"
            "WIDTH, HEIGHT = 1, 2\n"
            "def area():\n"
            "    return WIDTH * LIMIT\n"
        ),
        "src/pkg/main.py": "import pkg.core\nprint(pkg.core.area())\n",
    })
    assert uncalled_names(modules, kept=()) == {
        "pkg.core.HEIGHT": "src/pkg/core.py:4",
        "pkg.core.UNREAD": "src/pkg/core.py:2",
    }


def test_a_string_attribute_name_in_a_caller_tree_counts_as_a_caller(tree):
    modules = tree({
        "src/pkg/core.py": (
            "class Engine:\n"
            "    def run(self):\n"
            "        return 1\n"
            "    def stop(self):\n"
            "        return 0\n"
        ),
        "src/pkg/main.py": 'from pkg.core import Engine\ngetattr(Engine(), "stop")\n',
        "perfbench/trace.py": (
            "from pkg.core import Engine\n"
            'POINTS = [(Engine, "run")]\n'
        ),
    })
    assert set(uncalled_names(modules, kept=())) == {"pkg.core.Engine.stop"}


def test_a_default_no_call_sets_is_named_with_its_file_and_line(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def fit(data, passes=1, rate=0.5, *, verbose=False, seed=0):\n"
            "    return data\n"
            "\n"
            "class Model:\n"
            "    def __init__(self, width=8):\n"
            "        self.width = width\n"
            "    def train(self, epochs=1):\n"
            "        return epochs\n"
        ),
        "src/pkg/main.py": (
            "from pkg.core import Model, fit\n"
            "fit([], 2, seed=3)\n"
            "Model(4).train()\n"
        ),
    })
    assert unset_defaults(modules, kept=()) == {
        "pkg.core.Model.train(epochs)": "src/pkg/core.py:7",
        "pkg.core.fit(rate)": "src/pkg/core.py:1",
        "pkg.core.fit(verbose)": "src/pkg/core.py:1",
    }
    assert unset_defaults(modules, kept={"pkg.core.fit(rate)", "pkg.core.fit(verbose)"}) == {
        "pkg.core.Model.train(epochs)": "src/pkg/core.py:7",
    }


def test_a_default_only_a_test_sets_is_flagged_unless_a_named_seam(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def fit(data, rate=0.5, clock=None):\n"
            "    return data\n"
        ),
        "src/pkg/main.py": "from pkg.core import fit\nfit([])\n",
        "tests/test_core.py": (
            "from pkg.core import fit\n"
            "fit([], rate=0.1)\n"
            "fit([], 0.2, clock=lambda: 0.0)\n"
        ),
    })
    seams = {"pkg.core.fit(clock)": "tests/test_core.py"}
    assert unset_defaults(modules, kept=seams) == {"pkg.core.fit(rate)": "src/pkg/core.py:1"}
    callee, name, position, _ = defaults(modules)["pkg.core.fit(clock)"]
    assert setter([parse(ROOT / "tests/test_core.py")])(callee, name, position)


def test_a_default_set_positionally_through_super_init_is_set(tree):
    modules = tree({
        "src/pkg/core.py": (
            "class Stage:\n"
            "    def __init__(self, inputs, name=None):\n"
            "        self.name = name\n"
            "\n"
            "class Filter(Stage):\n"
            "    def __init__(self, table, label):\n"
            "        super().__init__([table], label)\n"
            "\n"
            "class Scan(Stage):\n"
            "    def __init__(self, table, key=0):\n"
            "        super().__init__([table])\n"
        ),
        "src/pkg/main.py": "from pkg.core import Filter, Scan\nFilter('t', 'f')\nScan('t')\n",
    })
    assert unset_defaults(modules, kept=()) == {
        "pkg.core.Scan.__init__(key)": "src/pkg/core.py:10",
    }


def test_a_callee_called_with_star_arguments_has_every_parameter_set(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def build(n, seed=0, *, scale=1.0):\n"
            "    return n\n"
            "def plan(n, seed=0):\n"
            "    return n\n"
        ),
        "src/pkg/main.py": (
            "from pkg.core import build, plan\n"
            "build(1, **{'scale': 2.0})\n"
            "plan(*[1])\n"
        ),
    })
    assert unset_defaults(modules, kept=()) == {}


def test_deployment_settings_are_exempt(tree):
    modules = tree({
        "src/pkg/core.py": (
            "def serve(host='127.0.0.1', port=0, path=None, jobs=1):\n"
            "    return host, port, path, jobs\n"
        ),
        "src/pkg/main.py": "from pkg.core import serve\nserve()\n",
    })
    assert unset_defaults(modules, kept=()) == {"pkg.core.serve(jobs)": "src/pkg/core.py:1"}


def test_a_doctested_block_sets_a_default(tree):
    modules = tree({
        "src/pkg/core.py": "def render(rows, indent=2):\n    return rows\n",
        "docs/GUIDE.md": (
            "```python\n>>> from pkg.core import render\n>>> render([], indent=4)\n[]\n```\n"
        ),
    })
    assert unset_defaults(modules, kept=()) == {}


def test_an_unloaded_import_is_named_with_its_file_and_line(tree):
    modules = tree({
        "src/pkg/__init__.py": (
            "from pkg.core import Box, helper\n"
            '__all__ = ["Box"]\n'
        ),
        "src/pkg/core.py": (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import TYPE_CHECKING, List, Optional\n"
            "from dataclasses import dataclass, field\n"
            "if TYPE_CHECKING:\n"
            "    from pkg.main import Runner\n"
            "\n"
            "@dataclass\n"
            "class Box:\n"
            "    items: List[int]\n"
            "\n"
            "def helper(runner: 'Runner') -> Optional[str]:\n"
            "    import json as codec\n"
            "    field = 1\n"
            "    return os.path.sep\n"
        ),
        "src/pkg/main.py": "class Runner:\n    pass\n",
        "src/pkg/client.py": "from pkg.retry import Policy  # re-exported\n",
        "src/pkg/retry.py": "class Policy:\n    pass\n",
        "tests/test_client.py": "from pkg.client import Policy\n",
    })
    assert unused_imports(modules) == {
        "pkg.core.codec": "src/pkg/core.py:13",
        "pkg.core.field": "src/pkg/core.py:4",
        "pkg.helper": "src/pkg/__init__.py:1",
    }
