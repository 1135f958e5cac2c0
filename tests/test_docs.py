"""The doc-check hook: documentation that executes.

Every fenced ``python`` code block containing doctest prompts in
``README.md`` and ``docs/*.md`` is run as a self-contained doctest, the
CLI flags documented in ``docs/USAGE.md`` are checked against the actual
``run_all`` argparse parser, every ``python -m repro...`` module the
docs mention must be importable, every ``src/repro/...`` path they
name must exist, and every script in ``examples/`` must run to
completion.  ``make docs-check`` runs this file
plus smoke runs of the documented commands, so the docs cannot rot.
"""

import doctest
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MODULE = re.compile(r"python -m (repro[\w.]*)")
_SRC_PATH = re.compile(r"src/repro/[\w./]*[\w/]")


def _doctest_blocks():
    for path in DOC_FILES:
        for i, block in enumerate(_FENCE.findall(path.read_text())):
            if ">>>" in block:
                yield pytest.param(path.name, block, id=f"{path.name}-block{i}")


def test_docs_exist():
    for path in DOC_FILES:
        assert path.is_file(), path
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "ARCHITECTURE.md", "USAGE.md"} <= names


def test_docs_have_executable_examples():
    blocks = list(_doctest_blocks())
    assert len(blocks) >= 4, "README/docs lost their executable examples"


@pytest.mark.parametrize("source,block", list(_doctest_blocks()))
def test_doc_block_executes(source, block):
    """Each fenced example runs in a fresh namespace and must pass."""
    parser = doctest.DocTestParser()
    test = parser.get_doctest(block, {}, source, source, 0)
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    result = runner.run(test)
    assert result.failed == 0, f"doctest failure in {source} (see captured output)"


def test_usage_flags_match_cli_parsers():
    """Every --flag named in the docs must exist on a real parser
    (run_all's, the scenario-API CLI's, the service CLI's, the suite
    CLI's -- subcommand flags included -- perfbench's or the developer
    tools'), and the flags the docs promise must actually be documented."""
    import argparse
    import sys

    from repro.api.__main__ import build_parser as api_parser
    from repro.experiments.run_all import build_parser as run_all_parser
    from repro.report.__main__ import build_parser as report_parser
    from repro.service.__main__ import build_parser as service_parser
    from repro.suites.__main__ import build_parser as suites_parser

    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from load_test import build_parser as load_test_parser
        from perfbench.run import build_parser as perfbench_parser
        from profile_experiment import build_parser as profile_parser
    finally:
        sys.path.pop(0)
        sys.path.pop(0)

    def walk(parser):
        for action in parser._actions:
            yield from action.option_strings
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from walk(sub)

    parser_flags = {
        opt
        for parser in (
            run_all_parser(),
            api_parser(),
            report_parser(),
            service_parser(),
            suites_parser(),
            perfbench_parser(),
            profile_parser(),
            load_test_parser(),
        )
        for opt in walk(parser)
    }
    for path in (ROOT / "docs" / "USAGE.md", ROOT / "README.md"):
        documented = set(re.findall(r"(--[a-z][a-z0-9-]*)", path.read_text()))
        unknown = documented - parser_flags - {"--no-use-pep517"}
        assert not unknown, f"{path.name} documents unknown flags: {unknown}"
    usage = (ROOT / "docs" / "USAGE.md").read_text()
    assert "--pipelines" in usage and "--fast" in usage and "--sweep" in usage
    # Every profiled section the docs name is a real choice of the
    # profiler's positional argument, the query-suites and design-sweep
    # runs among them.
    (experiment,) = [a for a in profile_parser()._actions if a.dest == "experiment"]
    profiled = set(re.findall(r"(?:EXPERIMENT=|profile_experiment\.py )(\w+)", usage))
    assert {"suites", "sweep"} <= profiled <= set(experiment.choices)


def test_profiler_sort_takes_every_pstats_key():
    """``--sort`` takes pstats' own names (every ``SortKey`` value and
    the abbreviations such as ``cumtime``) besides the three it always
    took."""
    import cProfile
    import pstats

    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from profile_experiment import build_parser
    finally:
        sys.path.pop(0)
    profiler = cProfile.Profile()
    profiler.runcall(sum, [1, 2])
    keys = {key.value for key in pstats.SortKey}
    keys |= {"cumulative", "tottime", "ncalls", "cumtime", "time"}
    for key in sorted(keys):
        assert build_parser().parse_args(["sweep", "--sort", key]).sort == key
        pstats.Stats(profiler).sort_stats(key)  # pstats takes it too


def test_documented_modules_are_importable():
    """Every `python -m repro...` target mentioned in the docs exists."""
    for path in DOC_FILES:
        for module in set(_MODULE.findall(path.read_text())):
            module = module.rstrip(".")
            if module.endswith("<module>"):
                continue
            assert importlib.util.find_spec(module) is not None, (path.name, module)


def test_documented_source_paths_exist():
    """Every `src/repro/...` path the docs link or name (README's layer
    map included) is still in the tree."""
    for path in DOC_FILES:
        for src_path in set(_SRC_PATH.findall(path.read_text())):
            assert (ROOT / src_path).exists(), (path.name, src_path)


def test_usage_experiment_table_covers_all_modules():
    """docs/USAGE.md's module table must name every experiment module."""
    import repro.experiments as pkg

    usage = (ROOT / "docs" / "USAGE.md").read_text()
    pkg_dir = Path(pkg.__path__[0])
    modules = {
        p.stem
        for p in pkg_dir.glob("*.py")
        if p.stem not in ("__init__", "common", "run_all")
    }
    missing = {m for m in modules if f"`{m}`" not in usage}
    assert not missing, f"docs/USAGE.md missing experiment modules: {missing}"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    """Each example script runs against the source tree and exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
