"""The doc-check hook: documentation that executes.

Every fenced ``python`` code block containing doctest prompts in
``README.md`` and ``docs/*.md`` is run as a self-contained doctest, the
CLI flags documented in ``docs/USAGE.md`` are checked against the actual
``run_all`` argparse parser, and every ``python -m repro...`` module the
docs mention must be importable.  ``make docs-check`` runs this file
plus smoke runs of the documented commands, so the docs cannot rot.
"""

import doctest
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MODULE = re.compile(r"python -m (repro[\w.]*)")


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


def test_documented_modules_are_importable():
    """Every `python -m repro...` target mentioned in the docs exists."""
    for path in DOC_FILES:
        for module in set(_MODULE.findall(path.read_text())):
            module = module.rstrip(".")
            if module.endswith("<module>"):
                continue
            assert importlib.util.find_spec(module) is not None, (path.name, module)


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
