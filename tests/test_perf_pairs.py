"""Unit tests for ``tools/perf_pairs.py``'s summary of canned results."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import perf_pairs
finally:
    sys.path.pop(0)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def line(throughput, p50=400.0, rss=62.0, setup=0.3, failed=0):
    """One canned ``perfbench/run.py`` stdout: traffic line, then result."""
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
            "latency_ms_p50": {"value": p50, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return '{"points_per_rep": 240}\n' + json.dumps(result) + "\n"


def parsed(*lines):
    return [perf_pairs.parse_result(text) for text in lines]


def test_parse_result_reads_last_line():
    result = perf_pairs.parse_result(line(300.0))
    assert perf_pairs.metric(result, "throughput_per_s") == 300.0
    assert perf_pairs.parse_result("") is None
    assert perf_pairs.parse_result("Traceback ...\nValueError: boom\n") is None


def test_clear_gain_and_bounds():
    parent = parsed(*(line(t, p50=450 + i) for i, t in enumerate(
        [268, 270, 271, 269, 272, 270, 266, 273, 270, 271])))
    change = parsed(*(line(t, p50=390 + i) for i, t in enumerate(
        [305, 311, 309, 310, 308, 312, 306, 310, 309, 311])))
    summary = perf_pairs.summarize(parent, change, END_TO_END)
    tput = summary["metrics"]["throughput_per_s"]
    assert tput["wins"] == 10 and tput["pairs"] == 10
    assert tput["gain"] is True and tput["bound"] == "ok"
    assert tput["parent"][1] == 270.0 and tput["change"][1] == 309.5
    p50 = summary["metrics"]["latency_ms_p50"]
    assert p50["wins"] == 10 and p50["gain"] is True  # lower is better
    # Identical memory: no wins, no gain, inside its bound.
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["gain"] is False and rss["bound"] == "ok"
    assert summary["failed_runs"] == 0 and summary["runs"] == 20


def test_eight_of_ten_wins_is_no_gain():
    parent = parsed(*(line(270.0) for _ in range(10)))
    change = parsed(*(line(t) for t in [300] * 8 + [260, 270]))
    tput = perf_pairs.summarize(parent, change, END_TO_END)["metrics"][
        "throughput_per_s"
    ]
    assert tput["wins"] == 8  # the tie counts for neither side
    assert tput["gain"] is False


def test_incomplete_pairs_count_against_the_gain():
    parent = parsed(*(line(270.0 + i % 3) for i in range(10)))
    change = parsed(*[line(310.0)] * 8 + ["no json here"] * 2)
    tput = perf_pairs.summarize(parent, change, END_TO_END)["metrics"][
        "throughput_per_s"
    ]
    # 8 wins of 8 complete pairs, but only 8 of the 10 pairs run.
    assert tput["wins"] == 8 and tput["pairs"] == 8
    assert tput["gain"] is False


def test_gain_needs_more_than_parent_spread():
    parent = parsed(*(line(t) for t in [200, 250, 300, 350, 400, 200, 250, 300, 350, 400]))
    change = parsed(*(line(t + 10) for t in [200, 250, 300, 350, 400, 200, 250, 300, 350, 400]))
    tput = perf_pairs.summarize(parent, change, END_TO_END)["metrics"][
        "throughput_per_s"
    ]
    assert tput["wins"] == 10 and tput["gain"] is False
    # The parent's spread exceeds the bound and the change's runs do not
    # all beat the parent's: better in the median, but unresolved.
    assert tput["bound"] == "unresolved"


@pytest.mark.parametrize(
    "rss,verdict", [(62.0 * 1.05, "ok"), (62.0 * 1.2, "worse")]
)
def test_regression_bound(rss, verdict):
    parent = parsed(*(line(270.0, rss=62.0) for _ in range(4)))
    change = parsed(*(line(270.0, rss=rss) for _ in range(4)))
    summary = perf_pairs.summarize(parent, change, END_TO_END)
    assert summary["metrics"]["peak_rss_mb"]["bound"] == verdict


def test_wide_parent_spread_is_unresolved():
    parent = parsed(*(line(270.0, setup=s) for s in [0.2, 0.3, 0.5, 0.6]))
    change = parsed(*(line(270.0, setup=s) for s in [0.25, 0.4, 0.45, 0.7]))
    summary = perf_pairs.summarize(parent, change, END_TO_END)
    assert summary["metrics"]["setup_s"]["bound"] == "unresolved"


def test_failed_or_missing_runs_are_counted():
    parent = parsed(line(270.0), line(270.0, failed=2))
    change = parsed(line(300.0), "no json here")
    summary = perf_pairs.summarize(parent, change, END_TO_END)
    assert summary["failed_runs"] == 2
    # Only the complete pair is compared.
    assert summary["metrics"]["throughput_per_s"]["pairs"] == 1
    assert "failed runs: 2 of 4" in perf_pairs.format_table(summary)


def bytecode_tree(root):
    """A checkout with caches inside and outside the cleared trees."""
    for rel in ("src/pkg/__pycache__/a.pyc", "src/pkg/sub/__pycache__/b.pyc",
                "perfbench/__pycache__/c.pyc", "tools/__pycache__/d.pyc",
                "src/pkg/mod.py"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text("")
    return root


def caches(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("__pycache__"))


def test_clear_bytecode_removes_src_and_perfbench_caches(tmp_path):
    root = bytecode_tree(tmp_path)
    assert perf_pairs.clear_bytecode(root) == 3
    assert caches(root) == ["tools/__pycache__"]
    assert (root / "src/pkg/mod.py").is_file()
    assert perf_pairs.clear_bytecode(root) == 0


def test_main_clears_both_checkouts_before_the_first_pair(tmp_path, monkeypatch):
    parent = bytecode_tree(tmp_path / "parent")
    change = bytecode_tree(tmp_path / "change")
    (change / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    seen = []

    def run_once(checkout, workload, seed, seconds):
        seen.append((checkout.name, caches(parent), caches(change)))
        return None

    monkeypatch.setattr(perf_pairs, "ROOT", change)
    monkeypatch.setattr(perf_pairs, "PAIRS", 1)
    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    assert perf_pairs.main(["--parent", str(parent),
                            "--workload", "design-sweep"]) == 1
    left = ["tools/__pycache__"]
    assert seen == [("parent", left, left), ("change", left, left)]
