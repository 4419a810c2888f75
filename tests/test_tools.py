"""The comparison tools under tools/ start, refuse a tree without stratba, and see the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stratba.solvers import STAGE1_SOLVERS, STAGE2_SOLVERS

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / name), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", ["panel_diff.py", "census.py", "ab_bench.py"])
def test_tool_help_exits_0(name):
    proc = run_tool(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("name, n_trees", [("panel_diff.py", 2), ("census.py", 1),
                                           ("ab_bench.py", 2)])
def test_tool_exits_2_without_a_stratba_package(name, n_trees, tmp_path):
    proc = run_tool(name, *[str(tmp_path)] * n_trees)
    assert proc.returncode == 2
    assert "no stratba package" in proc.stderr


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_panel_diff_solves_the_benchmark_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert list(load_tool("panel_diff").bench_module().WORKLOADS) == [wl["name"] for wl in declared]


def test_panel_diff_sweeps_every_solver_pair():
    tool = load_tool("panel_diff")
    assert list(tool.STAGE1_SOLVERS) == list(STAGE1_SOLVERS)
    assert list(tool.STAGE2_SOLVERS) == list(STAGE2_SOLVERS)
    assert tool.SWEEP_WORKLOAD in tool.bench_module().WORKLOADS


def test_panel_diff_compares_summaries_without_runtimes(tmp_path):
    old = {"config": {"seed": 1, "eta": 0.1},
           "stages": {"stage1": {"final_cost": 2.5, "runtime_seconds": 0.25},
                      "metric": {"plane_at_infinity": [0.0, 1.0], "runtime_seconds": 1.0}}}
    new = json.loads(json.dumps(old))
    new["stages"]["stage1"]["runtime_seconds"] = 0.5
    new["stages"]["metric"]["runtime_seconds"] = 3.0
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    tool = load_tool("panel_diff")

    def verdict():
        for path, summary in zip(paths, (old, new)):
            path.write_text(json.dumps(summary))
        return tool.compare_summaries(paths)

    assert verdict() == "identical"
    new["stages"]["stage1"]["final_cost"] = 2.0
    new["stages"]["metric"]["plane_at_infinity"][1] = -1.0
    assert verdict() == ("differs at stages.stage1.final_cost, "
                         "stages.metric.plane_at_infinity[1]")
    new = json.loads(json.dumps(old))
    new["config"] = {"eta": 0.1, "seed": 1}
    assert verdict() == "differs at config (key order)"


def test_ab_bench_verdicts_on_synthetic_samples():
    verdict = load_tool("ab_bench").verdict
    old = [1.0 + 0.01 * i for i in range(10)]  # interquartile range 0.045
    faster = [0.9 * t for t in old]
    assert verdict(old, faster, "lower", 0.24) == (10, "gain")
    # a gain needs nine wins in ten; ties count for neither side
    eight_wins = faster[:8] + old[8:]
    assert verdict(old, eight_wins, "lower", 0.24) == (8, "within bound")
    assert verdict(old, old, "lower", 0.24) == (0, "within bound")
    # the medians must differ by more than the old runs' interquartile range
    assert verdict(old, [t - 0.04 for t in old], "lower", 0.24) == (10, "within bound")
    # a larger share of failed operations voids a gain
    assert verdict(old, faster, "lower", 0.24, more_failures=True) == (10, "within bound")
    # "higher" metrics win upward; worse by more than the bound is a regression
    assert verdict(old, faster, "higher", 0.24) == (0, "within bound")
    assert verdict(old, faster, "higher", 0.05) == (0, "regression")
    assert verdict(old, [1.3 * t for t in old], "lower", 0.24) == (0, "regression")
    # runs spread wider than the bound leave a small difference unresolved
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert verdict(wide, wide[::-1], "lower", 0.24) == (5, "unresolved")
    assert verdict([1.0], [0.8], "lower", 0.24) == (1, "gain")
