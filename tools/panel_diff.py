"""Solve the benchmark's panel pairs with two source trees and compare the results.

    python3 tools/panel_diff.py OLD_SRC NEW_SRC

Run from the repository root; OLD_SRC and NEW_SRC are directories that hold a
``stratba`` package (for example ``src`` of two checkouts). The panels come
from ``perfbench/run.py`` (``WORKLOADS``: problem seed, start seed and solve
arguments of every pair) and the inputs from ``perfbench/gen.py``, generated
once with OLD_SRC so that both trees solve the same files. Then, since the
panels never run some solvers, it also solves the first ``ring-direct`` pair
with every stage-1 x stage-2 solver pair (``solve --full``), labelled
``<stage-1 solver>/<stage-2 solver>``, and compares those solves the same way.
Every solve runs in a fresh process with one BLAS thread. For each pair and
trace stage it prints both iteration counts and the largest relative
difference of the trace costs over the iterations both runs reached (0 means
bit-identical), and that of their final costs (where the iteration counts or
the units of a stage differ, the final costs are what is left to compare).
For each pair's state file, and its metric-upgrade file where it writes one
(``<stem>_metric.txt``, the ``--metric`` solves), it prints "byte-identical"
or the largest relative difference of the two files' numbers. For each pair's
``<stem>_summary.json`` it prints "summary identical" or the key paths that
differ, with every ``runtime_seconds`` removed on both sides. The last line
counts the traces that are bit-identical (the same costs over the same
iterations), the byte-identical states, the byte-identical metric files and
the identical summaries, then the traces with equal iteration counts and the
largest relative difference of the trace costs over all pairs, so that a
change that only reorders sums reads as such at a glance; like ``cmp``, it
exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# The solver names of each stage (the keys of ``solvers.STAGE1_SOLVERS`` and
# ``STAGE2_SOLVERS``). Every stage-1 x stage-2 pair of them is also solved on
# the first panel pair of SWEEP_WORKLOAD, since the panels leave some unused.
STAGE1_SOLVERS = ("povar", "poba", "iterative", "direct")
STAGE2_SOLVERS = ("ripoba", "ripcg")
SWEEP_WORKLOAD = "ring-direct"


def bench_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def solver_env(src: Path) -> dict:
    """The environment of a solve: SRC on the path, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(argv: list[str], env: dict) -> None:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv[:4])} ... exited with {proc.returncode}")


def max_rel_diff(old: list[float], new: list[float]) -> float:
    """Largest |a - b| / max(|a|, |b|) over the common prefix; 0 for equal values."""
    worst = 0.0
    for a, b in zip(old, new):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def file_numbers(text: str) -> list[float]:
    """Every number of an artifact's text; section tags are skipped."""
    numbers = []
    for token in text.split():
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def compare_files(paths: list[Path]) -> str:
    """"byte-identical", or the largest relative difference of the two files' numbers."""
    data = [path.read_bytes() for path in paths]
    if data[0] == data[1]:
        return "byte-identical"
    old, new = (file_numbers(d.decode()) for d in data)
    if len(old) != len(new):
        return f"different ({len(old)} vs {len(new)} numbers)"
    return f"max rel diff {max_rel_diff(old, new):.1e}"


def without_runtimes(value):
    """A JSON value with every ``runtime_seconds`` key of its nested objects removed."""
    if isinstance(value, dict):
        return {k: without_runtimes(v) for k, v in value.items() if k != "runtime_seconds"}
    return value


def differing_paths(old, new, path: str = "") -> list[str]:
    """The key paths (``stages.stage1.final_cost``, ``a[2]``) at which two JSON
    values differ. Leaves compare by their JSON text, so 1 differs from 1.0 and
    NaN equals NaN; a dict whose keys are equal but ordered differently is
    reported as ``<path> (key order)``."""
    if isinstance(old, dict) and isinstance(new, dict):
        paths = []
        for key in [*old, *(k for k in new if k not in old)]:
            sub = f"{path}.{key}" if path else str(key)
            paths += (differing_paths(old[key], new[key], sub)
                      if key in old and key in new else [sub])
        if not paths and list(old) != list(new):
            paths.append(f"{path or '$'} (key order)")
        return paths
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in differing_paths(a, b, f"{path}[{i}]")]
    return [] if json.dumps(old) == json.dumps(new) else [path or "$"]


def compare_summaries(paths: list[Path]) -> str:
    """"identical", or the key paths at which the two summaries differ, runtimes aside."""
    old, new = (without_runtimes(json.loads(path.read_text())) for path in paths)
    diff = differing_paths(old, new)
    return "identical" if not diff else "differs at " + ", ".join(diff)


def compare_solve(label: str, solve_args: list[str], input_path: Path, out_base: Path,
                  trees: list[Path], bench, tally: dict) -> None:
    """Solve one input with both trees, print the comparisons and add them to ``tally``."""
    stem = input_path.name.split(".")[0]
    outs = []
    for side, tree in zip(("old", "new"), trees):
        out = out_base.with_name(f"{out_base.name}-{side}")
        _run([sys.executable, "-m", "stratba.cli", "solve", *solve_args, "--out-dir", str(out),
              str(input_path)], solver_env(tree))
        outs.append(out)
    traces = [bench.read_trace(out / f"{stem}_trace.csv") for out in outs]
    for stage in traces[0] | traces[1]:  # a stage on one side only differs
        old, new = ([r[1] for r in t.get(stage, [])] for t in traces)
        its = [len(old) - 1, len(new) - 1]
        final = max_rel_diff(old[-1:], new[-1:])
        worst = max_rel_diff(old, new)
        print(f"{label:<22} {stage:<7} {its[0]:>9} {its[1]:>9} {worst:>13.1e} {final:>15.1e}")
        tally["same_traces"] += old == new
        tally["traces"] += 1
        tally["same_iterations"] += its[0] == its[1]
        tally["worst_cost"] = max(tally["worst_cost"], worst)
    verdict = compare_files([out / f"{stem}_state.txt" for out in outs])
    print(f"{label:<22} state   {verdict}")
    tally["same_states"] += verdict == "byte-identical"
    tally["states"] += 1
    metrics = [out / f"{stem}_metric.txt" for out in outs]
    if any(path.exists() for path in metrics):  # a file on one side only differs
        verdict = (compare_files(metrics) if all(path.exists() for path in metrics)
                   else "on one side only")
        print(f"{label:<22} metric  {verdict}")
        tally["same_metrics"] += verdict == "byte-identical"
        tally["metrics"] += 1
    verdict = compare_summaries([out / f"{stem}_summary.json" for out in outs])
    print(f"{label:<22} summary {verdict}")
    tally["same_summaries"] += verdict == "identical"
    tally["summaries"] += 1


def main() -> int:
    ap = argparse.ArgumentParser(description="compare the benchmark panels solved by two trees")
    ap.add_argument("old_src", type=Path, help="directory holding the reference stratba")
    ap.add_argument("new_src", type=Path, help="directory holding the changed stratba")
    args = ap.parse_args()
    trees = [args.old_src.resolve(), args.new_src.resolve()]
    for tree in trees:
        if not (tree / "stratba" / "__init__.py").is_file():
            print(f"{tree}: no stratba package", file=sys.stderr)
            return 2
    bench = bench_module()
    print(f"{'pair':<22} {'stage':<7} {'iters old':>9} {'iters new':>9} {'max rel diff':>13} "
          f"{'final rel diff':>15}")
    tally = dict.fromkeys(["traces", "same_traces", "same_iterations", "states", "same_states",
                           "metrics", "same_metrics", "summaries", "same_summaries"], 0)
    tally["worst_cost"] = 0.0
    with tempfile.TemporaryDirectory(prefix="panel_diff-") as tmp:
        work = Path(tmp)
        for name, wl in bench.WORKLOADS.items():
            inputs = work / name / "inputs"
            seeds = sorted({p for p, _ in wl.panel})
            _run([sys.executable, str(PERFBENCH / "gen.py"), wl.kind, *wl.gen_args,
                  "--seeds", *map(str, seeds), "--out", str(inputs)], solver_env(trees[0]))
            for problem_seed, start_seed in wl.panel:
                compare_solve(f"{name} {problem_seed}/{start_seed}",
                              [*wl.solve_args, "--seed", str(start_seed)],
                              inputs / f"{wl.kind}-{problem_seed}.txt",
                              work / name / f"{problem_seed}-{start_seed}", trees, bench, tally)
        wl = bench.WORKLOADS[SWEEP_WORKLOAD]
        problem_seed, start_seed = wl.panel[0]
        for stage1, stage2 in itertools.product(STAGE1_SOLVERS, STAGE2_SOLVERS):
            compare_solve(f"{stage1}/{stage2}",
                          ["--full", "--solver", stage1, "--stage2-solver", stage2,
                           "--seed", str(start_seed)],
                          work / SWEEP_WORKLOAD / "inputs" / f"{wl.kind}-{problem_seed}.txt",
                          work / "sweep" / f"{stage1}-{stage2}", trees, bench, tally)
    print(f"{tally['same_traces']}/{tally['traces']} traces bit-identical, "
          f"{tally['same_states']}/{tally['states']} states byte-identical, "
          f"{tally['same_metrics']}/{tally['metrics']} metric files byte-identical, "
          f"{tally['same_summaries']}/{tally['summaries']} summaries identical; "
          f"{tally['same_iterations']}/{tally['traces']} traces with equal iteration counts, "
          f"largest trace-cost rel diff {tally['worst_cost']:.1e}")
    same = all(tally[f"same_{key}"] == tally[key]
               for key in ("traces", "states", "metrics", "summaries"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
