"""Solve the benchmark's panel pairs with two source trees and compare the results.

    python3 tools/panel_diff.py OLD_SRC NEW_SRC

Run from the repository root; OLD_SRC and NEW_SRC are directories that hold a
``stratba`` package (for example ``src`` of two checkouts). The panels come
from ``perfbench/run.py`` (``WORKLOADS``: problem seed, start seed and solve
arguments of every pair) and the inputs from ``perfbench/gen.py``, generated
once with OLD_SRC so that both trees solve the same files. Every solve runs in
a fresh process with one BLAS thread. For each pair and trace stage it prints
both iteration counts and the largest relative difference of the trace costs
over the iterations both runs reached (0 means bit-identical). For each pair's
state file, and its metric-upgrade file where it writes one
(``<stem>_metric.txt``, the ``--metric`` solves), it prints "byte-identical"
or the largest relative difference of the two files' numbers. The last line
counts the traces that are bit-identical (the same costs over the same
iterations), the byte-identical states and the byte-identical metric files;
like ``cmp``, it exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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
    print(f"{'pair':<22} {'stage':<7} {'iters old':>9} {'iters new':>9} {'max rel diff':>13}")
    same_traces, n_traces, same_states, n_states, same_metrics, n_metrics = 0, 0, 0, 0, 0, 0
    with tempfile.TemporaryDirectory(prefix="panel_diff-") as tmp:
        work = Path(tmp)
        for name, wl in bench.WORKLOADS.items():
            inputs = work / name / "inputs"
            seeds = sorted({p for p, _ in wl.panel})
            _run([sys.executable, str(PERFBENCH / "gen.py"), wl.kind, *wl.gen_args,
                  "--seeds", *map(str, seeds), "--out", str(inputs)], solver_env(trees[0]))
            for problem_seed, start_seed in wl.panel:
                stem = f"{wl.kind}-{problem_seed}"
                outs = []
                for side, tree in zip(("old", "new"), trees):
                    out = work / name / f"{problem_seed}-{start_seed}-{side}"
                    _run([sys.executable, "-m", "stratba.cli", "solve", *wl.solve_args,
                          "--seed", str(start_seed), "--out-dir", str(out),
                          str(inputs / f"{stem}.txt")], solver_env(tree))
                    outs.append(out)
                traces = [bench.read_trace(out / f"{stem}_trace.csv") for out in outs]
                label = f"{name} {problem_seed}/{start_seed}"
                for stage in traces[0] | traces[1]:  # a stage on one side only differs
                    old, new = ([r[1] for r in t.get(stage, [])] for t in traces)
                    its = [len(old) - 1, len(new) - 1]
                    print(f"{label:<22} {stage:<7} {its[0]:>9} {its[1]:>9} "
                          f"{max_rel_diff(old, new):>13.1e}")
                    same_traces += old == new
                    n_traces += 1
                verdict = compare_files([out / f"{stem}_state.txt" for out in outs])
                print(f"{label:<22} state   {verdict}")
                same_states += verdict == "byte-identical"
                n_states += 1
                metrics = [out / f"{stem}_metric.txt" for out in outs]
                if any(path.exists() for path in metrics):  # a file on one side only differs
                    verdict = (compare_files(metrics) if all(path.exists() for path in metrics)
                               else "on one side only")
                    print(f"{label:<22} metric  {verdict}")
                    same_metrics += verdict == "byte-identical"
                    n_metrics += 1
    print(f"{same_traces}/{n_traces} traces bit-identical, "
          f"{same_states}/{n_states} states byte-identical, "
          f"{same_metrics}/{n_metrics} metric files byte-identical")
    same = (same_traces, same_states, same_metrics) == (n_traces, n_states, n_metrics)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
