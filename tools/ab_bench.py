"""Run the solve benchmark in two checkouts, in alternating pairs, and judge each metric.

    python3 tools/ab_bench.py OLD_ROOT NEW_ROOT [--workload W ...] [--pairs N]

OLD_ROOT and NEW_ROOT are repository roots (for example a clone of the parent
commit and this checkout), each with its own ``perfbench/run.py`` and
``src/stratba``. For each workload (by default every one that BENCHMARK.json
declares) it runs ``perfbench/run.py --trace 0`` N times in each root, for
the benchmark's ``run_seconds``, in pairs: the old side runs first in even
pairs and the new side in odd ones. For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles over its runs, the
change's wins (pairs whose new run reads better; ties count for neither) and
a verdict (``verdict``):

- ``gain``: the change wins at least nine tenths of the pairs, its median is
  better than the old one by more than the old runs' interquartile range, and
  no larger share of operations fails than on the old side;
- ``regression``: otherwise, the new median is worse than the old one by more
  than the metric's bound, taken as a fraction of the old median;
- ``unresolved``: otherwise, either side's runs spread (interquartile range
  over median) wider than the bound, unless every new run reads better than
  every old run;
- ``within bound``: otherwise.

Then it prints each side's failed and attempted operations, summed over its
runs, and how many of its runs failed the benchmark's own output checks. The
bounds and the run length come from the BENCHMARK.json beside this tool.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_WIN_SHARE = 0.9
SIDES = ("old", "new")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def relative_spread(samples: list[float]) -> float:
    """Interquartile range over the median's magnitude."""
    q1, median, q3 = quartiles(samples)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(old: list[float], new: list[float], better: str, bound: float,
            more_failures: bool = False) -> tuple[int, str]:
    """The change's wins over the pairs (old[i], new[i]) and the metric's verdict.

    ``better`` is "higher" or "lower"; ``more_failures`` says that a larger
    share of the new side's operations failed, which voids a gain.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    q1_old, median_old, q3_old = quartiles(old)
    improvement = sign * (quartiles(new)[1] - median_old)
    if wins >= GAIN_WIN_SHARE * len(old) and improvement > q3_old - q1_old and not more_failures:
        return wins, "gain"
    if -improvement > bound * abs(median_old):
        return wins, "regression"
    every_run_better = min(sign * b for b in new) > max(sign * a for a in old)
    if max(relative_spread(old), relative_spread(new)) > bound and not every_run_better:
        return wins, "unresolved"
    return wins, "within bound"


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``root``; its closing JSON object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: perfbench/run.py --workload {workload} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(workload: str, runs: dict[str, list[dict]], metrics: list[dict],
           seconds: float) -> None:
    pairs = len(runs["old"])
    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
    more_failures = failed["new"] * attempted["old"] > failed["old"] * attempted["new"]
    print(f"{workload}: {pairs} pairs of {seconds:g}-s runs, the old side first in even pairs")
    print(f"{'metric':<22} {'unit':<10} {'old median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'wins':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        samples = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        wins, word = verdict(samples["old"], samples["new"], metric["better"], metric["bound"],
                             more_failures)
        cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(samples[side]))
                 for side in SIDES]
        print(f"{name:<22} {metric['unit']:<10} {cells[0]:>34} {cells[1]:>34} "
              f"{f'{wins}/{pairs}':>6}  {word} (bound {metric['bound']:g})")
    print("failed operations: " + ", ".join(
        f"{side} {failed[side]} of {attempted[side]}" for side in SIDES))
    print("runs failing the output checks: " + ", ".join(
        f"{side} {sum(not r['correct'] for r in runs[side])} of {pairs}" for side in SIDES))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(
        description="alternating runs of the solve benchmark in two checkouts, judged per metric")
    ap.add_argument("old_root", type=Path, help="root of the reference checkout")
    ap.add_argument("new_root", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    args = ap.parse_args()
    roots = dict(zip(SIDES, (args.old_root.resolve(), args.new_root.resolve())))
    for root in roots.values():
        if not (root / "src" / "stratba" / "__init__.py").is_file():
            print(f"{root}: no stratba package under src/", file=sys.stderr)
            return 2
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = bench["run_seconds"]
    for workload in args.workload or names:
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                print(f"{workload} pair {pair + 1}/{args.pairs}: {side}", file=sys.stderr)
                runs[side].append(run_benchmark(roots[side], workload, pair, seconds))
        report(workload, runs, bench["end_to_end"], seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
