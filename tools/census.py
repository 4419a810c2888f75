"""Stage-1 stall census: solve a fixed set of hard generated problems and count failures.

    python3 tools/census.py SRC

Run from the repository root; SRC is a directory that holds a ``stratba``
package (for example ``src``). The problems come from ``perfbench/gen.py bal``
with 30 cameras, 1500 landmarks and Zipf(1.8) track lengths: seeds 10-15 and
the stall-prone seeds 3 and 4 with tracks of at least 3 views, and seed 1 with
tracks of at least 2 views. Each is solved from starts 0-3 with povar in
stage 1 and ripoba in stage 2, 50 iterations per stage (36 solves), every
solve in a fresh process with one BLAS thread, a few at a time. A solve is
*capped* when stage 1 stops at its iteration cap, and *fails* when stage 2
ends more than 1 % above the ground-truth cost of the generating cameras and
points, or when the solve stops on a numeric failure.

It prints one line per solve (stage-1 iterations, the ratio of the final
stage-2 cost to the ground-truth cost, and the verdicts), then the capped and
failed counts and the median number of stage-1 iterations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from panel_diff import PERFBENCH, bench_module, solver_env

GEN = PERFBENCH / "gen.py"

MAX_ITERATIONS = 50
# The counts do not depend on how many solves run at once; this only bounds
# wall time and memory (about 100 MB per solve).
WORKERS = min(4, os.cpu_count() or 1)
FAIL_RATIO = 1.01
STARTS = (0, 1, 2, 3)
COMMON = ("--cameras", "30", "--landmarks", "1500", "--zipf", "1.8")
# (label, extra gen.py flags, problem seeds)
GROUPS = (
    ("z18", ("--min-track", "3"), (10, 11, 12, 13, 14, 15, 3, 4)),
    ("z18-t2", ("--min-track", "2"), (1,)),
)


def _solve(src: Path, problem: Path, start: int, out: Path) -> dict:
    argv = [sys.executable, "-m", "stratba.cli", "solve", "--full", "--solver", "povar",
            "--stage2-solver", "ripoba", "--max-iterations", str(MAX_ITERATIONS),
            "--seed", str(start), "--out-dir", str(out), str(problem)]
    proc = subprocess.run(argv, env=solver_env(src), capture_output=True, text=True)
    if proc.returncode not in (0, 4):  # 4: numeric failure, artifacts kept
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"solve of {problem.name} from start {start} exited {proc.returncode}")
    return json.loads((out / f"{problem.stem}_summary.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description="count stage-1 stalls on hard generated problems")
    ap.add_argument("src", type=Path, help="directory holding the stratba package")
    args = ap.parse_args()
    src = args.src.resolve()
    if not (src / "stratba" / "__init__.py").is_file():
        print(f"{src}: no stratba package", file=sys.stderr)
        return 2
    bench = bench_module()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        jobs = []
        for label, flags, seeds in GROUPS:
            inputs = work / label
            subprocess.run([sys.executable, str(GEN), "bal", *COMMON, *flags, "--seeds",
                            *map(str, seeds), "--out", str(inputs)],
                           env=solver_env(src), check=True)
            for seed in seeds:
                problem = inputs / f"bal-{seed}.txt"
                with np.load(inputs / f"bal-{seed}_gt.npz") as gt:
                    gt_cost = bench.ground_truth_cost(gt)
                jobs += [(f"{label}/bal-{seed}", problem, start, gt_cost) for start in STARTS]

        def run(job):
            name, problem, start, gt_cost = job
            out = work / "out" / f"{name.replace('/', '-')}-{start}"
            return _solve(src, problem, start, out)

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            summaries = list(pool.map(run, jobs))

    capped = failed = 0
    iterations = []
    print(f"{'problem':<16} {'start':>5} {'stage-1 its':>11} {'final/gt':>10}  verdict")
    for (name, _, start, gt_cost), summary in zip(jobs, summaries):
        stages = summary["stages"]
        its = stages.get("stage1", {}).get("iterations")  # absent if stage 1 failed
        final = stages.get("stage2", {}).get("final_cost", float("inf"))
        ratio = final / gt_cost
        error = "error" in summary  # a numeric failure; the summary is partial
        verdict = ["numeric failure"] if error else []
        if its is not None:
            iterations.append(its)
            if its >= MAX_ITERATIONS:
                capped += 1
                verdict.append("capped")
        if error or not ratio <= FAIL_RATIO:
            failed += 1
            verdict.append("FAILED")
        shown = "-" if its is None else its
        print(f"{name:<16} {start:>5} {shown:>11} {ratio:>10.4g}  {' '.join(verdict) or 'ok'}")
    median = statistics.median(iterations) if iterations else math.nan
    print(f"capped {capped} / failed {failed} of {len(jobs)}; "
          f"median stage-1 iterations {median:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
