"""Solve benchmark for stratba: seeded problems, fresh-process solves, own checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run generates its workload's fixed panel
of (problem seed, start seed) pairs in a separate process (perfbench/gen.py),
then solves the whole panel, one solve per fresh process (perfbench/worker.py),
in rounds until ``--seconds`` would be exceeded. Timings are scaled to the
host's undisturbed speed by a probe timed around each solve (worker.HostProbe).
Every output is checked against quantities computed here, with this file's own
projection code. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEADLINE_S = 170  # a run, hung child included, ends within this
MIN_ROUNDS = 1
SETUP_REPS = 3
ROTATION_TOL_RAD = 1e-2


@dataclass(frozen=True)
class Workload:
    kind: str  # gen.py kind
    gen_args: tuple[str, ...]
    solve_args: tuple[str, ...]
    panel: tuple[tuple[int, int], ...]  # (problem seed, solve --seed), one round
    expected_spans: tuple[str, ...]


COMMON_SPANS = (
    "bal_io.load_bal", "bal_io.prune_underobserved", "bal_io.random_init",
    "objective.solve_landmarks", "objective.total_cost",
    "normal_eq.build_stage1_blocks", "normal_eq.build_stage2_blocks",
    "normal_eq.assemble.stage1", "normal_eq.assemble.stage2",
    "normal_eq.schur_rhs", "normal_eq.back_substitute",
    "solvers.lm_minimize", "riemannian.riemannian_step", "riemannian.project_blocks",
    "pipeline.run_problem", "pipeline.artifacts",
)
POWER_SPANS = ("solvers.power_schur_solve", "solvers.coupling_round_trip")

# The panels are fixed rather than drawn from --seed: stage 1 stalls from
# about one random start in 50 to 70, and a check that fails on some seeds
# only would make runs attempt different work.
WORKLOADS = {
    # Fully observed ring: one track-length group, dense co-visibility; also
    # runs the metric upgrade.
    "ring-metric": Workload(
        "ring", ("--cameras", "16", "--landmarks", "200"),
        ("--metric", "--solver", "povar", "--stage2-solver", "ripoba"),
        ((0, 0), (0, 1), (0, 2), (0, 3)),
        COMMON_SPANS + POWER_SPANS + ("metric_upgrade.upgrade",)),
    # Sparse long-tailed tracks: many track-length groups. One pair, so that a
    # run holds five to eight repeats of it.
    "bal-povar": Workload(
        "bal", ("--cameras", "30", "--landmarks", "1500", "--min-track", "3", "--zipf", "1.0"),
        ("--full", "--solver", "povar", "--stage2-solver", "ripoba"),
        ((0, 0),),
        COMMON_SPANS + POWER_SPANS),
    # Explicit Schur matrix + factorization in stage 1, PCG in stage 2; no power series.
    "ring-direct": Workload(
        "ring", ("--cameras", "10", "--landmarks", "100"),
        ("--full", "--solver", "direct", "--stage2-solver", "ripcg"),
        ((0, 0), (1, 1), (2, 2), (3, 3)),
        COMMON_SPANS + ("normal_eq.dense_schur", "solvers.direct_schur_solve",
                        "solvers.pcg_schur_solve")),
}

END_TO_END = {
    "total_s": "s", "setup_s": "s", "time_to_solution_s": "s",
    "stage1_obs_iter_per_s": "obs.iter/s", "peak_rss_mb": "MB", "final_rms_px": "px",
}
PER_LAYER_UNITS = {".s": "s", ".calls": "count", ".sum": "count", ".s_per_call": "s"}


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# independent computations on the generated truth and the solver's artifacts


def ground_truth_cost(gt) -> float:
    """Sum of squared pixel residuals of the generating cameras and points."""
    c = gt["cam_idx"]
    pc = np.einsum("nij,nj->ni", gt["rotations"][c], gt["points"][gt["lm_idx"]])
    pc += gt["translations"][c]
    pred = -gt["focal"][c, None] * pc[:, :2] / pc[:, 2:3]
    return float(np.sum((pred - gt["meas"]) ** 2))


def read_state(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = path.read_text().splitlines()
    n_cam = int(lines[0].split()[1])
    cams = np.array([[float(v) for v in ln.split()] for ln in lines[1:1 + n_cam]])
    n_lm = int(lines[1 + n_cam].split()[1])
    lms = np.array([[float(v) for v in ln.split()] for ln in lines[2 + n_cam:2 + n_cam + n_lm]])
    return cams.reshape(n_cam, 3, 4), lms


def projective_cost(cams: np.ndarray, lms: np.ndarray, gt) -> float:
    """Plain perspective reprojection cost of a projective state."""
    u = np.einsum("nij,nj->ni", cams[gt["cam_idx"]], lms[gt["lm_idx"]])
    return float(np.sum((u[:, :2] / u[:, 2:3] - gt["meas"]) ** 2))


def read_trace(path: Path) -> dict[str, list[tuple[int, float, float]]]:
    stages: dict[str, list[tuple[int, float, float]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            stages.setdefault(row["stage"], []).append(
                (int(row["iteration"]), float(row["cost"]), float(row["elapsed_seconds"])))
    return stages


def rotation_error(metric_path: Path, gt) -> float:
    """Largest angle between solved and true relative rotations R_i R_0^T."""
    rows = [ln.split() for ln in metric_path.read_text().splitlines()[1:]]
    rot = np.array([[float(v) for v in r[:9]] for r in rows]).reshape(-1, 3, 3)
    true = gt["rotations"]
    rel = rot @ rot[0].T
    rel_true = true @ true[0].T
    diff = rel @ rel_true.transpose(0, 2, 1)
    cos = np.clip((np.trace(diff, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(cos).max())


def check_solve(out_dir: Path, stem: str, gt, gt_cost: float) -> dict:
    """Checks one solve's artifacts; returns its end-to-end figures."""
    trace = read_trace(out_dir / f"{stem}_trace.csv")
    for stage, rows in trace.items():
        costs = [r[1] for r in rows]
        if any(b > a for a, b in zip(costs, costs[1:])):
            raise CheckFailed(f"{stem}: {stage} costs increase")
    summary = json.loads((out_dir / f"{stem}_summary.json").read_text())
    n_obs = len(gt["meas"])
    if summary["num_observations"] != n_obs:
        raise CheckFailed(f"{stem}: solver saw {summary['num_observations']} of {n_obs} observations")
    cams, lms = read_state(out_dir / f"{stem}_state.txt")
    final_cost = projective_cost(cams, lms, gt)
    if not final_cost <= gt_cost:
        raise CheckFailed(f"{stem}: final cost {final_cost!r} above ground truth {gt_cost!r}")
    reached = [r[2] for r in trace["full"] if r[1] <= gt_cost]
    if not reached:
        raise CheckFailed(f"{stem}: no full-stage record reaches the ground-truth cost")
    stage1 = trace["stage1"]
    return {
        "time_to_solution_s": reached[0],
        "stage1_obs_iter_per_s": n_obs * stage1[-1][0] / stage1[-1][2],
        "final_rms_px": float(np.sqrt(final_cost / n_obs)),
    }


# ---------------------------------------------------------------------------


def run_process(argv: list[str], env: dict, deadline: float) -> str:
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{argv[1]} exited with {proc.returncode}")
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description="stratba solve benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="accepted for the common interface; the panels are fixed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "stratba" / "__init__.py").is_file():
        print("run from the root of a stratba checkout (src/stratba not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, wl, env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure(args, wl: Workload, env: dict, work: Path, deadline: float) -> int:
    inputs, out = work / "inputs", work / "out"
    seeds = sorted({p for p, _ in wl.panel})
    run_process([sys.executable, str(HERE / "gen.py"), wl.kind, *wl.gen_args,
                 "--seeds", *map(str, seeds), "--out", str(inputs)], env, deadline)
    problems = {}
    for s in seeds:
        gt = dict(np.load(inputs / f"{wl.kind}-{s}_gt.npz"))
        problems[s] = (f"{wl.kind}-{s}", gt, ground_truth_cost(gt))

    with_metric = "--metric" in wl.solve_args
    # Samples are kept per panel pair: the pairs differ in size and iteration
    # count, and a median over a pooled mix would jump between them.
    per_solve = {pair: {} for pair in wl.panel}
    layers = {pair: [] for pair in wl.panel}
    overhead = {pair: [] for pair in wl.panel}
    attempted = failed = 0
    correct = True
    round_times: list[float] = []
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or (time.perf_counter() - start + statistics.median(round_times)
                             <= args.seconds):
        t_round = time.perf_counter()
        for pair, traced in itertools.product(wl.panel, (False, True) if args.trace else (False,)):
            problem_seed, start_seed = pair
            stem, gt, gt_cost = problems[problem_seed]
            if not traced:
                untraced_total = None
            res_dir = out / f"r{r}-{start_seed}{'t' if traced else ''}"
            solve = ["solve", *wl.solve_args, "--seed", str(start_seed),
                     "--out-dir", str(res_dir), str(inputs / f"{stem}.txt")]
            flags = ["--trace"] if traced else ["--setup-reps", str(0 if args.trace else SETUP_REPS)]
            res = json.loads(run_process(
                [sys.executable, str(HERE / "worker.py"), *flags, "--", *solve], env, deadline
            ).splitlines()[-1])
            attempted += 1 + with_metric
            if res["exit"] != 0:
                print(f"{stem}: solve exited with {res['exit']}", file=sys.stderr)
                failed += 1 + with_metric
                continue
            try:
                figures = check_solve(res_dir, stem, gt, gt_cost)
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
                continue
            if with_metric:
                # Known fault: upgrade fixes the gauge block of H to the identity,
                # so it cannot undo a general projective ambiguity.
                err = rotation_error(res_dir / f"{stem}_metric.txt", gt)
                if err > ROTATION_TOL_RAD:
                    failed += 1
            # Timings at the host's undisturbed speed (worker.HostProbe).
            scale = res["host_scale"]
            if traced:
                missing = [s for s in wl.expected_spans if res["layers"][f"{s}.calls"] == 0]
                if missing:
                    raise SystemExit(f"traced run recorded no calls of {', '.join(missing)}")
                layers[pair].append({k: v * scale if unit_of(k) == "s" else v
                                     for k, v in res["layers"].items()})
                if untraced_total is not None:
                    overhead[pair].append(res["total_s"] * scale - untraced_total)
            else:
                untraced_total = res["total_s"] * scale
                figures["total_s"] = res["total_s"] * scale
                figures["time_to_solution_s"] *= scale
                figures["stage1_obs_iter_per_s"] /= scale
                figures["peak_rss_mb"] = res["peak_rss_mb"]
                for k, v in figures.items():
                    per_solve[pair].setdefault(k, []).append(v)
                per_solve[pair].setdefault("setup_s", []).extend(t * scale for t in res["setup_s"])
            shutil.rmtree(res_dir)
        round_times.append(time.perf_counter() - t_round)
        r += 1

    if args.trace:
        names = next((d for ds in layers.values() for d in ds), {})
        metrics = {k: {"value": over_panel({p: [d[k] for d in ds] for p, ds in layers.items()}),
                       "unit": unit_of(k)} for k in names}
        metrics["trace.overhead_s"] = {"value": over_panel(overhead), "unit": "s"}
    else:
        metrics = {k: {"value": over_panel({p: f.get(k, []) for p, f in per_solve.items()}),
                       "unit": unit} for k, unit in END_TO_END.items()}
    print(f"{args.workload}: {r} rounds in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def over_panel(samples: dict) -> float:
    """Mean over the panel's pairs of each pair's median; pairs without samples are left out."""
    medians = [statistics.median(v) for v in samples.values() if v]
    return statistics.fmean(medians) if medians else 0.0


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count" if ".lm_iterations." in name else "ratio"


if __name__ == "__main__":
    sys.exit(main())
