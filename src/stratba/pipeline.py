"""End-to-end orchestration: init, stages, artifact files, run summaries.

The random start and stage 1 run on measurements divided by one isotropic
scale s, their RMS over both coordinates (``measurement_scale``, recorded in
the summary). The pOSE cost is equivariant under m -> m / s,
P -> diag(1/s, 1/s, 1) P: the cost scales by 1/s^2 and the optimal landmarks
stay the same. So the normalization changes only the start (N(0, 1) camera
entries in normalized coordinates) and the inner solvers' norm-based stop
tests. The cameras go back to pixels with diag(s, s, 1) before anything reads
pixels: the pre-stage-1 cost, the lift to stage 2 and the state file. The
``stage1`` trace and summary costs are in normalized units (the pixel cost
divided by s^2); ``stage2``, ``full`` and the metric stage are in pixels.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bal_io import (BalReadError, BaProblem, ProjectiveState, load_bal, prune_underobserved,
                     random_init)
from .evaluation import ConvergenceTrace, TraceRecord, write_trace_csv
from .metric_upgrade import upgrade
from .objective import STAGE1, STAGE2, total_cost
from .riemannian import retract
from .solvers import NumericFailureError, SolverConfig, lm_minimize

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

STAGES = ("stage1", "stage2", "full", "metric")

@dataclass
class RunSpec:
    """One solve invocation: inputs, random-start seed, stage selection, and the
    ``SolverConfig`` (solver names and settings) that drives every stage."""

    inputs: list[str]
    seed: int = 0
    stage: str = "full"
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_dir: str = "."

    def validate(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}; choose from {STAGES}")
        by_stem: dict[str, list[str]] = {}
        for path in self.inputs:
            by_stem.setdefault(artifact_stem(path), []).append(str(path))
        clashes = [f"{stem!r} from {', '.join(paths)}"
                   for stem, paths in by_stem.items() if len(paths) > 1]
        if clashes:
            raise ValueError("inputs would overwrite each other's artifacts: "
                             + "; ".join(clashes))
        out_dir = Path(self.out_dir)
        for p in (out_dir, *out_dir.parents):
            if p.exists() and not p.is_dir():
                raise ValueError(f"output directory {out_dir}: {p} is not a directory")

    def config_echo(self) -> dict:
        return {"seed": self.seed, "stage": self.stage, **asdict(self.solver)}


def artifact_stem(path: str | Path) -> str:
    """Prefix of a run's artifact names: the input file name up to its first dot."""
    return Path(path).name.split(".")[0]


def _write_section(fh, tag: str, rows: np.ndarray) -> None:
    """A '<tag> <count>' line, then each row as space-separated '%.17g' numbers."""
    fh.write(f"{tag} {len(rows)}\n")
    # One % over the whole section: a tuple per row would be thousands of
    # collector-tracked allocations, enough to set off a full collection.
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def write_state(state: ProjectiveState, path: str | Path) -> None:
    """Plain-text state: one camera (12 numbers, row-major) or landmark (4) per line."""
    with open(path, "w") as fh:
        _write_section(fh, "cameras", state.cameras.reshape(-1, 12))
        _write_section(fh, "landmarks", state.landmarks)


def read_state(path: str | Path) -> ProjectiveState:
    """Inverse of :func:`write_state`; raises ValueError on a malformed file."""
    with open(path) as fh:
        cams = _read_section(fh, "cameras", 12)
        lms = _read_section(fh, "landmarks", 4)
    return ProjectiveState(cams.reshape(-1, 3, 4), lms)


def _read_section(fh, tag: str, width: int) -> np.ndarray:
    header = fh.readline().split()
    if len(header) != 2 or header[0] != tag:
        raise ValueError(f"expected a '{tag} <count>' line, got {' '.join(header)!r}")
    n = int(header[1])
    rows = [[float(v) for v in fh.readline().split()] for _ in range(n)]
    if any(len(row) != width for row in rows):
        raise ValueError(f"{tag} rows must hold {width} numbers each")
    return np.array(rows, dtype=float).reshape(n, width)


def full_trace(pre_stage1_cost: float, stage1_runtime: float, stage2_trace: ConvergenceTrace
               ) -> ConvergenceTrace:
    """Second-stage trace in the cumulative convention: the initial cost is the
    projective cost of the random starting state and runtimes include stage 1."""
    records = [TraceRecord(0, pre_stage1_cost, 0.0)] + [
        TraceRecord(rec.iteration + 1, rec.cost, rec.elapsed_seconds + stage1_runtime)
        for rec in stage2_trace.records]
    return ConvergenceTrace(stage2_trace.solver_id, stage2_trace.problem_id, "full", records)


def measurement_scale(problem: BaProblem) -> float:
    """RMS of the measurements over both coordinates, or 1 where that is 0 or not finite."""
    m = problem.measurements
    rms = float(np.sqrt(np.mean(m * m))) if m.size else 0.0
    return rms if 0.0 < rms < math.inf else 1.0


def _to_pixels(state: ProjectiveState, scale: float) -> ProjectiveState:
    """A state of ``problem.rescaled(scale)`` with its cameras back in pixels,
    P -> diag(s, s, 1) P; landmarks are unchanged."""
    return ProjectiveState(state.cameras * np.array([scale, scale, 1.0])[:, None],
                           state.landmarks)


def _stage_summary(trace: ConvergenceTrace, runtime: float, **extra) -> dict:
    """A solved stage's summary entry; ``extra`` keys go between the initial and final cost."""
    last = trace.records[-1]
    return {"solver": trace.solver_id, "initial_cost": trace.initial_cost, **extra,
            "final_cost": last.cost, "iterations": last.iteration, "runtime_seconds": runtime}


def run_problem(path: str | Path, spec: RunSpec) -> dict:
    """Run the selected stages on one problem file; returns the summary dict.

    Artifacts land in the output directory named after the input stem:
    ``<stem>_trace.csv``, ``<stem>_state.txt``, ``<stem>_summary.json`` and,
    for the metric stage, ``<stem>_metric.txt``. On numeric failure the trace
    and summary collected so far are still written before the error surfaces.
    """
    path = Path(path)
    out_dir = Path(spec.out_dir)
    stem = problem_id = artifact_stem(path)

    problem = load_bal(path)
    if not np.isfinite(problem.measurements).all():  # keeps no mask alive through the solve
        i = int(np.isfinite(problem.measurements).all(axis=1).argmin())
        raise BalReadError(f"non-finite measurement in {path}: observation {i} (camera "
                           f"{problem.camera_indices[i]}, point {problem.landmark_indices[i]})")
    raw_landmarks = problem.num_landmarks  # all that outlives pruning of the raw problem
    problem = prune_underobserved(problem)
    if problem.num_landmarks == 0:
        raise BalReadError(f"nothing to solve in {path}: no landmark is seen by two cameras")
    scale = measurement_scale(problem)
    normalized = problem.rescaled(scale)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once the input has parsed
    summary = {
        "schema_version": SCHEMA_VERSION,
        "problem": str(path),
        "problem_id": problem_id,
        "num_cameras": problem.num_cameras,
        "num_landmarks": problem.num_landmarks,
        "num_observations": problem.num_observations,
        "pruned_landmarks": raw_landmarks - problem.num_landmarks,
        "measurement_scale": scale,
        "config": spec.config_echo(),
        "stages": {},
    }
    traces: list[ConvergenceTrace] = []
    start = random_init(normalized, spec.seed, spec.solver.eta)
    state = _to_pixels(start, scale)
    failure: NumericFailureError | None = None

    try:
        run_stage1 = spec.stage in ("stage1", "full", "metric")
        run_stage2 = spec.stage in ("stage2", "full", "metric")
        run_metric = spec.stage == "metric"
        stage1_runtime = 0.0
        pre_cost_projective = None

        if run_stage2:
            try:
                pre_cost_projective = total_cost(retract(state), problem, STAGE2)
            except ValueError:
                pre_cost_projective = float("inf")

        if run_stage1:
            t0 = time.perf_counter()
            stage1_state, trace = lm_minimize(normalized, start, STAGE1, spec.solver,
                                              problem_id=problem_id)
            stage1_runtime = time.perf_counter() - t0
            state = _to_pixels(stage1_state, scale)
            traces.append(trace)
            summary["stages"]["stage1"] = _stage_summary(trace, stage1_runtime)

        if run_stage2:
            try:  # the projective cost is scale-invariant: lifting keeps the residuals
                state = retract(state)
            except ValueError as exc:
                raise NumericFailureError(f"cannot lift state to stage 2: {exc}") from exc
            t0 = time.perf_counter()
            state, trace = lm_minimize(problem, state, STAGE2, spec.solver, problem_id=problem_id)
            stage2_runtime = time.perf_counter() - t0
            traces += [trace, full_trace(pre_cost_projective, stage1_runtime, trace)]
            summary["stages"]["stage2"] = _stage_summary(trace, stage2_runtime,
                                                         pre_stage1_cost=pre_cost_projective)

        if run_metric:
            t0 = time.perf_counter()
            try:
                result = upgrade(problem, state)
            except ValueError as exc:  # no metric block, or a zero or non-finite focal length
                raise NumericFailureError(f"metric upgrade failed: {exc}") from exc
            summary["stages"]["metric"] = {
                "plane_at_infinity": result.state.c.tolist(),
                "orthogonality_error": result.orthogonality_error,
                "converged": result.converged,
                "iterations": result.iterations,
                "stop_reason": result.stop_reason,
                "runtime_seconds": time.perf_counter() - t0,
            }
            with open(out_dir / f"{stem}_metric.txt", "w") as fh:
                _write_section(fh, "cameras", np.concatenate(
                    [result.rotations.reshape(-1, 9), result.translations], axis=1))
    except NumericFailureError as exc:
        failure = exc
        summary["error"] = str(exc)

    if traces:
        write_trace_csv(traces, out_dir / f"{stem}_trace.csv")
    write_state(state, out_dir / f"{stem}_state.txt")
    with open(out_dir / f"{stem}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    if failure is not None:
        raise failure
    return summary
