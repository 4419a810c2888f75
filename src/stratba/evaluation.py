"""Convergence traces, cost thresholds, and runtime/accuracy profiles.

A profile answers: for a family of solvers on a set of problems, what fraction
of problems does each solver bring below an accuracy threshold within a factor
``alpha`` of the fastest solver's time? The threshold for a problem
interpolates between the shared initial cost and the best cost any solver
reached:

    threshold = best + tau * (initial - best)

Problems no solver reaches stay in the denominator and credit nobody.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

UNREACHED = None

TRACE_HEADER = ["problem", "solver", "stage", "iteration", "cost", "elapsed_seconds"]
PROFILE_HEADER = ["tau", "solver", "alpha", "percentage"]

# Requested sampling grid for profile curves, in addition to exact breakpoints.
ALPHA_GRID = np.geomspace(1.0, 32.0, 49)


class TraceRecord(NamedTuple):
    iteration: int
    cost: float
    elapsed_seconds: float


@dataclass
class ConvergenceTrace:
    """Per-iteration (cost, cumulative runtime) records of one solver run."""

    solver_id: str
    problem_id: str
    stage: str
    records: list[TraceRecord]

    def __post_init__(self):
        if not self.records:
            raise ValueError("a trace needs at least one record")
        times = [r.elapsed_seconds for r in self.records]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("elapsed seconds must be non-decreasing")

    @property
    def initial_cost(self) -> float:
        return self.records[0].cost

    def best_cost(self) -> float:
        return min(r.cost for r in self.records)


def cost_threshold(traces: Iterable[ConvergenceTrace], tau: float) -> float:
    """Accuracy threshold for one problem given every solver's trace on it."""
    traces = list(traces)
    if not traces:
        raise ValueError("no traces given")
    f0 = traces[0].initial_cost
    for t in traces[1:]:
        if t.initial_cost != f0:
            raise ValueError(
                f"traces disagree on the initial cost: {t.initial_cost!r} vs {f0!r} "
                f"({t.solver_id} vs {traces[0].solver_id})")
    f_star = min(t.best_cost() for t in traces)
    return f_star + tau * (f0 - f_star)


def time_to_threshold(trace: ConvergenceTrace, threshold: float) -> float | None:
    """Elapsed seconds of the first record at or below the threshold, else None."""
    for rec in trace.records:
        if rec.cost <= threshold:
            return rec.elapsed_seconds
    return UNREACHED


@dataclass
class ProfileResult:
    """Step curve alpha -> percentage of problems solved within alpha x best time."""

    tau: float
    solver_id: str
    curve: list[tuple[float, float]]  # (alpha >= 1, percentage in [0, 100])


def performance_profile(traces: Iterable[ConvergenceTrace], tau: float
                        ) -> dict[str, ProfileResult]:
    """Profiles for every solver appearing in the traces.

    Times to each problem's threshold fill one (solvers x problems) array, inf
    where a solver never gets there or has no trace on the problem. Dividing
    each column by its minimum gives the runtime ratios: 1 for the fastest
    solver (also at time 0), inf wherever nobody reaches the problem. A curve
    at alpha is the percentage of problems whose ratio is at most alpha,
    sampled at 1, ``ALPHA_GRID`` and every finite ratio. Raises ValueError on
    ``tau`` outside [0, 1) or a second trace of one solver on one problem, before
    any threshold, and on traces of one problem that disagree on the initial cost.
    """
    if not 0.0 <= tau < 1.0:  # NaN included
        raise ValueError(f"tau must lie in [0, 1), got {tau!r}")
    traces = list(traces)
    if not traces:
        raise ValueError("no traces given")
    row = {s: i for i, s in enumerate(sorted({t.solver_id for t in traces}))}
    by_problem = {p: [] for p in sorted({t.problem_id for t in traces})}
    for t in traces:  # two starts of one problem are left to cost_threshold to report
        group = by_problem[t.problem_id]
        if any(o.solver_id == t.solver_id and o.initial_cost == t.initial_cost for o in group):
            raise ValueError(f"two traces of solver {t.solver_id!r} on problem {t.problem_id!r}")
        group.append(t)

    times = np.full((len(row), len(by_problem)), np.inf)
    for j, group in enumerate(by_problem.values()):
        threshold = cost_threshold(group, tau)
        for t in group:
            reach = time_to_threshold(t, threshold)
            if reach is not UNREACHED:
                times[row[t.solver_id], j] = reach
    best = times.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(times == best, 1.0, times / best)
    ratios[np.isinf(times)] = np.inf

    alphas = sorted({1.0, *ALPHA_GRID.tolist(), *ratios[np.isfinite(ratios)].tolist()})
    shares = [100.0 * np.searchsorted(r, alphas, side="right") / len(by_problem)
              for r in np.sort(ratios, axis=1)]
    return {s: ProfileResult(tau, s, list(zip(alphas, shares[i].tolist()))) for s, i in row.items()}


# ---------------------------------------------------------------------------
# CSV emission (lossless at 17 significant digits)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _open_sink(sink, mode: str):
    """A file opened from a path and closed on exit, or a caller's handle left open."""
    if isinstance(sink, (str, Path)):
        return open(sink, mode, newline="")
    return contextlib.nullcontext(sink)


def write_trace_csv(traces: Iterable[ConvergenceTrace], sink: str | Path | IO[str]) -> None:
    with _open_sink(sink, "w") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for t in traces:
            for rec in t.records:
                w.writerow([t.problem_id, t.solver_id, t.stage, rec.iteration,
                            _fmt(rec.cost), _fmt(rec.elapsed_seconds)])


def read_trace_csv(source: str | Path | IO[str]) -> list[ConvergenceTrace]:
    with _open_sink(source, "r") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace CSV header: {header}")
        grouped: dict[tuple[str, str, str], list[TraceRecord]] = {}
        for row in rd:
            if not row:
                continue
            problem, solver, stage, it, cost, elapsed = row
            key = (problem, solver, stage)
            grouped.setdefault(key, []).append(
                TraceRecord(int(it), float(cost), float(elapsed)))
        return [
            ConvergenceTrace(solver, problem, stage, recs)
            for (problem, solver, stage), recs in grouped.items()
        ]


def write_profile_csv(profiles: Iterable[ProfileResult], sink: str | Path | IO[str]) -> None:
    with _open_sink(sink, "w") as fh:
        w = csv.writer(fh)
        w.writerow(PROFILE_HEADER)
        for p in profiles:
            for alpha, pct in p.curve:
                w.writerow([_fmt(p.tau), p.solver_id, _fmt(alpha), _fmt(pct)])


def read_profile_csv(source: str | Path | IO[str]) -> list[ProfileResult]:
    with _open_sink(source, "r") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != PROFILE_HEADER:
            raise ValueError(f"unexpected profile CSV header: {header}")
        grouped: dict[tuple[float, str], list[tuple[float, float]]] = {}
        for row in rd:
            if not row:
                continue
            tau, solver, alpha, pct = row
            grouped.setdefault((float(tau), solver), []).append((float(alpha), float(pct)))
        return [ProfileResult(tau, solver, curve) for (tau, solver), curve in grouped.items()]
