"""The traced benchmark wraps stratba functions by name: keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from stratba import solvers
from stratba.bal_io import random_init
from stratba.objective import STAGE1, STAGE2
from stratba.riemannian import retract
from stratba.solvers import SolverConfig, direct_schur_solve
from tests.conftest import make_random_problem, make_varpro_system

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_spans_module().SPANS


@pytest.mark.parametrize("module, attribute, span", load_spans())
def test_span_target_resolves_to_callable(module, attribute, span):
    target = getattr(importlib.import_module(f"stratba.{module}"), attribute, None)
    assert callable(target), f"span {span}: stratba.{module}.{attribute} is gone"


def test_direct_solve_reaches_dense_schur_through_module_name(monkeypatch):
    # the tracer replaces solvers.dense_schur; a direct solve must call that name
    calls = []
    original = solvers.dense_schur

    def counting(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(solvers, "dense_schur", counting)
    system, _, _ = make_varpro_system(4, 9, seed=7, lam=0.05)
    direct_schur_solve(system, SolverConfig())
    assert len(calls) == 1 and calls[0] is system


def test_traced_povar_stage1_keeps_its_spans():
    # the benchmark's tracer counts the stage-1 re-solve and linearization by
    # name: one re-solve per trial, accepted or not, and one linearization at
    # the start and after every accepted step that another iteration follows
    problem = make_random_problem(4, 20, seed=9)
    state = random_init(problem, 1)
    tracer = load_spans_module().Tracer()
    tracer.install()
    try:
        # through the module, whose name the tracer replaced
        _, trace = solvers.lm_minimize(problem, state, STAGE1, SolverConfig())
    finally:
        tracer.uninstall()
    report = tracer.report()
    costs = [r.cost for r in trace.records]
    accepted = [b < a for a, b in zip(costs, costs[1:])]
    assert sum(accepted) >= 2 and not all(accepted)
    assert report["objective.solve_landmarks.calls"] == len(accepted)
    assert report["normal_eq.build_stage1_blocks.calls"] == 1 + sum(accepted[:-1])
    # the kept sums are damped once per iteration
    assert report["normal_eq.assemble.stage1.calls"] == len(accepted)
    assert report["solvers.lm_iterations.stage1"] == len(accepted)
    # pose-only trials re-solve the landmarks, so no landmark update is back-substituted
    assert report["normal_eq.back_substitute.calls"] == 0


def test_traced_ripoba_stage2_keeps_its_spans():
    # perfbench requires the stage-2 spans to record calls: one tangent-space
    # linearization (riemannian_step, which projects the sums) at the start
    # and after every accepted step that another iteration follows, and one
    # assemble per iteration, which damps the kept sums
    problem = make_random_problem(4, 20, seed=9)
    stage1, _ = solvers.lm_minimize(problem, random_init(problem, 1), STAGE1,
                                    SolverConfig(max_iterations=5))
    tracer = load_spans_module().Tracer()
    tracer.install()
    try:
        _, trace = solvers.lm_minimize(problem, retract(stage1), STAGE2,
                                       SolverConfig(stage2_solver="ripoba",
                                                    max_iterations=10))
    finally:
        tracer.uninstall()
    report = tracer.report()
    costs = [r.cost for r in trace.records]
    accepted = [b < a for a, b in zip(costs, costs[1:])]
    assert sum(accepted) >= 2 and not all(accepted[:-1])
    linearizations = 1 + sum(accepted[:-1])
    for span in ("riemannian.riemannian_step", "riemannian.project_blocks",
                 "normal_eq.build_stage2_blocks"):
        assert report[f"{span}.calls"] == linearizations, span
    assert report["normal_eq.assemble.stage2.calls"] == len(accepted)
    assert report["normal_eq.assemble.stage1.calls"] == 0
    assert report["solvers.power_schur_solve.calls"] == len(accepted)
    assert report["solvers.lm_iterations.stage2"] == len(accepted)
