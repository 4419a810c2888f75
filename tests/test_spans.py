"""The traced benchmark wraps stratba functions by name: keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from stratba import solvers
from stratba.solvers import SolverConfig, direct_schur_solve
from tests.conftest import make_varpro_system

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


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
