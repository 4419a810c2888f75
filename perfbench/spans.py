"""Self-time spans around the calls into stratba's modules, from outside.

``Tracer.install`` replaces every module-level reference to the functions in
``SPANS`` (including references held in module-level dicts, such as the
inner-solver table) by a timing wrapper, so the program runs unmodified.
A span's self time is its duration minus the time covered by its child
spans. Spans are aggregated in memory per name: (self seconds, calls).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

# (module, attribute, span name). Several functions may share a span name.
SPANS = [
    ("bal_io", "load_bal", "bal_io.load_bal"),
    ("bal_io", "prune_underobserved", "bal_io.prune_underobserved"),
    ("bal_io", "random_init", "bal_io.random_init"),
    ("objective", "solve_landmarks", "objective.solve_landmarks"),
    ("objective", "total_cost", "objective.total_cost"),
    ("normal_eq", "build_stage1_blocks", "normal_eq.build_stage1_blocks"),
    ("normal_eq", "build_stage2_blocks", "normal_eq.build_stage2_blocks"),
    ("normal_eq", "assemble", "normal_eq.assemble"),
    ("normal_eq", "schur_rhs", "normal_eq.schur_rhs"),
    ("normal_eq", "back_substitute", "normal_eq.back_substitute"),
    ("normal_eq", "dense_schur", "normal_eq.dense_schur"),
    ("solvers", "lm_minimize", "solvers.lm_minimize"),
    ("solvers", "power_schur_solve", "solvers.power_schur_solve"),
    ("solvers", "_coupling_round_trip", "solvers.coupling_round_trip"),
    ("solvers", "pcg_schur_solve", "solvers.pcg_schur_solve"),
    ("solvers", "direct_schur_solve", "solvers.direct_schur_solve"),
    ("riemannian", "riemannian_step", "riemannian.riemannian_step"),
    ("riemannian", "project_blocks", "riemannian.project_blocks"),
    ("metric_upgrade", "upgrade", "metric_upgrade.upgrade"),
    ("pipeline", "run_problem", "pipeline.run_problem"),
    ("pipeline", "write_state", "pipeline.artifacts"),
    ("evaluation", "write_trace_csv", "pipeline.artifacts"),
]
# Spans reported per stage (the stage of the enclosing lm_minimize call).
BY_STAGE = {"normal_eq.assemble"}
# Every module whose namespace may hold a reference to a wrapped function.
MODULES = ["bal_io", "objective", "normal_eq", "solvers", "riemannian", "metric_upgrade",
           "evaluation", "pipeline", "cli"]


def span_names() -> list[str]:
    names = []
    for _, _, name in SPANS:
        for full in ([f"{name}.stage1", f"{name}.stage2"] if name in BY_STAGE else [name]):
            if full not in names:
                names.append(full)
    return names


class Tracer:
    def __init__(self):
        self.spans = {name: [0.0, 0] for name in span_names()}
        self.counters = {"solvers.power_order.sum": 0, "solvers.pcg_iterations.sum": 0}
        self.stages: dict[int, list[int]] = {}  # stage -> [iterations, accepted steps]
        self._stack: list[list[float]] = []
        self._stage = 0
        self._undo: list[tuple[dict, str, object]] = []

    def _wrap(self, fn, name: str):
        after = {
            "solvers.lm_minimize": self._after_lm,
            "solvers.power_schur_solve": self._after_power,
            "solvers.pcg_schur_solve": self._after_pcg,
        }.get(name)
        by_stage = name in BY_STAGE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = f"{name}.stage{self._stage}" if by_stage else name
            outer_stage = self._stage
            if name == "solvers.lm_minimize":
                self._stage = kwargs["stage"] if "stage" in kwargs else args[2]
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                rec = self.spans.setdefault(key, [0.0, 0])
                rec[0] += dur - frame[0]
                rec[1] += 1
                self._stage = outer_stage
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _after_lm(self, out, args, kwargs):
        stage = kwargs["stage"] if "stage" in kwargs else args[2]
        costs = [r.cost for r in out[1].records]
        acc = self.stages.setdefault(stage, [0, 0])
        acc[0] += len(costs) - 1
        acc[1] += sum(b < a for a, b in zip(costs, costs[1:]))

    def _after_power(self, out, args, kwargs):
        self.counters["solvers.power_order.sum"] += out.power_order_used

    def _after_pcg(self, out, args, kwargs):
        self.counters["solvers.pcg_iterations.sum"] += out.inner_iterations_used

    def _replace(self, namespace: dict, key, value) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self) -> None:
        modules = [importlib.import_module(f"stratba.{m}") for m in MODULES]
        wrappers = {}
        for mod, attr, name in SPANS:
            fn = getattr(importlib.import_module(f"stratba.{mod}"), attr)
            wrappers[id(fn)] = self._wrap(fn, name)
        for module in modules:
            ns = vars(module)
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._replace(ns, key, wrappers[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._replace(value, k, wrappers[id(v)])
        # run_problem writes the summary with json.dump.
        pipeline = vars(modules[MODULES.index("pipeline")])
        self._replace(pipeline, "json", types.SimpleNamespace(
            dump=self._wrap(json.dump, "pipeline.artifacts")))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, value = self._undo.pop()
            namespace[key] = value

    def report(self) -> dict:
        out = {}
        for name, (self_s, calls) in self.spans.items():
            out[f"{name}.s"] = self_s
            out[f"{name}.calls"] = calls
        out.update(self.counters)
        trips = self.spans["solvers.coupling_round_trip"]
        out["solvers.coupling_round_trip.s_per_call"] = trips[0] / trips[1] if trips[1] else 0.0
        for stage in (1, 2):
            its, accepted = self.stages.get(stage, (0, 0))
            out[f"solvers.lm_iterations.stage{stage}"] = its
            out[f"solvers.step_accept_ratio.stage{stage}"] = accepted / its if its else 0.0
        return out
