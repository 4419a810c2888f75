"""How much each layer of one solve raises its peak memory.

    python3 tools/rss_layers.py SRC FILE [--seed N]

Run from the repository root; SRC is a directory that holds a ``stratba``
package (for example ``src``) and FILE a BAL problem. It runs one
``stratba solve --full --seed N`` of FILE (start seed 0 by default) in a
fresh process with one BLAS thread, through the command's own entry point,
so with its allocator policy. Each call of a layer is measured by the
process's peak resident set size (``ru_maxrss``): ``load_bal``,
``prune_underobserved``, ``random_init``, each linearization
(``build_stage1_blocks``, ``riemannian_step``), each reduced right-hand
side (``schur_rhs``, whose first coupling product builds the plan's
factor-matrix templates), each landmark re-solve (``solve_landmarks``),
each ``total_cost`` and each stage (``lm_minimize``, labelled with its
stage). It prints one line
per call, in the order the calls end, indented by nesting: the call, how
far it raised the peak above the peak at its start (a stage's rise includes
its inner calls') and the peak at its end. The last line is the solve's
peak. A rise of 0 means the call stayed within memory that an earlier call
had already touched.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from panel_diff import solver_env

# (module, function) of every layer, wrapped wherever a stratba module refers to it
LAYERS = [
    ("bal_io", "load_bal"),
    ("bal_io", "prune_underobserved"),
    ("bal_io", "random_init"),
    ("normal_eq", "build_stage1_blocks"),
    ("riemannian", "riemannian_step"),
    ("normal_eq", "schur_rhs"),
    ("objective", "solve_landmarks"),
    ("objective", "total_cost"),
    ("solvers", "lm_minimize"),
]

# Runs in the solving process: argv is LAYERS as "module.function" words,
# then the arguments of `stratba solve`.
CHILD = r"""
import importlib, resource, sys
import stratba.cli

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

depth = [0]

def wrap(fn, name):
    def layer(*args, **kwargs):
        before = peak_mb()
        depth[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            after = peak_mb()
            label = "  " * depth[0] + name
            if name == "lm_minimize":  # (problem, state, stage, ...)
                label += f" stage {kwargs.get('stage', args[2])}"
            print(f"{label:<32} +{after - before:7.1f} MB  peak {after:7.1f} MB", flush=True)
    return layer

split = sys.argv.index("--")
wrappers = {}
for word in sys.argv[1:split]:
    module, attr = word.split(".")
    fn = getattr(importlib.import_module(f"stratba.{module}"), attr)
    wrappers[id(fn)] = wrap(fn, attr)
for name, module in list(sys.modules.items()):
    if name.startswith("stratba"):
        for key, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, key, wrappers[id(value)])
code = stratba.cli.main(sys.argv[split + 1:])
print(f"{'solve':<32} peak {peak_mb():7.1f} MB (exit {code})")
sys.exit(code)
"""


def main() -> int:
    ap = argparse.ArgumentParser(description="peak-memory rise of each layer of one solve")
    ap.add_argument("src", type=Path, help="directory holding the stratba package")
    ap.add_argument("file", type=Path, help="BAL problem file")
    ap.add_argument("--seed", type=int, default=0, help="start seed of the solve (default 0)")
    args = ap.parse_args()
    src = args.src.resolve()
    if not (src / "stratba" / "__init__.py").is_file():
        print(f"{src}: no stratba package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="rss_layers-") as out:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *(f"{m}.{f}" for m, f in LAYERS), "--",
             "solve", "--full", "--seed", str(args.seed), "--out-dir", out, str(args.file)],
            env=solver_env(src))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
