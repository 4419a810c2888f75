"""Command-line front end: solve, profile, and synth subcommands."""

from __future__ import annotations

import argparse
import ctypes
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .bal_io import BalParseError, BalReadError, write_bal
from .evaluation import performance_profile, read_trace_csv, write_profile_csv
from .pipeline import RunSpec, run_problem
from .solvers import STAGE1_SOLVERS, STAGE2_SOLVERS, NumericFailureError, SolverConfig
from .synth import make_ring_problem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

# Accuracy tolerance of `profile` when no --tau is given.
PROFILE_TAU = 0.01

# glibc mallopt parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Each linearization frees and re-allocates about 10 MB of residual, moment
# and Kronecker-factor temporaries. glibc's default policy returns that
# memory to the kernel and faults it in again on the next iteration, a few µs
# per 4 KiB page. Keep up to 256 MiB of free heap mapped: well above that
# swing, and bounded.
TRIM_THRESHOLD_BYTES = 256 << 20
# Allocations below this come from the heap, so freeing them keeps them
# mapped. 32 MiB is the documented upper limit on 64-bit (glibc's
# DEFAULT_MMAP_THRESHOLD_MAX, which its dynamic threshold never exceeds);
# setting it also turns the dynamic threshold off, so the policy does not
# drift with the allocation history. Larger arrays are still mmapped and
# unmapped on free.
MMAP_THRESHOLD_BYTES = 32 << 20

# The SolverConfig fields that `solve` sets, each by the flag it declares.
FLAGGED_SETTINGS = [f for f in fields(SolverConfig) if "flag" in f.metadata]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stratba",
                                     description="Stratified bundle adjustment from random starts")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the solver pipeline on BAL files")
    stage = solve.add_mutually_exclusive_group()
    stage.add_argument("--stage1", dest="stage", action="store_const", const="stage1",
                       help="first stage only")
    stage.add_argument("--stage2", dest="stage", action="store_const", const="stage2",
                       help="projective refinement only (from the lifted random start)")
    stage.add_argument("--full", dest="stage", action="store_const", const="full",
                       help="first stage then refinement (default)")
    stage.add_argument("--metric", dest="stage", action="store_const", const="metric",
                       help="full pipeline plus metric upgrade")
    solve.set_defaults(stage=RunSpec.stage)
    solve.add_argument("--seed", type=int, default=RunSpec.seed)
    names = {"stage1_solver": STAGE1_SOLVERS, "stage2_solver": STAGE2_SOLVERS}
    for f in FLAGGED_SETTINGS:
        solve.add_argument(f.metadata["flag"], dest=f.name, type=type(f.default),
                           default=f.default,
                           help=" | ".join(names[f.name]) if f.name in names else None)
    solve.add_argument("--out-dir", default=RunSpec.out_dir,
                       help="artifact directory (default: %(default)s)")
    solve.add_argument("inputs", nargs="+", help="BAL problem files (plain, .gz, or .bz2)")

    profile = sub.add_parser("profile", help="performance profiles from trace CSVs")
    profile.add_argument("--tau", type=float, action="append",
                         help=f"accuracy tolerance in [0, 1); repeatable (default {PROFILE_TAU})")
    profile.add_argument("--stage", default="stage1",
                         help="trace stage to profile: stage1 | stage2 | full")
    profile.add_argument("--out", default="profile.csv", help="output CSV (default: %(default)s)")
    profile.add_argument("traces", nargs="+", help="trace CSV files")

    synth = sub.add_parser("synth", help="write a synthetic BAL problem with ground truth")
    synth.add_argument("--cameras", type=int, required=True)
    synth.add_argument("--landmarks", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.0, help="pixel noise sigma, finite and >= 0")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("-o", "--output", required=True, help="output BAL file")
    return parser


def _cmd_solve(args) -> int:
    try:
        spec = RunSpec(
            inputs=args.inputs,
            seed=args.seed,
            stage=args.stage,
            solver=SolverConfig(**{f.name: getattr(args, f.name) for f in FLAGGED_SETTINGS}),
            out_dir=args.out_dir,
        )
        spec.validate()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def run_one(path: str) -> int:
        try:
            summary = run_problem(path, spec)
        except BalReadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except BalParseError as exc:
            print(f"parse error in {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except NumericFailureError as exc:
            print(f"numeric failure on {path}: {exc} (partial artifacts kept)", file=sys.stderr)
            return EXIT_NUMERIC
        for name, info in summary["stages"].items():
            if "final_cost" in info:
                print(f"{path}: {name} [{info['solver']}] final cost "
                      f"{info['final_cost']:.6e} in {info['iterations']} iterations")
            else:
                print(f"{path}: {name} done")
        return EXIT_OK

    return max(run_one(p) for p in spec.inputs)


def _cmd_profile(args) -> int:
    taus = args.tau or [PROFILE_TAU]
    try:
        traces = []
        for path in args.traces:
            traces.extend(read_trace_csv(path))
    except (OSError, ValueError) as exc:
        print(f"cannot read traces: {exc}", file=sys.stderr)
        return EXIT_PARSE
    selected = [t for t in traces if t.stage == args.stage]
    if not selected:
        print(f"no traces for stage {args.stage!r}", file=sys.stderr)
        return EXIT_CONFIG
    profiles = []
    try:
        for tau in taus:
            profiles.extend(performance_profile(selected, tau).values())
    except ValueError as exc:  # tau outside [0, 1), or traces that share no threshold
        print(f"cannot profile: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_profile_csv(profiles, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cannot_write(path: str | Path, exc: OSError) -> int:
    print(f"config error: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_synth(args) -> int:
    try:
        problem = make_ring_problem(args.cameras, args.landmarks, args.noise, args.seed)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.output)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            write_bal(problem, fh)
    except OSError as exc:
        return _cannot_write(out, exc)
    print(f"wrote {out} ({problem.num_cameras} cameras, {problem.num_landmarks} landmarks, "
          f"{problem.num_observations} observations)")
    return EXIT_OK


def keep_freed_memory_mapped() -> None:
    """Set glibc's trim and mmap thresholds for this process; no-op on other libcs.

    Process-wide allocator policy, so only the application entry calls it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    keep_freed_memory_mapped()
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "profile":
        return _cmd_profile(args)
    return _cmd_synth(args)


if __name__ == "__main__":
    sys.exit(main())
