"""One ``stratba solve`` call, in-process, in a fresh process.

    python3 perfbench/worker.py [--trace] [--setup-reps N] -- <solve arguments>

Times ``stratba.cli.main(["solve", ...])``, reads the process's peak RSS
right after it, and then (untraced only) times ``--setup-reps`` set-ups of
the same input: ``load_bal`` -> ``prune_underobserved`` -> ``random_init``
with the solve's ``--seed``. Just before and just after the solve it times a
fixed host probe, and reports ``host_scale``, the probe's reference time over
its median time here. With ``--trace`` the calls into the program's modules
are wrapped in spans (see spans.py). Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time

import numpy as np

# The probe's time on an undisturbed 2-vCPU Intel Xeon (Sapphire Rapids) KVM
# guest with Python 3.11.7 and numpy 2.4.6: its fastest runs there.
PROBE_REF_S = 0.064
PROBE_REPS = 2  # before the solve, and again after it


class HostProbe:
    """A fixed piece of work of the solver's kinds that uses nothing of stratba:
    batched einsum and scatter-add over Jacobian-shaped blocks, batched eigh of
    small blocks, and an interpreter loop.

    On a shared host the same solve ran up to 1.8 times slower in phases of
    seconds to minutes, and the probe slowed with it, so scaling a solve's
    timings by the probe taken around it removes most of what other load on
    the host adds.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.jac = rng.standard_normal((400, 8, 2, 11))
        self.cams = rng.integers(0, 30, 400 * 8)
        spd = rng.standard_normal((1500, 4, 4))
        self.spd = spd @ spd.transpose(0, 2, 1)
        self.run()  # warm-up

    def run(self) -> float:
        """Seconds for one pass of the probe."""
        t0 = time.perf_counter()
        u = np.zeros((30, 11, 11))
        for _ in range(8):
            np.add.at(u, self.cams, np.einsum("gkri,gkrj->gkij", self.jac, self.jac)
                      .reshape(-1, 11, 11))
            np.linalg.eigh(self.spd)
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-reps", type=int, default=0)
    ap.add_argument("solve", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    solve_argv = args.solve[1:] if args.solve[:1] == ["--"] else args.solve

    from stratba import cli
    from stratba.bal_io import load_bal, prune_underobserved, random_init

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    probe = HostProbe()
    probe_s = [probe.run() for _ in range(PROBE_REPS)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(solve_argv)
        total = time.perf_counter() - t0
    probe_s += [probe.run() for _ in range(PROBE_REPS)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    path = solve_argv[-1]
    seed = int(solve_argv[solve_argv.index("--seed") + 1])
    setup = []
    for _ in range(args.setup_reps):
        t0 = time.perf_counter()
        random_init(prune_underobserved(load_bal(path)), seed)
        setup.append(time.perf_counter() - t0)

    print(json.dumps({
        "exit": code,
        "total_s": total,
        "host_scale": PROBE_REF_S / statistics.median(probe_s),
        "peak_rss_mb": rss_mb,
        "setup_s": setup,
        "layers": tracer.report() if tracer is not None else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
