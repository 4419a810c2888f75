"""Levenberg-Marquardt outer loop and interchangeable reduced-system solvers.

Three inner solvers act on the same damped block system: a truncated power
series of the inverse reduced matrix, preconditioned conjugate gradients with
the exact block-diagonal (Schur-Jacobi) preconditioner, and a direct
factorization baseline that materializes the reduced matrix.

The eliminated-landmark flavor (``varpro`` mode) damps only the pose blocks,
and each trial re-solves the landmarks in closed form at the trial cameras,
so every step is judged by the reduced cost min_v f(P, v) (Golub & Pereyra);
``joint`` mode damps both parameter groups and keeps the back-substituted
landmark update. The power series is justified whenever the eigenvalues of
U^{-1} W V^{-1} W^T lie in [0, 1), which holds structurally for both flavors
with damped positive-definite pose blocks; ``spectral_check`` computes the
largest such eigenvalue exactly.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .bal_io import BaProblem, ProjectiveState
from .evaluation import ConvergenceTrace, TraceRecord
from .normal_eq import (
    BOTH,
    POSE_ONLY,
    SchurSystem,
    apply_schur,
    assemble,
    back_substitute,
    block_apply,
    build_stage1_blocks,
    dense_coupling,
    dense_schur,
    schur_diag_blocks,
    schur_matrix,
    schur_rhs,
)
from .objective import STAGE1, STAGE2, PoseConfig, pinv_psd, solve_landmarks, total_cost
from .riemannian import apply_tangent_step, riemannian_step, state_tangent_bases

logger = logging.getLogger(__name__)

VARPRO = "varpro"
JOINT = "joint"

_DENSE_DIRECT_LIMIT = 6000

# Damping update of the outer loop: halved after an accepted step, quadrupled
# after a rejected one, and clamped to [LAMBDA_MIN, LAMBDA_MAX].
LAMBDA_DECREASE = 0.5
LAMBDA_INCREASE = 4.0
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e8

# The solver names of each stage, as set in SolverConfig and written to traces
# and summaries, and what each selects: (mode, inner solver) in stage 1, the
# inner solver in stage 2.
STAGE1_SOLVERS = {
    "povar": (VARPRO, "power"),
    "poba": (JOINT, "power"),
    "iterative": (VARPRO, "pcg"),
    "direct": (VARPRO, "direct"),
}
STAGE2_SOLVERS = {"ripoba": "power", "ripcg": "pcg"}


class NumericFailureError(RuntimeError):
    """A stage could not proceed (non-finite starting cost or similar)."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver names and settings of both stages; defaults match the evaluated setup.

    ``lm_minimize`` reads the solver name of its stage, a key of
    ``STAGE1_SOLVERS`` or ``STAGE2_SOLVERS``, so one config drives both stages.
    """

    stage1_solver: str = "povar"
    stage2_solver: str = "ripoba"
    max_outer_iterations: int = 50
    function_tolerance: float = 1e-6
    initial_lambda: float = 1e-4
    max_power_order: int = 20
    # Stops the series when the latest term's norm falls below this fraction of
    # the accumulated solution norm (one of several plausible readings of a
    # "series threshold"; exposed so callers can pick another).
    power_threshold: float = 0.01
    max_inner_iterations: int = 500
    pcg_tolerance: float = 1e-6
    pose: PoseConfig = field(default_factory=PoseConfig)

    def __post_init__(self):
        if self.stage1_solver not in STAGE1_SOLVERS:
            raise ValueError(f"unknown stage-1 solver {self.stage1_solver!r}; "
                             f"choose from {sorted(STAGE1_SOLVERS)}")
        if self.stage2_solver not in STAGE2_SOLVERS:
            raise ValueError(f"unknown stage-2 solver {self.stage2_solver!r}; "
                             f"choose from {sorted(STAGE2_SOLVERS)}")
        for name in ("max_outer_iterations", "function_tolerance", "initial_lambda",
                     "max_inner_iterations", "pcg_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_power_order < 0 or self.power_threshold < 0:
            raise ValueError("power series settings must be non-negative")


@dataclass
class StepReport:
    """One inner solve: the pose update plus how much work the solver did.

    The landmark update is left to the trials that use it
    (``back_substitute``); varpro trials re-solve the landmarks instead.
    """

    pose_update: np.ndarray  # flattened pose dimension
    inner_iterations_used: int
    power_order_used: int
    truncation_estimate: float
    flag: str | None = None  # "breakdown" | "singular"


# The two one-line wrappers below are kept on purpose. _u_inverse is the seam
# where tests/test_synth_cli.py injects a singular pose block.
def _u_inverse(system: SchurSystem) -> np.ndarray:
    return np.linalg.inv(system.u_blocks)


# _coupling_round_trip is the solve benchmark's solvers.coupling_round_trip
# span: perfbench/spans.py wraps it by name, tests/test_spans.py pins the name,
# and a traced run that records no call of it exits non-zero.
def _coupling_round_trip(system: SchurSystem, vec: np.ndarray) -> np.ndarray:
    """W V^{-1} W^T vec for a flattened pose-dimension vector."""
    return system.coupling(vec)


def power_schur_solve(system: SchurSystem, config: SolverConfig) -> StepReport:
    """Truncated power-series solve of the reduced system.

    Accumulates x <- x + t with t_0 = U^{-1} rhs and
    t_{i+1} = U^{-1} W V^{-1} W^T t_i, stopping at the configured order or once
    ||t_i|| / ||x|| falls to the threshold. The discarded tail is geometrically
    bounded because the iteration matrix has spectrum inside [0, 1).
    """
    rhs = schur_rhs(system)
    u_inv = _u_inverse(system)
    t = block_apply(u_inv, rhs)
    x = t.copy()
    order_used = 0
    trunc = 1.0 if np.linalg.norm(x) > 0 else 0.0
    for i in range(1, config.max_power_order + 1):
        t = block_apply(u_inv, _coupling_round_trip(system, t))
        x += t
        xn = np.linalg.norm(x)
        ratio = np.linalg.norm(t) / xn if xn > 0 else 0.0
        trunc = ratio
        if ratio <= config.power_threshold:
            order_used = i - 1
            break
        order_used = i
    return StepReport(x, order_used, order_used, trunc)


def pcg_schur_solve(system: SchurSystem, config: SolverConfig) -> StepReport:
    """Conjugate gradients on the reduced system with the exact block-diagonal
    preconditioner; stops at the relative-residual tolerance or the iteration cap.
    A non-positive curvature direction returns the current iterate flagged."""
    rhs = schur_rhs(system)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0:
        return StepReport(np.zeros_like(rhs), 0, 0, 0.0)
    diag = schur_diag_blocks(system)
    try:
        m_inv = np.linalg.inv(diag)
    except np.linalg.LinAlgError:
        m_inv = pinv_psd(diag, 1e-12)[0]
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = block_apply(m_inv, r)
    p = z.copy()
    rz = float(r @ z)
    flag = None
    iterations = 0
    rel = 1.0
    for it in range(1, config.max_inner_iterations + 1):
        iterations = it
        sp = apply_schur(system, p)
        curvature = float(p @ sp)
        if curvature <= 0:
            flag = "breakdown"
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * sp
        rel = np.linalg.norm(r) / rhs_norm
        if rel <= config.pcg_tolerance:
            break
        z = block_apply(m_inv, r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return StepReport(x, iterations, 0, rel, flag)


def direct_schur_solve(system: SchurSystem, config: SolverConfig) -> StepReport:
    """Factorize the explicitly assembled reduced matrix and solve.

    Small systems go through a dense Cholesky with a symmetric-indefinite
    fallback; larger ones through a sparse LU of the same block-sparse
    matrix. Singular systems come back flagged so the outer loop can raise
    the damping and retry.
    """
    rhs = schur_rhs(system)
    flag = None
    x = np.zeros_like(rhs)
    if system.pose_dim <= _DENSE_DIRECT_LIMIT:
        s = dense_schur(system)
        try:
            factor = scipy.linalg.cho_factor(s)
            x = scipy.linalg.cho_solve(factor, rhs)
        except scipy.linalg.LinAlgError:
            try:
                x = scipy.linalg.solve(s, rhs, assume_a="sym")
            except (scipy.linalg.LinAlgError, ValueError):
                flag = "singular"
    else:
        try:
            lu = scipy.sparse.linalg.splu(schur_matrix(system).tocsc())
            x = lu.solve(rhs)
        except RuntimeError:
            flag = "singular"
    if flag is None and not np.isfinite(x).all():
        x = np.zeros_like(rhs)
        flag = "singular"
    return StepReport(x, 1, 0, 0.0, flag)


_INNER_SOLVERS = {
    "power": power_schur_solve,
    "pcg": pcg_schur_solve,
    "direct": direct_schur_solve,
}


def spectral_check(system: SchurSystem) -> float:
    """Largest eigenvalue of U^{-1} W V^{-1} W^T, computed exactly.

    It is the top eigenvalue of the generalized symmetric-definite problem
    (W V^+ W^T) v = mu U v, solved densely with the coupling that
    ``dense_schur`` subtracts. Intended as a property-check oracle on small
    systems.
    """
    if (np.linalg.eigvalsh(system.u_blocks) <= 0).any():
        raise ValueError("pose blocks must be positive-definite")
    u = scipy.linalg.block_diag(*system.u_blocks)
    return float(scipy.linalg.eigh(dense_coupling(system), u, eigvals_only=True)[-1])


class _Stage1:
    """Stage 1: the pOSE blend.

    In varpro mode a trial moves the cameras only and re-solves the landmarks
    at the trial cameras, so each step is judged by the reduced cost
    min_v f(P, v); an accepted trial's re-solve supplies V, V^+ and A^T c to
    the next linearization. Joint mode adds the landmark update
    back-substituted from the solved system.
    """

    def __init__(self, problem: BaProblem, config: SolverConfig):
        self.problem = problem
        self.pose = config.pose
        self.name = config.stage1_solver
        mode, self.inner = STAGE1_SOLVERS[self.name]
        self.varpro = mode == VARPRO
        self.latest = None  # varpro: the latest trial and its landmark re-solve

    def cost(self, state: ProjectiveState) -> float:
        return total_cost(state, self.problem, STAGE1, self.pose)

    def linearize(self, state: ProjectiveState, lam: float) -> SchurSystem:
        trial, resolved = self.latest or (None, None)
        if trial is not state:  # the starting state
            resolved = None
        sums = build_stage1_blocks(self.problem, state, self.pose, resolved)
        return assemble(sums, lam, POSE_ONLY if self.varpro else BOTH)

    def trial(self, state: ProjectiveState, system: SchurSystem,
              report: StepReport) -> ProjectiveState:
        cams = state.cameras + report.pose_update.reshape(state.cameras.shape)
        if self.varpro:
            resolved = solve_landmarks(ProjectiveState(cams, state.landmarks), self.problem,
                                       self.pose)
            self.latest = ProjectiveState(cams, resolved.landmarks), resolved
            return self.latest[0]
        lms = np.array(state.landmarks, copy=True)
        lms[:, :3] += back_substitute(system, report.pose_update).reshape(-1, 3)
        return ProjectiveState(cams, lms)


class _Stage2:
    """Stage 2: the projective cost on the product of unit spheres (tangent steps, retraction)."""

    def __init__(self, problem: BaProblem, config: SolverConfig):
        self.problem = problem
        self.name = config.stage2_solver
        self.inner = STAGE2_SOLVERS[self.name]
        self.bases = None  # tangent bases at the current linearization point

    def cost(self, state: ProjectiveState) -> float:
        return total_cost(state, self.problem, STAGE2)

    def linearize(self, state: ProjectiveState, lam: float) -> SchurSystem:
        self.bases = state_tangent_bases(state)
        return riemannian_step(self.problem, state, lam, self.bases)

    def trial(self, state: ProjectiveState, system: SchurSystem,
              report: StepReport) -> ProjectiveState | None:
        return apply_tangent_step(state, self.bases, report.pose_update,
                                  back_substitute(system, report.pose_update))


_STAGES = {STAGE1: _Stage1, STAGE2: _Stage2}


def lm_minimize(problem: BaProblem, state: ProjectiveState, stage: int,
                config: SolverConfig, trace_sink=None, *, problem_id: str = ""
                ) -> tuple[ProjectiveState, ConvergenceTrace]:
    """Damped least-squares outer loop, the same for both stages.

    ``config`` names the solver of each stage; the one of ``stage`` selects
    the inner solver of ``_INNER_SOLVERS`` that solves every damped system,
    the stage-1 mode, and the trace's ``solver_id``. A stage object supplies
    the cost, the linearization into a damped
    ``SchurSystem`` (stage 1: pose blocks only in varpro mode, both groups in
    joint mode; stage 2: both groups of the tangent-space system), and the
    trial state of an inner solve of that system (stage-1 varpro: the trial
    cameras with the landmarks re-solved in closed form at them, whose V, V^+
    and A^T c the next linearization reuses if the trial is accepted; joint
    mode and stage 2 back-substitute the landmark update, and stage 2
    retracts the step onto the spheres). An accepted trial becomes the
    current state.
    Each point is linearized once; after a rejected step the kept system is
    re-damped, which equals linearizing again bit for bit. Steps are
    accepted only on strict cost decrease; the damping halves
    on success and quadruples on failure. Terminates on the iteration cap or
    when a finite trial changes the cost by at most the relative function
    tolerance (a stagnant rejected trial also counts). Every iteration appends
    a (cost, cumulative seconds) record; cost sequences are bit-reproducible.
    A singular pose block or a degenerate stage-2 linearization raises
    NumericFailureError.
    """
    if stage not in _STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    ops = _STAGES[stage](problem, config)
    f = ops.cost(state)
    if not math.isfinite(f):
        raise NumericFailureError(f"stage {stage} starting cost is not finite")

    t_start = time.perf_counter()
    records = [TraceRecord(0, f, 0.0)]
    if trace_sink is not None:
        trace_sink(records[0])
    lam = config.initial_lambda
    system = None  # the linearization at the current state

    for it in range(1, config.max_outer_iterations + 1):
        try:
            system = ops.linearize(state, lam) if system is None else system.redamped(lam)
            report = _INNER_SOLVERS[ops.inner](system, config)
            trial = None if report.flag == "singular" else ops.trial(state, system, report)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise NumericFailureError(f"stage {stage} iteration {it}: {exc}") from exc

        f_trial = math.inf if trial is None else ops.cost(trial)
        accepted = f_trial < f
        if accepted:
            state, system = trial, None
        denom = f if f > 0 else 1.0
        converged = math.isfinite(f_trial) and abs(f - f_trial) / denom <= config.function_tolerance
        if accepted:
            f, lam = f_trial, max(LAMBDA_MIN, lam * LAMBDA_DECREASE)
        else:
            lam = min(LAMBDA_MAX, lam * LAMBDA_INCREASE)

        rec = TraceRecord(it, f, time.perf_counter() - t_start)
        records.append(rec)
        if trace_sink is not None:
            trace_sink(rec)
        if converged:
            break

    trace = ConvergenceTrace(ops.name, problem_id, f"stage{stage}", records, records[0].cost)
    return state, trace
