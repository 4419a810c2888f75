"""Levenberg-Marquardt outer loop and interchangeable reduced-system solvers.

Three inner solvers act on the same damped block system: a truncated power
series of the inverse reduced matrix, preconditioned conjugate gradients with
the exact block-diagonal (Schur-Jacobi) preconditioner, and a direct
factorization baseline that materializes the reduced matrix.

The eliminated-landmark flavor (``varpro`` mode) damps only the pose blocks
and re-solves landmarks in closed form after every accepted step; ``joint``
mode damps both parameter groups and keeps the back-substituted landmark
update. The power series is justified whenever the eigenvalues of
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
    coupling_matrix,
    dense_schur,
    pose_block_matrix,
    schur_diag_blocks,
    schur_matrix,
    schur_rhs,
)
from .objective import STAGE1, STAGE2, PoseConfig, pinv_psd, solve_landmarks, total_cost

logger = logging.getLogger(__name__)

VARPRO = "varpro"
JOINT = "joint"

_DENSE_DIRECT_LIMIT = 6000


class NumericFailureError(RuntimeError):
    """A stage could not proceed (non-finite starting cost or similar)."""


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop and inner-solver settings; defaults match the evaluated setup."""

    max_outer_iterations: int = 50
    function_tolerance: float = 1e-6
    initial_lambda: float = 1e-4
    max_power_order: int = 20
    # Stops the series when the latest term's norm falls below this fraction of
    # the accumulated solution norm (one of several plausible readings of a
    # "series threshold"; exposed so callers can pick another).
    power_threshold: float = 0.01
    max_inner_iterations: int = 500
    inner_solver: str = "power"  # power | pcg | direct
    mode: str = VARPRO  # varpro | joint
    pcg_tolerance: float = 1e-6
    lambda_increase: float = 4.0
    lambda_decrease: float = 0.5
    lambda_min: float = 1e-12
    lambda_max: float = 1e8
    pose: PoseConfig = field(default_factory=PoseConfig)

    def __post_init__(self):
        if self.inner_solver not in ("power", "pcg", "direct"):
            raise ValueError(f"unknown inner solver {self.inner_solver!r}")
        if self.mode not in (VARPRO, JOINT):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("max_outer_iterations", "function_tolerance", "initial_lambda",
                     "max_inner_iterations", "pcg_tolerance", "lambda_increase",
                     "lambda_decrease", "lambda_min", "lambda_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_power_order < 0 or self.power_threshold < 0:
            raise ValueError("power series settings must be non-negative")


@dataclass
class StepReport:
    """One inner solve: updates plus how much work the solver did."""

    pose_update: np.ndarray  # flattened pose dimension
    landmark_update: np.ndarray  # flattened landmark dimension
    inner_iterations_used: int
    power_order_used: int
    truncation_estimate: float
    flag: str | None = None  # "breakdown" | "singular"


def _u_inverse(system: SchurSystem) -> np.ndarray:
    return np.linalg.inv(system.u_blocks)


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
    return StepReport(x, back_substitute(system, x), order_used, order_used, trunc)


def pcg_schur_solve(system: SchurSystem, config: SolverConfig) -> StepReport:
    """Conjugate gradients on the reduced system with the exact block-diagonal
    preconditioner; stops at the relative-residual tolerance or the iteration cap.
    A non-positive curvature direction returns the current iterate flagged."""
    rhs = schur_rhs(system)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0:
        zero = np.zeros_like(rhs)
        return StepReport(zero, back_substitute(system, zero), 0, 0, 0.0)
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
    return StepReport(x, back_substitute(system, x), iterations, 0, rel, flag)


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
    return StepReport(x, back_substitute(system, x), 1, 0, 0.0, flag)


_INNER_SOLVERS = {
    "power": power_schur_solve,
    "pcg": pcg_schur_solve,
    "direct": direct_schur_solve,
}


def solve_reduced(system: SchurSystem, config: SolverConfig) -> StepReport:
    """Dispatch to the configured inner solver."""
    return _INNER_SOLVERS[config.inner_solver](system, config)


def spectral_check(system: SchurSystem) -> float:
    """Largest eigenvalue of U^{-1} W V^{-1} W^T, computed exactly.

    It is the top eigenvalue of the generalized symmetric-definite problem
    (W V^+ W^T) v = mu U v, solved densely from the operator's explicit
    pieces. Intended as a property-check oracle on small systems.
    """
    if (np.linalg.eigvalsh(system.u_blocks) <= 0).any():
        raise ValueError("pose blocks must be positive-definite")
    return float(scipy.linalg.eigh(coupling_matrix(system).toarray(),
                                   pose_block_matrix(system).toarray(),
                                   eigvals_only=True)[-1])


def solver_label(stage: int, config: SolverConfig) -> str:
    """Conventional solver names used in traces and on the command line."""
    if stage == STAGE1:
        return {
            (VARPRO, "power"): "povar",
            (JOINT, "power"): "poba",
            (VARPRO, "pcg"): "iterative",
            (VARPRO, "direct"): "direct",
        }.get((config.mode, config.inner_solver), f"{config.mode}-{config.inner_solver}")
    return {"power": "ripoba", "pcg": "ripcg"}.get(
        config.inner_solver, f"riemannian-{config.inner_solver}")


def _stage1_trial(state: ProjectiveState, report: StepReport) -> ProjectiveState:
    cams = state.cameras + report.pose_update.reshape(state.cameras.shape)
    lms = np.array(state.landmarks, copy=True)
    lms[:, :3] += report.landmark_update.reshape(-1, 3)
    return ProjectiveState(cams, lms)


def lm_minimize(problem: BaProblem, state: ProjectiveState, stage: int,
                config: SolverConfig, trace_sink=None, *, solver_id: str | None = None,
                problem_id: str = "") -> tuple[ProjectiveState, ConvergenceTrace]:
    """Damped least-squares outer loop for either stage.

    Per iteration: linearize, assemble (pose-only damping in varpro mode, both
    groups otherwise; stage 2 always damps both), run the inner solver, and
    evaluate the trial state. Steps are accepted only on strict cost decrease;
    the damping halves on success and quadruples on failure. Stage 1
    linearizes only at a new point: after a rejected step it re-damps the
    kept system, which equals linearizing again bit for bit. In stage-1
    varpro mode accepted steps are followed by the closed-form landmark
    re-solve, so the linearization always sits at landmark-optimal points;
    the re-solve hands its landmark Jacobian, V = A^T A and V^+ to the next
    linearization, which then forms only the pose side, residuals and W.
    Terminates on the iteration cap or when a finite trial changes the cost
    by at most the relative function tolerance (a stagnant rejected trial
    also counts: no strictly better point is being found). Every iteration
    appends a (cost, cumulative seconds) record; cost sequences are
    bit-reproducible for identical inputs. A singular pose block or a
    degenerate stage-2 linearization raises NumericFailureError.
    """
    pose_cfg = config.pose
    f = total_cost(state, problem, stage, pose_cfg)
    if not math.isfinite(f):
        raise NumericFailureError(f"stage {stage} starting cost is not finite")
    label = solver_id if solver_id is not None else solver_label(stage, config)
    stage_name = "stage1" if stage == STAGE1 else "stage2"

    t_start = time.perf_counter()
    records = [TraceRecord(0, f, 0.0)]
    if trace_sink is not None:
        trace_sink(records[0])
    lam = config.initial_lambda
    bases = None
    system = None  # stage-1 linearization at the current state
    resolved = None  # varpro: the landmark re-solve at the current cameras

    for it in range(1, config.max_outer_iterations + 1):
        try:
            if stage == STAGE1:
                if system is None:
                    mode = POSE_ONLY if config.mode == VARPRO else BOTH
                    system = assemble(build_stage1_blocks(problem, state, pose_cfg, resolved),
                                      lam, mode)
                    resolved = None  # the system now holds its V and V^+
                else:
                    system = system.redamped(lam)
                report = solve_reduced(system, config)
                trial = None if report.flag == "singular" else _stage1_trial(state, report)
            elif stage == STAGE2:
                from .riemannian import apply_tangent_step, riemannian_step, state_tangent_bases

                if bases is None:
                    bases = state_tangent_bases(state)
                report = riemannian_step(problem, state, config, lam, bases)
                trial = None
                if report.flag != "singular":
                    trial = apply_tangent_step(state, bases, report)
            else:
                raise ValueError(f"unknown stage {stage!r}")
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise NumericFailureError(f"stage {stage} iteration {it}: {exc}") from exc

        f_trial = math.inf if trial is None else total_cost(trial, problem, stage, pose_cfg)
        converged = False
        if f_trial < f:
            if stage == STAGE1 and config.mode == VARPRO:
                resolved = solve_landmarks(trial, problem, pose_cfg)
                trial = ProjectiveState(trial.cameras, resolved.landmarks)
                f_trial = total_cost(trial, problem, stage, pose_cfg)
            state = trial
            bases = None
            system = None
            denom = f if f > 0 else 1.0
            converged = abs(f - f_trial) / denom <= config.function_tolerance
            f = f_trial
            lam = max(config.lambda_min, lam * config.lambda_decrease)
        else:
            if math.isfinite(f_trial):
                denom = f if f > 0 else 1.0
                converged = abs(f - f_trial) / denom <= config.function_tolerance
            lam = min(config.lambda_max, lam * config.lambda_increase)

        rec = TraceRecord(it, f, time.perf_counter() - t_start)
        records.append(rec)
        if trace_sink is not None:
            trace_sink(rec)
        if converged:
            break

    trace = ConvergenceTrace(label, problem_id, stage_name, records, records[0].cost)
    return state, trace
