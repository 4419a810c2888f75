"""Levenberg-Marquardt outer loop and interchangeable reduced-system solvers.

Three inner solvers act on the same damped block system: a truncated power
series of the inverse reduced matrix, conjugate gradients preconditioned by
the series' own U^{-1} (the damped pose blocks), and a direct factorization
baseline that materializes the reduced matrix.

The eliminated-landmark flavor (VarPro, ``pose_only`` damping) damps only
the pose blocks, and each trial re-solves the landmarks in closed form at the
trial cameras, so every step is judged by the reduced cost min_v f(P, v)
(Golub & Pereyra); joint (``both``) damping covers both parameter groups and
keeps the back-substituted landmark update. The power series is justified
whenever the eigenvalues of U^{-1} W V^{-1} W^T lie in [0, 1), which holds
structurally for both flavors with damped positive-definite pose blocks;
``spectral_check`` computes the largest such eigenvalue exactly.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import normal_eq
from .bal_io import BaProblem, ProjectiveState
from .evaluation import ConvergenceTrace, TraceRecord
from .normal_eq import (
    BOTH,
    POSE_ONLY,
    BlockSums,
    SchurSystem,
    apply_schur,
    assemble,
    back_substitute,
    block_apply,
    build_stage1_blocks,
    dense_coupling,
    dense_schur,
    schur_matrix,
    schur_rhs,
)
from .objective import ETA, STAGE1, STAGE2, solve_landmarks, total_cost
from .riemannian import apply_tangent_step, riemannian_step, state_tangent_bases

logger = logging.getLogger(__name__)

# Damping update of the outer loop: halved after an accepted step, quadrupled
# after a rejected one, and clamped to [LAMBDA_MIN, LAMBDA_MAX].
LAMBDA_DECREASE = 0.5
LAMBDA_INCREASE = 4.0
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e8

# A stage also stops once its accepted cost is at most this fraction of its
# starting cost. The cost is then at rounding level, where the relative change
# between two costs is rounding noise of order 1, so the relative function
# tolerance alone would let the loop run on to the iteration cap.
ROUNDING_FLOOR = np.finfo(float).eps

# The solver names of each stage, as set in SolverConfig and written to traces
# and summaries, and what each selects: (damping mode of ``assemble``, inner
# solver) in stage 1, the inner solver in stage 2.
STAGE1_SOLVERS = {
    "povar": (POSE_ONLY, "power"),
    "poba": (BOTH, "power"),
    "iterative": (POSE_ONLY, "pcg"),
    "direct": (POSE_ONLY, "direct"),
}
STAGE2_SOLVERS = {"ripoba": "power", "ripcg": "pcg"}


class NumericFailureError(RuntimeError):
    """A stage could not proceed (non-finite starting cost or similar)."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver names and settings of both stages; defaults match the evaluated setup.

    The only list of solver settings. Each field is named by its key in a run
    summary's ``config`` echo, in that order, and declares its ``solve`` flag
    in its metadata (``pcg_tolerance`` has none). ``lm_minimize`` reads the
    solver name of its stage, a key of ``STAGE1_SOLVERS`` or
    ``STAGE2_SOLVERS``, so one config drives both stages.
    """

    stage1_solver: str = field(default="povar", metadata={"flag": "--solver"})
    stage2_solver: str = field(default="ripoba", metadata={"flag": "--stage2-solver"})
    eta: float = field(default=ETA, metadata={"flag": "--eta"})
    initial_lambda: float = field(default=1e-4, metadata={"flag": "--lambda0"})
    max_iterations: int = field(default=50, metadata={"flag": "--max-iterations"})
    function_tolerance: float = field(default=1e-6, metadata={"flag": "--ftol"})
    power_order: int = field(default=20, metadata={"flag": "--power-order"})
    # The series stops once its latest term's norm is at most this fraction
    # of the accumulated solution's norm.
    power_threshold: float = field(default=0.01, metadata={"flag": "--power-threshold"})
    inner_iterations: int = field(default=500, metadata={"flag": "--inner-iterations"})
    # PCG stops once ||b - S x|| / ||b|| is at most this forcing tolerance.
    pcg_tolerance: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.stage1_solver not in STAGE1_SOLVERS:
            raise ValueError(f"unknown stage-1 solver {self.stage1_solver!r}; "
                             f"choose from {sorted(STAGE1_SOLVERS)}")
        if self.stage2_solver not in STAGE2_SOLVERS:
            raise ValueError(f"unknown stage-2 solver {self.stage2_solver!r}; "
                             f"choose from {sorted(STAGE2_SOLVERS)}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        for name in ("initial_lambda", "max_iterations", "function_tolerance",
                     "inner_iterations", "pcg_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.power_order < 0 or self.power_threshold < 0:
            raise ValueError("power series settings must be non-negative")


@dataclass
class StepReport:
    """One inner solve: the pose update plus how much work the solver did.

    The landmark update is left to the trials that use it
    (``back_substitute``); pose-only trials re-solve the landmarks instead.
    """

    pose_update: np.ndarray  # flattened pose dimension
    inner_iterations_used: int
    power_order_used: int  # the index of the last series term above the threshold
    truncation_estimate: float
    flag: str | None = None  # "breakdown" | "singular"


# The two one-line wrappers below are kept on purpose. _u_inverse is the
# preconditioner of both iterative solvers, the power series and PCG, and the
# seam where tests inject a singular pose block.
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
    bounded because the iteration matrix has spectrum inside [0, 1). The
    reported order is the index of the last term above the threshold: at a
    threshold stop, one less than the round trips made (the term that met the
    threshold is still added); at the order cap, equal to them.
    """
    rhs = schur_rhs(system)
    u_inv = _u_inverse(system)
    t = block_apply(u_inv, rhs)
    x = t.copy()
    order_used = 0
    trunc = 1.0 if np.linalg.norm(x) > 0 else 0.0
    for i in range(1, config.power_order + 1):
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
    """Conjugate gradients on the reduced system, preconditioned by U^{-1}.

    The power series is Richardson iteration with the same preconditioner,
    so its order-m sum lies in the Krylov space that m + 1 PCG iterations
    search, and PCG's iterate has the smaller S-norm error there. Stops once
    the relative residual ||b - S x|| / ||b|| is at most the forcing
    tolerance ``pcg_tolerance``, or at the iteration cap. The updated
    residual drifts from b - S x in rounding, so where it meets the tolerance
    the true residual replaces it and decides; the report's
    ``truncation_estimate`` is the true relative residual of the returned
    update. A non-positive curvature direction returns the current iterate
    flagged. The damped pose blocks are positive definite; an exactly
    singular one raises LinAlgError, a numeric failure of ``lm_minimize``.
    """
    rhs = schur_rhs(system)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0:
        return StepReport(np.zeros_like(rhs), 0, 0, 0.0)
    m_inv = _u_inverse(system)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = block_apply(m_inv, r)
    p = z.copy()
    rz = float(r @ z)
    flag = None
    iterations = 0
    converged = False
    for it in range(1, config.inner_iterations + 1):
        iterations = it
        sp = apply_schur(system, p)
        curvature = float(p @ sp)
        if curvature <= 0:
            flag = "breakdown"
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * sp
        if np.linalg.norm(r) / rhs_norm <= config.pcg_tolerance:
            r = rhs - apply_schur(system, x)
            converged = np.linalg.norm(r) / rhs_norm <= config.pcg_tolerance
            if converged:
                break
        z = block_apply(m_inv, r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if not converged:
        r = rhs - apply_schur(system, x)
    return StepReport(x, iterations, 0, np.linalg.norm(r) / rhs_norm, flag)


def direct_schur_solve(system: SchurSystem, config: SolverConfig) -> StepReport:
    """Factorize the explicitly assembled reduced matrix and solve.

    Systems up to ``normal_eq.DENSE_SCHUR_LIMIT`` unknowns go through one
    dense Cholesky; larger ones through a sparse LU of the same block-sparse
    matrix. In pose-only mode the coupling W V^+ W^T and the right-hand side
    are formed once per linearization and shared by every damping of it, so a
    solve after a rejected step adds only its damped U and factors. The dense
    matrix is factored in place, so a solve holds two pose_dim^2 arrays, the
    shared coupling and the matrix. A damped system is positive definite; one
    that fails to factor comes back flagged singular with a zero update, so
    the outer loop raises the damping and retries.
    """
    rhs = schur_rhs(system)
    flag = None
    if system.pose_dim <= normal_eq.DENSE_SCHUR_LIMIT:
        try:
            x = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(dense_schur(system), overwrite_a=True), rhs)
        except scipy.linalg.LinAlgError:
            flag = "singular"
    else:
        try:
            lu = scipy.sparse.linalg.splu(schur_matrix(system).tocsc())
            x = lu.solve(rhs)
        except RuntimeError:
            flag = "singular"
    if flag is not None or not np.isfinite(x).all():
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

    With pose-only damping a trial moves the cameras only and re-solves the
    landmarks at the trial cameras, so each step is judged by the reduced
    cost min_v f(P, v); an accepted trial's re-solve supplies V, V^+ and A^T c
    to the next linearization. With joint damping a trial adds the landmark
    update back-substituted from the solved system.
    """

    def __init__(self, problem: BaProblem, config: SolverConfig):
        self.problem = problem
        self.eta = config.eta
        self.name = config.stage1_solver
        self.damping_mode, self.inner = STAGE1_SOLVERS[self.name]
        self.latest = None  # pose-only: the latest trial and its landmark re-solve

    def cost(self, state: ProjectiveState) -> float:
        return total_cost(state, self.problem, STAGE1, self.eta)

    def linearize(self, state: ProjectiveState) -> BlockSums:
        trial, resolved = self.latest or (None, None)
        if trial is not state:  # the starting state
            resolved = None
        return build_stage1_blocks(self.problem, state, self.eta, resolved)

    def trial(self, state: ProjectiveState, system: SchurSystem,
              report: StepReport) -> ProjectiveState:
        cams = state.cameras + report.pose_update.reshape(state.cameras.shape)
        if self.damping_mode == POSE_ONLY:
            resolved = solve_landmarks(ProjectiveState(cams, state.landmarks), self.problem,
                                       self.eta)
            self.latest = ProjectiveState(cams, resolved.landmarks), resolved
            return self.latest[0]
        lms = np.array(state.landmarks, copy=True)
        lms[:, :3] += back_substitute(system, report.pose_update).reshape(-1, 3)
        return ProjectiveState(cams, lms)


class _Stage2:
    """Stage 2: the projective cost on the product of unit spheres (tangent steps, retraction)."""

    damping_mode = BOTH

    def __init__(self, problem: BaProblem, config: SolverConfig):
        self.problem = problem
        self.name = config.stage2_solver
        self.inner = STAGE2_SOLVERS[self.name]
        self.bases = None  # tangent bases at the current linearization point

    def cost(self, state: ProjectiveState) -> float:
        return total_cost(state, self.problem, STAGE2)

    def linearize(self, state: ProjectiveState) -> BlockSums:
        self.bases = state_tangent_bases(state)
        return riemannian_step(self.problem, state, self.bases)

    def trial(self, state: ProjectiveState, system: SchurSystem,
              report: StepReport) -> ProjectiveState | None:
        return apply_tangent_step(state, self.bases, report.pose_update,
                                  back_substitute(system, report.pose_update))


_STAGES = {STAGE1: _Stage1, STAGE2: _Stage2}


def lm_minimize(problem: BaProblem, state: ProjectiveState, stage: int,
                config: SolverConfig, *, problem_id: str = ""
                ) -> tuple[ProjectiveState, ConvergenceTrace]:
    """Damped least-squares outer loop, the same for both stages.

    ``config`` names the solver of each stage; the one of ``stage`` selects
    the inner solver of ``_INNER_SOLVERS`` that solves every damped system,
    the stage-1 damping mode, and the trace's ``solver_id``. A stage object
    supplies the cost, the linearization into undamped ``BlockSums`` (stage
    1: ``build_stage1_blocks``; stage 2: the tangent-space sums of
    ``riemannian_step``), the damping mode of ``assemble`` (stage 1: that of
    its solver, pose blocks only or both groups; stage 2: both groups), and
    the trial state of an inner solve (stage-1 pose-only: the trial cameras
    with the landmarks re-solved in closed form at them, whose V, V^+ and
    A^T c the next linearization reuses if the trial is accepted; joint
    damping and stage 2 back-substitute the landmark update, and stage 2
    retracts the step onto the spheres). An accepted trial becomes the
    current state.
    Each point is linearized once, and its sums are kept until a step is
    accepted. Every iteration damps them with its lam in one ``assemble``
    call, the only place lam enters a system; after a rejected step that
    equals linearizing again bit for bit. Steps are
    accepted only on strict cost decrease; the damping halves
    on success and quadruples on failure. Terminates on the iteration cap,
    when a finite trial changes the cost by at most the relative function
    tolerance (a stagnant rejected trial also counts), or once the accepted
    cost is at most ``ROUNDING_FLOOR`` times the starting cost. Every
    iteration appends a (cost, cumulative seconds) record; cost sequences are
    bit-reproducible.
    A singular pose block (power series or PCG) or a degenerate stage-2
    linearization raises NumericFailureError;
    a direct solve that fails to factor is a rejected step.
    """
    if stage not in _STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    ops = _STAGES[stage](problem, config)
    f = ops.cost(state)
    if not math.isfinite(f):
        raise NumericFailureError(f"stage {stage} starting cost is not finite")

    floor = ROUNDING_FLOOR * f
    t_start = time.perf_counter()
    records = [TraceRecord(0, f, 0.0)]
    lam = config.initial_lambda
    sums = None  # the linearization at the current state

    for it in range(1, config.max_iterations + 1):
        try:
            if sums is None:
                sums = ops.linearize(state)
            system = assemble(sums, lam, ops.damping_mode)
            report = _INNER_SOLVERS[ops.inner](system, config)
            trial = None if report.flag == "singular" else ops.trial(state, system, report)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise NumericFailureError(f"stage {stage} iteration {it}: {exc}") from exc

        f_trial = math.inf if trial is None else ops.cost(trial)
        accepted = f_trial < f
        if accepted:
            state, sums, system = trial, None, None  # free the linearization before the next
        denom = f if f > 0 else 1.0
        converged = math.isfinite(f_trial) and abs(f - f_trial) / denom <= config.function_tolerance
        if accepted:
            f, lam = f_trial, max(LAMBDA_MIN, lam * LAMBDA_DECREASE)
        else:
            lam = min(LAMBDA_MAX, lam * LAMBDA_INCREASE)

        records.append(TraceRecord(it, f, time.perf_counter() - t_start))
        if converged or f <= floor:
            break

    trace = ConvergenceTrace(ops.name, problem_id, f"stage{stage}", records)
    return state, trace
