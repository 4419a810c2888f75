"""Residuals, Jacobians, and the closed-form landmark solve for both stages.

Stage 1 blends an object-space term with an affine term, weighted by eta:
for camera P (3x4), homogeneous landmark x (last coordinate 1) and
measurement m,

    rows 1-2:  sqrt(1-eta) * (P[0:2] x - (P[2] x) m)
    rows 3-4:  sqrt(eta)   * (P[0:2] x - m)

The residual is affine in the landmark's three free coordinates, which gives
each landmark a closed-form least-squares optimum once cameras are fixed.

Stage 2 is the plain projective reprojection error pi(P x) - m with
pi([x, y, z]) = [x/z, y/z], evaluated on unit-norm homogeneous parameters.

Cameras are vectorized row-major (12 entries) everywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .bal_io import BaProblem, ProjectiveState

logger = logging.getLogger(__name__)

# Below this |z| the perspective division is treated as degenerate and the
# enclosing trial step becomes invalid (cost +inf).
Z_EPSILON = 1e-12

STAGE1 = 1
STAGE2 = 2


@dataclass(frozen=True)
class PoseConfig:
    """Trade-off between the object-space rows and the affine rows of stage 1."""

    eta: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


# ---------------------------------------------------------------------------
# batched stage-1 kernels


def stage1_residuals(cameras: np.ndarray, landmarks: np.ndarray, measurements: np.ndarray,
                     eta: float) -> np.ndarray:
    """Residual rows for a batch of observations.

    cameras (n,3,4), landmarks (n,4) with last coordinate 1, measurements (n,2)
    -> (n,4).
    """
    s1 = math.sqrt(1.0 - eta)
    s2 = math.sqrt(eta)
    top = np.einsum("nij,nj->ni", cameras[:, :2, :], landmarks)
    z = np.einsum("nj,nj->n", cameras[:, 2, :], landmarks)
    out = np.empty((len(cameras), 4))
    out[:, :2] = s1 * (top - z[:, None] * measurements)
    out[:, 2:] = s2 * (top - measurements)
    return out


def stage1_landmark_jacobian(cameras: np.ndarray, measurements: np.ndarray,
                             eta: float) -> np.ndarray:
    """Landmark Jacobian (n,4,3) for a batch of observations.

    It is taken with respect to the three free coordinates and does not
    depend on the landmark, since the residual is affine in it.
    """
    p3 = cameras[:, :, :3]  # (n, 3, 3)
    jl = np.empty((len(cameras), 4, 3))
    jl[:, :2] = math.sqrt(1.0 - eta) * (p3[:, :2] - measurements[:, :, None] * p3[:, 2:3])
    jl[:, 2:] = math.sqrt(eta) * p3[:, :2]
    return jl


def stage1_pose_jacobian(landmarks: np.ndarray, measurements: np.ndarray,
                         eta: float) -> np.ndarray:
    """Pose Jacobian (n,4,12) for a batch of observations.

    It does not depend on the camera, since the residual is linear in it.
    """
    s1 = math.sqrt(1.0 - eta)
    s2 = math.sqrt(eta)
    jp = np.zeros((len(landmarks), 4, 12))
    x = landmarks  # (n, 4)
    jp[:, 0, 0:4] = s1 * x
    jp[:, 0, 8:12] = -s1 * measurements[:, 0:1] * x
    jp[:, 1, 4:8] = s1 * x
    jp[:, 1, 8:12] = -s1 * measurements[:, 1:2] * x
    jp[:, 2, 0:4] = s2 * x
    jp[:, 3, 4:8] = s2 * x
    return jp


# ---------------------------------------------------------------------------
# batched stage-2 kernels


def stage2_residuals(cameras: np.ndarray, landmarks: np.ndarray, measurements: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Reprojection residuals (n,2) plus a validity mask (|z| above guard)."""
    u = np.einsum("nij,nj->ni", cameras, landmarks)
    z = u[:, 2]
    valid = np.abs(z) > Z_EPSILON
    zsafe = np.where(valid, z, 1.0)
    out = u[:, :2] / zsafe[:, None] - measurements
    return out, valid


def stage2_jacobians(cameras: np.ndarray, landmarks: np.ndarray, measurements: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pose (n,2,12) and landmark (n,2,4) Jacobians plus validity mask."""
    n = len(cameras)
    u = np.einsum("nij,nj->ni", cameras, landmarks)
    z = u[:, 2]
    valid = np.abs(z) > Z_EPSILON
    zsafe = np.where(valid, z, 1.0)
    inv_z = 1.0 / zsafe
    # d pi / d u, rows for x and y
    dpi = np.zeros((n, 2, 3))
    dpi[:, 0, 0] = inv_z
    dpi[:, 1, 1] = inv_z
    dpi[:, 0, 2] = -u[:, 0] * inv_z**2
    dpi[:, 1, 2] = -u[:, 1] * inv_z**2
    jl = np.einsum("nrc,ncj->nrj", dpi, cameras)
    # d u_c / d vec(P) is the landmark repeated in column band c
    jp = np.einsum("nrc,nj->nrcj", dpi, landmarks).reshape(n, 2, 12)
    return jp, jl, valid


def _gather(state: ProjectiveState, problem: BaProblem):
    cams = state.cameras[problem.camera_indices]
    lms = state.landmarks[problem.landmark_indices]
    return cams, lms


def total_cost(state: ProjectiveState, problem: BaProblem, stage: int,
               config: PoseConfig = PoseConfig()) -> float:
    """Sum of squared residual norms over all observations.

    Stage-2 cost is +inf when any observation is degenerate. Summation is
    numpy pairwise in observation order, so repeated evaluations are
    bit-identical.
    """
    cams, lms = _gather(state, problem)
    if stage == STAGE1:
        r = stage1_residuals(cams, lms, problem.measurements, config.eta)
    elif stage == STAGE2:
        r, valid = stage2_residuals(cams, lms, problem.measurements)
        if not valid.all():
            return math.inf
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return float(np.sum(r * r))


# ---------------------------------------------------------------------------
# closed-form landmark elimination

# Relative eigenvalue cutoff for landmark-block pseudo-inverses.
V_PINV_TOL = 1e-10


def pinv_psd(blocks: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse of symmetric PSD blocks; eigenvalues below rel_tol*trace drop."""
    w, q = np.linalg.eigh(blocks)
    trace = np.trace(blocks, axis1=1, axis2=2)
    tol = rel_tol * np.maximum(trace, 0.0)
    ok = w > tol[:, None]
    inv_w = np.where(ok, 1.0 / np.where(ok, w, 1.0), 0.0)
    pinv = np.einsum("nij,nj,nkj->nik", q, inv_w, q)
    return pinv, ~ok.all(axis=1)


def block_gram(a: np.ndarray) -> np.ndarray:
    """A^T A for every block of a batch: (n, r, d) -> (n, d, d)."""
    # np.matmul takes a slow strided path for a transposed view; a contiguous
    # copy of A^T gives the same products faster.
    return np.matmul(np.ascontiguousarray(a.transpose(0, 2, 1)), a)


@dataclass(frozen=True)
class LandmarkSolve:
    """Closed-form landmarks and the landmark side of stage 1 at their cameras.

    The landmark Jacobian A depends only on the cameras and measurements, so
    at these cameras A, V = A^T A and its pseudo-inverse are also the landmark
    blocks of the stage-1 linearization: ``build_stage1_blocks`` and
    ``assemble`` take them from here instead of forming them again.
    """

    landmarks: np.ndarray  # (n_l, 4), last coordinate exactly 1
    jacobian: np.ndarray  # (n_obs, 4, 3) A in the plan's camera-major row order
    hessian: np.ndarray  # (n_l, 3, 3) A^T A, the undamped V
    pinv: np.ndarray  # (n_l, 3, 3) pinv_psd(V, V_PINV_TOL)
    degenerate: np.ndarray  # (n_l,) rank-deficient at V_PINV_TOL


def solve_landmarks(state: ProjectiveState, problem: BaProblem,
                    config: PoseConfig = PoseConfig()) -> LandmarkSolve:
    """Closed-form per-landmark optimum of the stage-1 cost with cameras fixed.

    Each landmark's stacked residual is affine in its three free coordinates,
    r = A v + c, with A the landmark Jacobian rows and c the residual at the
    origin landmark (0, 0, 0, 1). The optimum v = -(A^T A)^+ A^T c is taken
    for all landmarks at once from the segment sums A^T A and A^T c over the
    observation plan, with the pseudo-inverse and rank rule of the Schur
    system's V^+: an eigenvalue of A^T A at or below ``V_PINV_TOL`` times its
    trace makes the landmark rank-deficient. Such landmarks are left unchanged
    and counted in a single warning; they are exactly the landmarks whose
    update ``back_substitute`` zeroes. Unobserved landmarks are also left
    unchanged. The new (n_l, 4) landmarks, with last coordinate exactly 1,
    come back with A, A^T A and its pseudo-inverse, which the next stage-1
    linearization at these cameras reuses.
    """
    eta = config.eta
    out = np.array(state.landmarks, copy=True)
    plan = problem.plan
    cams = state.cameras[plan.row_camera]
    meas = problem.measurements[plan.rows]
    jac = stage1_landmark_jacobian(cams, meas, eta)  # (n, 4, 3), camera-major
    origin = np.broadcast_to([0.0, 0.0, 0.0, 1.0], (len(meas), 4))
    a = jac[plan.landmark_rows]
    c = stage1_residuals(cams, origin, meas, eta)[plan.landmark_rows]
    ata = plan.landmark_sums(block_gram(a))
    ata_inv, skipped = pinv_psd(ata, V_PINV_TOL)
    v = -np.einsum("nij,nj->ni", ata_inv, plan.landmark_sums(np.einsum("nri,nr->ni", a, c)))

    solved = ~skipped
    out[solved, :3] = v[solved]
    out[solved, 3] = 1.0
    n_degenerate = int((skipped & (np.diff(plan.landmark_ptr) > 0)).sum())
    if n_degenerate:
        logger.warning("left %d landmarks unchanged: rank-deficient closed-form systems",
                       n_degenerate)
    return LandmarkSolve(out, jac, ata, ata_inv, skipped)
