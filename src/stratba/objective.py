"""Residuals, the Gram bases of their Jacobians, and the closed-form landmark solve.

Stage 1 blends an object-space term with an affine term, weighted by eta:
for camera P (3x4), homogeneous landmark x (last coordinate 1) and
measurement m,

    rows 1-2:  sqrt(1-eta) * (P[0:2] x - (P[2] x) m)
    rows 3-4:  sqrt(eta)   * (P[0:2] x - m)

that is r = B P x - d, with the 4x3 measurement matrix B and
d = sqrt(eta) (0, 0, m). The residual is linear in the camera, with pose
Jacobian B (x) x^T (Kronecker product), and affine in the landmark's three
free coordinates, with landmark Jacobian A = B P[:, :3]; so each landmark has
a closed-form least-squares optimum once cameras are fixed. B^T B and B^T d
are linear in the measurement weights w = (1, m0, m1, |m|^2). So the landmark
normal equations A^T A and A^T c of all landmarks are one sparse product of
the problem's per-pair weight sums (``BaProblem.measurement_weights``) with a
table of per-camera coefficients, and no per-observation Jacobian is formed;
``normal_eq`` linearizes stage 1 from per-camera moments of x weighted the
same way.

Stage 2 is the plain projective reprojection error pi(P x) - m with
pi([x, y, z]) = [x/z, y/z], evaluated on unit-norm homogeneous parameters.
Its pose Jacobian is D (x) x^T with D the derivative of pi at u = P x, and
D^T D is the sum over the stage-1 bases at eta = 0 weighted by
(1, p0, p1, |p|^2) / z^2, so ``normal_eq`` linearizes both stages alike.

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

# Default trade-off eta in [0, 1] between the object-space rows and the affine
# rows of stage 1.
ETA = 0.1


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


def stage1_weights(measurements: np.ndarray) -> np.ndarray:
    """The weights w = (1, m0, m1, |m|^2) of each measurement, as rows: (n,2) -> (4,n)."""
    out = np.empty((4, len(measurements)))
    out[0] = 1.0
    out[1:3] = measurements.T
    out[3] = np.einsum("ni,ni->n", measurements, measurements)
    return out


def stage1_gram_basis(eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bases (4,3,3) and (4,3) with B^T B = sum_k w_k C_k and B^T d = sum_k w_k e_k.

    Raises ValueError for eta outside [0, 1].
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    s = 1.0 - eta
    c = np.zeros((4, 3, 3))
    c[0, 0, 0] = c[0, 1, 1] = 1.0
    c[1, 0, 2] = c[1, 2, 0] = c[2, 1, 2] = c[2, 2, 1] = -s
    c[3, 2, 2] = s
    e = np.zeros((4, 3))
    e[1, 0] = e[2, 1] = eta
    return c, e


def stage1_gram_apply(v: np.ndarray, weights: np.ndarray, eta: float) -> np.ndarray:
    """sum_k w_k C_k v for stacks v (3, ..., n) of 3-vectors and weights w (4, n).

    The sum over the bases C_k of ``stage1_gram_basis``, written out and
    linear in all four weights, so that weights summed over a pair's
    observations give the pair's sum: B^T B v for the weights of one
    measurement, and at eta = 0 with the stage-2 weights D^T D v.
    """
    s = 1.0 - eta
    w0, m0, m1, q = weights
    out = np.empty_like(v)
    out[0] = w0 * v[0] - (s * m0) * v[2]
    out[1] = w0 * v[1] - (s * m1) * v[2]
    out[2] = -s * (m0 * v[0] + m1 * v[1] - q * v[2])
    return out


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


def _gather(state: ProjectiveState, problem: BaProblem):
    # np.take copies whole rows; the same fancy indexing takes about twice as long
    cams = np.take(state.cameras, problem.camera_indices, axis=0)
    lms = np.take(state.landmarks, problem.landmark_indices, axis=0)
    return cams, lms


def total_cost(state: ProjectiveState, problem: BaProblem, stage: int,
               eta: float = ETA) -> float:
    """Sum of squared residual norms over all observations.

    Stage-2 cost is +inf when any observation is degenerate. Summation is
    numpy pairwise in observation order, so repeated evaluations are
    bit-identical.
    """
    cams, lms = _gather(state, problem)
    if stage == STAGE1:
        r = stage1_residuals(cams, lms, problem.measurements, eta)
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


# A 3x3 block whose smallest eigenvalue is certified above this fraction of
# its trace is inverted in closed form; its condition number is then below
# 1000, so the adjugate agrees with the eigendecomposition to about 1e-13
# relative. A margin of 1e-6 would admit condition numbers up to 1e6 and
# errors of about 1e-10, which the stage-2 spectral oracle tests resolve.
_CLOSED_FORM_MIN_EIG = 1e-3


def _eigh_pinv(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, q = np.linalg.eigh(blocks)
    trace = np.trace(blocks, axis1=1, axis2=2)
    tol = V_PINV_TOL * np.maximum(trace, 0.0)
    ok = w > tol[:, None]
    inv_w = np.where(ok, 1.0 / np.where(ok, w, 1.0), 0.0)
    pinv = np.matmul(q * inv_w[:, None, :], q.transpose(0, 2, 1))
    return pinv, ~ok.all(axis=1)


def _closed_form_inverse_3x3(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugate over determinant of symmetric 3x3 blocks, and where it is certified.

    With eigenvalues 0 <= l1 <= l2 <= l3, the sum of the principal 2x2 minors
    is e2 = l1 l2 + l1 l3 + l2 l3 >= l2 l3, so l1 >= det / e2. A block is
    certified when det / e2 exceeds ``_CLOSED_FORM_MIN_EIG`` times its trace.
    That bound implies e2 >= trace^2 / 3000; requiring e2 > 1e-4 trace^2 as
    well keeps rounding in nearly rank-1 blocks, where det and e2 are both
    rounding noise, from passing the test.
    """
    a00, a01, a02 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 0, 2]
    a11, a12, a22 = blocks[:, 1, 1], blocks[:, 1, 2], blocks[:, 2, 2]
    adj = np.empty_like(blocks)
    adj[:, 0, 0] = a11 * a22 - a12 * a12
    adj[:, 1, 1] = a00 * a22 - a02 * a02
    adj[:, 2, 2] = a00 * a11 - a01 * a01
    adj[:, 0, 1] = adj[:, 1, 0] = a02 * a12 - a01 * a22
    adj[:, 0, 2] = adj[:, 2, 0] = a01 * a12 - a02 * a11
    adj[:, 1, 2] = adj[:, 2, 1] = a01 * a02 - a00 * a12
    det = a00 * adj[:, 0, 0] + a01 * adj[:, 0, 1] + a02 * adj[:, 0, 2]
    trace = a00 + a11 + a22
    e2 = adj[:, 0, 0] + adj[:, 1, 1] + adj[:, 2, 2]
    certified = (det > _CLOSED_FORM_MIN_EIG * trace * e2) & (e2 > 1e-4 * trace * trace)
    adj /= np.where(certified, det, 1.0)[:, None, None]
    return adj, certified


def pinv_psd(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse of symmetric PSD blocks; eigenvalues at or below
    ``V_PINV_TOL`` times the trace drop.

    Returns the pseudo-inverses and the mask of rank-deficient blocks. 3x3
    blocks certified well-conditioned (``_closed_form_inverse_3x3``) are
    inverted in closed form; every other block goes through ``eigh``, which
    applies the rank rule. A certified block's eigenvalues all exceed
    ``_CLOSED_FORM_MIN_EIG`` times its trace, far above the cutoff, so the
    mask is the one ``eigh`` would give. A batch that is certified throughout
    skips ``eigh``.
    """
    if blocks.shape[1:] != (3, 3):
        return _eigh_pinv(blocks)
    pinv, certified = _closed_form_inverse_3x3(blocks)
    degenerate = np.zeros(len(blocks), dtype=bool)
    if not certified.all():
        rest = ~certified
        pinv[rest], degenerate[rest] = _eigh_pinv(blocks[rest])
    return pinv, degenerate


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, :, None] * b[:, None, :]


def stage1_landmark_normals(cameras: np.ndarray, problem: BaProblem,
                            eta: float) -> tuple[np.ndarray, np.ndarray]:
    """A^T A (n_l,3,3) and A^T c (n_l,3) of every landmark at these cameras.

    A is the landmark Jacobian and c the residual at the origin landmark
    (0, 0, 0, 1). With P3 = P[:, :3], rows p0, p1, p2, and t = P[:, 3], each
    observation adds sum_k w_k P3^T C_k P3 to A^T A and
    sum_k w_k P3^T (C_k t - e_k) to A^T c (bases of ``stage1_gram_basis``).
    One sparse product of ``problem.measurement_weights`` with the
    (4 n_cameras, 12) table of these per-camera coefficients gives both, and
    A^T A is exactly symmetric.
    """
    s = 1.0 - eta
    n_c = len(cameras)
    p, t = cameras[:, :, :3], cameras[:, :, 3]
    p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2]
    basis, offsets = stage1_gram_basis(eta)
    # P3^T C_k P3 written out as sums of symmetric outer products
    gram = np.empty((n_c, 4, 3, 3))
    gram[:, 0] = _outer(p0, p0) + _outer(p1, p1)
    gram[:, 1] = -s * (_outer(p0, p2) + _outer(p2, p0))
    gram[:, 2] = -s * (_outer(p1, p2) + _outer(p2, p1))
    gram[:, 3] = s * _outer(p2, p2)
    table = np.empty((n_c, 4, 12))
    table[:, :, :9] = gram.reshape(n_c, 4, 9)
    table[:, :, 9:] = np.einsum("cia,cki->cka", p, np.einsum("kij,cj->cki", basis, t) - offsets)
    normals = problem.measurement_weights @ table.reshape(4 * n_c, 12)
    return normals[:, :9].reshape(-1, 3, 3), normals[:, 9:]


@dataclass(frozen=True)
class LandmarkSolve:
    """Closed-form landmarks and the landmark side of stage 1 at their cameras.

    A^T A and A^T c depend only on the cameras and measurements, so at these
    cameras V = A^T A, its pseudo-inverse and A^T c are also the landmark
    blocks of the stage-1 linearization: ``build_stage1_blocks`` takes them
    from here instead of forming them again.
    """

    landmarks: np.ndarray  # (n_l, 4), last coordinate exactly 1
    hessian: np.ndarray  # (n_l, 3, 3) A^T A, the undamped V
    origin_gradient: np.ndarray  # (n_l, 3) A^T c, the landmark gradient at (0, 0, 0, 1)
    pinv: np.ndarray  # (n_l, 3, 3) pinv_psd(V)
    degenerate: np.ndarray  # (n_l,) rank-deficient at V_PINV_TOL


def solve_landmarks(state: ProjectiveState, problem: BaProblem,
                    eta: float = ETA) -> LandmarkSolve:
    """Closed-form per-landmark optimum of the stage-1 cost with cameras fixed.

    Each landmark's stacked residual is affine in its three free coordinates,
    r = A v + c, with A the landmark Jacobian rows and c the residual at the
    origin landmark (0, 0, 0, 1). The optimum v = -(A^T A)^+ A^T c is taken
    for all landmarks at once from ``stage1_landmark_normals``, with the
    pseudo-inverse and rank rule of the Schur system's V^+: an eigenvalue of
    A^T A at or below ``V_PINV_TOL`` times its trace makes the landmark
    rank-deficient. Such landmarks are left unchanged and counted in a single
    warning; they are exactly the landmarks whose update ``back_substitute``
    zeroes. Unobserved landmarks are also left unchanged. The new (n_l, 4)
    landmarks, with last coordinate exactly 1, come back with A^T A, A^T c
    and the pseudo-inverse, which the next stage-1 linearization at these
    cameras reuses.
    """
    out = np.array(state.landmarks, copy=True)
    ata, atc = stage1_landmark_normals(state.cameras, problem, eta)
    ata_inv, skipped = pinv_psd(ata)
    v = -np.einsum("nij,nj->ni", ata_inv, atc)

    solved = ~skipped
    out[solved, :3] = v[solved]
    out[solved, 3] = 1.0
    observed = np.diff(problem.plan.landmark_pair_ptr) > 0
    n_degenerate = int((skipped & observed).sum())
    if n_degenerate:
        logger.warning("left %d landmarks unchanged: rank-deficient closed-form systems",
                       n_degenerate)
    return LandmarkSolve(out, ata, atc, ata_inv, skipped)
