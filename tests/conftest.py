"""Shared builders and independent oracles for the test suite.

The dense helpers here deliberately assemble full Jacobians and normal
matrices with plain loops over the single-observation operations, so they
share no code with the batched/blocked production paths they check.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from stratba.bal_io import BaProblem, ObservationPlan, ProjectiveState
from stratba.normal_eq import (
    BOTH,
    POSE_ONLY,
    BlockSums,
    CouplingFactors,
    assemble,
    build_stage1_blocks,
)
from stratba.objective import (
    STAGE1,
    STAGE2,
    Z_EPSILON,
    stage1_residuals,
    stage2_residuals,
)
from stratba.riemannian import TangentBasis, retract, riemannian_step, state_tangent_bases


# ---------------------------------------------------------------------------
# per-observation Jacobians (the oracle of the moment-form linearization)


@dataclass
class OracleRows:
    """Per-observation Jacobian row bands in the problem's own observation order.

    Each pose Jacobian is D (x) x^T, held as its two factors, then
    right-multiplied by its camera's tangent basis when ``camera_bases`` is set.
    ``plan`` only fixes the pair order of the coupling factors that ``sums``
    returns.
    """

    plan: ObservationPlan
    camera: np.ndarray  # (n_obs,) camera of each observation
    landmark: np.ndarray  # (n_obs,) landmark of each observation
    pose_factor: np.ndarray  # (n_obs, r, 3) D = dr/du
    pose_landmark: np.ndarray  # (n_obs, 4) x
    lm_jac: np.ndarray  # (n_obs, r, d_l)
    residual: np.ndarray  # (n_obs, r)
    camera_bases: np.ndarray | None = None  # (n_cameras, 12, d_p)

    @property
    def pose_jac(self) -> np.ndarray:
        """(n_obs, r, d_p) row bands D (x) x^T, times the camera bases if set."""
        d, x = self.pose_factor, self.pose_landmark
        jp = (d[:, :, :, None] * x[:, None, None, :]).reshape(len(d), d.shape[1], 12)
        if self.camera_bases is not None:
            jp = jp @ self.camera_bases[self.camera]
        return jp

    @property
    def pose_width(self) -> int:
        return self.pose_jac.shape[2]

    @property
    def lm_width(self) -> int:
        return self.lm_jac.shape[2]

    def sums(self) -> BlockSums:
        """U, b_p, W's factors per distinct pair, V and b_l, summed row by row.

        The distinct pairs are listed camera-major, landmarks increasing
        within a camera. A pair's landmark-side factor is the sum of D^T Jl
        over its rows, and its x is that of any of its rows (the rows of a
        pair share the landmark).
        """
        jp, jl, res = self.pose_jac, self.lm_jac, self.residual
        d_p, d_l = self.pose_width, self.lm_width
        u = np.zeros((self.plan.num_cameras, d_p, d_p))
        b_p = np.zeros((self.plan.num_cameras, d_p))
        v = np.zeros((self.plan.num_landmarks, d_l, d_l))
        b_l = np.zeros((self.plan.num_landmarks, d_l))
        observed = list(zip(self.camera.tolist(), self.landmark.tolist()))
        pair_of = {pair: p for p, pair in enumerate(sorted(set(observed)))}
        gt = np.zeros((len(pair_of), 3, d_l))
        x = np.zeros((len(pair_of), 4))
        for k, (c, lm) in enumerate(observed):
            u[c] += jp[k].T @ jp[k]
            b_p[c] += jp[k].T @ res[k]
            v[lm] += jl[k].T @ jl[k]
            b_l[lm] += jl[k].T @ res[k]
            gt[pair_of[c, lm]] += self.pose_factor[k].T @ jl[k]
            x[pair_of[c, lm]] = self.pose_landmark[k]
        return BlockSums(u, b_p, CouplingFactors(self.plan, gt, x, self.camera_bases), v, b_l)

    def project(self, bases: TangentBasis) -> OracleRows:
        """Each row band right-multiplied by its parameter's tangent basis."""
        return dataclasses.replace(self, lm_jac=self.lm_jac @ bases.landmark_bases[self.landmark],
                                   camera_bases=bases.camera_bases)


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


def stage1_measurement_matrix(measurements: np.ndarray, eta: float) -> np.ndarray:
    """The (n,4,3) matrices B of a batch of observations: the pose Jacobian is B (x) x^T."""
    s1 = math.sqrt(1.0 - eta)
    s2 = math.sqrt(eta)
    b = np.zeros((len(measurements), 4, 3))
    b[:, 0, 0] = b[:, 1, 1] = s1
    b[:, 0, 2] = -s1 * measurements[:, 0]
    b[:, 1, 2] = -s1 * measurements[:, 1]
    b[:, 2, 0] = b[:, 3, 1] = s2
    return b


def stage2_factors(cameras: np.ndarray, landmarks: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d pi / d u (n,2,3), the landmark Jacobian (n,2,4) and the validity mask."""
    n = len(cameras)
    u = np.einsum("nij,nj->ni", cameras, landmarks)
    z = u[:, 2]
    valid = np.abs(z) > Z_EPSILON
    inv_z = 1.0 / np.where(valid, z, 1.0)
    # d pi / d u, rows for x and y
    dpi = np.zeros((n, 2, 3))
    dpi[:, 0, 0] = inv_z
    dpi[:, 1, 1] = inv_z
    dpi[:, 0, 2] = -u[:, 0] * inv_z**2
    dpi[:, 1, 2] = -u[:, 1] * inv_z**2
    return dpi, np.einsum("nrc,ncj->nrj", dpi, cameras), valid


def stage2_jacobians(cameras: np.ndarray, landmarks: np.ndarray, measurements: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pose (n,2,12) and landmark (n,2,4) Jacobians plus validity mask."""
    dpi, jl, valid = stage2_factors(cameras, landmarks)
    # d u_c / d vec(P) is the landmark repeated in column band c
    jp = np.einsum("nrc,nj->nrcj", dpi, landmarks).reshape(len(cameras), 2, 12)
    return jp, jl, valid


def oracle_rows(problem: BaProblem, state: ProjectiveState, stage: int, eta: float = 0.1
                ) -> OracleRows:
    """Per-observation Jacobian rows of either stage in the problem's observation order."""
    camera, landmark = problem.camera_indices, problem.landmark_indices
    cams, lms, meas = state.cameras[camera], state.landmarks[landmark], problem.measurements
    if stage == STAGE1:
        return OracleRows(problem.plan, camera, landmark, stage1_measurement_matrix(meas, eta),
                          lms, stage1_landmark_jacobian(cams, meas, eta),
                          stage1_residuals(cams, lms, meas, eta))
    dpi, jl, valid = stage2_factors(cams, lms)
    assert valid.all()
    return OracleRows(problem.plan, camera, landmark, dpi, lms, jl,
                      stage2_residuals(cams, lms, meas)[0])


# ---------------------------------------------------------------------------
# single-observation views of the batched kernels


class ProjectionDegenerateError(ValueError):
    """Perspective division with |z| at or below the kernels' Z_EPSILON."""


def _one(*arrays):
    return [np.asarray(a, dtype=float)[None] for a in arrays]


def pose_residual(camera, landmark, measurement, eta: float) -> np.ndarray:
    """Stage-1 residual 4-vector for one observation."""
    return stage1_residuals(*_one(camera, landmark, measurement), eta)[0]


def pose_jacobians(camera, landmark, measurement, eta: float):
    """Stage-1 Jacobians (4x12 pose, 4x3 landmark) for one observation."""
    cam, lm, m = _one(camera, landmark, measurement)
    return (stage1_pose_jacobian(lm, m, eta)[0],
            stage1_landmark_jacobian(cam, m, eta)[0])


def projective_residual(camera, landmark, measurement) -> np.ndarray:
    """Stage-2 reprojection residual; raises ProjectionDegenerateError near z=0."""
    r, valid = stage2_residuals(*_one(camera, landmark, measurement))
    if not valid[0]:
        raise ProjectionDegenerateError("projected depth within epsilon of zero")
    return r[0]


def projective_jacobians(camera, landmark, measurement):
    """Stage-2 Jacobians (2x12 pose, 2x4 landmark) for one observation."""
    jp, jl, valid = stage2_jacobians(*_one(camera, landmark, measurement))
    if not valid[0]:
        raise ProjectionDegenerateError("projected depth within epsilon of zero")
    return jp[0], jl[0]


# ---------------------------------------------------------------------------
# random problems and dense oracles


def make_random_problem(n_cameras: int, n_landmarks: int, seed: int,
                        cameras_per_landmark: int | None = None) -> BaProblem:
    """Random observation graph; every landmark sees >= 2 distinct cameras."""
    rng = np.random.default_rng(seed)
    cam_idx, lm_idx = [], []
    for j in range(n_landmarks):
        k = cameras_per_landmark or rng.integers(2, n_cameras + 1)
        k = min(k, n_cameras)
        for c in sorted(rng.choice(n_cameras, size=k, replace=False)):
            cam_idx.append(c)
            lm_idx.append(j)
    n_obs = len(cam_idx)
    return BaProblem(
        num_cameras=n_cameras,
        num_landmarks=n_landmarks,
        num_observations=n_obs,
        camera_indices=np.array(cam_idx),
        landmark_indices=np.array(lm_idx),
        measurements=2.0 * rng.standard_normal((n_obs, 2)),
    )


def with_repeated_observations(problem: BaProblem, rows, seed: int) -> BaProblem:
    """The problem with observations ``rows`` made a second time, at new measurements."""
    rng = np.random.default_rng(seed)
    rows = np.asarray(rows)
    return BaProblem(
        num_cameras=problem.num_cameras,
        num_landmarks=problem.num_landmarks,
        num_observations=problem.num_observations + len(rows),
        camera_indices=np.concatenate([problem.camera_indices, problem.camera_indices[rows]]),
        landmark_indices=np.concatenate([problem.landmark_indices,
                                         problem.landmark_indices[rows]]),
        measurements=np.concatenate([problem.measurements,
                                     2.0 * rng.standard_normal((len(rows), 2))]),
    )


def make_random_state(problem: BaProblem, seed: int, stage: int) -> ProjectiveState:
    rng = np.random.default_rng(seed)
    cameras = rng.standard_normal((problem.num_cameras, 3, 4))
    landmarks = np.concatenate(
        [rng.standard_normal((problem.num_landmarks, 3)),
         np.ones((problem.num_landmarks, 1))], axis=1)
    state = ProjectiveState(cameras, landmarks)
    if stage == STAGE2:
        state = retract(state)
    return state


def central_difference_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central differences with the contract step 1e-6 * max(1, |entry|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x))
    jac = np.zeros((f0.size, x.size))
    flat = x.ravel()
    for k in range(flat.size):
        h = 1e-6 * max(1.0, abs(flat[k]))
        xp = flat.copy()
        xm = flat.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (np.asarray(f(xp.reshape(x.shape))) -
                     np.asarray(f(xm.reshape(x.shape)))).ravel() / (2 * h)
    return jac


def dense_jacobian(problem: BaProblem, state: ProjectiveState, stage: int,
                   eta: float = 0.1) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Full Jacobian and residual stacked observation-by-observation.

    Returns (J, r, d_p, d_l) with pose columns first (d_p per camera), then
    landmark columns (d_l per landmark). Built from the scalar per-observation
    operations with explicit python loops.
    """
    d_p = 12
    d_l = 3 if stage == STAGE1 else 4
    r_rows = 4 if stage == STAGE1 else 2
    n_rows = r_rows * problem.num_observations
    n_cols = d_p * problem.num_cameras + d_l * problem.num_landmarks
    jac = np.zeros((n_rows, n_cols))
    res = np.zeros(n_rows)
    for k in range(problem.num_observations):
        c = int(problem.camera_indices[k])
        l = int(problem.landmark_indices[k])
        cam = state.cameras[c]
        lm = state.landmarks[l]
        m = problem.measurements[k]
        if stage == STAGE1:
            r = pose_residual(cam, lm, m, eta)
            jp, jl = pose_jacobians(cam, lm, m, eta)
        else:
            r = projective_residual(cam, lm, m)
            jp, jl = projective_jacobians(cam, lm, m)
        rows = slice(r_rows * k, r_rows * (k + 1))
        res[rows] = r
        jac[rows, d_p * c:d_p * (c + 1)] = jp
        jac[rows, d_p * problem.num_cameras + d_l * l:
            d_p * problem.num_cameras + d_l * (l + 1)] = jl
    return jac, res, d_p, d_l


def dense_rows_jacobian(rows, n_cameras, n_landmarks):
    """The stacked Jacobian and residual of per-observation rows, one row band at a time."""
    n_obs, r, d_p = rows.pose_jac.shape
    d_l = rows.lm_width
    pc = n_cameras * d_p
    jac = np.zeros((n_obs * r, pc + n_landmarks * d_l))
    for k in range(n_obs):
        c, lm = rows.camera[k], rows.landmark[k]
        jac[k * r:(k + 1) * r, c * d_p:(c + 1) * d_p] = rows.pose_jac[k]
        jac[k * r:(k + 1) * r, pc + lm * d_l:pc + (lm + 1) * d_l] = rows.lm_jac[k]
    return jac, rows.residual.ravel(), d_p, d_l


def dense_damped_hessian(jac: np.ndarray, res: np.ndarray, n_cameras: int, d_p: int,
                         lam: float, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(J^T J + damping, J^T r) with the production Jacobi clamping convention."""
    h = jac.T @ jac
    g = jac.T @ res
    pose_cols = n_cameras * d_p
    diag = np.diag(h).copy()
    d = np.clip(np.sqrt(diag), 1e-6, 1e6) ** 2
    damp = np.zeros_like(diag)
    damp[:pose_cols] = lam * d[:pose_cols]
    if mode == BOTH:
        damp[pose_cols:] = lam * d[pose_cols:]
    return h + np.diag(damp), g


def make_varpro_system(n_cameras: int, n_landmarks: int, seed: int, lam: float = 1e-4,
                       cameras_per_landmark: int | None = None):
    """Random stage-1 system (pose-only damping) plus its problem and state."""
    problem = make_random_problem(n_cameras, n_landmarks, seed, cameras_per_landmark)
    state = make_random_state(problem, seed + 1000, STAGE1)
    blocks = build_stage1_blocks(problem, state, 0.1)
    return assemble(blocks, lam, POSE_ONLY), problem, state


def make_riemannian_system(n_cameras: int, n_landmarks: int, seed: int, lam: float = 1e-4):
    """Random projected stage-2 system (both-sided damping)."""
    problem = make_random_problem(n_cameras, n_landmarks, seed)
    state = make_random_state(problem, seed + 1000, STAGE2)
    sums = riemannian_step(problem, state, state_tangent_bases(state))
    return assemble(sums, lam, BOTH), problem, state


def dense_uwv(system):
    """Dense U, W, V from the stored blocks, W's blocks read from its factors."""
    d, e = system.pose_width, system.lm_width
    n_p, n_l = system.n_cameras, system.n_landmarks
    u = np.zeros((n_p * d, n_p * d))
    for i in range(n_p):
        u[i * d:(i + 1) * d, i * d:(i + 1) * d] = system.u_blocks[i]
    v = np.zeros((n_l * e, n_l * e))
    for j in range(n_l):
        v[j * e:(j + 1) * e, j * e:(j + 1) * e] = system.v_blocks[j]
    return u, dense_w(system), v


def dense_w(system) -> np.ndarray:
    """W as a dense matrix, one block per distinct pair from ``factors.blocks``."""
    d, e, plan = system.pose_width, system.lm_width, system.factors.plan
    w = np.zeros((system.pose_dim, system.n_landmarks * e))
    for block, cam, lm in zip(system.factors.blocks(), plan.pair_camera, plan.pair_landmark):
        w[cam * d:(cam + 1) * d, lm * e:(lm + 1) * e] += block
    return w


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
