"""Desk-scale synthetic problems with known ground truth.

Cameras sit on a ring far outside a Gaussian landmark cloud centered at the
origin, all looking inward; measurements follow the BAL pinhole convention
(p = -P/P_z in camera coordinates, scaled by the focal length, no radial
distortion) with optional Gaussian pixel noise. All cameras observe all
landmarks, so every landmark has at least two observations whenever the
camera count is at least two. The metric ground truth is stored in the
problem's camera and point blocks, which makes noise-free instances exactly
consistent: a projective solution with zero reprojection error exists by
construction.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

from .bal_io import BaProblem, ProjectiveState

# Ring geometry: distant, narrow-field cameras keep the affine rows of the
# stage-1 objective nearly consistent with the object-space rows, so the
# stage-1 optimum sits many orders of magnitude below a random start.
RING_RADIUS = 20_000.0
CLOUD_SIGMA = 1.0
FOCAL_LENGTH = 2_000_000.0


def make_ring_problem(n_cameras: int, n_landmarks: int, noise: float, seed: int) -> BaProblem:
    """Generate a fully-observed ring problem; raises ValueError for fewer than 2
    cameras, no landmark, or a noise sigma that is negative or not finite."""
    if n_cameras < 2:
        raise ValueError("need at least 2 cameras")
    if n_landmarks < 1:
        raise ValueError("need at least 1 landmark")
    if not 0.0 <= noise < np.inf:  # NaN included
        raise ValueError(f"noise must be finite and non-negative, got {noise!r}")
    rng = np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))

    points = rng.standard_normal((n_landmarks, 3)) * CLOUD_SIGMA
    angles = 2.0 * np.pi * np.arange(n_cameras) / n_cameras
    centers = np.stack([
        RING_RADIUS * np.cos(angles),
        RING_RADIUS * np.sin(angles),
        RING_RADIUS * 0.05 * rng.standard_normal(n_cameras),
    ], axis=1)

    rotations = np.empty((n_cameras, 3, 3))
    translations = np.empty((n_cameras, 3))
    for i, center in enumerate(centers):
        # camera -z axis points at the origin (BAL looks down -z)
        z_axis = center / np.linalg.norm(center)
        up = np.array([0.0, 0.0, 1.0])
        x_axis = np.cross(up, z_axis)
        x_axis /= np.linalg.norm(x_axis)
        y_axis = np.cross(z_axis, x_axis)
        r = np.stack([x_axis, y_axis, z_axis])
        rotations[i] = r
        translations[i] = -r @ center

    cam_idx = np.repeat(np.arange(n_cameras), n_landmarks)
    lm_idx = np.tile(np.arange(n_landmarks), n_cameras)
    p_cam = np.einsum("nij,mj->nmi", rotations, points) + translations[:, None, :]
    depths = p_cam[..., 2]
    if (depths >= 0).any():
        raise ValueError("geometry places landmarks behind a camera")
    proj = -p_cam[..., :2] / depths[..., None]
    meas = FOCAL_LENGTH * proj.reshape(-1, 2)
    if noise > 0:
        meas = meas + noise * rng.standard_normal(meas.shape)

    metric_cameras = np.zeros((n_cameras, 9))
    metric_cameras[:, :3] = Rotation.from_matrix(rotations).as_rotvec()
    metric_cameras[:, 3:6] = translations
    metric_cameras[:, 6] = FOCAL_LENGTH

    return BaProblem(
        num_cameras=n_cameras,
        num_landmarks=n_landmarks,
        num_observations=n_cameras * n_landmarks,
        camera_indices=cam_idx,
        landmark_indices=lm_idx,
        measurements=meas,
        metric_cameras=metric_cameras,
        metric_points=points,
    )


def ground_truth_state(problem: BaProblem) -> ProjectiveState:
    """Projective state reproducing the stored metric ground truth exactly.

    With the BAL sign convention, diag(f, f, -1) [R | t] projects through the
    plain perspective division onto the stored measurements.
    """
    if problem.metric_cameras is None or problem.metric_points is None:
        raise ValueError("problem carries no metric ground truth")
    rot = Rotation.from_rotvec(np.array(problem.metric_cameras[:, :3])).as_matrix()
    t = problem.metric_cameras[:, 3:6]
    f = problem.metric_cameras[:, 6]
    cameras = np.concatenate([rot, t[:, :, None]], axis=2)
    scale = np.zeros((len(rot), 3, 3))
    scale[:, 0, 0] = f
    scale[:, 1, 1] = f
    scale[:, 2, 2] = -1.0
    cameras = scale @ cameras
    landmarks = np.concatenate([problem.metric_points,
                                np.ones((problem.num_landmarks, 1))], axis=1)
    return ProjectiveState(cameras, landmarks)
