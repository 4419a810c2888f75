"""Tangent-space machinery for the unit-sphere stage-2 parametrization.

Homogeneous cameras (12-vectors) and landmarks (4-vectors) carry a per-vector
scale freedom, so the stage-2 normal equations are solved in the orthogonal
complement of each parameter vector: the Jacobian is right-multiplied by
orthonormal complement bases (12->11 and 4->3 columns), applied to its
summed normal-equation blocks. The coupling stays in its Kronecker factors:
the landmark bases multiply its landmark-side factor, and the camera bases
are applied to the vectors it multiplies, so no projected coupling block is
written. Updates are solved in those coordinates, back-projected, and the
state is retracted to the sphere by plain normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bal_io import ProjectiveState
from .normal_eq import BlockSums, CouplingFactors, build_stage2_blocks

_UNIT_TOL = 1e-9


@dataclass
class TangentBasis:
    """Orthonormal complement bases for every camera and landmark vector."""

    camera_bases: np.ndarray  # (n_p, 12, 11)
    landmark_bases: np.ndarray  # (n_l, 4, 3)


def tangent_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a unit vector.

    Deterministic Householder construction: the trailing n-1 columns of the
    reflector sending v to a signed first axis vector. Accepts a batch
    (..., n) and returns (..., n, n-1).
    """
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1)
    if np.abs(norms - 1.0).max() > _UNIT_TOL:
        raise ValueError("tangent basis requires unit vectors; retract first")
    n = v.shape[-1]
    sigma = np.where(v[..., 0] >= 0, 1.0, -1.0)
    u = v.copy()
    u[..., 0] += sigma
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    basis = -2.0 * u[..., :, None] * u[..., None, 1:]
    idx = np.arange(n - 1)
    basis[..., idx + 1, idx] += 1.0
    return basis


def state_tangent_bases(state: ProjectiveState) -> TangentBasis:
    """Bases for the current point; recompute after every accepted step."""
    return TangentBasis(
        camera_bases=tangent_basis(state.cameras.reshape(-1, 12)),
        landmark_bases=tangent_basis(state.landmarks),
    )


def project_blocks(sums: BlockSums, bases: TangentBasis) -> BlockSums:
    """Finish the tangent projection of ``build_stage2_blocks``' sums.

    With camera bases B_c (12 -> 11) and landmark bases B_l (4 -> 3):
    U -> B_c^T U B_c, b_p -> B_c^T b_p, V -> B_l^T V B_l, b_l -> B_l^T b_l,
    so V is 3x3 as in stage 1. A W block B_c^T (G^T (x) x) B_l is
    B_c^T ((G^T B_l) (x) x); the linearization already holds the projected
    3x3 factor G^T B_l, formed a chunk at a time, and the camera bases go
    with the factors, to be applied to vectors.
    """
    factors = sums.factors
    cam_b, lm_b = bases.camera_bases, bases.landmark_bases
    return BlockSums(cam_b.transpose(0, 2, 1) @ sums.u @ cam_b,
                     np.einsum("nji,nj->ni", cam_b, sums.b_p),
                     CouplingFactors(factors.plan, factors.gt, factors.x, cam_b),
                     lm_b.transpose(0, 2, 1) @ sums.v @ lm_b,
                     np.einsum("nji,nj->ni", lm_b, sums.b_l))


def retract(state: ProjectiveState) -> ProjectiveState:
    """Normalize every camera 12-vector and landmark 4-vector to unit norm."""
    cams = state.cameras.reshape(-1, 12)
    cam_norms = np.linalg.norm(cams, axis=1)
    lm_norms = np.linalg.norm(state.landmarks, axis=1)
    if (cam_norms == 0).any() or (lm_norms == 0).any():
        raise ValueError("cannot retract a zero-norm parameter vector")
    return ProjectiveState(
        (cams / cam_norms[:, None]).reshape(state.cameras.shape),
        state.landmarks / lm_norms[:, None],
    )


def apply_tangent_step(state: ProjectiveState, bases: TangentBasis, pose_update: np.ndarray,
                       landmark_update: np.ndarray) -> ProjectiveState | None:
    """Back-project tangent updates, add, and retract; None if a norm collapses."""
    n_p = len(bases.camera_bases)
    dp = pose_update.reshape(n_p, 11)
    dl = landmark_update.reshape(-1, 3)
    cams = state.cameras.reshape(n_p, 12) + np.einsum("nij,nj->ni", bases.camera_bases, dp)
    lms = state.landmarks + np.einsum("nij,nj->ni", bases.landmark_bases, dl)
    try:
        return retract(ProjectiveState(cams.reshape(state.cameras.shape), lms))
    except ValueError:
        return None


def riemannian_step(problem, state: ProjectiveState, bases: TangentBasis) -> BlockSums:
    """The stage-2 linearization at ``state``: the undamped tangent-space sums.

    The only stage-2 linearization: the block sums of the projective
    Jacobian, projected onto ``bases``. ``build_stage2_blocks`` projects the
    coupling's landmark-side factor G^T to 3x3, a chunk of cameras at a time,
    and ``project_blocks`` the rest, so V and G^T are 3x3 as in stage 1.
    ``assemble`` damps both parameter groups of them (``both`` mode), and an
    inner solve of that system gives tangent-coordinate updates (11 per
    camera, 3 per landmark) for :func:`apply_tangent_step`.
    """
    return project_blocks(build_stage2_blocks(problem, state, bases.landmark_bases), bases)
