"""Block-sparse damped normal equations and their Schur reduction.

Linearization keeps per-observation rows in the camera-major row order of
the problem's observation plan (``BaProblem.plan``). Stage 2 keeps one
Jacobian row band [pose | landmark | residual] per observation
(``JacobianRows``): U and b_p come from one GEMM per camera over its
contiguous rows, V and b_l from segment sums over landmarks. Stage 1 uses the
Kronecker form J_p = B (x) x^T of its pose Jacobian, with B the 4x3
measurement matrix (``Stage1Rows``): per observation it keeps only the 3x3
block G^T = B^T A and a = B^T r, next to the landmark x and the measurement
weights; U and b_p come from one (19 x 4) moment GEMM per camera, each W
block is G^T (x) x, and V, V^+ and b_l come from the landmark normal
equations of ``objective``, so no per-observation Jacobian is formed. The
reduced-camera operator assembled from either holds the pose blocks U, the
landmark blocks V and gradients b_l, and the coupling W = Jp^T Jl as a
canonical block-sparse row matrix with one block per distinct (camera,
landmark) pair, together with one copy of W^T: the blocks of a pair that a
camera observes more than once are summed once, so nothing downstream
treats repeats specially. The reduced right-hand side, the matrix-free
products, back-substitution, the exact block diagonal and the explicit
reduced matrix all read these pieces. The last two use the blockwise product
Y = W V^+, which has W's block structure: the block diagonal sums
Y_o W_o^T over each camera's blocks with one GEMM, and the dense reduced
matrix is U - Y W^T. On densely observed graphs Y W^T is summed with dense
GEMMs over chunks of landmarks, in slabs no larger than the result; on
sparse graphs, where the GEMMs would mostly multiply zeros, and in the
sparse direct solve above the dense limit, it is a block-sparse product.
The pose Hessian blocks are damped with Jacobi scaling; the landmark blocks
are damped only in ``both`` mode (joint / tangent-space optimization), never
in ``pose_only`` mode (eliminated-landmark optimization).
"""

from __future__ import annotations

import copy
import dataclasses
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas
import scipy.sparse

from .bal_io import BaProblem, ObservationPlan, ProjectiveState
from .objective import (
    V_PINV_TOL,
    LandmarkSolve,
    PoseConfig,
    block_gram,
    pinv_psd,
    stage1_gram_apply,
    stage1_gram_basis,
    stage1_landmark_normals,
    stage1_weights,
    stage2_jacobians,
    stage2_residuals,
)

logger = logging.getLogger(__name__)

POSE_ONLY = "pose_only"
BOTH = "both"

# Jacobi damping diagonals are clamped to this range before squaring.
DAMPING_CLAMP = (1e-6, 1e6)

# How many times faster, per multiply-add, the dense GEMMs of ``dense_coupling``
# run than the block-sparse product, which it takes when the GEMMs would do
# more than this many times its multiply-adds. Measured with one BLAS thread
# on a 2-vCPU x86-64 host: 9x on a 10-camera ring, 17-28x on random graphs of
# 20-100 cameras with tracks of 4-25 views, 37-50x at 138-300 cameras.
_GEMM_SPEEDUP = 20


def _pair_sums(values: np.ndarray, plan: ObservationPlan, axis: int = 0) -> np.ndarray:
    """Values of the camera-major rows summed over each distinct (camera, landmark) pair."""
    starts = plan.pair_starts
    if len(starts) == values.shape[axis]:
        return values
    return np.add.reduceat(values, starts, axis=axis)


@dataclass
class JacobianRows:
    """Per-observation Jacobian row bands in the plan's camera-major row order.

    The stage-2 linearization; ``riemannian.project_blocks`` projects them
    onto the tangent spaces.
    """

    plan: ObservationPlan
    pose_jac: np.ndarray  # (n_obs, r, d_p)
    lm_jac: np.ndarray  # (n_obs, r, d_l)
    residual: np.ndarray  # (n_obs, r)

    @property
    def pose_width(self) -> int:
        return self.pose_jac.shape[2]

    @property
    def lm_width(self) -> int:
        return self.lm_jac.shape[2]

    def block_sums(self):
        """U and b_p with one GEMM per camera over its contiguous rows, V and b_l
        as segment sums over landmarks, and one W = Jp^T Jl block per distinct pair."""
        plan = self.plan
        jp, jl, res = self.pose_jac, self.lm_jac, self.residual
        n_p, d_p = plan.num_cameras, self.pose_width
        u = np.empty((n_p, d_p, d_p))
        b_p = np.empty((n_p, d_p))
        for c in range(n_p):
            sl = slice(plan.camera_ptr[c], plan.camera_ptr[c + 1])
            a = jp[sl].reshape(-1, d_p)
            u[c] = a.T @ a
            b_p[c] = a.T @ res[sl].ravel()
        v = plan.landmark_sums(block_gram(jl))
        b_l = plan.landmark_sums(np.einsum("nri,nr->ni", jl, res))
        w_blocks = _pair_sums(np.matmul(jp.transpose(0, 2, 1), jl), plan)
        return u, b_p, w_blocks, v, b_l, None


@dataclass
class Stage1Rows:
    """The stage-1 linearization in the Kronecker form of its pose Jacobian.

    An observation's pose Jacobian is B (x) x^T, with B its 4x3 measurement
    matrix and x its landmark, and its landmark Jacobian is A = B P[:, :3]
    (see ``objective``). So its W block is G^T (x) x, with the 3x3 block
    G^T = B^T A, and its pose gradient is a (x) x, with a = B^T r. With
    B^T B = sum_k w_k C_k over the weights w = (1, m0, m1, |m|^2), a camera's
    U is sum_k C_k (x) M_k over the moments M_k = sum w_k x x^T of its
    observations. The rows keep, per camera-major observation, G^T and the
    left factor [w (x) x, a] of one (19 x 4) moment GEMM per camera, stored
    with the observation axis last; the landmark blocks come from the
    landmark normal equations, not from rows.
    """

    plan: ObservationPlan
    gram_basis: np.ndarray  # (4, 3, 3) the C_k of B^T B
    gt: np.ndarray  # (3, 3, n_obs) G^T = B^T A
    moments_lhs: np.ndarray  # (19, n_obs) rows x, m0 x, m1 x, |m|^2 x, a
    hessian_v: np.ndarray  # (n_l, 3, 3) A^T A
    b_l: np.ndarray  # (n_l, 3)
    v_pinv: tuple[np.ndarray, np.ndarray] | None  # pinv_psd(hessian_v), when known

    def block_sums(self):
        """U and b_p from the per-camera moments, W = G^T (x) x per distinct pair
        (a repeated pair sums its G^T first, since x is shared), V and b_l as given."""
        plan = self.plan
        lhs = self.moments_lhs
        x = lhs[:4]
        n_p = plan.num_cameras
        moments = np.empty((n_p, 19, 4))
        for c in range(n_p):
            sl = slice(plan.camera_ptr[c], plan.camera_ptr[c + 1])
            moments[c] = lhs[:, sl] @ x[:, sl].T
        u = np.einsum("kjJ,ckaA->cjaJA", self.gram_basis,
                      moments[:, :16].reshape(n_p, 4, 4, 4)).reshape(n_p, 12, 12)
        b_p = moments[:, 16:].reshape(n_p, 12)
        gt, x = _pair_sums(self.gt, plan, axis=2), np.take(x, plan.pair_starts, axis=1)
        w_blocks = np.empty((len(plan.pair_starts), 3, 4, 3))
        np.multiply(gt[:, None], x[None, :, None], out=w_blocks.transpose(1, 2, 3, 0))
        return u, b_p, w_blocks.reshape(-1, 12, 3), self.hessian_v, self.b_l, self.v_pinv


def build_stage1_blocks(problem: BaProblem, state: ProjectiveState,
                        config: PoseConfig = PoseConfig(),
                        resolved: LandmarkSolve | None = None) -> Stage1Rows:
    """Linearize the stage-1 objective in Kronecker form (widths 12/3).

    ``resolved``, the landmark re-solve at ``state.cameras``, supplies A^T A,
    A^T c and V^+, which depend on the cameras alone; without it they are
    formed here by ``stage1_landmark_normals``. The landmark gradient is
    b_l = A^T A v + A^T c at the landmarks' free coordinates v, which holds
    for stage-1 landmarks (last coordinate 1).
    """
    eta = config.eta
    basis, offsets = stage1_gram_basis(eta)
    plan = problem.plan
    n = len(plan.rows)
    # per-observation quantities with the observation axis last
    cams = np.take(state.cameras.reshape(-1, 12).T, plan.row_camera, axis=1).reshape(3, 4, n)
    lhs = np.empty((19, n))
    x = lhs[:4]
    np.take(state.landmarks.T, plan.row_landmark, axis=1, out=x)
    weights = stage1_weights(problem.measurements[plan.rows])
    lhs[:16].reshape(4, 4, n)[...] = weights[:, None] * x
    px = np.einsum("ian,an->in", cams, x)
    lhs[16:] = stage1_gram_apply(px, weights, eta) - offsets.T @ weights  # a = B^T (B P x - d)
    if resolved is None:
        v, origin_gradient = stage1_landmark_normals(state.cameras, problem, eta)
        v_pinv = None
    else:
        v, origin_gradient = resolved.hessian, resolved.origin_gradient
        v_pinv = resolved.pinv, resolved.degenerate
    b_l = np.einsum("nij,nj->ni", v, state.landmarks[:, :3]) + origin_gradient
    return Stage1Rows(plan, basis, stage1_gram_apply(cams[:, :3], weights, eta), lhs, v, b_l,
                      v_pinv)


def build_stage2_blocks(problem: BaProblem, state: ProjectiveState) -> JacobianRows:
    """Linearize the stage-2 objective into unprojected rows (widths 12/4).

    Degenerate observations (depth within the guard) must be excluded by the
    caller rejecting the state; here they would poison the step, so we raise.
    """
    plan = problem.plan
    cams, lms = state.cameras[plan.row_camera], state.landmarks[plan.row_landmark]
    meas = problem.measurements[plan.rows]
    jp, jl, valid = stage2_jacobians(cams, lms, meas)
    if not valid.all():
        raise FloatingPointError("degenerate projection while linearizing stage 2")
    return JacobianRows(plan, jp, jl, stage2_residuals(cams, lms, meas)[0])


def _jacobi_damped(blocks: np.ndarray, lam: float) -> np.ndarray:
    """blocks + lam * D^T D with D the clamped square root of each block diagonal."""
    d_sq = np.clip(np.sqrt(np.einsum("nii->ni", blocks)), *DAMPING_CLAMP) ** 2
    out = blocks.copy()
    np.einsum("nii->ni", out)[...] += lam * d_sq
    return out


def block_apply(blocks: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Block-diagonal product: blocks (n, a, b) times a flattened (n * b) vector."""
    n, b = blocks.shape[0], blocks.shape[2]
    return np.einsum("nij,nj->ni", blocks, vec.reshape(n, b)).ravel()


@dataclass
class SchurSystem:
    """Damped block normal equations: the reduced-camera operator of one linearization.

    Constructed from the undamped Hessian blocks; the damped ``u_blocks`` and
    ``v_blocks`` and the landmark-block pseudo-inverses follow from ``lam``
    and ``damping_mode``. In pose-only mode ``v_pinv`` may pass the
    pseudo-inverses and degenerate mask of ``hessian_v`` when already known.
    """

    hessian_u: np.ndarray  # (n_p, d_p, d_p) undamped
    hessian_v: np.ndarray  # (n_l, d_l, d_l) undamped
    w: scipy.sparse.bsr_array  # (n_p d_p, n_l d_l), one (d_p, d_l) block per distinct pair
    wt: scipy.sparse.bsr_array  # W^T, one (d_l, d_p) block per distinct pair
    b_p: np.ndarray  # (n_p, d_p)
    b_l: np.ndarray  # (n_l, d_l)
    lam: float
    damping_mode: str
    u_blocks: np.ndarray = dataclasses.field(init=False)  # damped
    v_blocks: np.ndarray = dataclasses.field(init=False)  # damped only in BOTH mode
    v_inv: np.ndarray = dataclasses.field(init=False)  # pseudo-inverses
    v_degenerate: np.ndarray = dataclasses.field(init=False)  # (n_l,) bool
    v_pinv: dataclasses.InitVar[tuple[np.ndarray, np.ndarray] | None] = None

    def __post_init__(self, v_pinv):
        if self.lam < 0:
            raise ValueError("damping must be non-negative")
        if self.damping_mode not in (POSE_ONLY, BOTH):
            raise ValueError(f"unknown damping mode {self.damping_mode!r}")
        self.u_blocks = _jacobi_damped(self.hessian_u, self.lam)
        if self.damping_mode == BOTH:
            if v_pinv is not None:
                raise ValueError("v_pinv is the pseudo-inverse of the undamped V")
            self.v_blocks = _jacobi_damped(self.hessian_v, self.lam)
        else:
            self.v_blocks = self.hessian_v
        if v_pinv is None:
            v_pinv = pinv_psd(self.v_blocks, V_PINV_TOL)
        self.v_inv, self.v_degenerate = v_pinv
        if self.v_degenerate.any():
            logger.debug("%d landmark blocks are singular at tolerance",
                         int(self.v_degenerate.sum()))

    def redamped(self, lam: float) -> SchurSystem:
        """The same linearization at another damping.

        W, W^T and the gradients are shared; in pose-only mode so are V and
        its pseudo-inverse. The result equals a fresh ``assemble`` bit for bit.
        """
        if self.damping_mode == BOTH:
            return dataclasses.replace(self, lam=lam)
        out = copy.copy(self)
        out.lam = lam
        out.u_blocks = _jacobi_damped(self.hessian_u, lam)
        return out

    @property
    def n_cameras(self) -> int:
        return len(self.u_blocks)

    @property
    def n_landmarks(self) -> int:
        return len(self.v_blocks)

    @property
    def pose_width(self) -> int:
        return self.u_blocks.shape[1]

    @property
    def lm_width(self) -> int:
        return self.v_blocks.shape[1]

    @property
    def pose_dim(self) -> int:
        return self.u_blocks.shape[0] * self.u_blocks.shape[1]

    def coupling(self, x: np.ndarray) -> np.ndarray:
        """W V^+ W^T x for a flattened pose-dimension vector."""
        return self.w @ block_apply(self.v_inv, self.wt @ x)


def assemble(rows: JacobianRows | Stage1Rows, lam: float,
             damping_mode: str = POSE_ONLY) -> SchurSystem:
    """Form damped U/V/W blocks and gradients from linearized rows.

    The rows supply their stage's sums: U = Jp^T Jp, V = Jl^T Jl, one
    W = Jp^T Jl block per distinct (camera, landmark) pair (a repeated pair's
    blocks summed) and b = J^T r, and, for rows linearized from a landmark
    re-solve, V^+, which is used in pose-only mode. Here U gets the damping
    lam * Dp^T Dp with Jacobi Dp (clamped), V the analogous landmark damping
    in ``both`` mode, and W and W^T become canonical block-sparse matrices.
    """
    plan = rows.plan
    u, b_p, w_blocks, v, b_l, v_pinv = rows.block_sums()
    w_indices, w_ptr = plan.row_landmark, plan.camera_ptr
    starts = plan.pair_starts
    if len(starts) < len(w_indices):  # some camera observes a landmark more than once
        w_indices, w_ptr = w_indices[starts], np.searchsorted(starts, w_ptr)
    shape = (plan.num_cameras * u.shape[1], plan.num_landmarks * v.shape[1])
    w = scipy.sparse.bsr_array((w_blocks, w_indices, w_ptr), shape=shape)
    # Transposing keeps W's block order within each landmark: cameras increasing.
    return SchurSystem(u, v, w, w.T, b_p, b_l, lam, damping_mode,
                       v_pinv if damping_mode == POSE_ONLY else None)


# ---------------------------------------------------------------------------
# reduced-system operations


def schur_rhs(system: SchurSystem) -> np.ndarray:
    """Reduced right-hand side -(b_p - W V^{-1} b_l), flattened to pose dimension."""
    return -(system.b_p.ravel() - system.w @ block_apply(system.v_inv, system.b_l))


def apply_schur(system: SchurSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-free product (U - W V^{-1} W^T) x."""
    return block_apply(system.u_blocks, x) - system.coupling(x)


def back_substitute(system: SchurSystem, pose_update: np.ndarray) -> np.ndarray:
    """Landmark updates -V^{-1}(b_l + W^T dx_p); degenerate blocks get zero."""
    upd = -block_apply(system.v_inv, system.b_l.ravel() + system.wt @ pose_update)
    if system.v_degenerate.any():
        upd.reshape(system.n_landmarks, system.lm_width)[system.v_degenerate] = 0.0
        logger.debug("zeroed updates of %d degenerate landmark blocks",
                     int(system.v_degenerate.sum()))
    return upd


def coupling_blocks(system: SchurSystem) -> np.ndarray:
    """The blockwise product Y = W V^+: Y_o = W_o V^+_l(o) for every block o of W.

    Y has W's block structure and block order, so ``W V^+ W^T = Y W^T``.
    """
    w = system.w
    return np.matmul(w.data, system.v_inv[w.indices])


def schur_diag_blocks(system: SchurSystem) -> np.ndarray:
    """Exact block diagonal of the reduced system: U_c minus the sum of Y_o W_o^T
    over camera c's blocks, one GEMM per camera. Repeated (camera, landmark)
    pairs need no care: ``assemble`` summed each pair's blocks into one.

    A single segment sum of the per-block products would hold d_p x d_p
    doubles per observation, and ran about three times slower on 80k
    observations.
    """
    w = system.w
    y = coupling_blocks(system)
    out = system.u_blocks.copy()
    for c in range(system.n_cameras):
        sl = slice(w.indptr[c], w.indptr[c + 1])
        out[c] -= np.tensordot(y[sl], w.data[sl], axes=([0, 2], [0, 2]))
    return out


def _sparse_coupling(system: SchurSystem) -> scipy.sparse.bsr_array:
    """W V^+ W^T as the block-sparse product (Y as BSR) @ W^T."""
    w = system.w
    y = scipy.sparse.bsr_array((coupling_blocks(system), w.indices, w.indptr), shape=w.shape)
    return y @ system.wt


def dense_coupling(system: SchurSystem) -> np.ndarray:
    """W V^+ W^T as a dense array.

    On densely observed graphs it is a sum of GEMMs over chunks of landmarks:
    each chunk scatters its blocks of W^T into a dense slab with pose_dim
    columns and at most pose_dim rows, multiplies that by the chunk's V^+
    blocks into Y^T = V^+ W^T, and adds Y_chunk W_chunk^T into the result in
    place, so no slab is larger than the result. W^T holds one block per
    distinct (camera, landmark) pair, so the scatter sets each slab entry at
    most once. The GEMMs cost n_cameras^2 multiply-adds per landmark against
    track_length^2 for the block-sparse product (Y as BSR) @ W^T, which is
    taken instead on graphs too sparse for GEMM speed to make up the
    difference.
    """
    n_p, n_l = system.n_cameras, system.n_landmarks
    d_p, d_l, dim = system.pose_width, system.lm_width, system.pose_dim
    wt = system.wt
    ptr, cams, wt_blocks = wt.indptr, wt.indices, wt.data
    tracks = np.diff(ptr)
    if n_p * n_p * n_l > _GEMM_SPEEDUP * np.dot(tracks, tracks):
        return _sparse_coupling(system).toarray()
    block_lm = np.repeat(np.arange(n_l), tracks)
    chunk = max(1, dim // d_l)
    # (Y W^T)^T, Fortran-ordered so that each GEMM adds into it in place
    out_t = np.zeros((dim, dim), order="F")
    for first in range(0, n_l, chunk):
        last = min(first + chunk, n_l)
        lo, hi = ptr[first], ptr[last]
        if lo == hi:
            continue
        wt_slab = np.zeros((last - first, d_l, n_p, d_p))
        wt_slab[block_lm[lo:hi] - first, :, cams[lo:hi], :] = wt_blocks[lo:hi]
        wt_2d = wt_slab.reshape(-1, dim)
        yt_2d = np.matmul(system.v_inv[first:last], wt_2d.reshape(last - first, d_l, dim))
        scipy.linalg.blas.dgemm(1.0, wt_2d.T, yt_2d.reshape(-1, dim).T, beta=1.0, c=out_t,
                                trans_b=True, overwrite_c=True)
    return out_t.T


def schur_matrix(system: SchurSystem) -> scipy.sparse.bsr_array:
    """The reduced matrix U - (W V^+) W^T as one block-sparse matrix (sparse direct solves)."""
    n, dim = system.n_cameras, system.pose_dim
    u = scipy.sparse.bsr_array((system.u_blocks, np.arange(n), np.arange(n + 1)),
                               shape=(dim, dim))
    return u - _sparse_coupling(system)


def dense_schur(system: SchurSystem) -> np.ndarray:
    """The reduced matrix U - W V^+ W^T as a dense array (direct baseline and small oracles)."""
    if system.pose_dim ** 2 > 64_000_000:
        raise ValueError(f"dense Schur matrix of dimension {system.pose_dim} is too large")
    s = dense_coupling(system)
    np.negative(s, out=s)
    n, d = system.n_cameras, system.pose_width
    cams = np.arange(n)
    s.reshape(n, d, n, d)[cams, :, cams, :] += system.u_blocks
    return s
