"""Block-sparse damped normal equations and their Schur reduction.

Both stages linearize the same way, once per distinct (camera, landmark)
pair of the problem's observation plan (``BaProblem.plan``), in its
camera-major pair order. An observation's residual depends on its camera P
only through u = P x, so its pose Jacobian has the Kronecker form
D (x) x^T, with D = dr/du: the 4x3 measurement matrix B in stage 1, the 2x3
derivative of the perspective division in stage 2. D^T D is a weighted sum
sum_k w_k C_k over the four 3x3 bases of ``objective.stage1_gram_basis``
(stage 2 at eta = 0). So a stage supplies per pair only its weights, a = D^T r
and the 3 x d_l block G^T = D^T Jl, each summed over the pair's observations
(all linear in the measurement weights, ``BaProblem.pair_weights``), and one
helper forms U and b_p from one (19 x 4) moment GEMM per camera; no
per-observation pose Jacobian is formed. V and b_l come from the landmark
normal equations of ``objective`` (stage 1) or, with landmark Jacobian D P,
as P^T G^T and P^T a (stage 2).

No W = Jp^T Jl or W^T matrix is formed either. The W block of a distinct
(camera, landmark) pair is G^T (x) x, so the sums (``BlockSums``) keep W as
its Kronecker factors (``CouplingFactors``): per pair, G^T and x; stage 2's
tangent projection multiplies G^T by the landmark basis and keeps the camera
bases, which are applied to vectors. Two CSR matrices with the plan's pair
indices wrap the factors without copying them and give the products W v and
W^T t of the reduced right-hand side, the matrix-free coupling round trip and
back-substitution.
``assemble`` damps the sums into the reduced-camera operator, a
``SchurSystem`` that extends them: the same fields, plus the damping, the
damped blocks and the landmark pseudo-inverses.

The explicit paths read W's blocks from the factors through one function,
``CouplingFactors.blocks``. The dense reduced matrix U - W V^+ W^T is summed
with dense GEMMs over chunks of landmarks, in slabs no larger than the
result, on densely observed graphs; on sparse graphs, where the GEMMs would
mostly multiply zeros, and in the sparse direct solve above
``DENSE_SCHUR_LIMIT``, W V^+ W^T is a block-sparse product. The pose Hessian
blocks are damped with Jacobi scaling; the landmark blocks are damped only
in ``both`` mode (joint / tangent-space optimization), never in
``pose_only`` mode (eliminated-landmark optimization). There the damping
reaches U alone, so everything formed from W and V^+ is the same for every
damping of one linearization: the pseudo-inverse of the undamped V, the
explicit coupling W V^+ W^T (dense for ``dense_schur``, block-sparse for
``schur_matrix``) and the reduced right-hand side (``schur_rhs``). Each is
formed once, on first use (``SchurSystem.lambda_free``), into the sums' own
cache (``BlockSums.products``), which every pose-only system assembled from
them shares, so each adds only its damped U. A stage-1 landmark re-solve
seeds V^+ into that cache.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import logging
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np
import scipy.linalg.blas
import scipy.sparse

from .bal_io import BaProblem, ObservationPlan, ProjectiveState
from .objective import (
    ETA,
    Z_EPSILON,
    LandmarkSolve,
    pinv_psd,
    stage1_gram_apply,
    stage1_gram_basis,
    stage1_landmark_normals,
    stage1_weights,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

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

# The largest pose dimension whose reduced matrix is formed densely:
# ``dense_schur`` refuses larger systems, and the direct solver factors them
# as a sparse matrix instead.
DENSE_SCHUR_LIMIT = 6000


def _holding(template: scipy.sparse.sparray, data: np.ndarray) -> scipy.sparse.sparray:
    """A shallow copy of one of the plan's template matrices that holds ``data``.

    It shares the template's read-only indices and skips a constructor's
    format checks, which took 0.1-0.15 ms per matrix between other work on a
    2-vCPU x86-64 host, more than a product with a 1000-pair matrix.
    """
    out = copy.copy(template)
    out.data = data
    return out


@dataclass(frozen=True, eq=False)
class CouplingFactors:
    """The coupling W = Jp^T Jl of one linearization, kept as its Kronecker factors.

    The block of the plan's distinct (camera c, landmark l) pair p is
    B_c^T (G^T_p (x) x_p): the landmark-side factor G^T_p (3 x d_l), the
    landmark x_p (4) and, in stage 2, the camera's tangent basis B_c
    (12 x d_p; without bases B_c is the identity and d_p = 12). A pose
    vector t maps to 3x4 blocks T_c = B_c t_c, so W^T t sums G_p T_c x_p
    over each landmark's pairs, and W v adds (G^T_p v_l) x_p^T into each
    camera's block before B_c^T. Both are products with two CSR matrices
    that wrap the factors without copying them: X, one row per pair holding
    x_p at its camera's four columns, and Psi, three rows per pair holding
    G^T_p at its landmark's d_l columns. Then W^T t = Psi^T (X T) and
    W v = X^T (Psi v), with T the stacked T_c^T; the transposes are CSC
    views. The matrices of each product are made on its first use, from the
    plan's templates (``ObservationPlan.factor_matrices``), and shared by
    every system of the linearization.
    """

    plan: ObservationPlan
    gt: np.ndarray  # (n_pairs, 3, d_l), C-contiguous
    x: np.ndarray  # (n_pairs, 4), C-contiguous
    camera_bases: np.ndarray | None = None  # (n_p, 12, d_p)

    @functools.cached_property
    def _forward(self) -> tuple[scipy.sparse.csr_array, scipy.sparse.csc_array]:
        """Psi and X^T, the matrices of W v."""
        _, psi, xi_t, _ = self.plan.factor_matrices(self.gt.shape[2])
        return _holding(psi, self.gt.reshape(-1)), _holding(xi_t, self.x.reshape(-1))

    @functools.cached_property
    def _adjoint(self) -> tuple[scipy.sparse.csr_array, scipy.sparse.csc_array]:
        """X and Psi^T, the matrices of W^T t."""
        xi, _, _, psi_t = self.plan.factor_matrices(self.gt.shape[2])
        return _holding(xi, self.x.reshape(-1)), _holding(psi_t, self.gt.reshape(-1))

    @functools.cached_property
    def _bases_ai(self) -> np.ndarray:
        """The camera bases with their rows reordered from (i, a) to (a, i), the
        order in which X reads a camera's 3x4 block."""
        n_p, _, d_p = self.camera_bases.shape
        return np.ascontiguousarray(
            self.camera_bases.reshape(n_p, 3, 4, d_p).transpose(0, 2, 1, 3)).reshape(n_p, 12, d_p)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """W v for a flattened landmark-dimension vector, flattened to pose dimension."""
        psi, xi_t = self._forward
        n_p = self.plan.num_cameras
        out = xi_t @ (psi @ v.reshape(-1)).reshape(-1, 3)  # rows (c, a), columns i
        if self.camera_bases is None:
            return out.reshape(n_p, 4, 3).transpose(0, 2, 1).reshape(-1)
        return np.matmul(out.reshape(n_p, 1, 12), self._bases_ai).reshape(-1)

    def rmatvec(self, t: np.ndarray) -> np.ndarray:
        """W^T t for a flattened pose-dimension vector, flattened to landmark dimension."""
        xi, psi_t = self._adjoint
        n_p = self.plan.num_cameras
        if self.camera_bases is None:
            t = t.reshape(n_p, 3, 4).transpose(0, 2, 1)
        else:
            t = np.matmul(self._bases_ai, t.reshape(n_p, -1, 1))
        return psi_t @ (xi @ t.reshape(4 * n_p, 3)).reshape(-1)

    def blocks(self, pairs: np.ndarray | None = None) -> np.ndarray:
        """W's (d_p, d_l) blocks of ``pairs`` (by default all, in the plan's pair order)."""
        gt, x = self.gt, self.x
        if pairs is not None:
            gt, x = np.take(gt, pairs, axis=0), np.take(x, pairs, axis=0)
        n, _, d_l = gt.shape
        w = np.empty((d_l, 3, 4, n))  # pairs last, so that one product runs over all of them
        np.multiply(gt.transpose(2, 1, 0)[:, :, None], x.T[None, None], out=w)
        w = w.reshape(d_l, 12, n).transpose(2, 1, 0)
        if self.camera_bases is None:
            return w
        cams = self.plan.pair_camera if pairs is None else self.plan.pair_camera[pairs]
        return np.matmul(self.camera_bases[cams].transpose(0, 2, 1), w)


@dataclass
class BlockSums:
    """The undamped sums of one linearization: U = Jp^T Jp and b_p = Jp^T r per
    camera, the factors of W = Jp^T Jl, V = Jl^T Jl and b_l = Jl^T r per
    landmark, and the cache of the products that no damping of U changes.
    """

    u: np.ndarray  # (n_p, d_p, d_p)
    b_p: np.ndarray  # (n_p, d_p)
    factors: CouplingFactors
    v: np.ndarray  # (n_l, d_l, d_l)
    b_l: np.ndarray  # (n_l, d_l)
    # the products of ``SchurSystem.lambda_free`` by the function that forms
    # each, shared by every pose-only system assembled from these sums
    products: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)


def _kronecker_sums(plan: ObservationPlan, basis: np.ndarray, weights: np.ndarray,
                    x: np.ndarray, a: np.ndarray, gt: np.ndarray, v: np.ndarray,
                    b_l: np.ndarray) -> BlockSums:
    """Block sums of a pose Jacobian in the Kronecker form D (x) x^T.

    Per distinct pair, in the plan's pair order with the pair axis last, each
    summed over the pair's observations: the weights w (4, n) of
    D^T D = sum_k w_k C_k over ``basis`` (4, 3, 3), a = D^T r (3, n) and
    G^T = D^T Jl (3, d_l, n); and the pair's landmark x (4, n). A camera's U
    is sum_k C_k (x) M_k over the moments M_k = sum w_k x x^T of its pairs
    and its b_p is sum a (x) x, both from one (19 x 4) moment GEMM per
    camera. W is kept as its factors G^T and x.
    """
    n_p, n = plan.num_cameras, x.shape[1]
    lhs = np.empty((19, n))  # rows w_k x, then a
    lhs[:16].reshape(4, 4, n)[...] = weights[:, None] * x
    lhs[16:] = a
    moments = np.empty((n_p, 19, 4))
    ptr = plan.pair_camera_ptr
    for c in range(n_p):
        sl = slice(ptr[c], ptr[c + 1])
        moments[c] = lhs[:, sl] @ x[:, sl].T
    u = np.einsum("kjJ,ckaA->cjaJA", basis,
                  moments[:, :16].reshape(n_p, 4, 4, 4)).reshape(n_p, 12, 12)
    b_p = moments[:, 16:].reshape(n_p, 12)
    factors = CouplingFactors(plan, np.ascontiguousarray(gt.transpose(2, 0, 1)),
                              np.ascontiguousarray(x.T))
    return BlockSums(u, b_p, factors, v, b_l)


def _gather_pairs(problem: BaProblem, state: ProjectiveState) -> tuple[np.ndarray, np.ndarray]:
    """Cameras (3, 4, n) and landmarks (4, n) of the plan's distinct pairs, pair axis last."""
    plan = problem.plan
    n = len(plan.pair_camera)
    cams = np.take(state.cameras.reshape(-1, 12).T, plan.pair_camera, axis=1).reshape(3, 4, n)
    return cams, np.take(state.landmarks.T, plan.pair_landmark, axis=1)


def build_stage1_blocks(problem: BaProblem, state: ProjectiveState,
                        eta: float = ETA,
                        resolved: LandmarkSolve | None = None) -> BlockSums:
    """Linearize the stage-1 objective (widths 12/3).

    The pose Jacobian is B (x) x^T with B the 4x3 measurement matrix, whose
    B^T B has the weights (1, m0, m1, |m|^2); the landmark Jacobian is
    A = B P[:, :3], so G^T = B^T B P[:, :3] and a = B^T (B P x - d). All
    three are linear in the weights, so a pair's sums come from its summed
    weights (``problem.pair_weights``, computed once per problem).
    ``resolved``, the landmark re-solve at ``state.cameras``, supplies A^T A
    and A^T c, which depend on the cameras alone, and seeds its V^+ into the
    sums' cache; without it A^T A and A^T c are formed here by
    ``stage1_landmark_normals`` and V^+ on first use. The landmark gradient is
    b_l = A^T A v + A^T c at the landmarks' free coordinates v, which holds
    for stage-1 landmarks (last coordinate 1).
    """
    basis, offsets = stage1_gram_basis(eta)
    cams, x = _gather_pairs(problem, state)
    weights = problem.pair_weights
    px = np.einsum("ian,an->in", cams, x)
    a = stage1_gram_apply(px, weights, eta) - offsets.T @ weights
    if resolved is None:
        v, origin_gradient = stage1_landmark_normals(state.cameras, problem, eta)
    else:
        v, origin_gradient = resolved.hessian, resolved.origin_gradient
    b_l = np.einsum("nij,nj->ni", v, state.landmarks[:, :3]) + origin_gradient
    sums = _kronecker_sums(problem.plan, basis, weights, x, a,
                           stage1_gram_apply(cams[:, :3], weights, eta), v, b_l)
    if resolved is not None:
        sums.products[_v_pinv] = resolved.pinv, resolved.degenerate
    return sums


def build_stage2_blocks(problem: BaProblem, state: ProjectiveState) -> BlockSums:
    """Linearize the stage-2 objective in the full parameters (widths 12/4).

    With u = P x, p = u[:2] / u[2] and D = dp/du = [I | -p] / u[2], the pose
    Jacobian is D (x) x^T, D^T D has the weights (1, p0, p1, |p|^2) / u[2]^2
    over the stage-1 basis at eta = 0, and the landmark Jacobian is D P, so
    G^T = D^T D P, a = D^T r, V = P^T G^T and b_l = P^T a per observation.
    D does not depend on the measurement, so a pair of k observations has
    k times those weights and G^T, and a[:2] = (k p - sum m) / u[2].
    ``riemannian.project_blocks`` projects the sums onto the tangent spaces.

    Degenerate observations (depth within the guard) must be excluded by the
    caller rejecting the state; here they would poison the step, so we raise.
    """
    plan = problem.plan
    cams, x = _gather_pairs(problem, state)
    u = np.einsum("ian,an->in", cams, x)
    if not (np.abs(u[2]) > Z_EPSILON).all():
        raise FloatingPointError("degenerate projection while linearizing stage 2")
    inv_z = 1.0 / u[2]
    p = u[:2]
    p *= inv_z
    weights = stage1_weights(p.T)  # z^2 D^T D = sum_k w_k C_k
    pair_weights = problem.pair_weights
    weights *= pair_weights[0]
    inv_z2 = inv_z * inv_z
    gt = stage1_gram_apply(cams, weights, 0.0)
    gt *= inv_z2
    a = np.empty((3, len(inv_z)))
    a[:2] = (weights[1:3] - pair_weights[1:3]) * inv_z
    weights *= inv_z2
    a[2] = -np.einsum("rn,rn->n", p, a[:2])
    # (D P)^T (D P) = P^T G^T and (D P)^T r = P^T a
    v = plan.landmark_sums(np.einsum("ijn,ikn->njk", cams, gt))
    b_l = plan.landmark_sums(np.einsum("ijn,in->nj", cams, a))
    return _kronecker_sums(plan, stage1_gram_basis(0.0)[0], weights, x, a, gt, v, b_l)


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
class SchurSystem(BlockSums):
    """Damped block normal equations: the reduced-camera operator of one linearization.

    It extends the undamped sums with ``lam`` and ``damping_mode``; the damped
    ``u_blocks`` and ``v_blocks`` and the landmark-block pseudo-inverses
    follow from them. Built by ``assemble`` alone, which decides whose cache
    ``products`` is: in pose-only mode V is not damped, and it is the sums'
    own, so V^+ and the products of ``lambda_free`` are shared by every
    system of the sums; both mode damps V and gives each system a cache of
    its own.
    """

    _: dataclasses.KW_ONLY
    lam: float
    damping_mode: str
    u_blocks: np.ndarray = dataclasses.field(init=False)  # damped
    v_blocks: np.ndarray = dataclasses.field(init=False)  # damped only in BOTH mode
    v_inv: np.ndarray = dataclasses.field(init=False)  # pseudo-inverses
    v_degenerate: np.ndarray = dataclasses.field(init=False)  # (n_l,) bool

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("damping must be non-negative")
        if self.damping_mode not in (POSE_ONLY, BOTH):
            raise ValueError(f"unknown damping mode {self.damping_mode!r}")
        self.u_blocks = _jacobi_damped(self.u, self.lam)
        self.v_blocks = _jacobi_damped(self.v, self.lam) if self.damping_mode == BOTH else self.v
        self.v_inv, self.v_degenerate = self.lambda_free(_v_pinv)
        if self.v_degenerate.any():
            logger.debug("%d landmark blocks are singular at tolerance",
                         int(self.v_degenerate.sum()))

    def lambda_free(self, product: Callable[[SchurSystem], T]) -> T:
        """``product(self)``, for a product of W, V^+ and the sums that does not read U.

        It is formed on the first call into ``products`` and returned to every
        later call (arrays read-only). In pose-only mode it does not depend on
        the damping, and ``products`` is the sums' cache, so every system
        assembled from the same sums shares it; in both mode V^+ is damped,
        and each system forms its own.
        """
        if product not in self.products:
            out = product(self)
            if isinstance(out, np.ndarray):
                out.flags.writeable = False
            self.products[product] = out
        return self.products[product]

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
        return self.factors.matvec(block_apply(self.v_inv, self.factors.rmatvec(x)))


def assemble(sums: BlockSums, lam: float, damping_mode: str = POSE_ONLY) -> SchurSystem:
    """Damp one linearization's block sums into the system that extends them.

    U gets the damping lam * Dp^T Dp with Jacobi Dp (clamped), V the
    analogous landmark damping in ``both`` mode; W stays as its factors.
    A pose-only system shares the sums' cache of ``SchurSystem.lambda_free``
    products, so it forms only its damped U; a both-mode system gets a new
    cache, which never reaches the sums.
    """
    products = sums.products if damping_mode == POSE_ONLY else {}
    return SchurSystem(sums.u, sums.b_p, sums.factors, sums.v, sums.b_l, products,
                       lam=lam, damping_mode=damping_mode)


# ---------------------------------------------------------------------------
# reduced-system operations


def _v_pinv(system: SchurSystem) -> tuple[np.ndarray, np.ndarray]:
    """The pseudo-inverses of the landmark blocks and their degenerate mask."""
    return pinv_psd(system.v_blocks)


def schur_rhs(system: SchurSystem) -> np.ndarray:
    """Reduced right-hand side -(b_p - W V^{-1} b_l), flattened to pose dimension.

    Formed once per pose-only linearization (``SchurSystem.lambda_free``);
    the shared array is read-only.
    """
    return system.lambda_free(_schur_rhs)


def _schur_rhs(system: SchurSystem) -> np.ndarray:
    return -(system.b_p.ravel() - system.factors.matvec(block_apply(system.v_inv, system.b_l)))


def apply_schur(system: SchurSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-free product (U - W V^{-1} W^T) x."""
    return block_apply(system.u_blocks, x) - system.coupling(x)


def back_substitute(system: SchurSystem, pose_update: np.ndarray) -> np.ndarray:
    """Landmark updates -V^{-1}(b_l + W^T dx_p); degenerate blocks get zero."""
    upd = -block_apply(system.v_inv, system.b_l.ravel() + system.factors.rmatvec(pose_update))
    if system.v_degenerate.any():
        upd.reshape(system.n_landmarks, system.lm_width)[system.v_degenerate] = 0.0
        logger.debug("zeroed updates of %d degenerate landmark blocks",
                     int(system.v_degenerate.sum()))
    return upd


def _sparse_coupling(system: SchurSystem) -> scipy.sparse.bsr_array:
    """W V^+ W^T as the block-sparse product (W V^+ as BSR) @ W^T, both from W's blocks."""
    plan = system.factors.plan
    w = system.factors.blocks()
    shape = (system.pose_dim, system.n_landmarks * system.lm_width)
    y = scipy.sparse.bsr_array((np.matmul(w, system.v_inv[plan.pair_landmark]),
                                plan.pair_landmark, plan.pair_camera_ptr), shape=shape)
    order = plan.landmark_pairs
    wt = scipy.sparse.bsr_array((w[order].transpose(0, 2, 1), plan.pair_camera[order],
                                 plan.landmark_pair_ptr), shape=shape[::-1])
    return y @ wt


def dense_coupling(system: SchurSystem) -> np.ndarray:
    """W V^+ W^T as a dense array.

    On densely observed graphs it is a sum of GEMMs over chunks of landmarks:
    each chunk scatters the transposed W blocks of its pairs, formed from the
    factors in landmark-major pair order, into a dense slab with pose_dim
    columns and at most pose_dim rows, multiplies that by the chunk's V^+
    blocks into Y^T = V^+ W^T, and adds Y_chunk W_chunk^T into the result in
    place, so no slab is larger than the result. W has one block per distinct
    (camera, landmark) pair, so the scatter sets each slab entry at most once.
    The GEMMs cost n_cameras^2 multiply-adds per landmark against
    track_length^2 for the block-sparse product of ``_sparse_coupling``,
    which is taken instead on graphs too sparse for GEMM speed to make up the
    difference.
    """
    n_p, n_l = system.n_cameras, system.n_landmarks
    d_p, d_l, dim = system.pose_width, system.lm_width, system.pose_dim
    plan = system.factors.plan
    ptr, order = plan.landmark_pair_ptr, plan.landmark_pairs
    tracks = np.diff(ptr)
    if n_p * n_p * n_l > _GEMM_SPEEDUP * np.dot(tracks, tracks):
        return _sparse_coupling(system).toarray()
    chunk = max(1, dim // d_l)
    # (Y W^T)^T, Fortran-ordered so that each GEMM adds into it in place
    out_t = np.zeros((dim, dim), order="F")
    for first in range(0, n_l, chunk):
        last = min(first + chunk, n_l)
        lo, hi = ptr[first], ptr[last]
        if lo == hi:
            continue
        pairs = order[lo:hi]
        wt_slab = np.zeros((last - first, d_l, n_p, d_p))
        wt_slab[plan.pair_landmark[pairs] - first, :, plan.pair_camera[pairs], :] = \
            system.factors.blocks(pairs).transpose(0, 2, 1)
        wt_2d = wt_slab.reshape(-1, dim)
        yt_2d = np.matmul(system.v_inv[first:last], wt_2d.reshape(last - first, d_l, dim))
        scipy.linalg.blas.dgemm(1.0, wt_2d.T, yt_2d.reshape(-1, dim).T, beta=1.0, c=out_t,
                                trans_b=True, overwrite_c=True)
    return out_t.T


def schur_matrix(system: SchurSystem) -> scipy.sparse.bsr_array:
    """The reduced matrix U - (W V^+) W^T as one block-sparse matrix (sparse direct solves).

    The block-sparse coupling is formed once per pose-only linearization
    (``SchurSystem.lambda_free``); each call returns a new matrix.
    """
    n, dim = system.n_cameras, system.pose_dim
    u = scipy.sparse.bsr_array((system.u_blocks, np.arange(n), np.arange(n + 1)),
                               shape=(dim, dim))
    return u - system.lambda_free(_sparse_coupling)


def dense_schur(system: SchurSystem) -> np.ndarray:
    """The reduced matrix U - W V^+ W^T as a dense array (direct baseline and small oracles).

    The dense coupling is formed once per pose-only linearization
    (``SchurSystem.lambda_free``). Each call returns a new Fortran-ordered
    array, which a caller may factor in place.
    """
    if system.pose_dim > DENSE_SCHUR_LIMIT:
        raise ValueError(f"dense Schur matrix of dimension {system.pose_dim} is too large")
    s = np.negative(system.lambda_free(dense_coupling), order="F")
    n, d = system.n_cameras, system.pose_width
    cams = np.arange(n)
    # s.T is C-ordered, so its blocks are views; its diagonal blocks are U^T
    s.T.reshape(n, d, n, d)[cams, :, cams, :] += system.u_blocks.transpose(0, 2, 1)
    return s
