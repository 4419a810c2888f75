"""Block-sparse damped normal equations and their Schur reduction.

Both stages linearize the same way, once per distinct (camera, landmark)
pair of the problem's observation plan (``BaProblem.plan``), in its
camera-major pair order. An observation's residual depends on its camera P
only through u = P x, so its pose Jacobian has the Kronecker form
D (x) x^T, with D = dr/du: the 4x3 measurement matrix B in stage 1, the 2x3
derivative of the perspective division in stage 2. D^T D is a weighted sum
sum_k w_k C_k over the four 3x3 bases of ``objective.stage1_gram_basis``
(stage 2 at eta = 0). So a stage supplies per pair only its weights, a = D^T r
and the 3x3 block G^T = D^T Jl, each summed over the pair's observations
(all linear in the measurement weights, ``BaProblem.pair_weights``), and one
helper forms U and b_p from one (19 x 4) moment GEMM per camera; no
per-observation pose Jacobian is formed. V and b_l come from the landmark
normal equations of ``objective`` (stage 1) or, with landmark Jacobian D P,
as P^T G^T and P^T a (stage 2). Stage 2 keeps G^T only in the landmarks'
tangent spaces, multiplied by their 4x3 bases in the chunk that forms it, so
G^T, like V once ``riemannian.project_blocks`` projects it, is 3x3 in both.

The helper takes the pairs in chunks of whole cameras, in camera order, of
at most ``objective.CHUNK_PAIRS`` pairs (one camera with more is a chunk of
its own), so every per-pair temporary holds one chunk, and only the sums
span the problem. The sums keep the bits of one pass over all pairs: each
camera's moment GEMM reads the same operands, laid out alike; the per-pair
contractions sum in the order ``np.einsum`` takes over many pairs
(``_sum_of_products``); and each landmark adds its pairs' V and b_l in
camera order, from zero.

No W = Jp^T Jl or W^T matrix is formed either. The W block of a distinct
(camera, landmark) pair is G^T (x) x, so the sums (``BlockSums``) keep W as
its Kronecker factors (``CouplingFactors``): per pair, G^T and x, written
chunk by chunk into the pair-first arrays they are kept in; stage 2 keeps
the camera tangent bases with them, which are applied to vectors. Two CSR
matrices with the plan's pair indices wrap the factors without copying them
and give the products W v and W^T t of the reduced right-hand side, the
matrix-free coupling round trip and back-substitution.
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

from . import objective
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
    B_c^T (G^T_p (x) x_p): the landmark-side factor G^T_p (3x3), the
    landmark x_p (4) and, in stage 2, the camera's tangent basis B_c
    (12 x d_p; without bases B_c is the identity and d_p = 12). A pose
    vector t maps to 3x4 blocks T_c = B_c t_c, so W^T t sums G_p T_c x_p
    over each landmark's pairs, and W v adds (G^T_p v_l) x_p^T into each
    camera's block before B_c^T. Both are products with two CSR matrices
    that wrap the factors without copying them: X, one row per pair holding
    x_p at its camera's four columns, and Psi, three rows per pair holding
    G^T_p at its landmark's three columns. Then W^T t = Psi^T (X T) and
    W v = X^T (Psi v), with T the stacked T_c^T; the transposes are CSC
    views. The matrices of each product are made on its first use, from the
    plan's templates (``ObservationPlan.factor_matrices``), and shared by
    every system of the linearization.
    """

    plan: ObservationPlan
    gt: np.ndarray  # (n_pairs, 3, 3), C-contiguous
    x: np.ndarray  # (n_pairs, 4), C-contiguous
    camera_bases: np.ndarray | None = None  # (n_p, 12, d_p)

    @functools.cached_property
    def _forward(self) -> tuple[scipy.sparse.csr_array, scipy.sparse.csc_array]:
        """Psi and X^T, the matrices of W v."""
        _, psi, xi_t, _ = self.plan.factor_matrices
        return _holding(psi, self.gt.reshape(-1)), _holding(xi_t, self.x.reshape(-1))

    @functools.cached_property
    def _adjoint(self) -> tuple[scipy.sparse.csr_array, scipy.sparse.csc_array]:
        """X and Psi^T, the matrices of W^T t."""
        xi, _, _, psi_t = self.plan.factor_matrices
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


def _sum_of_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[k] * b[k] over the leading axis, pair axis last, added in turn to zeros.

    ``np.einsum`` sums so when the pair axis is longer than one; for a single
    pair it takes a vectorized reduction that rounds differently, so that
    case is summed by hand, and every chunking of the pairs sums alike.
    """
    if a.shape[-1] > 1:
        return np.einsum("k...,k...->...", a, b)
    out = np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for a_k, b_k in zip(a, b):
        out += a_k * b_k
    return out


def _camera_chunks(plan: ObservationPlan) -> list[int]:
    """The camera boundaries of the chunks that a linearization takes in turn.

    Chunk k holds the whole cameras ``bounds[k]:bounds[k + 1]``, and so the
    pairs ``pair_camera_ptr[bounds[k]]:pair_camera_ptr[bounds[k + 1]]``: as
    many cameras, in camera order, as keep it within
    ``objective.CHUNK_PAIRS`` pairs, or one camera with more pairs than that.
    """
    ptr, bounds = plan.pair_camera_ptr, [0]
    while bounds[-1] < plan.num_cameras:
        first = bounds[-1]
        last = int(np.searchsorted(ptr, ptr[first] + objective.CHUNK_PAIRS, side="right")) - 1
        bounds.append(max(last, first + 1))
    return bounds


PairTerms = Callable[[slice, np.ndarray, np.ndarray, np.ndarray],
                     tuple[np.ndarray, np.ndarray, np.ndarray | None]]


def _kronecker_sums(problem: BaProblem, state: ProjectiveState, basis: np.ndarray,
                    pair_terms: PairTerms, landmark_sums: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, CouplingFactors]:
    """U, b_p and the coupling factors of a pose Jacobian in the Kronecker form D (x) x^T.

    The plan's pairs are taken in chunks of whole cameras, in camera order
    (``_camera_chunks``), so every per-pair temporary holds one chunk of at
    most ``objective.CHUNK_PAIRS`` pairs. ``pair_terms(pairs, cams, x, gt)``
    gets a chunk's slice of the pair order, its cameras (3, 4, m), a gathered
    copy that it may overwrite, and its landmarks x (4, m), pair axis last.
    It writes each pair's G^T = D^T Jl (3 x 3) into ``gt``, the
    chunk's rows of the factor, and returns the weights w (4, m) of
    D^T D = sum_k w_k C_k over ``basis`` (4, 3, 3), a = D^T r (3, m) and
    per-pair values to add into their landmarks' rows of ``landmark_sums``
    (None without them), all summed over each pair's observations. Those
    values are added a camera at a time, so each landmark sums its pairs in
    camera order from zero, whatever the chunking. The chunk's landmarks go
    into the factor x as they are gathered.

    A camera's U is sum_k C_k (x) M_k over the moments M_k = sum w_k x x^T of
    its pairs and its b_p is sum a (x) x, both from one (19 x 4) moment GEMM
    per camera, on operands laid out as they would be over the whole
    problem, so the sums are the same bits for every chunking.
    """
    plan = problem.plan
    n_p, ptr = plan.num_cameras, plan.pair_camera_ptr
    n_pairs = len(plan.pair_camera)
    gt = np.empty((n_pairs, 3, 3))
    x = np.empty((n_pairs, 4))
    moments = np.zeros((n_p, 19, 4))  # a camera without pairs has zero moments
    cameras, landmarks = state.cameras.reshape(-1, 12).T, state.landmarks.T
    bounds = _camera_chunks(plan)
    for first, last in zip(bounds[:-1], bounds[1:]):
        lo, hi = ptr[first], ptr[last]
        if lo == hi:
            continue
        pairs = slice(lo, hi)
        cams = np.take(cameras, plan.pair_camera[pairs], axis=1).reshape(3, 4, hi - lo)
        x_chunk = np.take(landmarks, plan.pair_landmark[pairs], axis=1)
        x[pairs] = x_chunk.T
        weights, a, landmark_values = pair_terms(pairs, cams, x_chunk, gt[pairs])
        if landmark_values is not None:
            # added and freed before the moments' operands are formed, to
            # lower the chunk's peak; a camera sees each landmark once
            for c in range(first, last):
                landmark_sums[plan.pair_landmark[ptr[c]:ptr[c + 1]]] += (
                    landmark_values[ptr[c] - lo:ptr[c + 1] - lo])
            del landmark_values
        lhs = np.empty((19, hi - lo))  # rows w_k x, then a
        np.multiply(weights[:, None], x_chunk, out=lhs[:16].reshape(4, 4, hi - lo))
        lhs[16:] = a
        for c in range(first, last):
            sl = slice(ptr[c] - lo, ptr[c + 1] - lo)
            moments[c] = lhs[:, sl] @ x_chunk[:, sl].T
    u = np.einsum("kjJ,ckaA->cjaJA", basis,
                  moments[:, :16].reshape(n_p, 4, 4, 4)).reshape(n_p, 12, 12)
    return u, moments[:, 16:].reshape(n_p, 12), CouplingFactors(plan, gt, x)


def build_stage1_blocks(problem: BaProblem, state: ProjectiveState,
                        eta: float = ETA,
                        resolved: LandmarkSolve | None = None) -> BlockSums:
    """Linearize the stage-1 objective (widths 12/3).

    The pose Jacobian is B (x) x^T with B the 4x3 measurement matrix, whose
    B^T B has the weights (1, m0, m1, |m|^2); the landmark Jacobian is
    A = B P[:, :3], so G^T = B^T B P[:, :3] and a = B^T (B P x - d). All
    three are linear in the weights, so a pair's sums come from its summed
    weights (``problem.pair_weights``, computed once per problem), a chunk
    of cameras at a time (``_kronecker_sums``).
    ``resolved``, the landmark re-solve at ``state.cameras``, supplies A^T A
    and A^T c, which depend on the cameras alone, and seeds its V^+ into the
    sums' cache; without it A^T A and A^T c are formed here by
    ``stage1_landmark_normals`` and V^+ on first use. The landmark gradient is
    b_l = A^T A v + A^T c at the landmarks' free coordinates v, which holds
    for stage-1 landmarks (last coordinate 1).
    """
    basis, offsets = stage1_gram_basis(eta)

    def pair_terms(pairs, cams, x, gt_out):
        weights = problem.pair_weights[:, pairs]
        # B^T B applied to P[:, :3] and, in place of the last column, to P x
        cams[:, 3] = _sum_of_products(cams.transpose(1, 0, 2), x[:, None])
        applied = stage1_gram_apply(cams, weights, eta)
        gt_out[...] = applied[:, :3].transpose(2, 0, 1)
        return weights, applied[:, 3] - offsets.T @ weights, None

    u, b_p, factors = _kronecker_sums(problem, state, basis, pair_terms)
    if resolved is None:
        v, origin_gradient = stage1_landmark_normals(state.cameras, problem, eta)
    else:
        v, origin_gradient = resolved.hessian, resolved.origin_gradient
    b_l = np.einsum("nij,nj->ni", v, state.landmarks[:, :3]) + origin_gradient
    sums = BlockSums(u, b_p, factors, v, b_l)
    if resolved is not None:
        sums.products[_v_pinv] = resolved.pinv, resolved.degenerate
    return sums


def build_stage2_blocks(problem: BaProblem, state: ProjectiveState,
                        landmark_bases: np.ndarray) -> BlockSums:
    """Linearize the stage-2 objective, the coupling in the landmarks' tangent spaces.

    With u = P x, p = u[:2] / u[2] and D = dp/du = [I | -p] / u[2], the pose
    Jacobian is D (x) x^T, D^T D has the weights (1, p0, p1, |p|^2) / u[2]^2
    over the stage-1 basis at eta = 0, and the landmark Jacobian is D P, so
    G^T = D^T D P, a = D^T r, V = P^T G^T and b_l = P^T a per observation.
    D does not depend on the measurement, so a pair of k observations has
    k times those weights and G^T, and a[:2] = (k p - sum m) / u[2].

    The pairs are taken a chunk of cameras at a time (``_kronecker_sums``).
    Each pair's V and b_l are added into its landmark's sums a camera at a
    time, so every landmark sums its pairs in camera order from zero, and
    they exist for one chunk only. Each chunk's 3x4 G^T is multiplied by its
    pairs' ``landmark_bases`` (n_l, 4, 3) as it is formed, so the factor
    holds the 3x3 G^T B_l and no unprojected G^T exists beyond one chunk.
    U and b_p (width 12) and V and b_l (width 4) come back unprojected, for
    ``riemannian.project_blocks`` to project.

    Degenerate observations (depth within the guard) must be excluded by the
    caller rejecting the state; here they would poison the step, so we raise.
    """
    pair_landmark = problem.plan.pair_landmark
    landmark_sums = np.zeros((problem.plan.num_landmarks, 4, 5))  # V, then b_l

    def pair_terms(pairs, cams, x, gt_out):
        u = _sum_of_products(cams.transpose(1, 0, 2), x[:, None])
        if not (np.abs(u[2]) > Z_EPSILON).all():
            raise FloatingPointError("degenerate projection while linearizing stage 2")
        inv_z = 1.0 / u[2]
        p = u[:2]
        p *= inv_z
        weights = stage1_weights(p.T)  # z^2 D^T D = sum_k w_k C_k
        pair_weights = problem.pair_weights[:, pairs]
        weights *= pair_weights[0]
        inv_z2 = inv_z * inv_z
        gt_a = np.empty((3, 5, len(inv_z)))  # G^T, then a
        gt = stage1_gram_apply(cams, weights, 0.0, out=gt_a[:, :4])
        gt *= inv_z2
        a = gt_a[:, 4]
        a[:2] = (weights[1:3] - pair_weights[1:3]) * inv_z
        weights *= inv_z2
        a[2] = -_sum_of_products(p, a[:2])
        np.matmul(gt.transpose(2, 0, 1), np.take(landmark_bases, pair_landmark[pairs], axis=0),
                  out=gt_out)
        # (D P)^T (D P) = P^T G^T and (D P)^T r = P^T a
        return weights, a, np.einsum("ijn,ikn->njk", cams, gt_a)

    u, b_p, factors = _kronecker_sums(problem, state, stage1_gram_basis(0.0)[0], pair_terms,
                                      landmark_sums)
    return BlockSums(u, b_p, factors, np.ascontiguousarray(landmark_sums[:, :, :4]),
                     np.ascontiguousarray(landmark_sums[:, :, 4]))


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
