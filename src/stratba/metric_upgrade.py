"""Autocalibration: upgrade converged projective cameras towards Euclidean ones.

Searches a 4x4 ambiguity transform H = [[I, 0], [c^T, 1]] (gauge block fixed
to the identity, plane-at-infinity vector c free) together with per-camera
scales so that every scaled, intrinsics-normalized camera times H has an
orthonormal rotation part:

    alpha_i * (K_i^{-1} P_i) Htilde Htilde^T (K_i^{-1} P_i)^T ~= I,

with Htilde the left 4x3 block of H. The scales are linear in this residual
and are eliminated in closed form (variable projection); only the 3-vector c
is searched, with a small damped least-squares loop. Because the gauge block
stays I, this cannot remove the general projective ambiguity of a
random-start reconstruction, and there the cameras do not come out metric.
Output quality is illustrative: rotations are always projected to the
nearest proper orthogonal matrix and the remaining misfit is reported
(``orthogonality_error``, ``converged``) rather than raised.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bal_io import BaProblem, ProjectiveState
from .solvers import LAMBDA_DECREASE, LAMBDA_INCREASE, LAMBDA_MAX, LAMBDA_MIN

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
# Beyond this residual the output is flagged as not converged.
_ORTHOGONALITY_FLAG = 1e-6
# Damped least-squares loop over c: iteration cap and relative cost-change stop.
_MAX_ITERATIONS = 100
_FUNCTION_TOLERANCE = 1e-14


@dataclass
class AmbiguityState:
    """Plane-at-infinity vector and per-camera scales; gauge block is identity."""

    c: np.ndarray  # (3,)
    alphas: np.ndarray  # (n_p,) finite, nonzero


@dataclass
class MetricUpgradeResult:
    rotations: np.ndarray  # (n_p, 3, 3) proper orthonormal
    translations: np.ndarray  # (n_p, 3)
    state: AmbiguityState
    orthogonality_error: float  # max over cameras of ||alpha B B^T - I||_F
    converged: bool
    iterations: int  # passes of the damped least-squares loop over c
    # why the loop stopped: "ftol" (an accepted step changed the cost by at most
    # the tolerance), "stagnant" (a rejected step did) or "cap" (iteration cap)
    stop_reason: str


def ambiguity_columns(c: np.ndarray) -> np.ndarray:
    """The left 4x3 block of the ambiguity transform for a given c."""
    h = np.zeros((4, 3))
    h[:3, :] = np.eye(3)
    h[3, :] = c
    return h


def intrinsics_from_problem(problem: BaProblem) -> np.ndarray:
    """Per-camera K = diag(f, f, 1) built from the BAL focal lengths, which must be finite."""
    if problem.metric_cameras is None:
        raise ValueError("problem carries no metric camera block")
    f = problem.metric_cameras[:, 6]
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise ValueError(f"non-finite focal length {f[bad[0]]} of camera {bad[0]}")
    k = np.zeros((problem.num_cameras, 3, 3))
    k[:, 0, 0] = f
    k[:, 1, 1] = f
    k[:, 2, 2] = 1.0
    return k


def _sym6(m: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric 3x3, off-diagonals weighted sqrt(2).

    Preserves the Frobenius norm: ||sym6(M)||_2 == ||M||_F for symmetric M.
    Batched over leading axes.
    """
    return np.stack([
        m[..., 0, 0], _SQRT2 * m[..., 0, 1], _SQRT2 * m[..., 0, 2],
        m[..., 1, 1], _SQRT2 * m[..., 1, 2], m[..., 2, 2],
    ], axis=-1)


def _normalized_cameras(cameras: np.ndarray, intrinsics: np.ndarray) -> np.ndarray:
    if (np.abs(np.linalg.det(intrinsics)) < 1e-300).any():
        raise ValueError("singular intrinsics")
    return np.linalg.solve(intrinsics, cameras)


def _gram_terms(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M_i = (K^{-1}P_i) Htilde Htilde^T (K^{-1}P_i)^T for all cameras."""
    h = ambiguity_columns(c)
    qh = q @ h  # (n, 3, 3)
    return qh @ qh.transpose(0, 2, 1)


def _scales(m: np.ndarray) -> np.ndarray:
    """Closed-form scales alpha = <M, I> / <M, M>, each minimizing its camera's
    Frobenius misfit with c held fixed; alpha = 1 where M has zero norm."""
    num = np.trace(m, axis1=1, axis2=2)
    den = np.einsum("nij,nij->n", m, m)
    zero = den == 0
    return np.where(zero, 1.0, num / np.where(zero, 1.0, den))


def vec_transpose_permutation(m: int, n: int) -> np.ndarray:
    """Permutation K with K vec(X) = vec(X^T) for X of shape (m, n), column-major."""
    k = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            k[j + n * i, i + m * j] = 1.0
    return k


_VEC_TRANSPOSE_4X3 = vec_transpose_permutation(4, 3)
_VEC_TRANSPOSE_4X3.setflags(write=False)


def gram_derivative(h: np.ndarray) -> np.ndarray:
    """Derivative of vec(h h^T) with respect to vec(h) for a 4x3 block, column-major.

    Equals (h kron I) + (I kron h) K with K the vec-transpose permutation:
    vec(d(h h^T)) = gram_derivative(h) @ vec(dh) to first order.
    """
    h = np.asarray(h, dtype=float)
    eye = np.eye(4)
    return np.kron(h, eye) + np.kron(eye, h) @ _VEC_TRANSPOSE_4X3


# ---------------------------------------------------------------------------


def _reduced_residual(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual stack (n, 6) and eliminated scales at the given c."""
    m = _gram_terms(q, c)
    alphas = _scales(m)
    return _sym6(alphas[:, None, None] * m - np.eye(3)), alphas


def _reduced_jacobian(q: np.ndarray, c: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """d residual / d c with scales frozen at their optimum (n, 6, 3).

    At the eliminated optimum the scale gradients vanish, so freezing them
    still yields the exact reduced gradient. c_k is entry (3, k) of Htilde,
    column-major position 3 + 4k, so d(HH^T)/dc_k is that column of
    gram_derivative as a 4x4 matrix S_k, and dM_i/dc_k = q_i S_k q_i^T.
    """
    ds = gram_derivative(ambiguity_columns(c))[:, 3::4].reshape(4, 4, 3, order="F")
    dm = np.einsum("nia,abk,njb->nkij", q, ds, q)  # (n, 3, 3, 3)
    return alphas[:, None, None] * _sym6(dm).transpose(0, 2, 1)


def upgrade(problem: BaProblem, state: ProjectiveState) -> MetricUpgradeResult:
    """Find the ambiguity transform and return per-camera metric poses.

    Damped least squares over c with scales eliminated in closed form, then
    the upgraded cameras are rescaled and their leading blocks projected onto
    proper rotations. Poor fits are reported via ``converged``/
    ``orthogonality_error`` rather than raised.
    """
    intrinsics = intrinsics_from_problem(problem)
    q = _normalized_cameras(state.cameras, intrinsics)

    c = np.zeros(3)
    res, alphas = _reduced_residual(q, c)
    cost = float(np.sum(res * res))
    lam = 1e-4
    iterations, stop_reason = 0, "cap"
    while iterations < _MAX_ITERATIONS:
        iterations += 1
        jac = _reduced_jacobian(q, c, alphas).reshape(-1, 3)
        r = res.reshape(-1)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        damped = jtj + lam * np.diag(np.clip(np.diag(jtj), 1e-12, None))
        try:
            delta = np.linalg.solve(damped, -jtr)
        except np.linalg.LinAlgError:
            lam = min(LAMBDA_MAX, lam * LAMBDA_INCREASE)
            continue
        res_t, alphas_t = _reduced_residual(q, c + delta)
        cost_t = float(np.sum(res_t * res_t))
        if cost_t < cost:
            rel = abs(cost - cost_t) / cost if cost > 0 else 0.0
            c, res, alphas, cost = c + delta, res_t, alphas_t, cost_t
            lam = max(LAMBDA_MIN, lam * LAMBDA_DECREASE)
            if rel <= _FUNCTION_TOLERANCE:
                stop_reason = "ftol"
                break
        else:
            lam = min(LAMBDA_MAX, lam * LAMBDA_INCREASE)
            if math.isfinite(cost_t) and cost > 0 and abs(cost - cost_t) / cost <= _FUNCTION_TOLERANCE:
                stop_reason = "stagnant"
                break
    logger.info("metric upgrade: %d iterations, stopped on %s", iterations, stop_reason)

    h = np.column_stack([ambiguity_columns(c), [0.0, 0.0, 0.0, 1.0]])
    upgraded = q @ h  # (n, 3, 4) in normalized coordinates
    scale = np.sqrt(np.abs(alphas))
    metric = scale[:, None, None] * upgraded
    flip = np.linalg.det(metric[:, :, :3]) < 0
    metric[flip] *= -1.0

    b = metric[:, :, :3]
    u, _, vt = np.linalg.svd(b)
    det_fix = np.linalg.det(u @ vt)
    d = np.stack([np.ones_like(det_fix), np.ones_like(det_fix), det_fix], axis=1)
    rotations = u @ (d[:, :, None] * vt)
    translations = metric[:, :, 3]

    gram = b @ b.transpose(0, 2, 1)
    ortho = np.linalg.norm(gram - np.eye(3), axis=(1, 2)).max() if len(b) else 0.0
    return MetricUpgradeResult(
        rotations=rotations,
        translations=translations,
        state=AmbiguityState(c=c, alphas=alphas),
        orthogonality_error=float(ortho),
        converged=bool(ortho <= _ORTHOGONALITY_FLAG),
        iterations=iterations,
        stop_reason=stop_reason,
    )
