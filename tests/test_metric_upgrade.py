import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from stratba.bal_io import BaProblem, ProjectiveState
from stratba.metric_upgrade import (
    AmbiguityState,
    _gram_terms,
    _reduced_jacobian,
    _reduced_residual,
    _sym6,
    ambiguity_columns,
    gram_derivative,
    intrinsics_from_problem,
    metric_residual,
    optimal_alphas,
    upgrade,
    vec_transpose_permutation,
)
from tests.conftest import central_difference_jacobian


def rotation_stack(rng, n):
    return Rotation.from_rotvec(rng.standard_normal((n, 3))).as_matrix()


def warped_problem(c_true, n=6, seed=0, scales=True):
    """Metric cameras warped by a known ambiguity, plus per-camera scales."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.8, 1.5, n)
    r = rotation_stack(rng, n)
    t = rng.standard_normal((n, 3))
    k = np.zeros((n, 3, 3))
    k[:, 0, 0] = f
    k[:, 1, 1] = f
    k[:, 2, 2] = 1.0
    p_metric = k @ np.concatenate([r, t[:, :, None]], axis=2)
    h = np.eye(4)
    h[3, :3] = c_true
    x_p = p_metric @ np.linalg.inv(h)
    if scales:
        x_p = rng.uniform(0.5, 2.0, n)[:, None, None] * x_p
    metric_cameras = np.zeros((n, 9))
    metric_cameras[:, 6] = f
    problem = BaProblem(
        num_cameras=n, num_landmarks=1, num_observations=0,
        camera_indices=np.zeros(0, dtype=int), landmark_indices=np.zeros(0, dtype=int),
        measurements=np.zeros((0, 2)), metric_cameras=metric_cameras,
        metric_points=np.zeros((1, 3)))
    state = ProjectiveState(x_p, np.array([[0.0, 0.0, 0.0, 1.0]]))
    return problem, state, k, r, t


def test_metric_residual_zero_at_metric_camera(rng):
    r = rotation_stack(rng, 1)[0]
    t = rng.standard_normal(3)
    k = np.diag([1.4, 1.4, 1.0])
    camera = k @ np.concatenate([r, t[:, None]], axis=1)
    state = AmbiguityState(c=np.zeros(3), alphas=np.ones(1))
    res = metric_residual(camera, k, state)
    np.testing.assert_allclose(res, 0.0, atol=1e-12)


def test_metric_residual_alpha_zero(rng):
    camera = rng.standard_normal((3, 4))
    state = AmbiguityState(c=rng.standard_normal(3), alphas=np.zeros(1))
    res = metric_residual(camera, np.eye(3), state)
    # residual is -I: weighted triangle (-1, 0, 0, -1, 0, -1), squared norm 3
    np.testing.assert_allclose(res, [-1, 0, 0, -1, 0, -1], atol=1e-15)
    assert float(res @ res) == pytest.approx(3.0)


def test_metric_residual_matches_naive(rng):
    for _ in range(10):
        camera = rng.standard_normal((3, 4))
        k = np.diag([rng.uniform(0.5, 2.0)] * 2 + [1.0])
        c = rng.standard_normal(3)
        alpha = rng.uniform(0.1, 3.0)
        state = AmbiguityState(c=c, alphas=np.array([alpha]))
        got = metric_residual(camera, k, state)
        # independent transcription
        q = np.linalg.inv(k) @ camera
        h = np.vstack([np.eye(3), c])
        m3 = alpha * (q @ h) @ (q @ h).T - np.eye(3)
        s2 = math.sqrt(2.0)
        naive = np.array([m3[0, 0], s2 * m3[0, 1], s2 * m3[0, 2],
                          m3[1, 1], s2 * m3[1, 2], m3[2, 2]])
        np.testing.assert_allclose(got, naive, atol=1e-12)
        assert float(got @ got) == pytest.approx(np.linalg.norm(m3) ** 2, rel=1e-12)


def test_metric_residual_singular_intrinsics():
    with pytest.raises(ValueError, match="singular"):
        metric_residual(np.ones((3, 4)), np.zeros((3, 3)),
                        AmbiguityState(np.zeros(3), np.ones(1)))


def test_optimal_alphas_identity_and_double(rng):
    r = rotation_stack(rng, 1)[0]
    t = rng.standard_normal(3)
    camera = np.concatenate([r, t[:, None]], axis=1)  # M = R R^T = I
    k = np.eye(3)[None]
    a = optimal_alphas(camera[None], k, np.zeros(3))
    np.testing.assert_allclose(a, [1.0], atol=1e-12)
    doubled = np.concatenate([math.sqrt(2.0) * r, t[:, None]], axis=1)  # M = 2 I
    a2 = optimal_alphas(doubled[None], k, np.zeros(3))
    np.testing.assert_allclose(a2, [0.5], atol=1e-12)


def test_optimal_alphas_scale_equivariant(rng):
    camera = rng.standard_normal((1, 3, 4))
    k = np.eye(3)[None]
    c = rng.standard_normal(3)
    a1 = optimal_alphas(camera, k, c)
    s = 1.7
    a2 = optimal_alphas(math.sqrt(s) * camera, k, c)  # scales M by s
    np.testing.assert_allclose(a2, a1 / s, rtol=1e-12)


def test_optimal_alphas_are_minimizers(rng):
    camera = rng.standard_normal((1, 3, 4))
    k = np.eye(3)[None]
    c = rng.standard_normal(3)
    alpha = optimal_alphas(camera, k, c)[0]

    def term(a):
        res = metric_residual(camera[0], k[0], AmbiguityState(c, np.array([a])))
        return float(res @ res)

    base = term(alpha)
    for delta in (-0.1, -1e-3, 1e-3, 0.1):
        assert term(alpha + delta) >= base


def test_optimal_alphas_zero_gram_falls_back(caplog):
    with caplog.at_level("WARNING"):
        a = optimal_alphas(np.zeros((1, 3, 4)), np.eye(3)[None], np.zeros(3))
    np.testing.assert_array_equal(a, [1.0])


# ---------------------------------------------------------------------------
# derivative of the gram product


def test_gram_derivative_zero():
    np.testing.assert_array_equal(gram_derivative(np.zeros((4, 3))), np.zeros((16, 12)))


def test_vec_transpose_is_permutation():
    k43 = vec_transpose_permutation(4, 3)
    k34 = vec_transpose_permutation(3, 4)
    assert ((k43 == 0) | (k43 == 1)).all()
    assert (k43.sum(axis=0) == 1).all() and (k43.sum(axis=1) == 1).all()
    np.testing.assert_array_equal(k43 @ k34, np.eye(12))
    np.testing.assert_array_equal(k43.T, k34)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(k43 @ x.flatten(order="F"), x.T.flatten(order="F"))


def _row_to_col_perm():
    # maps column-major vec positions to the matching row-major flat indices
    return np.arange(12).reshape(4, 3).flatten(order="F")


def test_gram_derivative_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(100):
        h = rng.standard_normal((4, 3))
        deriv = gram_derivative(h)

        def gram_vec(hm):
            return (hm @ hm.T).flatten(order="F")

        fd = central_difference_jacobian(lambda x: gram_vec(x.reshape(4, 3)), h)
        fd_colmajor = fd[:, _row_to_col_perm()]
        rel = np.abs(fd_colmajor - deriv).max() / max(1.0, np.abs(deriv).max())
        assert rel <= 1e-6


@pytest.mark.parametrize("n, zero_camera", [(1, False), (6, False), (6, True)])
def test_reduced_jacobian_matches_finite_differences(n, zero_camera):
    rng = np.random.default_rng(41 + n + zero_camera)
    for _ in range(20):
        q = rng.standard_normal((n, 3, 4))
        if zero_camera:
            q[2] = 0.0
        c = rng.standard_normal(3)
        _, alphas = _reduced_residual(q, c)
        if zero_camera:
            assert alphas[2] == 1.0  # zero gram falls back to scale 1
        jac = _reduced_jacobian(q, c, alphas)
        assert jac.shape == (n, 6, 3)

        def residual(cc):  # scales held fixed
            return _sym6(alphas[:, None, None] * _gram_terms(q, cc) - np.eye(3))

        fd = central_difference_jacobian(residual, c).reshape(n, 6, 3)
        rel = np.abs(fd - jac).max() / max(1.0, np.abs(jac).max())
        assert rel <= 1e-6
        if zero_camera:
            np.testing.assert_array_equal(jac[2], 0.0)


# ---------------------------------------------------------------------------
# full upgrade


def test_upgrade_recovers_known_ambiguity():
    c_true = np.array([0.1, -0.2, 0.3])
    problem, state, k, r_true, t_true = warped_problem(c_true, n=6, seed=0)
    result = upgrade(problem, state)
    assert np.abs(result.state.c - c_true).max() <= 1e-3
    assert result.orthogonality_error <= 1e-6
    assert result.converged
    np.testing.assert_allclose(result.rotations, r_true, atol=1e-6)
    np.testing.assert_allclose(result.translations, t_true, atol=1e-6)


def test_upgrade_scales_are_the_closed_form_ones():
    # the search and optimal_alphas share one scale formula: equal bit for bit
    problem, state, _, _, _ = warped_problem(np.array([0.1, -0.2, 0.3]), n=6, seed=0)
    result = upgrade(problem, state)
    expected = optimal_alphas(state.cameras, intrinsics_from_problem(problem), result.state.c)
    np.testing.assert_array_equal(result.state.alphas, expected)


def test_upgrade_fixed_point_on_metric_input():
    problem, state, _, _, _ = warped_problem(np.zeros(3), n=5, seed=3, scales=False)
    result = upgrade(problem, state)
    assert np.abs(result.state.c).max() <= 1e-9
    assert np.abs(result.state.alphas - 1.0).max() <= 1e-9


def test_upgrade_rotations_always_orthonormal(rng):
    # garbage input: the fit will be poor but rotations must stay rotations
    n = 4
    metric_cameras = np.zeros((n, 9))
    metric_cameras[:, 6] = 1.0
    problem = BaProblem(
        num_cameras=n, num_landmarks=1, num_observations=0,
        camera_indices=np.zeros(0, dtype=int), landmark_indices=np.zeros(0, dtype=int),
        measurements=np.zeros((0, 2)), metric_cameras=metric_cameras,
        metric_points=np.zeros((1, 3)))
    state = ProjectiveState(rng.standard_normal((n, 3, 4)), np.array([[0.0, 0, 0, 1]]))
    result = upgrade(problem, state)
    for rot in result.rotations:
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) <= 1e-9
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


def test_upgrade_requires_metric_block():
    problem = BaProblem(
        num_cameras=1, num_landmarks=1, num_observations=0,
        camera_indices=np.zeros(0, dtype=int), landmark_indices=np.zeros(0, dtype=int),
        measurements=np.zeros((0, 2)))
    state = ProjectiveState(np.ones((1, 3, 4)), np.array([[0.0, 0, 0, 1]]))
    with pytest.raises(ValueError, match="metric"):
        upgrade(problem, state)


def test_ambiguity_columns_layout():
    c = np.array([1.0, 2.0, 3.0])
    h = ambiguity_columns(c)
    np.testing.assert_array_equal(h[:3], np.eye(3))
    np.testing.assert_array_equal(h[3], c)
