import dataclasses
import logging

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from stratba import metric_upgrade
from stratba.bal_io import BaProblem, ProjectiveState, load_bal, prune_underobserved, write_bal
from stratba.metric_upgrade import (
    _gram_terms,
    _reduced_jacobian,
    _reduced_residual,
    _scales,
    _sym6,
    ambiguity_columns,
    gram_derivative,
    intrinsics_from_problem,
    upgrade,
    vec_transpose_permutation,
)
from stratba.pipeline import RunSpec, read_state, run_problem
from stratba.synth import make_ring_problem
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


def test_scales_fall_back_to_one_at_zero_norm():
    m = np.zeros((2, 3, 3))
    m[1] = 2.0 * np.eye(3)  # <M, I> / <M, M> = 6 / 12
    np.testing.assert_array_equal(_scales(m), [1.0, 0.5])


def test_scales_minimize_the_misfit(rng):
    q = rng.standard_normal((4, 3, 3))
    m = q @ q.transpose(0, 2, 1)
    alphas = _scales(m)

    def misfit(a):
        return np.linalg.norm(a[:, None, None] * m - np.eye(3), axis=(1, 2))

    for delta in (-0.1, -1e-3, 1e-3, 0.1):
        assert (misfit(alphas + delta) >= misfit(alphas)).all()
    np.testing.assert_allclose(_scales(1.7 * m), alphas / 1.7, rtol=1e-12)


def test_upgrade_rejects_singular_intrinsics():
    problem, state, _, _, _ = warped_problem(np.zeros(3), n=3, seed=1)
    metric_cameras = problem.metric_cameras.copy()
    metric_cameras[1, 6] = 0.0  # K = diag(0, 0, 1)
    with pytest.raises(ValueError, match="singular"):
        upgrade(dataclasses.replace(problem, metric_cameras=metric_cameras), state)


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
    # each scale is <M, I> / <M, M> of its camera's M at the final c, bit for bit
    problem, state, _, _, _ = warped_problem(np.array([0.1, -0.2, 0.3]), n=6, seed=0)
    result = upgrade(problem, state)
    qh = np.linalg.solve(intrinsics_from_problem(problem), state.cameras) @ \
        ambiguity_columns(result.state.c)
    m = qh @ qh.transpose(0, 2, 1)
    expected = np.trace(m, axis1=1, axis2=2) / np.einsum("nij,nij->n", m, m)
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


@pytest.fixture(scope="module")
def solved_ring(tmp_path_factory):
    """A ring solved through the metric stage: its problem, stage-2 state and summary."""
    path = tmp_path_factory.mktemp("ring") / "ring.txt"
    with open(path, "w") as fh:
        write_bal(make_ring_problem(8, 60, 0.5, seed=2), fh)
    out = path.parent / "out"
    summary = run_problem(path, RunSpec(inputs=[str(path)], seed=1, stage="metric",
                                        out_dir=str(out)))
    return prune_underobserved(load_bal(path)), read_state(out / "ring_state.txt"), summary


def test_upgrade_reports_iterations_and_stop_reason(solved_ring, caplog):
    problem, state, summary = solved_ring
    with caplog.at_level(logging.INFO, logger="stratba.metric_upgrade"):
        result = upgrade(problem, state)
    assert result.stop_reason in ("ftol", "stagnant", "cap")
    assert 1 <= result.iterations <= 100
    assert (f"metric upgrade: {result.iterations} iterations, stopped on {result.stop_reason}"
            in caplog.text)
    metric = summary["stages"]["metric"]
    assert (metric["iterations"], metric["stop_reason"]) == (result.iterations,
                                                              result.stop_reason)


def test_upgrade_stop_reason_cap(solved_ring, monkeypatch):
    problem, state, _ = solved_ring
    monkeypatch.setattr(metric_upgrade, "_MAX_ITERATIONS", 1)
    result = upgrade(problem, state)
    assert (result.iterations, result.stop_reason) == (1, "cap")


def test_gram_derivative_uses_the_permutation_bit_for_bit():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 3))
    eye = np.eye(4)
    expected = np.kron(h, eye) + np.kron(eye, h) @ vec_transpose_permutation(4, 3)
    np.testing.assert_array_equal(gram_derivative(h), expected)


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
