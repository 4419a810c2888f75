import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratba.bal_io import BaProblem, ProjectiveState
from stratba.solvers import SolverConfig
from stratba.normal_eq import assemble, build_stage1_blocks
from stratba import objective
from stratba.objective import (
    STAGE1,
    STAGE2,
    V_PINV_TOL,
    pinv_psd,
    solve_landmarks,
    stage1_gram_apply,
    stage1_gram_basis,
    stage1_weights,
    total_cost,
)
from tests.conftest import (
    ProjectionDegenerateError,
    central_difference_jacobian,
    make_random_problem,
    make_random_state,
    pose_jacobians,
    pose_residual,
    projective_jacobians,
    projective_residual,
)


def test_eta_range():
    SolverConfig(eta=0.0)
    SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(eta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(eta=-0.1)
    problem = make_random_problem(3, 5, 0)
    state = make_random_state(problem, 1, STAGE1)
    for eta in (1.5, -0.1):
        with pytest.raises(ValueError):
            build_stage1_blocks(problem, state, eta)
        with pytest.raises(ValueError):
            solve_landmarks(state, problem, eta)
        with pytest.raises(ValueError):
            total_cost(state, problem, STAGE1, eta)


def test_pose_residual_hand_value():
    camera = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    landmark = np.array([1.0, 2.0, 4.0, 1.0])
    measurement = np.array([0.25, 0.5])
    r = pose_residual(camera, landmark, measurement, 0.1)
    expected = np.array([0.0, 0.0, math.sqrt(0.1) * 0.75, math.sqrt(0.1) * 1.5])
    np.testing.assert_allclose(r, expected, atol=1e-15)


def test_pose_residual_eta_zero_object_space_consistency(rng):
    # with eta=0 only the object-space rows survive; make them consistent
    camera = rng.standard_normal((3, 4))
    landmark = np.append(rng.standard_normal(3), 1.0)
    z = camera[2] @ landmark
    measurement = (camera[:2] @ landmark) / z
    r = pose_residual(camera, landmark, measurement, 0.0)
    np.testing.assert_allclose(r, 0.0, atol=1e-12)


def test_pose_residual_eta_one_affine_consistency(rng):
    camera = rng.standard_normal((3, 4))
    landmark = np.append(rng.standard_normal(3), 1.0)
    measurement = camera[:2] @ landmark
    r = pose_residual(camera, landmark, measurement, 1.0)
    np.testing.assert_allclose(r, 0.0, atol=1e-12)


def _fd_check_stage1(camera, landmark, measurement, eta):
    jp, jl = pose_jacobians(camera, landmark, measurement, eta)
    fd_p = central_difference_jacobian(
        lambda c: pose_residual(c, landmark, measurement, eta), camera)
    fd_l = central_difference_jacobian(
        lambda v: pose_residual(camera, np.append(v, 1.0), measurement, eta), landmark[:3])
    scale_p = max(1.0, np.abs(jp).max())
    scale_l = max(1.0, np.abs(jl).max())
    assert np.abs(fd_p - jp).max() / scale_p <= 1e-6
    assert np.abs(fd_l - jl).max() / scale_l <= 1e-6


def test_pose_jacobians_match_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        camera = rng.standard_normal((3, 4))
        landmark = np.append(rng.standard_normal(3), 1.0)
        measurement = rng.standard_normal(2)
        _fd_check_stage1(camera, landmark, measurement, rng.uniform(0, 1))


def test_pose_jacobian_zero_camera_case():
    eta = 0.1
    camera = np.zeros((3, 4))
    landmark = np.array([0.0, 0.0, 0.0, 1.0])
    measurement = np.array([0.3, -0.7])
    jp, jl = pose_jacobians(camera, landmark, measurement, eta)
    # landmark Jacobian vanishes with a zero camera
    np.testing.assert_allclose(jl, 0.0, atol=1e-15)
    # pose Jacobian columns multiplying the fixed homogeneous 1 are the only
    # nonzero ones (columns 3, 7, 11 of the row-major vectorization)
    nonzero_cols = sorted(set(np.nonzero(np.abs(jp) > 0)[1]))
    assert nonzero_cols == [3, 7, 11]
    fd = central_difference_jacobian(
        lambda c: pose_residual(c, landmark, measurement, eta), camera)
    np.testing.assert_allclose(fd, jp, atol=1e-9)


def test_landmark_jacobian_independent_of_landmark(rng):
    eta = 0.3
    camera = rng.standard_normal((3, 4))
    measurement = rng.standard_normal(2)
    _, jl_a = pose_jacobians(camera, np.array([1.0, 2, 3, 1]), measurement, eta)
    _, jl_b = pose_jacobians(camera, np.array([-5.0, 0, 7, 1]), measurement, eta)
    np.testing.assert_array_equal(jl_a, jl_b)


def test_pose_jacobian_independent_of_camera(rng):
    eta = 0.3
    landmark = np.append(rng.standard_normal(3), 1.0)
    measurement = rng.standard_normal(2)
    jp_a, _ = pose_jacobians(rng.standard_normal((3, 4)), landmark, measurement, eta)
    jp_b, _ = pose_jacobians(rng.standard_normal((3, 4)), landmark, measurement, eta)
    np.testing.assert_array_equal(jp_a, jp_b)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_stage1_residual_affine_in_landmark(seed):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0, 1)
    camera = rng.standard_normal((3, 4))
    measurement = rng.standard_normal(2)
    va, vb = rng.standard_normal(3), rng.standard_normal(3)

    def r(v):
        return pose_residual(camera, np.append(v, 1.0), measurement, eta)

    lhs = r(va) + r(vb) - r(np.zeros(3))
    rhs = r(va + vb)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


# ---------------------------------------------------------------------------
# projective stage


def test_projective_residual_exact_reprojection():
    camera = np.zeros((3, 4))
    camera[0, 0] = 2.0
    camera[1, 1] = 4.0
    camera[2, 2] = 2.0
    landmark = np.array([1.0, 1.0, 1.0, 0.0])
    r = projective_residual(camera, landmark, np.array([1.0, 2.0]))
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


def test_projective_residual_unit_offsets():
    camera = np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1)
    landmark = np.array([1.0, 1.0, 1.0, 1.0])
    r = projective_residual(camera, landmark, np.array([0.0, 0.0]))
    np.testing.assert_allclose(r, [1.0, 1.0])


def test_projective_residual_matches_naive(rng):
    # independent naive implementation
    for _ in range(20):
        camera = rng.standard_normal((3, 4))
        landmark = rng.standard_normal(4)
        m = rng.standard_normal(2)
        u = camera @ landmark
        naive = np.array([u[0] / u[2] - m[0], u[1] / u[2] - m[1]])
        np.testing.assert_allclose(projective_residual(camera, landmark, m), naive,
                                   atol=1e-12 * max(1, np.abs(naive).max()))


def test_projective_degeneracy_raises():
    camera = np.zeros((3, 4))
    camera[0, 0] = 1.0
    landmark = np.array([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ProjectionDegenerateError):
        projective_residual(camera, landmark, np.zeros(2))


def test_projective_jacobians_match_finite_differences():
    rng = np.random.default_rng(77)
    count = 0
    while count < 100:
        camera = rng.standard_normal((3, 4))
        landmark = rng.standard_normal(4)
        if abs(camera[2] @ landmark) < 0.1:
            continue
        count += 1
        measurement = rng.standard_normal(2)
        jp, jl = projective_jacobians(camera, landmark, measurement)
        fd_p = central_difference_jacobian(
            lambda c: projective_residual(c, landmark, measurement), camera)
        fd_l = central_difference_jacobian(
            lambda v: projective_residual(camera, v, measurement), landmark)
        assert np.abs(fd_p - jp).max() / max(1.0, np.abs(jp).max()) <= 1e-6
        assert np.abs(fd_l - jl).max() / max(1.0, np.abs(jl).max()) <= 1e-6


def test_projective_jacobian_constant_depth_direction(rng):
    # along a landmark direction orthogonal to the camera's z-row the depth is
    # constant, so the Jacobian column is the numerator derivative over z
    camera = rng.standard_normal((3, 4))
    landmark = rng.standard_normal(4)
    z = camera[2] @ landmark
    direction = rng.standard_normal(4)
    direction -= (camera[2] @ direction) / (camera[2] @ camera[2]) * camera[2]
    assert abs(camera[2] @ direction) < 1e-12
    _, jl = projective_jacobians(camera, landmark, rng.standard_normal(2))
    expected = (camera[:2] @ direction) / z
    np.testing.assert_allclose(jl @ direction, expected, atol=1e-12)


def test_projective_homogeneity(rng):
    camera = rng.standard_normal((3, 4))
    landmark = rng.standard_normal(4)
    m = rng.standard_normal(2)
    r1 = projective_residual(camera, landmark, m)
    r2 = projective_residual(camera, 2.0 * landmark, m)
    np.testing.assert_allclose(r1, r2, atol=1e-12)
    _, jl1 = projective_jacobians(camera, landmark, m)
    _, jl2 = projective_jacobians(camera, 2.0 * landmark, m)
    np.testing.assert_allclose(jl2, jl1 / 2.0, atol=1e-12)


def test_projection_gram_is_weighted_stage1_basis_at_eta_zero(rng):
    # The stage-2 pose Jacobian is D (x) x^T with D the derivative of the
    # perspective division at u = P x, and D^T D = sum_k w_k C_k over the
    # stage-1 bases at eta = 0 with w = (1, p0, p1, |p|^2) / z^2.
    basis, _ = stage1_gram_basis(0.0)
    for _ in range(20):
        camera = rng.standard_normal((3, 4))
        landmark = rng.standard_normal(4)
        u = camera @ landmark
        p = u[:2] / u[2]
        d = np.array([[1.0, 0.0, -p[0]], [0.0, 1.0, -p[1]]]) / u[2]
        jp, _ = projective_jacobians(camera, landmark, rng.standard_normal(2))
        np.testing.assert_allclose(jp, np.kron(d, landmark), rtol=0,
                                   atol=1e-14 * np.abs(jp).max())
        weights = stage1_weights(p[None]) / u[2] ** 2
        gram = d.T @ d
        np.testing.assert_allclose(np.einsum("kn,kij->ij", weights, basis), gram, rtol=0,
                                   atol=1e-14 * np.abs(gram).max())
        v = rng.standard_normal((3, 1))
        np.testing.assert_allclose(stage1_gram_apply(v, weights * u[2] ** 2, 0.0) / u[2] ** 2,
                                   gram @ v, rtol=0,
                                   atol=1e-14 * np.abs(gram).max() * np.abs(v).sum())


@pytest.mark.parametrize("eta", [0.0, 0.25])
def test_gram_apply_is_linear_in_all_four_weights(eta):
    # Summed weights (w0 counting a pair's observations) give the summed
    # product sum_k w_k C_k v; quarter-integers keep every product and sum exact.
    rng = np.random.default_rng(21)
    basis, _ = stage1_gram_basis(eta)
    weights = rng.integers(-8, 9, (4, 30)) / 4.0
    weights[0] = rng.integers(1, 5, 30)
    assert (weights[0] != 1.0).any()
    v = rng.integers(-8, 9, (3, 5, 30)) / 4.0
    np.testing.assert_array_equal(stage1_gram_apply(v, weights, eta),
                                  np.einsum("kn,kij,jan->ian", weights, basis, v))


# ---------------------------------------------------------------------------
# total cost


def test_total_cost_zero_and_pythagoras():
    problem = make_random_problem(2, 1, seed=0, cameras_per_landmark=2)
    cameras = np.zeros((2, 3, 4))
    cameras[:, 2, 3] = 1.0  # z row picks the homogeneous 1
    state = ProjectiveState(cameras, np.array([[0.0, 0.0, 0.0, 1.0]]))
    problem_zero = type(problem)(
        num_cameras=2, num_landmarks=1, num_observations=2,
        camera_indices=problem.camera_indices, landmark_indices=problem.landmark_indices,
        measurements=np.zeros((2, 2)))
    assert total_cost(state, problem_zero, STAGE1, 0.0) == 0.0
    # single observation with stage-2 residual (3, 4) -> cost 25
    cam = np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1)
    st2 = ProjectiveState(cam[None], np.array([[3.0, 4.0, 1.0, 0.0]]))
    one_obs = type(problem)(
        num_cameras=1, num_landmarks=1, num_observations=1,
        camera_indices=np.array([0]), landmark_indices=np.array([0]),
        measurements=np.zeros((1, 2)))
    assert total_cost(st2, one_obs, STAGE2) == pytest.approx(25.0, abs=1e-12)


def test_total_cost_decomposes_over_observations(rng):
    problem = make_random_problem(3, 6, seed=5)
    state = make_random_state(problem, 6, STAGE1)
    eta = 0.25
    total = total_cost(state, problem, STAGE1, eta)
    parts = 0.0
    for k in range(problem.num_observations):
        r = pose_residual(state.cameras[problem.camera_indices[k]],
                          state.landmarks[problem.landmark_indices[k]],
                          problem.measurements[k], eta)
        parts += float(r @ r)
    assert total == pytest.approx(parts, rel=1e-12)


@pytest.mark.parametrize("s", [0.01, 37.5])
def test_stage1_equivariant_under_measurement_scaling(s):
    # m -> m / s, P -> diag(1/s, 1/s, 1) P scales every stage-1 residual by 1/s
    # and leaves the landmark optimum alone: measurement normalization moves
    # the start and the stop tests, not the stage-1 minimizers
    rng = np.random.default_rng(17)
    problem = make_random_problem(5, 12, seed=18)
    state = make_random_state(problem, 19, STAGE1)
    eta = rng.uniform(0.05, 0.95)
    scaled = problem.rescaled(s)
    assert scaled.plan is problem.plan
    scaled_state = ProjectiveState(state.cameras * np.array([1 / s, 1 / s, 1.0])[:, None],
                                   state.landmarks)
    pixel_cost = total_cost(state, problem, STAGE1, eta)
    assert total_cost(scaled_state, scaled, STAGE1, eta) * s**2 == pytest.approx(
        pixel_cost, rel=1e-12)
    landmarks = solve_landmarks(state, problem, eta).landmarks
    np.testing.assert_allclose(solve_landmarks(scaled_state, scaled, eta).landmarks,
                               landmarks, rtol=0, atol=1e-10)


def test_total_cost_stage2_infinite_on_degenerate():
    cam = np.zeros((1, 3, 4))
    cam[0, 0, 0] = 1.0
    state = ProjectiveState(cam, np.array([[1.0, 0.0, 0.0, 0.0]]))
    problem = make_random_problem(2, 1, seed=0, cameras_per_landmark=2)
    one_obs = type(problem)(
        num_cameras=1, num_landmarks=1, num_observations=1,
        camera_indices=np.array([0]), landmark_indices=np.array([0]),
        measurements=np.zeros((1, 2)))
    assert total_cost(state, one_obs, STAGE2) == math.inf


# ---------------------------------------------------------------------------
# closed-form landmark solve


def test_solve_landmarks_recovers_ground_truth(rng):
    # measurements constructed so the true landmark zeroes the residual:
    # scale each camera's third row so the depth is exactly one
    for trial in range(10):
        n_cams = int(rng.integers(2, 6))
        truth = np.append(rng.standard_normal(3), 1.0)
        cameras = rng.standard_normal((n_cams, 3, 4))
        for c in cameras:
            c[2] /= c[2] @ truth
        meas = np.einsum("nij,j->ni", cameras[:, :2, :], truth)
        problem = make_random_problem(n_cams, 1, seed=trial, cameras_per_landmark=n_cams)
        problem = type(problem)(
            num_cameras=n_cams, num_landmarks=1, num_observations=n_cams,
            camera_indices=np.arange(n_cams), landmark_indices=np.zeros(n_cams, dtype=int),
            measurements=meas)
        state = ProjectiveState(cameras, np.array([[0.0, 0, 0, 1]]))
        out = solve_landmarks(state, problem, rng.uniform(0, 1)).landmarks
        np.testing.assert_allclose(out[0], truth, atol=1e-10)


def test_solve_landmarks_zero_rhs_gives_origin(rng):
    cameras = rng.standard_normal((3, 3, 4))
    cameras[:, :, 3] = 0.0  # zero fourth column -> zero offset rows
    problem = make_random_problem(3, 1, seed=0, cameras_per_landmark=3)
    problem = type(problem)(
        num_cameras=3, num_landmarks=1, num_observations=3,
        camera_indices=np.arange(3), landmark_indices=np.zeros(3, dtype=int),
        measurements=np.zeros((3, 2)))
    state = ProjectiveState(cameras, np.array([[5.0, 5, 5, 1]]))
    out = solve_landmarks(state, problem, 0.1).landmarks
    np.testing.assert_allclose(out[0], [0, 0, 0, 1], atol=1e-12)


def test_solve_landmarks_is_optimal_under_perturbation(rng):
    problem = make_random_problem(4, 5, seed=8)
    state = make_random_state(problem, 9, STAGE1)
    eta = 0.1
    solved = ProjectiveState(state.cameras, solve_landmarks(state, problem, eta).landmarks)
    base = total_cost(solved, problem, STAGE1, eta)
    assert base <= total_cost(state, problem, STAGE1, eta)
    for _ in range(20):
        j = int(rng.integers(0, problem.num_landmarks))
        perturbed = np.array(solved.landmarks)
        perturbed[j, :3] += rng.standard_normal(3) * 0.1
        cost = total_cost(ProjectiveState(solved.cameras, perturbed), problem, STAGE1, eta)
        assert cost >= base


def test_solve_landmarks_degenerate_left_unchanged(caplog):
    # a single zero camera gives a rank-zero system for its landmark
    cameras = np.zeros((2, 3, 4))
    problem = make_random_problem(2, 1, seed=0, cameras_per_landmark=2)
    problem = type(problem)(
        num_cameras=2, num_landmarks=1, num_observations=2,
        camera_indices=np.arange(2), landmark_indices=np.zeros(2, dtype=int),
        measurements=np.ones((2, 2)))
    state = ProjectiveState(cameras, np.array([[7.0, 8.0, 9.0, 1.0]]))
    with caplog.at_level("WARNING"):
        out = solve_landmarks(state, problem, 0.1).landmarks
    np.testing.assert_array_equal(out[0], [7.0, 8.0, 9.0, 1.0])
    assert any("rank-deficient" in r.message for r in caplog.records)


def mixed_track_problem():
    """Tracks of 2-6 views over unsorted observations; landmark 10 is unobserved,
    landmark 11 is seen only by two cameras whose first column is scaled by
    1e-7, an eigenvalue ratio near 3e-15 in its normal equations."""
    rng = np.random.default_rng(41)
    cameras = rng.standard_normal((8, 3, 4))
    cameras[6:, :, 0] *= 1e-7
    cam_idx, lm_idx = [], []
    for j in range(10):
        views = rng.choice(6, size=2 + j % 5, replace=False)
        cam_idx += views.tolist()
        lm_idx += [j] * len(views)
    cam_idx += [6, 7]
    lm_idx += [11, 11]
    order = rng.permutation(len(cam_idx))
    problem = BaProblem(8, 12, len(cam_idx), np.array(cam_idx)[order],
                        np.array(lm_idx)[order], 2.0 * rng.standard_normal((len(cam_idx), 2)))
    start = np.concatenate([rng.standard_normal((12, 3)), np.ones((12, 1))], axis=1)
    start[10, 3] = start[11, 3] = 2.5  # left alone, so the scale must survive
    return problem, ProjectiveState(cameras, start)


def test_solve_landmarks_matches_per_landmark_lstsq(caplog):
    problem, state = mixed_track_problem()
    cameras, start = state.cameras, state.landmarks
    eta = 0.3
    with caplog.at_level("WARNING"):
        out = solve_landmarks(state, problem, eta).landmarks

    warnings = [r.getMessage() for r in caplog.records if "rank-deficient" in r.getMessage()]
    assert warnings == ["left 1 landmarks unchanged: rank-deficient closed-form systems"]
    np.testing.assert_array_equal(out[10:], start[10:])
    origin = np.array([0.0, 0.0, 0.0, 1.0])
    for j in range(10):
        rows_a, rows_c = [], []
        for k in np.nonzero(problem.landmark_indices == j)[0]:
            cam = cameras[problem.camera_indices[k]]
            m = problem.measurements[k]
            rows_a.append(pose_jacobians(cam, start[j], m, eta)[1])
            rows_c.append(pose_residual(cam, origin, m, eta))
        expected = np.linalg.lstsq(np.vstack(rows_a), -np.concatenate(rows_c), rcond=None)[0]
        np.testing.assert_allclose(out[j, :3], expected, rtol=0, atol=1e-12 * max(
            1.0, np.abs(expected).max()))
        assert out[j, 3] == 1.0

    # a stage-1 linearization at the re-solved point is stationary in every
    # solved landmark and flags exactly the skipped ones as degenerate
    system = assemble(build_stage1_blocks(problem, ProjectiveState(cameras, out), eta), 1e-4)
    np.testing.assert_array_equal(system.v_degenerate, np.arange(12) >= 10)
    scale = np.linalg.norm(system.v[:10], axis=(1, 2))
    assert np.all(np.linalg.norm(system.b_l[:10], axis=1) <= 1e-12 * np.maximum(1.0, scale))


@pytest.mark.parametrize("lam", [1e-4, 0.37])
def test_linearization_from_resolve_equals_fresh(lam):
    # the re-solve's V, A^T c and V^+ stand in for the ones a fresh
    # linearization at the re-solved point forms, bit for bit
    problem, state = mixed_track_problem()
    eta = 0.3
    resolved = solve_landmarks(state, problem, eta)
    at = ProjectiveState(state.cameras, resolved.landmarks)
    rows = build_stage1_blocks(problem, at, eta, resolved)
    fresh_rows = build_stage1_blocks(problem, at, eta)
    np.testing.assert_array_equal(rows.v, fresh_rows.v)
    np.testing.assert_array_equal(rows.b_l, fresh_rows.b_l)
    reused, fresh = assemble(rows, lam), assemble(fresh_rows, lam)
    # the unobserved and the rank-deficient landmark are both covered
    np.testing.assert_array_equal(reused.v_degenerate, np.arange(12) >= 10)
    assemble(rows, 1e-4)  # another damping of the same sums first
    for got, want in ((reused, fresh), (assemble(rows, lam), fresh)):
        for name in ("u_blocks", "v_blocks", "v_inv", "v_degenerate", "b_p", "b_l"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for name in ("gt", "x"):
            np.testing.assert_array_equal(getattr(got.factors, name), getattr(want.factors, name))


def test_solve_landmarks_gradient_small(rng):
    problem = make_random_problem(6, 10, seed=21)
    state = make_random_state(problem, 22, STAGE1)
    eta = 0.1
    lms = solve_landmarks(state, problem, eta).landmarks
    # analytic per-landmark gradient 2 A^T (A v + c), assembled independently
    for j in range(problem.num_landmarks):
        rows_a, rows_c = [], []
        for k in range(problem.num_observations):
            if problem.landmark_indices[k] != j:
                continue
            cam = state.cameras[problem.camera_indices[k]]
            m = problem.measurements[k]
            _, jl = pose_jacobians(cam, lms[j], m, eta)
            rows_a.append(jl)
            rows_c.append(pose_residual(cam, lms[j], m, eta))
        a = np.vstack(rows_a)
        r = np.concatenate(rows_c)
        grad = 2 * a.T @ r
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(r) ** 2)


# ---------------------------------------------------------------------------
# pseudo-inverse of the landmark blocks


def psd_blocks_with_spectra(rng, spectra):
    """Symmetric blocks Q diag(s) Q^T with random rotations Q and random scales."""
    blocks = []
    for s in spectra:
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        b = (q * (np.asarray(s) * 10.0 ** rng.uniform(-6, 6))) @ q.T
        blocks.append(0.5 * (b + b.T))
    return np.array(blocks)


def eigh_pinv_oracle(block, rel_tol):
    """One block at a time: eigenvalues at or below rel_tol * trace are dropped."""
    w, q = np.linalg.eigh(block)
    keep = w > rel_tol * max(np.trace(block), 0.0)
    return (q[:, keep] / w[keep]) @ q[:, keep].T, not keep.all()


def test_pinv_psd_3x3_matches_eigh_oracle():
    rng = np.random.default_rng(17)
    spectra = (
        [rng.uniform(0.1, 1.0, 3) for _ in range(40)]  # well conditioned
        + [[10.0 ** -rng.uniform(0, 5), 1.0, rng.uniform(1, 2)] for _ in range(200)]  # to 1e5
        + [[10.0 ** -rng.uniform(6, 9), 1.0, 2.0] for _ in range(20)]  # near-singular
        + [[10.0 ** -rng.uniform(13, 16), 1.0, 2.0] for _ in range(20)]  # below the cutoff
        + [[0.0, 0.0, 1.0]] * 20 + [[0.0, 1.0, 3.0]] * 20  # rank 1 and 2
    )
    blocks = np.concatenate([psd_blocks_with_spectra(rng, spectra), np.zeros((2, 3, 3))])
    # rank-deficient blocks as products, as the normal equations form them
    a = rng.standard_normal((20, 3, 2))
    blocks = np.concatenate([blocks, a @ a.transpose(0, 2, 1), a[:, :, :1] * a[:, None, :, 0]])
    certified = objective._closed_form_inverse_3x3(blocks)[1]
    assert 0 < certified.sum() < len(blocks)  # both paths are exercised

    pinv, degenerate = pinv_psd(blocks)
    for k, block in enumerate(blocks):
        want, want_degenerate = eigh_pinv_oracle(block, V_PINV_TOL)
        assert degenerate[k] == want_degenerate, k
        err = np.linalg.norm(pinv[k] - want)
        assert err <= 1e-12 * np.linalg.norm(want), (k, err)


def test_pinv_psd_skips_eigh_when_every_block_is_certified(monkeypatch):
    # a batch inverted in closed form throughout sends nothing to eigh
    rng = np.random.default_rng(5)
    blocks = psd_blocks_with_spectra(rng, [rng.uniform(0.5, 1.0, 3) for _ in range(30)])
    assert objective._closed_form_inverse_3x3(blocks)[1].all()
    calls = []
    real_eigh_pinv = objective._eigh_pinv

    def spy(batch):
        calls.append(len(batch))
        return real_eigh_pinv(batch)

    monkeypatch.setattr(objective, "_eigh_pinv", spy)
    pinv, degenerate = pinv_psd(blocks)
    assert calls == []
    assert not degenerate.any()
    np.testing.assert_allclose(pinv @ blocks, np.broadcast_to(np.eye(3), blocks.shape),
                               rtol=0, atol=1e-12)
    # one uncertified block sends that block alone
    pinv_psd(np.concatenate([blocks, np.zeros((1, 3, 3))]))
    assert calls == [1]
