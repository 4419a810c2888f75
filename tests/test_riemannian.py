import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratba.bal_io import ProjectiveState, random_init
from stratba.normal_eq import BOTH, CouplingFactors, assemble, back_substitute
from stratba.objective import STAGE1, STAGE2, total_cost
from stratba.riemannian import (
    project_blocks,
    retract,
    riemannian_step,
    state_tangent_bases,
    tangent_basis,
)
from stratba.solvers import (
    SolverConfig,
    lm_minimize,
    pcg_schur_solve,
    power_schur_solve,
)
from stratba.synth import ground_truth_state, make_ring_problem
from tests.conftest import dense_uwv, make_random_problem, make_random_state, oracle_rows


def test_tangent_basis_axis_case():
    b = tangent_basis(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(b, np.eye(4)[:, 1:], atol=1e-15)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 12]))
def test_tangent_basis_defining_properties(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    b = tangent_basis(v)
    assert b.shape == (dim, dim - 1)
    np.testing.assert_allclose(b.T @ v, 0.0, atol=1e-12)
    np.testing.assert_allclose(b.T @ b, np.eye(dim - 1), atol=1e-12)


def test_tangent_basis_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        tangent_basis(np.array([2.0, 0.0, 0.0]))


def test_retraction_along_basis_stays_on_sphere(rng):
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    b = tangent_basis(v)
    for k in range(b.shape[1]):
        moved = v + 1e-4 * b[:, k]
        assert abs(np.linalg.norm(moved / np.linalg.norm(moved)) - 1.0) < 1e-15


def test_project_blocks_kills_normal_directions():
    problem = make_random_problem(3, 5, seed=1)
    state = make_random_state(problem, 2, STAGE2)
    # rank-one cameras P_c = g_c h_c^T: a pose Jacobian row g_c (x) h_c^T is vec(P_c)
    rng = np.random.default_rng(3)
    g, h = rng.standard_normal((3, 3)), rng.standard_normal((3, 4))
    state = retract(ProjectiveState(g[:, :, None] * h[:, None, :], state.landmarks))
    rows = oracle_rows(problem, state, STAGE2)
    bases = state_tangent_bases(state)
    # rows proportional to the parameter vector lie in the basis null space
    cams = rows.camera
    rows.pose_factor[...] = g[cams][:, None, :]
    rows.pose_landmark[...] = h[cams]
    scaled = state.cameras.reshape(-1, 12) * (np.linalg.norm(g, axis=1)
                                               * np.linalg.norm(h, axis=1))[:, None]
    np.testing.assert_allclose(rows.pose_jac, np.broadcast_to(
        scaled[cams][:, None, :], rows.pose_jac.shape), rtol=1e-12)
    rows.lm_jac[...] = state.landmarks[rows.landmark][:, None, :]
    sums = rows.sums()
    # any 3-wide landmark-side factor: W's pose rows are vec(P_c), so the
    # camera bases that project_blocks attaches zero its blocks on their own
    factors = sums.factors
    sums.factors = CouplingFactors(factors.plan, factors.gt @ rng.standard_normal((4, 3)),
                                   factors.x)
    projected = project_blocks(sums, bases)
    for name in ("u", "b_p", "v", "b_l"):
        np.testing.assert_allclose(getattr(projected, name), 0.0, atol=1e-12)
    np.testing.assert_allclose(projected.factors.blocks(), 0.0, atol=1e-12)


def test_tangent_basis_axis_projection_selects_columns(rng):
    # with the basis of a first-axis unit vector, projection drops column 0
    j = rng.standard_normal((2, 4))
    b = tangent_basis(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(j @ b, j[:, 1:], atol=1e-15)


def test_project_blocks_matches_dense_products():
    problem = make_random_problem(3, 6, seed=3)
    state = make_random_state(problem, 4, STAGE2)
    bases = state_tangent_bases(state)
    projected = riemannian_step(problem, state, bases)
    # the sums of the per-observation rows, each right-multiplied by its tangent basis
    oracle = oracle_rows(problem, state, STAGE2).project(bases).sums()
    for name in ("u", "b_p", "v", "b_l"):
        np.testing.assert_allclose(getattr(projected, name), getattr(oracle, name), atol=1e-13)
    # the projected coupling: the landmark-side factor G^T B_l, x, and the camera bases
    for name in ("gt", "x", "camera_bases"):
        np.testing.assert_allclose(getattr(projected.factors, name),
                                   getattr(oracle.factors, name), atol=1e-13)
    np.testing.assert_allclose(projected.factors.blocks(), oracle.factors.blocks(), atol=1e-13)
    assert projected.u.shape[1:] == (11, 11) and projected.v.shape[1:] == (3, 3)
    assert projected.factors.gt.shape[1:] == (3, 3)
    assert projected.factors.blocks().shape[1:] == (11, 3)


def test_riemannian_step_zero_gradient_zero_update():
    problem = make_ring_problem(4, 12, 0.0, seed=2)
    state = retract(ground_truth_state(problem))
    assert total_cost(state, problem, STAGE2) <= 1e-18
    cfg = SolverConfig()
    system = assemble(riemannian_step(problem, state, state_tangent_bases(state)),
                      cfg.initial_lambda, BOTH)
    rep = power_schur_solve(system, cfg)
    np.testing.assert_allclose(rep.pose_update, 0.0, atol=1e-12)
    np.testing.assert_allclose(back_substitute(system, rep.pose_update), 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_riemannian_step_matches_dense_solve(seed):
    problem = make_random_problem(3, 9, seed=seed)
    state = make_random_state(problem, seed + 30, STAGE2)
    lam = 3.0
    cfg = SolverConfig(power_order=20, power_threshold=0.0)
    bases = state_tangent_bases(state)
    step = assemble(riemannian_step(problem, state, bases), lam, BOTH)
    rep = power_schur_solve(step, cfg)

    u, w, v = dense_uwv(step)
    h = np.block([[u, w], [w.T, v]])
    g = np.concatenate([step.b_p.ravel(), step.b_l.ravel()])
    sol = np.linalg.solve(h, -g)
    got = np.concatenate([rep.pose_update, back_substitute(step, rep.pose_update)])
    assert np.linalg.norm(got - sol) / np.linalg.norm(sol) <= 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_riemannian_power_vs_pcg(seed):
    problem = make_random_problem(3, 9, seed=seed + 10)
    state = make_random_state(problem, seed + 40, STAGE2)
    bases = state_tangent_bases(state)
    system = assemble(riemannian_step(problem, state, bases), 3.0, BOTH)
    a = power_schur_solve(system, SolverConfig(power_order=20, power_threshold=0.0))
    b = pcg_schur_solve(system, SolverConfig(pcg_tolerance=1e-10, inner_iterations=5000))
    rel = np.linalg.norm(a.pose_update - b.pose_update) / np.linalg.norm(b.pose_update)
    assert rel <= 1e-5


def test_retract_idempotent_and_scale_invariant(rng):
    problem = make_random_problem(3, 5, seed=7)
    state = make_random_state(problem, 8, STAGE2)
    once = retract(state)
    twice = retract(once)
    np.testing.assert_allclose(once.cameras, twice.cameras, atol=1e-15)
    np.testing.assert_allclose(once.landmarks, twice.landmarks, atol=1e-15)

    scaled = ProjectiveState(state.cameras * 7.0, state.landmarks)
    c1 = total_cost(state, problem, STAGE2)
    c2 = total_cost(scaled, problem, STAGE2)
    assert c1 == pytest.approx(c2, rel=1e-12)
    back = retract(scaled)
    np.testing.assert_allclose(np.abs(np.linalg.norm(back.cameras.reshape(-1, 12), axis=1)),
                               1.0, atol=1e-15)


def test_retract_zero_norm_errors():
    cams = np.zeros((1, 3, 4))
    with pytest.raises(ValueError, match="zero-norm"):
        retract(ProjectiveState(cams, np.array([[1.0, 0, 0, 0]])))


def test_lift_preserves_directions_and_residuals():
    problem = make_ring_problem(4, 10, 0.0, seed=4)
    state = random_init(problem, 1)
    lifted = retract(state)
    norms_c = np.linalg.norm(lifted.cameras.reshape(-1, 12), axis=1)
    norms_l = np.linalg.norm(lifted.landmarks, axis=1)
    np.testing.assert_allclose(norms_c, 1.0, atol=1e-15)
    np.testing.assert_allclose(norms_l, 1.0, atol=1e-15)
    # directions preserved
    orig = state.cameras.reshape(-1, 12)
    unit = orig / np.linalg.norm(orig, axis=1, keepdims=True)
    np.testing.assert_allclose(np.abs(np.einsum("ni,ni->n", unit,
                                                lifted.cameras.reshape(-1, 12))), 1.0,
                               atol=1e-14)
    # projective cost invariant under the normalization
    c_before = total_cost(state, problem, STAGE2)
    c_after = total_cost(lifted, problem, STAGE2)
    assert c_before == pytest.approx(c_after, rel=1e-9)


def test_lift_single_landmark_example():
    cams = np.zeros((1, 3, 4))
    cams[0, 0, 0] = 1.0
    state = ProjectiveState(cams, np.array([[3.0, 0.0, 0.0, 1.0]]))
    lifted = retract(state)
    np.testing.assert_allclose(lifted.landmarks[0],
                               np.array([3.0, 0, 0, 1.0]) / np.sqrt(10.0), atol=1e-15)


def test_tangent_gradient_consistency():
    # directional derivative of the stage-2 cost along each tangent basis
    # column equals twice the projected gradient entry
    problem = make_random_problem(3, 5, seed=11)
    state = make_random_state(problem, 12, STAGE2)
    bases = state_tangent_bases(state)
    system = assemble(riemannian_step(problem, state, bases), 0.0, BOTH)
    for i in range(problem.num_cameras):
        for k in range(11):
            direction = bases.camera_bases[i][:, k]
            h = 1e-7

            def cost_at(eps):
                cams = np.array(state.cameras)
                cams[i] = (state.cameras[i].reshape(12) + eps * direction).reshape(3, 4)
                return total_cost(ProjectiveState(cams, state.landmarks), problem, STAGE2)

            fd = (cost_at(h) - cost_at(-h)) / (2 * h)
            expected = 2.0 * system.b_p[i, k]
            assert abs(fd - expected) <= 1e-6 * max(1.0, abs(expected))


def test_stage2_accepted_steps_keep_unit_norms():
    problem = make_ring_problem(4, 12, 0.0, seed=6)
    state = random_init(problem, 2)
    s1, _ = lm_minimize(problem, state, STAGE1, SolverConfig())
    lifted = retract(s1)
    final, _ = lm_minimize(problem, lifted, STAGE2, SolverConfig(max_iterations=10))
    np.testing.assert_allclose(np.linalg.norm(final.cameras.reshape(-1, 12), axis=1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(final.landmarks, axis=1), 1.0, atol=1e-12)
