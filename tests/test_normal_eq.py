import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from stratba import normal_eq, objective
from stratba.bal_io import BaProblem, ProjectiveState, load_bal, prune_underobserved, write_bal
from stratba.normal_eq import (
    BOTH,
    POSE_ONLY,
    apply_schur,
    assemble,
    back_substitute,
    build_stage1_blocks,
    build_stage2_blocks,
    dense_coupling,
    dense_schur,
    schur_matrix,
    schur_rhs,
)
from stratba.objective import (
    STAGE1,
    STAGE2,
    pinv_psd,
    solve_landmarks,
    stage1_landmark_normals,
    stage1_residuals,
    total_cost,
)
from stratba.riemannian import riemannian_step, state_tangent_bases
from tests.conftest import (
    OracleRows,
    dense_damped_hessian,
    dense_jacobian,
    dense_rows_jacobian,
    dense_uwv,
    dense_w,
    make_random_problem,
    make_random_state,
    make_varpro_system,
    oracle_rows,
    with_repeated_observations,
)


# the landmark x = e_0: a pose Jacobian D (x) x^T puts D's column i into pose column 4 i
E0 = np.array([1.0, 0.0, 0.0, 0.0])


def single_observation_store(d, x, jl, res, n_cameras=1, n_landmarks=1, cam=0, lm=0):
    """Block sums of one observation with pose Jacobian d (x) x^T and landmark Jacobian jl."""
    problem = BaProblem(n_cameras, n_landmarks, 1, np.array([cam]), np.array([lm]),
                        np.zeros((1, 2)))
    return OracleRows(problem.plan, np.array([cam]), np.array([lm]), d[None], x[None], jl[None],
                      res[None]).sums()


def test_assemble_single_observation_direct_products():
    d = np.eye(4, 3)  # rows 0-2 of the pose Jacobian hit pose columns 0, 4 and 8
    jl = np.zeros((4, 3))
    res = np.array([1.0, 0.0, 0.0, 0.0])
    system = assemble(single_observation_store(d, E0, jl, res), 0.0, POSE_ONLY)
    expected_u = np.zeros((12, 12))
    expected_u[[0, 4, 8], [0, 4, 8]] = 1.0
    np.testing.assert_array_equal(system.u_blocks[0], expected_u)
    np.testing.assert_array_equal(system.v_blocks[0], np.zeros((3, 3)))
    np.testing.assert_array_equal(system.factors.blocks()[0], np.zeros((12, 3)))
    expected_bp = np.zeros(12)
    expected_bp[0] = 1.0
    np.testing.assert_array_equal(system.b_p[0], expected_bp)
    np.testing.assert_array_equal(system.b_l[0], np.zeros(3))


def test_damping_doubles_only_diagonal(rng):
    problem = make_random_problem(3, 5, seed=1)
    state = make_random_state(problem, 2, STAGE1)
    blocks = build_stage1_blocks(problem, state, 0.1)
    s1 = assemble(blocks, 0.5, POSE_ONLY)
    s2 = assemble(blocks, 1.0, POSE_ONLY)
    diff = s2.u_blocks - s1.u_blocks
    off_diag = diff - np.eye(12) * np.einsum("nii->ni", diff)[:, :, None] * 0
    for n in range(len(diff)):
        d = np.diag(np.diag(diff[n]))
        np.testing.assert_allclose(diff[n], d, atol=1e-12)
    # diagonal increment equals 0.5 * diag(Jp^T Jp) when inside the clamp range
    s0 = assemble(blocks, 0.0, POSE_ONLY)
    base_diag = np.einsum("nii->ni", s0.u_blocks)
    clamped = np.clip(np.sqrt(base_diag), 1e-6, 1e6) ** 2
    np.testing.assert_allclose(np.einsum("nii->ni", diff), 0.5 * clamped, rtol=1e-12)
    np.testing.assert_array_equal(s1.v_blocks, s2.v_blocks)


@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assemble_matches_dense_oracle(mode, seed):
    problem = make_random_problem(3, 5, seed=seed)
    state = make_random_state(problem, seed + 50, STAGE1)
    lam = 0.37
    blocks = build_stage1_blocks(problem, state, 0.1)
    system = assemble(blocks, lam, mode)

    jac, res, d_p, d_l = dense_jacobian(problem, state, STAGE1, eta=0.1)
    h, g = dense_damped_hessian(jac, res, problem.num_cameras, d_p, lam, mode)
    pc = problem.num_cameras * d_p
    for i in range(problem.num_cameras):
        np.testing.assert_allclose(system.u_blocks[i],
                                   h[i * d_p:(i + 1) * d_p, i * d_p:(i + 1) * d_p],
                                   atol=1e-12 * max(1, np.abs(h).max()))
        np.testing.assert_allclose(system.b_p[i], g[i * d_p:(i + 1) * d_p],
                                   atol=1e-12 * max(1, np.abs(g).max()))
    for j in range(problem.num_landmarks):
        np.testing.assert_allclose(system.v_blocks[j],
                                   h[pc + j * d_l:pc + (j + 1) * d_l,
                                     pc + j * d_l:pc + (j + 1) * d_l],
                                   atol=1e-12 * max(1, np.abs(h).max()))
        np.testing.assert_allclose(system.b_l[j], g[pc + j * d_l:pc + (j + 1) * d_l],
                                   atol=1e-12 * max(1, np.abs(g).max()))
    # coupling blocks from W's factors: one per observation (no pair repeats)
    plan = problem.plan
    blocks = system.factors.blocks()
    assert len(blocks) == problem.num_observations
    for block, cam, lm in zip(blocks, plan.pair_camera, plan.pair_landmark):
        expected = h[cam * d_p:(cam + 1) * d_p, pc + lm * d_l:pc + (lm + 1) * d_l]
        np.testing.assert_allclose(block, expected, atol=1e-12 * max(1, np.abs(h).max()))
    # W v and W^T t are the products with those blocks
    w = h[:pc, pc:]
    rng = np.random.default_rng(seed)
    t, v = rng.standard_normal(pc), rng.standard_normal(w.shape[1])
    np.testing.assert_allclose(system.factors.matvec(v), w @ v,
                               atol=1e-12 * max(1, np.abs(w).sum(axis=1).max()))
    np.testing.assert_allclose(system.factors.rmatvec(t), w.T @ t,
                               atol=1e-12 * max(1, np.abs(w).sum(axis=0).max()))


def dense_blocks_from_oracle(problem, state, lam, mode, eta=0.1):
    """U, V, W, b as dense matrices straight from the stacked Jacobian."""
    jac, res, d_p, d_l = dense_jacobian(problem, state, STAGE1, eta)
    h, g = dense_damped_hessian(jac, res, problem.num_cameras, d_p, lam, mode)
    pc = problem.num_cameras * d_p
    u = h[:pc, :pc]
    v = h[pc:, pc:]
    w = h[:pc, pc:]
    return u, v, w, g[:pc], g[pc:]


@pytest.mark.parametrize("seed", [3, 4])
def test_schur_rhs_apply_backsub_match_dense(seed):
    system, problem, state = make_varpro_system(4, 8, seed, lam=0.21)
    u, v, w, b_p, b_l = dense_blocks_from_oracle(problem, state, 0.21, POSE_ONLY)
    v_inv = np.linalg.inv(v)
    rhs_expected = -(b_p - w @ v_inv @ b_l)
    np.testing.assert_allclose(schur_rhs(system), rhs_expected,
                               atol=1e-11 * max(1, np.abs(rhs_expected).max()))
    s_dense = u - w @ v_inv @ w.T
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(system.pose_dim)
    np.testing.assert_allclose(apply_schur(system, x), s_dense @ x,
                               atol=1e-11 * max(1, np.abs(s_dense @ x).max()))
    np.testing.assert_allclose(dense_schur(system), s_dense,
                               atol=1e-11 * max(1, np.abs(s_dense).max()))
    # back substitution solves the second block row
    dx_p = rng.standard_normal(system.pose_dim)
    dx_l = back_substitute(system, dx_p)
    residual = w.T @ dx_p + v @ dx_l + b_l
    assert np.linalg.norm(residual) <= 1e-8 * max(1, np.linalg.norm(b_l))


def test_full_normal_equations_satisfied_on_small_instance():
    system, problem, state = make_varpro_system(3, 6, seed=10, lam=0.11)
    u, v, w, b_p, b_l = dense_blocks_from_oracle(problem, state, 0.11, POSE_ONLY)
    h = np.block([[u, w], [w.T, v]])
    g = np.concatenate([b_p, b_l])
    sol = np.linalg.solve(h, -g)
    s_dense = dense_schur(system)
    dx_p = np.linalg.solve(s_dense, schur_rhs(system))
    dx_l = back_substitute(system, dx_p)
    stacked = np.concatenate([dx_p, dx_l])
    assert np.linalg.norm(stacked - sol) <= 1e-8 * max(1, np.linalg.norm(sol))


def test_schur_rhs_trivial_cases():
    d = np.zeros((4, 3))
    d[0, 0] = 1.0  # the pose Jacobian's only nonzero entry is (0, 0)
    res = np.array([2.0, 0, 0, 0])
    # W = 0 since Jl = 0
    system = assemble(single_observation_store(d, E0, np.zeros((4, 3)), res), 0.0, POSE_ONLY)
    np.testing.assert_array_equal(schur_rhs(system), -system.b_p.ravel())
    x = np.arange(12.0)
    np.testing.assert_allclose(apply_schur(system, x),
                               np.einsum("ij,j->i", system.u_blocks[0], x), atol=1e-14)
    np.testing.assert_allclose(apply_schur(system, np.zeros(12)), 0.0, atol=0)
    np.testing.assert_array_equal(back_substitute(system, np.zeros(12)), np.zeros(3))


def test_schur_rhs_zero_landmark_gradient():
    # W nonzero but b_l = 0: the reduction leaves -b_p untouched
    system, _, _ = make_varpro_system(3, 6, seed=14, lam=0.2)
    system.b_l[...] = 0.0
    np.testing.assert_allclose(schur_rhs(system), -system.b_p.ravel(), atol=1e-14)


def test_back_substitute_decoupled_nonzero_gradient(rng):
    # J_p = 0 rows: W = 0 and the landmark update is -V^{-1} b_l exactly
    jl = rng.standard_normal((4, 3))
    res = rng.standard_normal(4)
    system = assemble(single_observation_store(np.zeros((4, 3)), E0, jl, res), 0.0, POSE_ONLY)
    upd = back_substitute(system, np.zeros(12))
    expected = -np.linalg.solve(jl.T @ jl, jl.T @ res)
    np.testing.assert_allclose(upd, expected, atol=1e-10)


def test_apply_schur_linearity():
    system, _, _ = make_varpro_system(4, 10, seed=6, lam=1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(system.pose_dim)
    y = rng.standard_normal(system.pose_dim)
    lhs = apply_schur(system, x + y)
    rhs = apply_schur(system, x) + apply_schur(system, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))


def test_v_blocks_positive_semidefinite():
    for seed in range(5):
        system, _, _ = make_varpro_system(5, 12, seed=seed, lam=1e-4)
        eigs = np.linalg.eigvalsh(system.v_blocks)
        assert eigs.min() >= -1e-10
        assert (np.linalg.eigvalsh(system.u_blocks) > 0).all()


def test_v_blocks_positive_definite_in_both_mode():
    problem = make_random_problem(4, 6, seed=2)
    state = make_random_state(problem, 3, STAGE1)
    blocks = build_stage1_blocks(problem, state, 0.1)
    system = assemble(blocks, 0.5, BOTH)
    assert (np.linalg.eigvalsh(system.v_blocks) > 0).all()


def test_blocks_reference_strictly_increasing_cameras():
    problem = make_random_problem(6, 9, seed=4)
    state = make_random_state(problem, 5, STAGE1)
    plan = problem.plan
    # camera-major pairs: cameras non-decreasing, landmarks strictly increasing per camera
    assert (np.diff(plan.pair_camera) >= 0).all()
    for c in range(problem.num_cameras):
        seg = plan.pair_landmark[plan.pair_camera_ptr[c]:plan.pair_camera_ptr[c + 1]]
        assert (np.diff(seg) > 0).all()
        assert (plan.pair_camera[plan.pair_camera_ptr[c]:plan.pair_camera_ptr[c + 1]] == c).all()
    # landmark-major pairs: strictly increasing cameras within each landmark
    for lm in range(problem.num_landmarks):
        seg = plan.landmark_pairs[plan.landmark_pair_ptr[lm]:plan.landmark_pair_ptr[lm + 1]]
        assert (plan.pair_landmark[seg] == lm).all()
        assert (np.diff(plan.pair_camera[seg]) > 0).all()
    # each observation maps to its pair, and every pair is observed
    np.testing.assert_array_equal(plan.pair_camera[plan.observation_pair], problem.camera_indices)
    np.testing.assert_array_equal(plan.pair_landmark[plan.observation_pair],
                                  problem.landmark_indices)
    assert sorted(plan.observation_pair) == list(range(problem.num_observations))


def test_degenerate_v_block_zero_update():
    # landmark block with Jl = 0 is singular: pinv contributes nothing and the
    # back-substituted update is exactly zero
    d = np.zeros((4, 3))
    d[0, 0] = 3.0  # the pose Jacobian's only nonzero entry is (0, 0)
    res = np.ones(4)
    system = assemble(single_observation_store(d, E0, np.zeros((4, 3)), res), 1e-4, POSE_ONLY)
    assert system.v_degenerate[0]
    upd = back_substitute(system, np.ones(12))
    np.testing.assert_array_equal(upd, np.zeros(3))


@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH, "stage2"])
def test_redamped_equals_fresh_assembly(mode):
    # a second assemble of the kept sums, after the first one's products
    # are formed, equals the system of a fresh linearization
    problem = make_random_problem(4, 9, seed=21)
    if mode == "stage2":
        # the projected tangent-space sums that stage 2 re-damps
        state = make_random_state(problem, 22, STAGE2)

        def linearize():
            return riemannian_step(problem, state, state_tangent_bases(state))
        mode = BOTH
    else:
        state = make_random_state(problem, 22, STAGE1)

        def linearize():
            return build_stage1_blocks(problem, state, 0.1)
    blocks = linearize()
    first = assemble(blocks, 1e-4, mode)
    schur_rhs(first)
    dense_schur(first)
    redamped = assemble(blocks, 0.37, mode)
    fresh = assemble(linearize(), 0.37, mode)
    assert redamped.lam == 0.37
    for name in ("u_blocks", "v_blocks", "v_inv", "v_degenerate", "b_p", "b_l"):
        np.testing.assert_array_equal(getattr(redamped, name), getattr(fresh, name))
    np.testing.assert_array_equal(schur_rhs(redamped), schur_rhs(fresh))
    np.testing.assert_array_equal(dense_schur(redamped), dense_schur(fresh))


def test_pose_only_system_computes_v_pinv_once(monkeypatch):
    # V is not damped in pose-only mode: its pseudo-inverse is formed by the
    # first system into the sums' cache and shared, array for array, by every
    # other damping of the sums
    problem = make_random_problem(4, 9, seed=21)
    sums = build_stage1_blocks(problem, make_random_state(problem, 22, STAGE1), 0.1)
    assert not sums.products  # no re-solve seeded V^+
    calls = []

    def counting_pinv(blocks):
        calls.append(blocks)
        return pinv_psd(blocks)

    monkeypatch.setattr(normal_eq, "pinv_psd", counting_pinv)
    system = assemble(sums, 1e-4, POSE_ONLY)
    redamped = [assemble(sums, 0.37, POSE_ONLY), assemble(sums, 1.5, POSE_ONLY)]
    assert len(calls) == 1 and calls[0] is sums.v
    assert system.products is sums.products
    assert list(sums.products) == [normal_eq._v_pinv]
    v_inv, v_degenerate = sums.products[normal_eq._v_pinv]
    assert v_inv is system.v_inv and v_degenerate is system.v_degenerate
    for other in redamped:
        assert other.v_blocks is sums.v
        assert other.v_inv is system.v_inv
        assert other.v_degenerate is system.v_degenerate


# the products of SchurSystem.lambda_free, by the function that forms each
LAMBDA_FREE = ("dense_coupling", "_sparse_coupling", "_schur_rhs")


@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH])
def test_lambda_free_products_formed_once_per_pose_only_linearization(mode, monkeypatch):
    # V is damped only in both mode: in pose-only mode the coupling (dense
    # and block-sparse) and the reduced right-hand side are formed once, by
    # whichever system asks first, and shared by every system of the same
    # sums; in both mode each system forms its own, once
    monkeypatch.setattr(normal_eq, "_GEMM_SPEEDUP", COUPLING_PATHS["gemm"])
    problem = make_random_problem(4, 9, seed=21)
    state = make_random_state(problem, 22, STAGE1)
    sums = build_stage1_blocks(problem, state, 0.1)

    def products(system):
        return schur_rhs(system), dense_schur(system), schur_matrix(system).toarray()

    fresh = {lam: products(assemble(build_stage1_blocks(problem, state, 0.1), lam, mode))
             for lam in (1e-4, 0.37, 1.5)}
    counts = dict.fromkeys(LAMBDA_FREE, 0)
    for name in LAMBDA_FREE:
        def counting(system, real=getattr(normal_eq, name), name=name):
            counts[name] += 1
            return real(system)

        monkeypatch.setattr(normal_eq, name, counting)
    system = assemble(sums, 1e-4, mode)
    systems = [assemble(sums, 0.37, mode), system, assemble(sums, 1.5, mode)]
    for other in systems:
        for _ in range(2):
            for got, want in zip(products(other), fresh[other.lam]):
                np.testing.assert_array_equal(got, want)
    calls = 1 if mode == POSE_ONLY else len(systems)
    assert counts == dict.fromkeys(LAMBDA_FREE, calls)


@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH])
def test_dense_schur_returns_a_new_matrix(mode):
    # a direct solve factors the returned matrix in place: writing into it
    # leaves the next call's result unchanged
    problem = make_random_problem(4, 9, seed=3)
    sums = build_stage1_blocks(problem, make_random_state(problem, 4, STAGE1), 0.1)
    system = assemble(sums, 0.05, mode)
    s = dense_schur(system)
    assert s.flags.f_contiguous
    want = s.copy()
    s[...] = np.nan
    np.testing.assert_array_equal(dense_schur(system), want)
    rhs = schur_rhs(system)
    if mode == POSE_ONLY:  # shared by every system of the sums: read-only
        with pytest.raises(ValueError):
            rhs[0] = 1.0
        assert schur_rhs(assemble(sums, 1.0, mode)) is rhs


@pytest.mark.parametrize("lam", [1e-4, 0.37])
def test_both_mode_ignores_a_carried_v_pinv(lam):
    # a re-solve's V^+, seeded into the sums' cache, is that of the undamped
    # V: a both-mode system damps V and forms its own, bit-equal to a system
    # built from sums without it
    problem = make_random_problem(5, 12, seed=8)
    eta = 0.1
    state = make_random_state(problem, 9, STAGE1)
    resolved = solve_landmarks(state, problem, eta)
    carried = build_stage1_blocks(problem, ProjectiveState(state.cameras, resolved.landmarks),
                                  eta, resolved)
    assert normal_eq._v_pinv in carried.products
    plain = dataclasses.replace(carried, products={})
    got, want = assemble(carried, lam, BOTH), assemble(plain, lam, BOTH)
    assert not np.array_equal(got.v_inv, carried.products[normal_eq._v_pinv][0])
    assemble(carried, 0.5 * lam, BOTH)
    for system in (got, assemble(carried, lam, BOTH)):
        for name in ("u_blocks", "v_blocks", "v_inv", "v_degenerate"):
            np.testing.assert_array_equal(getattr(system, name), getattr(want, name))
        t = np.linspace(-1.0, 1.0, want.pose_dim)
        np.testing.assert_array_equal(schur_rhs(system), schur_rhs(want))
        np.testing.assert_array_equal(back_substitute(system, t), back_substitute(want, t))
        np.testing.assert_array_equal(dense_schur(system), dense_schur(want))


def test_both_mode_assembly_leaves_the_sums_cache_alone():
    # a both-mode system damps V, so its V^+ and products go to a cache of
    # its own: a pose-only system of the same sums afterwards still equals
    # that of a fresh linearization
    problem = make_random_problem(4, 9, seed=21)
    state = make_random_state(problem, 22, STAGE1)
    sums = build_stage1_blocks(problem, state, 0.1)
    both = assemble(sums, 0.37, BOTH)
    for product in (schur_rhs, dense_schur, schur_matrix):
        product(both)
    assert both.products is not sums.products
    assert not sums.products
    got = assemble(sums, 0.37, POSE_ONLY)
    want = assemble(build_stage1_blocks(problem, state, 0.1), 0.37, POSE_ONLY)
    assert not np.array_equal(got.v_inv, both.v_inv)
    for name in ("u_blocks", "v_blocks", "v_inv", "v_degenerate"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(schur_rhs(got), schur_rhs(want))
    np.testing.assert_array_equal(dense_schur(got), dense_schur(want))
    assert sums.products[normal_eq._v_pinv][0] is got.v_inv


def problem_with_unobserved(seed):
    """Random graph with camera 0 and landmarks 2 and 6 (the last) unobserved."""
    base = make_random_problem(3, 5, seed=seed)
    lms = base.landmark_indices
    return BaProblem(
        num_cameras=4, num_landmarks=7, num_observations=base.num_observations,
        camera_indices=base.camera_indices + 1,
        landmark_indices=np.where(lms >= 2, lms + 1, lms),
        measurements=base.measurements)


@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH, "stage2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_unobserved_camera_and_landmark_match_dense_oracle(mode, seed):
    problem = problem_with_unobserved(seed)
    lam = 0.3
    if mode == "stage2":
        # the projected tangent-space system, against the projected per-observation rows
        mode = BOTH
        state = make_random_state(problem, seed + 70, STAGE2)
        bases = state_tangent_bases(state)
        system = assemble(riemannian_step(problem, state, bases), lam, mode)
        rows = oracle_rows(problem, state, STAGE2).project(bases)
        jac, res, d_p, d_l = dense_rows_jacobian(rows, problem.num_cameras, problem.num_landmarks)
    else:
        state = make_random_state(problem, seed + 70, STAGE1)
        system = assemble(build_stage1_blocks(problem, state, 0.1), lam, mode)
        jac, res, d_p, d_l = dense_jacobian(problem, state, STAGE1, eta=0.1)
    assert list(np.diff(problem.plan.pair_camera_ptr) == 0) == [True, False, False, False]
    assert list(np.nonzero(np.diff(problem.plan.landmark_pair_ptr) == 0)[0]) == [2, 6]

    h, g = dense_damped_hessian(jac, res, problem.num_cameras, d_p, lam, mode)
    pc = problem.num_cameras * d_p
    u, v, w, b_p, b_l = h[:pc, :pc], h[pc:, pc:], h[:pc, pc:], g[:pc], g[pc:]
    v_pinv = np.linalg.pinv(v, hermitian=True)
    s_dense = u - w @ v_pinv @ w.T
    scale = max(1, np.abs(s_dense).max())

    np.testing.assert_allclose(dense_schur(system), s_dense, atol=1e-11 * scale)
    rhs = -(b_p - w @ v_pinv @ b_l)
    np.testing.assert_allclose(schur_rhs(system), rhs, atol=1e-11 * max(1, np.abs(rhs).max()))
    x = np.random.default_rng(seed).standard_normal(system.pose_dim)
    np.testing.assert_allclose(apply_schur(system, x), s_dense @ x, atol=1e-11 * scale)
    upd = back_substitute(system, x)
    expected = -v_pinv @ (b_l + w.T @ x)
    np.testing.assert_allclose(upd, expected, atol=1e-9 * max(1, np.abs(expected).max()))
    np.testing.assert_array_equal(upd.reshape(-1, d_l)[[2, 6]], 0.0)
    # the unobserved camera is decoupled: its block is the clamped damping alone
    np.testing.assert_array_equal(system.u_blocks[0], lam * 1e-12 * np.eye(d_p))


# _GEMM_SPEEDUP settings that make dense_coupling take one path whatever the graph
COUPLING_PATHS = {"gemm": np.inf, "sparse": 0.0}


def dense_oracle_schur(rows, problem, lam, mode):
    """u - w V^+ w^T from the stacked row Jacobian, and its entry scale."""
    jac, res, d_p, _ = dense_rows_jacobian(rows, problem.num_cameras, problem.num_landmarks)
    h, _ = dense_damped_hessian(jac, res, problem.num_cameras, d_p, lam, mode)
    pc = problem.num_cameras * d_p
    u, v, w = h[:pc, :pc], h[pc:, pc:], h[:pc, pc:]
    s_dense = u - w @ np.linalg.pinv(v, hermitian=True) @ w.T
    return s_dense, max(1, np.abs(s_dense).max())


@pytest.mark.parametrize("path", COUPLING_PATHS)
@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH])
def test_dense_schur_over_many_landmark_chunks_matches_dense_oracle(mode, path, monkeypatch):
    # 4 cameras (camera 0 unobserved) and 61 landmarks: a dense slab of the
    # coupling holds pose_dim / 3 = 16 landmarks, so four chunks run, the last
    # one partial. Landmark 5 has a rank-deficient block (no third column).
    monkeypatch.setattr(normal_eq, "_GEMM_SPEEDUP", COUPLING_PATHS[path])
    base = make_random_problem(3, 61, seed=31)
    problem = BaProblem(4, 61, base.num_observations, base.camera_indices + 1,
                        base.landmark_indices, base.measurements)
    state = make_random_state(problem, 32, STAGE1)
    rows = oracle_rows(problem, state, STAGE1)
    rows.lm_jac[rows.landmark == 5, :, 2] = 0.0
    lam = 0.3
    system = assemble(rows.sums(), lam, mode)
    assert system.n_landmarks * system.lm_width > 3 * system.pose_dim
    assert system.v_degenerate[5]
    assert np.diff(problem.plan.pair_camera_ptr)[0] == 0

    s_dense, scale = dense_oracle_schur(rows, problem, lam, mode)
    d_p = system.pose_width
    s = dense_schur(system)
    np.testing.assert_allclose(s, s_dense, atol=1e-11 * scale)
    assert np.abs(s - s.T).max() <= 1e-12 * np.abs(s).max()
    # the unobserved camera keeps its damped pose block alone
    np.testing.assert_array_equal(s[:d_p, :d_p], system.u_blocks[0])
    np.testing.assert_array_equal(s[:d_p, d_p:], 0.0)


def repeated_observation_problem():
    """A graph where some cameras observe a landmark more than once.

    Landmark 0 is seen once by one camera and twice by another, and
    landmark 3 three times by one camera: three rows repeat a pair.
    """
    base = make_random_problem(3, 20, seed=41, cameras_per_landmark=2)
    first_of = {lm: np.flatnonzero(base.landmark_indices == lm) for lm in (0, 3)}
    problem = with_repeated_observations(
        base, [first_of[0][1], first_of[3][0], first_of[3][0]], seed=42)
    pairs = set(zip(problem.camera_indices.tolist(), problem.landmark_indices.tolist()))
    assert len(pairs) == problem.num_observations - 3
    return problem, len(pairs)


@pytest.mark.parametrize("path", COUPLING_PATHS)
@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH])
def test_dense_schur_sums_repeated_observations(mode, path, monkeypatch):
    # A landmark observed twice by the same camera gives two row bands for
    # one (camera, landmark) pair; S must couple them as the Jacobian does.
    monkeypatch.setattr(normal_eq, "_GEMM_SPEEDUP", COUPLING_PATHS[path])
    problem, n_pairs = repeated_observation_problem()
    state = make_random_state(problem, 43, STAGE1)
    rows = build_stage1_blocks(problem, state, 0.1)
    lam = 0.2
    system = assemble(rows, lam, mode)
    assert len(system.factors.blocks()) == n_pairs

    s_dense, scale = dense_oracle_schur(oracle_rows(problem, state, STAGE1), problem, lam, mode)
    s = dense_schur(system)
    np.testing.assert_allclose(s, s_dense, atol=1e-11 * scale)
    assert np.abs(s - s.T).max() <= 1e-12 * np.abs(s).max()


@pytest.mark.parametrize("stage", [STAGE1, STAGE2])
def test_w_holds_one_canonical_block_per_distinct_pair(stage):
    problem, n_pairs = repeated_observation_problem()
    state = make_random_state(problem, 44, stage)
    oracle = oracle_rows(problem, state, stage)
    if stage == STAGE1:
        sums = build_stage1_blocks(problem, state, 0.1)
    else:
        bases = state_tangent_bases(state)
        sums = riemannian_step(problem, state, bases)
        oracle = oracle.project(bases)
    system = assemble(sums, 0.1, BOTH)
    plan = problem.plan
    assert len(system.factors.blocks()) == len(plan.pair_camera) == n_pairs
    keys = plan.pair_camera * problem.num_landmarks + plan.pair_landmark
    assert (np.diff(keys) > 0).all()  # distinct pairs, camera-major
    jac, _, d_p, _ = dense_rows_jacobian(oracle, problem.num_cameras, problem.num_landmarks)
    pc = problem.num_cameras * d_p
    w_dense = jac[:, :pc].T @ jac[:, pc:]
    np.testing.assert_allclose(dense_w(system), w_dense, rtol=0,
                               atol=1e-12 * np.abs(w_dense).max())


@pytest.mark.parametrize("stage", [STAGE1, STAGE2])
def test_block_sums_of_repeated_pairs_match_oracle_rows(stage):
    # Every sum comes from the weights summed over each pair's observations;
    # the oracle sums the per-observation row bands one at a time (stage 2's
    # projected onto the tangent bases, which loses nothing at unit x: J x = 0)
    problem, _ = repeated_observation_problem()
    state = make_random_state(problem, 45, stage)
    oracle = oracle_rows(problem, state, stage)
    if stage == STAGE1:
        sums = build_stage1_blocks(problem, state, 0.1)
    else:
        bases = state_tangent_bases(state)
        sums = riemannian_step(problem, state, bases)
        oracle = oracle.project(bases)
    oracle = oracle.sums()
    for name in ("u", "b_p", "v", "b_l"):
        want = getattr(oracle, name)
        np.testing.assert_allclose(getattr(sums, name), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
    for name in ("gt", "x"):
        want = getattr(oracle.factors, name)
        np.testing.assert_allclose(getattr(sums.factors, name), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_dense_coupling_takes_sparse_product_on_sparse_graphs(monkeypatch):
    # 40 cameras, every landmark seen by 2: the GEMMs would do 400 times the
    # block-sparse product's multiply-adds; a fully observed graph does 1.
    calls = []
    sparse_coupling = normal_eq._sparse_coupling

    def counting(system):
        calls.append(system)
        return sparse_coupling(system)

    monkeypatch.setattr(normal_eq, "_sparse_coupling", counting)
    sparse, _, _ = make_varpro_system(40, 30, seed=5, cameras_per_landmark=2)
    full, _, _ = make_varpro_system(4, 30, seed=6, cameras_per_landmark=4)
    picked = [dense_coupling(sparse), dense_coupling(full)]
    assert len(calls) == 1 and calls[0] is sparse
    for system, c in zip((sparse, full), picked):
        forced = []
        for speedup in COUPLING_PATHS.values():
            monkeypatch.setattr(normal_eq, "_GEMM_SPEEDUP", speedup)
            forced.append(dense_coupling(system))
        for other in forced:
            np.testing.assert_allclose(other, c, rtol=0, atol=1e-12 * np.abs(c).max())


@pytest.mark.parametrize("stage", [STAGE1, STAGE2])
def test_wt_equals_gathered_transposed_blocks(stage):
    problem = problem_with_unobserved(2)
    state = make_random_state(problem, 80, stage)
    if stage == STAGE1:
        rows = build_stage1_blocks(problem, state, 0.1)
    else:
        rows = riemannian_step(problem, state, state_tangent_bases(state))
    system = assemble(rows, 0.1, BOTH)
    # reference: W's blocks gathered landmark-major and transposed one by one
    plan = problem.plan
    order = plan.landmark_pairs
    lm_of = plan.pair_landmark[order]
    assert (np.diff(lm_of) >= 0).all()
    np.testing.assert_array_equal(plan.landmark_pair_ptr, np.searchsorted(
        lm_of, np.arange(problem.num_landmarks + 1)))
    for lm in range(problem.num_landmarks):
        seg = order[plan.landmark_pair_ptr[lm]:plan.landmark_pair_ptr[lm + 1]]
        assert (np.diff(plan.pair_camera[seg]) > 0).all()
    d_p, d_l = system.pose_width, system.lm_width
    t = np.random.default_rng(81).standard_normal(system.pose_dim).reshape(-1, d_p)
    ref = np.zeros((problem.num_landmarks, d_l))
    for block, pair in zip(system.factors.blocks(order), order):
        ref[plan.pair_landmark[pair]] += block.T @ t[plan.pair_camera[pair]]
    np.testing.assert_allclose(system.factors.rmatvec(t.ravel()), ref.ravel(), rtol=0,
                               atol=1e-12 * np.abs(ref).max())


def test_plan_built_lazily_and_cached(tmp_path):
    problem = make_random_problem(4, 6, seed=3)
    path = tmp_path / "p.txt"
    with open(path, "w") as fh:
        write_bal(problem, fh)
    raw = load_bal(path)
    assert "plan" not in vars(raw)
    loaded = prune_underobserved(raw)
    assert "measurement_weights" not in vars(loaded)
    plan = vars(loaded)["plan"]  # built by pruning, which reads it
    assert loaded.plan is plan
    np.testing.assert_array_equal(plan.pair_camera_ptr, [0, *np.cumsum(np.bincount(
        loaded.camera_indices, minlength=4))])
    for name in ("observation_pair", "pair_camera", "pair_landmark", "pair_camera_ptr",
                 "landmark_pairs", "landmark_pair_ptr"):
        array = getattr(plan, name)
        assert array.dtype == np.int64 and not array.flags.writeable
    assert plan.factor_matrices is plan.factor_matrices
    assert "pair_weights" not in vars(loaded)
    assert "measurement_weights" not in vars(loaded)
    weights = loaded.measurement_weights
    assert loaded.measurement_weights is weights
    # the weight matrix: the weights (1, m0, m1, |m|^2) of each observation at
    # its landmark's row and its camera's four columns
    m = loaded.measurements
    expected = np.zeros((6, 4 * 4))
    for c, lm, (m0, m1) in zip(loaded.camera_indices, loaded.landmark_indices, m):
        expected[lm, 4 * c:4 * c + 4] += [1.0, m0, m1, m0 * m0 + m1 * m1]
    np.testing.assert_allclose(weights.toarray(), expected, rtol=1e-15)
    # on a graph with repeated (camera, landmark) pairs, each distinct pair
    # holds the sum of its observations' weights in one set of four columns
    # (quarter-integer measurements, so that every sum is exact)
    rng = np.random.default_rng(5)
    cams, lms = rng.integers(0, 7, 600), rng.integers(0, 40, 600)
    repeated = BaProblem(7, 40, 600, cams, lms, rng.integers(-8, 9, (600, 2)) / 4.0)
    plan = repeated.plan
    n_pairs = len(plan.pair_camera)
    assert n_pairs < 600
    # the pair weights: each pair's observation count and its sums of m and |m|^2
    expected = np.zeros((4, n_pairs))
    pair_of = {(c, lm): p for p, (c, lm) in enumerate(zip(plan.pair_camera, plan.pair_landmark))}
    for c, lm, (m0, m1) in zip(cams, lms, repeated.measurements):
        expected[:, pair_of[c, lm]] += [1.0, m0, m1, m0 * m0 + m1 * m1]
    assert expected[0].max() > 1
    np.testing.assert_array_equal(repeated.pair_weights, expected)
    weights = repeated.measurement_weights
    assert weights.nnz == 4 * n_pairs and weights.has_canonical_format
    expected = np.zeros((40, 4 * 7))
    for c, lm, (m0, m1) in zip(cams, lms, repeated.measurements):
        expected[lm, 4 * c:4 * c + 4] += [1.0, m0, m1, m0 * m0 + m1 * m1]
    np.testing.assert_array_equal(weights.toarray(), expected)


def raw_pixel_problem():
    """A stage-1 problem at raw-pixel scale (|m| about 500-1000).

    Camera 0 is unobserved and landmark 7 (the last) too; camera 2 observes
    landmarks 1 and 4 twice. Landmark 6 is seen only by cameras 4 and 5,
    whose first column is zero, so its normal equations have rank 2.
    """
    rng = np.random.default_rng(77)
    tracks = [[1, 2, 3, 4], [1, 2, 2], [2, 3], [1, 3], [1, 2, 3, 2], [2, 3], [4, 5], []]
    cam_idx = [c for track in tracks for c in track]
    lm_idx = [j for j, track in enumerate(tracks) for _ in track]
    order = rng.permutation(len(cam_idx))
    n_obs = len(cam_idx)
    radius = rng.uniform(500.0, 1000.0, n_obs)
    angle = rng.uniform(0.0, 2 * np.pi, n_obs)
    meas = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    problem = BaProblem(6, 8, n_obs, np.array(cam_idx)[order], np.array(lm_idx)[order], meas)
    state = make_random_state(problem, 78, STAGE1)
    cameras = np.array(state.cameras)
    cameras[4:, :, 0] = 0.0
    return problem, ProjectiveState(cameras, state.landmarks)


@pytest.mark.parametrize("mode", [POSE_ONLY, BOTH])
def test_stage1_system_matches_dense_oracle_at_raw_pixel_scale(mode):
    problem, state = raw_pixel_problem()
    plan = problem.plan
    assert list(np.diff(plan.pair_camera_ptr) == 0) == [True] + [False] * 5
    assert list(np.nonzero(np.diff(plan.landmark_pair_ptr) == 0)[0]) == [7]
    assert len(plan.pair_camera) == problem.num_observations - 2
    eta, lam = 0.1, 0.3
    system = assemble(build_stage1_blocks(problem, state, eta), lam, mode)
    assert system.v_degenerate[6]

    jac, res, d_p, d_l = dense_jacobian(problem, state, STAGE1, eta)
    h, g = dense_damped_hessian(jac, res, problem.num_cameras, d_p, lam, mode)
    pc = problem.num_cameras * d_p
    u, w, v = dense_uwv(system)
    for got, want in ((u, h[:pc, :pc]), (w, h[:pc, pc:]), (v, h[pc:, pc:])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(h).max())
    gscale = 1e-12 * np.abs(g).max()
    np.testing.assert_allclose(system.b_p.ravel(), g[:pc], rtol=0, atol=gscale)
    np.testing.assert_allclose(system.b_l.ravel(), g[pc:], rtol=0, atol=gscale)
    assert len(system.factors.blocks()) == len(plan.pair_camera)


def test_landmark_normals_match_oracle_rows_at_raw_pixel_scale():
    problem, state = raw_pixel_problem()
    eta = 0.3
    rows = oracle_rows(problem, state, STAGE1, eta)
    cams = state.cameras[rows.camera]
    origin = np.broadcast_to([0.0, 0.0, 0.0, 1.0], (len(cams), 4))
    c = stage1_residuals(cams, origin, problem.measurements, eta)
    ata = np.zeros((problem.num_landmarks, 3, 3))
    atc = np.zeros((problem.num_landmarks, 3))
    for k, lm in enumerate(rows.landmark):
        ata[lm] += rows.lm_jac[k].T @ rows.lm_jac[k]
        atc[lm] += rows.lm_jac[k].T @ c[k]
    got_ata, got_atc = stage1_landmark_normals(state.cameras, problem, eta)
    np.testing.assert_allclose(got_ata, ata, rtol=0, atol=1e-12 * np.abs(ata).max())
    np.testing.assert_allclose(got_atc, atc, rtol=0, atol=1e-12 * np.abs(atc).max())
    np.testing.assert_array_equal(got_ata, got_ata.transpose(0, 2, 1))
    resolved = solve_landmarks(state, problem, eta)
    np.testing.assert_array_equal(resolved.hessian, got_ata)
    np.testing.assert_array_equal(resolved.origin_gradient, got_atc)
    np.testing.assert_array_equal(resolved.degenerate, np.arange(8) >= 6)


@pytest.mark.parametrize("path", COUPLING_PATHS)
@pytest.mark.parametrize("stage", [STAGE1, STAGE2])
def test_coupling_factors_match_dense_oracle(stage, path, monkeypatch):
    # W kept as its Kronecker factors, against a dense W from the per-observation
    # Jacobians: a graph with repeated (camera, landmark) pairs and camera 0 unobserved.
    monkeypatch.setattr(normal_eq, "_GEMM_SPEEDUP", COUPLING_PATHS[path])
    base, _ = repeated_observation_problem()
    problem = BaProblem(base.num_cameras + 1, base.num_landmarks, base.num_observations,
                        base.camera_indices + 1, base.landmark_indices, base.measurements)
    state = make_random_state(problem, 46, stage)
    lam = 0.2
    jac, res, d_p, d_l = dense_jacobian(problem, state, stage, eta=0.1)
    if stage == STAGE1:
        mode = POSE_ONLY
        system = assemble(build_stage1_blocks(problem, state, 0.1), lam, mode)
    else:
        mode = BOTH
        bases = state_tangent_bases(state)
        system = assemble(riemannian_step(problem, state, bases), lam, mode)
        jac = jac @ scipy.linalg.block_diag(*bases.camera_bases, *bases.landmark_bases)
        d_p, d_l = 11, 3
    n_c, n_l = problem.num_cameras, problem.num_landmarks
    pc = n_c * d_p
    h, g = dense_damped_hessian(jac, res, n_c, d_p, lam, mode)
    u, v, w = h[:pc, :pc], h[pc:, pc:], jac[:, :pc].T @ jac[:, pc:]
    b_p, b_l = g[:pc], g[pc:]
    v_pinv = np.linalg.pinv(v, hermitian=True)
    s_dense = u - w @ v_pinv @ w.T
    assert not w[:d_p].any()  # the unobserved camera
    np.testing.assert_allclose(dense_w(system), w, rtol=0, atol=1e-12 * np.abs(w).max())

    rng = np.random.default_rng(47)
    t, y = rng.standard_normal(pc), rng.standard_normal(n_l * d_l)
    factors = system.factors
    for got, want in ((factors.matvec(y), w @ y), (factors.rmatvec(t), w.T @ t),
                      (system.coupling(t), w @ v_pinv @ w.T @ t),
                      (schur_rhs(system), -(b_p - w @ v_pinv @ b_l)),
                      (back_substitute(system, t), -v_pinv @ (b_l + w.T @ t))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * max(1, np.abs(want).max()))
    scale = max(1, np.abs(s_dense).max())
    np.testing.assert_allclose(dense_schur(system), s_dense, rtol=0, atol=1e-11 * scale)


def chunked_problem() -> BaProblem:
    """Eight cameras whose pair counts make chunks of every kind.

    Camera 2 is unobserved (an empty segment), camera 5 sees all 30
    landmarks (more pairs than a budget of 8), camera 7 sees one (a chunk of
    a single pair), and every landmark is seen by camera 5 and at least one
    other, so its pairs span chunks. Some observations are made twice.
    """
    rng = np.random.default_rng(11)
    cams, lms = [], []
    for c, count in zip(range(8), (6, 4, 0, 7, 3, 30, 5, 1)):
        for lm in sorted(rng.choice(30, size=count, replace=False)):
            cams.append(c)
            lms.append(lm)
    for lm in range(30):
        if lms.count(lm) < 2:
            cams.append(6 if 6 not in [c for c, l in zip(cams, lms) if l == lm] else 0)
            lms.append(lm)
    problem = BaProblem(8, 30, len(cams), np.array(cams), np.array(lms),
                        2.0 * rng.standard_normal((len(cams), 2)))
    return with_repeated_observations(problem, [0, 9, 17, 40], seed=12)


def linearized_bytes(problem: BaProblem) -> dict[str, bytes]:
    """The bytes of every linearization and cost of one stage-1 and one stage-2 state."""
    out = {}
    state = make_random_state(problem, 13, STAGE1)
    resolved = solve_landmarks(state, problem, 0.1)
    stage2 = make_random_state(problem, 14, STAGE2)
    bases = state_tangent_bases(stage2)
    for label, sums in (
            ("stage1", build_stage1_blocks(problem, state, 0.1)),
            ("resolved", build_stage1_blocks(problem, ProjectiveState(state.cameras,
                                                                      resolved.landmarks),
                                             0.1, resolved)),
            ("stage2", riemannian_step(problem, stage2, bases)),
            # U, b_p, V and b_l before ``project_blocks`` projects them
            ("unprojected", build_stage2_blocks(problem, stage2, bases.landmark_bases))):
        for name in ("u", "b_p", "v", "b_l"):
            out[f"{label}.{name}"] = getattr(sums, name).tobytes()
        out[f"{label}.gt"] = sums.factors.gt.tobytes()
        out[f"{label}.x"] = sums.factors.x.tobytes()
    out["cost1"] = np.float64(total_cost(state, problem, STAGE1, 0.1)).tobytes()
    out["cost2"] = np.float64(total_cost(stage2, problem, STAGE2)).tobytes()
    return out


def test_linearizations_and_costs_do_not_depend_on_the_chunking(monkeypatch):
    problem = chunked_problem()
    plan = problem.plan
    counts = np.diff(plan.pair_camera_ptr)
    assert counts[2] == 0 and counts[5] == 30 and counts[7] == 1
    assert problem.pair_weights[0].max() == 2  # repeated pairs
    runs = {}
    for budget in (1, 8, 10**9):
        monkeypatch.setattr(objective, "CHUNK_PAIRS", budget)
        runs[budget] = linearized_bytes(problem)
        chunks = normal_eq._camera_chunks(plan)
        assert chunks[0] == 0 and chunks[-1] == problem.num_cameras
        sizes = np.diff(plan.pair_camera_ptr[chunks])
        assert all(size <= budget or n == 1 for size, n in zip(sizes, np.diff(chunks)))
        if budget == 1:
            assert chunks == list(range(problem.num_cameras + 1))  # one camera per chunk
        elif budget == 8:
            assert [5, 6] in [chunks[i:i + 2] for i in range(len(chunks) - 1)]
            assert (np.diff(chunks) > 1).any()
        else:
            assert chunks == [0, problem.num_cameras]
    assert runs[1] == runs[10**9]
    assert runs[8] == runs[10**9]


@pytest.mark.parametrize("stage", [STAGE1, STAGE2])
def test_linearization_peaks_within_twice_its_sums(stage, monkeypatch):
    # many chunks: about 90 pairs per camera and 256 pairs per chunk
    monkeypatch.setattr(objective, "CHUNK_PAIRS", 256)
    problem = make_random_problem(40, 600, seed=15, cameras_per_landmark=6)
    assert len(normal_eq._camera_chunks(problem.plan)) > 10
    problem.pair_weights, problem.measurement_weights  # built once per problem
    state = make_random_state(problem, 16, stage)
    bases = state_tangent_bases(state) if stage == STAGE2 else None
    tracemalloc.start()
    try:
        if stage == STAGE1:
            sums = build_stage1_blocks(problem, state, 0.1)
        else:
            sums = riemannian_step(problem, state, bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (sums.u, sums.b_p, sums.factors.gt, sums.factors.x,
                                  sums.v, sums.b_l))
    assert peak <= 2 * kept, (peak, kept)
