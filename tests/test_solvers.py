import dataclasses
import math

import numpy as np
import pytest

from stratba import bal_io, cli, normal_eq, objective, pipeline, solvers
from stratba.bal_io import BaProblem, ProjectiveState, write_bal
from stratba.normal_eq import (
    POSE_ONLY,
    CouplingFactors,
    SchurSystem,
    apply_schur,
    assemble,
    build_stage1_blocks,
    dense_schur,
    schur_rhs,
)
from stratba.objective import ETA, STAGE1, STAGE2, total_cost
from stratba.solvers import (
    NumericFailureError,
    SolverConfig,
    direct_schur_solve,
    lm_minimize,
    pcg_schur_solve,
    power_schur_solve,
    spectral_check,
)
from stratba.synth import make_ring_problem
from stratba.bal_io import random_init
from tests.conftest import (
    dense_uwv,
    make_random_problem,
    make_random_state,
    make_riemannian_system,
    make_varpro_system,
    pose_jacobians,
    pose_residual,
    with_repeated_observations,
)


def decoupled_system():
    """Single camera, W = 0: the reduced matrix equals the damped pose block."""
    problem = make_random_problem(1, 4, seed=0, cameras_per_landmark=1)
    state = make_random_state(problem, 1000, STAGE1)
    sums = build_stage1_blocks(problem, state, 0.1)
    zero = dataclasses.replace(sums.factors, gt=np.zeros_like(sums.factors.gt))
    return assemble(dataclasses.replace(sums, factors=zero), 0.3, POSE_ONLY)


def test_power_collapses_when_uncoupled():
    system = decoupled_system()
    cfg = SolverConfig(power_order=20, power_threshold=0.01)
    rep = power_schur_solve(system, cfg)
    expected = -np.linalg.solve(system.u_blocks[0], system.b_p[0])
    np.testing.assert_allclose(rep.pose_update, expected, atol=1e-12)
    assert rep.power_order_used == 0
    assert rep.truncation_estimate == 0.0


def test_power_order_zero_forced():
    system, _, _ = make_varpro_system(3, 8, seed=1, lam=0.5)
    rep = power_schur_solve(system, SolverConfig(power_order=0, power_threshold=0.0))
    u, _, _ = dense_uwv(system)
    expected = np.linalg.solve(u, schur_rhs(system))
    np.testing.assert_allclose(rep.pose_update, expected, atol=1e-10)
    assert rep.power_order_used == 0


@pytest.mark.parametrize("seed", range(5))
def test_power_matches_dense_solve(seed):
    system, _, _ = make_varpro_system(3, 10, seed=seed, lam=3.0)
    rep = power_schur_solve(system, SolverConfig(power_order=20, power_threshold=0.0))
    x_exact = np.linalg.solve(dense_schur(system), schur_rhs(system))
    rel = np.linalg.norm(rep.pose_update - x_exact) / np.linalg.norm(x_exact)
    assert rel <= 1e-5
    assert rep.power_order_used <= 20


def symmetrized_series_matrix(system):
    """U^{-1/2} W V^{-1} W^T U^{-1/2}: symmetric PSD, similar to the series matrix."""
    u, w, v = dense_uwv(system)
    vals, vecs = np.linalg.eigh(u)
    u_inv_half = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    v_pinv = np.linalg.pinv(v, hermitian=True)
    return u_inv_half @ w @ v_pinv @ w.T @ u_inv_half


@pytest.mark.parametrize("m", [0, 1, 5, 20])
def test_power_series_remainder_bound(m):
    system, _, _ = make_varpro_system(3, 10, seed=3, lam=0.5)
    msym = symmetrized_series_matrix(system)
    norm_m = np.linalg.norm(msym, 2)
    assert norm_m < 1
    partial = np.zeros_like(msym)
    power = np.eye(len(msym))
    for _ in range(m + 1):
        partial += power
        power = power @ msym
    remainder = np.linalg.norm(partial - np.linalg.inv(np.eye(len(msym)) - msym), 2)
    bound = norm_m ** (m + 1) / (1.0 - norm_m)
    assert remainder <= bound * (1 + 1e-9) + 1e-13


def test_power_refinement_monotone():
    # ||x(m) - x_exact|| never increases with the order when ||M|| < 1
    for seed in range(5):
        system, _, _ = make_varpro_system(3, 8, seed=seed, lam=1.0)
        u, w, v = dense_uwv(system)
        m_mat = np.linalg.solve(u, w @ np.linalg.pinv(v, hermitian=True) @ w.T)
        if np.linalg.norm(m_mat, 2) >= 1:
            continue
        rhs = schur_rhs(system)
        t0 = np.linalg.solve(u, rhs)
        x_exact = np.linalg.solve(dense_schur(system), rhs)
        x = np.zeros_like(t0)
        term = t0.copy()
        errs = []
        for _ in range(21):
            x = x + term
            errs.append(np.linalg.norm(x - x_exact))
            term = m_mat @ term
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12 * max(1.0, a)


def test_pcg_perfect_preconditioner_one_iteration():
    system = decoupled_system()
    rep = pcg_schur_solve(system, SolverConfig(pcg_tolerance=1e-6))
    assert rep.inner_iterations_used == 1
    expected = -np.linalg.solve(system.u_blocks[0], system.b_p[0])
    np.testing.assert_allclose(rep.pose_update, expected, atol=1e-10)


def test_pcg_zero_rhs():
    system = decoupled_system()
    system.b_p[...] = 0.0
    system.b_l[...] = 0.0
    rep = pcg_schur_solve(system, SolverConfig())
    assert rep.inner_iterations_used == 0
    np.testing.assert_array_equal(rep.pose_update, 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_pcg_matches_dense_solve(seed):
    system, _, _ = make_varpro_system(4, 12, seed=seed, lam=0.01)
    rep = pcg_schur_solve(system, SolverConfig(pcg_tolerance=1e-12, inner_iterations=5000))
    x_exact = np.linalg.solve(dense_schur(system), schur_rhs(system))
    rel = np.linalg.norm(rep.pose_update - x_exact) / np.linalg.norm(x_exact)
    assert rel <= 1e-6


def s_norm(s, e):
    return math.sqrt(e @ s @ e)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
def test_pcg_never_worse_than_the_series_at_equal_krylov_space(seed, lam):
    # the order-m series is preconditioned Richardson on S with U^{-1}, so
    # x_m lies in the Krylov space of m + 1 PCG iterations with the same
    # preconditioner, where PCG minimizes the S-norm error
    system, _, _ = make_varpro_system(4, 12, seed=seed, lam=lam)
    s = dense_schur(system)
    x_exact = np.linalg.solve(s, schur_rhs(system))
    slack = 1e-12 * s_norm(s, x_exact)
    for m in (0, 1, 2, 4, 8):
        cg = pcg_schur_solve(system, SolverConfig(pcg_tolerance=1e-300, inner_iterations=m + 1))
        series = power_schur_solve(system, SolverConfig(power_order=m, power_threshold=0.0))
        assert cg.inner_iterations_used == m + 1 and series.power_order_used == m
        assert (s_norm(s, cg.pose_update - x_exact)
                <= s_norm(s, series.pose_update - x_exact) + slack)


@pytest.mark.parametrize("make_system", [make_varpro_system, make_riemannian_system])
@pytest.mark.parametrize("seed", range(3))
def test_pcg_reports_and_stops_on_the_true_relative_residual(make_system, seed):
    for lam in (1e-4, 1e-2, 1.0):
        system, _, _ = make_system(4, 12, seed=seed, lam=lam)
        rhs = schur_rhs(system)
        for tol in (0.1, 1e-3):
            for cap in (1, 2, 500):
                rep = pcg_schur_solve(system, SolverConfig(pcg_tolerance=tol,
                                                           inner_iterations=cap))
                true = (np.linalg.norm(rhs - apply_schur(system, rep.pose_update))
                        / np.linalg.norm(rhs))
                assert rep.truncation_estimate == pytest.approx(true, rel=1e-12, abs=0)
                if rep.inner_iterations_used < cap and rep.flag is None:
                    assert rep.truncation_estimate <= tol


def identity_system(dim_blocks=2):
    d = 12
    u = np.tile(np.eye(d), (dim_blocks, 1, 1))
    v = np.ones((1, 3))[:, :, None] * np.eye(3)[None]
    rng = np.random.default_rng(0)
    b_p = rng.standard_normal((dim_blocks, d))
    # no observations: W has no blocks
    plan = BaProblem(dim_blocks, 1, 0, np.zeros(0, int), np.zeros(0, int), np.zeros((0, 2))).plan
    system = SchurSystem(
        u=u, b_p=b_p, factors=CouplingFactors(plan, np.zeros((0, 3, 3)), np.zeros((0, 4))),
        v=v, b_l=np.zeros((1, 3)), lam=0.0, damping_mode=POSE_ONLY)
    np.testing.assert_array_equal(system.u_blocks, u)
    np.testing.assert_array_equal(system.v_inv, v)
    assert not system.v_degenerate.any()
    return system


def test_direct_identity_system():
    system = identity_system()
    rep = direct_schur_solve(system, SolverConfig())
    np.testing.assert_allclose(rep.pose_update, schur_rhs(system), atol=1e-14)
    assert rep.flag is None


def test_direct_matches_dense_lu():
    for seed in range(5):
        system, _, _ = make_varpro_system(4, 9, seed=seed, lam=0.05)
        rep = direct_schur_solve(system, SolverConfig())
        import scipy.linalg

        lu, piv = scipy.linalg.lu_factor(dense_schur(system))
        x = scipy.linalg.lu_solve((lu, piv), schur_rhs(system))
        rel = np.linalg.norm(rep.pose_update - x) / max(1e-300, np.linalg.norm(x))
        assert rel <= 1e-10


def test_direct_singular_flagged():
    system = identity_system()
    system.u_blocks[...] = 0.0
    rep = direct_schur_solve(system, SolverConfig())
    assert rep.flag == "singular"


def test_direct_failed_cholesky_is_flagged_without_a_retry(monkeypatch):
    # negative pose blocks make the reduced matrix negative definite:
    # nonsingular, but Cholesky fails, and the solve returns a zero update flagged singular
    system, _, _ = make_varpro_system(4, 9, seed=7, lam=0.05)
    system.u_blocks[...] = -np.eye(12)
    calls = []

    def counting(*args):
        calls.append(1)
        return dense_schur(*args)

    monkeypatch.setattr(solvers, "dense_schur", counting)
    rep = direct_schur_solve(system, SolverConfig())
    assert calls == [1]
    assert rep.flag == "singular"
    np.testing.assert_array_equal(rep.pose_update, np.zeros(system.pose_dim))


def test_pcg_singular_preconditioner_raises(monkeypatch):
    # the damped pose blocks are inverted once, with no fallback: an exactly
    # singular block raises, and the outer loop fails numerically
    system, _, _ = make_varpro_system(3, 8, seed=1, lam=0.5)
    monkeypatch.setattr(solvers, "_u_inverse",
                        lambda s: np.linalg.inv(np.zeros_like(s.u_blocks)))
    with pytest.raises(np.linalg.LinAlgError):
        pcg_schur_solve(system, SolverConfig())
    problem = make_random_problem(4, 20, seed=9)
    with pytest.raises(NumericFailureError, match="stage 1 iteration 1"):
        lm_minimize(problem, random_init(problem, 1), STAGE1,
                    SolverConfig(stage1_solver="iterative"))


def test_direct_sparse_path_matches_dense(monkeypatch):
    system, _, _ = make_varpro_system(4, 9, seed=7, lam=0.05)
    dense_rep = direct_schur_solve(system, SolverConfig())
    monkeypatch.setattr(normal_eq, "DENSE_SCHUR_LIMIT", 0)
    sparse_rep = direct_schur_solve(system, SolverConfig())
    np.testing.assert_allclose(sparse_rep.pose_update, dense_rep.pose_update,
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_solver_agreement(seed):
    system, _, _ = make_varpro_system(3, 10, seed=seed + 100, lam=3.0)
    x_pow = power_schur_solve(system, SolverConfig(power_order=20, power_threshold=0.0))
    x_pcg = pcg_schur_solve(system, SolverConfig(pcg_tolerance=1e-10, inner_iterations=5000))
    x_dir = direct_schur_solve(system, SolverConfig())
    scale = np.linalg.norm(x_dir.pose_update)
    assert np.linalg.norm(x_pow.pose_update - x_dir.pose_update) / scale <= 1e-5
    assert np.linalg.norm(x_pcg.pose_update - x_dir.pose_update) / scale <= 1e-5
    assert np.linalg.norm(x_pow.pose_update - x_pcg.pose_update) / scale <= 1e-5



# ---------------------------------------------------------------------------
# spectral check


def test_spectral_check_zero_coupling():
    system = decoupled_system()
    assert spectral_check(system) == 0.0


def dense_spectral_oracle(system):
    u, w, v = dense_uwv(system)
    m = np.linalg.solve(u, w @ np.linalg.pinv(v, hermitian=True) @ w.T)
    return float(np.max(np.real(np.linalg.eigvals(m))))


def _assert_matches_oracle(mu, oracle):
    # exact generalized eigenvalue against the eigenvalues of the dense product
    assert 0.0 <= mu < 1.0
    assert 0.0 <= oracle < 1.0
    assert mu <= oracle * (1 + 1e-12) + 1e-12
    assert abs(mu - oracle) <= 1e-10 * max(1.0, oracle)


@pytest.mark.parametrize("seed", range(8))
def test_spectral_check_varpro_in_unit_interval(seed):
    system, _, _ = make_varpro_system(4, 10, seed=seed, lam=1e-4)
    _assert_matches_oracle(spectral_check(system), dense_spectral_oracle(system))


@pytest.mark.parametrize("speedup", [np.inf, 0.0], ids=["gemm", "sparse"])
def test_spectral_check_sums_repeated_observations(speedup, monkeypatch):
    # _GEMM_SPEEDUP picks the dense GEMMs or the block-sparse coupling product
    monkeypatch.setattr(normal_eq, "_GEMM_SPEEDUP", speedup)
    problem = with_repeated_observations(make_random_problem(4, 10, seed=3), [0, 5, 5], seed=4)
    state = make_random_state(problem, 1003, STAGE1)
    system = assemble(build_stage1_blocks(problem, state, 0.1), 1e-4, POSE_ONLY)
    _assert_matches_oracle(spectral_check(system), dense_spectral_oracle(system))


@pytest.mark.parametrize("seed", range(4))
def test_spectral_check_riemannian_in_unit_interval(seed):
    system, _, _ = make_riemannian_system(4, 10, seed=seed, lam=1e-4)
    _assert_matches_oracle(spectral_check(system), dense_spectral_oracle(system))


@pytest.mark.parametrize("seed", range(4))
def test_spectral_check_tight_when_gap_is_healthy(seed):
    # heavier damping separates the top eigenvalue
    system, _, _ = make_varpro_system(4, 10, seed=seed, lam=1.0)
    mu = spectral_check(system)
    oracle = dense_spectral_oracle(system)
    assert abs(mu - oracle) <= 1e-10 * max(1.0, oracle)


# ---------------------------------------------------------------------------
# outer loop


def affine_consistent_problem(seed=0):
    """Stage-1 cost has an exact zero: affine cameras, affine measurements."""
    rng = np.random.default_rng(seed)
    problem = make_random_problem(3, 6, seed=seed)
    cameras = rng.standard_normal((3, 3, 4))
    cameras[:, 2, :] = 0.0
    cameras[:, 2, 3] = 1.0
    landmarks = np.concatenate([rng.standard_normal((6, 3)), np.ones((6, 1))], axis=1)
    meas = np.einsum("nij,nj->ni",
                     cameras[problem.camera_indices][:, :2, :],
                     landmarks[problem.landmark_indices])
    problem = type(problem)(
        num_cameras=3, num_landmarks=6, num_observations=problem.num_observations,
        camera_indices=problem.camera_indices, landmark_indices=problem.landmark_indices,
        measurements=meas)
    return problem, ProjectiveState(cameras, landmarks)


def test_lm_zero_residual_terminates_first_iteration():
    problem, state = affine_consistent_problem()
    cfg = SolverConfig()
    assert total_cost(state, problem, STAGE1, cfg.eta) == 0.0
    final, trace = lm_minimize(problem, state, STAGE1, cfg)
    assert trace.records[-1].iteration == 1
    assert trace.records[-1].cost == 0.0


def test_lm_costs_non_increasing_and_decreasing_overall():
    problem = make_random_problem(4, 20, seed=9)
    state = random_init(problem, 4)
    _, trace = lm_minimize(problem, state, STAGE1, SolverConfig())
    costs = [r.cost for r in trace.records]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]


def test_lm_synthetic_noise_free_converges():
    problem = make_ring_problem(6, 40, 0.0, seed=5)
    state = random_init(problem, 0)
    final, trace = lm_minimize(problem, state, STAGE1, SolverConfig())
    assert trace.records[-1].cost <= 1e-8 * trace.initial_cost
    assert trace.records[-1].iteration <= 50


def test_lm_bit_reproducible():
    problem = make_ring_problem(5, 25, 0.0, seed=2)
    state = random_init(problem, 3)
    for cfg in (SolverConfig(), SolverConfig(stage1_solver="poba"),
                SolverConfig(stage1_solver="iterative")):
        _, t1 = lm_minimize(problem, state, STAGE1, cfg)
        _, t2 = lm_minimize(problem, state, STAGE1, cfg)
        assert [r.cost for r in t1.records] == [r.cost for r in t2.records]


@pytest.mark.parametrize("stage, cfg", [
    pytest.param(STAGE1, SolverConfig(), id="cfg0"),
    pytest.param(STAGE1, SolverConfig(stage1_solver="poba"), id="cfg1"),
    pytest.param(STAGE1, SolverConfig(stage1_solver="direct"), id="cfg2"),
    pytest.param(STAGE2, SolverConfig(), id="stage2"),
])
def test_lm_linearizes_only_at_new_points(monkeypatch, stage, cfg):
    # a rejected step re-damps the kept sums instead of linearizing again
    import stratba.normal_eq as normal_eq_mod
    import stratba.objective as objective_mod
    import stratba.solvers as solvers_mod
    from stratba.riemannian import retract

    calls = []
    linearize = "build_stage1_blocks" if stage == STAGE1 else "riemannian_step"
    real = getattr(solvers_mod, linearize)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    pinv_calls = []
    real_pinv = objective_mod.pinv_psd

    def counting_pinv(*args, **kwargs):
        pinv_calls.append(1)
        return real_pinv(*args, **kwargs)

    substitutions = []
    real_substitute = solvers_mod.back_substitute

    def counting_substitute(*args, **kwargs):
        substitutions.append(1)
        return real_substitute(*args, **kwargs)

    problem = make_random_problem(4, 20, seed=9)
    state = random_init(problem, 1)  # every configuration rejects some steps from here
    if stage == STAGE2:
        state = retract(state)
    monkeypatch.setattr(solvers_mod, linearize, counting)
    monkeypatch.setattr(solvers_mod, "back_substitute", counting_substitute)
    for mod in (objective_mod, normal_eq_mod):
        monkeypatch.setattr(mod, "pinv_psd", counting_pinv)
    _, trace = lm_minimize(problem, state, stage, cfg)
    costs = [r.cost for r in trace.records]
    accepted = [b < a for a, b in zip(costs, costs[1:])]
    assert not all(accepted)  # some steps were rejected
    # one linearization at the start, one after every accepted step that
    # is followed by another iteration
    assert len(calls) == 1 + sum(accepted[:-1])
    if stage == STAGE1 and cfg.stage1_solver != "poba":
        # V^+ of the first linearization, then one per trial: each trial
        # re-solves the landmarks, and an accepted one hands its V^+ to the
        # next linearization
        assert len(pinv_calls) == 1 + len(accepted)
        assert not substitutions  # the re-solve replaces the landmark update
    else:
        # the damped V of every iteration, fresh or re-damped
        assert len(pinv_calls) == len(accepted)
        # one back-substituted landmark update per trial
        assert len(substitutions) == len(accepted)


# the dense Cholesky and, forced by a limit of 0, the sparse LU of a direct solve
DIRECT_BRANCHES = {"dense": (normal_eq.DENSE_SCHUR_LIMIT, "dense_coupling"),
                   "sparse-lu": (0, "_sparse_coupling")}


@pytest.mark.parametrize("branch", DIRECT_BRANCHES)
def test_direct_stage1_forms_one_coupling_per_linearization(monkeypatch, branch):
    # a rejected step's re-damped system reuses the explicit coupling and the
    # reduced right-hand side of its pose-only linearization
    limit, coupling = DIRECT_BRANCHES[branch]
    monkeypatch.setattr(normal_eq, "DENSE_SCHUR_LIMIT", limit)
    counts = {coupling: 0, "_schur_rhs": 0, "build_stage1_blocks": 0}
    for mod, name in ((normal_eq, coupling), (normal_eq, "_schur_rhs"),
                      (solvers, "build_stage1_blocks")):
        def counting(*args, real=getattr(mod, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    problem = make_random_problem(4, 20, seed=9)
    _, trace = lm_minimize(problem, random_init(problem, 1), STAGE1,
                           SolverConfig(stage1_solver="direct"))
    costs = [r.cost for r in trace.records]
    accepted = [b < a for a, b in zip(costs, costs[1:])]
    linearizations = 1 + sum(accepted[:-1])
    assert linearizations < len(accepted)  # some systems were re-damped
    assert counts == dict.fromkeys(counts, linearizations)


def test_direct_solve_forms_its_lambda_free_products_once_per_linearization(tmp_path,
                                                                          monkeypatch):
    # end to end through the command line, on a ring whose stage 1 rejects
    # steps: the dense coupling is formed once per linearization, and V^+
    # once in all of stage 1, since every later linearization takes it from
    # the accepted trial's landmark re-solve
    path = tmp_path / "ring.txt"
    with open(path, "w") as fh:
        write_bal(make_ring_problem(10, 100, 0.5, 1), fh)
    stage, traces = [0], {}
    counts = {name: {STAGE1: 0, STAGE2: 0}
              for name in ("build_stage1_blocks", "dense_coupling", "pinv_psd")}

    def staged(problem, state, at_stage, *args, real=pipeline.lm_minimize, **kwargs):
        stage[0] = at_stage
        out = real(problem, state, at_stage, *args, **kwargs)
        traces[at_stage] = out[1]
        return out

    monkeypatch.setattr(pipeline, "lm_minimize", staged)
    for mod, name in ((solvers, "build_stage1_blocks"), (normal_eq, "dense_coupling"),
                      (normal_eq, "pinv_psd")):
        def counting(*args, real=getattr(mod, name), name=name, **kwargs):
            counts[name][stage[0]] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    assert cli.main(["solve", "--full", "--solver", "direct", "--stage2-solver", "ripcg",
                     "--seed", "1", "--out-dir", str(tmp_path / "out"), str(path)]) == 0
    costs = [r.cost for r in traces[STAGE1].records]
    iterations = len(costs) - 1
    linearizations = counts["build_stage1_blocks"][STAGE1]
    assert counts["dense_coupling"][STAGE1] == linearizations < iterations
    assert counts["pinv_psd"][STAGE1] == 1


@pytest.mark.parametrize("branch", DIRECT_BRANCHES)
def test_redamped_direct_solve_equals_fresh(monkeypatch, branch):
    # a re-damped system of the same sums solves with the coupling the first
    # solve formed, as a system of a fresh linearization does with its own
    monkeypatch.setattr(normal_eq, "DENSE_SCHUR_LIMIT", DIRECT_BRANCHES[branch][0])
    problem = make_random_problem(4, 20, seed=9)
    state = make_random_state(problem, 10, STAGE1)
    sums = build_stage1_blocks(problem, state, ETA)
    system = assemble(sums, 1e-4, POSE_ONLY)
    direct_schur_solve(system, SolverConfig())
    for lam in (0.37, 1.5):
        got = direct_schur_solve(assemble(sums, lam, POSE_ONLY), SolverConfig())
        want = direct_schur_solve(assemble(build_stage1_blocks(problem, state, ETA), lam,
                                           POSE_ONLY), SolverConfig())
        assert got.flag is want.flag is None
        np.testing.assert_array_equal(got.pose_update, want.pose_update)


def test_stage1_weights_computed_once_per_problem(monkeypatch):
    # the measurement weights depend on the problem alone: one computation
    # serves the random start and every stage-1 linearization
    weights, linearizations = [], []
    real_weights = objective.stage1_weights
    real_build = solvers.build_stage1_blocks

    def counting_weights(*args, **kwargs):
        weights.append(1)
        return real_weights(*args, **kwargs)

    def counting_build(*args, **kwargs):
        linearizations.append(1)
        return real_build(*args, **kwargs)

    for mod in (bal_io, normal_eq, objective):
        monkeypatch.setattr(mod, "stage1_weights", counting_weights)
    monkeypatch.setattr(solvers, "build_stage1_blocks", counting_build)
    problem = make_random_problem(4, 20, seed=9)
    lm_minimize(problem, random_init(problem, 1), STAGE1, SolverConfig())
    assert len(linearizations) > 1
    assert len(weights) == 1


def oracle_landmarks(problem, cameras, eta):
    """Each landmark's least-squares optimum from its stacked dense rows."""
    origin = np.array([0.0, 0.0, 0.0, 1.0])
    out = np.ones((problem.num_landmarks, 4))
    for j in range(problem.num_landmarks):
        rows_a, rows_c = [], []
        for k in np.flatnonzero(problem.landmark_indices == j):
            cam, m = cameras[problem.camera_indices[k]], problem.measurements[k]
            rows_a.append(pose_jacobians(cam, origin, m, eta)[1])
            rows_c.append(pose_residual(cam, origin, m, eta))
        out[j, :3] = np.linalg.lstsq(np.vstack(rows_a), -np.concatenate(rows_c), rcond=None)[0]
    return out


def oracle_cost(problem, cameras, landmarks, eta):
    """Sum of per-observation squared residuals."""
    return sum(float(np.sum(pose_residual(cameras[c], landmarks[j], m, eta) ** 2))
               for c, j, m in zip(problem.camera_indices, problem.landmark_indices,
                                  problem.measurements))


@pytest.mark.parametrize("solver", [pytest.param("povar", id="power"), "direct"])
def test_varpro_trial_cost_is_reduced_cost_at_trial_cameras(monkeypatch, solver):
    # every varpro trial, accepted or not, is judged by min_v f(P, v): its
    # cost is the cost at the closed-form landmarks of the trial cameras
    judged = []

    def recording_cost(state, *args, **kwargs):
        judged.append((state, total_cost(state, *args, **kwargs)))
        return judged[-1][1]

    monkeypatch.setattr(solvers, "total_cost", recording_cost)
    problem = make_ring_problem(5, 20, 0.5, seed=4)
    cfg = SolverConfig(stage1_solver=solver, max_iterations=4)
    _, trace = lm_minimize(problem, random_init(problem, 2), STAGE1, cfg)
    trials = judged[1:]  # after the starting cost
    assert len(trials) == len(trace.records) - 1
    assert [r.cost for r in trace.records[1:]] == list(np.minimum.accumulate(
        [judged[0][1]] + [c for _, c in trials])[1:])
    rng = np.random.default_rng(5)
    for state, cost in trials:
        best = oracle_landmarks(problem, state.cameras, cfg.eta)
        np.testing.assert_allclose(state.landmarks, best, rtol=1e-9, atol=1e-9)
        assert cost == pytest.approx(oracle_cost(problem, state.cameras, best, cfg.eta),
                                     rel=1e-12)
        for scale in (1e-4, 1e-2, 1.0):
            perturbed = best.copy()
            perturbed[:, :3] += scale * rng.standard_normal((problem.num_landmarks, 3))
            assert oracle_cost(problem, state.cameras, perturbed, cfg.eta) > cost
            j = int(rng.integers(problem.num_landmarks))
            one = best.copy()
            one[j, :3] += scale * rng.standard_normal(3)
            assert oracle_cost(problem, state.cameras, one, cfg.eta) > cost


def test_lm_stage2_rejects_infinite_trials():
    # start stage 2 from a sane state; any degenerate trial must be rejected,
    # costs stay finite and non-increasing
    problem = make_ring_problem(4, 15, 0.0, seed=8)
    state = random_init(problem, 1)
    s1, _ = lm_minimize(problem, state, STAGE1, SolverConfig())
    from stratba.riemannian import retract

    lifted = retract(s1)
    final, trace = lm_minimize(problem, lifted, STAGE2, SolverConfig())
    costs = [r.cost for r in trace.records]
    assert all(math.isfinite(c) for c in costs)
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    # accepted stage-2 iterates stay on the unit spheres
    np.testing.assert_allclose(np.linalg.norm(final.cameras.reshape(-1, 12), axis=1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(final.landmarks, axis=1), 1.0, atol=1e-12)


def test_lm_trace_times_non_decreasing():
    problem = make_ring_problem(4, 15, 0.0, seed=3)
    state = random_init(problem, 0)
    _, trace = lm_minimize(problem, state, STAGE1, SolverConfig(max_iterations=5))
    times = [r.elapsed_seconds for r in trace.records]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_config_defaults_are_canonical():
    cfg = SolverConfig()
    assert cfg.max_iterations == 50
    assert cfg.function_tolerance == 1e-6
    assert cfg.initial_lambda == 1e-4
    assert cfg.power_order == 20
    assert cfg.power_threshold == 0.01
    assert cfg.inner_iterations == 500
    assert cfg.eta == ETA == 0.1
    assert cfg.stage1_solver == "povar"
    assert cfg.stage2_solver == "ripoba"


def test_config_validation():
    with pytest.raises(ValueError, match="stage-1 solver"):
        SolverConfig(stage1_solver="magic")
    with pytest.raises(ValueError, match="stage-2 solver"):
        SolverConfig(stage2_solver="alternation")
    with pytest.raises(ValueError, match="stage-1 solver"):
        SolverConfig(stage1_solver="ripoba")
    with pytest.raises(ValueError, match="stage-2 solver"):
        SolverConfig(stage2_solver="povar")
    with pytest.raises(ValueError):
        SolverConfig(initial_lambda=0.0)
    # every float field must be finite, flagless pcg_tolerance included
    with pytest.raises(ValueError, match="pcg_tolerance must be finite"):
        SolverConfig(pcg_tolerance=float("nan"))
