"""Acceptance suite: one test per exit criterion at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion;
each test also prints an ``ACCEPTANCE n PASS`` line (visible with ``-s``).

Criterion 6's real-dataset half needs the Ladybug-49 BAL file, which cannot
be downloaded in this environment; drop ``problem-49-7776-pre.txt`` (or the
.bz2/.gz archive) into ``tests/data/`` or point ``BAL_DATA_DIR`` at it,
otherwise that single check reports as skipped.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stratba.bal_io import ProjectiveState, load_bal, prune_underobserved, random_init
from stratba.evaluation import (
    ConvergenceTrace,
    TraceRecord,
    cost_threshold,
    performance_profile,
    read_trace_csv,
    time_to_threshold,
    write_trace_csv,
)
from stratba.metric_upgrade import gram_derivative, upgrade
from stratba.normal_eq import (
    BOTH,
    assemble,
    build_stage1_blocks,
    build_stage2_blocks,
    dense_schur,
    schur_rhs,
)
from stratba.objective import STAGE1, STAGE2, solve_landmarks
from stratba.riemannian import project_blocks, retract, state_tangent_bases
from stratba.solvers import (
    SolverConfig,
    direct_schur_solve,
    lm_minimize,
    pcg_schur_solve,
    power_schur_solve,
    spectral_check,
)
from stratba.synth import make_ring_problem
from tests.conftest import (
    central_difference_jacobian,
    dense_uwv,
    make_random_problem,
    make_random_state,
    make_riemannian_system,
    make_varpro_system,
    pose_jacobians,
    pose_residual,
    projective_jacobians,
    projective_residual,
)

LADYBUG_NAMES = ("problem-49-7776-pre.txt", "problem-49-7776-pre.txt.bz2",
                 "problem-49-7776-pre.txt.gz")


def _find_ladybug():
    roots = []
    if os.environ.get("BAL_DATA_DIR"):
        roots.append(Path(os.environ["BAL_DATA_DIR"]))
    roots.append(Path(__file__).parent / "data")
    for root in roots:
        for name in LADYBUG_NAMES:
            candidate = root / name
            if candidate.exists():
                return candidate
    return None


def test_criterion_01_spectrum_property():
    start = time.perf_counter()
    checked = 0
    rng = np.random.default_rng(1)
    for seed in range(50):
        n_cams = int(rng.integers(3, 11))
        n_lms = int(rng.integers(8, 20))
        lam = float(10.0 ** rng.uniform(-4, -1))
        system, _, _ = make_varpro_system(n_cams, n_lms, seed=seed, lam=lam)
        mu = spectral_check(system)
        assert 0.0 <= mu <= 1.0 - 1e-10
        checked += 1
    for seed in range(50):
        n_cams = int(rng.integers(3, 11))
        n_lms = int(rng.integers(8, 20))
        lam = float(10.0 ** rng.uniform(-4, -1))
        system, _, _ = make_riemannian_system(n_cams, n_lms, seed=seed + 500, lam=lam)
        mu = spectral_check(system)
        assert 0.0 <= mu <= 1.0 - 1e-10
        checked += 1
    # true spectra on a subset, via dense eigendecomposition
    for seed in range(5):
        for maker in (make_varpro_system, make_riemannian_system):
            system, _, _ = maker(4, 10, seed=seed + 900, lam=1e-4)
            u, w, v = dense_uwv(system)
            m = np.linalg.solve(u, w @ np.linalg.pinv(v, hermitian=True) @ w.T)
            mu_true = float(np.max(np.real(np.linalg.eigvals(m))))
            assert 0.0 <= mu_true <= 1.0 - 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: spectrum in [0, 1) for {checked} systems "
          f"({elapsed:.1f}s)")


def test_criterion_02_power_series_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        system, _, _ = make_varpro_system(3, 10, seed=seed + 100, lam=3.0)
        rep = power_schur_solve(system, SolverConfig(power_order=20, power_threshold=0.0))
        x_exact = np.linalg.solve(dense_schur(system), schur_rhs(system))
        rel = np.linalg.norm(rep.pose_update - x_exact) / np.linalg.norm(x_exact)
        worst = max(worst, rel)
        assert rel <= 1e-5
    # remainder of the truncated series against the geometric bound
    system, _, _ = make_varpro_system(3, 10, seed=3, lam=0.5)
    u, w, v = dense_uwv(system)
    vals, vecs = np.linalg.eigh(u)
    u_ih = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    msym = u_ih @ w @ np.linalg.pinv(v, hermitian=True) @ w.T @ u_ih
    norm_m = np.linalg.norm(msym, 2)
    assert norm_m < 1
    inv = np.linalg.inv(np.eye(len(msym)) - msym)
    partial = np.zeros_like(msym)
    power = np.eye(len(msym))
    for m in range(21):
        partial = partial + power
        power = power @ msym
        if m in (0, 1, 5, 20):
            remainder = np.linalg.norm(partial - inv, 2)
            bound = norm_m ** (m + 1) / (1.0 - norm_m)
            assert remainder <= bound * (1 + 1e-9) + 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: order-20 series within {worst:.2e} of direct solve; "
          f"remainder bound holds for m in {{0,1,5,20}} ({elapsed:.1f}s)")


def test_criterion_03_jacobian_suites():
    rng = np.random.default_rng(42)
    cfg_rel = 1e-6
    for _ in range(100):
        camera = rng.standard_normal((3, 4))
        landmark = np.append(rng.standard_normal(3), 1.0)
        measurement = rng.standard_normal(2)
        eta = rng.uniform(0, 1)
        jp, jl = pose_jacobians(camera, landmark, measurement, eta)
        fd_p = central_difference_jacobian(
            lambda c: pose_residual(c, landmark, measurement, eta), camera)
        fd_l = central_difference_jacobian(
            lambda v: pose_residual(camera, np.append(v, 1.0), measurement, eta),
            landmark[:3])
        assert np.abs(fd_p - jp).max() / max(1.0, np.abs(jp).max()) <= cfg_rel
        assert np.abs(fd_l - jl).max() / max(1.0, np.abs(jl).max()) <= cfg_rel
    done = 0
    while done < 100:
        camera = rng.standard_normal((3, 4))
        landmark = rng.standard_normal(4)
        if abs(camera[2] @ landmark) < 0.1:
            continue
        done += 1
        measurement = rng.standard_normal(2)
        jp, jl = projective_jacobians(camera, landmark, measurement)
        fd_p = central_difference_jacobian(
            lambda c: projective_residual(c, landmark, measurement), camera)
        fd_l = central_difference_jacobian(
            lambda v: projective_residual(camera, v, measurement), landmark)
        assert np.abs(fd_p - jp).max() / max(1.0, np.abs(jp).max()) <= cfg_rel
        assert np.abs(fd_l - jl).max() / max(1.0, np.abs(jl).max()) <= cfg_rel
    perm = np.arange(12).reshape(4, 3).flatten(order="F")
    for _ in range(100):
        h = rng.standard_normal((4, 3))
        deriv = gram_derivative(h)
        fd = central_difference_jacobian(
            lambda x: (x.reshape(4, 3) @ x.reshape(4, 3).T).flatten(order="F"), h)
        assert np.abs(fd[:, perm] - deriv).max() / max(1.0, np.abs(deriv).max()) <= cfg_rel
    print("\nACCEPTANCE 3 PASS: stage-1, projective, and gram-derivative Jacobians "
          "match finite differences on 100 instances each")


def test_criterion_04_landmark_elimination():
    rng = np.random.default_rng(7)
    # stationarity at the closed-form solution
    for seed in range(5):
        problem = make_random_problem(6, 10, seed=seed)
        state = make_random_state(problem, seed + 60, STAGE1)
        eta = 0.1
        lms = solve_landmarks(state, problem, eta).landmarks
        for j in range(problem.num_landmarks):
            rows_a, rows_r = [], []
            for k in range(problem.num_observations):
                if problem.landmark_indices[k] != j:
                    continue
                cam = state.cameras[problem.camera_indices[k]]
                m = problem.measurements[k]
                _, jl = pose_jacobians(cam, lms[j], m, eta)
                rows_a.append(jl)
                rows_r.append(pose_residual(cam, lms[j], m, eta))
            a = np.vstack(rows_a)
            r = np.concatenate(rows_r)
            grad = 2 * a.T @ r
            scale = max(1.0, float(r @ r))
            assert np.linalg.norm(grad) / scale <= 1e-8
    # noise-free recovery
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
        assert np.abs(out[0] - truth).max() <= 1e-10
    print("\nACCEPTANCE 4 PASS: landmark gradient <= 1e-8 relative at the closed-form "
          "solution; noise-free recovery within 1e-10")


def test_criterion_05_end_to_end_desk_scale():
    start = time.perf_counter()
    problem = make_ring_problem(10, 100, 0.0, seed=1)
    cfg = SolverConfig()  # defaults: varpro + power series
    ratios, finals = [], []
    for seed in (0, 1, 2):
        state = random_init(problem, seed)
        s1, trace1 = lm_minimize(problem, state, STAGE1, cfg)
        ratio = trace1.records[-1].cost / trace1.initial_cost
        assert trace1.records[-1].iteration <= 50
        assert ratio <= 1e-8
        s2, trace2 = lm_minimize(problem, retract(s1), STAGE2, cfg)
        final2 = trace2.records[-1].cost
        assert final2 <= 1e-6
        ratios.append(ratio)
        finals.append(final2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5 PASS: stage-1 cost ratios {max(ratios):.2e} <= 1e-8, "
          f"stage-2 costs {max(finals):.2e} <= 1e-6 over 3 seeds ({elapsed:.1f}s)")


def test_criterion_06_solver_agreement_small_instances():
    # systems taken from an actual optimization trajectory, damped enough for
    # the truncated series to be sharp
    problem = make_ring_problem(6, 40, 0.0, seed=3)
    state = random_init(problem, 0)
    states = [state]
    cfg = SolverConfig(max_iterations=6)
    s_final, _ = lm_minimize(problem, state, STAGE1, cfg)
    states.append(s_final)
    for extra_seed in (4, 5):
        states.append(random_init(problem, extra_seed))
    pairwise_worst = 0.0
    for st in states:
        blocks = build_stage1_blocks(problem, st, 0.1)
        system = assemble(blocks, 3.0, "pose_only")
        a = power_schur_solve(system, SolverConfig(power_order=20, power_threshold=0.0))
        b = pcg_schur_solve(system, SolverConfig(pcg_tolerance=1e-10,
                                                 inner_iterations=5000))
        c = direct_schur_solve(system, SolverConfig())
        scale = np.linalg.norm(c.pose_update)
        for x, y in ((a, b), (a, c), (b, c)):
            rel = np.linalg.norm(x.pose_update - y.pose_update) / scale
            pairwise_worst = max(pairwise_worst, rel)
            assert rel <= 1e-5
    print(f"\nACCEPTANCE 6a PASS: power/pcg/direct pose updates agree pairwise "
          f"within {pairwise_worst:.2e}")


def test_criterion_06_ladybug_family_threshold():
    path = _find_ladybug()
    if path is None:
        pytest.skip("Ladybug-49 BAL file not available offline; see module docstring")
    raw = load_bal(path)
    assert (raw.num_cameras, raw.num_landmarks, raw.num_observations) == (49, 7776, 31843)
    problem = prune_underobserved(raw)
    state = random_init(problem, 1)
    traces = []
    for solver in ("povar", "poba", "iterative", "direct"):
        _, trace = lm_minimize(problem, state, STAGE1, SolverConfig(stage1_solver=solver),
                               problem_id="ladybug49")
        assert trace.solver_id == solver
        traces.append(trace)
    threshold = cost_threshold(traces, tau=0.01)
    for trace in traces:
        reach = time_to_threshold(trace, threshold)
        assert reach is not None, f"{trace.solver_id} missed the tau=0.01 threshold"
    print("\nACCEPTANCE 6b PASS: all stage-1 solvers reach the tau=0.01 family "
          "threshold on Ladybug-49")


def test_criterion_07_riemannian_structure():
    problem = make_random_problem(3, 8, seed=5)
    state = make_random_state(problem, 6, STAGE2)
    blocks = build_stage2_blocks(problem, state)
    system0 = assemble(blocks, 0.0, BOTH)
    u, w, v = dense_uwv(system0)
    h = np.block([[u, w], [w.T, v]])
    eigs = np.linalg.eigvalsh(h)
    n_zero = int((np.abs(eigs) <= 1e-8).sum())
    assert n_zero >= problem.num_cameras + problem.num_landmarks

    bases = state_tangent_bases(state)
    projected = assemble(project_blocks(blocks, bases), 1e-4, BOTH)
    up, wp, vp = dense_uwv(projected)
    hp = np.block([[up, wp], [wp.T, vp]])
    min_eig = np.linalg.eigvalsh(hp).min()
    assert min_eig > 0

    ring = make_ring_problem(5, 25, 0.0, seed=2)
    start = random_init(ring, 0)
    s1, _ = lm_minimize(ring, start, STAGE1, SolverConfig())
    final, _ = lm_minimize(ring, retract(s1), STAGE2, SolverConfig())
    cam_norms = np.linalg.norm(final.cameras.reshape(-1, 12), axis=1)
    lm_norms = np.linalg.norm(final.landmarks, axis=1)
    assert np.abs(cam_norms - 1.0).max() <= 1e-12
    assert np.abs(lm_norms - 1.0).max() <= 1e-12
    print(f"\nACCEPTANCE 7 PASS: {n_zero} >= {problem.num_cameras + problem.num_landmarks} "
          f"null directions unprojected; projected system SPD (min eig {min_eig:.2e}); "
          "unit norms restored after optimization")


def test_criterion_08_performance_profiles(tmp_path):
    def mk(solver, prob, costs, times):
        recs = [TraceRecord(i, c, t) for i, (c, t) in enumerate(zip(costs, times))]
        return ConvergenceTrace(solver, prob, "stage1", recs)

    # hand-computed 2 solvers x 2 problems
    traces = [
        mk("a", "p1", [100.0, 0.0], [0.0, 1.0]),
        mk("b", "p1", [100.0, 0.0], [0.0, 2.0]),
        mk("a", "p2", [100.0, 0.0], [0.0, 4.0]),
        mk("b", "p2", [100.0, 0.0], [0.0, 2.0]),
    ]
    profiles = performance_profile(traces, tau=0.01)

    def value_at(result, alpha):
        out = 0.0
        for a, pct in result.curve:
            if a <= alpha + 1e-12:
                out = pct
        return out

    assert value_at(profiles["a"], 1.0) == 50.0
    assert value_at(profiles["a"], 2.0) == 100.0
    assert value_at(profiles["b"], 1.0) == 50.0
    assert value_at(profiles["b"], 2.0) == 100.0

    # hand-computed 3 solvers x 3 problems with an unreached cell
    traces3 = [
        mk("a", "p1", [100.0, 0.0], [0.0, 1.0]),
        mk("a", "p2", [100.0, 0.0], [0.0, 2.0]),
        mk("a", "p3", [100.0, 60.0], [0.0, 1.0]),
        mk("b", "p1", [100.0, 0.0], [0.0, 2.0]),
        mk("b", "p2", [100.0, 0.0], [0.0, 2.0]),
        mk("b", "p3", [100.0, 0.0], [0.0, 4.0]),
        mk("c", "p1", [100.0, 0.0], [0.0, 4.0]),
        mk("c", "p2", [100.0, 0.0], [0.0, 1.0]),
        mk("c", "p3", [100.0, 0.0], [0.0, 2.0]),
    ]
    profiles3 = performance_profile(traces3, tau=0.5)
    assert value_at(profiles3["a"], 1.0) == pytest.approx(100 / 3)
    assert value_at(profiles3["a"], 2.0) == pytest.approx(200 / 3)
    assert value_at(profiles3["a"], 32.0) == pytest.approx(200 / 3)
    assert value_at(profiles3["b"], 1.0) == 0.0
    assert value_at(profiles3["b"], 2.0) == pytest.approx(100.0)
    assert value_at(profiles3["c"], 1.0) == pytest.approx(200 / 3)
    assert value_at(profiles3["c"], 4.0) == pytest.approx(100.0)

    for result in list(profiles.values()) + list(profiles3.values()):
        pcts = [p for _, p in result.curve]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))
        assert all(0 <= p <= 100 for p in pcts)

    # lossless round trip through the CSV layer
    awkward = [mk("s", "p", [math.pi * 1e17, 1.2345678901234567e-13], [0.0, 0.97])]
    path = tmp_path / "trace.csv"
    write_trace_csv(awkward, path)
    back = read_trace_csv(path)[0]
    assert [r.cost for r in back.records] == [r.cost for r in awkward[0].records]
    assert [r.elapsed_seconds for r in back.records] == \
        [r.elapsed_seconds for r in awkward[0].records]
    print("\nACCEPTANCE 8 PASS: hand-computed 2x2 and 3x3 profiles reproduce exactly; "
          "curves monotone; CSV round-trip lossless")


def test_criterion_09_metric_upgrade():
    from scipy.spatial.transform import Rotation

    from stratba.bal_io import BaProblem

    def warped(c_true, n, seed, scales):
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.8, 1.5, n)
        rot = Rotation.from_rotvec(rng.standard_normal((n, 3))).as_matrix()
        t = rng.standard_normal((n, 3))
        k = np.zeros((n, 3, 3))
        k[:, 0, 0] = f
        k[:, 1, 1] = f
        k[:, 2, 2] = 1.0
        p = k @ np.concatenate([rot, t[:, :, None]], axis=2)
        hmat = np.eye(4)
        hmat[3, :3] = c_true
        xp = p @ np.linalg.inv(hmat)
        if scales:
            xp = rng.uniform(0.5, 2.0, n)[:, None, None] * xp
        mc = np.zeros((n, 9))
        mc[:, 6] = f
        prob = BaProblem(
            num_cameras=n, num_landmarks=1, num_observations=0,
            camera_indices=np.zeros(0, dtype=int), landmark_indices=np.zeros(0, dtype=int),
            measurements=np.zeros((0, 2)), metric_cameras=mc, metric_points=np.zeros((1, 3)))
        return prob, ProjectiveState(xp, np.array([[0.0, 0, 0, 1]]))

    c_true = np.array([0.1, -0.2, 0.3])
    problem, state = warped(c_true, n=6, seed=0, scales=True)
    result = upgrade(problem, state)
    c_err = np.abs(result.state.c - c_true).max()
    assert c_err <= 1e-3
    assert result.orthogonality_error <= 1e-6

    problem2, state2 = warped(np.zeros(3), n=5, seed=3, scales=False)
    result2 = upgrade(problem2, state2)
    assert np.abs(result2.state.c).max() <= 1e-6
    assert np.abs(result2.state.alphas - 1.0).max() <= 1e-6
    print(f"\nACCEPTANCE 9 PASS: recovered plane-at-infinity within {c_err:.2e}; "
          f"orthogonality residual {result.orthogonality_error:.2e}; metric input is "
          "a fixed point")


def test_criterion_10_determinism():
    problem = make_ring_problem(6, 40, 0.0, seed=2)
    state = random_init(problem, 11)
    stage1_cfgs = [
        SolverConfig(),
        SolverConfig(stage1_solver="poba"),
        SolverConfig(stage1_solver="iterative"),
        SolverConfig(stage1_solver="direct"),
    ]
    for cfg in stage1_cfgs:
        _, t1 = lm_minimize(problem, state, STAGE1, cfg)
        _, t2 = lm_minimize(problem, state, STAGE1, cfg)
        assert [r.cost for r in t1.records] == [r.cost for r in t2.records]
    s1, _ = lm_minimize(problem, state, STAGE1, SolverConfig(max_iterations=10))
    lifted = retract(s1)
    for cfg in (SolverConfig(max_iterations=10),
                SolverConfig(stage2_solver="ripcg", max_iterations=10)):
        _, t1 = lm_minimize(problem, lifted, STAGE2, cfg)
        _, t2 = lm_minimize(problem, lifted, STAGE2, cfg)
        assert [r.cost for r in t1.records] == [r.cost for r in t2.records]
    # the random start itself is a pure function of (problem, seed)
    again = random_init(problem, 11)
    np.testing.assert_array_equal(state.cameras, again.cameras)
    np.testing.assert_array_equal(state.landmarks, again.landmarks)
    print("\nACCEPTANCE 10 PASS: cost sequences bit-identical across repeated runs "
          "for all six solvers")
