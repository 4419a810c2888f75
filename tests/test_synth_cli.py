import ctypes
import gzip
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stratba
from stratba import cli
from stratba.bal_io import (
    ProjectiveState,
    load_bal,
    parse_bal,
    prune_underobserved,
    random_init,
    write_bal,
)
from stratba.cli import main
from stratba.evaluation import read_trace_csv
from stratba.objective import STAGE1, STAGE2, total_cost
from stratba.pipeline import RunSpec, read_state, run_problem, write_state
from stratba.riemannian import retract
from stratba.solvers import SolverConfig
from stratba.synth import ground_truth_state, make_ring_problem

# Every solver setting, in the order a summary's config echoes them after seed and stage.
SETTING_NAMES = [f.name for f in fields(SolverConfig)]


def bal_reproject(camera_row, point):
    """Independent BAL-convention projection: angle-axis via the Rodrigues formula."""
    rot, t, f, k1, k2 = camera_row[:3], camera_row[3:6], camera_row[6], camera_row[7], camera_row[8]
    theta = np.linalg.norm(rot)
    if theta < 1e-15:
        p = point.copy()
    else:
        axis = rot / theta
        p = (point * np.cos(theta) + np.cross(axis, point) * np.sin(theta)
             + axis * (axis @ point) * (1 - np.cos(theta)))
    p = p + t
    q = -p[:2] / p[2]
    r = 1.0 + k1 * (q @ q) + k2 * (q @ q) ** 2
    return f * r * q


def test_synth_rejects_bad_configs():
    with pytest.raises(ValueError, match="2 cameras"):
        make_ring_problem(1, 10, 0.0, seed=0)
    with pytest.raises(ValueError, match="landmark"):
        make_ring_problem(3, 0, 0.0, seed=0)
    with pytest.raises(ValueError, match="noise"):
        make_ring_problem(3, 3, -1.0, seed=0)


def test_synth_every_landmark_twice_observed():
    problem = make_ring_problem(2, 5, 0.0, seed=1)
    counts = np.bincount(problem.landmark_indices, minlength=problem.num_landmarks)
    assert (counts >= 2).all()


def test_synth_reparses_with_matching_counts(tmp_path):
    problem = make_ring_problem(4, 11, 0.5, seed=9)
    buf = io.StringIO()
    write_bal(problem, buf)
    again = parse_bal(io.StringIO(buf.getvalue()))
    assert again.num_cameras == 4
    assert again.num_landmarks == 11
    assert again.num_observations == 44
    np.testing.assert_array_equal(problem.measurements, again.measurements)


def test_synth_ground_truth_reprojects():
    problem = make_ring_problem(5, 20, 0.0, seed=3)
    for k in range(problem.num_observations):
        cam = problem.metric_cameras[problem.camera_indices[k]]
        pt = problem.metric_points[problem.landmark_indices[k]]
        np.testing.assert_allclose(bal_reproject(cam, pt), problem.measurements[k],
                                   atol=1e-9 * max(1.0, np.abs(problem.measurements[k]).max()))


def test_synth_noise_free_has_zero_projective_optimum():
    problem = make_ring_problem(5, 20, 0.0, seed=4)
    gt = ground_truth_state(problem)
    assert total_cost(gt, problem, STAGE2) <= 1e-12


def test_synth_noise_changes_measurements():
    clean = make_ring_problem(3, 8, 0.0, seed=5)
    noisy = make_ring_problem(3, 8, 2.0, seed=5)
    delta = np.abs(clean.measurements - noisy.measurements)
    assert delta.max() > 0.1
    np.testing.assert_array_equal(clean.metric_points, noisy.metric_points)


def _reference_state_bytes(state):
    """The state file written with one format(v, ".17g") per value."""
    lines = [f"cameras {len(state.cameras)}"]
    lines += [" ".join(format(v, ".17g") for v in cam) for cam in state.cameras.reshape(-1, 12)]
    lines.append(f"landmarks {len(state.landmarks)}")
    lines += [" ".join(format(v, ".17g") for v in lm) for lm in state.landmarks]
    return ("\n".join(lines) + "\n").encode()


def test_state_file_round_trip(tmp_path):
    problem = make_ring_problem(3, 7, 0.0, seed=6)
    gt = ground_truth_state(problem)
    landmarks = gt.landmarks.copy()
    landmarks[0] = [-0.0, np.nan, np.inf, -np.inf]
    landmarks[1, :2] = [1e-300, -5e-324]
    state = ProjectiveState(gt.cameras, landmarks)
    path = tmp_path / "state.txt"
    write_state(state, path)
    assert path.read_bytes() == _reference_state_bytes(state)
    again = read_state(path)
    assert np.signbit(again.landmarks[0, 0])
    np.testing.assert_array_equal(state.cameras, again.cameras)
    np.testing.assert_array_equal(state.landmarks, again.landmarks)


def test_write_bal_formats_each_value_at_17_digits():
    # a restatement: pins write_bal's bytes to one format(v, ".17g") per value
    problem = make_ring_problem(3, 7, 0.5, seed=6)
    edge = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324]
    measurements = problem.measurements.copy()
    cameras = problem.metric_cameras.copy()
    points = problem.metric_points.copy()
    measurements[:3] = np.reshape(edge, (3, 2))
    cameras[0, :6] = edge
    points[:2] = np.reshape(edge, (2, 3))
    problem = replace(problem, measurements=measurements, metric_cameras=cameras,
                      metric_points=points)
    lines = [f"{problem.num_cameras} {problem.num_landmarks} {problem.num_observations}"]
    lines += [f"{c} {l} {format(m[0], '.17g')} {format(m[1], '.17g')}" for c, l, m in
              zip(problem.camera_indices, problem.landmark_indices, problem.measurements)]
    lines += [format(v, ".17g") for v in np.concatenate([cameras.ravel(), points.ravel()])]
    buf = io.StringIO()
    write_bal(problem, buf)
    assert buf.getvalue() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [
    "",
    "points 1\n1 2 3 4 5 6 7 8 9 10 11 12\nlandmarks 0\n",
    "cameras 1\n1 2 3\nlandmarks 0\n",
    "cameras 0\nlandmarks 1\n1 2 3 x\n",
    "cameras 0\nlandmarks 2\n1 2 3 4\n",
])
def test_read_state_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "state.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_state(path)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "ring.txt"
    code = main(["synth", "--cameras", "6", "--landmarks", "30", "--noise", "0",
                 "--seed", "1", "-o", str(path)])
    assert code == 0
    return path


def test_cli_synth_output_parses(synth_file):
    problem = load_bal(synth_file)
    assert problem.num_cameras == 6
    assert problem.num_observations == 180


def test_cli_synth_rejects_one_camera(tmp_path, capsys):
    code = main(["synth", "--cameras", "1", "--landmarks", "5",
                 "-o", str(tmp_path / "x.txt")])
    assert code == 3
    assert "config error" in capsys.readouterr().err


def test_cli_solve_stage1_artifacts(synth_file, tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--stage1", "--solver", "povar", "--seed", "1",
                 "--out-dir", str(out), str(synth_file)])
    assert code == 0
    traces = read_trace_csv(out / "ring_trace.csv")
    assert len(traces) == 1
    t = traces[0]
    assert t.stage == "stage1"
    assert t.solver_id == "povar"
    assert len(t.records) <= 51  # initial record plus at most 50 iterations
    summary = json.loads((out / "ring_summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["config"]["max_iterations"] == 50
    assert summary["config"]["function_tolerance"] == 1e-6
    assert summary["config"]["initial_lambda"] == 1e-4
    assert summary["config"]["power_order"] == 20
    assert summary["config"]["power_threshold"] == 0.01
    assert summary["config"]["inner_iterations"] == 500
    assert summary["config"]["eta"] == 0.1
    assert list(summary["config"]) == ["seed", "stage", *SETTING_NAMES]
    state = read_state(out / "ring_state.txt")
    assert state.cameras.shape == (6, 3, 4)


def test_solver_names_label_traces_and_summaries(synth_file, tmp_path):
    # every solver name comes back unchanged as its stage's trace solver_id,
    # summary "solver" and config echo
    for stage1, stage2 in (("povar", "ripoba"), ("poba", "ripcg"),
                           ("iterative", "ripoba"), ("direct", "ripcg")):
        out = tmp_path / stage1
        code = main(["solve", "--full", "--solver", stage1, "--stage2-solver", stage2,
                     "--max-iterations", "3", "--seed", "1", "--out-dir", str(out),
                     str(synth_file)])
        assert code == 0
        traces = {t.stage: t.solver_id for t in read_trace_csv(out / "ring_trace.csv")}
        assert traces == {"stage1": stage1, "stage2": stage2, "full": stage2}
        summary = json.loads((out / "ring_summary.json").read_text())
        assert summary["stages"]["stage1"]["solver"] == stage1
        assert summary["stages"]["stage2"]["solver"] == stage2
        assert list(summary["config"]) == ["seed", "stage", *SETTING_NAMES]
        assert (summary["config"]["stage1_solver"], summary["config"]["stage2_solver"]) == (
            stage1, stage2)


def test_cli_solve_deterministic_costs(synth_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["solve", "--stage1", "--solver", "povar", "--seed", "7",
                     "--out-dir", str(out), str(synth_file)])
        assert code == 0
        t = read_trace_csv(out / "ring_trace.csv")[0]
        outs.append([r.cost for r in t.records])
    assert outs[0] == outs[1]


def test_cli_solve_full_writes_stage2_and_cumulative(synth_file, tmp_path):
    out = tmp_path / "full"
    code = main(["solve", "--full", "--seed", "1", "--out-dir", str(out), str(synth_file)])
    assert code == 0
    traces = {t.stage: t for t in read_trace_csv(out / "ring_trace.csv")}
    assert set(traces) == {"stage1", "stage2", "full"}
    # the cumulative trace leads with the projective cost of the random start
    full = traces["full"]
    stage2 = traces["stage2"]
    assert full.records[0].iteration == 0
    assert full.records[1].cost == stage2.records[0].cost
    assert full.records[0].cost != stage2.records[0].cost
    offset = full.records[1].elapsed_seconds - stage2.records[0].elapsed_seconds
    assert offset > 0  # includes the first stage's runtime
    times = [r.elapsed_seconds for r in full.records]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_cli_solve_stage2_only(synth_file, tmp_path):
    out = tmp_path / "s2"
    code = main(["solve", "--stage2", "--seed", "1", "--out-dir", str(out), str(synth_file)])
    assert code == 0
    traces = {t.stage: t for t in read_trace_csv(out / "ring_trace.csv")}
    assert "stage1" not in traces
    assert set(traces) == {"stage2", "full"}
    summary = json.loads((out / "ring_summary.json").read_text())
    assert list(summary["stages"]) == ["stage2"]


def test_cli_solve_metric_stage(synth_file, tmp_path):
    out = tmp_path / "metric"
    code = main(["solve", "--metric", "--seed", "1", "--out-dir", str(out), str(synth_file)])
    assert code == 0
    summary = json.loads((out / "ring_summary.json").read_text())
    assert "metric" in summary["stages"]
    lines = (out / "ring_metric.txt").read_text().splitlines()
    assert lines[0] == "cameras 6"
    for line in lines[1:]:
        # 9 rotation and 3 translation numbers, each as format(v, ".17g") writes it
        values = [float(v) for v in line.split()]
        assert len(values) == 12
        assert line == " ".join(format(v, ".17g") for v in values)


def test_summary_records_measurement_scale(synth_file, tmp_path):
    out = tmp_path / "scale"
    assert main(["solve", "--stage1", "--max-iterations", "2", "--out-dir", str(out),
                 str(synth_file)]) == 0
    summary = json.loads((out / "ring_summary.json").read_text())
    m = prune_underobserved(load_bal(synth_file)).measurements
    assert summary["measurement_scale"] == pytest.approx(np.sqrt(np.mean(m**2)), rel=1e-15)
    assert summary["measurement_scale"] > 10  # the ring's pixels are far from unit scale


def test_stage1_trace_is_in_normalized_units(synth_file, tmp_path):
    # the trace holds the cost at the normalized measurements; the state file
    # holds pixel cameras, whose pixel cost is s^2 times that
    out = tmp_path / "s1"
    assert main(["solve", "--stage1", "--seed", "3", "--out-dir", str(out),
                 str(synth_file)]) == 0
    s = json.loads((out / "ring_summary.json").read_text())["measurement_scale"]
    final = read_trace_csv(out / "ring_trace.csv")[0].records[-1].cost
    problem = prune_underobserved(load_bal(synth_file))
    pixel_cost = total_cost(read_state(out / "ring_state.txt"), problem, STAGE1)
    assert pixel_cost == pytest.approx(s**2 * final, rel=1e-10)


def test_full_trace_starts_at_the_pixel_cost_of_the_lifted_start(synth_file, tmp_path):
    out = tmp_path / "full"
    assert main(["solve", "--full", "--seed", "4", "--out-dir", str(out),
                 str(synth_file)]) == 0
    full = {t.stage: t for t in read_trace_csv(out / "ring_trace.csv")}["full"]
    problem = prune_underobserved(load_bal(synth_file))
    s = json.loads((out / "ring_summary.json").read_text())["measurement_scale"]
    start = random_init(problem.rescaled(s), 4)
    pixel_start = ProjectiveState(start.cameras * np.array([s, s, 1.0])[:, None],
                                  start.landmarks)
    expected = total_cost(retract(pixel_start), problem, STAGE2)
    assert full.records[0].cost == pytest.approx(expected, rel=1e-12)
    # not the cost of the same draw taken as pixel cameras
    assert full.records[0].cost != pytest.approx(
        total_cost(retract(start), problem, STAGE2), rel=1e-3)


def test_all_zero_measurements_get_scale_one(tmp_path):
    ring = make_ring_problem(6, 30, 0.0, seed=1)
    path = tmp_path / "zero.txt"
    with open(path, "w") as fh:
        write_bal(replace(ring, measurements=np.zeros_like(ring.measurements)), fh)
    out = tmp_path / "zero"
    assert main(["solve", "--full", "--seed", "1", "--out-dir", str(out), str(path)]) == 0
    summary = json.loads((out / "zero_summary.json").read_text())
    assert summary["measurement_scale"] == 1.0
    costs = [r.cost for t in read_trace_csv(out / "zero_trace.csv") for r in t.records]
    assert np.isfinite(costs).all()


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# Solves the ring twice in a fresh interpreter, so that the allocator state
# left by earlier tests does not decide the count, and prints the minor page
# faults of the second solve.
_SECOND_SOLVE_FAULTS = """
import contextlib, io, resource, sys
from stratba.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--full", "--out-dir", sys.argv[2], sys.argv[1]]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["solve", "--full", "--out-dir", sys.argv[3], sys.argv[1]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="glibc mallopt not available")
def test_cli_solve_keeps_freed_memory_mapped(tmp_path):
    # With glibc's default policy every linearization trims the heap and
    # faults the same pages in again: about 26k minor faults per warm solve of
    # this ring. With the policy that main sets, a warm solve takes at most a
    # few hundred. (On a 16 x 200 ring the default policy's count ranges from
    # 0 to 3.6k, too close to call.)
    ring = tmp_path / "ring16.txt"
    assert main(["synth", "--cameras", "16", "--landmarks", "800", "--noise", "0.5",
                 "--seed", "0", "-o", str(ring)]) == 0
    src = str(Path(stratba.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _SECOND_SOLVE_FAULTS, str(ring),
         str(tmp_path / "warm"), str(tmp_path / "measured")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert int(run.stdout) < 2000


def test_cli_solve_full_is_blas_thread_invariant(tmp_path):
    # povar then ripoba give the same trace costs and state bytes under one
    # and two BLAS threads (``direct`` does not; see the README)
    ring = tmp_path / "ring.txt"
    with open(ring, "w") as fh:
        write_bal(make_ring_problem(10, 100, 0.5, 1), fh)
    src = str(Path(stratba.__file__).parents[1])
    runs = {}
    for count in ("1", "2"):
        out = tmp_path / f"threads{count}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "stratba.cli", "solve", "--full", "--seed", "1",
                        "--solver", "povar", "--stage2-solver", "ripoba",
                        "--out-dir", str(out), str(ring)],
                       env=env, capture_output=True, text=True, timeout=120, check=True)
        traces = read_trace_csv(out / "ring_trace.csv")
        runs[count] = ([(t.stage, [r.cost for r in t.records]) for t in traces],
                       (out / "ring_state.txt").read_bytes())
    assert [stage for stage, _ in runs["1"][0]] == ["stage1", "stage2", "full"]
    assert runs["2"] == runs["1"]


def _solve_artifacts(path, out):
    assert main(["solve", "--full", "--out-dir", str(out), str(path)]) == 0
    traces = read_trace_csv(out / "ring_trace.csv")
    return ((out / "ring_state.txt").read_bytes(),
            [(t.stage, [(r.iteration, r.cost) for r in t.records]) for t in traces])


def _raise_os_error(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("cdll", [_raise_os_error, lambda name: SimpleNamespace()],
                         ids=["no-libc", "no-mallopt"])
def test_cli_solve_without_mallopt(synth_file, tmp_path, monkeypatch, cdll):
    reference = _solve_artifacts(synth_file, tmp_path / "reference")
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert _solve_artifacts(synth_file, tmp_path / "fallback") == reference


def test_keep_freed_memory_mapped_sets_both_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli.keep_freed_memory_mapped()
    assert calls == [(-1, 256 << 20), (-3, 32 << 20)]


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    out = tmp_path / "out"
    code = main(["solve", "--stage1", "--out-dir", str(out), str(bad)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_file_exit_code(tmp_path):
    code = main(["solve", "--stage1", str(tmp_path / "nope.txt")])
    assert code == 2


def _unreadable_input(tmp_path, kind):
    """An input that cannot be read or decoded, of the given kind."""
    text = b"1 1 1\n0 0 1.0 2.0\n" + b"0.0\n" * 12
    path = tmp_path / f"bad.{kind}"
    if kind == "dir":
        path.mkdir()
    elif kind == "gz":
        path.write_bytes(b"\x1f\x8b\x08\x00" + b"not deflate data" * 4)
    elif kind == "truncated.gz":
        data = gzip.compress(text)
        path.write_bytes(data[:len(data) // 2])
    elif kind == "bz2":
        path.write_bytes(b"BZh9" + bytes(40))
    else:
        path.write_bytes(text.replace(b"1.0 2.0", b"1.0 2.0\xff"))
    return path


@pytest.mark.parametrize("kind", ["dir", "gz", "latin1.txt"])
def test_cli_unreadable_input_creates_no_out_dir(tmp_path, capsys, kind):
    bad = _unreadable_input(tmp_path, kind)
    out = tmp_path / "out"
    assert main(["solve", "--stage1", "--out-dir", str(out), str(bad)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["dir", "gz", "truncated.gz", "bz2", "latin1.txt"])
def test_cli_unreadable_input_exit_code(synth_file, tmp_path, capsys, kind):
    # each is one stderr line and exit 2; the other input still runs
    bad = _unreadable_input(tmp_path, kind)
    out = tmp_path / "out"
    code = main(["solve", "--stage1", "--out-dir", str(out), str(bad), str(synth_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot read {bad}")
    assert (out / "ring_trace.csv").exists()


def test_cli_unwritable_artifact_is_config_error(synth_file, tmp_path, capsys):
    # an artifact path that is a directory: one stderr line and exit 3; the
    # other input still solves
    out = tmp_path / "out"
    (out / "ring_trace.csv").mkdir(parents=True)
    other = tmp_path / "other.txt"
    other.write_bytes(synth_file.read_bytes())
    code = main(["solve", "--stage1", "--out-dir", str(out), str(synth_file), str(other)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"config error: cannot write {out / 'ring_trace.csv'}")
    assert [t.stage for t in read_trace_csv(out / "other_trace.csv")] == ["stage1"]
    assert (out / "other_state.txt").exists()


def test_cli_nothing_to_solve_exit_code(tmp_path, capsys):
    # every landmark is seen by one camera, so pruning leaves none
    bare = tmp_path / "bare.txt"
    bare.write_text("2 2 2\n0 0 1.0 2.0\n1 1 3.0 4.0\n" + "0\n" * 24)
    out = tmp_path / "out"
    assert main(["solve", "--full", "--out-dir", str(out), str(bare)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert str(bare) in err and "no landmark is seen by two cameras" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("row, column, value, camera, point", [
    (0, 2, "nan", 0, 0), (40, 3, "-inf", 1, 10),
])
def test_cli_non_finite_measurement_exit_code(synth_file, tmp_path, capsys,
                                              row, column, value, camera, point):
    lines = synth_file.read_text().split("\n")
    tokens = lines[1 + row].split()
    assert tokens[:2] == [str(camera), str(point)]
    tokens[column] = value
    lines[1 + row] = " ".join(tokens)
    synth_file.write_text("\n".join(lines))
    out = tmp_path / "out"
    assert main(["solve", "--full", "--out-dir", str(out), str(synth_file)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err == (f"error: non-finite measurement in {synth_file}: observation {row} "
                   f"(camera {camera}, point {point})\n")
    assert not out.exists()


def test_cli_metric_without_focal_lengths_exits_4(tmp_path, capsys):
    # write_bal writes a missing metric block as zeros: every focal length is 0
    path = tmp_path / "ring.txt"
    with open(path, "w") as fh:
        write_bal(replace(make_ring_problem(6, 30, 0.0, 1), metric_cameras=None), fh)
    out = tmp_path / "out"
    assert main(["solve", "--metric", "--out-dir", str(out), str(path)]) == cli.EXIT_NUMERIC
    assert "singular intrinsics" in capsys.readouterr().err
    traces = read_trace_csv(out / "ring_trace.csv")
    assert [t.stage for t in traces] == ["stage1", "stage2", "full"]
    summary = json.loads((out / "ring_summary.json").read_text())
    assert set(summary["stages"]) == {"stage1", "stage2"}
    assert "singular intrinsics" in summary["error"]
    assert (out / "ring_state.txt").exists()
    assert not (out / "ring_metric.txt").exists()


@pytest.mark.parametrize("focal", [np.inf, np.nan])
def test_cli_metric_with_a_non_finite_focal_length_exits_4(tmp_path, capsys, focal):
    # the stages run, and the upgrade names the first camera without a usable focal length
    problem = make_ring_problem(6, 30, 0.0, 1)
    cams = problem.metric_cameras.copy()
    cams[[2, 4], 6] = focal
    path = tmp_path / "ring.txt"
    with open(path, "w") as fh:
        write_bal(replace(problem, metric_cameras=cams), fh)
    out = tmp_path / "out"
    assert main(["solve", "--metric", "--out-dir", str(out), str(path)]) == cli.EXIT_NUMERIC
    cause = f"non-finite focal length {focal} of camera 2"
    assert cause in capsys.readouterr().err
    traces = read_trace_csv(out / "ring_trace.csv")
    assert [t.stage for t in traces] == ["stage1", "stage2", "full"]
    summary = json.loads((out / "ring_summary.json").read_text())
    assert set(summary["stages"]) == {"stage1", "stage2"}
    assert cause in summary["error"]
    assert (out / "ring_state.txt").exists()
    assert not (out / "ring_metric.txt").exists()


def test_cli_config_error_exit_code(synth_file, capsys):
    # unknown names, and names of the other stage's solvers
    for flag, name in (("--solver", "magic"), ("--solver", "ripoba"),
                       ("--stage2-solver", "povar")):
        code = main(["solve", flag, name, str(synth_file)])
        assert code == 3
        assert "config error" in capsys.readouterr().err



@pytest.mark.parametrize("flag, value", [
    ("--eta", "1.5"), ("--max-iterations", "0"), ("--lambda0", "0"),
    ("--power-order", "-1"), ("--inner-iterations", "0"),
    # non-finite values
    ("--lambda0", "nan"), ("--lambda0", "inf"), ("--ftol", "nan"), ("--ftol", "inf"),
    ("--power-threshold", "nan"),
])
def test_cli_setting_out_of_range_is_config_error(synth_file, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["solve", flag, value, "--out-dir", str(out), str(synth_file)])
    assert code == 3
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_run_problem_echoes_pcg_tolerance(synth_file, tmp_path):
    spec = RunSpec(inputs=[str(synth_file)], seed=1, stage="stage1", out_dir=str(tmp_path),
                   solver=SolverConfig(stage1_solver="iterative", max_iterations=2,
                                       pcg_tolerance=1e-9))
    summary = run_problem(str(synth_file), spec)
    assert summary["config"]["pcg_tolerance"] == 1e-9
    assert json.loads((tmp_path / "ring_summary.json").read_text())["config"] == summary["config"]


@pytest.mark.parametrize("seed", [0, 1])
def test_forcing_tolerance_reaches_the_same_minimum(tmp_path, seed):
    # an inexact inner solve (PCG to the default forcing tolerance) ends
    # both stages where a near-exact one and the power series end
    path = tmp_path / "ring.txt"
    assert main(["synth", "--cameras", "10", "--landmarks", "100", "--noise", "0.5",
                 "--seed", "1", "-o", str(path)]) == 0

    def final_costs(name, solver):
        spec = RunSpec(inputs=[str(path)], seed=seed, stage="full",
                       out_dir=str(tmp_path / name), solver=solver)
        run_problem(str(path), spec)
        traces = read_trace_csv(tmp_path / name / "ring_trace.csv")
        return {t.stage: t.records[-1].cost for t in traces if t.stage != "full"}

    pcg = SolverConfig(stage1_solver="iterative", stage2_solver="ripcg")
    assert pcg.pcg_tolerance == 0.1
    loose = final_costs("loose", pcg)
    assert loose.keys() == {"stage1", "stage2"}
    for name, solver in (("tight", replace(pcg, pcg_tolerance=1e-10)),
                         ("series", SolverConfig())):
        for stage, cost in final_costs(name, solver).items():
            assert loose[stage] == pytest.approx(cost, rel=1e-8, abs=0)


@pytest.mark.parametrize("seed", [0, 3])
def test_noise_free_stage2_stops_at_the_rounding_floor(tmp_path, seed):
    # the README quick-start ring: stage 2 reaches a cost at rounding level
    path = tmp_path / "ring.txt"
    assert main(["synth", "--cameras", "10", "--landmarks", "100", "--noise", "0",
                 "--seed", "1", "-o", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["solve", "--full", "--seed", str(seed), "--out-dir", str(out), str(path)]) == 0
    stage2 = next(t for t in read_trace_csv(out / "ring_trace.csv") if t.stage == "stage2")
    assert len(stage2.records) - 1 <= 5
    assert stage2.records[-1].cost <= np.finfo(float).eps * stage2.records[0].cost


def test_cli_numeric_failure_keeps_partial_artifacts(synth_file, tmp_path, monkeypatch, capsys):
    import stratba.pipeline as pipeline_mod
    from stratba.solvers import NumericFailureError

    real_lm = pipeline_mod.lm_minimize

    def fail_on_stage2(problem, state, stage, config, *args, **kwargs):
        if stage == 2:
            raise NumericFailureError("synthetic stage-2 failure")
        return real_lm(problem, state, stage, config, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "lm_minimize", fail_on_stage2)
    out = tmp_path / "fail"
    code = main(["solve", "--full", "--seed", "1", "--out-dir", str(out), str(synth_file)])
    assert code == 4
    assert "partial artifacts" in capsys.readouterr().err
    # stage-1 trace and the summary (with the error) survive
    traces = read_trace_csv(out / "ring_trace.csv")
    assert [t.stage for t in traces] == ["stage1"]
    summary = json.loads((out / "ring_summary.json").read_text())
    assert "error" in summary
    assert (out / "ring_state.txt").exists()


@pytest.mark.parametrize("module, name, error, stage2_solver", [
    pytest.param("solvers", "_u_inverse", np.linalg.LinAlgError("Singular matrix"), "ripoba",
                 id="solvers-_u_inverse-error0"),
    pytest.param("riemannian", "build_stage2_blocks",
                 FloatingPointError("degenerate projection while linearizing stage 2"), "ripoba",
                 id="riemannian-build_stage2_blocks-error1"),
    # PCG inverts the same pose blocks as the power series
    pytest.param("solvers", "_u_inverse", np.linalg.LinAlgError("Singular matrix"), "ripcg",
                 id="solvers-_u_inverse-ripcg"),
])
def test_cli_linalg_and_degenerate_failures_exit_4(synth_file, tmp_path, monkeypatch, capsys,
                                                   module, name, error, stage2_solver):
    import importlib

    mod = importlib.import_module(f"stratba.{module}")
    real = getattr(mod, name)

    def fail_in_stage2(*args, **kwargs):
        if module == "solvers" and args[0].pose_width == 12:
            return real(*args, **kwargs)  # the power series of stage 1 proceeds
        raise error

    monkeypatch.setattr(mod, name, fail_in_stage2)
    out = tmp_path / "fail"
    code = main(["solve", "--full", "--seed", "1", "--stage2-solver", stage2_solver,
                 "--out-dir", str(out), str(synth_file)])
    assert code == 4
    assert "partial artifacts" in capsys.readouterr().err
    traces = read_trace_csv(out / "ring_trace.csv")
    assert [t.stage for t in traces] == ["stage1"]
    summary = json.loads((out / "ring_summary.json").read_text())
    assert str(error) in summary["error"]
    assert (out / "ring_state.txt").exists()


def test_cli_profile_hand_checked(tmp_path):
    # build a 2x2 trace matrix by hand and check the emitted profile values
    from stratba.evaluation import ConvergenceTrace, TraceRecord, write_trace_csv

    def t(solver, problem, reach_time):
        recs = [TraceRecord(0, 100.0, 0.0), TraceRecord(1, 0.0, reach_time)]
        return ConvergenceTrace(solver, problem, "stage1", recs)

    traces = [t("a", "p1", 1.0), t("b", "p1", 2.0), t("a", "p2", 4.0), t("b", "p2", 2.0)]
    trace_path = tmp_path / "traces.csv"
    write_trace_csv(traces, trace_path)
    out = tmp_path / "prof.csv"
    code = main(["profile", "--tau", "0.01", "--out", str(out), str(trace_path)])
    assert code == 0
    from stratba.evaluation import read_profile_csv

    profiles = {p.solver_id: p for p in read_profile_csv(out)}

    def value_at(p, alpha):
        v = 0.0
        for a, pct in p.curve:
            if a <= alpha + 1e-12:
                v = pct
        return v

    assert value_at(profiles["a"], 1.0) == pytest.approx(50.0)
    assert value_at(profiles["a"], 2.0) == pytest.approx(100.0)
    assert value_at(profiles["b"], 1.0) == pytest.approx(50.0)
    assert value_at(profiles["b"], 2.0) == pytest.approx(100.0)


def test_cli_profile_stage_filter_empty(tmp_path, capsys):
    from stratba.evaluation import ConvergenceTrace, TraceRecord, write_trace_csv

    trace_path = tmp_path / "traces.csv"
    write_trace_csv([ConvergenceTrace("a", "p", "stage2", [TraceRecord(0, 1.0, 0.0)])],
                    trace_path)
    code = main(["profile", "--stage", "stage1", str(trace_path)])
    assert code == 3


def test_cli_profile_rejects_traces_with_different_initial_costs(synth_file, tmp_path, capsys):
    # two random starts of one problem give two initial costs: no shared threshold
    traces = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        assert main(["solve", "--stage1", "--seed", seed, "--out-dir", str(out),
                     str(synth_file)]) == 0
        traces.append(str(out / "ring_trace.csv"))
    capsys.readouterr()
    profile = tmp_path / "profile.csv"
    assert main(["profile", "--out", str(profile), *traces]) == cli.EXIT_CONFIG
    assert "traces disagree on the initial cost" in capsys.readouterr().err
    assert not profile.exists()


def test_cli_profile_rejects_full_traces_that_differ_only_in_solver(synth_file, tmp_path,
                                                                     capsys):
    # both runs refine with ripoba, so their full traces share one solver name
    traces = []
    for solver in ("povar", "poba"):
        out = tmp_path / solver
        assert main(["solve", "--full", "--solver", solver, "--out-dir", str(out),
                     str(synth_file)]) == 0
        traces.append(str(out / "ring_trace.csv"))
    capsys.readouterr()
    profile = tmp_path / "profile.csv"
    assert main(["profile", "--stage", "full", "--out", str(profile), *traces]) == cli.EXIT_CONFIG
    assert "two traces of solver 'ripoba' on problem 'ring'" in capsys.readouterr().err
    assert not profile.exists()
    assert main(["profile", "--stage", "stage1", "--out", str(profile), *traces]) == 0


@pytest.mark.parametrize("tau", ["-0.5", "1", "2", "nan"])
def test_cli_profile_rejects_tau_outside_unit_interval(tmp_path, capsys, tau):
    from stratba.evaluation import ConvergenceTrace, TraceRecord, write_trace_csv

    trace_path = tmp_path / "traces.csv"
    write_trace_csv([ConvergenceTrace("a", "p", "stage1",
                                      [TraceRecord(0, 1.0, 0.0), TraceRecord(1, 0.5, 0.1)])],
                    trace_path)
    profile = tmp_path / "profile.csv"
    assert main(["profile", "--tau", tau, "--out", str(profile), str(trace_path)]) == cli.EXIT_CONFIG
    assert "tau must lie in [0, 1)" in capsys.readouterr().err
    assert not profile.exists()


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_cli_synth_rejects_non_finite_noise(tmp_path, capsys, noise):
    path = tmp_path / "ring.txt"
    code = main(["synth", "--cameras", "6", "--landmarks", "30", "--noise", noise,
                 "-o", str(path)])
    assert code == cli.EXIT_CONFIG
    assert "noise must be finite and non-negative" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_cli_solve_out_dir_under_a_file_is_config_error(synth_file, tmp_path, capsys, out_dir):
    (tmp_path / "afile").write_text("kept\n")
    code = main(["solve", "--stage1", "--out-dir", str(tmp_path / out_dir), str(synth_file)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: output directory ") and err.count("\n") == 1
    assert f"{tmp_path / 'afile'} is not a directory" in err
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert not list(tmp_path.glob("**/ring_*"))


def test_cli_synth_unwritable_output_is_config_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("kept\n")
    out = tmp_path / "afile" / "x.txt"
    code = main(["synth", "--cameras", "6", "--landmarks", "30", "-o", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_cli_profile_unwritable_output_is_config_error(tmp_path, capsys):
    from stratba.evaluation import ConvergenceTrace, TraceRecord, write_trace_csv

    trace_path = tmp_path / "traces.csv"
    write_trace_csv([ConvergenceTrace("a", "p", "stage1",
                                      [TraceRecord(0, 1.0, 0.0), TraceRecord(1, 0.5, 0.1)])],
                    trace_path)
    out = tmp_path / "nodir" / "p.csv"
    assert main(["profile", "--out", str(out), str(trace_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1
    assert not (tmp_path / "nodir").exists()


def test_cli_solves_two_inputs(tmp_path):
    paths = []
    for i in range(2):
        p = tmp_path / f"ring{i}.txt"
        assert main(["synth", "--cameras", "4", "--landmarks", "12", "--seed", str(i),
                     "-o", str(p)]) == 0
        paths.append(str(p))
    out = tmp_path / "out"
    code = main(["solve", "--stage1", "--out-dir", str(out), *paths])
    assert code == 0
    assert (out / "ring0_trace.csv").exists()
    assert (out / "ring1_trace.csv").exists()


@pytest.mark.parametrize("names", [("a/x.txt", "b/x.txt"), ("x.v1.txt", "x.v2.txt")])
def test_cli_refuses_colliding_artifact_stems(tmp_path, capsys, names):
    paths = []
    for i, name in enumerate(names):
        p = tmp_path / name
        p.parent.mkdir(parents=True, exist_ok=True)
        assert main(["synth", "--cameras", "4", "--landmarks", "12", "--seed", str(i),
                     "-o", str(p)]) == 0
        paths.append(str(p))
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["solve", "--stage1", "--out-dir", str(out), *paths])
    assert code == 3
    err = capsys.readouterr().err
    assert "'x'" in err and all(p in err for p in paths)
    assert not out.exists() or not any(out.iterdir())


def test_solve_defaults_are_run_spec_defaults(monkeypatch):
    # seed, stage and artifact directory default to RunSpec's values
    specs = []
    monkeypatch.setattr(cli, "run_problem", lambda path, spec: specs.append(spec) or {"stages": {}})
    args = cli._build_parser().parse_args(["solve", "p.txt"])
    assert (args.seed, args.stage) == (RunSpec.seed, RunSpec.stage)
    assert cli._cmd_solve(args) == cli.EXIT_OK
    assert specs == [RunSpec(inputs=["p.txt"])]
    # one name per setting: SolverConfig field, flag dest and summary key, in summary order
    assert list(specs[0].config_echo()) == ["seed", "stage", *SETTING_NAMES]


def test_solve_flags_are_the_declared_ones():
    # the flags perfbench and the README use, each setting its SolverConfig field;
    # pcg_tolerance is set through RunSpec only
    assert {f.metadata["flag"]: f.name for f in cli.FLAGGED_SETTINGS} == {
        "--solver": "stage1_solver", "--stage2-solver": "stage2_solver", "--eta": "eta",
        "--lambda0": "initial_lambda", "--max-iterations": "max_iterations",
        "--ftol": "function_tolerance", "--power-order": "power_order",
        "--power-threshold": "power_threshold", "--inner-iterations": "inner_iterations"}
