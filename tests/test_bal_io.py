import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratba import bal_io
from stratba.bal_io import (
    BalParseError,
    BaProblem,
    ObservationPlan,
    ProjectiveState,
    load_bal,
    parse_bal,
    prune_underobserved,
    random_init,
    write_bal,
)
from stratba.objective import STAGE1, total_cost
from stratba.solvers import SolverConfig, lm_minimize
from stratba.synth import make_ring_problem


def minimal_bal_text():
    lines = ["1 1 1", "0 0 1.5 -2.0"]
    lines += [str(float(i)) for i in range(9)]
    lines += ["0.1", "0.2", "0.3"]
    return "\n".join(lines) + "\n"


def test_parse_minimal():
    p = parse_bal(io.StringIO(minimal_bal_text()))
    assert (p.num_cameras, p.num_landmarks, p.num_observations) == (1, 1, 1)
    np.testing.assert_allclose(p.measurements[0], [1.5, -2.0])
    np.testing.assert_allclose(p.metric_cameras[0], np.arange(9.0))
    np.testing.assert_allclose(p.metric_points[0], [0.1, 0.2, 0.3])


def test_parse_scientific_notation_and_whitespace():
    text = "1 1 1\n0 0 1.5e0 -2.0E0\n" + " ".join(["0"] * 9) + "\n1 2 3\n"
    p = parse_bal(io.StringIO(text))
    np.testing.assert_allclose(p.measurements[0], [1.5, -2.0])


def test_camera_index_out_of_range():
    text = "2 1 2\n0 0 1 1\n5 0 1 1\n" + "\n".join(["0"] * 21) + "\n"
    with pytest.raises(BalParseError, match="line 3.*camera index 5"):
        parse_bal(io.StringIO(text))


def test_landmark_index_out_of_range():
    text = "1 1 1\n0 3 1 1\n"
    with pytest.raises(BalParseError, match="point index 3"):
        parse_bal(io.StringIO(text))


def test_malformed_header():
    with pytest.raises(BalParseError, match="line 1"):
        parse_bal(io.StringIO("1 x 1\n"))
    with pytest.raises(BalParseError, match="negative"):
        parse_bal(io.StringIO("-1 1 1\n"))


def test_truncated_file():
    text = "1 1 1\n0 0 1 1\n0 0 0\n"
    with pytest.raises(BalParseError, match="truncated"):
        parse_bal(io.StringIO(text))


def test_non_numeric_token_reports_line():
    text = "1 1 1\n0 0 1 1\n" + "\n".join(["0"] * 8) + "\nbogus\n1 2 3\n"
    with pytest.raises(BalParseError, match="line 11.*bogus"):
        parse_bal(io.StringIO(text))


@pytest.mark.parametrize("header", [
    "99999999999999999999999 0 0",
    "0 0 99999999999999999999999",
    "100000000000000 0 0",
    "99999999999999999999999 1 1\n12345678901234567890 0 1 2",  # index beyond int64
])
def test_huge_header_counts_are_truncation_errors(header):
    # the counts exceed any allocatable array; only the tokens present count
    with pytest.raises(BalParseError, match="truncated"):
        parse_bal(io.StringIO(header + "\n"))


def _only_parse_errors(text):
    try:
        problem = parse_bal(io.StringIO(text))
    except BalParseError:
        return
    assert problem.measurements.shape == (problem.num_observations, 2)
    assert_same_arrays(problem, python_arrays(text))


@settings(max_examples=150, deadline=None)
@given(st.text())
def test_fuzz_arbitrary_text_raises_only_parse_errors(text):
    _only_parse_errors(text)


# Small counts and indices, so that generated files get past the header.
_TOKENS = st.one_of(
    st.integers(-2, 4).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e999", "-0", "nan", "1_0", "0x1", "99999999999999999999999", ""]),
    st.text(max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_TOKENS, max_size=40), st.lists(st.sampled_from([" ", "\n", "\t", "\r\n"]),
                                                  min_size=1))
def test_fuzz_token_soup_raises_only_parse_errors(tokens, separators):
    _only_parse_errors("".join(tok + separators[i % len(separators)]
                               for i, tok in enumerate(tokens)))


def test_trailing_data_rejected():
    with pytest.raises(BalParseError, match="trailing"):
        parse_bal(io.StringIO(minimal_bal_text() + "42\n"))


def test_round_trip_identity(rng):
    n_cam, n_lm = 3, 5
    cam_idx = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    lm_idx = np.array([0, 0, 1, 1, 2, 3, 4, 4])
    problem = BaProblem(
        num_cameras=n_cam, num_landmarks=n_lm, num_observations=len(cam_idx),
        camera_indices=cam_idx, landmark_indices=lm_idx,
        measurements=rng.standard_normal((len(cam_idx), 2)) * 123.456,
        metric_cameras=rng.standard_normal((n_cam, 9)),
        metric_points=rng.standard_normal((n_lm, 3)),
    )
    buf = io.StringIO()
    write_bal(problem, buf)
    again = parse_bal(io.StringIO(buf.getvalue()))
    buf2 = io.StringIO()
    write_bal(again, buf2)
    assert buf.getvalue() == buf2.getvalue()
    np.testing.assert_array_equal(problem.measurements, again.measurements)
    np.testing.assert_array_equal(problem.metric_cameras, again.metric_cameras)
    np.testing.assert_array_equal(problem.metric_points, again.metric_points)
    np.testing.assert_array_equal(problem.camera_indices, again.camera_indices)


ARRAYS = ("camera_indices", "landmark_indices", "measurements", "metric_cameras", "metric_points")


def python_arrays(text):
    """The arrays of a well-formed BAL text, each token read by Python's int or float."""
    toks = text.split()
    n_cam, n_lm, n_obs = map(int, toks[:3])
    obs = [toks[3 + 4 * i:7 + 4 * i] for i in range(n_obs)]
    params = [float(tok) for tok in toks[3 + 4 * n_obs:]]
    return {
        "camera_indices": np.array([int(o[0]) for o in obs], dtype=np.int64),
        "landmark_indices": np.array([int(o[1]) for o in obs], dtype=np.int64),
        "measurements": np.array([[float(o[2]), float(o[3])] for o in obs],
                                 dtype=np.float64).reshape(n_obs, 2),
        "metric_cameras": np.array(params[:9 * n_cam], dtype=np.float64).reshape(n_cam, 9),
        "metric_points": np.array(params[9 * n_cam:], dtype=np.float64).reshape(n_lm, 3),
    }


def assert_same_arrays(problem, want):
    for name in ARRAYS:
        got = getattr(problem, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape
        assert got.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("text", [
    # 17- and 26-digit values, signs, leading zeros, inf/nan and overflow
    "2 2 3\n0 1 0.10000000000000000555111512 -3.0000000000000004\n+1 01 1e400 nan\n"
    "1 0 .5 -Infinity\n" + "\n".join(f"{0.1 * i:.26g}" for i in range(24)) + "\n",
    # the parameter block several values a line, no final newline
    "1 2 2\n0 0 1.5 -2.0\n0 1 3 4\n" + " ".join(str(i) for i in range(15)),
], ids=["literals", "parameters-on-one-line"])
def test_literals_parse_as_python_reads_them(text):
    assert_same_arrays(parse_bal(io.StringIO(text)), python_arrays(text))


@pytest.mark.parametrize("text", [
    minimal_bal_text().replace("\n", " "),  # one line
    "1 1 1\n0 0\n1.5 -2.0\n" + minimal_bal_text().split("\n", 2)[2],  # split observation
    minimal_bal_text().replace("1.5", "1_5e-1"),  # a literal only Python reads
    minimal_bal_text().replace("\n", "\r\n"),
    minimal_bal_text().replace(" ", "\t"),
    minimal_bal_text().replace("1 1 1", "\u0661 \u0661 \u0661").replace("1.5", "\u0661.\u0665"),
], ids=["one-line", "split-observation", "underscore", "crlf", "tabs", "arabic-indic-digits"])
def test_every_layout_gives_the_canonical_arrays(text):
    want = parse_bal(io.StringIO(minimal_bal_text()))
    assert_same_arrays(parse_bal(io.StringIO(text)), {name: getattr(want, name) for name in ARRAYS})


_PARAMS = " ".join(str(float(i)) for i in range(9))


@pytest.mark.parametrize("text, line, message", [
    ("", 0, "truncated file: expected camera count"),
    ("\n\n", 0, "truncated file: expected camera count"),
    ("1\n", 1, "truncated file: expected point count"),
    ("1 1\n", 1, "truncated file: expected observation count"),
    ("1 1 1\n", 1, "truncated file: expected camera index"),
    ("1 1 1\n0\n", 2, "truncated file: expected point index"),
    ("1 1 1\n0 0\n", 2, "truncated file: expected measurement x"),
    ("1 1 1\n0 0 1.5\n\n\n", 2, "truncated file: expected measurement y"),
    ("1 1 1\n0 0 1.5 -2.0\n0 1 2\n", 3, "truncated file: expected camera 0 parameter 3"),
    ("1 1 1\n0 0 1.5 -2.0\n" + _PARAMS + "\n0.1\n", 4,
     "truncated file: expected point 0 coordinate 1"),
    ("1 x 1\n", 1, "expected integer point count, got 'x'"),
    ("1 1 1\n0.0 0 1.5 -2.0\n", 2, "expected integer camera index, got '0.0'"),
    ("1 1 1\n0 1e0 1.5 -2.0\n", 2, "expected integer point index, got '1e0'"),
    ("1 1 1\n0 0 0x1 -2.0\n", 2, "non-numeric token for measurement x: '0x1'"),
    ("1 1 1\n0 0 1.5 -2.0\n" + "\n".join(["0"] * 8) + "\nbogus\n1 2 3\n", 11,
     "non-numeric token for camera 0 parameter 8: 'bogus'"),
    ("1 1 1\n0 0 1.5 -2.0\n" + _PARAMS + "\n0.1 0.2 z\n", 4,
     "non-numeric token for point 0 coordinate 2: 'z'"),
    ("2 1 2\n0 0 1 1\n5 0 1 1\n", 3, "camera index 5 out of range [0, 2)"),
    ("1 1 1\n0 3 1 1\n", 2, "point index 3 out of range [0, 1)"),  # ahead of the truncation
    # complete files: the ranges, not the token count, reject these
    ("2 1 2\n0 0 1 1\n2 0 1 1\n" + "0 " * 21, 3, "camera index 2 out of range [0, 2)"),
    ("2 1 2\n0 0 1 1\n-1 0 1 1\n" + "0 " * 21, 3, "camera index -1 out of range [0, 2)"),
    ("1 2 2\n0 1 1 1\n0 2 1 1\n" + "0 " * 15, 3, "point index 2 out of range [0, 2)"),
    ("1 2 2\n0 1 1 1\n0 -1 1 1\n" + "0 " * 15, 3, "point index -1 out of range [0, 2)"),
    ("2 1 2\n0 0 1 1\n12345678901234567890 0 1 1\n" + "0 " * 21, 3,
     "camera index 12345678901234567890 out of range [0, 2)"),  # beyond int64
    ("1\n-1\n1 0 0 1 1\n", 3, "malformed header: negative count"),
    ("1 1 -1\n" + "0 " * 8, 1, "malformed header: negative count"),  # as many tokens as it spells
    ("1 1 1\n0 0 1.5 -2.0\n" + _PARAMS + "\n0.1 0.2 0.3\n\n42\n", 6,
     "trailing data after point block"),
    ("99999999999999999999999 1 1\n12345678901234567890 0 1 2\n", 2,
     "truncated file: expected camera 0 parameter 0"),
    # wrapped: the bad y sits on line 4, not on the observation's line 2
    ("1 1 1\n0 0\n1.5\ny\n", 4, "non-numeric token for measurement y: 'y'"),
    # CRLF counts one line per \n; a bare \r separates tokens without ending a line
    ("1\r\n1\r\n1\r\n0 0 bad -2.0\r\n", 4, "non-numeric token for measurement x: 'bad'"),
    ("1 1 1\r\n0 0\r1.5 -2.0\r\n0 1 2 3 4 5 6 7 8\r\n0.1\r0.2 \r\n", 4,
     "truncated file: expected point 0 coordinate 2"),
])
def test_parse_errors_name_the_token_and_line(text, line, message):
    with pytest.raises(BalParseError) as info:
        parse_bal(io.StringIO(text))
    assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


def test_gzip_detection(tmp_path):
    path = tmp_path / "problem.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(minimal_bal_text())
    p = load_bal(path)
    assert p.num_observations == 1


def test_prune_underobserved():
    # landmark 1 seen once -> dropped; camera 2 only saw landmark 1 -> dropped
    problem = BaProblem(
        num_cameras=3, num_landmarks=2, num_observations=3,
        camera_indices=np.array([0, 1, 2]),
        landmark_indices=np.array([0, 0, 1]),
        measurements=np.zeros((3, 2)),
        metric_cameras=np.arange(27.0).reshape(3, 9),
        metric_points=np.arange(6.0).reshape(2, 3),
    )
    pruned = prune_underobserved(problem)
    assert pruned.num_landmarks == 1
    assert pruned.num_cameras == 2
    assert pruned.num_observations == 2
    np.testing.assert_array_equal(pruned.camera_indices, [0, 1])
    np.testing.assert_array_equal(pruned.metric_points, problem.metric_points[:1])
    np.testing.assert_array_equal(pruned.metric_cameras, problem.metric_cameras[:2])

    # landmark 1 seen twice, both times by camera 1 -> one distinct camera, dropped
    problem = BaProblem(
        num_cameras=2, num_landmarks=2, num_observations=4,
        camera_indices=np.array([0, 1, 1, 1]),
        landmark_indices=np.array([0, 1, 0, 1]),
        measurements=np.arange(8.0).reshape(4, 2),
    )
    pruned = prune_underobserved(problem)
    assert (pruned.num_cameras, pruned.num_landmarks, pruned.num_observations) == (2, 1, 2)
    np.testing.assert_array_equal(pruned.camera_indices, [0, 1])
    np.testing.assert_array_equal(pruned.landmark_indices, [0, 0])
    np.testing.assert_array_equal(pruned.measurements, problem.measurements[[0, 2]])

    # camera 1 sees nothing while every landmark is kept -> camera dropped, landmarks stay
    problem = BaProblem(
        num_cameras=3, num_landmarks=2, num_observations=4,
        camera_indices=np.array([0, 2, 2, 0]),
        landmark_indices=np.array([0, 0, 1, 1]),
        measurements=np.arange(8.0).reshape(4, 2),
        metric_cameras=np.arange(27.0).reshape(3, 9),
        metric_points=np.arange(6.0).reshape(2, 3),
    )
    pruned = prune_underobserved(problem)
    assert (pruned.num_cameras, pruned.num_landmarks, pruned.num_observations) == (2, 2, 4)
    np.testing.assert_array_equal(pruned.camera_indices, [0, 1, 1, 0])
    np.testing.assert_array_equal(pruned.landmark_indices, problem.landmark_indices)
    np.testing.assert_array_equal(pruned.measurements, problem.measurements)
    np.testing.assert_array_equal(pruned.metric_cameras, problem.metric_cameras[[0, 2]])
    np.testing.assert_array_equal(pruned.metric_points, problem.metric_points)


def test_prune_noop_returns_same_object():
    problem = BaProblem(
        num_cameras=2, num_landmarks=1, num_observations=2,
        camera_indices=np.array([0, 1]), landmark_indices=np.array([0, 0]),
        measurements=np.zeros((2, 2)),
    )
    assert prune_underobserved(problem) is problem


def test_unpruned_problem_keeps_the_plan_pruning_built(monkeypatch):
    # the plan pruning reads is the one the random start and stage 1 use
    builds = []
    build = ObservationPlan.build.__func__
    monkeypatch.setattr(ObservationPlan, "build",
                        classmethod(lambda cls, problem: builds.append(problem) or build(cls, problem)))
    problem = make_ring_problem(4, 12, 0.5, seed=0)
    pruned = prune_underobserved(problem)
    assert pruned is problem
    assert "plan" in vars(pruned)
    assert len(builds) == 1 and builds[0] is problem
    start = random_init(pruned, 3)
    lm_minimize(pruned, start, STAGE1, SolverConfig(max_iterations=3))
    assert len(builds) == 1


def test_random_init_deterministic(rng):
    from tests.conftest import make_random_problem

    problem = make_random_problem(4, 12, seed=3)
    a = random_init(problem, 99)
    b = random_init(problem, 99)
    np.testing.assert_array_equal(a.cameras, b.cameras)
    np.testing.assert_array_equal(a.landmarks, b.landmarks)
    c = random_init(problem, 100)
    assert np.abs(a.cameras - c.cameras).max() > 0


def test_random_init_landmarks_are_stationary():
    # gradient of the stage-1 cost w.r.t. each landmark's free coordinates,
    # evaluated numerically, must vanish at the initialization
    from tests.conftest import make_random_problem

    problem = make_random_problem(5, 8, seed=11)
    state = random_init(problem, 5)
    assert np.all(state.landmarks[:, 3] == 1.0)
    f0 = total_cost(state, problem, STAGE1)
    grad_scale = max(1.0, f0)
    for j in range(problem.num_landmarks):
        for axis in range(3):
            h = 1e-6
            plus = np.array(state.landmarks)
            minus = np.array(state.landmarks)
            plus[j, axis] += h
            minus[j, axis] -= h
            fp = total_cost(ProjectiveState(state.cameras, plus), problem, STAGE1)
            fm = total_cost(ProjectiveState(state.cameras, minus), problem, STAGE1)
            assert abs(fp - fm) / (2 * h) / grad_scale < 1e-8


def test_random_init_camera_entries_standard_normal():
    from tests.conftest import make_random_problem

    problem = make_random_problem(40, 80, seed=1)
    state = random_init(problem, 0)
    entries = state.cameras.ravel()
    assert abs(entries.mean()) < 0.1
    assert abs(entries.std() - 1.0) < 0.1
