import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratba.evaluation import (
    PROFILE_HEADER,
    TRACE_HEADER,
    ConvergenceTrace,
    TraceRecord,
    cost_threshold,
    performance_profile,
    read_profile_csv,
    read_trace_csv,
    time_to_threshold,
    write_profile_csv,
    write_trace_csv,
)


def trace(solver, problem, costs, times=None, stage="stage1"):
    times = times if times is not None else list(range(len(costs)))
    records = [TraceRecord(i, c, float(t)) for i, (c, t) in enumerate(zip(costs, times))]
    return ConvergenceTrace(solver, problem, stage, records)


def test_trace_invariants():
    with pytest.raises(ValueError, match="at least one"):
        ConvergenceTrace("s", "p", "stage1", [])
    with pytest.raises(ValueError, match="non-decreasing"):
        ConvergenceTrace("s", "p", "stage1",
                         [TraceRecord(0, 1.0, 1.0), TraceRecord(1, 0.5, 0.5)])
    assert trace("s", "p", [2.0, 1.0]).initial_cost == 2.0


def test_cost_threshold_direct():
    t1 = trace("a", "p", [100.0, 50.0, 0.0])
    t2 = trace("b", "p", [100.0, 80.0, 10.0])
    assert cost_threshold([t1, t2], 0.01) == pytest.approx(1.0)


def test_cost_threshold_degenerate_range():
    t1 = trace("a", "p", [5.0, 5.0])
    assert cost_threshold([t1], 0.01) == pytest.approx(5.0)
    assert cost_threshold([t1], 0.5) == pytest.approx(5.0)


def test_cost_threshold_hand_computed_taus():
    # f0 = 200; best costs: 20 (a), 50 (b), 80 (c) -> f* = 20
    traces = [
        trace("a", "p", [200.0, 90.0, 20.0]),
        trace("b", "p", [200.0, 50.0, 50.0]),
        trace("c", "p", [200.0, 80.0, 80.0]),
    ]
    for tau, expected in [(0.01, 20 + 0.01 * 180), (0.003, 20 + 0.003 * 180),
                          (0.001, 20 + 0.001 * 180)]:
        assert cost_threshold(traces, tau) == pytest.approx(expected)


def test_cost_threshold_rejects_mismatched_initials():
    t1 = trace("a", "p", [100.0, 0.0])
    t2 = trace("b", "p", [101.0, 0.0])
    with pytest.raises(ValueError, match="initial cost"):
        cost_threshold([t1, t2], 0.01)


def test_time_to_threshold():
    t = trace("a", "p", [100.0, 60.0, 30.0, 10.0], times=[0.0, 1.0, 2.5, 7.0])
    assert time_to_threshold(t, 100.0) == 0.0
    assert time_to_threshold(t, 30.0) == 2.5
    assert time_to_threshold(t, 31.0) == 2.5
    assert time_to_threshold(t, 5.0) is None


def test_time_to_threshold_monotone_crossing():
    t = trace("a", "p", [10.0, 8.0, 4.0, 2.0], times=[0.0, 1.0, 2.0, 3.0])
    assert time_to_threshold(t, 4.0) == 2.0


def two_by_two_traces():
    # problem 1: solver a reaches at t=1, solver b at t=2
    # problem 2: solver a reaches at t=4, solver b at t=2
    return [
        trace("a", "p1", [100.0, 0.0], times=[0.0, 1.0]),
        trace("b", "p1", [100.0, 0.0], times=[0.0, 2.0]),
        trace("a", "p2", [100.0, 0.0], times=[0.0, 4.0]),
        trace("b", "p2", [100.0, 0.0], times=[0.0, 2.0]),
    ]


def profile_value(result, alpha):
    value = 0.0
    for a, pct in result.curve:
        if a <= alpha + 1e-12:
            value = pct
    return value


def test_performance_profile_two_by_two():
    profiles = performance_profile(two_by_two_traces(), tau=0.01)
    assert profile_value(profiles["a"], 1.0) == pytest.approx(50.0)
    assert profile_value(profiles["a"], 2.0) == pytest.approx(100.0)
    assert profile_value(profiles["b"], 1.0) == pytest.approx(50.0)
    assert profile_value(profiles["b"], 2.0) == pytest.approx(100.0)


def test_performance_profile_three_by_three_hand_case():
    # times: rows = solvers a, b, c; columns = problems p1, p2, p3
    #   a: 1, 2, unreached
    #   b: 2, 2, 4
    #   c: 4, 1, 2
    times = {
        ("a", "p1"): 1.0, ("a", "p2"): 2.0, ("a", "p3"): None,
        ("b", "p1"): 2.0, ("b", "p2"): 2.0, ("b", "p3"): 4.0,
        ("c", "p1"): 4.0, ("c", "p2"): 1.0, ("c", "p3"): 2.0,
    }
    traces = []
    for (s, p), reach in times.items():
        if reach is None:
            # stops strictly above the tau=0.5 threshold of 50
            traces.append(trace(s, p, [100.0, 60.0], times=[0.0, 1.0]))
        else:
            traces.append(trace(s, p, [100.0, 0.0], times=[0.0, reach]))
    profiles = performance_profile(traces, tau=0.5)
    # thresholds: f* = 0 on every problem (reached by someone), tau*(100) = 50
    # p1 min=1, p2 min=1, p3 min=2
    # a: ratios 1, 2, inf -> rho(1)=1/3, rho(2)=2/3, rho(4)=2/3
    # b: ratios 2, 2, 2   -> rho(1)=0, rho(2)=100%, ...
    # c: ratios 4, 1, 1   -> rho(1)=2/3, rho(2)=2/3, rho(4)=100%
    assert profile_value(profiles["a"], 1.0) == pytest.approx(100 / 3)
    assert profile_value(profiles["a"], 2.0) == pytest.approx(200 / 3)
    assert profile_value(profiles["a"], 4.0) == pytest.approx(200 / 3)
    assert profile_value(profiles["b"], 1.0) == pytest.approx(0.0)
    assert profile_value(profiles["b"], 2.0) == pytest.approx(100.0)
    assert profile_value(profiles["c"], 1.0) == pytest.approx(200 / 3)
    assert profile_value(profiles["c"], 2.0) == pytest.approx(200 / 3)
    assert profile_value(profiles["c"], 4.0) == pytest.approx(100.0)


def test_profile_single_solver_full_credit():
    traces = [trace("a", "p1", [10.0, 0.0]), trace("a", "p2", [10.0, 0.0])]
    profiles = performance_profile(traces, tau=0.01)
    assert profile_value(profiles["a"], 1.0) == pytest.approx(100.0)


def test_profile_unreached_counts_in_denominator_only():
    # solver a reaches nothing: flat curve at zero; the reached problems of b
    # still divide by the full problem count
    traces = [
        trace("a", "p1", [100.0, 90.0]),
        trace("b", "p1", [100.0, 0.0]),
        trace("a", "p2", [100.0, 95.0]),
        trace("b", "p2", [100.0, 90.0]),
        # p3: nobody reaches its threshold (a non-finite start), b has no trace
        trace("a", "p3", [float("nan"), 1.0]),
        # p4: a is there at time 0, so b's ratio is infinite
        trace("a", "p4", [100.0, 0.0], times=[0.0, 0.0]),
        trace("b", "p4", [100.0, 0.0], times=[0.0, 2.0]),
    ]
    profiles = performance_profile(traces, tau=0.5)
    # p2: best cost is 90 -> threshold 95; both reach. p1: threshold 50, only b.
    assert profile_value(profiles["b"], 1.0) > 0
    curve_a = [pct for _, pct in profiles["a"].curve]
    assert max(curve_a) <= 50.0 + 1e-9
    # a: p2 and p4 at ratio 1; b: p1 and p2 at ratio 1, never p3 or p4
    assert profile_value(profiles["a"], 1.0) == pytest.approx(50.0)
    assert [pct for _, pct in profiles["b"].curve] == [50.0] * len(profiles["b"].curve)


def test_profile_counts_a_solver_at_its_own_breakpoint():
    # slow / fast rounds so that alpha * fast < slow: a count that multiplies
    # back misses the slower solver at its own ratio
    fast, slow = 0.023342251999565633, 0.12484930199934752
    traces = [trace("a", "p", [10.0, 1.0], times=[0.0, fast]),
              trace("b", "p", [10.0, 1.0], times=[0.0, slow])]
    curve = dict(performance_profile(traces, tau=0.01)["b"].curve)
    assert curve[slow / fast] == 100.0
    assert curve[1.0] == 0.0


def test_profile_rejects_a_second_trace_of_one_solver_on_one_problem():
    a = trace("a", "p1", [100.0, 0.0])
    b = trace("b", "p1", [100.0, 0.0], times=[0.0, 2.0])
    with pytest.raises(ValueError, match="two traces of solver 'a' on problem 'p1'"):
        performance_profile([a, a, b], 0.01)


def test_profile_fastest_solver_has_credit_at_alpha_one():
    profiles = performance_profile(two_by_two_traces(), tau=0.01)
    for solver, result in profiles.items():
        assert profile_value(result, 1.0) >= 50.0 - 1e-9


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_profile_monotone_and_bounded(seed):
    rng = np.random.default_rng(seed)
    traces = []
    for s in "abc":
        for p in ("p1", "p2"):
            costs = [100.0]
            for _ in range(4):
                costs.append(costs[-1] * rng.uniform(0.05, 1.0))
            traces.append(trace(s, p, costs, times=np.cumsum(rng.uniform(0.1, 1, 5)) - 0.1))
    profiles = performance_profile(traces, tau=0.1)
    for result in profiles.values():
        pcts = [pct for _, pct in result.curve]
        assert all(b >= a - 1e-12 for a, b in zip(pcts, pcts[1:]))
        assert all(0.0 <= p <= 100.0 for p in pcts)


def test_thresholds_monotone_in_tau():
    traces = [trace("a", "p", [50.0, 3.0]), trace("b", "p", [50.0, 7.0])]
    t1 = cost_threshold(traces, 0.001)
    t2 = cost_threshold(traces, 0.01)
    t3 = cost_threshold(traces, 0.1)
    assert t1 <= t2 <= t3


# ---------------------------------------------------------------------------
# CSV round trips


def test_trace_csv_round_trip():
    traces = [
        trace("povar", "lady", [123.456789012345678, 1e-17, 9.87e300], stage="stage1"),
        trace("ripoba", "lady", [5.0, 4.0], stage="stage2"),
    ]
    buf = io.StringIO()
    write_trace_csv(traces, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(TRACE_HEADER)
    parsed = read_trace_csv(io.StringIO(text))
    assert len(parsed) == 2
    by_key = {(t.solver_id, t.stage): t for t in parsed}
    for t in traces:
        p = by_key[(t.solver_id, t.stage)]
        assert [r.cost for r in p.records] == [r.cost for r in t.records]
        assert [r.elapsed_seconds for r in p.records] == [r.elapsed_seconds for r in t.records]
        assert [r.iteration for r in p.records] == [r.iteration for r in t.records]


def test_trace_csv_file_and_header_golden(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv([trace("a", "p", [1.0, 0.5])], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "problem,solver,stage,iteration,cost,elapsed_seconds"
    assert lines[1].startswith("p,a,stage1,0,1,")
    parsed = read_trace_csv(path)
    assert parsed[0].problem_id == "p"


def test_profile_csv_round_trip(tmp_path):
    profiles = list(performance_profile(two_by_two_traces(), tau=0.01).values())
    path = tmp_path / "profiles.csv"
    write_profile_csv(profiles, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(PROFILE_HEADER)
    parsed = read_profile_csv(path)
    by_solver = {p.solver_id: p for p in parsed}
    for original in profiles:
        got = by_solver[original.solver_id]
        assert got.tau == original.tau
        assert got.curve == original.curve


def test_profile_csv_empty_curve():
    buf = io.StringIO()
    write_profile_csv([], buf)
    assert buf.getvalue().strip() == ",".join(PROFILE_HEADER)


def test_read_trace_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(io.StringIO("nope,nope\n"))


def test_empty_trace_set_rejected():
    with pytest.raises(ValueError, match="no traces"):
        performance_profile([], 0.01)
