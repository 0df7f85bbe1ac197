"""Tests of the benchmark harness itself: run with
``python3 -m pytest perfbench/tests`` from the repository root."""

import gc
import math
import types

import pytest

import harness
from harness import Op, Span, Tracer, check, fail_ratio, percentile, run_pass, self_times, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # even the median has only five samples beyond it
        (19, None),
        (20, 50.0),
        (39, 50.0),  # p75 would leave nine beyond
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = [v for v in values if v > percentile(values, expected)]
        assert len(beyond) >= harness.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 99.9) == 10.0
    assert percentile([3.0], 75) == 3.0


def test_self_time_subtracts_nested_children():
    spans = [
        Span("op", 0, None, 0.0, 10.0),
        Span("parser.forest", 0, 0, 1.0, 4.0),
        Span("parser.chart", 0, 1, 2.0, 3.0),
        Span("parser.count", 0, 0, 5.0, 7.0),
    ]
    times = self_times(spans)
    assert times == pytest.approx({"op": 5.0, "parser.forest": 2.0, "parser.chart": 1.0, "parser.count": 2.0})
    assert sum(times.values()) == pytest.approx(10.0)


def test_self_time_sums_repeated_names():
    spans = [
        Span("grammar.check_equiv", 3, None, 0.0, 6.0),
        Span("parser.chart", 3, 0, 1.0, 2.5),
        Span("parser.chart", 3, 0, 3.0, 5.0),
    ]
    times = self_times(spans)
    assert times["grammar.check_equiv"] == pytest.approx(2.5)
    assert times["parser.chart"] == pytest.approx(3.5)


def test_self_time_of_a_later_window_uses_global_parent_indices():
    tracer = Tracer()
    with tracer.span("setup"):
        with tracer.span("jsonio.load"):
            pass
    first = len(tracer.spans)
    with tracer.span("op.parse", 7):
        with tracer.span("parser.chart"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, None, 2]
    assert [s.op_id for s in tracer.spans] == [None, None, 7, 7]
    assert set(tracer.self_times(first)) == {"op.parse", "parser.chart"}
    assert all(s.end >= s.start for s in tracer.spans)


def test_instrumented_wraps_and_restores_module_functions():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tracer = Tracer()
    with harness.instrumented(tracer, [(module, "double", "toy.double")]):
        assert module.double(4) == 8
    assert module.double is original
    assert [s.name for s in tracer.spans] == ["toy.double"]


@pytest.mark.parametrize(
    "attempted, failed, expected",
    [(40, 0, 0.0), (40, 1, 0.025), (3, 3, 1.0), (160, 4, 0.025)],
)
def test_fail_ratio(attempted, failed, expected):
    assert fail_ratio(attempted, failed) == pytest.approx(expected)


@pytest.mark.parametrize("attempted, failed", [(0, 0), (5, 6), (5, -1)])
def test_fail_ratio_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        fail_ratio(attempted, failed)


def test_run_pass_counts_raised_and_wrong_answers_as_failed():
    def deep():
        return deep()

    ops = [
        Op("ok", lambda: {"x": 1}, tokens=3),
        Op("wrong", lambda: check(1 + 1 == 3, "arithmetic") or {}),
        Op("deep", deep),
        Op("ok", lambda: {"x": 2}, tokens=4),
    ]
    result = run_pass(ops)
    assert [r.ok for r in result.results] == [True, False, False, True]
    assert result.results[1].error.startswith("CheckFailed")
    assert result.results[2].error.startswith("RecursionError")
    assert result.failed == 2 and result.tokens == 7
    assert result.counters() == {"x": 3}
    assert fail_ratio(len(result.results), result.failed) == 0.5


def test_measure_runs_a_traced_pass_even_when_time_is_short():
    ops = [Op("ok", lambda: {})]
    traced_calls = []

    def traced(start):
        traced_calls.append(start)
        return run_pass(ops, start=start)

    plain, traced_passes = harness.measure(ops, 0.0, traced)
    assert len(plain) == 1 and len(traced_passes) == 1 and traced_calls == [0]
    plain, traced_passes = harness.measure(ops, 0.0)
    assert len(plain) == 1 and traced_passes == []


def test_run_pass_from_a_later_start_reports_results_in_op_order():
    order = []
    ops = [Op(str(i), lambda i=i: order.append(i) or {}) for i in range(5)]
    result = run_pass(ops, start=3)
    assert order == [3, 4, 0, 1, 2]
    assert [r.op_id for r in result.results] == [0, 1, 2, 3, 4]


def test_calibrated_scales_by_the_mean_kernel_time():
    ref = harness.CALIBRATION_REF_S
    assert harness.calibrated(2.0, ref, ref) == pytest.approx(2.0)
    # a machine running the kernel twice as slow halves every time
    assert harness.calibrated(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert harness.calibrated(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_calibrate_leaves_the_collector_as_it_was():
    assert harness.calibrate() > 0 and gc.isenabled()
    gc.disable()
    try:
        harness.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_pass_keeps_calibrated_and_wall_times(monkeypatch):
    kernel_times = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(harness, "calibrate", lambda: next(kernel_times) * harness.CALIBRATION_REF_S)
    result = run_pass([Op("a", lambda: {}), Op("b", lambda: {})])
    for r, mean_kernel in zip(result.results, (1.5, 3.0)):
        assert r.seconds == pytest.approx(r.wall / mean_kernel)
    assert result.seconds == pytest.approx(sum(r.seconds for r in result.results))
    assert result.op_wall <= result.wall


def test_betainc_matches_closed_forms():
    assert harness.betainc(1, 1, 0.3) == pytest.approx(0.3)
    assert harness.betainc(2, 1, 0.5) == pytest.approx(0.25)
    assert harness.betainc(0.5, 0.5, 0.2) == pytest.approx(2 / math.pi * math.asin(math.sqrt(0.2)))
    assert harness.betainc(3, 7, 0.4) + harness.betainc(7, 3, 0.6) == pytest.approx(1.0)
    assert harness.betainc(39.5, 39.5, 0.5) == pytest.approx(0.5)


def test_hd_quantile_is_a_smooth_percentile():
    values = [float(v) for v in range(79)]
    assert harness.hd_quantile(values, 0.5) == pytest.approx(39.0)  # symmetric
    assert harness.hd_quantile([7.0] * 40, 0.75) == pytest.approx(7.0)
    assert 55 < harness.hd_quantile(values, 0.75) < 62
    # across a gap the nearest-rank p75 jumps; the estimate moves a little
    low = [10.0] * 29 + [20.0] * 11
    high = [10.0] * 30 + [20.0] * 10
    assert percentile(low, 75) == 20.0 and percentile(high, 75) == 10.0
    assert abs(harness.hd_quantile(low, 0.75) - harness.hd_quantile(high, 0.75)) < 4.0
