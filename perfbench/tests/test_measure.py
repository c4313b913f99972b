"""Unit tests of the benchmark's own measurement helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from measure import (  # noqa: E402
    MIN_BEYOND,
    REFERENCE_S,
    HostSpeed,
    Result,
    SpanRecorder,
    TooFewSamples,
    closed_loop_metrics,
    overlaps,
    p99,
    tail,
    windowed_p99,
)
from run import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# -- tail percentiles ------------------------------------------------------


def test_p99_of_1000_samples_leaves_exactly_ten_beyond():
    samples = list(range(1, 1001))
    result = p99(samples)
    assert result.percentile == 99.0
    assert result.value == 990
    assert result.count == 1000
    assert sum(1 for x in samples if x > result.value) == MIN_BEYOND


def test_p99_fails_loudly_when_the_run_is_too_short():
    with pytest.raises(TooFewSamples, match="p99 needs 1000"):
        p99(list(range(999)))


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    samples = list(range(1, 201))
    result = tail(samples)
    assert result.percentile == 95.0
    assert result.value == 190
    assert sum(1 for x in samples if x > result.value) == MIN_BEYOND


@pytest.mark.parametrize("n", [20, 37, 101, 999, 1000, 1234, 5000])
def test_tail_always_leaves_at_least_ten_beyond(n):
    samples = [float(i) for i in range(n)]
    result = tail(samples)
    assert result.percentile <= 99.0
    assert sum(1 for x in samples if x > result.value) >= MIN_BEYOND


def test_tail_refuses_fewer_than_twenty_samples():
    with pytest.raises(TooFewSamples):
        tail([1.0] * 19)


def test_failed_samples_count_as_missing_every_limit():
    samples = [1.0] * 980 + [math.inf] * 20
    assert p99(samples).value == math.inf


def test_tail_is_order_independent():
    samples = [5.0, 1.0, 3.0] * 400
    assert tail(samples) == tail(sorted(samples))


def test_windowed_p99_takes_the_median_window_and_drops_the_remainder():
    calm = [1.0] * 1000
    stalled = [1.0] * 980 + [50.0] * 20
    result = windowed_p99(calm + stalled + calm + [99.0] * 999)
    assert result.value == 1.0
    assert result.count == 3000
    assert windowed_p99(stalled + stalled + calm).value == 50.0


def test_windowed_p99_fails_loudly_below_one_window():
    with pytest.raises(TooFewSamples, match="p99 needs 1000"):
        windowed_p99([1.0] * 999)


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.active = True
    rec.enter("outer")
    clock.advance(1.0)
    rec.enter("inner")
    clock.advance(2.0)
    rec.enter("leaf")
    clock.advance(4.0)
    assert rec.exit() == 4.0
    clock.advance(8.0)
    assert rec.exit() == 10.0
    clock.advance(16.0)
    rec.enter("inner")
    clock.advance(32.0)
    rec.exit()
    assert rec.exit() == 17.0
    assert rec.total("inner") == 42.0
    assert rec.calls("inner") == 2
    # Self times of all spans partition the outermost span exactly.
    assert rec.grand_total() == 1 + 2 + 4 + 8 + 16 + 32


def test_inactive_spans_nest_but_leave_no_samples():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, watch=("leaf",))
    rec.enter("outer")
    rec.enter("leaf")
    clock.advance(1.0)
    rec.exit()
    rec.exit()
    assert rec.calls("outer") == 0 and rec.calls("leaf") == 0
    assert rec.intervals["leaf"] == [(0.0, 1.0)]


def test_units_accumulate_per_span_name():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.active = True
    for units in (5, 7):
        rec.enter("kernel")
        clock.advance(3.0)
        rec.exit(units=units)
    assert rec.total("kernel") == 6.0 and rec.units["kernel"] == 12
    assert rec.median_us("kernel") == 3e6


def test_overlaps_counts_spans_inside_windows():
    windows = [(10.0, 20.0), (30.0, 40.0)]
    spans = [(0.0, 5.0), (19.0, 21.0), (25.0, 30.0), (35.0, 36.0)]
    assert overlaps(spans, windows) == 2


# -- ledger ----------------------------------------------------------------


def test_ledger_gate_catches_unaccounted_datagrams():
    res = Result()
    res.attempted, res.delivered = 10, 8
    res.fail("rejected:mac")
    res.check_ledger()
    assert res.problems and "ledger" in res.problems[0]
    res = Result()
    res.attempted, res.delivered = 10, 9
    res.fail("rejected:mac")
    res.check_ledger()
    assert not res.problems


# -- BENCHMARK.json agrees with the catalogue ------------------------------


def test_benchmark_json_names_every_reported_metric():
    from layers import CATALOG
    from measure import END_TO_END

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _moves, _on in CATALOG]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_is_measured_by_some_workload():
    from layers import CATALOG, applicable

    covered = set()
    for workload in WORKLOADS:
        covered.update(applicable(workload))
    assert covered == {name for name, *_rest in CATALOG}
    for _name, _unit, _better, _moves, on in CATALOG:
        assert set(on) <= set(WORKLOADS)


# -- host speed ------------------------------------------------------------


def test_host_speed_scales_each_unit_by_the_probes_around_it():
    clock = FakeClock()
    probes = iter([REFERENCE_S, 4 * REFERENCE_S, 4 * REFERENCE_S])
    speed = HostSpeed(clock, work=lambda: clock.advance(next(probes)))
    speed.begin()
    # The host slowed down during the first unit: the geometric mean of
    # the probes before and after it is twice the nominal time.
    assert speed.factor() == 0.5
    # The next unit starts from the previous unit's closing probe.
    assert speed.factor() == 0.25
    assert list(speed.factors) == [0.5, 0.25]


# -- closed-loop metrics ---------------------------------------------------


def test_batch_latency_tail_counts_batches_not_datagrams():
    res = Result()
    res.attempted = res.delivered = 32 * 200
    batches = [0.010] * 190 + [0.050] * 10
    windows = [(640, 1.0, 0.5)] * 10
    closed_loop_metrics(res, batches, windows, res.delivered, [0.1], tail_of=tail)
    value, _unit, samples = res.metrics["latency_p99_ms"]
    assert samples == 200
    assert value == 10.0  # p95: exactly ten batches beyond it
    assert res.metrics["goodput_dps"][:1] == (640.0,)
    assert res.metrics["delivered_ratio"][0] == 1.0


def test_goodput_and_cpu_are_medians_over_windows():
    res = Result()
    res.attempted = res.delivered = 4000
    # One window slowed down by other work on the host.
    windows = [(1000, 1.0, 1.0), (1000, 1.0, 1.0), (1000, 4.0, 2.0), (1000, 1.25, 1.25)]
    closed_loop_metrics(res, [0.001] * 4000, windows, 4000, [0.1])
    assert res.metrics["goodput_dps"] == (900.0, "dps", 4)
    assert res.metrics["cpu_us_per_datagram"] == (1125.0, "us", 4)
    assert not res.problems
