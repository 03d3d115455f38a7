"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import math
import types

import pytest

import run

run.import_package()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT, Span, Tracer, self_times  # noqa: E402
from summary import latency_summary, tail_percentile  # noqa: E402


@pytest.mark.parametrize(
    "samples, expected",
    [
        (10, (50.0, 5)),
        (20, (50.0, 10)),
        (30, (60.0, 12)),
        (40, (75.0, 10)),
        (200, (95.0, 10)),
        (1000, (99.0, 10)),
        (10000, (99.9, 10)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_failures_sort_as_infinite_latency():
    ok = [0.001 * (k + 1) for k in range(30)]
    summary = latency_summary(ok + [math.inf] * 10)
    assert summary["samples"] == 40
    assert summary["tail_percentile"] == 75.0
    assert summary["tail_ms"] == pytest.approx(30.0)
    assert math.isinf(latency_summary(ok[:10] + [math.inf] * 20)["p50_ms"])
    assert math.isinf(latency_summary(ok + [math.inf] * 12)["tail_ms"])


class _Clock:
    """A calibration kernel that does nothing and is always on time."""

    name = "none"
    reference_s = 1.0

    @staticmethod
    def time():
        return 1.0


class _Flaky:
    """Succeeds, raises an untyped error, raises a typed one, or returns
    an output that fails its check, by index."""

    name = "flaky"
    kernel = _Clock

    def call(self, i):
        if i == 1:
            raise ZeroDivisionError("boom")
        if i == 2:
            raise workloads.NumericalError("ill-conditioned")
        return i

    def check(self, i, out):
        return "wrong" if out == 3 else None


def test_every_failure_class_misses_every_latency_limit():
    loop = run.measure(_Flaky(), range(5), math.inf, workloads.failure_class)
    expected = [False, True, True, True, False]
    assert [math.isinf(v) for v in loop.latencies] == expected
    assert [math.isinf(v) for v in loop.wall_latencies] == expected
    assert loop.outputs[1] is None and loop.outputs[3] == 3
    assert loop.failures == {"untyped": 1, "numerical": 1, "wrong": 1}
    # Failed attempts took time too.
    assert loop.busy_s == loop.wall_busy_s > 0
    assert loop.kernel_s == [1.0] * 5


def test_attempts_past_the_deadline_count_as_timeouts():
    loop = run.measure(_Flaky(), [0, 4, 0], -1.0, workloads.failure_class)
    assert loop.failures == {"timeout": 3}
    assert all(math.isinf(v) for v in loop.latencies)
    assert loop.busy_s == 0.0


def test_times_are_scaled_by_the_local_kernel_mean():
    # The machine runs at half speed for the last four attempts.
    kernel = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    wall = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, math.inf]
    local = speed.local_kernel_times(kernel)
    assert local == pytest.approx([1.0, 1.25, 1.4, 1.6, 1.8, 2.0, 2.0])
    scaled = speed.to_reference(wall, kernel, reference_s=0.5)
    assert scaled[:3] == pytest.approx([0.5, 0.4, 0.5 / 1.4])
    assert scaled[-2] == pytest.approx(0.5) and math.isinf(scaled[-1])
    # A timed-out attempt has no kernel time and does not count.
    assert speed.local_kernel_times([1.0, math.nan, 3.0])[1] == 2.0
    # No kernel timing nearby (a run of timeouts): the wall time stands.
    assert speed.to_reference([3.0], [math.nan], 0.5) == [3.0]
    # Set-up takes the square root of the kernel's slowdown.
    slow = 4.0 * speed.SETUP_REFERENCE_S
    assert speed.setup_to_reference(1.0, slow) == pytest.approx(0.5)


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, 0)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(ROOT, 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 3.5, 6.0, parent=0),  # overlaps "a" by 0.5
        _span("c", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_nests_spans_and_restores_what_it_wrapped():
    module = types.SimpleNamespace()
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) * 2

    def broken():
        raise KeyError("missing")

    module.broken = broken
    original = (module.leaf, module.outer, module.broken)
    tracer = Tracer()
    tracer.wrap(module, "leaf", "layer.leaf")
    tracer.wrap(module, "outer", "layer.outer")
    tracer.wrap(module, "broken", "layer.broken")
    assert tracer.operation(7, module.outer, 1) == 4
    with pytest.raises(KeyError):
        tracer.operation(8, module.broken)
    tracer.restore()
    assert (module.leaf, module.outer, module.broken) == original
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [
        (ROOT, None, 7),
        ("layer.outer", 0, 7),
        ("layer.leaf", 1, 7),
        (ROOT, None, 8),
        ("layer.broken", 3, 8),
    ]
    assert tracer.spans[4].attrs["error"] is KeyError
    assert all(s.end >= s.start for s in tracer.spans)


COUNTS = (
    "coding.decode.rows_received",
    "coding.decode.unknowns",
    "coding.encode.rows_drawn",
    "coding.realized_k",
    "coding.fail.numerical",
    "coding.fail.untyped",
) + tuple(name for name, _ in layers.METRICS if name.endswith(".calls"))


def _traced_counts(kind, seed, attempts):
    workload = kind(seed, attempts)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        failures = run.measure(
            workload, range(attempts), math.inf, workloads.failure_class, tracer
        ).failures
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(tracer.spans, attempts, workloads.failure_class)
    return {name: metrics[name] for name in COUNTS}, dict(failures)


@pytest.mark.parametrize(
    "kind, attempts",
    [
        (workloads.RoundHetero, 2),
        (workloads.SweepFig7, 2),
        (workloads.Offers, 1),
        (workloads.RoundUniform, 3),
    ],
)
def test_traced_runs_with_one_seed_give_identical_counts(kind, attempts):
    first = _traced_counts(kind, 5, attempts)
    assert first == _traced_counts(kind, 5, attempts)
    counts, failures = first
    assert any(counts[name] for name in COUNTS if name.endswith(".calls"))
    if kind is not workloads.RoundUniform:
        assert failures == {}


def test_benchmark_json_declares_the_metrics_the_runner_prints():
    declared = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == {
        name: run.END_TO_END_UNITS[name] for name in run.JSON_END_TO_END
    }
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    assert per_layer == list(layers.METRICS)
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
