"""Which calls the traced run wraps, and the per-layer metrics derived
from the spans they record.

A span is named after the layer that does the work (``game.best_response``
whether ``coding`` or ``experiments`` calls it).  Times are per operation
unless a unit says otherwise.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from coded_incentives import cli, coding, experiments, mechanisms, workers

from spans import ROOT, Proxy, Span, Tracer, self_times

# (module or class, attribute looked up there, span name)
WRAPPED = (
    (coding, "simulate_round", "coding.simulate_round"),
    (coding, "best_response", "game.best_response"),
    (coding, "sample_time", "workers.sample_time"),
    (coding, "integerize_loads", "coding.integerize_loads"),
    (coding, "mds_encode", "coding.mds_encode"),
    (coding, "mds_decode", "coding.mds_decode"),
    (experiments, "run_fig7", "experiments.run_fig7"),
    (experiments, "solve_incomplete", "mechanisms.solve_incomplete"),
    (experiments, "solve_complete", "mechanisms.solve_complete"),
    (experiments, "best_response", "game.best_response"),
    (experiments, "build_population", "workers.build_population"),
    (cli, "main", "cli.main"),
    (cli, "solve_incomplete", "mechanisms.solve_incomplete"),
    (cli, "solve_complete", "mechanisms.solve_complete"),
    (cli, "verify_ir_ic", "game.verify_ir_ic"),
    (cli, "run_experiment", "experiments.run_experiment"),
    (mechanisms, "platform_cost", "mechanisms.platform_cost"),
    (mechanisms, "expected_runtime_hetero", "runtime.expected_runtime_hetero"),
    (mechanisms, "assign_loads_hetero", "runtime.assign_loads_hetero"),
    (mechanisms, "build_population", "workers.build_population"),
    (workers.Population, "with_counts", "workers.with_counts"),
    (workers, "solve_lambda", "numerics.solve_lambda"),
)

# numpy.linalg as seen from coding.
LINALG = (
    ("lstsq", "coding.decode.lstsq"),
    ("cond", "coding.cond"),
    ("solve", "coding.solve"),
)

# Per-layer metric names and units, in report order.  run.py fills in
# the last ones: the tracing overhead, set-up, and from the untraced loop
# the end-to-end figures on the wall clock (``wall.``) and the median
# time of the calibration kernel (``speed.kernel_ms``).
METRICS = (
    ("coding.decode.lstsq_ms", "ms/op"),
    ("coding.decode.rows_received", "count/op"),
    ("coding.decode.unknowns", "count/op"),
    ("coding.decode.gflop_computed", "GFLOP/op"),
    ("coding.encode.rows_drawn", "count/op"),
    ("coding.encode.rows_used_ratio", "ratio"),
    ("coding.simulate_round.self_ms", "ms/op"),
    ("coding.realized_k", "count/op"),
    ("workers.sample_time.calls", "count/op"),
    ("workers.sample_time.self_ms", "ms/op"),
    ("game.best_response.calls", "count/op"),
    ("game.best_response.self_ms", "ms/op"),
    ("mechanisms.solve_incomplete.calls", "count/op"),
    ("mechanisms.solve_incomplete.self_ms", "ms/op"),
    ("mechanisms.platform_cost.calls", "count/op"),
    ("mechanisms.platform_cost.self_ms", "ms/op"),
    ("runtime.expected_runtime_hetero.self_ms", "ms/op"),
    ("runtime.assign_loads_hetero.self_ms", "ms/op"),
    ("workers.with_counts.calls", "count/op"),
    ("workers.with_counts.self_ms", "ms/op"),
    ("experiments.run_fig7.self_ms", "ms/op"),
    ("mechanisms.solve_complete.self_ms", "ms/op"),
    ("game.verify_ir_ic.self_ms", "ms/op"),
    ("experiments.run_experiment.self_ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("workers.build_population.self_ms", "ms/op"),
    ("numerics.solve_lambda.calls", "count/op"),
    ("coding.mds_encode.self_ms", "ms/op"),
    ("coding.mds_decode.self_ms", "ms/op"),
    ("coding.cond.calls", "count/op"),
    ("coding.fail.numerical", "count"),
    ("coding.fail.untyped", "count"),
    ("trace.op_ms", "ms/op"),
    ("trace.unattributed_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("wall.ops_per_s", "1/s"),
    ("wall.latency_ms_p50", "ms"),
    ("wall.latency_ms_tail", "ms"),
    ("wall.setup_s", "s"),
    ("speed.kernel_ms", "ms"),
)
UNITS = dict(METRICS)


def _lstsq_shape(span: Span, args: tuple, result) -> None:
    span.attrs["rows"], span.attrs["cols"] = np.shape(args[0])


def _rows_drawn(span: Span, args: tuple, result) -> None:
    span.attrs["rows"] = sum(result)


def _realized_k(span: Span, args: tuple, result) -> None:
    span.attrs["realized_k"] = result.realized_k


OBSERVERS = {
    "coding.decode.lstsq": _lstsq_shape,
    "coding.integerize_loads": _rows_drawn,
    "coding.simulate_round": _realized_k,
}


def instrument(tracer: Tracer) -> None:
    """Install every wrapper; ``tracer.restore()`` removes them."""
    for owner, attr, name in WRAPPED:
        tracer.wrap(owner, attr, name, OBSERVERS.get(name))
    linalg = Proxy(np.linalg)
    for attr, name in LINALG:
        tracer.wrap(linalg, attr, name, OBSERVERS.get(name))
    tracer.patch(coding, "np", Proxy(np, linalg=linalg))


def qr_gflop(rows: int, cols: int) -> float:
    """Flops of a Householder QR least-squares solve of a rows x cols
    system, 2mn^2 - 2n^3/3, in GFLOP: computed from the shape, not
    measured (the SVD solve actually used costs a multiple of it)."""
    return (2.0 * rows * cols**2 - 2.0 * cols**3 / 3.0) / 1e9


def layer_metrics(spans: list[Span], operations: int, classify) -> dict[str, float]:
    """Per-layer metrics over ``operations`` traced operations.

    ``classify`` maps an exception class to its failure class; failures
    are counted where they leave ``coding.simulate_round``.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: dict[str, Counter] = defaultdict(Counter)
    failures: Counter = Counter()
    op_s = 0.0
    gflop = 0.0
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        calls[span.name] += 1
        attrs[span.name].update(
            {k: v for k, v in span.attrs.items() if k != "error"}
        )
        if span.name == ROOT:
            op_s += span.end - span.start
        elif span.name == "coding.decode.lstsq" and "rows" in span.attrs:
            gflop += qr_gflop(span.attrs["rows"], span.attrs["cols"])
        if span.name == "coding.simulate_round" and "error" in span.attrs:
            failures[classify(span.attrs["error"])] += 1

    ops = max(operations, 1)
    received = attrs["coding.decode.lstsq"]["rows"]
    drawn = attrs["coding.integerize_loads"]["rows"]
    metrics = {
        "coding.decode.lstsq_ms": self_s["coding.decode.lstsq"] * 1e3 / ops,
        "coding.decode.rows_received": received / ops,
        "coding.decode.unknowns": attrs["coding.decode.lstsq"]["cols"] / ops,
        "coding.decode.gflop_computed": gflop / ops,
        "coding.encode.rows_drawn": drawn / ops,
        "coding.encode.rows_used_ratio": received / drawn if drawn else 0.0,
        "coding.realized_k": attrs["coding.simulate_round"]["realized_k"] / ops,
        "coding.fail.numerical": float(failures["numerical"]),
        "coding.fail.untyped": float(failures["untyped"]),
        "trace.op_ms": op_s * 1e3 / ops,
        "trace.unattributed_ms": self_s[ROOT] * 1e3 / ops,
    }
    for name, unit in METRICS:
        if name in metrics:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls[layer] / ops
        elif kind == "self_ms":
            metrics[name] = self_s[layer] * 1e3 / ops
    return metrics
