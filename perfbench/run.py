"""Benchmark runner for coded_incentives.

    python3 perfbench/run.py --workload round-hetero --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) from one closed-loop caller on
the package in ``src/`` of this checkout, checks every output, prints a
readable report and, as the last line of standard output, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with every time at
reference speed (``speed.py``) and the wall-clock figures printed
beside them.  With
``--trace 1`` the run splits its length between an untraced loop and a
loop with spans recorded around each layer, and reports the per-layer
metrics (``layers.py``) instead.  Records and spans are written under
``perfbench/out/``.
"""

import time

STARTED = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCE = CHECKOUT / "src"
OUT = HERE / "out"

# Set-up is timed this many times per run: once in-process, the rest in
# fresh interpreters, and the median is reported.
SETUP_SAMPLES = 5

# A loop that runs past this many times its nominal length stops; the
# attempts it did not make count as failed ("timeout").  All loops of a
# run together stop within DEADLINE_CAP_S, so a run ends within 180 s.
DEADLINE_FACTOR = 3.0
DEADLINE_CAP_S = 140.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "fail_ratio": "-",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# fail_ratio is printed in the report; failures reach the JSON line as
# ``attempted`` and ``failed``.
JSON_END_TO_END = (
    "ops_per_s", "latency_ms_p50", "latency_ms_tail", "setup_s", "peak_rss_mb"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Both sides of a comparison use the same BLAS threading: at most
    two threads, and no more than the CPUs this process may use.  Takes
    effect only before NumPy is first imported."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for key in BLAS_THREAD_VARIABLES:
        os.environ[key] = threads


def import_package():
    """Import coded_incentives from this checkout's ``src`` and nowhere else."""
    if not (SOURCE / "coded_incentives" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import coded_incentives

    if Path(coded_incentives.__file__).resolve().parent.parent != SOURCE:
        raise SystemExit(
            f"run.py: imported {coded_incentives.__file__}, not the checkout's"
        )
    return coded_incentives


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


@dataclass
class Loop:
    """One timed loop.  Latencies are per attempt, in seconds, infinite
    where the attempt failed; busy times add up every attempt made,
    failed ones too.  ``latencies`` and ``busy_s`` are at reference
    speed (``speed.py``), the ``wall_`` ones as measured."""

    latencies: list
    wall_latencies: list
    busy_s: float
    wall_busy_s: float
    kernel_s: list
    outputs: list
    failures: Counter


def measure(workload, indices, deadline_s, failure_class, tracer=None) -> Loop:
    """Closed loop over ``indices``, each attempt followed by one timing
    of the workload's calibration kernel.  Outputs are checked
    afterwards, outside the timed loop."""
    from speed import to_reference

    wall, kernel_s, outputs, failures = [], [], [], Counter()
    failed, errors = [], {}
    loop_start = time.perf_counter()
    for i in indices:
        if time.perf_counter() - loop_start > deadline_s:
            wall.append(math.nan)
            kernel_s.append(math.nan)
            outputs.append(None)
            failed.append(True)
            failures["timeout"] += 1
            continue
        begin = time.perf_counter()
        try:
            if tracer is None:
                out = workload.call(i)
            else:
                out = tracer.operation(i, workload.call, i)
        except Exception as exc:
            out = None
            kind = failure_class(exc)
            failures[kind] += 1
            errors.setdefault(kind, traceback.format_exc(limit=3))
        wall.append(time.perf_counter() - begin)
        kernel_s.append(workload.kernel.time())
        outputs.append(out)
        failed.append(out is None)
    for k, (i, out) in enumerate(zip(indices, outputs)):
        if out is None:
            continue
        kind = workload.check(i, out)
        if kind is not None:
            failed[k] = True
            failures[kind] += 1
    for kind, text in errors.items():
        print(f"first {kind} failure in {workload.name}:\n{text}", file=sys.stderr)
    scaled = to_reference(wall, kernel_s, workload.kernel.reference_s)

    def latencies(times):
        return [math.inf if bad else t for t, bad in zip(times, failed)]

    def busy(times):
        return math.fsum(t for t in times if not math.isnan(t))

    return Loop(
        latencies(scaled), latencies(wall), busy(scaled), busy(wall),
        kernel_s, outputs, failures,
    )


def setup_probe_samples(args, count):
    """Time set-up in ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--setup-probe",
            ],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(loop: Loop, setup: list, rss_mb: float):
    """The end-to-end metrics at reference speed, the same figures as
    measured on the wall clock, and the tail percentile chosen."""
    from speed import setup_to_reference
    from summary import latency_summary

    attempted = len(loop.latencies)
    failed = sum(loop.failures.values())
    summary = latency_summary(loop.latencies)
    wall = latency_summary(loop.wall_latencies)
    metrics = {
        "ops_per_s": (attempted - failed) / loop.busy_s,
        "latency_ms_p50": summary["p50_ms"],
        "latency_ms_tail": summary["tail_ms"],
        "fail_ratio": failed / attempted,
        "setup_s": median(
            setup_to_reference(s["setup_s"], s["kernel_s"]) for s in setup
        ),
        "peak_rss_mb": rss_mb,
    }
    wall_metrics = {
        "ops_per_s": (attempted - failed) / loop.wall_busy_s,
        "latency_ms_p50": wall["p50_ms"],
        "latency_ms_tail": wall["tail_ms"],
        "setup_s": median(s["setup_s"] for s in setup),
    }
    tail = {k: summary[k] for k in ("tail_percentile", "tail_beyond", "samples")}
    return metrics, wall_metrics, tail


def finite_or_none(value: float):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()

    began = time.perf_counter()
    import_package()
    imported = time.perf_counter()
    from workloads import FAILURE_CLASSES, WORKLOADS, attempts_for, failure_class

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    # A traced run splits its length between an untraced and a traced loop.
    loops = 2 if args.trace else 1
    attempts = attempts_for(kind, args.seconds / loops)
    workload = kind(args.seed, kind.warmup + loops * attempts)
    ready = time.perf_counter()
    from speed import setup_kernel_s

    setup = {
        "setup_s": ready - STARTED,
        "import_s": imported - began,
        "inputs_s": ready - imported,
        "kernel_s": setup_kernel_s(),
    }
    if args.setup_probe:
        print(json.dumps(setup))
        return 0

    measure(workload, range(kind.warmup), math.inf, failure_class)
    deadline = min(DEADLINE_FACTOR * args.seconds, DEADLINE_CAP_S) / loops
    timed = range(kind.warmup, kind.warmup + attempts)
    loop = measure(workload, timed, deadline, failure_class)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = loop.failures
    attempted, failed = len(loop.latencies), sum(failures.values())

    layer = None
    if args.trace:
        from layers import UNITS, instrument, layer_metrics
        from spans import Tracer, write_spans

        tracer = Tracer()
        instrument(tracer)
        try:
            traced = range(kind.warmup + attempts, kind.warmup + 2 * attempts)
            t_loop = measure(workload, traced, deadline, failure_class, tracer)
        finally:
            tracer.restore()
        layer = layer_metrics(tracer.spans, attempts, failure_class)

    samples = [setup] + setup_probe_samples(args, SETUP_SAMPLES - 1)
    metrics, wall, tail = end_to_end(loop, samples, rss_mb)
    if layer is not None:
        # Attempts rather than passed operations per second, so the ratio
        # stays defined on a workload whose every attempt fails.
        layer["trace.overhead_ratio"] = (len(t_loop.latencies) / t_loop.busy_s) / (
            attempted / loop.busy_s
        )
        layer["setup.import_s"] = median(s["import_s"] for s in samples)
        layer["setup.inputs_s"] = median(s["inputs_s"] for s in samples)
        for name, value in wall.items():
            layer[f"wall.{name}"] = value
        layer["speed.kernel_ms"] = median(loop.kernel_s) * 1e3
        layer = {name: layer[name] for name in UNITS}
        failures = failures + t_loop.failures
        attempted += len(t_loop.latencies)
        failed += sum(t_loop.failures.values())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failures": {k: failures.get(k, 0) for k in FAILURE_CLASSES},
        "end_to_end": metrics,
        "wall": wall,
        "kernel": {
            "name": workload.kernel.name,
            "reference_ms": workload.kernel.reference_s * 1e3,
            "median_ms": median(loop.kernel_s) * 1e3,
        },
        "tail": tail,
        "setup_samples": samples,
        "environment": environment(args.seed),
    }
    if hasattr(workload, "command_seconds"):
        by_command = {}
        for out in loop.outputs:
            for label, seconds in workload.command_seconds(out).items():
                by_command.setdefault(label, []).append(seconds * 1e3)
        record["wall_median_ms_by_command"] = {
            k: median(v) for k, v in by_command.items()
        }
    if layer is not None:
        record["per_layer"] = layer
    report(record)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        # One spans file per workload, overwritten by its latest traced run.
        write_spans(tracer.spans, OUT / f"{args.workload}.spans.tsv")
        chosen = {name: (value, UNITS[name]) for name, value in layer.items()}
    else:
        chosen = {
            name: (metrics[name], END_TO_END_UNITS[name]) for name in JSON_END_TO_END
        }
    result = {
        "correct": failures["wrong"] == 0 and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": finite_or_none(value), "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }
    print(json.dumps(result))
    return 0


def report(record) -> None:
    env = record["environment"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"attempted {record['attempted']}  failed {record['failed']}  "
        + "  ".join(f"{k} {v}" for k, v in record["failures"].items() if v)
    )
    tail, wall, kernel = record["tail"], record["wall"], record["kernel"]
    print(
        f"  at reference speed: {kernel['name']} kernel median "
        f"{kernel['median_ms']:.4g} ms, reference {kernel['reference_ms']:g} ms"
    )
    for name, value in record["end_to_end"].items():
        note = f"  (wall {wall[name]:.6g})" if name in wall else ""
        if name == "latency_ms_tail":
            note += (
                f"  (p{tail['tail_percentile']:g}, {tail['tail_beyond']} of "
                f"{tail['samples']} samples beyond)"
            )
        print(f"  {name:<16} {value:>14.6g} {END_TO_END_UNITS[name]}{note}")
    for label, value in record.get("wall_median_ms_by_command", {}).items():
        print(f"  wall median ms {label:<15} {value:>10.4g}")
    if "per_layer" in record:
        from layers import UNITS

        op_ms = record["per_layer"]["trace.op_ms"]
        for name, value in record["per_layer"].items():
            share = ""
            if UNITS[name] == "ms/op" and name != "trace.op_ms" and op_ms:
                share = f"  {100.0 * value / op_ms:6.2f}% of op"
            print(f"  {name:<40} {value:>14.6g} {UNITS[name]}{share}")
    print(
        f"  cpus {env['cpus']} (usable {env['cpus_usable']})  blas {env['blas']}  "
        f"threads {env['blas_threads']}  python {env['python']}  "
        f"numpy {env['numpy']}  scipy {env['scipy']}"
    )


if __name__ == "__main__":
    sys.exit(main())
