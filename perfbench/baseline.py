"""Re-measure the baseline table of the repository roadmap.

    python3 perfbench/baseline.py

Each row is the median wall time of several repeats of one call on the
package in ``src/``, with the same BLAS threading as ``run.py``.  The
last rows play cost-only rounds at growing participator counts and run
the same scenario through the CLI, reporting how each ends.
"""

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from statistics import median

import run


def timed(fn, repeats):
    """Median seconds of ``repeats`` calls after one untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


def main() -> int:
    run.pin_blas_threads()
    run.import_package()
    import numpy as np

    from coded_incentives import coding, experiments, game, mechanisms, runtime
    from workloads import ANCHOR_CONFIG, RoundUniform, failure_class

    pop = experiments.default_population(1400)
    mech = mechanisms.solve_incomplete(pop, ANCHOR_CONFIG)
    spec = experiments.ExperimentSpec()
    rng = np.random.default_rng(0)
    A, x = rng.standard_normal((1000, 4)), rng.standard_normal(4)
    square = rng.standard_normal((1000, 1000))
    rhs = square @ rng.standard_normal(1000)
    fig = {name: replace(spec, name=name) for name in ("fig4", "fig5", "fig6", "fig7")}
    cases = [
        ("solve_incomplete, N=1400", 200,
         lambda: mechanisms.solve_incomplete(pop, ANCHOR_CONFIG)),
        ("solve_complete, N=1400", 200,
         lambda: mechanisms.solve_complete(pop, ANCHOR_CONFIG)),
        ("verify_ir_ic, N=1400", 200, lambda: game.verify_ir_ic(mech, pop)),
        ("run_fig4, 50 points", 10, lambda: experiments.run_fig4(fig["fig4"])),
        ("run_fig5, 50 points", 10, lambda: experiments.run_fig5(fig["fig5"])),
        ("run_fig6, 50 points", 10, lambda: experiments.run_fig6(fig["fig6"])),
        ("run_fig7, 50 points x 200 reps", 3,
         lambda: experiments.run_fig7(fig["fig7"])),
        ("simulate_round, hetero, 1000x4, 420 workers", 5,
         lambda: coding.simulate_round(mech, pop, A, x, seed=7)),
        ("lstsq, 1000x1000", 3, lambda: np.linalg.lstsq(square, rhs, rcond=None)),
        ("qr, 1000x1000", 3, lambda: np.linalg.qr(square)),
        ("LU solve, 1000x1000", 3, lambda: np.linalg.solve(square, rhs)),
        ("monte_carlo_runtime, 200 reps", 5,
         lambda: runtime.monte_carlo_runtime(
             pop, mech.assignment, mech.targeted, 1000.0, 200, 0)),
    ]
    for label, repeats, fn in cases:
        print(f"{label:<48} {timed(fn, repeats) * 1e3:10.3f} ms")

    uniform = RoundUniform(0, 1)
    for per_type in (1, 3, 4, 40, 67, 140):
        types = [replace(t, count=per_type) for t, _ in uniform.pop.types]
        offer = mechanisms.solve_cost_only(types, ANCHOR_CONFIG)
        participators = sum(t.count for t in types if t.id in offer.targeted)
        try:
            out = coding.simulate_round(
                offer, mechanisms.build_population(types), A, x, seed=7
            )
            outcome = f"decodes, max error {out.max_error:.3g}"
        except Exception as exc:
            outcome = f"{failure_class(exc)}: {type(exc).__name__}: {str(exc)[:60]}"
        print(
            f"cost-only round, {participators} participators, "
            f"k={offer.recovery_threshold}: {outcome}"
        )

    with tempfile.TemporaryDirectory(dir=run.HERE) as scratch:
        config = os.path.join(scratch, "uniform.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            for t, _ in uniform.pop.types:
                handle.write(f"{t.cost_rate} {t.speed} {t.startup} {t.count}\n")
        done = subprocess.run(
            [sys.executable, "-m", "coded_incentives.cli", "simulate",
             "--scenario", "cost-only", "--config", config],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(run.SOURCE)},
        )
        last = (done.stderr.strip().splitlines() or [""])[-1]
        print(f"CLI simulate --scenario cost-only: exit {done.returncode}: {last}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
