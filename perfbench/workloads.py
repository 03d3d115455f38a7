"""The benchmark's workloads: inputs built from a seed, the timed call,
and the check of each call's output.

Each workload is driven by one closed-loop caller.  Its attempt count
is fixed by the workload and the run length (``rate`` is the nominal
attempts per second on the reference machine, each with its calibration
kernel), never by elapsed time,
so the failure ratio and the latency percentiles keep the same base
however fast the program is.  The program receives only the generated
matrix, vector, round seeds, sweep seed and command lines.  ``kernel``
is the calibration kernel that times the machine's speed after each
attempt (``speed.py``).
"""

from __future__ import annotations

import io
import math
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from coded_incentives import cli, coding, experiments
from coded_incentives.errors import (
    ConfigurationError,
    InfeasibleError,
    NumericalError,
)
from coded_incentives.mechanisms import (
    PlatformConfig,
    solve_cost_only,
    solve_incomplete,
)
from coded_incentives.workers import WorkerType, build_population

import speed

REFERENCE = Path(__file__).resolve().parent / "reference"

FAILURE_CLASSES = (
    "numerical",
    "infeasible",
    "configuration",
    "untyped",
    "wrong",
    "timeout",
)

# The CLI maps the typed errors to these exit codes.
EXIT_CLASSES = {2: "configuration", 3: "numerical", 4: "infeasible"}

# The paper anchor: 1400 workers, a 1000-row workload, 2000:1 valuations.
ANCHOR_WORKERS = 1400
ANCHOR_ROWS = 1000
ANCHOR_CONFIG = PlatformConfig(
    gamma_time=2000.0, gamma_pay=1.0, total_rows=float(ANCHOR_ROWS)
)
SEED_LIMIT = 2**31


def failure_class(exc: BaseException) -> str:
    """Typed package errors by kind; anything else is untyped."""
    if isinstance(exc, NumericalError):
        return "numerical"
    if isinstance(exc, InfeasibleError):
        return "infeasible"
    if isinstance(exc, ConfigurationError):
        return "configuration"
    return "untyped"


class _Round:
    """Repeated ``simulate_round`` calls on one matrix and vector, one
    round seed per call."""

    cycle = 1
    warmup = 2
    kernel = speed.LSTSQ

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        self.mech, self.pop = self._offer()
        self.A = rng.standard_normal((ANCHOR_ROWS, 4))
        self.x = rng.standard_normal(4)
        self.round_seeds = rng.integers(0, SEED_LIMIT, size=count).tolist()

    def call(self, i: int):
        return coding.simulate_round(
            self.mech, self.pop, self.A, self.x, self.round_seeds[i]
        )

    def check(self, i: int, out) -> str | None:
        exact = self.A @ self.x
        bound = 1e-8 * max(1.0, float(np.max(np.abs(exact))))
        if not float(np.max(np.abs(out.decoded - exact))) <= bound:
            return "wrong"
        cfg = self.mech.config
        cost = cfg.gamma_time * out.runtime + cfg.gamma_pay * math.fsum(
            out.payments.values()
        )
        if not math.isclose(out.platform_cost_realized, cost, rel_tol=1e-12):
            return "wrong"
        finish = dict(out.finish_order)
        if not out.contributors or out.runtime != finish[out.contributors[-1]]:
            return "wrong"
        return None


class RoundHetero(_Round):
    """Private-cost offer on the bundled catalog: 420 participants from
    types 1-3, dense random code rows, decoded by least squares."""

    name = "round-hetero"
    rate = 2.5

    def _offer(self):
        pop = experiments.default_population(ANCHOR_WORKERS)
        return solve_incomplete(pop, ANCHOR_CONFIG), pop


class RoundUniform(_Round):
    """Cost-only offer: the catalog's cost rates with one shared runtime
    (speed 50, startup 0.012), 140 workers per type, so 420 participators
    and recovery threshold 254 on the uniform (Vandermonde) code."""

    name = "round-uniform"
    rate = 11.0
    cycle = 10

    def _offer(self):
        per_type = ANCHOR_WORKERS // len(experiments.DEFAULT_TYPE_PARAMS)
        types = [
            WorkerType(
                id=i + 1, cost_rate=cost, speed=50.0, startup=0.012,
                count=per_type,
            )
            for i, (cost, _, _) in enumerate(experiments.DEFAULT_TYPE_PARAMS)
        ]
        return solve_cost_only(types, ANCHOR_CONFIG), build_population(types)


class SweepFig7:
    """One point of the default fig7 spec per call, run as ``run_fig7``
    on a one-point spec; points are visited in a seeded order."""

    name = "sweep-fig7"
    rate = 28.0
    cycle = 1
    warmup = 3
    kernel = speed.PYTHON

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        self.spec = experiments.ExperimentSpec(
            name="fig7", seed=int(rng.integers(0, SEED_LIMIT))
        )
        sweep = self.spec.n_sweep
        points = [sweep[j] for j in rng.permutation(len(sweep))]
        one_point = {n: replace(self.spec, n_sweep=(n,)) for n in points}
        self.specs = [one_point[points[i % len(points)]] for i in range(count)]
        self._reference: dict[int, tuple[float, ...]] | None = None

    def call(self, i: int):
        return experiments.run_fig7(self.specs[i]).rows[0]

    def check(self, i: int, row) -> str | None:
        # Rows depend only on SeedSequence([seed, N, rep]), so one untimed
        # pass over every point of the run must reproduce each row exactly.
        if self._reference is None:
            points = tuple(sorted({s.n_sweep[0] for s in self.specs}))
            table = experiments.run_fig7(replace(self.spec, n_sweep=points))
            self._reference = {int(r[0]): r for r in table.rows}
        expected = self._reference[self.specs[i].n_sweep[0]]
        same = [float(v).hex() for v in row] == [float(v).hex() for v in expected]
        return None if same else "wrong"


# Commands of the offers mix and the reference output each must print.
COMMANDS = (
    ("solve", ("solve",)),
    ("solve-complete", ("solve", "--scenario", "complete")),
    ("verify", ("verify",)),
    ("fig4", ("experiment", "fig4")),
    ("fig5", ("experiment", "fig5")),
    ("fig6", ("experiment", "fig6")),
    ("custom", ("experiment", "custom")),
)
TRUTHFUL = "offer is individually rational and incentive compatible"
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def same_output(text: str, expected: str, rel_tol: float = 1e-12) -> bool:
    """Equal apart from ``#`` metadata lines, with numbers compared to a
    relative tolerance and everything between them exactly."""
    def pieces(value: str) -> list[str]:
        body = "\n".join(
            line for line in value.splitlines() if not line.startswith("#")
        )
        return _NUMBER.split(body)

    got, want = pieces(text), pieces(expected)
    if len(got) != len(want):
        return False
    for k, (a, b) in enumerate(zip(got, want)):
        if k % 2 == 0:
            if a != b:
                return False
        elif not math.isclose(float(a), float(b), rel_tol=rel_tol):
            return False
    return True


class Offers:
    """The CLI as a user calls it: one operation runs the seven commands
    of ``COMMANDS`` in order through ``cli.main(argv)`` in process, with
    output captured.  Each command line carries a seeded ``--seed``,
    which none of their results depend on."""

    name = "offers"
    rate = 16.0
    cycle = 1
    warmup = 1
    kernel = speed.PYTHON

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, SEED_LIMIT, size=(count, len(COMMANDS))).tolist()
        self.argv = [
            [[*argv, "--seed", str(s)] for (_, argv), s in zip(COMMANDS, row)]
            for row in seeds
        ]
        self.expected = {
            label: (REFERENCE / f"{label}.txt").read_text(encoding="utf-8")
            for label, _ in COMMANDS
        }

    def call(self, i: int):
        """(label, exit code, output, wall seconds) of each command."""
        results = []
        for (label, _), argv in zip(COMMANDS, self.argv[i]):
            out, err = io.StringIO(), io.StringIO()
            begin = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            results.append((label, code, out.getvalue(), time.perf_counter() - begin))
        return results

    def check(self, i: int, results) -> str | None:
        for label, code, text, _ in results:
            if code != 0:
                return EXIT_CLASSES.get(code, "untyped")
            if label == "verify" and not text.startswith(TRUTHFUL):
                return "wrong"
            if not same_output(text, self.expected[label]):
                return "wrong"
        return None

    @staticmethod
    def command_seconds(results) -> dict[str, float]:
        return {label: seconds for label, _, _, seconds in results or ()}


WORKLOADS = {
    cls.name: cls for cls in (RoundHetero, SweepFig7, Offers, RoundUniform)
}


def attempts_for(workload: type, seconds: float) -> int:
    """Fixed attempt count: the nominal rate times the run length, in
    whole cycles of the workload's mix."""
    cycles = max(1, round(seconds * workload.rate / workload.cycle))
    return cycles * workload.cycle
