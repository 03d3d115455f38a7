"""Command-line interface.

Subcommands:

* ``solve``: compute a platform offer for a scenario and print it.
* ``verify``: compute an offer, then machine-check that participation
  is worthwhile for targeted types and no misreport is profitable.
* ``simulate``: play seeded end-to-end computation rounds (encode,
  race, decode, pay) under an offer.
* ``encode-demo``: walk through a small (3, 2) coded matrix-vector
  product that tolerates one straggler.
* ``experiment``: run a sweep over total worker counts and emit CSV.

Exit codes: 0 success, 2 configuration error or too little memory,
3 numerical failure, 4 infeasible instance.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .coding import (
    mds_decode,
    mds_encode,
    read_matrix,
    read_vector,
    simulate_round,
)
from .errors import ConfigurationError, InfeasibleError, NumericalError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    load_config,
    run_experiment,
)
from .game import verify_ir_ic
from .mechanisms import (
    Mechanism,
    _cost_only_offer,
    solve_complete,
    solve_incomplete,
)
from .workers import Population

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coded-incentives",
        description=(
            "Incentive mechanisms and coded-computation runtime models "
            "for distributed machine-learning platforms."
        ),
    )
    out_help = "write output to this file instead of stdout"
    # Options every subcommand but encode-demo reads; solve and verify
    # draw nothing at random and accept --seed only so that one command
    # line can carry it to every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        help=(
            "experiment configuration file: population rows "
            "`cost speed startup count` plus `key = value` settings; "
            "omitted, the bundled ten-type catalog with 140 workers "
            "each is used"
        ),
    )
    common.add_argument(
        "--seed", type=int, help="base random seed (unused by solve and verify)"
    )
    common.add_argument("--out", help=out_help)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument(
        "--scenario",
        choices=("complete", "incomplete", "cost-only"),
        default="incomplete",
        help=(
            "information scenario: complete (platform observes worker "
            "costs), incomplete (costs are private), cost-only (costs "
            "are private and all types share runtime parameters)"
        ),
    )
    # Each subcommand carries its handler as ``args.run``.
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "solve",
        parents=[common, scenario],
        help="compute a platform offer and print it",
    ).set_defaults(run=cmd_solve)
    sub.add_parser(
        "verify",
        parents=[common, scenario],
        help="machine-check an offer's worker incentives",
    ).set_defaults(run=cmd_verify)
    sim = sub.add_parser(
        "simulate",
        parents=[common, scenario],
        help="play seeded computation rounds end to end (default 1)",
    )
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("--reps", type=int, help="number of rounds (default 1)")
    sim.add_argument(
        "--matrix",
        help=(
            "matrix file (`rows cols` header, then entries); omitted, a "
            "seeded random matrix is generated"
        ),
    )
    sim.add_argument(
        "--vector",
        help=(
            "vector file (`length` header, then entries); omitted, a "
            "seeded random vector is generated"
        ),
    )
    demo = sub.add_parser(
        "encode-demo",
        help=(
            "walk through a (3, 2) coded matrix-vector product with one "
            "straggler"
        ),
    )
    demo.set_defaults(run=cmd_encode_demo)
    demo.add_argument("--out", help=out_help)
    exp = sub.add_parser(
        "experiment",
        parents=[common],
        help="run a worker-count sweep and emit CSV",
    )
    exp.set_defaults(run=cmd_experiment)
    exp.add_argument("--reps", type=int, help="replications per fig7 point")
    exp.add_argument(
        "name",
        choices=EXPERIMENT_NAMES,
        help=(
            "fig4: targeted type counts; fig5: platform costs and their "
            "gap; fig6: per-type payoffs; fig7: sampled-headcount cost "
            "penalty; custom: combined deterministic sweep"
        ),
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses across calls, built on first use."""
    return build_parser()


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec a command runs: its config file's, or the default one,
    with the command line's settings; each spec is checked once."""
    overrides: dict[str, object] = {}
    name = getattr(args, "name", None)
    if name is not None:
        overrides["name"] = name
    if args.seed is not None:
        overrides["seed"] = args.seed
    # simulate reads --reps as its round count, not as replications.
    if args.command == "experiment" and args.reps is not None:
        overrides["replications"] = args.reps
    if not args.config:
        return ExperimentSpec(**overrides)
    spec = load_config(args.config)
    return replace(spec, **overrides) if overrides else spec


def _solve_for(scenario: str, spec: ExperimentSpec) -> Mechanism:
    cfg = spec.platform_config()
    if scenario == "complete":
        return solve_complete(spec.population, cfg)
    if scenario == "incomplete":
        return solve_incomplete(spec.population, cfg)
    return _cost_only_offer(spec.population, cfg)


def _format_mechanism(mech: Mechanism, pop: Population) -> str:
    lines = [
        f"scenario: {mech.scenario}",
        f"targeted types: {', '.join(str(m) for m in mech.targeted)}",
        f"expected round runtime: {mech.expected_runtime:.6g}",
        f"expected platform cost: {mech.expected_cost:.6g}",
    ]
    if mech.recovery_threshold is not None:
        lines.append(f"recovery threshold: {mech.recovery_threshold}")
    lines.append("")
    lines.append(f"{'type':>4}  {'count':>6}  {'cost':>8}  {'reward':>12}  {'load':>10}")
    columns = pop.counts.astype(int), pop.cost_rate, mech.rewards, mech.assignment.loads
    for m, count, cost, reward, load in zip(pop.ids, *(c.tolist() for c in columns)):
        text = f"{load:.6g}" if load else "-"
        lines.append(f"{m:>4}  {count:>6}  {cost:>8g}  {reward:>12.6g}  {text:>10}")
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    return _format_mechanism(_solve_for(args.scenario, spec), spec.population)


def cmd_verify(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    report = verify_ir_ic(_solve_for(args.scenario, spec), spec.population)
    return f"{report.to_text()}\n\n{report.to_csv()}"


def cmd_simulate(args: argparse.Namespace) -> str:
    reps = args.reps if args.reps is not None else 1
    if reps < 1:
        raise ConfigurationError("simulate needs at least one round")
    spec = _load_spec(args)
    mech = _solve_for(args.scenario, spec)
    rows = int(spec.total_rows)
    if rows != spec.total_rows:
        raise ConfigurationError(
            "simulation requires an integer total row count"
        )
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    # simulate_round checks the matrix and vector shapes against the offer.
    matrix = read_matrix(args.matrix) if args.matrix else rng.standard_normal((rows, 4))
    if args.vector:
        vector = read_vector(args.vector)
    else:
        vector = rng.standard_normal(matrix.shape[1])
    lines = []
    costs = []
    for i in range(reps):
        seed = spec.seed + i
        # A ConfigurationError is the command's input, never one round's.
        try:
            outcome = simulate_round(mech, spec.population, matrix, vector, seed)
        except (InfeasibleError, NumericalError) as exc:
            raise type(exc)(f"round {i} (seed {seed}): {exc}") from exc
        if i == 0:
            # The round has checked the matrix and vector against the offer.
            scale = max(1.0, float(np.max(np.abs(matrix @ vector))))
        costs.append(outcome.platform_cost_realized)
        error = outcome.max_error / scale
        lines.append(
            f"round {i}: runtime {outcome.runtime:.6g}, used "
            f"{outcome.realized_k} of {len(outcome.worker_types)} workers, "
            f"decode error {error:.3g} (relative), realized cost "
            f"{outcome.platform_cost_realized:.6g}"
        )
    mean_cost = math.fsum(costs) / reps
    lines.append(f"mean realized cost over {reps} round(s): {mean_cost:.6g}")
    lines.append(f"announced expected cost: {mech.expected_cost:.6g}")
    return "\n".join(lines)


def cmd_encode_demo(args: argparse.Namespace) -> str:
    matrix = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    vector = np.array([1.0, 1.0])
    generator = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    task = mds_encode(matrix, 3, 2, generator=generator)
    top, bottom, combined = task.shards
    direct = matrix @ vector
    results = {1: bottom @ vector, 2: combined @ vector}
    decoded = mds_decode(task, results)
    lines = [
        "coded matrix-vector demo: 3 workers, any 2 suffice",
        "",
        f"a {task.source_rows}x{matrix.shape[1]} matrix splits into "
        f"{task.threshold} blocks of {task.block_rows} rows:",
        "  worker 0 gets the top block,",
        "  worker 1 gets the bottom block,",
        "  worker 2 gets the sum of both blocks.",
        "",
        f"worker 1 finishes: {bottom @ vector}",
        f"worker 2 finishes: {combined @ vector}",
        "worker 0 straggles, and its result is never needed:",
        "subtracting worker 1's block from worker 2's recovers the top "
        "block.",
        "",
        f"decoded product:    {decoded}",
        f"direct computation: {direct}",
        f"agreement: {bool(np.array_equal(decoded, direct))}",
    ]
    return "\n".join(lines)


def cmd_experiment(args: argparse.Namespace) -> str:
    return run_experiment(_load_spec(args)).to_csv()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = args.run(args)
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ConfigurationError(f"cannot write {args.out}: {exc}") from exc
        else:
            print(text, end="")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        message = f"not enough memory for this run ({exc})"
        print(f"configuration error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
