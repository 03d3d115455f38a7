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

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 infeasible instance.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from statistics import fmean

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
        "--seed", type=int, default=None, help="base random seed"
    )
    common.add_argument(
        "--reps", type=int, default=None, help="replication count"
    )
    common.add_argument(
        "--out", help="write output to this file instead of stdout"
    )
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
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "solve",
        parents=[common, scenario],
        help="compute a platform offer and print it",
    )
    sub.add_parser(
        "verify",
        parents=[common, scenario],
        help="machine-check an offer's worker incentives",
    )
    sim = sub.add_parser(
        "simulate",
        parents=[common, scenario],
        help="play seeded computation rounds end to end (default 1)",
    )
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
    sub.add_parser(
        "encode-demo",
        parents=[common],
        help=(
            "walk through a (3, 2) coded matrix-vector product with one "
            "straggler"
        ),
    )
    exp = sub.add_parser(
        "experiment",
        parents=[common],
        help="run a worker-count sweep and emit CSV",
    )
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


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_config(args.config) if args.config else ExperimentSpec()
    overrides: dict[str, object] = {}
    name = getattr(args, "name", None)
    if name is not None:
        overrides["name"] = name
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.reps is not None:
        overrides["replications"] = args.reps
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
    counts = pop.counts.astype(int).tolist()
    for m, count, cost in zip(pop.ids, counts, pop.cost_rate.tolist()):
        load = mech.assignment.loads.get(m)
        load_text = f"{load:.6g}" if load is not None else "-"
        lines.append(
            f"{m:>4}  {count:>6}  {cost:>8g}  "
            f"{mech.rewards.get(m, 0.0):>12.6g}  {load_text:>10}"
        )
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    return _format_mechanism(_solve_for(args.scenario, spec), spec.population)


def cmd_verify(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    report = verify_ir_ic(_solve_for(args.scenario, spec), spec.population)
    table = ["kind,true_type,reported_type,value"]
    table.extend(
        f"{kind},{true_id},{reported},{format(value, '.17g')}"
        for kind, true_id, reported, value in report.to_rows()
    )
    return report.to_text() + "\n\n" + "\n".join(table)


def cmd_simulate(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    mech = _solve_for(args.scenario, spec)
    rows = int(spec.total_rows)
    if rows != spec.total_rows:
        raise ConfigurationError(
            "simulation requires an integer total row count"
        )
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    if args.matrix:
        matrix = read_matrix(args.matrix)
        if matrix.shape[0] != rows:
            raise ConfigurationError(
                f"matrix has {matrix.shape[0]} rows, configuration says "
                f"{rows}"
            )
    else:
        matrix = rng.standard_normal((rows, 4))
    if args.vector:
        vector = read_vector(args.vector)
        if vector.shape != (matrix.shape[1],):
            raise ConfigurationError(
                f"vector length {vector.shape[0]} does not match the "
                f"matrix column count {matrix.shape[1]}"
            )
    else:
        vector = rng.standard_normal(matrix.shape[1])
    reps = args.reps if args.reps is not None else 1
    if reps < 1:
        raise ConfigurationError("simulate needs at least one round")
    lines = []
    costs = []
    for i in range(reps):
        outcome = simulate_round(
            mech, spec.population, matrix, vector, seed=spec.seed + i
        )
        costs.append(outcome.platform_cost_realized)
        lines.append(
            f"round {i}: runtime {outcome.runtime:.6g}, used "
            f"{outcome.realized_k} of {len(outcome.worker_types)} workers, "
            f"decode error {outcome.max_error:.3g}, realized cost "
            f"{outcome.platform_cost_realized:.6g}"
        )
    lines.append(
        f"mean realized cost over {reps} round(s): {fmean(costs):.6g}"
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "encode-demo": cmd_encode_demo,
        "experiment": cmd_experiment,
    }
    try:
        text = commands[args.command](args)
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
