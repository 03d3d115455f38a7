"""Incentive mechanisms and coded-computation runtime models for
distributed machine-learning platforms.

A platform farms a matrix-vector workload out to self-interested
workers whose completion times follow a shifted-exponential model.
This package solves the platform's offer (whom to target, what to pay,
how to split the load) under three information scenarios,
machine-checks the resulting worker incentives, grounds the runtime
model in actual erasure-coded linear algebra, and reproduces the
benchmark sweeps from the command line.
"""

from importlib.metadata import PackageNotFoundError, version

from .coding import (
    CodedTask,
    SimOutcome,
    integerize_loads,
    mds_decode,
    mds_encode,
    read_matrix,
    read_vector,
    simulate_round,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    IterationError,
    NumericalError,
)
from .experiments import (
    DEFAULT_TYPE_PARAMS,
    EXPERIMENT_NAMES,
    ExperimentSpec,
    ResultTable,
    apportion,
    default_population,
    default_worker_types,
    load_config,
    run_custom,
    run_experiment,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
)
from .game import (
    ComplianceReport,
    WorkerDecision,
    best_response,
    verify_ir_ic,
)
from .mechanisms import (
    SCENARIO_COMPLETE,
    SCENARIO_COST_ONLY,
    SCENARIO_INCOMPLETE,
    Mechanism,
    PlatformConfig,
    platform_cost,
    solve_complete,
    solve_cost_only,
    solve_incomplete,
)
from .numerics import harmonic, mds_alpha, solve_lambda
from .runtime import (
    SCHEME_HETERO,
    SCHEME_MDS,
    LoadAssignment,
    RuntimeEstimate,
    assign_loads_hetero,
    expected_runtime_hetero,
    expected_runtime_mds,
    monte_carlo_runtime,
)
from .workers import (
    PerformanceProfile,
    Population,
    WorkerType,
    build_population,
    derive_profile,
    sample_time,
    sample_times,
)

try:
    __version__ = version("coded-incentives")
except PackageNotFoundError:
    __version__ = "0+unknown"

__all__ = [
    "__version__",
    "ConfigurationError",
    "InfeasibleError",
    "NumericalError",
    "IterationError",
    "solve_lambda",
    "mds_alpha",
    "harmonic",
    "WorkerType",
    "PerformanceProfile",
    "Population",
    "derive_profile",
    "build_population",
    "sample_time",
    "sample_times",
    "SCHEME_HETERO",
    "SCHEME_MDS",
    "LoadAssignment",
    "RuntimeEstimate",
    "assign_loads_hetero",
    "expected_runtime_hetero",
    "expected_runtime_mds",
    "monte_carlo_runtime",
    "SCENARIO_COMPLETE",
    "SCENARIO_INCOMPLETE",
    "SCENARIO_COST_ONLY",
    "PlatformConfig",
    "Mechanism",
    "solve_complete",
    "solve_incomplete",
    "solve_cost_only",
    "platform_cost",
    "WorkerDecision",
    "ComplianceReport",
    "best_response",
    "verify_ir_ic",
    "CodedTask",
    "SimOutcome",
    "mds_encode",
    "mds_decode",
    "integerize_loads",
    "simulate_round",
    "read_matrix",
    "read_vector",
    "DEFAULT_TYPE_PARAMS",
    "EXPERIMENT_NAMES",
    "ExperimentSpec",
    "ResultTable",
    "default_worker_types",
    "default_population",
    "apportion",
    "load_config",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_custom",
    "run_experiment",
]
