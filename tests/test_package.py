"""The package's public surface: the names it exports and where each
one comes from."""

from __future__ import annotations

import importlib

import coded_incentives

# The public API, in the order the package's ``__all__`` lists it.
PUBLIC_NAMES = [
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

MODULES = (
    "errors",
    "numerics",
    "workers",
    "runtime",
    "mechanisms",
    "game",
    "coding",
    "experiments",
    "cli",
)


def _module(name):
    return importlib.import_module(f"coded_incentives.{name}")


def test_all_lists_the_public_api_once_in_order():
    assert coded_incentives.__all__ == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES)


def test_each_export_is_its_defining_module_object():
    owners = {
        name: module
        for module in MODULES
        for name in _module(module).__all__
    }
    for name in PUBLIC_NAMES[1:]:
        value = getattr(coded_incentives, name)
        assert value is getattr(_module(owners[name]), name), name
        defined_in = getattr(value, "__module__", None)
        if defined_in is not None and callable(value):
            assert defined_in == f"coded_incentives.{owners[name]}", name


def test_star_import_binds_exactly_the_public_api():
    namespace: dict[str, object] = {}
    exec("from coded_incentives import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)


def test_every_module_export_exists():
    for module in MODULES:
        exported = _module(module).__all__
        assert len(set(exported)) == len(exported), module
        for name in exported:
            assert hasattr(_module(module), name), f"{module}.{name}"
