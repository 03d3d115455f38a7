"""The one whole-number rule, at every site of the Python API that takes
a seed, a run count, a size or a type id.

Each site takes an int or a NumPy integer, and a NumPy integer gives the
same result as the equal int.  A fraction, an integral float and a value
below the site's bound each raise ConfigurationError naming the value.
Type ids have no bound in the rule: their callers' range checks still
name an unknown id, with the caller's own error.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from coded_incentives import (
    ConfigurationError,
    ExperimentSpec,
    LoadAssignment,
    PlatformConfig,
    apportion,
    assign_loads_hetero,
    best_response,
    default_population,
    expected_runtime_mds,
    harmonic,
    mds_encode,
    monte_carlo_runtime,
    run_experiment,
    simulate_round,
    solve_incomplete,
)


@functools.cache
def _round():
    """The anchor offer on the 1400-worker catalog and a 1000 x 4 product."""
    pop = default_population(1400)
    mech = solve_incomplete(pop, PlatformConfig(2000.0, 1.0, 1000.0))
    rng = np.random.default_rng(0)
    return pop, mech, rng.standard_normal((1000, 4)), rng.standard_normal(4)


def _simulate(seed):
    pop, mech, A, x = _round()
    return simulate_round(mech, pop, A, x, seed)


def _monte_carlo(reps=20, seed=5):
    pop, mech, _, _ = _round()
    return monte_carlo_runtime(pop, mech.assignment, mech.targeted, 1000.0, reps, seed)


def _monte_carlo_type_1(targeted):
    """Two replicates of type 1's workers alone, racing ``targeted``."""
    pop = _round()[0]
    loads = assign_loads_hetero(pop, 1, 1000.0)
    return monte_carlo_runtime(pop, loads, targeted, 1000.0, 2, 0)


def _csv(name, **fields):
    return run_experiment(ExperimentSpec(name=name, **fields)).to_csv()


def _encode(n=3, k=2):
    generator = np.random.default_rng(1).standard_normal((3, 2))
    return mds_encode(np.arange(8.0).reshape(4, 2), n, k, generator)


# site -> (its call on one whole number, a valid int, a fraction, the
# rule's bound: 0, 1, or None for a type id).
SITES = {
    "simulate_round seed": (_simulate, 5, 5.5, 0),
    "monte_carlo_runtime seed": (lambda v: _monte_carlo(seed=v), 5, 5.5, 0),
    "monte_carlo_runtime reps": (lambda v: _monte_carlo(reps=v), 3, 2.5, 1),
    "ExperimentSpec seed": (lambda v: _csv("fig7", seed=v), 5, 5.5, 0),
    "ExperimentSpec replications": (
        lambda v: _csv("fig7", replications=v, n_sweep=(100, 200)), 3, 2.5, 1
    ),
    "ExperimentSpec n_sweep": (lambda v: _csv("custom", n_sweep=(v,)), 100, 100.7, 1),
    "apportion total": (lambda v: apportion(v, [1.0, 2.0]), 10, 10.5, 0),
    "mds_encode n": (lambda v: _encode(n=v), 3, 3.5, 0),
    "mds_encode k": (lambda v: _encode(k=v), 2, 2.5, 0),
    "harmonic n": (harmonic, 5, 5.5, 0),
    "expected_runtime_mds n": (
        lambda v: expected_runtime_mds(v, 3, 100.0, 2.0, 0.5), 5, 5.5, 0
    ),
    "expected_runtime_mds k": (
        lambda v: expected_runtime_mds(5, v, 100.0, 2.0, 0.5), 3, 3.5, 0
    ),
    "best_response type id": (
        lambda v: best_response(v, _round()[1], _round()[0]), 2, 1.5, None
    ),
    "Population.member type id": (lambda v: _round()[0].member(v), 2, 1.5, None),
    "LoadAssignment recovery threshold": (
        lambda v: LoadAssignment([250.0], 1000.0, v), 4, 253.5, 1
    ),
    "threshold type id": (
        lambda v: assign_loads_hetero(_round()[0], v, 1000.0), 1, 1.7, None
    ),
    "targeted type ids": (lambda v: _monte_carlo_type_1((v,)), 1, 1.7, None),
}
BOUNDED = [site for site, (*_, least) in SITES.items() if least is not None]


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_numpy_integer_gives_the_int_result(site, integer):
    call, value, _, _ = SITES[site]
    assert pickle.dumps(call(integer(value))) == pickle.dumps(call(value))


@pytest.mark.parametrize("site", SITES)
def test_fraction_is_refused(site):
    call, _, fraction, _ = SITES[site]
    with pytest.raises(ConfigurationError, match=f"integer, got {fraction}$"):
        call(fraction)


@pytest.mark.parametrize("site", SITES)
def test_integral_float_is_refused(site):
    call, value, _, _ = SITES[site]
    call(value)  # a cache the int fills must not answer for the float
    with pytest.raises(ConfigurationError, match=f"integer, got {float(value)}$"):
        call(float(value))


@pytest.mark.parametrize("site", BOUNDED)
def test_value_below_the_bound_is_refused(site):
    call, _, _, least = SITES[site]
    kind = "nonnegative" if least == 0 else "positive"
    with pytest.raises(ConfigurationError, match=f"{kind} integer, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("site", [site for site in SITES if site not in BOUNDED])
@pytest.mark.parametrize("type_id", [0, -1, np.int64(-1)])
def test_type_id_out_of_range_keeps_its_callers_error(site, type_id):
    call = SITES[site][0]
    with pytest.raises(ValueError, match=f"unknown type id.*{int(type_id)}") as raised:
        call(type_id)
    assert not isinstance(raised.value, ConfigurationError)
