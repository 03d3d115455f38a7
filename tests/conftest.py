"""Shared fixtures and random-instance builders."""

from __future__ import annotations

import math

import numpy as np
import pytest

from coded_incentives import (
    PlatformConfig,
    Population,
    WorkerType,
    build_population,
    default_population,
)


@pytest.fixture(scope="session")
def benchmark_population() -> Population:
    return default_population(1400)


@pytest.fixture(scope="session")
def benchmark_config() -> PlatformConfig:
    return PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)


@pytest.fixture()
def plant_ill_conditioned_parity(monkeypatch):
    """``plant(rows)`` makes every later ``np.random.default_rng``
    generator set each row it draws from ``random`` with as many entries
    as a ``rows``-row round's parity factors, ``height + width`` for the
    ``height x width`` grid with ``width = isqrt(rows - 1) + 1``, after
    the first such row, to that first row plus 0.5e-8 times its own
    draw.  Factors are ``2 * random - 1``, so every parity row of such a
    round is then within about 1e-8 of the first one's outer product:
    a square block at least as ill-conditioned as rows within 1e-8 of
    one row (2-norm condition number about 1e9), which both the decode's
    estimate and its exact check refuse, far past the limit up to which
    a refused block is refined."""

    def plant(rows: int):
        width = math.isqrt(rows - 1) + 1
        columns = -(-rows // width) + width

        class Planted(np.random.Generator):
            first = None

            def random(self, size=None, dtype=np.float64, out=None):
                drawn = super().random(size, dtype, out)
                if np.ndim(drawn) == 2 and drawn.shape[1] == columns:
                    if self.first is None:
                        self.first = drawn[0].copy()
                        drawn[1:] = self.first + 0.5e-8 * drawn[1:]
                    else:
                        drawn[:] = self.first + 0.5e-8 * drawn
                return drawn

        monkeypatch.setattr(
            np.random,
            "default_rng",
            lambda seed=None: Planted(np.random.PCG64(seed)),
        )

    return plant


def random_hetero_instance(
    rng: np.random.Generator, max_types: int = 12
) -> tuple[Population, PlatformConfig]:
    """A mixed population and platform valuation drawn uniformly.

    Half the instances reuse a couple of shared runtime-parameter
    pairs across types, so misreporting between same-behavior types is
    actually possible and the incentive checks bite.
    """
    m = int(rng.integers(2, max_types + 1))
    if rng.random() < 0.5:
        classes = [
            (float(rng.uniform(5.0, 500.0)), float(rng.uniform(0.005, 0.2)))
            for _ in range(2)
        ]
        params = [classes[int(rng.integers(0, 2))] for _ in range(m)]
    else:
        params = [
            (float(rng.uniform(5.0, 500.0)), float(rng.uniform(0.005, 0.2)))
            for _ in range(m)
        ]
    types = [
        WorkerType(
            id=i + 1,
            cost_rate=float(rng.uniform(0.5, 25.0)),
            speed=mu,
            startup=a,
            count=int(rng.integers(1, 200)),
        )
        for i, (mu, a) in enumerate(params)
    ]
    cfg = PlatformConfig(
        gamma_time=float(rng.uniform(1.0, 1e4)),
        gamma_pay=float(rng.uniform(0.1, 10.0)),
        total_rows=float(rng.uniform(100.0, 5000.0)),
    )
    return build_population(types), cfg


def random_cost_only_instance(
    rng: np.random.Generator, max_workers: int = 500
) -> tuple[list[WorkerType], PlatformConfig]:
    """Worker types sharing one runtime behavior, differing in cost."""
    m = int(rng.integers(2, 9))
    mu = float(rng.uniform(1.0, 100.0))
    a = float(rng.uniform(0.01, 2.0))
    budget = int(rng.integers(m, max_workers + 1))
    splits = np.sort(rng.choice(np.arange(1, budget), size=m - 1, replace=False))
    counts = np.diff(np.concatenate([[0], splits, [budget]])).astype(int)
    types = [
        WorkerType(
            id=i + 1,
            cost_rate=float(rng.uniform(0.5, 25.0)),
            speed=mu,
            startup=a,
            count=int(counts[i]),
        )
        for i in range(m)
    ]
    cfg = PlatformConfig(
        gamma_time=float(rng.uniform(1.0, 1e4)),
        gamma_pay=float(rng.uniform(0.1, 10.0)),
        total_rows=float(rng.uniform(100.0, 5000.0)),
    )
    return types, cfg
