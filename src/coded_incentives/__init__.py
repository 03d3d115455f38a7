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

from . import coding, errors, experiments, game, mechanisms, numerics, runtime, workers
from .coding import *
from .errors import *
from .experiments import *
from .game import *
from .mechanisms import *
from .numerics import *
from .runtime import *
from .workers import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += numerics.__all__
__all__ += workers.__all__
__all__ += runtime.__all__
__all__ += mechanisms.__all__
__all__ += game.__all__
__all__ += coding.__all__
__all__ += experiments.__all__
