"""Machine-speed calibration for the timed loops.

The reference machine is a share of a host whose CPU speed follows the
other tenants' load: it flips between a fast and a 1.7-1.9x slower
level within tens of milliseconds, and the share of slow time drifts
over minutes, far more than any bound a regression check could use.
So every attempt is followed by a fixed calibration kernel of the same
kind of work, and the attempt's time is scaled by how long the kernel
took around it:

    reference time = wall time x kernel reference time / local kernel time

A kernel is benchmark code and calls nothing in ``coded_incentives``,
so a change to the program moves the scaled time and not the kernel.
The scaled time reads about as the wall time on the reference machine
in a fast stretch; the raw wall times are reported next to it.
"""

from __future__ import annotations

import argparse
import math
import time
from statistics import fmean

import numpy as np

# Attempts on each side of an attempt whose kernel times, averaged, set
# its speed.  The slow and fast stretches alternate within tens of
# milliseconds, so a mean over a few kernel timings tracks the share of
# slow time better than any one timing does.
HALF_WINDOW = 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kernel")
    parser.add_argument("command", choices=("solve", "verify", "experiment"))
    for name in ("alpha", "beta", "gamma", "delta", "seed"):
        parser.add_argument(f"--{name}", type=float, default=1.0)
    return parser


_PARSER = _parser()


def python_kernel() -> float:
    """Interpreter work of the kind the CLI does: ``argparse`` parsing a
    fixed command line ten times, 0.3-0.5 ms.  Of the pure-Python
    kernels tried it slowed most nearly as much as the ``offers`` mix
    does when the machine slows."""
    total = 0.0
    for _ in range(10):
        total += _PARSER.parse_args(["solve", "--alpha", "2", "--seed", "7"]).alpha
    return total


_MATRIX = np.random.default_rng(0).standard_normal((600, 600))
_RHS = np.random.default_rng(1).standard_normal(600)


def lstsq_kernel() -> float:
    """LAPACK work: a fixed 600 x 600 least-squares solve through
    ``numpy.linalg.lstsq``, the routine the hetero decode uses; 80-90 ms
    with two BLAS threads."""
    return float(np.linalg.lstsq(_MATRIX, _RHS, rcond=None)[0][0])


class Kernel:
    """A calibration kernel and its reference time: a round figure near
    its fastest median over a run on the reference machine (2 CPUs,
    OpenBLAS with 2 threads).  Run between program calls, a kernel is
    slower than in a tight loop of its own."""

    def __init__(self, name: str, run, reference_s: float):
        self.name = name
        self.run = run
        self.reference_s = reference_s

    def time(self) -> float:
        """One timed call, in seconds."""
        begin = time.perf_counter()
        self.run()
        return time.perf_counter() - begin


PYTHON = Kernel("python", python_kernel, 0.35e-3)
LSTSQ = Kernel("lstsq", lstsq_kernel, 80e-3)

# Set-up, which is mostly imports, slows about half as much as the
# interpreter kernel (log-log slope near 0.5 between runs in fast and in
# slow stretches), so it is scaled by the square root of the kernel's
# slowdown.  The kernel is timed SETUP_TIMINGS times right after set-up;
# SETUP_REFERENCE_S is their mean in a fresh process in a fast stretch.
SETUP_EXPONENT = 0.5
SETUP_TIMINGS = 40
SETUP_REFERENCE_S = 0.25e-3


def local_kernel_times(kernel_s: list[float]) -> list[float]:
    """Each attempt's kernel time: the mean over the attempts within
    ``HALF_WINDOW`` of it that have a kernel time (NaN where none has)."""
    local = []
    for i in range(len(kernel_s)):
        window = kernel_s[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        known = [k for k in window if not math.isnan(k)]
        local.append(fmean(known) if known else math.nan)
    return local


def to_reference(
    wall_s: list[float], kernel_s: list[float], reference_s: float
) -> list[float]:
    """Scale each wall time by its attempt's local speed.  Infinite wall
    times (failed attempts) stay infinite; an attempt with no kernel
    time nearby keeps its wall time."""
    scaled = []
    for wall, local in zip(wall_s, local_kernel_times(kernel_s)):
        factor = 1.0 if math.isnan(local) else reference_s / local
        scaled.append(wall * factor)
    return scaled


def setup_kernel_s() -> float:
    """Mean time of the interpreter kernel over ``SETUP_TIMINGS`` calls."""
    return fmean(PYTHON.time() for _ in range(SETUP_TIMINGS))


def setup_to_reference(setup_s: float, kernel_s: float) -> float:
    return setup_s * (SETUP_REFERENCE_S / kernel_s) ** SETUP_EXPONENT
