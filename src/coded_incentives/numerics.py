"""Special functions and the root solver used throughout the package.

Three quantities recur in the runtime and mechanism formulas:

* ``solve_lambda``: the per-row time scale of a worker whose completion
  time is shift ``a`` plus an exponential tail of rate ``mu``.  It is
  the unique positive root of ``exp(mu*(lam - a)) = mu*lam + 1``, and
  the only solver of that equation in the package: one NumPy Newton
  iteration over every pair it is given, so a population takes one call.
* ``mds_alpha``: the optimal recovery-threshold fraction, read off the
  same root as ``mu*lam / (1 + mu*lam)``.
* ``harmonic``: partial sums of the harmonic series, which give the
  expectation of exponential order statistics.

``row_fsums`` sums each row of a batched array up to its own length
into a float64 array, cutting the rows to their prefixes so that only
``math.fsum`` loops in Python, and ``_largest_remainder`` rounds
batched rows.  The package needs only NumPy.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, IterationError, NumericalError

__all__ = ["solve_lambda", "mds_alpha", "harmonic"]


# Convergence budget of ``solve_lambda``: the residual bound relative
# to the target a*mu, and Newton's iteration cap.
_REL_TOL = 1e-12
_MAX_ITER = 200
# Below w = 1, expm1(w) - w is summed by its series, as it cancels there:
# taken from expm1 above w = 0.3 or 0.5, it left roots 3 ulps off, and
# above 0.3 the catalog's root at (mu, a) = (10, 0.031) one ulp off.
_SERIES_W = 1.0
_FLOAT_MAX = np.finfo(float).max
_FLOAT_TINY = np.finfo(float).tiny


def _whole(value, what: str, least: int | None = 0) -> int:
    """``value`` as an int if ``operator.index`` takes it (an int or a NumPy
    integer, never a float) and it is at least ``least``: 0, 1 or None (no bound)."""
    try:
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or least is not None and whole < least:
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[least]
        raise ConfigurationError(f"{what} must be {kind} integer, got {value!r}")
    return whole


def _excess_tail(w: np.ndarray) -> np.ndarray:
    """``(expm1(w) - w) / (w**2/2)`` for ``0 <= w < 1`` by its Taylor
    series ``1 + w/3 * (1 + w/4 * (...))`` up to the ``w**20`` term of
    ``expm1``; the rest is below 1e-19 of the sum there."""
    tail = np.ones_like(w)
    for n in range(20, 2, -1):
        tail = 1.0 + w / n * tail
    return tail


def solve_lambda(mu, a):
    """Return the unique positive root ``lam > a`` of
    ``exp(mu*(lam - a)) = mu*lam + 1``: a float for positive scalars, else
    the roots of equal-shape arrays, each bit for bit its own pair's, and
    within two ulps of the exact root for targets ``t = a*mu`` up to 1e10.

    In ``w = mu*(lam - a)`` the equation is ``expm1(w) - w = t``, whose
    convex, increasing left side takes Newton's method from the upper
    bound ``min(sqrt(2t), log1p(t + sqrt(2t)))`` down onto the root until
    no iterate decreases.  Residuals are in units of a power of two near
    ``t``, and ``w`` in units of its square root, so an underflowing
    target or a subnormal ``w`` keeps its digits.  Raises
    :class:`IterationError`, with the roots reached as ``best``, when an
    iterate still decreases after 200 steps or a residual exceeds 1e-12
    of its target, and :class:`NumericalError` when a root overflows.
    """
    mu, a = np.asarray(mu, dtype=float), np.asarray(a, dtype=float)
    if mu.shape != a.shape:
        raise ValueError(f"mu and a must have one shape, got {mu.shape} and {a.shape}")
    if not np.all(mu > 0):
        raise ValueError(f"mu must be positive, got {mu}")
    if not np.all(a > 0):
        raise ValueError(f"a must be positive, got {a}")
    with np.errstate(all="ignore"):
        (a_digits, a_exponent), (mu_digits, mu_exponent) = np.frexp(a), np.frexp(mu)
        exponent = a_exponent + mu_exponent
        half = np.minimum(exponent // 2, 0)
        sigma = np.ldexp(1.0, half)
        # sigma <= 1 is a power of two near sqrt(a*mu), so a*mu / sigma**2,
        # formed from the mantissas, neither underflows nor overflows on
        # the way: where a*mu is normal it is that product scaled exactly.
        # Past the float range the root rounds to a anyway.
        target = np.minimum(
            np.ldexp(a_digits * mu_digits, exponent - 2 * half), _FLOAT_MAX
        )
        # The iterate is v = w / sigma, so a subnormal w keeps its digits;
        # where w is normal, each step is the step on w, scaled by sigma.
        # A subnormal log1p start has lost digits, so sqrt(2t) starts.
        bound = np.sqrt(2.0 * target)
        start = np.log1p(np.minimum(a * mu + bound * sigma, _FLOAT_MAX))
        v = np.where(start < _FLOAT_TINY, bound, np.minimum(bound, start / sigma))
        for _ in range(_MAX_ITER):
            w = v * sigma
            slope = np.expm1(w)
            residual = np.where(
                w < _SERIES_W,
                v * v / 2.0 * _excess_tail(w),
                (slope - w) / sigma / sigma,
            ) - target
            # expm1(w) >= w, so the slope is expm1(w) / sigma unless w is
            # subnormal, where expm1(w) = w has lost the digits v keeps.
            new = v - residual / np.maximum(slope / sigma, v)
            falling = new < v
            if not falling.any():
                break
            v = np.where(falling, new, v)
        w = v * sigma
        lam = a + np.where(w < _FLOAT_TINY, v * (sigma / mu), w / mu)
    best = float(lam) if lam.ndim == 0 else lam
    for failed, reason in (
        (falling, f"no convergence within {_MAX_ITER} iterations"),
        (~(np.abs(residual) <= _REL_TOL * target), "residual above tolerance"),
    ):
        if failed.any():
            i = np.argmax(failed)
            raise IterationError(
                f"{reason} for mu={mu.flat[i]}, a={a.flat[i]}", best=best
            )
    overflowed = ~(lam < np.inf)
    if overflowed.any():
        i = np.argmax(overflowed)
        raise NumericalError(
            f"the row time overflows for mu={mu.flat[i]}, a={a.flat[i]}"
        )
    return best


def mds_alpha(mu: float, a: float) -> float:
    """Optimal recovery-threshold fraction for uniform coded loads.

    The fraction is ``alpha = 1 + 1/W_-1(-exp(-a*mu - 1))``, with
    ``W_-1`` the lower real branch of the Lambert W function.  That
    branch value is exactly ``-(1 + mu*lam)`` for the root ``lam`` of
    :func:`solve_lambda`, so ``alpha = mu*lam / (1 + mu*lam)``, which
    lies in ``(0, 1)`` for every ``a > 0``; where ``mu*lam`` overflows,
    alpha rounds to 1.  The threshold that minimizes expected runtime
    with ``n`` homogeneous participators is ``alpha * n`` before rounding.
    """
    scaled = mu * solve_lambda(mu, a)
    return scaled / (1.0 + scaled) if scaled < math.inf else 1.0


@functools.lru_cache(maxsize=65536, typed=True)
def harmonic(n: int) -> float:
    """Partial sum of the harmonic series, ``H_0 = 0``: the correctly rounded
    sum up to ``2**20`` terms, beyond that ``log(n) + gamma + 1/(2n) -
    1/(12n^2)``, ``gamma`` Euler's constant, within an ulp in constant time.
    The cache is typed, so ``5.0`` misses ``5``'s entry and is refused."""
    n = _whole(n, "n")
    if n > 2**20:
        return math.log(n) + np.euler_gamma + 1 / (2 * n) - 1 / (12 * n * n)
    return math.fsum(1.0 / i for i in range(1, n + 1))


def row_fsums(values: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Correctly rounded sum of the first ``lengths[r]`` entries of each
    row ``r`` of the ``(R, M)`` array ``values``, as a float64 array.

    The rows are cut to the longest prefix and each row's entries past
    its own length become ``-0.0``, so one ``math.fsum`` per row does
    all the per-row work.  The padding is exact: ``x + -0.0`` is ``x``
    for every ``x``, ``-0.0`` included.  A row whose finite terms sum
    past the float range, where ``math.fsum`` raises, sums to ``inf``;
    a zero-length row sums to ``0.0``.  Entries past a row's length,
    NaN and infinities included, never reach its sum.
    """
    lengths = np.asarray(lengths)
    width = int(lengths.max(initial=0))
    head = np.where(np.arange(width) < lengths[:, None], values[:, :width], -0.0)
    rows = head.tolist()
    try:  # a Python call per row only once some row overflows
        return np.fromiter(map(math.fsum, rows), float, len(rows))
    except OverflowError:
        return np.fromiter(map(_fsum, rows), float, len(rows))


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry of the 1-D array ``values`` is finite, checked
    on its list: on the one-row arrays of the scalar solvers this is a
    few times cheaper than ``np.isfinite(values).all()``, and on a fig7
    point's 200 rows no slower overall."""
    return all(map(math.isfinite, values.tolist()))


def _fsum(row: list[float]) -> float:
    """``math.fsum(row)``, or ``inf`` where it overflows."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _largest_remainder(values: np.ndarray, totals: np.ndarray | int) -> np.ndarray:
    """Round each row of ``values`` to whole numbers summing to its
    ``totals`` entry: floors, then one more for each of the largest
    remainders, ranked by a stable sort so ties go to the lower index.
    Sorting that order, a permutation, inverts it into each entry's rank."""
    base = np.floor(values)
    order = np.argsort(base - values, axis=-1, kind="stable")
    ranks = np.argsort(order, axis=-1, kind="stable")
    deficit = np.asarray(totals) - base.sum(axis=-1)
    return base + (ranks < deficit[..., None])
