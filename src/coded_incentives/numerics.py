"""Scalar special functions and root solvers used throughout the package.

Three quantities recur in the runtime and mechanism formulas:

* ``solve_lambda``: the per-row time scale of a worker whose completion
  time is shift ``a`` plus an exponential tail of rate ``mu``.  It is
  the unique positive root of ``exp(mu*(lam - a)) = mu*lam + 1``.
* ``lambert_w_minus1``: the lower real branch of the Lambert W function
  on ``[-1/e, 0)``, needed for the optimal recovery-threshold fraction.
* ``harmonic``: exact partial sums of the harmonic series, which give
  the expectation of exponential order statistics.

``row_fsums`` and ``_largest_remainder`` sum and round batched rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw as _scipy_lambertw

from .errors import IterationError, NumericalError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "solve_lambda",
    "lambert_w_minus1",
    "mds_alpha",
    "harmonic",
    "row_fsums",
]


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Convergence budget for the scalar solvers."""

    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


DEFAULT_TOLERANCE = Tolerance()

# Branch point of the Lambert W lower branch, the closest double to -1/e.
_BRANCH_POINT = -math.exp(-1.0)


@functools.lru_cache(maxsize=65536)
def _solve_lambda_cached(mu: float, a: float, abs_tol: float, max_iter: int) -> float:
    # Work in the shifted variable w = mu*lam - a*mu > 0, where the
    # defining equation becomes expm1(w) - w = a*mu.  The left side is
    # zero at w = 0 and strictly increasing, so the positive root is
    # unique and brentq gets a guaranteed bracket.
    target = a * mu

    def residual(w: float) -> float:
        try:
            return math.expm1(w) - w - target
        except OverflowError:
            return math.inf

    hi = 1.0
    while residual(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e308:
            raise IterationError(
                f"failed to bracket the root for mu={mu}, a={a}", best=None
            )

    try:
        w, info = brentq(
            residual, 0.0, hi, maxiter=max_iter, xtol=1e-15, rtol=8.9e-16,
            full_output=True, disp=False,
        )
    except Exception as exc:  # pragma: no cover - brentq raises only on misuse
        raise IterationError(f"root search failed for mu={mu}, a={a}") from exc
    if not info.converged:
        raise IterationError(
            f"no convergence within {max_iter} iterations for mu={mu}, a={a}",
            best=(target + w) / mu,
        )

    # One Newton polish step; the derivative expm1(w) is exact here.
    slope = math.expm1(w)
    if slope > 0.0:
        w -= residual(w) / slope
    if abs(residual(w)) > abs_tol * max(1.0, abs(math.expm1(w))):
        raise IterationError(
            f"residual above tolerance for mu={mu}, a={a}", best=(target + w) / mu
        )
    return (target + w) / mu


def solve_lambda(mu: float, a: float, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Return the unique positive root ``lam`` of
    ``exp(mu*(lam - a)) = mu*lam + 1``.

    The root always satisfies ``lam > a`` because the left side equals
    1 at ``lam = a`` while the right side equals ``mu*a + 1 > 1``.
    Raises :class:`IterationError` when the bracketed search does not
    converge within ``tol.max_iter`` iterations.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    return _solve_lambda_cached(float(mu), float(a), tol.abs_tol, tol.max_iter)


def lambert_w_minus1(x: float, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Lower real branch of the Lambert W function.

    Solves ``w * exp(w) = x`` for ``w <= -1`` with ``x`` in
    ``[-1/e, 0)``.  At the branch point ``x = -1/e`` the result is
    exactly -1.  Arguments outside the domain raise
    :class:`NumericalError`.
    """
    x = float(x)
    if not x < 0.0 or x < _BRANCH_POINT:
        raise NumericalError(
            f"lambert_w_minus1 requires -1/e <= x < 0, got {x}"
        )
    if x == _BRANCH_POINT:
        return -1.0
    w = _scipy_lambertw(x, -1)
    if abs(w.imag) > tol.abs_tol:
        raise NumericalError(f"no real lower-branch value at x={x}")
    result = float(w.real)
    # Rounding near the branch point must not cross above -1.
    return min(result, -1.0)


def mds_alpha(mu: float, a: float) -> float:
    """Optimal recovery-threshold fraction for uniform coded loads.

    Returns ``alpha = 1 + 1/W_-1(-exp(-a*mu - 1))``, which lies in
    ``[0, 1)``.  The threshold that minimizes expected runtime with
    ``n`` homogeneous participators is ``alpha * n`` before rounding.
    ``a = 0`` gives the branch point and ``alpha = 0``.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    argument = -math.exp(-a * mu - 1.0)
    if argument < _BRANCH_POINT:
        argument = _BRANCH_POINT
    w = lambert_w_minus1(argument)
    return max(0.0, 1.0 + 1.0 / w)


@functools.lru_cache(maxsize=65536)
def harmonic(n: int) -> float:
    """Partial sum of the harmonic series, ``H_0 = 0``."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    return math.fsum(1.0 / i for i in range(1, int(n) + 1))


def row_fsums(
    values: Sequence[Sequence[float]], mask: Sequence[Sequence[bool]]
) -> list[float]:
    """Correctly rounded sum of each row's masked entries, for ``(R, M)``
    nested lists ``values`` and ``mask``."""
    return [math.fsum(compress(row, keep)) for row, keep in zip(values, mask)]


def _largest_remainder(values: np.ndarray, totals: np.ndarray | int) -> np.ndarray:
    """Round each row of ``values`` to whole numbers summing to its
    ``totals`` entry: floors, then one more for each of the largest
    remainders, ranked by a stable sort so ties go to the lower index."""
    base = np.floor(values)
    order = np.argsort(base - values, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(values.shape[-1]), axis=-1)
    deficit = np.asarray(totals) - base.sum(axis=-1)
    return base + (ranks < deficit[..., None])
