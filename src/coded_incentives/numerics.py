"""Scalar special functions and root solvers used throughout the package.

Three quantities recur in the runtime and mechanism formulas:

* ``solve_lambda``: the per-row time scale of a worker whose completion
  time is shift ``a`` plus an exponential tail of rate ``mu``.  It is
  the unique positive root of ``exp(mu*(lam - a)) = mu*lam + 1``, and
  the only solver of that equation in the package.
* ``mds_alpha``: the optimal recovery-threshold fraction, read off the
  same root as ``mu*lam / (1 + mu*lam)``.
* ``harmonic``: partial sums of the harmonic series, which give the
  expectation of exponential order statistics.

``row_fsums`` sums each row of a batched array up to its own length
into a float64 array, cutting the rows to their prefixes so that only
``math.fsum`` loops in Python, and ``_largest_remainder`` rounds
batched rows.
The root search is Brent's method in pure Python, so the package needs
only NumPy.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import IterationError

__all__ = [
    "solve_lambda",
    "mds_alpha",
    "harmonic",
]


# Convergence budget of ``solve_lambda``: the residual bound relative
# to the target a*mu, and the root search's iteration cap.
_REL_TOL = 1e-12
_MAX_ITER = 200
# Targets a*mu below this sum expm1(w) - w by its series: the difference
# cancels for small w, and from here down its rounding error would move
# the root by more than two ulps.  The catalog's targets are 0.31 to 35.
_SERIES_TARGET = 1e-2


def _brent(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int):
    """Root of ``f`` in ``[xa, xb]`` by Brent's method (Brent 1973, ch. 4),
    step for step as SciPy's ``brentq``, so it returns the same double
    and the same ``converged`` flag as ``(x, converged)``.  Where the C
    code divides by zero it gets an infinite or NaN step and bisects;
    so does this port."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return (xpre if fpre == 0 else xcur), True
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        # Nonzero values differ in sign exactly when their signbits do.
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur, False


@functools.lru_cache(maxsize=65536)
def _solve_lambda_cached(mu: float, a: float) -> float:
    # Work in the shifted variable w = mu*lam - a*mu > 0, where the
    # defining equation becomes expm1(w) - w = a*mu.  The left side is
    # zero at w = 0 and strictly increasing, so the positive root is
    # unique and the root search gets a guaranteed bracket.
    target = a * mu
    if 0.0 < target < _SERIES_TARGET:
        # The left side is at least w**2/2, so the root is below
        # sqrt(2 * target) and the bracket scales with it.
        excess, scale = _expm1_excess, 2.0 * math.sqrt(2.0 * target)
    else:
        excess, scale = (lambda w: math.expm1(w) - w), 1.0

    def residual(w: float) -> float:
        try:
            return excess(w) - target
        except OverflowError:
            return math.inf

    # The residual is -target <= 0 at 0 and inf once expm1 overflows
    # (w > 709.78), so the doubling stops by hi = 1024 and the bracket
    # [0, hi] always changes sign.
    hi = scale
    while residual(hi) <= 0.0:
        hi *= 2.0
    w, converged = _brent(residual, 0.0, hi, 1e-15 * scale, 8.9e-16, _MAX_ITER)
    if not converged:
        raise IterationError(
            f"no convergence within {_MAX_ITER} iterations for mu={mu}, a={a}",
            best=(target + w) / mu,
        )

    # One Newton polish step; the derivative expm1(w) is exact here.
    slope = math.expm1(w)
    if slope > 0.0:
        w -= residual(w) / slope
    if abs(residual(w)) > _REL_TOL * target:
        raise IterationError(
            f"residual above tolerance for mu={mu}, a={a}", best=(target + w) / mu
        )
    return (target + w) / mu


def _expm1_excess(w: float) -> float:
    """``expm1(w) - w`` for ``0 <= w <= 0.3`` by its Taylor series
    ``w**2/2 * (1 + w/3 * (1 + w/4 * (...)))`` up to the ``w**16`` term;
    the rest is below 1e-20 of the sum there."""
    tail = 1.0
    for n in range(16, 2, -1):
        tail = 1.0 + w / n * tail
    return w * w / 2.0 * tail


def solve_lambda(mu: float, a: float) -> float:
    """Return the unique positive root ``lam`` of
    ``exp(mu*(lam - a)) = mu*lam + 1``.

    The root always satisfies ``lam > a`` because the left side equals
    1 at ``lam = a`` while the right side equals ``mu*a + 1 > 1``.
    Raises :class:`IterationError` when the bracketed search does not
    converge within 200 iterations.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    return _solve_lambda_cached(float(mu), float(a))


def mds_alpha(mu: float, a: float) -> float:
    """Optimal recovery-threshold fraction for uniform coded loads.

    The fraction is ``alpha = 1 + 1/W_-1(-exp(-a*mu - 1))``, with
    ``W_-1`` the lower real branch of the Lambert W function.  That
    branch value is exactly ``-(1 + mu*lam)`` for the root ``lam`` of
    :func:`solve_lambda`, so ``alpha = mu*lam / (1 + mu*lam)``, which
    lies in ``(0, 1)`` for every ``a > 0``.  The threshold that
    minimizes expected runtime with ``n`` homogeneous participators is
    ``alpha * n`` before rounding.
    """
    scaled = mu * solve_lambda(mu, a)
    return scaled / (1.0 + scaled)


@functools.lru_cache(maxsize=65536)
def harmonic(n: int) -> float:
    """Partial sum of the harmonic series, ``H_0 = 0``: the correctly
    rounded sum up to ``2**20`` terms, beyond that ``log(n) + gamma +
    1/(2n) - 1/(12n^2)`` with ``gamma`` Euler's constant, which agrees
    with the sum to an ulp there and takes constant time."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
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
    remainders, ranked by a stable sort so ties go to the lower index."""
    base = np.floor(values)
    order = np.argsort(base - values, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(values.shape[-1]), axis=-1)
    deficit = np.asarray(totals) - base.sum(axis=-1)
    return base + (ranks < deficit[..., None])
