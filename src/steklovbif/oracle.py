"""Closed-form reference branches for the unit disk and the interval.

These are the independent oracles the solver tests compare against:
classical Steklov spectra at zero bulk coefficient, modified-Bessel
branches on the disk, hyperbolic branches on the interval.  The module
is self-contained (power-series Bessel evaluation, no special-function
dependency) and must stay independent of the FEM path it checks.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError, PreconditionError

# Power series of I_k stay well-conditioned (all terms positive) on this window.
SERIES_WINDOW = 50.0
_SERIES_STOP = 1e-17
_ROOT_RTOL = 1e-10


def bessel_i(k: int, s: float) -> float:
    """Modified Bessel function I_k by power series, relative error <= 1e-12
    on 0 <= s <= 50."""
    if k < 0:
        raise PreconditionError("order k must be non-negative")
    if s < 0 or s > SERIES_WINDOW:
        raise PreconditionError(f"series evaluation restricted to 0 <= s <= {SERIES_WINDOW}")
    half = 0.5 * s
    term = half**k / math.factorial(k)
    total = term
    m = 0
    while True:
        m += 1
        term *= half * half / (m * (m + k))
        total += term
        if term < _SERIES_STOP * total:
            return total


def bessel_ratio(k: int, s: float) -> float:
    """s * I_k'(s) / I_k(s) with I_k' = (I_(k-1) + I_(k+1)) / 2."""
    if s <= 0:
        raise PreconditionError("bessel_ratio requires s > 0")
    lower = bessel_i(abs(k - 1), s)
    upper = bessel_i(k + 1, s)
    return s * 0.5 * (lower + upper) / bessel_i(k, s)


def disk_robin_steklov(k: int, c: float) -> float:
    """Boundary eigenvalue of the unit-disk mode with angular index k and
    bulk coefficient c >= 0; k = 0 is simple, each k >= 1 carries multiplicity 2."""
    if c < 0:
        raise PreconditionError("bulk coefficient must be non-negative")
    if c == 0.0:
        return float(k)
    return bessel_ratio(k, math.sqrt(c))


def disk_multiplicity(k: int) -> int:
    return 1 if k == 0 else 2


def disk_spectrum(c: float, count: int) -> list[float]:
    """First ``count`` disk eigenvalues at bulk coefficient c, ascending,
    repeated by angular multiplicity."""
    values = []
    k = 0
    while len(values) < count:
        values.extend([disk_robin_steklov(k, c)] * disk_multiplicity(k))
        k += 1
    return values[:count]


def interval_robin_steklov(parity: str, c: float, L: float) -> float:
    """Boundary eigenvalue on [0, L]: even branch s*tanh(sL/2), odd branch
    s*coth(sL/2) at s = sqrt(c); c = 0 is the limit {0, 2/L}."""
    if parity not in ("even", "odd"):
        raise PreconditionError(f"parity must be 'even' or 'odd', got {parity!r}")
    if L <= 0:
        raise PreconditionError("interval length must be positive")
    if c < 0:
        raise PreconditionError("bulk coefficient must be non-negative")
    if c == 0.0:
        return 0.0 if parity == "even" else 2.0 / L
    s = math.sqrt(c)
    th = math.tanh(0.5 * s * L)
    return s * th if parity == "even" else s / th


def disk_branch(k: int) -> Callable[[float], float]:
    """The disk's branch c -> rho(c) of Fourier mode k, strictly increasing in c."""
    return lambda c: disk_robin_steklov(k, c)


def interval_branch(parity: str, L: float) -> Callable[[float], float]:
    """The interval's branch c -> rho(c) of the given parity, strictly increasing in c."""
    if parity not in ("even", "odd"):
        raise PreconditionError(f"parity must be 'even' or 'odd', got {parity!r}")
    return lambda c: interval_robin_steklov(parity, c, L)


def solve_branch_root(branch: Callable[[float], float], target: float) -> float:
    """The unique c* with branch(c*) = target, |branch(c*) - target| <= 1e-10*target.

    Requires target strictly above the branch value at c = 0; the bracket
    grows until the series window is exhausted.
    """
    if target <= 0:
        raise PreconditionError("target must be positive")
    if target <= branch(0.0):
        raise PreconditionError(
            f"target {target:g} not above branch value {branch(0.0):g} at c = 0"
        )
    c_hi = 1.0
    while branch(c_hi) < target:
        c_hi *= 2.0
        if c_hi > SERIES_WINDOW**2:
            raise BracketError(
                f"target {target:g} unreachable inside the evaluation window"
            )
    c_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (c_lo + c_hi)
        val = branch(mid)
        if abs(val - target) <= _ROOT_RTOL * target:
            return mid
        if val < target:
            c_lo = mid
        else:
            c_hi = mid
    raise BracketError("bisection failed to meet the root tolerance")
