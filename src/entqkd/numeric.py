"""Scalar helpers: the domain check, golden-section maximization and bisection."""

from __future__ import annotations

import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def check_range(name: str, value, lo: float, hi: float = math.inf, *, open_lo: bool = False):
    """Return ``value`` when it is finite and in [lo, hi], or in (lo, hi] with ``open_lo``.

    Otherwise raise a ValueError naming ``name``, the interval and the
    offending value; NaN fails every comparison.  ``lo`` must be finite,
    and 0 when ``hi`` is inf ("nonnegative"/"positive and finite").  A
    scalar costs plain comparisons; an array is checked through its
    min() and max(), which carry any NaN, and passes when empty.
    """
    low = high = value
    if isinstance(value, np.ndarray):
        if not value.size:
            return value
        low, high = value.min(), value.max()
    low_ok = lo < low if open_lo else lo <= low
    if low_ok and high <= hi and high < math.inf:
        return value
    rule = (f"lie in {'(' if open_lo else '['}{lo:.10g}, {hi:.10g}]" if hi < math.inf
            else f"be {'positive' if open_lo else 'nonnegative'} and finite")
    raise ValueError(f"{name} must {rule}, got {high if low_ok else low}")


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Locate the maximizer of a unimodal f on [lo, hi] to within tol.

    Boundary maxima are fine: the bracket simply collapses onto the
    corner.  Returns the abscissa, not the value.
    """
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-7) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
