"""One bracketed scalar root finder, in plain Python arithmetic.

Its callers: the crossings of two densities in the L1 distance, the
skewness inversion of the GPD moment fit, the tau_3 inversion of the Weibull
L-moment fit and the shared profile scan of the chi-square fit and the GPD
maximum likelihood (``estimator._profile_minimum``).
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon


def _shrink(f_new: float, f_old: float) -> float:
    """Weight of the kept end after ``f_old`` was replaced by ``f_new`` of its sign."""
    m = 1.0 - f_new / f_old
    return m if m > 0.0 else 0.5


def bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A zero of ``f`` on ``[a, b]``, ``a < b``, given ``fa = f(a)`` and ``fb = f(b)``.

    ``fa`` and ``fb`` must differ in sign; an infinite one stands for its
    sign alone (the limit of ``f`` at an end it cannot be evaluated at).  A
    zero end is returned as it is.  Each step is a false-position step with
    the Anderson-Bjorck weight (BIT 13, 1973): the value of an end kept twice
    in a row is scaled down by ``_shrink``.  A secant point outside the
    bracket (or NaN), or one after three steps that together did not halve
    it, gives way to bisection, so the bracket halves at least every four
    steps.  A point is kept ``tol = 2 eps max(|a|, |b|)`` from
    both ends, so the bracket closes in one step around a converged end.
    The search stops at an exact zero or when the bracket is no wider than
    ``2 tol``, and returns the end with the smaller ``|f|``.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError(f"no sign change on [{a!r}, {b!r}]: f = {fa!r}, {fb!r}")
    ga, gb = fa, fb                       # values in the secant, weighted
    last = 0                              # -1: the last step moved a, +1: it moved b
    w1 = w2 = w3 = math.inf               # bracket widths before the last three steps
    while True:
        width = b - a
        tol = 2.0 * _EPS * max(abs(a), abs(b))
        if width <= 2.0 * tol:
            break
        x = a - ga * width / (gb - ga)
        if not a <= x <= b or width > 0.5 * w3:
            x = a + 0.5 * width
        # a point within tol of an end is moved to tol from it, so that a
        # converged end is met by the other one in one step
        if x < a + tol:
            x = a + tol
        elif x > b - tol:
            x = b - tol
        if not a < x < b:                 # a and b are neighbouring floats
            break
        w3, w2, w1 = w2, w1, width
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            if last == -1:
                gb *= _shrink(fx, fa)
            a, fa, ga, last = x, fx, fx, -1
        else:
            if last == 1:
                ga *= _shrink(fx, fb)
            b, fb, gb, last = x, fx, fx, 1
    return a if abs(fa) < abs(fb) else b
