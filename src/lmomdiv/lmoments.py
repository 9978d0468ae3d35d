"""Sample and discrete L-moments, plus their asymptotic covariance.

Sample statistics integrate the piecewise-constant empirical quantile
function exactly against the polynomial basis, read at the nodes i/n from
one cached table per sample size (``poly.node_table``); no quadrature ever
touches observed data.  Quadrature appears only in the plug-in blocks of the
asymptotics, which share one Gauss rule in ``-log(1 - u)`` and alone load
``numpy.polynomial``.  The closed-form L-moment maps live in ``models``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .poly import (
    MAX_ORDER,
    integrated_legendre_eval,
    legendre_coefficients,
    node_table,
    shifted_legendre_eval,
    _check_order,
)


@dataclass(frozen=True, eq=False)
class SortedSample:
    """Ordered observations carrying the empirical quantile measure.

    The measure puts mass ``spacings[i-1] = x_{i+1:n} - x_{i:n}`` at the
    point ``i/n``.  Ties are kept; they simply yield zero spacings.
    """

    values: np.ndarray

    def __init__(self, data):
        # numpy's default kind: for floats a stable sort only fixes the order of -0.0 and 0.0
        values = np.sort(np.asarray(data, dtype=float))
        if values.ndim != 1 or values.size < 2:
            raise ValueError("a sample needs at least two observations")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def spacings(self) -> np.ndarray:
        """The gaps of the sorted values; raises ``ValueError`` where one overflows a float."""
        if float(self.values[-1]) - float(self.values[0]) < math.inf:
            return np.diff(self.values)
        with np.errstate(over="ignore"):        # reported below, as an error
            gaps = np.diff(self.values)
        if not np.isfinite(gaps).all():
            raise ValueError("a spacing of the sample overflows a float")
        return gaps

    def shifted(self, a: float) -> "SortedSample":
        return SortedSample(self.values + a)

    def scaled(self, s: float) -> "SortedSample":
        """The sample divided by ``s > 0``, with no second sort.

        Rounded division by a positive number is monotone, so the quotients
        are in order; for ``s`` a power of two it is exact barring underflow.
        """
        values = self.values / s
        values.setflags(write=False)
        out = object.__new__(SortedSample)
        object.__setattr__(out, "values", values)
        return out


@dataclass(frozen=True, eq=False)
class LmomentVector:
    """L-moments indexed by order, tagged with how they were computed."""

    values: np.ndarray           # lambda_1 .. lambda_m
    kind: str                    # "population" | "v-statistic" | "u-statistic"

    def __getitem__(self, order: int) -> float:
        if order < 1 or order > self.values.size:
            raise IndexError(f"order {order} not computed")
        return float(self.values[order - 1])

    @property
    def max_order(self) -> int:
        return self.values.size


def _check_max_order(max_order: int) -> None:
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _check_order(max_order)


def sample_lmoments_v(sample: SortedSample, max_order: int) -> LmomentVector:
    """Plug-in (V-statistic) sample L-moments up to ``max_order``.

    Orders two and up are accumulated from the spacings against the node
    table's columns (``node_table``), so they are exactly invariant under
    any translation that leaves the spacings unchanged.
    """
    _check_max_order(max_order)
    vals = np.empty(max_order)
    with np.errstate(over="ignore"):        # redone below for finite values
        vals[0] = sample.values.sum() / sample.n      # np.mean's sum and division
    if math.isinf(vals[0]):
        unit = magnitude_unit(sample.values)
        vals[0] = float((sample.values / unit).sum()) / sample.n * unit
    if max_order >= 2:
        columns, spacings = node_table(sample.n, max_order)[2], sample.spacings
        for r in range(2, max_order + 1):
            # each order's contiguous row sums in the order of a freshly evaluated row
            vals[r - 1] = -(columns[r - 2] @ spacings)
    return LmomentVector(vals, "v-statistic")


def _pwm_unbiased(sample: SortedSample, max_k: int) -> np.ndarray:
    """Unbiased probability-weighted moments b_0 .. b_{max_k}.

    ``b_k`` weights the ``j``-th order statistic (from 0) by
    ``w_k(j) = C(j, k) / C(n - 1, k)``, built by the recurrence
    ``w_k(j) = w_{k-1}(j) (j - k + 1) / (n - k)`` from ``w_0 = 1``.
    """
    n = sample.n
    j = np.arange(n, dtype=float)
    w = np.ones(n)
    out = np.empty(max_k + 1)
    for k in range(max_k + 1):
        if k:
            w = w * (j - (k - 1)) / (n - k)
        out[k] = (w @ sample.values) / n
    return out


def sample_lmoments_u(sample: SortedSample, max_order: int) -> LmomentVector:
    """Unbiased (U-statistic) sample L-moments via binomial reweighting.

    Equal to the average of the order-r kernel over all size-r subsamples,
    computed in O(n * max_order).
    """
    _check_max_order(max_order)
    if sample.n < max_order:
        raise ValueError(
            f"the order-{max_order} U-statistic is undefined for n={sample.n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):     # redone below for finite values
        vals = _lmoments_from_pwm(_pwm_unbiased(sample, max_order - 1))
        if not np.isfinite(vals).all():
            unit = magnitude_unit(sample.values)
            vals = _lmoments_from_pwm(_pwm_unbiased(sample.scaled(unit), max_order - 1)) * unit
    return LmomentVector(vals, "u-statistic")


def _lmoments_from_pwm(b: np.ndarray) -> np.ndarray:
    """lambda_1 .. lambda_r from the probability-weighted moments b_0 .. b_{r-1}."""
    return np.array([legendre_coefficients(r) @ b[:r + 1] for r in range(b.size)])


def magnitude_unit(values) -> float:
    """``2^(e-1)``, the power of two at the largest magnitude of the sorted finite ``values``:
    in its units they lie in (-2, 2), and their sums and squares do not overflow."""
    return math.ldexp(1.0, math.frexp(max(-values[0], values[-1]))[1] - 1)


def lmoment_ratios(lm: LmomentVector) -> dict[str, float]:
    """L-moment ratios tau_r = lambda_r / lambda_2 plus the Gini-style ratio."""
    lam2 = lm[2] if lm.max_order >= 2 else None
    if lam2 is None or lam2 == 0.0:
        raise ValueError("ratios are undefined when lambda_2 is missing or zero")
    out = {}
    lam1 = lm[1]
    if lam1 != 0.0:
        out["gini"] = lam2 / lam1
    for r in range(3, lm.max_order + 1):
        out[f"tau_{r}"] = lm[r] / lam2
    return out


def discrete_lmoments(support, weights) -> LmomentVector:
    """L-moments of a finite discrete distribution, up to order 4.

    With uniform weights on a sorted sample this reduces exactly to the
    plug-in sample statistic.
    """
    x = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != w.shape or x.ndim != 1:
        raise ValueError("support and weights must be 1-D of equal length")
    if np.any(np.diff(x) < 0):
        raise ValueError("support must be nondecreasing")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    cum = np.concatenate([[0.0], np.cumsum(w)])
    cum[-1] = 1.0
    max_order = min(4, MAX_ORDER)
    vals = np.empty(max_order)
    vals[0] = w @ x
    for r in range(2, max_order + 1):
        k = integrated_legendre_eval(r, np.clip(cum, 0.0, 1.0))
        vals[r - 1] = np.diff(k) @ x
    return LmomentVector(vals, "population")


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [a, b]."""
    from numpy.polynomial.legendre import leggauss      # here, off the package's import path
    nodes, weights = leggauss(n)
    half = 0.5 * (b - a)
    return half * (nodes + 1.0) + a, half * weights


# ---------------------------------------------------------------------------
# plug-in integrals under a fitted law, in s = -log(1 - u) for u = F(x): there
# dx = (dQ/ds) ds in closed form, and 1 - u = exp(-s) is exact in the tail

#: the plug-in integrals stop where 1 - F falls to this
_TAIL_EPS = 1e-10
#: Gauss-Legendre points per axis of the plug-in rule
_RULE_POINTS = 200


@functools.lru_cache(maxsize=1)
def _graded_rule():
    """``(s, ws, t, wt)``: the plug-in rule on ``0 <= s <= t <= T = -log(_TAIL_EPS)``.

    One Gauss-Legendre rule in r on [0, 1] gives the outer nodes
    ``s = T r^3`` (shape ``(n,)``) and, for each, the inner nodes
    ``t = s + (T - s) r^3`` on [s, T] (shape ``(n, n)``).  The cube grades
    the nodes toward ``s = 0`` and ``t = s``, where a Weibull
    ``dQ/ds = (sigma/nu) s^(1/nu - 1)`` is steep or singular.
    """
    top = -np.log(_TAIL_EPS)
    r, w = gauss_legendre(_RULE_POINTS, 0.0, 1.0)
    cube, dcube = r ** 3, 3.0 * r ** 2 * w
    s = top * cube
    gap = (top - s)[:, None]
    rule = s, top * dcube, s[:, None] + gap * cube, gap * dcube
    for arr in rule:                 # cached: every caller shares these arrays
        arr.setflags(write=False)
    return rule


def legendre_rows(orders):
    """u -> L_{r-1}(u), the derivatives of the order-r rows, on a last axis."""
    def rows(u):
        return np.stack([shifted_legendre_eval(r - 1, u) for r in orders], axis=-1)

    return rows


def plugin_second_moments(family, rows) -> np.ndarray:
    """Integral of ``rows(F(x))^T rows(F(x))`` dx under the plug-in ``family``.

    Summed on the outer nodes of the plug-in rule; ``rows`` maps levels u to
    the constraint rows K(u), of shape ``u.shape + (c,)``.
    """
    s, ws, _, _ = _graded_rule()
    k = rows(-np.expm1(-s))
    return (k.T * (ws * family.quantile_slope(s))) @ k


def triangle_covariance(family, row_deriv) -> np.ndarray:
    """Long-run covariance of integrated constraint rows under the plug-in ``family``.

    Entry (a, b) integrates
    ``[D_a(F(x)) D_b(F(y)) + D_a(F(y)) D_b(F(x))] F(x)(1 - F(y))``
    over ``x < y`` on the plug-in support, where ``row_deriv`` maps levels u
    to the row derivatives D(u), of shape ``u.shape + (c,)``.
    """
    s, ws, t, wt = _graded_rule()
    u = -np.expm1(-s)
    # F(x)(1 - F(y)) dy on the inner nodes
    base = u[:, None] * np.exp(-t) * (wt * family.quantile_slope(t))
    # the integrand is A + A^T, A_ab = D_a(F(x)) D_b(F(y)) F(x)(1 - F(y))
    inner = np.einsum("ijs,ij->is", row_deriv(-np.expm1(-t)), base)   # (n, c)
    a_mat = (row_deriv(u).T * (ws * family.quantile_slope(s))) @ inner
    return a_mat + a_mat.T


def lambda_covariance(family, max_order: int) -> np.ndarray:
    """Asymptotic covariance of the first ``max_order`` sample L-moments under ``family``.

    ``triangle_covariance`` with D_r = L_{r-1}.
    """
    _check_max_order(max_order)
    return triangle_covariance(family, legendre_rows(range(1, max_order + 1)))
