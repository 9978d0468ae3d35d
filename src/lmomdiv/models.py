"""Model definitions: parametric families and their L-moment constraint maps.

A model maps a parameter vector to the constraint values the dual machinery
consumes.  Sign convention, fixed once here: the dual always receives
``target(theta) = -lambda(theta)``, matching the integration-by-parts
identity that equates the integral of the constraint rows against the
quantile measure with minus the L-moment.  User-facing reports always show
``lambda(theta)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gamma, log
from typing import Callable

import numpy as np

from .poly import PolyBasis


# ---------------------------------------------------------------------------
# closed-form L-moment maps

#: poles a = 1..4 and residues: lambda_k / sigma = sum_a r_ka / (a - nu) for the GPD
_GPD_POLES = np.arange(1.0, 5.0)
_GPD_RESIDUES = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, -3.0, 2.0, 0.0], [1.0, -6.0, 10.0, -5.0]])
#: lambda_k / sigma = Gamma(1 + 1/nu) * (W @ c)_k, c_j = 1 - j^(-1/nu), for the Weibull
_WEIBULL_K = np.array([2.0, 3.0, 4.0])
_WEIBULL_LOG_K = np.log(_WEIBULL_K)
_WEIBULL_W = np.array([[1.0, 0.0, 0.0], [3.0, -2.0, 0.0], [6.0, -10.0, 5.0]])
#: shape range of the Weibull model's box
WEIBULL_SHAPE_BOX = (0.05, 20.0)


def gpd_lmoment_map(sigma: float, nu: float) -> np.ndarray:
    """(lambda_2, lambda_3, lambda_4) of the generalized Pareto distribution.

    Heavy tail for nu > 0; the L-moments exist only for nu < 1.
    """
    if sigma <= 0:
        raise ValueError("scale must be positive")
    if nu >= 1.0:
        raise ValueError("GPD L-moments do not exist for shape >= 1")
    lam2 = sigma / ((1.0 - nu) * (2.0 - nu))
    lam3 = lam2 * (1.0 + nu) / (3.0 - nu)
    lam4 = lam2 * (1.0 + nu) * (2.0 + nu) / ((3.0 - nu) * (4.0 - nu))
    return np.array([lam2, lam3, lam4])


def gpd_lmoment_jacobian(sigma: float, nu: float) -> np.ndarray:
    """Analytic Jacobian of :func:`gpd_lmoment_map` w.r.t. (sigma, nu)."""
    lam = gpd_lmoment_map(sigma, nu)
    d_sigma = lam / sigma
    lam2 = lam[0]
    dlam2 = sigma * (3.0 - 2.0 * nu) / ((1.0 - nu) ** 2 * (2.0 - nu) ** 2)
    g = (1.0 + nu) / (3.0 - nu)
    dg = 4.0 / (3.0 - nu) ** 2
    num = (1.0 + nu) * (2.0 + nu)
    den = (3.0 - nu) * (4.0 - nu)
    dnum = 2.0 * nu + 3.0
    dden = 2.0 * nu - 7.0
    h = num / den
    dh = (dnum * den - num * dden) / den ** 2
    d_nu = np.array([dlam2, dlam2 * g + lam2 * dg, dlam2 * h + lam2 * dh])
    return np.stack([d_sigma, d_nu], axis=-1)


def gpd_lmoment_hessian(sigma: float, nu: float) -> np.ndarray:
    """Second derivatives of :func:`gpd_lmoment_map`, shape (3, 2, 2).

    In partial fractions ``lambda_k = sigma * sum_a r_ka / (a - nu)`` over the
    poles a = 1..4 (``_GPD_RESIDUES``), so each derivative in nu is one more
    power of ``1 / (a - nu)``.
    """
    inv = 1.0 / (_GPD_POLES - nu)
    return _scale_shape_hessian(sigma, _GPD_RESIDUES @ inv ** 2,
                                2.0 * _GPD_RESIDUES @ inv ** 3)


def _scale_shape_hessian(sigma: float, d_nu: np.ndarray, d_nu2: np.ndarray) -> np.ndarray:
    """Hessian in (sigma, nu) of ``lambda = sigma * f(nu)``, from ``f'`` and ``f''``."""
    out = np.empty((d_nu.size, 2, 2))
    out[:, 0, 0] = 0.0
    out[:, 0, 1] = out[:, 1, 0] = d_nu
    out[:, 1, 1] = sigma * d_nu2
    return out


def weibull_lmoment_map(sigma: float, nu: float) -> np.ndarray:
    """(lambda_2, lambda_3, lambda_4) of the Weibull distribution."""
    if sigma <= 0 or nu <= 0:
        raise ValueError("Weibull parameters must be positive")
    c2 = 1.0 - 2.0 ** (-1.0 / nu)
    c3 = 1.0 - 3.0 ** (-1.0 / nu)
    c4 = 1.0 - 4.0 ** (-1.0 / nu)
    lam2 = sigma * c2 * gamma(1.0 + 1.0 / nu)
    lam3 = lam2 * (3.0 - 2.0 * c3 / c2)
    lam4 = lam2 * (6.0 + (5.0 * c4 - 10.0 * c3) / c2)
    return np.array([lam2, lam3, lam4])


def _digamma_trigamma(x: float) -> tuple[float, float]:
    """(psi(x), psi'(x)) for ``x > 0``.

    The recurrences ``psi(x) = psi(x + 1) - 1/x`` and ``psi'(x) = psi'(x + 1)
    + 1/x^2`` carry ``x`` to at least 10, where the asymptotic series
    (Abramowitz & Stegun 6.3.18, 6.4.12), cut after the ``B_14`` term, is
    below 1e-16 relative; at 6 the first omitted trigamma term is 4e-13.
    """
    psi_shift = tri_shift = 0.0
    while x < 10.0:
        psi_shift += 1.0 / x
        tri_shift += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    psi = log(x) - 0.5 / x - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (
        1 / 240 - r * (1 / 132 - r * (691 / 32760 - r / 12))))))
    tri = 1.0 / x + 0.5 * r + r / x * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (
        1 / 30 - r * (5 / 66 - r * (691 / 2730 - r * 7 / 6))))))
    return psi - psi_shift, tri + tri_shift


def _weibull_shape_derivatives(nu: float):
    """``f``, ``f'`` and ``f''`` of the Weibull map ``lambda = sigma * f(nu)``.

    ``f = G * (W @ c)`` with ``G = Gamma(1 + 1/nu)``, ``c_j = 1 - j^(-1/nu)``
    for j = 2, 3, 4 and the rows of ``_WEIBULL_W``; this is
    :func:`weibull_lmoment_map` with the ratios to ``c_2`` multiplied out.
    """
    p = _WEIBULL_K ** (-1.0 / nu)
    dc = -p * _WEIBULL_LOG_K / nu ** 2
    d2c = dc * (_WEIBULL_LOG_K / nu - 2.0) / nu
    psi, tri = _digamma_trigamma(1.0 + 1.0 / nu)
    g = gamma(1.0 + 1.0 / nu)
    dg = -g * psi / nu ** 2
    d2g = g * (psi * psi + tri + 2.0 * nu * psi) / nu ** 4
    a, da, d2a = _WEIBULL_W @ (1.0 - p), _WEIBULL_W @ dc, _WEIBULL_W @ d2c
    return g * a, dg * a + g * da, d2g * a + 2.0 * dg * da + g * d2a


def weibull_lmoment_jacobian(sigma: float, nu: float) -> np.ndarray:
    """Analytic Jacobian of :func:`weibull_lmoment_map` w.r.t. (sigma, nu)."""
    f, df, _ = _weibull_shape_derivatives(nu)
    return np.stack([f, sigma * df], axis=-1)


def weibull_lmoment_hessian(sigma: float, nu: float) -> np.ndarray:
    """Second derivatives of :func:`weibull_lmoment_map`, shape (3, 2, 2)."""
    _, df, d2f = _weibull_shape_derivatives(nu)
    return _scale_shape_hessian(sigma, df, d2f)


# ---------------------------------------------------------------------------
# parametric families (densities, cdfs, quantiles, samplers)


@dataclass(frozen=True)
class ParametricFamily:
    """GPD or Weibull with fixed scale/shape; location fixed at 0."""

    name: str            # "gpd" | "weibull"
    sigma: float
    nu: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("scale must be positive")
        if self.name == "weibull" and self.nu <= 0:
            raise ValueError("Weibull shape must be positive")
        if self.name not in ("gpd", "weibull"):
            raise ValueError(f"unknown family {self.name!r}")

    @property
    def support(self) -> tuple[float, float]:
        if self.name == "gpd" and self.nu < 0:
            return (0.0, -self.sigma / self.nu)
        return (0.0, np.inf)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        s, v = self.sigma, self.nu
        lo, hi = self.support
        out = np.zeros_like(x)
        inside = (x > lo) & (x < hi)
        xi = x[inside]
        if self.name == "gpd":
            if v == 0.0:
                out[inside] = np.exp(-xi / s) / s
            else:
                out[inside] = (1.0 + v * xi / s) ** (-1.0 - 1.0 / v) / s
        else:
            z = (xi / s) ** v
            out[inside] = (v / s) * (xi / s) ** (v - 1.0) * np.exp(-z)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        s, v = self.sigma, self.nu
        lo, hi = self.support
        out = np.zeros_like(x)
        out[x >= hi] = 1.0
        inside = (x > lo) & (x < hi)
        xi = x[inside]
        if self.name == "gpd":
            if v == 0.0:
                out[inside] = -np.expm1(-xi / s)
            else:
                out[inside] = 1.0 - (1.0 + v * xi / s) ** (-1.0 / v)
        else:
            out[inside] = -np.expm1(-((xi / s) ** v))
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ValueError("quantile argument must lie in [0, 1)")
        s, v = self.sigma, self.nu
        if self.name == "gpd":
            if v == 0.0:
                out = -s * np.log1p(-u)
            else:
                out = s * ((1.0 - u) ** (-v) - 1.0) / v
        else:
            out = s * (-np.log1p(-u)) ** (1.0 / v)
        return out if out.ndim else float(out)

    def quantile_slope(self, s):
        """dQ/ds at ``s = -log(1 - u)``, in closed form.

        The plug-in integrals run in ``s``, where ``dx = (dQ/ds) ds``; the
        equivalent ``(1 - u) / density(Q(u))`` is 0/0 at the support ends.
        """
        s = np.asarray(s, dtype=float)
        if self.name == "gpd":
            return self.sigma * np.exp(self.nu * s)
        return (self.sigma / self.nu) * s ** (1.0 / self.nu - 1.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-cdf sampling from an externally supplied RNG stream."""
        return self.quantile(rng.random(n))

    def lmoments(self) -> np.ndarray:
        if self.name == "gpd":
            return gpd_lmoment_map(self.sigma, self.nu)
        return weibull_lmoment_map(self.sigma, self.nu)


# ---------------------------------------------------------------------------
# SPLQ model objects


@dataclass(frozen=True)
class SplqModel:
    """Parameter box plus the constraint map handed to the dual machinery.

    ``lmoment_map`` returns the constraint values lambda(theta) in report
    convention, ``lmoment_jacobian`` its Jacobian, shape (c, d), and
    ``lmoment_hessian`` its second derivatives, shape (c, d, d); ``target_map`` returns
    -lambda(theta), which is what the dual consumes.  ``rows(t)`` evaluates
    the integrated constraint rows at quantile levels ``t``; by default these
    are the integrated shifted Legendre polynomials of the configured orders.
    """

    name: str
    param_names: tuple[str, ...]
    box: np.ndarray                           # (d, 2) bounds
    lmoment_map: Callable[[np.ndarray], np.ndarray]
    lmoment_jacobian: Callable[[np.ndarray], np.ndarray]
    lmoment_hessian: Callable[[np.ndarray], np.ndarray]
    orders: tuple[int, ...] | None = (2, 3, 4)
    rows: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "box", np.asarray(self.box, dtype=float))
        if self.box.shape != (len(self.param_names), 2):
            raise ValueError("box must have one (lo, hi) row per parameter")
        if self.rows is None:
            object.__setattr__(self, "rows", PolyBasis(self.orders))

    @property
    def dim(self) -> int:
        return len(self.param_names)

    @property
    def n_constraints(self) -> int:
        return np.shape(self.rows(0.5))[-1]

    def constraint_values(self, t):
        return self.rows(t)

    def target_map(self, theta) -> np.ndarray:
        return -np.asarray(self.lmoment_map(np.asarray(theta, dtype=float)))

    def clip_to_box(self, theta) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.box[:, 0], self.box[:, 1])


def model_jacobian(model: SplqModel, theta) -> np.ndarray:
    """Jacobian of the target map -lambda(theta), shape (l-1, d)."""
    return -np.asarray(model.lmoment_jacobian(np.asarray(theta, dtype=float)))


def _l234_model(name, box, lmoment_map, lmoment_jacobian, lmoment_hessian) -> SplqModel:
    return SplqModel(
        name=name,
        param_names=("sigma", "nu"),
        box=np.array(box),
        lmoment_map=lambda th: lmoment_map(th[0], th[1]),
        lmoment_jacobian=lambda th: lmoment_jacobian(th[0], th[1]),
        lmoment_hessian=lambda th: lmoment_hessian(th[0], th[1]),
    )


def gpd_model() -> SplqModel:
    """Distributions sharing their L-moments of orders 2-4 with a GPD."""
    return _l234_model("gpd-l234", [[1e-3, 1e3], [-5.0, 0.99]],
                       gpd_lmoment_map, gpd_lmoment_jacobian, gpd_lmoment_hessian)


def weibull_model() -> SplqModel:
    """Distributions sharing their L-moments of orders 2-4 with a Weibull law."""
    return _l234_model("weibull-l234", [[1e-3, 1e3], WEIBULL_SHAPE_BOX],
                       weibull_lmoment_map, weibull_lmoment_jacobian,
                       weibull_lmoment_hessian)


def order_stat_polynomial(j: int, r: int, u):
    """Density kernel of the j-th order statistic mean in an r-sample."""
    if not 1 <= j <= r:
        raise ValueError("need 1 <= j <= r")
    u = np.asarray(u, dtype=float)
    c = factorial(r) / (factorial(j - 1) * factorial(r - j))
    out = c * u ** (j - 1) * (1.0 - u) ** (r - j)
    return out if out.ndim else float(out)


def _orderstat3_rows(t):
    """Integrated differences of adjacent 3-sample order-stat kernels.

    Row 1 integrates P_{2:3} - P_{1:3}; row 2 integrates P_{3:3} - P_{2:3}.
    Both vanish at t = 0 and t = 1, making the constraints shift invariant.
    """
    t = np.asarray(t, dtype=float)
    d1 = -3.0 * t + 6.0 * t ** 2 - 3.0 * t ** 3
    d2 = 3.0 * t ** 3 - 3.0 * t ** 2
    out = np.stack([d1, d2], axis=-1)
    return out


def order_stat_model_3() -> SplqModel:
    """Loose-symmetry model: adjacent 3-sample order-stat means differ by nu.

    The raw location constraint (the middle order-stat mean equals a
    location) is not expressible through the quantile measure, so the model
    is built in differenced, shift-invariant form and leaves the location
    free.
    """
    return SplqModel(
        name="orderstat3",
        param_names=("nu",),
        box=np.array([[1e-9, 1e6]]),
        lmoment_map=lambda th: np.array([th[0], th[0]]),
        lmoment_jacobian=lambda th: np.array([[1.0], [1.0]]),
        lmoment_hessian=lambda th: np.zeros((2, 1, 1)),
        orders=None,
        rows=_orderstat3_rows,
    )


def model_by_name(name: str) -> SplqModel:
    """Model lookup for config files and the CLI."""
    name = name.strip().lower()
    if name == "gpd-l234":
        return gpd_model()
    if name == "weibull-l234":
        return weibull_model()
    if name == "orderstat3":
        return order_stat_model_3()
    raise ValueError(f"unknown model {name!r}")
