"""Model definitions: parametric families and their L-moment constraint maps.

A model is a set of conditions on L-moments, of the orders of its
``PolyBasis`` rows.  Sign convention, fixed once here: the dual always receives
``target(theta) = -lambda(theta)``, matching the integration-by-parts
identity that equates the integral of the constraint rows against the
quantile measure with minus the L-moment.  User-facing reports always show
``lambda(theta)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, gamma, inf, isfinite, log, log1p
from sys import float_info
from typing import Callable

import numpy as np

from .poly import PolyBasis


# ---------------------------------------------------------------------------
# closed-form L-moment maps: lambda(sigma, nu) = sigma * f(nu) for each law

#: f = Gamma(1 + 1/nu) * (W @ c), c_j = 1 - j^(-1/nu) for j = 2, 3, 4, for the Weibull
_WEIBULL_K = np.array([2.0, 3.0, 4.0])
_WEIBULL_LOG_K = np.log(_WEIBULL_K)
_WEIBULL_W = np.array([[1.0, 0.0, 0.0], [3.0, -2.0, 0.0], [6.0, -10.0, 5.0]])
#: shape range of the Weibull model's box
WEIBULL_SHAPE_BOX = (0.05, 20.0)


def _gpd_shape(nu: float) -> list[float]:
    """``f`` of the GPD, in product form: lambda_3 is exactly 0 at nu = -1 and
    lambda_4 at nu = -1, -2.  Heavy tail for nu > 0; no L-moments for nu >= 1.
    """
    if nu >= 1.0:
        raise ValueError("GPD L-moments do not exist for shape >= 1")
    lam2 = 1.0 / ((1.0 - nu) * (2.0 - nu))
    lam3 = lam2 * (1.0 + nu) / (3.0 - nu)
    lam4 = lam2 * (1.0 + nu) * (2.0 + nu) / ((3.0 - nu) * (4.0 - nu))
    return [lam2, lam3, lam4]


def _gpd_slopes(nu: float) -> tuple[list[float], list[float]]:
    """``(f', f'')`` of the GPD in floats, from the partial fractions of ``f``.

    With ``p_a = 1 / (a - nu)``, ``f = (p_1 - p_2, p_1 - 3 p_2 + 2 p_3,
    p_1 - 6 p_2 + 10 p_3 - 5 p_4)``; ``f'`` is the same sums over ``p_a^2``
    and ``f''`` twice them over ``p_a^3``.
    """
    p1, p2, p3, p4 = 1.0 / (1.0 - nu), 1.0 / (2.0 - nu), 1.0 / (3.0 - nu), 1.0 / (4.0 - nu)
    a, b, c, d = p1 * p1, p2 * p2, p3 * p3, p4 * p4
    d1 = [a - b, a - 3.0 * b + 2.0 * c, a - 6.0 * b + 10.0 * c - 5.0 * d]
    a, b, c, d = a * p1, b * p2, c * p3, d * p4
    d2 = [a - b, a - 3.0 * b + 2.0 * c, a - 6.0 * b + 10.0 * c - 5.0 * d]
    return d1, [2.0 * v for v in d2]


def _weibull_shape(nu: float) -> list[float]:
    """``f`` of the Weibull law; ``expm1`` keeps the digits of ``c`` at large nu."""
    if nu <= 0:
        raise ValueError("Weibull shape must be positive")
    return (-gamma(1.0 + 1.0 / nu) * (_WEIBULL_W @ np.expm1(_WEIBULL_LOG_K / -nu))).tolist()


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


def _weibull_slopes(nu: float) -> tuple[list[float], list[float]]:
    """``(f', f'')`` of the Weibull law: the product rule on ``Gamma(1 + 1/nu) * (W @ c)``."""
    p = _WEIBULL_K ** (-1.0 / nu)
    dc = -p * _WEIBULL_LOG_K / nu ** 2
    d2c = dc * (_WEIBULL_LOG_K / nu - 2.0) / nu
    psi, tri = _digamma_trigamma(1.0 + 1.0 / nu)
    g = gamma(1.0 + 1.0 / nu)
    dg = -g * psi / nu ** 2
    d2g = g * (psi * psi + tri + 2.0 * nu * psi) / nu ** 4
    a, da, d2a = _WEIBULL_W @ (1.0 - p), _WEIBULL_W @ dc, _WEIBULL_W @ d2c
    return (dg * a + g * da).tolist(), (d2g * a + 2.0 * dg * da + g * d2a).tolist()


#: each law's ``(f, (f', f''))`` as float lists, both functions of the shape nu
_LAWS = {"gpd": (_gpd_shape, _gpd_slopes), "weibull": (_weibull_shape, _weibull_slopes)}


# ---------------------------------------------------------------------------
# parametric families (float log-density and cdf, quantiles, samplers)


@dataclass(frozen=True)
class ParametricFamily:
    """GPD or Weibull with fixed scale/shape; location fixed at 0.

    ``log_density_fn()`` and ``cdf_fn()`` build the law's one log-density and
    cdf, float functions of one point; the caller keeps them for as many
    points as it needs.  Nothing is cached on the instance, so it stays
    picklable and compares by its three fields.
    """

    name: str            # "gpd" | "weibull"
    sigma: float
    nu: float

    def __post_init__(self):
        # Python floats: their arithmetic overflows to inf silently, numpy scalars' warn
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "nu", float(self.nu))
        if not (isfinite(self.sigma) and isfinite(self.nu)):
            raise ValueError("scale and shape must be finite")
        if self.sigma <= 0:
            raise ValueError("scale must be positive")
        if self.name == "weibull" and self.nu <= 0:
            raise ValueError("Weibull shape must be positive")
        if self.name not in _LAWS:
            raise ValueError(f"unknown family {self.name!r}")

    @property
    def support(self) -> tuple[float, float]:
        if self.name == "gpd" and self.nu < 0:
            return (0.0, -self.sigma / self.nu)
        return (0.0, np.inf)

    def log_density_fn(self):
        """``x -> log f(x)`` in ``math`` inside the support, and its limit at a finite end.

        A GPD's is also defined at ``x = 0``, a Weibull law's at 0 and at inf.
        Built once per law and called per point.
        """
        s, v = self.sigma, self.nu
        log_s = log(s)
        if self.name == "weibull":
            # a quotient that is not a finite nonzero float is taken apart in logs
            q = v / s
            log_scale = log(q) if 0.0 < q < inf else log(v) - log_s

            at_zero = inf if v < 1.0 else log_scale if v == 1.0 else -inf     # the limit

            def log_f(x):
                if not 0.0 < x < inf:       # -inf at inf and off the support; a NaN stays NaN
                    return at_zero if x == 0.0 else -inf if x == x else x
                z = x / s
                log_z = log(z) if 0.0 < z < inf else log(x) - log_s
                # past exp(709) the term z^nu overflows a float and outgrows the others
                if v * log_z >= 709.0:
                    return -inf
                return log_scale + (v - 1.0) * log_z - exp(v * log_z)
        elif v == 0.0 or abs(1.0 / v) == inf:    # nu = 0, or 1 / nu overflows: exponential
            def log_f(x):
                return -log_s - x / s
        elif v == -1.0:                       # uniform on [0, s]
            def log_f(x):
                return -log_s
        else:
            slope, power = v / s, (v + 1.0) / v

            def log_f(x):
                z = slope * x
                if not abs(z) < inf:          # the slope or z overflows: z in x / s
                    z = v * (x / s)
                    if z == inf:              # log1p(z) is log z in floats
                        return -log_s - power * (log(v) - log_s + log(x))
                if z < -1.0:                  # past the finite end
                    return -inf
                return -log_s - power * (log1p(z) if z > -1.0 else -inf)
        return log_f

    def cdf_fn(self):
        """``x -> F(x)`` in ``math`` for ``x >= 0``, built once per law and called per point."""
        s, v = self.sigma, self.nu
        end = self.support[1]

        def cdf(x):
            if x >= end:
                return 1.0
            if x <= 0.0:
                return 0.0
            if self.name == "weibull":
                z = x / s
                # past exp(709) the power overflows a float, and 1 - F is 0
                if not 0.0 < z < inf:       # under- or overflows: z^nu is taken in logs
                    log_z = log(x) - log(s)
                    return 1.0 if v * log_z > 709.0 else -expm1(-exp(v * log_z))
                return 1.0 if v * log(z) > 709.0 else -expm1(-(z ** v))
            z = v * x / s
            # nu = 0, or z is subnormal (fewer than 53 bits): log1p(z) / nu is x / sigma
            if abs(z) < float_info.min:
                return -expm1(-x / s)
            # F = 1 - (1 + z)^(-1/nu), in log1p and expm1 to keep its digits as nu -> 0;
            # z rounds to -1 only at the finite end
            return 1.0 if z <= -1.0 else -expm1(-log1p(z) / v)
        return cdf

    def quantile(self, u):
        """Q(u) for u in [0, 1); raises ``ValueError`` where Q overflows a float."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ValueError("quantile argument must lie in [0, 1)")
        s, v = self.sigma, self.nu
        with np.errstate(over="ignore"):        # reported below, as an error
            if self.name == "weibull":
                out = s * (-np.log1p(-u)) ** (1.0 / v)
            elif v == 0.0:
                out = -s * np.log1p(-u)
            else:
                out = s * ((1.0 - u) ** (-v) - 1.0) / v
        if not np.isfinite(out).all():          # u < 1, so only an overflow is not finite
            raise ValueError(f"the quantile of {self} overflows a float")
        return out if out.ndim else float(out)

    def quantile_slope(self, s):
        """dQ/ds at ``s = -log(1 - u) >= 0``, in closed form.

        The plug-in integrals run in ``s``, where ``dx = (dQ/ds) ds``; the
        equivalent ``(1 - u) / density(Q(u))`` is 0/0 at the support ends.
        Raises ``ValueError`` where the slope is not finite, but for the
        Weibull's +inf at ``s = 0`` for ``nu > 1``.
        """
        s = np.asarray(s, dtype=float)
        with np.errstate(all="ignore"):         # reported below, as an error
            if self.name == "gpd":
                out = self.sigma * np.exp(self.nu * s)
            else:
                out = (self.sigma / self.nu) * s ** (1.0 / self.nu - 1.0)
        if np.isnan(out).any() or (np.isinf(out) & (s > 0.0)).any():
            raise ValueError(f"the quantile slope of {self} overflows a float")
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-cdf sampling from an externally supplied RNG stream."""
        return self.quantile(rng.random(n))

    def lmoments(self) -> np.ndarray:
        """(lambda_2, lambda_3, lambda_4); raises ``ValueError`` where they overflow a float."""
        try:                        # Gamma(1 + 1/nu) raises past 171, sigma * f gives inf
            with np.errstate(over="ignore"):
                out = self.sigma * np.array(_LAWS[self.name][0](self.nu))
        except OverflowError:
            out = np.inf
        except ValueError as exc:   # a GPD with nu >= 1
            raise ValueError(f"{self}: {exc}") from None
        if not np.isfinite(out).all():
            raise ValueError(f"the L-moments of {self} overflow a float")
        return out


# ---------------------------------------------------------------------------
# SPLQ model objects


@dataclass(frozen=True, eq=False)
class SplqModel:
    """Parameter box, law and constraint rows handed to the dual machinery.

    Every model is ``lambda(theta) = sigma * f(nu)``, linear in ``theta[0]``, a
    scale, so ``fit_divergence`` fits in units of the sample's L-scale.
    ``law`` is the pair ``(f, slopes)`` of float-list functions of the shape
    nu, ``slopes(nu) = (f', f'')``; a scale-only model has no nu, a constant
    ``f`` (called with None) and ``slopes`` None.  ``rows`` is the
    ``PolyBasis`` of the L-moment orders that ``f`` lists, so every model is
    a set of conditions on L-moments; other rows raise ``ValueError``.
    ``family`` names the law (a ``ParametricFamily`` name) whose L-moments
    the model shares, the plug-in law of the asymptotics; ``None`` when the
    model has no such law.  ``lmoment_map`` gives lambda(theta) in report
    convention and ``target_map`` -lambda(theta), which is what the dual
    consumes.  Models compare and hash by identity: ``box`` is an array, so
    field equality has no truth value.
    """

    name: str
    param_names: tuple[str, ...]
    box: np.ndarray                           # (d, 2) bounds
    law: tuple[Callable[[float | None], list], Callable[[float], tuple[list, list]] | None]
    rows: PolyBasis
    family: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "box", np.asarray(self.box, dtype=float))
        if self.box.shape != (len(self.param_names), 2):
            raise ValueError("box must have one (lo, hi) row per parameter")
        if not isinstance(self.rows, PolyBasis):
            raise ValueError(f"the rows of model {self.name!r} must be a PolyBasis")

    @property
    def dim(self) -> int:
        return len(self.param_names)

    @property
    def n_constraints(self) -> int:
        return self.rows.dim

    def constraint_values(self, t):
        return self.rows.constraint_vector(t)

    def jet(self, nu) -> tuple[list[float], ...]:
        """``(f, f', f'')`` at the shape ``nu`` as float lists; ``(f,)`` for a scale-only model."""
        shape, slopes = self.law
        return (shape(nu),) if slopes is None else (shape(nu), *slopes(nu))

    def lmoment_map(self, theta) -> np.ndarray:
        return theta[0] * np.array(self.law[0](theta[1] if len(theta) > 1 else None))

    def lmoment_jacobian(self, theta) -> np.ndarray:
        """``[f, sigma f']``, shape (c, d); ``f`` alone for a scale-only model."""
        shape, slopes = self.law
        if slopes is None:
            return np.array(shape(None))[:, None]
        sigma, nu = theta[0], theta[1]
        return np.array([[f, sigma * df] for f, df in zip(shape(nu), slopes(nu)[0])])

    def target_map(self, theta) -> np.ndarray:
        return -self.lmoment_map(np.asarray(theta, dtype=float))


def _l234_model(family: str, box) -> SplqModel:
    """Laws sharing lambda_2..4 with a member of ``family``, ``lambda = sigma * f(nu)``."""
    return SplqModel(
        name=f"{family}-l234",
        param_names=("sigma", "nu"),
        box=np.array(box),
        law=_LAWS[family],
        rows=PolyBasis((2, 3, 4)),
        family=family,
    )


def gpd_model() -> SplqModel:
    """Distributions sharing their L-moments of orders 2-4 with a GPD."""
    # the sigma row is in units of s, lambda_2 / s in [1, 2), so it must hold [1, 2) / f_2(nu);
    # here 1 / f_2 = (1 - nu)(2 - nu) lies in [0.0101, 42] over the shape box
    return _l234_model("gpd", [[1e-3, 1e3], [-5.0, 0.99]])


def weibull_model() -> SplqModel:
    """Distributions sharing their L-moments of orders 2-4 with a Weibull law."""
    # as for the GPD; here 1 / f_2(nu) falls to 2.8e-7 at nu = 0.1 and 4.1e-19 at 0.05
    return _l234_model("weibull", [[1e-21, 1e3], WEIBULL_SHAPE_BOX])


def order_stat_model_3() -> SplqModel:
    """L-symmetric model: adjacent 3-sample order-stat means differ by nu.

    The gaps ``E X_{2:3} - E X_{1:3} = 3 (lambda_2 - lambda_3) / 2`` and
    ``E X_{3:3} - E X_{2:3} = 3 (lambda_2 + lambda_3) / 2`` both equal nu
    exactly when ``lambda = nu (2/3, 0)`` on the orders 2 and 3: lambda_3 = 0.
    The location, the middle order-stat mean, stays free.
    """
    return SplqModel(
        name="orderstat3",
        param_names=("nu",),
        box=np.array([[1e-9, 1e6]]),
        law=(lambda nu: [2.0 / 3.0, 0.0], None),
        rows=PolyBasis((2, 3)),
    )


def model_by_name(name: str) -> SplqModel:
    """Model lookup for config files and the CLI."""
    name = name.strip().lower()
    models = {"gpd-l234": gpd_model, "weibull-l234": weibull_model,
              "orderstat3": order_stat_model_3}
    if name not in models:
        raise ValueError(f"unknown model {name!r}")
    return models[name]()
