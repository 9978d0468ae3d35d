"""Power-divergence family: the conjugate psi of the convex integrand and its derivatives.

Each family is one row of ``_FORMS`` (the generic power form is the
``"power"`` row).  ``DivergenceSpec.conjugate`` evaluates psi, psi' and
psi'' together, on scalars or arrays, after one domain check, and raises
``ConjugateDomainError`` outside the conjugate's open domain or at a NaN; ``psi``,
``psi_prime`` and ``psi_second`` are its parts.  The dual solver relies on
that signal and makes no domain check of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Dispatch to the closed-form limit branches near the removable
#: singularities of the power formula.
_GAMMA_EPS = 1e-6


class ConjugateDomainError(ValueError):
    """Argument outside the domain of the conjugate function."""


def _chi2_form(t, g):
    return 0.5 * t * t + t, t + 1.0, np.ones_like(t)


def _kl_form(t, g):
    e = np.exp(t)
    return np.expm1(t), e, e


def _klm_form(t, g):
    # -log1p(-t), 1 / u and 1 / u^2 with u = 1 - t, each written into its own result
    psi = np.negative(t)
    np.negative(np.log1p(psi, out=psi), out=psi)
    u = 1.0 - t
    d1 = np.divide(1.0, u)
    return psi, d1, np.divide(1.0, np.multiply(u, u, out=u), out=u)


def _power_form(t, g):
    b = 1.0 + (g - 1.0) * t
    if g > 1.0:     # left of the kink b = 0 the mass is 0: psi = -1/g, psi' = psi'' = 0
        b = np.maximum(b, 0.0)
    d2 = np.power(b, (2.0 - g) / (g - 1.0), out=np.zeros_like(b), where=b > 0.0)
    return (b ** (g / (g - 1.0)) - 1.0) / g, b ** (1.0 / (g - 1.0)), d2


#: each row: the conjugate's open domain, a function of gamma, and
#: ``(psi, psi', psi'')`` at an array argument, a function of (argument, gamma)
_FORMS = {
    "chi2": (lambda g: (-np.inf, np.inf), _chi2_form),
    # expm1 overflows past log(DBL_MAX): the edge in floating point
    "kl": (lambda g: (-np.inf, np.log(np.finfo(float).max)), _kl_form),
    "klm": (lambda g: (-np.inf, 1.0), _klm_form),
    "power": (lambda g: (-np.inf, np.inf) if g > 1.0 else (-np.inf, 1.0 / (1.0 - g)), _power_form),
}


@dataclass(frozen=True)
class DivergenceSpec:
    """One member of the power-divergence family.

    ``gamma = 2`` is the chi-square divergence (finite on all of R),
    ``gamma = 1`` the Kullback-Leibler divergence, ``gamma = 0`` its
    modified (reversed) version; other values use the generic power form of
    phi on x >= 0.  For gamma > 1, phi(0) = 1/gamma is finite: left of the
    kink z = -1/(gamma - 1) the supremum of zx - phi(x) is at x = 0, so psi =
    -1/gamma and psi' = psi'' = 0 (Rockafellar, Convex Analysis, 1970, s. 12).
    ``psi_domain``, the open interval on which the conjugate is finite, and
    the form of the family are read from ``_FORMS`` once, at construction.
    """

    family: str          # "chi2" | "kl" | "klm" | "power"
    gamma: float
    psi_domain: tuple[float, float] = field(init=False, repr=False, compare=False)
    _form: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        domain, form = _FORMS[self.family]
        object.__setattr__(self, "psi_domain", tuple(map(float, domain(self.gamma))))
        object.__setattr__(self, "_form", form)

    @property
    def a_phi(self) -> float:
        return -np.inf if self.family == "chi2" else 0.0

    def conjugate(self, z):
        """``(psi, psi', psi'')`` at z after one domain check of all of z, which a NaN fails.

        Floats for a scalar z, arrays of z's shape otherwise.
        """
        z = np.asarray(z, dtype=float)
        lo, hi = self.psi_domain
        flat = z.ravel()
        # the extremes by index, which numpy finds faster than by value; a NaN is both
        if not lo < flat[flat.argmin()] <= flat[flat.argmax()] < hi:
            raise ConjugateDomainError(
                f"conjugate argument outside open domain ({lo}, {hi})"
            )
        out = self._form(z if z.ndim else z[None], self.gamma)
        return tuple(float(v[0]) for v in out) if z.ndim == 0 else out

    def psi(self, t) -> np.ndarray | float:
        return self.conjugate(t)[0]

    def psi_prime(self, t) -> np.ndarray | float:
        return self.conjugate(t)[1]

    def psi_second(self, t) -> np.ndarray | float:
        return self.conjugate(t)[2]


CHI2 = DivergenceSpec("chi2", 2.0)
KL = DivergenceSpec("kl", 1.0)
KLM = DivergenceSpec("klm", 0.0)
_NAMED = {"chi2": CHI2, "kl": KL, "klm": KLM}


def power_divergence(gamma: float) -> DivergenceSpec:
    """Power-family member, dispatching to the limit branches near 0, 1, 2."""
    if abs(gamma - 2.0) < _GAMMA_EPS:
        return CHI2
    if abs(gamma - 1.0) < _GAMMA_EPS:
        return KL
    if abs(gamma) < _GAMMA_EPS:
        return KLM
    return DivergenceSpec("power", float(gamma))


def divergence_by_name(name: str) -> DivergenceSpec:
    """Parse a config-file divergence name: chi2, kl, klm or power:<gamma>."""
    name = name.strip().lower()
    if name.startswith("power:"):
        return power_divergence(float(name.split(":", 1)[1]))
    if name not in _NAMED:
        raise ValueError(f"unknown divergence {name!r}")
    return _NAMED[name]
