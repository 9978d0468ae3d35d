"""Power-divergence family: the convex integrand, its conjugate and derivatives.

Each family is one row of ``_FORMS`` (the generic power form is the
``"power"`` row); one wrapper evaluates any entry on scalars or arrays.
``phi`` uses an extended-real contract (+inf outside its domain) so it can
serve as a penalized primal objective.  ``psi`` and its derivatives raise on
domain violations instead, because the dual solver relies on that signal;
it is the only domain check of a dual evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Dispatch to the closed-form limit branches near the removable
#: singularities of the power formula.
_GAMMA_EPS = 1e-6


class ConjugateDomainError(ValueError):
    """Argument outside the domain of the conjugate function."""


def _extended(phi, at_zero):
    """phi on x > 0, its limit from the right at 0 and +inf left of 0."""
    def extended(x, g):
        out = np.full_like(x, np.inf)
        pos = x > 0.0
        out[pos] = phi(x[pos], g)
        out[x == 0.0] = at_zero(g)
        return out

    return extended


#: entries of a ``_FORMS`` row: functions of (argument, gamma), except the
#: conjugate's open domain, a function of gamma alone
_ENTRIES = ("psi_domain", "phi", "phi_prime", "phi_second",
            "psi", "psi_prime", "psi_second")
_FORMS = {family: dict(zip(_ENTRIES, row)) for family, row in {
    "chi2": (
        lambda g: (-np.inf, np.inf),
        lambda x, g: 0.5 * (x - 1.0) ** 2,
        lambda x, g: x - 1.0,
        lambda x, g: np.ones_like(x),
        lambda t, g: 0.5 * t * t + t,
        lambda t, g: t + 1.0,
        lambda t, g: np.ones_like(t),
    ),
    "kl": (
        lambda g: (-np.inf, np.inf),
        _extended(lambda x, g: x * np.log(x) - x + 1.0, lambda g: 1.0),
        lambda x, g: np.log(x),
        lambda x, g: 1.0 / x,
        lambda t, g: np.expm1(t),
        lambda t, g: np.exp(t),
        lambda t, g: np.exp(t),
    ),
    "klm": (
        lambda g: (-np.inf, 1.0),
        _extended(lambda x, g: -np.log(x) + x - 1.0, lambda g: np.inf),
        lambda x, g: 1.0 - 1.0 / x,
        lambda x, g: 1.0 / (x * x),
        lambda t, g: -np.log1p(-t),
        lambda t, g: 1.0 / (1.0 - t),
        lambda t, g: 1.0 / (1.0 - t) ** 2,
    ),
    "power": (
        lambda g: (-1.0 / (g - 1.0), np.inf) if g > 1.0 else (-np.inf, 1.0 / (1.0 - g)),
        _extended(lambda x, g: (x ** g - g * x + g - 1.0) / (g * (g - 1.0)),
                  lambda g: 1.0 / g if g > 0.0 else np.inf),
        lambda x, g: (x ** (g - 1.0) - 1.0) / (g - 1.0),
        lambda x, g: x ** (g - 2.0),
        lambda t, g: ((1.0 + (g - 1.0) * t) ** (g / (g - 1.0)) - 1.0) / g,
        lambda t, g: (1.0 + (g - 1.0) * t) ** (1.0 / (g - 1.0)),
        lambda t, g: (1.0 + (g - 1.0) * t) ** ((2.0 - g) / (g - 1.0)),
    ),
}.items()}


@dataclass(frozen=True)
class DivergenceSpec:
    """One member of the power-divergence family.

    ``gamma = 2`` is the chi-square divergence (finite on all of R),
    ``gamma = 1`` the Kullback-Leibler divergence, ``gamma = 0`` its
    modified (reversed) version; other values use the generic power form
    with domain restricted to positive arguments.
    """

    family: str          # "chi2" | "kl" | "klm" | "power"
    gamma: float

    @property
    def a_phi(self) -> float:
        return -np.inf if self.family == "chi2" else 0.0

    @property
    def psi_domain(self) -> tuple[float, float]:
        """Open interval on which the conjugate is finite and smooth."""
        return _FORMS[self.family]["psi_domain"](self.gamma)

    def _apply(self, entry: str, x):
        """One entry at x: a float for a scalar, an array of x's shape otherwise."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if entry.startswith("psi"):
            lo, hi = self.psi_domain
            if np.any(x <= lo) or np.any(x >= hi):
                raise ConjugateDomainError(
                    f"conjugate argument outside open domain ({lo}, {hi})"
                )
        out = _FORMS[self.family][entry](x, self.gamma)
        return float(out[0]) if scalar else out

    def phi(self, x) -> np.ndarray | float:
        return self._apply("phi", x)

    def phi_prime(self, x) -> np.ndarray | float:
        """Derivative of phi, finite only strictly inside its domain."""
        return self._apply("phi_prime", x)

    def phi_second(self, x) -> np.ndarray | float:
        return self._apply("phi_second", x)

    def psi(self, t) -> np.ndarray | float:
        return self._apply("psi", t)

    def psi_prime(self, t) -> np.ndarray | float:
        return self._apply("psi_prime", t)

    def psi_second(self, t) -> np.ndarray | float:
        return self._apply("psi_second", t)


CHI2 = DivergenceSpec("chi2", 2.0)
KL = DivergenceSpec("kl", 1.0)
KLM = DivergenceSpec("klm", 0.0)


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
    if name == "chi2":
        return CHI2
    if name == "kl":
        return KL
    if name == "klm":
        return KLM
    if name.startswith("power:"):
        return power_divergence(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown divergence {name!r}")
