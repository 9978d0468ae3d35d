"""Inner convex solve: the concave dual over multipliers for a fixed target.

``make_dual_problem`` is the one builder of the constraint rows at the nodes
i/n and of m_n; the Newton solve and the chi-square dual (Omega factored
once) both read its ``DualProblem``.  Zero spacings carry no mass, so they
are excluded from all sums and impose no domain constraint at their nodes.
The primal over spacings and the transport variant exist for cross-checks
and diagnostics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .divergence import CHI2, DivergenceSpec, ConjugateDomainError
from .lmoments import SortedSample

_UNBOUNDED_VALUE = 1e12


class SingularConstraintError(np.linalg.LinAlgError):
    """Constraint system is rank deficient for this sample."""


@dataclass(frozen=True)
class DualProblem:
    """Precomputed node data for one sample/divergence pair.

    ``kmat`` holds the constraint rows at the positive-spacing nodes only;
    ``delta`` the matching spacings.  Construction happens once per sample;
    solves against different targets share the skeleton.
    """

    kmat: np.ndarray           # (m, c) rows at nodes i/n with positive spacing
    delta: np.ndarray          # (m,) positive spacings
    target: np.ndarray         # f(theta), length c
    divergence: DivergenceSpec
    m_n: np.ndarray            # empirical constraint moments, length c

    def with_target(self, target) -> "DualProblem":
        return dataclasses.replace(self, target=np.asarray(target, dtype=float))

    # -- objective, gradient, Hessian ----------------------------------
    # the conjugate checks its own domain at the nodes kmat @ xi

    def objective(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        z = self.kmat @ xi
        return float(xi @ self.target - self.divergence.psi(z) @ self.delta)

    def gradient(self, xi) -> np.ndarray:
        z = self.kmat @ np.asarray(xi, dtype=float)
        return self.target - self.kmat.T @ (self.divergence.psi_prime(z) * self.delta)

    def hessian(self, xi) -> np.ndarray:
        z = self.kmat @ np.asarray(xi, dtype=float)
        w = self.divergence.psi_second(z) * self.delta
        return -(self.kmat.T * w) @ self.kmat


@dataclass(frozen=True)
class DualSolution:
    xi: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    status: str                # "converged" | "maxIter" | "infeasibleDirection"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def make_dual_problem(
    sample: SortedSample,
    constraint_values,
    divergence: DivergenceSpec,
    target,
) -> DualProblem:
    """The rows ``constraint_values(t)`` at the positive-spacing nodes i/n, and m_n.

    Raises ``SingularConstraintError`` when those rows are rank deficient.
    """
    n = sample.n
    kmat = np.atleast_2d(constraint_values(np.arange(1, n) / n))
    delta = sample.spacings
    mask = delta > 0.0
    kmat, delta = kmat[mask], delta[mask]
    rank = np.linalg.matrix_rank(kmat)
    if rank < kmat.shape[1]:
        raise SingularConstraintError(
            f"constraint rows are rank deficient: rank {rank} < {kmat.shape[1]} "
            f"on {delta.size} positive-spacing nodes"
        )
    return DualProblem(
        kmat, delta, np.asarray(target, dtype=float), divergence,
        kmat.T @ delta,
    )


def empirical_constraint_moments(sample: SortedSample, constraint_values) -> np.ndarray:
    """Integral of the constraint rows against the empirical quantile measure.

    Equals minus the plug-in sample L-moments of the configured orders.
    """
    # the target plays no part in m_n
    return make_dual_problem(sample, constraint_values, CHI2, 0.0).m_n


def omega_empirical(problem: DualProblem) -> np.ndarray:
    """Second-moment matrix of the constraint rows under the quantile measure."""
    return (problem.kmat.T * problem.delta) @ problem.kmat


def solve_dual(
    problem: DualProblem,
    tol: float = 1e-9,
    max_iter: int = 200,
    armijo: float = 1e-4,
) -> DualSolution:
    """Damped Newton ascent from zero with a domain-respecting line search."""
    c = problem.target.size
    xi = np.zeros(c)
    value = problem.objective(xi)
    scale = 1.0 + np.linalg.norm(problem.target)
    grad = problem.gradient(xi)
    for it in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol * scale:
            return DualSolution(xi, value, gnorm, it - 1, "converged")
        if value > _UNBOUNDED_VALUE:
            return DualSolution(xi, value, gnorm, it - 1, "infeasibleDirection")
        neg_h = -problem.hessian(xi)
        reg = 0.0
        while True:
            try:
                chol = scipy.linalg.cho_factor(neg_h + reg * np.eye(c))
                break
            except np.linalg.LinAlgError:
                reg = max(2.0 * reg, 1e-12)
        step = scipy.linalg.cho_solve(chol, grad)
        slope = float(grad @ step)
        t = 1.0
        while t > 1e-16:
            try:
                cand = xi + t * step
                cand_value = problem.objective(cand)
            except ConjugateDomainError:
                t *= 0.5
                continue
            if cand_value >= value + armijo * t * slope:
                break
            t *= 0.5
        else:
            # no admissible step: the gradient points out of the reachable cone
            return DualSolution(xi, value, gnorm, it, "infeasibleDirection")
        xi, value = cand, cand_value
        grad = problem.gradient(xi)
    gnorm = float(np.max(np.abs(grad)))
    status = "converged" if gnorm <= tol * scale else "maxIter"
    return DualSolution(xi, value, gnorm, max_iter, status)


def chi2_solver(omega: np.ndarray, m_n: np.ndarray):
    """target -> (value, xi) of the chi-square dual, with Omega factored once.

    The conjugate is quadratic, so the maximizer solves Omega xi = target - m_n.
    """
    try:
        chol = scipy.linalg.cho_factor(omega)
    except scipy.linalg.LinAlgError:
        raise SingularConstraintError("empirical second-moment matrix is singular")

    def solve(target) -> tuple[float, np.ndarray]:
        resid = np.asarray(target, dtype=float) - m_n
        xi = scipy.linalg.cho_solve(chol, resid)
        return 0.5 * float(resid @ xi), xi

    return solve


def chi2_value_closed_form(
    sample: SortedSample, constraint_values, target
) -> tuple[float, np.ndarray]:
    """Exact chi-square dual optimum at one target (see ``chi2_solver``)."""
    problem = make_dual_problem(sample, constraint_values, CHI2, target)
    return chi2_solver(omega_empirical(problem), problem.m_n)(problem.target)


# ---------------------------------------------------------------------------
# test-time oracles


def _feasible_start(a: np.ndarray, delta: np.ndarray, target: np.ndarray,
                    positive: bool) -> np.ndarray:
    """A strictly feasible spacing vector for the primal program."""
    # least-norm correction of the identity deformation
    corr = a @ np.linalg.solve(a.T @ a, target - a.T @ delta)
    s0 = delta + corr
    if not positive:
        return s0
    if np.all(s0 > 1e-12 * delta):
        return s0
    # maximize the margin m subject to A s = target, s >= m * delta
    m = delta.size
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.hstack([a.T, np.zeros((a.shape[1], 1))])
    a_ub = np.hstack([-np.eye(m), delta[:, None]])
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=target,
        bounds=[(None, None)] * m + [(None, 1.0)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 0:
        raise SingularConstraintError(
            "no strictly positive spacing vector satisfies the constraints"
        )
    return res.x[:-1]


def primal_bruteforce(
    sample: SortedSample,
    constraint_values,
    target,
    divergence: DivergenceSpec,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, np.ndarray]:
    """Direct solve of the constrained primal over candidate spacings.

    Equality-constrained Newton on the convex program; oracle scale only
    (n <= 50).  Returns the optimal value and the full spacing vector, with
    zeros at tied nodes.
    """
    if sample.n > 50:
        raise ValueError("the primal oracle is restricted to n <= 50")
    problem = make_dual_problem(sample, constraint_values, divergence, target)
    a, d, target = problem.kmat, problem.delta, problem.target    # a: (m, c)
    positive = divergence.a_phi >= 0.0
    s = _feasible_start(a, d, target, positive)

    def value_of(sv):
        return float(divergence.phi(sv / d) @ d)

    val = value_of(s)
    for _ in range(max_iter):
        r = s / d
        g = np.asarray(divergence.phi_prime(r))
        h = np.asarray(divergence.phi_second(r)) / d
        h = np.maximum(h, 1e-12)
        # KKT step: minimize the local quadratic subject to A^T p = 0
        hinv_g = g / h
        hinv_at = a / h[:, None]
        mu = np.linalg.solve(a.T @ hinv_at, -a.T @ hinv_g)
        p = -(hinv_g + hinv_at @ mu)
        lam_dec = float(-g @ p)
        if lam_dec <= tol * (1.0 + abs(val)):
            break
        t = 1.0
        while t > 1e-16:
            cand = s + t * p
            if positive and np.any(cand <= 0.0):
                t *= 0.5
                continue
            cand_val = value_of(cand)
            if np.isfinite(cand_val) and cand_val <= val - 1e-4 * t * lam_dec:
                break
            t *= 0.5
        else:
            break
        s, val = cand, cand_val
    out = np.zeros(sample.n - 1)
    out[sample.spacings > 0.0] = s
    return val, out


def wasserstein_fit_inner(
    sample: SortedSample, constraint_values, target
) -> tuple[float, np.ndarray, bool]:
    """Constrained least-squares projection of the sample points.

    Minimizes the mean squared displacement of the order statistics subject
    to the linear constraints on the displaced spacings; this is the squared
    quadratic transport cost to the projected discrete measure.  Solved
    exactly through the KKT linear system.  Monotonicity of the output is
    not enforced; the returned flag is True when the solution is monotone.
    """
    target = np.asarray(target, dtype=float)
    n = sample.n
    x = sample.values
    grid = np.arange(n + 1) / n
    kfull = np.atleast_2d(constraint_values(np.clip(grid, 0.0, 1.0)))  # (n+1, c)
    # sum_i K(i/n)(y_{i+1}-y_i) = sum_j y_j [K((j-1)/n) - K(j/n)]
    b = kfull[:-1] - kfull[1:]                           # (n, c)
    gram = b.T @ b                                       # (c, c)
    try:
        mu = scipy.linalg.solve(gram, b.T @ x - target, assume_a="pos")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise SingularConstraintError("constraint rows are rank deficient")
    y = x - b @ mu
    cost = float(np.mean((x - y) ** 2))
    monotone = bool(np.all(np.diff(y) >= -1e-12))
    return cost, y, monotone
