"""Inner convex solve: the concave dual over multipliers for a fixed target.

``make_dual_problem`` is the one builder of the constraint rows at the nodes
i/n and of m_n; the Newton solve and the chi-square dual (closed form in
Omega) both read its ``DualProblem``.  A ``PolyBasis`` takes its rows and
their rank from the cached node table of the sample size, which the sample
L-moments read too; any other row map is evaluated.  Zero spacings carry no mass, so they
are excluded from all sums and impose no domain constraint at their nodes.

``solve_dual`` is damped Newton ascent.  Its line search starts at the
largest step that keeps the nodes ``kmat @ xi`` inside the conjugate's
domain (a ratio test against the domain edge, Boyd & Vandenberghe, Convex
Optimization, 9.5-9.6), so a barrier-type conjugate such as the modified
KL's ``-log(1 - z)`` costs a few evaluations per solve, not a cascade of
halvings.  Each point is one conjugate evaluation (``DualProblem.evaluate``),
one domain check of its nodes; the solver makes no domain test of its own.
A caller solving nearby targets passes starts as ``xi0``; the solve takes the
one with the highest objective, or zero where the conjugate rejects them all.
The solve stops when its Newton decrement (B&V 9.5.1) reaches ``rounding_level``,
below which no step can show an ascent; the estimator's profile search stops on
that level too.
A solve that stops short of optimality is checked by ``target_in_cone``: a
target that no positive spacing vector reaches makes the dual unbounded and
is reported as ``infeasibleDirection``; anything else is a failure of the
solve.  That test is a convex-hull test in L-moment-ratio space; it needs no
LP and no solve.  The transport variant is the optimal-transport counterpart
of the inner problem.
"""

from __future__ import annotations

import dataclasses
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .divergence import CHI2, DivergenceSpec, ConjugateDomainError
from .lmoments import SortedSample
from .poly import PolyBasis

_UNBOUNDED_VALUE = 1e12
#: Newton steps a solve may take
_MAX_NEWTON_ITER = 200
#: sufficient-increase fraction of the line search
_ARMIJO = 1e-4
#: fraction of the way to the conjugate's domain edge a line search may go
_EDGE_FRACTION = 0.99
#: "converged" is a Newton decrement at the rounding level; "stalled" is no ascent
#: found above it, or an unbounded value at a target ``target_in_cone`` accepts
SOLVE_STATUSES = ("converged", "infeasibleDirection", "maxIter", "stalled")


class SingularConstraintError(np.linalg.LinAlgError):
    """Constraint system is rank deficient for this sample."""


def require_finite(*arrays) -> None:
    """Raise ``ValueError`` on a NaN or inf entry.

    ``np.linalg`` carries such entries into NaN factors and solutions without
    raising; every linear system of the package is checked here first.
    """
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("linear system contains infs or NaNs")


def _cho_solve(low: np.ndarray, b) -> np.ndarray:
    """``a^-1 b`` from the lower Cholesky factor ``low`` of ``a``."""
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


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

    def evaluate(self, xi, z=None) -> tuple[float, np.ndarray, np.ndarray]:
        """(objective, psi'(z) delta, psi''(z) delta) at ``xi`` from one conjugate evaluation.

        The conjugate checks its domain at the nodes ``z = kmat @ xi``, which a caller
        holding them passes; ``objective``, ``gradient`` and ``hessian`` are its views.
        """
        xi = np.asarray(xi, dtype=float)
        psi, d1, d2 = self.divergence.conjugate(self.kmat @ xi if z is None else z)
        return float(xi @ self.target - psi @ self.delta), d1 * self.delta, d2 * self.delta

    def objective(self, xi, z=None) -> float:
        return self.evaluate(xi, z)[0]

    def gradient(self, xi, z=None) -> np.ndarray:
        return self.target - self.kmat.T @ self.evaluate(xi, z)[1]

    def hessian(self, xi, z=None) -> np.ndarray:
        return -self.curvature(self.evaluate(xi, z)[2])

    def curvature(self, w2) -> np.ndarray:
        """The negative Hessian ``kmat^T diag(w2) kmat`` from ``w2 = psi''(z) delta``."""
        return (self.kmat.T * w2) @ self.kmat


@dataclass(frozen=True)
class DualSolution:
    xi: np.ndarray
    value: float
    iterations: int            # Newton steps taken
    evaluations: int           # objective evaluations, the starts' included
    status: str                # one of SOLVE_STATUSES

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

    A ``PolyBasis`` reads its rows and their rank from the cached node table
    (``PolyBasis.at_nodes``); the rank is recomputed only where a zero spacing
    masks rows.  Raises ``SingularConstraintError`` when those rows are rank
    deficient.
    """
    n, delta = sample.n, sample.spacings
    if isinstance(constraint_values, PolyBasis):
        kmat, rank = constraint_values.at_nodes(n)
    else:
        kmat, rank = np.atleast_2d(constraint_values(np.arange(1, n) / n)), None
    mask = delta > 0.0
    if not mask.all():
        kmat, delta, rank = kmat[mask], delta[mask], None
    if rank is None:
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


def omega_empirical(problem: DualProblem) -> np.ndarray:
    """Second-moment matrix of the constraint rows under the quantile measure."""
    return problem.curvature(problem.delta)


def rounding_level(xi, target, value: float, m: int) -> float:
    """Rounding level of the dual objective ``value = xi @ target - sum_i psi(z_i) delta_i``.

    ``16 eps sqrt(m)`` (eps = 2^-52) times its sums ``|xi| @ |target|`` and
    ``|xi @ target - value|`` over ``m`` positive spacings; it scales with the data.
    """
    sums = float(np.abs(xi) @ np.abs(target)) + abs(float(xi @ target) - value)
    return 16.0 * 2.0 ** -52 * m ** 0.5 * sums


def _ratio_test(z, dz, domain) -> float:
    """min(1, 0.99 * the step at which z + t * dz first reaches a domain edge)."""
    t = 1.0
    for edge, toward in zip(domain, (np.less, np.greater)):
        if abs(edge) < np.inf and (heading := toward(dz, 0.0)).any():
            t = min(t, _EDGE_FRACTION * float(((edge - z[heading]) / dz[heading]).min()))
    return t


def solve_dual(problem: DualProblem, xi0=None) -> DualSolution:
    """Damped Newton ascent with a ratio-test line search.

    ``xi0`` is one start or an array of them: the solve starts at the one with
    the highest objective among those with nodes inside the conjugate's domain,
    or at zero, and each start evaluated counts in ``evaluations``.
    Converged means a Newton decrement ``g (-H)^-1 g`` at most ``rounding_level`` within
    ``_MAX_NEWTON_ITER`` steps; the full step is then taken, unevaluated, if the ratio
    test allows all of it and its own nodes lie strictly inside the domain (z + dz
    carries rounding).  A solve that stops short of that runs ``target_in_cone``:
    outside the cone the status is ``infeasibleDirection``, inside it (or for rows
    that test does not cover) the solve failed (``maxIter`` or ``stalled``) and its
    value is only a lower bound.
    """
    c = problem.target.size
    domain = problem.divergence.psi_domain
    starts = [] if xi0 is None else list(np.array(xi0, dtype=float, ndmin=2))
    points = []
    for start in starts:
        with suppress(ConjugateDomainError):
            points.append((*problem.evaluate(start), start))
    # zero lies inside every conjugate's domain; the first of equal starts wins
    value, w1, w2, xi = max(points, key=lambda p: p[0]) if points else (
        *problem.evaluate(np.zeros(c)), np.zeros(c))
    evaluations = len(starts) + (not points)
    z = problem.kmat @ xi           # the nodes of xi: z + t dz drifts from them by rounding
    failure = "maxIter"
    for it in range(_MAX_NEWTON_ITER + 1):
        grad = problem.target - problem.kmat.T @ w1
        if value > _UNBOUNDED_VALUE:
            failure = "stalled"
            break
        neg_h = problem.curvature(w2)
        require_finite(neg_h, grad)
        shifted, reg = neg_h, 0.0
        while True:
            try:
                step = _cho_solve(np.linalg.cholesky(shifted), grad)
                break
            except np.linalg.LinAlgError:
                reg = max(2.0 * reg, 1e-12)
                shifted = neg_h + reg * np.eye(c)
        dz = problem.kmat @ step
        decrement = float(grad @ step)
        t = _ratio_test(z, dz, domain)
        if decrement <= rounding_level(xi, problem.target, value, problem.delta.size):
            nodes = problem.kmat @ (xi + step)
            if t == 1.0 and domain[0] < nodes.min() and nodes.max() < domain[1]:
                xi = xi + step
            return DualSolution(xi, value, it, evaluations, "converged")
        if it == _MAX_NEWTON_ITER:
            break
        while t > 1e-16:
            evaluations += 1
            cand = xi + t * step
            cand_z = problem.kmat @ cand
            try:
                cand_value, cand_w1, cand_w2 = problem.evaluate(cand, cand_z)
            except ConjugateDomainError:
                # only a node within rounding of the edge gets here
                cand_value = -np.inf
            if cand_value >= value + _ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            failure = "stalled"
            break
        xi, value, z, w1, w2 = cand, cand_value, cand_z, cand_w1, cand_w2
    status = failure if target_in_cone(problem) else "infeasibleDirection"
    return DualSolution(xi, value, it, evaluations, status)


def target_in_cone(problem: DualProblem) -> bool:
    """False when no spacing vector ``s > 0`` has ``kmat.T @ s = target``.

    Then the target lies outside the open cone of the rows and the dual is
    unbounded.  chi-square admits negative spacings, so its full-rank rows
    reach every target.  Otherwise, with a first row negative at every node
    and at most three rows, ``kmat[i] = k_i0 (1, p_i)`` and the cone test is
    exact in ratio space (the sample grid's L-moment ratio diagram, Hosking,
    JRSS-B 52, 1990): the target is inside exactly when ``t_0 < 0`` and
    ``q = t[1:] / t_0`` lies strictly inside the convex hull of the ``p_i``.
    For c = 3 that holds when the directions ``p_i - q`` leave no circular gap
    of pi or more.  Other rows get no certificate, and the answer is True.
    """
    k0, target = problem.kmat[:, 0], problem.target
    if problem.divergence.a_phi < 0.0 or target.size > 3 or not (k0 < 0.0).all():
        return True
    if not target[0] < 0.0:
        return False
    q, p = target[1:] / target[0], problem.kmat[:, 1:] / k0[:, None]
    if target.size < 3:     # the hull is an interval, or for c = 1 a point in R^0
        return bool(np.all(p.min(axis=0) < q) and np.all(q < p.max(axis=0)))
    d = p - q
    d = d[(d != 0.0).any(axis=1)]
    angles = np.sort(np.arctan2(d[:, 1], d[:, 0]))
    return bool(np.diff(angles, append=angles[0] + 2.0 * np.pi).max() < np.pi)


def chi2_value_closed_form(
    sample: SortedSample, constraint_values, target
) -> tuple[float, np.ndarray]:
    """Exact chi-square dual optimum at one target, by its own Cholesky solve.

    The conjugate is quadratic, so the maximizer solves Omega xi = target - m_n.
    """
    problem = make_dual_problem(sample, constraint_values, CHI2, target)
    omega, resid = omega_empirical(problem), problem.target - problem.m_n
    require_finite(omega, resid)
    try:
        xi = _cho_solve(np.linalg.cholesky(omega), resid)
    except np.linalg.LinAlgError:
        raise SingularConstraintError("empirical second-moment matrix is singular")
    return 0.5 * float(resid @ xi), xi


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
    rhs = b.T @ x - target
    require_finite(gram, rhs)
    try:
        mu = _cho_solve(np.linalg.cholesky(gram), rhs)
    except np.linalg.LinAlgError:
        raise SingularConstraintError("constraint rows are rank deficient")
    y = x - b @ mu
    cost = float(np.mean((x - y) ** 2))
    monotone = bool(np.all(np.diff(y) >= -1e-12))
    return cost, y, monotone
