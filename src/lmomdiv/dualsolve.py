"""Inner convex solve: the concave dual over multipliers for a fixed target.

``make_dual_problem`` is the one builder of the constraint rows at the nodes
i/n and of m_n, and alone decides their rank; the Newton solve and the
chi-square dual (closed form in Omega) both read its ``DualProblem``.  A
``PolyBasis`` takes its rows from the cached node table of the sample size,
which the sample L-moments and the transport variant read too; any other
row map is evaluated.  Zero spacings carry no mass, so they are excluded
from all sums and impose no domain constraint at their nodes.

``solve_dual`` is damped Newton ascent.  Its line search starts at the
largest step that keeps the nodes ``kmat @ xi`` inside the conjugate's
domain (a ratio test against the domain edge, Boyd & Vandenberghe, Convex
Optimization, 9.5-9.6), so a barrier-type conjugate such as the modified
KL's ``-log(1 - z)`` costs a few evaluations per solve, not a cascade of
halvings.  Each point, a converged solve's last full step included, is one
conjugate evaluation (``DualProblem.evaluate``), one domain check of its
nodes; the solver makes no domain test of its own, and hands back the
weights ``psi' delta`` and ``psi'' delta`` of the point it returns.
A caller solving nearby targets passes starts as ``xi0``; the solve takes the
one with the highest objective, or zero where the conjugate rejects them all.
The solve stops when its Newton decrement (B&V 9.5.1) reaches ``rounding_level``,
below which no step can show an ascent; the estimator's certificate uses that
level too.
A solve that stops short of optimality is checked by ``target_in_cone``: a
target that no positive spacing vector reaches makes the dual unbounded and
is reported as ``infeasibleDirection``; anything else is a failure of the
solve.  That test is a convex-hull test in L-moment-ratio space; it needs no
LP and no solve.

Every c x c system of the solve layers is solved in Python floats by
``spd_solve``; only products over the m nodes run in numpy, and with m in the
hundreds their number, not their arithmetic, sets a solve's cost.  A solve
takes one transposed view of the rows, forms matrix-vector products by
``ndarray.dot`` (the BLAS product of ``@``, with less dispatch) and makes four
array calls per ratio test, each floating-point operation in the order of the
earlier forms kept in ``tests/oracles.py``.  The chi-square closed form keeps
LAPACK's factor of Omega, by which the chi-square fit whitens.
"""

from __future__ import annotations

import math
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
    raising; every system the package solves by ``np.linalg`` is checked here
    first (``spd_solve`` finds no factor of such a matrix instead).
    """
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("linear system contains infs or NaNs")


def spd_solve(a, *rhs) -> list[list[float]] | None:
    """``a^-1 b`` for each ``b`` of ``rhs``, ``a`` symmetric positive definite, in floats.

    ``a`` is c x c and each ``b`` has c entries, as sequences of floats; the
    lower triangle of ``a`` is read.  One Cholesky factorization ``a = L L^T``
    and per ``b`` the two substitutions of ``substitute`` (Golub & Van Loan,
    Matrix Computations, 4.2), index loops with no array call: the systems of
    the package are c x c with c at most 19, where numpy's per-call cost
    exceeds the arithmetic.  None when a pivot is not positive and finite:
    ``a`` is not positive definite in floating point, or holds an inf or NaN.
    """
    low = []
    for i, row in enumerate(a):
        li = []
        for j in range(i):
            lj, s = low[j], row[j]
            for k in range(j):
                s -= li[k] * lj[k]
            li.append(s / lj[j])
        s = row[i]
        for v in li:
            s -= v * v
        if not 0.0 < s < math.inf:
            return None
        li.append(math.sqrt(s))
        low.append(li)
    return [substitute(low, substitute(low, b), transpose=True) for b in rhs]


def substitute(low, b, transpose: bool = False) -> list:
    """``L^-1 b``, or ``L^-T b`` with ``transpose``, by forward or back substitution.

    ``low`` holds the rows of the lower-triangular L, as float sequences
    whose entries past the diagonal are not read (``spd_solve``'s, or the
    ``tolist()`` of LAPACK's factor).  The c entries of ``b`` are floats, or
    numpy rows that carry k right-hand sides through the same operations, so
    entry j of each row of the result is bit for bit the float result for
    the j-th right-hand side.
    """
    x = list(b)
    if transpose:
        for i in range(len(x) - 1, -1, -1):
            li = low[i]
            xi = x[i] = x[i] / li[i]
            for k in range(i):
                x[k] = x[k] - li[k] * xi
        return x
    for i in range(len(x)):
        li, s = low[i], x[i]
        for k in range(i):
            s = s - li[k] * x[k]
        x[i] = s / li[i]
    return x


def fdot(a, b) -> float:
    """``a . b`` of two float sequences, summed in order from 0.0; numpy rows sum elementwise."""
    s = 0.0
    for u, v in zip(a, b):
        s += u * v
    return s


@dataclass(frozen=True, eq=False)
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
        return DualProblem(self.kmat, self.delta, np.asarray(target, dtype=float),
                           self.divergence, self.m_n)

    def evaluate(self, xi, z=None) -> tuple[float, np.ndarray, np.ndarray]:
        """(objective, psi'(z) delta, psi''(z) delta) at ``xi`` from one conjugate evaluation.

        The conjugate checks its domain at the nodes ``z = kmat @ xi``, which a caller
        holding them passes; ``objective``, ``gradient`` and ``hessian`` are its views.
        """
        delta = self.delta
        psi, d1, d2 = self.divergence.conjugate(self.kmat.dot(xi) if z is None else z)
        return float(self.target.dot(xi)) - float(psi.dot(delta)), d1 * delta, d2 * delta

    def objective(self, xi, z=None) -> float:
        return self.evaluate(xi, z)[0]

    def gradient(self, xi, z=None) -> np.ndarray:
        return self.target - self.kmat.T.dot(self.evaluate(xi, z)[1])

    def hessian(self, xi, z=None) -> np.ndarray:
        return -self.curvature(self.evaluate(xi, z)[2])

    def curvature(self, w2) -> np.ndarray:
        """The negative Hessian ``kmat^T diag(w2) kmat`` from ``w2 = psi''(z) delta``."""
        return (self.kmat.T * w2).dot(self.kmat)


@dataclass(frozen=True, eq=False)
class DualSolution:
    xi: np.ndarray
    value: float               # the objective at xi
    iterations: int            # Newton steps taken
    evaluations: int           # objective evaluations, the starts' included
    status: str                # one of SOLVE_STATUSES
    weights: tuple             # (psi'(z) delta, psi''(z) delta) at xi, as ``evaluate`` gives

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

    A ``PolyBasis`` reads its rows from the cached node table
    (``PolyBasis.at_nodes``).  Raises ``SingularConstraintError`` when the rows
    are rank deficient.
    """
    n, delta = sample.n, sample.spacings
    if isinstance(constraint_values, PolyBasis):
        kmat = constraint_values.at_nodes(n)
        # row r is u(1 - u) times a polynomial of degree r - 2, the degrees all distinct
        # (Hosking, JRSS-B 52, 1990): a nonzero combination of the rows has at most
        # max(orders) - 2 roots in (0, 1), so n - 1 >= max(orders) - 1 nodes give full rank
        full_rank = n >= max(constraint_values.orders)
    else:
        kmat, full_rank = np.atleast_2d(constraint_values(np.arange(1, n) / n)), False
    mask = delta > 0.0
    if not mask.all():      # masked rows, like fewer nodes and callable rows, take the SVD
        kmat, delta, full_rank = kmat[mask], delta[mask], False
    if not full_rank and (rank := np.linalg.matrix_rank(kmat)) < kmat.shape[1]:
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
    ``xi`` and ``target`` are float sequences, summed in floats.
    """
    sums = abs_sum = 0.0
    for x, t in zip(xi, target):
        abs_sum += abs(x) * abs(t)
        sums += x * t
    return 16.0 * 2.0 ** -52 * m ** 0.5 * (abs_sum + abs(sums - value))


def residual_ratio(kt, w1, target, grad, m: int) -> float:
    """Largest ``|grad| / (16 eps sqrt(m) (|kt| @ |w1| + |target|))``, ``grad = target - kt @ w1``.

    At most 1 where each mass residual is within the rounding of its own sums; a
    zero bound has a zero residual, as both that entry of ``kt @ w1`` and the target are 0.
    """
    bound, unit = np.abs(kt).dot(np.abs(w1)).tolist(), 16.0 * 2.0 ** -52 * m ** 0.5
    return max(abs(g) / (unit * (b + abs(t))) if g else 0.0 for g, b, t in zip(grad, bound, target))


def _ratio_test(z, dz, hi: float) -> float:
    """min(1, 0.99 * the step at which z + t * dz first reaches a finite upper domain edge).

    The first edge is that of the rising node with the largest ``dz / (hi - z)``:
    division rounds monotonically, so where that quotient is strictly the largest
    the node's own ``(hi - z) / dz`` is the smallest over the rising nodes.  Only
    a tie at the largest quotient, or a NaN, takes the minimum over a mask.
    """
    if hi == math.inf:
        return 1.0
    q = dz / (hi - z)               # hi - z > 0: z lies inside the domain
    i = q.argmax()                  # a NaN, if any, is the argmax
    top = q[i]
    if top == top:
        if not top > 0.0:           # no rising node
            return 1.0
        q[i] = -math.inf
        if q[q.argmax()] < top:
            return min(1.0, _EDGE_FRACTION * ((hi - float(z[i])) / float(dz[i])))
    if (up := dz > 0.0).any():
        return min(1.0, _EDGE_FRACTION * float(((hi - z[up]) / dz[up]).min()))
    return 1.0


def _newton_step(neg_h: list, grad: list) -> list[float]:
    """``(-H)^-1 g`` by ``spd_solve``, shifting ``-H`` by ``reg I`` until it factors.

    ``reg`` doubles from 1e-12.  A system holding an inf or NaN raises
    ``ValueError``; an inf or NaN in ``-H`` always fails the factorization, so
    ``-H`` is checked only then, before the shifts begin.
    """
    if not all(map(math.isfinite, grad)):
        raise ValueError("linear system contains infs or NaNs")
    step = spd_solve(neg_h, grad)
    if step is None and not all(all(map(math.isfinite, row)) for row in neg_h):
        raise ValueError("linear system contains infs or NaNs")
    reg = 0.0
    while step is None:
        reg = max(2.0 * reg, 1e-12)
        step = spd_solve([[v + reg if i == j else v for j, v in enumerate(row)]
                          for i, row in enumerate(neg_h)], grad)
    return step[0]


def solve_dual(problem: DualProblem, xi0=None) -> DualSolution:
    """Damped Newton ascent with a ratio-test line search.

    ``xi0`` is one start or an array of them: the solve starts at the one with
    the highest objective among those with nodes inside the conjugate's domain,
    or at zero.  ``evaluations`` counts the distinct starts and the line-search candidates;
    a line search whose step rounds back to ``xi`` ends there, ``stalled``.
    Converged means a Newton decrement ``g (-H)^-1 g`` at most ``rounding_level`` within
    ``_MAX_NEWTON_ITER`` steps; the full step is then evaluated, uncounted, if the ratio
    test allows all of it, and taken if the conjugate accepts its nodes (z + dz carries
    rounding).  ``value`` and ``weights`` are always those of the returned ``xi``.  A
    solve that stops short of that runs ``target_in_cone``: outside the cone the status
    is ``infeasibleDirection``, inside it (or for rows that test does not cover) the
    solve failed (``maxIter`` or ``stalled``) and its value is only a lower bound.  The
    c x c Newton system is solved by ``spd_solve`` and its decrement and rounding level
    are float sums; only the m-node products run in numpy.
    """
    kmat, target = problem.kmat, problem.target
    kt = kmat.T                     # one transposed view per solve
    c, m, tgt = target.size, problem.delta.size, target.tolist()
    hi = problem.divergence.psi_domain[1]
    starts = {} if xi0 is None else {s.tobytes(): s for s in np.array(xi0, dtype=float, ndmin=2)}
    points = []
    for start in starts.values():       # equal starts: one evaluation
        with suppress(ConjugateDomainError):
            points.append((*problem.evaluate(start), start))
    # zero lies inside every conjugate's domain; the first of equal values wins
    value, w1, w2, xi = max(points, key=lambda p: p[0]) if points else (
        *problem.evaluate(np.zeros(c)), np.zeros(c))
    evaluations = len(starts) + (not points)
    z = kmat.dot(xi)                # the nodes of xi: z + t dz drifts from them by rounding
    failure = "maxIter"
    for it in range(_MAX_NEWTON_ITER + 1):
        if value > _UNBOUNDED_VALUE:
            failure = "stalled"
            break
        grad = (target - kt.dot(w1)).tolist()
        step = _newton_step(problem.curvature(w2).tolist(), grad)
        decrement = fdot(grad, step)
        step = np.array(step)
        dz = kmat.dot(step)
        t = _ratio_test(z, dz, hi)
        if decrement <= rounding_level(xi.tolist(), tgt, value, m):
            if t == 1.0:
                cand = xi + step
                with suppress(ConjugateDomainError):
                    value, w1, w2 = problem.evaluate(cand)
                    xi = cand
            return DualSolution(xi, value, it, evaluations, "converged", (w1, w2))
        if it == _MAX_NEWTON_ITER:
            break
        cand = xi + (step if t == 1.0 else t * step)      # 1.0 * step is step
        while t > 1e-16:
            evaluations += 1
            cand_z = kmat.dot(cand)
            try:
                cand_value, cand_w1, cand_w2 = problem.evaluate(cand, cand_z)
            except ConjugateDomainError:
                # only a node within rounding of the edge gets here
                cand_value = -math.inf
            if cand_value >= value + _ARMIJO * t * decrement:
                break
            t *= 0.5
            if ((cand := xi + t * step) == xi).all():     # and so every shorter step: stalled
                t = 0.0
        else:
            failure = "stalled"
            break
        xi, value, z, w1, w2 = cand, cand_value, cand_z, cand_w1, cand_w2
    status = failure if target_in_cone(problem) else "infeasibleDirection"
    return DualSolution(xi, value, it, evaluations, status, (w1, w2))


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
    of pi or more.  A power divergence with gamma > 1 allows zero spacings,
    ``s >= 0``: its cone and hull are closed, and a gap of exactly pi is
    inside.  Other rows get no certificate, and the answer is True.
    """
    k0, target, div = problem.kmat[:, 0], problem.target, problem.divergence
    if div.a_phi < 0.0 or target.size > 3 or not (k0 < 0.0).all():
        return True
    if not target[0] < 0.0:
        return False
    closed = div.family == "power" and div.gamma > 1.0
    below = np.less_equal if closed else np.less
    q, p = target[1:] / target[0], problem.kmat[:, 1:] / k0[:, None]
    if target.size < 3:     # the hull is an interval, or for c = 1 a point in R^0
        return bool(np.all(below(p.min(axis=0), q)) and np.all(below(q, p.max(axis=0))))
    d = p - q
    moved = (d != 0.0).any(axis=1)
    if closed and not moved.all():     # q is a node's own point
        return True
    angles = np.sort(np.arctan2(d[moved, 1], d[moved, 0]))
    return bool(below(np.diff(angles, append=angles[0] + 2.0 * np.pi).max(), np.pi))


def chi2_value_closed_form(
    sample: SortedSample, constraint_values, target
) -> tuple[float, np.ndarray]:
    """Exact chi-square dual optimum at one target, by its own Cholesky solve.

    The conjugate is quadratic, so the maximizer solves Omega xi = target - m_n.
    Omega is factored by LAPACK, as in the chi-square fit, not by ``spd_solve``:
    where Omega is ill-conditioned the value moves with the rounding of the
    factor (7e-8 relative between the two factors at condition number 5e11).
    """
    problem = make_dual_problem(sample, constraint_values, CHI2, target)
    omega, resid = omega_empirical(problem), problem.target - problem.m_n
    require_finite(omega, resid)
    try:
        low = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise SingularConstraintError("empirical second-moment matrix is singular")
    xi = np.linalg.solve(low.T, np.linalg.solve(low, resid))
    return 0.5 * float(resid @ xi), xi


def wasserstein_fit_inner(
    sample: SortedSample, basis: PolyBasis, target
) -> tuple[float, np.ndarray, bool]:
    """Constrained least-squares projection of the sample points.

    Minimizes the mean squared displacement of the order statistics subject
    to the linear constraints on the displaced spacings; this is the squared
    quadratic transport cost to the projected discrete measure.  Solved
    exactly through the KKT linear system.  Monotonicity of the output is
    not enforced; the returned flag is True when the solution is monotone.
    """
    target = np.asarray(target, dtype=float)
    x, zero = sample.values, np.zeros((1, basis.dim))      # every row vanishes at 0 and 1
    kfull = np.concatenate([zero, basis.at_nodes(sample.n), zero])  # (n+1, c)
    # sum_i K(i/n)(y_{i+1}-y_i) = sum_j y_j [K((j-1)/n) - K(j/n)]
    b = kfull[:-1] - kfull[1:]                           # (n, c)
    gram = b.T @ b                                       # (c, c)
    rhs = b.T @ x - target
    require_finite(gram, rhs)
    mu = spd_solve(gram.tolist(), rhs.tolist())
    if mu is None:
        raise SingularConstraintError("constraint rows are rank deficient")
    y = x - b @ mu[0]
    cost = float(np.mean((x - y) ** 2))
    monotone = bool(np.all(np.diff(y) >= -1e-12))
    return cost, y, monotone
