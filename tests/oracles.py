"""Test oracles: independent computations the library is checked against."""

import numpy as np

from lmomdiv.divergence import DivergenceSpec
from lmomdiv.dualsolve import cone_witness, make_dual_problem
from lmomdiv.lmoments import SortedSample


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
    s = cone_witness(problem)
    if s is None:
        raise ValueError("no strictly positive spacing vector satisfies the constraints")

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
