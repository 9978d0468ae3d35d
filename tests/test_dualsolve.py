import numpy as np
import pytest

from lmomdiv.divergence import (
    CHI2,
    KL,
    KLM,
    ConjugateDomainError,
    DivergenceSpec,
    power_divergence,
)
from lmomdiv.dualsolve import (
    DualProblem,
    chi2_value_closed_form,
    cone_witness,
    make_dual_problem,
    omega_empirical,
    solve_dual,
    wasserstein_fit_inner,
)
from lmomdiv.lmoments import SortedSample, sample_lmoments_v
from lmomdiv.poly import PolyBasis

from oracles import primal_bruteforce

DIVS = [CHI2, KL, KLM, power_divergence(0.5), power_divergence(3.0)]


def random_sample(seed, n=30):
    rng = np.random.default_rng(seed)
    return SortedSample(np.sort(rng.standard_gamma(2.0, size=n)))


def perturbed_target(sample, orders, bump):
    lm = sample_lmoments_v(sample, max(orders))
    return -np.array([lm[r] * b for r, b in zip(orders, bump)])


def test_empirical_moments_match_lmoments():
    # [DERIVED] the empirical constraint moments are minus the plug-in
    # L-moments of orders >= 2
    s = random_sample(0)
    basis = PolyBasis((2, 3, 4))
    m_n = make_dual_problem(s, basis, CHI2, 0.0).m_n
    lm = sample_lmoments_v(s, 4)
    assert np.allclose(m_n, [-lm[2], -lm[3], -lm[4]], atol=1e-12)


def test_two_point_closed_form():
    # [DERIVED] worked by hand: sample {0,1}, single order-2 constraint,
    # target -0.75 gives multiplier -8 and value 2
    basis = PolyBasis((2,))
    s = SortedSample(np.array([0.0, 1.0]))
    sol = solve_dual(make_dual_problem(s, basis, CHI2, np.array([-0.75])))
    assert sol.converged
    assert sol.xi[0] == pytest.approx(-8.0, abs=1e-8)
    assert sol.value == pytest.approx(2.0, abs=1e-9)
    value, xi = chi2_value_closed_form(s, basis, np.array([-0.75]))
    assert value == pytest.approx(2.0)
    assert xi[0] == pytest.approx(-8.0)


def test_value_zero_at_empirical_target():
    # at target m_n the empirical measure itself is optimal
    s = random_sample(1)
    basis = PolyBasis((2, 3))
    m_n = make_dual_problem(s, basis, CHI2, 0.0).m_n
    for div in DIVS:
        sol = solve_dual(make_dual_problem(s, basis, div, m_n))
        assert sol.converged
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.xi, 0.0, atol=1e-6)


@pytest.mark.parametrize("div", DIVS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_duality_gap(div, seed):
    s = random_sample(seed)
    basis = PolyBasis((2, 3))
    target = perturbed_target(s, (2, 3), (1.1, 0.9))
    sol = solve_dual(make_dual_problem(s, basis, div, target))
    assert sol.converged
    primal, _ = primal_bruteforce(s, basis, target, div)
    assert sol.value == pytest.approx(primal, abs=1e-6)


def test_gradient_matches_finite_differences():
    s = random_sample(2)
    basis = PolyBasis((2, 3, 4))
    target = perturbed_target(s, (2, 3, 4), (1.05, 0.95, 1.0))
    prob = make_dual_problem(s, basis, KL, target)
    xi = np.array([0.1, -0.2, 0.05])
    h = 1e-6
    g = prob.gradient(xi)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (prob.objective(xi + e) - prob.objective(xi - e)) / (2 * h)
        assert g[k] == pytest.approx(fd, abs=1e-7)
    hess = prob.hessian(xi)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (prob.gradient(xi + e) - prob.gradient(xi - e)) / (2 * h)
        assert np.allclose(hess[:, k], fd, atol=1e-6)


def test_hessian_negative_semidefinite():
    s = random_sample(3)
    basis = PolyBasis((2, 3))
    prob = make_dual_problem(s, basis, CHI2, np.zeros(2))
    evals = np.linalg.eigvalsh(prob.hessian(np.zeros(2)))
    assert np.all(evals <= 1e-12)


def test_chi2_newton_is_one_step():
    # quadratic dual: Newton from zero lands on the optimum immediately
    s = random_sample(4)
    basis = PolyBasis((2, 3, 4))
    target = perturbed_target(s, (2, 3, 4), (1.2, 0.8, 1.1))
    sol = solve_dual(make_dual_problem(s, basis, CHI2, target))
    assert sol.iterations <= 2
    value, xi = chi2_value_closed_form(s, basis, target)
    assert sol.value == pytest.approx(value, rel=1e-10)
    assert np.allclose(sol.xi, xi, atol=1e-8)


def test_location_invariance():
    # spacings drive everything: shifting the sample leaves the inner
    # problem untouched
    s = random_sample(5)
    t = s.shifted(11.0)
    basis = PolyBasis((2, 3))
    target = perturbed_target(s, (2, 3), (1.1, 1.0))
    a = solve_dual(make_dual_problem(s, basis, KLM, target))
    b = solve_dual(make_dual_problem(t, basis, KLM, target))
    # spacings of the shifted sample agree up to one rounding ulp
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert np.allclose(a.xi, b.xi, rtol=1e-10)


def test_solution_continuity_in_target():
    s = random_sample(6)
    basis = PolyBasis((2, 3))
    base = perturbed_target(s, (2, 3), (1.1, 0.9))
    sol0 = solve_dual(make_dual_problem(s, basis, KL, base))
    for eps in (1e-5, 1e-6):
        sol1 = solve_dual(make_dual_problem(s, basis, KL, base + eps))
        assert np.linalg.norm(sol1.xi - sol0.xi) < 1e3 * eps


def test_stationarity_of_reconstructed_measure():
    # the optimal spacings from the primal satisfy the multiplier relation
    # s_i / delta_i = psi'(xi . K_i)
    s = random_sample(7, n=20)
    basis = PolyBasis((2, 3))
    target = perturbed_target(s, (2, 3), (1.05, 0.9))
    sol = solve_dual(make_dual_problem(s, basis, KL, target))
    _, spacings = primal_bruteforce(s, basis, target, KL)
    u = np.arange(1, s.n) / s.n
    kmat = basis.constraint_vector(u)
    delta = s.spacings
    keep = delta > 0
    ratio = spacings[keep] / delta[keep]
    assert np.allclose(ratio, KL.psi_prime(kmat[keep] @ sol.xi), atol=1e-5)


def test_infeasible_direction_detected():
    # a target no nonnegative measure can reach sends the dual unbounded
    basis = PolyBasis((2,))
    s = SortedSample(np.array([0.0, 1.0]))
    sol = solve_dual(make_dual_problem(s, basis, KL, np.array([5.0])))
    assert sol.status == "infeasibleDirection"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_newton_system_raises(monkeypatch, bad):
    # np.linalg.cholesky returns NaNs or infs here without raising; the
    # solve must fail instead of taking a non-finite step
    s = random_sample(0)
    target = perturbed_target(s, (2, 3, 4), (1.1, 0.9, 1.0))
    problem = make_dual_problem(s, PolyBasis((2, 3, 4)), KL, target)
    evaluate = DualProblem.evaluate

    def poisoned(self, xi, z=None):
        value, w1, w2 = evaluate(self, xi, z)
        w2[0] = bad
        return value, w1, w2

    monkeypatch.setattr(DualProblem, "evaluate", poisoned)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_dual(problem)


def test_klm_step_past_the_domain_edge_needs_no_domain_error(monkeypatch):
    # the full Newton step from zero takes a node to z = 3.9, past the edge
    # z < 1; the ratio test shortens it before the conjugate is evaluated
    s = random_sample(0)
    basis = PolyBasis((2, 3))
    prob = make_dual_problem(s, basis, KLM, perturbed_target(s, (2, 3), (3.0, 1.0)))
    zero = np.zeros(2)
    full = np.linalg.solve(-prob.hessian(zero), prob.gradient(zero))
    assert np.max(prob.kmat @ full) > 1.0
    raised = []
    conjugate = DivergenceSpec.conjugate

    def recording_conjugate(self, t):
        try:
            return conjugate(self, t)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(DivergenceSpec, "conjugate", recording_conjugate)
    sol = solve_dual(prob)
    assert sol.converged
    assert raised == []
    assert sol.evaluations <= sol.iterations + 2


def test_klm_target_outside_the_cone_is_infeasible_every_time():
    # every order-2 row K_2(u) = -u(1 - u) is negative, so no positive
    # spacing vector reaches a positive first target component
    s = random_sample(1)
    basis = PolyBasis((2, 3))
    prob = make_dual_problem(s, basis, KLM, np.array([0.5, 0.0]))
    assert cone_witness(prob) is None
    statuses = {solve_dual(prob).status for _ in range(3)}
    assert statuses == {"infeasibleDirection"}


def test_cone_witness_reaches_the_target():
    s = random_sample(2)
    basis = PolyBasis((2, 3))
    target = perturbed_target(s, (2, 3), (1.3, 0.6))
    prob = make_dual_problem(s, basis, KLM, target)
    witness = cone_witness(prob)
    assert np.all(witness > 0.0)
    assert np.allclose(prob.kmat.T @ witness, target, rtol=1e-9, atol=1e-12)


def test_warm_start():
    s = random_sample(3)
    basis = PolyBasis((2, 3))
    prob = make_dual_problem(s, basis, KLM, perturbed_target(s, (2, 3), (1.2, 0.8)))
    cold = solve_dual(prob)
    again = solve_dual(prob, xi0=cold.xi)
    assert again.converged and again.iterations == 0 and again.evaluations == 1
    near = solve_dual(prob.with_target(prob.target * 1.01), xi0=cold.xi)
    assert near.converged and near.iterations < cold.iterations
    # a start whose nodes lie past the edge z < 1 falls back to zero
    outside = np.linalg.lstsq(prob.kmat, np.full(prob.delta.size, 2.0), rcond=None)[0]
    assert np.max(prob.kmat @ outside) >= 1.0
    fallback = solve_dual(prob, xi0=outside)
    assert fallback.iterations == cold.iterations
    assert np.array_equal(fallback.xi, cold.xi)


@pytest.mark.parametrize("div", [KLM, power_divergence(0.5)], ids=["klm", "power0.5"])
def test_dual_evaluations_raise_outside_the_domain(div):
    # the objective, gradient and Hessian each check their nodes, also when
    # only xi is given: past the edge KLM's psi' is finite and the power
    # form's base is negative, so neither would signal the fault itself
    s = random_sample(3)
    basis = PolyBasis((2, 3))
    prob = make_dual_problem(s, basis, div, perturbed_target(s, (2, 3), (1.2, 0.8)))
    outside = np.linalg.lstsq(prob.kmat, np.full(prob.delta.size, 3.0), rcond=None)[0]
    assert np.max(prob.kmat @ outside) >= div.psi_domain[1]
    for evaluate in (prob.objective, prob.gradient, prob.hessian):
        with pytest.raises(ConjugateDomainError):
            evaluate(outside)

def test_tied_observations_are_excluded():
    # zero spacings contribute nothing and impose no domain constraint
    s = SortedSample(np.array([1.0, 1.0, 2.0, 4.0]))
    basis = PolyBasis((2,))
    target = np.array([-0.5])
    sol = solve_dual(make_dual_problem(s, basis, KLM, target))
    assert sol.converged
    primal, spacings = primal_bruteforce(s, basis, target, KLM)
    assert sol.value == pytest.approx(primal, abs=1e-8)
    assert spacings[0] == 0.0


def test_omega_empirical_quadratic_form():
    # [DERIVED] two-point sample, order 2: K_2(1/2) = -1/4, spacing weight 1
    s = SortedSample(np.array([0.0, 1.0]))
    omega = omega_empirical(make_dual_problem(s, PolyBasis((2,)), CHI2, [0.0]))
    assert omega[0, 0] == pytest.approx(0.0625)
    # [DERIVED] tied sample {0, 1, 1, 3}, order 2: spacings 1, 0, 2 at the
    # nodes 1/4, 1/2, 3/4; K_2(1/4) = K_2(3/4) = -3/16 and the tied node
    # carries no weight, so Omega = (9/256)(1 + 2) and m_n = (-3/16)(1 + 2)
    s = SortedSample(np.array([0.0, 1.0, 1.0, 3.0]))
    prob = make_dual_problem(s, PolyBasis((2,)), CHI2, [0.0])
    assert prob.delta.tolist() == [1.0, 2.0]
    assert omega_empirical(prob)[0, 0] == pytest.approx(27.0 / 256.0, abs=1e-15)
    assert prob.m_n[0] == pytest.approx(-9.0 / 16.0, abs=1e-15)


def test_wasserstein_identity_at_empirical_target():
    s = random_sample(8, n=15)
    basis = PolyBasis((2, 3))
    m_n = make_dual_problem(s, basis, CHI2, 0.0).m_n
    cost, y, monotone = wasserstein_fit_inner(s, basis, m_n)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(y, s.values, atol=1e-7)
    assert monotone


def test_wasserstein_constraints_hold():
    s = random_sample(9, n=15)
    basis = PolyBasis((2, 3))
    target = perturbed_target(s, (2, 3), (1.3, 0.7))
    cost, y, _ = wasserstein_fit_inner(s, basis, target)
    assert cost > 0
    # the projected configuration satisfies the constraint equations
    n = s.n
    j = np.arange(1, n + 1)
    b = basis.constraint_vector((j - 1) / n) - basis.constraint_vector(j / n)
    assert np.allclose(b.T @ y, target, atol=1e-8)


def test_wasserstein_can_break_monotonicity():
    # a hard pull on the third-order constraint reorders the configuration;
    # the flag reports it rather than silently projecting
    s = SortedSample(np.linspace(0.0, 1.0, 6))
    basis = PolyBasis((2, 3))
    m_n = make_dual_problem(s, basis, CHI2, 0.0).m_n
    target = m_n + np.array([0.0, 5.0])
    _, y, monotone = wasserstein_fit_inner(s, basis, target)
    assert not monotone
    assert np.any(np.diff(y) < 0)
