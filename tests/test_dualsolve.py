import math

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
    SingularConstraintError,
    _ratio_test,
    chi2_value_closed_form,
    make_dual_problem,
    omega_empirical,
    solve_dual,
    spd_solve,
    substitute,
    target_in_cone,
    wasserstein_fit_inner,
)
from lmomdiv import dualsolve
from lmomdiv.lmoments import SortedSample, sample_lmoments_v
from lmomdiv.models import model_by_name
from lmomdiv.poly import PolyBasis
from lmomdiv.sim import ScenarioConfig, draw_sample

from oracles import (
    cone_witness,
    duality_certificate,
    primal_bruteforce,
    ratio_test_masked,
    spd_solve_zip,
    substitute_zip,
)

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
    assert not target_in_cone(prob)
    assert cone_witness(prob) is None
    statuses = {solve_dual(prob).status for _ in range(3)}
    assert statuses == {"infeasibleDirection"}


def test_cone_witness_reaches_the_target():
    s = random_sample(2)
    basis = PolyBasis((2, 3))
    target = perturbed_target(s, (2, 3), (1.3, 0.6))
    prob = make_dual_problem(s, basis, KLM, target)
    assert target_in_cone(prob)
    witness = cone_witness(prob)
    assert np.all(witness > 0.0)
    assert np.allclose(prob.kmat.T @ witness, target, rtol=1e-9, atol=1e-12)


def test_cone_test_needs_its_row_conditions():
    # chi-square admits negative spacings, and four rows are past the ratio
    # test: neither case certifies a target outside the cone
    s = random_sample(1)
    assert target_in_cone(make_dual_problem(s, PolyBasis((2, 3)), CHI2, np.array([0.5, 0.0])))
    four = make_dual_problem(s, PolyBasis((2, 3, 4, 5)), KLM, np.array([0.5, 0.0, 0.0, 0.0]))
    assert target_in_cone(four)
    assert cone_witness(four) is None


@pytest.mark.parametrize("name", ["gpd-l234", "orderstat3"])
def test_power_cone_above_gamma_one_is_closed(name):
    # the rows of the last node, as a target, are reached by that node's mass
    # alone: on the boundary of the cone, outside the open cone of KLM's
    # positive spacings, inside the closed one of a power divergence with
    # gamma > 1, whose conjugate gives zero mass left of its kink.  The
    # gamma = 3 solve converges to that one mass; a target outside the closed
    # cone leaves the dual unbounded, and its solve is infeasibleDirection
    sample, rows = draw_sample(ScenarioConfig.preset(1, n=100, seed=0), 0), model_by_name(name).rows
    skeleton = make_dual_problem(sample, rows, power_divergence(3.0), 0.0)
    prob = skeleton.with_target(skeleton.kmat[-1])
    assert target_in_cone(prob)
    assert not target_in_cone(make_dual_problem(sample, rows, KLM, prob.target))
    sol = solve_dual(prob)
    assert sol.converged
    s, _, primal, dual = duality_certificate(prob, sol.xi)
    assert np.flatnonzero(s).tolist() == [s.size - 1]
    assert abs(primal - dual) <= 1e-9 * dual
    outside = skeleton.with_target(np.r_[0.5, np.zeros(rows.dim - 1)])
    assert not target_in_cone(outside)
    assert solve_dual(outside).status == "infeasibleDirection"


def _near_boundary_targets(problem, rng, count):
    """Targets whose ratio point lies within 2 % of the hull of the rows' ratio points.

    Each scales a point ``w`` between the extreme points of two nearby random
    directions by ``1 +- 0.001..0.02`` about the ratio points' centroid.
    """
    p = problem.kmat[:, 1:] / problem.kmat[:, :1]
    centre = p.mean(axis=0)
    out = []
    for _ in range(count):
        d = rng.standard_normal((2, p.shape[1]))
        d[1] = d[0] + 0.3 * d[1]
        w = rng.dirichlet((1.0, 1.0)) @ p[np.argmax(p @ d.T, axis=0)]
        push = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.001, 0.02)
        out.append(problem.m_n[0] * np.concatenate([[1.0], centre + push * (w - centre)]))
    return out


@pytest.mark.parametrize("name", ["gpd-l234", "weibull-l234", "orderstat3"])
def test_cone_test_matches_the_lp_oracle_near_the_hull_boundary(name):
    rows = model_by_name(name).constraint_values
    rng = np.random.default_rng(24)
    verdicts = []
    for n in (20, 60, 150, 400):
        sample = SortedSample(rng.pareto(2.5, n))
        skeleton = make_dual_problem(sample, rows, KLM, 0.0)
        for target in _near_boundary_targets(skeleton, rng, 50):
            prob = skeleton.with_target(target)
            verdicts.append((target_in_cone(prob), cone_witness(prob) is not None))
    assert len(verdicts) == 200
    assert [v for v in verdicts if v[0] != v[1]] == []
    assert 0 < sum(inside for inside, _ in verdicts) < len(verdicts)


#: targets at which a KLM solve of ``3 * default_rng(seed).weibull(nu, 1000)``
#: (``weibull-l234``) stopped short; a margin LP weighted by the spacings put
#: each outside the cone
_HEAVY_TAILED_TARGETS = [
    (0.05, 1, [-0.5408104928692844, -0.5396931579659714, -0.5380656645242279]),
    (0.05, 2, [-0.6948913965152761, -0.6934771202711847, -0.6914165779333177]),
    (0.08, 2, [-3.1178196562068727, 0.4308590758397909, -0.4325023608045042]),
    (0.1, 2, [-0.768519652373168, 0.10620359857153004, -0.10660865624935865]),
]


@pytest.mark.parametrize("nu, seed, target", _HEAVY_TAILED_TARGETS)
def test_cone_test_accepts_heavy_tailed_targets_inside_the_cone(nu, seed, target):
    # only the nodes with positive spacing enter the cone, so the sample's
    # scale does not matter
    x = 3.0 * np.random.default_rng(seed).weibull(nu, 1000)
    prob = make_dual_problem(SortedSample(x), model_by_name("weibull-l234").constraint_values,
                             KLM, target)
    assert target_in_cone(prob)
    assert cone_witness(prob) is not None


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
    assert fallback.evaluations == cold.evaluations + 1
    assert np.array_equal(fallback.xi, cold.xi)


def _same_bits(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("div", DIVS, ids=lambda d: f"{d.family}{d.gamma}")
def test_solution_weights_are_those_of_its_point(div):
    # the solve hands back psi' delta and psi'' delta of the xi it returns, so
    # a caller needs no second evaluation: cold, warm at the optimum and warm nearby
    for seed in range(3):
        s = random_sample(seed)
        prob = make_dual_problem(s, PolyBasis((2, 3, 4)), div,
                                 perturbed_target(s, (2, 3, 4), (1.2, 0.8, 1.1)))
        cold = solve_dual(prob)
        for sol in (cold, solve_dual(prob, xi0=cold.xi),
                    solve_dual(prob.with_target(prob.target * 1.01), xi0=cold.xi)):
            assert sol.converged
            assert _same_bits(sol.weights, prob.evaluate(sol.xi)[1:])


@pytest.mark.parametrize("div", DIVS, ids=lambda d: f"{d.family}{d.gamma}")
def test_solution_value_is_that_of_its_point(div):
    # a converged solve takes its last full step and reports the objective
    # there, so value, xi and weights belong to one point: cold, warm at the
    # optimum and warm nearby
    for seed in range(3):
        s = random_sample(seed)
        prob = make_dual_problem(s, PolyBasis((2, 3, 4)), div,
                                 perturbed_target(s, (2, 3, 4), (1.2, 0.8, 1.1)))
        cold, near = solve_dual(prob), prob.with_target(prob.target * 1.01)
        for problem, sol in ((prob, cold), (prob, solve_dual(prob, xi0=cold.xi)),
                             (near, solve_dual(near, xi0=cold.xi))):
            assert sol.converged
            assert float(sol.value).hex() == float(problem.evaluate(sol.xi)[0]).hex()


def test_a_converged_step_the_conjugate_rejects_keeps_the_old_point(monkeypatch):
    # the last full step of a converged solve is taken exactly where the
    # conjugate's one domain check passes; here that check is made to fail
    s = random_sample(3)
    prob = make_dual_problem(s, PolyBasis((2, 3)), KLM, perturbed_target(s, (2, 3), (1.2, 0.8)))
    calls, conjugate = [], DivergenceSpec.conjugate

    def counted(self, z):
        calls.append(np.array(z))
        return conjugate(self, z)

    monkeypatch.setattr(DivergenceSpec, "conjugate", counted)
    taken = solve_dual(prob)
    assert taken.converged and len(calls) == taken.evaluations + 1
    assert np.array_equal(prob.kmat @ taken.xi, calls[-1])
    last, calls[:] = len(calls), []

    def rejects_the_last(self, z):
        calls.append(np.array(z))
        if len(calls) == last:
            raise ConjugateDomainError("rejected")
        return conjugate(self, z)

    monkeypatch.setattr(DivergenceSpec, "conjugate", rejects_the_last)
    kept = solve_dual(prob)
    assert kept.converged and kept.value == taken.value
    assert not np.array_equal(kept.xi, taken.xi)
    assert np.array_equal(prob.kmat @ kept.xi, calls[-2])
    monkeypatch.undo()
    value, *weights = prob.evaluate(kept.xi)
    assert float(kept.value).hex() == float(value).hex() and _same_bits(kept.weights, weights)


def test_conjugate_rejects_a_nan_node():
    # one domain check decides every step: a NaN node fails it, as a node past the edge does
    for div in DIVS:
        with pytest.raises(ConjugateDomainError):
            div.conjugate(np.array([0.1, np.nan]))
        with pytest.raises(ConjugateDomainError):
            div.conjugate(np.nan)


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


def _same_problem(a: DualProblem, b: DualProblem) -> bool:
    return (a.divergence == b.divergence and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.kmat, b.kmat), (a.delta, b.delta), (a.target, b.target),
                     (a.m_n, b.m_n))))


@pytest.mark.parametrize("model_name", ["gpd-l234", "weibull-l234"])
def test_make_dual_problem_from_the_node_table_is_the_row_callable(model_name):
    # a PolyBasis reads its rows from the cached node table; the row callable
    # model.constraint_values gives the same problem, bit for bit, with all
    # spacings positive and with ties masking rows
    model = model_by_name(model_name)
    target = np.array([-1.0, -0.2, -0.1])
    for data in (random_sample(3, 40).values, np.round(random_sample(4, 40).values, 1)):
        sample = SortedSample(data)
        via_table = make_dual_problem(sample, model.rows, KLM, target)
        via_callable = make_dual_problem(sample, model.constraint_values, KLM, target)
        assert _same_problem(via_table, via_callable)
        assert via_table.kmat.flags.c_contiguous
        assert via_table.kmat.flags.writeable == bool((sample.spacings == 0.0).any())
    # orders that are not all of the table's columns: a copy of the columns, its own rank
    sample, basis = random_sample(5, 20), PolyBasis((2, 4))
    assert _same_problem(make_dual_problem(sample, basis, CHI2, target[:2]),
                         make_dual_problem(sample, basis.constraint_vector, CHI2, target[:2]))


@pytest.mark.parametrize("rows", ["table", "callable"])
def test_ties_leaving_fewer_positive_spacings_than_rows_are_singular(rows):
    # two positive spacings cannot carry three rows: the rank of the masked
    # rows is computed afresh, not taken from the full table's rank 3
    sample = SortedSample([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    model = model_by_name("gpd-l234")
    values = model.rows if rows == "table" else model.constraint_values
    with pytest.raises(SingularConstraintError, match="rank 2 < 3 on 2 positive-spacing"):
        make_dual_problem(sample, values, CHI2, np.zeros(3))


def _spd(rng, c, cond):
    """A c x c symmetric positive definite matrix with eigenvalues from 1 down to 1 / cond."""
    q = np.linalg.qr(rng.normal(size=(c, c)))[0]
    return (q * np.geomspace(1.0, 1.0 / cond, c)) @ q.T


@pytest.mark.parametrize("c", [1, 2, 3, 4, 19])
@pytest.mark.parametrize("cond", [1e2, 1e12])
def test_spd_solve_matches_numpy(c, cond):
    # forward error within 16 c eps cond(a) of np.linalg.solve's, and a
    # backward error (residual) of 16 c eps |a| |x|, whatever the condition
    eps = np.finfo(float).eps
    rng = np.random.default_rng([c, int(np.log10(cond))])
    for _ in range(20):
        a = _spd(rng, c, cond)
        a = 0.5 * (a + a.T)
        rhs = rng.normal(size=(3, c))
        sol = spd_solve(a.tolist(), *rhs.tolist())
        assert sol is not None and len(sol) == 3
        assert all(type(v) is float for x in sol for v in x)
        low = np.linalg.cholesky(a)
        for x, b in zip(np.array(sol), rhs):
            ref = np.linalg.solve(low.T, np.linalg.solve(low, b))
            scale = np.abs(ref).max()
            assert np.abs(x - ref).max() <= 16.0 * c * eps * np.linalg.cond(a) * scale
            assert np.abs(a @ x - b).max() <= 16.0 * c * eps * np.abs(a).max() * np.abs(x).max()


@pytest.mark.parametrize("a", [
    [[1.0, 2.0], [2.0, 1.0]],                         # indefinite
    [[-1.0]],
    [[1.0, 1.0], [1.0, 1.0]],                         # singular: the second pivot is 0
    [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [np.inf, 1.0]],
])
def test_spd_solve_returns_none_without_a_factor(a):
    assert spd_solve(a, [1.0] * len(a)) is None
    assert spd_solve_zip(a, [1.0] * len(a)) is None


def _hex(rows):
    return [[float(v).hex() for v in row] for row in rows]


@pytest.mark.parametrize("c", range(1, 20))
def test_spd_solve_is_the_zip_form_bit_for_bit(c):
    # the index loops make the float operations of the zip sums, in their order
    rng = np.random.default_rng([c, 7])
    for cond in (1e1, 1e6, 1e12, 1e15):
        a = _spd(rng, c, cond)
        a = (0.5 * (a + a.T)).tolist()
        for k in (1, 2, 3):
            rhs = (rng.normal(size=(k, c)) * 10.0 ** rng.integers(-3, 4, size=(k, c))).tolist()
            got, want = spd_solve(a, *rhs), spd_solve_zip(a, *rhs)
            assert got is not None and _hex(got) == _hex(want)


@pytest.mark.parametrize("c", [1, 2, 3, 5, 19])
def test_substitute_is_the_zip_form_bit_for_bit(c):
    # on floats, and on numpy rows (the chi-square scan's k right-hand sides),
    # whose input rows are left unchanged
    rng = np.random.default_rng([c, 8])
    low = np.linalg.cholesky(_spd(rng, c, 1e8)).tolist()
    b, rows = rng.normal(size=c).tolist(), rng.normal(size=(c, 7))
    kept = rows.copy()
    for transpose in (False, True):
        assert _hex([substitute(low, b, transpose)]) == _hex([substitute_zip(low, b, transpose)])
        got, want = substitute(low, rows, transpose), substitute_zip(low, rows, transpose)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert rows.tobytes() == kept.tobytes()


def _tied_rising_nodes():
    """(z, dz) of two nodes below the edge 1 whose dz / (1 - z) are one float and whose
    (1 - z) / dz are two, the larger first."""
    z0, d0 = 0.75, 0.3
    q0, r0 = d0 / (1.0 - z0), (1.0 - z0) / d0
    for k in range(1, 200):
        z1 = z0 + k * 2.0 ** -53
        for j in range(-200, 200):
            d1 = d0 + j * 2.0 ** -54
            if d1 / (1.0 - z1) == q0 and (1.0 - z1) / d1 != r0:
                pair = sorted([(z0, d0), (z1, d1)], key=lambda p: -(1.0 - p[0]) / p[1])
                return np.array([p[0] for p in pair]), np.array([p[1] for p in pair])
    raise AssertionError("no tied pair found")


def _ratio_cases():
    rng = np.random.default_rng(11)
    edge = np.nextafter(1.0, 0.0)
    for _ in range(300):       # nodes below the KLM edge 1 and the KL edge
        m = int(rng.integers(1, 40))
        for hi in (1.0, KL.psi_domain[1]):
            z = hi - np.exp(rng.normal(scale=4.0, size=m))
            yield z, rng.normal(size=m) * np.exp(rng.normal(scale=3.0, size=m)), hi
    z, dz = _tied_rising_nodes()
    for order in (slice(None), slice(None, None, -1)):
        yield np.concatenate([[0.0], z[order], [0.9]]), np.concatenate([[-1.0], dz[order], [0.01]]), 1.0
    yield np.array([0.2, -3.0]), np.array([-1.0, 0.0]), 1.0                  # no rising node
    yield np.array([0.2, edge]), np.array([1.0, 1e-300]), 1.0                # a node 1 ulp below the edge
    yield np.array([0.2, edge, edge]), np.array([1.0, 1e10, 1e10]), 1.0      # tied there
    yield np.array([0.2, 0.5, 0.1]), np.array([0.5, np.nan, 2.0]), 1.0       # a NaN direction
    yield np.array([0.2, 0.5]), np.array([np.nan, -1.0]), 1.0                # and no rising node
    yield np.array([0.2, 0.5]), np.array([0.5, np.inf]), 1.0
    yield np.array([0.2, 0.5]), np.array([0.5, 3.0]), np.inf                 # no edge


def test_ratio_test_is_the_masked_minimum_bit_for_bit():
    # the largest dz / (hi - z) names the parent's minimum of (hi - z) / dz over
    # the rising nodes, ties in rounding and NaN directions included
    z, dz = _tied_rising_nodes()       # the first of the tied nodes is not the minimum
    assert dz[0] / (1.0 - z[0]) == dz[1] / (1.0 - z[1])
    assert (1.0 - z[0]) / dz[0] > (1.0 - z[1]) / dz[1] and 0.99 * (1.0 - z[1]) / dz[1] < 1.0
    for z, dz, hi in _ratio_cases():
        zk, dzk = z.copy(), dz.copy()
        assert _ratio_test(z, dz, hi).hex() == ratio_test_masked(z, dz, hi).hex()
        assert z.tobytes() == zk.tobytes() and dz.tobytes() == dzk.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_newton_step_on_a_non_finite_gradient_raises(bad):
    with pytest.raises(ValueError, match="infs or NaNs"):
        dualsolve._newton_step([[2.0, 0.0], [0.0, 1.0]], [1.0, bad])


def test_singular_newton_system_reaches_the_shift_loop(monkeypatch):
    # psi'' zeroed at every node makes -H the zero matrix: the kernel finds no
    # factor, and the step is taken on -H + reg I with reg = 1e-12, not raised
    s = random_sample(0)
    problem = make_dual_problem(s, PolyBasis((2, 3, 4)), KL, perturbed_target(s, (2, 3, 4),
                                                                               (1.1, 0.9, 1.0)))
    evaluate, calls = DualProblem.evaluate, []

    def flat(self, xi, z=None):
        value, w1, w2 = evaluate(self, xi, z)
        return value, w1, np.zeros_like(w2)

    def recording(a, *rhs):
        calls.append((a, spd_solve(a, *rhs)))
        return calls[-1][1]

    monkeypatch.setattr(DualProblem, "evaluate", flat)
    monkeypatch.setattr(dualsolve, "spd_solve", recording)
    sol = solve_dual(problem)
    assert sol.evaluations > 1
    assert calls[0][1] is None and calls[0][0] == [[0.0] * 3] * 3
    assert calls[1][1] is not None and calls[1][0] == (1e-12 * np.eye(3)).tolist()
