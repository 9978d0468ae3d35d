import contextlib
import copy
import dataclasses
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import scipy.optimize

from lmomdiv import estimator
from lmomdiv.cli import main
from lmomdiv.divergence import CHI2, KL, KLM, DivergenceSpec, power_divergence
from lmomdiv.dualsolve import (
    chi2_value_closed_form,
    make_dual_problem,
    omega_empirical,
    rounding_level,
    solve_dual,
    substitute,
    target_in_cone,
)
from lmomdiv.estimator import (
    EstimationError,
    asymptotic_covariance,
    confidence_stat,
    fit_divergence,
    fit_lmoment_method_gpd,
    fit_mle_gpd,
    fit_moment_method_gpd,
)
from lmomdiv.lmoments import LmomentVector, SortedSample, lambda_covariance, sample_lmoments_v
from lmomdiv.models import (
    ParametricFamily,
    gpd_model,
    model_by_name,
    order_stat_model_3,
    weibull_model,
)
from lmomdiv.poly import PolyBasis
from lmomdiv.sim import ScenarioConfig, draw_sample, run_scenario
from oracles import (
    chi2_value_rational,
    duality_certificate,
    gpd_plugin_omega,
    gpd_plugin_sigma,
    primal_bruteforce,
    s_n_rational,
)


def grid_sample(fam, n):
    """Deterministic stand-in sample on the mid-point quantile grid."""
    u = (np.arange(n) + 0.5) / n
    return SortedSample(fam.quantile(u))


def mc_sample(fam, n, seed):
    return SortedSample(fam.sample(n, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# divergence fits


def test_fit_recovers_parameters_on_grid_sample():
    fam = ParametricFamily("gpd", 3.0, 0.4)
    s = grid_sample(fam, 2000)
    for div in (CHI2, KLM):
        report = fit_divergence(s, gpd_model(), div)
        assert np.allclose(report.theta, [3.0, 0.4], atol=0.05)
        assert report.criterion >= -1e-12
        # the truncated tail of the grid sample leaves a small residual
        assert report.criterion < 1e-3


def test_signed_zeros_and_ties_fit_the_same_in_any_order():
    # the sort need not be stable: for floats that only orders -0.0 against
    # 0.0, and no fit reads it.  Shuffles of a sample holding both signed
    # zeros and tied values fit as the sample with every zero made +0.0
    rng = np.random.default_rng(4)
    x = np.concatenate([[0.0, 0.0, -0.0, -0.0, -0.0], np.repeat(rng.exponential(3.0, 40), 2),
                        rng.exponential(3.0, 15)])
    fits = [(gpd_model(), CHI2), (gpd_model(), KLM), (weibull_model(), CHI2)]

    def results(data):
        sample = SortedSample(data)
        out = [fit_mle_gpd(sample)]
        for model, div in fits:
            report = fit_divergence(sample, model, div)
            out.append((report.theta.tolist(), report.criterion, report.xi.tolist()))
        return out

    expected = results(np.abs(x))
    for seed in range(4):
        shuffled = np.random.default_rng(seed).permutation(x)
        sample = SortedSample(shuffled)
        assert np.array_equal(sample.values, np.sort(shuffled, kind="stable"))
        assert results(shuffled) == expected, seed


def test_fit_report_contents():
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.2), 150, seed=0)
    report = fit_divergence(s, gpd_model(), CHI2)
    assert report.method == "divergence:chi2"
    assert report.param_names == ("sigma", "nu")
    assert report.xi.shape == (3,)
    assert set(report.diagnostics) == {"scan_minima", "refine_evaluations", "boundary"}
    d = report.to_dict()
    assert set(d["theta"]) == {"sigma", "nu"}
    # the profile search's fields are those of a fit that runs it
    klm = fit_divergence(s, gpd_model(), KLM)
    assert {"outer_iterations", "criterion_evaluations", "inner_failures", "outer_decrement",
            "boundary"} <= set(klm.diagnostics)


@pytest.mark.parametrize("div", [CHI2, KL, KLM], ids=lambda d: d.family)
def test_fit_shift_invariance(div):
    # the criterion, the L-scale the fit runs in and the start see only
    # spacings; on a dyadic grid the shift keeps every spacing's bits, so a
    # translated sample gives the same fit bit for bit
    x = mc_sample(ParametricFamily("gpd", 3.0, 0.3), 120, seed=1).values
    s = SortedSample(np.round(x * 2.0 ** 20) * 2.0 ** -20)
    t = s.shifted(250.0)
    assert np.array_equal(np.diff(t.values), s.spacings)
    a = fit_divergence(s, gpd_model(), div)
    b = fit_divergence(t, gpd_model(), div)
    assert np.array_equal(a.theta, b.theta)
    assert a.criterion == b.criterion


def test_fit_starts_from_lmoment_method():
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.3), 100, seed=2)
    report = fit_divergence(s, gpd_model(), KL)
    assert report.diagnostics["start"] == "lmoment"
    assert np.isfinite(report.criterion)
    weibull = fit_divergence(s, model_by_name("weibull-l234"), KL)
    assert weibull.diagnostics["start"] == "lmoment"


def test_outer_convergence_is_reported(monkeypatch):
    # a fit that returns has converged; a search cut after one Newton step
    # is an error, never an estimate
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.3), 100, seed=2)
    assert fit_divergence(s, gpd_model(), KL).diagnostics["outer_iterations"] > 1
    monkeypatch.setattr(estimator, "_MAX_SHAPE_STEPS", 1)
    with pytest.raises(EstimationError, match="did not converge in 1 steps"):
        fit_divergence(s, gpd_model(), KL)


def test_tied_sample_klm_fit_converges_quickly():
    # 50 ties plus 10 draws: from the box centre the KLM criterion is +inf
    # over the whole simplex; from the L-moment start the search converges
    draws = ParametricFamily("gpd", 3.0, 0.3).sample(10, np.random.default_rng(0))
    s = SortedSample(np.concatenate([np.ones(50), draws]))
    report = fit_divergence(s, gpd_model(), KLM)
    assert report.diagnostics["outer_iterations"] < 200
    assert np.allclose(report.theta, [0.17967014, 0.76425852], rtol=0.0, atol=1e-6)


def _nelder_mead_case(case):
    """(model, samples, start) of one case of the Nelder-Mead reference test."""
    if case == "many-zeros":
        # from the box centre Nelder-Mead ends in another local minimum on
        # the sigma edge (0.5031 at nu = -2.28); the reference is the search
        # the fit itself ran before, from the L-moment start
        model = gpd_model()
        sample = SortedSample(np.concatenate(
            [np.zeros(15), np.random.default_rng(0).exponential(size=5)]))
        start = estimator.lmoment_method_start(sample_lmoments_v(sample, 4), model)
        return model, [sample], start
    if case == "weibull":
        model = model_by_name("weibull-l234")
        sample = mc_sample(ParametricFamily("weibull", 2.0, 0.8), 100, seed=4)
        return model, [sample], model.box.mean(axis=1)
    model, config = gpd_model(), ScenarioConfig.preset(case, n=100)
    return model, [draw_sample(config, stream) for stream in (0, 1)], model.box.mean(axis=1)


@pytest.mark.parametrize("scenario", [1, 2, 3, 4, "many-zeros", "weibull"])
def test_box_centre_start_does_not_beat_the_fit(scenario):
    # the reference is a Nelder-Mead on the closed-form chi-square criterion,
    # from the box centre (the second start the fit once ran) or, on the
    # many-zeros sample, from the fit's own start
    model, samples, start = _nelder_mead_case(scenario)
    for sample in samples:
        if scenario == "many-zeros":
            # the chi-square minimum lies on the sigma edge 1e-3 s = 1.25e-4: no law of
            # the model, so the fit raises instead of reporting a boundary estimate
            with pytest.raises(EstimationError, match="sigma = 0.000125 lies on the edge"):
                fit_divergence(sample, model, CHI2)
            continue
        report = fit_divergence(sample, model, CHI2)
        ref = scipy.optimize.minimize(
            lambda th: chi2_value_closed_form(
                sample, model.constraint_values, model.target_map(np.clip(th, *model.box.T)))[0],
            start,
            method="Nelder-Mead", options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 2000},
        )
        assert ref.fun >= report.criterion * (1.0 - 1e-9)


def sim_klm_fit(scenario, stream):
    sample = draw_sample(ScenarioConfig.preset(scenario, n=100, seed=stream), 0)
    return fit_divergence(sample, gpd_model(), KLM)


def test_klm_scenario_fits_converge_in_few_evaluations():
    solves = evaluations = 0
    for scenario in (1, 2, 3, 4):
        for stream in range(8):
            diag = sim_klm_fit(scenario, stream).diagnostics
            status = diag["inner_status"]
            assert set(status) >= {"converged", "infeasibleDirection", "maxIter"}
            assert status["converged"] == sum(status.values()), (scenario, stream, status)
            assert diag["inner_failures"] == 0
            assert diag["inner_iterations"] > 0
            solves += status["converged"]
            evaluations += diag["inner_evaluations"]
    assert evaluations <= 15 * solves


def test_warm_started_fit_matches_cold_starts(monkeypatch):
    warm = [sim_klm_fit(scenario, 0).theta for scenario in (1, 2, 3, 4)]
    solve = estimator.solve_dual
    monkeypatch.setattr(estimator, "solve_dual", lambda problem, xi0=None: solve(problem))
    cold = [sim_klm_fit(scenario, 0).theta for scenario in (1, 2, 3, 4)]
    assert np.allclose(warm, cold, rtol=1e-6, atol=0.0)


def _profile_point_evaluations(monkeypatch, sample, model):
    """[(conjugate arguments, returned xi's nodes)] of each profile point of a KLM fit."""
    points, conjugate = [], DivergenceSpec.conjugate
    solve, call = estimator.solve_dual, estimator._Profile.__call__

    def counted(self, z):
        points[-1][0].append(np.asarray(z).tobytes())
        return conjugate(self, z)

    def solved(problem, xi0=None):
        sol = solve(problem, xi0=xi0)
        points[-1][1].append((problem.kmat @ sol.xi).tobytes())
        return sol

    def point(self, nu):
        points.append(([], []))
        return call(self, nu)

    monkeypatch.setattr(DivergenceSpec, "conjugate", counted)
    monkeypatch.setattr(estimator, "solve_dual", solved)
    monkeypatch.setattr(estimator._Profile, "__call__", point)
    with contextlib.suppress(EstimationError):
        fit_divergence(sample, model_by_name(model), KLM)
    monkeypatch.undo()
    return points


def test_no_profile_point_evaluates_a_multiplier_twice(monkeypatch):
    # a converged solve hands back the weights of its point, which the profile
    # reads instead of evaluating the conjugate there again
    points = _profile_point_evaluations(
        monkeypatch, draw_sample(ScenarioConfig.preset(1, n=100), 0), "gpd-l234")
    assert len(points) == 3
    for calls, _ in points:
        assert len(calls) == len(set(calls))
    # a heavy tail whose last full step the ratio test refuses at one point:
    # there too the point's multipliers are evaluated once
    x = 3.0 * np.random.default_rng(2).weibull(0.08, 200)
    points = _profile_point_evaluations(monkeypatch, SortedSample(x), "weibull-l234")
    assert len(points) > 10
    for calls, (returned,) in points:
        assert calls.count(returned) == 1


def test_unconverged_solve_during_the_search_counts_as_inf(monkeypatch):
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.3), 100, seed=2)
    model = gpd_model()
    profile = estimator._Profile(
        make_dual_problem(s, model.constraint_values, KLM, np.zeros(3)), model)
    point = profile(0.3)
    assert np.isfinite(point.value)
    solve = estimator.solve_dual
    monkeypatch.setattr(estimator, "solve_dual", lambda problem, xi0=None: dataclasses.replace(
        solve(problem, xi0=xi0), status="maxIter"))
    assert profile(0.3) is None
    assert profile.diagnostics["inner_failures"] == 1
    assert profile.diagnostics["inner_status"]["maxIter"] == 1
    # the failed solve is not a warm start for the next one
    assert len(profile.solved) == 1 and profile.solved[0][1] is point.xi


def test_outer_steps_rejected_for_a_failed_solve_are_counted(monkeypatch):
    # the start solves; every later solve ends in maxIter, so each halving of
    # the first step is rejected, and the fit is an error, not the start
    s = draw_sample(ScenarioConfig.preset(1, n=100), 0)
    solve, solves = estimator.solve_dual, []

    def fail_after_the_start(problem, xi0=None):
        solves.append(solve(problem, xi0=xi0))
        return solves[-1] if len(solves) == 1 else dataclasses.replace(
            solves[-1], status="maxIter")

    monkeypatch.setattr(estimator, "solve_dual", fail_after_the_start)
    with pytest.raises(EstimationError, match="failed at every halving") as exc:
        fit_divergence(s, gpd_model(), KLM)
    assert len(solves) > 2
    assert f"'converged': 1, 'infeasibleDirection': 0, 'maxIter': {len(solves) - 1}," in str(
        exc.value)


@pytest.fixture
def fail_every_inner_solve(monkeypatch):
    """Every inner solve ends in maxIter: at the L-moment start and at the chi-square one."""
    solve = estimator.solve_dual
    monkeypatch.setattr(estimator, "solve_dual", lambda problem, xi0=None: dataclasses.replace(
        solve(problem, xi0=xi0), status="maxIter"))


#: the error of a fit whose two inner solves, at its start and at the chi-square one, failed
_FAILED_EVERYWHERE = ("the inner solve failed at the start of the profile search: inner_status "
                      "{'converged': 0, 'infeasibleDirection': 0, 'maxIter': 2, 'stalled': 0}")


def test_inner_failure_everywhere_raises(fail_every_inner_solve):
    s = draw_sample(ScenarioConfig.preset(1, n=100), 0)
    with pytest.raises(EstimationError) as exc:
        fit_divergence(s, gpd_model(), KLM)
    assert str(exc.value) == _FAILED_EVERYWHERE


def test_inner_failure_everywhere_is_a_recorded_error(fail_every_inner_solve):
    out = run_scenario(ScenarioConfig.preset(1, n=100, replicates=1, estimators=("klm",)))
    assert out.records[0]["error"] == _FAILED_EVERYWHERE
    assert out.failures == {"klm": 1}


def test_inner_failure_everywhere_exits_3(fail_every_inner_solve, tmp_path, capsys):
    path = tmp_path / "x.csv"
    x = draw_sample(ScenarioConfig.preset(1, n=100), 0).values
    path.write_text("\n".join(map(repr, x.tolist())) + "\n")
    assert main(["fit", str(path), "--div", "klm", "--json"]) == 3
    assert _FAILED_EVERYWHERE in capsys.readouterr().err


def test_fit_small_sample_raises():
    s = SortedSample(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(EstimationError):
        fit_divergence(s, gpd_model(), CHI2)


def test_envelope_gradient_vanishes_at_optimum():
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.2), 400, seed=3)
    model = gpd_model()
    for div in (CHI2, KL, KLM):
        report = fit_divergence(s, model, div)
        assert not report.diagnostics["boundary"]
        g = -model.lmoment_jacobian(report.theta).T @ report.xi
        # scale-free comparison against the multiplier magnitude
        assert np.linalg.norm(g) < 1e-7 * (1.0 + np.linalg.norm(report.xi)), div.family


@pytest.mark.parametrize("div", [CHI2, KL, KLM], ids=lambda d: d.family)
def test_envelope_gradient_matches_finite_difference(div):
    # P' = sigma xi.t1', the envelope slope of the scale-profiled criterion
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.2), 200, seed=5)
    model = gpd_model()
    profile = estimator._Profile(
        make_dual_problem(s, model.constraint_values, div, np.zeros(3)), model)
    nu, h = 0.15, 1e-5 * 0.15
    slope = profile(nu).slope
    fd = (profile(nu + h).value - profile(nu - h).value) / (2.0 * h)
    assert slope == pytest.approx(fd, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("div", [CHI2, KL, KLM], ids=lambda d: d.family)
@pytest.mark.parametrize("model,family", [
    (gpd_model(), ParametricFamily("gpd", 3.0, 0.2)),
    (weibull_model(), ParametricFamily("weibull", 2.0, 0.8)),
], ids=["gpd", "weibull"])
def test_criterion_hessian_matches_gradient_differences(model, family, div):
    # P'' = sigma' xi.t1' + sigma (dxi.t1' + xi.t1'') is the derivative of the
    # envelope slope P', at the estimate and away from it; each point is
    # solved cold, by a profile of its own
    s = SortedSample(family.sample(200, np.random.default_rng(5)))

    def point(nu):
        return estimator._Profile(
            make_dual_problem(s, model.constraint_values, div, np.zeros(3)), model)(nu)

    fit = fit_divergence(s, model, div)
    for nu in (fit.theta[1], 0.9 * fit.theta[1]):
        h = 1e-4 * nu
        fd = (point(nu + h).slope - point(nu - h).slope) / (2.0 * h)
        assert point(nu).curvature == pytest.approx(fd, rel=1e-6, abs=0.0)


def _step_count_samples(model):
    """40 samples, n = 100: scenarios 1-4 x seeds 0-9 (GPD) or x streams 0-9 of seed 555."""
    if model.name == "gpd-l234":
        return [draw_sample(ScenarioConfig.preset(scenario, n=100, seed=seed), 0)
                for scenario in (1, 2, 3, 4) for seed in range(10)]
    return [draw_sample(ScenarioConfig.preset(scenario, n=100, seed=555), stream)
            for scenario in (1, 2, 3, 4) for stream in range(10)]


@pytest.mark.parametrize("model,div,bound", [
    (gpd_model(), KLM, 6.0),
    (weibull_model(), CHI2, 15.0),
    (weibull_model(), KL, 15.0),
    (weibull_model(), KLM, 15.0),
], ids=["gpd-klm", "weibull-chi2", "weibull-kl", "weibull-klm"])
def test_mean_outer_steps_stay_few(model, div, bound):
    # [REGRESSION] Gauss-Newton steps from the box centre took 27-50 steps on
    # the Weibull samples and 8.7 on the GPD KLM ones; the chi-square fit
    # takes no outer step, and its count is the profile evaluations of its
    # refinement
    key = "refine_evaluations" if div is CHI2 else "outer_iterations"
    steps = [fit_divergence(s, model, div).diagnostics[key] for s in _step_count_samples(model)]
    assert np.mean(steps) <= bound


def test_kl_fit_on_four_points_leaves_the_box_edge():
    # this fit once stopped on the sigma = 1e-3 edge at Nelder-Mead's iteration cap
    s = SortedSample(np.array([0.5, 1.2, 3.1, 7.9]))
    model = gpd_model()
    report = fit_divergence(s, model, KL)
    assert report.diagnostics["boundary"] is False
    primal, _ = primal_bruteforce(s, model.constraint_values, model.target_map(report.theta), KL)
    assert report.criterion == pytest.approx(primal, rel=1e-9, abs=0.0)


def test_kl_fit_on_four_points_overflows_nothing():
    # KL's domain ends where expm1 overflows, so the ratio test keeps every
    # line-search candidate finite; this fit once overflowed expm1
    s = SortedSample(np.array([0.5, 1.2, 3.1, 7.9]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit_divergence(s, gpd_model(), KL)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("n_exp,stream,gamma", [(4, 1, 1.5), (4, 1, 2.5), (5, 0, 0.5)])
def test_large_file_power_fits_converge(n_exp, stream, gamma):
    # [REGRESSION] near the optimum the Newton increase fell below the
    # rounding of the dual objective and Armijo halved until maxIter; the
    # n = 10^4 fits raised "the inner solve failed at every point"
    x = ParametricFamily("gpd", 3.0, 0.4).sample(10 ** n_exp, np.random.default_rng([5, stream]))
    diag = fit_divergence(SortedSample(x), gpd_model(), power_divergence(gamma)).diagnostics
    assert diag["inner_status"]["maxIter"] == diag["inner_status"]["stalled"] == 0


@pytest.mark.parametrize("model,law", [
    (gpd_model(), ParametricFamily("gpd", 3.0, 0.4)),
    (weibull_model(), ParametricFamily("weibull", 3.0, 0.5)),
], ids=["gpd", "weibull"])
@pytest.mark.parametrize("div", [CHI2, KL, KLM], ids=lambda d: d.family)
def test_fit_is_scale_equivariant(model, law, div):
    # the fit runs in units of the power of two at the sample's L-scale, so
    # 2^k x is fitted from the same numbers as x and gives (2^k sigma, nu)
    # bit for bit, also where the fixed box [1e-3, 1e3] would cut the scale
    x = law.sample(200, np.random.default_rng(0))
    fit = fit_divergence(SortedSample(x), model, div)
    for k in (-40, -12, -8, -4, 4, 12, 40):
        fit_k = fit_divergence(SortedSample(x * 2.0 ** k), model, div)
        assert np.array_equal(fit_k.theta, [2.0 ** k * fit.theta[0], fit.theta[1]]), k
        assert fit_k.criterion == 2.0 ** k * fit.criterion, k
        assert fit_k.diagnostics["boundary"] is False, k


@pytest.mark.parametrize("nu,div,fits", [
    (0.1, CHI2, True), (0.1, KL, True), (0.1, KLM, False), (0.05, CHI2, True), (0.05, KL, True),
], ids=["0.1-chi2", "0.1-kl", "0.1-klm", "0.05-chi2", "0.05-kl"])
def test_weibull_fit_at_small_shapes_is_inside_the_scale_box(nu, div, fits):
    # sigma / lambda_2 = 1 / f_2(nu) is 2.8e-7 at nu = 0.1 and 4.1e-19 at
    # 0.05, far below 1e-3 in units of the sample's L-scale; a fit cut at
    # such an edge has a distorted shape and misses the sample's lambda_2.
    # The sample L-moments of these tails put the shape up to twice too high
    # at n = 1000, and sigma, a factor of E^(1/nu), orders of magnitude off.
    # The KLM inner solves fail on this sample: the fit once returned the
    # estimate of an unconverged outer search, at which a multiplier vector
    # with xi.t1 = 0 has a higher dual objective than the reported criterion
    x = ParametricFamily("weibull", 3.0, nu).sample(1000, np.random.default_rng(0))
    if not fits:
        with pytest.raises(EstimationError, match="inner solve"):
            fit_divergence(SortedSample(x), weibull_model(), div)
        return
    report = fit_divergence(SortedSample(x), weibull_model(), div)
    sigma, shape = map(float, report.theta)
    assert report.diagnostics["boundary"] is False
    assert 0.5 * nu < shape < 3.0 * nu
    lam2 = ParametricFamily("weibull", sigma, shape).lmoments()[0]
    assert 0.5 < lam2 / sample_lmoments_v(SortedSample(x), 2)[2] < 2.0


def test_rejected_candidate_does_not_warm_start_the_next_solve():
    # [REGRESSION] under the outer search that also searched the scale, the
    # first damped step of this KLM fit was clipped to the sigma edge, 1e-21,
    # and rejected; its multipliers (~1e21) used to seed every later solve,
    # which then stalled, and the search ended unconverged
    s = draw_sample(ScenarioConfig.preset(1, n=100, seed=0), 6)
    diag = fit_divergence(s, weibull_model(), KLM).diagnostics
    assert diag["inner_failures"] == 0


def test_dual_line_search_evaluates_the_nodes_of_its_multipliers():
    # Weibull(3, 0.08) spacings span tens of decades; a line search that
    # carried z + t dz instead of kmat xi drifted past the KLM domain edge
    # over ~180 steps and ended the fit in ConjugateDomainError
    x = 3.0 * np.random.default_rng(1).weibull(0.08, 200)
    with pytest.raises(EstimationError, match="inner solve failed"):
        fit_divergence(SortedSample(np.sort(x)), weibull_model(), KLM)


def _reduced_dual_bound(sample, model, div, nu):
    """A value of the dual with multipliers restricted to ``xi.t1(nu) = 0``, in the fit's unit.

    Any such multiplier vector has ``xi.t = 0`` at every target ``sigma t1``,
    so its objective is a lower bound of the criterion at ``(sigma, nu)`` for
    every sigma; the solve need not converge.
    """
    scale = math.ldexp(1.0, math.frexp(sample_lmoments_v(sample, 2)[2])[1])
    skeleton = make_dual_problem(SortedSample(sample.values / scale), model.constraint_values,
                                 div, np.zeros(3))
    t1 = model.target_map(np.array([1.0, nu]))
    basis = np.linalg.qr(np.column_stack([t1, np.eye(3)[:, :2]]))[0][:, 1:]
    reduced = dataclasses.replace(skeleton, kmat=skeleton.kmat @ basis, target=np.zeros(2))
    return solve_dual(reduced).value, scale


def test_returned_criterion_is_no_lower_than_a_dual_bound():
    # [REGRESSION] this KLM fit once returned criterion / s = 2.66e-3 from an
    # unconverged outer search whose inner solves stopped short; a solve on
    # the rows orthogonal to t1 at its shape reaches 5.86e-3, a lower bound
    # of the criterion for every scale.  The fit must raise or return a
    # criterion no lower than that bound
    sample = SortedSample(3.0 * np.random.default_rng(0).weibull(0.08, 200))
    model = weibull_model()
    try:
        report = fit_divergence(sample, model, KLM)
    except EstimationError:
        return
    bound, scale = _reduced_dual_bound(sample, model, KLM, report.theta[1])
    assert report.criterion / scale >= bound * (1.0 - 1e-12)


@pytest.mark.parametrize("seed,theta", [(14, (0.97612747, 0.29961915)),
                                        (17, (0.38052132, 0.26863901))])
def test_far_profile_steps_raise_no_error_and_no_warning(seed, theta):
    # on these scenario-1 samples a far Newton step of the shape can make -H
    # singular (a point with no Cholesky factor fails), and on seed 17 one
    # puts the free scale outside its box row: that point fails as a failed
    # solve does, and the search halves past it.  A full-dual solve at the
    # clipped scale once ran there and overflowed psi in its line search
    # (RuntimeWarnings); the estimate is the outer search's
    sample = draw_sample(ScenarioConfig.preset(1, n=100, seed=seed), 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = fit_divergence(sample, weibull_model(), KL)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert np.allclose(report.theta, theta, rtol=0.0, atol=1e-6)
    assert report.diagnostics["scale_outside_box"] == {14: 0, 17: 1}[seed]


def test_profile_step_halvings_are_bounded():
    # the halving nu + (c - nu) / 2 of a step can round to c one ulp from nu
    # for ever; the search gives the step up after a bounded number of
    # halvings and raises, as the outer search it replaced did
    sample = SortedSample(3.0 * np.random.default_rng(0).weibull(0.05, 200))
    start = time.perf_counter()
    with pytest.raises(EstimationError):
        fit_divergence(sample, weibull_model(), KL)
    assert time.perf_counter() - start < 1.0


def test_negative_curvature_step_is_tested_for_descent():
    # a first step where P'' < 0 can reach the shape edge; it is kept only
    # where P falls, and the estimate is the one the outer search found
    sample = SortedSample(3.0 * np.random.default_rng(0).weibull(0.1, 200))
    report = fit_divergence(sample, weibull_model(), KLM)
    assert report.theta.tolist() == pytest.approx([414.286, 0.149514], rel=1e-6, abs=0.0)


class _FirstVisitFails:
    """Stub profile P(nu) = (nu - 2)^2 whose points past nu = 0.5 fail at their first visit.

    A warm-started solve can converge where a cold one failed, so a shape
    that once failed, and so bounds the search's bracket, can later be
    accepted, with the bracket closed on it.
    """

    model = dataclasses.replace(gpd_model(), box=np.array([[1e-3, 1e3], [-5.0, 5.0]]))
    status = {"converged": 0}

    def __init__(self):
        self.seen = set()

    def __call__(self, nu):
        if nu > 0.5 and nu not in self.seen:
            self.seen.add(nu)
            return None
        return estimator._Point((nu - 2.0) ** 2, 1.0, None, level=0.0, gap=0.0,
                                slope=2.0 * (nu - 2.0), curvature=2.0)

    def failure(self, where):
        return EstimationError(f"the inner solve failed {where}")


def test_profile_search_closing_in_on_failed_solves_raises():
    # from nu = 0 the steps to 2 and 1 fail and 0.5 is accepted; from 0.5 the
    # step is clipped to the failed 1, which converges now and is accepted,
    # and the bracket that 1 closed leaves no room for the next step
    profile = _FirstVisitFails()
    with pytest.raises(EstimationError, match=r"closed in on nu = 1\.0, where the slope is -2\.0"):
        estimator._shape_search(profile, 0.0, profile(0.0))
    # [REGRESSION] this power:2.5 fit once closed in on a false domain edge of
    # the power conjugate for gamma > 1 and raised; with the exact conjugate it
    # returns, and no inner solve ends in maxIter
    sample = draw_sample(ScenarioConfig.preset(4, n=100, seed=2), 0)
    report = fit_divergence(sample, gpd_model(), power_divergence(2.5))
    assert report.diagnostics["inner_status"]["maxIter"] == 0


def test_shape_search_stops_where_no_step_lowers_the_criterion(monkeypatch):
    # with no rounding allowance the decrement never stops the search: it ends
    # at a step no halving of which lowers P in floating point, at the fit's shape
    sample = draw_sample(ScenarioConfig.preset(3, n=100, seed=0), 0)
    model = gpd_model()
    nu_fit = float(fit_divergence(sample, model, KLM).theta[1])
    monkeypatch.setattr(estimator, "rounding_level", lambda *args: 0.0)
    profile = estimator._Profile(make_dual_problem(sample, model.rows, KLM, np.zeros(3)), model)
    start = float(estimator.lmoment_method_start(sample_lmoments_v(sample, 4), model)[1])
    nu, point, steps, decrement = estimator._shape_search(profile, start, profile(start))
    assert point.level == 0.0 < decrement and point.slope != 0.0
    assert steps >= estimator._MAX_HALVINGS and -5.0 < nu < 0.99
    assert abs(nu - nu_fit) < 1e-9


@pytest.mark.parametrize("gamma", [2.5, 3.0])
def test_power_fit_above_gamma_one_passes_the_duality_certificate(gamma):
    # [REGRESSION] this fit raised "failed at the start": the power conjugate
    # for gamma > 1 was cut at the kink -1/(gamma - 1), a false domain edge
    # the solves stalled against.  Left of the kink a node now gets zero mass,
    # and the estimate's multipliers give spacings s >= 0 that meet the
    # target to rounding, with a primal value equal to the criterion
    sample = draw_sample(ScenarioConfig.preset(2, n=100, seed=0), 0)
    model, div = gpd_model(), power_divergence(gamma)
    report = fit_divergence(sample, model, div)
    problem = make_dual_problem(sample, model.rows, div, model.target_map(report.theta))
    s, residual, primal, dual = duality_certificate(problem, report.xi)
    assert (s >= 0.0).all() and (s == 0.0).any()
    assert residual <= 1e-12 * np.abs(problem.target).max()
    assert abs(primal - dual) <= 1e-11 * dual
    assert abs(report.criterion - dual) <= 1e-11 * dual


def test_failed_solve_inside_the_cone_is_not_labelled_infeasible():
    # [REGRESSION] the KLM solve at this target, the second the outer search
    # of this sample once visited (in the fit's unit, 2^20 <= lambda_2 < 2^21),
    # ends in maxIter inside the cone of the rows; a margin LP weighted by the
    # spacings (1e-35 to 488 here) once reported it outside, as
    # infeasibleDirection.  The fit itself now raises with the same labels
    x = 3.0 * np.random.default_rng(2).weibull(0.1, 1000)
    model = weibull_model()
    target = [-0.768519652373168, 0.10620359857153004, -0.10660865624935865]
    skeleton = make_dual_problem(SortedSample(np.sort(x) / 2.0 ** 21), model.constraint_values,
                                 KLM, target)
    assert target_in_cone(skeleton)
    assert solve_dual(skeleton).status == "maxIter"
    with pytest.raises(EstimationError, match="'infeasibleDirection': 0, 'maxIter': 2"):
        fit_divergence(SortedSample(x), model, KLM)


@pytest.mark.parametrize("seed", [2, 3])
def test_converged_solve_keeps_its_nodes_inside_the_domain(seed):
    # [REGRESSION] a converged KLM solve took its last full step unevaluated,
    # and rounding put one of its 999 nodes on the edge z = 1; the fit then
    # raised ConjugateDomainError instead of returning or raising
    # EstimationError.  Cold solves of the full dual at scales around this
    # sample's L-moment start, in the fit's unit, take such last steps
    x = np.sort(3.0 * np.random.default_rng(seed).weibull(0.08, 1000))
    model = weibull_model()
    lm = sample_lmoments_v(SortedSample(x), 4)
    scale = math.ldexp(1.0, math.frexp(lm[2])[1])
    start = estimator.lmoment_method_start(LmomentVector(lm.values / scale, lm.kind), model)
    skeleton = make_dual_problem(SortedSample(x / scale), model.constraint_values, KLM,
                                 np.zeros(3))
    converged = 0
    for a in np.linspace(-0.1, 0.1, 11):
        sol = solve_dual(skeleton.with_target(model.target_map(start * np.array([1.0 + a, 1.0]))))
        if sol.converged:
            converged += 1
            assert np.max(skeleton.kmat @ sol.xi) < 1.0
    assert converged
    with pytest.raises(EstimationError, match="inner solve"):
        fit_divergence(SortedSample(x), model, KLM)


def _chi2_factor(sample, model):
    """(rows of the Cholesky factor L of Omega, L^-1 lam) of a chi-square fit of ``sample``."""
    skeleton = make_dual_problem(sample, model.rows, CHI2, np.zeros(model.n_constraints))
    low = np.linalg.cholesky(omega_empirical(skeleton)).tolist()
    return low, substitute(low, (-skeleton.m_n).tolist())


def _chi2_inputs(sample, model):
    """(Omega^-1, the sample L-moments -m_n) of a chi-square fit of ``sample``."""
    skeleton = make_dual_problem(sample, model.constraint_values, CHI2,
                                 np.zeros(model.n_constraints))
    return np.linalg.inv(omega_empirical(skeleton)), -skeleton.m_n


@pytest.mark.parametrize("model,law,shapes,clipped_at", [
    (gpd_model(), ParametricFamily("gpd", 3.0, 0.4), (-2.0, 0.0, 0.6), 0.6),
    (weibull_model(), ParametricFamily("weibull", 3.0, 0.5), (0.3, 1.0, 4.0), 0.3),
], ids=["gpd", "weibull"])
def test_chi2_profile_slope_matches_central_differences(model, law, shapes, clipped_at):
    # P(nu), the criterion minimized over a sigma row [1e-3, 1e3], and its
    # slope; on 2^-12 x, taken here without the fit's standardization, the
    # free scale falls below 1e-3 at ``clipped_at``, where P is clipped.  The
    # point takes the rows of the Cholesky factor L of Omega and L^-1 lam
    sample = SortedSample(law.sample(200, np.random.default_rng(0)) * 2.0 ** -12)
    low, lam_w = _chi2_factor(sample, model)
    sigma_box = [1e-3, 1e3]

    def profile(nu):
        value, slope, sigma, _ = estimator._chi2_point(low, lam_w, sigma_box, *model.jet(nu)[:2])
        return value, slope, sigma == sigma_box[0]

    clipped = []
    for nu in shapes:
        h = 1e-5 * max(abs(nu), 1.0)
        _, slope, below = profile(nu)
        fd = (profile(nu + h)[0] - profile(nu - h)[0]) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-6, abs=0.0), nu
        clipped.append(below)
    assert clipped == [nu == clipped_at for nu in shapes]


#: a one-point evaluation agrees with its scan to this many eps of the sum of
#: its terms' magnitudes: the two differ in summation order, in fused
#: multiply-adds and in numpy's and libm's exp, log and expm1
_POINT_EPS = 16.0 * 2.0 ** -52


@pytest.mark.parametrize("model,law", [
    (gpd_model(), ParametricFamily("gpd", 3.0, 0.4)),
    (weibull_model(), ParametricFamily("weibull", 3.0, 0.5)),
], ids=["gpd", "weibull"])
@pytest.mark.parametrize("sigma_box,clip", [
    ((1e-3, 1e3), None), ((1e-3, 1e-2), 1), ((1e2, 1e3), 0)],
    ids=["free", "upper-edge", "lower-edge"])
def test_chi2_point_is_the_scan_at_one_shape(model, law, sigma_box, clip):
    # the refine's one-point profile against the scan, the same function on
    # the rows of the law's table, at every grid shape, with the scale free
    # and clipped to either edge of its box: value, slope, scale and residual
    # bit for bit, as the fit reads its shape edges from the scan
    sample = SortedSample(law.sample(200, np.random.default_rng(1)))
    low, lam_w = _chi2_factor(sample, model)
    grid, table = estimator._chi2_table(model.law, *model.box[1].tolist())
    scan = estimator._chi2_point(low, lam_w, sigma_box, table[:, 0], table[:, 1])
    edges = set()
    for j, nu in enumerate(grid.tolist()):
        point = estimator._chi2_point(low, lam_w, sigma_box, *model.jet(nu)[:2])
        assert all(type(v) is float for v in (*point[:3], *point[3]))
        for a, b in zip((*point[:3], *point[3]), (*scan[:3], *scan[3])):
            assert _same_float(a, float(b[j])), nu
        if point[2] in sigma_box:
            edges.add(sigma_box.index(point[2]))
    assert clip is None or clip in edges


def _same_float(a: float, b: float) -> bool:
    """Equal bit for bit, a NaN matching a NaN and a zero its sign."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) ==
                                                 math.copysign(1.0, b))


@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_gpd_point_is_the_scan_at_one_w(scenario):
    # the MLE refine's one-point slope against _gpd_profile(np.array([w]), y):
    # the far rows w < -1, the clipped shape nu = 5 (large w), and at w = +-0
    # (t = +-0, sigma = mean y) and at w so small that nu underflows to +-0,
    # the inf and NaN slopes numpy gives there, bit for bit
    sample = draw_sample(ScenarioConfig.preset(scenario, n=100, replicates=1, seed=5), 0)
    y = sample.values / sample.values[-1]
    exact = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310)
    ws = (*np.linspace(-700.0, 700.0, 57), *np.linspace(-3.0, 3.0, 61), -1.0,
          np.nextafter(-1.0, -2.0), 1e-300, -1e-300, *exact)
    seen = set()
    for w in map(float, ws):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = float(estimator._gpd_profile(np.array([w]), y)[0])
        point = estimator._gpd_point(w, y)
        assert all(type(v) is float for v in point)
        if w in exact:
            assert _same_float(point[1], slope), w
        else:
            t = math.expm1(w)
            assert abs(point[1] - slope) <= _POINT_EPS * (abs(slope) + 2.0 / abs(t)), w
        seen |= {case for case, hit in (("far", w < -1.0), ("clipped", point[3] == 5.0),
                                        ("nan", math.isnan(slope)), ("inf", math.isinf(slope))) if hit}
    assert seen == {"far", "clipped", "nan", "inf"}


@pytest.mark.parametrize("x,edge", [
    (ParametricFamily("gpd", 1.0, -10.0).sample(200, np.random.default_rng(0)), -5.0),
    (3.0 * np.random.default_rng(2).weibull(0.1, 200), 0.99),
], ids=["lower", "upper"])
def test_chi2_fit_on_a_shape_edge_is_the_point_there(x, edge):
    # a GPD(1, -10) sample lies past the shape box's lower edge, a heavy
    # Weibull one past its upper edge; the estimate is the edge, valued by
    # the refine's point function in the fit's unit s = 2^e, bit for bit
    sample, model = SortedSample(x), gpd_model()
    report = fit_divergence(sample, model, CHI2)
    assert report.theta[1] == edge and report.diagnostics["boundary"]
    scale = math.ldexp(1.0, math.frexp(sample_lmoments_v(sample, 2)[2])[1])
    low, lam_w = _chi2_factor(sample.scaled(scale), model)
    value, _, sigma, _ = estimator._chi2_point(low, lam_w, model.box[0].tolist(),
                                               *model.jet(edge)[:2])
    assert report.criterion == value * scale and report.theta[0] == sigma * scale


def test_chi2_profile_matches_the_closed_form_where_omega_is_ill_conditioned():
    # Weibull(3, 0.05) at n = 1000: Omega has condition number 5e11.  Through
    # an explicit Omega^-1 the profile missed the closed form by 2e-5 relative
    # and a dense grid of it showed values below the fit's.  Whitened by the
    # Cholesky factor it agrees with the closed form to 1e-9 only because both
    # use LAPACK's factor of the same Omega; against the exact r^T Omega^-1 r / 2
    # of the float Omega and r, in Fractions, the profile's value at the grid
    # minimum is off by 5.2e-9 (the closed form on the float Cholesky of
    # spd_solve missed it by 7.7e-8), so the bound there is 1e-8.  The grid
    # minimum is the fit's
    x = ParametricFamily("weibull", 3.0, 0.05).sample(1000, np.random.default_rng(2))
    model, scale = weibull_model(), 2.0 ** 59   # the fit's unit: 2^58 <= lambda_2 < 2^59
    sample = SortedSample(np.sort(x) / scale)
    skeleton = make_dual_problem(sample, model.constraint_values, CHI2,
                                 np.zeros(model.n_constraints))
    low, lam_w = _chi2_factor(sample, model)
    grid = np.geomspace(0.09, 0.105, 4001)
    value, sigma = np.array([estimator._chi2_point(low, lam_w, model.box[0].tolist(),
                                                   *model.jet(nu)[:2])[:3:2]
                             for nu in grid.tolist()]).T
    closed = np.array([
        chi2_value_closed_form(sample, model.constraint_values,
                               model.target_map(np.array([sg, nu])))[0]
        for sg, nu in zip(sigma, grid)])
    assert np.max(np.abs(value - closed) / closed) <= 1e-9
    best = int(np.argmin(value))
    exact = chi2_value_rational(omega_empirical(skeleton), model.target_map(
        np.array([sigma[best], grid[best]])) - skeleton.m_n)
    assert abs(value[best] - exact) <= 1e-8 * exact
    report = fit_divergence(SortedSample(np.sort(x)), model, CHI2)
    assert abs(report.theta[1] - grid[best]) <= grid[best + 1] - grid[best - 1]
    assert report.criterion / scale <= value[best] * (1.0 + 1e-12)
    assert report.diagnostics["refine_evaluations"] <= 18    # 16 here, 22 through Omega^-1


def test_orderstat3_chi2_fit_is_the_closed_form():
    # a scale-only model, lambda = nu (2/3, 0) on the orders 2, 3: the fit is
    # lam^T Omega^-1 f / f^T Omega^-1 f with f = (2/3, 0), with no scan
    x = ParametricFamily("gpd", 3.0, 0.4).sample(1000, np.random.default_rng([0, 0]))
    sample, model = SortedSample(x), order_stat_model_3()
    a, lam = _chi2_inputs(sample, model)
    f = np.array([2.0 / 3.0, 0.0])
    closed = (lam @ a @ f) / (f @ a @ f)
    report = fit_divergence(sample, model, CHI2)
    assert report.theta[0] == pytest.approx(closed, rel=1e-14, abs=0.0)
    assert report.theta[0] == pytest.approx(1.8805919579923356, rel=1e-14, abs=0.0)
    assert report.diagnostics == {"scan_minima": 0, "refine_evaluations": 0, "boundary": False}


@pytest.mark.parametrize("div", [KL, KLM], ids=lambda d: d.family)
def test_orderstat3_profile_fit_is_the_dual_at_its_target(div):
    # a scale-only model's fit is one profile point, nu = None: its criterion
    # is a cold solve of the full dual at target_map(theta_hat), to that
    # dual's rounding level, and a shift of the sample, which the
    # differenced rows do not see, moves nothing but rounding
    x = ParametricFamily("gpd", 3.0, 0.4).sample(200, np.random.default_rng([0, 0]))
    sample, model = SortedSample(x), order_stat_model_3()
    report = fit_divergence(sample, model, div)
    assert report.diagnostics["criterion_evaluations"] == 1
    assert report.diagnostics["start"] is None and report.diagnostics["scale_outside_box"] == 0
    target = model.target_map(report.theta)
    cold_problem = make_dual_problem(sample, model.constraint_values, div, target)
    cold = solve_dual(cold_problem)
    assert cold.converged
    level = rounding_level(cold.xi, target, cold.value, cold_problem.delta.size)
    assert abs(report.criterion - cold.value) <= level
    assert np.allclose(report.xi, cold.xi, rtol=1e-12, atol=1e-12 * np.abs(cold.xi).max())
    shifted = fit_divergence(SortedSample(x + 10.0), model, div)
    assert shifted.theta[0] == pytest.approx(report.theta[0], rel=1e-12, abs=0.0)
    assert shifted.criterion == pytest.approx(report.criterion, rel=1e-12, abs=0.0)
    assert np.allclose(shifted.xi, report.xi, rtol=1e-12, atol=1e-12 * np.abs(report.xi).max())


@pytest.mark.parametrize("div", [KL, KLM], ids=lambda d: d.family)
@pytest.mark.parametrize("model,box", [
    (gpd_model(), [[1e-6, 1e-5], [-5.0, 0.99]]),
    (gpd_model(), [[1e5, 1e6], [-5.0, 0.99]]),
    (order_stat_model_3(), [[1e-9, 1e-8]]),
    (order_stat_model_3(), [[1e5, 1e6]]),
], ids=["gpd-below", "gpd-above", "orderstat3-below", "orderstat3-above"])
def test_scale_outside_a_narrowed_box_raises(model, box, div):
    # with the scale row narrowed so that the free scale sigma* lies outside
    # it at every shape, each profile point fails as a failed solve does
    # (no solve is clipped to the box), and the fit raises naming the scale
    # and its box
    x = ParametricFamily("gpd", 3.0, 0.4).sample(200, np.random.default_rng([0, 0]))
    narrow = dataclasses.replace(model, box=np.array(box))
    with pytest.raises(EstimationError, match="failed at the start") as exc:
        fit_divergence(SortedSample(x), narrow, div)
    assert (f"the solve converged but put the scale {model.param_names[0]} outside its box "
            f"{box[0]!r}") in str(exc.value)


@pytest.mark.parametrize("model", [gpd_model(), weibull_model(), order_stat_model_3()],
                         ids=lambda m: m.name)
def test_chi2_fit_runs_no_outer_search(monkeypatch, model):
    def no_solve(problem, xi0=None):
        raise AssertionError("the chi-square fit ran a Newton solve of the dual")

    monkeypatch.setattr(estimator, "solve_dual", no_solve)
    report = fit_divergence(mc_sample(ParametricFamily("gpd", 3.0, 0.3), 100, seed=2), model, CHI2)
    assert np.isfinite(report.criterion)


def test_chi2_refine_closes_on_a_converged_end():
    # [REGRESSION] a secant point that rounded onto the converged end of the
    # bracket bisected instead of stepping tol inside it: this refine reached
    # |P'| = 1.3e-14 at its 5th evaluation, then halved the bracket 17 times
    # (23 evaluations; 8 once the point takes the tol clamp)
    report = fit_divergence(draw_sample(ScenarioConfig.preset(1, n=100, seed=5), 0),
                            gpd_model(), CHI2)
    assert report.diagnostics["refine_evaluations"] <= 10


def test_moment_fit_past_the_squares_overflow_is_scale_equivariant():
    # [REGRESSION] a simulate of scenario 1 with sigma 1e300 failed every
    # moment fit, "sample skewness nan", after "overflow encountered in
    # multiply"; where the moments overflow they are taken in units of the
    # power of two at the largest magnitude, and the skewness is scale-free
    x = draw_sample(ScenarioConfig.preset(3, n=100, seed=2), 0).values
    sigma, nu = fit_moment_method_gpd(SortedSample(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big_sigma, big_nu = fit_moment_method_gpd(SortedSample(x * 2.0 ** 1000))
    assert big_nu == pytest.approx(nu, rel=1e-15)
    assert big_sigma == pytest.approx(sigma * 2.0 ** 1000, rel=1e-15)


def test_fit_whose_scale_overflows_raises():
    # [REGRESSION] a GPD fitted to values near the largest float has a scale
    # past it: theta[0] * s overflowed with numpy's warning and the fit
    # returned sigma = inf
    sample = SortedSample([1.7e308, 1.7e308, 1.6e308, 1.5e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for div in (CHI2, KLM):
            with pytest.raises(EstimationError, match=r"the fitted sigma, .* times 2\^1021, "
                                                      "overflows a float"):
                fit_divergence(sample, gpd_model(), div)


def test_asymptotics_whose_plugin_moments_overflow_raise():
    # [REGRESSION] the plug-in Sigma of a Weibull fit to values near the
    # largest float overflowed in its matmul with numpy's warning; the block
    # is checked as Omega is
    sample = SortedSample([1e300, 1e305, 1e307, 1.7e308, 1.0])
    model = weibull_model()
    report = fit_divergence(sample, model, CHI2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="infs or NaNs"):
            asymptotic_covariance(report.theta, model,
                                  ParametricFamily("weibull", *map(float, report.theta)))


def test_chi2_table_is_built_once_per_law_on_first_use():
    code = (
        "import numpy as np\n"
        "from lmomdiv import estimator\n"
        "from lmomdiv.divergence import CHI2\n"
        "from lmomdiv.lmoments import SortedSample\n"
        "from lmomdiv.models import gpd_model\n"
        "assert estimator._chi2_table.cache_info().currsize == 0\n"
        "s = SortedSample(np.random.default_rng(0).exponential(size=50))\n"
        "model = gpd_model()\n"
        "estimator.fit_divergence(s, model, CHI2)\n"
        "info = estimator._chi2_table.cache_info()\n"
        "assert (info.misses, info.hits, info.currsize) == (1, 0, 1)\n"
        "grid, table = estimator._chi2_table(model.law, -5.0, 0.99)\n"
        "estimator.fit_divergence(s, gpd_model(), CHI2)\n"
        "info = estimator._chi2_table.cache_info()\n"
        "assert (info.misses, info.hits, info.currsize) == (1, 2, 1)\n"
        "assert estimator._chi2_table(model.law, -5.0, 0.99)[1] is table\n"
        "assert table.shape == (3, 2, 61) and not table.flags.writeable\n"
        "assert grid.tolist() == np.linspace(-5.0, 0.99, 61).tolist()\n"
        "assert not grid.flags.writeable\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_chi2_fit_scans_its_own_models_shape_box():
    # models of one family with other shape boxes or orders each get their own
    # table: once the first fit's table served the family, a box of [0, 0.2]
    # returned nu = 0.37, outside it, and the orders (2, 3) an IndexError
    code = (
        "import dataclasses, sys\n"
        "import numpy as np\n"
        "from lmomdiv.divergence import CHI2\n"
        "from lmomdiv.estimator import fit_divergence\n"
        "from lmomdiv.lmoments import SortedSample\n"
        "from lmomdiv.models import ParametricFamily, _gpd_shape, _gpd_slopes, gpd_model\n"
        "from lmomdiv.poly import PolyBasis\n"
        "models = {'gpd-l234': gpd_model(),\n"
        "          'narrow': dataclasses.replace(gpd_model(),\n"
        "                                        box=np.array([[1e-3, 1e3], [0.0, 0.2]])),\n"
        "          'l23': dataclasses.replace(gpd_model(), rows=PolyBasis((2, 3)), law=(\n"
        "              lambda nu: _gpd_shape(nu)[:2],\n"
        "              lambda nu: tuple(v[:2] for v in _gpd_slopes(nu))))}\n"
        "x = ParametricFamily('gpd', 3.0, 0.4).sample(500, np.random.default_rng([7, 0]))\n"
        "s = SortedSample(x)\n"
        "for name in sys.argv[1:]:\n"
        "    report = fit_divergence(s, models[name], CHI2)\n"
        "    print(name, *map(float.hex, report.theta.tolist()), report.diagnostics['boundary'])\n"
    )
    fits = []
    for order in (["gpd-l234", "narrow", "l23"], ["l23", "narrow", "gpd-l234"]):
        out = subprocess.run([sys.executable, "-c", code, *order],
                             check=True, capture_output=True, text=True).stdout
        fits.append(dict((line.split()[0], line.split()[1:]) for line in out.splitlines()))
    assert fits[0] == fits[1]
    sigma, nu, boundary = fits[0]["narrow"]
    assert 0.0 <= float.fromhex(nu) <= 0.2 and boundary == "True"
    assert float.fromhex(fits[0]["gpd-l234"][1]) > 0.2
    assert 0.0 < float.fromhex(fits[0]["l23"][1]) < 0.99


def test_outer_decrement_is_reported_at_the_rounding_level():
    # the 28 KLM fits of an mc-klm run: scenarios 1-4 x seeds 0-6; the
    # decrement is the one the search's stop compared with the level
    model = gpd_model()
    for seed in range(7):
        for scenario in (1, 2, 3, 4):
            sample = draw_sample(ScenarioConfig.preset(scenario, n=100, seed=seed), 0)
            report = fit_divergence(sample, model, KLM)
            diag = report.diagnostics
            assert diag["outer_decrement"] >= 0.0
            level = rounding_level(report.xi, model.target_map(report.theta),
                                   report.criterion, int(np.count_nonzero(sample.spacings)))
            assert diag["outer_decrement"] <= level, (scenario, seed)


def test_infeasible_start_falls_back_to_the_chi2_estimate(monkeypatch):
    # the first inner solve, at this sample's Weibull L-moment start
    # (4.094, 0.648), is made to report a target outside the cone, so the
    # start's criterion is +inf; the chi-square estimate is a start the inner
    # solve reaches
    calls = []

    def first_solve_infeasible(problem, xi0=None):
        sol = solve_dual(problem, xi0=xi0)
        calls.append(sol)
        if len(calls) == 1:
            return dataclasses.replace(sol, status="infeasibleDirection")
        return sol

    monkeypatch.setattr(estimator, "solve_dual", first_solve_infeasible)
    s = draw_sample(ScenarioConfig.preset(3, n=30, seed=555), 0)
    report = fit_divergence(s, model_by_name("weibull-l234"), KL)
    assert report.diagnostics["start"] == "chi2"
    assert not report.diagnostics["boundary"]


def test_weibull_kl_box_centre_fit_needs_no_restart():
    # [REGRESSION] the cold solve at the box centre (500, 10.025) of this
    # sample once ended in maxIter after 4,912 objective evaluations, and the
    # fit, which then started there, reached criterion 0.17450296284881214
    # only through the chi-square restart; the fit now starts at the
    # L-moment estimate, so the cold solve is checked on its own
    s = draw_sample(ScenarioConfig.preset(3, n=30, seed=555), 0)
    model = model_by_name("weibull-l234")
    report = fit_divergence(s, model, KL)
    assert report.criterion <= 0.17450296284881214 * (1.0 + 1e-12)
    assert report.diagnostics["inner_evaluations"] <= 1000
    skeleton = make_dual_problem(s, model.constraint_values, KL, np.zeros(3))
    cold = solve_dual(skeleton.with_target(model.target_map(model.box.mean(axis=1))))
    assert cold.converged
    assert cold.evaluations <= 1000


@pytest.mark.parametrize("model", [gpd_model(), weibull_model()], ids=lambda m: m.name)
def test_criterion_evaluations_are_the_start_and_the_steps(model):
    # one criterion call at the start and one per step tried: the estimate's
    # criterion and multipliers are the search's own, with no re-solve
    for scenario in (1, 2, 3, 4):
        for seed in range(5):
            s = draw_sample(ScenarioConfig.preset(scenario, n=100, seed=seed), 0)
            diag = fit_divergence(s, model, KLM).diagnostics
            assert diag["start"] == "lmoment"
            assert (diag["criterion_evaluations"] == diag["outer_iterations"] + 1
                    == sum(diag["inner_status"].values()))


def test_criterion_evaluations_cover_the_inner_solves():
    report = sim_klm_fit(2, 0)
    diag = report.diagnostics
    assert diag["criterion_evaluations"] >= sum(diag["inner_status"].values()) > 0
    assert diag["outer_iterations"] > 0


def test_weibull_model_fit():
    fam = ParametricFamily("weibull", 3.0, 0.5)
    s = grid_sample(fam, 1500)
    report = fit_divergence(s, model_by_name("weibull-l234"), CHI2)
    assert np.allclose(report.theta, [3.0, 0.5], atol=0.05)


# ---------------------------------------------------------------------------
# asymptotic covariance and the confidence statistic


@pytest.fixture(scope="module")
def gpd_cov():
    model = gpd_model()
    theta = np.array([3.0, 0.1])
    return asymptotic_covariance(theta, model, ParametricFamily("gpd", 3.0, 0.1))


def _poisoned_jacobian(model, scale):
    """``model`` with every Jacobian entry multiplied by ``scale``: its law's f, f' and f'' are."""
    shape, slopes = model.law
    return dataclasses.replace(model, law=(lambda nu: [scale * v for v in shape(nu)],
                                           lambda nu: [[scale * v for v in d] for d in slopes(nu)]))


@pytest.mark.parametrize("poison", ["omega", "jacobian", "whitened"])
def test_non_finite_covariance_blocks_raise(monkeypatch, poison):
    # np.linalg returns NaN factors and solutions here without raising; a
    # non-finite Omega, Jacobian or L^-1 J0 must end the covariance, never give a NaN one
    model, plugin = gpd_model(), ParametricFamily("gpd", 3.0, 0.1)
    if poison == "omega":
        monkeypatch.setattr(estimator, "plugin_second_moments",
                            lambda *a: np.full((3, 3), np.nan))
    elif poison == "jacobian":
        model = _poisoned_jacobian(model, np.nan)
    else:
        # finite Omega (entries near 1e-301) and J0 (near 1e200) whose L^-1 J0 overflows
        real = estimator.plugin_second_moments
        monkeypatch.setattr(estimator, "plugin_second_moments", lambda *a: 1e-300 * real(*a))
        model = _poisoned_jacobian(model, 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        asymptotic_covariance([3.0, 0.1], model, plugin)


def test_sigma_is_lmoment_covariance_block(gpd_cov):
    # [DERIVED] the gpd-l234 rows are K_2..K_4, whose derivatives are
    # L_1..L_3: Sigma is the order 2-4 block of the L-moment covariance on
    # the same rule
    lam = lambda_covariance(ParametricFamily("gpd", 3.0, 0.1), 4)
    assert np.allclose(gpd_cov.sigma, lam[1:, 1:], rtol=1e-13, atol=0.0)


def test_plugin_blocks_at_the_cli_fit_law():
    # [DERIVED] GPD(3, 0.4): Omega and Sigma against their closed forms over
    # u <= 1 - 1e-10 (tests/oracles.py), entrywise in units of the diagonal
    cov = asymptotic_covariance(np.array([3.0, 0.4]), gpd_model(),
                                ParametricFamily("gpd", 3.0, 0.4))
    for got, ref in ((cov.omega, gpd_plugin_omega(3.0, 0.4, (2, 3, 4))),
                     (cov.sigma, gpd_plugin_sigma(3.0, 0.4, (2, 3, 4)))):
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(got - ref) <= 1e-9 * scale)


def test_projection_identities(gpd_cov):
    # [DERIVED] H J0 = I, p^T J0 = 0 and p^T Omega p = I characterize the two blocks
    assert np.allclose(gpd_cov.h @ gpd_cov.j0, np.eye(2), atol=1e-10)
    assert gpd_cov.p.shape == (3, 1)
    assert np.allclose(gpd_cov.p.T @ gpd_cov.j0, 0.0, atol=1e-10)
    # a heavy-tailed Weibull plug-in: p = L^-T Q2 is orthogonal to J0 to rounding
    # (the explicit inverses of Omega and J0^T Omega^-1 J0 left 4e-13 here), and
    # Omega-orthonormal to the conditioning of L
    cov = asymptotic_covariance(np.array([3.0, 0.1]), weibull_model(),
                                ParametricFamily("weibull", 3.0, 0.1))
    p, j0 = cov.p, cov.j0
    assert np.linalg.norm(p.T @ j0) <= 1e-14 * np.linalg.norm(p) * np.linalg.norm(j0)
    assert np.allclose(p.T @ cov.omega @ p, np.eye(1), rtol=0.0, atol=1e-10)


def test_covariance_matrices_psd(gpd_cov):
    for mat in (gpd_cov.sigma, gpd_cov.omega, gpd_cov.cov_theta, gpd_cov.cov_xi):
        assert np.allclose(mat, mat.T)
        assert np.all(np.linalg.eigvalsh(mat) > -1e-10)


def test_omega_positive_definite(gpd_cov):
    assert np.all(np.linalg.eigvalsh(gpd_cov.omega) > 0)


def test_asymptotics_need_lmoment_orders():
    # every model's rows are a PolyBasis, so the orderstat3 plug-in blocks are
    # the orders-(2, 3) blocks of gpd-l234's under the same law, bit for bit;
    # rows that are not a PolyBasis, even ones that evaluate to it, carry no
    # orders to differentiate and are refused when the model is built
    plugin = ParametricFamily("gpd", 3.0, 0.3)
    full = asymptotic_covariance(np.array([3.0, 0.3]), gpd_model(), plugin)
    cov = asymptotic_covariance(np.array([1.0]), order_stat_model_3(), plugin)
    assert cov.omega.tolist() == full.omega[:2, :2].tolist()
    assert cov.sigma.tolist() == full.sigma[:2, :2].tolist()
    assert cov.j0.tolist() == [[-2.0 / 3.0], [0.0]]
    with pytest.raises(ValueError, match="PolyBasis"):
        dataclasses.replace(gpd_model(), rows=PolyBasis((2, 3, 4)).constraint_vector)


def test_records_compare_and_hash():
    # [REGRESSION] field equality compared the records' array fields, which
    # has no truth value, and hash raised: the records holding data compare
    # and hash by identity, and a PolyBasis by its orders
    x = ParametricFamily("gpd", 3.0, 0.4).sample(200, np.random.default_rng([0, 0]))
    sample, model = SortedSample(x), gpd_model()
    problem = make_dual_problem(sample, model.rows, KLM, model.target_map([3.0, 0.4]))
    report = fit_divergence(sample, model, KLM)
    plugin = ParametricFamily("gpd", *report.theta.tolist())
    for record in (sample, sample_lmoments_v(sample, 4), problem, solve_dual(problem), report,
                   asymptotic_covariance(report.theta, model, plugin)):
        assert record == record and hash(record) == hash(record)
        assert record != copy.copy(record)
    assert PolyBasis((2, 3)) == PolyBasis([2, 3]) != PolyBasis((2, 4))
    assert {PolyBasis((2, 3)): 1}[PolyBasis([2, 3])] == 1


def test_replaced_rows_carry_their_orders_into_sigma():
    # [REGRESSION] a model's orders were a field of their own, and replacing
    # its rows by orders 2, 3, 5 left Sigma on orders 2, 3, 4 beside Omega on
    # 2, 3, 5; both now read the rows' orders
    model = dataclasses.replace(gpd_model(), rows=PolyBasis((2, 3, 5)))
    cov = asymptotic_covariance(np.array([3.0, 0.4]), model, ParametricFamily("gpd", 3.0, 0.4))
    for got, ref in ((cov.omega, gpd_plugin_omega(3.0, 0.4, (2, 3, 5))),
                     (cov.sigma, gpd_plugin_sigma(3.0, 0.4, (2, 3, 5)))):
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(got - ref) <= 1e-9 * scale)


def test_confidence_stat_zero_multiplier(gpd_cov):
    stat = confidence_stat(np.zeros(3), gpd_cov.p, gpd_cov.sigma, 100)
    assert stat.s_n == pytest.approx(0.0, abs=1e-12)
    assert stat.p_value == pytest.approx(1.0)


def test_confidence_stat_rank_adjustment(gpd_cov):
    # three constraints, two parameters: p has c - d = 1 column, the multiplier
    # covariance rank one, and df is that by construction
    stat = confidence_stat(np.array([0.01, -0.02, 0.005]), gpd_cov.p,
                           gpd_cov.sigma, 100)
    assert stat.df == 1


def test_confidence_stat_no_positive_eigenvalue_raises():
    # p^T Sigma p = diag(-1, -1e-12) has no Cholesky factor, so no statistic
    # exists; the error names the offending diagonal
    with pytest.raises(EstimationError, match=r"not positive definite \(diagonal \[-1.0"):
        confidence_stat(np.array([0.3, -0.1]), np.eye(2),
                        np.diag([-1.0, -1e-12]), 50)


def test_confidence_stat_full_rank_path():
    stat = confidence_stat(np.array([0.3, -0.1]), np.eye(2), np.eye(2), 50)
    assert stat.df == 2
    assert stat.s_n == pytest.approx(50 * 0.1)


@pytest.mark.parametrize("family, nu, rtol", [("gpd", 0.4, 1e-12),
                                              ("weibull", 0.06, 1e-6),
                                              ("weibull", 0.08, 1e-6)])
def test_confidence_stat_matches_the_rational_oracle(family, nu, rtol):
    # [DERIVED] S_n of the chi-square fit of 10 samples (n = 1000) against
    # s_n_rational on the same float Omega, Sigma, J0 and xi.  The GPD is the
    # cli-fit law; for the Weibull laws |p|^T |Sigma| |p| reaches 5e10 times
    # p^T Sigma p, so the float quadratic form keeps about 6 digits
    model = model_by_name(f"{family}-l234")
    for seed in range(10):
        sample = SortedSample(
            ParametricFamily(family, 3.0, nu).sample(1000, np.random.default_rng([seed, 3])))
        report = fit_divergence(sample, model, CHI2)
        cov = asymptotic_covariance(report.theta, model,
                                    ParametricFamily(family, *map(float, report.theta)))
        stat = confidence_stat(report.xi, cov.p, cov.sigma, sample.n)
        ref = s_n_rational(cov.omega, cov.sigma, cov.j0, report.xi, sample.n)
        assert stat.df == 1
        assert stat.s_n == pytest.approx(ref, rel=rtol, abs=0.0), seed


@pytest.mark.parametrize("df", range(1, 11))
def test_chi2_survival_matches_scipy(df):
    from scipy.special import chdtrc

    for x in [0.0, *np.geomspace(1e-8, 1e3, 200)]:
        assert estimator._chi2_sf(df, x) == pytest.approx(chdtrc(df, x), rel=1e-12, abs=0.0)


def test_chi2_survival_ends():
    assert estimator._chi2_sf(3, -1.0) == 1.0
    assert estimator._chi2_sf(3, np.inf) == 0.0
    assert estimator._chi2_sf(4, 1e4) == 0.0


# ---------------------------------------------------------------------------
# classical estimators


def test_lmoment_method_roundtrip():
    fam = ParametricFamily("gpd", 3.0, 0.7)
    s = grid_sample(fam, 5000)
    sigma, nu = fit_lmoment_method_gpd(s)
    # the mid-point grid clips the heavy upper tail, biasing both a little
    assert sigma == pytest.approx(3.0, abs=0.25)
    assert nu == pytest.approx(0.7, abs=0.05)


def test_weibull_lmoment_method_roundtrip():
    for sigma, nu in ((3.0, 0.5), (1.0, 2.0), (0.2, 8.0)):
        s = grid_sample(ParametricFamily("weibull", sigma, nu), 4000)
        assert np.allclose(estimator._weibull_lmoment_inverse(sample_lmoments_v(s, 3)),
                           (sigma, nu), rtol=0.02)


def test_weibull_lmoment_start_outside_the_tau3_range():
    # tau_3 = -0.6 is below the Weibull tau_3 at nu = 20 (-0.138): no L-moment
    # start, and the fit starts at the chi-square estimate
    s = SortedSample(np.array([0.0, 9.0, 9.5, 9.8, 10.0]))
    lm = sample_lmoments_v(s, 3)
    assert lm[3] / lm[2] < -0.138
    with pytest.raises(EstimationError, match="tau_3"):
        estimator._weibull_lmoment_inverse(lm)
    assert estimator.lmoment_method_start(sample_lmoments_v(s, 4), weibull_model()) is None
    for div, criterion in ((KL, 4.850847776861928), (KLM, 3.35494162145967)):
        # from the box centre (500, 10.025) the KL search ran to the sigma
        # edge 1e-21, criterion 10.0, the sample range
        report = fit_divergence(s, weibull_model(), div)
        assert report.diagnostics["start"] == "chi2"
        assert report.criterion == pytest.approx(criterion, rel=1e-9)


def test_lmoment_method_known_ratio():
    # [DERIVED] tau_4 of GPD(., 0.7) is 4.59/7.59; the quadratic inversion
    # must map it back to 0.7 (checked by hand against the formula)
    fam = ParametricFamily("gpd", 1.0, 0.7)
    lam = fam.lmoments()
    tau4 = lam[2] / lam[0]
    assert tau4 == pytest.approx(4.59 / 7.59, abs=1e-12)


def test_moment_method_roundtrip():
    fam = ParametricFamily("gpd", 3.0, 0.1)
    s = grid_sample(fam, 20000)
    sigma, nu = fit_moment_method_gpd(s)
    assert sigma == pytest.approx(3.0, abs=0.15)
    assert nu == pytest.approx(0.1, abs=0.05)


def test_moment_method_rejects_flat_sample():
    with pytest.raises(EstimationError):
        fit_moment_method_gpd(SortedSample(np.array([2.0, 2.0, 2.0, 2.0])))


def test_mle_beats_other_starts():
    fam = ParametricFamily("gpd", 3.0, 0.4)
    s = mc_sample(fam, 300, seed=4)
    sigma, nu = fit_mle_gpd(s)
    x = s.values
    n = s.n

    def nll(sig, v):
        z = 1.0 + v * x / sig
        return n * np.log(sig) + (1.0 + 1.0 / v) * np.log(z).sum()

    attained = nll(sigma, nu)
    assert attained <= nll(3.0, 0.4) + 1e-8
    lm = fit_lmoment_method_gpd(s)
    assert attained <= nll(*lm) + 1e-8


def test_mle_exponential_scale():
    # with the shape pinned near zero by the data, sigma approaches the mean
    fam = ParametricFamily("gpd", 2.0, 0.0)
    s = grid_sample(fam, 3000)
    sigma, nu = fit_mle_gpd(s)
    assert nu == pytest.approx(0.0, abs=0.03)
    assert sigma == pytest.approx(2.0, abs=0.1)


def test_mle_rejects_negative_data():
    with pytest.raises(EstimationError):
        fit_mle_gpd(SortedSample(np.array([-1.0, 2.0, 3.0])))


def gpd_nll(x, sigma, nu):
    """Negative GPD log-likelihood, location 0; +inf outside the support."""
    if nu == 0.0:
        return x.size * np.log(sigma) + x.sum() / sigma
    z = 1.0 + nu * x / sigma
    if np.any(z <= 0):
        return np.inf
    return x.size * np.log(sigma) + (1.0 + 1.0 / nu) * np.log(z).sum()


def reference_mle_nelder_mead(sample):
    """The GPD MLE as three box-clamped 2-D Nelder-Mead runs, best one kept.

    Starts: (mean, 0.5), the L-moment-method and the moment-method
    estimates.  This is the search ``fit_mle_gpd`` replaced.
    """
    x = sample.values
    n = sample.n

    def nll(theta):
        sigma, nu = theta
        if sigma <= 0 or not -5.0 <= nu <= 5.0:
            return np.inf
        if abs(nu) < 1e-10:
            return n * np.log(sigma) + x.sum() / sigma
        z = 1.0 + nu * x / sigma
        if np.any(z <= 0):
            return np.inf
        return n * np.log(sigma) + (1.0 + 1.0 / nu) * float(np.log(z).sum())

    starts = [np.array([x.mean(), 0.5])]
    for fitter in (fit_lmoment_method_gpd, fit_moment_method_gpd):
        try:
            starts.append(np.array(fitter(sample)))
        except EstimationError:
            pass
    best = min((scipy.optimize.minimize(
        nll, start, method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000}) for start in starts),
        key=lambda res: res.fun)
    sigma, nu = best.x
    if not np.isfinite(best.fun):
        raise EstimationError("GPD likelihood could not be maximized")
    if nu < 0 and -sigma / nu <= x[-1] * (1.0 + 1e-9):
        raise EstimationError("MLE degenerated to the support boundary")
    return float(sigma), float(nu)


@pytest.mark.parametrize("n", [30, 100])
@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_mle_not_worse_than_nelder_mead_reference(scenario, n):
    config = ScenarioConfig.preset(scenario, n=n, replicates=10, seed=20260826)
    for replicate in range(config.replicates):
        sample = draw_sample(config, replicate)
        try:
            reference = reference_mle_nelder_mead(sample)
        except EstimationError:
            continue
        attained = gpd_nll(sample.values, *fit_mle_gpd(sample))
        bound = gpd_nll(sample.values, *reference)
        assert attained <= bound + 1e-9 * abs(bound), replicate


@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_mle_profile_slope_vanishes_at_the_estimate(scenario):
    # the estimate is the root of the profile's slope in w = log1p(theta *
    # x_max) to rounding: the slope changes sign 1e-12 on either side of it
    sample = draw_sample(ScenarioConfig.preset(scenario, n=100, replicates=1, seed=3), 0)
    sigma, nu = fit_mle_gpd(sample)
    xmax = sample.values[-1]
    w = np.log1p(nu / sigma * xmax)
    around = np.sort(w * np.array([1.0 - 1e-12, 1.0 + 1e-12]))
    slope = estimator._gpd_profile(around, sample.values / xmax)
    assert slope[0] < 0.0 < slope[1]


def test_mle_on_the_shape_edge():
    # this Weibull sample's likelihood peaks on the box edge nu = 5
    config = ScenarioConfig.preset(4, n=30, replicates=500, seed=20260826)
    sigma, nu = fit_mle_gpd(draw_sample(config, 155))
    assert nu == 5.0
    assert sigma == pytest.approx(0.0202955, rel=1e-5)


@pytest.mark.parametrize("k", [-20, 3, 20])
def test_mle_scale_equivariant(k):
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.4), 200, seed=8)
    sigma, nu = fit_mle_gpd(s)
    sigma_k, nu_k = fit_mle_gpd(SortedSample(s.values * 2.0 ** k))
    assert sigma_k == pytest.approx(2.0 ** k * sigma, rel=1e-9)
    assert nu_k == pytest.approx(nu, rel=1e-9, abs=1e-12)


def test_mle_scan_in_blocks_matches_one_block(monkeypatch):
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.4), 300, seed=9)
    whole = fit_mle_gpd(s)
    monkeypatch.setattr(estimator, "_MLE_BLOCK", 7 * s.n)
    assert fit_mle_gpd(s) == whole


def test_mle_uniform_sample_degenerates():
    # Uniform(0, 1) is GPD(1, -1): the likelihood grows toward the support end
    s = SortedSample(np.random.default_rng(0).uniform(size=50))
    with pytest.raises(EstimationError, match="support boundary"):
        fit_mle_gpd(s)


def test_mle_minimum_at_the_support_end_degenerates(monkeypatch):
    # a profile minimum within 1e-9 of the support end theta * x_max = -1 is no
    # estimate; no sample was seen to give one, so the search is made to return
    # the profile's own point at log1p(theta * x_max) = -30
    s = mc_sample(ParametricFamily("gpd", 3.0, 0.4), 300, seed=9)
    monkeypatch.setattr(estimator, "_profile_minimum",
                        lambda point, grid, slope: ((-30.0, point(-30.0)), 1, 1))
    with pytest.raises(EstimationError, match="support boundary"):
        fit_mle_gpd(s)


def test_mle_many_zeros_is_unbounded():
    # with nu = 5 and sigma -> 0 the 5 positive draws cannot offset 15 zeros
    x = np.concatenate([np.zeros(15), np.random.default_rng(0).exponential(size=5)])
    with pytest.raises(EstimationError, match="15 of 20 observations are zero"):
        fit_mle_gpd(SortedSample(x))
