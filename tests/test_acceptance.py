"""End-to-end acceptance runs.

Each test prints one summary line; the heavy Monte Carlo criteria reuse the
deterministic scenario seeds so reruns are bit-identical.
"""

import numpy as np
import pytest

from lmomdiv.divergence import CHI2, KL, KLM
from lmomdiv.dualsolve import (
    chi2_value_closed_form,
    make_dual_problem,
    solve_dual,
)
from lmomdiv.estimator import (
    asymptotic_covariance,
    confidence_stat,
    fit_divergence,
)
from lmomdiv.lmoments import (
    SortedSample,
    lambda_covariance,
    sample_lmoments_v,
)
from lmomdiv.models import ParametricFamily, gpd_model
from lmomdiv.poly import PolyBasis, integrated_legendre_eval, shifted_legendre_eval
from lmomdiv.sim import ScenarioConfig, run_scenario

from oracles import primal_bruteforce, vstat_weights


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_table1_means():
    cfg = ScenarioConfig.preset(1, n=100, replicates=500, seed=20260826,
                                estimators=("chi2", "lmom", "mle"))
    out = run_scenario(cfg)
    chi2_nu = out.stats["chi2"]["nu"].mean
    chi2_sigma = out.stats["chi2"]["sigma"].mean
    mle_nu = out.stats["mle"]["nu"].mean
    mle_sigma = out.stats["mle"]["sigma"].mean
    lmom_nu = out.stats["lmom"]["nu"].mean
    ok = (
        0.50 <= chi2_nu <= 0.60
        and 3.5 <= chi2_sigma <= 4.1
        and 0.62 <= mle_nu <= 0.74
        and 2.9 <= mle_sigma <= 3.3
        and 0.48 <= lmom_nu <= 0.60
    )
    report(
        "clean-data replicate means", ok,
        f"chi2 nu={chi2_nu:.3f} sigma={chi2_sigma:.3f}; "
        f"mle nu={mle_nu:.3f} sigma={mle_sigma:.3f}; lmom nu={lmom_nu:.3f}",
    )


def test_criterion_2_outlier_robustness():
    cfg = ScenarioConfig.preset(2, n=100, replicates=500, seed=20260826,
                                estimators=("chi2", "lmom", "mle"))
    out = run_scenario(cfg)
    mle_nu = out.stats["mle"]["nu"].mean
    chi2_nu = out.stats["chi2"]["nu"].mean
    lmom_nu = out.stats["lmom"]["nu"].mean
    ok = mle_nu > 1.2 and 0.40 <= chi2_nu <= 0.70 and 0.40 <= lmom_nu <= 0.70
    report(
        "outlier robustness ordering", ok,
        f"mle nu={mle_nu:.3f}; chi2 nu={chi2_nu:.3f}; lmom nu={lmom_nu:.3f}",
    )


def test_criterion_3_misspecification_ordering():
    details = []
    ok = True
    for n in (30, 100):
        cfg = ScenarioConfig.preset(4, n=n, replicates=500, seed=20260826,
                                    estimators=("chi2", "mle"))
        out = run_scenario(cfg)
        mle_l1 = out.stats["mle"]["l1_mean"]
        chi2_l1 = out.stats["chi2"]["l1_mean"]
        ok = ok and mle_l1 > chi2_l1 and mle_l1 >= 2.0 * chi2_l1
        details.append(f"n={n}: mle L1={mle_l1:.4f} chi2 L1={chi2_l1:.4f}")
    report("misspecified-model distance ordering", ok, "; ".join(details))


def test_criterion_4_zero_duality_gap():
    rng = np.random.default_rng(99)
    divs = (CHI2, KLM, KL)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(4, 11))
        x = np.sort(rng.standard_gamma(2.0, size=n))
        x[0] = 0.0
        s = SortedSample(x)
        orders = (2,) if n < 6 else (2, 3)
        basis = PolyBasis(orders)
        # feasible by construction: the target is reached by an explicit
        # strictly positive spacing vector
        u = np.arange(1, n) / n
        a = basis.constraint_vector(u)
        spac = rng.uniform(0.2, 2.0, size=n - 1) * np.maximum(s.spacings, 1e-3)
        target = a.T @ spac
        div = divs[k % 3]
        sol = solve_dual(make_dual_problem(s, basis, div, target))
        primal, _ = primal_bruteforce(s, basis, target, div)
        if not sol.converged:
            report("zero duality gap", False, f"instance {k} status {sol.status}")
        gap = abs(sol.value - primal) / (1.0 + abs(primal))
        worst = max(worst, gap)
    report("zero duality gap", worst <= 1e-6, f"200 instances, worst gap {worst:.2e}")


def test_criterion_5_chi2_closed_form():
    rng = np.random.default_rng(7)
    basis = PolyBasis((2, 3, 4))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(15, 60))
        s = SortedSample(np.sort(rng.standard_gamma(2.0, size=n)))
        m_n = make_dual_problem(s, basis, CHI2, 0.0).m_n
        target = m_n * rng.uniform(0.7, 1.3, size=3)
        sol = solve_dual(make_dual_problem(s, basis, CHI2, target))
        value, xi = chi2_value_closed_form(s, basis, target)
        worst = max(worst, abs(sol.value - value), float(np.max(np.abs(sol.xi - xi))))
    report("quadratic-case closed form", worst <= 1e-10,
           f"100 instances, worst deviation {worst:.2e}")


def test_criterion_6_lmoment_asymptotics():
    fam = ParametricFamily("gpd", 3.0, 0.1)
    n, reps = 2000, 20000
    w = vstat_weights(n, (1, 2, 3, 4))
    rng = np.random.default_rng(123)
    stats = np.empty((reps, 4))
    for start in range(0, reps, 1000):          # chunked to bound memory
        u = rng.random((1000, n))
        u.sort(axis=1)
        stats[start:start + 1000] = fam.quantile(u) @ w
    mc = np.cov(stats.T) * n
    theory = lambda_covariance(fam, 4)
    rel = np.linalg.norm(mc - theory) / np.linalg.norm(theory)
    report("sample L-moment covariance", rel <= 0.05,
           f"relative Frobenius error {rel:.4f}")


def test_criterion_7_sn_coverage():
    fam = ParametricFamily("gpd", 3.0, 0.1)
    model = gpd_model()
    n, reps = 500, 1000
    rejections = 0
    for i in range(reps):
        rng = np.random.default_rng([2026, i])
        s = SortedSample(fam.sample(n, rng))
        fit = fit_divergence(s, model, CHI2)
        plugin = ParametricFamily("gpd", fit.theta[0], min(fit.theta[1], 0.999999))
        cov = asymptotic_covariance(fit.theta, model, plugin)
        stat = confidence_stat(fit.xi, cov.p, cov.sigma, n)
        if stat.p_value < 0.05:
            rejections += 1
    rate = rejections / reps
    report("model-test coverage", 0.02 <= rate <= 0.09,
           f"rejection rate {rate:.3f} at nominal 5%")


def test_criterion_8_exactness_suite():
    checks = []
    # orthogonality at machine precision
    gx, gw = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (gx + 1.0)
    worst = 0.0
    for r in range(6):
        for s_ in range(6):
            val = 0.5 * np.sum(gw * shifted_legendre_eval(r, t)
                               * shifted_legendre_eval(s_, t))
            expect = 1.0 / (2 * r + 1) if r == s_ else 0.0
            worst = max(worst, abs(val - expect))
    checks.append(("orthogonality", worst <= 1e-12))
    # boundary zeros
    bz = max(abs(integrated_legendre_eval(r, tt))
             for r in range(2, 21) for tt in (0.0, 1.0))
    checks.append(("boundary zeros", bz <= 1e-12))
    # exact shift invariance of higher-order plug-in statistics
    x = np.array([0.5, 1.25, 2.0, 4.75, 9.0])
    a = sample_lmoments_v(SortedSample(x), 4)
    b = sample_lmoments_v(SortedSample(x + 128.0), 4)   # power-of-two shift
    checks.append(("shift invariance",
                   all(a[r] == b[r] for r in (2, 3, 4))))
    # rational cross-check of the worked scale statistic
    import math
    from fractions import Fraction

    n = 3
    k2 = [Fraction(i, n) * (Fraction(i, n) - 1) for i in range(n + 1)]
    l2 = sum((k2[i] - k2[i - 1]) * v
             for i, v in zip(range(1, n + 1), map(Fraction, (1, 2, 4))))
    lm = sample_lmoments_v(SortedSample(np.array([1.0, 2.0, 4.0])), 2)
    # rational arithmetic is exact; the float path may differ by the single
    # rounding of the non-representable grid point 1/3
    checks.append(("rational V-statistic",
                   l2 == Fraction(2, 3)
                   and abs(lm[2] - float(l2)) <= 2 * math.ulp(float(l2))))
    # location invariance of the full fit: values snapped to a dyadic grid
    # so that the translation, and hence every spacing, is exact
    rng = np.random.default_rng(17)
    xs = np.sort(ParametricFamily("gpd", 3.0, 0.3).sample(80, rng))
    xs = np.round(xs * 1024.0) / 1024.0
    fa = fit_divergence(SortedSample(xs), gpd_model(), CHI2)
    fb = fit_divergence(SortedSample(xs + 128.0), gpd_model(), CHI2)
    checks.append(("fit location invariance",
                   bool(np.all(fa.theta == fb.theta))))
    ok = all(flag for _, flag in checks)
    report("exactness suite", ok,
           ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_criterion_9_theorem2_covariance():
    fam = ParametricFamily("gpd", 3.0, 0.1)
    model = gpd_model()
    theta0 = np.array([3.0, 0.1])
    n, reps = 500, 2000
    thetas = np.empty((reps, 2))
    for i in range(reps):
        rng = np.random.default_rng([424242, i])
        s = SortedSample(fam.sample(n, rng))
        thetas[i] = fit_divergence(s, model, CHI2).theta
    mc = np.cov(thetas.T) * n
    theory = asymptotic_covariance(theta0, model, fam).cov_theta
    rel = np.linalg.norm(mc - theory) / np.linalg.norm(theory)
    report("estimator covariance vs theory", rel <= 0.15,
           f"relative Frobenius error {rel:.4f}; "
           f"mc diag {np.diag(mc).round(3)} theory diag {np.diag(theory).round(3)}")
