import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmomdiv.lmoments import (
    LmomentVector,
    Quad2DConfig,
    QuadConfig,
    SortedSample,
    discrete_lmoments,
    gauss_legendre,
    lambda_covariance,
    legendre_rows,
    lmoment_ratios,
    population_lmoments,
    sample_lmoments_u,
    sample_lmoments_v,
    triangle_covariance,
    vstat_weights,
)
from lmomdiv.models import ParametricFamily
from lmomdiv.poly import integrated_legendre_eval, shifted_legendre_eval


def test_sorted_sample_basics():
    s = SortedSample(np.array([4.0, 1.0, 2.0]))
    assert np.array_equal(s.values, [1.0, 2.0, 4.0])
    assert s.n == 3
    assert np.allclose(s.spacings, [1.0, 2.0])
    with pytest.raises(ValueError):
        SortedSample(np.array([1.0]))
    with pytest.raises(ValueError):
        SortedSample(np.array([1.0, np.nan]))


def test_sample_immutable():
    s = SortedSample(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 7.0


def test_v_statistic_example():
    # [DERIVED] worked by hand: {1,2,4} gives l_1 = 7/3, l_2 = 2/3
    s = SortedSample(np.array([1.0, 2.0, 4.0]))
    lm = sample_lmoments_v(s, 2)
    assert lm[1] == pytest.approx(7.0 / 3.0)
    assert lm[2] == pytest.approx(2.0 / 3.0)


def test_u_statistic_example():
    # [DERIVED] unbiased pairwise mean-difference form: {1,2,4} gives l_2 = 1
    s = SortedSample(np.array([1.0, 2.0, 4.0]))
    lm = sample_lmoments_u(s, 2)
    assert lm[1] == pytest.approx(7.0 / 3.0)
    assert lm[2] == pytest.approx(1.0)


def u_stat_bruteforce(x, r):
    """Order-r statistic by full subset enumeration (independent oracle)."""
    x = np.sort(x)
    n = len(x)
    total = 0.0
    for subset in itertools.combinations(range(n), r):
        inner = sum(
            (-1) ** k * math.comb(r - 1, k) * x[subset[r - 1 - k]]
            for k in range(r)
        )
        total += inner / r
    return total / math.comb(n, r)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_u_statistic_matches_enumeration(seed, r):
    rng = np.random.default_rng(seed)
    x = rng.standard_gamma(2.0, size=8)
    lm = sample_lmoments_u(SortedSample(x), 4)
    assert lm[r] == pytest.approx(u_stat_bruteforce(x, r), rel=1e-10, abs=1e-12)


def test_vstat_weights_reproduce_statistic():
    rng = np.random.default_rng(3)
    x = np.sort(rng.exponential(size=40))
    s = SortedSample(x)
    w = vstat_weights(40, (1, 2, 3, 4))
    assert w.shape == (40, 4)
    lm = sample_lmoments_v(s, 4)
    assert np.allclose(x @ w, lm.values, atol=1e-12)


def test_weight_columns_shape():
    # order-1 weights are uniform; higher-order columns sum to zero and
    # alternate sign from the tails inward
    w = vstat_weights(200, (1, 2, 3, 4))
    assert np.allclose(w[:, 0], 1.0 / 200)
    assert np.allclose(w[:, 1:].sum(axis=0), 0.0, atol=1e-12)
    # order 2: negative low tail, positive high tail
    assert w[0, 1] < 0 < w[-1, 1]
    # order 3: positive in both tails, negative in the middle
    assert w[0, 2] > 0 and w[-1, 2] > 0 and w[100, 2] < 0


@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=0.01, max_value=20))
@settings(max_examples=30, deadline=None)
def test_affine_equivariance(shift, scale):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(25)
    base = sample_lmoments_v(SortedSample(x), 4)
    moved = sample_lmoments_v(SortedSample(scale * x + shift), 4)
    assert moved[1] == pytest.approx(scale * base[1] + shift, rel=1e-9, abs=1e-9)
    for r in (2, 3, 4):
        assert moved[r] == pytest.approx(scale * base[r], rel=1e-9, abs=1e-9)


def test_discrete_equals_v_statistic():
    rng = np.random.default_rng(11)
    x = np.sort(rng.exponential(size=12))
    lm_v = sample_lmoments_v(SortedSample(x), 4)
    lm_d = discrete_lmoments(x, np.full(12, 1.0 / 12))
    assert np.allclose(lm_v.values, lm_d.values, rtol=0, atol=1e-13)


def test_population_uniform():
    # [DERIVED] uniform law: lambda = (1/2, 1/6, 0, 0)
    lam = population_lmoments(lambda u: u, 4)
    assert np.allclose(lam.values, [0.5, 1.0 / 6.0, 0.0, 0.0], atol=1e-10)


def test_population_matches_closed_form_gpd():
    fam = ParametricFamily("gpd", 3.0, 0.7)
    lam = population_lmoments(fam.quantile, 4)
    assert np.allclose(lam.values[1:], fam.lmoments(), rtol=1e-6)


def test_population_gauss_rule_agrees():
    fam = ParametricFamily("gpd", 1.0, -0.5)
    adaptive = population_lmoments(fam.quantile, 3)
    gauss = population_lmoments(fam.quantile, 3,
                                quad=QuadConfig(method="gauss", gauss_points=512))
    assert np.allclose(adaptive.values, gauss.values, atol=1e-8)


def test_population_step_function_matches_v():
    # a quantile function stepping on {1, 2, 4} is the empirical quantile
    def quantile(u):
        u = np.asarray(u)
        return np.where(u < 1 / 3, 1.0, np.where(u < 2 / 3, 2.0, 4.0))

    lam = population_lmoments(quantile, 3)
    lm = sample_lmoments_v(SortedSample(np.array([1.0, 2.0, 4.0])), 3)
    assert np.allclose(lam.values, lm.values, atol=1e-10)


def test_ratios():
    lm = LmomentVector(np.array([2.0, 1.0, 0.3, 0.1]), kind="v")
    r = lmoment_ratios(lm)
    assert r["gini"] == pytest.approx(0.5)
    assert r["tau_3"] == pytest.approx(0.3)
    assert r["tau_4"] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        lmoment_ratios(LmomentVector(np.array([2.0, 0.0]), kind="v"))


def test_lambda_covariance_uniform():
    # [DERIVED] uniform on [0,1]: Lambda_{11} = 1/12, and by orthogonality
    # Lambda_{rr} = 1 / ((2r-1)(2r+1)(2r+3)) has been cross-checked at r=1
    cov = lambda_covariance(lambda x: np.clip(x, 0.0, 1.0), 4,
                            support=(0.0, 1.0))
    assert cov.shape == (4, 4)
    assert cov[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-8)
    assert np.allclose(cov, cov.T)
    evals = np.linalg.eigvalsh(cov)
    assert np.all(evals > -1e-12)


def test_lambda_covariance_monte_carlo_uniform():
    # [DERIVED] covariance of scaled sample L-moments, uniform law
    rng = np.random.default_rng(19)
    reps, n = 4000, 400
    u = rng.random((reps, n))
    u.sort(axis=1)
    w = vstat_weights(n, (1, 2, 3, 4))
    stats = u @ w
    mc = np.cov(stats.T) * n
    cov = lambda_covariance(lambda x: np.clip(x, 0.0, 1.0), 4,
                            support=(0.0, 1.0))
    assert np.linalg.norm(mc - cov) < 0.15 * np.linalg.norm(cov) + 5e-4


def test_lambda_covariance_grid_config():
    cov_a = lambda_covariance(lambda x: np.clip(x, 0.0, 1.0), 2,
                              support=(0.0, 1.0))
    cov_b = lambda_covariance(lambda x: np.clip(x, 0.0, 1.0), 2,
                              support=(0.0, 1.0),
                              quad=Quad2DConfig(nx=400, ny=400))
    assert np.allclose(cov_a, cov_b, atol=1e-8)


def test_triangle_rule_matches_entrywise_sum():
    # the A + A^T evaluation against the defining integrand, summed entry by
    # entry over the same nodes; only the summation order differs
    fam = ParametricFamily("gpd", 3.0, 0.3)
    a, b = 0.0, fam.quantile(1.0 - 1e-10)
    quad = Quad2DConfig(nx=40, ny=30)
    rows = legendre_rows((1, 2, 3, 4))
    ref = np.zeros((4, 4))
    x, wx = gauss_legendre(quad.nx, a, b)
    for xi, wxi in zip(x, wx):
        y, wy = gauss_legendre(quad.ny, xi, b)
        fx, fy = fam.cdf(xi), fam.cdf(y)
        dx, dy = rows(fx), rows(fy)
        for r in range(4):
            for s in range(4):
                integrand = (dx[r] * dy[:, s] + dy[:, r] * dx[s]) * fx * (1.0 - fy)
                ref[r, s] += wxi * (wy @ integrand)
    got = triangle_covariance(fam.cdf, rows, (a, b), quad)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("n", [200, 2000])
def test_gauss_legendre_integrates_even_powers(n):
    x, w = gauss_legendre(n, -1.0, 1.0)
    for k in range(11):
        assert w @ x ** (2 * k) == pytest.approx(2.0 / (2 * k + 1), rel=0.0, abs=1e-12)


def test_shifted_sample():
    s = SortedSample(np.array([1.0, 2.0, 4.0]))
    t = s.shifted(-1.0)
    assert np.allclose(t.values, [0.0, 1.0, 3.0])
    # spacings are shift invariant
    assert np.allclose(t.spacings, s.spacings)
