import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmomdiv.lmoments import (
    LmomentVector,
    SortedSample,
    _pwm_unbiased,
    discrete_lmoments,
    gauss_legendre,
    lambda_covariance,
    legendre_rows,
    lmoment_ratios,
    plugin_second_moments,
    sample_lmoments_u,
    sample_lmoments_v,
    triangle_covariance,
)
from lmomdiv.models import ParametricFamily
from lmomdiv.poly import PolyBasis, integrated_legendre_eval, node_table, shifted_legendre_eval
from oracles import (
    gpd_plugin_omega,
    gpd_plugin_sigma,
    population_lmoments,
    pwm_unbiased_comb,
    sample_lmoments_v_per_order,
    vstat_weights,
    weibull_plugin_omega,
    weibull_plugin_sigma,
)

#: the uniform law on [0, 1]: Q(u) = u
UNIFORM = ParametricFamily("gpd", 1.0, -1.0)


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


@pytest.mark.parametrize("s", [2.0 ** 40, 2.0 ** -40, 0.75, 3.0])
def test_scaled_sample_is_the_sorted_quotient_without_a_sort(monkeypatch, s):
    # division by s > 0 keeps the order, so scaled() skips the sort the
    # constructor makes; the values are the constructor's bit for bit and
    # stay read-only
    x = np.concatenate([[0.0, 0.0, -0.0], 3.0 * np.random.default_rng(1).weibull(0.1, 200),
                        -np.random.default_rng(2).exponential(size=50)])
    sample = SortedSample(x)
    ref = SortedSample(sample.values / s)
    monkeypatch.setattr(np, "sort", None)      # scaled() does not sort
    out = sample.scaled(s)
    assert type(out) is SortedSample
    assert out.values.tobytes() == ref.values.tobytes()
    assert not out.values.flags.writeable
    with pytest.raises(ValueError):
        out.values[0] = 7.0


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


#: finite values whose sums overflow: lmomdiv lmoments printed Infinity for
#: lambda_1 and +-Infinity for all four U-statistics
_HUGE = np.array([1e300, 1e305, 1e307, 1.7e308, 1.0])


def test_lmoments_whose_sums_overflow_are_taken_in_units():
    # [REGRESSION] np.mean and the PWMs' w @ x overflowed with numpy's warning;
    # where they do, they are taken in units of 2^1023, the power of two at
    # the largest magnitude, and scaled back
    sample = SortedSample(_HUGE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, u = sample_lmoments_v(sample, 4), sample_lmoments_u(sample, 4)
    scaled = np.sort(_HUGE) * 2.0 ** -1023
    assert v[1] == pytest.approx(float(np.mean(scaled)) * 2.0 ** 1023, rel=1e-15)
    assert u[1] == v[1]
    for r in range(2, 5):
        assert u[r] == pytest.approx(u_stat_bruteforce(scaled, r) * 2.0 ** 1023, rel=1e-12)
    # finite sums are the plain ones, bit for bit
    x = np.random.default_rng(0).exponential(size=30)
    assert sample_lmoments_v(SortedSample(x), 1)[1] == float(np.mean(np.sort(x)))


def test_a_spacing_that_overflows_raises():
    # [REGRESSION] np.diff warned "overflow encountered in subtract" and the
    # L-moments and fits went on with an infinite spacing; a range past the
    # floats with finite gaps keeps them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a spacing of the sample overflows a float"):
            SortedSample([-1.7e308, 1.7e308]).spacings
        wide = SortedSample([-1e308, 1e308, 0.0, 1.0, 2.0])
        assert wide.spacings.tolist() == [1e308, 1.0, 1.0, 1e308 - 2.0]


@pytest.mark.parametrize("n", [7, 20, 60])
def test_pwm_weights_match_binomials(n):
    # the recurrence w_k(j) = w_{k-1}(j) (j - k + 1) / (n - k) against math.comb
    x = np.sort(np.random.default_rng(n).exponential(size=n))
    b = _pwm_unbiased(SortedSample(x), 6)
    assert b == pytest.approx(pwm_unbiased_comb(x, 6), rel=1e-13, abs=0.0)


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
    # a heavy tail and a bounded support
    for fam in (ParametricFamily("gpd", 3.0, 0.7), ParametricFamily("gpd", 1.0, -0.5)):
        lam = population_lmoments(fam.quantile, 4)
        assert np.allclose(lam.values[1:], fam.lmoments(), rtol=1e-6)


def test_population_gauss_rule_agrees():
    # the adaptive rule against a fixed Gauss-Legendre sum on a bounded law
    fam = ParametricFamily("gpd", 1.0, -0.5)
    adaptive = population_lmoments(fam.quantile, 3)
    u, w = gauss_legendre(512, 0.0, 1.0)
    gauss = [w @ (fam.quantile(u) * shifted_legendre_eval(r - 1, u)) for r in (1, 2, 3)]
    assert np.allclose(adaptive.values, gauss, atol=1e-8)


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
    cov = lambda_covariance(UNIFORM, 4)
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
    cov = lambda_covariance(UNIFORM, 4)
    assert np.linalg.norm(mc - cov) < 0.15 * np.linalg.norm(cov) + 5e-4


def _block_error(got, ref):
    """Largest |got - ref| entry in units of sqrt(ref_aa ref_bb)."""
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    return float(np.max(np.abs(got - ref) / scale))


@pytest.mark.parametrize("nu", [-5.0, -1.0, -0.3, 0.1, 0.4, 0.45, 0.6, 0.9])
def test_plugin_blocks_match_gpd_closed_form(nu):
    # [DERIVED] over u <= 1 - 1e-10 the GPD blocks are finite sums of
    # exponential integrals (tests/oracles.py); above nu = 1/2 only the cut
    # keeps Sigma finite, and the rule must still match it
    fam = ParametricFamily("gpd", 3.0, nu)
    assert _block_error(lambda_covariance(fam, 4),
                        gpd_plugin_sigma(3.0, nu, (1, 2, 3, 4))) <= 1e-9
    assert _block_error(plugin_second_moments(fam, PolyBasis((2, 3, 4)).constraint_vector),
                        gpd_plugin_omega(3.0, nu, (2, 3, 4))) <= 1e-9


def test_weibull_unit_shape_is_the_exponential_gpd():
    # [DERIVED] Weibull(sigma, 1) = GPD(sigma, 0), through a different dQ/ds
    fam = ParametricFamily("weibull", 2.5, 1.0)
    assert _block_error(lambda_covariance(fam, 4),
                        gpd_plugin_sigma(2.5, 0.0, (1, 2, 3, 4))) <= 1e-9
    assert _block_error(plugin_second_moments(fam, PolyBasis((2, 3, 4)).constraint_vector),
                        gpd_plugin_omega(2.5, 0.0, (2, 3, 4))) <= 1e-9


@pytest.mark.parametrize("nu", [0.05, 0.5, 2.0, 5.0, 20.0])
def test_plugin_blocks_match_weibull_incomplete_gamma_forms(nu):
    # [DERIVED] Omega is sum_k c_k sigma Gamma(1 + 1/nu) P(1/nu, k T) / k^(1/nu);
    # Sigma has the inner integral in incomplete gamma functions and the outer
    # one by adaptive quadrature against s^(1/nu - 1), singular at 0 for nu > 1
    fam = ParametricFamily("weibull", 3.0, nu)
    assert _block_error(lambda_covariance(fam, 4),
                        weibull_plugin_sigma(3.0, nu, (1, 2, 3, 4))) <= 1e-9
    assert _block_error(plugin_second_moments(fam, PolyBasis((2, 3, 4)).constraint_vector),
                        weibull_plugin_omega(3.0, nu, (2, 3, 4))) <= 1e-9


def test_triangle_rule_matches_entrywise_sum():
    # the A + A^T evaluation against the defining integrand, summed entry by
    # entry over the same nodes: s = T r^3 outside, t = s + (T - s) r^3 inside,
    # with dx = (dQ/ds) ds; only the summation order differs
    fam = ParametricFamily("gpd", 3.0, 0.3)
    rows = legendre_rows((1, 2, 3, 4))
    top = -math.log(1e-10)
    r, w = gauss_legendre(200, 0.0, 1.0)
    ref = np.zeros((4, 4))
    for si, wsi in zip(top * r ** 3, 3.0 * top * r ** 2 * w):
        t = si + (top - si) * r ** 3
        wt = 3.0 * (top - si) * r ** 2 * w
        fx, fy = -math.expm1(-si), -np.expm1(-t)
        dx, dy = rows(fx), rows(fy)
        wx = wsi * fam.quantile_slope(si)
        wy = wt * fam.quantile_slope(t)
        for a in range(4):
            for b in range(4):
                integrand = (dx[a] * dy[:, b] + dy[:, a] * dx[b]) * fx * np.exp(-t)
                ref[a, b] += wx * (wy @ integrand)
    got = triangle_covariance(fam, rows)
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


@pytest.mark.parametrize("n", [2, 3, 7, 100, 1001])
@pytest.mark.parametrize("max_order", [2, 4, 6, 9])
def test_sample_lmoments_v_from_the_node_table_bit_for_bit(n, max_order):
    # the cached node table gives each order's sum exactly as evaluating its
    # integrated polynomial at i/n afresh; ties give zero spacings
    values = ParametricFamily("gpd", 3.0, 0.4).sample(n, np.random.default_rng([n, 1]))
    for data in (values, np.round(values)):
        sample = SortedSample(data)
        got = sample_lmoments_v(sample, max_order).values
        assert got.tobytes() == sample_lmoments_v_per_order(sample, max_order).tobytes()


def test_node_table_is_shared_read_only_and_exact():
    rows, rank, columns = node_table(50, 2)
    assert node_table(50, 4)[0] is rows             # orders 2-4 share one table per n
    assert node_table(50, 4)[2] is columns
    assert rows.shape == (49, 3) and rank == 3 and rows.flags.c_contiguous
    assert columns.tobytes() == rows.T.tobytes() and columns.flags.c_contiguous
    for table in (rows, columns):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    nodes = np.arange(1, 50) / 50
    for r in (2, 3, 4):
        assert rows[:, r - 2].tobytes() == integrated_legendre_eval(r, nodes).tobytes()
    assert node_table(50, 6)[0].shape == (49, 5)
    assert node_table(3, 4)[1] == 2                 # two nodes hold at most rank 2
