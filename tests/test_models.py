import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import digamma, polygamma

from lmomdiv.models import (
    ParametricFamily,
    _digamma_trigamma,
    _gpd_slopes,
    gpd_model,
    model_by_name,
    order_stat_model_3,
    weibull_model,
)

from oracles import (
    family_cdf,
    family_density,
    gpd_slopes_array,
    order_stat_polynomial,
    population_lmoments,
)


# ---------------------------------------------------------------------------
# closed-form L-moment maps


def test_gpd_lmoment_values():
    # [DERIVED] sigma=3, nu=0.7: lambda_2 = 3/(0.3*1.3), ratio recursions
    l2, l3, l4 = ParametricFamily("gpd", 3.0, 0.7).lmoments()
    assert l2 == pytest.approx(3.0 / (0.3 * 1.3))
    assert l3 == pytest.approx(l2 * 1.7 / 2.3)
    assert l4 == pytest.approx(l3 * 2.7 / 3.3)


def test_gpd_exponential_limit():
    # [DERIVED] nu -> 0 is the exponential law: tau_3 = 1/3, tau_4 = 1/6
    l2, l3, l4 = ParametricFamily("gpd", 1.0, 0.0).lmoments()
    assert l2 == pytest.approx(0.5)
    assert l3 / l2 == pytest.approx(1.0 / 3.0)
    assert l4 / l2 == pytest.approx(1.0 / 6.0)


def test_weibull_exponential_case():
    # [DERIVED] nu=1 is exponential with mean sigma
    l2, l3, l4 = ParametricFamily("weibull", 2.0, 1.0).lmoments()
    assert l2 == pytest.approx(1.0)
    assert l3 / l2 == pytest.approx(1.0 / 3.0)
    assert l4 / l2 == pytest.approx(1.0 / 6.0)


def test_gpd_lmoment_exact_zeros():
    # [DERIVED] the product form carries the factors 1 + nu and 2 + nu
    assert ParametricFamily("gpd", 1.0, -1.0).lmoments()[1] == 0.0
    assert ParametricFamily("gpd", 1.0, -1.0).lmoments()[2] == 0.0
    assert ParametricFamily("gpd", 1.0, -2.0).lmoments()[2] == 0.0


@pytest.mark.parametrize("name,sigma,nu", [
    ("gpd-l234", 3.0, 0.7),
    ("gpd-l234", 1.0, -0.4),
    ("gpd-l234", 3.0, -5.0),
    ("gpd-l234", 3.0, -1.0),
    ("gpd-l234", 3.0, 0.99),
    ("weibull-l234", 3.0, 0.4),
    ("weibull-l234", 2.0, 2.5),
    ("weibull-l234", 3.0, 0.05),
    ("weibull-l234", 3.0, 20.0),
])
def test_analytic_jacobians(name, sigma, nu):
    # central differences of the model's map, out to the edges of its shape box
    model = model_by_name(name)
    theta = np.array([sigma, nu])
    h = 1e-6
    fd = np.column_stack([
        (model.lmoment_map(theta + h * e) - model.lmoment_map(theta - h * e)) / (2 * h)
        for e in np.eye(2)
    ])
    assert np.allclose(model.lmoment_jacobian(theta), fd, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("name", ["gpd-l234", "weibull-l234"])
def test_model_map_is_its_family_lmoments(name):
    # the model's constraint values are the L-moments of its plug-in law, bit for bit
    model = model_by_name(name)
    for sigma in (1e-3, 3.0, 1e3):
        for nu in np.linspace(*model.box[1], 7):
            theta = np.array([sigma, nu])
            assert np.array_equal(ParametricFamily(model.family, sigma, nu).lmoments(),
                                  model.lmoment_map(theta))


def test_lmoment_maps_match_quadrature():
    for fam in (ParametricFamily("gpd", 3.0, 0.7),
                ParametricFamily("gpd", 2.0, -0.5),
                ParametricFamily("weibull", 3.0, 0.4)):
        lam = population_lmoments(fam.quantile, 4)
        assert np.allclose(lam.values[1:], fam.lmoments(), rtol=1e-6)


# ---------------------------------------------------------------------------
# distribution families


@pytest.mark.parametrize("fam", [
    ParametricFamily("gpd", 3.0, 0.7),
    ParametricFamily("gpd", 2.0, -0.5),
    ParametricFamily("gpd", 1.0, 0.0),
    ParametricFamily("weibull", 3.0, 0.4),
    ParametricFamily("weibull", 1.0, 2.0),
])
def test_quantile_inverts_cdf(fam):
    u = np.linspace(0.01, 0.99, 25)
    assert np.allclose(family_cdf(fam, fam.quantile(u)), u, atol=1e-9)


@pytest.mark.parametrize("fam", [
    ParametricFamily("gpd", 3.0, 0.7),
    ParametricFamily("gpd", 2.0, -0.5),
    ParametricFamily("gpd", 1.0, 0.0),
    ParametricFamily("weibull", 3.0, 0.4),
    ParametricFamily("weibull", 1.0, 2.0),
])
def test_quantile_slope_is_the_derivative_in_log_tail(fam):
    # dQ/ds for s = -log(1 - u), against a central difference of Q, and
    # against (1 - u) / f(Q(u)) away from the support ends
    s = np.linspace(0.1, 10.0, 25)
    h = 1e-6
    fd = (fam.quantile(-np.expm1(-(s + h))) - fam.quantile(-np.expm1(-(s - h)))) / (2 * h)
    assert np.allclose(fam.quantile_slope(s), fd, rtol=1e-6)
    u = -np.expm1(-s)
    assert np.allclose(fam.quantile_slope(s), np.exp(-s) / family_density(fam, fam.quantile(u)),
                       rtol=1e-9)


@pytest.mark.parametrize("fam", [
    ParametricFamily("gpd", 3.0, 0.5),
    ParametricFamily("gpd", 2.0, -0.5),
    ParametricFamily("weibull", 3.0, 0.4),
])
def test_density_integrates_to_one(fam):
    # piecewise between quantiles so the adaptive rule sees every scale
    cuts = fam.quantile(np.array([0.0, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-9]))
    total = sum(
        quad(lambda x: family_density(fam, x), a, b, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_is_cdf_derivative():
    fam = ParametricFamily("gpd", 3.0, 0.7)
    x = np.linspace(0.5, 20.0, 30)
    h = 1e-6
    fd = (family_cdf(fam, x + h) - family_cdf(fam, x - h)) / (2 * h)
    assert np.allclose(family_density(fam, x), fd, rtol=1e-5)


def test_negative_shape_support():
    fam = ParametricFamily("gpd", 2.0, -0.5)
    assert fam.support == (0.0, pytest.approx(4.0))
    assert family_cdf(fam, 5.0) == 1.0
    assert family_density(fam, 5.0) == 0.0


def test_sampler_distribution():
    rng = np.random.default_rng(42)
    fam = ParametricFamily("gpd", 3.0, 0.1)
    x = fam.sample(100_000, rng)
    # Kolmogorov-Smirnov distance against the model cdf
    xs = np.sort(x)
    n = len(xs)
    u = family_cdf(fam, xs)
    ks = max(np.max(u - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - u))
    assert ks < 0.006
    # mean within 3 standard errors: mean = sigma/(1-nu), var known finite
    mean = 3.0 / 0.9
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - mean) < 3 * se


def test_family_validation():
    with pytest.raises(ValueError):
        ParametricFamily("gpd", -1.0, 0.5)
    with pytest.raises(ValueError):
        ParametricFamily("weibull", 1.0, -0.5)
    with pytest.raises(ValueError):
        ParametricFamily("cauchy", 1.0, 0.5)


@pytest.mark.parametrize("sigma, nu", [
    (math.nan, 0.7), (3.0, math.nan), (math.inf, 0.7), (3.0, math.inf), (3.0, -math.inf),
])
@pytest.mark.parametrize("name", ["gpd", "weibull"])
def test_family_rejects_non_finite_parameters(name, sigma, nu):
    # a NaN scale passed every comparison and an infinite one gave a law with no mass
    with pytest.raises(ValueError, match="finite"):
        ParametricFamily(name, sigma, nu)


#: levels whose quantiles are the interior points of the float-function tests
_LEVELS = -np.expm1(-np.geomspace(1e-12, 30.0, 60))
_EPS = np.finfo(float).eps


@pytest.mark.parametrize("name, sigma, nu", [
    *(("gpd", 2.0, nu) for nu in (-2.0, -1.0, -0.5, 0.0, 0.4, 1.5)),
    *(("weibull", 1e-3, nu) for nu in (0.05, 1.0, 20.0)),
])
def test_float_cdf_and_log_density_match_the_numpy_oracle(name, sigma, nu):
    # inside the support: the cdf within 1 ulp of 1 of the numpy cdf, and
    # the log-density within 8 eps of the log of the numpy density (relative
    # where it exceeds 1 in size)
    fam = ParametricFamily(name, sigma, nu)
    cdf, log_f = fam.cdf_fn(), fam.log_density_fn()
    x = fam.quantile(_LEVELS)
    x = x[(x > 0.0) & (x < fam.support[1])]
    ours = np.array([cdf(v) for v in x.tolist()])
    assert np.all(np.abs(ours - family_cdf(fam, x)) <= _EPS / 2)
    log_oracle = np.log(family_density(fam, x))
    ours = np.array([log_f(v) for v in x.tolist()])
    assert np.all(np.abs(ours - log_oracle) <= 8 * _EPS * np.maximum(1.0, np.abs(log_oracle)))
    assert cdf(0.0) == family_cdf(fam, 0.0) == 0.0
    end = fam.support[1]
    if name == "gpd":
        # at 0 the limit 1 / sigma; at a finite end the density's limit: 0 for
        # -1 < nu < 0, 1 / sigma for the uniform law and a pole for nu < -1;
        # at the end and past it the cdf is 1
        assert log_f(0.0) == -math.log(sigma)
        if end < math.inf:
            assert log_f(end) == {-2.0: math.inf, -1.0: -math.log(sigma), -0.5: -math.inf}[nu]
            assert cdf(end) == cdf(2.0 * end) == family_cdf(fam, 2.0 * end) == 1.0
    elif nu > 0.05:
        # past exp(709) the power (x / sigma)^nu overflows a float: the cdf is 1
        # and the log-density -inf, where the numpy density warns of the overflow;
        # at nu = 0.05 such an x is beyond the float range
        past = sigma * math.exp(709.5 / nu)
        assert cdf(past) == 1.0 and log_f(past) == -math.inf


@pytest.mark.parametrize("sigma", [1e-300, 1.7e-314])
@pytest.mark.parametrize("nu", [-0.5, 0.4, 5.0])
def test_gpd_log_density_is_finite_where_its_slope_overflows(nu, sigma):
    # nu / sigma overflowed for a subnormal scale, and nu / sigma * x for a
    # large x, so log f was -inf inside the support; the oracle takes
    # z = nu x / sigma exactly and log1p(z) as log z past 2^1000
    fam = ParametricFamily("gpd", sigma, nu)
    log_f = fam.log_density_fn()
    xs = [0.0, 5e-324, 1e-320, sigma / 3, sigma, 1.9 * sigma]
    if nu > 0.0:
        xs += [1.0, 1e10, 1e300, 1.7e308]
    for x in xs:
        assert x < fam.support[1]
        z = Fraction(nu) * Fraction(x) / Fraction(sigma)
        log1p_z = math.log1p(z) if z < 2 ** 1000 else math.log(z.numerator) - math.log(
            z.denominator)
        ref = -math.log(sigma) - (1.0 + 1.0 / nu) * log1p_z
        assert math.isfinite(log_f(x))
        assert math.isclose(log_f(x), ref, rel_tol=1e-14, abs_tol=1e-12), (x, log_f(x), ref)


@pytest.mark.parametrize("sigma, nu, x, approx", [
    (1.7e-314, 5.0, 1e-314, 721.8976), (1e-300, 2.0, 1e10, -math.inf),
    (1e-300, 0.05, 1e10, -3.1623e15), (3.0, 0.5, 2.0, -2.4055)])
def test_weibull_log_density_where_its_quotients_overflow(sigma, nu, x, approx):
    # [REGRESSION] log(nu / sigma) was inf for a subnormal scale (log f =
    # 721.8976 there), and log(x / sigma) inf for a large x: nan where
    # (x / sigma)^nu is past the floats and -inf is right, -inf where log f is
    # -3.16e15.  Each term is now taken in logs, as the oracle takes it
    log_z = math.log(x) - math.log(sigma)
    tail = math.exp(nu * log_z) if nu * log_z < 709.0 else math.inf
    ref = math.log(nu) - math.log(sigma) + (nu - 1.0) * log_z - tail
    got = ParametricFamily("weibull", sigma, nu).log_density_fn()(x)
    assert got == ref or math.isclose(got, ref, rel_tol=1e-14), (got, ref)
    assert got == pytest.approx(approx, rel=1e-4)


@pytest.mark.parametrize("name, nu", [("weibull", 0.001), ("gpd", 800.0)])
def test_quantile_overflow_raises(name, nu):
    # [REGRESSION] the quantile overflowed to inf with numpy's "overflow
    # encountered in power" warning, and a sample drawn from it was refused
    # only later, as non-finite; it now raises, naming the law, with no warning
    fam = ParametricFamily(name, 3.0, nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"quantile of .*{name}.* overflows a float"):
            fam.sample(100, np.random.default_rng(0))
        assert math.isfinite(fam.quantile(0.0))


@pytest.mark.parametrize("name, sigma, nu", [
    ("weibull", 3.0, 1e-3), ("weibull", 3.0, 1e-300), ("gpd", 1.7e308, 0.5)])
def test_lmoments_overflow_raises(name, sigma, nu):
    # [REGRESSION] Gamma(1 + 1/nu) raised math's bare OverflowError for a
    # small Weibull shape, and sigma * f overflowed to inf with numpy's
    # "overflow encountered in multiply"; both now raise, naming the law
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"L-moments of .*{name}.* overflow a float"):
            ParametricFamily(name, sigma, nu).lmoments()


@pytest.mark.parametrize("nu", [0.05, 0.5, 1.0, 2.0, 20.0])
def test_weibull_log_density_at_the_ends_of_its_support(nu):
    # [REGRESSION] log f raised "math domain error" at x = 0 and was nan at
    # x = inf for nu >= 1; it is its limit at both ends: at 0 +inf, -log sigma
    # or -inf for nu <, =, > 1, and -inf at inf
    sigma = 3.0
    log_f = ParametricFamily("weibull", sigma, nu).log_density_fn()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero, at_inf = log_f(0.0), log_f(math.inf)
    assert at_inf == -math.inf
    if nu == 1.0:
        assert at_zero == pytest.approx(-math.log(sigma), rel=1e-15)
        assert log_f(5e-324) == at_zero
    else:
        assert at_zero == (math.inf if nu < 1.0 else -math.inf)
        # toward 0, log f heads for that limit
        assert (log_f(5e-324) > log_f(1e-100)) == (nu < 1.0)
    assert math.isnan(log_f(math.nan))


#: log-uniform across the positive floats, 5e-324 to 1.8e308
_POSITIVE = st.floats(min_value=-744.4, max_value=709.78).map(math.exp).filter(lambda v: v > 0.0)
_GPD_SHAPES = st.one_of(_POSITIVE, _POSITIVE.map(lambda v: -v),
                        st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0]))


@given(st.one_of(st.tuples(st.just("gpd"), _POSITIVE, _GPD_SHAPES),
                 st.tuples(st.just("weibull"), _POSITIVE, _POSITIVE)))
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
def test_extreme_laws_give_values_or_errors_naming_the_law(law):
    # the sweep over scales and shapes across the floats, with warnings as
    # errors: every call gives a finite or correctly signed infinite value, or
    # raises a ValueError that names the law
    fam = ParametricFamily(*law)
    lo, hi = fam.support

    def call(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            assert repr(fam) in str(exc)
            return None

    points = (0.0, 5e-324, 1e-300, 1e-10, 1.0, fam.sigma, 1e10, 1e300, 1.7e308, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_f, cdf = fam.log_density_fn(), fam.cdf_fn()
        for x in points:
            v = log_f(x)
            # +inf only where the density is unbounded, at an end of the support
            assert not math.isnan(v) and (v < math.inf or x in (lo, hi)), x
            assert 0.0 <= cdf(x) <= 1.0, x
        q = call(fam.quantile, np.array([0.0, 1e-300, 1e-3, 0.5, 0.999, 1.0 - 2.0 ** -53]))
        assert q is None or (np.isfinite(q).all() and (np.diff(q) >= 0.0).all()
                             and 0.0 <= q[0] and q[-1] <= hi)
        s = np.array([0.0, 1e-300, 1e-3, 1.0, 23.0, 700.0])
        slope = call(fam.quantile_slope, s)
        # the one infinite slope is the Weibull's at s = 0
        assert slope is None or ((slope >= 0.0).all() and np.isfinite(slope[1:]).all())
        lm = call(fam.lmoments)
        assert lm is None or (np.isfinite(lm).all() and lm[0] >= 0.0)
        x = call(fam.sample, 5, np.random.default_rng(0))
        assert x is None or (np.isfinite(x).all() and (x >= 0.0).all())


@pytest.mark.parametrize("law, x, want", [
    # [REGRESSION] x / sigma underflowed to 0 and the Weibull cdf raised math's
    # "math domain error"; z^nu is taken in logs there: with a tiny shape it
    # is 1 to 150 digits, and (1e-330)^0.5 is 1e-165
    (("weibull", 9.4e78, 1.2e-153), 5e-324, -math.expm1(-1.0)),
    (("weibull", 1e300, 0.5), 1e-30, 1e-165),
], ids=["tiny-shape", "half"])
def test_weibull_cdf_where_x_over_sigma_underflows(law, x, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ParametricFamily(*law).cdf_fn()(x) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("nu", [1e-20, 1e-12, -1e-12])
def test_gpd_cdf_keeps_its_digits_at_small_shapes(nu):
    # [REGRESSION] 1 - (1 + nu x / sigma)^(-1/nu) gave 0.0 at nu = 1e-20 (1 + 1e-20
    # rounds to 1) and was 5e-5 off at nu = 1e-12 and 1.3e-5 off at -1e-12; at x = sigma
    # F = 1 - exp(-log1p(nu) / nu), and log1p(nu) / nu = 1 - nu / 2 to 1e-24 here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ParametricFamily("gpd", 3.0, nu).cdf_fn()(3.0)
    assert got == pytest.approx(-math.expm1(-(1.0 - nu / 2.0)), rel=2 * _EPS, abs=0.0)


def test_weibull_cdf_where_x_over_sigma_overflows():
    # [REGRESSION] x / sigma = 1 / 5e-324 overflows to inf, and the cdf gave 1.0; in
    # logs z^nu = exp(1e-300 * 744.4) is 1 to 297 digits, so F = 1 - 1/e
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ParametricFamily("weibull", 5e-324, 1e-300).cdf_fn()(1.0)
    assert got == pytest.approx(-math.expm1(-1.0), rel=_EPS, abs=0.0)


def test_family_keeps_its_parameters_as_python_floats():
    # [REGRESSION] a numpy shape was kept as given, and the support's -sigma / nu
    # warned "overflow encountered in scalar divide" where a float division gives inf
    fam = ParametricFamily("gpd", 1e300, np.float64(-1e-10))
    assert type(fam.sigma) is float and type(fam.nu) is float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fam.support == (0.0, math.inf)
    assert fam == ParametricFamily("gpd", 1e300, -1e-10)


@pytest.mark.parametrize("law, x, want", [
    # [REGRESSION] each gave +inf or NaN where the log-density is -inf or finite:
    # past a GPD's finite end, whose end underflows to 0 here (+inf)
    (("gpd", 9.6e-315, -1.4e222), 5e-324, -math.inf),
    (("gpd", 1.0, -2.0), 0.75, -math.inf),
    # a GPD shape whose 1 / nu overflows is the exponential law in floats (NaN at 0)
    (("gpd", 3.7e-298, -1.36e-313), 0.0, -math.log(3.7e-298)),
    (("gpd", 2.0, 1e-310), 3.0, -math.log(2.0) - 1.5),
    # a Weibull law whose z^nu and (nu - 1) log z both overflow (NaN)
    (("weibull", 2.8e-43, 9.4e307), 1e-10, -math.inf),
], ids=["gpd-end-underflows", "gpd-past-end", "gpd-subnormal-shape-at-0",
        "gpd-subnormal-shape", "weibull-huge-shape"])
def test_log_density_of_extreme_laws(law, x, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ParametricFamily(*law).log_density_fn()(x) == want


def test_quantile_slope_overflow_raises_naming_the_law():
    # [REGRESSION] a GPD fitted to a sample near the largest float: the plug-in
    # integrals of `lmomdiv test` met "overflow encountered in multiply" and
    # then a NaN; the slope now raises, naming the law
    fam = ParametricFamily("gpd", 4.0e307, 0.09)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fam.quantile_slope(np.array([0.0, 1.0]))[0] == 4.0e307
        with pytest.raises(ValueError, match=r"quantile slope of .*gpd.* overflows a float"):
            fam.quantile_slope(np.array([0.0, 23.0]))
    # the one infinite slope, the Weibull's at s = 0 for nu > 1, is its value
    assert ParametricFamily("weibull", 3.0, 2.0).quantile_slope(np.array([0.0]))[0] == math.inf


def test_gpd_lmoments_past_shape_1_name_the_law():
    # [REGRESSION] the message named the shape rule but not the law
    with pytest.raises(ValueError, match=r"ParametricFamily\(name='gpd', sigma=3.0, nu=1.5\): "
                                         "GPD L-moments do not exist"):
        ParametricFamily("gpd", 3.0, 1.5).lmoments()


def test_family_pickles_and_compares_after_its_functions_are_built():
    # the functions are built per call and cached nowhere on the frozen instance
    fam = ParametricFamily("gpd", 3.0, 0.7)
    cdf, log_f = fam.cdf_fn(), fam.log_density_fn()
    assert cdf(1.0) > 0.0 and log_f(1.0) < 0.0
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam == ParametricFamily("gpd", 3.0, 0.7) and hash(back) == hash(fam)
    assert back.cdf_fn()(1.0) == cdf(1.0) and back.log_density_fn()(1.0) == log_f(1.0)


# ---------------------------------------------------------------------------
# constraint models


def test_gpd_model_shape():
    model = gpd_model()
    assert model.dim == 2
    assert model.n_constraints == 3
    assert model.param_names == ("sigma", "nu")
    theta = np.array([3.0, 0.7])
    assert np.allclose(model.target_map(theta), -ParametricFamily("gpd", 3.0, 0.7).lmoments())


def test_weibull_model_target():
    model = weibull_model()
    theta = np.array([3.0, 0.4])
    assert np.allclose(model.target_map(theta), -ParametricFamily("weibull", 3.0, 0.4).lmoments())


@pytest.mark.parametrize("model,nus", [
    (gpd_model(), np.linspace(-5.0, 0.99, 9)),
    (weibull_model(), np.geomspace(0.05, 20.0, 9)),
], ids=lambda v: getattr(v, "name", ""))
def test_jet_matches_jacobian_differences(model, nus):
    # f and f' are the Jacobian's columns at sigma = 1, bit for bit, and f''
    # the central differences of its f' column, over the model's box
    for nu in nus:
        f, df, d2f = model.jet(float(nu))
        assert all(type(v) is float for v in f + df + d2f)
        jac = model.lmoment_jacobian(np.array([1.0, nu]))
        assert f == jac[:, 0].tolist() and df == jac[:, 1].tolist()
        assert model.lmoment_map(np.array([1.0, nu])).tolist() == f
        h = 1e-6 * nu
        fd = (model.lmoment_jacobian(np.array([1.0, nu + h]))[:, 1]
              - model.lmoment_jacobian(np.array([1.0, nu - h]))[:, 1]) / (2.0 * h)
        assert np.all(np.abs(np.array(d2f) - fd) <= 1e-5 * np.abs(d2f).max()), nu


def test_digamma_trigamma_match_scipy():
    # the Weibull derivatives call them at 1 + 1/nu, nu in [0.05, 20]; psi has
    # a zero at 1.4616, where the bound is absolute: the recurrence sums
    # terms of size 1 to a value near 0
    for x in np.concatenate([np.linspace(1.05, 21.0, 2001), [1.4616321449683623]]):
        psi, tri = _digamma_trigamma(float(x))
        assert abs(psi - digamma(x)) <= 1e-13 * abs(digamma(x)) + 1e-15, x
        assert abs(tri - polygamma(1, x)) <= 1e-13 * polygamma(1, x), x


def test_model_jacobian_analytic_vs_fd():
    # the target map -lambda(theta) has the Jacobian -[f, sigma f']
    for model in (gpd_model(), weibull_model()):
        theta = np.array([2.0, 0.5])
        J = -model.lmoment_jacobian(theta)
        h = 1e-6
        fd = np.column_stack([
            (model.target_map(theta + h * e) - model.target_map(theta - h * e)) / (2 * h)
            for e in np.eye(2)
        ])
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-6)


def test_model_by_name():
    assert model_by_name("gpd-l234").name == "gpd-l234"
    assert model_by_name("weibull-l234").name == "weibull-l234"
    assert model_by_name("orderstat3").dim == 1
    assert model_by_name("gpd-l234").family == "gpd"
    assert model_by_name("weibull-l234").family == "weibull"
    assert model_by_name("orderstat3").family is None
    with pytest.raises(ValueError):
        model_by_name("gpd-l23456")


def test_models_compare_and_hash_by_identity():
    # field equality would compare the box arrays, which has no truth value
    model = gpd_model()
    assert model == model and hash(model) == hash(model)
    assert gpd_model() != model and dataclasses.replace(model) != model
    assert {model: 1, gpd_model(): 2, order_stat_model_3(): 3}[model] == 1


# ---------------------------------------------------------------------------
# order-statistic expectations


def test_order_stat_polynomial_uniform_means():
    # [DERIVED] E U_{j:3} = j/4 follows from integrating the weights
    for j, expect in ((1, 0.25), (2, 0.5), (3, 0.75)):
        val, _ = quad(lambda u: u * order_stat_polynomial(j, 3, u), 0.0, 1.0)
        assert val == pytest.approx(expect, abs=1e-10)


def test_order_stat_polynomial_normalized():
    # the three densities of ranks 1..3 average to the uniform density
    u = np.linspace(0.0, 1.0, 11)
    total = sum(order_stat_polynomial(j, 3, u) for j in (1, 2, 3))
    assert np.allclose(total, 3.0)


def test_orderstat3_rows_boundary():
    model = order_stat_model_3()
    assert np.allclose(model.constraint_values(0.0), 0.0)
    assert np.allclose(model.constraint_values(1.0), 0.0, atol=1e-12)


def test_orderstat3_target_consistency():
    # both adjacent rank gaps equal the single spread parameter: with
    # lambda = nu (2/3, 0) the gaps 3 (lambda_2 -+ lambda_3) / 2 are nu
    model = order_stat_model_3()
    target = model.target_map(np.array([1.5]))
    assert np.allclose(target, [-1.0, 0.0], rtol=1e-15, atol=0.0)
    lam2, lam3 = -target
    assert 1.5 * (lam2 - lam3) == pytest.approx(1.5) and 1.5 * (lam2 + lam3) == pytest.approx(1.5)
    # oracle check that the gaps are what the rows measure: for the uniform
    # quantile, integrating u against the differenced kernels gives 1/4
    for j in (1, 2):
        gap, _ = quad(
            lambda u: u * (order_stat_polynomial(j + 1, 3, u)
                           - order_stat_polynomial(j, 3, u)),
            0.0, 1.0,
        )
        assert gap == pytest.approx(0.25, abs=1e-10)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50, deadline=None)
def test_orderstat3_rows_are_integrated_densities(u):
    # the rank-gap rows are (3/2)(K_2 -+ K_3) on the model's Legendre rows:
    # each integrates the difference of adjacent rank kernels up to u
    k2, k3 = order_stat_model_3().constraint_values(u)
    for gap, j in ((1.5 * (k2 - k3), 1), (1.5 * (k2 + k3), 2)):
        val, _ = quad(
            lambda s: order_stat_polynomial(j + 1, 3, s)
            - order_stat_polynomial(j, 3, s),
            0.0, u,
        )
        assert gap == pytest.approx(val, abs=1e-9)


def test_gpd_slopes_in_floats_match_the_array_formula():
    # the float sums of _gpd_slopes against the matrix-vector products they
    # replaced, over the shape box and at the exact zeros nu = -1, -2: within
    # 4 eps of the sums of the terms' magnitudes
    eps = np.finfo(float).eps
    poles = np.arange(1.0, 5.0)
    residues = np.abs(np.array([[1.0, -1.0, 0.0, 0.0], [1.0, -3.0, 2.0, 0.0],
                                [1.0, -6.0, 10.0, -5.0]]))
    for nu in np.concatenate([np.linspace(-5.0, 0.99, 2001), [-2.0, -1.0, 0.0, 0.5]]):
        d1, d2 = _gpd_slopes(float(nu))
        assert all(type(v) is float for v in d1 + d2)
        ref1, ref2 = gpd_slopes_array(float(nu))
        inv = np.abs(1.0 / (poles - nu))
        assert np.all(np.abs(np.array(d1) - ref1) <= 4.0 * eps * (residues @ inv ** 2)), nu
        assert np.all(np.abs(np.array(d2) - ref2) <= 8.0 * eps * (residues @ inv ** 3)), nu


def test_scale_only_model_has_no_slopes():
    # lambda = nu (2/3, 0): the law is a constant f with no slopes, and the jet is f alone
    model = order_stat_model_3()
    assert model.law[1] is None
    assert model.jet(None) == ([2.0 / 3.0, 0.0],)
    assert model.lmoment_jacobian(np.array([1.5])).tolist() == [[2.0 / 3.0], [0.0]]
    assert model.lmoment_map(np.array([1.5])).tolist() == [1.5 * (2.0 / 3.0), 0.0]
