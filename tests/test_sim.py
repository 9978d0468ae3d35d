import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings, strategies as st

from lmomdiv import sim
from lmomdiv.models import ParametricFamily
from lmomdiv.sim import (
    ScenarioConfig,
    draw_sample,
    l1_density_distance,
    run_scenario,
    summarize,
)
from oracles import family_cdf, family_density, l1_panel_mass


def test_summarize_basic():
    # [TRIVIAL] mean 2, median 2, sample std 1
    s = summarize(np.array([1.0, 2.0, 3.0]))
    assert s.mean == pytest.approx(2.0)
    assert s.median == pytest.approx(2.0)
    assert s.std == pytest.approx(1.0)


def test_summarize_lower_median():
    # even length takes the lower middle order statistic
    s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
    assert s.median == pytest.approx(2.0)


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize(np.array([]))


def test_summarize_std_past_1e154_does_not_overflow():
    # [REGRESSION] the squared deviations overflowed: simulate of scenario 1
    # with nu = 110 gave two scales about 1e194 and 8e275, a RuntimeWarning
    # and "std": inf.  The std is taken in units of a power of two, exactly
    values = np.array([1e194, 8e275])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize(values)
    scale = 2.0 ** 916
    assert s.std == float(np.std(values / scale, ddof=1)) * scale
    assert s.std == pytest.approx(8e275 / math.sqrt(2.0), rel=1e-15)
    # finite results are the unscaled ones, bit for bit; a std past the floats stays inf
    small = np.array([1e150, -3e151, 7e149])
    assert summarize(small).std == float(np.std(small, ddof=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert summarize(np.array([1.7e308, -1.7e308])).std == math.inf


def test_summarize_mean_past_the_floats_does_not_overflow():
    # [REGRESSION] the sum of two scales near the largest float overflowed, with
    # numpy's warning and "mean": inf; it is taken in units of a power of two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize(np.array([1.7e308, 1.6e308]))
    assert s.mean == pytest.approx(1.65e308, rel=1e-15) and s.median == 1.6e308
    assert s.std == pytest.approx(1e307 / math.sqrt(2.0), rel=1e-15)


def test_preset_scenarios():
    c1 = ScenarioConfig.preset(1)
    assert (c1.family, c1.sigma, c1.nu) == ("gpd", 3.0, 0.7)
    assert c1.contamination == 0.0
    c2 = ScenarioConfig.preset(2)
    assert c2.contamination == pytest.approx(0.1)
    assert c2.outlier == pytest.approx(300.0)
    c3 = ScenarioConfig.preset(3)
    assert (c3.nu, c3.outlier) == (0.1, 30.0)
    c4 = ScenarioConfig.preset(4)
    assert c4.family == "weibull"
    assert (c4.sigma, c4.nu) == (3.0, 0.4)
    with pytest.raises(ValueError):
        ScenarioConfig.preset(9)


def test_draw_sample_composition():
    cfg = ScenarioConfig.preset(2, n=100)
    s = draw_sample(cfg, replicate=0)
    assert s.n == 100
    # ten atoms at the outlier location
    assert int(np.sum(s.values == 300.0)) == 10
    clean = s.values[s.values != 300.0]
    assert np.all(clean >= 0)


def test_draw_sample_deterministic():
    cfg = ScenarioConfig.preset(1, n=50)
    a = draw_sample(cfg, replicate=3)
    b = draw_sample(cfg, replicate=3)
    assert np.array_equal(a.values, b.values)
    c = draw_sample(cfg, replicate=4)
    assert not np.array_equal(a.values, c.values)


def test_draw_sample_seed_split():
    base = ScenarioConfig.preset(1, n=50, seed=0)
    other = ScenarioConfig.preset(1, n=50, seed=1)
    assert not np.array_equal(draw_sample(base, 0).values,
                              draw_sample(other, 0).values)


def test_run_scenario_deterministic():
    cfg = ScenarioConfig.preset(1, n=60, replicates=4,
                                estimators=("chi2", "lmom"))
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.records == b.records
    assert a.stats["chi2"]["sigma"].mean == b.stats["chi2"]["sigma"].mean


def test_run_scenario_contents():
    cfg = ScenarioConfig.preset(3, n=60, replicates=3,
                                estimators=("chi2", "mle"))
    out = run_scenario(cfg)
    assert len(out.records) == 3 * 2
    for est in ("chi2", "mle"):
        block = out.stats[est]
        assert set(block) >= {"sigma", "nu", "l1_mean"}
        assert np.isfinite(block["sigma"].mean)
    d = out.to_dict()
    assert d["config"]["scenario"] == 3
    assert "chi2" in d["stats"]


def test_run_scenario_records_rank_deficient_fit():
    # 19 of 20 observations tied at the outlier: one positive spacing, too
    # few for three constraints; the replicate records the error
    cfg = dataclasses.replace(
        ScenarioConfig.preset(1, n=20, replicates=1, estimators=("chi2", "klm")),
        contamination=0.95, outlier=1.0)
    out = run_scenario(cfg)
    assert [r["estimator"] for r in out.records] == ["chi2", "klm"]
    for rec in out.records:
        assert "rank deficient" in rec["error"]
        assert np.isnan(rec["sigma"])
    assert out.failures == {"chi2": 1, "klm": 1}


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig.preset(1, n=1)
    with pytest.raises(ValueError):
        ScenarioConfig.preset(1, replicates=0)
    cfg = ScenarioConfig.preset(1)
    with pytest.raises(ValueError):
        ScenarioConfig(**{**cfg.__dict__, "contamination": 1.5})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**cfg.__dict__, "estimators": ("nope",)})


def test_only_default_estimators_are_simulated():
    # KL and power fits have no simulation path
    for name in ("kl", "power:0.5"):
        with pytest.raises(ValueError, match="unknown estimators"):
            ScenarioConfig.preset(1, estimators=(name,))


# ---------------------------------------------------------------------------
# L1 density distance


def test_l1_identity_is_zero():
    # no crossing, and each panel's two masses are the same number
    for fam in (ParametricFamily("gpd", 3.0, 0.4), ParametricFamily("gpd", 2.0, 0.0),
                ParametricFamily("gpd", 2.0, -1.0), ParametricFamily("gpd", 2.0, -2.5),
                ParametricFamily("weibull", 3.0, 0.4)):
        assert l1_density_distance(fam, fam) == 0.0


def test_l1_symmetry_and_bound():
    a = ParametricFamily("gpd", 3.0, 0.7)
    b = ParametricFamily("weibull", 3.0, 0.4)
    d1 = l1_density_distance(a, b)
    d2 = l1_density_distance(b, a)
    assert d1 == pytest.approx(d2, abs=1e-6)
    assert 0.0 < d1 <= 2.0


def test_l1_disjoint_supports_near_two():
    # short-tailed laws living on nearly disjoint scales
    a = ParametricFamily("gpd", 0.01, -1.0)     # support [0, 0.01]
    b = ParametricFamily("gpd", 100.0, -1.0)    # mass spread over [0, 100]
    assert l1_density_distance(a, b) > 1.9


_SIGMA = st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)).map(math.exp)
_NU = st.one_of(st.just(0.0), st.just(-1.0), st.floats(min_value=-5.0, max_value=5.0))


@settings(max_examples=300, deadline=None)
@given(s1=_SIGMA, v1=_NU, s2=_SIGMA, v2=_NU, same_nu=st.booleans())
def test_l1_gpd_pairs_symmetric_and_bounded(s1, v1, s2, v2, same_nu):
    a = ParametricFamily("gpd", s1, v1)
    b = ParametricFamily("gpd", s2, v1 if same_nu else v2)
    d = l1_density_distance(a, b)
    assert l1_density_distance(b, a) == d
    assert 0.0 <= d <= 2.0
    assert d == pytest.approx(l1_panel_mass(*sim._l1_panels(a, b)), rel=0.0, abs=1e-14)


def test_l1_matches_riemann_sum():
    # [DERIVED] brute-force Riemann oracle on a fine grid
    a = ParametricFamily("gpd", 3.0, 0.2)
    b = ParametricFamily("gpd", 2.5, 0.3)
    hi = max(a.quantile(1 - 1e-9), b.quantile(1 - 1e-9))
    x = np.linspace(0.0, hi, 2_000_001)
    oracle = np.trapezoid(np.abs(family_density(a, x) - family_density(b, x)), x)
    assert l1_density_distance(a, b) == pytest.approx(oracle, abs=1e-4)


def test_l1_scale_families():
    # scaling both laws by the same factor leaves the distance unchanged
    a = ParametricFamily("gpd", 1.0, 0.3)
    b = ParametricFamily("gpd", 1.5, 0.3)
    a2 = ParametricFamily("gpd", 10.0, 0.3)
    b2 = ParametricFamily("gpd", 15.0, 0.3)
    assert l1_density_distance(a, b) == pytest.approx(
        l1_density_distance(a2, b2), abs=1e-6)


def l1_log_space_oracle(f1, f2, lo=1e-100, hi=1e300):
    """Quadrature of |f1 - f2| in u = log x, split at every sign crossing.

    Crossings come from a fine log-grid scan refined by brentq; each panel
    is further cut every two units of u so that QUADPACK sees a smooth,
    localized integrand.  Finite support ends are breakpoints too.  The mass
    outside [lo, hi] is below 1e-30 for the families used here.
    """
    def diff_u(u):
        x = np.exp(u)
        return family_density(f1, x) - family_density(f2, x)

    u = np.linspace(np.log(lo), np.log(hi), 200_001)
    sign = np.sign(diff_u(u))
    u, sign = u[sign != 0], sign[sign != 0]
    cuts = [scipy.optimize.brentq(diff_u, u[i], u[i + 1], xtol=1e-14)
            for i in np.nonzero(sign[:-1] != sign[1:])[0]]
    ends = [np.log(f.support[1]) for f in (f1, f2) if np.isfinite(f.support[1])]
    edges = np.unique(np.concatenate([
        [np.log(lo), np.log(hi)], cuts, ends,
        np.arange(np.log(lo), np.log(hi), 2.0),
    ]))
    return sum(
        scipy.integrate.quad(lambda v: abs(diff_u(v)) * np.exp(v), a, b,
                             epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize("f1, f2, approx", [
    # heavy tail: half the distance lies in the panel running to infinity
    (ParametricFamily("gpd", 17.18, 0.693), ParametricFamily("gpd", 3.0, 0.1),
     1.1516216),
    # finite support [0, 32.4] against an unbounded tail
    (ParametricFamily("gpd", 9.7274, -0.30024), ParametricFamily("gpd", 3.0, 0.1),
     0.7227347),
    # density pole at 0 against a finite one, three crossings
    (ParametricFamily("weibull", 3.0, 0.4), ParametricFamily("gpd", 3.0, 0.7),
     0.5518185),
    # density pole at the finite end 1 (nu < -1), one crossing before it
    (ParametricFamily("gpd", 2.0, -2.0), ParametricFamily("gpd", 0.5, 0.7),
     1.0627982),
    # the uniform law on [0, 4] (nu = -1)
    (ParametricFamily("gpd", 4.0, -1.0), ParametricFamily("gpd", 3.0, 0.1),
     0.6348601),
    # two finite supports, [0, 32.4] and [0, 10]
    (ParametricFamily("gpd", 9.7274, -0.30024), ParametricFamily("gpd", 5.0, -0.5),
     0.7092469),
    # a scenario-2 MLE fit (nu > 1: no mean) against the nominal law
    (ParametricFamily("gpd", 3.229, 1.484), ParametricFamily("gpd", 3.0, 0.7),
     0.2691121),
])
def test_l1_matches_log_space_oracle(f1, f2, approx):
    d = l1_density_distance(f1, f2)
    assert d == pytest.approx(l1_log_space_oracle(f1, f2), abs=1e-9)
    assert d == pytest.approx(approx, abs=1e-7)
    assert l1_density_distance(f2, f1) == d


def test_l1_at_the_smallest_scanned_weibull_shape_matches_the_oracle():
    # Weibull(3, 0.04) is just above the shapes whose scan quantiles leave the
    # normal floats (``lmomdiv dist`` exits 3 at 0.039); it has 1e-4 of its
    # mass below the oracle's default cut 1e-100 and 1e-12 below 1e-300
    f1, f2 = ParametricFamily("weibull", 3.0, 0.04), ParametricFamily("gpd", 3.0, 0.7)
    assert l1_density_distance(f1, f2) == pytest.approx(
        l1_log_space_oracle(f1, f2, lo=1e-300), abs=1e-9)


#: the pairs of the L1 tests above: bounded GPDs with nu < 0, the uniform
#: nu = -1, nu = 0, pairs with a Weibull law, disjoint supports, identical laws
_L1_PAIRS = [
    (ParametricFamily("gpd", 17.18, 0.693), ParametricFamily("gpd", 3.0, 0.1)),
    (ParametricFamily("gpd", 9.7274, -0.30024), ParametricFamily("gpd", 3.0, 0.1)),
    (ParametricFamily("weibull", 3.0, 0.4), ParametricFamily("gpd", 3.0, 0.7)),
    (ParametricFamily("gpd", 2.0, -2.0), ParametricFamily("gpd", 0.5, 0.7)),
    (ParametricFamily("gpd", 4.0, -1.0), ParametricFamily("gpd", 3.0, 0.1)),
    (ParametricFamily("gpd", 9.7274, -0.30024), ParametricFamily("gpd", 5.0, -0.5)),
    (ParametricFamily("gpd", 3.229, 1.484), ParametricFamily("gpd", 3.0, 0.7)),
    (ParametricFamily("gpd", 0.01, -1.0), ParametricFamily("gpd", 100.0, -1.0)),
    (ParametricFamily("gpd", 3.0, 0.2), ParametricFamily("gpd", 2.5, 0.3)),
    (ParametricFamily("gpd", 1.0, 0.3), ParametricFamily("gpd", 1.5, 0.3)),
    (ParametricFamily("gpd", 2.0, 0.0), ParametricFamily("gpd", 3.0, 0.1)),
    (ParametricFamily("gpd", 2.0, 0.0), ParametricFamily("gpd", 3.0, 0.0)),
    (ParametricFamily("gpd", 2.0, -2.5), ParametricFamily("gpd", 2.0, -2.5)),
    (ParametricFamily("weibull", 3.0, 0.4), ParametricFamily("weibull", 2.0, 1.5)),
    (ParametricFamily("weibull", 3.0, 4.0), ParametricFamily("gpd", 1.0, -1.0)),
]


@pytest.mark.parametrize("f1, f2", _L1_PAIRS)
def test_l1_edges_in_math_match_the_numpy_cdfs(f1, f2):
    # the cdfs at the panel edges are taken one point at a time in math, by
    # each family's cdf_fn, within 1 ulp of 1 of the numpy cdfs; on the same
    # edges the numpy cdfs give the same distance to 1e-14, and the distance
    # stays symmetric bit for bit
    a, b, edges = sim._l1_panels(f1, f2)
    for fam in (a, b):
        cdf = fam.cdf_fn()
        assert all(abs(cdf(x) - family_cdf(fam, x)) <= 2.0 ** -53 for x in edges)
    d = l1_density_distance(f1, f2)
    assert d == pytest.approx(l1_panel_mass(a, b, edges), rel=0.0, abs=1e-14)
    assert l1_density_distance(f2, f1) == d
    assert sim._l1_panels(f2, f1)[2] == edges


def test_l1_weibull_cdf_past_the_float_range():
    # at the GPD's end 1e303 the Weibull's (x / sigma)^nu overflows a float:
    # its cdf there is 1 (numpy's array cdf warned of the overflow), and the
    # two laws' masses barely overlap
    a = ParametricFamily("weibull", 1e-3, 20.0)
    b = ParametricFamily("gpd", 1e300, -1e-3)
    assert 1e303 in sim._l1_panels(a, b)[2]
    assert l1_density_distance(a, b) == l1_density_distance(b, a) == 2.0


def test_parallel_run_is_the_serial_run_bit_for_bit():
    # replicate streams are split from the master seed, so two worker
    # processes give the serial records and summary to the last bit
    config = ScenarioConfig.preset(3, n=40, replicates=6, seed=7,
                                   estimators=("chi2", "lmom", "moment", "mle"))
    serial, parallel = run_scenario(config, n_jobs=1), run_scenario(config, n_jobs=2)
    assert repr(parallel.records) == repr(serial.records)
    assert repr(parallel.to_dict()) == repr(serial.to_dict())
    assert len(serial.records) == 6 * 4
