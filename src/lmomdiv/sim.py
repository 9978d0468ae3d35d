"""Monte Carlo scenario engine: contamination and misspecification studies.

Four scenarios benchmark the divergence estimators against classical GPD
fits.  Replicate RNG streams are derived from the master seed by counter
splitting, so identical configs reproduce bit-identical summaries no
matter how replicates are sharded; only a run on more than one worker
process imports the process pool.  The L1 distance between two laws sums
their cdf increments over panels between the crossings of the densities,
with every scalar step in ``math``; it reads each law through the float
log-density and cdf of its ``ParametricFamily``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .divergence import divergence_by_name
from .estimator import (
    EstimationError,
    fit_divergence,
    fit_lmoment_method_gpd,
    fit_mle_gpd,
    fit_moment_method_gpd,
)
from .lmoments import SortedSample, magnitude_unit
from .models import ParametricFamily, gpd_model
from .roots import bracketed_root

_SCENARIO_DEFAULTS = {
    1: {"family": "gpd", "sigma": 3.0, "nu": 0.7, "contamination": 0.0, "outlier": 0.0},
    2: {"family": "gpd", "sigma": 3.0, "nu": 0.7, "contamination": 0.1, "outlier": 300.0},
    3: {"family": "gpd", "sigma": 3.0, "nu": 0.1, "contamination": 0.1, "outlier": 30.0},
    4: {"family": "weibull", "sigma": 3.0, "nu": 0.4, "contamination": 0.0, "outlier": 0.0},
}

DEFAULT_ESTIMATORS = ("chi2", "klm", "lmom", "moment", "mle")
_GPD_MODEL = gpd_model()


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: int
    family: str
    sigma: float
    nu: float
    n: int
    contamination: float
    outlier: float
    replicates: int = 500
    seed: int = 0
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS

    def __post_init__(self):
        if self.scenario not in (1, 2, 3, 4):
            raise ValueError("scenario must be 1..4")
        if not 0.0 <= self.contamination < 1.0:
            raise ValueError("contamination fraction must lie in [0, 1)")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n < 5:
            raise ValueError("per-replicate sample size must be at least 5")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        unknown = set(self.estimators) - set(DEFAULT_ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if not all(isinstance(v, (int, float)) for v in (self.sigma, self.nu, self.outlier)):
            raise TypeError("sigma, nu and outlier must be numbers")
        if not math.isfinite(self.outlier):
            raise ValueError("outlier must be finite")
        self.true_family  # checks the family and its parameters

    @classmethod
    def preset(cls, scenario: int, n: int = 100, replicates: int = 500,
               seed: int = 0, estimators=DEFAULT_ESTIMATORS) -> "ScenarioConfig":
        if scenario not in _SCENARIO_DEFAULTS:
            raise ValueError("scenario must be 1..4")
        d = _SCENARIO_DEFAULTS[scenario]
        return cls(scenario=scenario, n=n, replicates=replicates, seed=seed,
                   estimators=tuple(estimators), **d)

    @property
    def true_family(self) -> ParametricFamily:
        return ParametricFamily(self.family, self.sigma, self.nu)


@dataclass
class SummaryStats:
    mean: float
    median: float
    std: float
    degenerate: bool = False


def summarize(values) -> SummaryStats:
    """Mean, lower-median and (n-1)-denominator standard deviation.

    Where the sum or the squares of finite values overflow (past about 1e154),
    the mean or the std is taken in units of the power of two at their largest
    magnitude (``magnitude_unit``), exactly.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("cannot summarize an empty list")
    median = float(v[(v.size - 1) // 2])
    if v.size == 1:
        return SummaryStats(float(v[0]), median, 0.0, degenerate=True)
    with np.errstate(over="ignore"):        # redone below for finite values
        mean, std = float(v.mean()), float(v.std(ddof=1))
    if not math.isfinite(mean + std) and np.isfinite(v).all():
        unit = magnitude_unit(v)
        w = v / unit
        mean = mean if math.isfinite(mean) else float(w.mean()) * unit
        std = std if math.isfinite(std) else float(w.std(ddof=1)) * unit
    return SummaryStats(mean, median, std)


@dataclass
class SimSummary:
    config: ScenarioConfig
    records: list            # dicts: replicate, estimator, sigma, nu, l1, error
    stats: dict              # estimator -> {"sigma": SummaryStats, ...}
    failures: dict           # estimator -> count

    def to_dict(self) -> dict:
        cfg = asdict(self.config)
        cfg["estimators"] = list(self.config.estimators)
        return {
            "config": cfg,
            "failures": self.failures,
            "stats": {
                est: {
                    key: (asdict(val) if isinstance(val, SummaryStats) else val)
                    for key, val in block.items()
                }
                for est, block in self.stats.items()
            },
        }


def draw_sample(config: ScenarioConfig, replicate: int) -> SortedSample:
    """One scenario sample: clean draws plus a deterministic outlier block."""
    rng = np.random.default_rng([config.seed, replicate])
    n_out = math.floor(config.contamination * config.n)
    n_clean = config.n - n_out
    clean = config.true_family.sample(n_clean, rng)
    if n_out:
        clean = np.concatenate([clean, np.full(n_out, config.outlier)])
    return SortedSample(clean)


def _fit_one(sample: SortedSample, estimator: str) -> tuple[float, float]:
    if estimator in ("chi2", "klm"):
        report = fit_divergence(sample, _GPD_MODEL, divergence_by_name(estimator))
        return float(report.theta[0]), float(report.theta[1])
    if estimator == "lmom":
        return fit_lmoment_method_gpd(sample)
    if estimator == "moment":
        return fit_moment_method_gpd(sample)
    if estimator == "mle":
        return fit_mle_gpd(sample)
    raise ValueError(f"unknown estimator {estimator!r}")


def _run_replicate(config: ScenarioConfig, replicate: int) -> list[dict]:
    sample = draw_sample(config, replicate)
    # distances are always taken between GPD densities: the fitted one and
    # the GPD carrying the scenario's nominal (sigma, nu) label
    reference = ParametricFamily("gpd", config.sigma, config.nu)
    out = []
    for est in config.estimators:
        rec = {"replicate": replicate, "estimator": est,
               "sigma": np.nan, "nu": np.nan, "l1": np.nan, "error": ""}
        try:
            sigma, nu = _fit_one(sample, est)
            rec["sigma"], rec["nu"] = sigma, nu
            fitted = ParametricFamily("gpd", sigma, nu)
            rec["l1"] = l1_density_distance(fitted, reference)
        except (EstimationError, ValueError) as exc:
            rec["error"] = str(exc)
        out.append(rec)
    return out


def run_scenario(config: ScenarioConfig, n_jobs: int = 1) -> SimSummary:
    """Run every replicate of a scenario and aggregate the summary tables."""
    records: list[dict] = []
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a parallel run pays its import

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for chunk in pool.map(_run_replicate, [config] * config.replicates,
                                  range(config.replicates),
                                  chunksize=max(1, config.replicates // (4 * n_jobs))):
                records.extend(chunk)
    else:
        for i in range(config.replicates):
            records.extend(_run_replicate(config, i))

    stats, failures = {}, {}
    for est in config.estimators:
        ok = [r for r in records if r["estimator"] == est and not r["error"]]
        failures[est] = sum(1 for r in records if r["estimator"] == est and r["error"])
        stats[est] = {}
        if ok:
            l1_vals = [r["l1"] for r in ok if np.isfinite(r["l1"])]
            stats[est] = {"sigma": summarize([r["sigma"] for r in ok]),
                          "nu": summarize([r["nu"] for r in ok]),
                          "l1_mean": float(np.mean(l1_vals)) if l1_vals else float("nan")}
    return SimSummary(config=config, records=records, stats=stats, failures=failures)


# ---------------------------------------------------------------------------
# density distance

#: quantile levels of the sign scan of a pair other than two GPDs: u from
#: 1e-12 to 1 - 1.7e-15, geometric in -log(1 - u)
_SCAN_U = -np.expm1(-np.geomspace(1e-12, 34.0, 200))
#: the gallop to the last crossing of two GPD tails stops at this many times
#: the smaller scale; past it the mass of a GPD with nu <= 5 is below 1e-60
_FAR = 1e300


def _end_limit(f1: ParametricFamily, f2: ParametricFamily, end: float, h) -> float:
    """The limit of ``h = log f1 - log f2`` at ``end``, the end of the common support.

    Only its sign is used, except for a uniform law ending first, where it is
    the finite ``h(end)``.  Past the last scan level of a pair with a Weibull
    law and no finite end nothing is known, and the limit is 0.
    """
    e1, e2 = f1.support[1], f2.support[1]
    if end == math.inf:
        if f1.name == f2.name == "gpd":
            # the heavier tail wins; of two equal shapes, the larger scale
            return math.copysign(math.inf, f1.nu - f2.nu or f1.sigma - f2.sigma)
        return 0.0
    if e1 == e2:
        # two GPDs near their common end: h ~ (1/nu_2 - 1/nu_1) log(end - x)
        return math.copysign(math.inf, f2.nu - f1.nu)
    fam, sign = (f1, 1.0) if e1 < e2 else (f2, -1.0)
    if fam.nu == -1.0:
        return h(end)
    # the density of the law that ends first falls to 0 (nu > -1) or has a pole
    return sign * math.copysign(math.inf, -1.0 - fam.nu)


def _gpd_knots(f1: ParametricFamily, f2: ParametricFamily, end: float, h,
               limit: float) -> list[float]:
    """Points of [0, end) with one sign of ``h`` between consecutive crossings.

    For two GPDs, ``h'(x) = (nu_2 + 1)/(sigma_2 + nu_2 x) - (nu_1 + 1)/(sigma_1
    + nu_1 x)`` vanishes at most once, at ``turn``, so ``h`` is monotone on
    ``[0, turn]`` and on ``[turn, end)``.  An infinite end is replaced by a
    gallop in factors of 4 out to a point where ``h`` has its limit's sign.
    """
    (s1, v1), (s2, v2) = (f1.sigma, f1.nu), (f2.sigma, f2.nu)
    knots = [0.0]
    if v1 != v2:
        turn = ((v1 + 1.0) * s2 - (v2 + 1.0) * s1) / (v1 - v2)
        if 0.0 < turn < end:
            knots.append(turn)
    if end == math.inf:
        x = max(2.0 * knots[-1], s1, s2)
        while x < _FAR * min(s1, s2):
            knots.append(x)
            if h(x) * limit > 0.0:
                break
            x *= 4.0
    return knots


def l1_density_distance(f1: ParametricFamily, f2: ParametricFamily) -> float:
    """Integral of the absolute density difference over the positive axis.

    Between consecutive sign crossings of ``f1 - f2`` the difference keeps
    its sign, so its absolute integral there is ``|dF1 - dF2|`` over the
    panel; the sum over the panels ``[0, c_1], ..., [c_m, inf)``, with the
    finite support ends as edges too, needs no quadrature.  The crossings are
    the zeros of ``h = log f1 - log f2``, each found by ``bracketed_root`` on
    a bracket where ``h`` changes sign:

    * two GPDs: ``h`` is monotone on the two pieces of ``_gpd_knots``, split
      at the zero of ``h'``, which is known in closed form; so there are at
      most two crossings and their brackets are exact;
    * any other pair (``lmomdiv dist`` only): a sign scan of ``h`` at both
      laws' quantiles of the levels ``_SCAN_U``, which ignores a crossing
      where both laws have less than 2e-15 of their mass left.  A pair with a
      scan quantile past the normal floats raises ``ValueError``: Weibull(3, nu)
      below nu = 0.0390, whose crossings no float scan can find.

    The pair is put in a fixed order first (``_l1_panels``), so the result
    is symmetric in its arguments bit for bit, and ``d(f, f)`` is 0.  The
    cdfs at the panel edges are taken in ``math`` (``ParametricFamily.cdf_fn``).
    Always lies in [0, 2].
    """
    f1, f2, edges = _l1_panels(f1, f2)
    cdf1, cdf2 = f1.cdf_fn(), f2.cdf_fn()
    total = below1 = below2 = 0.0          # F(0) = 0 for both laws
    for x in edges[1:]:
        up1, up2 = cdf1(x), cdf2(x)
        total += abs((up1 - below1) - (up2 - below2))
        below1, below2 = up1, up2
    return min(total, 2.0)


def _l1_panels(f1: ParametricFamily, f2: ParametricFamily):
    """``(f1, f2, edges)``: the pair in its fixed order and the panel edges of
    ``l1_density_distance``, ``[0, *crossings, *finite ends, inf]``."""
    if (f2.name, f2.sigma, f2.nu) < (f1.name, f1.sigma, f1.nu):
        f1, f2 = f2, f1
    ends = sorted({f.support[1] for f in (f1, f2)} - {math.inf})
    end = ends[0] if ends else math.inf

    log_f1, log_f2 = f1.log_density_fn(), f2.log_density_fn()

    def h(x):
        return log_f1(x) - log_f2(x)

    limit = _end_limit(f1, f2, end, h)
    if f1.name == f2.name == "gpd":
        knots = _gpd_knots(f1, f2, end, h, limit)
    else:
        try:        # a quantile that overflows raises ValueError, one that underflows here
            with np.errstate(under="raise"):
                knots = np.concatenate([f1.quantile(_SCAN_U), f2.quantile(_SCAN_U)])
        except (FloatingPointError, ValueError) as exc:
            raise ValueError(f"L1 distance of {f1} and {f2} not resolved in floats: a scan "
                             f"quantile is beyond the normal floats ({exc})") from None
        knots = np.unique(knots[(knots > 0.0) & (knots < end)]).tolist()
    # an exact zero at a knot is passed over, so the crossing shows as a sign
    # change between its nonzero neighbours
    xs, hs = [], []
    for x, hx in [*((x, h(x)) for x in knots), (end, limit)]:
        if hx != 0.0 and x < math.inf:
            xs.append(x)
            hs.append(hx)
    crossings = [
        bracketed_root(h, a, b, ha, hb)
        for a, b, ha, hb in zip(xs, xs[1:], hs, hs[1:])
        if (ha < 0.0) != (hb < 0.0)
    ]
    return f1, f2, [0.0, *crossings, *ends, math.inf]
