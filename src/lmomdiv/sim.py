"""Monte Carlo scenario engine: contamination and misspecification studies.

Four scenarios benchmark the divergence estimators against classical GPD
fits.  Replicate RNG streams are derived from the master seed by counter
splitting, so identical configs reproduce bit-identical summaries no
matter how replicates are sharded.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
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
from .lmoments import SortedSample
from .models import ParametricFamily, gpd_model

_SCENARIO_DEFAULTS = {
    1: {"family": "gpd", "sigma": 3.0, "nu": 0.7, "contamination": 0.0, "outlier": 0.0},
    2: {"family": "gpd", "sigma": 3.0, "nu": 0.7, "contamination": 0.1, "outlier": 300.0},
    3: {"family": "gpd", "sigma": 3.0, "nu": 0.1, "contamination": 0.1, "outlier": 30.0},
    4: {"family": "weibull", "sigma": 3.0, "nu": 0.4, "contamination": 0.0, "outlier": 0.0},
}

DEFAULT_ESTIMATORS = ("chi2", "klm", "lmom", "moment", "mle")


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
        unknown = set(self.estimators) - set(DEFAULT_ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")

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
    """Mean, lower-median and (n-1)-denominator standard deviation."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("cannot summarize an empty list")
    median = float(v[(v.size - 1) // 2])
    if v.size == 1:
        return SummaryStats(float(v[0]), median, 0.0, degenerate=True)
    return SummaryStats(float(v.mean()), median, float(v.std(ddof=1)))


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
        report = fit_divergence(sample, gpd_model(), divergence_by_name(estimator))
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
    if config.replicates:
        if n_jobs > 1:
            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                chunks = pool.map(
                    _run_replicate,
                    [config] * config.replicates,
                    range(config.replicates),
                    chunksize=max(1, config.replicates // (4 * n_jobs)),
                )
                for chunk in chunks:
                    records.extend(chunk)
        else:
            for i in range(config.replicates):
                records.extend(_run_replicate(config, i))

    stats: dict = {}
    failures: dict = {}
    for est in config.estimators:
        ok = [r for r in records if r["estimator"] == est and not r["error"]]
        failures[est] = sum(
            1 for r in records if r["estimator"] == est and r["error"]
        )
        if not ok:
            stats[est] = {}
            continue
        block = {
            "sigma": summarize([r["sigma"] for r in ok]),
            "nu": summarize([r["nu"] for r in ok]),
        }
        l1_vals = [r["l1"] for r in ok if np.isfinite(r["l1"])]
        block["l1_mean"] = float(np.mean(l1_vals)) if l1_vals else float("nan")
        stats[est] = block
    return SimSummary(config=config, records=records, stats=stats,
                      failures=failures)


# ---------------------------------------------------------------------------
# density distance


def _density_upper_bound(f1: ParametricFamily, f2: ParametricFamily,
                         floor: float = 1e-12) -> float:
    hi = 1.0
    for fam in (f1, f2):
        if np.isfinite(fam.support[1]):
            hi = max(hi, fam.support[1])
        else:
            hi = max(hi, fam.quantile(1.0 - 1e-9))
    while (f1.density(hi) > floor or f2.density(hi) > floor) and hi < 1e15:
        hi *= 2.0
    return hi


def l1_density_distance(f1: ParametricFamily, f2: ParametricFamily) -> float:
    """Integral of the absolute density difference over the positive axis.

    Exact up to root refinement: between consecutive sign crossings of
    f1 - f2 (found by a grid scan plus root refinement) the difference keeps
    its sign, so its absolute integral there is |dF1 - dF2| over the panel.
    The sum over panels [0, c_1], ..., [c_m, inf) needs no quadrature.  A
    root error moves the sum only to second order, since f1 = f2 at a
    crossing.  Always lies in [0, 2] and is symmetric in its arguments.
    """
    from scipy.optimize import brentq

    hi = _density_upper_bound(f1, f2)

    def diff(x):
        return f1.density(np.asarray(x, dtype=float)) - f2.density(np.asarray(x, dtype=float))

    # sign-change scan on a mixed linear/log grid; points where the
    # difference is exactly zero are skipped so a crossing on the grid
    # still shows as a change between its nonzero neighbours
    grid = np.unique(np.concatenate([
        np.linspace(1e-12, min(hi, 50.0), 400),
        np.geomspace(1e-6, hi, 400),
    ]))
    sign = np.sign(diff(grid))
    grid = grid[sign != 0]
    sign = sign[sign != 0]
    (change,) = np.nonzero(sign[:-1] != sign[1:])
    crossings = [
        brentq(diff, grid[i], grid[i + 1], xtol=1e-12)
        for i in change
    ]
    edges = np.array([0.0, *crossings, np.inf])
    mass = np.diff(f1.cdf(edges)) - np.diff(f2.cdf(edges))
    return float(min(np.abs(mass).sum(), 2.0))
