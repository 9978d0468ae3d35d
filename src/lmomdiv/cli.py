"""Command-line surface: data ingestion, estimation, testing and simulation.

``fit`` and ``test`` share one fit path, ``_fit``, and differ only in what
they print; every command prints through ``_emit``, as JSON under ``--json``.

Exit codes: 0 success, 2 usage or input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from .divergence import divergence_by_name
from .estimator import (
    EstimationError,
    FitReport,
    asymptotic_covariance,
    confidence_stat,
    fit_divergence,
    fit_lmoment_method_gpd,
    fit_mle_gpd,
    fit_moment_method_gpd,
)
from .lmoments import SortedSample, lmoment_ratios, sample_lmoments_u, sample_lmoments_v
from .models import ParametricFamily, model_by_name
from .poly import OrderLimitError
from .sim import DEFAULT_ESTIMATORS, ScenarioConfig, l1_density_distance, run_scenario

USAGE_ERROR = 2
NUMERIC_ERROR = 3
_LOG_MAX = math.log(sys.float_info.max)     # exp overflows past it


class UsageError(Exception):
    pass


def read_column(path: str, col: int = 0) -> np.ndarray:
    """Numeric column from a CSV file; a non-numeric first row is a header.

    Blank rows are skipped.  A short row, a non-numeric cell after line 1
    and a non-finite value are bad lines, all reported in one error.  A
    UTF-8 byte-order mark is not part of the first cell.  ``col`` counts from 0.
    The text is read once and parsed by one ``np.loadtxt`` call
    (``_parse_columns``); where that gives no column or a non-finite value,
    ``_parse_rows`` reads it again, as ``csv`` and ``float`` do, and names the bad lines.
    """
    if col < 0:
        raise UsageError(f"column {col} is negative: columns count from 0")
    try:
        with open(path, encoding="utf-8-sig") as fh:     # universal newlines, as loadtxt needs
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    data = _parse_columns(text, col)
    if data is None or not np.isfinite(data).all():
        data = _parse_rows(text, col, path)
    if data.size < 2:
        raise UsageError(f"{path} holds fewer than two usable values")
    return data


def _parse_columns(text: str, col: int) -> np.ndarray | None:
    """Column ``col`` of ``text`` by ``np.loadtxt`` after a header, or None where loadtxt
    may not read it as ``csv`` and ``float`` do: where it rejects the text (a short row,
    ``1_000``, a line of spaces, a ``#``), where no line is left (loadtxt warns) and where
    the text holds a separator U+001C-U+001F, which loadtxt strips and ``float`` does not.
    """
    lines = io.StringIO(text)
    first = next(csv.reader(lines), [])
    try:
        float(first[col] if col < len(first) else 0)   # loadtxt rejects a short line 1
        lines.seek(0)
    except ValueError:
        pass                                    # line 1 is a header, or blank
    if len(text.rstrip()) <= lines.tell() or any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        return None
    try:
        return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, usecols=col, ndmin=1)
    except ValueError:
        return None


def _parse_rows(text: str, col: int, path: str) -> np.ndarray:
    """Column ``col`` of ``text`` row by row, as ``csv`` and ``float`` read it; raises
    naming every bad line."""
    values, bad_lines = [], []
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        try:
            value = float(row[col])   # float strips whitespace itself
        except (ValueError, IndexError) as exc:
            # a blank row is skipped and a non-numeric line 1 is a header
            if any(c.strip() for c in row) and (isinstance(exc, IndexError) or lineno > 1):
                bad_lines.append(lineno)
            continue
        if not math.isfinite(value):
            bad_lines.append(lineno)
        values.append(value)
    if bad_lines:
        raise UsageError(f"non-numeric or non-finite entries on lines {bad_lines} of {path}")
    return np.array(values)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit(args, payload: dict, lines) -> int:
    """``payload`` as JSON under ``--json``, the text ``lines`` otherwise.

    JSON has no inf or NaN: a payload holding one prints nothing and raises
    ``ValueError``, a numeric failure.
    """
    if args.json:
        try:
            print(json.dumps(payload, indent=2, allow_nan=False))
        except ValueError as exc:
            raise ValueError(f"--json: the result is not finite ({exc})") from None
    else:
        print("\n".join(lines))
    return 0


def cmd_lmoments(args) -> int:
    sample = SortedSample(read_column(args.input, args.col))
    if args.max_order < 1:
        raise UsageError("--max-order must be >= 1")
    lv = sample_lmoments_v(sample, args.max_order)
    lu = sample_lmoments_u(sample, min(args.max_order, sample.n))
    payload = {
        "n": sample.n,
        "v_statistic": [float(v) for v in lv.values],
        "u_statistic": [float(v) for v in lu.values],
    }
    if args.max_order >= 3 and lv[2] != 0:
        payload["ratios"] = lmoment_ratios(lv)
    lines = ["order  l_r(V)      l_r(U)"]
    for r in range(1, args.max_order + 1):
        u = _fmt(lu.values[r - 1]) if r <= lu.max_order else "-"
        lines.append(f"{r:>5}  {_fmt(lv.values[r - 1]):>10}  {u:>10}")
    lines += [f"{key} = {_fmt(val)}" for key, val in payload.get("ratios", {}).items()]
    return _emit(args, payload, lines)


def _by_name(flag: str, lookup, name: str):
    """``lookup(name)``; an unknown or malformed name is a usage error naming ``flag``."""
    try:
        return lookup(name)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _fit(args) -> FitReport:
    """The fit, with the plug-in blocks under ``args.asymptotics``.

    Flags are resolved and checked before the CSV is read.  A classical method
    fits the GPD alone: it takes only a model of that law (``gpd-l234``), and
    no ``--div``.
    """
    model = _by_name("--model", model_by_name, args.model)
    if args.method == "divergence":
        divergence = _by_name("--div", divergence_by_name,
                              "chi2" if args.div is None else args.div)
        if args.asymptotics and model.family is None:
            raise UsageError(f"no plug-in law for model {model.name!r}: asymptotics "
                             "need a model of a parametric law")
    elif model.family != "gpd":
        raise UsageError(f"--model {args.model}: --method {args.method} fits the GPD only")
    elif args.div is not None:
        raise UsageError(f"--div {args.div}: --method {args.method} is not a divergence fit")
    elif args.asymptotics:
        raise UsageError(f"asymptotics need a divergence fit, not --method {args.method}")
    sample = SortedSample(read_column(args.input, args.col))
    if args.method == "divergence":
        report = fit_divergence(sample, model, divergence)
    else:
        fitter = {"lmom": fit_lmoment_method_gpd, "moment": fit_moment_method_gpd,
                  "mle": fit_mle_gpd}[args.method]
        report = FitReport(theta=np.array(fitter(sample)), xi=None, criterion=float("nan"),
                           method=args.method, param_names=model.param_names)
        if not np.isfinite(report.theta).all():
            raise EstimationError(f"the {args.method} fit overflows a float: "
                                  f"theta {report.theta.tolist()!r}")
    if not args.asymptotics:
        return report
    plugin = ParametricFamily(model.family, *map(float, report.theta))
    cov = asymptotic_covariance(report.theta, model, plugin)
    report.cov_theta, report.cov_xi = cov.cov_theta / sample.n, cov.cov_xi / sample.n
    try:
        stat = confidence_stat(report.xi, cov.p, cov.sigma, sample.n)
    except EstimationError as exc:
        # the covariances stand; only the membership statistic is undefined
        report.diagnostics["confidence_error"] = str(exc)
        return report
    report.s_n, report.df, report.p_value = stat.s_n, stat.df, stat.p_value
    return report


def cmd_fit(args) -> int:
    report = _fit(args)
    lines = [f"method    {report.method}",
             *(f"{name:<9} {_fmt(v)}" for name, v in zip(report.param_names, report.theta))]
    if np.isfinite(report.criterion):
        lines.append(f"criterion {_fmt(report.criterion)}")
    if report.s_n is not None:
        lines.append(f"S_n       {_fmt(report.s_n)}  (df={report.df}, "
                     f"p={_fmt(report.p_value)})")
    return _emit(args, report.to_dict(), lines)


def cmd_test(args) -> int:
    report = _fit(args)
    if report.s_n is None:
        raise EstimationError(report.diagnostics["confidence_error"])
    payload = {"s_n": report.s_n, "df": report.df, "p_value": report.p_value}
    return _emit(args, payload, [f"S_n = {_fmt(report.s_n)}  df = {report.df}  "
                                 f"p = {_fmt(report.p_value)}"])


_SIM_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)} | {"jobs", "output_dir"}


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse config {args.config}: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config {args.config} must be a JSON object")
    unknown = set(raw) - _SIM_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "scenario" not in raw:
        raise UsageError("config must name a scenario (1..4)")
    try:
        config = ScenarioConfig.preset(
            int(raw["scenario"]),
            n=int(raw.get("n", 100)),
            replicates=int(raw.get("replicates", 500)),
            seed=int(raw.get("seed", 0)),
            estimators=tuple(raw.get("estimators", DEFAULT_ESTIMATORS)),
        )
        config = dataclasses.replace(config, **{
            key: raw[key] for key in ("family", "sigma", "nu", "contamination", "outlier")
            if key in raw})
        jobs, out_dir = int(raw.get("jobs", 1)), os.fspath(raw.get("output_dir", "."))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad config {args.config}: {exc}") from None
    # a flag given on the command line wins over its config key
    jobs, out_dir = jobs if args.jobs is None else args.jobs, args.output or out_dir
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, not {jobs}")
    os.makedirs(out_dir, exist_ok=True)
    summary = run_scenario(config, n_jobs=jobs)

    csv_path = os.path.join(out_dir, "replicates.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["replicate", "estimator", "sigma", "nu", "l1", "error"]
        )
        writer.writeheader()
        writer.writerows(summary.records)

    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
        fh.write("\n")

    _write_plot_data(summary, out_dir)
    print(f"wrote {csv_path}, {json_path} and plot data to {out_dir}")
    return 0


def _densities(family: ParametricFamily, x: list) -> list:
    """The law's density at each point of ``x``: ``exp(log f)`` inside the support, 0 outside,
    and inf where it passes the largest float."""
    log_f, (lo, hi) = family.log_density_fn(), family.support
    logs = [log_f(v) if lo < v < hi else -math.inf for v in x]
    return [math.exp(t) if t <= _LOG_MAX else math.inf for t in logs]


def _write_plot_data(summary, out_dir) -> None:
    """Density curves of each estimator's mean fit over the true-law range."""
    truth = summary.config.true_family
    x = np.linspace(truth.quantile(0.001), truth.quantile(0.999), 400).tolist()
    true_density = _densities(truth, x)
    for est, block in summary.stats.items():
        if not block:
            continue
        fitted = ParametricFamily("gpd", block["sigma"].mean, block["nu"].mean)
        path = os.path.join(out_dir, f"density_{est.replace(':', '_')}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "fitted_density", "true_density"])
            for row in zip(x, _densities(fitted, x), true_density):
                writer.writerow(map(repr, row))


def _parse_family(text: str) -> ParametricFamily:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("density spec must be family:sigma:nu, e.g. gpd:3:0.7")
    try:
        return ParametricFamily(parts[0], float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_dist(args) -> int:
    f1 = _parse_family(args.first)
    f2 = _parse_family(args.second)
    value = l1_density_distance(f1, f2)
    return _emit(args, {"l1_distance": value}, [_fmt(value)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmomdiv",
        description="Minimum-divergence estimation under L-moment constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lmoments", help="sample L-moments of a CSV column")
    p.add_argument("input")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--col", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lmoments)

    for name, fn in (("fit", cmd_fit), ("test", cmd_test)):
        p = sub.add_parser(name)
        p.add_argument("input")
        p.add_argument("--model", default="gpd-l234")
        p.add_argument("--div", help="chi2 (the default), kl, klm or power:<gamma>")
        p.add_argument("--method", default="divergence",
                       choices=["divergence", "lmom", "moment", "mle"])
        p.add_argument("--col", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=fn, asymptotics=name == "test")
        if name == "fit":
            p.add_argument("--asymptotics", action="store_true")

    p = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p.add_argument("config")
    p.add_argument("--output")
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dist", help="L1 distance between two densities")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OrderLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (EstimationError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
