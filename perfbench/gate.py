"""Correctness gate: properties of the outputs that hold at any correct version.

No current number is pinned, because the L1 distance and the inner dual solve
are expected to change (ROADMAP items 2 and 3).  Each check returns a list of
problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import json

import numpy as np

from lmomdiv import cli, divergence, dualsolve, estimator, sim
from lmomdiv.lmoments import SortedSample
from lmomdiv.models import ParametricFamily, gpd_model

DIVERGENCE_FITS = ("chi2", "klm", "kl")
#: the GPD MLE's own parameter box; the L-moment and moment fits lie inside it
CLASSICAL_BOX = np.array([[0.0, np.inf], [-5.0, 5.0]])
#: symmetry of the L1 distance, up to the quadrature's own tolerance
L1_SYMMETRY_TOL = 1e-8
#: relative agreement of two computations of the same criterion value
CRITERION_RTOL = 1e-8
#: relative step to the neighbours a fitted theta must not lose to
NEIGHBOUR_STEP = 1e-3
#: relative agreement of a CLI result with the in-process fit of its file
CLI_RTOL = 1e-9


def _inside(theta, box) -> bool:
    return bool(np.all(np.isfinite(theta)) and np.all(theta >= box[:, 0])
                and np.all(theta <= box[:, 1]))


def _gpd_nll(sample: SortedSample, theta) -> float:
    """Negative GPD log-likelihood (location 0), +inf outside the support."""
    sigma, nu = theta
    x = sample.values
    if sigma <= 0:
        return np.inf
    if nu == 0.0:
        return x.size * np.log(sigma) + x.sum() / sigma
    z = 1.0 + nu * x / sigma
    if np.any(z <= 0):
        return np.inf
    return x.size * np.log(sigma) + (1.0 + 1.0 / nu) * float(np.log(z).sum())


def _criterion(est: str, sample: SortedSample, model, theta):
    """The criterion the estimator minimizes, or None where not defined."""
    if est == "mle":
        return _gpd_nll(sample, theta)
    if est == "chi2":
        return dualsolve.chi2_value_closed_form(
            sample, model.constraint_values, model.target_map(theta))[0]
    if est in ("klm", "kl"):
        problem = dualsolve.make_dual_problem(
            sample, model.constraint_values, divergence.divergence_by_name(est),
            model.target_map(theta))
        sol = dualsolve.solve_dual(problem)
        # a dual that stopped short of its optimum is only a lower bound
        return sol.value if sol.status == "converged" else None
    return None


def _neighbour_problems(est, sample, model, theta, box) -> list[str]:
    centre = _criterion(est, sample, model, theta)
    if centre is None:
        return []
    problems = []
    slack = 1e-9 * (1.0 + abs(centre))
    for j in range(theta.size):
        h = NEIGHBOUR_STEP * max(abs(theta[j]), 0.1)
        for sign in (-1.0, 1.0):
            nb = theta.copy()
            nb[j] += sign * h
            if not _inside(nb, box):
                continue
            value = _criterion(est, sample, model, nb)
            if value is not None and value < centre - slack:
                problems.append(
                    f"{est} fit {theta.tolist()} beaten by neighbour "
                    f"{nb.tolist()}: {value!r} < {centre!r}")
    return problems


def check_mc(ops, rng: np.random.Generator, n_deep: int) -> list[str]:
    """Every record is checked cheaply; ``n_deep`` seed-chosen calls in depth."""
    model = gpd_model()
    problems = []
    for op in ops:
        _, summary = op.output
        for rec in summary.records:
            if rec["error"]:
                continue              # counted as a failed operation
            est, theta = rec["estimator"], np.array([rec["sigma"], rec["nu"]])
            box = model.box if est in DIVERGENCE_FITS else CLASSICAL_BOX
            if not _inside(theta, box):
                problems.append(f"{est} theta {theta.tolist()} outside its box")
            if not 0.0 <= rec["l1"] <= 2.0:
                problems.append(f"{est} L1 {rec['l1']!r} outside [0, 2]")
    if problems:
        return problems

    for i in rng.choice(len(ops), size=min(n_deep, len(ops)), replace=False):
        config, summary = ops[i].output
        sample = sim.draw_sample(config, 0)
        reference = ParametricFamily("gpd", config.sigma, config.nu)
        for rec in summary.records:
            if rec["error"]:
                continue
            est, theta = rec["estimator"], np.array([rec["sigma"], rec["nu"]])
            back = sim.l1_density_distance(
                reference, ParametricFamily("gpd", *theta))
            if abs(back - rec["l1"]) > L1_SYMMETRY_TOL:
                problems.append(f"L1 not symmetric: {rec['l1']!r} vs {back!r}")
            box = model.box if est in DIVERGENCE_FITS else CLASSICAL_BOX
            problems += _neighbour_problems(est, sample, model, theta, box)
            if est == "chi2":
                problems += _chi2_report_problems(sample, model)
    return problems


def _chi2_report_problems(sample, model) -> list[str]:
    report = estimator.fit_divergence(sample, model, divergence.CHI2)
    closed, _ = dualsolve.chi2_value_closed_form(
        sample, model.constraint_values, model.target_map(report.theta))
    if not np.isclose(report.criterion, closed, rtol=CRITERION_RTOL, atol=0.0):
        return [f"chi2 criterion {report.criterion!r} != closed form {closed!r}"]
    return []


# ---------------------------------------------------------------------------
# CLI


def _library_fit(path: str, div: str):
    sample = SortedSample(cli.read_column(path))
    model = gpd_model()
    return sample, model, estimator.fit_divergence(
        sample, model, divergence.divergence_by_name(div))


def _library_s_n(path: str) -> float:
    """S_n of ``lmomdiv test``: chi-square fit, plug-in covariance, statistic."""
    sample, model, report = _library_fit(path, "chi2")
    sigma, nu = map(float, report.theta)
    cov = estimator.asymptotic_covariance(
        report.theta, model, ParametricFamily("gpd", sigma, min(nu, 0.999999)))
    return estimator.confidence_stat(report.xi, cov.p, cov.sigma, sample.n).s_n


def _theta_problems(args, payload, expected) -> list[str]:
    theta = np.array([payload["theta"]["sigma"], payload["theta"]["nu"]])
    if not np.allclose(theta, expected, rtol=CLI_RTOL, atol=0.0):
        return [f"{' '.join(args)}: theta {theta.tolist()} != library "
                f"{np.asarray(expected).tolist()}"]
    return []


def cli_failure(op) -> str | None:
    """Why a command failed, or None.

    A command fails when it exits non-zero, and also when ``test`` exits 0
    with a p-value that is not a probability: for about one GPD(3, 0.4)
    sample of 1000 in fifteen the plug-in multiplier covariance has a large
    negative eigenvalue, no rank survives and S_n = 0 with df = 0, p = nan.
    """
    args, result = op.output
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[-300:]}"
    if args[0] == "test":
        try:
            payload = json.loads(result.stdout)
        except json.JSONDecodeError:
            return None               # reported by check_cli
        if not 0.0 <= payload["p_value"] <= 1.0:
            return f"p-value {payload['p_value']!r} with df {payload['df']!r}"
    return None


def check_cli(ops) -> list[str]:
    """Each command's JSON against an in-process fit of the same file."""
    problems = []
    expected: dict[tuple, object] = {}
    for op in ops:
        args, result = op.output
        if op.failed:
            continue                  # counted as a failed operation
        try:
            payload = json.loads(result.stdout)
        except json.JSONDecodeError:
            problems.append(f"{' '.join(args)}: output is not JSON")
            continue
        key = tuple(args)
        command, path = args[0], args[1]
        div = args[args.index("--div") + 1] if "--div" in args else "chi2"
        if command == "test":
            if key not in expected:
                expected[key] = _library_s_n(path)
            if not np.isclose(payload["s_n"], expected[key], rtol=1e-6, atol=1e-12):
                problems.append(f"test: S_n {payload['s_n']!r} != library "
                                f"{expected[key]!r}")
            continue
        if key not in expected:
            sample, model, report = _library_fit(path, div)
            expected[key] = report.theta
            if div == "chi2":
                theta = [payload["theta"]["sigma"], payload["theta"]["nu"]]
                closed, _ = dualsolve.chi2_value_closed_form(
                    sample, model.constraint_values, model.target_map(theta))
                if not np.isclose(payload["criterion"], closed,
                                  rtol=CRITERION_RTOL, atol=0.0):
                    problems.append(f"fit chi2: criterion {payload['criterion']!r}"
                                    f" != closed form {closed!r}")
        problems += _theta_problems(args, payload, expected[key])
        if "--asymptotics" in args:
            cov = np.array(payload["cov_theta"])
            if not (np.all(np.isfinite(cov)) and np.allclose(cov, cov.T)
                    and np.all(np.diag(cov) > 0)):
                problems.append(f"fit --asymptotics: bad cov_theta {cov.tolist()}")
    return problems
