"""Outer parameter estimation, asymptotic covariance and the model test.

Each fit builds one ``DualProblem`` of the sample in units of ``2^e``, the
power of two at its L-scale (``fit_divergence``), so the parameter box's
scale row is in those units and the fit of ``2^k x`` is that of ``x``, bit
for bit.  Every model of the package has the form
``lambda(theta) = sigma * f(nu)`` (no ``nu`` for a scale-only model), and the
chi-square criterion ``(sigma f - lam)^T Omega^-1 (sigma f - lam) / 2`` of the
sample L-moments ``lam = -m_n`` is quadratic in sigma.  So the chi-square fit
is a variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973;
``_chi2_fit``) in least-squares form: Omega = L L^T is factored once by
LAPACK, and with ``g = L^-1 f`` the profile P(nu) is ``|r|^2 / 2``,
``r = sigma g - L^-1 lam``, at the scale ``g^T L^-1 lam / g^T g`` clipped to
its box, which is exact for a convex quadratic in one variable.  Every
``L^-1`` and ``L^-T`` is ``dualsolve.substitute`` on the rows of that factor.
A scale-only model (``orderstat3``) is then fitted at one point.  Otherwise
the slope of P is scanned on a fixed grid spanning the model's shape box
(``_chi2_table``; f and f' are tabulated once per law and shape box), and each
sign change from - to + is refined on it by ``bracketed_root``
(``_profile_minimum``, shared with the MLE).  One function (``_chi2_point``)
gives P, its slope, the scale and r, on the numpy rows of the table for the
scan and on floats for a refine point, by the same operations, so at a grid
shape the two agree bit for bit.  The lowest of P at those roots and at the
two shape edges, read from the scan, is the estimate; its value is the
criterion and ``xi = -L^-T r`` solves ``Omega xi = t - m_n`` at its target
t.  ``diagnostics`` has ``scan_minima``, the sign changes the scan found,
and ``refine_evaluations``, the profile evaluations of the refines.

Any other divergence is fitted by the same projection, through the dual
representation of the criterion (Broniatowski & Keziou, J. Statist. Plann.
Inference 142, 2012): ``V(t) = max_xi xi.t - sum_i delta_i psi(k_i.xi)`` is
convex in t, so by Sion's minimax theorem (Pacific J. Math. 8, 1958) the
minimum over sigma of ``V(sigma t1)``, ``t1 = target_map((1, nu))``, is the
dual restricted to ``xi.t1 = 0``, one ``solve_dual`` on the rows ``K N`` at
target 0 with N a Householder basis of the complement of t1, and the scale
is the constraint's multiplier ``g.t1 / t1.t1``, ``g = K^T psi'(K xi) delta``
(``_Profile``).  A scale outside the box row fails the point, as a failed
solve does.  With ``A = (-H)^-1`` at xi, the profile P(nu) has the envelope
slope ``P' = sigma xi.t1'`` and the curvature ``P'' = sigma' xi.t1' +
sigma (dxi.t1' + xi.t1'')``, ``dxi = sigma' A t1 + sigma A t1'``, where sigma'
keeps ``xi.t1 = 0``.  A point reads ``t1``, ``t1'`` and ``t1''`` from one
``SplqModel.jet`` call, builds the Householder basis in floats and solves
``-H`` for the gradient, ``t1`` and ``t1'`` by ``dualsolve.spd_solve``; a
``-H`` with no Cholesky factor fails the point.
``_shape_search`` minimizes P by damped Newton in nu from the L-moment-method
shape (the GPD's tau_4 and the Weibull's tau_3 inversion), or from the
chi-square one where that is undefined or its solve fails: a step
``-P' / |P''|`` inside a bracket on the box, closed by slope signs and by
rejected points, is halved until its solve converges and P falls strictly.
The search stops at a zero slope, at a box edge the slope points out of, at
a decrement ``P'^2 / P''`` within ``dualsolve.rounding_level``, and, where
``P'' > 0``, at a step that finds no lower P in floating point.  A failed
inner solve is never the criterion: a search that fails at its start or at
every halving of a step (its message counts the points whose scale left the
box), whose bracket closes in on it, or that does not converge raises
``EstimationError``, and so does an estimate whose multipliers fail the full
dual's own stopping test.
So does, for every divergence, a scale estimate on the edge of its box row,
which in units of s holds every law of the model; a shape edge is reported
as ``boundary``.  The plug-in Omega and Sigma run in quantile space and are
used on one Cholesky factor of Omega and one QR of the whitened Jacobian, so
``confidence_stat`` has ``df = c - d`` by construction (``asymptotic_covariance``).

The GPD maximum likelihood comparison estimator is a one-dimensional profile
search (Grimshaw, Technometrics 35, 1993): for ``theta = nu / sigma`` the
best shape is ``mean(log1p(theta * x))``, so ``-log L`` is a function of
``theta`` alone, scanned and refined by the same ``_profile_minimum``; the
box edge ``nu = 5`` is part of the profile.  The scan (``_gpd_profile``)
forms only the slope; a refine point (``_gpd_point``) runs the two sums over
the data in numpy and the rest in ``math``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain

import numpy as np

from .divergence import DivergenceSpec
from .dualsolve import (
    SOLVE_STATUSES,
    DualProblem,
    SingularConstraintError,
    fdot,
    make_dual_problem,
    omega_empirical,
    require_finite,
    rounding_level,
    solve_dual,
    spd_solve,
    substitute,
    target_in_cone,
)
from .lmoments import (
    LmomentVector,
    SortedSample,
    legendre_rows,
    magnitude_unit,
    plugin_second_moments,
    sample_lmoments_v,
    triangle_covariance,
)
from .models import WEIBULL_SHAPE_BOX, ParametricFamily, SplqModel, _weibull_shape
from .roots import bracketed_root

#: Newton steps the shape search may take
_MAX_SHAPE_STEPS = 100
#: halvings of one shape step before the search gives the step up
_MAX_HALVINGS = 60
#: upper edge of the GPD MLE's shape box [-5, 5]
_MLE_NU_MAX = 5.0
#: grid of log1p(theta * x_max) scanned by the GPD MLE, geometric on both sides of 0
_MLE_W = np.concatenate([-np.geomspace(700.0, 1e-6, 100), np.geomspace(1e-6, 700.0, 100)])
#: most grid points x observations the MLE's profile scan holds at once
_MLE_BLOCK = 1 << 20


class EstimationError(RuntimeError):
    """Estimation failed; the message carries the offending statistic."""


@dataclass(eq=False)
class FitReport:
    """Everything one fit produces."""

    theta: np.ndarray
    xi: np.ndarray | None
    criterion: float
    method: str
    param_names: tuple[str, ...]
    diagnostics: dict = field(default_factory=dict)
    cov_theta: np.ndarray | None = None
    cov_xi: np.ndarray | None = None
    s_n: float | None = None
    df: int | None = None
    p_value: float | None = None

    def to_dict(self) -> dict:
        out = {"method": self.method,
               "theta": dict(zip(self.param_names, map(float, self.theta)))}
        if math.isfinite(self.criterion):   # a classical fit has none; NaN is not JSON
            out["criterion"] = float(self.criterion)
        out["diagnostics"] = self.diagnostics
        if self.xi is not None:
            out["xi"] = [float(v) for v in self.xi]
        if self.cov_theta is not None:
            out["cov_theta"] = self.cov_theta.tolist()
        if self.cov_xi is not None:
            out["cov_xi"] = self.cov_xi.tolist()
        if self.s_n is not None:
            out["confidence"] = {
                "s_n": float(self.s_n),
                "df": int(self.df),
                "p_value": float(self.p_value),
            }
        return out


#: P at one shape, the scale and multipliers there, the full dual's rounding level and Newton
#: decrement, and P's slope and curvature (None for a scale-only model)
_Point = namedtuple("_Point", "value sigma xi level gap slope curvature", defaults=(None, None))


def _complement_basis(t1: list) -> list[list[float]]:
    """Columns 2..c of the Householder reflection taking ``t1`` to a multiple of e_1, in floats.

    They are an orthonormal basis of the complement of ``t1``.
    """
    v = list(t1)
    v[0] += math.copysign(math.sqrt(fdot(t1, t1)), t1[0])
    scale = 2.0 / fdot(v, v)
    return [[(i == j) - v[i] * v[j] * scale for j in range(1, len(v))] for i in range(len(v))]


class _Profile:
    """nu -> ``_Point`` of the profile P (module docstring), or None where the point fails.

    A point fails where its solve does not converge, where the scale sigma*
    leaves its box row (counted in ``outside``), and where ``-H`` is not
    positive definite.  Each solve starts from the nearest converged point's
    multipliers and their prediction.  ``nu`` is None for a scale-only model,
    whose one point has no slope.  A point reads ``f, f', f''`` once
    (``SplqModel.jet``) and its node weights from the solve, and does its
    c x c algebra in floats; only the m-node products run in numpy.
    """

    def __init__(self, skeleton: DualProblem, model: SplqModel):
        self.skeleton, self.model = skeleton, model
        self.solved = []            # (nu, xi, dxi/dnu) of each converged point
        self.calls = self.iterations = self.evaluations = self.outside = 0
        self.status = dict.fromkeys(SOLVE_STATUSES, 0)
        self._zero = np.zeros(skeleton.target.size - 1)     # the reduced dual's target
        self._sigma_box = model.box[0].tolist()
        self._kt = skeleton.kmat.T

    def _solve(self, problem: DualProblem, starts, t1):
        """``solve_dual`` on the rows ``K N``, counted; a failed solve is labelled by t1."""
        sol = solve_dual(problem, xi0=starts)
        self.iterations += sol.iterations
        self.evaluations += sol.evaluations
        # K N meets no condition of the cone test, and with t1 in the open cone of K
        # no column of K N is negative at every node; the reduced dual is unbounded
        # exactly when t1 lies outside that cone
        inside = sol.converged or target_in_cone(self.skeleton.with_target(t1))
        self.status[sol.status if inside else "infeasibleDirection"] += 1
        return sol

    def __call__(self, nu):
        self.calls += 1
        sk = self.skeleton
        f, *slopes = self.model.jet(nu)     # slopes: f', f''; none for a scale-only model
        t1 = [-v for v in f]            # the target at sigma = 1
        basis = np.array(_complement_basis(t1))
        reduced = DualProblem(sk.kmat @ basis, sk.delta, self._zero, sk.divergence,
                              sk.m_n @ basis)
        near = min(self.solved, key=lambda p: abs(p[0] - nu), default=None)
        starts = None if near is None else np.array([near[1], near[1] + (nu - near[0]) * near[2]])
        sol = self._solve(reduced, None if starts is None else starts @ basis, t1)
        if not sol.converged:
            return None
        value, xi, (w1, w2), kt = sol.value, basis @ sol.xi, sol.weights, self._kt
        g = kt.dot(w1).tolist()
        sigma, (lo, hi) = fdot(g, t1) / fdot(t1, t1), self._sigma_box
        if not lo <= sigma <= hi:
            self.outside += 1
            return None
        target = [sigma * t for t in t1]
        grad = [t - v for t, v in zip(target, g)]        # of the full dual at xi
        columns = [grad, t1] if nu is None else [grad, t1, [-v for v in slopes[0]]]
        solved = spd_solve((kt * w2).dot(sk.kmat).tolist(), *columns)      # -H, as ``curvature``
        if solved is None or not all(map(math.isfinite, chain.from_iterable(solved))):
            return None
        (a_grad, at1, *_), xl = solved, xi.tolist()
        level, gap = rounding_level(xl, target, value, sk.delta.size), fdot(grad, a_grad)
        if nu is None:
            return _Point(value, sigma, xi, level, gap)
        dt1, adt1 = columns[2], solved[2]
        xi_dt1 = fdot(xl, dt1)
        dsigma = -(xi_dt1 + sigma * fdot(t1, adt1)) / fdot(t1, at1)
        dxi = [dsigma * a + sigma * b for a, b in zip(at1, adt1)]
        self.solved.append((nu, xi, np.array(dxi)))
        return _Point(value, sigma, xi, level, gap, sigma * xi_dt1,
                      dsigma * xi_dt1 + sigma * (fdot(dxi, dt1) - fdot(xl, slopes[1])))

    def failure(self, where: str) -> EstimationError:
        """The error of a search whose points failed ``where``, naming any scale that left its box."""
        left = ""
        if self.outside:
            left = (f"; at {self.outside} points the solve converged but put the scale "
                    f"{self.model.param_names[0]} outside its box {self._sigma_box!r}, in units "
                    "of s = 2^e, the power of two at the sample's L-scale")
        return EstimationError(f"the inner solve failed {where}: inner_status {self.status}{left}")

    @property
    def diagnostics(self) -> dict:
        return {
            "criterion_evaluations": self.calls,
            "inner_iterations": self.iterations,
            "inner_evaluations": self.evaluations,
            "inner_status": dict(self.status),
            "inner_failures": self.status["maxIter"] + self.status["stalled"],
            "scale_outside_box": self.outside,
        }


def lmoment_method_start(lm: LmomentVector, model: SplqModel) -> np.ndarray | None:
    """L-moment-method estimate of the model's law (GPD or Weibull) from ``lm``, if defined."""
    invert = {"gpd": _gpd_lmoment_inverse,
              "weibull": _weibull_lmoment_inverse}.get(model.family)
    if invert is None:
        return None
    try:
        return np.array(invert(lm))
    except EstimationError:
        return None


def _shape_search(profile: _Profile, nu: float, point):
    """(nu, point, steps tried, last decrement) of the search for min P (module docstring).

    Each step is halved at most ``_MAX_HALVINGS`` times; the search raises
    after ``_MAX_SHAPE_STEPS`` steps.
    """
    lo, hi = map(float, profile.model.box[1])
    a, b, steps = lo, hi, 0
    for it in range(_MAX_SHAPE_STEPS + 1):
        slope, curvature = point.slope, point.curvature
        decrement = slope * slope / curvature if curvature > 0.0 else None
        a, b = (nu, b) if slope < 0.0 else (a, nu) if slope > 0.0 else (a, b)
        if (slope == 0.0 or (nu == lo and slope > 0.0) or (nu == hi and slope < 0.0)
                or (decrement is not None and decrement <= point.level)):
            return nu, point, steps, decrement
        if it == _MAX_SHAPE_STEPS:
            break
        step = -slope / abs(curvature) if curvature != 0.0 else math.copysign(math.inf, -slope)
        cand, tried, failed, new = min(max(nu + step, a), b), 0, 0, None
        if cand == nu != nu + step:
            raise EstimationError(f"the profile search closed in on nu = {nu!r}, where the slope "
                                  f"is {slope!r}: inner_status {profile.status}")
        while tried < _MAX_HALVINGS and cand != nu:
            tried += 1
            new = profile(cand)
            failed += new is None
            if new is not None and new.value < point.value:
                break
            # the search does not pass a point that failed or did not lower P
            a, b = (a, cand) if cand > nu else (cand, b)
            cand, new = nu + 0.5 * (cand - nu), None
        steps += tried
        if new is None:
            if failed and failed == tried:
                raise profile.failure(f"at every halving of the profile step from nu = {nu!r}")
            if curvature <= 0.0:
                raise EstimationError(f"no halving of the profile step from nu = {nu!r} lowered "
                                      "the criterion, whose curvature there is not positive: "
                                      f"inner_status {profile.status}")
            return nu, point, steps, decrement      # no lower P in floating point
        nu, point = cand, new
    raise EstimationError(f"the profile search did not converge in {_MAX_SHAPE_STEPS} steps: "
                          f"inner_status {profile.status}")


@lru_cache(maxsize=16)
def _chi2_table(law, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(shape grid, ``[f, f']`` on it (c, 2, k)) of a model's ``law`` on its shape box [lo, hi];
    61 shapes, geometric where the box is positive and linear otherwise."""
    shape, slopes = law
    grid = (np.geomspace if lo > 0.0 else np.linspace)(lo, hi, 61)
    table = np.stack([np.array([shape(nu), slopes(nu)[0]]).T for nu in grid], axis=-1)
    for arr in (grid, table):       # cached: every fit of the law on this box shares them
        arr.setflags(write=False)
    return grid, table


def _chi2_point(low, lam_w, sigma_box, f, df):
    """(value, slope, sigma, r) of the chi-square profile P from ``f`` and ``f'``.

    ``low`` holds the rows of the Cholesky factor L of Omega and ``lam_w =
    L^-1 lam``, ``lam = -m_n``, a float list.  ``f`` and ``df`` hold c floats
    at one shape, or c numpy rows over k shapes (the scan), which give the
    same numbers bit for bit.  With ``g = L^-1 f`` the scale is ``g^T lam_w /
    g^T g`` clipped to ``sigma_box``, the residual is ``r = sigma g - lam_w``
    and ``P = |r|^2 / 2``; the slope ``sigma (L^-1 f')^T r`` is the derivative
    of P: by the envelope theorem where sigma is free, and as sigma is
    constant where it is clipped.  A scale-only model passes ``df`` None and
    gets no slope.
    """
    g = substitute(low, f)
    sigma, (lo, hi) = fdot(lam_w, g) / fdot(g, g), sigma_box
    if type(sigma) is float:
        sigma = min(max(sigma, lo), hi)
    else:
        sigma = np.minimum(np.maximum(sigma, lo), hi)
    r = [sigma * v - lam for v, lam in zip(g, lam_w)]
    slope = None if df is None else sigma * fdot(substitute(low, df), r)
    return 0.5 * fdot(r, r), slope, sigma, r


def _profile_minimum(point, grid, slope, candidates=()):
    """(best, sign changes, refine evaluations) of a one-dimensional profile.

    ``slope`` is the profile's slope on the ascending ``grid`` and
    ``point(x)`` (value, slope, ...) at the one point ``x``, as floats.  A
    local minimum lies where the slope turns from negative to nonnegative;
    each such sign change is refined by ``bracketed_root`` on the slope, with
    every point evaluated once.  ``best`` is the pair ``(x, point(x))`` with
    the lowest value among the ``candidates``, pairs of that form the caller
    already holds, and the refined roots (the first on a tie), or None.
    """
    evaluated = {}

    def at(x):
        if x not in evaluated:
            evaluated[x] = point(x)
        return evaluated[x]

    candidates = list(candidates)
    minima = np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] >= 0.0))
    for i in minima:
        x = bracketed_root(lambda v: at(v)[1], float(grid[i]), float(grid[i + 1]),
                           float(slope[i]), float(slope[i + 1]))
        candidates.append((x, at(x)))
    best = min(candidates, key=lambda c: c[1][0], default=None)
    return best, len(minima), len(evaluated)


def _chi2_fit(skeleton: DualProblem, model: SplqModel):
    """(theta, value, xi, diagnostics) of the chi-square fit (module docstring)."""
    omega = omega_empirical(skeleton)
    require_finite(omega)
    try:
        low = np.linalg.cholesky(omega).tolist()
    except np.linalg.LinAlgError:
        raise SingularConstraintError("empirical second-moment matrix is singular")
    lam_w = substitute(low, (-skeleton.m_n).tolist())
    sigma_box, (shape, slopes) = model.box[0].tolist(), model.law
    point = partial(_chi2_point, low, lam_w, sigma_box)
    minima = evaluations = 0
    if slopes is None:
        value, _, sigma, r = point(shape(None), None)
        theta = np.array([sigma])
    else:
        grid, table = _chi2_table(model.law, *model.box[1].tolist())
        scan = point(table[:, 0], table[:, 1])
        # the two shape edges, read from the scan: the floats a point there gives
        edges = [(float(grid[j]), (*(float(v[j]) for v in scan[:3]),
                                   [float(v[j]) for v in scan[3]])) for j in (0, -1)]
        (nu, (value, _, sigma, r)), minima, evaluations = _profile_minimum(
            lambda nu: point(shape(nu), slopes(nu)[0]), grid, scan[1], edges)
        theta = np.array([sigma, nu])
    # the multipliers solve Omega xi = t - m_n = -L r
    return theta, value, -np.array(substitute(low, r, transpose=True)), {
        "scan_minima": minima, "refine_evaluations": evaluations}


def fit_divergence(
    sample: SortedSample,
    model: SplqModel,
    divergence: DivergenceSpec,
) -> FitReport:
    """Minimum-divergence fit: a variable projection on the scale for every divergence.

    The fit runs in units of ``s = 2^e``, ``e`` the binary exponent of the
    plug-in lambda_2: the sample is divided by ``s``, which is exact and
    keeps its order (``SortedSample.scaled``, no second sort), and
    the scale ``theta[0]`` (every model is linear in it), the criterion and
    ``outer_decrement`` are multiplied back.  The chi-square fit is
    ``_chi2_fit``; any other divergence runs ``_profile_fit``, and
    ``diagnostics`` has ``start`` (the start's name), ``outer_iterations``
    (the shape steps tried), ``criterion_evaluations`` (the profile points),
    ``outer_decrement`` (the search's last decrement, None where ``P'' <= 0``),
    ``scale_outside_box`` (the points whose scale left its box row) and the
    inner solves' counts.  The criterion and ``xi`` are the profile's
    own at the estimate.  A scale on the edge of its box row raises
    ``EstimationError``; ``boundary`` is then a shape edge.
    """
    lm = sample_lmoments_v(sample, 2 if divergence.family == "chi2" else 4)
    scale = math.ldexp(1.0, math.frexp(lm[2])[1])
    sample = sample.scaled(scale)
    try:
        skeleton = make_dual_problem(sample, model.rows, divergence, np.zeros(model.n_constraints))
        if divergence.family == "chi2":
            theta, value, xi, diagnostics = _chi2_fit(skeleton, model)
        else:
            start = lmoment_method_start(LmomentVector(lm.values / scale, lm.kind), model)
            theta, value, xi, diagnostics = _profile_fit(skeleton, model, start)
            if diagnostics["outer_decrement"] is not None:
                diagnostics["outer_decrement"] *= scale
    except SingularConstraintError as exc:
        raise EstimationError(str(exc)) from exc
    edges = [[b for b in row if abs(t - b) <= 1e-6 * abs(b)]
             for t, row in zip(theta.tolist(), model.box.tolist())]
    if edges[0]:
        # in units of s the scale's box holds every law of the model; its edge is none of them
        raise EstimationError(
            f"the fit has left the model: {model.param_names[0]} = {float(theta[0]) * scale!r} "
            f"lies on the edge {edges[0][0] * scale!r} of its box")
    if float(theta[0]) * scale == math.inf:
        raise EstimationError(f"the fitted {model.param_names[0]}, {float(theta[0])!r} times "
                              f"2^{math.frexp(scale)[1] - 1}, overflows a float")
    return FitReport(
        theta=np.concatenate([theta[:1] * scale, theta[1:]]),
        xi=xi,
        criterion=float(value) * scale,
        method=f"divergence:{divergence.family}",
        param_names=model.param_names,
        diagnostics={**diagnostics, "boundary": any(edges)},
    )


def _profile_fit(skeleton: DualProblem, model: SplqModel, start):
    """(theta, value, xi, diagnostics) of the profile search from the shape of ``start``.

    Where ``start`` is None or its solve fails, the search starts from the
    chi-square shape, whose target lies near m_n, inside the cone of the rows.
    """
    profile, nu, start_name = _Profile(skeleton, model), None, None
    point = profile(None) if model.dim == 1 else None
    if model.dim == 2 and start is not None:
        nu, start_name = float(np.clip(start[1], *model.box[1])), "lmoment"
        point = profile(nu)
    if model.dim == 2 and point is None:
        nu, start_name = float(_chi2_fit(skeleton, model)[0][1]), "chi2"
        point = profile(nu)
    if point is None:
        raise profile.failure("at the start of the profile search")
    steps, decrement = 0, None
    if nu is not None:
        nu, point, steps, decrement = _shape_search(profile, nu, point)
    if point.gap > point.level:
        raise EstimationError("the inner solve at the estimate stopped short of the full dual's "
                              f"optimum: Newton decrement {point.gap!r} above its rounding level "
                              f"{point.level!r}; inner_status {profile.status}")
    theta = np.array([point.sigma] if nu is None else [point.sigma, nu])
    return theta, point.value, point.xi, {"outer_iterations": steps, **profile.diagnostics,
                                          "start": start_name, "outer_decrement": decrement}


# ---------------------------------------------------------------------------
# asymptotic covariance and the confidence statistic


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    sigma: np.ndarray       # long-run covariance of the constraint moments
    omega: np.ndarray       # second-moment matrix of the constraint rows
    j0: np.ndarray          # Jacobian of the target map at theta_hat
    h: np.ndarray           # R^-1 Q1^T L^-1: the influence of the moments on theta
    p: np.ndarray           # L^-T Q2, (c, c - d): the multipliers' projection is p p^T

    @property
    def cov_theta(self) -> np.ndarray:
        c = self.h @ self.sigma @ self.h.T
        return 0.5 * (c + c.T)

    @property
    def cov_xi(self) -> np.ndarray:
        c = self.p @ (self.p.T @ (self.sigma @ self.p)) @ self.p.T
        return 0.5 * (c + c.T)


def asymptotic_covariance(
    theta_hat,
    model: SplqModel,
    plugin: ParametricFamily,
) -> CovarianceReport:
    """Plug-in asymptotic covariance blocks at ``theta_hat``, on one factor of Omega.

    Omega (second moments of the constraint rows) and Sigma (long-run
    covariance of the constraint moments; Hosking, JRSS-B 52, 1990) are
    integrals under the plug-in law over ``F(x) <= 1 - 1e-10``, on one Gauss
    rule in ``s = -log(1 - F)`` with ``dx = plugin.quantile_slope(s) ds``.
    The cut keeps both finite where Sigma does not exist (GPD ``nu >= 1/2``).
    With ``Omega = L L^T`` and the complete QR ``L^-1 J0 = [Q1 Q2] R``,
    ``h = (J0^T Omega^-1 J0)^-1 J0^T Omega^-1`` is ``R^-1 Q1^T L^-1`` and the
    projection ``Omega^-1 - Omega^-1 J0 h`` is ``p p^T`` with ``p = L^-T Q2``,
    whose c - d columns are the degrees of freedom of ``confidence_stat``.
    Sigma differentiates the rows by their orders, ``model.rows.orders``.
    """
    with np.errstate(over="ignore", invalid="ignore"):     # reported below, as an error
        omega = plugin_second_moments(plugin, model.constraint_values)
        sigma = triangle_covariance(plugin, legendre_rows(model.rows.orders))
    j0 = -model.lmoment_jacobian(np.asarray(theta_hat, dtype=float))
    require_finite(omega, sigma, j0)
    try:
        low = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise EstimationError("plug-in second-moment matrix is not positive definite")
    d, rank = j0.shape[1], np.linalg.matrix_rank(j0)
    if rank < d:
        raise EstimationError(f"rank-deficient Jacobian: rank {rank} < {d} parameters")
    white = np.linalg.solve(low, j0)
    require_finite(white)
    q, r = np.linalg.qr(white, mode="complete")
    basis = np.linalg.solve(low.T, np.column_stack([np.linalg.solve(r[:d], q[:, :d].T).T,
                                                    q[:, d:]]))
    return CovarianceReport(sigma=sigma, omega=omega, j0=j0, h=basis[:, :d].T, p=basis[:, d:])


def _chi2_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer ``df >= 1``, in closed form.

    Abramowitz & Stegun 26.4.4-26.4.5: ``exp(-x/2) sum_{j<df/2} (x/2)^j / j!``
    for even ``df``; for odd ``df``, ``erfc(sqrt(x/2))`` plus
    ``sqrt(2/pi) exp(-x/2) sum_{r=1}^{(df-1)/2} x^(r-1/2) / (1*3*...*(2r-1))``.
    The exponential rides in the first term, so large ``x`` underflows to 0.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if df % 2 == 0:
        term = total = math.exp(-0.5 * x)
        for j in range(1, df // 2):
            term *= 0.5 * x / j
            total += term
        return total
    total = math.erfc(math.sqrt(0.5 * x))
    term = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x) * math.sqrt(x)
    for r in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return total


@dataclass(frozen=True)
class ConfidenceStat:
    s_n: float
    df: int
    p_value: float


def confidence_stat(xi_hat, p_mat, sigma_mat, n: int) -> ConfidenceStat:
    """Model-membership statistic ``n xi^T (P Sigma P)^+ xi`` on the factor ``P = p p^T``.

    ``p_mat`` is ``CovarianceReport.p`` (c x (c - d), full column rank).  With
    ``y`` the least-squares coordinates of ``xi_hat`` in its columns and
    ``C = p^T Sigma p``, the statistic is ``n y^T C^-1 y`` on ``df = c - d``
    degrees of freedom (Hansen, Econometrica 50, 1982).  A ``C`` that is not
    positive definite has no such statistic, and the call raises.
    """
    xi_hat = np.asarray(xi_hat, dtype=float)
    y = np.linalg.solve(p_mat.T @ p_mat, p_mat.T @ xi_hat)
    middle = p_mat.T @ (sigma_mat @ p_mat)
    try:
        low = np.linalg.cholesky(middle)
    except np.linalg.LinAlgError:
        raise EstimationError("multiplier covariance p^T Sigma p is not positive definite "
                              f"(diagonal {np.diag(middle).tolist()!r})")
    a = np.linalg.solve(low, y)
    s_n, df = float(n * (a @ a)), p_mat.shape[1]
    return ConfidenceStat(s_n=s_n, df=df, p_value=_chi2_sf(df, s_n))


# ---------------------------------------------------------------------------
# classical comparison estimators


def _weibull_tau3(log_nu: float) -> float:
    lam = _weibull_shape(math.exp(log_nu))
    return lam[1] / lam[0]


def _weibull_lmoment_inverse(lm: LmomentVector) -> tuple[float, float]:
    """Invert the (lambda_2, tau_3) map of the Weibull law from the L-moments ``lm``.

    tau_3 decreases strictly in the shape over the model box [0.05, 20], from
    1.0 to -0.138; ``bracketed_root`` inverts it in log nu, and the scale
    follows from ``lambda_2 = sigma (1 - 2^(-1/nu)) Gamma(1 + 1/nu)``, which
    is linear in sigma.
    """
    lam2 = lm[2]
    if lam2 <= 0:
        raise EstimationError(f"nonpositive sample L-scale {lam2!r}")
    tau3 = lm[3] / lam2
    lo, hi = map(math.log, WEIBULL_SHAPE_BOX)
    f_lo, f_hi = _weibull_tau3(lo) - tau3, _weibull_tau3(hi) - tau3
    if not f_lo > 0.0 > f_hi:
        raise EstimationError(f"tau_3={tau3!r} outside the Weibull range on the shape box")
    nu = math.exp(bracketed_root(lambda w: _weibull_tau3(w) - tau3, lo, hi, f_lo, f_hi))
    return float(lam2 / _weibull_shape(nu)[0]), nu


def fit_lmoment_method_gpd(sample: SortedSample) -> tuple[float, float]:
    """Invert the (lambda_2, tau_4) map of the GPD from plug-in L-moments."""
    return _gpd_lmoment_inverse(sample_lmoments_v(sample, 4))


def _gpd_lmoment_inverse(lm: LmomentVector) -> tuple[float, float]:
    lam2 = lm[2]
    if lam2 <= 0:
        raise EstimationError(f"nonpositive sample L-scale {lam2!r}")
    tau4 = lm[4] / lam2
    disc = tau4 * tau4 + 98.0 * tau4 + 1.0
    if disc < 0.0 or tau4 == 1.0:
        raise EstimationError(f"tau_4={tau4!r} outside the invertibility range")
    nu = (7.0 * tau4 + 3.0 - np.sqrt(disc)) / (2.0 * (tau4 - 1.0))
    if nu >= 1.0:
        raise EstimationError(f"tau_4={tau4!r} maps outside the existence region")
    sigma = lam2 * (1.0 - nu) * (2.0 - nu)
    if sigma <= 0.0:
        raise EstimationError(f"tau_4={tau4!r} yields nonpositive scale")
    return float(sigma), float(nu)


def _gpd_skewness(nu: float) -> float:
    return 2.0 * (1.0 + nu) * math.sqrt(1.0 - 2.0 * nu) / (1.0 - 3.0 * nu)


def fit_moment_method_gpd(sample: SortedSample) -> tuple[float, float]:
    """Invert the (variance, skewness) map of the GPD numerically.

    The forward formulas require shape < 1/3; the skewness increases on
    (-5, 1/3), and ``bracketed_root`` inverts it there.  Where the moments
    overflow they are taken in units of the power of two at the sample's
    largest magnitude (``magnitude_unit``); the skewness is scale-free.
    """
    x, unit = sample.values, 1.0
    with np.errstate(over="ignore", invalid="ignore"):     # redone below for finite values
        var, m3 = _central_moments(x)
    if not math.isfinite(var + m3):
        unit = magnitude_unit(x)
        var, m3 = _central_moments(x / unit)
    if var <= 0:
        raise EstimationError("degenerate sample variance")
    t3 = m3 / var ** 1.5
    lo, hi = -5.0, 1.0 / 3.0 - 1e-6
    if not _gpd_skewness(lo) < t3 < _gpd_skewness(hi):
        raise EstimationError(f"sample skewness {t3!r} outside the GPD range")
    nu = bracketed_root(lambda v: _gpd_skewness(v) - t3, lo, hi,
                        _gpd_skewness(lo) - t3, _gpd_skewness(hi) - t3)
    return math.sqrt(var * (1.0 - nu) ** 2 * (1.0 - 2.0 * nu)) * unit, nu


def _central_moments(x: np.ndarray) -> tuple[float, float]:
    """(variance with denominator n - 1, third central moment) of ``x``."""
    d = x - x.sum() / x.size        # np.mean's sum and division
    d2 = d * d
    return float(d2.sum()) / (x.size - 1), float(d2 @ d) / x.size


def _log_terms(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``log(1 + theta * y)`` for ``theta = expm1(w)``: one row per ``w``, ``w`` ascending.

    One new array, transformed in place, as ``_gpd_profile`` goes on to do:
    a temporary of the grid's size costs as much as a pass over it.
    """
    far = int(np.searchsorted(w, -1.0))   # the rows w < -1
    logs = np.multiply.outer(np.concatenate([np.exp(w[:far]), np.expm1(w[far:])]), y)
    if far:
        # as theta -> -1, (1 - y) + y * exp(w) keeps the digits 1 + theta*y loses
        logs[:far] += 1.0 - y
        np.log(logs[:far], out=logs[:far])
    np.log1p(logs[far:], out=logs[far:])
    return logs


def _gpd_profile(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The slope of the profiled GPD ``-log L / n`` at ascending ``w = log1p(theta)``.

    The data ``y`` lie in [0, 1]; the slope has the sign of the derivative
    of the value (``_gpd_point``).  For ``theta = nu / sigma`` the likelihood
    is maximized over the shape by ``nu = mean(log1p(theta * y))``, clipped
    to the box edge ``nu <= 5``.  Where that mean is below -1 both terms of
    the slope are positive, so no local minimum has ``nu < -1`` and the edge
    ``nu = -5`` never binds at one.  At ``theta = 0`` the terms are 0, and
    ``dk`` is ``mean(y)``, the limit of ``sigma``.
    """
    k, dk = np.empty(w.size), np.empty(w.size)
    rows = max(1, _MLE_BLOCK // y.size)
    for i in range(0, w.size, rows):
        logs = _log_terms(w[i:i + rows], y)
        k[i:i + rows] = logs.sum(axis=1)
        logs = np.exp(np.negative(logs, out=logs), out=logs)
        logs *= y
        dk[i:i + rows] = logs.sum(axis=1)
    k /= y.size
    dk /= y.size
    with np.errstate(divide="ignore", invalid="ignore"):
        return dk * (1.0 + 1.0 / np.minimum(k, _MLE_NU_MAX)) - 1.0 / np.expm1(w)


def _recip(x: float) -> float:
    """``1 / x`` as numpy gives it: a signed inf at a signed zero."""
    return 1.0 / x if x else math.copysign(math.inf, x)


def _gpd_point(w: float, y: np.ndarray):
    """(value, slope, sigma, nu) of the profiled GPD ``-log L / n`` at one ``w``, as floats.

    ``sigma`` is in units of ``y`` and the slope is ``_gpd_profile``'s.  The
    two sums over ``y`` run in numpy; the rest is ``math``, guarded to give
    numpy's infs and NaNs where Python would raise.
    """
    t = math.expm1(w)
    logs = np.log(math.exp(w) * y + (1.0 - y)) if w < -1.0 else np.log1p(t * y)
    k = float(logs.sum()) / y.size
    dk = float((y * np.exp(-logs)).sum()) / y.size
    nu = min(k, _MLE_NU_MAX)
    sigma = dk if t == 0.0 else nu / t
    # numpy's log: -inf at 0, NaN below it
    log_sigma = math.log(sigma) if sigma > 0.0 else -math.inf if sigma == 0.0 else math.nan
    # (1 + 1/nu) * k is k + 1 inside the box and k + k/5 on its edge
    return (log_sigma + k + max(k / _MLE_NU_MAX, 1.0),
            dk * (1.0 + _recip(nu)) - _recip(t), sigma, nu)


def fit_mle_gpd(sample: SortedSample) -> tuple[float, float]:
    """Maximum likelihood in the GPD family (location 0, sigma > 0, nu in [-5, 5]).

    A one-dimensional profile search in ``theta = nu / sigma``, on the fixed
    grid ``_MLE_W`` of ``log1p(theta * x_max)`` (``_profile_minimum``).
    Where the likelihood has no local maximum it grows without bound toward
    the support end (nu < -1), and the fit raises.  More than one zero in six
    makes the likelihood unbounded toward sigma -> 0 at nu = 5, and the fit
    raises as well.
    """
    x = sample.values
    if x[0] < 0:
        raise EstimationError("GPD MLE requires nonnegative observations")
    n = sample.n
    zeros = int(np.searchsorted(x, 0.0, side="right"))
    if 5 * zeros > n - zeros:
        raise EstimationError(
            f"GPD likelihood is unbounded: {zeros} of {n} observations are zero "
            "(more than one in six)")
    xmax = float(x[-1])
    y = x / xmax

    best = _profile_minimum(partial(_gpd_point, y=y), _MLE_W, _gpd_profile(_MLE_W, y))[0]
    if best is None:
        raise EstimationError("MLE degenerated to the support boundary")
    sigma, nu = best[1][2] * xmax, best[1][3]
    if nu < 0 and -sigma / nu <= xmax * (1.0 + 1e-9):
        raise EstimationError("MLE degenerated to the support boundary")
    return sigma, nu
