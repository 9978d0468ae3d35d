"""Test oracles: independent computations the library is checked against."""

import csv
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Legendre, Polynomial
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.special import gamma, gammainc

from lmomdiv.cli import UsageError
from lmomdiv.divergence import DivergenceSpec
from lmomdiv.dualsolve import DualProblem, make_dual_problem
from lmomdiv.lmoments import LmomentVector, SortedSample
from lmomdiv.poly import integrated_legendre_eval


# ---------------------------------------------------------------------------
# the primal integrand phi of each divergence, whose convex conjugate is the
# library's psi; extended-real: +inf outside its domain


def _extended(phi, at_zero):
    """phi on x > 0, its limit from the right at 0 and +inf left of 0."""
    def extended(x, g):
        out = np.full_like(x, np.inf)
        pos = x > 0.0
        out[pos] = phi(x[pos], g)
        out[x == 0.0] = at_zero(g)
        return out

    return extended


#: family -> (phi, phi', phi''), functions of (argument, gamma)
_PHI_FORMS = {
    "chi2": (
        lambda x, g: 0.5 * (x - 1.0) ** 2,
        lambda x, g: x - 1.0,
        lambda x, g: np.ones_like(x),
    ),
    "kl": (
        _extended(lambda x, g: x * np.log(x) - x + 1.0, lambda g: 1.0),
        lambda x, g: np.log(x),
        lambda x, g: 1.0 / x,
    ),
    "klm": (
        _extended(lambda x, g: -np.log(x) + x - 1.0, lambda g: np.inf),
        lambda x, g: 1.0 - 1.0 / x,
        lambda x, g: 1.0 / (x * x),
    ),
    "power": (
        _extended(lambda x, g: (x ** g - g * x + g - 1.0) / (g * (g - 1.0)),
                  lambda g: 1.0 / g if g > 0.0 else np.inf),
        lambda x, g: (x ** (g - 1.0) - 1.0) / (g - 1.0),
        lambda x, g: x ** (g - 2.0),
    ),
}


def _primal(order: int):
    def entry(divergence: DivergenceSpec, x):
        """A float for a scalar x, an array of x's shape otherwise."""
        x = np.asarray(x, dtype=float)
        out = _PHI_FORMS[divergence.family][order](np.atleast_1d(x), divergence.gamma)
        return float(out[0]) if x.ndim == 0 else out

    return entry


#: phi(divergence, x) and its first two derivatives; phi_prime is finite
#: only strictly inside phi's domain
phi, phi_prime, phi_second = map(_primal, range(3))


def cone_witness(problem: DualProblem) -> np.ndarray | None:
    """Spacings ``s`` with ``kmat.T @ s = target``, or None when there are none.

    For a divergence that admits negative spacings (chi-square) it is the
    least-norm correction of the empirical spacings.  Otherwise it must be
    strictly positive; when that correction is not, the margin LP runs on
    the target scaled to the norm of ``kmat.T @ 1``: maximize ``m <= 1``
    with ``s_i >= m`` (``s = v + m``, ``v >= 0``).  None means a margin
    ``m <= 0``: the target lies outside the open cone of the rows.  Weighting
    the margin by the spacings (``s >= m * delta``) is not equivalent in
    floating point: with spacings from 1e-35 to 488 HiGHS reports negative
    margins for targets inside the cone.
    """
    a, delta, target = problem.kmat, problem.delta, problem.target
    s0 = delta + a @ np.linalg.solve(a.T @ a, target - problem.m_n)
    if problem.divergence.a_phi < 0.0 or np.all(s0 > 1e-12 * delta):
        return s0
    ones = a.sum(axis=0)
    scale = np.linalg.norm(target) / np.linalg.norm(ones)
    m = delta.size
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(
        cost, A_eq=np.hstack([a.T, ones[:, None]]), b_eq=target / scale,
        bounds=[(0.0, None)] * m + [(None, 1.0)], method="highs",
    )
    if not res.success or res.x[-1] <= 0.0:
        return None
    return scale * (res.x[:-1] + res.x[-1])


def population_lmoments(quantile, max_order: int) -> LmomentVector:
    """Population L-moments of the law with quantile function ``quantile``.

    Integrates ``quantile(t) * L_{r-1}(t)`` over (0, 1) by adaptive
    quadrature, which handles the integrable endpoint blow-up of
    heavy-tailed quantile functions; raises when an order does not converge.
    """
    vals = np.empty(max_order)
    for r in range(1, max_order + 1):
        poly = Legendre.basis(r - 1, domain=[0.0, 1.0])
        est, err = quad(lambda t: quantile(t) * poly(t), 0.0, 1.0,
                        epsabs=1e-9, epsrel=1e-9, limit=200)
        if not np.isfinite(est) or err > max(1e-9, 1e-6 * (1 + abs(est))):
            raise RuntimeError(f"order-{r} quadrature did not converge: "
                               f"estimate {est!r}, error {err!r}")
        vals[r - 1] = est
    return LmomentVector(vals, "population")


def primal_bruteforce(
    sample: SortedSample,
    constraint_values,
    target,
    divergence: DivergenceSpec,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, np.ndarray]:
    """Direct solve of the constrained primal over candidate spacings.

    Equality-constrained Newton on the convex program; oracle scale only
    (n <= 50).  Returns the optimal value and the full spacing vector, with
    zeros at tied nodes.  Its iterates stay strictly positive, so where the
    optimum gives some nodes zero mass (a power divergence with gamma > 1)
    it stalls above the minimum: on 32 targets per gamma (n = 40) it sat
    above the certified minimum on 4, 15 and 22 of them at gamma = 1.5, 2.5
    and 3.  Check such solves by ``duality_certificate`` instead.
    """
    if sample.n > 50:
        raise ValueError("the primal oracle is restricted to n <= 50")
    problem = make_dual_problem(sample, constraint_values, divergence, target)
    a, d, target = problem.kmat, problem.delta, problem.target    # a: (m, c)
    positive = divergence.a_phi >= 0.0
    s = cone_witness(problem)
    if s is None:
        raise ValueError("no strictly positive spacing vector satisfies the constraints")

    def value_of(sv):
        return float(phi(divergence, sv / d) @ d)

    val = value_of(s)
    for _ in range(max_iter):
        r = s / d
        g = np.asarray(phi_prime(divergence, r))
        h = np.asarray(phi_second(divergence, r)) / d
        h = np.maximum(h, 1e-12)
        # KKT step: minimize the local quadratic subject to A^T p = 0
        hinv_g = g / h
        hinv_at = a / h[:, None]
        mu = np.linalg.solve(a.T @ hinv_at, -a.T @ hinv_g)
        p = -(hinv_g + hinv_at @ mu)
        lam_dec = float(-g @ p)
        if lam_dec <= tol * (1.0 + abs(val)):
            break
        t = 1.0
        while t > 1e-16:
            cand = s + t * p
            if positive and np.any(cand <= 0.0):
                t *= 0.5
                continue
            cand_val = value_of(cand)
            if np.isfinite(cand_val) and cand_val <= val - 1e-4 * t * lam_dec:
                break
            t *= 0.5
        else:
            break
        s, val = cand, cand_val
    out = np.zeros(sample.n - 1)
    out[sample.spacings > 0.0] = s
    return val, out


def duality_certificate(problem: DualProblem, xi) -> tuple[np.ndarray, float, float, float]:
    """(s, mass residual, primal value, dual value) of the multipliers ``xi``.

    ``s = delta psi'(kmat xi)`` are the primal spacings the multipliers give.
    They certify ``xi`` optimal when ``s >= 0``, the residual
    ``max |kmat^T s - target|`` is at rounding level, and the primal value
    ``sum delta phi(s / delta)`` equals the dual value: a feasible primal
    point and a dual point with the same value are both optimal.
    """
    psi, d1, _ = problem.divergence.conjugate(problem.kmat @ xi)
    s = d1 * problem.delta
    residual = float(np.abs(problem.kmat.T @ s - problem.target).max())
    primal = float(phi(problem.divergence, s / problem.delta) @ problem.delta)
    return s, residual, primal, float(problem.target @ xi - psi @ problem.delta)


# ---------------------------------------------------------------------------
# plug-in blocks of the asymptotics over u <= 1 - eps, in closed form
#
# With z = 1 - u = exp(-s), s in [0, T], T = -log(eps), every row and row
# derivative is a polynomial in z, and dx = (dQ/ds) ds.  For the GPD,
# dQ/ds = sigma exp(nu s), so each block is a finite sum of integrals
# of exp(-m s): (1 - exp(-m T)) / m.


def _legendre_in_z(r: int, integrated: bool) -> np.ndarray:
    """Coefficients in z = 1 - u of L_{r-1}(u), or of its integral from 0 to u."""
    p = Legendre.basis(r - 1, domain=[0.0, 1.0]).convert(kind=Polynomial)
    if integrated:
        p = p.integ(lbnd=0.0)
    return p(Polynomial([1.0, -1.0])).coef


def _exp_integral(m, top):
    """Integral of exp(-m s) over [0, top]."""
    return top if m == 0.0 else -np.expm1(-m * top) / m


def gpd_plugin_omega(sigma: float, nu: float, orders, eps: float = 1e-10) -> np.ndarray:
    """Integral of K_a(F) K_b(F) dx under GPD(sigma, nu), orders a, b >= 2."""
    top = -np.log(eps)
    k = [_legendre_in_z(r, integrated=True) for r in orders]
    out = np.empty((len(orders), len(orders)))
    for a, ka in enumerate(k):
        for b, kb in enumerate(k):
            c = np.polynomial.polynomial.polymul(ka, kb)
            out[a, b] = sigma * sum(ci * _exp_integral(i - nu, top)
                                    for i, ci in enumerate(c))
    return out


def gpd_plugin_sigma(sigma: float, nu: float, orders, eps: float = 1e-10) -> np.ndarray:
    """Long-run covariance of the rows with derivatives L_{r-1}, under GPD(sigma, nu < 1).

    Entry (a, b) is A_ab + A_ba with
    A_ab = int_{x<y} L_{a-1}(F(x)) L_{b-1}(F(y)) F(x)(1 - F(y)) dx dy.
    """
    if not nu < 1.0:
        raise ValueError("the closed form needs nu < 1")
    top = -np.log(eps)
    d = [_legendre_in_z(r, integrated=False) for r in orders]
    # L(u) u as a polynomial in z
    du = [np.polynomial.polynomial.polymul(di, [1.0, -1.0]) for di in d]
    a_mat = np.empty((len(orders), len(orders)))
    for a in range(len(orders)):
        for b in range(len(orders)):
            total = 0.0
            for j, dj in enumerate(d[b]):
                # inner: int_s^T z^(j+1) e^(nu t) dt = (e^(-m s) - e^(-m T)) / m
                m = j + 1.0 - nu
                for i, ai in enumerate(du[a]):
                    total += ai * dj / m * (_exp_integral(i - nu + m, top)
                                            - np.exp(-m * top) * _exp_integral(i - nu, top))
            a_mat[a, b] = sigma * sigma * total
    return a_mat + a_mat.T


def weibull_plugin_omega(sigma: float, nu: float, orders, eps: float = 1e-10) -> np.ndarray:
    """Integral of K_a(F) K_b(F) dx under Weibull(sigma, nu), orders a, b >= 2.

    dQ/ds = (sigma / nu) s^(1/nu - 1), and the integral of z^k = exp(-k s)
    against it over [0, T] is sigma Gamma(1 + 1/nu) P(1/nu, k T) / k^(1/nu).
    """
    top = -np.log(eps)
    k = [_legendre_in_z(r, integrated=True) for r in orders]
    shape = 1.0 / nu
    out = np.empty((len(orders), len(orders)))
    for a, ka in enumerate(k):
        for b, kb in enumerate(k):
            c = np.polynomial.polynomial.polymul(ka, kb)
            # K vanishes at u = 1, so c_0 = c_1 = 0
            out[a, b] = sum(ci * sigma * gamma(1.0 + shape) * gammainc(shape, i * top)
                            / i ** shape for i, ci in enumerate(c) if i >= 2)
    return out


def weibull_plugin_sigma(sigma: float, nu: float, orders, eps: float = 1e-10) -> np.ndarray:
    """``gpd_plugin_sigma`` for Weibull(sigma, nu), by one adaptive quadrature per entry.

    The inner integral over [s, T] is a sum of incomplete gamma functions,
    as in ``weibull_plugin_omega``; the outer one runs in s against the
    weight s^(1/nu - 1) (``quad(weight="alg")``).
    """
    top = -np.log(eps)
    shape = 1.0 / nu
    d = [_legendre_in_z(r, integrated=False) for r in orders]
    scale = sigma * gamma(1.0 + shape)

    def inner(s, db):
        return sum(dj * scale * (gammainc(shape, (j + 1) * top) - gammainc(shape, (j + 1) * s))
                   / (j + 1) ** shape for j, dj in enumerate(db))

    a_mat = np.empty((len(orders), len(orders)))
    for a, da in enumerate(d):
        for b, db in enumerate(d):
            def outer(s):
                z = np.exp(-s)
                return np.polynomial.polynomial.polyval(z, da) * -np.expm1(-s) * inner(s, db)

            val, _ = quad(outer, 0.0, top, weight="alg", wvar=(shape - 1.0, 0.0),
                          epsabs=1e-14 * sigma * sigma, epsrel=1e-12, limit=200)
            a_mat[a, b] = sigma / nu * val
    return a_mat + a_mat.T


# ---------------------------------------------------------------------------
# the chi-square value and the membership statistic in rational arithmetic


def _fractions(a) -> list:
    """The float matrix (or vector, as one column) ``a`` as lists of exact Fractions."""
    a = np.asarray(a, dtype=float)
    return [[Fraction(float(v)) for v in np.atleast_1d(row)] for row in a]


def _mul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _t(a) -> list:
    return [list(col) for col in zip(*a)]


def _solve(a, b) -> list:
    """a^-1 b, both lists of Fraction rows, by Gauss-Jordan elimination."""
    rows = [ra + rb for ra, rb in zip(a, b)]
    n = len(a)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def chi2_value_rational(omega, resid) -> float:
    """``r^T Omega^-1 r / 2`` of the float inputs, exactly; only the result is rounded."""
    r = _fractions(resid)
    return float(Fraction(1, 2) * sum(a[0] * b[0] for a, b in zip(r, _solve(_fractions(omega), r))))


def s_n_rational(omega, sigma, j0, xi, n: int) -> float:
    """``n xi^T (P Sigma P)^+ xi`` of the float inputs, exactly, for c - d = 1 conditions.

    With A = Omega^-1, ``P = A - A J (J^T A J)^-1 J^T A`` is formed in
    Fractions; J^T P = P J = 0 leaves it rank one, so ``G = P Sigma P`` is
    ``g v v^T`` and its pseudo-inverse ``G / tr(G)^2``.  Only the result is
    rounded.
    """
    omega, sigma, j0, xi = map(_fractions, (omega, sigma, j0, xi))
    c = len(omega)
    if c - len(j0[0]) != 1:
        raise ValueError("the rank-one form needs c - d = 1")
    a = _solve(omega, [[Fraction(int(i == k)) for k in range(c)] for i in range(c)])
    aj = _mul(a, j0)
    p = [[x - y for x, y in zip(ra, rb)]
         for ra, rb in zip(a, _mul(aj, _solve(_mul(_t(j0), aj), _t(aj))))]
    g = _mul(_mul(p, sigma), p)
    trace = sum(g[i][i] for i in range(c))
    return float(n * _mul(_mul(_t(xi), g), xi)[0][0] / (trace * trace))


def pwm_unbiased_comb(values, max_k: int) -> np.ndarray:
    """Unbiased probability-weighted moments b_0 .. b_{max_k} of sorted ``values``.

    The textbook weights: ``b_k = n^-1 sum_j C(j, k) / C(n - 1, k) x_(j)``,
    with ``j`` counted from 0 and every binomial taken by ``math.comb``.
    """
    n = len(values)
    return np.array([
        sum(math.comb(j, k) * x for j, x in enumerate(values)) / math.comb(n - 1, k) / n
        for k in range(max_k + 1)
    ])


def gpd_slopes_array(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """``(f', f'')`` of the GPD's ``lambda = sigma f(nu)`` by the array formula
    ``lmomdiv.models._gpd_slopes`` once had: residues of the poles a = 1..4
    against powers of ``1 / (a - nu)``, as two matrix-vector products.
    """
    poles = np.arange(1.0, 5.0)
    residues = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, -3.0, 2.0, 0.0],
                         [1.0, -6.0, 10.0, -5.0]])
    inv = 1.0 / (poles - nu)
    inv2 = inv * inv
    return residues @ inv2, 2.0 * (residues @ (inv2 * inv))


def read_column_csv(path: str, col: int = 0) -> np.ndarray:
    """``lmomdiv.cli.read_column`` as it was before its one-pass parse: one
    ``csv`` row and one ``float`` call at a time, every error kept.

    Blank rows are skipped.  A short row, a non-numeric cell after line 1
    and a non-finite value are bad lines, all reported in one error.  A
    UTF-8 byte-order mark is not part of the first cell.
    """
    if col < 0:
        raise UsageError(f"column {col} is negative: columns count from 0")
    values, lines, bad_lines = [], [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                try:
                    value = float(row[col])
                except (ValueError, IndexError) as exc:
                    if any(c.strip() for c in row) and (
                            isinstance(exc, IndexError) or lineno > 1):
                        bad_lines.append(lineno)
                    continue
                values.append(value)
                lines.append(lineno)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    data = np.array(values)
    finite = np.isfinite(data)
    if bad_lines or not finite.all():
        bad_lines = sorted(bad_lines + [lines[i] for i in np.flatnonzero(~finite)])
        raise UsageError(
            f"non-numeric or non-finite entries on lines {bad_lines} of {path}"
        )
    if data.size < 2:
        raise UsageError(f"{path} holds fewer than two usable values")
    return data


def read_column_rowwise(path: str, col: int = 0) -> np.ndarray:
    """Row-by-row CSV column reader, one finiteness test per value.

    The reference for ``lmomdiv.cli.read_column``: the same rules (only line
    1 can be a header, blank rows are skipped, short rows and non-finite
    values are bad lines) checked cell by cell.  It does not strip a UTF-8
    byte-order mark.
    """
    rows = []
    bad_lines = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                if col >= len(row):
                    bad_lines.append(lineno)
                    continue
                cell = row[col].strip()
                try:
                    value = float(cell)
                except ValueError:
                    if lineno == 1 and not rows:
                        continue   # header
                    bad_lines.append(lineno)
                    continue
                if not np.isfinite(value):
                    bad_lines.append(lineno)
                    continue
                rows.append(value)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if bad_lines:
        raise UsageError(
            f"non-numeric or non-finite entries on lines {bad_lines} of {path}"
        )
    if len(rows) < 2:
        raise UsageError(f"{path} holds fewer than two usable values")
    return np.array(rows)


def vstat_weights(n: int, orders) -> np.ndarray:
    """Exact plug-in weights: column ``j`` holds the per-observation weights
    for the order ``orders[j]`` L-moment of a size-``n`` sample.

    Order 1 gets uniform weights 1/n; order r >= 2 gets the differences of
    the integrated polynomial at consecutive plotting positions.
    """
    grid = np.arange(n + 1) / n
    cols = []
    for r in orders:
        if r == 1:
            cols.append(np.full(n, 1.0 / n))
        else:
            k = integrated_legendre_eval(r, grid)
            cols.append(np.diff(k))
    return np.stack(cols, axis=-1)


def order_stat_polynomial(j: int, r: int, u):
    """Density kernel of the j-th order statistic mean in an r-sample."""
    if not 1 <= j <= r:
        raise ValueError("need 1 <= j <= r")
    u = np.asarray(u, dtype=float)
    c = math.factorial(r) / (math.factorial(j - 1) * math.factorial(r - j))
    out = c * u ** (j - 1) * (1.0 - u) ** (r - j)
    return out if out.ndim else float(out)


def family_density(fam, x):
    """The density of a ``ParametricFamily`` on an array, in numpy: 0 outside the open support."""
    x = np.asarray(x, dtype=float)
    s, v = fam.sigma, fam.nu
    lo, hi = fam.support
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    if fam.name == "gpd":
        if v == 0.0:
            out[inside] = np.exp(-xi / s) / s
        else:
            out[inside] = (1.0 + v * xi / s) ** (-1.0 - 1.0 / v) / s
    else:
        z = (xi / s) ** v
        out[inside] = (v / s) * (xi / s) ** (v - 1.0) * np.exp(-z)
    return out if out.ndim else float(out)


def family_cdf(fam, x):
    """The cdf of a ``ParametricFamily`` on an array, in numpy."""
    x = np.asarray(x, dtype=float)
    s, v = fam.sigma, fam.nu
    lo, hi = fam.support
    out = np.zeros_like(x)
    out[x >= hi] = 1.0
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    if fam.name == "gpd":
        # 1 - (1 + z)^(-1/nu) in log1p and expm1, z = nu x / sigma; where z is 0 or
        # subnormal, log1p(z) / nu is x / sigma; z rounds to -1 only at a finite end
        z = v * xi / s
        small = np.abs(z) < np.finfo(float).tiny
        with np.errstate(divide="ignore"):
            out[inside] = np.where(small, -np.expm1(-xi / s),
                                   -np.expm1(-np.log1p(np.where(small, 0.0, z)) / (v or 1.0)))
    else:
        out[inside] = -np.expm1(-((xi / s) ** v))
    return out if out.ndim else float(out)


def l1_panel_mass(f1, f2, edges) -> float:
    """The L1 distance summed on given panel edges with the numpy cdfs (``family_cdf``).

    ``sum |diff F1(edges) - diff F2(edges)|``, capped at 2: the library's
    sum before it took the cdfs at the edges one point at a time in ``math``.
    """
    edges = np.asarray(edges, dtype=float)
    mass = np.diff(family_cdf(f1, edges)) - np.diff(family_cdf(f2, edges))
    return float(min(np.abs(mass).sum(), 2.0))


def sample_lmoments_v_per_order(sample: SortedSample, max_order: int) -> np.ndarray:
    """Plug-in L-moments with each order's integrated polynomial evaluated afresh.

    ``-integrated_legendre_eval(r, i/n) @ spacings`` for r >= 2, the mean for
    r = 1: the library's sum before the rows came from one cached node table.
    """
    vals = np.empty(max_order)
    vals[0] = float(np.mean(sample.values))
    interior = np.arange(1, sample.n) / sample.n
    for r in range(2, max_order + 1):
        vals[r - 1] = -(integrated_legendre_eval(r, interior) @ sample.spacings)
    return vals


# ---------------------------------------------------------------------------
# earlier forms of the dual solver's kernels, the references for their
# rewrites with fewer array calls and Python call layers, bit for bit


def substitute_zip(low, b, transpose: bool = False) -> list:
    """``L^-1 b``, or ``L^-T b``, with the forward sums over ``zip`` of a row and the result so far."""
    if transpose:
        x = list(b)
        for i in range(len(x) - 1, -1, -1):
            li = low[i]
            xi = x[i] = x[i] / li[i]
            for k in range(i):
                x[k] = x[k] - li[k] * xi
        return x
    y = []
    for li, s in zip(low, b):
        for u, v in zip(li, y):
            s = s - u * v
        y.append(s / li[len(y)])
    return y


def spd_solve_zip(a, *rhs):
    """Cholesky by ``zip`` sums, then ``substitute_zip`` twice per right-hand side; None without a factor."""
    low = []
    for row in a:
        li = []
        for lj in low:
            s = row[len(li)]
            for u, v in zip(li, lj):
                s -= u * v
            li.append(s / lj[-1])
        s = row[len(li)]
        for v in li:
            s -= v * v
        if not 0.0 < s < math.inf:
            return None
        li.append(math.sqrt(s))
        low.append(li)
    return [substitute_zip(low, substitute_zip(low, b), transpose=True) for b in rhs]


def ratio_test_masked(z, dz, hi: float) -> float:
    """min(1, 0.99 * min over the rising nodes of (hi - z) / dz), over a mask of those nodes."""
    if hi < math.inf and (up := dz > 0.0).any():
        return min(1.0, 0.99 * float(((hi - z[up]) / dz[up]).min()))
    return 1.0


def klm_form_temporaries(t):
    """(psi, psi', psi'') of the modified KL conjugate, each operation into a new array."""
    u = 1.0 - t
    return -np.log1p(-t), 1.0 / u, 1.0 / u ** 2
