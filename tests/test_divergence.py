import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lmomdiv.divergence import (
    CHI2,
    KL,
    KLM,
    ConjugateDomainError,
    divergence_by_name,
    power_divergence,
)
from lmomdiv.dualsolve import DualProblem
import oracles
from oracles import phi, phi_prime

ALL = [CHI2, KL, KLM, power_divergence(0.5), power_divergence(3.0),
       power_divergence(-1.0)]


def test_phi_anchors():
    # [TRIVIAL] phi(1) = 0, phi'(1) = 0 for every member
    for div in ALL:
        assert phi(div, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert phi_prime(div, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_chi2_values():
    # [DERIVED] phi_2(x) = (x-1)^2 / 2
    x = np.array([0.0, 0.5, 2.0, 3.0])
    assert np.allclose(phi(CHI2, x), (x - 1) ** 2 / 2)
    assert CHI2.psi(0.3) == pytest.approx(0.3**2 / 2 + 0.3)


def test_kl_klm_values():
    # [DERIVED] gamma -> 1: x log x - x + 1;  gamma -> 0: -log x + x - 1
    x = 2.0
    assert phi(KL, x) == pytest.approx(2 * np.log(2) - 1)
    assert phi(KLM, x) == pytest.approx(-np.log(2) + 1)
    assert KL.psi(0.5) == pytest.approx(np.exp(0.5) - 1)
    assert KLM.psi(0.5) == pytest.approx(-np.log(0.5))


def test_extended_real_outside_domain():
    # chi-square is the one finite-everywhere member
    assert np.isfinite(phi(CHI2, -1.0))
    assert phi(KL, -0.5) == np.inf
    assert phi(KLM, 0.0) == np.inf
    assert phi(power_divergence(0.5), -2.0) == np.inf


@pytest.mark.parametrize("name", ["psi", "psi_prime", "psi_second"])
def test_psi_domain_errors(name):
    for div, t in [(KLM, 1.0), (KLM, np.array([0.5, 1.2])),
                   (power_divergence(0.5), 3.0)]:   # needs 1 + (gamma-1) t > 0
        with pytest.raises(ConjugateDomainError):
            getattr(div, name)(t)
    # for gamma > 1 the conjugate has no edge: left of the kink -1/(gamma - 1)
    # the supremum of z x - phi(x) is at x = 0, so psi = -phi(0) = -1/gamma and
    # psi' = psi'' = 0, where the negative power of psi'' is not taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = getattr(power_divergence(3.0), name)(np.array([-1.0, -0.5]))
    assert at.tolist() == {"psi": [-1.0 / 3.0] * 2, "psi_prime": [0.0] * 2,
                           "psi_second": [0.0] * 2}[name]


def test_limit_branch_dispatch():
    # near-integer gamma routes to the closed-form limits
    for g, ref in [(1.0 + 1e-9, KL), (1e-9, KLM)]:
        div = power_divergence(g)
        for x in (0.5, 1.5, 3.0):
            assert phi(div, x) == pytest.approx(phi(ref, x))
        for t in (-0.5, 0.2):
            assert div.psi(t) == pytest.approx(ref.psi(t))


@pytest.mark.parametrize("div", ALL)
def test_conjugacy_roundtrip(div):
    # [DERIVED] psi(t) = sup_x (t x - phi(x)); attained at x = psi'(t)
    for t in (-0.4, -0.1, 0.05, 0.3):
        if div.family == "klm" and t >= 1.0:
            continue
        x_star = div.psi_prime(t)
        assert div.psi(t) == pytest.approx(t * x_star - phi(div, x_star), abs=1e-6)
        # sup property against a grid
        xs = np.linspace(1e-6, 6.0, 500)
        vals = t * xs - phi(div, xs)
        assert div.psi(t) >= np.max(vals) - 1e-6


@pytest.mark.parametrize("div", ALL)
def test_derivatives_match_finite_differences(div):
    h = 1e-6
    for x in (0.5, 1.0, 2.5):
        fd = (phi(div, x + h) - phi(div, x - h)) / (2 * h)
        assert phi_prime(div, x) == pytest.approx(fd, abs=1e-6)
    for t in (-0.3, 0.1):
        fd = (div.psi(t + h) - div.psi(t - h)) / (2 * h)
        assert div.psi_prime(t) == pytest.approx(fd, abs=1e-6)
        fd2 = (div.psi_prime(t + h) - div.psi_prime(t - h)) / (2 * h)
        assert div.psi_second(t) == pytest.approx(fd2, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("div", ALL)
def test_convexity(div):
    xs = np.linspace(0.05, 5.0, 200)
    vals = phi(div, xs)
    # discrete second differences of a convex function are nonnegative
    assert np.all(np.diff(vals, 2) > -1e-10)
    assert np.all(vals >= -1e-12)


@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-0.9, max_value=0.9))
def test_young_fenchel(x, t):
    # [DERIVED] phi(x) + psi(t) >= t x for every admissible pair
    for div in (CHI2, KL, KLM):
        if div.family == "klm" and t >= 1.0:
            continue
        assert phi(div, x) + div.psi(t) >= t * x - 1e-9


def test_divergence_by_name():
    assert divergence_by_name("chi2").gamma == 2.0
    assert divergence_by_name("kl").family == "kl"
    assert divergence_by_name("klm").family == "klm"
    assert divergence_by_name("power:0.5").gamma == 0.5
    with pytest.raises(ValueError):
        divergence_by_name("hellinger")


@pytest.mark.parametrize("div", [CHI2, KL, KLM] + [power_divergence(g) for g in (0.5, 1.5, 2.5)],
                         ids=lambda d: f"{d.family}{d.gamma}")
def test_conjugate_is_psi_and_its_derivatives(div):
    # the solver's one evaluation gives the three public entries bit for bit,
    # on arrays and scalars, and raises outside the domain like each of them
    lo, hi = div.psi_domain
    z = np.linspace(max(lo, -3.0), min(hi, 3.0), 41)[1:-1].reshape(3, 13)
    for pts in (z, float(z[1, 5])):
        triple = div.conjugate(pts)
        for got, name in zip(triple, ("psi", "psi_prime", "psi_second")):
            assert np.array_equal(got, getattr(div, name)(pts)), name
            assert type(got) is type(getattr(div, name)(pts))
    edge = hi if np.isfinite(hi) else lo
    for pts in (edge, np.array([0.0, edge])):
        with pytest.raises(ConjugateDomainError):
            div.conjugate(pts)


@pytest.mark.parametrize("div", ALL)
@pytest.mark.parametrize(
    "name", ["phi", "phi_prime", "phi_second", "psi", "psi_prime", "psi_second"])
def test_psi_array_vectorized(div, name):
    # a scalar gives a Python float, an array an array of the same shape,
    # and the array entries are the scalar values
    fn = functools.partial(getattr(oracles, name), div) if name.startswith("phi") else \
        getattr(div, name)
    pts = np.array([[0.5, 0.9], [1.5, 2.0]]) if name.startswith("phi") else \
        np.array([[-0.3, 0.0], [0.1, 0.2]])
    assert type(fn(pts[0, 0])) is float
    out = fn(pts)
    assert out.shape == pts.shape
    assert np.array_equal(out, [[fn(v) for v in row] for row in pts])


_BELOW_ONE = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("t", [
    0.3, -2.5, -1e150, 5e-324, _BELOW_ONE,
    np.linspace(-3.0, 0.999, 25),
    1.0 - np.arange(1, 9) * 2.0 ** -53,          # the floats just below the edge
    np.array([[-1e10, 0.5], [1e-17, _BELOW_ONE]]),
], ids=["0.3", "-2.5", "-1e150", "tiny", "below-edge", "array", "near-edge", "2-d"])
def test_klm_form_is_the_temporaries_form_bit_for_bit(t):
    # each result written into its own array makes the operations of the form that
    # made a temporary per operation; the argument is left unchanged
    arg = np.array(t, dtype=float)
    kept = arg.copy()
    got = KLM.conjugate(arg if arg.ndim else float(arg))
    want = oracles.klm_form_temporaries(arg if arg.ndim else arg[None])
    if arg.ndim:
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    else:
        assert [v.hex() for v in got] == [float(w[0]).hex() for w in want]
    assert arg.tobytes() == kept.tobytes()


@pytest.mark.parametrize("div", ALL, ids=lambda d: f"{d.family}{d.gamma}")
def test_conjugate_leaves_its_argument_and_its_results_apart(div):
    # no form writes into z, and the dual's weights are taken from the form's results
    # without writing into them: KL returns one array as both psi' and psi''
    lo, hi = div.psi_domain
    z = np.linspace(max(lo, -3.0), min(hi, 3.0), 41)[1:-1]
    kept = z.copy()
    psi, d1, d2 = div.conjugate(z)
    assert z.tobytes() == kept.tobytes()
    delta = np.linspace(0.5, 1.5, z.size)
    problem = DualProblem(z[:, None].copy(), delta, np.zeros(1), div, delta.copy())
    _, w1, w2 = problem.evaluate(np.ones(1))
    assert w1.tobytes() == (d1 * delta).tobytes() and w2.tobytes() == (d2 * delta).tobytes()
    assert z.tobytes() == kept.tobytes()
