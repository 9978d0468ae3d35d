import numpy as np
import pytest
from hypothesis import given, strategies as st

from lmomdiv.poly import (
    MAX_ORDER,
    OrderLimitError,
    PolyBasis,
    _node_table,
    integrated_coefficients,
    integrated_legendre_eval,
    legendre_coefficients,
    node_table,
    shifted_legendre_eval,
)


def gauss_inner_product(f, g, n=64):
    """High-order Gauss quadrature of f*g over [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    return 0.5 * float(np.sum(w * f(t) * g(t)))


@pytest.mark.parametrize("r", range(0, 8))
@pytest.mark.parametrize("s", range(0, 8))
def test_orthogonality(r, s):
    # [DERIVED] the shifted polynomials are orthogonal with norm 1/(2r+1)
    val = gauss_inner_product(
        lambda t: shifted_legendre_eval(r, t),
        lambda t: shifted_legendre_eval(s, t),
    )
    expect = 1.0 / (2 * r + 1) if r == s else 0.0
    assert abs(val - expect) < 1e-12


def test_low_order_values():
    # [TRIVIAL] explicit low-order polynomials
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(shifted_legendre_eval(0, t), 1.0)
    assert np.allclose(shifted_legendre_eval(1, t), 2 * t - 1)
    assert np.allclose(shifted_legendre_eval(2, t), 6 * t**2 - 6 * t + 1)


def test_endpoint_values():
    # [TRIVIAL] L_r(1) = 1, L_r(0) = (-1)^r
    for r in range(MAX_ORDER):
        assert shifted_legendre_eval(r, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert shifted_legendre_eval(r, 0.0) == pytest.approx((-1.0) ** r, abs=1e-10)


@pytest.mark.parametrize("r", range(2, 10))
def test_integrated_boundary_zeros(r):
    assert integrated_legendre_eval(r, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert integrated_legendre_eval(r, 1.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("r", range(2, 10))
def test_integrated_is_antiderivative(r):
    # central differences of K_r recover L_{r-1}; the tolerance tracks the
    # roundoff of differencing polynomials with binomially growing coefficients
    t = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (integrated_legendre_eval(r, t + h) - integrated_legendre_eval(r, t - h)) / (2 * h)
    assert np.allclose(fd, shifted_legendre_eval(r - 1, t), atol=1e-10 * 4.0**r)


@pytest.mark.parametrize("r", range(2, MAX_ORDER + 1))
def test_integrated_bounded_by_parabola(r):
    t = np.linspace(0.0, 1.0, 2001)
    bound = 1.01 * t * (1.0 - t)
    assert np.all(np.abs(integrated_legendre_eval(r, t)) <= bound + 1e-15)


def test_order_limit():
    with pytest.raises(OrderLimitError):
        legendre_coefficients(MAX_ORDER + 1)
    with pytest.raises(OrderLimitError):
        integrated_legendre_eval(MAX_ORDER + 1, 0.5)
    with pytest.raises(OrderLimitError):
        PolyBasis((2, MAX_ORDER + 1))


def test_integrated_needs_order_two():
    with pytest.raises(ValueError):
        integrated_legendre_eval(1, 0.5)


def test_domain_check():
    with pytest.raises(ValueError):
        shifted_legendre_eval(3, 1.5)
    with pytest.raises(ValueError):
        integrated_legendre_eval(3, -0.01)


def test_basis_constraint_vector_shapes():
    basis = PolyBasis((2, 3, 4))
    assert basis.dim == 3
    v = basis.constraint_vector(0.3)
    assert v.shape == (3,)
    expect = [integrated_legendre_eval(r, 0.3) for r in (2, 3, 4)]
    assert np.allclose(v, expect)
    mat = basis.constraint_vector(np.array([0.1, 0.5, 0.9]))
    assert mat.shape == (3, 3)
    assert np.allclose(mat[1], [integrated_legendre_eval(r, 0.5) for r in (2, 3, 4)])


def test_basis_rejects_bad_orders():
    with pytest.raises(ValueError):
        PolyBasis((1, 2))
    with pytest.raises(ValueError):
        PolyBasis(())


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=0.0, max_value=1.0))
def test_pointwise_matches_coefficients(r, t):
    # exact-fraction power sum sidesteps the cancellation of the float oracle
    from fractions import Fraction

    coeffs = legendre_coefficients(r)
    tf = Fraction(t)
    direct = float(sum(Fraction(int(c)) * tf**k for k, c in enumerate(coeffs)))
    tol = 1e-12 * float(np.max(np.abs(coeffs)))
    assert shifted_legendre_eval(r, t) == pytest.approx(direct, abs=max(tol, 1e-10))


@pytest.mark.parametrize("r", range(2, MAX_ORDER + 1))
def test_horner_on_numpy_core_is_numpy_polynomial_bit_for_bit(r):
    # np.polyval on the coefficients highest degree first runs numpy.polynomial's
    # Horner recurrence operation for operation: on node grids, arrays and scalars
    polyval = np.polynomial.polynomial.polyval
    rng = np.random.default_rng(r)
    points = [np.arange(1, n) / n for n in (2, 7, 100, 1001, 100_000)]
    points += [rng.random(500), rng.random((200, 200)), np.array(0.5), 0.0, 1.0, 0.3, 1]
    basis = PolyBasis(range(2, r + 1))
    for t in points:
        for got, coeffs in ((shifted_legendre_eval(r, t), legendre_coefficients(r)),
                            (integrated_legendre_eval(r, t), integrated_coefficients(r))):
            want = polyval(t, coeffs)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)
        want = np.stack([polyval(t, integrated_coefficients(k)) for k in basis.orders], axis=-1)
        assert basis.constraint_vector(t).tobytes() == want.tobytes()
    for n in (2, 7, 1001):
        rows, columns = node_table(n, r)
        for k in range(2, r + 1):
            want = polyval(np.arange(1, n) / n, integrated_coefficients(k))
            assert rows[:, k - 2].tobytes() == columns[k - 2].tobytes() == want.tobytes()


def test_node_rows_have_full_rank_from_as_many_nodes_as_the_top_order():
    # the degree argument make_dual_problem trusts instead of an SVD: the rows
    # of orders 2..d on the n - 1 nodes i/n have full numerical rank for n >= d
    try:
        for d in range(2, MAX_ORDER + 1):
            basis = PolyBasis(range(2, d + 1))
            for n in [*range(d, d + 40), 1_000, 10_000, 100_000]:
                assert np.linalg.matrix_rank(basis.at_nodes(n)) == d - 1, (d, n)
    finally:
        _node_table.cache_clear()       # the n = 10^5 tables are large
