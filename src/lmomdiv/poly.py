"""Shifted Legendre polynomials and their antiderivatives.

The polynomials are orthogonal on [0, 1] and every L-moment computation in
this package reduces to evaluating them or their integrals.  Coefficients
are computed exactly in integer arithmetic; evaluation uses Horner's rule
(numpy core's ``np.polyval``, on the coefficients highest degree first), so
importing the package loads no ``numpy.polynomial`` module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb

import numpy as np

#: Largest supported polynomial order.  Coefficients grow combinatorially
#: and double precision degrades past this point.
MAX_ORDER = 20
#: a node table holds at least the orders 2-4, which every L-moment fit reads
_NODE_MIN_ORDER = 4


class OrderLimitError(ValueError):
    """Requested polynomial order exceeds the supported range."""


def _check_order(r: int) -> None:
    if r > MAX_ORDER:
        raise OrderLimitError(
            f"order {r} exceeds the supported limit {MAX_ORDER}"
        )


def _check_unit_interval(t) -> None:
    t = np.asarray(t)
    if (t < 0.0).any() or (t > 1.0).any():
        raise ValueError("argument must lie in [0, 1]")


def legendre_coefficients(r: int) -> np.ndarray:
    """Exact coefficients of the shifted Legendre polynomial of order ``r``.

    Returns the coefficients of ``sum_k (-1)**(r-k) C(r,k) C(r+k,k) t**k``
    in increasing degree, as floats.
    """
    if r < 0:
        raise ValueError("order must be >= 0")
    _check_order(r)
    return np.array(
        [(-1) ** (r - k) * comb(r, k) * comb(r + k, k) for k in range(r + 1)],
        dtype=float,
    )


def integrated_coefficients(r: int) -> np.ndarray:
    """Coefficients of the antiderivative of the order ``r - 1`` polynomial.

    The constant term is zero, so the result starts at degree 1.
    """
    if r < 2:
        raise ValueError(
            "integrated polynomials are only defined for order >= 2 "
            "(order-1 constraints are not shift invariant)"
        )
    _check_order(r)
    c = legendre_coefficients(r - 1)
    out = np.zeros(r + 1)
    out[1:r + 1] = c / np.arange(1, r + 1)
    return out


def _eval(coeffs: np.ndarray, t):
    """Polynomial of increasing-degree ``coeffs`` at t in [0, 1]; a float for a scalar t."""
    _check_unit_interval(t)
    out = np.polyval(coeffs[::-1], t)
    return float(out) if np.ndim(t) == 0 else out


def shifted_legendre_eval(r: int, t):
    """Value of the shifted Legendre polynomial of order ``r`` at ``t``."""
    return _eval(legendre_coefficients(r), t)


def integrated_legendre_eval(r: int, t):
    """Integral from 0 to ``t`` of the order ``r - 1`` shifted Legendre polynomial.

    Vanishes at both endpoints for every ``r >= 2``.
    """
    return _eval(integrated_coefficients(r), t)


@functools.lru_cache(maxsize=8)
def _node_table(n: int, top: int) -> tuple[np.ndarray, int, np.ndarray]:
    rows = np.stack([np.polyval(integrated_coefficients(r)[::-1], np.arange(1, n) / n)
                     for r in range(2, top + 1)], axis=-1)
    columns = np.ascontiguousarray(rows.T)
    for table in (rows, columns):
        table.setflags(write=False)     # cached: every caller shares it
    return rows, int(np.linalg.matrix_rank(rows)), columns


def node_table(n: int, max_order: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(rows, rank, columns) of the integrated polynomials at the sample nodes i/n, i = 1..n-1.

    ``rows[i - 1, r - 2]`` is ``integrated_legendre_eval(r, i / n)`` for the
    orders ``r = 2 .. max(max_order, 4)``, bit for bit, ``rank`` is the
    numerical rank of ``rows`` and ``columns`` their contiguous transpose, row
    ``r - 2`` holding order r at every node.  Both arrays are read-only and
    built once per sample size and order range (the last eight are kept); they
    serve the sample L-moments and the dual's rows.
    """
    _check_order(max_order)
    return _node_table(n, max(max_order, _NODE_MIN_ORDER))


@dataclass(frozen=True)
class PolyBasis:
    """A fixed set of constraint orders with cached coefficient tables.

    Immutable; safe for concurrent reads; compares and hashes by its orders.
    """

    orders: tuple[int, ...]
    _tables: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, orders):
        orders = tuple(int(r) for r in orders)
        if not orders:
            raise ValueError("at least one constraint order is required")
        for r in orders:
            if r < 2:
                raise ValueError(f"constraint order {r} must be >= 2")
            _check_order(r)
        object.__setattr__(self, "orders", orders)
        # highest degree first, as np.polyval reads them
        object.__setattr__(self, "_tables", tuple(integrated_coefficients(r)[::-1] for r in orders))

    @property
    def dim(self) -> int:
        return len(self.orders)

    def constraint_vector(self, t):
        """Stack of integrated-polynomial values at ``t``, one per order.

        For scalar ``t`` returns shape ``(dim,)``; for an array of shape
        ``(m,)`` returns shape ``(m, dim)``.
        """
        _check_unit_interval(t)
        return np.stack([np.polyval(tab, t) for tab in self._tables], axis=-1)

    def at_nodes(self, n: int) -> tuple[np.ndarray, int | None]:
        """(rows, rank) at the nodes i/n from ``node_table``: its columns of these orders.

        The rank is the table's where the orders are all of its columns, else None.
        """
        rows, rank, _ = node_table(n, max(self.orders))
        if self.orders == tuple(range(2, rows.shape[1] + 2)):
            return rows, rank
        return np.ascontiguousarray(rows[:, [r - 2 for r in self.orders]]), None
