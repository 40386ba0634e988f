"""Gauss-type quadrature rules used across the package.

Line integrals use composite Gauss-Legendre panels, all built by
gauss_panels; composite_gauss and expansion.remainder_integral take theirs
from it.  Simplex integrals use fixed reference rules exact for polynomials
of degree 4, which covers every integrand the error norms need exactly
(products of piecewise-quadratic functions are degree 4).
"""

import numpy as np

__all__ = [
    "gauss_legendre_01",
    "gauss_panels",
    "composite_gauss",
    "simplex_rule",
]


_GAUSS = {}  # order -> read-only (nodes, weights) on [0, 1]


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def gauss_legendre_01(order):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1].

    Each rule is computed once per order and shared: the arrays are read-only.
    """
    rule = _GAUSS.get(order)
    if rule is None:
        if order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {order}")
        x, w = np.polynomial.legendre.leggauss(order)
        rule = _GAUSS[order] = _read_only(0.5 * (x + 1.0), 0.5 * w)
    return rule


def _grid(a, b, n):
    """np.linspace(a, b, n) for floats a, b and n >= 2, bit for bit.

    linspace's formula, a + k * ((b - a) / (n - 1)) with the last point set
    to b, without its argument handling on every call.  Only a step that
    underflows to zero while b != a, which linspace special-cases, gives
    other bits.
    """
    x = a + np.arange(n) * ((b - a) / (n - 1))
    x[-1] = b
    return x


def gauss_panels(a, b, order, panels):
    """Nodes and weights of `panels` equal Gauss-Legendre panels over [a, b].

    Both come back as (order, panels) arrays: row i holds node i of every
    panel, so array operations on a row run along the panels, and
    sum(weights * func(nodes)) integrates func.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    t, w = gauss_legendre_01(order)
    edges = _grid(float(a), float(b), panels + 1)
    lo, width = edges[:-1], edges[1:] - edges[:-1]
    return lo + width * t[:, None], width * w[:, None]


def composite_gauss(func, a, b, order=5, panels=32):
    """Integrate a scalar callable over [a, b] with equal Gauss-Legendre panels.

    func is called once per node, and the terms are added panel by panel.
    The 5-point default integrates polynomials up to degree 9 exactly on each
    panel, so piecewise-polynomial integrands are exact whenever their
    breakpoints fall on panel boundaries.
    """
    nodes, weights = gauss_panels(a, b, order, panels)
    return sum(w * func(x) for x, w in zip(nodes.T.ravel(), weights.T.ravel()))


# Reference rules on the unit simplex, given as barycentric coordinates and
# weights normalised to sum to one; physical integrals scale by the measure.
def _interval_rule():
    # 3-point Gauss, exact to degree 5.
    t, w = gauss_legendre_01(3)
    bary = np.column_stack([1.0 - t, t])
    return bary, w


def _triangle_rule():
    # Symmetric 6-point rule, exact to degree 4.
    a1, w1 = 0.4459484909159649, 0.2233815896780115
    a2, w2 = 0.0915762135097707, 0.1099517436553219
    bary = np.array(
        [
            [a1, a1, 1.0 - 2.0 * a1],
            [a1, 1.0 - 2.0 * a1, a1],
            [1.0 - 2.0 * a1, a1, a1],
            [a2, a2, 1.0 - 2.0 * a2],
            [a2, 1.0 - 2.0 * a2, a2],
            [1.0 - 2.0 * a2, a2, a2],
        ]
    )
    w = np.array([w1, w1, w1, w2, w2, w2])
    return bary, w / w.sum()


_RULES = {1: _read_only(*_interval_rule()), 2: _read_only(*_triangle_rule())}


def simplex_rule(dim):
    """Barycentric nodes and unit-sum weights for the reference simplex.

    The arrays are shared by every caller and read-only.
    """
    try:
        return _RULES[dim]
    except KeyError:
        raise ValueError(f"no simplex quadrature rule for dim {dim}") from None
