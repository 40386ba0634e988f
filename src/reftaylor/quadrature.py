"""Gauss-type quadrature rules used across the package.

Line integrals use composite Gauss-Legendre panels.  Simplex integrals use
fixed reference rules exact for polynomials of degree 4, which covers every
integrand the error norms need exactly (products of piecewise-quadratic
functions are degree 4).
"""

import numpy as np

__all__ = [
    "gauss_legendre_01",
    "gauss_panels",
    "composite_gauss",
    "simplex_rule",
]


def gauss_legendre_01(order):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1]."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_panels(a, b, order, panels):
    """Nodes and weights of `panels` equal Gauss-Legendre panels over [a, b].

    Both come back as (panels, order) arrays, one row per panel, so
    sum(weights * func(nodes)) integrates func.
    """
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    t, w = gauss_legendre_01(order)
    edges = np.linspace(a, b, panels + 1)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return lo + width * t, width * w


def composite_gauss(func, a, b, order=5, panels=32):
    """Integrate a scalar callable over [a, b] with equal Gauss-Legendre panels.

    func is called once per node.  The 5-point default integrates polynomials
    up to degree 9 exactly on each panel, so piecewise-polynomial integrands
    are exact whenever their breakpoints fall on panel boundaries.
    """
    nodes, weights = gauss_panels(a, b, order, panels)
    return sum(w * func(x) for x, w in zip(nodes.ravel(), weights.ravel()))


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


_RULES = {1: _interval_rule(), 2: _triangle_rule()}


def simplex_rule(dim):
    """Barycentric nodes and unit-sum weights for the reference simplex."""
    try:
        return _RULES[dim]
    except KeyError:
        raise ValueError(f"no simplex quadrature rule for dim {dim}") from None
