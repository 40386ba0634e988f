"""Gauss-Legendre and reference-simplex rules."""

import numpy as np
import pytest

from reftaylor import quadrature
from reftaylor.quadrature import composite_gauss, gauss_legendre_01, simplex_rule


@pytest.mark.parametrize("order", [1, 3, 5, 12])
def test_gauss_rule_is_cached_read_only_and_exact(order):
    t, w = gauss_legendre_01(order)
    again = gauss_legendre_01(order)
    assert again[0] is t and again[1] is w
    x, v = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(t, 0.5 * (x + 1.0))
    assert np.array_equal(w, 0.5 * v)
    for a in (t, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("order", [0, -2])
def test_gauss_rule_rejects_order_below_one(order):
    with pytest.raises(ValueError, match="order must be >= 1"):
        gauss_legendre_01(order)


def test_grid_is_linspace_bitwise():
    rng = np.random.default_rng(15)
    ends = [(0.0, 1.0), *rng.uniform(-5.0, 5.0, (20, 2)) * 10.0 ** rng.integers(-8, 8, (20, 1))]
    for a, b in ends:
        for n in [*range(2, 300), 2049, 10001, 32 * 64 + 1, 32 * 1000 + 1]:
            assert quadrature._grid(a, b, n).tobytes() == np.linspace(a, b, n).tobytes(), (a, b, n)


@pytest.mark.parametrize("a, b, order, panels", [(0.0, 1.0, 5, 32), (-2.5, 3.0, 3, 7), (1, 4, 5, 8)])
def test_composite_gauss_adds_panel_by_panel(a, b, order, panels):
    # the reference is the (panel, node) table on np.linspace edges, summed row by row
    t, w = gauss_legendre_01(order)
    edges = np.linspace(a, b, panels + 1)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    nodes, weights = lo + width * t, width * w
    want = sum(v * np.exp(x) for x, v in zip(nodes.ravel(), weights.ravel()))
    assert composite_gauss(np.exp, a, b, order, panels).hex() == want.hex()


@pytest.mark.parametrize("dim", [1, 2])
def test_simplex_rules_are_shared_and_read_only(dim):
    bary, w = simplex_rule(dim)
    assert simplex_rule(dim)[0] is bary
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    for a in (bary, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
