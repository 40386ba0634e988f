"""Gauss-Legendre and reference-simplex rules."""

import numpy as np
import pytest

from reftaylor.quadrature import gauss_legendre_01, simplex_rule


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


@pytest.mark.parametrize("dim", [1, 2])
def test_simplex_rules_are_shared_and_read_only(dim):
    bary, w = simplex_rule(dim)
    assert simplex_rule(dim)[0] is bary
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    for a in (bary, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
