"""Property tests over random simplices, class-(P) members, tolerances and segments.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reftaylor.expansion import refined_expansion
from reftaylor.fields import ScalarField
from reftaylor.interp1d import (
    ClassPParams,
    Interval,
    class_p_field,
    class_p_sup_norms,
    compare_bounds,
    rate_for_beta,
)
from reftaylor.registry import registry
from reftaylor.simplex import InterpBounds, MeshInterpolant, Simplex, mesh_savings

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

unit = st.floats(-1.0, 1.0)


def reals(n):
    return st.lists(unit, min_size=n, max_size=n)


@st.composite
def quadratic_on_simplex(draw):
    """A random quadratic and a random nondegenerate simplex in R^dim.

    The simplex is the reference simplex under x -> shift + scale * J x with
    J = diag(s) + 0.3 M / dim, s in [0.5, 2] and |M_ij| <= 1, so the smallest
    singular value of J is at least 0.2 and the simplex never degenerates.
    """
    dim = draw(st.integers(1, 3))
    s = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    J = np.diag(s) + 0.3 * np.reshape(draw(reals(dim * dim)), (dim, dim)) / dim
    scale = 10.0 ** draw(st.floats(-2.0, 1.0))
    shift = 5.0 * np.array(draw(reals(dim)))
    ref = np.vstack([np.zeros(dim), np.eye(dim)])
    simplex = Simplex(shift + scale * ref @ J.T)

    c = draw(unit)
    b = np.array(draw(reals(dim)))
    A = np.reshape(draw(reals(dim * dim)), (dim, dim))
    A = A + A.T
    q = ScalarField(
        dim,
        lambda p: c + p @ b + np.einsum("qi,ij,qj->q", p, A, p),
        grad=lambda p: b + 2.0 * p @ A,
    )
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim + 1, max_size=dim + 1)))
    weights = (weights + 1e-3) / (weights + 1e-3).sum()
    return simplex, q, weights


@SETTINGS
@given(quadratic_on_simplex())
def test_corrected_interpolant_reproduces_random_quadratics(case):
    simplex, q, lam = case
    point = lam @ simplex.vertices
    exact = float(q.value_at(point[None])[0])
    grads = q.grad_at(simplex.vertices)
    # roundoff scale of the correction terms Dv(A_i).(A_i - P)
    scale = 1.0 + np.abs(q.value_at(simplex.vertices)).max() + (
        np.linalg.norm(grads, axis=1).max() * simplex.mesh_size)
    star = MeshInterpolant(simplex, q, corrected=True)
    assert abs(star(point) - exact) <= 1e-12 * scale
    assert abs(star.eval_on_element([0], lam[None])[0, 0] - exact) <= 1e-12 * scale


@st.composite
def class_p_member(draw):
    beta = draw(st.floats(0.51, 1.0))
    a = draw(st.floats(-3.0, 3.0))
    iv = Interval(a, a + draw(st.floats(0.1, 5.0)))
    rate = rate_for_beta(beta, iv)
    forcing = draw(st.floats(0.1, 10.0))
    # slopes from -forcing/(2 rate) up keep |f'| <= f''/rate pointwise
    slope = forcing / rate * draw(st.floats(-0.5, 5.0))
    return beta, iv, ClassPParams(rate=rate, forcing=forcing, slope_at_a=slope)


@SETTINGS
@given(class_p_member())
def test_compare_bounds_reads_interp_bounds_at_the_circumradius(member):
    beta, iv, params = member
    f1, f2 = class_p_sup_norms(params, iv)
    comp = compare_bounds(class_p_field(params, iv), iv, f1, f2, grid=201)
    b = InterpBounds(iv.length / 2.0, f1, f2)
    assert (comp.classical, comp.refined) == (b.classical, b.refined)
    L = iv.length
    assert comp.classical == pytest.approx(L**2 * f2 / 8, rel=1e-15)
    assert comp.refined == pytest.approx(L * f1 / 4 + L**2 * f2 / 16, rel=1e-15)
    # the member's slope/curvature ratio makes the mixed bound win by beta
    assert comp.refined <= beta * comp.classical * (1.0 + 1e-12)
    assert comp.measured_sup_error <= b.combined * (1.0 + 1e-9)


@SETTINGS
@given(
    st.floats(-12.0, 2.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    st.integers(1, 3),
)
def test_mesh_savings_sizes_meet_the_tolerance_exactly(log_eps, log_d2, log_c, log_alpha, dim):
    eps, d2, C, alpha = (10.0**x for x in (log_eps, log_d2, log_c, log_alpha))
    s = mesh_savings(eps, d2, C, alpha, dim)
    # the round trip: each size puts its chain right at eps
    for key, bound in (("h_classical", "classical"), ("h_corrected", "corrected")):
        chain = C / alpha * getattr(InterpBounds(s[key], 0.0, d2), bound)
        assert chain == pytest.approx(eps, rel=1e-13)
    assert s["h_corrected"] / s["h_classical"] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert s["node_factor"] == pytest.approx(2.0 ** (-dim / 2), rel=1e-14)


@pytest.mark.parametrize("entry", [e for e in registry() if e.analytic], ids=lambda e: e.name)
@SETTINGS
@given(
    st.floats(0.0, 1.0), st.floats(1.0 / 64.0, 1.0), st.integers(1, 256),
    st.sampled_from(["closed", "open"]),
)
def test_refined_enclosure_contains_the_remainder_on_sub_segments(entry, start, frac, m, kind):
    # the entry's segment bounds hold along its default segment, so on every piece of it
    a, h = entry.segment
    piece_a, piece_h = a + start * (1.0 - frac) * h, frac * h
    rep = refined_expansion(entry.field(), piece_a, piece_h, m, kind=kind, bounds=entry.segment_bounds)
    # roundoff of exact - approx, divided by |h|; the closed enclosures of the
    # quadratic entries have zero width, so only this margin separates them
    margin = 64.0 * np.finfo(float).eps * (abs(rep.exact) + abs(rep.approx)) / rep.h_norm
    assert rep.bound_lo - margin <= rep.remainder_eps <= rep.bound_hi + margin
