import math

import numpy as np
import pytest

from reftaylor.expansion import (
    CLOSED,
    OPEN,
    SegmentBounds,
    estimate_segment_bounds,
    expansion_weights,
    phi,
    phi_prime,
    refined_expansion,
    remainder_integral,
    summation_identity_check,
    taylor_first_order,
)
from reftaylor.fields import DomainError, ScalarField
from reftaylor.registry import lookup


def field_1d(value, deriv, deriv2, domain=None, name=""):
    # value, deriv and deriv2 act elementwise on arrays (or return a constant)
    return ScalarField(
        1,
        value=lambda pts: np.broadcast_to(value(pts[:, 0]), (len(pts),)),
        grad=lambda pts: np.broadcast_to(deriv(pts), pts.shape),
        hess=lambda pts: np.broadcast_to(deriv2(pts), pts.shape)[:, :, None],
        domain=domain,
        name=name,
    )


def exp1d(domain=((-3.0, 3.0),)):
    e = np.exp
    return field_1d(e, e, e, domain=domain, name="exp")


def square1d():
    return field_1d(lambda x: x * x, lambda x: 2 * x, lambda x: 2.0, name="square")


def cube1d():
    return field_1d(lambda x: x**3, lambda x: 3 * x * x, lambda x: 6 * x, name="cube")


def random_quadratic(rng, dim):
    a = rng.uniform(-1, 1, size=(dim, dim))
    quad = 0.5 * (a + a.T)
    lin = rng.uniform(-1, 1, size=dim)
    const = rng.uniform(-1, 1)
    return ScalarField(
        dim,
        value=lambda pts: np.einsum("qi,ij,qj->q", pts, quad, pts) + pts @ lin + const,
        grad=lambda pts: 2 * pts @ quad + lin,
        hess=lambda pts: np.broadcast_to(2 * quad, (len(pts), dim, dim)),
        name="random-quadratic",
    )


# ---------------------------------------------------------------- weights


def test_weight_examples():
    assert expansion_weights(1).weights == (0.5, 0.5)
    assert expansion_weights(2).weights == (0.25, 0.5, 0.25)
    w3 = expansion_weights(3, OPEN)
    assert w3.weights == pytest.approx((1 / 6, 1 / 3, 1 / 3, 1 / 3), abs=0)
    assert w3.kind == OPEN


def test_weight_validation():
    with pytest.raises(ValueError):
        expansion_weights(0)
    with pytest.raises(ValueError):
        expansion_weights(-2)
    with pytest.raises(ValueError):
        expansion_weights(1.5)
    with pytest.raises(ValueError):
        expansion_weights(2, "mixed")


def test_closed_weights_sum_to_one_up_to_64():
    for m in range(1, 65):
        total = math.fsum(expansion_weights(m).weights)
        assert abs(total - 1.0) <= 1e-15, (m, total)


def test_open_weights_sum():
    for m in range(1, 33):
        total = math.fsum(expansion_weights(m, OPEN).weights)
        assert abs(total - (1.0 + 1.0 / (2 * m))) <= 1e-15, (m, total)


# ---------------------------------------------------------- classical form


def test_taylor_square_example():
    rep = taylor_first_order(square1d(), 0.0, 1.0)
    assert rep.approx == 0.0
    assert rep.exact == 1.0
    assert rep.remainder_eps == pytest.approx(1.0, abs=1e-15)
    assert rep.bound_lo == pytest.approx(1.0)  # m2 = M2 = 2, |h| = 1
    assert rep.bound_hi == pytest.approx(1.0)


def test_taylor_affine_has_zero_remainder():
    f = field_1d(lambda x: 3 * x - 2, lambda x: 3.0, lambda x: 0.0)
    rep = taylor_first_order(f, 0.7, -1.3)
    assert abs(rep.remainder_eps) <= 1e-14


def test_taylor_cube_bounds():
    # oracle: dense sampling of the second derivative 6x over [0, 1]
    samples = np.linspace(0.0, 1.0, 20001)
    m2o, m2hi = 6 * samples.min(), 6 * samples.max()
    rep = taylor_first_order(cube1d(), 0.0, 1.0)
    assert rep.bound_lo == pytest.approx(m2o / 2, abs=1e-12)
    assert rep.bound_hi == pytest.approx(m2hi / 2, abs=1e-12)
    assert rep.bound_lo <= rep.remainder_eps <= rep.bound_hi
    assert rep.remainder_eps == pytest.approx(1.0)


def test_degenerate_step():
    rep = taylor_first_order(exp1d(), 0.5, 0.0)
    assert rep.degenerate
    assert rep.remainder_eps == 0.0
    assert rep.approx == rep.exact
    rep = refined_expansion(exp1d(), 0.5, 0.0, m=3)
    assert rep.degenerate and rep.remainder_eps == 0.0


def test_report_identity_exact_vs_approx():
    rng = np.random.default_rng(5)
    f = exp1d()
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0)
        h = rng.uniform(-1.5, 1.5)
        if abs(h) < 1e-3:
            continue
        rep = refined_expansion(f, a, h, m=int(rng.integers(1, 6)))
        back = rep.approx + rep.h_norm * rep.remainder_eps
        assert abs(back - rep.exact) <= 1e-12 * (1.0 + abs(rep.exact))


# ---------------------------------------------------------- refined form


def test_refined_square_m1_is_exact():
    rep = refined_expansion(square1d(), 0.0, 1.0, m=1)
    assert rep.approx == pytest.approx(1.0, abs=0)
    assert rep.remainder_eps == pytest.approx(0.0, abs=1e-15)
    # constant second derivative collapses the enclosure to a point
    assert rep.bound_lo == rep.bound_hi == 0.0


def test_refined_exp_m1_frozen_remainder():
    # frozen oracle: e - 1 - (1 + e)/2 computed by hand
    want = math.e - 1.0 - (1.0 + math.e) / 2.0
    bounds = SegmentBounds(m2=1.0, M2=math.e)  # monotone second derivative
    rep = refined_expansion(exp1d(), 0.0, 1.0, m=1, bounds=bounds)
    assert rep.remainder_eps == pytest.approx(want, abs=1e-12)
    assert rep.bound_hi == pytest.approx((math.e - 1) / 8)
    assert rep.bound_lo <= rep.remainder_eps <= rep.bound_hi


def test_refined_exp_m2_tighter():
    bounds = SegmentBounds(m2=1.0, M2=math.e)
    rep = refined_expansion(exp1d(), 0.0, 1.0, m=2, bounds=bounds)
    assert rep.bound_hi == pytest.approx((math.e - 1) / 16)
    assert rep.bound_lo <= rep.remainder_eps <= rep.bound_hi


def test_refined_m1_is_derivative_trapezoid():
    f = exp1d()
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.uniform(-1, 1)
        h = rng.uniform(0.1, 1.5)
        rep = refined_expansion(f, a, h, m=1)
        trapezoid = f.value(a) + 0.5 * (f.d(a, h) + f.d(a + h, h))
        assert rep.approx == pytest.approx(trapezoid, rel=1e-15)


def test_refined_quadratic_exactness_random():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        f = random_quadratic(rng, dim)
        for m in (1, 2, 3, 5):
            for _ in range(5):
                a = rng.uniform(-1, 1, size=dim)
                h = rng.uniform(-1, 1, size=dim)
                rep = refined_expansion(f, a, h, m=m)
                assert abs(rep.exact - rep.approx) <= 1e-12 * (1.0 + abs(rep.exact))


def _refined_by_scalar_loop(f, a, h, m, kind, bounds):
    """(approx, remainder_eps, bound_lo, bound_hi) with the node terms added one at a time."""
    weights = expansion_weights(m, kind).weights
    hn = float(np.linalg.norm(h))
    nodes = a + (np.arange(len(weights)) / m)[:, None] * h
    acc = f.value(a)
    for w, slope in zip(weights, (f.grad_at(nodes) @ h).tolist()):
        acc += w * slope
    spread = hn * (bounds.M2 - bounds.m2) / (8.0 * m)
    if kind == CLOSED:
        lo, hi = -spread, spread
    else:
        lo, hi = -spread - bounds.M1 / (2.0 * m), spread - bounds.m1 / (2.0 * m)
    return acc, (f.value(a + h) - acc) / hn, lo, hi


@pytest.mark.parametrize("name", ["exp1d", "sin1d", "exp2d", "sinsin2d", "exp3d"])
@pytest.mark.parametrize("kind", [CLOSED, OPEN])
def test_refined_expansion_matches_scalar_loop_bitwise(name, kind):
    entry = lookup(name)
    f, (a, h), bounds = entry.field(), entry.segment, entry.segment_bounds
    for m in (1, 2, 7, 100, 10000):
        rep = refined_expansion(f, a, h, m, kind=kind, bounds=bounds)
        got = (rep.approx, rep.remainder_eps, rep.bound_lo, rep.bound_hi)
        want = _refined_by_scalar_loop(f, a, h, m, kind, bounds)
        assert [x.hex() for x in got] == [float(x).hex() for x in want], m
        assert type(rep.approx) is float


def test_refined_node_outside_domain_names_offender():
    f = exp1d(domain=((0.0, 1.0),))
    with pytest.raises(DomainError, match="k=2"):
        refined_expansion(f, 0.0, 1.5, m=2, bounds=SegmentBounds(0.0, 1.0))


def test_open_kind_containment_exp():
    # analytic: on [0,1] both derivative forms of exp range over [1, e]
    bounds = SegmentBounds(m2=1.0, M2=math.e, m1=1.0, M1=math.e)
    f = exp1d()
    for m in (1, 2, 3, 4):
        rep = refined_expansion(f, 0.0, 1.0, m=m, kind=OPEN, bounds=bounds)
        assert rep.bound_lo <= rep.remainder_eps <= rep.bound_hi, (m, rep)
    # m=1 by hand: approx = 1 + 1/2 + e, eps = -3/2
    rep = refined_expansion(f, 0.0, 1.0, m=1, kind=OPEN, bounds=bounds)
    assert rep.remainder_eps == pytest.approx(-1.5)
    assert rep.bound_lo == pytest.approx((1 - math.e) / 8 - math.e / 2)
    assert rep.bound_hi == pytest.approx((math.e - 1) / 8 - 0.5)


def test_open_kind_needs_first_derivative_bounds():
    with pytest.raises(ValueError, match="m1"):
        refined_expansion(exp1d(), 0.0, 1.0, m=1, kind=OPEN,
                          bounds=SegmentBounds(m2=1.0, M2=math.e))


def test_width_ratio_is_half_per_point():
    # refined width / classical width = 1/(2m), an exact float identity
    f = exp1d()
    bounds = SegmentBounds(m2=1.0, M2=math.e, m1=1.0, M1=math.e)
    classical = taylor_first_order(f, 0.0, 1.0, bounds=bounds)
    cw = classical.bound_hi - classical.bound_lo
    for m in (1, 2, 3, 5, 8, 64):
        rep = refined_expansion(f, 0.0, 1.0, m=m, bounds=bounds)
        ratio = (rep.bound_hi - rep.bound_lo) / cw
        assert abs(ratio - 1.0 / (2 * m)) <= 1e-14, (m, ratio)


# ----------------------------------------------------------- phi helpers


def test_phi_endpoint_values():
    f = exp1d()
    a, h = 0.25, 0.5
    assert phi(f, a, h, 0.0) == pytest.approx(f.d(a, h))
    assert phi(f, a, h, 1.0) == pytest.approx(f.d(a + h, h))
    assert phi_prime(f, 0.0, 1.0, 0.5) == pytest.approx(math.exp(0.5))


def test_phi_prime_square_is_constant_two():
    assert phi_prime(square1d(), 0.0, 1.0, 0.5) == pytest.approx(2.0)


def test_phi_rejects_t_outside_unit_interval():
    f = exp1d()
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError):
            phi(f, 0.0, 1.0, t)
        with pytest.raises(ValueError):
            phi_prime(f, 0.0, 1.0, t)


def test_phi_rejects_point_outside_domain():
    f = exp1d(domain=((0.0, 1.0),))
    with pytest.raises(DomainError):
        phi(f, 0.5, 1.0, 1.0)


# ------------------------------------------------------ segment bounds


def test_segment_bounds_square():
    sb = estimate_segment_bounds(square1d(), -0.3, 0.9, samples=11)
    assert sb.m2 == pytest.approx(2.0)
    assert sb.M2 == pytest.approx(2.0)
    assert sb.sampled


def test_segment_bounds_exp_example():
    sb = estimate_segment_bounds(exp1d(), 0.0, 1.0, samples=101)
    assert sb.m2 == pytest.approx(1.0, abs=1e-12)
    assert sb.M2 == pytest.approx(math.e, abs=1e-12)


def test_segment_bounds_sin_example():
    f = field_1d(np.sin, np.cos, lambda x: -np.sin(x),
                 domain=((-10.0, 10.0),), name="sin")
    sb = estimate_segment_bounds(f, 0.0, math.pi, samples=1001)
    # second derivative along the segment: -sin(pi t), range [-1, 0]
    assert abs(sb.m2 - (-1.0)) <= 1e-4
    assert abs(sb.M2 - 0.0) <= 1e-4


def test_segment_bounds_validation():
    with pytest.raises(ValueError):
        estimate_segment_bounds(square1d(), 0.0, 0.0)
    with pytest.raises(ValueError):
        estimate_segment_bounds(square1d(), 0.0, 1.0, samples=1)
    with pytest.raises(ValueError):
        SegmentBounds(m2=2.0, M2=1.0)


def test_segment_bounds_direction_reversal():
    # the |h|-normalised second form has the same extrema either way along
    # the segment; the first form flips sign
    f = exp1d()
    fwd = estimate_segment_bounds(f, 0.0, 1.0, samples=101)
    bwd = estimate_segment_bounds(f, 1.0, -1.0, samples=101)
    assert fwd.m2 == pytest.approx(bwd.m2, abs=1e-12)
    assert fwd.M2 == pytest.approx(bwd.M2, abs=1e-12)
    assert fwd.m1 == pytest.approx(-bwd.M1, abs=1e-12)
    assert fwd.M1 == pytest.approx(-bwd.m1, abs=1e-12)


# ------------------------------------------------------ integral oracle


def test_remainder_integral_quadratic_vanishes():
    rng = np.random.default_rng(8)
    f = random_quadratic(rng, 2)
    for m in (1, 2, 3):
        a = rng.uniform(-1, 1, size=2)
        h = rng.uniform(-1, 1, size=2)
        assert abs(remainder_integral(f, a, h, m)) <= 1e-12


def test_remainder_integral_cube_hand_value():
    # integral_0^1 (1/2 - t) 6t dt = -1/2, matching 1 - 3/2
    val = remainder_integral(cube1d(), 0.0, 1.0, m=1)
    assert val == pytest.approx(-0.5, abs=1e-12)


def test_remainder_integral_matches_direct_exp():
    f = exp1d()
    rep = refined_expansion(f, 0.0, 1.0, m=1)
    val = remainder_integral(f, 0.0, 1.0, m=1)
    assert abs(val - (rep.exact - rep.approx)) <= 1e-10


def test_remainder_integral_matches_direct_random():
    f = exp1d()
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0)
        h = rng.uniform(-1.5, 1.5)
        if abs(h) < 1e-2:
            continue
        m = int(rng.integers(1, 9))
        rep = refined_expansion(f, a, h, m=m)
        val = remainder_integral(f, a, h, m=m)
        assert abs(val - rep.h_norm * rep.remainder_eps) <= 1e-9


# --------------------------------------------------- summation identity


def test_summation_identity_trivial_cases():
    lhs, rhs = summation_identity_check([1.0], lambda t: 1.0, 1)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
    lhs, rhs = summation_identity_check([1.0, 1.0], lambda t: 1.0, 2)
    assert lhs == pytest.approx(3.0) and rhs == pytest.approx(3.0)


def test_summation_identity_linear_hand_value():
    # hand integration: both sides equal 1/2 * 2 + 1/2 * 3/2 = 7/4
    lhs, rhs = summation_identity_check([0.5, 0.5], lambda t: t, 2)
    assert lhs == pytest.approx(1.75, abs=1e-12)
    assert rhs == pytest.approx(1.75, abs=1e-12)


def test_summation_identity_random_piecewise():
    rng = np.random.default_rng(10)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        coeffs = rng.uniform(-2, 2, size=m)
        poly = np.polynomial.Polynomial(rng.uniform(-1, 1, size=4))
        kinks = rng.uniform(-1, 1, size=m)

        def u(t, poly=poly, kinks=kinks):
            # continuous piecewise-quadratic bumps with integer breakpoints
            return poly(t) + sum(c * max(0.0, t - j) ** 2 for j, c in enumerate(kinks))

        lhs, rhs = summation_identity_check(coeffs, u, m)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs)), (m, lhs, rhs)


def test_summation_identity_validates_length():
    with pytest.raises(ValueError):
        summation_identity_check([1.0, 2.0], lambda t: t, 3)
