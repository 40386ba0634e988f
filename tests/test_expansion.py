import dataclasses
import math

import numpy as np
import pytest

from reftaylor import expansion
from reftaylor.expansion import (
    CLOSED,
    OPEN,
    SegmentBounds,
    estimate_segment_bounds,
    expansion_weights,
    refined_expansion,
    remainder_integral,
    summation_identity_check,
    taylor_first_order,
)
from reftaylor.fields import DomainError, ScalarField
from reftaylor.quadrature import gauss_legendre_01
from reftaylor.registry import lookup, registry


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
    for (m, kind), want in [
        ((1, CLOSED), [0.5, 0.5]),
        ((2, CLOSED), [0.25, 0.5, 0.25]),
        ((1, OPEN), [0.5, 1.0]),
        ((3, OPEN), [1 / 6, 1 / 3, 1 / 3, 1 / 3]),
    ]:
        # the weights are the array itself: m is len(w) - 1
        w = expansion_weights(m, kind)
        assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (m + 1,)
        assert not w.flags.writeable
        assert w.tolist() == want
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            w += 1.0


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
        total = math.fsum(expansion_weights(m))
        assert abs(total - 1.0) <= 1e-15, (m, total)


def test_open_weights_sum():
    for m in range(1, 33):
        total = math.fsum(expansion_weights(m, OPEN))
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
    """(approx, remainder_eps, bound_lo, bound_hi) with the node terms added one at a time.

    The weights are the closed forms 1/(2m) and 1/m as Python floats.
    """
    end, inner = 1.0 / (2 * m), 1.0 / m
    weights = [end] + [inner] * (m - 1) + [end if kind == CLOSED else inner]
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
        for report in (rep, taylor_first_order(f, a, h, bounds=bounds)):
            values = [getattr(report, field.name) for field in dataclasses.fields(report)]
            assert all(type(x) is float for x in [*values, report.remainder_eps]), report


def test_refined_node_outside_domain_names_offender():
    f = exp1d(domain=((0.0, 1.0),))
    with pytest.raises(DomainError, match=r"t=1\.0"):
        refined_expansion(f, 0.0, 1.5, m=2, bounds=SegmentBounds(0.0, 1.0))


def test_taylor_end_outside_domain_names_its_t():
    f = exp1d(domain=((0.0, 1.0),))
    bounds = SegmentBounds(0.0, 1.0)
    with pytest.raises(DomainError, match=r"segment point t=0\.0 at \[-0\.5\]"):
        taylor_first_order(f, -0.5, 1.0, bounds=bounds)
    with pytest.raises(DomainError, match=r"segment point t=0\.0 at \[1\.5\]"):
        taylor_first_order(f, 1.5, 0.0, bounds=bounds)  # checked before the h = 0 report
    with pytest.raises(DomainError, match=r"segment point t=1\.0 at \[1\.5\]"):
        taylor_first_order(f, 0.5, 1.0, bounds=bounds)


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
    with pytest.raises(ValueError, match="samples"):
        estimate_segment_bounds(square1d(), 0.0, 1.0, samples=1)
    for samples in (2.5, np.float64(3.0), "5", True):
        with pytest.raises(ValueError, match="samples must be an integer"):
            estimate_segment_bounds(square1d(), 0.0, 1.0, samples=samples)
    assert estimate_segment_bounds(square1d(), 0.0, 1.0, samples=np.int64(3)).m2 == 2.0
    with pytest.raises(ValueError):
        SegmentBounds(m2=2.0, M2=1.0)


def test_segment_scan_and_integral_name_the_point_outside_domain():
    f = exp1d(domain=((0.0, 1.0),))
    with pytest.raises(DomainError, match=r"segment point t=1\.0 at \[1\.5\]"):
        estimate_segment_bounds(f, 0.5, 1.0, samples=2)
    with pytest.raises(DomainError, match=r"segment point t=0\.5"):
        remainder_integral(f, 0.5, 1.0, 1)


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


# ------------------------------------------------- kernels keep their bits
#
# The references are the formulas the kernels replace: one matmul per point
# for the Hessian form, and for the remainder integral a (panel, node) table
# of Gauss panels on np.linspace edges, built here without gauss_panels.
# On every registry segment the products are exact and each sum has at most
# two distinct terms, so a BLAS matmul gives these bits however it orders or
# fuses its multiply-adds; on other 2D and 3D fields it need not.


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _entry_points(entry, ts):
    a, h = entry.segment
    return a, h, a + ts[:, None] * h


@pytest.mark.parametrize("name", [e.name for e in registry()])
def test_phi_forms_match_the_matmul_formulas_bitwise(name):
    # phi'(t) = D2f(a + t h).(h, h) as the kernels sum it, at any t of the segment
    entry = lookup(name)
    f = entry.field()
    ts = np.concatenate(([0.0, 1.0], np.random.default_rng(11).random(300)))
    _, h, x = _entry_points(entry, ts)
    assert _hex(expansion._hessian_form(f.hess_at(x), h)) == _hex(h @ f.hess_at(x) @ h)


@pytest.mark.parametrize("name", [e.name for e in registry()])
@pytest.mark.parametrize("samples", [2, 201, 10001])
def test_segment_bounds_match_the_matmul_formulas_bitwise(name, samples):
    entry = lookup(name)
    f = entry.field()
    a, h, x = _entry_points(entry, np.linspace(0.0, 1.0, samples))
    hn = float(np.linalg.norm(h))
    vals2 = (h @ f.hess_at(x) @ h) / hn**2
    vals1 = (f.grad_at(x) @ h) / hn
    sb = estimate_segment_bounds(f, a, h, samples=samples)
    assert _hex([sb.m2, sb.M2, sb.m1, sb.M1]) == _hex(
        [vals2.min(), vals2.max(), vals1.min(), vals1.max()])


@pytest.mark.parametrize("name", [e.name for e in registry()])
@pytest.mark.parametrize("m", [1, 7, 64])
def test_remainder_integral_matches_the_gauss_panels_formula_bitwise(name, m):
    entry = lookup(name)
    f = entry.field()
    t, w = gauss_legendre_01(5)
    edges = np.linspace(0.0, 1.0, m * 32 + 1)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    nodes, weights = lo + width * t, width * w
    s_k = 1.0 / (2.0 * m) + (np.arange(m * 32) // 32 / m)[:, None]
    a, h, x = _entry_points(entry, nodes.reshape(-1))
    form = (h @ f.hess_at(x) @ h).reshape(nodes.shape)
    want = float(np.sum(weights * (s_k - nodes) * form))
    assert remainder_integral(f, a, h, m).hex() == want.hex()


def test_hessian_form_adds_in_index_order_from_zero():
    # the documented order, checked one float at a time on products that round;
    # a BLAS matmul may fuse its multiply-adds here and differ in the last bit
    rng = np.random.default_rng(12)
    for dim in (1, 2, 3, 4):
        hess = rng.standard_normal((40, dim, dim))
        h = rng.standard_normal(dim)
        want = []
        for mat in hess.tolist():
            out = 0.0
            for j in range(dim):
                col = 0.0
                for i in range(dim):
                    col = col + float(h[i]) * mat[i][j]
                out = out + col * float(h[j])
            want.append(out)
        assert _hex(expansion._hessian_form(hess, h)) == _hex(want)


def test_segment_points_match_the_broadcast_formula_bitwise():
    rng = np.random.default_rng(13)
    ts = np.concatenate(([0.0, 1.0], rng.random(257)))
    for dim in (1, 2, 3, 4):
        a, h = rng.uniform(-3.0, 3.0, (2, dim))
        got = expansion._segment_points(ScalarField(dim, lambda pts: pts[:, 0]), a, h, ts)
        assert got.flags.c_contiguous
        assert _hex(got.ravel()) == _hex((a + ts[:, None] * h).ravel())


def test_segment_norm_is_linalg_norm_bitwise():
    rng = np.random.default_rng(14)
    for dim in (1, 2, 3, 4):
        f = ScalarField(dim, lambda pts: pts[:, 0])
        for h in rng.standard_normal((50, dim)) * 10.0 ** rng.integers(-150, 150, (50, 1)):
            hn = expansion._prepare(f, np.zeros(dim), h)[2]
            assert hn.hex() == float(np.linalg.norm(h)).hex()


def test_zero_hessian_form_is_positive_zero():
    # every product h_i * 0.0 is -0.0 for a negative h_i; the sums start at 0.0
    f = ScalarField(
        2,
        value=lambda pts: pts @ np.array([3.0, -1.0]) + 0.5,
        grad=lambda pts: np.broadcast_to([3.0, -1.0], pts.shape),
        hess=lambda pts: np.zeros((len(pts), 2, 2)),
        name="affine",
    )
    a, h = np.array([0.2, 0.7]), np.array([-0.5, -0.25])
    hess = f.hess_at(a + np.linspace(0.0, 1.0, 5)[:, None] * h)
    want = h @ hess @ h
    got = expansion._hessian_form(hess, h)
    assert _hex(got) == _hex(want) == [(0.0).hex()] * 5
    assert all(math.copysign(1.0, v) == 1.0 for v in got)
    sb = estimate_segment_bounds(f, a, h, samples=5)
    assert [math.copysign(1.0, v) for v in (sb.m2, sb.M2)] == [1.0, 1.0]
    assert remainder_integral(f, a, h, 3) == 0.0


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
    lhs, rhs = summation_identity_check([1.0], lambda t: 1.0)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
    lhs, rhs = summation_identity_check([1.0, 1.0], lambda t: 1.0)
    assert lhs == pytest.approx(3.0) and rhs == pytest.approx(3.0)


def test_summation_identity_linear_hand_value():
    # hand integration: both sides equal 1/2 * 2 + 1/2 * 3/2 = 7/4
    lhs, rhs = summation_identity_check([0.5, 0.5], lambda t: t)
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

        lhs, rhs = summation_identity_check(coeffs, u)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs)), (m, lhs, rhs)


def test_summation_identity_refuses_no_coefficients():
    with pytest.raises(ValueError, match="at least one coefficient"):
        summation_identity_check([], lambda t: t)
