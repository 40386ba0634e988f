import math
import re

import numpy as np
import pytest

from reftaylor.fields import ScalarField
from reftaylor.interp1d import (
    BoundComparison,
    ClassPParams,
    Interval,
    class_p_field,
    class_p_lower_envelope,
    class_p_sup_norms,
    compare_bounds,
    linear_interpolant,
    rate_for_beta,
)


def field_1d(value, deriv, deriv2, name=""):
    # value, deriv and deriv2 act elementwise on arrays (or return a constant)
    return ScalarField(
        1,
        value=lambda pts: np.broadcast_to(value(pts[:, 0]), (len(pts),)),
        grad=lambda pts: np.broadcast_to(deriv(pts), pts.shape),
        hess=lambda pts: np.broadcast_to(deriv2(pts), pts.shape)[:, :, None],
        name=name,
    )


def square():
    return field_1d(lambda x: x * x, lambda x: 2 * x, lambda x: 2.0, "square")


UNIT = Interval(0.0, 1.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    assert Interval(-1.0, 3.0).length == 4.0


def test_interpolant_reproduces_affine():
    f = field_1d(lambda x: 3 * x - 2, lambda x: 3.0, lambda x: 0.0)
    interp = linear_interpolant(f, Interval(-1.0, 2.0))
    xs = np.linspace(-1.0, 2.0, 1001)
    assert np.max(np.abs(interp(xs) - (3 * xs - 2))) <= 1e-13


def test_interpolant_constant_and_identity():
    c = linear_interpolant(ScalarField(1, lambda pts: np.full(len(pts), 7.5)), UNIT)
    assert c(0.3) == pytest.approx(7.5)
    ident = linear_interpolant(ScalarField(1, lambda pts: pts[:, 0]), UNIT)
    assert ident(0.25) == pytest.approx(0.25)


def test_interpolant_square_midpoint():
    interp = linear_interpolant(square(), UNIT)
    assert interp(0.5) == pytest.approx(0.5)
    assert interp(0.5) - 0.25 == pytest.approx(0.25)  # error 1/4 at the midpoint


def test_compare_bounds_square_example():
    # |f'| sup = 2, |f''| sup = 2 on [0,1]
    cmp = compare_bounds(square(), UNIT, f1_sup=2.0, f2_sup=2.0)
    assert cmp.classical == pytest.approx(0.25)
    assert cmp.refined == pytest.approx(0.625)
    assert cmp.beta == pytest.approx(2.5)  # no improvement for the parabola
    assert cmp.measured_sup_error == pytest.approx(0.25, abs=1e-12)
    assert cmp.measured_sup_error <= min(cmp.classical, cmp.refined) + 1e-10


def test_compare_bounds_affine_zero_curvature():
    f = field_1d(lambda x: 2 * x + 1, lambda x: 2.0, lambda x: 0.0)
    cmp = compare_bounds(f, UNIT, f1_sup=2.0, f2_sup=0.0)
    assert cmp.classical == 0.0
    assert cmp.beta == math.inf
    assert cmp.measured_sup_error <= 1e-12


def test_compare_bounds_rejects_inconsistent_norms():
    with pytest.raises(ValueError, match="affine"):
        compare_bounds(square(), UNIT, f1_sup=2.0, f2_sup=0.0)
    with pytest.raises(ValueError):
        compare_bounds(square(), UNIT, f1_sup=-1.0, f2_sup=2.0)


def test_bounds_contain_measured_error_smooth_suite():
    suite = [
        (field_1d(np.exp, np.exp, np.exp, "exp"), math.e, math.e),
        (field_1d(np.sin, np.cos, lambda x: -np.sin(x), "sin"), 1.0, 1.0),
        (square(), 2.0, 2.0),
        (field_1d(lambda x: x**3, lambda x: 3 * x * x, lambda x: 6 * x, "cube"),
         3.0, 6.0),
    ]
    for f, f1, f2 in suite:
        cmp = compare_bounds(f, UNIT, f1_sup=f1, f2_sup=f2)
        assert cmp.measured_sup_error <= cmp.classical, f.name
        assert cmp.measured_sup_error <= cmp.refined, f.name


def test_improvement_condition_threshold():
    # refined < classical exactly when f1 < L f2 / 4
    L, f2 = 2.0, 3.0
    f = field_1d(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0)
    iv = Interval(0.0, L)
    just_below = compare_bounds(f, iv, f1_sup=0.99 * L * f2 / 4, f2_sup=f2)
    just_above = compare_bounds(f, iv, f1_sup=1.01 * L * f2 / 4, f2_sup=f2)
    assert just_below.refined < just_below.classical
    assert just_above.refined > just_above.classical


def test_rate_for_beta_values():
    assert rate_for_beta(1.0, UNIT) == pytest.approx(4.0)
    assert rate_for_beta(0.75, UNIT) == pytest.approx(8.0)
    assert rate_for_beta(0.75, Interval(0.0, 2.0)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        rate_for_beta(0.5, UNIT)
    with pytest.raises(ValueError):
        rate_for_beta(0.0, UNIT)
    # the overflow limit is on exp(rate * L) = exp(4 / (2 beta - 1)), whatever L
    for iv in (UNIT, Interval(-1.0, 2.0), Interval(0.0, 1e-3)):
        with pytest.raises(ValueError, match="smallest usable beta"):
            rate_for_beta(0.502, iv)
        assert rate_for_beta(0.503, iv) * iv.length == pytest.approx(4.0 / 0.006)


def test_rate_for_beta_refuses_a_beta_without_a_positive_rate():
    # (2 beta - 1) * length is inf here, so the rate would be 0
    for beta in (math.inf, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"beta={beta:g} gives no positive rate")):
            rate_for_beta(beta, UNIT)
    assert rate_for_beta(1e300, UNIT) > 0.0


def test_compare_bounds_refuses_a_square_past_a_float():
    f = field_1d(lambda x: 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x)
    # h = 5e199: h**2 raises OverflowError, which must read as the overflow ValueError
    with pytest.raises(ValueError, match=r"on \[0, 1e\+200\] overflow a float"):
        compare_bounds(f, Interval(0.0, 1e200), f1_sup=0.0, f2_sup=1.0)
    # h = 5e149 still squares to a finite float
    cmp = compare_bounds(f, Interval(0.0, 1e150), f1_sup=0.0, f2_sup=1.0)
    assert cmp.classical == 0.5 * 5e149**2


def test_class_p_sup_norms_refuse_overflow():
    params = ClassPParams(rate=1000.0, forcing=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
        class_p_sup_norms(params, UNIT)


def test_compare_bounds_refuses_overflow():
    f = ScalarField(1, lambda pts: pts[:, 0] ** 2)
    with pytest.raises(ValueError, match="overflow"):
        compare_bounds(f, Interval(0.0, 10.0), 1.0, 1e308)


def test_class_p_params_validation():
    ClassPParams(rate=1.0, forcing=1.0, slope_at_a=-1.0)  # boundary is legal
    with pytest.raises(ValueError):
        ClassPParams(rate=0.0, forcing=1.0)
    with pytest.raises(ValueError):
        ClassPParams(rate=1.0, forcing=0.0)
    with pytest.raises(ValueError):
        ClassPParams(rate=1.0, forcing=1.0, slope_at_a=-1.0001)
    for name in ("rate", "forcing", "slope_at_a"):
        with pytest.raises(ValueError):
            ClassPParams(**{"rate": 1.0, "forcing": 1.0, name: math.nan})


def test_class_p_unit_example():
    # rate = forcing = 1, zero start: f(x) = (e^x - 1) - x
    f = class_p_field(ClassPParams(rate=1.0, forcing=1.0), UNIT)
    xs = np.linspace(0.0, 1.0, 101)
    want = np.exp(xs) - 1.0 - xs
    got = f.value_at(xs.reshape(-1, 1))
    assert np.max(np.abs(got - want)) <= 1e-13
    # f'' = e^x and |f'| = e^x - 1 <= e^x = f''/rate
    for x in xs:
        assert abs(f.hess([x])[0, 0] - math.exp(x)) <= 1e-13
        assert abs(f.grad([x])[0]) <= f.hess([x])[0, 0] + 1e-13


def test_class_p_boundary_slope_gives_affine():
    p = ClassPParams(rate=2.0, forcing=3.0, slope_at_a=-1.5)
    f = class_p_field(p, UNIT)
    for x in np.linspace(0.0, 1.0, 11):
        assert f.hess([x])[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert f.grad([x])[0] == pytest.approx(-1.5, abs=1e-13)


def test_class_p_fields_are_convex():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = ClassPParams(
            rate=float(rng.uniform(0.5, 8.0)),
            forcing=float(rng.uniform(0.1, 4.0)),
            slope_at_a=float(rng.uniform(-0.05, 2.0)),
        )
        f = class_p_field(p, UNIT)
        assert all(f.hess([x])[0, 0] >= -1e-14 for x in np.linspace(0, 1, 33))


def test_class_p_pointwise_slope_curvature_inequality():
    # |f'| <= f''/rate needs the initial slope above -forcing/(2 rate);
    # below that threshold the inequality genuinely fails near the left end
    p_ok = ClassPParams(rate=2.0, forcing=2.0, slope_at_a=-0.5)  # exactly -d/(2r)
    f = class_p_field(p_ok, UNIT)
    for x in np.linspace(0.0, 1.0, 201):
        assert abs(f.grad([x])[0]) <= f.hess([x])[0, 0] / 2.0 + 1e-12
    p_bad = ClassPParams(rate=2.0, forcing=2.0, slope_at_a=-0.9)  # past it
    g = class_p_field(p_bad, UNIT)
    assert abs(g.grad([0.0])[0]) > g.hess([0.0])[0, 0] / 2.0


def test_class_p_sup_norms_match_grid():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = ClassPParams(
            rate=float(rng.uniform(0.5, 6.0)),
            forcing=float(rng.uniform(0.2, 3.0)),
            slope_at_a=float(rng.uniform(-0.02, 1.0)),
        )
        iv = Interval(0.0, float(rng.uniform(0.5, 2.0)))
        f = class_p_field(p, iv)
        xs = iv.grid(10001)
        g1 = float(np.max(np.abs(f.grad_at(xs[:, None]))))
        g2 = float(np.max(f.hess_at(xs[:, None])))
        f1, f2 = class_p_sup_norms(p, iv)
        assert f1 == pytest.approx(g1, rel=1e-12)
        assert f2 == pytest.approx(g2, rel=1e-12)


def test_class_p_improvement_sweep():
    # members built for a target beta keep the mixed bound below
    # beta * classical, and never below half of it
    for beta in (0.6, 0.75, 0.9, 1.0):
        rate = rate_for_beta(beta, UNIT)
        for forcing in (0.5 * rate, rate, 3.0 * rate):
            for slope in (0.0, 0.1, -forcing / (2 * rate)):
                p = ClassPParams(rate=rate, forcing=forcing, slope_at_a=slope)
                f = class_p_field(p, UNIT)
                f1, f2 = class_p_sup_norms(p, UNIT)
                cmp = compare_bounds(f, UNIT, f1_sup=f1, f2_sup=f2)
                assert cmp.refined <= beta * cmp.classical + 1e-12, (beta, p)
                assert cmp.refined >= 0.5 * cmp.classical, (beta, p)
                assert cmp.measured_sup_error <= cmp.refined + 1e-10


def test_class_p_beta_075_example():
    rate = rate_for_beta(0.75, UNIT)
    p = ClassPParams(rate=rate, forcing=rate)
    f = class_p_field(p, UNIT)
    f1, f2 = class_p_sup_norms(p, UNIT)
    cmp = compare_bounds(f, UNIT, f1_sup=f1, f2_sup=f2)
    assert cmp.beta <= 0.75
    assert cmp.beta > 0.7  # the construction saturates its target closely


def test_class_p_lower_envelope_on_grid():
    # envelope check for members satisfying the two-sided inequality
    cases = [
        ClassPParams(rate=1.0, forcing=1.0),
        ClassPParams(rate=1.0, forcing=1.0, slope_at_a=0.3),
        ClassPParams(rate=2.0, forcing=2.0, slope_at_a=-0.5),
        ClassPParams(rate=4.0, forcing=1.0, slope_at_a=0.05),
    ]
    xs = np.linspace(0.0, 1.0, 1001)
    for p in cases:
        f = class_p_field(p, UNIT)
        vals = f.value_at(xs.reshape(-1, 1))
        floor = class_p_lower_envelope(p, UNIT, xs)
        assert np.all(vals >= floor - 1e-12), p
