import numpy as np
import pytest

from reftaylor.fields import (
    Box,
    ScalarField,
    gradient_consistency_error,
    hessian_symmetry_error,
    sampled_derivative_norms,
)
from reftaylor.registry import registry


def exp_field():
    return ScalarField(
        1,
        value=lambda pts: np.exp(pts[:, 0]),
        grad=lambda pts: np.exp(pts),
        hess=lambda pts: np.exp(pts)[:, :, None],
        domain=[(-3.0, 3.0)],
        name="exp",
    )


def quadratic_field(hess, name="quadratic"):
    # f = x.hess.x / 2, constant Hessian `hess`
    dim = len(hess)
    return ScalarField(
        dim,
        value=lambda pts: 0.5 * np.einsum("qi,ij,qj->q", pts, hess, pts),
        grad=lambda pts: pts @ hess,
        hess=lambda pts: np.broadcast_to(hess, (len(pts), dim, dim)),
        name=name,
    )


def quad2d_field():
    # f = x^2 + x y + y^2, constant Hessian [[2,1],[1,2]]
    return quadratic_field(np.array([[2.0, 1.0], [1.0, 2.0]]), name="quad2d")


def test_box_membership():
    box = Box([(0.0, 1.0), (0.0, 2.0)])
    assert box.dim == 2
    assert box.contains([0.5, 1.0])
    assert box.contains([0.0, 0.0])
    assert box.contains([1.0 + 1e-13, 2.0])  # boundary slack
    assert not box.contains([1.1, 1.0])
    assert box.inside(np.array([[0.5, 1.0], [1.1, 1.0], [1.0 + 1e-13, 2.0]])).tolist() == [
        True, False, True]
    assert box.measure() == 2.0
    with pytest.raises(ValueError):
        Box([(1.0, 0.0)])
    with pytest.raises(ValueError):
        box.contains([0.5])


def test_gradient_consistency_invariant():
    rng = np.random.default_rng(0)
    for f in (exp_field(), quad2d_field()):
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=f.dim)
            h = rng.uniform(-1.0, 1.0, size=f.dim)
            err = gradient_consistency_error(f, x, h)
            assert err <= 1e-6 * (1.0 + abs(f.d(x, h))), (f.name, err)


def test_hessian_symmetry_invariant():
    rng = np.random.default_rng(1)
    f = quad2d_field()
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=2)
        h = rng.uniform(-1.0, 1.0, size=2)
        k = rng.uniform(-1.0, 1.0, size=2)
        assert hessian_symmetry_error(f, x, h, k) <= 1e-12


def test_missing_derivative_raises_naming_the_field():
    f = ScalarField(2, value=lambda pts: pts[:, 0] ** 2 * pts[:, 1], name="value-only")
    x = np.array([0.7, -0.4])
    assert f.value(x) == pytest.approx(0.7**2 * -0.4)
    for ask in (lambda: f.grad(x), lambda: f.grad_at(x[None]), lambda: f.d(x, x),
                lambda: f.hess(x), lambda: f.hess_at(x[None]), lambda: f.d2(x, x)):
        with pytest.raises(ValueError, match="value-only"):
            ask()
    g = ScalarField(1, value=lambda pts: pts[:, 0], hess=lambda pts: np.zeros((len(pts), 1, 1)),
                    name="no-gradient")
    assert g.hess([0.5])[0, 0] == 0.0
    with pytest.raises(ValueError, match=r"no-gradient, dim=1\) has no gradient"):
        g.grad([0.5])


def test_batch_callable_with_wrong_shape_raises():
    pts = np.zeros((4, 2))
    wrong = ScalarField(
        2,
        value=lambda p: p,  # (N, 2) where (N,) is due
        grad=lambda p: p[:, 0],  # (N,) where (N, 2) is due
        hess=lambda p: np.zeros((len(p), 2)),  # (N, 2) where (N, 2, 2) is due
        name="wrong",
    )
    for ask in (wrong.value_at, wrong.grad_at, wrong.hess_at):
        with pytest.raises(ValueError, match="shape"):
            ask(pts)
    with pytest.raises(ValueError, match="shape"):
        wrong.value(pts[0])
    constant = ScalarField(1, value=lambda p: 1.0)  # a scalar, not one value per point
    with pytest.raises(ValueError, match="shape"):
        constant.value_at([[0.0], [1.0]])


def test_scalar_views_are_row_zero_of_batch_calls():
    rng = np.random.default_rng(5)
    for entry in registry():
        f = entry.field()
        box = np.asarray(entry.box)
        for x in box[:, 0] + rng.random((10, entry.dim)) * (box[:, 1] - box[:, 0]):
            row = x[None]
            assert f.value(x) == f.value_at(row)[0], entry.name
            assert np.array_equal(f.grad(x), f.grad_at(row)[0]), entry.name
            assert np.array_equal(f.hess(x), f.hess_at(row)[0]), entry.name


def test_directional_forms():
    f = quad2d_field()
    x = np.array([1.0, 2.0])
    h = np.array([1.0, 0.0])
    k = np.array([0.0, 1.0])
    assert f.d(x, h) == pytest.approx(2 * 1 + 2)  # df/dx
    assert f.d2(x, h, k) == pytest.approx(1.0)
    assert f.d2(x, h) == pytest.approx(2.0)  # k defaults to h


def test_spectral_norm_matches_eigensolver():
    # the sampled Hessian norm of a quadratic is the spectral norm of its
    # constant Hessian, also on near-tied spectra
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(25):
            a = rng.normal(size=(n, n))
            sym = 0.5 * (a + a.T)
            want = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
            _, got = sampled_derivative_norms(quadratic_field(sym), rng.normal(size=(3, n)))
            assert abs(got - want) <= 1e-12 * (1.0 + want), (sym, got, want)
            assert got <= want * (1.0 + 1e-12)


def test_spectral_norm_gapped_matrix_is_tight():
    _, got = sampled_derivative_norms(quadratic_field(np.diag([3.0, 1.0, -0.5])), np.ones((1, 3)))
    assert abs(got - 3.0) <= 1e-10
    assert sampled_derivative_norms(quadratic_field(np.zeros((2, 2))), np.ones((1, 2)))[1] == 0.0


def test_sampled_derivative_norms():
    f = quad2d_field()
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(200, 2))
    d1, d2 = sampled_derivative_norms(f, pts)
    assert d2 == pytest.approx(3.0, abs=1e-10)  # eigenvalues of the Hessian: 1 and 3
    assert d1 <= np.hypot(2 * 2 + 2, 2 + 2 * 2)  # corner gradient is the sup
