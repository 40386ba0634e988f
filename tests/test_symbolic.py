"""Registry and sine-problem derivatives against sympy's symbolic ones.

Each field's formula is written once as a batch callable; here an independent
symbolic expression is differentiated by sympy and evaluated at seeded
interior points of the field's box.
"""

import numpy as np
import pytest
import sympy

from reftaylor.fem import sine_problem
from reftaylor.interp1d import Interval, rate_for_beta
from reftaylor.registry import lookup, registry

RTOL = 1e-12
POINTS = 50

X = sympy.symbols("x0:3", real=True)


def _class_p(beta):
    # f'' - rate f' = forcing on [0, 1] with f(0) = f'(0) = 0, unit forcing
    x = X[0]
    rate = sympy.nsimplify(rate_for_beta(beta, Interval(0.0, 1.0)))
    f = (sympy.exp(rate * x) - 1) / rate**2 - x / rate
    assert sympy.simplify(f.diff(x, 2) - rate * f.diff(x) - 1) == 0
    assert f.subs(x, 0) == 0 and f.diff(x).subs(x, 0) == 0
    return f


SYMBOLIC = {
    "exp1d": sympy.exp(X[0]),
    "sin1d": sympy.sin(X[0]),
    "quad1d": X[0] ** 2,
    "cubic1d": X[0] ** 3,
    "runge1d": 1 / (1 + 25 * X[0] ** 2),
    "quad2d": X[0] ** 2 + X[0] * X[1] + X[1] ** 2,
    "exp2d": sympy.exp(X[0] + X[1]),
    "sinsin2d": sympy.sin(sympy.pi * X[0]) * sympy.sin(sympy.pi * X[1]),
    "quad3d": X[0] ** 2 + X[1] ** 2 + X[2] ** 2,
    "exp3d": sympy.exp(X[0] + X[1] + X[2]),
    "classP(beta=0.75)": _class_p(0.75),
}


def _evaluate(expr, xs, pts):
    fn = sympy.lambdify(xs, expr, "numpy")
    return np.broadcast_to(np.asarray(fn(*pts.T), dtype=float), (len(pts),))


def _interior_points(box, seed):
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    rng = np.random.default_rng(seed)
    return lo + (0.01 + 0.98 * rng.random((POINTS, len(box)))) * (hi - lo)


def _check(field, expr, box, seed, derivatives=True):
    xs = X[: field.dim]
    pts = _interior_points(box, seed)
    np.testing.assert_allclose(field.value_at(pts), _evaluate(expr, xs, pts), rtol=RTOL)
    if not derivatives:
        return
    grad = np.column_stack([_evaluate(expr.diff(xi), xs, pts) for xi in xs])
    np.testing.assert_allclose(field.grad_at(pts), grad, rtol=RTOL)
    hess = np.stack(
        [np.column_stack([_evaluate(expr.diff(xi, xj), xs, pts) for xj in xs]) for xi in xs],
        axis=1,
    )
    np.testing.assert_allclose(field.hess_at(pts), hess, rtol=RTOL)


def test_every_registry_entry_has_a_symbolic_reference():
    assert set(SYMBOLIC) == {entry.name for entry in registry()}


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_registry_derivatives_match_sympy(name):
    entry = lookup(name)
    _check(entry.field(), SYMBOLIC[name], entry.box, seed=7)


@pytest.mark.parametrize("dim", [1, 2])
def test_sine_problem_matches_sympy(dim):
    diffusion, reaction = 1.5, 0.25
    problem = sine_problem(dim, diffusion=diffusion, reaction=reaction)
    xs = X[:dim]
    u = sympy.prod([sympy.sin(sympy.pi * xi) for xi in xs])
    rhs = -diffusion * sum(u.diff(xi, 2) for xi in xs) + reaction * u
    box = [(0.0, 1.0)] * dim
    _check(problem.exact_solution, u, box, seed=8)
    _check(problem.rhs, rhs, box, seed=9, derivatives=False)
