"""Which deliberate bugs the CLI's own gates catch: a standing mutant table.

Each mutant is one small bug put into the package by a monkeypatch.  With it
in place, every op below runs through run_main, and the exit code of each
(mutant, op) pair is pinned: 0 means the mutant passed every gate the op
enforces, 2 means a gate caught it.  A surviving mutant is recorded as a 0,
not skipped, so a change that makes a gate catch more flips entries from 0
to 2 here, and a change that loosens a gate flips them back and fails.
"""

import contextlib
import io

import pytest

import reftaylor.expansion as expansion
import reftaylor.fem as fem
import reftaylor.simplex as simplex
from reftaylor.cli import run_main

# op -> argv; quad2d's simplex op samples points near enough to its edge
# midpoints, where pi's error attains the sharp gate d2 R^2/2, to see a vertex
# error of 1e-3; the last two are quadratic entries whose zero-width enclosure
# holds only up to the rounding slack of a long sum
OPS = {
    "expand exp1d": "expand --function exp1d --m 1,10,100,1000,10000",
    "expand exp3d open": "expand --function exp3d --kind open --m 1,10,100,1000,10000",
    "expand cubic1d": "expand --function cubic1d --m 1,10,100,1000,10000",
    "simplex sinsin2d": "simplex --function sinsin2d --subdivisions 4,8,16 --points 150",
    "simplex quad3d": "simplex --function quad3d --subdivisions 2,4,8 --points 2",
    "simplex quad2d": "simplex --function quad2d --subdivisions 1,2,4,8 --points 200",
    "fem 1D P1": "fem --dim 1 --space P1",
    "fem 2D P1": "fem --dim 2 --space P1 --subdivisions 16,32,64",
    "fem 1D P2": "fem --dim 1 --space P2",
    "fem 2D P2": "fem --dim 2 --space P2 --subdivisions 8,16,32",
    "expand quad2d m=122": "expand --function quad2d --m 122",
    "expand quad1d m=290": "expand --function quad1d --m 290",
}


def _expansion_weights(scale):
    def apply(monkeypatch):
        weights = expansion.expansion_weights
        monkeypatch.setattr(expansion, "expansion_weights",
                            lambda m, kind: weights(m, kind) * scale)
    return apply


def _midpoint_divisor(divisor):
    # pi*_h's midpoint value is the edge average minus a correction / 8
    def apply(monkeypatch):
        init = simplex.MeshInterpolant.__init__

        def mutant(self, mesh, v, corrected=False):
            init(self, mesh, v, corrected)
            if corrected:
                n = mesh.dim + 1
                for e, (i, j) in enumerate(simplex._edge_pairs(mesh.dim)):
                    average = 0.5 * (self.coefs[:, i] + self.coefs[:, j])
                    self.coefs[:, n + e] = average + (self.coefs[:, n + e] - average) * (8.0 / divisor)

        monkeypatch.setattr(simplex.MeshInterpolant, "__init__", mutant)
    return apply


class _ScaledValues:
    """A field whose values are scaled and whose gradients are not."""

    def __init__(self, field, scale):
        self.field, self.scale = field, scale

    def value_at(self, points):
        return self.field.value_at(points) * self.scale

    def grad_at(self, points):
        return self.field.grad_at(points)


def _vertex_values(monkeypatch):
    # the vertex samples, which pi*_h's midpoint values are built from too
    init = simplex.MeshInterpolant.__init__
    monkeypatch.setattr(
        simplex.MeshInterpolant, "__init__",
        lambda self, mesh, v, corrected=False: init(self, mesh, _ScaledValues(v, 1.0 + 1e-3), corrected),
    )


def _triangle_weight(monkeypatch):
    rule = fem.simplex_rule

    def mutant(dim):
        bary, w = rule(dim)
        if dim == 2:
            w = w.copy()
            w[0] *= 1.01
        return bary, w

    monkeypatch.setattr(fem, "simplex_rule", mutant)


def _stiffness(scale):
    def apply(monkeypatch):
        stiffness = fem._stiffness
        monkeypatch.setattr(fem, "_stiffness", lambda w, grads: stiffness(w, grads) * scale)
    return apply


def _load(monkeypatch):
    assemble = fem._assemble

    def mutant(*args):
        A, b = assemble(*args)
        return A, b * 1.01

    monkeypatch.setattr(fem, "_assemble", mutant)


def _solution_coefficients(monkeypatch):
    init = fem.FemSolution.__init__
    monkeypatch.setattr(
        fem.FemSolution, "__init__",
        lambda self, space, mesh, dof_values, elem_dofs, dof_coords:
            init(self, space, mesh, dof_values * 1.01, elem_dofs, dof_coords),
    )


MUTANTS = {
    "control": lambda monkeypatch: None,
    "expansion derivative sum x (1 + 1e-6)": _expansion_weights(1.0 + 1e-6),
    "expansion derivative sum x (1 + 1e-9)": _expansion_weights(1.0 + 1e-9),
    "pi* midpoint correction /8 -> /7": _midpoint_divisor(7.0),
    "pi* midpoint correction /8 -> /9": _midpoint_divisor(9.0),
    "P1 vertex values x (1 + 1e-3)": _vertex_values,
    "one triangle-rule weight x 1.01": _triangle_weight,
    "stiffness x 1.01": _stiffness(1.01),
    "stiffness x 1.10": _stiffness(1.10),
    "load x 1.01": _load,
    "FEM solution coefficients x 1.01": _solution_coefficients,
}

# exit code per op, in OPS order:
#   expand x3, simplex x3, fem 1D P1 / 2D P1 / 1D P2 / 2D P2, quad2d, quad1d
EXITS = {
    "control":                               "0 0 0  0 0 0  0 0 0 0  0 0",
    "expansion derivative sum x (1 + 1e-6)": "0 0 0  0 0 0  0 0 0 0  2 2",
    "expansion derivative sum x (1 + 1e-9)": "0 0 0  0 0 0  0 0 0 0  2 2",
    "pi* midpoint correction /8 -> /7":      "0 0 0  0 0 0  0 0 0 0  0 0",
    "pi* midpoint correction /8 -> /9":      "0 0 0  0 0 0  0 0 0 0  0 0",
    "P1 vertex values x (1 + 1e-3)":         "0 0 0  0 0 2  2 0 2 0  0 0",
    "one triangle-rule weight x 1.01":       "0 0 0  0 0 0  0 0 0 0  0 0",
    "stiffness x 1.01":                      "0 0 0  0 0 0  2 2 2 0  0 0",
    "stiffness x 1.10":                      "0 0 0  0 0 0  2 2 2 2  0 0",
    "load x 1.01":                           "0 0 0  0 0 0  2 0 2 0  0 0",
    "FEM solution coefficients x 1.01":      "0 0 0  0 0 0  2 0 2 0  0 0",
}


def test_every_mutant_has_a_pinned_row():
    assert EXITS.keys() == MUTANTS.keys()
    assert all(len(row.split()) == len(OPS) for row in EXITS.values())


@pytest.mark.parametrize("mutant", MUTANTS)
def test_gate_exit_codes(mutant, monkeypatch, tmp_path):
    MUTANTS[mutant](monkeypatch)
    out = str(tmp_path / "out.csv")
    codes = {}
    for op, argv in OPS.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[op] = run_main([*argv.split(), "--output", out])
    assert codes == dict(zip(OPS, map(int, EXITS[mutant].split())))
