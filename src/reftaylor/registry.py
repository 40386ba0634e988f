"""Named test fields with their domains and derivative sup norms.

Each entry bundles a ScalarField with the canonical box it is studied on,
the sup norms of its first two derivatives over that box when they are known
in closed form, and a default segment (a, a+h) inside the box together with
derivative ranges along it.  Entries with analytic=False leave the norms
out; consumers fall back to sampled estimates and lose the certification.

The classP(beta=...) family is parametric: any positive beta above one half
names a member, built with unit forcing and flat initial slope so that the
refined-to-classical bound ratio on the unit interval equals beta.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .expansion import SegmentBounds
from .fields import ScalarField
from .interp1d import ClassPParams, Interval, class_p_field, class_p_sup_norms, rate_for_beta

__all__ = ["FieldEntry", "UnknownFieldError", "registry", "lookup", "registry_selftest"]

E1 = math.e
E2 = math.e**2
E3 = math.e**3
PI = math.pi


class UnknownFieldError(KeyError):
    """Requested name is not in the registry."""

    def __init__(self, name, known):
        self.name = name
        self.known = list(known)
        super().__init__(
            f"unknown field {name!r}; known: {', '.join(self.known)}"
        )


@dataclass(frozen=True)
class FieldEntry:
    """A registry row: building block for every command sweep."""

    name: str
    dim: int
    analytic: bool
    make: object                 # () -> ScalarField
    box: tuple                   # ((lo, hi), ...) canonical study domain
    d1_inf: float | None         # sup |grad| over box, None when not analytic
    d2_inf: float | None         # sup spectral |D2| over box
    segment: tuple               # (a, h) default expansion segment in the box
    segment_bounds: SegmentBounds | None

    def field(self):
        return self.make()


def _exp_nd(dim):
    def value(pts):
        return np.exp(pts.sum(axis=1))

    return ScalarField(
        dim,
        value,
        grad=lambda pts: np.repeat(value(pts)[:, None], dim, axis=1),
        hess=lambda pts: value(pts)[:, None, None] * np.ones((dim, dim)),
        name=f"exp{dim}d",
    )


def _quad_nd(dim, A):
    A = np.asarray(A, dtype=float)
    sym = A + A.T
    return ScalarField(
        dim,
        lambda pts: np.einsum("qi,ij,qj->q", pts, A, pts),
        grad=lambda pts: pts @ sym,
        hess=lambda pts: np.repeat(sym[None], len(pts), axis=0),
        name=f"quad{dim}d",
    )


def sine_product(dim, freq, name):
    """prod_i sin(freq x_i) with its gradient and Hessian."""

    def factors(pts):
        z = freq * pts
        return np.sin(z), np.cos(z)

    def value(pts):
        return np.prod(np.sin(freq * pts), axis=1)

    def grad(pts):
        s, c = factors(pts)
        out = np.empty_like(pts)
        for j in range(dim):
            f = s.copy()
            f[:, j] = c[:, j]
            out[:, j] = np.prod(f, axis=1)
        return freq * out

    def hess(pts):
        s, c = factors(pts)
        out = np.empty((len(pts), dim, dim))
        for j in range(dim):
            for k in range(dim):
                f = s.copy()
                if j == k:
                    f[:, j] = -s[:, j]
                else:
                    f[:, j], f[:, k] = c[:, j], c[:, k]
                out[:, j, k] = np.prod(f, axis=1)
        return freq**2 * out

    return ScalarField(dim, value, grad=grad, hess=hess, name=name)


def _cubic1d():
    return ScalarField(
        1,
        lambda pts: pts[:, 0] ** 3,
        grad=lambda pts: 3.0 * pts**2,
        hess=lambda pts: (6.0 * pts)[:, :, None],
        name="cubic1d",
    )


def _runge1d():
    def u(x):
        return 1.0 + 25.0 * x**2

    return ScalarField(
        1,
        lambda pts: 1.0 / u(pts[:, 0]),
        grad=lambda pts: -50.0 * pts / u(pts) ** 2,
        hess=lambda pts: ((3750.0 * pts**2 - 50.0) / u(pts) ** 3)[:, :, None],
        name="runge1d",
    )


_UNIT = ((0.0, 1.0),)
_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_STATIC = [
    FieldEntry(
        "exp1d", 1, True, lambda: _exp_nd(1),
        _UNIT, E1, E1,
        (np.array([0.0]), np.array([1.0])),
        SegmentBounds(1.0, E1, 1.0, E1),
    ),
    FieldEntry(
        "sin1d", 1, True, lambda: sine_product(1, 1.0, "sin1d"),
        ((0.0, PI),), 1.0, 1.0,
        (np.array([0.0]), np.array([PI])),
        SegmentBounds(-1.0, 0.0, -1.0, 1.0),
    ),
    FieldEntry(
        "quad1d", 1, True, lambda: _quad_nd(1, [[1.0]]),
        _UNIT, 2.0, 2.0,
        (np.array([0.0]), np.array([1.0])),
        SegmentBounds(2.0, 2.0, 0.0, 2.0),
    ),
    FieldEntry(
        "cubic1d", 1, True, _cubic1d,
        _UNIT, 3.0, 6.0,
        (np.array([0.0]), np.array([1.0])),
        SegmentBounds(0.0, 6.0, 0.0, 3.0),
    ),
    FieldEntry(
        "runge1d", 1, False, _runge1d,
        ((-1.0, 1.0),), None, None,
        (np.array([-1.0]), np.array([2.0])),
        None,
    ),
    FieldEntry(
        "quad2d", 2, True, lambda: _quad_nd(2, [[1.0, 0.5], [0.5, 1.0]]),
        _UNIT * 2, 3.0 * _SQRT2, 3.0,
        (np.zeros(2), np.ones(2)),
        SegmentBounds(3.0, 3.0, 0.0, 3.0 * _SQRT2),
    ),
    FieldEntry(
        "exp2d", 2, True, lambda: _exp_nd(2),
        _UNIT * 2, _SQRT2 * E2, 2.0 * E2,
        (np.zeros(2), np.ones(2)),
        SegmentBounds(2.0, 2.0 * E2, _SQRT2, _SQRT2 * E2),
    ),
    FieldEntry(
        "sinsin2d", 2, True, lambda: sine_product(2, PI, "sinsin2d"),
        _UNIT * 2, PI, PI**2,
        (np.zeros(2), np.ones(2)),
        SegmentBounds(-(PI**2), PI**2, -PI / _SQRT2, PI / _SQRT2),
    ),
    FieldEntry(
        "quad3d", 3, True, lambda: _quad_nd(3, np.eye(3)),
        _UNIT * 3, 2.0 * _SQRT3, 2.0,
        (np.zeros(3), np.ones(3)),
        SegmentBounds(2.0, 2.0, 0.0, 2.0 * _SQRT3),
    ),
    FieldEntry(
        "exp3d", 3, True, lambda: _exp_nd(3),
        _UNIT * 3, _SQRT3 * E3, 3.0 * E3,
        (np.zeros(3), np.ones(3)),
        SegmentBounds(3.0, 3.0 * E3, _SQRT3, _SQRT3 * E3),
    ),
]

_BY_NAME = {entry.name: entry for entry in _STATIC}
_CLASS_P = re.compile(r"^classP\(beta=([^)]+)\)$")
_DEFAULT_CLASS_P_BETA = 0.75


def _class_p_entry(beta):
    iv = Interval(0.0, 1.0)
    rate = rate_for_beta(beta, iv)
    params = ClassPParams(rate=rate, forcing=1.0)
    f1, f2 = class_p_sup_norms(params, iv)
    slope_end = (params.forcing / rate) * (math.exp(rate) - 1.0)
    name = f"classP(beta={beta:g})"
    return FieldEntry(
        name, 1, True,
        lambda: class_p_field(params, iv),
        ((iv.a, iv.b),), f1, f2,
        (np.array([iv.a]), np.array([iv.length])),
        SegmentBounds(params.forcing, f2, 0.0, slope_end),
    )


def registry():
    """All fixed entries plus the canonical class-(P) member."""
    return _STATIC + [_class_p_entry(_DEFAULT_CLASS_P_BETA)]


def lookup(name):
    """Entry by name; classP(beta=...) builds parametric members on demand.

    A bare base name resolves to its 1D entry (``exp`` means ``exp1d``).
    """
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name + "1d" in _BY_NAME:
        return _BY_NAME[name + "1d"]
    match = _CLASS_P.match(name)
    if match:
        try:
            beta = float(match.group(1))
        except ValueError:
            beta = -1.0
        if beta <= 0.5:
            raise UnknownFieldError(name, known_names())
        return _class_p_entry(beta)
    raise UnknownFieldError(name, known_names())


def known_names():
    return [e.name for e in _STATIC] + ["classP(beta=<b>)"]


def registry_selftest(points_per_entry=25, seed=0):
    """Check every entry's derivatives against finite differences.

    Returns {name: worst relative consistency error} over points sampled
    inside each entry's box; a clean registry stays below 1e-6 everywhere.
    """
    rng = np.random.default_rng(seed)
    report = {}
    for entry in registry():
        f = entry.field()
        box = np.asarray(entry.box)
        lo, hi = box[:, 0], box[:, 1]
        # keep probes off the box edge so central differences stay inside
        pts = lo + (0.05 + 0.9 * rng.random((points_per_entry, entry.dim))) * (hi - lo)
        hs = 0.1 * (hi - lo) * (rng.random((points_per_entry, entry.dim)) - 0.5)
        exact = np.sum(f.grad_at(pts) * hs, axis=1)
        step = 1e-6
        fd = (f.value_at(pts + step * hs) - f.value_at(pts - step * hs)) / (2.0 * step)
        worst = float(np.max(np.abs(fd - exact) / (1.0 + np.abs(exact))))
        report[entry.name] = worst
    return report
