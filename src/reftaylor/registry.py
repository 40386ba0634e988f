"""Named test fields with their domains and derivative sup norms.

Each entry bundles a ScalarField with the canonical box it is studied on,
the sup norms of its first two derivatives over that box when they are known
in closed form, and derivative ranges along its default segment (a, a+h).
An entry that leaves all three out is not analytic; consumers fall back to
sampled estimates and lose the certification.  The segment is derived from
the box: a is its low corner and a+h its high one.

The classP(beta=...) family is parametric: any positive beta above one half
names a member, built with unit forcing and flat initial slope so that the
refined-to-classical bound ratio on the unit interval equals beta.
"""

import functools
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


class UnknownFieldError(ValueError):
    """Requested name is not in the registry."""

    def __init__(self, name, known):
        self.name = name
        self.known = list(known)
        super().__init__(
            f"unknown field {name!r}; known: {', '.join(self.known)}"
        )


@dataclass(frozen=True)
class FieldEntry:
    """A registry row for every command sweep.

    dim and segment derive from box, and analytic from d1_inf.
    """

    name: str
    make: object                 # () -> ScalarField
    box: tuple                   # ((lo, hi), ...) canonical study domain
    d1_inf: float | None         # sup |grad| over box, None when not analytic
    d2_inf: float | None         # sup spectral |D2| over box
    segment_bounds: SegmentBounds | None

    def __post_init__(self):
        if len({v is None for v in (self.d1_inf, self.d2_inf, self.segment_bounds)}) > 1:
            raise ValueError(f"{self.name}: d1_inf, d2_inf, segment_bounds: all three or none")

    @property
    def dim(self):
        return len(self.box)

    @property
    def segment(self):
        """(a, h) = (box lo, box hi - lo), the default expansion segment: the box diagonal."""
        lo, hi = np.array(self.box, dtype=float).T.copy()
        return lo, hi - lo

    @property
    def analytic(self):
        return self.d1_inf is not None

    def field(self):
        return self.make()


def _exp_nd(dim):
    """exp(x_1 + ... + x_dim); every first and second derivative equals it.

    The exponent adds whole columns to 0.0 left to right, the order
    pts.sum(axis=1) takes along a row (a row of -0.0 sums to +0.0), so it
    gives the same bits without a reduction per row.
    """

    def value(pts):
        total = 0.0
        for j in range(dim):
            total = total + pts[:, j]
        return np.exp(total)

    def grad(pts):
        v = value(pts)
        out = np.empty((len(pts), dim))
        for j in range(dim):
            out[:, j] = v
        return out

    def hess(pts):
        out = np.empty((len(pts), dim, dim))
        out[...] = value(pts)[:, None, None]
        return out

    return ScalarField(dim, value, grad=grad, hess=hess, name=f"exp{dim}d")


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
    """prod_i sin(freq x_i) with its gradient and Hessian.

    Each product multiplies whole columns left to right, the order
    np.prod(axis=1) takes along a row, so it gives the same bits without a
    reduction per row.
    """

    def factors(pts):
        z = freq * pts
        return list(np.sin(z).T), list(np.cos(z).T)

    def product(cols):
        return functools.reduce(np.multiply, cols)

    def value(pts):
        return product(np.sin(freq * pts).T)

    def grad(pts):
        s, c = factors(pts)
        cols = [product(c[i] if i == j else s[i] for i in range(dim)) for j in range(dim)]
        return freq * np.column_stack(cols)

    def d2_factor(s, c, i, j, k):
        """Column i of the product that gives d2/dx_j dx_k."""
        if i not in (j, k):
            return s[i]
        return -s[i] if j == k else c[i]

    def hess(pts):
        if dim == 1:  # the one entry is -sin, so no cosine is needed
            return freq**2 * -np.sin(freq * pts)[:, :, None]
        s, c = factors(pts)
        out = np.empty((len(pts), dim, dim))
        for j in range(dim):
            for k in range(dim):
                out[:, j, k] = product(d2_factor(s, c, i, j, k) for i in range(dim))
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
        "exp1d", lambda: _exp_nd(1), _UNIT, E1, E1,
        SegmentBounds(1.0, E1, 1.0, E1),
    ),
    FieldEntry(
        "sin1d", lambda: sine_product(1, 1.0, "sin1d"), ((0.0, PI),), 1.0, 1.0,
        SegmentBounds(-1.0, 0.0, -1.0, 1.0),
    ),
    FieldEntry(
        "quad1d", lambda: _quad_nd(1, [[1.0]]), _UNIT, 2.0, 2.0,
        SegmentBounds(2.0, 2.0, 0.0, 2.0),
    ),
    FieldEntry(
        "cubic1d", _cubic1d, _UNIT, 3.0, 6.0,
        SegmentBounds(0.0, 6.0, 0.0, 3.0),
    ),
    FieldEntry(
        "runge1d", _runge1d, ((-1.0, 1.0),), None, None,
        None,
    ),
    FieldEntry(
        "quad2d", lambda: _quad_nd(2, [[1.0, 0.5], [0.5, 1.0]]), _UNIT * 2, 3.0 * _SQRT2, 3.0,
        SegmentBounds(3.0, 3.0, 0.0, 3.0 * _SQRT2),
    ),
    FieldEntry(
        "exp2d", lambda: _exp_nd(2), _UNIT * 2, _SQRT2 * E2, 2.0 * E2,
        SegmentBounds(2.0, 2.0 * E2, _SQRT2, _SQRT2 * E2),
    ),
    FieldEntry(
        "sinsin2d", lambda: sine_product(2, PI, "sinsin2d"), _UNIT * 2, PI, PI**2,
        SegmentBounds(-(PI**2), PI**2, -PI / _SQRT2, PI / _SQRT2),
    ),
    FieldEntry(
        "quad3d", lambda: _quad_nd(3, np.eye(3)), _UNIT * 3, 2.0 * _SQRT3, 2.0,
        SegmentBounds(2.0, 2.0, 0.0, 2.0 * _SQRT3),
    ),
    FieldEntry(
        "exp3d", lambda: _exp_nd(3), _UNIT * 3, _SQRT3 * E3, 3.0 * E3,
        SegmentBounds(3.0, 3.0 * E3, _SQRT3, _SQRT3 * E3),
    ),
]

_BY_NAME = {entry.name: entry for entry in _STATIC}
_CLASS_P = re.compile(r"^classP\(beta=([^)]+)\)$")
_DEFAULT_CLASS_P_BETA = 0.75


def _class_p_entry(beta):
    iv = Interval(0.0, 1.0)
    params = ClassPParams(rate=rate_for_beta(beta, iv), forcing=1.0)
    # f' rises from 0 to its sup f1 at b, and f'' from forcing to its sup f2
    f1, f2 = class_p_sup_norms(params, iv)
    return FieldEntry(
        f"classP(beta={beta:g})", lambda: class_p_field(params, iv), ((iv.a, iv.b),), f1, f2,
        SegmentBounds(params.forcing, f2, 0.0, f1),
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
        if not beta > 0.5:
            raise UnknownFieldError(name, known_names())
        return _class_p_entry(beta)
    raise UnknownFieldError(name, known_names())


def known_names():
    return [e.name for e in _STATIC] + ["classP(beta=<b>)"]


def registry_selftest(seed=0):
    """Check every entry's derivatives against finite differences.

    Returns {name: worst relative consistency error} over 25 points sampled
    inside each entry's box; a clean registry stays below 1e-6 everywhere.
    """
    rng = np.random.default_rng(seed)
    report = {}
    for entry in registry():
        f = entry.field()
        lo, hi = np.asarray(entry.box).T
        # keep probes off the box edge so central differences stay inside
        pts = lo + (0.05 + 0.9 * rng.random((25, entry.dim))) * (hi - lo)
        hs = 0.1 * (hi - lo) * (rng.random((25, entry.dim)) - 0.5)
        exact = np.sum(f.grad_at(pts) * hs, axis=1)
        step = 1e-6
        fd = (f.value_at(pts + step * hs) - f.value_at(pts - step * hs)) / (2.0 * step)
        worst = float(np.max(np.abs(fd - exact) / (1.0 + np.abs(exact))))
        report[entry.name] = worst
    return report
