"""Scalar fields with first and second derivative access.

Everything downstream (expansions, interpolation operators, finite element
error studies) consumes functions through one interface: a value, a gradient
seen as the linear map h -> Df(x).(h), and a Hessian seen as the symmetric
bilinear map (h, k) -> D2f(x).(h, k).

A field is built from batch callables only: each maps an (N, dim) array of
points to (N,) values, (N, dim) gradients or (N, dim, dim) Hessians, and
value_at / grad_at / hess_at check those shapes.  The one-point methods
value, grad, hess, d and d2 are views of one-row batch calls, so a formula is
written once and both paths return the same bits.  There is no numerical
fallback: asking for a derivative the field was built without is an error.

Domains are axis-aligned boxes.  Because boxes are convex, a segment lies in
the domain as soon as its endpoints do; the expansion routines still check
every node they touch so errors can name the offending point.
"""

import numpy as np

__all__ = [
    "Box",
    "DomainError",
    "ScalarField",
    "sampled_derivative_norms",
]


class DomainError(ValueError):
    """A point fell outside the domain an operation needs it in."""


def _require_integer(name, value, least):
    """ValueError naming `name` unless value is an integer (not a bool) >= least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


class Box:
    """Axis-aligned box given by per-axis (lo, hi) bounds."""

    def __init__(self, bounds):
        bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError("bounds must be a sequence of (lo, hi) pairs")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError(f"every lo must be < hi, got {bounds.tolist()}")
        self.lo = bounds[:, 0].copy()
        self.hi = bounds[:, 1].copy()
        self.lo.flags.writeable = False
        self.hi.flags.writeable = False

    @property
    def dim(self):
        return self.lo.size

    @property
    def widths(self):
        return self.hi - self.lo

    def inside(self, points):
        """Membership mask of an (N, dim) array of points, with a slack of
        1e-12 times each side length (at least 1e-12)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points have shape {points.shape}, box has dim {self.dim}")
        slack = 1e-12 * np.maximum(1.0, self.widths)
        return np.all((points >= self.lo - slack) & (points <= self.hi + slack), axis=1)

    def __repr__(self):
        pairs = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lo, self.hi))
        return f"Box({pairs})"


class ScalarField:
    """A twice differentiable scalar function on a box domain.

    Parameters
    ----------
    dim : int
        Number of variables.
    value : callable
        (N, dim) array of points to the (N,) array of values.
    grad : callable, optional
        (N, dim) points to the (N, dim) gradients.
    hess : callable, optional
        (N, dim) points to the (N, dim, dim) symmetric Hessians.
    domain : Box or bounds sequence, optional
        Defaults to the whole space.
    name : str, optional
        Used in error messages and reprs.

    Asking for a derivative the field was built without raises ValueError.
    """

    def __init__(self, dim, value, grad=None, hess=None, domain=None, name=""):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.name = name
        self._value = value
        self._grad = grad
        self._hess = hess
        if domain is None:
            self.domain = None
        elif isinstance(domain, Box):
            self.domain = domain
        else:
            self.domain = Box(domain)
        if self.domain is not None and self.domain.dim != self.dim:
            raise ValueError("domain dimension does not match field dimension")

    def _point(self, x):
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.size != self.dim:
            raise ValueError(f"point has dim {p.size}, field has dim {self.dim}")
        return p.reshape(1, self.dim)

    def _batch(self, fn, what, points, shape):
        if fn is None:
            raise ValueError(f"{self!r} has no {what}")
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        out = np.asarray(fn(points), dtype=float)
        expected = (len(points),) + shape
        if out.shape != expected:
            raise ValueError(f"{self!r} {what} returned shape {out.shape}, expected {expected}")
        return out

    def value_at(self, points):
        """Values at an (N, dim) array of points, shape (N,)."""
        return self._batch(self._value, "value", points, ())

    def grad_at(self, points):
        """Gradients at an (N, dim) array of points, shape (N, dim)."""
        return self._batch(self._grad, "gradient", points, (self.dim,))

    def hess_at(self, points):
        """Hessians at an (N, dim) array of points, shape (N, dim, dim)."""
        return self._batch(self._hess, "Hessian", points, (self.dim, self.dim))

    def value(self, x):
        return float(self.value_at(self._point(x))[0])

    def grad(self, x):
        return self.grad_at(self._point(x))[0]

    def hess(self, x):
        return self.hess_at(self._point(x))[0]

    def d(self, x, h):
        """Df(x).(h), the first derivative applied to direction h."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        return float(np.dot(self.grad(x), h))

    def d2(self, x, h, k=None):
        """D2f(x).(h, k), the second derivative as a bilinear form (k defaults to h)."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        k = h if k is None else np.atleast_1d(np.asarray(k, dtype=float))
        return float(h @ self.hess(x) @ k)

    def __repr__(self):
        label = self.name or "<anonymous>"
        return f"ScalarField({label}, dim={self.dim})"


def sampled_derivative_norms(field, points):
    """Max gradient 2-norm and Hessian 2-norm over sample points.

    A sampled stand-in for sup-norm bounds; not certified, callers that need
    guarantees must pass analytic norms instead.
    """
    points = np.asarray(points, dtype=float).reshape(-1, field.dim)
    if len(points) == 0:
        raise ValueError("need at least one sample point")
    d1 = float(np.max(np.linalg.norm(field.grad_at(points), axis=1)))
    d2 = float(np.max(np.linalg.norm(field.hess_at(points), 2, axis=(1, 2))))
    return d1, d2
