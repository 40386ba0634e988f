"""Multi-point first-order expansions with two-sided remainder bounds.

The classical first-order expansion writes f(a+h) = f(a) + Df(a).(h) plus a
remainder controlled by the Hessian over the segment [a, a+h].  Averaging the
first derivative over m+1 equally spaced points on the segment instead,

    f(a+h) = f(a) + sum_k w_k(m) Df(a + k h / m).(h) + |h| eps,

with trapezoid-style weights w_0 = w_m = 1/(2m) and w_k = 1/m in between,
shrinks the remainder enclosure by a factor 2m: where the classical remainder
lives in [|h| m2 / 2, |h| M2 / 2], the averaged one lives in
[-|h|(M2 - m2)/(8m), +|h|(M2 - m2)/(8m)], m2 and M2 being bounds on the
normalised second-derivative form along the segment.

A variant drops the endpoint term ("open" weights, all interior points get
weight 1/m and the far endpoint keeps 1/(2m) extra), trading the tight
centred enclosure for one shifted by first-derivative bounds.

Everything here works on ScalarField instances; segments are parametrised by
t in [0, 1] via phi(t) = Df(a + t h).(h), so phi'(t) = D2f(a + t h).(h, h).
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import DomainError
from .quadrature import composite_gauss, gauss_panels

__all__ = [
    "CLOSED",
    "OPEN",
    "WeightFamily",
    "SegmentBounds",
    "ExpansionReport",
    "expansion_weights",
    "taylor_first_order",
    "refined_expansion",
    "phi",
    "phi_prime",
    "remainder_integral",
    "estimate_segment_bounds",
    "summation_identity_check",
]

CLOSED = "closed"
OPEN = "open"


@dataclass(frozen=True)
class WeightFamily:
    """Derivative-averaging weights for an m-point refinement."""

    m: int
    kind: str
    weights: tuple

    @property
    def total(self):
        return math.fsum(self.weights)


@dataclass(frozen=True)
class SegmentBounds:
    """Bounds on normalised derivative forms along a segment [a, a+h].

    m2 <= D2f(a+th).(h,h)/|h|^2 <= M2 for t in [0,1]; m1/M1 bound the
    normalised first derivative Df(a+th).(h)/|h| and matter only for the
    open-weight enclosure.  `sampled` marks values that came from sampling
    rather than analysis; sampled bounds are not certified.
    """

    m2: float
    M2: float
    m1: float = None
    M1: float = None
    sampled: bool = False

    def __post_init__(self):
        if not self.m2 <= self.M2:
            raise ValueError(f"need m2 <= M2, got {self.m2} > {self.M2}")
        if self.m1 is not None and self.M1 is not None and not self.m1 <= self.M1:
            raise ValueError(f"need m1 <= M1, got {self.m1} > {self.M1}")


@dataclass(frozen=True)
class ExpansionReport:
    """One expansion evaluated at one (a, h), with its remainder enclosure.

    remainder_eps is (exact - approx)/|h|, the normalised remainder, so
    exact == approx + h_norm * remainder_eps by construction.  bound_lo and
    bound_hi enclose remainder_eps itself; the |h| factors the enclosures
    carry are already inside the stored bound values.
    """

    approx: float
    exact: float
    remainder_eps: float
    bound_lo: float
    bound_hi: float
    h_norm: float
    degenerate: bool = False


def expansion_weights(m, kind=CLOSED):
    """Weights of the m-point averaged expansion.

    Closed weights sum to exactly 1: 1/(2m) at both ends, 1/m inside.  Open
    weights keep 1/(2m) at the start but give every later point 1/m, summing
    to 1 + 1/(2m).
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if kind == CLOSED:
        w = [1.0 / (2 * m)] + [1.0 / m] * (m - 1) + [1.0 / (2 * m)]
    elif kind == OPEN:
        w = [1.0 / (2 * m)] + [1.0 / m] * m
    else:
        raise ValueError(f"kind must be 'closed' or 'open', got {kind!r}")
    return WeightFamily(m=int(m), kind=kind, weights=tuple(w))


def _prepare(f, a, h):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if a.size != f.dim or h.size != f.dim:
        raise ValueError(
            f"a and h must have dim {f.dim}, got {a.size} and {h.size}"
        )
    return a, h, float(np.linalg.norm(h))


def _require_inside(f, points, what, labels=None):
    """DomainError naming the first row of `points` outside f's domain.

    `what` is formatted with that row's label, its row index by default.
    """
    if f.domain is None:
        return
    outside = np.flatnonzero(~f.domain.inside(points))
    if outside.size:
        i = outside[0]
        label = i if labels is None else labels[i]
        raise DomainError(
            f"{what.format(label)} at {points[i].tolist()} lies outside the domain {f.domain}"
        )


def _segment_points(f, a, h, t):
    """(a + t h for every t, h, shape of t), all points checked against the domain.

    Callers reshape their per-point values to the shape of t and index them
    with (), which gives a scalar for a scalar t and the array otherwise.
    """
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    bad = ~((ts >= 0.0) & (ts <= 1.0))
    if bad.any():
        raise ValueError(f"t must lie in [0, 1], got {ts[bad][0]}")
    a, h, _ = _prepare(f, a, h)
    x = a + ts[:, None] * h
    _require_inside(f, x, "segment point t={}", ts)
    return x, h, t.shape


def phi(f, a, h, t):
    """phi(t) = Df(a + t h).(h) for t in [0, 1], elementwise for an array of t."""
    x, h, shape = _segment_points(f, a, h, t)
    return (f.grad_at(x) @ h).reshape(shape)[()]


def phi_prime(f, a, h, t):
    """phi'(t) = D2f(a + t h).(h, h) for t in [0, 1], elementwise for an array of t."""
    x, h, shape = _segment_points(f, a, h, t)
    return (h @ f.hess_at(x) @ h).reshape(shape)[()]


def estimate_segment_bounds(f, a, h, samples=201):
    """Sampled SegmentBounds along [a, a+h] (flagged, not certified).

    Scans equally spaced t in [0, 1] for the extrema of the normalised
    second-derivative form and of the normalised directional derivative.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    a, h, hn = _prepare(f, a, h)
    if hn == 0.0:
        raise ValueError("cannot estimate segment bounds for h = 0")
    ts = np.linspace(0.0, 1.0, samples)
    vals2 = phi_prime(f, a, h, ts) / hn**2
    vals1 = phi(f, a, h, ts) / hn
    return SegmentBounds(
        m2=float(vals2.min()),
        M2=float(vals2.max()),
        m1=float(vals1.min()),
        M1=float(vals1.max()),
        sampled=True,
    )


def _degenerate_report(f, a):
    v = f.value(a)
    return ExpansionReport(
        approx=v, exact=v, remainder_eps=0.0,
        bound_lo=0.0, bound_hi=0.0, h_norm=0.0, degenerate=True,
    )


def taylor_first_order(f, a, h, bounds=None, samples=201):
    """Classical expansion f(a) + Df(a).(h) with its Hessian-based enclosure.

    The normalised remainder eps = (f(a+h) - approx)/|h| satisfies
    |h| m2 / 2 <= |h| eps <= |h| M2 / 2.  When `bounds` is omitted a sampled
    estimate is used (and is, like any sampled bound, not certified).
    """
    a, h, hn = _prepare(f, a, h)
    _require_inside(f, a[None], "base point")
    if hn == 0.0:
        return _degenerate_report(f, a)
    _require_inside(f, (a + h)[None], "segment endpoint")
    if bounds is None:
        bounds = estimate_segment_bounds(f, a, h, samples=samples)
    approx = f.value(a) + f.d(a, h)
    exact = f.value(a + h)
    return ExpansionReport(
        approx=approx,
        exact=exact,
        remainder_eps=(exact - approx) / hn,
        bound_lo=hn * bounds.m2 / 2.0,
        bound_hi=hn * bounds.M2 / 2.0,
        h_norm=hn,
    )


def refined_expansion(f, a, h, m, kind=CLOSED, bounds=None, samples=201):
    """m-point averaged expansion of f at a with step h.

    approx = f(a) + sum_k w_k Df(a + k h / m).(h).  With closed weights the
    normalised remainder eps lies in +-|h| (M2 - m2)/(8m); with open weights
    it lies in [|h|(m2 - M2)/(8m) - M1/(2m), |h|(M2 - m2)/(8m) - m1/(2m)],
    which needs the first-derivative bounds m1, M1 as well.
    """
    family = expansion_weights(m, kind)
    a, h, hn = _prepare(f, a, h)
    _require_inside(f, a[None], "base point")
    if hn == 0.0:
        return _degenerate_report(f, a)
    if bounds is None:
        bounds = estimate_segment_bounds(f, a, h, samples=samples)

    nodes = a + (np.arange(len(family.weights)) / m)[:, None] * h
    _require_inside(f, nodes, "expansion node k={}")
    # accumulate adds left to right, so this is f(a) + w_0 s_0 + ... + w_m s_m
    # summed in that order, term by term, with the same bits
    terms = np.concatenate(([f.value(a)], np.array(family.weights) * (f.grad_at(nodes) @ h)))
    acc = float(np.add.accumulate(terms)[-1])
    exact = f.value(a + h)

    spread = hn * (bounds.M2 - bounds.m2) / (8.0 * m)
    if kind == CLOSED:
        lo, hi = -spread, spread
    else:
        if bounds.m1 is None or bounds.M1 is None:
            raise ValueError("open-weight enclosure needs first-derivative bounds m1, M1")
        lo = -spread - bounds.M1 / (2.0 * m)
        hi = spread - bounds.m1 / (2.0 * m)
    return ExpansionReport(
        approx=acc,
        exact=exact,
        remainder_eps=(exact - acc) / hn,
        bound_lo=lo,
        bound_hi=hi,
        h_norm=hn,
    )


def remainder_integral(f, a, h, m, order=5, panels=32):
    """Integral form of the scaled remainder |h| eps for the closed weights.

    Equals sum_k over the m subintervals [k/m, (k+1)/m] of
    integral (S_k - t) phi'(t) dt with S_k = 1/(2m) + k/m.  Computed with
    composite Gauss-Legendre panels per subinterval; serves as the
    independent cross-check of refined_expansion's exact - approx.
    """
    expansion_weights(m)  # validates m
    a, h, hn = _prepare(f, a, h)
    if hn == 0.0:
        return 0.0
    # `panels` equal panels on each subinterval [k/m, (k+1)/m], in order
    nodes, weights = gauss_panels(0.0, 1.0, order, m * panels)
    s_k = 1.0 / (2.0 * m) + (np.arange(m * panels) // panels / m)[:, None]
    return float(np.sum(weights * (s_k - nodes) * phi_prime(f, a, h, nodes)))


def summation_identity_check(coeffs, u, m, order=5, panels_per_unit=8):
    """Both sides of the tail-sum rearrangement identity, via quadrature.

    For coefficients a_0..a_{m-1} and continuous u:

        sum_k a_k * integral_k^m u(t) dt
            == sum_k S_k * integral_k^{k+1} u(t) dt,   S_k = a_0 + ... + a_k.

    Returns (lhs, rhs).  Each side is integrated independently with
    composite panels that subdivide every unit interval, so piecewise
    polynomials with integer breakpoints integrate exactly.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != m:
        raise ValueError(f"need exactly m={m} coefficients, got {len(coeffs)}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    lhs = 0.0
    for k, c in enumerate(coeffs):
        lhs += c * composite_gauss(u, k, m, order=order,
                                   panels=panels_per_unit * (m - k))
    rhs = 0.0
    partial = 0.0
    for k, c in enumerate(coeffs):
        partial += c
        rhs += partial * composite_gauss(u, k, k + 1, order=order,
                                         panels=panels_per_unit)
    return lhs, rhs
