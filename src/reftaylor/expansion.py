"""Multi-point first-order expansions with two-sided remainder bounds.

The classical first-order expansion writes f(a+h) = f(a) + Df(a).(h) plus a
remainder controlled by the Hessian over the segment [a, a+h].  Averaging the
first derivative over m+1 equally spaced points on the segment instead,

    f(a+h) = f(a) + sum_k w_k(m) Df(a + k h / m).(h) + |h| eps,

with trapezoid-style weights w_0 = w_m = 1/(2m) and w_k = 1/m in between,
shrinks the remainder enclosure by a factor 2m: where the classical remainder
lives in [|h| m2 / 2, |h| M2 / 2], the averaged one lives in
[-|h|(M2 - m2)/(8m), +|h|(M2 - m2)/(8m)], m2 and M2 being bounds on the
normalised second-derivative form along the segment.  The classical
expansion is the one-term case, one node at t = 0 with weight 1.

A variant drops the endpoint term ("open" weights, all interior points get
weight 1/m and the far endpoint keeps 1/(2m) extra), trading the tight
centred enclosure for one shifted by first-derivative bounds.

Everything here works on ScalarField instances; segments are parametrised by
t in [0, 1] via phi(t) = Df(a + t h).(h), so phi'(t) = D2f(a + t h).(h, h).

Every point a + t h a routine evaluates (a Taylor end, an expansion node,
a segment-bound sample or a Gauss node) is built and domain-checked by one
helper, and a point outside the domain is named by its t.  Both expansions
build their ExpansionReport through one helper, which sums their terms left
to right.  The Hessian form h.D2f(x).h is summed for all points at once:
each of its two contractions starts at 0.0 and adds its products in index
order, one array operation per term, instead of one matmul per point.  The
remainder integral takes its Gauss panels from gauss_panels, node by panel,
so each array operation runs along the panels, and sums them panel by panel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import DomainError, _require_integer
from .quadrature import _grid, composite_gauss, gauss_panels

__all__ = [
    "CLOSED",
    "OPEN",
    "SegmentBounds",
    "ExpansionReport",
    "expansion_weights",
    "taylor_first_order",
    "refined_expansion",
    "remainder_integral",
    "estimate_segment_bounds",
    "summation_identity_check",
]

CLOSED = "closed"
OPEN = "open"

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


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

    remainder_eps is derived, (exact - approx)/|h| (0 when h = 0), so exact ==
    approx + h_norm * remainder_eps by construction.  bound_lo and
    bound_hi enclose remainder_eps itself; the |h| factors the enclosures
    carry are already inside the stored bound values.  roundoff is the slack
    the computed remainder_eps is allowed around them: 4n u (sum |terms| +
    |exact|)/|h| for the n terms approx sums, u the unit roundoff.  That is
    four times the first-order error bound of the sum, (n - 1) u sum |terms|,
    with room for the rounding of the terms, of exact and of the difference;
    a slack, not a proven bound.  The CLI's gate (reftaylor.cli._check) adds
    it to the slack it allows around [bound_lo, bound_hi].
    """

    approx: float
    exact: float
    bound_lo: float
    bound_hi: float
    h_norm: float
    roundoff: float

    @property
    def remainder_eps(self):
        return (self.exact - self.approx) / self.h_norm if self.h_norm else 0.0

    @property
    def degenerate(self):
        return self.h_norm == 0.0


def expansion_weights(m, kind=CLOSED):
    """Weights of the m-point averaged expansion, a read-only array of m+1 floats.

    Closed weights sum to exactly 1: 1/(2m) at both ends, 1/m inside.  Open
    weights keep 1/(2m) at the start but give every later point 1/m, summing
    to 1 + 1/(2m).
    """
    _require_integer("m", m, 1)
    if kind not in (CLOSED, OPEN):
        raise ValueError(f"kind must be 'closed' or 'open', got {kind!r}")
    w = np.full(m + 1, 1.0 / m)
    w[0] = 1.0 / (2 * m)
    if kind == CLOSED:
        w[-1] = 1.0 / (2 * m)
    w.flags.writeable = False
    return w


def _prepare(f, a, h):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if a.size != f.dim or h.size != f.dim:
        raise ValueError(
            f"a and h must have dim {f.dim}, got {a.size} and {h.size}"
        )
    return a, h, math.sqrt(h @ h)  # np.linalg.norm's formula for a vector


def _segment_points(f, a, h, ts):
    """a + ts[:, None] * h for the flat array ts, each point checked against f's domain.

    a and h come from _prepare.  The points are built one coordinate at a
    time, with the same products and sums as the broadcast, since numpy would
    loop over rows of the short last axis.  The first point outside f's
    domain raises DomainError naming its t.
    """
    x = np.empty((len(ts), len(h)))
    for j in range(len(h)):
        x[:, j] = a[j] + ts * h[j]
    if f.domain is not None:
        outside = np.flatnonzero(~f.domain.inside(x))
        if outside.size:
            i = outside[0]
            raise DomainError(
                f"segment point t={ts[i]} at {x[i].tolist()} lies outside the domain {f.domain}"
            )
    return x


def _hessian_form(hess, h):
    """h @ hess[p] @ h for every matrix of an (N, n, n) stack, shape (N,).

    Both contractions start at 0.0 and add their products in index order,
    first over the rows of each matrix and then over the n results, one array
    operation per term for the whole stack.  A zero form comes out as +0.0.
    For every 1D field, and on each registry entry's segment, where every
    product is exact, that gives the bits of h @ hess[p] @ h.  Elsewhere a
    BLAS that fuses multiply-adds in its matmul can differ from it in the
    last bit; this sum does not depend on the BLAS build.
    """
    out = 0.0
    for j in range(len(h)):
        col = 0.0
        for i in range(len(h)):
            col = col + h[i] * hess[:, i, j]
        out = out + col * h[j]
    return out


def estimate_segment_bounds(f, a, h, samples=201):
    """Sampled SegmentBounds along [a, a+h] (flagged, not certified).

    Scans equally spaced t in [0, 1] for the extrema of the normalised
    second-derivative form and of the normalised directional derivative:
    the points are built and checked against the domain once, and both forms
    are evaluated on them.
    """
    _require_integer("samples", samples, 2)
    a, h, hn = _prepare(f, a, h)
    if hn == 0.0:
        raise ValueError("cannot estimate segment bounds for h = 0")
    ts = _grid(0.0, 1.0, samples)
    x = _segment_points(f, a, h, ts)
    vals2 = _hessian_form(f.hess_at(x), h) / hn**2
    vals1 = (f.grad_at(x) @ h) / hn
    return SegmentBounds(
        m2=float(vals2.min()),
        M2=float(vals2.max()),
        m1=float(vals1.min()),
        M1=float(vals1.max()),
        sampled=True,
    )


def _degenerate_report(f, a):
    v = f.value(a)
    return ExpansionReport(approx=v, exact=v, bound_lo=0.0, bound_hi=0.0, h_norm=0.0, roundoff=0.0)


def _report(f, a, h, hn, terms, lo, hi):
    """ExpansionReport of approx = the terms summed left to right, exact = f(a+h).

    np.add.accumulate adds in order, term by term, so approx has the bits of
    terms[0] + terms[1] + ... written out.  roundoff is 4 n u (sum |terms| +
    |exact|)/|h| for the n terms.
    """
    exact = f.value(a + h)
    approx = float(np.add.accumulate(terms)[-1])
    roundoff = 4 * len(terms) * _UNIT_ROUNDOFF * (float(np.abs(terms).sum()) + abs(exact)) / hn
    return ExpansionReport(approx, exact, lo, hi, hn, roundoff)


def taylor_first_order(f, a, h, bounds=None):
    """Classical expansion f(a) + Df(a).(h) with its Hessian-based enclosure.

    The one-term case of refined_expansion: one derivative node at t = 0
    with weight 1.  The normalised remainder eps = (f(a+h) - approx)/|h|
    satisfies |h| m2 / 2 <= |h| eps <= |h| M2 / 2.  When `bounds` is omitted
    a sampled estimate is used (and is, like any sampled bound, not
    certified).  Both ends of the segment, t = 0 and t = 1, must lie in f's
    domain.
    """
    a, h, hn = _prepare(f, a, h)
    _segment_points(f, a, h, np.array([0.0, 1.0]))
    if hn == 0.0:
        return _degenerate_report(f, a)
    if bounds is None:
        bounds = estimate_segment_bounds(f, a, h)
    terms = (f.value(a), f.d(a, h))
    return _report(f, a, h, hn, terms, hn * bounds.m2 / 2.0, hn * bounds.M2 / 2.0)


def refined_expansion(f, a, h, m, kind=CLOSED, bounds=None):
    """m-point averaged expansion of f at a with step h.

    approx = f(a) + sum_k w_k Df(a + k h / m).(h).  With closed weights the
    normalised remainder eps lies in +-|h| (M2 - m2)/(8m); with open weights
    it lies in [|h|(m2 - M2)/(8m) - M1/(2m), |h|(M2 - m2)/(8m) - m1/(2m)],
    which needs the first-derivative bounds m1, M1 as well.  Every node
    t = k/m, both ends of the segment included, must lie in f's domain.
    """
    weights = expansion_weights(m, kind)
    a, h, hn = _prepare(f, a, h)
    nodes = _segment_points(f, a, h, np.arange(m + 1) / m)
    if hn == 0.0:
        return _degenerate_report(f, a)
    if bounds is None:
        bounds = estimate_segment_bounds(f, a, h)
    terms = np.concatenate(([f.value(a)], weights * (f.grad_at(nodes) @ h)))
    spread = hn * (bounds.M2 - bounds.m2) / (8.0 * m)
    lo, hi = -spread, spread
    if kind == OPEN:
        if bounds.m1 is None or bounds.M1 is None:
            raise ValueError("open-weight enclosure needs first-derivative bounds m1, M1")
        lo, hi = lo - bounds.M1 / (2.0 * m), hi - bounds.m1 / (2.0 * m)
    return _report(f, a, h, hn, terms, lo, hi)


def remainder_integral(f, a, h, m):
    """Integral form of the scaled remainder |h| eps for the closed weights.

    Equals sum_k over the m subintervals [k/m, (k+1)/m] of
    integral (S_k - t) phi'(t) dt with S_k = 1/(2m) + k/m.  Computed with 32
    equal 5-point Gauss-Legendre panels per subinterval; serves as the
    independent cross-check of refined_expansion's exact - approx.  The
    panels come from gauss_panels(0, 1, 5, 32 m), node by panel, so every
    array operation runs along the panels; the products are summed panel by
    panel, and phi' as _hessian_form sums it.
    """
    _require_integer("m", m, 1)
    a, h, hn = _prepare(f, a, h)
    if hn == 0.0:
        return 0.0
    # 32 panels on each subinterval [k/m, (k+1)/m], in order
    nodes, weights = gauss_panels(0.0, 1.0, 5, 32 * m)
    s_k = 1.0 / (2.0 * m) + np.arange(32 * m) // 32 / m
    ts = nodes.reshape(-1)
    form = _hessian_form(f.hess_at(_segment_points(f, a, h, ts)), h)
    kernel = weights * (s_k - nodes) * form.reshape(nodes.shape)
    return float(np.sum(kernel.T.copy()))


def summation_identity_check(coeffs, u):
    """Both sides of the tail-sum rearrangement identity, via quadrature.

    For m = len(coeffs) >= 1 coefficients a_0..a_{m-1} and continuous u:

        sum_k a_k * integral_k^m u(t) dt
            == sum_k S_k * integral_k^{k+1} u(t) dt,   S_k = a_0 + ... + a_k.

    Returns (lhs, rhs).  Each side is integrated independently with
    composite_gauss, 8 equal 5-point panels per unit interval, so piecewise
    polynomials of degree <= 9 with integer breakpoints integrate exactly.
    """
    coeffs = [float(c) for c in coeffs]
    m = len(coeffs)
    if m < 1:
        raise ValueError("need at least one coefficient")
    lhs = 0.0
    for k, c in enumerate(coeffs):
        lhs += c * composite_gauss(u, k, m, panels=8 * (m - k))
    rhs = 0.0
    partial = 0.0
    for k, c in enumerate(coeffs):
        partial += c
        rhs += partial * composite_gauss(u, k, k + 1, panels=8)
    return lhs, rhs
