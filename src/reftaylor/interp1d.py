"""Linear interpolation on an interval and the mixed-derivative error bound.

For f twice differentiable on [a, b], the affine interpolant matching f at
the endpoints satisfies the classical sup-error bound

    classical = (b - a)^2 |f''|_inf / 8.

Averaging the derivative at both endpoints instead of using one Taylor point
tightens the remainder and yields the mixed bound

    refined = (b - a) |f'|_inf / 4 + (b - a)^2 |f''|_inf / 16,

which wins exactly when |f'|_inf < (b - a) |f''|_inf / 4, i.e. for functions
whose slope stays small relative to their curvature.  Both are
simplex.InterpBounds at the circumradius h = (b - a) / 2.  The quotient
beta = refined / classical measures the gain.

The convex exponential family below realises any target beta in (1/2, 1]:
solutions of f'' - rate * f' = forcing with forcing > 0 grow like
exp(rate * (x - a)) and keep |f'| <= f''/rate once the initial slope is not
too negative, so their sup-norms satisfy |f'|_inf <= |f''|_inf / rate and the
mixed bound beats the classical one by the factor tied to the rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .simplex import InterpBounds

__all__ = [
    "Interval",
    "BoundComparison",
    "ClassPParams",
    "linear_interpolant",
    "compare_bounds",
    "rate_for_beta",
    "class_p_field",
    "class_p_sup_norms",
    "class_p_lower_envelope",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self):
        return self.b - self.a

    def grid(self, n):
        return np.linspace(self.a, self.b, n)


@dataclass(frozen=True)
class BoundComparison:
    """Classical vs mixed interpolation error bound on one interval.

    beta = refined / classical, derived (inf when the classical bound is zero);
    measured_sup_error is the grid maximum of |interpolant - f|.
    """

    classical: float
    refined: float
    measured_sup_error: float

    @property
    def beta(self):
        return self.refined / self.classical if self.classical > 0.0 else math.inf


@dataclass(frozen=True)
class ClassPParams:
    """Parameters of the convex exponential family f'' - rate * f' = forcing.

    Every member starts at f(a) = 0: adding a constant moves neither the
    interpolation error nor any bound.  rate > 0 and forcing > 0; slope_at_a
    may dip down to -forcing/rate, the largest initial descent that keeps the
    solution convex.  At that boundary value the member degenerates to an
    affine function.
    """

    rate: float
    forcing: float
    slope_at_a: float = 0.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not self.forcing > 0:
            raise ValueError(f"forcing must be > 0, got {self.forcing}")
        if not self.slope_at_a >= -self.forcing / self.rate:
            raise ValueError(
                f"slope_at_a must be >= -forcing/rate = {-self.forcing / self.rate}, "
                f"got {self.slope_at_a}"
            )


def linear_interpolant(f, iv):
    """The affine function matching the ScalarField f at both endpoints of iv.

    Returns a vectorised callable.
    """
    fa = f.value([iv.a])
    fb = f.value([iv.b])
    a, b = iv.a, iv.b

    def interp(x):
        x = np.asarray(x, dtype=float)
        return ((x - b) * fa + (a - x) * fb) / (a - b)

    return interp


def compare_bounds(f, iv, f1_sup, f2_sup, grid=1001):
    """Evaluate both error bounds and the measured sup error on a grid.

    f1_sup and f2_sup are sup-norm bounds for f' and f'' on iv; they must be
    certified by the caller for the resulting bounds to be certified.  A zero
    f2_sup is only consistent with an affine f, which is checked on the grid.
    A bound that overflows a float raises ValueError.

    The bounds are InterpBounds at the circumradius L/2, where the classical
    bound is sharp (Waldron, SIAM J. Numer. Anal. 35, 1998).  The mesh layer
    reads them at the diameter L, 4x these on one interval (2x to 4x refined).
    """
    try:
        bounds = InterpBounds(iv.length / 2.0, f1_sup, f2_sup)
    except OverflowError:  # h**2 of a float past about 1.3e154 raises instead of giving inf
        bounds = InterpBounds(math.inf, f1_sup, f2_sup)
    if not (math.isfinite(bounds.classical) and math.isfinite(bounds.refined)):
        raise ValueError(f"interpolation bounds on [{iv.a:g}, {iv.b:g}] overflow a float")
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid}")
    xs = iv.grid(grid)
    vals = f.value_at(xs.reshape(-1, 1))
    interp = linear_interpolant(f, iv)
    measured = float(np.max(np.abs(interp(xs) - vals)))

    if f2_sup == 0.0:
        scale = 1.0 + float(np.max(np.abs(vals)))
        if measured > 1e-9 * scale:
            raise ValueError(
                "f2_sup = 0 claims an affine function, but the grid deviation "
                f"from the endpoint line is {measured:.3e}"
            )

    return BoundComparison(
        classical=bounds.classical, refined=bounds.refined, measured_sup_error=measured
    )


def rate_for_beta(beta, iv):
    """Curvature/slope ratio at which the mixed bound hits beta * classical.

    Functions obeying |f'|_inf <= |f''|_inf / rate on an interval of length L
    have refined <= beta * classical exactly when rate >= 4 / ((2 beta - 1) L);
    this returns that threshold.  Only beta > 1/2 is reachable: the curvature
    half of the mixed bound alone is already classical / 2.  A beta whose rate
    is 0 or whose exp(rate * L) = exp(4 / (2 beta - 1)) overflows is rejected.
    """
    if not beta > 0.5:
        raise ValueError(f"beta must exceed 1/2, got {beta}")
    rate = 4.0 / ((2.0 * beta - 1.0) * iv.length)
    if not rate > 0.0:  # (2 beta - 1) * length overflows for an infinite or huge beta
        raise ValueError(f"beta={beta:g} gives no positive rate 4 / ((2 beta - 1) length)")
    limit = math.log(np.finfo(float).max)
    if rate * iv.length > limit:
        raise ValueError(f"beta={beta:g} overflows exp(rate * length); "
                         f"the smallest usable beta is {0.5 + 2.0 / limit:.6f}")
    return rate


def _class_p_parts(params, a):
    lam, delta = params.rate, params.forcing
    s = params.slope_at_a

    def expo(x):
        return np.exp(lam * (np.asarray(x, dtype=float) - a))

    def value(x):
        e = expo(x)
        x = np.asarray(x, dtype=float)
        return s / lam * (e - 1.0) + delta / lam * ((e - 1.0) / lam - (x - a))

    def deriv(x):
        e = expo(x)
        return s * e + delta / lam * (e - 1.0)

    def deriv2(x):
        return (s + delta / lam) * lam * expo(x)

    return value, deriv, deriv2


def class_p_field(params, iv):
    """Member of the convex exponential family as a ScalarField on iv.

    Solves f'' - rate f' = forcing with f(iv.a) = 0 and f'(iv.a) = slope_at_a.
    Members are convex; when slope_at_a >= -forcing/(2 rate) they also keep
    |f'| <= f''/rate pointwise, which is what makes the mixed interpolation
    bound beat the classical one (the boundary slope -forcing/rate gives an
    affine member, where the two-sided slope/curvature comparison fails).
    """
    value, deriv, deriv2 = _class_p_parts(params, iv.a)
    return ScalarField(
        1,
        value=lambda pts: value(pts[:, 0]),
        grad=deriv,
        hess=lambda pts: deriv2(pts)[:, :, None],
        domain=[(iv.a, iv.b)],
        name=f"classP(rate={params.rate:g})",
    )


def class_p_sup_norms(params, iv):
    """Analytic (|f'|_inf, |f''|_inf) over iv for a family member.

    f'' is nonnegative and increasing, so its sup sits at the right endpoint;
    f' is nondecreasing, so |f'| peaks at one of the endpoints.  A norm that
    overflows a float raises ValueError rather than being dropped by max, and
    without a numpy overflow warning first.
    """
    _, deriv, deriv2 = _class_p_parts(params, iv.a)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = (abs(float(deriv(iv.a))), abs(float(deriv(iv.b))), float(deriv2(iv.b)))
    if not all(map(math.isfinite, ends)):
        raise ValueError(f"sup norms at rate {params.rate:g} overflow a float")
    return max(ends[:2]), ends[2]


def class_p_lower_envelope(params, iv, x):
    """Exponential lower bound for a family member, valid on all of iv.

    max of the two integrated slope envelopes
    f'(a) (exp(+rate (x-a)) - 1)/rate and -f'(a) (exp(-rate (x-a)) - 1)/rate,
    with f(a) = 0; convexity of the family makes both sit below the function.
    """
    lam = params.rate
    x = np.asarray(x, dtype=float)
    up = params.slope_at_a / lam * (np.exp(lam * (x - iv.a)) - 1.0)
    dn = -params.slope_at_a / lam * (np.exp(-lam * (x - iv.a)) - 1.0)
    return np.maximum(up, dn)
