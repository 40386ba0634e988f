"""Peano kernels of the package's 1D rules, built exactly with sympy.

A linear error functional E that vanishes on polynomials of degree < r has
the Peano form E(g) = integral K(t) g^(r)(t) dt, K(t) = E applied to
(. - t)_+^(r-1)/(r-1)!.  When g^(r) ranges over [lo, hi], E(g) ranges over
[P lo - N hi, P hi - N lo], P and N the integrals of K's positive and
negative parts, and both ends are attained: P + N = integral |K| is the sharp
constant.  Each test builds a kernel from the package's own weights or
interpolant, piece by piece between its breakpoints, and holds the constant
the package writes against it: equal where the package's docs call the
constant sharp, at least the kernel's where they call it valid.

The expansions act on phi(t) = Df(a + t h).(h) on [0, 1], whose integral is
f(a+h) - f(a); so exact - approx is E(phi) for E(phi) = integral phi -
sum_k w_k phi(t_k), and phi' = D2f(a + t h).(h, h) lies in [m2, M2] |h|^2.
"""

import math

import numpy as np
import pytest
import sympy

from reftaylor.expansion import (
    CLOSED,
    OPEN,
    SegmentBounds,
    expansion_weights,
    refined_expansion,
    taylor_first_order,
)
from reftaylor.fields import ScalarField
from reftaylor.interp1d import Interval, compare_bounds
from reftaylor.registry import lookup
from reftaylor.simplex import InterpBounds, MeshInterpolant, uniform_mesh

s, t, x = sympy.symbols("s t x", real=True)
MS = range(1, 9)
# (lower, upper) second-derivative bounds; every enclosure below is one rounding from exact
SECOND = [(-1.0, 1.0), (0.5, 3.0), (-2.0, -0.25)]


def _weights(m, kind):
    """The package's m-point weights as the rationals they round."""
    w = [sympy.Rational(v).limit_denominator(4 * m) for v in expansion_weights(m, kind)]
    assert [float(v) for v in w] == expansion_weights(m, kind).tolist()
    return w


def _segment_kernel(nodes, weights, r):
    """Pieces (lo, hi, K) of the r-th Peano kernel of integral_0^1 - sum_k w_k delta_{t_k}."""
    cuts = sorted({0, 1, *nodes})
    return [
        (lo, hi, sympy.expand(
            (1 - s) ** r / math.factorial(r)
            # on (lo, hi) the nodes right of s are those at hi or beyond
            - sum(w * (tk - s) ** (r - 1) / math.factorial(r - 1)
                  for tk, w in zip(nodes, weights) if tk >= hi)))
        for lo, hi in zip(cuts, cuts[1:])
    ]


def _parts(pieces, var):
    """(P, N): the integrals of the positive and negative parts of a piecewise polynomial."""
    P = N = sympy.Integer(0)
    for lo, hi, K in pieces:
        poly = sympy.Poly(K, var)
        antiderivative = poly.integrate()
        roots = poly.real_roots() if poly.degree() > 0 else []
        cuts = [lo, *sorted({r for r in roots if lo < r < hi}), hi]
        for u, v in zip(cuts, cuts[1:]):
            area = antiderivative.eval(v) - antiderivative.eval(u)
            P, N = (P + area, N) if area > 0 else (P, N - area)
    return P, N


def _segment_field():
    return lookup("exp1d").field()


def _enclosure(P, N, lo, hi):
    lo, hi = sympy.Rational(lo), sympy.Rational(hi)
    return float(P * lo - N * hi), float(P * hi - N * lo)


def test_taylor_constant_is_one_half():
    # classical Taylor is the one-node rule t = 0, w = 1: K = 1 - s >= 0, so
    # its enclosure [m2 / 2, M2 / 2] is the kernel's, attained at both ends
    P, N = _parts(_segment_kernel([0], [1], 1), s)
    assert (P, N) == (sympy.Rational(1, 2), 0)
    for m2, M2 in SECOND:
        rep = taylor_first_order(_segment_field(), 0.0, 1.0, bounds=SegmentBounds(m2, M2))
        assert (rep.bound_lo, rep.bound_hi) == _enclosure(P, N, m2, M2)


@pytest.mark.parametrize("m", MS)
def test_closed_half_width_is_sharp(m):
    # the closed rule is exact on constants and K is the sawtooth S_k - s, so
    # integral |K| = 1/(4m), split evenly: the half-width (M2 - m2)/(8m)
    nodes, w = [sympy.Rational(k, m) for k in range(m + 1)], _weights(m, CLOSED)
    assert sum(w) == 1
    P, N = _parts(_segment_kernel(nodes, w, 1), s)
    assert P == N == sympy.Rational(1, 8 * m)
    for m2, M2 in SECOND:
        rep = refined_expansion(_segment_field(), 0.0, 1.0, m, bounds=SegmentBounds(m2, M2))
        assert (rep.bound_lo, rep.bound_hi) == _enclosure(P, N, m2, M2)


@pytest.mark.parametrize("m", MS)
def test_closed_weights_minimise_the_kernel_integral(m):
    # for weights summing to 1 on the nodes k/m, K on piece k is (1 - s) - c_k,
    # c_k the weight right of s; its integral |K| over a piece of length 1/m is
    # least, 1/(4m^2), when its root is the piece's midpoint (a root off the
    # piece gives at least 1/(2m^2)), and each c_k is free, so the minimum over
    # all such weights is 1/(4m): the closed weights put every root there
    nodes, w = [sympy.Rational(k, m) for k in range(m + 1)], _weights(m, CLOSED)
    c = sympy.Symbol("c", real=True)
    for lo, hi, K in _segment_kernel(nodes, w, 1):
        middle = sympy.sympify(lo + hi) / 2
        assert sympy.solve(K, s) == [middle]
        root = 1 - c  # the root of (1 - s) - c, taken inside the piece
        area = ((root - lo) ** 2 + (hi - root) ** 2) / 2
        assert sympy.solve(sympy.diff(area, c), c) == [1 - middle]
        assert area.subs(c, 1 - middle) == sympy.Rational(1, 4 * m * m)
        assert area.subs(c, 1 - lo) == area.subs(c, 1 - hi) == sympy.Rational(1, 2 * m * m)
    assert sum(_parts(_segment_kernel(nodes, w, 1), s)) == sympy.Rational(1, 4 * m)


@pytest.mark.parametrize("m", MS)
def test_zero_sum_perturbations_widen_the_kernel_integral(m):
    # a zero-sum change keeps the rule exact on constants, so it still has a
    # first kernel, and moving off the closed weights makes integral |K| grow
    nodes, w = [sympy.Rational(k, m) for k in range(m + 1)], _weights(m, CLOSED)
    best = sympy.Rational(1, 4 * m)
    rng = np.random.default_rng(m)
    for scale in (sympy.Rational(1, 10), sympy.Rational(1, 1000), sympy.Rational(1, 10**6)):
        for _ in range(4):
            r = [sympy.Integer(int(v)) for v in rng.integers(-50, 51, size=m + 1)]
            mean = sum(r) / (m + 1)
            if all(v == mean for v in r):
                continue
            delta = [scale * (v - mean) / 50 for v in r]
            assert sum(delta) == 0
            perturbed = [wk + dk for wk, dk in zip(w, delta)]
            assert sum(_parts(_segment_kernel(nodes, perturbed, 1), s)) > best


@pytest.mark.parametrize("m", MS)
def test_sine_witness_reads_two_over_pi_of_the_half_width(m):
    # f = -sin(2 pi m x)/(4 pi^2 m^2) has f'' = sin(2 pi m x) in [-1, 1] and
    # f' = -1/(2 pi m) at every node k/m: eps = 1/(2 pi m) against the
    # half-width 1/(4m), so no smaller constant than 2/pi times /(8m) can hold
    w = 2.0 * math.pi * m
    f = ScalarField(1, lambda p: -np.sin(w * p[:, 0]) / (w * w),
                    grad=lambda p: -np.cos(w * p) / w)
    rep = refined_expansion(f, 0.0, 1.0, m, bounds=SegmentBounds(-1.0, 1.0))
    assert rep.bound_hi == -rep.bound_lo == 1.0 / (4 * m)
    assert rep.remainder_eps / rep.bound_hi == pytest.approx(2.0 / math.pi, abs=1e-12)


@pytest.mark.parametrize("m", MS)
def test_open_weight_shift_is_one_over_2m(m):
    # open minus closed: every first-kernel piece drops by 1/(2m) and so does
    # E(1), so E_open(phi) = E_closed(phi) - phi(1)/(2m), phi(1)/|h| in [m1, M1]
    nodes = [sympy.Rational(k, m) for k in range(m + 1)]
    w_open, w_closed = _weights(m, OPEN), _weights(m, CLOSED)
    shift = sympy.Rational(1, 2 * m)
    for (_, _, k_open), (_, _, k_closed) in zip(_segment_kernel(nodes, w_open, 1),
                                                _segment_kernel(nodes, w_closed, 1)):
        assert k_open - k_closed == -shift
    assert (1 - sum(w_open)) - (1 - sum(w_closed)) == -shift
    f = _segment_field()
    for (m2, M2), (m1, M1) in zip(SECOND, [(1.0, 3.0), (-0.5, 0.75), (-3.0, -1.0)]):
        bounds = SegmentBounds(m2, M2, m1, M1)
        closed = refined_expansion(f, 0.0, 1.0, m, kind=CLOSED, bounds=bounds)
        rep = refined_expansion(f, 0.0, 1.0, m, kind=OPEN, bounds=bounds)
        assert rep.bound_lo == closed.bound_lo - float(shift * sympy.Rational(M1))
        assert rep.bound_hi == closed.bound_hi - float(shift * sympy.Rational(m1))


@pytest.mark.parametrize("m", MS)
def test_trapezoid_second_kernel_is_one_over_12m2(m):
    # the closed rule is exact on linear phi, so it has a second kernel; it is
    # <= 0 with integral 1/(12 m^2): given phi'' in [m3, M3] |h|^3, eps lies in
    # [-M3, -m3] |h|^2/(12 m^2), sharp (the D3 enclosure's constant)
    nodes, w = [sympy.Rational(k, m) for k in range(m + 1)], _weights(m, CLOSED)
    assert sum(w) == 1 and sum(wk * tk for wk, tk in zip(w, nodes)) == sympy.Rational(1, 2)
    P, N = _parts(_segment_kernel(nodes, w, 2), s)
    assert (P, N) == (0, sympy.Rational(1, 12 * m * m))


def _midpoint_coefficients(L):
    """pi*'s midpoint value on [0, L] as coefficients of (f(0), f(L), f'(0), f'(L)).

    Read from MeshInterpolant on a one-element mesh, one unit datum at a time.
    """
    mesh = uniform_mesh((0.0, float(L)), 1)
    coefficients = []
    for d in np.eye(4):
        probe = ScalarField(1, value=lambda p, d=d: np.where(p[:, 0] == 0.0, d[0], d[1]),
                            grad=lambda p, d=d: np.where(p == 0.0, d[2], d[3]))
        coefficients.append(sympy.Rational(MeshInterpolant(mesh, probe, corrected=True).coefs[0, 2]))
    return coefficients


def _interval_kernel(L, corrected):
    """Pieces (lo, hi, K(x, t)) in t of f(x) - (pi or pi*) f(x) = integral_0^L K f''.

    K(x, .) is the error at x of y -> (y - t)_+, whose values at 0 and L are
    0 and L - t and whose slopes there are 0 and 1.
    """
    data = (0, L - t, 0, 1)
    lam0, lam1 = 1 - x / L, x / L
    if corrected:  # P2 Lagrange on the vertex values and pi*'s midpoint value
        mid = sum(c * d for c, d in zip(_midpoint_coefficients(L), data))
        interp = data[0] * lam0 * (2 * lam0 - 1) + data[1] * lam1 * (2 * lam1 - 1) + 4 * lam0 * lam1 * mid
    else:
        interp = data[0] * lam0 + data[1] * lam1
    return [(0, x, sympy.expand(x - t - interp)), (x, L, sympy.expand(-interp))]


def _sup_over_x(pieces, L):
    """max over x in [0, L] of integral_0^L |K(x, t)| dt, for K linear in t on each piece.

    Where the pieces' end values keep their signs the integral is a rational
    function of x, so the max lies at an end, a sign change or a critical point.
    """
    ends = [(lo, hi, K.subs(t, lo), K.subs(t, hi)) for lo, hi, K in pieces]
    cuts = {sympy.Integer(0), sympy.Integer(L)}
    for _, _, a, b in ends:
        for v in (a, b):
            if v.has(x):
                cuts.update(r for r in sympy.Poly(v, x).real_roots() if 0 < r < L)
    cuts = sorted(cuts)
    candidates = set(cuts)
    for u, v in zip(cuts, cuts[1:]):
        c = (u + v) / 2
        F = 0
        for lo, hi, a, b in ends:
            sa, sb = (sympy.sign(e.subs(x, c)) for e in (a, b))
            if sa * sb < 0:
                F += (hi - lo) * (a**2 + b**2) / (2 * sa * (a - b))
            else:
                F += (hi - lo) * (sa or sb) * (a + b) / 2
        numerator = sympy.numer(sympy.together(sympy.diff(F, x)))
        if numerator.has(x):
            candidates.update(r for r in sympy.Poly(numerator, x).real_roots() if u < r < v)
    return max(sum(_parts([tuple(sympy.sympify(e).subs(x, c) for e in piece) for piece in pieces], t))
               for c in candidates)


@pytest.mark.parametrize("L", [1, 3])
def test_interval_interpolation_constants(L):
    # pi's kernel gives sup integral |K| = L^2/8 at x = L/2, the classical
    # constant interp1d reads at the circumradius L/2, which its docs call
    # sharp (Waldron 1998); pi*'s gives L^2/16, the corrected constant there
    pi, pi_star = (_sup_over_x(_interval_kernel(L, corrected), L) for corrected in (False, True))
    assert (pi, pi_star) == (sympy.Rational(L * L, 8), sympy.Rational(L * L, 16))
    quadratic = ScalarField(1, lambda p: p[:, 0] ** 2 / 2)  # f'' = 1
    assert compare_bounds(quadratic, Interval(0.0, float(L)), float(L), 1.0).classical == float(pi)
    assert InterpBounds(L / 2.0, 0.0, 1.0).corrected == float(pi_star)
    # a mesh reads the bounds at its element diameter L: valid, 4x the 1D constants
    mesh = InterpBounds(uniform_mesh((0.0, float(L)), 1).mesh_size, 0.0, 1.0)
    assert mesh.classical >= float(pi) and mesh.corrected >= float(pi_star)
