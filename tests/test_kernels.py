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

On a simplex with vertices A_i, each interpolation error at P = sum_i
lambda_i A_i is a lambda-weighted sum of 1D remainders along the rays
A_i -> P, g_i(t) = v(A_i + t (P - A_i)), since sum_i lambda_i (P - A_i) = 0.
With mu_p(P) = sum_i lambda_i |P - A_i|^p their kernels give
|v - pi v| <= (d2/2) mu2, |v - pi* v| <= (d2/4) mu2 and
|v - pi v| <= (d1/2) mu1 + (d2/4) mu2, and mu2 <= R^2, R the radius of the
smallest ball holding the simplex: InterpBounds at R holds in full.
"""

import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

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
from reftaylor.registry import lookup, registry
from reftaylor.simplex import (
    GeometryError,
    InterpBounds,
    MeshInterpolant,
    Simplex,
    _element_points,
    uniform_mesh,
)

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


# ------------------------------------------------ rays on a simplex


def _rational_simplex(n):
    """Rational vertices A_i of a nondegenerate n-simplex, weights lambda_i in
    the symbols l1.. summing to 1, P = sum_i lambda_i A_i, and the Poly
    generators (t, l1, ..)."""
    A = [sympy.Matrix([sympy.Rational((3 * i + 5 * k) % 7 - 3, k + 2) + int(i == k + 1)
                       for k in range(n)]) for i in range(n + 1)]
    assert sympy.Matrix.hstack(*[a - A[0] for a in A[1:]]).det() != 0
    free = sympy.symbols(f"l1:{n + 1}", real=True)
    lam = [1 - sum(free), *free]
    return A, lam, sum((l * a for l, a in zip(lam, A)), sympy.zeros(n, 1)), (t, *free)


@pytest.mark.parametrize("n, degree", [(1, 4), (2, 4), (3, 3)])
def test_ray_identities_of_pi_pi_star_and_the_refined_bound(n, degree):
    # exact for every monomial v up to the degree, so for every such polynomial:
    #   v - pi v  = -sum lambda_i int_0^1 t g_i''
    #   v - pi* v =  sum lambda_i (int_0^1 g_i' - (g_i'(0) + g_i'(1))/2)
    #   v - pi v  =  1/2 sum lambda_i Dv(A_i).(P - A_i) + 1/2 sum lambda_i int_0^1 (1 - 2t) g_i''
    # with pi* v = pi v - 1/2 sum lambda_i Dv(A_i).(A_i - P)
    X = sympy.symbols(f"x0:{n}", real=True)
    A, lam, P, gens = _rational_simplex(n)
    poly = lambda e: sympy.Poly(e, *gens)
    at = lambda p, value: poly(p.as_expr().subs(t, value))
    integral = lambda p: at(p.integrate(t), 1) - at(p.integrate(t), 0)
    lam = [poly(l) for l in lam]
    weighted = lambda terms: sum((l * term for l, term in zip(lam, terms)), poly(0))
    half = sympy.Rational(1, 2)
    for v in sympy.itermonomials(X, degree):
        (powers,) = sympy.Poly(v, *X).monoms()
        value = lambda point: math.prod((poly(c) ** e for c, e in zip(point, powers)), start=poly(1))
        grad = [sympy.diff(v, xk) for xk in X]
        first = [poly(sum(g.subs(dict(zip(X, a))) * (P[k] - a[k]) for k, g in enumerate(grad)))
                 for a in A]
        dg = [value(a + t * (P - a)).diff(t) for a in A]
        d2g = [d.diff(t) for d in dg]
        error = value(P) - weighted([value(a) for a in A])
        assert (error + weighted([integral(poly(t) * d) for d in d2g])).is_zero, v
        trapezoid = [integral(d) - (at(d, 0) + at(d, 1)) * half for d in dg]
        assert (error - weighted(first) * half - weighted(trapezoid)).is_zero, v
        midpoint = [integral(poly(1 - 2 * t) * d) for d in d2g]
        assert (error - weighted(first) * half - weighted(midpoint) * half).is_zero, v
    # |g_i''| <= d2 |P - A_i|^2, so the kernels' integrals are the bounds' constants
    assert sympy.integrate(t, (t, 0, 1)) == half
    assert sympy.integrate(sympy.Abs(1 - 2 * t), (t, 0, 1)) * half == sympy.Rational(1, 4)


def test_pi_star_midpoint_value_is_the_ray_form_at_the_edge_midpoint():
    # MeshInterpolant stores (v_i + v_j)/2 - (Dv_i - Dv_j).(A_i - A_j)/8 on edge
    # A_i A_j: pi v - 1/2 sum lambda_k Dv(A_k).(A_k - P) at lambda_i = lambda_j = 1/2,
    # and a quadratic is fixed by its P2 node values
    vi, vj = sympy.symbols("v_i v_j", real=True)
    Ai, Aj, Di, Dj = (sympy.Matrix(sympy.symbols(f"{name}0:3", real=True))
                      for name in ("A", "B", "D", "E"))
    P = (Ai + Aj) / 2
    ray_form = (vi + vj) / 2 - ((Di.T * (Ai - P))[0] + (Dj.T * (Aj - P))[0]) / 4
    assert sympy.expand(ray_form - ((vi + vj) / 2 - ((Di - Dj).T * (Ai - Aj))[0] / 8)) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu2_identity_and_the_paraboloid_witness(n):
    # mu2(P) = sum lambda_i |A_i - c|^2 - |P - c|^2 for every c: the weighted
    # vertex spread about c less P's own, so mu2 <= max_i |A_i - c|^2 = R^2 at
    # the centre of the smallest ball holding the simplex.  The same sum makes
    # v = |x - c|^2/2, with D2v = I, meet pi's bound: v - pi v = -mu2/2
    A = [sympy.Matrix(sympy.symbols(f"a{i}_0:{n}", real=True)) for i in range(n + 1)]
    c = sympy.Matrix(sympy.symbols(f"c0:{n}", real=True))
    free = sympy.symbols(f"l1:{n + 1}", real=True)
    lam = [1 - sum(free), *free]
    P = sum((l * a for l, a in zip(lam, A)), sympy.zeros(n, 1))
    sq = lambda u: (u.T * u)[0]
    mu2 = sum(l * sq(P - a) for l, a in zip(lam, A))
    spread = sum(l * sq(a - c) for l, a in zip(lam, A))
    assert sympy.expand(mu2 - (spread - sq(P - c))) == 0
    paraboloid_error = sq(P - c) / 2 - sum(l * sq(a - c) / 2 for l, a in zip(lam, A))
    assert sympy.expand(paraboloid_error + mu2 / 2) == 0


def _enclosing_radius(verts):
    """Radius of the smallest ball holding the points.

    That ball is centred in the affine hull of the points on its sphere, at
    the point equidistant from them, so the least, over vertex subsets, of
    the largest distance from that subset's centre is its radius.
    """
    best = math.inf
    for size in range(1, len(verts) + 1):
        for subset in map(np.array, itertools.combinations(verts, size)):
            E = subset[1:] - subset[0]
            centre = subset[0] + np.linalg.solve(2.0 * E @ E.T, (E**2).sum(axis=1)) @ E
            best = min(best, float(np.max(np.linalg.norm(verts - centre, axis=1))))
    return best


def test_enclosing_radius_examples():
    # a right or obtuse triangle's ball has its longest edge as diameter; an
    # acute one's is the circumscribed ball; so is a regular tetrahedron's
    assert _enclosing_radius(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])) == pytest.approx(math.sqrt(0.5))
    assert _enclosing_radius(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 1.0]])) == pytest.approx(2.0)
    equilateral = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(0.75)]])
    assert _enclosing_radius(equilateral) == pytest.approx(1.0 / math.sqrt(3.0))
    tetrahedron = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    assert _enclosing_radius(tetrahedron) == pytest.approx(math.sqrt(3.0))
    for k in (1, 2):
        mesh = uniform_mesh([(0.0, 1.0)] * 3, k)
        for element in mesh.elements:
            assert _enclosing_radius(mesh.vertices[element]) == pytest.approx(mesh.mesh_size / 2)


ANALYTIC = [entry for entry in registry() if entry.analytic]


@st.composite
def _simplex_in_a_box(draw):
    """An analytic registry entry, a random nondegenerate simplex inside its box,
    and barycentric sample points: random ones, the vertices and edge midpoints."""
    entry = draw(st.sampled_from(ANALYTIC))
    box = np.asarray(entry.box, dtype=float)
    n = entry.dim
    unit = draw(st.lists(st.floats(0.0, 1.0), min_size=n * (n + 1), max_size=n * (n + 1)))
    verts = box[:, 0] + np.reshape(unit, (n + 1, n)) * (box[:, 1] - box[:, 0])
    try:
        simplex = Simplex(verts)
    except GeometryError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eye = np.eye(n + 1)
    midpoints = [(eye[i] + eye[j]) / 2 for i, j in itertools.combinations(range(n + 1), 2)]
    lam = np.vstack([rng.dirichlet(np.ones(n + 1), size=64), eye, *midpoints])
    return entry, simplex, lam


def _mu(simplex, lam):
    """Sample points (Q, n) and their mu1, mu2 (Q,)."""
    P = _element_points(simplex, lam)
    dist = np.linalg.norm(P[:, None, :] - simplex.vertices[None], axis=2)
    return P, (lam * dist).sum(axis=1), (lam * dist**2).sum(axis=1)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_simplex_in_a_box())
def test_pointwise_ray_bounds_hold_on_random_simplices(case):
    entry, simplex, lam = case
    f, d1, d2 = entry.field(), entry.d1_inf, entry.d2_inf
    P, mu1, mu2 = _mu(simplex, lam)
    R = _enclosing_radius(simplex.vertices)
    assert np.all(mu2 <= R * R * (1 + 1e-12))
    assert np.all(mu1 <= np.sqrt(mu2) * (1 + 1e-12))
    exact = f.value_at(P)
    # the quadratics attain pi's bound, so the slack is rounding only
    slack = 1e-12 * (1.0 + np.max(np.abs(exact)))
    err = np.abs(MeshInterpolant(simplex, f).eval_on_element([0], lam)[0] - exact)
    err_star = np.abs(MeshInterpolant(simplex, f, corrected=True).eval_on_element([0], lam)[0] - exact)
    assert np.all(err <= d2 / 2 * mu2 + slack), entry.name
    assert np.all(err_star <= d2 / 4 * mu2 + slack), entry.name
    assert np.all(err <= d1 / 2 * mu1 + d2 / 4 * mu2 + slack), entry.name


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_simplex_in_a_box(), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_paraboloid_attains_the_pointwise_pi_bound(case, centre):
    # the random-simplex witness: |x - c|^2/2 has d2 = 1 and pi error -mu2/2
    _, simplex, lam = case
    c = np.array(centre[: simplex.dim])
    w = ScalarField(simplex.dim, lambda p: ((p - c) ** 2).sum(axis=1) / 2)
    P, _, mu2 = _mu(simplex, lam)
    err = MeshInterpolant(simplex, w).eval_on_element([0], lam)[0] - w.value_at(P)
    np.testing.assert_allclose(err, mu2 / 2, rtol=1e-9, atol=1e-13)
