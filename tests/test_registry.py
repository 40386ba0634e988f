import itertools
import math
import re

import numpy as np
import pytest
from mpmath import iv

from reftaylor.expansion import refined_expansion
from reftaylor.registry import (
    FieldEntry,
    UnknownFieldError,
    known_names,
    lookup,
    registry,
    registry_selftest,
    sine_product,
)

ANALYTIC = [e.name for e in registry() if e.analytic]


def test_static_names_present():
    names = [e.name for e in registry()]
    for expected in ("exp1d", "sin1d", "quad1d", "cubic1d", "runge1d",
                     "quad2d", "exp2d", "sinsin2d", "quad3d", "exp3d",
                     "classP(beta=0.75)"):
        assert expected in names


def test_entries_are_consistent():
    for entry in [*registry(), lookup("classP(beta=0.6)")]:
        assert entry.dim in (1, 2, 3)
        assert entry.dim == len(entry.box) == entry.field().dim
        norms = (entry.d1_inf, entry.d2_inf, entry.segment_bounds)
        assert entry.analytic == all(v is not None for v in norms)
        assert entry.analytic or all(v is None for v in norms)
        a, h = entry.segment
        assert a.shape == h.shape == (entry.dim,)
        box = np.asarray(entry.box)
        for point in (a, a + h):
            assert np.all(point >= box[:, 0] - 1e-12)
            assert np.all(point <= box[:, 1] + 1e-12)
        if entry.analytic:
            assert entry.d1_inf > 0 and entry.d2_inf >= 0
    assert not lookup("runge1d").analytic


def test_field_entry_refuses_a_partial_norm_set():
    exp = lookup("exp1d")
    norms = {"d1_inf": exp.d1_inf, "d2_inf": exp.d2_inf, "segment_bounds": exp.segment_bounds}

    def entry(**changes):
        fields = {"name": "e", "make": exp.make, "box": exp.box, **norms}
        return FieldEntry(**{**fields, **changes})

    assert entry().analytic and entry().dim == 1
    assert not entry(d1_inf=None, d2_inf=None, segment_bounds=None).analytic
    for missing in norms:
        with pytest.raises(ValueError, match="all three or none"):
            entry(**{missing: None})
    with pytest.raises(ValueError, match="all three or none"):
        entry(d1_inf=None, d2_inf=None)


def test_segment_is_the_box_diagonal():
    for entry in [*registry(), lookup("classP(beta=0.6)")]:
        lo, hi = np.array(entry.box, dtype=float).T
        a, h = entry.segment
        assert a.dtype == h.dtype == np.float64
        assert np.array_equal(a, lo) and np.array_equal(h, hi - lo)
    # each call builds fresh arrays, so no caller can change an entry's segment
    assert lookup("exp2d").segment[0] is not lookup("exp2d").segment[0]


def test_bare_name_resolves_to_1d_entry():
    assert lookup("exp") is lookup("exp1d")
    assert lookup("sin") is lookup("sin1d")


def test_unknown_name_lists_known_fields():
    with pytest.raises(UnknownFieldError, match="exp1d"):
        lookup("nosuch")
    # a ValueError, whose message prints as written; a KeyError's prints quoted
    assert issubclass(UnknownFieldError, ValueError)
    assert not issubclass(UnknownFieldError, KeyError)


def test_classp_lookup_is_parametric():
    entry = lookup("classP(beta=0.9)")
    assert entry.analytic
    assert entry.d2_inf == pytest.approx(math.exp(4.0 / (2 * 0.9 - 1.0)), rel=1e-12)


@pytest.mark.parametrize("beta", ["0.5", "oops", "nan"])
def test_classp_lookup_refuses_a_beta_not_above_one_half(beta):
    name = f"classP(beta={beta})"
    with pytest.raises(UnknownFieldError, match=re.escape(f"unknown field {name!r}; known: exp1d")):
        lookup(name)


def test_classp_lookup_rejects_beta_whose_exponential_overflows():
    # exp(4 / (2 beta - 1)) = exp(1000) at beta = 0.502 is beyond a float
    with pytest.raises(ValueError, match="smallest usable beta is 0.502818"):
        lookup("classP(beta=0.502)")
    entry = lookup("classP(beta=0.502818)")
    assert math.isfinite(entry.d1_inf) and entry.d1_inf > 0.0
    assert math.isfinite(entry.d2_inf) and math.isfinite(entry.segment_bounds.M1)


def test_known_names_mentions_parametric_family():
    assert known_names()[-1] == "classP(beta=<b>)"


def test_selftest_stays_below_tolerance():
    report = registry_selftest(seed=0)
    assert set(report) == {e.name for e in registry()}
    assert max(report.values()) < 1e-6


@pytest.mark.parametrize("name", ANALYTIC)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_analytic_segment_bounds_contain_remainder(name, m):
    entry = lookup(name)
    a, h = entry.segment
    rep = refined_expansion(entry.field(), a, h, m, bounds=entry.segment_bounds)
    assert rep.bound_lo - 1e-12 <= rep.remainder_eps <= rep.bound_hi + 1e-12


def test_quadratic_entries_have_tight_bounds():
    for name in ("quad1d", "quad2d", "quad3d"):
        entry = lookup(name)
        assert entry.segment_bounds.m2 == entry.segment_bounds.M2
        a, h = entry.segment
        rep = refined_expansion(entry.field(), a, h, 3, bounds=entry.segment_bounds)
        assert abs(rep.remainder_eps - rep.bound_lo) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sine_product_matches_row_products_bit_for_bit(dim):
    # the reference is the row-wise np.prod formula the column products replace
    freq = math.pi
    f = sine_product(dim, freq, "s")
    pts = np.random.default_rng(dim).uniform(-1.0, 2.0, (513, dim))
    s, c = np.sin(freq * pts), np.cos(freq * pts)
    grad = np.empty_like(pts)
    hess = np.empty((len(pts), dim, dim))
    for j in range(dim):
        g = s.copy()
        g[:, j] = c[:, j]
        grad[:, j] = np.prod(g, axis=1)
        for k in range(dim):
            h = s.copy()
            if j == k:
                h[:, j] = -s[:, j]
            else:
                h[:, j], h[:, k] = c[:, j], c[:, k]
            hess[:, j, k] = np.prod(h, axis=1)
    assert np.array_equal(f.value_at(pts), np.prod(s, axis=1))
    assert np.array_equal(f.grad_at(pts), freq * grad)
    assert np.array_equal(f.hess_at(pts), freq**2 * hess)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exp_entries_match_row_sums_bit_for_bit(dim):
    # the reference is the row-wise formula the column sums replace; mixed
    # magnitudes make every order of the additions but one differ somewhere
    f = lookup(f"exp{dim}d").field()
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((4096, dim)) * 10.0 ** rng.integers(-12, 3, (4096, dim))
    value = np.exp(pts.sum(axis=1))
    assert f.value_at(pts).tobytes() == value.tobytes()
    assert f.grad_at(pts).tobytes() == np.repeat(value[:, None], dim, axis=1).tobytes()
    assert f.hess_at(pts).tobytes() == (value[:, None, None] * np.ones((dim, dim))).tobytes()


# f' and f'' of each 1D analytic entry as functions of an mpmath interval x
_INTERVAL_DERIVATIVES = {
    "exp1d": (iv.exp, iv.exp),
    "sin1d": (iv.cos, lambda x: -iv.sin(x)),
    "quad1d": (lambda x: 2 * x, lambda x: 0 * x + 2),
    "cubic1d": (lambda x: 3 * x**2, lambda x: 6 * x),
    # f'' - rate f' = 1 with f'(0) = 0; rate = 4 / ((2 beta - 1) L) = 8 at beta = 0.75, L = 1
    "classP(beta=0.75)": (lambda x: (iv.exp(8 * x) - 1) / 8, lambda x: iv.exp(8 * x)),
}


@pytest.fixture
def iv_prec():
    # at 80 bits each certified bound lies far inside a float ulp of what it bounds
    saved = iv.prec
    iv.prec = 80
    yield
    iv.prec = saved


def _sup_enclosure(g, box):
    """(below, above) with below <= sup of g over the box <= above, both certified.

    g takes one interval per axis of the box, a sequence of (lo, hi) pairs.
    Branch and bound: g of a piece bounds g on it from above, and g at a point
    bounds the sup from below.  Pieces that cannot beat the best point value
    are dropped; the rest are halved along every axis until the two bounds
    agree to 1e-9.
    """
    below = max(g(*map(iv.mpf, corner)).a for corner in itertools.product(*box))
    pieces = [tuple(iv.mpf(list(side)) for side in box)]
    while True:
        tops = [g(*piece).b for piece in pieces]
        above = max(tops)
        if (above - below).b <= 1e-9 * abs(above) + 1e-15:
            return below, above
        halves = []
        for piece, top in zip(pieces, tops):
            if top > below:
                below = max(below, g(*(side.mid for side in piece)).a)
                halves += itertools.product(
                    *[(iv.mpf([side.a, side.mid]), iv.mpf([side.mid, side.b])) for side in piece])
        pieces = halves


def _assert_certified(claims, ulps=None):
    """Each (label, value, (below, above)) claim bounds its certified sup, validly and tightly.

    Valid to one ulp, or to ulps[label] where a claim is listed there; tight:
    at most 1e-6 above the certified sup.
    """
    for label, value, (below, above) in claims:
        assert above - (ulps or {}).get(label, 1) * math.ulp(value) <= value, label
        assert value <= below + (1e-6 * abs(value) + 1e-12), label


@pytest.mark.parametrize("name", sorted(_INTERVAL_DERIVATIVES))
def test_interval_derivatives_are_the_registry_fields(name, iv_prec):
    f = lookup(name).field()
    ((lo, hi),) = lookup(name).box
    x = np.linspace(lo, hi, 101)
    d1, d2 = _INTERVAL_DERIVATIVES[name]
    for form, values in [(d1, f.grad_at(x[:, None])[:, 0]), (d2, f.hess_at(x[:, None])[:, 0, 0])]:
        for t, value in zip(x, values):
            assert abs(value - float(form(iv.mpf(t)).mid)) <= 1e-13 * (1.0 + abs(value)), t


@pytest.mark.parametrize("name", sorted(_INTERVAL_DERIVATIVES))
def test_registry_norms_are_certified(name, iv_prec):
    entry = lookup(name)
    # in 1D the segment is the box run left to right (test_segment_is_the_box_diagonal),
    # so h/|h| = 1 and its normalised forms Df.h/|h| and D2f.(h, h)/|h|^2 are f' and f''
    sup = {}
    for key, g in zip(("d1", "d2"), _INTERVAL_DERIVATIVES[name]):
        sup[key] = _sup_enclosure(g, entry.box)
        sup["-" + key] = _sup_enclosure(lambda x, g=g: -g(x), entry.box)
    b = entry.segment_bounds
    # each value bounds a sup from above: m1 and m2 bound inf f' and inf f''
    # from below, so -m1 and -m2 bound sup -f' and sup -f''
    claims = [
        ("d1_inf", entry.d1_inf, tuple(map(max, sup["d1"], sup["-d1"]))),
        ("d2_inf", entry.d2_inf, tuple(map(max, sup["d2"], sup["-d2"]))),
        ("M1", b.M1, sup["d1"]),
        ("-m1", -b.m1, sup["-d1"]),
        ("M2", b.M2, sup["d2"]),
        ("-m2", -b.m2, sup["-d2"]),
    ]
    # valid to one ulp: exp1d's math.e lies 0.33 ulp below e, so its four
    # e-valued claims sit just under the certified sup; the gates' relative
    # slack of 1e-9 covers that, and rounding the constants up could move CSV bytes
    _assert_certified(claims)


# For each 2D and 3D analytic entry, as functions of mpmath intervals: |grad f|
# and the spectral norm of D2f at the point (x, y[, z]), then the segment's
# normalised forms Df.h/|h| and D2f.(h, h)/|h|^2 at a + t h.  Each box is the
# unit square or cube, so a = 0 and h = (1, ..., 1).  Constants are computed
# inside the functions, at the working precision.
def _iv_max(p, q):
    return iv.mpf([max(p.a, q.a), max(p.b, q.b)])


_INTERVAL_NORMS = {
    "quad2d": (
        lambda x, y: iv.sqrt((2 * x + y) ** 2 + (x + 2 * y) ** 2),
        lambda x, y: 0 * x + 3,  # D2f = [[2, 1], [1, 2]], eigenvalues 1 and 3
        lambda t: 3 * iv.sqrt(2) * t,
        lambda t: 0 * t + 3,
    ),
    "exp2d": (
        lambda x, y: iv.sqrt(2) * iv.exp(x + y),
        # exp(x + y) times the all-ones matrix, eigenvalues 2 exp(x + y) and 0
        lambda x, y: 2 * iv.exp(x + y),
        lambda t: iv.sqrt(2) * iv.exp(2 * t),
        lambda t: 2 * iv.exp(2 * t),
    ),
    "sinsin2d": (
        # cos(pi x) sin(pi y) and sin(pi x) cos(pi y) are half the difference
        # and half the sum of sin(pi (x + y)) and sin(pi (x - y))
        lambda x, y: iv.pi * iv.sqrt(
            (iv.sin(iv.pi * (x + y)) ** 2 + iv.sin(iv.pi * (x - y)) ** 2) / 2),
        # the eigenvalues are pi^2 cos(pi (x + y)) and -pi^2 cos(pi (x - y))
        lambda x, y: iv.pi**2 * _iv_max(abs(iv.cos(iv.pi * (x + y))),
                                        abs(iv.cos(iv.pi * (x - y)))),
        lambda t: iv.pi * iv.sin(2 * iv.pi * t) / iv.sqrt(2),
        lambda t: iv.pi**2 * iv.cos(2 * iv.pi * t),
    ),
    "quad3d": (
        lambda x, y, z: 2 * iv.sqrt(x**2 + y**2 + z**2),
        lambda x, y, z: 0 * x + 2,  # D2f = 2 I
        lambda t: 2 * iv.sqrt(3) * t,
        lambda t: 0 * t + 2,
    ),
    "exp3d": (
        lambda x, y, z: iv.sqrt(3) * iv.exp(x + y + z),
        # exp(x + y + z) times the all-ones matrix, eigenvalues 3 exp(x + y + z) and 0
        lambda x, y, z: 3 * iv.exp(x + y + z),
        lambda t: iv.sqrt(3) * iv.exp(3 * t),
        lambda t: 3 * iv.exp(3 * t),
    ),
}


def _at(form, point):
    return float(form(*(iv.mpf(float(c)) for c in point)).mid)


@pytest.mark.parametrize("name", sorted(_INTERVAL_NORMS))
def test_interval_norms_are_the_registry_fields(name, iv_prec):
    entry = lookup(name)
    f = entry.field()
    rng = np.random.default_rng(0)
    x = np.vstack([list(itertools.product((0.0, 1.0), repeat=entry.dim)), rng.random((100, entry.dim))])
    t = np.linspace(0.0, 1.0, 101)
    a, h = entry.segment
    hn = np.linalg.norm(h)
    seg = a + t[:, None] * h
    grad_norm, hess_norm, s1, s2 = _INTERVAL_NORMS[name]
    checks = [
        (grad_norm, x, np.linalg.norm(f.grad_at(x), axis=1)),
        (hess_norm, x, np.linalg.norm(f.hess_at(x), 2, axis=(1, 2))),
        (s1, t[:, None], f.grad_at(seg) @ h / hn),
        (s2, t[:, None], h @ f.hess_at(seg) @ h / hn**2),
    ]
    for form, points, values in checks:
        for point, value in zip(points, values):
            assert abs(value - _at(form, point)) <= 1e-13 * (1.0 + abs(value)), point


@pytest.mark.parametrize("name", sorted(_INTERVAL_NORMS))
def test_registry_norms_above_1d_are_certified(name, iv_prec):
    entry = lookup(name)
    grad_norm, hess_norm, s1, s2 = _INTERVAL_NORMS[name]
    unit = ((0.0, 1.0),)
    b = entry.segment_bounds
    claims = [
        ("d1_inf", entry.d1_inf, _sup_enclosure(grad_norm, entry.box)),
        ("d2_inf", entry.d2_inf, _sup_enclosure(hess_norm, entry.box)),
        ("M1", b.M1, _sup_enclosure(s1, unit)),
        ("-m1", -b.m1, _sup_enclosure(lambda t: -s1(t), unit)),
        ("M2", b.M2, _sup_enclosure(s2, unit)),
        ("-m2", -b.m2, _sup_enclosure(lambda t: -s2(t), unit)),
    ]
    # exp3d's sqrt(3) e^3 rounds 1.38 ulp below its value (math.e is 0.33 ulp
    # low, and the power and the product round too); as for exp1d, the gates'
    # slack covers that, and rounding it up would move the exp3d CSV bytes
    _assert_certified(claims, ulps={"d1_inf": 2, "M1": 2} if name == "exp3d" else None)
