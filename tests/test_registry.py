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


def _sup_enclosure(g, lo, hi):
    """(below, above) with below <= sup of g over [lo, hi] <= above, both certified.

    Branch and bound: g of a piece bounds g on it from above, and g at a point
    bounds the sup from below.  Pieces that cannot beat the best point value
    are dropped; the rest are halved until the two bounds agree to 1e-9.
    """
    below = max(g(iv.mpf(t)).a for t in (lo, hi))
    pieces = [iv.mpf([lo, hi])]
    while True:
        tops = [g(piece).b for piece in pieces]
        above = max(tops)
        if (above - below).b <= 1e-9 * abs(above) + 1e-15:
            return below, above
        halves = []
        for piece, top in zip(pieces, tops):
            if top > below:
                mid = piece.mid
                below = max(below, g(mid).a)
                halves += [iv.mpf([piece.a, mid]), iv.mpf([mid, piece.b])]
        pieces = halves


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
    ((lo, hi),) = entry.box
    # in 1D the segment is the box run left to right (test_segment_is_the_box_diagonal),
    # so h/|h| = 1 and its normalised forms Df.h/|h| and D2f.(h, h)/|h|^2 are f' and f''
    sup = {}
    for key, g in zip(("d1", "d2"), _INTERVAL_DERIVATIVES[name]):
        sup[key] = _sup_enclosure(g, lo, hi)
        sup["-" + key] = _sup_enclosure(lambda x, g=g: -g(x), lo, hi)
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
    for label, value, (below, above) in claims:
        # valid, to one ulp: exp1d's math.e lies 0.33 ulp below e, so its four
        # e-valued claims sit just under the certified sup; the gates' relative
        # slack of 1e-9 covers that, and rounding the constants up could move CSV bytes
        assert above - math.ulp(value) <= value, label
        # tight: at most 1e-6 above the certified sup
        assert value <= below + (1e-6 * abs(value) + 1e-12), label
