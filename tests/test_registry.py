import math

import numpy as np
import pytest

from reftaylor.expansion import refined_expansion
from reftaylor.registry import (
    UnknownFieldError,
    known_names,
    lookup,
    registry,
    registry_selftest,
)

ANALYTIC = [e.name for e in registry() if e.analytic]


def test_static_names_present():
    names = [e.name for e in registry()]
    for expected in ("exp1d", "sin1d", "quad1d", "cubic1d", "runge1d",
                     "quad2d", "exp2d", "sinsin2d", "quad3d", "exp3d",
                     "classP(beta=0.75)"):
        assert expected in names


def test_entries_are_consistent():
    for entry in registry():
        assert entry.dim in (1, 2, 3)
        assert len(entry.box) == entry.dim
        a, h = entry.segment
        assert a.shape == h.shape == (entry.dim,)
        box = np.asarray(entry.box)
        for point in (a, a + h):
            assert np.all(point >= box[:, 0] - 1e-12)
            assert np.all(point <= box[:, 1] + 1e-12)
        if entry.analytic:
            assert entry.d1_inf > 0 and entry.d2_inf >= 0
            assert entry.segment_bounds is not None


def test_bare_name_resolves_to_1d_entry():
    assert lookup("exp") is lookup("exp1d")
    assert lookup("sin") is lookup("sin1d")


def test_unknown_name_lists_known_fields():
    with pytest.raises(UnknownFieldError, match="exp1d"):
        lookup("nosuch")


def test_classp_lookup_is_parametric():
    entry = lookup("classP(beta=0.9)")
    assert entry.analytic
    assert entry.d2_inf == pytest.approx(math.exp(4.0 / (2 * 0.9 - 1.0)), rel=1e-12)
    with pytest.raises(UnknownFieldError):
        lookup("classP(beta=0.5)")
    with pytest.raises(UnknownFieldError):
        lookup("classP(beta=oops)")


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
    report = registry_selftest(points_per_entry=10, seed=0)
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
