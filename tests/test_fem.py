"""Galerkin solves, error chains and the coarsening arithmetic."""

import math

import numpy as np
import pytest

import reftaylor.fem as fem
from reftaylor.fem import (
    EllipticProblem,
    SolverError,
    assemble_and_solve,
    cea_gap,
    estimate_report,
    h1_seminorm_error,
    l2_norm_error,
    poincare_constant,
    sine_problem,
)
from reftaylor.fields import ScalarField
from reftaylor.simplex import InterpBounds, Triangulation, mesh_savings, uniform_mesh

SINE_D1 = math.pi       # sup |grad u| for u = prod sin(pi x_i), dims 1 and 2
SINE_D2 = math.pi**2    # sup |D2 u| (spectral), both dims


def unit_box(dim):
    return [(0.0, 1.0)] * dim


def parabola_problem():
    # u = x(1-x), f = 2: polynomial data, so quadrature is exact too
    u = ScalarField(
        1,
        lambda pts: pts[:, 0] * (1 - pts[:, 0]),
        grad=lambda pts: 1 - 2 * pts,
        hess=lambda pts: np.full((len(pts), 1, 1), -2.0),
    )
    f = ScalarField(1, lambda pts: np.full(len(pts), 2.0))
    return EllipticProblem(1, f, exact_solution=u)


def zero_field(dim):
    return ScalarField(dim, lambda pts: np.zeros(len(pts)))


# ------------------------------------------------------------ constants


def test_poincare_constant_boxes():
    assert poincare_constant([(0.0, 1.0)]) == pytest.approx(1 / math.pi)
    assert poincare_constant([(0.0, 1.0), (0.0, 1.0)]) == pytest.approx(
        1 / (math.pi * math.sqrt(2))
    )
    assert poincare_constant([(0.0, 2.0)]) == pytest.approx(2 / math.pi)
    with pytest.raises(ValueError, match="lo < hi"):
        poincare_constant([(1.0, 1.0)])


def test_problem_default_constants():
    p = sine_problem(1)
    assert p.continuity == pytest.approx(2.0)
    assert p.ellipticity == pytest.approx(1.0 / (1.0 + 1.0 / math.pi**2))
    assert p.stability_factor == pytest.approx(p.continuity / p.ellipticity)
    # strong reaction: the min(diffusion, reaction) branch wins
    q = sine_problem(1, reaction=2.0)
    assert q.ellipticity == pytest.approx(1.0)
    assert q.continuity >= q.ellipticity
    # reaction above 1 + diffusion bounds the form: |a(u,v)| <= max(d, r) |u| |v|
    r = sine_problem(1, reaction=1000.0)
    assert r.continuity >= 1000.0
    assert r.ellipticity == pytest.approx(1.0)
    assert r.stability_factor == pytest.approx(1000.0)


def test_problem_validation():
    f = zero_field(1)
    with pytest.raises(ValueError, match="dim"):
        EllipticProblem(3, f)
    with pytest.raises(ValueError, match="diffusion"):
        EllipticProblem(1, f, diffusion=0.0)
    with pytest.raises(ValueError, match="reaction"):
        EllipticProblem(1, f, reaction=-1.0)
    with pytest.raises(ValueError, match="ellipticity"):
        EllipticProblem(1, f, ellipticity=-0.5)
    with pytest.raises(ValueError, match="below ellipticity"):
        EllipticProblem(1, f, continuity=0.1, ellipticity=0.5)


# --------------------------------------------------------------- solves


def test_p1_parabola_is_nodally_exact():
    p = parabola_problem()
    for k in (4, 8, 16):
        m = uniform_mesh([(0.0, 1.0)], 1, k)
        sol = assemble_and_solve(p, m, "P1")
        want = m.vertices[:, 0] * (1 - m.vertices[:, 0])
        np.testing.assert_allclose(sol.dof_values, want, atol=1e-12)
        # u_h equals the vertex interpolant, whose distance to the
        # parabola integrates in closed form
        assert sol.l2_error == pytest.approx(k**-2 / math.sqrt(30), rel=1e-10)


def test_p2_contains_parabola_exactly():
    p = parabola_problem()
    m = uniform_mesh([(0.0, 1.0)], 1, 8)
    sol = assemble_and_solve(p, m, "P2")
    assert sol.l2_error <= 1e-10
    assert sol.interp_l2_error <= 1e-12
    assert h1_seminorm_error(m, sol, p.exact_solution) <= 1e-10


def test_zero_rhs_gives_zero_solution():
    p = EllipticProblem(1, zero_field(1), exact_solution=zero_field(1))
    sol = assemble_and_solve(p, uniform_mesh([(0.0, 1.0)], 1, 16), "P1")
    assert np.abs(sol.dof_values).max() == 0.0
    assert sol.l2_error == 0.0


def test_dof_counts():
    m = uniform_mesh([(0.0, 1.0)], 1, 8)
    p = parabola_problem()
    assert len(assemble_and_solve(p, m, "P1").dof_values) == 9
    assert len(assemble_and_solve(p, m, "P2").dof_values) == 17
    m2 = uniform_mesh(unit_box(2), 2, 2)
    p2 = sine_problem(2)
    assert len(assemble_and_solve(p2, m2, "P1").dof_values) == 9
    # 9 vertices plus 2k(k+1) grid edges plus k^2 diagonals
    assert len(assemble_and_solve(p2, m2, "P2").dof_values) == 9 + 12 + 4


def test_p2_boundary_dofs_are_the_box_boundary():
    # the diagonals of the corner cells join two boundary vertices but are interior
    for dim, k in ((1, 4), (2, 3), (3, 2)):
        coords, _, bmask = fem._dof_tables(uniform_mesh(unit_box(dim), dim, k), "P2")
        on_box = np.any((np.abs(coords) < 1e-14) | (np.abs(coords - 1.0) < 1e-14), axis=1)
        np.testing.assert_array_equal(bmask, on_box)


def test_solution_is_callable_and_matches_dofs():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 1, 16)
    sol = assemble_and_solve(p, m, "P2")
    for i in (0, 5, 11):
        x = sol.dof_coords[i]
        assert sol(x) == pytest.approx(sol.dof_values[i], abs=1e-12)


def test_singular_system_raises():
    # a 1D vertex cycle has no boundary; with zero reaction nothing pins u
    m = Triangulation([[0.0], [1.0], [2.0]], [[0, 1], [1, 2], [2, 0]])
    p = EllipticProblem(1, zero_field(1))
    with pytest.raises(SolverError, match="singular"):
        assemble_and_solve(p, m, "P1")


def test_argument_validation():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 1, 4)
    with pytest.raises(ValueError, match="space"):
        assemble_and_solve(p, m, "P3")
    with pytest.raises(ValueError, match="does not match"):
        assemble_and_solve(sine_problem(2), m, "P1")


def test_cg_path_matches_dense():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 1, 32)
    dense = assemble_and_solve(p, m, "P1").dof_values
    limit, fem.DENSE_DOF_LIMIT = fem.DENSE_DOF_LIMIT, 4
    try:
        iterative = assemble_and_solve(p, m, "P1").dof_values
    finally:
        fem.DENSE_DOF_LIMIT = limit
    np.testing.assert_allclose(iterative, dense, atol=1e-9)


# ---------------------------------------------------------- convergence


def test_p1_convergence_1d():
    p = sine_problem(1)
    errs, hs = [], []
    for k in (8, 16, 32, 64, 128):
        m = uniform_mesh([(0.0, 1.0)], 1, k)
        sol = assemble_and_solve(p, m, "P1")
        errs.append(sol.l2_error)
        hs.append(m.mesh_size)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    ratios = [e / h**2 for e, h in zip(errs, hs)]
    assert max(ratios) / min(ratios) <= 1.2
    assert all(0.55 <= r <= 0.70 for r in ratios)
    # frozen reference run at 64 cells
    assert errs[3] == pytest.approx(1.555291e-04, rel=1e-5)


def test_p1_convergence_2d():
    p = sine_problem(2)
    errs, hs = [], []
    for k in (8, 16, 32):
        m = uniform_mesh(unit_box(2), 2, k)
        sol = assemble_and_solve(p, m, "P1")
        errs.append(sol.l2_error)
        hs.append(m.mesh_size)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    assert all(0.60 <= e / h**2 <= 0.75 for e, h in zip(errs, hs))


@pytest.mark.parametrize("dim,ks", [(1, (4, 8, 16, 32, 64)), (2, (4, 8, 16, 32))])
def test_p2_convergence_order(dim, ks):
    p = sine_problem(dim)
    errs, hs = [], []
    for k in ks:
        m = uniform_mesh(unit_box(dim), dim, k)
        errs.append(assemble_and_solve(p, m, "P2").l2_error)
        hs.append(m.mesh_size)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_p2_beats_p1_on_smooth_data():
    p = sine_problem(1, reaction=1.0)
    m = uniform_mesh([(0.0, 1.0)], 1, 16)
    e1 = assemble_and_solve(p, m, "P1").l2_error
    e2 = assemble_and_solve(p, m, "P2").l2_error
    assert e2 < e1 / 20


# -------------------------------------------------------------- L2 norms


def test_l2_norm_error_examples():
    m = uniform_mesh([(0.0, 1.0)], 1, 4)
    x_field = ScalarField(1, lambda pts: pts[:, 0])
    assert l2_norm_error(m, x_field, x_field) <= 1e-13
    assert l2_norm_error(m, zero_field(1), x_field) == pytest.approx(1 / math.sqrt(3))
    sq = uniform_mesh(unit_box(2), 2, 1)
    one = ScalarField(2, lambda pts: np.ones(len(pts)))
    assert l2_norm_error(sq, zero_field(2), one) == pytest.approx(1.0)


def test_h1_diagnostic_is_finite_and_reported():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 1, 16)
    sol = assemble_and_solve(p, m, "P1")
    d = h1_seminorm_error(m, sol, p.exact_solution)
    assert math.isfinite(d) and d >= 0.0


# ------------------------------------------------------------ the chains


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("space", ["P1", "P2"])
def test_cea_gap_holds(dim, space):
    p = sine_problem(dim)
    m = uniform_mesh(unit_box(dim), dim, 16)
    sol = assemble_and_solve(p, m, space)
    lhs, rhs = cea_gap(sol, p)
    assert lhs <= rhs


def test_cea_gap_trivial_when_u_in_space():
    p = parabola_problem()
    sol = assemble_and_solve(p, uniform_mesh([(0.0, 1.0)], 1, 8), "P2")
    lhs, _ = cea_gap(sol, p)
    assert lhs <= 1e-10


def test_cea_gap_needs_exact_solution():
    p = EllipticProblem(1, zero_field(1))
    sol = assemble_and_solve(p, uniform_mesh([(0.0, 1.0)], 1, 4), "P1")
    with pytest.raises(ValueError, match="exact"):
        cea_gap(sol, p)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("space", ["P1", "P2"])
def test_estimate_report_containments(dim, space):
    p = sine_problem(dim)
    for k in (8, 16):
        m = uniform_mesh(unit_box(dim), dim, k)
        rep = estimate_report(p, m, space, SINE_D1, SINE_D2)
        fac = p.stability_factor
        if space == "P1":
            interp_bound = min(rep.cea_rhs_classical, rep.cea_rhs_refined) / fac
            solution_bound = min(rep.cea_rhs_classical, rep.cea_rhs_refined)
        else:
            interp_bound = rep.cea_rhs_corrected / fac
            solution_bound = rep.cea_rhs_corrected
        assert rep.measured_interp_error <= interp_bound
        assert rep.measured_solution_error <= solution_bound
        # every chain is the one InterpBounds value, scaled
        scale = fac * math.sqrt(sum(m.volumes.tolist()))
        b = InterpBounds(m.mesh_size, SINE_D1, SINE_D2)
        assert rep.cea_rhs_classical == scale * b.classical
        assert rep.cea_rhs_refined == scale * b.refined
        assert rep.cea_rhs_corrected == scale * b.corrected


def test_corrected_rhs_is_half_classical():
    p = sine_problem(2)
    m = uniform_mesh(unit_box(2), 2, 8)
    rep = estimate_report(p, m, "P2", SINE_D1, SINE_D2)
    assert rep.cea_rhs_classical == pytest.approx(2.0 * rep.cea_rhs_corrected, rel=1e-15)


def test_corrected_rhs_quarters_when_h_halves():
    # the corrected right-hand side is (C/a) d2/4 h^2 sqrt(mu): pure h^2
    p = sine_problem(1)
    reps = [
        estimate_report(p, uniform_mesh([(0.0, 1.0)], 1, k), "P2", SINE_D1, SINE_D2)
        for k in (8, 16)
    ]
    assert reps[0].cea_rhs_corrected / reps[1].cea_rhs_corrected == pytest.approx(
        4.0, rel=1e-12
    )
    # the measured corrected-interpolant error decays at least that fast
    # (in practice faster, near h^3, which only widens the margin)
    assert reps[0].measured_interp_error / reps[1].measured_interp_error >= 3.5


def test_estimate_report_needs_exact_solution():
    p = EllipticProblem(1, zero_field(1))
    with pytest.raises(ValueError, match="exact"):
        estimate_report(p, uniform_mesh([(0.0, 1.0)], 1, 4), "P1", 1.0, 1.0)


def test_error_reports_reject_a_mesh_outside_the_problem_box():
    # the default ellipticity constant comes from the unit box's Poincare
    # constant (alpha 0.908); on [0, 2] the valid value is 0.712
    p = sine_problem(1)
    assert p.ellipticity == pytest.approx(1.0 / (1.0 + 1.0 / math.pi**2))
    wide = uniform_mesh([(0.0, 2.0)], 1, 8)
    with pytest.raises(ValueError, match="problem box"):
        estimate_report(p, wide, "P1", SINE_D1, SINE_D2)
    with pytest.raises(ValueError, match="problem box"):
        cea_gap(assemble_and_solve(p, wide, "P1"), p)
    inner = uniform_mesh([(0.25, 0.75)], 1, 4)
    lhs, rhs = cea_gap(assemble_and_solve(p, inner, "P1"), p)
    assert math.isfinite(lhs) and math.isfinite(rhs)


# ----------------------------------------------------------- mesh savings


def test_mesh_savings_ratio_is_sqrt2():
    rng = np.random.default_rng(43)
    for _ in range(20):
        eps, d2 = rng.uniform(1e-6, 1.0), rng.uniform(0.1, 50.0)
        C = rng.uniform(0.5, 10.0)
        alpha = rng.uniform(0.1, C)
        s = mesh_savings(eps, d2, C, alpha, int(rng.integers(1, 4)))
        assert s["h_corrected"] / s["h_classical"] == pytest.approx(
            math.sqrt(2.0), abs=1e-15
        )


def test_mesh_savings_values():
    s = mesh_savings(1e-2, 2.0, 2.0, 1.0, 3)
    assert s["h_classical"] == pytest.approx(math.sqrt(2 * 1e-2 / 4))
    assert s["h_corrected"] == pytest.approx(math.sqrt(4 * 1e-2 / 4))
    assert s["node_factor"] == pytest.approx(0.3536, abs=5e-5)
    assert mesh_savings(1e-2, 2.0, 2.0, 1.0, 1)["node_factor"] == pytest.approx(
        1 / math.sqrt(2)
    )
    assert mesh_savings(1e-2, 2.0, 2.0, 1.0, 2)["node_factor"] == pytest.approx(0.5)


def test_mesh_savings_validation():
    with pytest.raises(ValueError, match="positive"):
        mesh_savings(0.0, 1.0, 1.0, 1.0, 2)
    with pytest.raises(ValueError, match="positive"):
        mesh_savings(1e-2, -1.0, 1.0, 1.0, 2)
    with pytest.raises(ValueError, match="dim"):
        mesh_savings(1e-2, 1.0, 1.0, 1.0, 4)
