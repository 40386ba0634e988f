"""Galerkin solves, error chains and the coarsening arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix

import reftaylor.fem as fem
import reftaylor.simplex as simplex
from reftaylor.fem import (
    EllipticProblem,
    SolverError,
    assemble_and_solve,
    estimate_report,
    h1_seminorm_error,
    l2_norm_error,
    sine_problem,
)
from reftaylor.fields import ScalarField
from reftaylor.quadrature import simplex_rule
from reftaylor.simplex import (
    InterpBounds,
    MeshInterpolant,
    Triangulation,
    mesh_savings,
    uniform_mesh,
)

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
    return EllipticProblem(f, exact_solution=u)


def zero_field(dim):
    return ScalarField(dim, lambda pts: np.zeros(len(pts)))


# ------------------------------------------------------------ constants


def test_poincare_constant_boxes():
    # the first Dirichlet eigenvalue of the unit box is dim * pi^2
    assert sine_problem(1).poincare == 1 / math.pi
    assert sine_problem(2).poincare == pytest.approx(1 / (math.pi * math.sqrt(2)), rel=1e-15)


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
    assert EllipticProblem(zero_field(2)).dim == 2
    with pytest.raises(ValueError, match="dim must be 1 or 2, got 3"):
        EllipticProblem(zero_field(3))
    # before the dim came from the rhs, this pair passed and the solve failed on a reshape
    with pytest.raises(ValueError, match="exact_solution has dim 1, the rhs has dim 2"):
        EllipticProblem(sine_problem(2).rhs, exact_solution=sine_problem(1).exact_solution)
    with pytest.raises(ValueError, match="diffusion"):
        EllipticProblem(f, diffusion=0.0)
    with pytest.raises(ValueError, match="reaction"):
        EllipticProblem(f, reaction=-1.0)
    for name, match in [("diffusion", "diffusion"), ("reaction", "reaction")]:
        with pytest.raises(ValueError, match=match):
            EllipticProblem(f, **{name: math.nan})
    # a subnormal diffusion overflows C/alpha, which once gave a nan chain after the solve
    for diffusion in (1e-320, 5e-324):
        for reaction in (0.0, 1.0):
            with pytest.raises(ValueError, match="diffusion and reaction give a stability factor"):
                EllipticProblem(f, diffusion=diffusion, reaction=reaction)
    for diffusion in (1e-308, 1e-300):
        for reaction in (0.0, 1.0):
            p = EllipticProblem(f, diffusion=diffusion, reaction=reaction)
            assert math.isfinite(p.stability_factor)


@pytest.mark.parametrize("name", ["diffusion", "reaction"])
def test_problem_refuses_a_non_finite_coefficient(name):
    # diffusion=inf once gave a nan stability factor, and reaction=inf an infinite one
    with pytest.raises(ValueError, match="diffusion and reaction must be finite, got .*inf"):
        sine_problem(1, **{name: math.inf})


# --------------------------------------------------------------- solves


def test_p1_parabola_is_nodally_exact():
    p = parabola_problem()
    for k in (4, 8, 16):
        m = uniform_mesh([(0.0, 1.0)], k)
        sol = assemble_and_solve(p, m, "P1")
        want = m.vertices[:, 0] * (1 - m.vertices[:, 0])
        np.testing.assert_allclose(sol.dof_values, want, atol=1e-12)
        # u_h equals the vertex interpolant, whose distance to the
        # parabola integrates in closed form
        err = l2_norm_error(sol, p.exact_solution)
        assert err == pytest.approx(k**-2 / math.sqrt(30), rel=1e-10)


def test_p2_contains_parabola_exactly():
    p = parabola_problem()
    m = uniform_mesh([(0.0, 1.0)], 8)
    sol = assemble_and_solve(p, m, "P2")
    assert l2_norm_error(sol, p.exact_solution) <= 1e-10
    star = MeshInterpolant(m, p.exact_solution, corrected=True)
    assert l2_norm_error(star, p.exact_solution) <= 1e-12
    assert h1_seminorm_error(sol, p.exact_solution) <= 1e-10


def test_zero_rhs_gives_zero_solution():
    p = EllipticProblem(zero_field(1), exact_solution=zero_field(1))
    sol = assemble_and_solve(p, uniform_mesh([(0.0, 1.0)], 16), "P1")
    assert np.abs(sol.dof_values).max() == 0.0
    assert l2_norm_error(sol, p.exact_solution) == 0.0


def test_dof_counts():
    m = uniform_mesh([(0.0, 1.0)], 8)
    p = parabola_problem()
    assert len(assemble_and_solve(p, m, "P1").dof_values) == 9
    assert len(assemble_and_solve(p, m, "P2").dof_values) == 17
    m2 = uniform_mesh(unit_box(2), 2)
    p2 = sine_problem(2)
    assert len(assemble_and_solve(p2, m2, "P1").dof_values) == 9
    # 9 vertices plus 2k(k+1) grid edges plus k^2 diagonals
    assert len(assemble_and_solve(p2, m2, "P2").dof_values) == 9 + 12 + 4


def test_p2_boundary_dofs_are_the_box_boundary():
    # the diagonals of the corner cells join two boundary vertices but are interior
    for dim, k in ((1, 4), (2, 3), (3, 2)):
        coords, _, bmask = fem._dof_tables(uniform_mesh(unit_box(dim), k), "P2")
        on_box = np.any((np.abs(coords) < 1e-14) | (np.abs(coords - 1.0) < 1e-14), axis=1)
        np.testing.assert_array_equal(bmask, on_box)


def test_solution_is_callable_and_matches_dofs():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 16)
    sol = assemble_and_solve(p, m, "P2")
    for i in (0, 5, 11):
        x = sol.dof_coords[i]
        assert sol(x) == pytest.approx(sol.dof_values[i], abs=1e-12)


def test_singular_system_raises():
    # a 1D vertex cycle has no boundary; with zero reaction nothing pins u
    m = Triangulation([[0.0], [1.0], [2.0]], [[0, 1], [1, 2], [2, 0]])
    p = EllipticProblem(zero_field(1))
    with pytest.raises(SolverError, match="singular"):
        assemble_and_solve(p, m, "P1")


def _refused(name):
    def solver(*args, **kwargs):
        raise AssertionError(f"{name} ran on a system that should have been refused")
    return solver


def _inf_matrix(A, b):
    A.data[:] = math.inf
    return A, b


def _nan_load(A, b):
    b[:] = math.nan
    return A, b


# dense LU, then conjugate gradient for the same 7 free DOFs
@pytest.mark.parametrize("dense_limit", [2000, 0])
@pytest.mark.parametrize("inject", [_inf_matrix, _nan_load, None])
def test_non_finite_system_reaches_no_solver(monkeypatch, dense_limit, inject):
    # None: coefficients whose products overflow a float, with no numpy warning either
    p = sine_problem(1, diffusion=1e308, reaction=1e308) if inject is None else sine_problem(1)
    if inject is not None:
        assemble = fem._assemble
        monkeypatch.setattr(fem, "_assemble", lambda *args: inject(*assemble(*args)))
    monkeypatch.setattr(fem, "DENSE_DOF_LIMIT", dense_limit)
    for name in ("lu_factor", "lu_solve", "cg"):
        monkeypatch.setattr(fem, name, _refused(name))
    with pytest.raises(SolverError, match="the assembled system has an inf or nan entry"):
        assemble_and_solve(p, uniform_mesh([(0.0, 1.0)], 8), "P1")


@pytest.mark.parametrize("dim, dense_limit", [(1, 2000), (1, 0), (2, 2000), (2, 0)])
def test_power_of_two_scaling_keeps_the_solution_bits(monkeypatch, dim, dense_limit):
    monkeypatch.setattr(fem, "DENSE_DOF_LIMIT", dense_limit)
    mesh = uniform_mesh([(0.0, 1.0)] * dim, 8)
    for space in ("P1", "P2"):
        scaled = assemble_and_solve(sine_problem(dim, reaction=3.0), mesh, space)
        with monkeypatch.context() as m:
            m.setattr(fem, "_normalise", lambda *arrays: None)
            plain = assemble_and_solve(sine_problem(dim, reaction=3.0), mesh, space)
        assert np.array_equal(scaled.dof_values, plain.dof_values)


def test_singular_dense_factor_raises_solver_error(monkeypatch):
    # SciPy only warns (LinAlgWarning) on an exactly zero pivot; with the
    # suite's warnings as errors, the warning itself would escape instead
    assemble = fem._assemble

    def singular(*args):
        A, b = assemble(*args)
        return A * 0.0, b

    monkeypatch.setattr(fem, "_assemble", singular)
    with pytest.raises(SolverError, match="dense factorization failed"):
        assemble_and_solve(sine_problem(1), uniform_mesh([(0.0, 1.0)], 8), "P1")


def test_argument_validation():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 4)
    with pytest.raises(ValueError, match="space"):
        assemble_and_solve(p, m, "P3")
    with pytest.raises(ValueError, match="space must be 'P1' or 'P2', got 'p2'"):
        assemble_and_solve(p, m, "p2")
    with pytest.raises(ValueError, match="does not match"):
        assemble_and_solve(sine_problem(2), m, "P1")


def test_cg_path_matches_dense():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 32)
    dense = assemble_and_solve(p, m, "P1").dof_values
    limit, fem.DENSE_DOF_LIMIT = fem.DENSE_DOF_LIMIT, 4
    try:
        iterative = assemble_and_solve(p, m, "P1").dof_values
    finally:
        fem.DENSE_DOF_LIMIT = limit
    np.testing.assert_allclose(iterative, dense, atol=1e-9)


def _free_system(dim, space, k):
    """The sine problem's system on the free DOFs of the unit-box mesh with k subdivisions."""
    m = uniform_mesh(unit_box(dim), k)
    coords, elem_dofs, bmask = fem._dof_tables(m, space)
    A, b = fem._assemble(sine_problem(dim), m, space, elem_dofs, len(coords))
    free = ~bmask
    return A[free][:, free], b[free]


def _cg_pair(A, b, rtol):
    """fem.cg's and SciPy's (x, info, steps) on A x = b, SciPy at the given rtol."""
    from scipy.sparse.linalg import cg as scipy_cg

    ours, theirs = [], []
    x, info = fem.cg(A, b, callback=ours.append)
    x_ref, info_ref = scipy_cg(A, b, rtol=rtol, callback=theirs.append)
    return (x, info, len(ours)), (x_ref, info_ref, len(theirs))


# the two CG systems of the fem-sweep benchmark (3969 free DOFs each) and a 1D one
@pytest.mark.parametrize("dim, space, k", [(2, "P1", 64), (2, "P2", 32), (1, "P2", 300)])
def test_cg_matches_scipy_bitwise(dim, space, k):
    A, b = _free_system(dim, space, k)
    (x, info, steps), (x_ref, info_ref, steps_ref) = _cg_pair(A, b, fem.CG_RTOL)
    assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))
    assert info == info_ref == 0
    assert steps == steps_ref > 0


# with no tolerance the stop test never passes: both run their 10 * len(b) steps
@pytest.mark.parametrize("space, k", [("P1", 64), ("P2", 8)])
def test_cg_out_of_steps_matches_scipy_bitwise(monkeypatch, space, k):
    A, b = _free_system(1, space, k)
    monkeypatch.setattr(fem, "CG_RTOL", 0.0)
    (x, info, steps), (x_ref, info_ref, steps_ref) = _cg_pair(A, b, 0.0)
    assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))
    assert info == info_ref == steps == steps_ref == 10 * len(b)


def test_cg_of_a_zero_rhs_returns_it():
    A, _ = _free_system(1, "P1", 8)
    b = np.zeros(A.shape[0])
    calls = []
    x, info = fem.cg(A, b, callback=calls.append)
    assert x is b and info == 0 and calls == []


def test_dense_solve_keeps_one_copy_of_the_matrix():
    # the factorization works on the one Fortran-ordered copy: a C-ordered
    # array would be copied again by LAPACK's wrapper, two dense matrices in all
    p, m = sine_problem(2), uniform_mesh(unit_box(2), 32)
    n_free = 31**2
    assert n_free <= fem.DENSE_DOF_LIMIT
    assemble_and_solve(p, m, "P1")
    tracemalloc.start()
    try:
        assemble_and_solve(p, m, "P1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n_free**2 * 8


# ---------------------------------------------------- assembly kernels
#
# The kernels must return the bits of the einsum formulas they replaced,
# which live on here as the reference.

KERNEL_CASES = [(1, "P1"), (1, "P2"), (2, "P1"), (2, "P2")]


def _kernel_meshes(dim):
    """Uniform unit-box meshes and copies with every vertex moved up to h/5."""
    rng = np.random.default_rng(dim)
    for k in (1, 3, 16, 33):
        m = uniform_mesh(unit_box(dim), k)
        yield m
        shift = rng.uniform(-0.2 / k, 0.2 / k, m.vertices.shape)
        yield Triangulation(m.vertices + shift, m.elements)


def _reference_system(problem, mesh, space, elem_dofs, ndof):
    bary, w = simplex_rule(mesh.dim)
    N, D = simplex._basis(space, bary), simplex._basis_derivatives(space, bary)
    grads = np.einsum("qlb,mbn->mqln", D, mesh.bary_matrices[:, :, 1:])
    local = problem.diffusion * np.einsum("q,mqln,mqkn->mlk", w, grads, grads)
    if problem.reaction:
        local = local + problem.reaction * np.einsum("q,ql,qk->lk", w, N, N)[None, :, :]
    local = local * mesh.volumes[:, None, None]
    pts = np.einsum("qb,mbn->mqn", bary, mesh.vertices[mesh.elements]).reshape(-1, mesh.dim)
    fvals = problem.rhs.value_at(pts).reshape(len(mesh), len(w))
    load = mesh.volumes[:, None] * np.einsum("mq,q,ql->ml", fvals, w, N)
    nloc = elem_dofs.shape[1]
    rows = np.repeat(elem_dofs, nloc, axis=1).ravel()
    cols = np.tile(elem_dofs, (1, nloc)).ravel()
    A = coo_matrix((local.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    b = np.zeros(ndof)
    np.add.at(b, elem_dofs.ravel(), load.ravel())
    return A, b


@pytest.mark.parametrize("dim, space", KERNEL_CASES)
def test_assembly_kernels_match_einsum_bitwise(dim, space):
    bary, w = simplex_rule(dim)
    D = simplex._basis_derivatives(space, bary)
    for m in _kernel_meshes(dim):
        G0 = m.bary_matrices[:, :, 1:]
        verts = m.vertices[m.elements]
        grads = simplex._combine(D, G0)
        reference = np.einsum("qlb,mbn->mqln", D, G0)
        assert np.array_equal(grads.transpose(3, 1, 2, 0), reference)
        assert np.array_equal(
            fem._stiffness(w, grads), np.einsum("q,mqln,mqkn->mlk", w, reference, reference)
        )
        assert np.array_equal(simplex._combine(bary, verts).T, np.einsum("qb,mbn->mqn", bary, verts))


@pytest.mark.parametrize("dim, space", KERNEL_CASES)
def test_assembled_system_matches_einsum_bitwise(dim, space):
    # reaction > 0 adds the mass term to every local matrix
    problems = (sine_problem(dim), sine_problem(dim, diffusion=0.3, reaction=5.0))
    for m in _kernel_meshes(dim):
        coords, elem_dofs, _ = fem._dof_tables(m, space)
        ndof = len(coords)
        for p in problems:
            A, b = fem._assemble(p, m, space, elem_dofs, ndof)
            A_ref, b_ref = _reference_system(p, m, space, elem_dofs, ndof)
            assert np.array_equal(A.indptr, A_ref.indptr)
            assert np.array_equal(A.indices, A_ref.indices)
            assert np.array_equal(A.data, A_ref.data)
            assert np.array_equal(b, b_ref)


# ---------------------------------------------------------- convergence


def test_p1_convergence_1d():
    p = sine_problem(1)
    errs, hs = [], []
    for k in (8, 16, 32, 64, 128):
        m = uniform_mesh([(0.0, 1.0)], k)
        sol = assemble_and_solve(p, m, "P1")
        errs.append(l2_norm_error(sol, p.exact_solution))
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
        m = uniform_mesh(unit_box(2), k)
        sol = assemble_and_solve(p, m, "P1")
        errs.append(l2_norm_error(sol, p.exact_solution))
        hs.append(m.mesh_size)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    assert all(0.60 <= e / h**2 <= 0.75 for e, h in zip(errs, hs))


@pytest.mark.parametrize("dim,ks", [(1, (4, 8, 16, 32, 64)), (2, (4, 8, 16, 32))])
def test_p2_convergence_order(dim, ks):
    p = sine_problem(dim)
    errs, hs = [], []
    for k in ks:
        m = uniform_mesh(unit_box(dim), k)
        errs.append(l2_norm_error(assemble_and_solve(p, m, "P2"), p.exact_solution))
        hs.append(m.mesh_size)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_p2_beats_p1_on_smooth_data():
    p = sine_problem(1, reaction=1.0)
    m = uniform_mesh([(0.0, 1.0)], 16)
    e1 = l2_norm_error(assemble_and_solve(p, m, "P1"), p.exact_solution)
    e2 = l2_norm_error(assemble_and_solve(p, m, "P2"), p.exact_solution)
    assert e2 < e1 / 20


# -------------------------------------------------------------- L2 norms


def test_l2_norm_error_examples():
    m = uniform_mesh([(0.0, 1.0)], 4)
    x_field = ScalarField(1, lambda pts: pts[:, 0])
    zero = MeshInterpolant(m, zero_field(1))
    assert l2_norm_error(MeshInterpolant(m, x_field), x_field) <= 1e-13
    assert l2_norm_error(zero, x_field) == pytest.approx(1 / math.sqrt(3))
    sq = uniform_mesh(unit_box(2), 1)
    one = ScalarField(2, lambda pts: np.ones(len(pts)))
    assert l2_norm_error(MeshInterpolant(sq, zero_field(2)), one) == pytest.approx(1.0)


@pytest.mark.parametrize("space", ["P1", "P2"])
def test_fem_never_builds_the_locate_table(space):
    # FEM evaluates by element index, so only a locate() call may build the
    # ((n+1)*M, n+1) row table
    p = sine_problem(2)
    m = uniform_mesh(unit_box(2), 4)
    sol = assemble_and_solve(p, m, space)
    estimate_report(p, m, space, SINE_D1, SINE_D2)
    l2_norm_error(sol, p.exact_solution)
    assert m._locate_rows is None
    m.locate([0.3, 0.6])
    assert m._locate_rows.shape == (3 * len(m), 3)


def test_h1_diagnostic_is_finite_and_reported():
    p = sine_problem(1)
    m = uniform_mesh([(0.0, 1.0)], 16)
    sol = assemble_and_solve(p, m, "P1")
    d = h1_seminorm_error(sol, p.exact_solution)
    assert math.isfinite(d) and d >= 0.0


def test_pi_star_h1_error_falls_like_h_squared():
    # pi*_h is a P2 field, so its H1 error is O(h^2), the rate the energy chain needs
    u = sine_problem(2).exact_solution
    errors = []
    for k in (4, 8, 16, 32):
        m = uniform_mesh(unit_box(2), k)
        errors.append(h1_seminorm_error(MeshInterpolant(m, u, corrected=True), u))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(abs(r - 4.0) <= 0.1 for r in ratios), ratios


@pytest.mark.parametrize("dim", [1, 2])
def test_p1_solution_evaluates_as_the_vertex_interpolant_bitwise(dim):
    m = uniform_mesh(unit_box(dim), 6)
    u = sine_problem(dim).exact_solution
    values = u.value_at(m.vertices)
    sol = fem.FemSolution("P1", m, values, m.elements, m.vertices)
    interp = MeshInterpolant(m, u)
    bary, _ = simplex_rule(dim)
    ks = np.arange(len(m))
    rng = np.random.default_rng(dim)
    per_element = rng.dirichlet(np.ones(dim + 1), size=(len(m), 3))
    for lam in (bary, per_element):
        got = sol.eval_on_element(ks, lam)
        assert np.array_equal(got, interp.eval_on_element(ks, lam))
        # the plain vertex-value matmul, which keeps the P1 CSV bytes
        assert np.array_equal(got, (lam @ values[m.elements][:, :, None])[..., 0])
    assert np.array_equal(sol.grad_on_element(ks, bary), interp.grad_on_element(ks, bary))


# ------------------------------------------------------------ the chains


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("space", ["P1", "P2"])
def test_cea_gap_holds(dim, space):
    # the measured quasi-optimality pair: |u - u_h| against (C/alpha) |u - I_h u|, in L2
    p = sine_problem(dim)
    m = uniform_mesh(unit_box(dim), 16)
    rep = estimate_report(p, m, space, SINE_D1, SINE_D2)
    lhs, rhs = rep.measured_solution_error, p.stability_factor * rep.measured_interp_error
    assert lhs <= rhs


def test_cea_gap_trivial_when_u_in_space():
    p = parabola_problem()
    rep = estimate_report(p, uniform_mesh([(0.0, 1.0)], 8), "P2", 1.0, 2.0)
    assert rep.measured_solution_error <= 1e-10


def test_cea_gap_needs_exact_solution():
    # a problem without an exact solution solves, but cannot be measured
    p = EllipticProblem(zero_field(1))
    m = uniform_mesh([(0.0, 1.0)], 4)
    assemble_and_solve(p, m, "P1")
    with pytest.raises(ValueError, match="exact"):
        estimate_report(p, m, "P1", 1.0, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("space", ["P1", "P2"])
def test_estimate_report_containments(dim, space):
    p = sine_problem(dim)
    for k in (8, 16):
        m = uniform_mesh(unit_box(dim), k)
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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("space", ["P1", "P2"])
def test_report_errors_are_the_direct_l2_norms(dim, space):
    # the reports measure u - u_h and u - pi u, pi_h for P1 and pi*_h for P2
    p = sine_problem(dim)
    m = uniform_mesh(unit_box(dim), 6)
    u = p.exact_solution
    rep = estimate_report(p, m, space, SINE_D1, SINE_D2)
    sol = assemble_and_solve(p, m, space)
    interp_error = l2_norm_error(MeshInterpolant(m, u, corrected=(space == "P2")), u)
    assert rep.measured_solution_error == l2_norm_error(sol, u)
    assert rep.measured_interp_error == interp_error


def test_corrected_rhs_is_half_classical():
    p = sine_problem(2)
    m = uniform_mesh(unit_box(2), 8)
    rep = estimate_report(p, m, "P2", SINE_D1, SINE_D2)
    assert rep.cea_rhs_classical == pytest.approx(2.0 * rep.cea_rhs_corrected, rel=1e-15)


def test_corrected_rhs_quarters_when_h_halves():
    # the corrected right-hand side is (C/a) d2/4 h^2 sqrt(mu): pure h^2
    p = sine_problem(1)
    reps = [
        estimate_report(p, uniform_mesh([(0.0, 1.0)], k), "P2", SINE_D1, SINE_D2)
        for k in (8, 16)
    ]
    assert reps[0].cea_rhs_corrected / reps[1].cea_rhs_corrected == pytest.approx(
        4.0, rel=1e-12
    )
    # the measured corrected-interpolant error decays at least that fast
    # (in practice faster, near h^3, which only widens the margin)
    assert reps[0].measured_interp_error / reps[1].measured_interp_error >= 3.5


def test_estimate_report_needs_exact_solution():
    p = EllipticProblem(zero_field(1))
    with pytest.raises(ValueError, match="exact"):
        estimate_report(p, uniform_mesh([(0.0, 1.0)], 4), "P1", 1.0, 1.0)


def test_error_reports_reject_a_mesh_outside_the_problem_box():
    # the default ellipticity constant comes from the unit box's Poincare
    # constant (alpha 0.908); on [0, 2] the valid value is 0.712
    p = sine_problem(1)
    assert p.ellipticity == pytest.approx(1.0 / (1.0 + 1.0 / math.pi**2))
    wide = uniform_mesh([(0.0, 2.0)], 8)
    with pytest.raises(ValueError, match="problem box"):
        estimate_report(p, wide, "P1", SINE_D1, SINE_D2)
    # u does not vanish on the boundary of a mesh covering part of the box,
    # so the chains fail there (P1, k=64: lhs 0.500 against rhs 7.7e-5)
    for part in ([(0.25, 0.75)], [(0.0, 0.5)]):
        inner = uniform_mesh(part, 64)
        with pytest.raises(ValueError, match="does not cover the problem box"):
            estimate_report(p, inner, "P1", SINE_D1, SINE_D2)


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
    # each input is valid, but the size underflows to 0 or overflows to inf
    with pytest.raises(ValueError, match="h_classical = 0.0 for eps=1e-300, d2_inf=1e\\+300"):
        mesh_savings(1e-300, 1e300, 1.0, 1.0, 3)
    with pytest.raises(ValueError, match="h_classical = inf for eps=1e\\+300, d2_inf=1e-300"):
        mesh_savings(1e300, 1e-300, 1.0, 1.0, 3)
    with pytest.raises(ValueError, match="positive"):
        mesh_savings(1e-2, -1.0, 1.0, 1.0, 2)
    with pytest.raises(ValueError, match="dim"):
        mesh_savings(1e-2, 1.0, 1.0, 1.0, 4)
    for slot in range(4):
        args = [1e-2, 1.0, 1.0, 1.0]
        args[slot] = math.nan
        with pytest.raises(ValueError, match="positive"):
            mesh_savings(*args, 2)
