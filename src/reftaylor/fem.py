"""Lagrange finite elements for a model reaction-diffusion problem.

Solves -diffusion*Laplace(u) + reaction*u = f with homogeneous Dirichlet data
on the unit box in one and two dimensions, in P1 or P2 spaces.  The point is
not the solver, which is deliberately desk scale, but the error-estimate
chain around it: with continuity C and ellipticity alpha for the bilinear
form, the quasi-optimality constant C/alpha multiplies an interpolation
bound, and the three simplex.InterpBounds values (classical curvature-only,
refined slope+curvature, corrected) give three right-hand sides.  The
corrected chain carries half the classical constant, which buys a sqrt(2)
coarser mesh for the same tolerance (simplex.mesh_savings).

The problem's dimension is its right-hand side's, and C and alpha follow
from its coefficients, reported rather than certified: C = max(1 +
diffusion, reaction), which bounds the form since |a(u,v)| <=
max(diffusion, reaction) |u|_H1 |v|_H1, and alpha the better of
min(diffusion, reaction) and diffusion/(1 + poincare^2), with the unit
box's Poincare constant 1/(pi sqrt(dim)).  For finite diffusion > 0 and
reaction >= 0, the only ones accepted, both are positive and C >= alpha.

This module numbers the DOFs, assembles, solves and measures the norms.
FemSolution holds only the solve: it is a simplex.MeshInterpolant with the
solved DOF values as its coefficients, so it evaluates as pi_h and pi*_h
(stored as P2 midpoint values) do.  The error norms take any
MeshInterpolant and read its mesh.  estimate_report measures a solve's L2
quasi-optimality pair, a measurement and not Cea's lemma, which holds in
the energy norm.  It takes only a mesh that covers the unit box: the
manufactured solution vanishes on the box boundary, not inside it.

Systems of up to DENSE_DOF_LIMIT free DOFs are solved by dense LU, which
factors one Fortran-ordered copy of the matrix in place: LAPACK's order,
so its wrapper makes no second copy.  Larger systems go to the module's
cg, the loop of SciPy's scipy.sparse.linalg.cg repeated operation for
operation, so it gives the same bits without loading that package.
Every failed solve raises SolverError: a system with an inf or nan entry
(an overflowing coefficient makes one) before either solver runs, an
exactly singular dense factor, or a residual above RESIDUAL_RTOL.

Assembly accumulates shape gradients, local stiffness matrices and
quadrature points explicitly, one term at a time in a fixed order: the
order np.einsum adds the same products in.  That order keeps the outputs
bit-identical to the einsum formulas, and so the CSV tables byte-identical,
while the short contracted axes no longer pay for einsum's general loops.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse import coo_matrix

from .fields import ScalarField
from .quadrature import simplex_rule
from .registry import sine_product
from .simplex import InterpBounds, MeshInterpolant, _basis, _basis_derivatives, _combine
from .simplex import _edge_pairs, _unique_rows

__all__ = [
    "SolverError",
    "EllipticProblem",
    "FemSolution",
    "EstimateReport",
    "assemble_and_solve",
    "l2_norm_error",
    "h1_seminorm_error",
    "estimate_report",
    "sine_problem",
]

DENSE_DOF_LIMIT = 2000       # dense LU below, conjugate gradient above
RESIDUAL_RTOL = 1e-10        # relative residual accepted from either solver
CG_RTOL = 1e-12              # conjugate gradient stops below this relative residual


class SolverError(RuntimeError):
    """The discrete system could not be solved to tolerance."""


class EllipticProblem:
    """Model problem -diffusion*Laplace(u) + reaction*u = f, u = 0 on the boundary.

    The domain is the unit box of the right-hand side's dimension, 1 or 2.
    Its Poincare constant 1/(pi sqrt(dim)), the inverse square root of the
    first Dirichlet eigenvalue dim*pi^2, gives the ellipticity constant;
    continuity and ellipticity are the module's formulas in diffusion and
    reaction.  exact_solution, when present, must have the same dimension;
    it marks a manufactured problem and enables the error reports.
    """

    def __init__(self, rhs, diffusion=1.0, reaction=0.0, exact_solution=None):
        if rhs.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {rhs.dim}")
        if exact_solution is not None and exact_solution.dim != rhs.dim:
            raise ValueError(
                f"exact_solution has dim {exact_solution.dim}, the rhs has dim {rhs.dim}"
            )
        if not diffusion > 0:
            raise ValueError(f"diffusion must be positive, got {diffusion}")
        if not reaction >= 0:
            raise ValueError(f"reaction must be nonnegative, got {reaction}")
        if not (math.isfinite(diffusion) and math.isfinite(reaction)):
            raise ValueError(f"diffusion and reaction must be finite, got {diffusion}, {reaction}")
        self.dim = rhs.dim
        self.rhs = rhs
        self.diffusion = float(diffusion)
        self.reaction = float(reaction)
        self.exact_solution = exact_solution
        self.poincare = 1.0 / (math.pi * math.sqrt(self.dim))
        self.continuity = max(1.0 + self.diffusion, self.reaction)
        self.ellipticity = max(
            self.diffusion / (1.0 + self.poincare**2),
            min(self.diffusion, self.reaction),
        )

    @property
    def stability_factor(self):
        """Quasi-optimality factor C/alpha in front of interpolation bounds."""
        return self.continuity / self.ellipticity


# ------------------------------------------------------- DOF numbering


def _dof_tables(mesh, space):
    """Global DOF coordinates, element DOF indices, boundary DOF mask."""
    if space == "P1":
        return mesh.vertices, mesh.elements.copy(), mesh.boundary_vertex_mask()

    nv = len(mesh.vertices)
    ends = np.sort(mesh.elements[:, _edge_pairs(mesh.dim)], axis=2)
    edges, edge_of, _ = _unique_rows(ends.reshape(-1, 2))
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    coords = np.vstack([mesh.vertices, mids])
    elem_dofs = np.hstack([mesh.elements, nv + edge_of.reshape(len(mesh.elements), -1)])

    # an edge is on the boundary when it is an edge of a boundary face
    faces, counts = mesh.face_counts()
    boundary_edges = np.sort(faces[counts == 1][:, _edge_pairs(mesh.dim - 1)], axis=2)
    code = lambda e: e[..., 0] * nv + e[..., 1]
    bmask = np.zeros(nv + len(edges), dtype=bool)
    bmask[:nv] = mesh.boundary_vertex_mask()
    bmask[nv:] = np.isin(code(edges), code(boundary_edges))
    return coords, elem_dofs, bmask


class FemSolution(MeshInterpolant):
    """Galerkin solution, a MeshInterpolant whose coefficients are the solved DOF values."""

    def __init__(self, space, mesh, dof_values, elem_dofs, dof_coords):
        # MeshInterpolant.__init__ samples a field; here the solve gives the coefficients
        self.mesh = mesh
        self.space = space
        self.coefs = dof_values[elem_dofs]
        self.dof_values = dof_values
        self.dof_coords = dof_coords


# ------------------------------------------------------------- assembly
#
# The kernels keep the element index last, so every inner loop runs over all
# M elements rather than over a contracted axis of two to six terms.


def _stiffness(w, grads):
    """sum_q w_q sum_i grads[i, q, l, m] grads[i, q, k, m] as an (M, L, L) array.

    grads is (n, Q, L, M), as _combine builds it.  Each quadrature point's sum
    over i is formed first and then added to the total, the order of
    np.einsum("q,mqli,mqki->mlk", w, g, g) on g (M, Q, L, n); adding every
    (q, i) term straight into the total gives different bits.
    """
    n, Q, L, M = grads.shape
    stiff = np.zeros((L, L, M))
    acc = np.empty_like(stiff)
    term = np.empty_like(stiff)
    for q in range(Q):
        g = grads[:, q]
        np.multiply(w[q] * g[0, :, None], g[0, None, :], out=acc)
        for i in range(1, n):
            acc += np.multiply(w[q] * g[i, :, None], g[i, None, :], out=term)
        stiff += acc
    return stiff.transpose(2, 0, 1)


def _assemble(problem, mesh, space, elem_dofs, ndof):
    """Global stiffness-plus-mass matrix (CSR) and load vector over all DOFs."""
    bary, w = simplex_rule(mesh.dim)
    vols = mesh.volumes
    N, D = _basis(space, bary), _basis_derivatives(space, bary)

    local = problem.diffusion * _stiffness(w, _combine(D, mesh.bary_matrices[:, :, 1:]))
    if problem.reaction:
        mass_ref = np.einsum("q,ql,qk->lk", w, N, N)
        local = local + problem.reaction * mass_ref[None, :, :]
    local = local * vols[:, None, None]

    pts = _combine(bary, mesh.vertices.take(mesh.elements, 0)).T.reshape(-1, mesh.dim)
    fvals = problem.rhs.value_at(pts).reshape(len(vols), len(w))
    load = vols[:, None] * np.einsum("mq,q,ql->ml", fvals, w, N)

    nloc = elem_dofs.shape[1]
    rows = np.repeat(elem_dofs, nloc, axis=1).ravel()
    cols = np.tile(elem_dofs, (1, nloc)).ravel()
    A = coo_matrix((local.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    # bincount adds in input order, as np.add.at does, so b has the same bits
    b = np.bincount(elem_dofs.ravel(), weights=load.ravel(), minlength=ndof)
    return A, b


def _check_space(space):
    """Refuse any space but "P1" and "P2"; needs no mesh, so callers can check first."""
    if space not in ("P1", "P2"):
        raise ValueError(f"space must be 'P1' or 'P2', got {space!r}")


def cg(A, b, callback=None):
    """Conjugate gradient for a symmetric positive-definite A, from x = 0.

    The loop of scipy.sparse.linalg.cg (SciPy 1.17) with no preconditioner,
    rtol = CG_RTOL, atol = 0 and its default 10 * len(b) steps, operation
    for operation, so it returns the same bits and iteration count: np.dot
    inner products, the stop test norm(r) < CG_RTOL * norm(b) before each
    step, and A @ p as the product.  Returns (x, 0) on convergence, (b, 0)
    for b = 0 and (x, maxiter) when the steps run out; callback(x) follows
    each step.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b, 0
    atol = CG_RTOL * bnorm
    maxiter = 10 * len(b)
    x = np.zeros_like(b)
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(r, r)
        if iteration:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def assemble_and_solve(problem, mesh, space="P1"):
    """Assemble and solve the discrete system; checks the relative residual.

    Dirichlet DOFs are found from the mesh topology and eliminated.  Dense
    LU handles systems up to DENSE_DOF_LIMIT unknowns, factoring one
    Fortran-ordered copy of the matrix in place; the module's cg, which
    returns the bits of SciPy's, handles the rest.  A system with an inf or
    nan entry reaches neither solver, an exactly singular dense factor
    stops the solve, and either way the solve must reach RESIDUAL_RTOL:
    each failure raises SolverError rather than returning a silently bad
    solution.
    """
    _check_space(space)
    if mesh.dim != problem.dim:
        raise ValueError(f"mesh dim {mesh.dim} does not match problem dim {problem.dim}")
    mesh.check_conforming()

    coords, elem_dofs, bmask = _dof_tables(mesh, space)
    ndof = len(coords)
    free = ~bmask
    if not bmask.any() and problem.reaction == 0.0:
        raise SolverError("singular system: zero reaction and no boundary constraints")
    # an overflowing coefficient gives inf or nan entries, refused below without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        A, b = _assemble(problem, mesh, space, elem_dofs, ndof)

    A_ff = A[free][:, free]
    b_f = b[free]
    if not (np.isfinite(A_ff.data).all() and np.isfinite(b_f).all()):
        raise SolverError("the assembled system has an inf or nan entry")
    x = np.zeros(ndof)
    if free.any():
        n_free = int(free.sum())
        if n_free <= DENSE_DOF_LIMIT:
            # LAPACK works on Fortran order: a C-ordered array would be copied again.
            # An exactly zero pivot only warns, and lu_solve then gives inf and nan.
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                try:
                    x_f = lu_solve(lu_factor(A_ff.toarray(order="F"), overwrite_a=True), b_f)
                except LinAlgWarning as exc:
                    raise SolverError(f"dense factorization failed: {exc}") from None
        else:
            x_f, info = cg(A_ff, b_f)
            if info != 0:
                raise SolverError(f"conjugate gradient stopped with info={info}")
        resid = np.linalg.norm(A_ff @ x_f - b_f)
        scale = max(np.linalg.norm(b_f), np.linalg.norm(x_f), 1e-300)
        if not np.isfinite(x_f).all() or resid > RESIDUAL_RTOL * scale:
            raise SolverError(
                f"solver residual {resid:.3e} exceeds {RESIDUAL_RTOL:.0e} * {scale:.3e}"
            )
        x[free] = x_f
    return FemSolution(space, mesh, x, elem_dofs, coords)


# ------------------------------------------------------------- L2 errors


def _quadrature_norm(mesh, w, sq):
    """sqrt of sum_k volume_k * w . sq[k], summed in element order."""
    # one (1, Q) @ (Q,) dot product per element, then a running sum in element
    # order: the floating-point operations of an element-by-element loop
    total = np.cumsum(mesh.volumes * (sq[:, None, :] @ w)[:, 0])[-1]
    return math.sqrt(max(total, 0.0))


def l2_norm_error(approx, exact):
    """L2 distance from a MeshInterpolant (a FemSolution is one) to a field on its mesh.

    Elementwise Gauss quadrature of the squared mismatch, square-rooted; the
    rule is exact through degree 4, so P2-level integrands of polynomial
    fields carry no quadrature error.
    """
    mesh = approx.mesh
    bary, w = simplex_rule(mesh.dim)
    pts = bary @ mesh.vertices.take(mesh.elements, 0)
    approx_vals = approx.eval_on_element(np.arange(len(mesh)), bary)
    diff = exact.value_at(pts.reshape(-1, mesh.dim)).reshape(pts.shape[:2]) - approx_vals
    return _quadrature_norm(mesh, w, diff**2)


def h1_seminorm_error(approx, exact):
    """Gradient mismatch of a MeshInterpolant (u_h, pi_h or pi*_h) in L2, a diagnostic."""
    mesh = approx.mesh
    bary, w = simplex_rule(mesh.dim)
    pts = bary @ mesh.vertices.take(mesh.elements, 0)
    exact_grads = exact.grad_at(pts.reshape(-1, mesh.dim)).reshape(pts.shape)
    diff = exact_grads - approx.grad_on_element(np.arange(len(mesh)), bary)
    return _quadrature_norm(mesh, w, np.sum(diff**2, axis=2))


def _check_reportable(problem, mesh):
    """estimate_report needs an exact solution and a mesh covering the unit box.

    The exact solution vanishes on the box boundary only, so on part of the
    box the chains fail.  Vertices inside the box and a total volume of 1
    make the mesh cover it.
    """
    if problem.exact_solution is None:
        raise ValueError("estimate_report needs a manufactured exact solution")
    if np.any(mesh.vertices < 0.0) or np.any(mesh.vertices > 1.0):
        raise ValueError(f"mesh leaves the problem box [0, 1]^{problem.dim}")
    volume = float(mesh.volumes.sum())
    if abs(volume - 1.0) > 1e-12:
        raise ValueError(f"mesh of volume {volume:.6g} does not cover the problem box")


@dataclass(frozen=True)
class EstimateReport:
    """Measured errors next to the three a-priori right-hand sides."""

    h: float
    measured_solution_error: float
    measured_interp_error: float
    cea_rhs_classical: float
    cea_rhs_refined: float
    cea_rhs_corrected: float


def estimate_report(problem, mesh, space, d1_inf, d2_inf):
    """Solve and compare against the a-priori chains at mesh size h.

    The measured errors are the L2 distances from the exact solution u to
    the solution and to u's interpolant in the solution space (pi_h for P1,
    pi*_h for P2); the solution error against stability_factor times the
    interpolation error is the measured quasi-optimality pair.  d1_inf and
    d2_inf are the analytic sup norms of the exact solution's first and
    second derivatives over the domain; with sampled stand-ins
    the containment claims are only as good as the sampling.  Each chain is
    an InterpBounds value, taken at the largest element diameter
    h = mesh_size, times the stability factor C/alpha and sqrt of the domain
    measure mu: (C/a) * sqrt(mu) * bound.
    """
    _check_reportable(problem, mesh)
    b = InterpBounds(mesh.mesh_size, d1_inf, d2_inf)
    sol = assemble_and_solve(problem, mesh, space)
    u = problem.exact_solution
    interp = MeshInterpolant(mesh, u, corrected=(space == "P2"))
    scale = problem.stability_factor * math.sqrt(sum(mesh.volumes.tolist()))
    return EstimateReport(
        h=mesh.mesh_size,
        measured_solution_error=l2_norm_error(sol, u),
        measured_interp_error=l2_norm_error(interp, u),
        cea_rhs_classical=scale * b.classical,
        cea_rhs_refined=scale * b.refined,
        cea_rhs_corrected=scale * b.corrected,
    )


def sine_problem(dim, diffusion=1.0, reaction=0.0):
    """Manufactured product-of-sines problem on the unit box.

    u = prod_i sin(pi x_i) satisfies -Laplace(u) = dim * pi^2 * u, so the
    right-hand side is (diffusion * dim * pi^2 + reaction) * u.  Derivative
    sup norms over the box are pi and pi^2 in both dimensions.
    """
    scale = diffusion * dim * math.pi**2 + reaction
    exact = sine_product(dim, math.pi, f"sine{dim}d")
    rhs = ScalarField(dim, lambda pts: scale * exact.value_at(pts), name=f"sine{dim}d rhs")
    return EllipticProblem(rhs, diffusion=diffusion, reaction=reaction, exact_solution=exact)
