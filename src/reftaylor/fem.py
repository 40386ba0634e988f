"""Lagrange finite elements for a model reaction-diffusion problem.

Solves -diffusion*Laplace(u) + reaction*u = f with homogeneous Dirichlet data
on meshed boxes in one and two dimensions, in P1 or P2 spaces.  The point is
not the solver, which is deliberately desk scale, but the error-estimate
chain around it: with continuity C and ellipticity alpha for the bilinear
form, the quasi-optimality constant C/alpha multiplies an interpolation
bound, and the three simplex.InterpBounds values (classical curvature-only,
refined slope+curvature, corrected) give three right-hand sides.  The
corrected chain carries half the classical constant, which buys a sqrt(2)
coarser mesh for the same tolerance (simplex.mesh_savings).

C and alpha are inputs with documented defaults, reported rather than
certified: C = max(1 + diffusion, reaction), which bounds the form since
|a(u,v)| <= max(diffusion, reaction) |u|_H1 |v|_H1, and alpha the better of
min(diffusion, reaction) and diffusion/(1 + poincare^2).  Pass explicit
values when the defaults are too loose.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import cg

from .fields import ScalarField
from .quadrature import simplex_rule
from .registry import sine_product
from .simplex import InterpBounds, MeshInterpolant, _unique_rows

__all__ = [
    "SolverError",
    "EllipticProblem",
    "FemSolution",
    "EstimateReport",
    "poincare_constant",
    "assemble_and_solve",
    "l2_norm_error",
    "h1_seminorm_error",
    "cea_gap",
    "estimate_report",
    "sine_problem",
]

DENSE_DOF_LIMIT = 2000       # dense LU below, conjugate gradient above
RESIDUAL_RTOL = 1e-10        # relative residual accepted from either solver


class SolverError(RuntimeError):
    """The discrete system could not be solved to tolerance."""


def poincare_constant(bounds):
    """Poincare constant of a box with zero boundary values.

    For the box with side lengths L_i the first Dirichlet eigenvalue of the
    Laplacian is pi^2 sum(1/L_i^2), and the constant in |v| <= c |grad v|
    is its inverse square root.
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    lengths = bounds[:, 1] - bounds[:, 0]
    if np.any(lengths <= 0):
        raise ValueError("box bounds must satisfy lo < hi on every axis")
    return 1.0 / (math.pi * math.sqrt(float(np.sum(1.0 / lengths**2))))


class EllipticProblem:
    """Model problem -diffusion*Laplace(u) + reaction*u = f, u = 0 on the boundary.

    box gives the domain bounds used for the default ellipticity constant;
    it defaults to the unit box.  exact_solution, when present, marks a
    manufactured problem and enables the error reports.
    """

    def __init__(
        self,
        dim,
        rhs,
        diffusion=1.0,
        reaction=0.0,
        exact_solution=None,
        box=None,
        continuity=None,
        ellipticity=None,
    ):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if diffusion <= 0:
            raise ValueError(f"diffusion must be positive, got {diffusion}")
        if reaction < 0:
            raise ValueError(f"reaction must be nonnegative, got {reaction}")
        self.dim = dim
        self.rhs = rhs
        self.diffusion = float(diffusion)
        self.reaction = float(reaction)
        self.exact_solution = exact_solution
        if box is None:
            box = [(0.0, 1.0)] * dim
        self.box = np.atleast_2d(np.asarray(box, dtype=float))
        self.poincare = poincare_constant(self.box)

        if continuity is None:
            continuity = max(1.0 + self.diffusion, self.reaction)
        if ellipticity is None:
            ellipticity = max(
                self.diffusion / (1.0 + self.poincare**2),
                min(self.diffusion, self.reaction),
            )
        self.continuity = float(continuity)
        self.ellipticity = float(ellipticity)
        if self.ellipticity <= 0:
            raise ValueError("ellipticity constant must be positive")
        if self.continuity < self.ellipticity:
            raise ValueError(
                f"continuity {self.continuity} below ellipticity {self.ellipticity}"
            )

    @property
    def stability_factor(self):
        """Quasi-optimality factor C/alpha in front of interpolation bounds."""
        return self.continuity / self.ellipticity


# ------------------------------------------------------- Lagrange bases


def _edge_pairs(dim):
    return list(itertools.combinations(range(dim + 1), 2))


def _basis(space, dim, bary):
    """Shape values and barycentric derivatives at quadrature points.

    For bary of shape (..., dim+1) returns N of shape (..., nloc) and D of
    shape (..., nloc, dim+1) with D[..., l, i] = d(shape_l)/d(lambda_i);
    physical gradients follow by composing with the constant barycentric
    gradients of each element.
    """
    bary = np.asarray(bary, dtype=float)
    lead, nv = bary.shape[:-1], bary.shape[-1]
    if space == "P1":
        N = bary.copy()
        D = np.broadcast_to(np.eye(nv), lead + (nv, nv)).copy()
        return N, D
    pairs = _edge_pairs(dim)
    nloc = nv + len(pairs)
    N = np.empty(lead + (nloc,))
    D = np.zeros(lead + (nloc, nv))
    N[..., :nv] = bary * (2.0 * bary - 1.0)
    for i in range(nv):
        D[..., i, i] = 4.0 * bary[..., i] - 1.0
    for e, (i, j) in enumerate(pairs):
        N[..., nv + e] = 4.0 * bary[..., i] * bary[..., j]
        D[..., nv + e, i] = 4.0 * bary[..., j]
        D[..., nv + e, j] = 4.0 * bary[..., i]
    return N, D


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
    faces, counts, _ = mesh.face_counts()
    face_pairs = np.array(_edge_pairs(mesh.dim - 1), dtype=int).reshape(-1, 2)
    boundary_edges = np.sort(faces[counts == 1][:, face_pairs], axis=2)
    code = lambda e: e[..., 0] * nv + e[..., 1]
    bmask = np.zeros(nv + len(edges), dtype=bool)
    bmask[:nv] = mesh.boundary_vertex_mask()
    bmask[nv:] = np.isin(code(edges), code(boundary_edges))
    return coords, elem_dofs, bmask


class FemSolution:
    """Galerkin solution with its measured errors against the exact field.

    l2_error and interp_l2_error are NaN when no manufactured solution is
    attached; interp_l2_error compares the exact field with its plain
    vertex interpolant for P1 and the gradient-corrected one for P2.
    """

    def __init__(self, space, mesh, dof_values, elem_dofs, dof_coords, problem):
        self.space = space
        self.mesh = mesh
        self.dof_values = dof_values
        self.elem_dofs = elem_dofs
        self.dof_coords = dof_coords
        self.problem = problem
        self.l2_error = math.nan
        self.interp_l2_error = math.nan
        exact = problem.exact_solution
        if exact is not None:
            self.l2_error = l2_norm_error(mesh, self, exact)
            interp = MeshInterpolant(mesh, exact, corrected=(space == "P2"))
            self.interp_l2_error = l2_norm_error(mesh, interp, exact)

    def eval_on_element(self, ks, bary):
        """Values (K, Q) at barycentric points of the elements ks (K,).

        bary is (Q, n+1), shared by all K elements, or (K, Q, n+1).
        """
        N, _ = _basis(self.space, self.mesh.dim, bary)
        return (N @ self.dof_values[self.elem_dofs[ks]][:, :, None])[..., 0]

    def grad_on_element(self, ks, bary):
        """Gradients (K, Q, n) at barycentric points bary (Q, n+1) of the elements ks."""
        _, D = _basis(self.space, self.mesh.dim, bary)
        G = np.einsum("qlb,kbn->kqln", D, self.mesh.bary_matrices[ks, :, 1:])
        return np.einsum("kqln,kl->kqn", G, self.dof_values[self.elem_dofs[ks]])

    __call__ = MeshInterpolant.__call__


def assemble_and_solve(problem, mesh, space="P1"):
    """Assemble and solve the discrete system; checks the relative residual.

    Dirichlet DOFs are found from the mesh topology and eliminated.  Dense
    LU handles systems up to DENSE_DOF_LIMIT unknowns, conjugate gradient
    the rest; either way the solve must reach RESIDUAL_RTOL or SolverError
    is raised rather than returning a silently bad solution.
    """
    space = str(space).upper()
    if space not in ("P1", "P2"):
        raise ValueError(f"space must be 'P1' or 'P2', got {space!r}")
    if mesh.dim != problem.dim:
        raise ValueError(f"mesh dim {mesh.dim} does not match problem dim {problem.dim}")
    mesh.check_conforming()

    coords, elem_dofs, bmask = _dof_tables(mesh, space)
    ndof = len(coords)
    free = ~bmask
    if not bmask.any() and problem.reaction == 0.0:
        raise SolverError("singular system: zero reaction and no boundary constraints")

    bary, w = simplex_rule(mesh.dim)
    verts = mesh.vertices[mesh.elements]
    vols = mesh.volumes
    G0 = mesh.bary_matrices[:, :, 1:]
    N, D = _basis(space, mesh.dim, bary)

    grads = np.einsum("qlb,mbn->mqln", D, G0)
    local = problem.diffusion * np.einsum("q,mqln,mqkn->mlk", w, grads, grads)
    if problem.reaction:
        mass_ref = np.einsum("q,ql,qk->lk", w, N, N)
        local = local + problem.reaction * mass_ref[None, :, :]
    local = local * vols[:, None, None]

    pts = np.einsum("qb,mbn->mqn", bary, verts).reshape(-1, mesh.dim)
    fvals = problem.rhs.value_at(pts).reshape(len(vols), len(w))
    load = vols[:, None] * np.einsum("mq,q,ql->ml", fvals, w, N)

    nloc = elem_dofs.shape[1]
    rows = np.repeat(elem_dofs, nloc, axis=1).ravel()
    cols = np.tile(elem_dofs, (1, nloc)).ravel()
    A = coo_matrix((local.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    b = np.zeros(ndof)
    np.add.at(b, elem_dofs.ravel(), load.ravel())

    A_ff = A[free][:, free]
    b_f = b[free]
    x = np.zeros(ndof)
    if free.any():
        n_free = int(free.sum())
        if n_free <= DENSE_DOF_LIMIT:
            try:
                x_f = lu_solve(lu_factor(A_ff.toarray()), b_f)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"dense factorization failed: {exc}") from exc
        else:
            x_f, info = cg(A_ff, b_f, rtol=1e-12, maxiter=10 * n_free)
            if info != 0:
                raise SolverError(f"conjugate gradient stopped with info={info}")
        resid = np.linalg.norm(A_ff @ x_f - b_f)
        scale = max(np.linalg.norm(b_f), np.linalg.norm(x_f), 1e-300)
        if not np.isfinite(x_f).all() or resid > RESIDUAL_RTOL * scale:
            raise SolverError(
                f"solver residual {resid:.3e} exceeds {RESIDUAL_RTOL:.0e} * {scale:.3e}"
            )
        x[free] = x_f
    return FemSolution(space, mesh, x, elem_dofs, coords, problem)


# ------------------------------------------------------------- L2 errors


def _element_values(approx, mesh, bary, pts):
    if hasattr(approx, "eval_on_element"):
        return np.asarray(approx.eval_on_element(np.arange(len(mesh)), bary), dtype=float)
    return approx.value_at(pts.reshape(-1, mesh.dim)).reshape(pts.shape[:2])


def _quadrature_norm(mesh, w, sq):
    """sqrt of sum_k volume_k * w . sq[k], summed in element order."""
    # one (1, Q) @ (Q,) dot product per element, then a running sum in element
    # order: the floating-point operations of an element-by-element loop
    total = np.cumsum(mesh.volumes * (sq[:, None, :] @ w)[:, 0])[-1]
    return math.sqrt(max(total, 0.0))


def l2_norm_error(mesh, approx, exact):
    """Elementwise Gauss quadrature of the squared mismatch, square-rooted.

    approx may be anything with eval_on_element(ks, bary) over an element
    index array (see FemSolution) or a ScalarField;
    the rule is exact through degree 4, so P2-level integrands of polynomial
    fields carry no quadrature error.
    """
    bary, w = simplex_rule(mesh.dim)
    pts = bary @ mesh.vertices[mesh.elements]
    exact_vals = exact.value_at(pts.reshape(-1, mesh.dim)).reshape(pts.shape[:2])
    diff = exact_vals - _element_values(approx, mesh, bary, pts)
    return _quadrature_norm(mesh, w, diff**2)


def h1_seminorm_error(mesh, sol, exact):
    """Gradient mismatch in L2, a reported diagnostic with nothing asserted."""
    bary, w = simplex_rule(mesh.dim)
    pts = bary @ mesh.vertices[mesh.elements]
    exact_grads = exact.grad_at(pts.reshape(-1, mesh.dim)).reshape(pts.shape)
    diff = exact_grads - sol.grad_on_element(np.arange(len(mesh)), bary)
    return _quadrature_norm(mesh, w, np.sum(diff**2, axis=2))


def _check_reportable(problem, mesh, caller):
    """The error reports need an exact solution and a mesh inside problem.box."""
    if problem.exact_solution is None:
        raise ValueError(f"{caller} needs a manufactured exact solution")
    if np.any(mesh.vertices < problem.box[:, 0]) or np.any(mesh.vertices > problem.box[:, 1]):
        raise ValueError(f"{caller}: mesh leaves the problem box {problem.box.tolist()}")


def cea_gap(sol, problem):
    """Measured quasi-optimality pair (lhs, rhs).

    lhs is |u - u_h| in L2; rhs is (C/alpha) times the measured L2 distance
    from u to its interpolant in the solution space, the chain a Galerkin
    solution can never beat by more than the constants allow.
    """
    _check_reportable(problem, sol.mesh, "cea_gap")
    return sol.l2_error, problem.stability_factor * sol.interp_l2_error


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

    d1_inf and d2_inf are the analytic sup norms of the exact solution's
    first and second derivatives over the domain; with sampled stand-ins
    the containment claims are only as good as the sampling.  Each chain is
    an InterpBounds value, taken at the largest element diameter
    h = mesh_size, times the stability factor C/alpha and sqrt of the domain
    measure mu: (C/a) * sqrt(mu) * bound.
    """
    _check_reportable(problem, mesh, "estimate_report")
    b = InterpBounds(mesh.mesh_size, d1_inf, d2_inf)
    sol = assemble_and_solve(problem, mesh, space)
    scale = problem.stability_factor * math.sqrt(sum(mesh.volumes.tolist()))
    return EstimateReport(
        h=mesh.mesh_size,
        measured_solution_error=sol.l2_error,
        measured_interp_error=sol.interp_l2_error,
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
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    scale = diffusion * dim * math.pi**2 + reaction
    exact = sine_product(dim, math.pi, f"sine{dim}d")
    rhs = ScalarField(dim, lambda pts: scale * exact.value_at(pts), name=f"sine{dim}d rhs")
    return EllipticProblem(
        dim, rhs, diffusion=diffusion, reaction=reaction, exact_solution=exact
    )
