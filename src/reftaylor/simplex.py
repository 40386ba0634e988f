"""Simplices, barycentric interpolation and conforming simplicial meshes.

A Simplex is a one-element Triangulation, so one class builds all element
geometry.  The degree-1 interpolant on a simplex S with vertices A_i is
pi(v)(P) = sum_i lambda_i(P) v(A_i).  At a size h its sup error admits two bounds,

    classical = |D2v|_inf / 2 * h^2
    refined   = |Dv|_inf / 2 * h + |D2v|_inf / 4 * h^2,

and neither dominates the other, so the useful bound is their minimum.
InterpBounds writes these formulas once: a mesh reads them at its largest
element diameter (mesh_size), interp1d at an interval's circumradius.
Subtracting half the first-order mismatch at the vertices,

    pi*(v)(P) = pi(v)(P) - 1/2 sum_i lambda_i(P) Dv(A_i).(A_i - P),

cancels the averaged-derivative remainder: pi* reproduces quadratics exactly
and satisfies the curvature-only bound |D2v|_inf / 4 * h^2, half the
classical constant, so mesh_savings allows a sqrt(2) coarser mesh.  pi* is
quadratic on each element, and MeshInterpolant stores it as P2 vertex and
edge-midpoint values; pi_interp, pi_star_interp and fem.FemSolution all
evaluate through MeshInterpolant.  Elements sharing a face hold the same
data on it, so the two-sided values agree up to evaluation roundoff, which
face_jumps measures rather than assuming it away.
"""

import itertools
import math

import numpy as np

from .fields import DomainError

__all__ = [
    "GeometryError",
    "Simplex",
    "Triangulation",
    "InterpBounds",
    "pi_interp",
    "pi_star_interp",
    "mesh_savings",
    "MeshInterpolant",
    "uniform_mesh",
    "write_mesh_text",
    "read_mesh_text",
    "face_jumps",
]

INSIDE_TOL = 1e-12  # slack on lambda_i >= 0 for closed-simplex membership


class GeometryError(ValueError):
    """Degenerate or non-conforming geometry."""


def _edge_pairs(dim):
    """Vertex index pairs i < j of a dim-simplex, in lexicographic order, as an (E, 2) array."""
    return np.array(list(itertools.combinations(range(dim + 1), 2)), dtype=int).reshape(-1, 2)


def _simplex_geometry(verts):
    """Volumes, diameters and barycentric matrices of stacked simplices.

    verts is an (M, n+1, n) array.  Row i of each (n+1, n+1) barycentric
    matrix maps (1, P) to lambda_i(P), so its columns 1: are the constant
    barycentric gradients.  Degeneracy is measured against the scale of each
    simplex: the volume must exceed 1e-12 * diameter^n.
    """
    n = verts.shape[2]
    # each vertex pair once: the same sums the full (n+1)^2 difference tensor holds
    i, j = _edge_pairs(n).T
    diffs = verts[:, j] - verts[:, i]
    diameters = np.sqrt((diffs**2).sum(axis=2).max(axis=1))
    volumes = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / math.factorial(n)
    bad = np.flatnonzero((diameters <= 0.0) | (volumes <= 1e-12 * diameters**n))
    if bad.size:
        k = bad[0]
        raise GeometryError(
            f"degenerate simplex {k}: volume {volumes[k]:.3e} vs "
            f"diameter^{n} {diameters[k] ** n:.3e}"
        )
    # the inverse of the affine matrix [1; A^T] gives barycentric coordinates
    affine = np.ones((len(verts), n + 1, n + 1))
    affine[:, 1:, :] = verts.transpose(0, 2, 1)
    return volumes, diameters, np.linalg.inv(affine)


def _unique_rows(rows):
    """Distinct rows in order of first appearance, with each input row's
    index among them and the count of each.

    A stable lexicographic sort groups equal rows with the earliest one
    first, so each group's first sorted member is its first appearance.
    """
    order = np.lexsort(rows.T[::-1])
    grouped = rows[order]
    starts = np.flatnonzero(np.r_[True, (grouped[1:] != grouped[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(rows)])
    by_appearance = np.argsort(order[starts])
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(starts))
    inverse = np.empty(len(rows), dtype=int)
    inverse[order] = np.repeat(rank, counts)
    return rows[order[starts[by_appearance]]], inverse, counts[by_appearance]


def _view(s, v, point, corrected):
    # locate first, so a point outside s raises DomainError before v is read
    k, lam = s.locate(point)
    return float(MeshInterpolant(s, v, corrected).eval_on_element([k], lam[None])[0, 0])


def pi_interp(s, v, point):
    """Degree-1 interpolation sum_i lambda_i(P) v(A_i) on a Simplex s.

    Exact for affine v; a point outside s raises DomainError.
    """
    return _view(s, v, point, corrected=False)


def pi_star_interp(s, v, point):
    """Corrected interpolant: pi minus half the vertex-gradient mismatch.

    pi*(v)(P) = pi(v)(P) - 1/2 sum_i lambda_i(P) Dv(A_i).(A_i - P).
    Reproduces polynomials of degree <= 2 exactly.
    """
    return _view(s, v, point, corrected=True)


class InterpBounds:
    """Sup-error bounds of linear interpolation at size h, plus their minimum.

    d1_inf and d2_inf bound the operator norms of Dv and D2v; certified
    inputs give certified bounds.  classical and refined bound pi, corrected
    bounds pi*.  A mesh passes h = mesh_size, so the bounds hold on every
    element; interp1d passes the interval's circumradius, half its length.
    """

    __slots__ = ("classical", "refined", "corrected", "combined")

    def __init__(self, h, d1_inf, d2_inf):
        if not (d1_inf >= 0 and d2_inf >= 0):
            raise ValueError("operator-norm bounds must be nonnegative")
        self.classical = d2_inf / 2.0 * h**2
        self.refined = d1_inf / 2.0 * h + d2_inf / 4.0 * h**2
        self.corrected = d2_inf / 4.0 * h**2
        self.combined = min(self.classical, self.refined)

    def __repr__(self):
        return (
            f"InterpBounds(classical={self.classical:.3e}, refined={self.refined:.3e},"
            f" corrected={self.corrected:.3e}, combined={self.combined:.3e})"
        )


def mesh_savings(eps, d2_inf, C, alpha, dim):
    """Largest mesh sizes meeting a tolerance, classical versus corrected.

    Solves (C/alpha) * bound * h^2 = eps for the classical and corrected
    bounds of InterpBounds at h = 1.  The corrected constant is half the
    classical one, so h_corrected = sqrt(2) * h_classical for free, and a
    corrected build needs (h_classical/h_corrected)^dim = 2^(-dim/2) as many nodes.
    """
    if not (eps > 0 and d2_inf > 0 and C > 0 and alpha > 0):
        raise ValueError("eps, d2_inf, C and alpha must all be positive")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    unit = InterpBounds(1.0, 0.0, d2_inf)
    h_classical = math.sqrt(alpha * eps / (C * unit.classical))
    h_corrected = math.sqrt(alpha * eps / (C * unit.corrected))
    node_factor = (h_classical / h_corrected) ** dim
    return {"h_classical": h_classical, "h_corrected": h_corrected, "node_factor": node_factor}


# --------------------------------------------------------------- meshes


class Triangulation:
    """Conforming simplicial mesh: shared vertex table plus index tuples.

    The element geometry is stacked once at construction, element k in
    row k: volumes (M,), diameters (M,) and bary_matrices (M, n+1, n+1),
    where row i of bary_matrices[k] maps (1, P) to lambda_i(P) on element k
    and its columns 1: are the barycentric gradients; mesh_size is the
    largest diameter.  A Simplex is the one-element case, and simplex(k)
    builds element k as one on demand.  The face table is built on the
    first face_counts() call and cached, so vertices and elements are
    read-only copies.  locate tests every element at once; the lowest
    containing index wins.
    """

    def __init__(self, vertices, elements):
        self.vertices = np.array(vertices, dtype=float)
        self.elements = np.array(elements, dtype=int)
        if self.vertices.ndim != 2:
            raise GeometryError("vertices must be an (N, n) array")
        self.dim = self.vertices.shape[1]
        if self.dim not in (1, 2, 3):
            raise GeometryError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise GeometryError(
                f"elements must be (M, {self.dim + 1}) vertex indices"
            )
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= len(self.vertices):
            raise GeometryError("element index out of range")
        self.vertices.flags.writeable = False
        self.elements.flags.writeable = False
        self.volumes, self.diameters, self.bary_matrices = _simplex_geometry(
            self.vertices.take(self.elements, 0)
        )
        self.mesh_size = float(self.diameters.max())
        self._faces = None

    def __len__(self):
        return len(self.elements)

    def simplex(self, k):
        """Element k as a standalone Simplex."""
        return Simplex(self.vertices[self.elements[k]])

    def face_counts(self):
        """The (n-1)-face table (faces, counts, owners), built once and cached.

        faces (F, n) holds sorted vertex indices in order of first appearance
        (elements in index order, each dropping vertex 0, 1, .., n in turn);
        counts (F,) is the number of elements sharing each face and owners
        (F, 2) the lowest two of them, -1 where a face has only one.
        """
        if self._faces is None:
            n = self.dim
            keep = [[c for c in range(n + 1) if c != drop] for drop in range(n + 1)]
            rows = np.sort(self.elements[:, keep], axis=2).reshape(-1, n)
            faces, face_of, counts = _unique_rows(rows)
            # rows grouped by face, in element order within each group
            element_of = np.argsort(face_of, kind="stable") // (n + 1)
            first = np.cumsum(counts) - counts
            owners = np.full((len(faces), 2), -1)
            owners[:, 0] = element_of[first]
            shared = counts > 1
            owners[shared, 1] = element_of[first[shared] + 1]
            for table in (faces, counts, owners):
                table.flags.writeable = False
            self._faces = faces, counts, owners
        return self._faces

    def check_conforming(self):
        """Every face must bound one element (boundary) or two (interior)."""
        faces, counts, _ = self.face_counts()
        over = np.flatnonzero(counts > 2)
        if over.size:
            f = over[0]
            raise GeometryError(
                f"face {tuple(faces[f].tolist())} shared by {counts[f]} elements"
            )

    def boundary_vertex_mask(self):
        """Vertices lying on a boundary face (a face owned by one element)."""
        faces, counts, _ = self.face_counts()
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[faces[counts == 1].ravel()] = True
        return mask

    def locate(self, point, tol=INSIDE_TOL):
        """Containing element of a point: every element tested, lowest index wins.

        Returns (element index, barycentric coordinates).
        """
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.dim:
            raise ValueError(f"point has dim {point.size}, mesh has {self.dim}")
        lam = self.bary_matrices @ np.concatenate([[1.0], point])
        inside = np.flatnonzero(lam.min(axis=1) >= -tol)
        if not inside.size:
            raise DomainError(f"point {point.tolist()} lies outside the mesh")
        k = int(inside[0])
        return k, lam[k]


class Simplex(Triangulation):
    """Nondegenerate n-simplex in R^n, n in {1, 2, 3}: a one-element Triangulation.

    vertices is an (n+1, n) array.  Degeneracy is measured against the scale
    of the simplex: the volume must exceed 1e-12 * diameter^n.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise GeometryError(f"need n+1 vertices in R^n, got shape {v.shape}")
        super().__init__(v, [range(len(v))])

    @property
    def volume(self):
        return float(self.volumes[0])

    @property
    def diameter(self):
        return self.mesh_size

    @property
    def centroid(self):
        return self.vertices.mean(axis=0)

    @property
    def barycentric_gradients(self):
        """Constant gradients of the barycentric coordinates, shape (n+1, n)."""
        return self.bary_matrices[0][:, 1:]

    def barycentric(self, point):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.dim:
            raise ValueError(f"point has dim {point.size}, simplex has {self.dim}")
        return self.bary_matrices[0] @ np.concatenate([[1.0], point])

    def contains(self, point, tol=INSIDE_TOL):
        return bool(np.min(self.barycentric(point)) >= -tol)

    def random_points(self, rng, count):
        """Uniform samples inside the simplex (flat Dirichlet weights)."""
        w = rng.exponential(size=(count, self.dim + 1))
        w /= w.sum(axis=1, keepdims=True)
        return w @ self.vertices

    def __repr__(self):
        return f"Simplex(dim={self.dim}, diam={self.diameter:.3g})"


def _basis(space, bary):
    """Shape values (..., nloc) at barycentric points (..., n+1).

    P1 has the vertex shapes; P2 the vertex shapes, then the edge-midpoint
    shapes in _edge_pairs order.
    """
    bary = np.asarray(bary, dtype=float)
    if space == "P1":
        return bary
    i, j = _edge_pairs(bary.shape[-1] - 1).T
    return np.concatenate([bary * (2.0 * bary - 1.0), 4.0 * bary[..., i] * bary[..., j]], axis=-1)


def _basis_derivatives(space, bary):
    """D[..., l, i] = d(shape_l)/d(lambda_i) at barycentric points, (..., nloc, n+1)."""
    bary = np.asarray(bary, dtype=float)
    lead, nv = bary.shape[:-1], bary.shape[-1]
    if space == "P1":
        return np.broadcast_to(np.eye(nv), lead + (nv, nv))
    i, j = _edge_pairs(nv - 1).T
    edges = np.arange(nv, nv + len(i))
    D = np.zeros(lead + (nv + len(i), nv))
    D[..., range(nv), range(nv)] = 4.0 * bary - 1.0
    D[..., edges, i] = 4.0 * bary[..., j]
    D[..., edges, j] = 4.0 * bary[..., i]
    return D


def _combine(coef, table):
    """sum_b coef[..., b] * table[m, b, i], added in b order, as an (n, ..., M) array.

    coef is (..., B) and table (M, B, n).  Transposed to (M, ..., n) the result
    is bit-identical to np.einsum("...b,mbn->m...n", coef, table).
    """
    lead = coef.shape[:-1]
    coef = coef.reshape(-1, coef.shape[-1])[None, :, :, None]
    table = np.ascontiguousarray(table.transpose(2, 1, 0))[:, None]
    out = coef[:, :, 0] * table[:, :, 0]
    term = np.empty_like(out)
    for b in range(1, coef.shape[2]):
        out += np.multiply(coef[:, :, b], table[:, :, b], out=term)
    return out.reshape(table.shape[:1] + lead + table.shape[-1:])


class MeshInterpolant:
    """Continuous P1 or P2 Lagrange field on a mesh: pi_h, or pi*_h with corrected=True.

    coefs (M, nloc) holds each element's coefficients in _basis order.  pi_h
    stores v at the vertices.  pi*_h is quadratic on each element, so it is
    P2: the vertex values plus, on each edge A_i A_j, the cubic Hermite value
    (v_i + v_j)/2 - (Dv(A_i) - Dv(A_j)).(A_i - A_j)/8 at its midpoint.  That
    value is symmetric in i and j to the bit, so elements sharing an edge
    store the same one.  Evaluation is per element, so face points follow
    the point-location tie rule (lowest element index).
    """

    def __init__(self, mesh, v, corrected=False):
        self.mesh = mesh
        self.space = "P2" if corrected else "P1"
        self.coefs = v.value_at(mesh.vertices)[mesh.elements]
        if corrected:
            g, x = (t.take(mesh.elements, 0) for t in (v.grad_at(mesh.vertices), mesh.vertices))
            mids = [
                0.5 * (self.coefs[:, i] + self.coefs[:, j])
                - np.einsum("mn,mn->m", g[:, i] - g[:, j], x[:, i] - x[:, j]) / 8.0
                for i, j in _edge_pairs(mesh.dim)
            ]
            self.coefs = np.column_stack([self.coefs, *mids])

    def eval_on_element(self, ks, bary):
        """Values (K, Q) at barycentric points of the elements ks (K,).

        bary is (Q, n+1), shared by all K elements, or (K, Q, n+1).
        """
        return (_basis(self.space, bary) @ self.coefs[ks][:, :, None])[..., 0]

    def grad_on_element(self, ks, bary):
        """Gradients (K, Q, n) at barycentric points bary (Q, n+1) of the elements ks."""
        D = _basis_derivatives(self.space, bary)
        G = _combine(D, self.mesh.bary_matrices[ks, :, 1:]).transpose(3, 1, 2, 0)
        return np.einsum("kqln,kl->kqn", G, self.coefs[ks])

    def __call__(self, point):
        k, lam = self.mesh.locate(point)
        return float(self.eval_on_element([k], lam[None])[0, 0])


def face_jumps(mesh, interp, samples_per_face=8, rng=None):
    """Largest inter-element disagreement across interior faces.

    Samples points on every interior face and evaluates the interpolant from
    both adjacent elements.  Reports the measured jump; roundoff-level output
    is the expected confirmation that the interpolant is continuous.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    faces, counts, owners = mesh.face_counts()
    interior = counts == 2
    corners = mesh.vertices[faces[interior]]
    w = rng.exponential(size=(len(corners), samples_per_face, mesh.dim))
    w /= w.sum(axis=2, keepdims=True)
    points = w @ corners
    affine = np.concatenate([np.ones(points.shape[:2] + (1,)), points], axis=2)[..., None]
    vals = []
    for ks in owners[interior].T:
        lam = np.clip((mesh.bary_matrices[ks][:, None] @ affine)[..., 0], 0.0, None)
        lam /= lam.sum(axis=2, keepdims=True)
        # one point per evaluation, as the interpolant evaluates a located point
        vals.append(interp.eval_on_element(
            np.repeat(ks, samples_per_face), lam.reshape(-1, 1, mesh.dim + 1)))
    return float(np.max(np.abs(vals[0] - vals[1]), initial=0.0))


def uniform_mesh(bounds, dim, subdivisions):
    """Uniform mesh of a box: intervals, squares split in 2, cubes in 6.

    `bounds` is a per-axis (lo, hi) sequence (a single pair is fine in 1D).
    The splits all use the same orientation, which keeps faces conforming;
    mesh_size equals the cell diagonal.  Cells are numbered with the last
    axis fastest, and each cell's elements are consecutive.
    """
    if dim not in (1, 2, 3):
        raise GeometryError(f"dim must be 1, 2 or 3, got {dim}")
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    if bounds.shape != (dim, 2):
        raise ValueError(f"need {dim} (lo, hi) pairs, got shape {bounds.shape}")
    k = subdivisions
    axes = [np.linspace(lo, hi, k + 1) for lo, hi in bounds]
    grid = np.meshgrid(*axes, indexing="ij")
    vertices = np.column_stack([g.ravel() for g in grid])

    # the lowest vertex of every cell, and the vertex id step along each axis
    base = np.arange((k + 1) ** dim).reshape((k + 1,) * dim)[(slice(k),) * dim].ravel()
    strides = (k + 1) ** np.arange(dim - 1, -1, -1)
    if dim == 1:
        offsets = [[0, 1]]
    elif dim == 2:
        # lower-right and upper-left triangles
        offsets = [[0, strides[0], strides[0] + 1], [0, strides[0] + 1, 1]]
    else:
        # Kuhn split: one tetrahedron per monotone corner-to-corner path
        offsets = [
            np.cumsum([0, *strides[list(path)]])
            for path in itertools.permutations(range(3))
        ]
    elements = base[:, None, None] + np.asarray(offsets)[None]
    return Triangulation(vertices, elements.reshape(-1, dim + 1))


def write_mesh_text(mesh):
    """Plain-text mesh dump: 'v x [y [z]]' lines then 'e i0 .. in' lines."""
    lines = []
    for p in mesh.vertices:
        coords = " ".join(format(c, ".17g") for c in p)
        lines.append(f"v {coords}")
    for e in mesh.elements:
        lines.append("e " + " ".join(str(i) for i in e))
    return "\n".join(lines) + "\n"


def read_mesh_text(text):
    """Inverse of write_mesh_text."""
    vertices, elements = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *rest = line.split()
        if tag == "v":
            vertices.append([float(c) for c in rest])
        elif tag == "e":
            elements.append([int(i) for i in rest])
        else:
            raise ValueError(f"line {lineno}: unknown record {tag!r}")
    if not vertices or not elements:
        raise ValueError("mesh text needs both vertex and element records")
    return Triangulation(np.array(vertices), np.array(elements))
