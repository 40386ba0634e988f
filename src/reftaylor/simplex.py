"""Simplices, barycentric interpolation and conforming simplicial meshes.

A Simplex is a one-element Triangulation, so one class builds all element
geometry.  The degree-1 interpolant on a simplex S with vertices A_i is
pi(v)(P) = sum_i lambda_i(P) v(A_i).  At a size h its sup error admits two bounds,

    classical = |D2v|_inf / 2 * h^2
    refined   = |Dv|_inf / 2 * h + |D2v|_inf / 4 * h^2,

and neither dominates the other, so the useful bound is their minimum.
InterpBounds writes these formulas once: the CSV columns read them at the
largest element diameter (mesh_size), the gates and interp1d (a one-element
mesh) at the circumradius R, where they and pi*'s bound below hold.
Subtracting half the first-order mismatch at the vertices,

    pi*(v)(P) = pi(v)(P) - 1/2 sum_i lambda_i(P) Dv(A_i).(A_i - P),

cancels the averaged-derivative remainder: pi* reproduces quadratics exactly
and satisfies the curvature-only bound |D2v|_inf / 4 * h^2, half the
classical constant, so mesh_savings allows a sqrt(2) coarser mesh.  pi* is
quadratic on each element, and MeshInterpolant stores it as P2 vertex and
edge-midpoint values; MeshInterpolant(s, v, corrected) is pi or pi* on a
Simplex s as on a whole mesh, and fem.FemSolution evaluates through it too.
Elements sharing a face hold the same data on it, so the two-sided values
agree up to evaluation roundoff.
"""

import functools
import itertools
import math

import numpy as np

from .fields import DomainError, _require_integer

__all__ = [
    "GeometryError",
    "Simplex",
    "Triangulation",
    "InterpBounds",
    "mesh_savings",
    "MeshInterpolant",
    "uniform_mesh",
]

INSIDE_TOL = 1e-12  # slack on lambda_i >= 0 for closed-simplex membership


class GeometryError(ValueError):
    """Degenerate or non-conforming geometry."""


@functools.cache
def _edge_pairs(dim):
    """Vertex index pairs i < j of a dim-simplex, in lexicographic order, as a
    read-only (E, 2) array built once per dim."""
    pairs = np.array(list(itertools.combinations(range(dim + 1), 2)), dtype=int).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def _simplex_geometry(vertices, elements):
    """Volumes, diameters and barycentric matrices of the (M, n+1) elements.

    Row i of each (n+1, n+1) barycentric matrix maps (1, P) to lambda_i(P),
    so its columns 1: are the constant barycentric gradients.  The affine
    matrices [1; A^T] are filled one coordinate at a time; diameters (one
    vertex pair at a time) and volumes read their coordinate rows, so no
    vertex gather or difference tensor is held.  Degeneracy is measured
    against each simplex's scale: the volume must exceed 1e-12 * diameter^n.
    """
    n = vertices.shape[1]
    affine = np.ones((len(elements), n + 1, n + 1))
    for d in range(n):
        affine[:, d + 1, :] = vertices[elements, d]
    coords, squared = affine[:, 1:], np.zeros(len(elements))  # coords[k, d, i]: A_i's coordinate d
    for i, j in _edge_pairs(n):
        np.maximum(squared, ((coords[:, :, j] - coords[:, :, i]) ** 2).sum(axis=1), out=squared)
    diameters = np.sqrt(squared)
    # det reads the edge matrix with rows A_{i+1} - A_0, freed before inv runs
    volumes = np.abs(np.linalg.det((coords[:, :, 1:] - coords[:, :, :1]).transpose(0, 2, 1)))
    volumes /= math.factorial(n)
    bad = np.flatnonzero((diameters <= 0.0) | (volumes <= 1e-12 * diameters**n))
    if bad.size:
        k = bad[0]
        raise GeometryError(
            f"degenerate simplex {k}: volume {volumes[k]:.3e} vs "
            f"diameter^{n} {diameters[k] ** n:.3e}"
        )
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


class InterpBounds:
    """Sup-error bounds of linear interpolation at size h, plus their minimum.

    d1_inf and d2_inf bound the operator norms of Dv and D2v; certified
    inputs give certified bounds.  classical and refined bound pi, corrected
    bounds pi*.  All three hold at h = R, the radius of the smallest ball
    holding the element, so also at the diameter h = mesh_size.  On an
    interval of length L, R = L/2 gives the sharp Peano-kernel constants
    L^2/8 of pi and L^2/16 of pi*.
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
    A size that underflows to 0 or overflows is a ValueError naming it.
    """
    if not (eps > 0 and d2_inf > 0 and C > 0 and alpha > 0):
        raise ValueError("eps, d2_inf, C and alpha must all be positive")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    unit = InterpBounds(1.0, 0.0, d2_inf)
    h_classical = math.sqrt(alpha * eps / (C * unit.classical))
    h_corrected = math.sqrt(alpha * eps / (C * unit.corrected))
    for name, h in (("h_classical", h_classical), ("h_corrected", h_corrected)):
        if not 0.0 < h < math.inf:
            raise ValueError(
                f"{name} = {h} for eps={eps}, d2_inf={d2_inf}, C={C}, alpha={alpha}: "
                "not a positive finite mesh size"
            )
    node_factor = (h_classical / h_corrected) ** dim
    return {"h_classical": h_classical, "h_corrected": h_corrected, "node_factor": node_factor}


# --------------------------------------------------------------- meshes


class Triangulation:
    """Conforming simplicial mesh: shared vertex table plus index tuples.

    The element geometry is stacked once at construction, element k in
    row k: volumes (M,), diameters (M,) and bary_matrices (M, n+1, n+1),
    where row i of bary_matrices[k] maps (1, P) to lambda_i(P) on element k
    and its columns 1: are the barycentric gradients; mesh_size is the
    largest diameter.  A Simplex is the one-element case, and
    Simplex(vertices[elements[k]]) builds element k as one.  The face table
    is built on the first face_counts() call and the locate table on the
    first locate() call, and both are cached, so vertices, elements and
    bary_matrices are read-only.  The locate table stacks the barycentric
    rows as one ((n+1)*M, n+1) array, row i*M + k holding row i of
    bary_matrices[k], so one matrix-vector product with (1, P) gives every
    element's coordinates; the lowest containing index wins.
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
            self.vertices, self.elements)
        self.bary_matrices.flags.writeable = False
        self.mesh_size = float(self.diameters.max())
        self._faces = None
        self._locate_rows = None

    def __len__(self):
        return len(self.elements)

    def face_counts(self):
        """The (n-1)-face table (faces, counts), built once and cached.

        faces (F, n) holds sorted vertex indices in order of first appearance
        (elements in index order, each dropping vertex 0, 1, .., n in turn);
        counts (F,) is the number of elements sharing each face.
        """
        if self._faces is None:
            n = self.dim
            keep = [[c for c in range(n + 1) if c != drop] for drop in range(n + 1)]
            rows = np.sort(self.elements[:, keep], axis=2).reshape(-1, n)
            faces, _, counts = _unique_rows(rows)
            for table in (faces, counts):
                table.flags.writeable = False
            self._faces = faces, counts
        return self._faces

    def check_conforming(self):
        """Every face must bound one element (boundary) or two (interior)."""
        faces, counts = self.face_counts()
        over = np.flatnonzero(counts > 2)
        if over.size:
            f = over[0]
            raise GeometryError(
                f"face {tuple(faces[f].tolist())} shared by {counts[f]} elements"
            )

    def boundary_vertex_mask(self):
        """Vertices lying on a boundary face (a face owned by one element)."""
        faces, counts = self.face_counts()
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[faces[counts == 1].ravel()] = True
        return mask

    def locate(self, point):
        """Containing element of a point: every element tested, lowest index wins.

        Returns (element index, barycentric coordinates).  A point with some
        coordinate below -INSIDE_TOL on every element raises DomainError.
        """
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.dim:
            raise ValueError(f"point has dim {point.size}, mesh has {self.dim}")
        if self._locate_rows is None:
            self._locate_rows = self.bary_matrices.transpose(1, 0, 2).reshape(-1, self.dim + 1)
        # lam[i, k] = lambda_i(P) on element k, from one matrix-vector product
        lam = (self._locate_rows @ np.concatenate([[1.0], point])).reshape(self.dim + 1, -1)
        inside = np.minimum.reduce(lam, axis=0) >= -INSIDE_TOL
        # argmax finds the first True, or index 0 when there is none
        k = int(inside.argmax())
        if not inside[k]:
            raise DomainError(f"point {point.tolist()} lies outside the mesh")
        return k, lam[:, k]


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

    def random_points(self, rng, count):
        """Uniform samples inside the simplex (flat Dirichlet weights)."""
        w = rng.exponential(size=(count, self.dim + 1))
        w /= w.sum(axis=1, keepdims=True)
        return w @ self.vertices

    def __repr__(self):
        return f"Simplex(dim={self.dim}, diam={self.mesh_size:.3g})"


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


def _element_points(mesh, bary):
    """Points (M*Q, n) sum_i bary[q, i] A_i, element-major, added in vertex order."""
    return _combine(bary, mesh.vertices.take(mesh.elements, 0)).T.reshape(-1, mesh.dim)


class MeshInterpolant:
    """Continuous P1 or P2 Lagrange field on a mesh: pi_h, or pi*_h with corrected=True.

    coefs (M, nloc) holds each element's coefficients in _basis order.  pi_h
    stores v at the vertices.  pi*_h is quadratic on each element, so it is
    P2: the vertex values plus, on each edge A_i A_j, the cubic Hermite value
    (v_i + v_j)/2 - (Dv(A_i) - Dv(A_j)).(A_i - A_j)/8 at its midpoint.  That
    value is symmetric in i and j to the bit, so elements sharing an edge
    store the same one.  v is sampled once per mesh vertex, and each edge
    column is filled from those tables one edge at a time, so no (M, E, n)
    gather is built.  Evaluation is per element, so face points follow
    the point-location tie rule (lowest element index).

    values_at(points) evaluates a (P, n) block of points: it locates each
    point, then evaluates all P with one basis call and one stacked product.
    Calling the interpolant on one point is the one-row view of values_at.
    """

    def __init__(self, mesh, v, corrected=False):
        self.mesh = mesh
        self.space = "P2" if corrected else "P1"
        values = v.value_at(mesh.vertices)
        if not corrected:
            self.coefs = values[mesh.elements]
            return
        grads, x, elements = v.grad_at(mesh.vertices), mesh.vertices, mesh.elements
        pairs = _edge_pairs(mesh.dim)
        self.coefs = np.empty((len(elements), mesh.dim + 1 + len(pairs)))
        self.coefs[:, : mesh.dim + 1] = values[elements]
        for e, (i, j) in enumerate(pairs, start=mesh.dim + 1):
            a, b = elements[:, i], elements[:, j]
            dot = np.einsum("mn,mn->m", grads[a] - grads[b], x[a] - x[b])
            self.coefs[:, e] = 0.5 * (self.coefs[:, i] + self.coefs[:, j]) - dot / 8.0

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

    def values_at(self, points):
        """Values (P,) at the points of a (P, n) block, each located on the mesh.

        A point outside the mesh raises DomainError.
        """
        points = np.asarray(points, dtype=float)
        n = self.mesh.dim
        if points.ndim != 2 or points.shape[1] != n:
            raise ValueError(f"points must be a (P, {n}) block, got shape {points.shape}")
        ks = np.empty(len(points), dtype=int)
        lam = np.empty((len(points), n + 1))
        for i, p in enumerate(points):
            ks[i], lam[i] = self.mesh.locate(p)
        return self.eval_on_element(ks, lam[:, None, :])[:, 0]

    def __call__(self, point):
        return float(self.values_at(np.reshape(point, (1, -1)))[0])


def uniform_mesh(bounds, subdivisions):
    """Uniform mesh of a box: intervals, squares split in 2, cubes in 6.

    `bounds` holds one (lo, hi) pair per axis (a bare pair is a 1D box).
    The splits all use the same orientation, which keeps faces conforming;
    mesh_size equals the cell diagonal.  Cells are numbered with the last
    axis fastest, and each cell's elements are consecutive.
    """
    bounds = np.atleast_1d(np.asarray(bounds, dtype=float))
    bounds = bounds[None] if bounds.shape == (2,) else bounds
    dim = len(bounds)
    if dim not in (1, 2, 3):
        raise GeometryError(f"need 1, 2 or 3 (lo, hi) pairs, got {dim}")
    _require_integer("subdivisions", subdivisions, 1)
    if bounds.shape != (dim, 2):
        raise ValueError(f"bounds must be (lo, hi) pairs, got shape {bounds.shape}")
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
