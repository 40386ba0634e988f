"""Simplex geometry, barycentric interpolation and uniform meshes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from reftaylor.fields import DomainError, ScalarField
from reftaylor.registry import lookup, registry
from reftaylor.simplex import (
    INSIDE_TOL,
    GeometryError,
    InterpBounds,
    MeshInterpolant,
    Simplex,
    Triangulation,
    _edge_pairs,
    _unique_rows,
    uniform_mesh,
)


def unit_triangle():
    return Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def quadratic_2d():
    return ScalarField(
        2,
        lambda p: 1 + 2 * p[:, 0] - p[:, 1] + 3 * p[:, 0] * p[:, 1] - p[:, 0] ** 2,
        grad=lambda p: np.column_stack([2 + 3 * p[:, 1] - 2 * p[:, 0], -1 + 3 * p[:, 0]]),
    )


def exp_sum(dim):
    return ScalarField(
        dim,
        lambda p: np.exp(p.sum(axis=1)),
        grad=lambda p: np.repeat(np.exp(p.sum(axis=1))[:, None], dim, axis=1),
    )


# ------------------------------------------------------------ geometry


def test_barycentric_centroid():
    _, lam = unit_triangle().locate([1 / 3, 1 / 3])
    np.testing.assert_allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_barycentric_interior_point():
    _, lam = unit_triangle().locate([0.5, 0.25])
    np.testing.assert_allclose(lam, [0.25, 0.5, 0.25], atol=1e-14)


def test_barycentric_partition_of_unity():
    rng = np.random.default_rng(3)
    tri = Simplex(rng.normal(size=(4, 3)))
    for p in rng.normal(size=(20, 3)):
        lam = tri.bary_matrices[0] @ np.r_[1.0, p]
        assert abs(lam.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(lam @ tri.vertices, p, atol=1e-12)


def test_barycentric_vertices_are_unit_rows():
    tri = unit_triangle()
    for i in range(3):
        _, lam = tri.locate(tri.vertices[i])
        want = np.zeros(3)
        want[i] = 1.0
        np.testing.assert_allclose(lam, want, atol=1e-14)


def test_simplex_measures():
    tri = unit_triangle()
    assert tri.mesh_size == pytest.approx(math.sqrt(2.0))
    assert tri.volumes[0] == pytest.approx(0.5)
    seg = Simplex([[1.0], [3.0]])
    assert seg.mesh_size == pytest.approx(2.0)
    assert seg.volumes[0] == pytest.approx(2.0)


def test_degenerate_simplex_rejected():
    with pytest.raises(GeometryError, match="degenerate"):
        Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(GeometryError):
        Simplex(np.zeros((3, 2)))


def test_contains_respects_tolerance():
    tri = unit_triangle()
    tri.locate([0.25, 0.25])
    tri.locate([0.0, -1e-13])
    with pytest.raises(DomainError):
        tri.locate([0.0, -1e-9])


def test_random_points_land_inside():
    tri = unit_triangle()
    pts = tri.random_points(np.random.default_rng(5), 200)
    for p in pts:
        tri.locate(p)


# ------------------------------------------------------- interpolation


def test_pi_reproduces_affine():
    tri = unit_triangle()
    f = ScalarField(2, lambda p: 3.0 - p[:, 0] + 2 * p[:, 1])
    pts = tri.random_points(np.random.default_rng(11), 25)
    np.testing.assert_allclose(MeshInterpolant(tri, f).values_at(pts), f.value_at(pts),
                               rtol=0.0, atol=1e-13)


def test_pi_square_at_centroid():
    # v = x^2: interpolant averages the vertex values 0, 1, 0
    tri = unit_triangle()
    f = ScalarField(2, lambda p: p[:, 0] ** 2)
    (got,) = MeshInterpolant(tri, f).values_at([[1 / 3, 1 / 3]])
    assert got == pytest.approx(1 / 3, abs=1e-14)
    assert got - f.value([1 / 3, 1 / 3]) == pytest.approx(2 / 9, abs=1e-14)


def test_pi_star_square_at_centroid():
    tri = unit_triangle()
    f = ScalarField(2, lambda p: p[:, 0] ** 2,
                    grad=lambda p: np.column_stack([2 * p[:, 0], np.zeros(len(p))]))
    (got,) = MeshInterpolant(tri, f, corrected=True).values_at([[1 / 3, 1 / 3]])
    assert got == pytest.approx(1 / 9, abs=1e-14)


def test_pi_star_reproduces_quadratics():
    rng = np.random.default_rng(19)
    for dim in (1, 2, 3):
        verts = rng.normal(size=(dim + 1, dim))
        try:
            s = Simplex(verts)
        except GeometryError:
            continue
        c0 = rng.normal()
        c1 = rng.normal(size=dim)
        A = rng.normal(size=(dim, dim))
        A = 0.5 * (A + A.T)
        f = ScalarField(
            dim,
            lambda p, c0=c0, c1=c1, A=A: c0 + p @ c1 + np.einsum("qi,ij,qj->q", p, A, p),
            grad=lambda p, c1=c1, A=A: c1 + 2.0 * p @ A,
        )
        scale = 1.0 + max(abs(f.value(v)) for v in s.vertices)
        pts = s.random_points(rng, 30)
        err = np.abs(MeshInterpolant(s, f, corrected=True).values_at(pts) - f.value_at(pts))
        assert np.all(err <= 1e-10 * scale)


def test_interp_outside_element_raises():
    tri = unit_triangle()
    f = ScalarField(2, lambda p: p[:, 0], grad=lambda p: np.repeat([[1.0, 0.0]], len(p), axis=0))
    with pytest.raises(DomainError, match="outside"):
        MeshInterpolant(tri, f).values_at([[0.7, 0.7]])
    with pytest.raises(DomainError, match="outside"):
        MeshInterpolant(tri, f, corrected=True).values_at([[-0.1, 0.2]])


# --------------------------------------------------------- error bounds


def test_bounds_unit_diameter_example():
    # diam 1, |D2v| = 2, |Dv| = 0: curvature-only data, refined halves classical
    seg = Simplex([[0.0], [1.0]])
    b = InterpBounds(seg.mesh_size, 0.0, 2.0)
    assert b.classical == pytest.approx(1.0)
    assert b.refined == pytest.approx(0.5)
    assert b.corrected == pytest.approx(0.5)
    assert b.combined == pytest.approx(0.5)


def test_corrected_is_half_classical():
    rng = np.random.default_rng(23)
    for _ in range(10):
        seg = Simplex([[0.0], [float(rng.uniform(0.1, 5.0))]])
        d1, d2 = rng.uniform(0.0, 4.0), rng.uniform(0.1, 4.0)
        b = InterpBounds(seg.mesh_size, d1, d2)
        assert b.corrected == pytest.approx(0.5 * b.classical, rel=1e-15)


def test_combined_picks_smaller_bound():
    seg = Simplex([[0.0], [1.0]])
    b = InterpBounds(seg.mesh_size, 10.0, 2.0)  # large slope: classical wins
    assert b.combined == b.classical == pytest.approx(1.0)
    b = InterpBounds(seg.mesh_size, 0.1, 2.0)  # small slope: refined wins
    assert b.combined == b.refined == pytest.approx(0.55)


def test_bounds_reject_negative_norms():
    with pytest.raises(ValueError, match="nonnegative"):
        InterpBounds(unit_triangle().mesh_size, -1.0, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        InterpBounds(unit_triangle().mesh_size, 1.0, -2.0)
    for d1, d2 in [(math.nan, 2.0), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="nonnegative"):
            InterpBounds(unit_triangle().mesh_size, d1, d2)


def test_measured_errors_sit_under_bounds():
    # exp(x+y) on the unit triangle with analytic sup norms over the element
    tri = unit_triangle()
    f = exp_sum(2)
    d1 = math.sqrt(2.0) * math.e
    d2 = 2.0 * math.e
    b = InterpBounds(tri.mesh_size, d1, d2)
    rng = np.random.default_rng(29)
    pts = tri.random_points(rng, 400)
    err_pi = np.max(np.abs(MeshInterpolant(tri, f).values_at(pts) - f.value_at(pts)))
    err_star = np.max(np.abs(MeshInterpolant(tri, f, True).values_at(pts) - f.value_at(pts)))
    assert err_pi <= b.classical
    assert err_pi <= b.combined
    assert err_star <= b.corrected


# --------------------------------------------------------------- meshes


def test_uniform_interval_mesh():
    m = uniform_mesh([(0.0, 1.0)], 4)
    assert len(m) == 4
    assert m.mesh_size == pytest.approx(0.25)
    m.check_conforming()
    assert np.array_equal(uniform_mesh([(0.0, 1.0)], np.int64(4)).vertices, m.vertices)


def test_uniform_square_mesh_counts():
    for k in (1, 2, 5):
        m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], k)
        assert len(m) == 2 * k * k
        assert m.mesh_size == pytest.approx(math.sqrt(2.0) / k)
        m.check_conforming()


def test_uniform_cube_mesh_counts():
    m = uniform_mesh([(0.0, 1.0)] * 3, 2)
    assert len(m) == 6 * 2**3
    assert m.mesh_size == pytest.approx(math.sqrt(3.0) / 2)
    m.check_conforming()
    assert sum(m.volumes) == pytest.approx(1.0)


def test_mesh_covers_box_volume():
    m = uniform_mesh([(0.0, 2.0), (-1.0, 1.0)], 3)
    assert sum(m.volumes) == pytest.approx(4.0)


def _nested_loop_elements(dim, k):
    """The element table of the original nested-loop uniform_mesh, kept as the reference."""
    if dim == 1:
        return [(i, i + 1) for i in range(k)]
    if dim == 2:
        vid = lambda i, j: i * (k + 1) + j
        elements = []
        for i in range(k):
            for j in range(k):
                a, b = vid(i, j), vid(i + 1, j)
                c, d = vid(i + 1, j + 1), vid(i, j + 1)
                elements.append((a, b, c))
                elements.append((a, c, d))
        return elements
    vid = lambda i, j, l: (i * (k + 1) + j) * (k + 1) + l
    paths = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    elements = []
    for i in range(k):
        for j in range(k):
            for l in range(k):
                corner = np.array([i, j, l])
                for perm in paths:
                    cell = [corner.copy()]
                    for axis in perm:
                        nxt = cell[-1].copy()
                        nxt[axis] += 1
                        cell.append(nxt)
                    elements.append(tuple(vid(*c) for c in cell))
    return elements


def test_uniform_mesh_matches_nested_loop_construction():
    # element order fixes the locate tie rule, the P2 DOF numbering and
    # the order in which element contributions are summed
    for dim in (1, 2, 3):
        for k in (1, 2, 3, 4):
            bounds = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)][:dim]
            m = uniform_mesh(bounds, k)
            axes = [np.linspace(lo, hi, k + 1) for lo, hi in bounds]
            np.testing.assert_array_equal(m.vertices, list(itertools.product(*axes)))
            np.testing.assert_array_equal(m.elements, _nested_loop_elements(dim, k))


def test_degenerate_mesh_element_rejected():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]
    with pytest.raises(GeometryError, match="degenerate simplex 1"):
        Triangulation(verts, [[0, 1, 2], [0, 1, 3]])


def test_stacked_geometry_equals_per_element_simplices():
    rng = np.random.default_rng(23)
    for dim in (1, 2, 3):
        base = uniform_mesh([(0.0, 1.0)] * dim, 3)
        shaken = base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape)
        m = Triangulation(shaken, base.elements)
        simplices = [Simplex(m.vertices[m.elements[k]]) for k in range(len(m))]
        assert np.array_equal(m.volumes, [s.volumes[0] for s in simplices])
        assert np.array_equal(m.diameters, [s.mesh_size for s in simplices])
        assert np.array_equal(
            m.bary_matrices[:, :, 1:], [s.bary_matrices[0, :, 1:] for s in simplices]
        )
        assert m.mesh_size == max(s.mesh_size for s in simplices)
        # a whole mesh takes the bounds at its largest element diameter
        assert InterpBounds(m.mesh_size, 1.5, 2.5).classical == 2.5 / 2.0 * m.mesh_size**2
        # and a Simplex is the one-element triangulation
        for s in simplices:
            assert isinstance(s, Triangulation) and len(s) == 1


def test_pairwise_diameters_match_full_difference_tensor():
    rng = np.random.default_rng(29)
    for dim in (1, 2, 3):
        base = uniform_mesh([(0.0, 1.0)] * dim, 4)
        m = Triangulation(base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape),
                          base.elements)
        verts = m.vertices[m.elements]
        diffs = verts[:, None, :, :] - verts[:, :, None, :]
        assert np.array_equal(m.diameters, np.sqrt((diffs**2).sum(axis=3).max(axis=(1, 2))))


def _unique_rows_by_np_unique(rows):
    # the np.unique(axis=0) formulation that _unique_rows replaced
    uniq, first, inverse, counts = np.unique(
        rows, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse.reshape(-1)], counts[order]


def _assert_same_tables(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_edge_pairs_built_once_and_read_only():
    for dim in (0, 1, 2, 3):
        pairs = _edge_pairs(dim)
        assert pairs is _edge_pairs(dim) and not pairs.flags.writeable
        assert pairs.shape == (math.comb(dim + 1, 2), 2)
        assert pairs.tolist() == [list(e) for e in itertools.combinations(range(dim + 1), 2)]


def test_unique_rows_matches_np_unique():
    rng = np.random.default_rng(41)
    for width in (1, 2, 3):
        for _ in range(30):
            # few distinct values, so most rows repeat
            rows = rng.integers(0, rng.integers(1, 6), size=(rng.integers(1, 200), width))
            _assert_same_tables(_unique_rows(rows), _unique_rows_by_np_unique(rows))


def _elements_with(mesh, face):
    """Indices of the elements having every vertex of face, in ascending order."""
    return np.flatnonzero(np.isin(mesh.elements, face).sum(axis=1) == len(face))


def test_face_tables_match_np_unique():
    for dim, k in ((2, 5), (3, 3)):
        m = uniform_mesh([(0.0, 1.0)] * dim, k)
        keep = [[c for c in range(dim + 1) if c != drop] for drop in range(dim + 1)]
        rows = np.sort(m.elements[:, keep], axis=2).reshape(-1, dim)
        faces, face_of, counts = _unique_rows_by_np_unique(rows)
        _assert_same_tables(_unique_rows(rows), (faces, face_of, counts))
        got_faces, got_counts = m.face_counts()
        assert np.array_equal(got_faces, faces) and np.array_equal(got_counts, counts)
        assert [len(_elements_with(m, face)) for face in faces] == counts.tolist()


def test_zero_subdivisions_rejected():
    with pytest.raises(ValueError, match="subdivisions"):
        uniform_mesh([(0.0, 1.0)], 0)


@pytest.mark.parametrize("subdivisions", [2.5, 2.0, np.float64(3.0), "4", True])
def test_non_integer_subdivisions_rejected(subdivisions):
    with pytest.raises(ValueError, match="subdivisions must be an integer, got "):
        uniform_mesh([(0.0, 1.0)], subdivisions)


def test_uniform_mesh_dimension_is_the_number_of_pairs():
    for dim in (1, 2, 3):
        assert uniform_mesh([(0.0, 1.0)] * dim, 2).dim == dim
    # a single bare pair is a 1D box
    bare, listed = uniform_mesh((0.0, 2.0), 4), uniform_mesh([(0.0, 2.0)], 4)
    assert np.array_equal(bare.vertices, listed.vertices)
    assert np.array_equal(bare.elements, listed.elements)
    for pairs in ([], [(0.0, 1.0)] * 4):
        with pytest.raises(GeometryError, match="need 1, 2 or 3"):
            uniform_mesh(pairs, 2)
    with pytest.raises(ValueError, match=r"\(lo, hi\) pairs"):
        uniform_mesh([(0.0, 0.5, 1.0)], 2)


def test_nonconforming_mesh_detected():
    # duplicating an element makes its shared vertex bound three segments
    verts = [[0.0], [1.0], [2.0]]
    elems = [[0, 1], [0, 1], [1, 2]]
    m = Triangulation(verts, elems)
    with pytest.raises(GeometryError, match="shared by 3"):
        m.check_conforming()


def on_unit_box_boundary(points):
    return np.any((np.abs(points) < 1e-14) | (np.abs(points - 1.0) < 1e-14), axis=1)


def test_boundary_vertex_mask():
    for dim, k in ((2, 2), (3, 3)):
        m = uniform_mesh([(0.0, 1.0)] * dim, k)
        np.testing.assert_array_equal(m.boundary_vertex_mask(), on_unit_box_boundary(m.vertices))


def test_locate_prefers_lowest_index():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 1)
    k, lam = m.locate([0.5, 0.5])  # on the shared diagonal of both triangles
    assert k == 0
    assert abs(lam.sum() - 1.0) <= 1e-12
    m1 = uniform_mesh([(0.0, 1.0)], 4)
    k, _ = m1.locate([0.25])  # endpoint shared by elements 0 and 1
    assert k == 0


def test_locate_outside_raises():
    m = uniform_mesh([(0.0, 1.0)], 4)
    with pytest.raises(DomainError, match="outside"):
        m.locate([1.5])


def _scan_locate(mesh, point):
    """Reference point location: the stacked (M, n+1, n+1) @ (1, P) product
    and a row minimum over each element's coordinates, lowest index first;
    None when no element contains the point."""
    lam = mesh.bary_matrices @ np.concatenate([[1.0], point])
    inside = np.flatnonzero(lam.min(axis=1) >= -INSIDE_TOL)
    return (int(inside[0]), lam[inside[0]]) if inside.size else None


def _probe_points(mesh, rng, count):
    """Random box points, vertices, edge midpoints and interior face points
    (the last three on element boundaries, where ties fall)."""
    n = mesh.dim
    faces, counts = mesh.face_counts()
    interior = faces[counts == 2]
    pick = lambda rows: rows[rng.choice(len(rows), size=min(count, len(rows)), replace=False)]
    ends = pick(mesh.elements[:, _edge_pairs(n)].reshape(-1, 2))
    corners = mesh.vertices[pick(interior)]
    w = rng.exponential(size=corners.shape[:2])
    w /= w.sum(axis=1, keepdims=True)
    return np.vstack([
        rng.random((count, n)),
        mesh.vertices[pick(np.arange(len(mesh.vertices)))],
        0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]]),
        np.einsum("fc,fcn->fn", w, corners),
    ])


def _beyond_boundary(mesh, rng, lam_out, count):
    """Points whose coordinate opposite a boundary face is lam_out, the rest
    of the weight spread evenly over that face's vertices."""
    faces, counts = mesh.face_counts()
    boundary = np.flatnonzero(counts == 1)
    rows = rng.choice(boundary, size=min(count, len(boundary)), replace=False)
    points = []
    for face in faces[rows]:
        (k,) = _elements_with(mesh, face)
        (opposite,) = set(mesh.elements[k].tolist()) - set(face.tolist())
        share = (1.0 - lam_out) / len(face)
        points.append(share * mesh.vertices[face].sum(axis=0) + lam_out * mesh.vertices[opposite])
    return np.array(points)


@pytest.mark.parametrize("dim,k", [(1, 5), (1, 8192), (2, 3), (2, 64), (3, 2), (3, 12)])
@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_locate_matches_stacked_scan_bitwise(dim, k, jitter):
    rng = np.random.default_rng(1000 * dim + k)
    m = uniform_mesh([(0.0, 1.0)] * dim, k)
    if jitter:
        # move interior vertices by up to jitter cell widths per axis
        verts = m.vertices.copy()
        inner = ~on_unit_box_boundary(verts)
        verts[inner] += rng.uniform(-jitter, jitter, verts[inner].shape) / k
        m = Triangulation(verts, m.elements)
    cases = [(p, True) for p in _beyond_boundary(m, rng, -INSIDE_TOL / 2, 4)]
    cases += [(p, False) for p in _beyond_boundary(m, rng, -2 * INSIDE_TOL, 4)]
    cases += [(p, True) for p in _probe_points(m, rng, 40)]
    for p, inside in cases:
        want = _scan_locate(m, p)
        assert (want is not None) == inside
        if not inside:
            with pytest.raises(DomainError, match="outside"):
                m.locate(p)
            continue
        got_k, got_lam = m.locate(p)
        assert got_k == want[0]
        assert np.array_equal(got_lam, want[1])


def test_cached_tables_rest_on_read_only_arrays():
    # the face and locate tables are built once, so their sources cannot change
    m = uniform_mesh([(0.0, 1.0)] * 2, 2)
    for source in (m.vertices, m.elements, m.bary_matrices):
        with pytest.raises(ValueError, match="read-only"):
            source[0] = 0


def test_locate_rejects_wrong_dimension():
    m = uniform_mesh([(0.0, 1.0)] * 2, 2)
    for p in ([0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(ValueError, match="point has dim"):
            m.locate(p)


# --------------------------------------------------- global interpolants


def test_global_interp_matches_elementwise():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 3)
    f = exp_sum(2)
    I = MeshInterpolant(m, f)
    Istar = MeshInterpolant(m, f, corrected=True)
    rng = np.random.default_rng(31)
    for p in rng.random((25, 2)):
        k, _ = m.locate(p)
        s = Simplex(m.vertices[m.elements[k]])
        assert I(p) == pytest.approx(MeshInterpolant(s, f)(p), abs=1e-13)
        assert Istar(p) == pytest.approx(MeshInterpolant(s, f, corrected=True)(p), abs=1e-13)


def test_global_pi_star_quadratic_exactness():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 3)
    f = quadratic_2d()
    I = MeshInterpolant(m, f, corrected=True)
    rng = np.random.default_rng(37)
    scale = 1.0 + np.max(np.abs(f.value_at(m.vertices)))
    for p in rng.random((50, 2)):
        assert abs(I(p) - f.value(p)) <= 1e-10 * scale


def test_interpolants_match_vertex_values():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2)
    f = exp_sum(2)
    for interp in (MeshInterpolant(m, f), MeshInterpolant(m, f, corrected=True)):
        for p in m.vertices:
            assert interp(p) == pytest.approx(f.value(p), abs=1e-12)


def test_corrected_interp_agrees_across_shared_diagonal():
    def jump(I, ks, p):
        # the values at p from each element of ks, as a located point is evaluated
        vals = []
        for k in ks:
            lam = np.clip(I.mesh.bary_matrices[k] @ np.r_[1.0, p], 0.0, None)
            lam /= lam.sum()
            vals.append(float(I.eval_on_element([k], lam.reshape(1, -1))[0, 0]))
        return abs(vals[0] - vals[1])

    # v = xy on the two-triangle unit square, probed along the diagonal
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 1)
    f = ScalarField(
        2,
        lambda p: p[:, 0] * p[:, 1],
        grad=lambda p: p[:, ::-1],
    )
    I = MeshInterpolant(m, f, corrected=True)
    for t in np.linspace(0.0, 1.0, 100):
        assert jump(I, (0, 1), np.array([t, t])) <= 1e-13

    # exp(x + y) on the k=3 square, plain and corrected, at points on every
    # interior face, from the two elements that share it
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 3)
    faces, counts = m.face_counts()
    w = np.random.default_rng(0).exponential(size=(8, 2))
    w /= w.sum(axis=1, keepdims=True)
    for corrected in (False, True):
        I = MeshInterpolant(m, exp_sum(2), corrected)
        for face in faces[counts == 2]:
            for p in w @ m.vertices[face]:
                assert jump(I, _elements_with(m, face), p) <= 1e-12


def test_corrected_mesh_interp_beats_plain_on_smooth_field():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 4)
    f = exp_sum(2)
    I = MeshInterpolant(m, f)
    Istar = MeshInterpolant(m, f, corrected=True)
    rng = np.random.default_rng(41)
    pts = rng.random((300, 2))
    err = max(abs(I(p) - f.value(p)) for p in pts)
    err_star = max(abs(Istar(p) - f.value(p)) for p in pts)
    assert err_star < 0.5 * err


_VALUES_AT_MESHES = pytest.mark.parametrize("dim, k", [(1, 6), (2, 4), (3, 2)])


@_VALUES_AT_MESHES
@pytest.mark.parametrize("corrected", [False, True])
def test_values_at_rows_equal_one_point_calls_bitwise(dim, k, corrected):
    m = uniform_mesh([(0.0, 1.0)] * dim, k)
    I = MeshInterpolant(m, exp_sum(dim), corrected)
    pts = _probe_points(m, np.random.default_rng(67 + dim), 10)
    values = I.values_at(pts)
    assert values.shape == (len(pts),)
    per_point = []
    for i, p in enumerate(pts):
        assert values[i] == I.values_at(pts[i : i + 1])[0] == I(p)
        e, lam = m.locate(p)
        per_point.append(I.eval_on_element([e], lam[None])[0, 0])
    # the stacked product may add a 4-term P1 sum in another order than the one-row form
    np.testing.assert_array_max_ulp(values, np.array(per_point), maxulp=2)


@_VALUES_AT_MESHES
@pytest.mark.parametrize("corrected", [False, True])
def test_values_at_takes_the_lowest_index_on_shared_faces(dim, k, corrected):
    # every coefficient of element e set to e: the shapes sum to 1, so the field reads e there
    m = uniform_mesh([(0.0, 1.0)] * dim, k)
    I = MeshInterpolant(m, exp_sum(dim), corrected)
    I.coefs = np.repeat(np.arange(len(m), dtype=float)[:, None], I.coefs.shape[1], axis=1)
    pts = _probe_points(m, np.random.default_rng(71 + dim), 10)
    lowest = [_scan_locate(m, p)[0] for p in pts]
    np.testing.assert_allclose(I.values_at(pts), lowest, rtol=0.0, atol=1e-9)


@_VALUES_AT_MESHES
def test_values_at_edge_cases(dim, k):
    m = uniform_mesh([(0.0, 1.0)] * dim, k)
    I = MeshInterpolant(m, exp_sum(dim), corrected=True)
    empty = I.values_at(np.empty((0, dim)))
    assert empty.shape == (0,) and empty.dtype == float
    outside = np.full((3, dim), 0.5)
    outside[1, 0] = 1.5
    with pytest.raises(DomainError, match="outside"):
        I.values_at(outside)
    for bad in (np.full((3, dim + 1), 0.5), np.full(3 * dim, 0.5)):
        with pytest.raises(ValueError, match="block"):
            I.values_at(bad)
    with pytest.raises(ValueError, match="block"):
        I([0.5] * (dim + 1))


def _pi_star_reference(mesh, v, k, lam):
    """sum_i lam_i v(A_i) - 1/2 sum_i lam_i Dv(A_i).(A_i - P) on element k, point by point."""
    verts = mesh.vertices[mesh.elements[k]]
    point = lam @ verts
    correction = 0.5 * float(lam @ np.sum(v.grad_at(verts) * (verts - point), axis=1))
    return float(lam @ v.value_at(verts)) - correction


@pytest.mark.parametrize("dim, k", [(1, 7), (2, 5), (3, 2)])
def test_p2_pi_star_matches_the_pointwise_correction(dim, k):
    # the stored midpoint values against the correction formula they replace,
    # on a uniform mesh and on a copy with every vertex moved up to h/5
    rng = np.random.default_rng(53 + dim)
    f = ScalarField(
        dim,
        lambda p: np.sin(p @ np.arange(1.0, dim + 1)) + np.exp(p.sum(axis=1)),
        grad=lambda p: np.cos(p @ np.arange(1.0, dim + 1))[:, None] * np.arange(1.0, dim + 1)
        + np.exp(p.sum(axis=1))[:, None],
    )
    uniform = uniform_mesh([(0.0, 1.0)] * dim, k)
    shift = rng.uniform(-0.2 / k, 0.2 / k, uniform.vertices.shape)
    for m in (uniform, Triangulation(uniform.vertices + shift, uniform.elements)):
        star = MeshInterpolant(m, f, corrected=True)
        grads = np.linalg.norm(f.grad_at(m.vertices), axis=1)
        scale = np.max(np.abs(f.value_at(m.vertices))) + m.mesh_size * np.max(grads)
        for _ in range(40):
            e = rng.integers(len(m))
            lam = rng.exponential(size=dim + 1)
            lam /= lam.sum()
            got = star.eval_on_element([e], lam[None])[0, 0]
            assert abs(got - _pi_star_reference(m, f, e, lam)) <= 1e-13 * scale


def test_pi_star_midpoint_values_agree_bitwise_across_elements():
    # an edge's midpoint value is symmetric in its two ends, so every element
    # sharing the edge stores the same bits, whichever end each lists first
    m = uniform_mesh([(0.0, 1.0)] * 3, 2)
    order = np.random.default_rng(59).permuted(np.tile(np.arange(4), (len(m), 1)), axis=1)
    m = Triangulation(m.vertices, np.take_along_axis(m.elements, order, axis=1))
    star = MeshInterpolant(m, exp_sum(3), corrected=True)
    edges = np.sort(m.elements[:, list(itertools.combinations(range(4), 2))], axis=2)
    seen = {}
    for edge, value in zip(edges.reshape(-1, 2).tolist(), star.coefs[:, 4:].ravel()):
        assert seen.setdefault(tuple(edge), value) == value
    assert len(seen) < edges.size // 2


@pytest.mark.parametrize("dim", [2, 3])
def test_take_gathers_the_same_element_vertices_as_fancy_indexing(dim):
    mesh = uniform_mesh([(0.0, 1.0)] * dim, 4)
    gathered = mesh.vertices.take(mesh.elements, 0)
    assert gathered.shape == (len(mesh), dim + 1, dim)
    assert np.array_equal(gathered, mesh.vertices[mesh.elements])


def _stacked_diameters(mesh):
    """Diameters from the whole (M, E, n) difference tensor at once."""
    verts = mesh.vertices.take(mesh.elements, 0)
    i, j = _edge_pairs(mesh.dim).T
    diffs = verts[:, j] - verts[:, i]
    return np.sqrt((diffs**2).sum(axis=2).max(axis=1))


def _stacked_pi_star(mesh, v):
    """pi*'s coefficients from (M, E, n) edge gathers and one einsum over all edges."""
    coefs = v.value_at(mesh.vertices)[mesh.elements]
    g, x = (t.take(mesh.elements, 0) for t in (v.grad_at(mesh.vertices), mesh.vertices))
    i, j = _edge_pairs(mesh.dim).T
    mids = (0.5 * (coefs[:, i] + coefs[:, j])
            - np.einsum("men,men->me", g[:, i] - g[:, j], x[:, i] - x[:, j]) / 8.0)
    return np.concatenate([coefs, mids], axis=1)


@pytest.mark.parametrize("name", [entry.name for entry in registry()])
def test_pairwise_diameters_and_midpoints_match_the_stacked_formulas_bitwise(name):
    # the one-pair-at-a-time fold and the one-edge-at-a-time midpoints keep the
    # stacked formulas' bits, on the entry's uniform meshes and jittered copies
    entry = lookup(name)
    f = entry.field()
    rng = np.random.default_rng(61 + entry.dim)
    box = np.asarray(entry.box)
    for k in (1, 2, 3, 4, 8):
        uniform = uniform_mesh(entry.box, k)
        shift = rng.uniform(-0.15, 0.15, uniform.vertices.shape) * (box[:, 1] - box[:, 0]) / k
        for m in (uniform, Triangulation(uniform.vertices + shift, uniform.elements)):
            assert m.diameters.tobytes() == _stacked_diameters(m).tobytes()
            star = MeshInterpolant(m, f, corrected=True)
            assert star.coefs.tobytes() == _stacked_pi_star(m, f).tobytes()


def _traced_peak(build):
    """(build(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pi_star_build_holds_no_edge_gathers():
    # on the 3D k=8 Kuhn mesh the (M, E, n) gathers peaked at 10.6x the
    # coefficients; one edge at a time peaks at 2.4x
    f = lookup("quad3d").field()
    m = uniform_mesh([(-1.0, 1.0)] * 3, 8)
    MeshInterpolant(m, f, corrected=True)  # warm up numpy's code paths
    star, peak = _traced_peak(lambda: MeshInterpolant(m, f, corrected=True))
    assert peak < 4.0 * star.coefs.nbytes, (peak, star.coefs.nbytes)


def test_mesh_build_holds_no_difference_tensor():
    # the (M, E, n) difference tensor lived through det and inv: 3.1x the
    # arrays the 3D k=8 mesh keeps; the pairwise fold peaks at 2.4x
    m = uniform_mesh([(-1.0, 1.0)] * 3, 8)
    vertices, elements = m.vertices.copy(), m.elements.copy()
    built, peak = _traced_peak(lambda: Triangulation(vertices, elements))
    kept = sum(a.nbytes for a in (built.vertices, built.elements, built.volumes,
                                  built.diameters, built.bary_matrices))
    assert peak < 2.75 * kept, (peak, kept)


def test_uniform_mesh_elements_lie_on_their_longest_edge_sphere():
    # each vertex off an element's longest edge sees it at a right angle, so
    # every vertex lies on the sphere with that edge as a diameter: it is the
    # smallest ball holding the element, of radius R = mesh_size / 2
    boxes = ([(0.0, 1.0)], [(-1.0, 2.5)], [(0.0, 1.0), (-1.0, 2.0)], [(0.0, math.pi), (2.0, 2.1)],
             [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)], [(-3.0, 0.1), (0.0, math.e), (1.0, 8.0)])
    for bounds in boxes:
        for k in (1, 2, 3, 5):
            m = uniform_mesh(bounds, k)
            verts = m.vertices[m.elements]
            pairs = _edge_pairs(m.dim)
            lengths = np.linalg.norm(verts[:, pairs[:, 1]] - verts[:, pairs[:, 0]], axis=2)
            i, j = pairs[lengths.argmax(axis=1)].T
            rows = np.arange(len(m))
            center = 0.5 * (verts[rows, i] + verts[rows, j])
            radius = np.linalg.norm(verts - center[:, None], axis=2)
            np.testing.assert_allclose(radius, m.mesh_size / 2.0, rtol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_quad3d_edge_midpoint_attains_the_sharp_pi_bound(k):
    # |x|^2 has Hessian 2I, so pi's error at the midpoint of an edge of length
    # 2R is R^2 = d2 R^2 / 2: the simplex study's gate is attained, at every
    # element's longest edge, the cell diagonal from vertex 0 to vertex 3
    entry = lookup("quad3d")
    f = entry.field()
    m = uniform_mesh(entry.box, k)
    ks = np.arange(len(m))
    mid = [[0.5, 0.0, 0.0, 0.5]]
    points = 0.5 * (m.vertices[m.elements[:, 0]] + m.vertices[m.elements[:, 3]])
    err = np.abs(MeshInterpolant(m, f).eval_on_element(ks, mid)[:, 0] - f.value_at(points))
    sharp = InterpBounds(m.mesh_size / 2.0, entry.d1_inf, entry.d2_inf).classical
    np.testing.assert_allclose(err, sharp, rtol=1e-12)
    assert sharp == pytest.approx(entry.d2_inf * (m.mesh_size / 2.0) ** 2 / 2.0, rel=1e-15)
