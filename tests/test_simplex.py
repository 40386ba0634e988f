"""Simplex geometry, barycentric interpolation and uniform meshes."""

import itertools
import math

import numpy as np
import pytest

from reftaylor.fields import DomainError, ScalarField
from reftaylor.simplex import (
    GeometryError,
    InterpBounds,
    MeshInterpolant,
    Simplex,
    Triangulation,
    _unique_rows,
    face_jumps,
    pi_interp,
    pi_star_interp,
    read_mesh_text,
    uniform_mesh,
    write_mesh_text,
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
    lam = unit_triangle().barycentric([1 / 3, 1 / 3])
    np.testing.assert_allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_barycentric_interior_point():
    lam = unit_triangle().barycentric([0.5, 0.25])
    np.testing.assert_allclose(lam, [0.25, 0.5, 0.25], atol=1e-14)


def test_barycentric_partition_of_unity():
    rng = np.random.default_rng(3)
    tri = Simplex(rng.normal(size=(4, 3)))
    for p in rng.normal(size=(20, 3)):
        lam = tri.barycentric(p)
        assert abs(lam.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(lam @ tri.vertices, p, atol=1e-12)


def test_barycentric_vertices_are_unit_rows():
    tri = unit_triangle()
    for i in range(3):
        lam = tri.barycentric(tri.vertices[i])
        want = np.zeros(3)
        want[i] = 1.0
        np.testing.assert_allclose(lam, want, atol=1e-14)


def test_simplex_measures():
    tri = unit_triangle()
    assert tri.diameter == pytest.approx(math.sqrt(2.0))
    assert tri.volume == pytest.approx(0.5)
    seg = Simplex([[1.0], [3.0]])
    assert seg.diameter == pytest.approx(2.0)
    assert seg.volume == pytest.approx(2.0)


def test_degenerate_simplex_rejected():
    with pytest.raises(GeometryError, match="degenerate"):
        Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(GeometryError):
        Simplex(np.zeros((3, 2)))


def test_contains_respects_tolerance():
    tri = unit_triangle()
    assert tri.contains([0.25, 0.25])
    assert tri.contains([0.0, -1e-13])
    assert not tri.contains([0.0, -1e-9])


def test_random_points_land_inside():
    tri = unit_triangle()
    pts = tri.random_points(np.random.default_rng(5), 200)
    for p in pts:
        assert tri.contains(p, tol=1e-9)


# ------------------------------------------------------- interpolation


def test_pi_reproduces_affine():
    tri = unit_triangle()
    f = ScalarField(2, lambda p: 3.0 - p[:, 0] + 2 * p[:, 1])
    rng = np.random.default_rng(11)
    for p in tri.random_points(rng, 25):
        assert pi_interp(tri, f, p) == pytest.approx(f.value(p), abs=1e-13)


def test_pi_square_at_centroid():
    # v = x^2: interpolant averages the vertex values 0, 1, 0
    tri = unit_triangle()
    f = ScalarField(2, lambda p: p[:, 0] ** 2)
    got = pi_interp(tri, f, [1 / 3, 1 / 3])
    assert got == pytest.approx(1 / 3, abs=1e-14)
    assert got - f.value([1 / 3, 1 / 3]) == pytest.approx(2 / 9, abs=1e-14)


def test_pi_star_square_at_centroid():
    tri = unit_triangle()
    f = ScalarField(2, lambda p: p[:, 0] ** 2,
                    grad=lambda p: np.column_stack([2 * p[:, 0], np.zeros(len(p))]))
    assert pi_star_interp(tri, f, [1 / 3, 1 / 3]) == pytest.approx(1 / 9, abs=1e-14)


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
        for p in s.random_points(rng, 30):
            err = abs(pi_star_interp(s, f, p) - f.value(p))
            assert err <= 1e-10 * scale


def test_interp_outside_element_raises():
    tri = unit_triangle()
    f = ScalarField(2, lambda p: p[:, 0])
    with pytest.raises(DomainError, match="outside"):
        pi_interp(tri, f, [0.7, 0.7])
    with pytest.raises(DomainError, match="outside"):
        pi_star_interp(tri, f, [-0.1, 0.2])


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
    err_pi = max(abs(pi_interp(tri, f, p) - f.value(p)) for p in pts)
    err_star = max(abs(pi_star_interp(tri, f, p) - f.value(p)) for p in pts)
    assert err_pi <= b.classical
    assert err_pi <= b.combined
    assert err_star <= b.corrected


# --------------------------------------------------------------- meshes


def test_uniform_interval_mesh():
    m = uniform_mesh([(0.0, 1.0)], 1, 4)
    assert len(m) == 4
    assert m.mesh_size == pytest.approx(0.25)
    m.check_conforming()


def test_uniform_square_mesh_counts():
    for k in (1, 2, 5):
        m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, k)
        assert len(m) == 2 * k * k
        assert m.mesh_size == pytest.approx(math.sqrt(2.0) / k)
        m.check_conforming()


def test_uniform_cube_mesh_counts():
    m = uniform_mesh([(0.0, 1.0)] * 3, 3, 2)
    assert len(m) == 6 * 2**3
    assert m.mesh_size == pytest.approx(math.sqrt(3.0) / 2)
    m.check_conforming()
    assert sum(m.volumes) == pytest.approx(1.0)


def test_mesh_covers_box_volume():
    m = uniform_mesh([(0.0, 2.0), (-1.0, 1.0)], 2, 3)
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
            m = uniform_mesh(bounds, dim, k)
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
        base = uniform_mesh([(0.0, 1.0)] * dim, dim, 3)
        shaken = base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape)
        m = read_mesh_text(write_mesh_text(Triangulation(shaken, base.elements)))
        simplices = [m.simplex(k) for k in range(len(m))]
        assert np.array_equal(m.volumes, [s.volume for s in simplices])
        assert np.array_equal(m.diameters, [s.diameter for s in simplices])
        assert np.array_equal(
            m.bary_matrices[:, :, 1:], [s.barycentric_gradients for s in simplices]
        )
        assert m.mesh_size == max(s.diameter for s in simplices)
        # a whole mesh takes the bounds at its largest element diameter
        assert InterpBounds(m.mesh_size, 1.5, 2.5).classical == 2.5 / 2.0 * m.mesh_size**2
        # and a Simplex is the one-element triangulation
        for s in simplices:
            assert isinstance(s, Triangulation) and len(s) == 1
            assert s.volume == s.volumes[0] and s.diameter == s.mesh_size


def test_pairwise_diameters_match_full_difference_tensor():
    rng = np.random.default_rng(29)
    for dim in (1, 2, 3):
        base = uniform_mesh([(0.0, 1.0)] * dim, dim, 4)
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


def test_unique_rows_matches_np_unique():
    rng = np.random.default_rng(41)
    for width in (1, 2, 3):
        for _ in range(30):
            # few distinct values, so most rows repeat
            rows = rng.integers(0, rng.integers(1, 6), size=(rng.integers(1, 200), width))
            _assert_same_tables(_unique_rows(rows), _unique_rows_by_np_unique(rows))


def test_face_tables_match_np_unique():
    for dim, k in ((2, 5), (3, 3)):
        m = uniform_mesh([(0.0, 1.0)] * dim, dim, k)
        keep = [[c for c in range(dim + 1) if c != drop] for drop in range(dim + 1)]
        rows = np.sort(m.elements[:, keep], axis=2).reshape(-1, dim)
        faces, face_of, counts = _unique_rows_by_np_unique(rows)
        _assert_same_tables(_unique_rows(rows), (faces, face_of, counts))
        got_faces, got_counts, owners = m.face_counts()
        assert np.array_equal(got_faces, faces) and np.array_equal(got_counts, counts)
        first_row = [np.flatnonzero(face_of == f)[0] for f in range(len(faces))]
        assert np.array_equal(owners[:, 0], np.array(first_row) // (dim + 1))


def test_zero_subdivisions_rejected():
    with pytest.raises(ValueError, match="subdivisions"):
        uniform_mesh([(0.0, 1.0)], 1, 0)


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
        m = uniform_mesh([(0.0, 1.0)] * dim, dim, k)
        np.testing.assert_array_equal(m.boundary_vertex_mask(), on_unit_box_boundary(m.vertices))


def test_locate_prefers_lowest_index():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 1)
    k, lam = m.locate([0.5, 0.5])  # on the shared diagonal of both triangles
    assert k == 0
    assert abs(lam.sum() - 1.0) <= 1e-12
    m1 = uniform_mesh([(0.0, 1.0)], 1, 4)
    k, _ = m1.locate([0.25])  # endpoint shared by elements 0 and 1
    assert k == 0


def test_locate_outside_raises():
    m = uniform_mesh([(0.0, 1.0)], 1, 4)
    with pytest.raises(DomainError, match="outside"):
        m.locate([1.5])


# --------------------------------------------------- global interpolants


def test_global_interp_matches_elementwise():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 3)
    f = exp_sum(2)
    I = MeshInterpolant(m, f)
    Istar = MeshInterpolant(m, f, corrected=True)
    rng = np.random.default_rng(31)
    for p in rng.random((25, 2)):
        k, _ = m.locate(p)
        s = m.simplex(k)
        assert I(p) == pytest.approx(pi_interp(s, f, p), abs=1e-13)
        assert Istar(p) == pytest.approx(pi_star_interp(s, f, p), abs=1e-13)


def test_global_pi_star_quadratic_exactness():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 3)
    f = quadratic_2d()
    I = MeshInterpolant(m, f, corrected=True)
    rng = np.random.default_rng(37)
    scale = 1.0 + np.max(np.abs(f.value_at(m.vertices)))
    for p in rng.random((50, 2)):
        assert abs(I(p) - f.value(p)) <= 1e-10 * scale


def test_interpolants_match_vertex_values():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 2)
    f = exp_sum(2)
    for interp in (MeshInterpolant(m, f), MeshInterpolant(m, f, corrected=True)):
        for p in m.vertices:
            assert interp(p) == pytest.approx(f.value(p), abs=1e-12)


def test_face_jumps_stay_at_roundoff():
    # measured two-sided disagreement, plain and corrected; the correction
    # restricted to a face uses face-vertex data only, so both stay tiny
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 3)
    f = exp_sum(2)
    assert face_jumps(m, MeshInterpolant(m, f)) <= 1e-12
    assert face_jumps(m, MeshInterpolant(m, f, corrected=True)) <= 1e-12


def test_corrected_interp_agrees_across_shared_diagonal():
    # v = xy on the two-triangle unit square, probed along the diagonal
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 1)
    f = ScalarField(
        2,
        lambda p: p[:, 0] * p[:, 1],
        grad=lambda p: p[:, ::-1],
    )
    I = MeshInterpolant(m, f, corrected=True)
    ts = np.linspace(0.0, 1.0, 100)
    for t in ts:
        p = np.array([t, t])
        vals = []
        for k in range(2):
            lam = np.clip(m.simplex(k).barycentric(p), 0.0, None)
            lam /= lam.sum()
            vals.append(float(I.eval_on_element([k], lam.reshape(1, -1))[0, 0]))
        assert abs(vals[0] - vals[1]) <= 1e-13


def test_corrected_mesh_interp_beats_plain_on_smooth_field():
    m = uniform_mesh([(0.0, 1.0), (0.0, 1.0)], 2, 4)
    f = exp_sum(2)
    I = MeshInterpolant(m, f)
    Istar = MeshInterpolant(m, f, corrected=True)
    rng = np.random.default_rng(41)
    pts = rng.random((300, 2))
    err = max(abs(I(p) - f.value(p)) for p in pts)
    err_star = max(abs(Istar(p) - f.value(p)) for p in pts)
    assert err_star < 0.5 * err


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
    uniform = uniform_mesh([(0.0, 1.0)] * dim, dim, k)
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
    m = uniform_mesh([(0.0, 1.0)] * 3, 3, 2)
    order = np.random.default_rng(59).permuted(np.tile(np.arange(4), (len(m), 1)), axis=1)
    m = Triangulation(m.vertices, np.take_along_axis(m.elements, order, axis=1))
    star = MeshInterpolant(m, exp_sum(3), corrected=True)
    edges = np.sort(m.elements[:, list(itertools.combinations(range(4), 2))], axis=2)
    seen = {}
    for edge, value in zip(edges.reshape(-1, 2).tolist(), star.coefs[:, 4:].ravel()):
        assert seen.setdefault(tuple(edge), value) == value
    assert len(seen) < edges.size // 2


# ------------------------------------------------------------ mesh i/o


def test_mesh_text_roundtrip():
    for m in (
        uniform_mesh([(0.0, 1.0)], 1, 3),
        uniform_mesh([(0.0, 2.0), (0.0, 1.0)], 2, 2),
        uniform_mesh([(0.0, 1.0)] * 3, 3, 1),
    ):
        back = read_mesh_text(write_mesh_text(m))
        np.testing.assert_allclose(back.vertices, m.vertices, atol=0.0)
        np.testing.assert_array_equal(back.elements, m.elements)


def test_mesh_text_format():
    m = uniform_mesh([(0.0, 1.0)], 1, 2)
    lines = write_mesh_text(m).strip().splitlines()
    assert lines[0] == "v 0"
    assert lines[1] == "v 0.5"
    assert lines[3] == "e 0 1"
    assert lines[4] == "e 1 2"


def test_mesh_text_rejects_garbage():
    with pytest.raises(ValueError, match="unknown record"):
        read_mesh_text("v 0\nv 1\nq 0 1\n")
    with pytest.raises(ValueError, match="needs both"):
        read_mesh_text("v 0\nv 1\n")


def test_mesh_text_skips_comments_and_blanks():
    m = read_mesh_text("# interval\n\nv 0\nv 1\ne 0 1\n")
    assert len(m) == 1
    assert m.mesh_size == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_take_gathers_the_same_element_vertices_as_fancy_indexing(dim):
    mesh = uniform_mesh([(0.0, 1.0)] * dim, dim, 4)
    gathered = mesh.vertices.take(mesh.elements, 0)
    assert gathered.shape == (len(mesh), dim + 1, dim)
    assert np.array_equal(gathered, mesh.vertices[mesh.elements])
