import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from elsa import (
    DegenerateFaceError,
    MeshParseError,
    TriangleMesh,
    cotan_laplacian_apply,
    face_areas,
    face_frames,
    face_samples,
    load_mesh,
    mesh_diameter,
    normalize_unit_diameter,
    save_mesh,
    vertex_volumes,
)
import elsa.mesh
from elsa.mesh import (
    _OPPOSITE,
    MeshError,
    cotan_laplacian,
    cross,
    face_corners,
    face_cotangents,
    mesh_edges,
    scatter_corners,
)
from elsa.metric import _union_geometry

import synthetic as syn

UNIT_RIGHT = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_rejects_out_of_range_index():
    with pytest.raises(MeshError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


def test_rejects_repeated_index():
    with pytest.raises(DegenerateFaceError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_rejects_zero_area_face():
    with pytest.raises(DegenerateFaceError) as err:
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    assert err.value.face_index == 0


def test_mesh_is_immutable():
    mesh = syn.icosphere(1)
    with pytest.raises(AttributeError):
        mesh.vertices = np.zeros((3, 3))
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 1.0


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def test_load_minimal_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh(path)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert np.array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_degenerate_face(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n")
    with pytest.raises(DegenerateFaceError):
        load_mesh(path)


def test_obj_rejects_quads(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_obj_ignores_normals_and_texcoords(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(
        "vn 0 0 1\nvt 0 0\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/1/1 3/1/1\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_faces == 1


def test_obj_bytes_are_repr_lines(tmp_path):
    # one "v x y z" line of repr floats per vertex, then one-based "f a b c"
    # lines; repr round-trips every double, including -0.0 and subnormals
    mesh = syn.bumpy_mesh(60, seed=3)
    vertices = mesh.vertices.copy()
    vertices[0] = [-0.0, 1.0 / 3.0, 5e-324]
    vertices[1, 0] = 1e22
    mesh = TriangleMesh(vertices, mesh.faces, validate=False)
    path = tmp_path / "m.obj"
    save_mesh(mesh, path)
    expected = "".join(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n" for x, y, z in mesh.vertices)
    expected += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces)
    assert path.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("fmt,binary", [("obj", False), ("ply", False), ("ply", True)])
def test_roundtrip_random_meshes(tmp_path, fmt, binary):
    for seed in range(3):
        mesh = syn.bumpy_mesh(60, seed=seed)
        path = tmp_path / f"m{seed}.{fmt}"
        save_mesh(mesh, path, binary=binary)
        back = load_mesh(path)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-6


def _ply_row_ends(data, mesh, binary):
    """Byte offsets of the header end and of every vertex and face row end."""
    body = data.index(b"end_header\n") + len(b"end_header\n")
    if not binary:
        return [body] + [i + 1 for i in range(body, len(data)) if data[i] == ord("\n")]
    vertex_ends = [body + 24 * i for i in range(mesh.n_vertices + 1)]
    return vertex_ends + [vertex_ends[-1] + 13 * j for j in range(1, mesh.n_faces + 1)]


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_ply_truncated(tmp_path, binary):
    mesh = syn.bumpy_mesh(20, seed=1)
    path = tmp_path / "m.ply"
    save_mesh(mesh, path, binary=binary)
    data = path.read_bytes()
    ends = _ply_row_ends(data, mesh, binary)
    n, m = mesh.n_vertices, mesh.n_faces
    assert len(ends) == n + m + 1 and ends[-1] == len(data)
    cuts = {
        "inside the header": ends[0] - 5,
        "after the last full vertex row": ends[n],
        "mid vertex row": (ends[n // 2] + ends[n // 2 + 1]) // 2,
        "after the last full face row": ends[n + m - 1],
        "mid face row": (ends[n + m // 2] + ends[n + m // 2 + 1]) // 2,
    }
    for where, cut in cuts.items():
        cut_path = tmp_path / f"cut_{cut}.ply"
        cut_path.write_bytes(data[:cut])
        with pytest.raises(MeshParseError, match=": truncated"):  # not the "truncated" of tmp_path
            load_mesh(cut_path)
            pytest.fail(f"cut {where} was read")


def test_ply_ascii_last_row_needs_a_newline(tmp_path):
    # a cut inside the last number still leaves three indices on the last row
    path = tmp_path / "m.ply"
    save_mesh(syn.icosphere(1), path)
    data = path.read_bytes()
    assert data.endswith(b"3 41 30 23\n")
    for cut in (2, 1):
        cut_path = tmp_path / f"cut_{cut}.ply"
        cut_path.write_bytes(data[:-cut])
        with pytest.raises(MeshParseError, match=": truncated 'face' element"):
            load_mesh(cut_path)
    assert np.array_equal(load_mesh(path).faces[-1], [41, 30, 23])


def _ply_file(binary, header, records, text_rows):
    """A PLY file in either encoding: binary records or ASCII text rows."""
    fmt = "binary_little_endian" if binary else "ascii"
    head = "\n".join(["ply", f"format {fmt} 1.0", *header, "end_header", ""]).encode()
    if binary:
        return head + b"".join(r.tobytes() for r in records)
    return head + "".join(row + "\n" for row in text_rows).encode()


def _triangle_file(binary, count, indices):
    header = [
        "element vertex 3", "property double x", "property double y", "property double z",
        "element face 1", "property list uchar int vertex_indices",
    ]
    verts = np.asarray(UNIT_RIGHT.vertices, dtype="<f8")
    face = np.array([count], "u1").tobytes() + np.array(indices, dtype="<i4").tobytes()
    rows = ["0.0 0.0 0.0", "1.0 0.0 0.0", "0.0 1.0 0.0", " ".join(map(str, [count, *indices]))]
    return _ply_file(binary, header, [verts, np.frombuffer(face, "u1")], rows)


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_ply_nontriangle_rejected(tmp_path, binary):
    path = tmp_path / "bad.ply"
    path.write_bytes(_triangle_file(binary, 4, [0, 1, 2, 2]))
    with pytest.raises(MeshParseError, match="non-triangle face with 4 vertices"):
        load_mesh(path)


def test_ply_encodings_read_the_same_extended_layout(tmp_path):
    """Extra scalars around x and the index list, a skipped element, a uint8/uint32 list."""
    mesh = syn.bumpy_mesh(40, seed=4)
    n, m = mesh.n_vertices, mesh.n_faces
    header = [
        f"element vertex {n}", "property float confidence",
        "property double x", "property double y", "property double z",
        "element edge 2", "property int vertex1", "property int vertex2",
        f"element face {m}", "property short tag",
        "property list uint8 uint32 vertex_indices", "property uchar flags",
    ]
    verts = np.zeros(n, [("confidence", "<f4"), ("xyz", "<f8", (3,))])
    verts["confidence"] = np.linspace(0.0, 1.0, n)
    verts["xyz"] = mesh.vertices
    edges = np.array([(0, 1), (1, 2)], [("a", "<i4"), ("b", "<i4")])
    faces = np.zeros(m, [("tag", "<i2"), ("k", "u1"), ("v", "<u4", (3,)), ("flags", "u1")])
    faces["tag"] = -np.arange(m)
    faces["k"] = 3
    faces["v"] = mesh.faces
    faces["flags"] = np.arange(m) % 8  # 3 and 0 included
    rows = [f"{c!r} {x!r} {y!r} {z!r}" for c, (x, y, z) in
            zip(verts["confidence"].tolist(), mesh.vertices.tolist())]
    rows += ["0 1", "1 2"]
    rows += [f"{t} 3 {a} {b} {c} {fl}" for t, (a, b, c), fl in
             zip(faces["tag"].tolist(), mesh.faces.tolist(), faces["flags"].tolist())]
    meshes = []
    for binary in (False, True):
        path = tmp_path / f"extended_{binary}.ply"
        path.write_bytes(_ply_file(binary, header, [verts, edges, faces], rows))
        meshes.append(load_mesh(path))
    for back in meshes:
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
@pytest.mark.parametrize(
    "line,bad",
    [
        ("property double x", "property float64x x"),
        ("property double y", "property double"),
        ("format (ascii|binary_little_endian)", "format binary_big_endian"),
        ("element face", "element range 0\nproperty list uchar int points\nelement face"),
    ],
    ids=["unknown_type", "malformed_property", "big_endian", "list_in_other_element"],
)
def test_ply_bad_header(tmp_path, binary, line, bad):
    path = tmp_path / "bad.ply"
    path.write_bytes(re.sub(line.encode(), bad.encode(), _triangle_file(binary, 3, [0, 1, 2])))
    with pytest.raises(MeshParseError) as err:
        load_mesh(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("line", ["v 1 abc 0", "v 1 2"])
def test_obj_malformed_vertex_line(tmp_path, line):
    path = tmp_path / "bad.obj"
    path.write_text(f"v 0 0 0\n{line}\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshParseError, match=f"{re.escape(str(path))}:2: malformed vertex line"):
        load_mesh(path)


def test_unknown_format(tmp_path):
    path = tmp_path / "m.stl"
    path.write_text("")
    with pytest.raises(MeshParseError):
        load_mesh(path)


# ---------------------------------------------------------------------------
# areas and volumes
# ---------------------------------------------------------------------------


def test_unit_right_triangle_area():
    assert face_areas(UNIT_RIGHT)[0] == pytest.approx(0.5, abs=1e-15)


def test_area_scales_quadratically():
    mesh = syn.bumpy_mesh(40, seed=1)
    scaled = mesh.with_vertices(3.0 * mesh.vertices)
    assert np.allclose(face_areas(scaled), 9.0 * face_areas(mesh), rtol=1e-12)


def test_area_matches_heron():
    rng = np.random.default_rng(7)
    for _ in range(20):
        verts = rng.standard_normal((3, 3))
        mesh = TriangleMesh(verts, [[0, 1, 2]])
        a = np.linalg.norm(verts[1] - verts[0])
        b = np.linalg.norm(verts[2] - verts[1])
        c = np.linalg.norm(verts[0] - verts[2])
        s = 0.5 * (a + b + c)
        heron = np.sqrt(s * (s - a) * (s - b) * (s - c))
        assert face_areas(mesh)[0] == pytest.approx(heron, rel=1e-10)


def test_single_triangle_vertex_volumes():
    vol = vertex_volumes(UNIT_RIGHT)
    assert np.allclose(vol, 0.5 / 3.0, rtol=1e-15)


def test_isolated_vertex_volume_zero():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
    assert vertex_volumes(mesh)[3] == 0.0


def test_vertex_volumes_sum_to_area():
    mesh = syn.icosphere(2)
    assert vertex_volumes(mesh).sum() == pytest.approx(face_areas(mesh).sum(), rel=1e-10)


def test_face_areas_reject_zero_area_face():
    flat = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]], validate=False)
    with pytest.raises(DegenerateFaceError):
        face_areas(flat)


def test_scatter_corners_matches_loop_oracle():
    mesh = syn.bumpy_mesh(30, seed=5)
    n = mesh.n_vertices + 1  # the last vertex is in no face
    rng = np.random.default_rng(11)
    for row in ((), (3,)):
        values = rng.standard_normal(mesh.faces.shape + row)
        expected = np.zeros((n,) + row)
        for k in range(3):
            for f, i in enumerate(mesh.faces[:, k]):
                expected[i] += values[f, k]
        got = scatter_corners(mesh.faces, values, n)
        assert np.array_equal(got, expected)
        assert np.all(got[-1] == 0.0)


def test_cross_equals_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(12)
    for mesh in (syn.icosphere(3), syn.bumpy_mesh(30, seed=5), syn.grid_mesh(6, 6, 0.2)):
        v0, v1, v2 = face_corners(mesh)
        e1, e2 = v1 - v0, v2 - v0
        assert np.array_equal(cross(e1, e2), np.cross(e1, e2))
        # column views of an edge stack, as the mesh gradients pass them
        dq = np.stack([e1, e2], axis=2)
        assert np.array_equal(cross(dq[:, :, 1], dq[:, :, 0]), np.cross(e2, e1))
        # a stack of K vectors per face against one vector per face, both ways
        k = rng.standard_normal((4,) + e1.shape)
        assert cross(k, e2).shape == (4,) + e1.shape
        assert np.array_equal(cross(k, e2), np.cross(k, e2))
        assert np.array_equal(cross(e1, k), np.cross(e1, k))


# ---------------------------------------------------------------------------
# face frames
# ---------------------------------------------------------------------------


def test_frames_are_the_geometry_of_samples_and_cotangents():
    for mesh in (syn.icosphere(3), syn.bumpy_mesh(30, seed=5)):
        fr = face_frames(mesh)
        s = face_samples(mesh)
        assert np.array_equal(s.normals, fr.n)
        assert np.array_equal(s.areas, fr.area)
        # cotangents from the gathered edges, as a direct formula
        v0, v1, v2 = face_corners(mesh)
        e1, e2 = v1 - v0, v2 - v0
        twice_area = np.linalg.norm(np.cross(e1, e2), axis=1)
        direct = np.stack(
            [
                np.einsum("ij,ij->i", e1, e2) / twice_area,
                np.einsum("ij,ij->i", e1, e1 - e2) / twice_area,
                np.einsum("ij,ij->i", e2, e2 - e1) / twice_area,
            ],
            axis=1,
        )
        assert np.array_equal(face_cotangents(fr), direct)


def test_frames_unit_right_triangle():
    fr = face_frames(UNIT_RIGHT)
    assert np.allclose(fr.g[0], np.eye(2), atol=1e-15)
    assert np.allclose(fr.n[0], [0, 0, 1], atol=1e-15)
    assert fr.area[0] == pytest.approx(0.5)


def test_frames_rotation_equivariance():
    mesh = syn.bumpy_mesh(50, seed=2)
    rot, _ = syn.rigid_motion(3)
    rotated = mesh.with_vertices(mesh.vertices @ rot.T)
    fr = face_frames(mesh)
    fr_rot = face_frames(rotated)
    assert np.allclose(fr_rot.dq, np.einsum("ij,mjk->mik", rot, fr.dq), atol=1e-12)
    assert np.allclose(fr_rot.g, fr.g, atol=1e-12)


def test_gram_determinant_identity():
    mesh = syn.bumpy_mesh(50, seed=4)
    fr = face_frames(mesh)
    det = np.linalg.det(fr.g)
    assert np.allclose(det, (2.0 * fr.area) ** 2, rtol=1e-10)


def test_metric_tensor_positive_definite():
    fr = face_frames(syn.icosphere(2))
    eig = np.linalg.eigvalsh(fr.g)
    assert eig.min() > 0


def test_frame_consistency_g_equals_dqTdq():
    # the row dot products of g round like the batched einsum of the edge matrices
    for mesh in (syn.icosphere(3), syn.bumpy_mesh(30, seed=5)):
        fr = face_frames(mesh)
        assert np.array_equal(fr.g, np.einsum("mia,mib->mab", fr.dq, fr.dq))
        assert np.allclose(np.linalg.norm(fr.n, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# cotangent Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_kills_constants():
    mesh = syn.icosphere(2)
    h = np.tile([1.0, -2.0, 0.5], (mesh.n_vertices, 1))
    assert np.max(np.abs(cotan_laplacian_apply(mesh, h))) < 1e-12


def test_laplacian_linear_precision_on_grid():
    grid = syn.grid_mesh(5, 5)
    rng = np.random.default_rng(0)
    amat = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    h = grid.vertices @ amat.T + b
    lap = cotan_laplacian_apply(grid, h)
    interior = syn.interior_vertices(grid, 5, 5)
    assert np.max(np.abs(lap[interior])) < 1e-8


def test_laplacian_linearity():
    mesh = syn.icosphere(1)
    h = syn.random_field(mesh, 1)
    k = syn.random_field(mesh, 2)
    combo = cotan_laplacian_apply(mesh, 2.0 * h + 3.0 * k)
    parts = 2.0 * cotan_laplacian_apply(mesh, h) + 3.0 * cotan_laplacian_apply(mesh, k)
    assert np.max(np.abs(combo - parts)) < 1e-12


def test_laplacian_square_by_hand():
    # unit square split along the diagonal (0, 2): right angles opposite the
    # diagonal cancel its weight, boundary edges keep their single cot = 1
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 3]]
    )
    h = np.zeros((4, 3))
    h[0, 0] = 1.0
    lap = cotan_laplacian_apply(mesh, h)
    # (Lh)_0 = w01 (h0-h1) + w02 (h0-h2) + w03 (h0-h3), w01 = w03 = 1, w02 = 0
    assert lap[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert lap[1, 0] == pytest.approx(-1.0, abs=1e-12)
    assert lap[2, 0] == pytest.approx(0.0, abs=1e-12)
    assert lap[3, 0] == pytest.approx(-1.0, abs=1e-12)


def test_laplacian_matches_bruteforce_oracle():
    mesh = syn.bumpy_mesh(40, seed=6)
    h = syn.random_field(mesh, 3)
    # oracle: accumulate per-face corner cotangents edge by edge
    n = mesh.n_vertices
    weights = {}
    v = mesh.vertices
    for a, b, c in mesh.faces:
        for (i, j), k in (((b, c), a), ((c, a), b), ((a, b), c)):
            pa, pb = v[i] - v[k], v[j] - v[k]
            cot = pa @ pb / np.linalg.norm(np.cross(pa, pb))
            key = (min(i, j), max(i, j))
            weights[key] = weights.get(key, 0.0) + cot
    expected = np.zeros_like(h)
    for (i, j), w in weights.items():
        expected[i] += w * (h[i] - h[j])
        expected[j] += w * (h[j] - h[i])
    assert np.allclose(cotan_laplacian_apply(mesh, h), expected, atol=1e-10)


def _coo_laplacian(mesh):
    """The cotangent Laplacian assembled by scipy from its COO corner entries."""
    f = mesh.faces
    cots = face_cotangents(face_frames(mesh))
    rows, cols, vals = [], [], []
    for corner, (a, b) in enumerate(_OPPOSITE):
        i, j, w = f[:, a], f[:, b], cots[:, corner]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-w, -w, w, w]
    n = mesh.n_vertices
    lap = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    lap.sort_indices()
    return lap


def _union(*meshes):
    offsets = np.cumsum([0] + [m.n_vertices for m in meshes[:-1]])
    return TriangleMesh(np.concatenate([m.vertices for m in meshes]),
                        np.concatenate([m.faces + k for m, k in zip(meshes, offsets)]))


def _laplacian_test_mesh(kind):
    bumpy = syn.bumpy_mesh(40, seed=6)
    if kind == "closed":
        return syn.icosphere(2)
    if kind == "open":
        return syn.grid_mesh(6, 5, 0.3)
    if kind == "isolated_vertex":
        return TriangleMesh(np.vstack([bumpy.vertices, [[2.0, 2.0, 2.0]]]), bumpy.faces)
    return _union(bumpy, bumpy.with_vertices(1.1 * bumpy.vertices[:, ::-1]), syn.grid_mesh(4, 4))


def _assert_matches_coo(mesh):
    # off-diagonal entries sum at most two cotangents, so they match exactly;
    # a diagonal entry sums every incident corner, in face order here and in
    # scipy's sorted order there: to 1e-14 of the row's absolute sum
    got, ref = cotan_laplacian(mesh), _coo_laplacian(mesh)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(ref.indptr))
    diagonal = ref.indices == rows
    assert np.array_equal(got.data[~diagonal], ref.data[~diagonal])
    scale = np.asarray(abs(ref).sum(axis=1)).ravel()[rows[diagonal]]
    assert np.all(np.abs(got.data[diagonal] - ref.data[diagonal]) <= 1e-14 * scale)


@pytest.mark.parametrize("kind", ["closed", "open", "isolated_vertex", "union"])
def test_cached_laplacian_matches_coo_assembly(kind):
    mesh = _laplacian_test_mesh(kind)
    _assert_matches_coo(mesh)
    _assert_matches_coo(mesh)  # served from the cached pattern
    if kind == "isolated_vertex":
        assert cotan_laplacian(mesh)[-1].nnz == 0


def test_laplacian_pattern_not_served_to_another_face_array():
    # same face-array shape and vertex count, different faces: each mesh gets
    # its own Laplacian, whichever was seen last
    mesh = syn.icosphere(2)
    permuted, _ = syn.permute_mesh(mesh, seed=3)
    assert permuted.faces.shape == mesh.faces.shape
    assert not np.array_equal(permuted.faces, mesh.faces)
    for m in (mesh, permuted, mesh, permuted):
        _assert_matches_coo(m)
    # an equal copy of a face array reuses its pattern; the cache stays bounded
    pattern = elsa.mesh._laplacian_pattern
    n = mesh.n_vertices
    assert pattern(mesh.faces.copy().tobytes(), n, 1) is pattern(mesh.faces.tobytes(), n, 1)
    for k in range(2 * elsa.mesh._PATTERN_CACHE_SIZE):
        cotan_laplacian(syn.grid_mesh(3 + k, 3))
    assert pattern.cache_info().currsize == elsa.mesh._PATTERN_CACHE_SIZE


def _knots(mesh, copies, seed=0):
    scale = 1.0 + 0.05 * np.random.default_rng(seed).standard_normal((copies, 1, 1))
    return scale * mesh.vertices


@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("kind", ["closed", "open"])
def test_union_laplacian_is_block_diagonal_of_copies(kind, copies):
    # the tiled template pattern sums each copy's cotangents in its own face
    # order, so the union equals each copy's own Laplacian bit for bit
    mesh = _laplacian_test_mesh(kind)
    knots = _knots(mesh, copies)
    got = _union_geometry(knots, mesh.faces).lap
    ref = sparse.block_diag([cotan_laplacian(mesh.with_vertices(k)) for k in knots], format="csr")
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def test_union_laplacian_pattern_keyed_by_template():
    mesh = syn.icosphere(2)
    pattern = elsa.mesh._laplacian_pattern
    pattern.cache_clear()
    _union_geometry(_knots(mesh, 5), mesh.faces)
    assert pattern.cache_info().currsize == 1
    pattern(mesh.faces.tobytes(), mesh.n_vertices, 5)
    assert pattern.cache_info().hits == 1


# ---------------------------------------------------------------------------
# face samples
# ---------------------------------------------------------------------------


def test_face_samples_barycenter():
    s = face_samples(UNIT_RIGHT)
    assert np.allclose(s.centers[0], [1 / 3, 1 / 3, 0], atol=1e-15)


def test_face_samples_translation_equivariance():
    mesh = syn.icosphere(1)
    t = np.array([0.3, -1.0, 2.0])
    moved = mesh.with_vertices(mesh.vertices + t)
    s0 = face_samples(mesh)
    s1 = face_samples(moved)
    assert np.allclose(s1.centers, s0.centers + t, atol=1e-12)
    assert np.allclose(s1.normals, s0.normals, atol=1e-12)


def test_face_samples_centroid_oracle():
    mesh = syn.bumpy_mesh(60, seed=8)
    s = face_samples(mesh)
    centroid = (s.centers * s.areas[:, None]).sum(axis=0) / s.areas.sum()
    # oracle: direct integral of the identity over each triangle
    v0, v1, v2 = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    tri_centroid = (v0 + v1 + v2) / 3.0
    areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
    oracle = (tri_centroid * areas[:, None]).sum(axis=0) / areas.sum()
    assert np.allclose(centroid, oracle, atol=1e-10)


# ---------------------------------------------------------------------------
# relabeling and rigid motion
# ---------------------------------------------------------------------------


def test_quantities_permutation_invariant():
    mesh = syn.icosphere(1)
    permuted, perm = syn.permute_mesh(mesh, seed=9)
    assert np.allclose(sorted(face_areas(mesh)), sorted(face_areas(permuted)), rtol=1e-12)
    assert np.allclose(vertex_volumes(permuted), vertex_volumes(mesh)[perm], rtol=1e-12)
    h = syn.random_field(mesh, 10)
    lap = cotan_laplacian_apply(mesh, h)
    lap_p = cotan_laplacian_apply(permuted, h[perm])
    assert np.allclose(lap_p, lap[perm], atol=1e-10)


def test_diameter_and_normalization():
    mesh = syn.icosphere(1, radius=2.0)
    assert mesh_diameter(mesh) == pytest.approx(4.0, rel=1e-12)
    unit, scale = normalize_unit_diameter(mesh)
    assert scale == pytest.approx(4.0, rel=1e-12)
    assert mesh_diameter(unit) == pytest.approx(1.0, rel=1e-12)


def test_diameter_of_flat_mesh_in_row_blocks():
    """A planar mesh has no 3-D hull: the exact brute force runs in small blocks."""
    mesh = syn.grid_mesh(40, 40, spacing=0.1)
    diff = mesh.vertices[:, None, :] - mesh.vertices[None, :, :]
    dense = float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))
    del diff
    tracemalloc.start()
    try:
        value = mesh_diameter(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == dense
    assert peak < 4e6


def test_mesh_edges_euler():
    mesh = syn.icosphere(1)
    e = mesh_edges(mesh)
    assert mesh.n_vertices - e.shape[0] + mesh.n_faces == 2  # closed genus-0
