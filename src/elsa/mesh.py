"""Triangle meshes, OBJ/PLY file I/O, and discrete surface geometry.

A mesh is a vertex array of shape ``(N, 3)`` together with an oriented face
index array of shape ``(M, 3)``.  Vertex fields (tangent vectors to the mesh,
one 3-vector per vertex) are plain ``(N, 3)`` float arrays aligned with the
vertex list.

Per-face geometry (edges, fundamental forms, unit normals, areas,
barycenters and the zero-area check) is formed in one place,
:func:`face_frames`, as one record, :class:`FaceFrames`; face areas are its
``area``.  The varifold atoms (barycenter, normal, area), cotangents and
vertex volumes are read from it, and mesh validation takes its zero-area
check from it.  Values per face corner (vertex-volume shares, gradient
contributions) are summed onto the vertices by one scatter,
:func:`scatter_corners`.  The Laplacian is one sparse matrix,
:func:`cotan_laplacian`, applied to a vertex field as ``L @ h``.

Conventions used throughout the package:

* face areas are true triangle areas, ``area = 0.5 * |e01 x e02|``;
* vertex volumes distribute one third of each incident face area;
* the mesh Laplacian uses the cotangent formula,
  ``(L h)_i = sum_j (cot a_ij + cot b_ij) (h_i - h_j)``, with boundary edges
  contributing their single available cotangent and no clamping of negative
  cotangents.  Its CSR pattern is built once per template face array,
  vertex count and copy count; a disjoint union of copies tiles it.

PLY files are read in ASCII or binary little-endian (not big-endian), with
values of each property's declared type.  The vertex element needs scalar
``x``, ``y`` and ``z`` among any other scalars, in any order; the face
element holds one index list of triangles (any count and item type) among
scalars before or after it.  Other elements are skipped if all their
properties are scalar; a list property anywhere else raises.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
from scipy.spatial import ConvexHull, QhullError


class MeshError(ValueError):
    """Invalid mesh data."""


class MeshParseError(MeshError):
    """A mesh file could not be parsed."""


class DegenerateFaceError(MeshError):
    """A face with (numerically) vanishing area.

    Attributes
    ----------
    reason : str
        The message without the face index.
    face_index : int | None
        Index of the offending face, when known.
    """

    def __init__(self, message, face_index=None):
        self.reason = message
        if face_index is not None:
            message = f"{message} (face {face_index})"
        super().__init__(message)
        self.face_index = face_index


class TriangleMesh:
    """Immutable triangle mesh.

    Parameters
    ----------
    vertices : array_like
        ``(N, 3)`` float coordinates.
    faces : array_like
        ``(M, 3)`` integer indices into the vertex list.  The stored order
        defines the face orientation; no global consistency is enforced.
    validate : bool
        Check the structural invariants (index range, distinct corners,
        strictly positive face areas).  On by default.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces, validate=True):
        v = np.array(vertices, dtype=np.float64)
        f = np.array(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (N, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must be (M, 3), got {f.shape}")
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        if validate:
            _validate(self)

    def __setattr__(self, name, value):
        raise AttributeError("TriangleMesh is immutable")

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    def with_vertices(self, vertices, validate=True):
        """Same topology, new vertex positions."""
        return TriangleMesh(vertices, self.faces, validate=validate)

    def same_topology(self, other):
        return (
            self.n_vertices == other.n_vertices
            and self.faces.shape == other.faces.shape
            and bool(np.array_equal(self.faces, other.faces))
        )

    def __repr__(self):
        return f"TriangleMesh(n_vertices={self.n_vertices}, n_faces={self.n_faces})"


def cross(a, b):
    """Cross product ``a x b`` over the last axis of 3-vector arrays.

    The operands broadcast as in arithmetic, e.g. ``(K, M, 3)`` with
    ``(M, 3)``.  Each component is formed from column views with the same
    products and differences as NumPy's cross product, so the results are
    equal bit for bit, without its axis handling.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def _validate(mesh):
    v, f = mesh.vertices, mesh.faces
    if not np.all(np.isfinite(v)):
        raise MeshError("non-finite vertex coordinates")
    if f.size:
        if f.min() < 0 or f.max() >= v.shape[0]:
            raise MeshError("face index out of range")
        same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
        if same.any():
            raise DegenerateFaceError(
                "degenerate face: repeated vertex index", int(np.flatnonzero(same)[0])
            )
    face_frames(mesh)  # the zero-area check


@dataclass(frozen=True)
class FaceFrames:
    """Per-face first-order geometry, stacked over all M faces.

    Attributes
    ----------
    dq : ndarray, (M, 3, 2)
        Edge matrix ``[v1 - v0, v2 - v0]`` per face.
    g : ndarray, (M, 2, 2)
        First fundamental form ``dq^T dq``.
    n : ndarray, (M, 3)
        Unit face normals ``(e01 x e02) / |e01 x e02|``.
    area : ndarray, (M,)
        True triangle areas.
    centers : ndarray, (M, 3)
        Barycenters ``(v0 + v1 + v2) / 3``.
    """

    dq: np.ndarray
    g: np.ndarray
    n: np.ndarray
    area: np.ndarray
    centers: np.ndarray

    def __len__(self):
        return self.area.shape[0]


def scatter_corners(faces, values, n_vertices):
    """Sum per-face-corner values onto the vertices.

    ``values[f, k]``, a scalar or a row, is added to vertex ``faces[f, k]``;
    vertices in no face get zero.  The sum runs corner by corner (every
    face's corner 0 first), in face order within a corner.
    """
    idx = faces.T.ravel()
    trail = np.shape(values)[2:]
    # the row length is given, not inferred: a mesh with no faces has none to infer
    cols = np.reshape(values, faces.shape + (math.prod(trail),)).transpose(2, 1, 0)
    out = [np.bincount(idx, weights=c.ravel(), minlength=n_vertices) for c in cols]
    return np.stack(out, axis=-1).reshape((n_vertices,) + trail)


def vertex_volumes(mesh, areas=None):
    """Vertex volume weights: one third of the incident face areas.

    The total vertex volume equals the total surface area.  Isolated
    vertices get volume zero.
    """
    if areas is None:
        areas = face_frames(mesh).area
    share = np.repeat(areas[:, None] / 3.0, 3, axis=1)
    return scatter_corners(mesh.faces, share, mesh.n_vertices)


def face_frames(mesh):
    """Edge matrices, fundamental forms, unit normals, areas and barycenters per face.

    The one place that forms per-face geometry; raises ``DegenerateFaceError``
    on a zero-area face.
    """
    v, f = mesh.vertices, mesh.faces
    v0, v1, v2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    e1 = v1 - v0
    e2 = v2 - v0
    dq = np.stack([e1, e2], axis=2)
    # first fundamental form from row dot products on column views (a batched
    # einsum of the (3, 2) edge matrices is several times slower)
    g = np.empty((len(e1), 2, 2))
    g[:, 0, 0] = e1[:, 0] * e1[:, 0] + e1[:, 1] * e1[:, 1] + e1[:, 2] * e1[:, 2]
    g[:, 0, 1] = g[:, 1, 0] = e1[:, 0] * e2[:, 0] + e1[:, 1] * e2[:, 1] + e1[:, 2] * e2[:, 2]
    g[:, 1, 1] = e2[:, 0] * e2[:, 0] + e2[:, 1] * e2[:, 1] + e2[:, 2] * e2[:, 2]
    c = cross(e1, e2)
    norm = np.linalg.norm(c, axis=1)
    if np.any(norm <= 0.0):
        raise DegenerateFaceError("zero-area face", int(np.flatnonzero(norm <= 0.0)[0]))
    n = c / norm[:, None]
    return FaceFrames(dq=dq, g=g, n=n, area=0.5 * norm, centers=(v0 + v1 + v2) / 3.0)


def face_cotangents(frames):
    """Cotangents of the three interior angles per face, from its frames.

    Column ``k`` holds the cotangent of the angle at corner ``k``; the angle
    at a corner is opposite the edge joining the other two corners.  Negative
    cotangents of obtuse angles are kept as-is.
    """
    # einsum may round row dots of strided views differently; contiguous edges
    # give the cotangents of the gathered-edge formula bit for bit
    e1 = np.ascontiguousarray(frames.dq[:, :, 0])
    e2 = np.ascontiguousarray(frames.dq[:, :, 1])
    s = 2.0 * frames.area
    cot0 = np.einsum("ij,ij->i", e1, e2) / s
    cot1 = np.einsum("ij,ij->i", e1, e1 - e2) / s
    cot2 = np.einsum("ij,ij->i", e2, e2 - e1) / s
    return np.stack([cot0, cot1, cot2], axis=1)


# corner k of a face is opposite the edge (other[k][0], other[k][1])
_OPPOSITE = ((1, 2), (2, 0), (0, 1))


# the four entries (row, column, sign) of each corner's cotangent, for the edge
# (i, j) opposite the corner: (i, j, -1), (j, i, -1), (i, i, +1), (j, j, +1)
_ENTRY_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])


#: how many (template, vertex count, copy count) keys keep their Laplacian pattern
_PATTERN_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _laplacian_pattern(face_bytes, n, copies):
    """CSR ``(indptr, indices, slots)`` of the Laplacian of ``copies`` copies of one template.

    ``face_bytes`` holds the template's int64 faces on ``n`` vertices.
    ``slots`` maps the ``12 K M`` corner entries, laid out as
    ``(entry, face, corner)`` in the order of ``_ENTRY_SIGNS``, to their CSR
    positions.  Only the template's ``12 M`` keys are sorted; copy ``k``
    tiles its pattern, shifted by ``k n`` vertices and ``k nnz`` entries.
    """
    faces = np.frombuffer(face_bytes, dtype=np.int64).reshape(-1, 3)
    i = faces[:, [a for a, _ in _OPPOSITE]]  # (M, 3), one edge per corner
    j = faces[:, [b for _, b in _OPPOSITE]]
    # row-major keys row * n + column of the entries
    keys = np.stack([i * n + j, j * n + i, i * (n + 1), j * (n + 1)]).ravel()
    keys, slots = np.unique(keys, return_inverse=True)
    nnz = len(keys)
    index = np.int32 if copies * max(n, nnz) < 2**31 else np.int64
    indptr = np.zeros(copies * n + 1, dtype=index)
    np.cumsum(np.tile(np.bincount(keys // n, minlength=n), copies), out=indptr[1:])
    copy = np.arange(copies)[:, None]
    indices = (keys % n + n * copy).astype(index).ravel()
    pattern = indptr, indices, (slots.reshape(4, 1, -1) + nnz * copy).ravel()
    for array in pattern:  # shared by every caller and every matrix built on it
        array.setflags(write=False)
    return pattern


def cotan_laplacian(mesh):
    """Sparse cotangent Laplacian ``L`` with ``(L h)_i = sum_j w_ij (h_i - h_j)``.

    ``w_ij`` sums the cotangents of the angles opposite the edge ``(i, j)``
    in its incident faces; boundary edges have a single incident face and
    contribute one cotangent, read from :func:`face_frames` of the mesh.

    The CSR pattern (row pointers, sorted column indices and the slot of
    each corner entry) is built once per template face array, vertex count
    and copy count, and kept for the last few; a union of template copies
    (:func:`metric._union_geometry`) tiles the template's.  Each call only
    sums the cotangents into the values, in face order.  Off-diagonal
    entries hold at most two terms, so they equal a COO assembly exactly;
    diagonal sums of more terms may differ from one in the last bits.
    """
    return _union_laplacian(mesh, face_cotangents(face_frames(mesh)), 1)


def _union_laplacian(mesh, cot, copies):
    """:func:`cotan_laplacian` of ``mesh``, a union of ``copies`` copies of its first faces.

    ``cot`` holds the :func:`face_cotangents` of the mesh.
    """
    n = mesh.n_vertices
    template = mesh.faces[: mesh.n_faces // copies]
    indptr, indices, slots = _laplacian_pattern(template.tobytes(), n // copies, copies)
    weights = np.multiply.outer(_ENTRY_SIGNS, cot).ravel()
    data = np.bincount(slots, weights=weights, minlength=len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _check_field(mesh, h):
    """``h`` as a float ``(N, 3)`` vertex field of ``mesh``; raises ``MeshError`` otherwise."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (mesh.n_vertices, 3):
        raise MeshError(f"field shape {h.shape} does not match mesh ({mesh.n_vertices}, 3)")
    return h


def mesh_edges(mesh):
    """Unique undirected edges as an ``(E, 2)`` sorted-index array."""
    f = mesh.faces
    e = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


def mesh_diameter(mesh):
    """Exact diameter of the vertex set (max pairwise distance).

    Uses the convex hull to prune candidates; tiny and flat inputs, which
    have no 3-D hull, take the brute-force pairwise maximum over row blocks
    of about 65k pairs.
    """
    pts = mesh.vertices
    if pts.shape[0] > 16:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
    best = 0.0
    step = max(1, 2**16 // max(1, len(pts)))
    for start in range(0, len(pts), step):
        diff = pts[start:start + step, None, :] - pts[None, :, :]
        best = max(best, np.einsum("ijk,ijk->ij", diff, diff).max())
    return float(np.sqrt(best))


def normalize_unit_diameter(mesh):
    """Rescale (about the origin) so the vertex-set diameter is 1.

    Returns
    -------
    (TriangleMesh, float)
        Rescaled mesh and the scale factor that was divided out.
    """
    d = mesh_diameter(mesh)
    if d <= 0.0:
        raise MeshError("cannot normalize: zero diameter")
    return mesh.with_vertices(mesh.vertices / d), d


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def load_mesh(path):
    """Load a triangle mesh from an OBJ or PLY file, by its suffix.

    OBJ must be ASCII; normals and texture coordinates are ignored.  PLY may
    be ASCII or binary little-endian, with ``x y z`` vertices and one index
    list per face among other scalar properties; other scalar elements are
    skipped (see the module notes).  Faces with more or fewer than three
    vertices are rejected.  Every ASCII PLY row must end in a newline: a file
    without a final newline cannot be told apart from one cut inside its last
    number, and raises as truncated.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "obj":
        vertices, faces = _read_obj(path)
    elif fmt == "ply":
        with open(path, "rb") as fh:
            vertices, faces = _read_ply_stream(fh, path)
    else:
        raise MeshParseError(f"unsupported mesh format: {fmt!r}")
    try:
        return TriangleMesh(vertices, faces)
    except MeshError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_mesh(mesh, path, binary=False):
    """Write a mesh as OBJ or PLY, by the suffix of ``path``.

    ASCII output uses ``repr`` floats, which round-trip exactly; binary PLY
    stores little-endian doubles.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "obj":
        _write_obj(mesh, path)
    elif fmt == "ply":
        path.write_bytes(ply_bytes(mesh, binary=binary))
    else:
        raise MeshParseError(f"unsupported mesh format: {fmt!r}")


def _read_obj(path):
    vertices, faces = [], []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                try:
                    x, y, z = map(float, parts[1:4])
                except ValueError:
                    raise MeshParseError(f"{path}:{lineno}: malformed vertex line") from None
                vertices.append([x, y, z])
            elif tag == "f":
                idx = parts[1:]
                if len(idx) != 3:
                    raise MeshParseError(
                        f"{path}:{lineno}: non-triangle face with {len(idx)} vertices"
                    )
                try:
                    faces.append([int(tok.split("/")[0]) - 1 for tok in idx])
                except ValueError:
                    raise MeshParseError(f"{path}:{lineno}: malformed face line") from None
            # vn/vt/usemtl/... ignored
    if not vertices:
        raise MeshParseError(f"{path}: no vertices found")
    return np.array(vertices), np.array(faces, dtype=np.int64).reshape(-1, 3)


def _write_obj(mesh, path):
    # one formatting call per section; %r is repr, which round-trips every double
    v, f = mesh.vertices, mesh.faces + 1
    with open(path, "w") as fh:
        fh.write(("v %r %r %r\n" * len(v)) % tuple(v.ravel().tolist()))
        fh.write(("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()))


_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def read_exact(fh, size, path):
    """``size`` bytes of the binary file ``path``; a short read raises :class:`MeshParseError`."""
    data = fh.read(size)
    if len(data) != size:
        raise MeshParseError(f"{path}: truncated: {size} bytes expected at byte "
                             f"{fh.tell() - len(data)}, {len(data)} found")
    return data


def _read_ply_stream(fh, path):
    """Vertices and faces of the PLY file open on the binary stream ``fh``.

    One loop reads every element of either encoding as one record table
    (:func:`_ply_records`), so both give the same arrays or the same error.
    """
    if fh.readline().strip() != b"ply":
        raise MeshParseError(f"{path}: not a PLY file")
    fmt = None
    elements = []  # (name, count, record fields); list "p" is fields "p count" and "p"
    while (line := fh.readline()).strip() != b"end_header":
        if not line.endswith(b"\n"):
            raise MeshParseError(f"{path}: truncated header")
        tokens = line.decode("ascii", "replace").split()
        try:
            if not tokens or tokens[0] in ("comment", "obj_info"):
                continue
            if tokens[0] == "format":
                fmt = tokens[1]
            elif tokens[0] == "element":
                elements.append((tokens[1], int(tokens[2]), []))
                if elements[-1][1] < 0:
                    raise ValueError
            elif tokens[0] == "property" and tokens[1:2] == ["list"]:
                _, _, count_t, item_t, prop = tokens
                elements[-1][2].extend([(f"{prop} count", "<" + _PLY_TYPES[count_t]),
                                        (prop, "<" + _PLY_TYPES[item_t], (3,))])
            elif tokens[0] == "property":
                _, scalar_t, prop = tokens
                elements[-1][2].append((prop, "<" + _PLY_TYPES[scalar_t]))
        except (IndexError, KeyError, ValueError):
            raise MeshParseError(f"{path}: bad PLY header line {' '.join(tokens)!r}") from None
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshParseError(f"{path}: unsupported PLY format {fmt!r}")
    vertices, faces = None, np.empty((0, 3), dtype=np.int64)
    for name, count, fields in elements:
        lists = [field[0] for field in fields if len(field) == 3]
        if name == "face" and len(lists) != 1:
            raise MeshParseError(f"{path}: face element must hold one index list")
        if name != "face" and lists:
            raise MeshParseError(f"{path}: cannot read list property in {name!r} element")
        rec = _ply_records(fh, path, fmt != "ascii", name, count, fields)
        if name == "vertex":
            if not {"x", "y", "z"} <= set(rec.dtype.names):
                raise MeshParseError(f"{path}: vertex element needs properties x, y and z")
            vertices = np.stack([rec[c] for c in "xyz"], axis=1).astype(np.float64)
        elif name == "face":
            faces = rec[lists[0]].astype(np.int64)
    if vertices is None:
        raise MeshParseError(f"{path}: no vertex element")
    return vertices, faces


def _ply_records(fh, path, binary, name, count, fields):
    """The ``count`` rows of one PLY element as a structured record array.

    A list is read as its count and three items, so all rows have one width:
    a binary row is raw bytes, an ASCII row one line split into tokens.  A
    count other than 3 raises the non-triangle error at its row, before a
    short element raises as truncated.
    """
    lines = rows = ()
    try:
        dtype = np.dtype(fields)
        # token offset of each field in an ASCII row
        starts = np.cumsum([0] + [dtype[f].itemsize // dtype[f].base.itemsize for f in dtype.names])
        if binary:
            data = fh.read(dtype.itemsize * count)
            rec = np.frombuffer(data, dtype, count=len(data) // max(dtype.itemsize, 1))
        else:
            lines = list(islice(fh, count))
            # every row ends in a newline: a last line without one may be cut
            # inside its last number, so it counts as missing
            if lines and not lines[-1].endswith(b"\n"):
                lines.pop()
            rows = list(map(bytes.split, lines))
            full = np.fromiter(map(len, rows), np.intp, len(rows)) == starts[-1]
            # the rows before the first one of another width
            rec = np.empty(int(np.argmin(np.append(full, False))), dtype)
            table = np.array(rows[: len(rec)], dtype=bytes).reshape(len(rec), starts[-1])
            for f, a, b in zip(dtype.names, starts, starts[1:]):
                rec[f] = table[:, a:b].reshape(rec[f].shape)
    except (ValueError, OverflowError) as exc:
        raise MeshParseError(f"{path}: bad {name!r} element: {exc}") from None
    n = len(rec)
    # ASCII: a whole line of another width
    odd = rows[n] if n < len(lines) else None
    for f, a in zip(dtype.names, starts):
        if not f.endswith(" count"):
            continue
        bad = np.flatnonzero(rec[f] != 3)
        if bad.size or odd is not None and len(odd) > a and odd[a] != b"3":
            k, row = (rec[f][bad[0]], bad[0]) if bad.size else (odd[a].decode("ascii", "ignore"), n)
            raise MeshParseError(f"{path}: non-triangle face with {k} vertices (face {row})")
    if odd is not None:
        raise MeshParseError(f"{path}: {name!r} row {n} holds {len(odd)} values, "
                             f"{starts[-1]} expected")
    if n < count:
        raise MeshParseError(f"{path}: truncated {name!r} element: {count} rows expected, "
                             f"{n} found")
    return rec


def ply_bytes(mesh, binary=True):
    """Serialize a mesh as a PLY byte string (double-precision coordinates)."""
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    chunks = [("\n".join(header) + "\n").encode("ascii")]
    if binary:
        chunks.append(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
        faces = np.empty(mesh.n_faces, dtype=[("k", "u1"), ("v", "<i4", (3,))])
        faces["k"] = 3
        faces["v"] = mesh.faces
        chunks.append(faces.tobytes())
    else:
        for x, y, z in mesh.vertices:
            chunks.append(f"{float(x)!r} {float(y)!r} {float(z)!r}\n".encode("ascii"))
        for a, b, c in mesh.faces:
            chunks.append(f"3 {a} {b} {c}\n".encode("ascii"))
    return b"".join(chunks)


def mesh_from_ply_bytes(data):
    """Parse a mesh from an in-memory PLY byte string."""
    vertices, faces = _read_ply_stream(io.BytesIO(data), "<bytes>")
    return TriangleMesh(vertices, faces)

