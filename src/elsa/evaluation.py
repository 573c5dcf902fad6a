"""Similarity measures for judging reconstructions and correspondences.

Hausdorff and Chamfer compare vertex sets and tolerate arbitrary remeshing;
the registered mean squared error and the geodesic correspondence error
require identical topology.  Nearest-neighbor queries run through a KD-tree,
which agrees with the brute-force double loop exactly (the tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .mesh import MeshError, mesh_edges
from .varifold import varifold_sqdist


@dataclass(frozen=True)
class EvalReport:
    """Named metric values for one mesh pair."""

    values: dict
    provenance: tuple = ("", "")

    def __post_init__(self):
        for name, value in self.values.items():
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"metric {name!r} has invalid value {value}")


def _check_nonempty(mesh):
    if mesh.n_vertices == 0:
        raise MeshError("empty mesh")


def _vertex_set_metrics(a, b):
    """Hausdorff and Chamfer distances off one nearest-vertex query each way,
    and the index of the nearest vertex of ``b`` to each vertex of ``a``."""
    _check_nonempty(a)
    _check_nonempty(b)
    d_ab, nearest = cKDTree(b.vertices).query(a.vertices)
    d_ba = cKDTree(a.vertices).query(b.vertices)[0]
    return {"hausdorff": float(max(d_ab.max(), d_ba.max())),
            "chamfer": float(d_ab.mean() + d_ba.mean())}, nearest


def hausdorff(a, b):
    """Symmetric Hausdorff distance between the two vertex sets."""
    return _vertex_set_metrics(a, b)[0]["hausdorff"]


def chamfer(a, b):
    """Sum of the two mean nearest-neighbor vertex distances (not squared)."""
    return _vertex_set_metrics(a, b)[0]["chamfer"]


def registered_mse(a, b):
    """Mean squared vertex distance for meshes with identical topology."""
    if not a.same_topology(b):
        raise MeshError("registered MSE requires identical topology")
    diff = a.vertices - b.vertices
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def geodesic_correspondence_error(pred, truth):
    """Mean edge-graph geodesic distance between estimated and true matches.

    Each predicted vertex ``i`` snaps to its nearest vertex ``j(i)`` on the
    truth mesh; the error averages the shortest-path distance (Dijkstra on
    edge lengths) between ``j(i)`` and ``i`` over all vertices.  The edge
    graph approximates intrinsic geodesics from above.
    """
    if not pred.same_topology(truth):
        raise MeshError("geodesic error requires identical topology")
    return _geodesic_error(truth, cKDTree(truth.vertices).query(pred.vertices)[1])


def _geodesic_error(truth, snapped):
    """:func:`geodesic_correspondence_error` with vertex ``i`` snapped to ``snapped[i]``."""
    # imported here: csgraph is the largest import "import elsa" would add
    from scipy.sparse.csgraph import dijkstra

    edges = mesh_edges(truth)
    lengths = np.linalg.norm(truth.vertices[edges[:, 0]] - truth.vertices[edges[:, 1]], axis=1)
    n = truth.n_vertices
    graph = csr_matrix(
        (np.concatenate([lengths, lengths]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    sources = np.unique(snapped)
    dist = dijkstra(graph, directed=False, indices=sources)
    per_vertex = dist[np.searchsorted(sources, snapped), np.arange(n)]
    if not np.all(np.isfinite(per_vertex)):
        raise MeshError("truth mesh edge graph is disconnected")
    return float(per_vertex.mean())


def evaluate_pair(a, b, varifold_config=None, provenance=("", "")):
    """All applicable metrics for one pair, as an :class:`EvalReport`.

    Registered metrics are included only when the topologies match; the
    varifold distance is included when a kernel configuration is given.
    """
    values, nearest = _vertex_set_metrics(a, b)
    if varifold_config is not None:
        values["varifold"] = float(np.sqrt(varifold_sqdist(a, b, varifold_config)))
    if a.same_topology(b):
        values["mse"] = registered_mse(a, b)
        values["geodesic_error"] = _geodesic_error(b, nearest)
    return EvalReport(values=values, provenance=tuple(provenance))
