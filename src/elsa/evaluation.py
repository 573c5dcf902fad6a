"""Similarity measures for judging reconstructions and correspondences.

:func:`evaluate_pair` is the one evaluation of a mesh pair.  Hausdorff and
Chamfer compare vertex sets and tolerate arbitrary remeshing; the registered
mean squared error and the geodesic correspondence error require identical
topology.  All of them read one KD-tree query each way, which agrees with
the brute-force double loop exactly (the tests pin this).
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


def registered_mse(a, b):
    """Mean squared vertex distance for meshes with identical topology."""
    if not a.same_topology(b):
        raise MeshError("registered MSE requires identical topology")
    diff = a.vertices - b.vertices
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def _geodesic_error(truth, snapped):
    """Mean edge-graph geodesic distance from vertex ``i`` to ``snapped[i]``.

    Each predicted vertex ``i`` snaps to its nearest vertex ``snapped[i]`` on
    the truth mesh; the error averages the shortest-path distance (Dijkstra
    on edge lengths) between the two over all vertices.  The edge graph
    approximates intrinsic geodesics from above.
    """
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


def evaluate_pair(a, b, sigma=None):
    """All applicable metrics for one pair, as an :class:`EvalReport`.

    Registered metrics are included only when the topologies match; the
    varifold distance is included when a kernel scale ``sigma`` is given.
    """
    values, nearest = _vertex_set_metrics(a, b)
    if sigma is not None:
        values["varifold"] = float(np.sqrt(varifold_sqdist(a, b, sigma)))
    if a.same_topology(b):
        values["mse"] = registered_mse(a, b)
        values["geodesic_error"] = _geodesic_error(b, nearest)
    return EvalReport(values=values)
