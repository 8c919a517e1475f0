"""Shortest-path kernel of the forward engine.

Distances come from ``scipy.sparse.csgraph.dijkstra``; predecessors
come from one vectorised pass over the tight edges, which keeps the
deterministic smaller-id predecessor tie-break.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import DomainError

__all__ = ["dijkstra", "NUMBA_ENABLED"]

# No compiled kernel exists; the constant is kept for tools that report it.
NUMBA_ENABLED = False


def dijkstra(indptr, heads, weights, sources):
    """Multi-source shortest paths with predecessors on a CSR graph.

    Returns (dist, pred); sources have dist 0 and pred -1, unreachable
    vertices have dist inf and pred -1.  The predecessor of v is the
    smallest u over the tight edges ``dist[u] + w == dist[v]``.  Edge
    weights must be positive: a zero-length edge would make that rule
    ambiguous between vertices at equal distance.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.int64)
    n = len(indptr) - 1
    if weights.size and not weights.min() > 0:
        raise DomainError("edge weights must be positive")
    graph = csr_matrix((weights, heads, indptr), shape=(n, n))
    dist = _csgraph_dijkstra(graph, indices=sources, min_only=True)

    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    d_tail = dist[tails]
    tight = np.isfinite(d_tail) & (d_tail + weights == dist[heads])
    pred = np.full(n, n, dtype=np.int64)
    np.minimum.at(pred, heads[tight], tails[tight])
    pred[pred == n] = -1
    pred[sources] = -1
    return dist, pred
