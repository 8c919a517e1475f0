"""Backward exploration: susceptibility sets and their restricted sizes.

The susceptibility set of v collects every vertex with a directed path
to v; its time-t slice keeps paths of length at most t.  On a
materialized graph this is one shortest-path search on the transposed
graph (``scipy.sparse.csgraph.dijkstra`` with a distance limit), which
reads nothing else.  A snapshot holds the slice and its collision
count, the reverse edges out of the slice minus the vertices they
discover besides the root.  Restricted sets are breadth-first
reachable sets of a masked transposed graph.  ``scipy.sparse.csgraph``
is imported inside the two searches, so importing this module loads
numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfHorizonError
from .graph import EpidemicGraph

__all__ = [
    "SusceptibilitySnapshot",
    "RestrictedSetSize",
    "explore_susceptibility",
    "susceptibility_counts",
    "restricted_susceptibility_size",
    "default_t_star",
]


@dataclass(kw_only=True)
class SusceptibilitySnapshot:
    """One root's susceptibility set at a horizon, and its collision count.

    ``explored`` (sorted int64 ids, root included) and ``distance`` are
    the vertices within ``horizon`` of the root and their distances.  A
    reverse edge out of the explored set either discovers a vertex or
    reaches one already discovered, a collision that would flag the
    coupling with the backward branching process; so ``collision_count``
    is the number of those edges minus the distinct vertices they
    discover besides the root.  ``flagged`` is ``collision_count > 0``.
    """

    root: int
    explored: np.ndarray
    distance: np.ndarray
    flagged: bool
    collision_count: int
    horizon: float
    population: object = None


def default_t_star(n: int, alpha: float, kappa: float = 0.5) -> float:
    """Coupling horizon (1 - kappa)/4 * log(n) / alpha."""
    if not 0 < kappa < 1:
        raise DomainError("kappa must lie in (0, 1)")
    if not alpha > 0:  # also rejects NaN
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not n >= 1:
        raise DomainError(f"n must be at least 1, got {n}")
    return (1.0 - kappa) / 4.0 * math.log(n) / alpha


def _row_entries(indptr, rows):
    """Positions in a CSR edge array of every entry of ``rows``."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return starts + np.arange(len(starts))


def _check_root(graph: EpidemicGraph, v) -> int:
    """Root v as an int; DomainError unless it is a vertex id of graph."""
    if not (isinstance(v, (int, np.integer)) and 0 <= v < graph.n):
        raise DomainError(f"root {v!r} is not a vertex id in 0..{graph.n - 1}")
    return int(v)


def explore_susceptibility(graph: EpidemicGraph, v: int, t_star: float) -> SusceptibilitySnapshot:
    """Reverse shortest paths from v, keeping vertices with distance <= t_star.

    The vertices discovered besides v are the rest of the explored set
    and the distinct vertices outside it that its reverse edges reach.
    """
    from scipy.sparse.csgraph import dijkstra

    v = _check_root(graph, v)
    if not t_star >= 0:  # also rejects NaN
        raise DomainError(f"t_star must be >= 0, got {t_star}")
    rev = graph.reverse_matrix()
    dist = dijkstra(rev, indices=v, limit=t_star)
    inside = np.isfinite(dist)  # dijkstra leaves every vertex beyond the limit at inf
    explored = np.flatnonzero(inside)
    reached = rev.indices[_row_entries(rev.indptr, explored)]
    discovered = len(explored) - 1 + np.unique(reached[~inside[reached]]).size
    collisions = len(reached) - discovered
    return SusceptibilitySnapshot(
        root=v, explored=explored, distance=dist[explored], flagged=collisions > 0,
        collision_count=collisions, horizon=float(t_star), population=graph.population)


def susceptibility_counts(snapshot: SusceptibilitySnapshot, t: float, a: float, j: int) -> int:
    """Count type-j members of the t-slice whose distance exceeds t - a."""
    if t > snapshot.horizon:
        raise OutOfHorizonError(f"t={t} beyond explored horizon {snapshot.horizon}")
    if not (t >= 0 and a >= 0):  # also rejects NaN
        raise DomainError(f"t and a must be >= 0, got t={t}, a={a}")
    j0 = snapshot.population.type_index(j)
    d = snapshot.distance
    in_type = snapshot.population.type_of(snapshot.explored) == j0
    return int(np.count_nonzero((d <= t) & (d > t - a) & in_type))


@dataclass(frozen=True)
class RestrictedSetSize:
    y: int


def restricted_susceptibility_size(graph: EpidemicGraph, v_star: int, i: int, j: int) -> RestrictedSetSize:
    """Size of the reverse-reachable set of v_star in the restricted edge set.

    The restricted edge set keeps edges whose tail has type i or whose
    head does not have type j; v_star must have type j.  The count
    includes v_star itself.
    """
    from scipy.sparse.csgraph import breadth_first_order

    v_star = _check_root(graph, v_star)
    pop = graph.population
    i0, j0 = pop.type_index(i), pop.type_index(j)
    if pop.type_of(v_star) != j0:
        raise DomainError(f"v_star={v_star} is not of type {j}")
    reached = breadth_first_order(graph.reverse_matrix((i0, j0)), v_star,
                                  return_predecessors=False)
    return RestrictedSetSize(y=len(reached))
