"""Backward exploration: susceptibility sets and their restricted sizes.

The susceptibility set of v collects every vertex with a directed path
to v; its time-t slice keeps paths of length at most t.  On a
materialized graph this is a shortest-path search on the transposed
graph (``scipy.sparse.csgraph.dijkstra`` with a distance limit), which
is law-equivalent to the incremental reveal used for coupling
arguments; the reveal's flag events survive here only as a diagnostic
collision counter.  Snapshots hold sorted id arrays built from length-n
masks.  Restricted sets are breadth-first reachable sets of a masked
transposed graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import breadth_first_order, dijkstra

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
    """One root's backward exploration to a horizon; ids are sorted int64 arrays."""

    root: int
    # distance and active_distance may be left out (None) by the loop
    # oracle in tests/oracles.py, which keeps distances in dict/set form.
    explored: np.ndarray  # vertices within the horizon, root included
    distance: np.ndarray = None  # their distances to the root
    active: np.ndarray  # vertices one reverse edge beyond the horizon
    active_distance: np.ndarray = None  # their best tentative distances
    passive: np.ndarray  # out-neighbours of explored or active vertices that are neither
    flagged: bool
    collision_count: int
    horizon: float
    population: object = None


def default_t_star(n: int, alpha: float, kappa: float = 0.5) -> float:
    """Coupling horizon (1 - kappa)/4 * log(n) / alpha."""
    if not 0 < kappa < 1:
        raise DomainError("kappa must lie in (0, 1)")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return (1.0 - kappa) / 4.0 * math.log(n) / alpha


def _row_entries(indptr, rows):
    """Positions in a CSR edge array of every entry of ``rows``, and their rows."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    owner = np.repeat(rows, counts)
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return starts + np.arange(len(owner)), owner


def _check_root(graph: EpidemicGraph, v) -> int:
    """Root v as an int; DomainError unless it is a vertex id of graph."""
    if not (isinstance(v, (int, np.integer)) and 0 <= v < graph.n):
        raise DomainError(f"root {v!r} is not a vertex id in 0..{graph.n - 1}")
    return int(v)


def explore_susceptibility(graph: EpidemicGraph, v: int, t_star: float) -> SusceptibilitySnapshot:
    """Reverse shortest paths from v, keeping vertices with distance <= t_star.

    The collision counter counts the reverse edges out of the explored
    set that reach an already-discovered vertex -- the events that
    would flag the incremental-reveal coupling.  Every other such edge
    discovers a new vertex, so the count is the number of those edges
    minus the vertices discovered besides v.
    """
    v = _check_root(graph, v)
    if not t_star >= 0:  # also rejects NaN
        raise DomainError(f"t_star must be >= 0, got {t_star}")
    rev = graph.reverse_matrix()
    dist = dijkstra(rev, indices=v, limit=t_star)
    inside = np.isfinite(dist) & (dist <= t_star)
    explored = np.flatnonzero(inside)

    edges, owner = _row_entries(rev.indptr, explored)
    reached = rev.indices[edges]
    outside = ~inside[reached]
    best = np.full(graph.n, np.inf)
    np.minimum.at(best, reached[outside], dist[owner[outside]] + rev.data[edges[outside]])
    active = np.flatnonzero(np.isfinite(best))
    discovered = np.concatenate((explored, active))

    heads = np.zeros(graph.n, dtype=bool)
    heads[graph.heads[_row_entries(graph.indptr, discovered)[0]]] = True
    heads[discovered] = False
    collisions = len(edges) - (len(explored) + len(active) - 1)
    return SusceptibilitySnapshot(
        root=v, explored=explored, distance=dist[explored], active=active,
        active_distance=best[active], passive=np.flatnonzero(heads),
        flagged=collisions > 0, collision_count=collisions, horizon=float(t_star),
        population=graph.population)


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
    v_star = _check_root(graph, v_star)
    pop = graph.population
    i0, j0 = pop.type_index(i), pop.type_index(j)
    if pop.type_of(v_star) != j0:
        raise DomainError(f"v_star={v_star} is not of type {j}")
    reached = breadth_first_order(graph.reverse_matrix((i0, j0)), v_star,
                                  return_predecessors=False)
    return RestrictedSetSize(y=len(reached))
