"""Backward exploration: susceptibility sets and their restricted sizes.

The susceptibility set of v collects every vertex with a directed path
to v; its time-t slice keeps paths of length at most t.  On a
materialized graph this is a shortest-path search on the transposed
graph (``scipy.sparse.csgraph.dijkstra`` with a distance limit), which
is law-equivalent to the incremental reveal used for coupling
arguments; the reveal's flag events survive here only as a diagnostic
collision counter.  Restricted sets are breadth-first reachable sets
of a masked transposed graph.
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


@dataclass
class SusceptibilitySnapshot:
    """State of a backward exploration of one root up to a time horizon."""

    root: int
    explored: dict  # vertex -> distance to root, root included at 0
    active: set  # (vertex, best-known distance) with distance > horizon
    passive: set  # heads of revealed out-edges, not explored or active
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


def explore_susceptibility(graph: EpidemicGraph, v: int, t_star: float) -> SusceptibilitySnapshot:
    """Reverse shortest paths from v, keeping vertices with distance <= t_star.

    The collision counter counts the reverse edges out of the explored
    set that reach an already-discovered vertex -- the events that
    would flag the incremental-reveal coupling.  Every other such edge
    discovers a new vertex, so the count is the number of those edges
    minus the vertices discovered besides v.
    """
    if t_star < 0:
        raise DomainError("t_star must be >= 0")
    rev = graph.reverse_matrix()
    dist = dijkstra(rev, indices=v, limit=t_star)
    inside = np.isfinite(dist) & (dist <= t_star)
    explored = np.flatnonzero(inside)

    edges, owner = _row_entries(rev.indptr, explored)
    reached = rev.indices[edges]
    outside = ~inside[reached]
    frontier = reached[outside]
    best = np.full(graph.n, np.inf)
    np.minimum.at(best, frontier, dist[owner[outside]] + rev.data[edges[outside]])
    active = np.unique(frontier)
    discovered = np.union1d(explored, active)

    heads = graph.heads[_row_entries(graph.indptr, discovered)[0]]
    passive = np.setdiff1d(heads, discovered)
    collisions = len(edges) - (len(discovered) - 1)
    return SusceptibilitySnapshot(
        root=int(v),
        explored=dict(zip(explored.tolist(), dist[explored].tolist())),
        active=set(zip(active.tolist(), best[active].tolist())),
        passive=set(passive.tolist()),
        flagged=collisions > 0,
        collision_count=collisions,
        horizon=float(t_star),
        population=graph.population,
    )


def susceptibility_counts(snapshot: SusceptibilitySnapshot, t: float, a: float, j: int) -> int:
    """Count type-j members of the t-slice whose distance exceeds t - a."""
    if t > snapshot.horizon:
        raise OutOfHorizonError(f"t={t} beyond explored horizon {snapshot.horizon}")
    if t < 0 or a < 0:
        raise DomainError("t and a must be >= 0")
    pop = snapshot.population
    j0 = int(j) - 1
    if not 0 <= j0 < pop.k:
        raise DomainError("type index out of range")
    return sum(
        1
        for u, d in snapshot.explored.items()
        if d <= t and d > t - a and pop.type_of(u) == j0
    )


@dataclass(frozen=True)
class RestrictedSetSize:
    y: int


def restricted_susceptibility_size(graph: EpidemicGraph, v_star: int, i: int, j: int) -> RestrictedSetSize:
    """Size of the reverse-reachable set of v_star in the restricted edge set.

    The restricted edge set keeps edges whose tail has type i or whose
    head does not have type j; v_star must have type j.  The count
    includes v_star itself.
    """
    pop = graph.population
    i0, j0 = int(i) - 1, int(j) - 1
    if not (0 <= i0 < pop.k and 0 <= j0 < pop.k):
        raise DomainError("type index out of range")
    if pop.type_of(v_star) != j0:
        raise DomainError(f"v_star={v_star} is not of type {j}")
    reached = breadth_first_order(graph.reverse_matrix((i0, j0)), int(v_star),
                                  return_predecessors=False)
    return RestrictedSetSize(y=len(reached))
