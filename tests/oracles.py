"""Reference implementations kept as test oracles.

Plain heap and stack loops that compute, one vertex at a time, what the
package computes with ``scipy.sparse.csgraph``: forward shortest paths
with the smaller-id predecessor tie-break, backward susceptibility
snapshots, and restricted susceptibility set sizes.
"""

import heapq

import numpy as np

from infector.backward import RestrictedSetSize, SusceptibilitySnapshot
from infector.errors import DomainError
from infector.graph import EpidemicGraph


def _dijkstra_py(indptr, heads, weights, sources):
    n = len(indptr) - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    heap = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, int(s)))
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for e in range(indptr[u], indptr[u + 1]):
            v = heads[e]
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, int(v)))
            elif nd == dist[v] and not done[v] and (pred[v] == -1 or u < pred[v]):
                pred[v] = u
    return dist, pred


def explore_susceptibility(graph: EpidemicGraph, v: int, t_star: float) -> SusceptibilitySnapshot:
    """Reverse label-setting from v, settling vertices with distance <= t_star.

    The collision counter increments whenever a relaxation reaches an
    already-discovered vertex -- the events that would flag the
    incremental-reveal coupling.
    """
    if t_star < 0:
        raise DomainError("t_star must be >= 0")
    r_indptr, r_tails, r_weights = graph.reverse_csr()
    dist = {v: 0.0}
    explored = {}
    collisions = 0
    heap = [(0.0, int(v))]
    while heap:
        d, u = heapq.heappop(heap)
        if u in explored or d > dist.get(u, np.inf):
            continue
        if d > t_star:
            break
        explored[u] = d
        for e in range(r_indptr[u], r_indptr[u + 1]):
            w = int(r_tails[e])
            nd = d + float(r_weights[e])
            if w in dist or w in explored:
                collisions += 1
            if nd < dist.get(w, np.inf) and w not in explored:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))

    active = {(u, d) for u, d in dist.items() if u not in explored}
    passive = set()
    for u in explored:
        lo, hi = graph.indptr[u], graph.indptr[u + 1]
        passive.update(int(h) for h in graph.heads[lo:hi])
    for u, _ in active:
        lo, hi = graph.indptr[u], graph.indptr[u + 1]
        passive.update(int(h) for h in graph.heads[lo:hi])
    passive -= set(explored)
    passive -= {u for u, _ in active}
    return SusceptibilitySnapshot(
        root=int(v),
        explored=explored,
        active=active,
        passive=passive,
        flagged=collisions > 0,
        collision_count=collisions,
        horizon=float(t_star),
        population=graph.population,
    )


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
    r_indptr, r_tails, _ = graph.reverse_csr()
    types = pop.type_array()
    seen = {int(v_star)}
    stack = [int(v_star)]
    while stack:
        w = stack.pop()
        w_is_j = types[w] == j0
        for e in range(r_indptr[w], r_indptr[w + 1]):
            u = int(r_tails[e])
            # edge (u -> w) is in the restricted set iff tail type is i
            # or head type is not j
            if (types[u] == i0 or not w_is_j) and u not in seen:
                seen.add(u)
                stack.append(u)
    return RestrictedSetSize(y=len(seen))
