"""Reference implementations kept as test oracles.

Plain heap and stack loops that compute, one vertex at a time, what the
package computes with ``scipy.sparse.csgraph``: forward shortest paths
with the smaller-id predecessor tie-break, backward susceptibility
snapshots, and restricted susceptibility set sizes.  A per-particle
loop with a full event log does, one run at a time, what the batched
branching-process simulator does by generation; ``simulate_batch`` is
the earlier per-particle-array form of that simulator, whose draw order
the block form must keep.  ``rho1_bounds`` and ``aggregate_mean_stderr``
are the earlier inline forms of Theorem 2's bounds and of the replicate
mean and standard error, which ``analytic`` now computes once each.
"""

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from infector import rng as rngmod
from infector.backward import RestrictedSetSize, SusceptibilitySnapshot
from infector.branching import backward_mean_matrix
from infector.config import ModelConfig
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


def _child_ages(rng, kern, child_type0: int, size: int) -> np.ndarray:
    """Ages from the normalized mean contact measure of the child's type.

    Latent period plus a uniform position in a length-biased infectious
    period; exact for constants, exponentials and gammas.
    """
    lat = kern.latent[child_type0].sample(rng, size=size)
    iota = kern.infectious[child_type0].sample_size_biased(rng, size=size)
    return lat + iota * rng.random(size)


def simulate_batch(config: ModelConfig, root_types0: np.ndarray, horizon: float,
                   cap: int, rng: np.random.Generator):
    """Simulate independent backward runs generation by generation.

    Returns (sizes, last_birth, capped) per run.  Capped runs stop
    growing once their size exceeds the cap; their counts are lower
    bounds and must not be used for W estimates.
    """
    kern = config.kernel
    k = config.k
    mb = backward_mean_matrix(config)
    n_runs = len(root_types0)
    sizes = np.ones(n_runs, dtype=np.int64)
    last_birth = np.zeros(n_runs)
    capped = np.zeros(n_runs, dtype=bool)

    run = np.arange(n_runs, dtype=np.int64)
    times = np.zeros(n_runs)
    types0 = np.asarray(root_types0, dtype=np.int64)

    while len(run) > 0:
        next_run, next_times, next_types = [], [], []
        for i0 in range(k):
            lam = mb[types0, i0]
            counts = rng.poisson(lam)
            total = int(counts.sum())
            if total == 0:
                continue
            child_run = np.repeat(run, counts)
            birth = np.repeat(times, counts) + _child_ages(rng, kern, i0, total)
            keep = birth <= horizon
            if not keep.any():
                continue
            next_run.append(child_run[keep])
            next_times.append(birth[keep])
            next_types.append(np.full(int(keep.sum()), i0, dtype=np.int64))
        if not next_run:
            break
        run = np.concatenate(next_run)
        times = np.concatenate(next_times)
        types0 = np.concatenate(next_types)
        np.add.at(sizes, run, 1)
        np.maximum.at(last_birth, run, times)
        over = sizes > cap
        if over.any():
            capped |= over
            alive = ~capped[run]
            run, times, types0 = run[alive], times[alive], types0[alive]
    return sizes, last_birth, capped


@dataclass
class BranchingRun:
    """Event log of one backward branching realization.

    Events are sorted by birth time; types are 1-based; ``parents[e]``
    indexes the event list (-1 for the root at time 0).
    """

    root_type: int
    times: np.ndarray
    types: np.ndarray
    parents: np.ndarray
    horizon: float
    capped: bool

    @property
    def size(self) -> int:
        return len(self.times)


def simulate_backward_bp(config: ModelConfig, root_type: int, horizon: float,
                         cap: int = 1_000_000,
                         rng: Optional[np.random.Generator] = None) -> BranchingRun:
    """Full event log of one backward run started from a type root_type particle."""
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    if rng is None:
        rng = rngmod.stream(config.seed, "bp")
    kern = config.kernel
    k = config.k
    mb = backward_mean_matrix(config)
    j0 = int(root_type) - 1
    if not 0 <= j0 < k:
        raise DomainError("root_type out of range")

    times = [0.0]
    types0 = [j0]
    parents = [-1]
    frontier = [0]
    capped = False
    while frontier and not capped:
        new_frontier = []
        for idx in frontier:
            t_parent, jp = times[idx], types0[idx]
            for i0 in range(k):
                count = rng.poisson(mb[jp, i0])
                if count == 0:
                    continue
                births = t_parent + _child_ages(rng, kern, i0, count)
                for b in births:
                    if b <= horizon:
                        times.append(float(b))
                        types0.append(i0)
                        parents.append(idx)
                        new_frontier.append(len(times) - 1)
            if len(times) > cap:
                capped = True
                break
        frontier = new_frontier

    times_a = np.asarray(times)
    order = np.argsort(times_a, kind="stable")
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order))
    parents_a = np.asarray(parents, dtype=np.int64)
    sorted_parents = np.where(parents_a[order] >= 0, remap[parents_a[order]], -1)
    return BranchingRun(
        root_type=int(root_type),
        times=times_a[order],
        types=np.asarray(types0, dtype=np.int64)[order] + 1,
        parents=sorted_parents,
        horizon=float(horizon),
        capped=capped,
    )


def rho1_bounds(p1, m1_tilde, m2_tilde, q, qt1, qt2) -> tuple:
    """Theorem 2's (rho1_minus, rho1_plus), with the rho21_min formula inline."""
    def plus(p, mt, qt):
        inner = (1.0 - p * mt * (qt + q) / 2.0) * (qt - q) / (1.0 - q)
        return 1.0 - inner

    rho1_plus = plus(p1, m1_tilde, qt1)
    rho1_minus = 1.0 - plus(1.0 - p1, m2_tilde, qt2)
    return float(min(max(rho1_minus, 0.0), 1.0)), float(min(max(rho1_plus, 0.0), 1.0))


def aggregate_mean_stderr(used) -> tuple:
    """Per-cell (mean, stderr) of a list of rho matrices, through nanmean and nanstd."""
    stack = np.stack(used)
    mean = np.nanmean(stack, axis=0)
    with np.errstate(invalid="ignore"):
        count = np.sum(~np.isnan(stack), axis=0)
        std = np.nanstd(stack, axis=0, ddof=1) if len(used) > 1 else np.full(mean.shape, np.nan)
    stderr = std / np.sqrt(np.maximum(count, 1))
    return mean, stderr
