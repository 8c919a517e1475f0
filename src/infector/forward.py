"""Forward epidemic runs and infector attribution.

Infection times are multi-source shortest-path distances from the seed
set on the epidemic graph; the infector of a vertex is its shortest-path
predecessor.  The eager engine, the default of ``replicate_records`` and
``replicate_rho``, materializes the graph and runs one shortest-path
search.  The lazy engine (``method="lazy"``) samples contact lists only
for vertices that actually become infected.  Both engines draw through
``graph.draw_out_edges``; the lazy one draws its lists in pools per
type: the same law from different draws, with memory that grows with
the number of infected.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from ._kernels import dijkstra
from .analytic import mean_stderr
from .config import ModelConfig
from .errors import DomainError, NoDataError
from .graph import EpidemicGraph, build_graph, draw_out_edges

__all__ = [
    "OutbreakResult",
    "RhoEstimate",
    "run_epidemic",
    "run_epidemic_lazy",
    "attribute_infectors",
    "is_large_outbreak",
    "replicate_rho",
    "replicate_records",
    "aggregate_rho",
]


@dataclass
class OutbreakResult:
    """Outcome of one epidemic run.

    ``sigma[v]`` is the infection time (inf if never infected),
    ``infector[v]`` the shortest-path predecessor (-1 for seeds and the
    never infected).  ``attribution_counts[i, j]`` counts type-(j+1)
    infecteds whose infector has type i+1.
    """

    population: object
    sigma: np.ndarray
    infector: np.ndarray
    attribution_counts: np.ndarray

    @property
    def total_infected(self) -> int:
        return int(np.isfinite(self.sigma).sum())

    def final_fraction(self) -> float:
        return self.total_infected / self.population.n


@dataclass(frozen=True)
class RhoEstimate:
    """Replicate-averaged attribution fractions with standard errors."""

    mean: np.ndarray
    stderr: np.ndarray
    replicates_used: int


def _summarize(population, sigma, infector) -> OutbreakResult:
    k = population.k
    types = population.type_array()
    has_parent = infector >= 0
    att = np.zeros((k, k), dtype=np.int64)
    if has_parent.any():
        src_t = types[infector[has_parent]]
        dst_t = types[has_parent.nonzero()[0]]
        np.add.at(att, (src_t, dst_t), 1)
    return OutbreakResult(
        population=population,
        sigma=sigma,
        infector=infector,
        attribution_counts=att,
    )


def _seed_vertices(v_init, n: int) -> np.ndarray:
    """Sorted distinct seed ids; DomainError if empty or outside [0, n)."""
    v_init = np.asarray(sorted(set(int(v) for v in v_init)), dtype=np.int64)
    if len(v_init) == 0:
        raise DomainError("the initially infected set must be nonempty")
    if (v_init < 0).any() or (v_init >= n).any():
        raise DomainError("seed vertex id out of range")
    return v_init


def run_epidemic(graph: EpidemicGraph, v_init) -> OutbreakResult:
    """Exact multi-source shortest-path epidemic on a materialized graph."""
    v_init = _seed_vertices(v_init, graph.n)
    dist, pred = dijkstra(graph.indptr, graph.heads, graph.weights, v_init)
    return _summarize(graph.population, dist, pred)


# Contact lists the lazy engine draws per type at a time.
_POOL = 1024


def _contact_lists(config: ModelConfig, rng, i0: int) -> list:
    """Fresh type-i0 contact lists, as (heads, weights) pairs of Python lists.

    At most one per type-i0 vertex is drawn, since no vertex is exposed twice.
    """
    size = min(_POOL, int(config.population.counts[i0]))
    tails, heads, weights = [], [], []
    draw_out_edges(config, rng, i0, np.arange(size), tails, heads, weights)
    if not tails:
        return [((), ())] * size
    # Each block is in slot order, so a stable sort groups the edges by slot.
    tails = np.concatenate(tails)
    order = np.argsort(tails, kind="stable")
    ends = np.cumsum(np.bincount(tails, minlength=size)).tolist()
    heads = np.concatenate(heads)[order].tolist()
    weights = np.concatenate(weights)[order].tolist()
    return [(heads[lo:hi], weights[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def run_epidemic_lazy(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> OutbreakResult:
    """Event-driven epidemic: contact lists drawn only upon infection.

    Distributionally identical to ``run_epidemic(build_graph(config))``:
    the lists come from the same ``draw_out_edges``, drawn in pools of
    ``_POOL`` per type, and each newly infected vertex takes the next
    unused list of its type.  Memory is proportional to the number of
    infected vertices.
    """
    if rng is None:
        rng = rngmod.stream(config.seed, "lazy")
    pop = config.population
    n = pop.n
    bounds = pop.boundaries.tolist()
    pools = [[] for _ in range(pop.k)]

    sigma = np.full(n, np.inf)
    infector = np.full(n, -1, dtype=np.int64)
    infected = bytearray(n)
    v_init = _seed_vertices(config.initial_infecteds, n)

    heap = []

    def expose(v: int, t: float) -> None:
        i0 = bisect_right(bounds, v) - 1
        if not pools[i0]:
            pools[i0] = _contact_lists(config, rng, i0)
        heads, weights = pools[i0].pop()
        for h, w in zip(heads, weights):
            if not infected[h]:
                heapq.heappush(heap, (t + w, v, h))

    for s in v_init.tolist():
        sigma[s] = 0.0
        infected[s] = 1
    for s in v_init.tolist():
        expose(s, 0.0)

    while heap:
        t, u, v = heapq.heappop(heap)
        if infected[v]:
            continue
        infected[v] = 1
        sigma[v] = t
        infector[v] = u
        expose(v, t)

    return _summarize(pop, sigma, infector)


def attribute_infectors(result: OutbreakResult) -> np.ndarray:
    """Per-column attribution fractions.

    Entry (i, j) is the fraction of non-seed infected type-(j+1)
    vertices whose infector has type i+1; columns with no non-seed
    infections are NaN.
    """
    k = result.population.k
    att = result.attribution_counts.astype(float)
    denom = att.sum(axis=0)
    out = np.full((k, k), np.nan)
    pos = denom > 0
    out[:, pos] = att[:, pos] / denom[pos]
    return out


def is_large_outbreak(result: OutbreakResult, threshold_fraction: float) -> bool:
    """True iff the total infected count reaches threshold_fraction * n."""
    if not 0 < threshold_fraction < 1:
        raise DomainError("threshold_fraction must lie in (0, 1)")
    return result.total_infected >= threshold_fraction * result.population.n


def _one_replicate(config: ModelConfig, master_seed: int, index: int, threshold: float,
                   method: str) -> dict:
    rng = rngmod.stream(master_seed, "replicate", index)
    if method == "eager":
        result = run_epidemic(build_graph(config, rng), config.v_init())
    elif method == "lazy":
        result = run_epidemic_lazy(config, rng)
    else:
        raise DomainError(f"unknown simulation method {method!r}")
    return {
        "replicate": index,
        "large_outbreak": is_large_outbreak(result, threshold),
        "final_fraction": result.final_fraction(),
        "rho": attribute_infectors(result),
    }


def replicate_records(config: ModelConfig, R: int, threshold: float = 0.05,
                      master_seed: Optional[int] = None, method: str = "eager",
                      threads: int = 1) -> list:
    """Run R independent replicates; returns one record dict per replicate."""
    if R < 1:
        raise DomainError("need at least one replicate")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if not 0 < threshold < 1:  # also rejects NaN
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    if master_seed is None:
        master_seed = config.seed
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(
                pool.map(lambda r: _one_replicate(config, master_seed, r, threshold, method),
                         range(R))
            )
    else:
        records = [_one_replicate(config, master_seed, r, threshold, method) for r in range(R)]
    return records


def replicate_rho(config: ModelConfig, R: int, threshold: float = 0.05,
                  master_seed: Optional[int] = None, method: str = "eager",
                  threads: int = 1) -> RhoEstimate:
    """Average attribution over large-outbreak replicates.

    Each replicate owns an independent derived RNG stream, so results do
    not depend on worker scheduling.
    """
    records = replicate_records(config, R, threshold, master_seed, method, threads)
    return aggregate_rho(records)


def aggregate_rho(records: list) -> RhoEstimate:
    """``analytic.mean_stderr`` of rho over the large-outbreak records."""
    used = [rec["rho"] for rec in records if rec["large_outbreak"]]
    if not used:
        raise NoDataError(f"no large outbreak among {len(records)} replicates")
    return RhoEstimate(*mean_stderr(used), replicates_used=len(used))
