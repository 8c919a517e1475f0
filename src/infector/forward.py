"""Forward epidemic runs and infector attribution.

Infection times are multi-source shortest-path distances from the seed
set on the epidemic graph; the infector of a vertex is its shortest-path
predecessor.  One engine runs every replicate: ``graph.build_graph``
draws the graph outward from the seeds and one shortest-path search
runs on it.  The default method, ``"eager"``, draws every contact list
once an outbreak passes ``graph._REVEAL`` of them; ``"lazy"``
(``run_epidemic_lazy``) never does, so it draws exactly the lists of
the vertices that become infected: the same law from different draws.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from ._kernels import dijkstra
from .analytic import mean_stderr
from .config import ModelConfig
from .errors import DomainError, NoDataError
from .graph import EpidemicGraph, build_graph, seed_vertices

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


def run_epidemic(graph: EpidemicGraph, v_init) -> OutbreakResult:
    """Exact multi-source shortest-path epidemic on a materialized graph."""
    v_init = seed_vertices(v_init, graph.n)
    dist, pred = dijkstra(graph.indptr, graph.heads, graph.weights, v_init)
    return _summarize(graph.population, dist, pred)


def run_epidemic_lazy(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> OutbreakResult:
    """Epidemic on a graph that holds only the infected vertices' contact lists.

    The seeded build with no reveal budget: every list the seeds reach
    is drawn, and no other, so memory grows with the number of infected.
    """
    if rng is None:
        rng = rngmod.stream(config.seed, "lazy")
    seeds = seed_vertices(config.initial_infecteds, config.n)
    return run_epidemic(build_graph(config, rng, seeds=seeds, reach_only=True), seeds)


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
        seeds = seed_vertices(config.initial_infecteds, config.n)
        result = run_epidemic(build_graph(config, rng, seeds=seeds), seeds)
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
        # one worker per core at most: each replicate owns its stream, so no
        # output depends on the pool size
        with ThreadPoolExecutor(max_workers=min(threads, R, os.cpu_count() or 1)) as pool:
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
