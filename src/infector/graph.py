"""Materialized weighted directed epidemic graphs.

A graph realization assigns to every vertex its typed contact list: the
out-edges toward type j are the points of one contact-process draw
(truncated at n_j), with head labels chosen uniformly without
replacement from the type-j vertices and edge weights equal to the point
ages.  Graphs are immutable after construction and stored in CSR form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix

from . import rng as rngmod
from .config import ExtremalTwoType, ModelConfig, PopulationSpec
from .errors import ConfigError, NumericError

__all__ = [
    "EpidemicGraph",
    "build_graph",
    "fixture_graph_fig1",
    "FIG1_LABELS",
    "degree_stats",
    "dump_graph",
    "load_graph",
]


@dataclass
class EpidemicGraph:
    """CSR adjacency of a realization of the finite-weight edge set."""

    population: PopulationSpec
    indptr: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    realized_seed: int = 0
    _reverse: Optional[csr_matrix] = field(default=None, repr=False, compare=False)
    _restricted: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.population.n

    @property
    def num_edges(self) -> int:
        return len(self.heads)

    def out_edges(self, u: int):
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.heads[lo:hi], self.weights[lo:hi]

    def edge_list(self):
        tails = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return tails, self.heads, self.weights

    def reverse_csr(self):
        """CSR arrays (indptr, tails, weights) of the transposed graph (cached)."""
        if self._reverse is None:
            # The forward edges are in (tail, weight) order, so sorting by
            # (head, position) gives the (head, tail, weight) order; the
            # packed key is unique and sorts faster than a stable sort.
            tails, heads, weights = self.edge_list()
            order = np.argsort(heads * len(heads) + np.arange(len(heads)))
            r_indptr = _indptr(heads, self.n)
            self._reverse = csr_matrix((weights[order], tails[order], r_indptr),
                                       shape=(self.n, self.n))
        return self._reverse.indptr, self._reverse.indices, self._reverse.data

    def reverse_matrix(self, restriction=None):
        """The transposed graph as a scipy CSR matrix (cached).

        ``restriction=(i0, j0)`` keeps only the edges whose tail has
        0-based type i0 or whose head does not have type j0.
        """
        r_indptr, r_tails, r_weights = self.reverse_csr()  # fills self._reverse
        if restriction is None:
            return self._reverse
        mat = self._restricted.get(restriction)
        if mat is None:
            # Types are contiguous id blocks, so the edges into type-j0
            # heads are one slice of the transposed edge arrays.
            i0, j0 = restriction
            bounds = self.population.boundaries
            lo, hi = r_indptr[bounds[j0]], r_indptr[bounds[j0 + 1]]
            tails = r_tails[lo:hi]
            drop = lo + np.flatnonzero((tails < bounds[i0]) | (tails >= bounds[i0 + 1]))
            rows = np.searchsorted(r_indptr, drop, side="right") - 1
            indptr = r_indptr.copy()
            indptr[1:] -= np.cumsum(np.bincount(rows, minlength=self.n)).astype(indptr.dtype)
            mat = csr_matrix((np.delete(r_weights, drop), np.delete(r_tails, drop), indptr),
                             shape=(self.n, self.n))
            self._restricted[restriction] = mat
        return mat


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of n rows for edges whose sorted row ids are ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _assemble(population: PopulationSpec, tails, heads, weights, realized_seed) -> EpidemicGraph:
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    m = len(weights)
    if m and (min(tails.min(), heads.min()) < 0
              or max(tails.max(), heads.max()) >= population.n):
        raise ConfigError("edge endpoint outside the vertex ids 0..n-1")
    # Order by (tail, weight) with one sort of the unique packed key
    # tail * m + rank of the weight.  How equal weights are ranked only
    # matters for a repeated (tail, weight) pair, which is rejected below.
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(weights)] = np.arange(m)
    order = np.argsort(tails * m + rank)
    tails, heads, weights = tails[order], heads[order], weights[order]
    if m > 1:
        dup = (tails[1:] == tails[:-1]) & (weights[1:] == weights[:-1])
        if dup.any():
            raise NumericError("duplicate out-edge weight realized; resample with a new seed")
    return EpidemicGraph(
        population=population,
        indptr=_indptr(tails, population.n),
        heads=heads,
        weights=weights,
        realized_seed=realized_seed,
    )


def _draw_heads_without_replacement(rng, base: int, n_j: int, counts: np.ndarray) -> np.ndarray:
    """Head labels for each tail group: ``counts[g]`` distinct vertices of a type.

    A with-replacement draw conditioned on within-group distinctness has
    exactly the without-replacement law, so the vectorized attempt is
    kept where it has no collisions and redrawn sequentially otherwise.
    """
    total = int(counts.sum())
    heads = rng.integers(base, base + n_j, size=total)
    if counts.size == 0 or counts.max() <= 1:
        return heads
    # A collision is a repeated (group, head) pair: a repeated packed key.
    key = np.sort(np.repeat(np.arange(len(counts)) * n_j, counts) + (heads - base))
    bad_groups = np.unique(key[1:][key[1:] == key[:-1]] // n_j)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for g in bad_groups:
        need = int(counts[g])
        chosen = set()
        out = []
        while len(out) < need:
            cand = int(rng.integers(base, base + n_j))
            if cand not in chosen:
                chosen.add(cand)
                out.append(cand)
        heads[offsets[g]: offsets[g] + need] = out
    return heads


def build_graph(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> EpidemicGraph:
    """Materialize a graph realization for a configuration.

    Identical (config, seed) pairs produce bit-identical graphs when no
    explicit generator is passed.
    """
    if rng is None:
        rng = rngmod.stream(config.seed, "graph")
    pop = config.population
    kern = config.kernel
    k = pop.k
    rates = kern.pair_rates()
    p = pop.proportions
    bounds = pop.boundaries

    all_tails = []
    all_heads = []
    all_weights = []
    extremal = isinstance(kern, ExtremalTwoType)
    for i0 in range(k):
        n_i = int(pop.counts[i0])
        ids = pop.vertices_of_type(i0)
        lat = kern.latent[i0].sample(rng, size=n_i)
        iota = kern.infectious[i0].sample(rng, size=n_i)
        for j0 in range(k):
            mean_rate = p[j0] * rates[i0, j0]
            if mean_rate <= 0:
                continue
            n_j = int(pop.counts[j0])
            counts = np.minimum(rng.poisson(mean_rate * iota), n_j)
            total = int(counts.sum())
            if total == 0:
                continue
            tails = np.repeat(ids, counts)
            if extremal:
                weights = _extremal_weights(rng, pop.n, (i0, j0), kern.fast_pair, total)
            else:
                weights = np.repeat(lat, counts) + np.repeat(iota, counts) * rng.random(total)
            heads = _draw_heads_without_replacement(rng, int(bounds[j0]), n_j, counts)
            all_tails.append(tails)
            all_heads.append(heads)
            all_weights.append(weights)

    if all_tails:
        tails = np.concatenate(all_tails)
        heads = np.concatenate(all_heads)
        weights = np.concatenate(all_weights)
    else:
        tails = heads = np.empty(0, dtype=np.int64)
        weights = np.empty(0, dtype=np.float64)
    return _assemble(pop, tails, heads, weights, realized_seed=config.seed)


def _extremal_weights(rng, n: int, pair0, fast_pair, size: int) -> np.ndarray:
    """Micro-interval weights: fast pair in (0, n^-2), others in (n^-1, n^-1 + n^-2)."""
    short = (pair0[0] + 1, pair0[1] + 1) == tuple(fast_pair)
    u = rng.random(size) * n**-2.0
    return u if short else n**-1.0 + u


# --------------------------------------------------------------------------
# worked-example fixture
# --------------------------------------------------------------------------

FIG1_LABELS = {"a": 0, "c": 1, "d": 2, "g": 3, "b": 4, "e": 5, "f": 6, "h": 7}

_FIG1_EDGES = [
    ("a", "b", 0.3),
    ("a", "c", 1.3),
    ("b", "d", 1.5),
    ("c", "d", 0.6),
    ("c", "g", 0.45),
    ("d", "f", 0.4),
    ("e", "h", 0.7),
]


def fixture_graph_fig1() -> EpidemicGraph:
    """Hard-coded 8-vertex, 2-type worked-example graph.

    Type 1 vertices are a, c, d, g (ids 0..3), type 2 are b, e, f, h
    (ids 4..7).  The stated facts it reproduces with seeds {a}: distance
    a->d of 1.8, infection times (0, 0.3, 1.3, 1.8) for (a, b, c, d),
    full susceptibility set of f equal to {a, b, c, d} and its 1.1-time
    slice {c, d}, and a 2/3 type-1-to-type-1 attribution fraction.
    Weights not pinned by those facts are frozen here.
    """
    pop = PopulationSpec(n=8, counts=[4, 4], proportions=[0.5, 0.5])
    tails = [FIG1_LABELS[t] for t, _, _ in _FIG1_EDGES]
    heads = [FIG1_LABELS[h] for _, h, _ in _FIG1_EDGES]
    weights = [w for _, _, w in _FIG1_EDGES]
    return _assemble(pop, tails, heads, weights, realized_seed=0)


# --------------------------------------------------------------------------
# statistics and serialization
# --------------------------------------------------------------------------

def degree_stats(graph: EpidemicGraph) -> dict:
    """Out-degree histograms per ordered type pair.

    Returns {(i, j): histogram} with 1-based type indices; histogram[d]
    counts tail-type-i vertices with exactly d out-edges toward type j.
    Each histogram sums to the number of type-i vertices.
    """
    pop = graph.population
    tails, heads, _ = graph.edge_list()
    tail_t = pop.type_of(tails)
    head_t = pop.type_of(heads)
    out = {}
    for i0 in range(pop.k):
        ids = pop.vertices_of_type(i0)
        for j0 in range(pop.k):
            mask = (tail_t == i0) & (head_t == j0)
            deg = np.bincount(tails[mask] - ids[0], minlength=len(ids))
            out[(i0 + 1, j0 + 1)] = np.bincount(deg)
    return out


def dump_graph(graph: EpidemicGraph, path) -> None:
    """Write a graph as a flat edge list with a reconstruction header."""
    pop = graph.population
    tails, heads, weights = graph.edge_list()
    with open(path, "w") as fh:
        fh.write(f"{pop.n} {pop.k} {graph.realized_seed}\n")
        fh.write(" ".join(str(int(c)) for c in pop.counts) + "\n")
        fh.write(" ".join(format(p, ".17g") for p in pop.proportions) + "\n")
        for t, h, w in zip(tails, heads, weights):
            fh.write(f"{t} {h} {format(w, '.17g')}\n")


def load_graph(path) -> EpidemicGraph:
    with open(path) as fh:
        n, k, seed = (int(x) for x in fh.readline().split())
        counts = [int(x) for x in fh.readline().split()]
        props = [float(x) for x in fh.readline().split()]
        if len(counts) != k or len(props) != k:
            raise ConfigError("graph header is inconsistent")
        tails, heads, weights = [], [], []
        for line in fh:
            t, h, w = line.split()
            tails.append(int(t))
            heads.append(int(h))
            weights.append(float(w))
    pop = PopulationSpec(n=n, counts=counts, proportions=props)
    return _assemble(pop, tails, heads, weights, realized_seed=seed)
