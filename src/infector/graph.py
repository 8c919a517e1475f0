"""Materialized weighted directed epidemic graphs.

A graph realization assigns to every vertex its typed contact list: the
out-edges toward type j are the points of one contact-process draw
(truncated at n_j), with head labels chosen uniformly without
replacement from the type-j vertices and edge weights equal to the point
ages.  ``draw_out_edges`` is the one place that draws this law, and
``build_graph`` its one caller: per type, on every vertex or on the
vertices reached outward from seeds.  Graphs are immutable after
construction and stored in CSR form.

What a graph holds: the forward CSR in (tail, weight) order (int64 row
pointers and heads, float64 weights: 8 B per vertex and 16 B per edge),
the transpose once ``reverse_csr`` has been asked for (int32 ids: 4 B
per vertex and 12 B per edge) and at most one restricted view of the
transpose.  A seeded build of a minor outbreak, or any seeded build
with ``reach_only``, holds only the lists its seeds reach.
``build_graph`` draws the edges in blocks and frees each block list
as it is joined; ``_assemble`` then orders the edges with two sorts
and frees each unsorted array as its sorted copy is made, so the
build peaks at 1.8 to 1.9 times the finished forward CSR (tracemalloc,
README kernel at n = 5e4 to 2e5).  ``scipy.sparse`` is
imported only inside the two methods that build a transpose, so a
process that never searches a graph does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rngmod
from .config import ModelConfig, PopulationSpec
from .errors import ConfigError, DomainError, NumericError

__all__ = [
    "EpidemicGraph",
    "build_graph",
    "draw_out_edges",
    "seed_vertices",
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
    _reverse: object = field(default=None, repr=False, compare=False)  # scipy CSR transpose
    # (restriction, matrix) of the last restricted view asked for
    _restricted: tuple = field(default=(None, None), repr=False, compare=False)

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
            from scipy.sparse import csr_matrix

            # The forward rows are in (tail, weight) order and scipy's CSR to
            # CSC conversion is a stable counting sort, so every head's
            # in-edges come out in (tail, weight) order, with int32 ids.
            forward = csr_matrix((self.weights, self.heads, self.indptr),
                                 shape=(self.n, self.n))
            self._reverse = forward.tocsc().T
        return self._reverse.indptr, self._reverse.indices, self._reverse.data

    def reverse_matrix(self, restriction=None):
        """The transposed graph as a scipy CSR matrix (cached).

        ``restriction=(i0, j0)`` keeps only the edges whose tail has
        0-based type i0 or whose head does not have type j0.  Only the
        last restricted view is cached: asking for another one frees it.
        """
        r_indptr, r_tails, r_weights = self.reverse_csr()  # fills self._reverse
        if restriction is None:
            return self._reverse
        if self._restricted[0] != restriction:
            from scipy.sparse import csr_matrix

            self._restricted = (None, None)  # free the old view first
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
            self._restricted = (restriction, mat)
        return self._restricted[1]


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of n rows for edges with row ids ``rows``, in any order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


# Slice length of the rank scatter in _assemble.
_SLICE = 1 << 14
_REVEAL = 6  # contact lists a seeded build draws outward before it draws them all


def _assemble(population: PopulationSpec, tails, heads, weights, realized_seed) -> EpidemicGraph:
    """The graph of the given edges, ordered by (tail, weight).

    The arrays passed in are never written to.  Each is dropped as soon
    as it is no longer needed, so when the caller keeps no reference to
    them the unsorted copies are freed along the way.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    m = len(weights)
    n = population.n
    if m and (min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= n):
        raise ConfigError("edge endpoint outside the vertex ids 0..n-1")
    # The degrees, and so the row pointers, do not depend on edge order.
    indptr = _indptr(tails, n)
    # Order by (tail, weight) with one sort of the unique packed key
    # tail * m + rank of the weight.  How equal weights are ranked only
    # matters for a repeated (tail, weight) pair, which is rejected below.
    key = np.multiply(tails, m, dtype=np.int64)
    del tails
    by_weight = np.argsort(weights)
    for lo in range(0, m, _SLICE):
        key[by_weight[lo:lo + _SLICE]] += np.arange(lo, min(lo + _SLICE, m))
    # Once sorted, key % m is the weight rank at each place; by_weight maps it to the edge.
    key.sort()
    for lo in range(0, m, _SLICE):
        key[lo:lo + _SLICE] = by_weight[key[lo:lo + _SLICE] % m]
    del by_weight
    heads = heads[key]
    weights = weights[key]
    del key
    # A repeated weight is an error only when both edges share a row.
    same = np.flatnonzero(weights[1:] == weights[:-1])
    if (np.searchsorted(indptr, same, side="right")
            == np.searchsorted(indptr, same + 1, side="right")).any():
        raise NumericError("duplicate out-edge weight realized; resample with a new seed")
    return EpidemicGraph(
        population=population,
        indptr=indptr,
        heads=heads,
        weights=weights,
        realized_seed=realized_seed,
    )


def _draw_heads_without_replacement(rng, base: int, n_j: int, counts: np.ndarray,
                                    rows: np.ndarray) -> np.ndarray:
    """Head labels for each tail group: ``counts[g]`` distinct vertices of a type.

    A with-replacement draw conditioned on within-group distinctness has
    exactly the without-replacement law, so the vectorized attempt is
    kept where it has no collisions and redrawn sequentially otherwise.
    ``rows`` is the group of each head.
    """
    total = int(counts.sum())
    heads = rng.integers(base, base + n_j, size=total)
    if counts.size == 0 or counts.max() <= 1:
        return heads
    # A collision is a repeated (group, head) pair: a repeated packed key.
    key = rows * n_j
    key += heads
    key -= base
    key.sort()
    bad_groups = np.unique(key[1:][key[1:] == key[:-1]] // n_j)
    del key
    offsets = np.cumsum(counts)
    offsets -= counts  # where each group starts
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


def seed_vertices(v_init, n: int) -> np.ndarray:
    """Sorted distinct seed ids; DomainError unless nonempty integers in [0, n)."""
    seeds = set(v_init)
    if not seeds:
        raise DomainError("the initially infected set must be nonempty")
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in seeds):
        raise DomainError(f"seed vertex ids must be integers in 0..{n - 1}")
    return np.array(sorted(seeds), dtype=np.int64)


def build_graph(config: ModelConfig, rng: Optional[np.random.Generator] = None,
                seeds=None, reach_only: bool = False) -> EpidemicGraph:
    """Materialize a graph realization for a configuration.

    Identical (config, seed) pairs produce bit-identical graphs when no
    explicit generator is passed.  Given ``seeds``, lists are drawn
    outward from them round by round, and the round that would pass
    ``_REVEAL`` lists draws all the rest; with ``reach_only`` no round
    does, so exactly the lists of the vertices the seeds reach are
    drawn.  Lists are i.i.d. given the tail's type, so what the seeds
    reach has the law of the full build.  Seeds must be a nonempty set
    of vertex ids (``DomainError`` otherwise).
    """
    if rng is None:
        rng = rngmod.stream(config.seed, "graph")
    tails, heads, weights = [], [], []
    pop = config.population
    drawn = np.zeros(pop.n, dtype=bool)
    new = np.arange(pop.n) if seeds is None else seed_vertices(seeds, pop.n)
    while new.size:
        if not reach_only and np.count_nonzero(drawn) + new.size > _REVEAL:
            new = np.flatnonzero(~drawn)
        drawn[new] = True
        first = len(heads)
        cuts = np.searchsorted(new, pop.boundaries).tolist()
        for i0 in np.flatnonzero(np.diff(cuts)).tolist():
            draw_out_edges(config, rng, i0, new[cuts[i0]:cuts[i0 + 1]], tails, heads, weights)
        if drawn.all():
            break
        reached = np.concatenate([np.empty(0, np.int64)] + heads[first:])
        new = np.unique(reached[~drawn[reached]])
    # The joined arrays are passed on with no other reference, so _assemble
    # can free each one as soon as it is done with it.
    return _assemble(pop, _join(tails), _join(heads), _join(weights),
                     realized_seed=config.seed)


def draw_out_edges(config: ModelConfig, rng, i0: int, ids, tail_blocks, head_blocks,
                   weight_blocks) -> None:
    """Draw the contact lists of type-i0 tails and append their edges.

    One contact list per entry of ``ids``, the tails' labels: only the
    length of ``ids`` affects the draws, since a list depends on its
    tail's type alone.  Appends one (tails, heads, weights) block per
    head type that gets an edge; within a block the edges follow the
    order of ``ids``.  Heads are distinct within a list and weights are
    uniform in the kernel's ``contact_window`` of the pair.
    """
    pop = config.population
    kern = config.kernel
    rates = kern.pair_rates()
    n_i = len(ids)
    lat = kern.latent[i0].sample(rng, size=n_i)
    iota = kern.infectious[i0].sample(rng, size=n_i)
    for j0 in range(pop.k):
        mean_rate = pop.proportions[j0] * rates[i0, j0]
        if mean_rate <= 0:
            continue
        n_j = int(pop.counts[j0])
        counts = np.minimum(rng.poisson(mean_rate * iota), n_j)
        total = int(counts.sum())
        if total == 0:
            continue
        rows = np.repeat(np.arange(n_i), counts)  # the position in ids of each edge's tail
        tail_blocks.append(ids[rows])
        start, length = kern.contact_window(pop.n, i0, j0, lat, iota)
        # start + length * u, computed in place on the uniform draws
        weights = rng.random(total)
        weights *= length[rows]
        weights += start[rows]
        weight_blocks.append(weights)
        head_blocks.append(
            _draw_heads_without_replacement(rng, int(pop.boundaries[j0]), n_j, counts, rows))


def _join(blocks: list) -> np.ndarray:
    """The blocks concatenated (an empty list gives an empty array); the list is emptied."""
    joined = np.concatenate(blocks) if blocks else np.empty(0)
    blocks.clear()
    return joined


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
