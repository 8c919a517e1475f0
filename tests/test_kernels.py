import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from infector._kernels import dijkstra
from infector.errors import DomainError
from infector.graph import build_graph

from conftest import marked_config
from oracles import _dijkstra_py


def _random_csr(rng, n, avg_deg=3.0, integer_weights=False):
    counts = rng.poisson(avg_deg, size=n)
    tails = np.repeat(np.arange(n), counts)
    heads = rng.integers(0, n, size=counts.sum())
    if integer_weights:
        # lengths in {1, 2, 3} make equal-length paths common
        weights = rng.integers(1, 4, size=counts.sum()).astype(float)
    else:
        weights = rng.random(counts.sum()) + 0.01
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, tails + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, heads.astype(np.int64), weights


def test_distances_match_scipy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        indptr, heads, weights = _random_csr(rng, n)
        sources = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        dist, _ = dijkstra(indptr, heads, weights, np.sort(sources))
        mat = csr_matrix((weights, heads, indptr), shape=(n, n))
        oracle = scipy_dijkstra(mat, indices=sources, min_only=True)
        assert np.allclose(dist, oracle, equal_nan=True)


def test_python_and_default_paths_agree():
    # the heap-loop oracle and the csgraph kernel agree exactly, ties included
    rng = np.random.default_rng(1)
    for trial in range(60):
        n = int(rng.integers(5, 80))
        indptr, heads, weights = _random_csr(rng, n, integer_weights=trial % 2 == 1)
        sources = np.sort(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        d1, p1 = dijkstra(indptr, heads, weights, sources)
        d2, p2 = _dijkstra_py(indptr, heads, weights, sources)
        assert np.array_equal(d1, d2)
        assert np.array_equal(p1, p2)


def test_predecessor_consistency():
    # sigma(v) = sigma(pred(v)) + weight of the realized edge, exactly
    g = build_graph(marked_config(500, 0.4, 3.0, 2.0, seed=3))
    dist, pred = dijkstra(g.indptr, g.heads, g.weights, np.array([0]))
    for v in range(g.n):
        if pred[v] < 0:
            continue
        u = pred[v]
        heads, weights = g.out_edges(u)
        match = weights[heads == v]
        assert any(dist[u] + w == dist[v] for w in match)


def test_tie_break_smaller_predecessor():
    # two equal-length paths 0->1->3 and 0->2->3; predecessor must be 1
    indptr = np.array([0, 2, 3, 4, 4], dtype=np.int64)
    heads = np.array([1, 2, 3, 3], dtype=np.int64)
    weights = np.array([1.0, 1.0, 1.0, 1.0])
    for fn in (dijkstra, _dijkstra_py):
        dist, pred = fn(indptr, heads, weights, np.array([0]))
        assert dist[3] == 2.0
        assert pred[3] == 1


def test_sources_and_unreachable():
    indptr = np.array([0, 1, 1, 1], dtype=np.int64)
    heads = np.array([1], dtype=np.int64)
    weights = np.array([0.5])
    dist, pred = dijkstra(indptr, heads, weights, np.array([0]))
    assert dist[0] == 0.0 and pred[0] == -1
    assert dist[1] == 0.5 and pred[1] == 0
    assert np.isinf(dist[2]) and pred[2] == -1


def test_non_positive_weight_rejected():
    indptr = np.array([0, 1, 1], dtype=np.int64)
    heads = np.array([1], dtype=np.int64)
    for w in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError):
            dijkstra(indptr, heads, np.array([w]), np.array([0]))
