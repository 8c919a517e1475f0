import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

import infector.graph
from infector.config import Duration, MarkovSEIR, ModelConfig, PopulationSpec
from infector.errors import ConfigError, DomainError, NumericError
from infector.forward import run_epidemic
from infector.graph import (
    FIG1_LABELS,
    _assemble,
    _draw_heads_without_replacement,
    build_graph,
    degree_stats,
    draw_out_edges,
    dump_graph,
    fixture_graph_fig1,
    load_graph,
)
from infector.rng import stream

from conftest import (
    extremal_config,
    marked_config,
    readme_config,
    single_type_config,
    symmetric_marked_config,
)


def test_zero_rate_graph_is_empty():
    g = build_graph(single_type_config(n=50, rate=0.0))
    assert g.num_edges == 0


def test_determinism_same_seed():
    cfg = symmetric_marked_config(n=500, seed=11)
    g1, g2 = build_graph(cfg), build_graph(cfg)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.heads, g2.heads)
    assert np.array_equal(g1.weights, g2.weights)


def test_different_seed_differs():
    a = build_graph(symmetric_marked_config(n=500, seed=1))
    b = build_graph(symmetric_marked_config(n=500, seed=2))
    assert not (a.num_edges == b.num_edges and np.array_equal(a.weights, b.weights))


def test_mean_out_degree():
    cfg = symmetric_marked_config(n=10_000, m_tilde=2.0, seed=3)
    g = build_graph(cfg)
    deg = np.diff(g.indptr)
    se = deg.std(ddof=1) / math.sqrt(len(deg))
    assert abs(deg.mean() - 2.0) < 3 * se


def test_heads_distinct_within_type_and_in_range():
    cfg = marked_config(400, 0.3, 3.0, 2.0, seed=5)
    g = build_graph(cfg)
    pop = g.population
    for u in range(g.n):
        heads, _ = g.out_edges(u)
        types = pop.type_of(heads)
        for j0 in range(pop.k):
            hj = heads[types == j0]
            assert len(set(hj.tolist())) == len(hj)
            lo, hi = pop.boundaries[j0], pop.boundaries[j0 + 1]
            assert ((hj >= lo) & (hj < hi)).all()


def test_no_duplicate_out_weights():
    g = build_graph(symmetric_marked_config(n=2000, seed=8))
    for u in range(g.n):
        _, w = g.out_edges(u)
        assert len(np.unique(w)) == len(w)


def test_duplicate_out_weight_is_numeric_error():
    # two out-edges of vertex 0 with one weight; the CLI maps this to exit 3
    pop = PopulationSpec(n=3, counts=[3], proportions=[1.0])
    with pytest.raises(NumericError):
        _assemble(pop, [0, 0, 1], [1, 2, 2], [0.5, 0.5, 0.5], realized_seed=0)


def test_edge_endpoint_out_of_range_is_config_error():
    pop = PopulationSpec(n=3, counts=[3], proportions=[1.0])
    for tails, heads in (([0, -1], [1, 2]), ([0, 3], [1, 2]), ([0, 1], [1, 3])):
        with pytest.raises(ConfigError):
            _assemble(pop, tails, heads, [0.5, 0.25], realized_seed=0)


def test_reverse_csr_oracle():
    g = build_graph(symmetric_marked_config(n=300, seed=4))
    r_indptr, r_tails, r_weights = g.reverse_csr()
    fwd = set()
    tails, heads, weights = g.edge_list()
    for t, h, w in zip(tails, heads, weights):
        fwd.add((int(t), int(h), float(w)))
    rev = set()
    for v in range(g.n):
        for e in range(r_indptr[v], r_indptr[v + 1]):
            rev.add((int(r_tails[e]), v, float(r_weights[e])))
    assert fwd == rev


def _digests(graph):
    """sha256 of the forward CSR arrays and of the transposed CSR arrays."""
    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    return {"forward": digest((graph.indptr, graph.heads, graph.weights)),
            "reverse": digest(graph.reverse_csr())}


# Digests recorded with the edge ordering done by np.lexsort; a fixed
# seed must reproduce the same arrays byte for byte.

def test_build_byte_identical_readme():
    assert _digests(build_graph(readme_config(2000))) == {
        "forward": "d73615efef3e5bc9511484c426b58fed0f0ad1dd6fc12d17554aadc2bf3f97f4",
        "reverse": "a964ce027b9bfa1c90c742da710519c32850ca0928948cb45c8461461631060e",
    }


def test_build_byte_identical_extremal():
    assert _digests(build_graph(extremal_config(n=2000, seed=19))) == {
        "forward": "388cf55b4839f5dbfdec519f702a8a408970acce4c808a5a605b0869e7ba051d",
        "reverse": "d2361cf4e8449b83402b4ee673b0a49e49fa74f8db2cd28109a9d8c9880603c4",
    }


def test_build_byte_identical_with_sequential_redraw():
    # 12 vertices and about six contacts each: most tails draw a repeated
    # head, so most groups go through the sequential redraw
    assert _digests(build_graph(single_type_config(n=12, rate=6.0, seed=23))) == {
        "forward": "0d6ce9bbcd2fdb95ea9eab73f6d1d5edf8fcebdaf24219d020c7e768d7bc797e",
        "reverse": "06b3df59777cc38960905bdc69a2e7529673ebc20594b3580b9cd631f774f25f",
    }


def test_seeded_build_at_budget_zero_is_the_unseeded_build(monkeypatch):
    monkeypatch.setattr(infector.graph, "_REVEAL", 0)
    for cfg in (readme_config(2000), extremal_config(n=2000, seed=19)):
        for r in range(3):
            seeded = build_graph(cfg, stream(cfg.seed, "replicate", r), seeds=cfg.v_init())
            assert _digests(seeded) == _digests(build_graph(cfg, stream(cfg.seed, "replicate", r)))


def test_reach_only_build_is_the_seeded_build_at_budget_n(monkeypatch):
    # a budget of n lists is never passed, so no round draws every list
    monkeypatch.setattr(infector.graph, "_REVEAL", 2000)
    for cfg in (readme_config(2000), extremal_config(n=2000, seed=19)):
        for r in range(3):
            rngs = [stream(cfg.seed, "replicate", r) for _ in range(2)]
            budget_n = build_graph(cfg, rngs[0], seeds=cfg.v_init())
            reach_only = build_graph(cfg, rngs[1], seeds=cfg.v_init(), reach_only=True)
            assert _digests(reach_only) == _digests(budget_n)


def test_seeded_build_refuses_bad_seeds():
    cfg = single_type_config(n=50)
    for seeds in ([-1], [cfg.n], [], [0.5]):
        with pytest.raises(DomainError, match="seed|initially infected"):
            build_graph(cfg, seeds=seeds)


def test_seeded_build_of_a_minor_outbreak_holds_only_the_reached_lists(monkeypatch):
    # an outbreak that ends within the budget draws the lists of exactly the
    # vertices it infects, so every tail and every head is infected; any
    # other build draws every list
    drawn = []

    def recording(config, rng, i0, ids, *blocks):
        drawn.append(np.asarray(ids).copy())
        draw_out_edges(config, rng, i0, ids, *blocks)

    monkeypatch.setattr(infector.graph, "draw_out_edges", recording)
    cfg = readme_config(2000)
    seeds = cfg.v_init()
    minor = 0
    for r in range(40):
        drawn.clear()
        g = build_graph(cfg, stream(cfg.seed, "replicate", r), seeds=seeds)
        ids = np.concatenate(drawn)
        assert len(np.unique(ids)) == len(ids)  # no list is drawn twice
        if len(ids) == cfg.n:
            continue
        minor += 1
        tails, heads, _ = g.edge_list()
        infected = np.isfinite(run_epidemic(g, seeds).sigma)
        assert len(ids) <= infector.graph._REVEAL
        assert np.array_equal(np.sort(ids), np.flatnonzero(infected))
        assert infected[tails].all() and infected[heads].all()
    assert 5 <= minor < 40


def test_edge_order_matches_lexsort():
    # weights from a small set tie across tails, never within one tail
    rng = np.random.default_rng(29)
    pop = PopulationSpec(n=40, counts=[40], proportions=[1.0])
    for _ in range(20):
        tails = np.repeat(np.arange(40), rng.integers(0, 6, size=40))
        rng.shuffle(tails)
        weights = np.zeros(len(tails))
        for t in range(40):
            at = np.flatnonzero(tails == t)
            weights[at] = rng.permutation(8)[: len(at)] + 1.0
        heads = rng.integers(0, 40, size=len(tails))
        g = _assemble(pop, tails, heads, weights, realized_seed=0)
        order = np.lexsort((weights, tails))
        assert np.array_equal(g.heads, heads[order])
        assert np.array_equal(g.weights, weights[order])
        rev = np.lexsort((weights, tails, heads))
        _, r_tails, r_weights = g.reverse_csr()
        assert np.array_equal(r_tails, tails[rev])
        assert np.array_equal(r_weights, weights[rev])


def test_build_peak_memory():
    # block lists are emptied as they are joined and each unsorted edge
    # array is freed once sorted; the build used to peak at 5.25x
    cfg = readme_config(50_000)
    tracemalloc.start()
    try:
        g = build_graph(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * (g.indptr.nbytes + g.heads.nbytes + g.weights.nbytes)


def test_transpose_int32_and_one_restricted_view():
    g = build_graph(readme_config(2000))
    r_indptr, r_tails, r_weights = g.reverse_csr()
    assert r_indptr.dtype == r_tails.dtype == np.int32 and r_weights.dtype == np.float64
    view = g.reverse_matrix((0, 0))
    assert g.reverse_matrix((0, 0)) is view
    dead = weakref.ref(view)
    del view
    other = g.reverse_matrix((1, 1))
    assert dead() is None  # the (0, 0) view was freed for the (1, 1) one
    assert g.reverse_matrix((1, 1)) is other


def test_draw_out_edges_ids_only_label_tails():
    # the draws depend on the number of tails, not on their labels
    cfg = readme_config(2000)
    ids = np.arange(300)
    a, b = ([], [], []), ([], [], [])
    draw_out_edges(cfg, np.random.default_rng(3), 1, ids, *a)
    draw_out_edges(cfg, np.random.default_rng(3), 1, ids + 1000, *b)
    assert len(a[0]) == 2  # one block per head type
    for tail_a, tail_b in zip(a[0], b[0]):
        assert np.array_equal(tail_a + 1000, tail_b)
    for blocks_a, blocks_b in zip(a[1:], b[1:]):
        assert all(np.array_equal(x, y) for x, y in zip(blocks_a, blocks_b))


def test_head_draws_pinned():
    # a group of 5 out of 5 collides unless the first draws form a
    # permutation (probability 5!/5^5)
    counts = np.array([5, 1, 4, 0, 2, 5])
    heads = _draw_heads_without_replacement(np.random.default_rng(7), 10, 5, counts,
                                            np.repeat(np.arange(len(counts)), counts))
    assert heads.tolist() == [13, 10, 12, 14, 11, 13, 11, 13, 14, 12, 11, 14, 12, 14, 13, 11, 10]


# --------------------------------------------------------------------------
# worked-example fixture
# --------------------------------------------------------------------------

def test_fixture_distance_a_to_d():
    g = fixture_graph_fig1()
    from infector._kernels import dijkstra

    dist, _ = dijkstra(g.indptr, g.heads, g.weights, np.array([FIG1_LABELS["a"]]))
    assert dist[FIG1_LABELS["d"]] == pytest.approx(1.8, abs=0.0)


def test_fixture_types():
    g = fixture_graph_fig1()
    pop = g.population
    for name in "acdg":
        assert pop.type_of(FIG1_LABELS[name]) == 0
    for name in "befh":
        assert pop.type_of(FIG1_LABELS[name]) == 1


def test_degree_stats_conservation():
    g = build_graph(marked_config(600, 0.3, 3.0, 2.0, seed=6))
    hist = degree_stats(g)
    for (i, _), h in hist.items():
        assert h.sum() == g.population.counts[i - 1]


def test_degree_stats_fixture_edge_count():
    g = fixture_graph_fig1()
    hist = degree_stats(g)
    total = sum(int((np.arange(len(h)) * h).sum()) for h in hist.values())
    assert total == g.num_edges


def test_degree_histogram_binomial_fit():
    # type-1 -> type-1 out-degree is Poisson(m_tilde * iota) mixed over iota;
    # for exp(1) durations this is geometric-like, so test the marked
    # thinning instead with a constant infectious period: degree is then
    # exactly Poisson(p1 * m_tilde), compared by chi-square
    n = 10_000
    pop = PopulationSpec(n=n, counts=[n // 2, n // 2], proportions=[0.5, 0.5])
    from infector.config import MarkedSingleProcess

    kern = MarkedSingleProcess(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.constant(1.0)] * 2,
        total_rates=[2.0, 2.0],
    )
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,), seed=13)
    g = build_graph(cfg)
    hist = degree_stats(g)[(1, 1)]
    kmax = len(hist)
    expected = stats.poisson.pmf(np.arange(kmax), 1.0) * hist.sum()
    # merge sparse tail bins
    keep = expected >= 5
    obs = np.append(hist[keep], hist[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    exp = exp * obs.sum() / exp.sum()
    chi2 = ((obs - exp) ** 2 / exp).sum()
    crit = stats.chi2.ppf(0.99, len(obs) - 1)
    assert chi2 < crit


# --------------------------------------------------------------------------
# extremal weights
# --------------------------------------------------------------------------

def test_extremal_weight_bands():
    cfg = extremal_config(n=1000, fast_pair=(1, 1), seed=21)
    g = build_graph(cfg)
    n = g.n
    pop = g.population
    tails, heads, weights = g.edge_list()
    fast = (pop.type_of(tails) == 0) & (pop.type_of(heads) == 0)
    assert (weights[fast] < n**-2.0).all()
    assert (weights[~fast] > n**-1.0).all()
    assert (weights[~fast] < n**-1.0 + n**-2.0).all()


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_dump_load_round_trip(tmp_path):
    g = build_graph(marked_config(300, 0.3, 3.0, 2.0, seed=9))
    path = tmp_path / "g.txt"
    dump_graph(g, path)
    g2 = load_graph(path)
    assert g2.n == g.n
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.heads, g.heads)
    assert np.array_equal(g2.weights, g.weights)
    assert g2.realized_seed == g.realized_seed
    # byte-identical second dump
    path2 = tmp_path / "g2.txt"
    dump_graph(g2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_build_with_explicit_rng_matches_stream():
    cfg = symmetric_marked_config(n=400, seed=17)
    g1 = build_graph(cfg)
    g2 = build_graph(cfg, stream(17, "graph"))
    assert np.array_equal(g1.weights, g2.weights)
