import dataclasses
import itertools
import math
import os

import numpy as np
import pytest
from scipy import stats

import infector.graph
from infector.analytic import fixed_point_q, theorem2_bounds
from infector.config import Duration, MarkovSEIR, ModelConfig, PopulationSpec
from infector import forward
from infector.errors import DomainError, NoDataError
from infector.forward import (
    aggregate_rho,
    attribute_infectors,
    is_large_outbreak,
    replicate_records,
    replicate_rho,
    run_epidemic,
    run_epidemic_lazy,
)
from infector.graph import FIG1_LABELS, build_graph, draw_out_edges, fixture_graph_fig1
from infector.rng import stream

from conftest import (
    extremal_config,
    readme_config,
    single_type_config,
    symmetric_marked_config,
)


# --------------------------------------------------------------------------
# worked example
# --------------------------------------------------------------------------

def test_fixture_infection_times():
    g = fixture_graph_fig1()
    res = run_epidemic(g, [FIG1_LABELS["a"]])
    assert res.sigma[FIG1_LABELS["a"]] == 0.0
    assert res.sigma[FIG1_LABELS["b"]] == 0.3
    assert res.sigma[FIG1_LABELS["c"]] == 1.3
    assert res.sigma[FIG1_LABELS["d"]] == 1.8


def test_fixture_infector_of_d():
    g = fixture_graph_fig1()
    res = run_epidemic(g, [FIG1_LABELS["a"]])
    assert res.infector[FIG1_LABELS["d"]] == FIG1_LABELS["b"]


def test_fixture_attribution_two_thirds():
    g = fixture_graph_fig1()
    res = run_epidemic(g, [FIG1_LABELS["a"]])
    rho = attribute_infectors(res)
    assert rho[0, 0] == pytest.approx(2.0 / 3.0, abs=0.0)
    assert rho[1, 0] == pytest.approx(1.0 / 3.0, abs=0.0)


def test_no_edges_only_seeds_infected():
    g = build_graph(single_type_config(n=20, rate=0.0))
    res = run_epidemic(g, [0, 3])
    assert res.total_infected == 2
    assert np.isinf(res.sigma[1])


# --------------------------------------------------------------------------
# shortest-path correctness
# --------------------------------------------------------------------------

def _enumerate_sigma(g, seeds):
    """All-simple-path exhaustive shortest distances on a tiny graph."""
    n = g.n
    adj = [[] for _ in range(n)]
    tails, heads, weights = g.edge_list()
    for t, h, w in zip(tails, heads, weights):
        adj[int(t)].append((int(h), float(w)))
    best = np.full(n, np.inf)
    for s in seeds:
        stack = [(s, 0.0, 1 << s)]
        best[s] = 0.0
        while stack:
            u, d, seen = stack.pop()
            for v, w in adj[u]:
                if seen & (1 << v):
                    continue
                nd = d + w
                if nd < best[v]:
                    best[v] = nd
                stack.append((v, nd, seen | (1 << v)))
    return best


def test_sigma_matches_path_enumeration():
    rng = np.random.default_rng(7)
    for rep in range(100):
        n = int(rng.integers(3, 9))
        cfg = symmetric_marked_config(n=max(n, 2) * 2, m_tilde=1.5, seed=1000 + rep)
        g = build_graph(cfg)
        if g.n > 8:
            # keep enumeration tractable: restrict to first 8 vertices
            continue
        seeds = [0]
        res = run_epidemic(g, seeds)
        oracle = _enumerate_sigma(g, seeds)
        assert np.allclose(res.sigma, oracle, equal_nan=True)


def test_small_graph_enumeration_direct():
    rng = np.random.default_rng(11)
    from infector.config import PopulationSpec
    from infector.graph import _assemble

    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 2 * n))
        pop = PopulationSpec(n=n, counts=[n], proportions=[1.0])
        tails = rng.integers(0, n, size=m)
        heads = rng.integers(0, n, size=m)
        weights = rng.random(m) + 0.01
        g = _assemble(pop, tails, heads, weights, realized_seed=0)
        res = run_epidemic(g, [0])
        oracle = _enumerate_sigma(g, [0])
        assert np.allclose(res.sigma, oracle, equal_nan=True)


def test_adding_seed_never_increases_sigma():
    g = build_graph(symmetric_marked_config(n=200, seed=19))
    base = run_epidemic(g, [0]).sigma
    more = run_epidemic(g, [0, 7]).sigma
    assert (more <= base + 1e-15).all()


# --------------------------------------------------------------------------
# attribution bookkeeping
# --------------------------------------------------------------------------

def test_attribution_conservation():
    cfg = symmetric_marked_config(n=1000, seed=23)
    g = build_graph(cfg)
    res = run_epidemic(g, [0])
    pop = g.population
    types = pop.type_array()
    seeds = [0]
    for j0 in range(pop.k):
        never = int((~np.isfinite(res.sigma) & (types == j0)).sum())
        seeded = int(sum(1 for s in seeds if types[s] == j0))
        attributed = int(res.attribution_counts[:, j0].sum())
        assert attributed + seeded + never == pop.counts[j0]


def test_sigma_infector_edge_consistency():
    g = build_graph(symmetric_marked_config(n=500, seed=29))
    res = run_epidemic(g, [0])
    for v in range(g.n):
        u = res.infector[v]
        if u < 0:
            continue
        heads, weights = g.out_edges(u)
        # addition, not subtraction: sigma[v] was produced as sigma[u] + w
        # in a single rounded operation, so this form holds bit-for-bit
        sums = res.sigma[u] + weights[heads == v]
        assert (sums == res.sigma[v]).any()


def test_attribution_single_type_is_one():
    g = build_graph(single_type_config(n=500, rate=2.0, seed=32))
    res = run_epidemic(g, [0])
    assert res.total_infected > 100  # guard: outbreak must take off
    rho = attribute_infectors(res)
    assert rho[0, 0] == 1.0


def test_attribution_zero_denominator_is_nan():
    g = build_graph(single_type_config(n=20, rate=0.0))
    res = run_epidemic(g, [0])
    assert np.isnan(attribute_infectors(res)[0, 0])


def test_is_large_outbreak_thresholds():
    g = build_graph(single_type_config(n=100, rate=0.0))
    res = run_epidemic(g, [0])
    assert not is_large_outbreak(res, 0.05)
    with pytest.raises(DomainError):
        is_large_outbreak(res, 0.0)


@pytest.mark.parametrize("threads", [0, -2])
def test_replicate_records_rejects_threads_below_one(threads):
    with pytest.raises(DomainError, match="threads"):
        replicate_records(single_type_config(n=50), 3, threads=threads)


def test_replicate_records_caps_the_pool(monkeypatch):
    # --threads 1000000 once asked the OS for a thread per replicate; the
    # fake pool records its size and runs the tasks serially, starting none
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(forward, "ThreadPoolExecutor", SerialPool)
    cfg = single_type_config(n=50)
    records = replicate_records(cfg, 3, threads=10**6)
    assert sizes == [min(3, os.cpu_count() or 1)]
    serial = replicate_records(cfg, 3, threads=1)
    assert all(np.array_equal(a["rho"], b["rho"], equal_nan=True)
               for a, b in zip(records, serial, strict=True))


# --------------------------------------------------------------------------
# lazy simulation
# --------------------------------------------------------------------------

def test_lazy_zero_rate_only_seeds():
    res = run_epidemic_lazy(single_type_config(n=50, rate=0.0))
    assert res.total_infected == 1


def test_lazy_seed_out_of_range():
    cfg = single_type_config(n=50)
    for seed in (-1, 50):
        with pytest.raises(DomainError):
            run_epidemic_lazy(dataclasses.replace(cfg, initial_infecteds=(seed,)))


def test_lazy_draws_exactly_the_infected_lists(monkeypatch):
    # no reveal budget: every list is drawn at most once, and the drawn
    # tails are exactly the infected vertices, large outbreaks included
    drawn = []

    def recording(config, rng, i0, ids, *blocks):
        drawn.append(np.asarray(ids).copy())
        draw_out_edges(config, rng, i0, ids, *blocks)

    monkeypatch.setattr(infector.graph, "draw_out_edges", recording)
    for cfg in (readme_config(2000), extremal_config(n=2000, seed=19)):
        large = 0
        for r in range(20):
            drawn.clear()
            res = run_epidemic_lazy(cfg, stream(cfg.seed, "replicate", r))
            ids = np.concatenate(drawn)
            assert len(np.unique(ids)) == len(ids)
            assert np.array_equal(np.sort(ids), np.flatnonzero(np.isfinite(res.sigma)))
            large += is_large_outbreak(res, 0.05)
        assert large >= 5


def test_lazy_subcritical_no_large_outbreak():
    cfg = single_type_config(n=500, rate=0.5, seed=37)
    for rec in replicate_records(cfg, 200, threshold=0.05, method="lazy"):
        assert not rec["large_outbreak"]


def test_lazy_eager_final_size_distributions_match():
    cfg = single_type_config(n=2000, rate=2.0, seed=41)
    lazy = replicate_records(cfg, 250, method="lazy")
    eager = replicate_records(cfg, 250, method="eager", master_seed=cfg.seed + 1)
    a = np.array([r["final_fraction"] for r in lazy])
    b = np.array([r["final_fraction"] for r in eager])
    # condition on a large outbreak (bimodal distribution)
    a, b = a[a >= 0.05], b[b >= 0.05]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_seeded_unseeded_final_size_distributions_match():
    # graphs drawn outward from the seed (the eager engine) against whole
    # graphs: the same large-outbreak fraction and final-size laws
    cfg = readme_config(2000)
    seeded = np.array([r["final_fraction"] for r in replicate_records(cfg, 300)])
    seeds = cfg.v_init()
    whole = np.array([run_epidemic(build_graph(cfg, stream(cfg.seed + 1, "replicate", r)),
                                   seeds).final_fraction() for r in range(300)])
    a, b = seeded >= 0.05, whole >= 0.05
    pooled = (a.sum() + b.sum()) / 600
    assert abs(a.mean() - b.mean()) < 3 * math.sqrt(pooled * (1 - pooled) * 2 / 300)
    assert stats.ks_2samp(seeded[a], whole[b]).pvalue > 0.01
    assert stats.ks_2samp(seeded[~a], whole[~b]).pvalue > 0.01


def test_lazy_final_size_near_one_minus_q():
    cfg = single_type_config(n=5000, rate=2.0, seed=43)
    records = replicate_records(cfg, 100, method="lazy")
    fracs = np.array([r["final_fraction"] for r in records if r["large_outbreak"]])
    target = 1.0 - fixed_point_q(2.0).value
    se = fracs.std(ddof=1) / math.sqrt(len(fracs))
    assert abs(fracs.mean() - target) < max(4 * se, 0.01)


# --------------------------------------------------------------------------
# replicate aggregation
# --------------------------------------------------------------------------

def test_replicate_rho_symmetric():
    cfg = symmetric_marked_config(n=4000, seed=47)
    est = replicate_rho(cfg, 60)
    assert est.replicates_used > 0
    for j in range(2):
        col = est.mean[:, j]
        assert abs(col.sum() - 1.0) < 1e-12
        assert abs(col[0] - 0.5) < 3 * max(est.stderr[0, j], 0.01)


def test_replicate_rho_no_data_error():
    cfg = single_type_config(n=500, rate=0.5, seed=53)
    with pytest.raises(NoDataError):
        replicate_rho(cfg, 10, threshold=0.05)


def test_aggregate_rho_one_value_cell_has_nan_stderr():
    # a lone type-2 vertex: among the large outbreaks its rho column has one
    # non-NaN value, whose standard error is NaN, without a numpy warning
    pop = PopulationSpec(n=400, counts=[399, 1], proportions=[0.9975, 0.0025])
    kern = MarkovSEIR(latent=[Duration.constant(0.0)] * 2,
                      infectious=[Duration.exponential(1.0)] * 2,
                      contact_rates=[[2.0, 2.0], [2.0, 2.0]])
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,), seed=5)
    records = replicate_records(cfg, 6, master_seed=9)
    used = np.stack([rec["rho"] for rec in records if rec["large_outbreak"]])
    assert len(used) >= 2 and (~np.isnan(used[:, 0, 1])).sum() == 1
    est = aggregate_rho(records)
    assert np.isnan(est.stderr[:, 1]).all() and np.isfinite(est.stderr[:, 0]).all()
    assert np.isfinite(est.mean).all()


def test_replicates_deterministic_and_thread_invariant():
    cfg = symmetric_marked_config(n=1000, seed=59)
    a = replicate_rho(cfg, 12, threads=1)
    b = replicate_rho(cfg, 12, threads=4)
    assert np.array_equal(a.mean, b.mean)
    c = replicate_rho(cfg, 12, threads=1)
    assert np.array_equal(a.mean, c.mean)


@pytest.mark.parametrize("method", ["eager", "lazy"])
def test_extremal_attains_upper_bound(method):
    cfg = extremal_config(n=4000, m_tilde=2.0, fast_pair=(1, 1), seed=61)
    est = replicate_rho(cfg, 40, method=method)
    _, hi = theorem2_bounds(0.5, 2.0, 2.0)
    assert abs(est.mean[0, 0] - hi) < 0.04
