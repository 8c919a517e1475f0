import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from infector.backward import (
    default_t_star,
    explore_susceptibility,
    restricted_susceptibility_size,
    susceptibility_counts,
)
from infector.config import PopulationSpec
from infector.errors import DomainError, OutOfHorizonError
from infector.forward import run_epidemic
from infector.graph import FIG1_LABELS, _assemble, build_graph, fixture_graph_fig1

import oracles
from conftest import asymmetric_seir_config, marked_config, symmetric_marked_config


# --------------------------------------------------------------------------
# worked example
# --------------------------------------------------------------------------

def _names(snapshot):
    inv = {v: k for k, v in FIG1_LABELS.items()}
    return {inv[u] for u in snapshot.explored} - {inv[snapshot.root]}


def test_fixture_slice_at_1_1():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 1.1)
    assert _names(snap) == {"c", "d"}


def test_fixture_full_set():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], math.inf)
    assert _names(snap) == {"a", "b", "c", "d"}


def test_zero_horizon_only_root():
    g = fixture_graph_fig1()
    for name in "af":
        v = FIG1_LABELS[name]
        snap = explore_susceptibility(g, v, 0.0)
        assert snap.explored.tolist() == [v]
        assert snap.distance.tolist() == [0.0]


def test_negative_horizon_rejected():
    g = fixture_graph_fig1()
    with pytest.raises(DomainError):
        explore_susceptibility(g, 0, -0.1)


def test_nan_horizon_and_bad_root_rejected():
    g = fixture_graph_fig1()
    with pytest.raises(DomainError, match="t_star"):
        explore_susceptibility(g, 0, math.nan)
    for bad in (-1, g.n, 1.5, "0"):
        with pytest.raises(DomainError, match=f"0..{g.n - 1}"):
            explore_susceptibility(g, bad, 1.0)
        with pytest.raises(DomainError, match=f"0..{g.n - 1}"):
            restricted_susceptibility_size(g, bad, 1, 1)
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 2.0)
    for t, a in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError, match="t and a"):
            susceptibility_counts(snap, t, a, 1)
    for bad in (1.7, 2.9, math.nan):
        with pytest.raises(DomainError, match="1..2"):
            susceptibility_counts(snap, 1.0, 1.0, bad)
        with pytest.raises(DomainError, match="1..2"):
            restricted_susceptibility_size(g, FIG1_LABELS["f"], bad, 2)


# --------------------------------------------------------------------------
# age-stratified slice counts
# --------------------------------------------------------------------------

def test_counts_a_zero_is_zero():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 2.0)
    for j in (1, 2):
        assert susceptibility_counts(snap, 1.5, 0.0, j) == 0


def test_counts_a_large_is_full_slice():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 1.1)
    # slice at t=1.1 is {f, c, d}; c and d have type 1, f has type 2
    assert susceptibility_counts(snap, 1.1, 100.0, 1) == 2
    assert susceptibility_counts(snap, 1.1, 100.0, 2) == 1


def test_counts_window_selects_by_distance():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 2.0)
    # distances to f: f=0, d=0.4, c=1.0, b=1.9
    assert susceptibility_counts(snap, 1.0, 0.5, 1) == 1  # only c
    assert susceptibility_counts(snap, 1.0, 1.0, 1) == 2  # c and d


def test_counts_beyond_horizon_raises():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 1.0)
    with pytest.raises(OutOfHorizonError):
        susceptibility_counts(snap, 1.5, 1.0, 1)


def test_counts_bad_arguments():
    g = fixture_graph_fig1()
    snap = explore_susceptibility(g, FIG1_LABELS["f"], 1.0)
    with pytest.raises(DomainError):
        susceptibility_counts(snap, 0.5, -1.0, 1)
    with pytest.raises(DomainError):
        susceptibility_counts(snap, 0.5, 1.0, 3)


# --------------------------------------------------------------------------
# snapshot structure
# --------------------------------------------------------------------------

def test_snapshot_sets_disjoint_and_bounded():
    g = build_graph(symmetric_marked_config(n=500, seed=71))
    snap = explore_susceptibility(g, 5, 1.5)
    explored, active, passive = (set(a.tolist()) for a in
                                 (snap.explored, snap.active, snap.passive))
    assert (snap.distance <= snap.horizon).all()
    assert (snap.active_distance > snap.horizon).all()
    assert len(snap.active_distance) == len(snap.active) > 0
    assert passive
    assert not explored & active
    assert not explored & passive
    assert not active & passive
    assert snap.flagged == (snap.collision_count > 0)


def test_snapshot_arrays_sorted_and_typed():
    g = build_graph(symmetric_marked_config(n=500, seed=71))
    for v in (0, 5, 499):
        for t in (0.0, 1.5, math.inf):
            snap = explore_susceptibility(g, v, t)
            for ids in (snap.explored, snap.active, snap.passive):
                assert ids.dtype == np.int64
                assert (np.diff(ids) > 0).all()
            assert len(snap.distance) == len(snap.explored)
            assert len(snap.active_distance) == len(snap.active)
            at = np.searchsorted(snap.explored, v)
            assert snap.explored[at] == v and snap.distance[at] == 0.0


def test_explored_nested_in_horizon():
    g = build_graph(symmetric_marked_config(n=500, seed=73))
    prev = set()
    for t in (0.0, 0.5, 1.0, 2.0, 4.0, math.inf):
        cur = set(explore_susceptibility(g, 3, t).explored.tolist())
        assert prev <= cur
        prev = cur


def test_reverse_distances_match_transposed_dijkstra():
    g = build_graph(marked_config(400, 0.3, 3.0, 2.0, seed=79))
    tails, heads, weights = g.edge_list()
    mat = csr_matrix((weights, (heads, tails)), shape=(g.n, g.n))
    for v in (0, 17, 350):
        snap = explore_susceptibility(g, v, math.inf)
        oracle = scipy_dijkstra(mat, indices=v)
        for u, d in zip(snap.explored, snap.distance):
            assert d == pytest.approx(oracle[u], rel=1e-12)
        assert np.isinf(oracle[np.setdiff1d(np.arange(g.n), snap.explored)]).all()


def _assert_same_snapshot(new, old):
    # the oracle holds explored as {vertex: distance} and active as a
    # set of (vertex, distance): compare keys and exact distances
    assert dict(zip(new.explored.tolist(), new.distance.tolist())) == old.explored
    assert set(zip(new.active.tolist(), new.active_distance.tolist())) == old.active
    assert set(new.passive.tolist()) == old.passive
    assert new.collision_count == old.collision_count
    assert new.flagged == old.flagged


def test_matches_loop_oracle_on_fixture():
    g = fixture_graph_fig1()
    for v in range(g.n):
        for t in (0.0, 0.4, 1.1, math.inf):
            _assert_same_snapshot(explore_susceptibility(g, v, t),
                                  oracles.explore_susceptibility(g, v, t))
        j = int(g.population.type_of(v)) + 1
        for i in (1, 2):
            assert (restricted_susceptibility_size(g, v, i, j)
                    == oracles.restricted_susceptibility_size(g, v, i, j))


def test_matches_loop_oracle_on_seir_graph():
    g = build_graph(asymmetric_seir_config(n=2000, seed=7))
    pop = g.population
    roots = np.random.default_rng(7).choice(g.n, size=60, replace=False)
    collisions = 0
    for v in (int(r) for r in roots):
        for t in (1.0, 4.0, 10.0):
            new = explore_susceptibility(g, v, t)
            _assert_same_snapshot(new, oracles.explore_susceptibility(g, v, t))
            collisions += new.collision_count
        j = int(pop.type_of(v)) + 1
        for i in (1, 2):
            assert (restricted_susceptibility_size(g, v, i, j)
                    == oracles.restricted_susceptibility_size(g, v, i, j))
    assert collisions > 0


# --------------------------------------------------------------------------
# duality with forward runs
# --------------------------------------------------------------------------

def _random_graph(rng, n, m):
    pop = PopulationSpec(n=n, counts=[n], proportions=[1.0])
    tails = rng.integers(0, n, size=m)
    heads = rng.integers(0, n, size=m)
    weights = rng.random(m) + 0.01
    return _assemble(pop, tails, heads, weights, realized_seed=0)


def test_duality_small_graphs():
    rng = np.random.default_rng(83)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = _random_graph(rng, n, int(rng.integers(0, 3 * n)))
        v = int(rng.integers(0, n))
        members = set(explore_susceptibility(g, v, math.inf).explored.tolist())
        for u in range(n):
            infected = np.isfinite(run_epidemic(g, [u]).sigma[v])
            assert (u in members) == infected


def test_duality_time_sliced():
    # u within distance t of v  <=>  starting from u infects v by time t
    rng = np.random.default_rng(89)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        g = _random_graph(rng, n, int(rng.integers(0, 3 * n)))
        v = int(rng.integers(0, n))
        t = float(rng.random() * 2)
        members = set(explore_susceptibility(g, v, t).explored.tolist())
        for u in range(n):
            assert (u in members) == (run_epidemic(g, [u]).sigma[v] <= t)


# --------------------------------------------------------------------------
# restricted set size
# --------------------------------------------------------------------------

def test_restricted_no_in_edges_is_one():
    g = fixture_graph_fig1()
    assert restricted_susceptibility_size(g, FIG1_LABELS["a"], 1, 1).y == 1


def test_restricted_fixture_values():
    g = fixture_graph_fig1()
    # type-1 chains a->c->d and a->c->g survive the (1,1) restriction
    assert restricted_susceptibility_size(g, FIG1_LABELS["d"], 1, 1).y == 3
    assert restricted_susceptibility_size(g, FIG1_LABELS["g"], 1, 1).y == 3
    # (1,2) restriction keeps every fixture edge on paths into f
    assert restricted_susceptibility_size(g, FIG1_LABELS["f"], 1, 2).y == 5


def test_restricted_wrong_root_type():
    g = fixture_graph_fig1()
    with pytest.raises(DomainError):
        restricted_susceptibility_size(g, FIG1_LABELS["b"], 1, 1)


def test_restricted_bounded_by_full_set():
    g = build_graph(marked_config(600, 0.4, 2.0, 1.5, seed=97))
    pop = g.population
    rng = np.random.default_rng(97)
    roots = rng.choice(pop.counts[0], size=30, replace=False)
    for v in roots:
        y = restricted_susceptibility_size(g, int(v), 1, 1).y
        full = len(explore_susceptibility(g, int(v), math.inf).explored)
        assert 1 <= y <= full


def test_restricted_mean_inverse_matches_borel_moment():
    # p1 * m1_tilde = 0.8 puts the type-1-only subprocess at m = 0.8,
    # where the size distribution has E[1/Y] = 1 - m/2 = 0.6
    g = build_graph(marked_config(4000, 0.4, 2.0, 1.5, seed=101))
    n1 = g.population.counts[0]
    rng = np.random.default_rng(101)
    roots = rng.choice(n1, size=600, replace=False)
    inv = np.array([1.0 / restricted_susceptibility_size(g, int(v), 1, 1).y for v in roots])
    se = inv.std(ddof=1) / math.sqrt(len(inv))
    assert abs(inv.mean() - 0.6) < 3 * se + 0.01


# --------------------------------------------------------------------------
# coupling horizon
# --------------------------------------------------------------------------

def test_default_t_star_formula():
    assert default_t_star(1000, 2.0, kappa=0.5) == pytest.approx(
        0.125 * math.log(1000) / 2.0, rel=1e-15
    )
    assert default_t_star(100, 1.0) == pytest.approx(0.125 * math.log(100))


def test_default_t_star_domain():
    with pytest.raises(DomainError):
        default_t_star(100, 1.0, kappa=0.0)
    with pytest.raises(DomainError):
        default_t_star(100, 1.0, kappa=1.0)
    with pytest.raises(DomainError):
        default_t_star(100, 0.0)


def test_flagged_fraction_decreases_with_n():
    # collisions at the coupling horizon should become rare as n grows
    fracs = []
    for n in (200, 3200):
        g = build_graph(symmetric_marked_config(n=n, m_tilde=2.0, seed=103))
        t = default_t_star(n, 1.0)
        rng = np.random.default_rng(103)
        roots = rng.choice(n, size=60, replace=False)
        flagged = [explore_susceptibility(g, int(v), t).flagged for v in roots]
        fracs.append(np.mean(flagged))
    assert fracs[-1] <= fracs[0]
