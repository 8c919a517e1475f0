import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import infector.branching
from infector.branching import (
    _settled,
    _simulate_batch,
    backward_mean_matrix,
    estimate_W,
    estimate_rho_bp,
    extinction_frequency,
    laplace_mean_matrix,
    solve_malthusian,
    survival_probability,
)
from infector.config import (
    Duration,
    MarkedSingleProcess,
    MarkovSEIR,
    ModelConfig,
    PopulationSpec,
    eta_cdf,
    mean_matrix,
)
from infector.errors import CapExceededError, DomainError, NumericError
from infector.rng import stream

from conftest import (
    asymmetric_seir_config,
    extremal_config,
    marked_config,
    readme_config,
    single_type_config,
    symmetric_marked_config,
)
from oracles import simulate_backward_bp, simulate_batch


# --------------------------------------------------------------------------
# mean structure
# --------------------------------------------------------------------------

def test_backward_mean_matrix_entrywise():
    cfg = asymmetric_seir_config(n=100)
    m = mean_matrix(cfg)
    p = cfg.population.proportions
    mb = backward_mean_matrix(cfg)
    for j in range(2):
        for i in range(2):
            assert mb[j, i] == pytest.approx(p[i] / p[j] * m[i, j], rel=1e-15)


def test_laplace_at_zero_is_backward_matrix():
    for cfg in (asymmetric_seir_config(n=100), marked_config(100, 0.4, 3.0, 2.0)):
        assert np.allclose(laplace_mean_matrix(cfg, 0.0), backward_mean_matrix(cfg),
                           rtol=1e-12)
        assert np.allclose(laplace_mean_matrix(cfg, 1e-9), backward_mean_matrix(cfg),
                           rtol=1e-6)


def test_laplace_single_type_closed_form():
    # zero latency, exponential(1) infectious period, rate 2:
    # transform is 2/(x + 1)
    cfg = single_type_config(n=100, rate=2.0)
    for x in (0.0, 0.5, 1.0, 3.0):
        assert laplace_mean_matrix(cfg, x)[0, 0] == pytest.approx(2.0 / (x + 1.0),
                                                                  rel=1e-12)


def test_laplace_monotone_vanishes():
    cfg = asymmetric_seir_config(n=100)
    prev = np.inf
    for x in (0.0, 1.0, 4.0, 16.0, 64.0):
        cur = laplace_mean_matrix(cfg, x).sum()
        assert cur < prev or x == 0.0
        prev = cur
    assert laplace_mean_matrix(cfg, 1e6).max() < 1e-4


def _gamma_latent_marked_config(n=1000):
    pop = PopulationSpec(n=n, counts=[n // 2, n - n // 2], proportions=[0.5, 0.5])
    kern = MarkedSingleProcess(
        latent=[Duration.gamma(2.0, 3.0), Duration.gamma(3.0, 2.0)],
        infectious=[Duration.gamma(1.5, 0.8), Duration.exponential(1.5)],
        total_rates=[2.0, 3.0],
    )
    return ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,))


@pytest.mark.parametrize("make_cfg, i0, seed", [
    (lambda: readme_config(1000), 0, 71),
    (lambda: readme_config(1000), 1, 72),
    (_gamma_latent_marked_config, 0, 73),
    (_gamma_latent_marked_config, 1, 74),
], ids=["readme-1", "readme-2", "gamma-latent-1", "gamma-latent-2"])
def test_contact_age_draw_matches_its_cdf_and_laplace(make_cfg, i0, seed):
    # the simulator's sampler, eta_cdf and the Laplace matrix are three
    # views of one law: 2e5 sampled ages against the other two, at 5 sigma
    cfg = make_cfg()
    rng = np.random.default_rng(seed)
    size = 200_000
    ages = cfg.kernel.contact_age(i0).sample(rng, size)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        f = eta_cdf(cfg, i0 + 1, 1, t)
        sigma = math.sqrt(f * (1.0 - f) / size)
        assert abs((ages <= t).mean() - f) < 5 * sigma, t
    mb = backward_mean_matrix(cfg)
    for x in (0.5, 2.0):
        disc = np.exp(-x * ages)
        target = laplace_mean_matrix(cfg, x)[0, i0] / mb[0, i0]
        assert abs(disc.mean() - target) < 5 * disc.std(ddof=1) / math.sqrt(size), x


def test_laplace_negative_argument():
    with pytest.raises(DomainError):
        laplace_mean_matrix(single_type_config(n=10), -0.5)


def test_laplace_nan_argument():
    with pytest.raises(DomainError, match="nan"):
        laplace_mean_matrix(single_type_config(n=10), float("nan"))


def test_laplace_inf_argument():
    # a constant-0 latent period would give exp(-inf * 0) = NaN entries
    with pytest.raises(DomainError, match="inf"):
        laplace_mean_matrix(readme_config(1000), float("inf"))


@pytest.mark.parametrize("call", [
    lambda cfg: laplace_mean_matrix(cfg, 0.5),
    solve_malthusian,
    lambda cfg: estimate_rho_bp(cfg, 1, R=10, horizon=2.0),
    lambda cfg: estimate_W(cfg, 1, horizon=2.0, alpha=0.5, R=10),
    lambda cfg: extinction_frequency(cfg, 1, R=10, horizon=2.0),
], ids=["laplace", "malthusian", "rho_bp", "W", "extinction_frequency"])
def test_extremal_kernel_has_no_backward_process(call):
    # its edge weights are micro-interval uniforms, not the base kernel's ages
    with pytest.raises(DomainError, match="extremal_two_type"):
        call(extremal_config(n=200))


# --------------------------------------------------------------------------
# Malthusian parameter
# --------------------------------------------------------------------------

def test_malthusian_markov_single_type():
    # 2/(alpha + 1) = 1  =>  alpha = 1
    sol = solve_malthusian(single_type_config(n=100, rate=2.0))
    assert sol.alpha == pytest.approx(1.0, abs=1e-12)
    assert sol.residual < 1e-10


def test_malthusian_constant_period_oracle():
    cfg = single_type_config(n=100, rate=2.0, infectious=Duration.constant(1.0))
    oracle = brentq(lambda x: 2.0 * (1.0 - math.exp(-x)) / x - 1.0, 1e-9, 10.0,
                    xtol=1e-14)
    assert solve_malthusian(cfg).alpha == pytest.approx(oracle, abs=1e-11)


def test_malthusian_symmetric_marked_lumps_to_single_type():
    a = solve_malthusian(symmetric_marked_config(n=100, m_tilde=2.0)).alpha
    b = solve_malthusian(single_type_config(n=100, rate=2.0)).alpha
    assert a == pytest.approx(b, abs=1e-11)


def test_malthusian_readme_kernel_to_ulps():
    # reference value from a 40-digit bisection on the Perron root of the
    # 2 x 2 Laplace mean matrix of the README kernel
    alpha = solve_malthusian(readme_config(2000)).alpha
    assert abs(alpha - 0.83745875700496053121) <= 4 * math.ulp(0.83745875700496053121)


def test_malthusian_subcritical_rejected():
    with pytest.raises(DomainError):
        solve_malthusian(single_type_config(n=100, rate=0.8))


# --------------------------------------------------------------------------
# simulation and W estimates
# --------------------------------------------------------------------------

def test_batch_simulator_matches_event_log_oracle():
    # per root type: mean size and P(size = 1) of the batched simulator
    # against the per-particle event-log loop, at 4 combined standard errors
    cfg = asymmetric_seir_config(n=100)
    horizon, runs = 3.0, 2000
    for root_type in (1, 2):
        ref_rng = stream(41, "oracle", root_type)
        ref = np.array([simulate_backward_bp(cfg, root_type, horizon, rng=ref_rng).size
                        for _ in range(runs)])
        sizes, last_birth, capped = _simulate_batch(cfg, np.full(runs, root_type - 1),
                                                    horizon, 1_000_000,
                                                    stream(43, "batch", root_type))
        assert not capped.any()
        assert (last_birth <= horizon).all()
        assert np.array_equal(sizes == 1, last_birth == 0.0)
        for stat in (lambda x: x.astype(float), lambda x: (x == 1).astype(float)):
            a, b = stat(sizes), stat(ref)
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(runs)
            assert abs(a.mean() - b.mean()) < 4 * se


_durations = st.one_of(
    st.floats(0.5, 1.5).map(Duration.constant),
    st.floats(0.5, 2.0).map(Duration.exponential),
    st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 2.0)).map(lambda sr: Duration.gamma(*sr)),
)


@st.composite
def _batch_cases(draw):
    k = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    pop = PopulationSpec(n=10 * k, counts=[10] * k, proportions=weights / weights.sum())
    latent = draw(st.lists(st.one_of(st.just(Duration.constant(0.0)), _durations),
                           min_size=k, max_size=k))
    infectious = draw(st.lists(_durations, min_size=k, max_size=k))
    rates = st.floats(0.5, 3.0)
    if draw(st.booleans()):
        kern = MarkovSEIR(latent, infectious,
                          np.array(draw(st.lists(rates, min_size=k * k, max_size=k * k)))
                          .reshape(k, k))
    else:
        kern = MarkedSingleProcess(latent, infectious,
                                   draw(st.lists(rates, min_size=k, max_size=k)))
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,))
    roots = np.array(draw(st.lists(st.integers(0, k - 1), min_size=5, max_size=40)))
    return (cfg, roots, draw(st.floats(1.0, 6.0)), draw(st.integers(1, 200)),
            draw(st.integers(0, 2**32)))


@given(_batch_cases(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_batch_simulator_invariants_and_determinism(case, stop_on_cap):
    # every run keeps its root, a run has a birth exactly when it grew,
    # births stay within the horizon, the cap flag is exactly size > cap,
    # and one seed gives one output and one final stream state
    cfg, roots, horizon, cap, seed = case
    rng, again = stream(seed, "order"), stream(seed, "order")
    sizes, last_birth, capped = _simulate_batch(cfg, roots, horizon, cap, rng, stop_on_cap)
    assert (sizes >= 1).all()
    assert np.array_equal(sizes == 1, last_birth == 0.0)
    assert (last_birth <= horizon).all()
    assert np.array_equal(capped, sizes > cap)
    for a, b in zip((sizes, last_birth, capped),
                    _simulate_batch(cfg, roots, horizon, cap, again, stop_on_cap)):
        assert np.array_equal(a, b)
    assert repr(rng.bit_generator.state) == repr(again.bit_generator.state)


@given(_batch_cases())
@settings(max_examples=80, deadline=None)
def test_batch_simulator_keeps_per_particle_draw_order(case):
    # the block simulator draws exactly what the Poisson-splitting step
    # over one flat particle array draws, in the same order, and leaves
    # the stream in the same state
    cfg, roots, horizon, cap, seed = case
    ref_rng, rng = stream(seed, "order"), stream(seed, "order")
    ref = simulate_batch(cfg, roots, horizon, cap, ref_rng, infector.branching._SLICE)
    out = _simulate_batch(cfg, roots, horizon, cap, rng)
    for a, b in zip(ref, out):
        assert np.array_equal(a, b)
    assert repr(ref_rng.bit_generator.state) == repr(rng.bit_generator.state)


def test_batch_simulator_peak_memory():
    # 12 bytes per live particle plus the kept children of the type being
    # drawn and the temporaries of one slice of _SLICE children; the
    # per-particle-array form peaked at about 17 MB on this call
    cfg = readme_config(100)
    roots = np.arange(1000) % 2
    tracemalloc.start()
    try:
        _simulate_batch(cfg, roots, 8.0, 1_000_000, stream(2, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


def test_batch_simulator_peak_memory_sliced(monkeypatch):
    # the same call with slices of 1,024 children, 16 times shorter than
    # _SLICE: more, smaller slices must not raise the peak past the bound
    monkeypatch.setattr(infector.branching, "_SLICE", 1024)
    cfg = readme_config(100)
    roots = np.arange(1000) % 2
    tracemalloc.start()
    try:
        _simulate_batch(cfg, roots, 8.0, 1_000_000, stream(2, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


@pytest.mark.parametrize("slice_len", [1, 7])
def test_batch_simulator_slices_match_event_log_oracle(monkeypatch, slice_len):
    # slices of a few children draw parent ids, ages and uniforms in
    # pieces; the law must stay that of the per-particle event-log loop
    monkeypatch.setattr(infector.branching, "_SLICE", slice_len)
    cfg = asymmetric_seir_config(n=100)
    horizon, runs = 3.0, 2000
    for root_type in (1, 2):
        ref_rng = stream(47, "oracle", root_type)
        ref = np.array([simulate_backward_bp(cfg, root_type, horizon, rng=ref_rng).size
                        for _ in range(runs)])
        sizes, _, _ = _simulate_batch(cfg, np.full(runs, root_type - 1), horizon, 1_000_000,
                                      stream(53, "slices", slice_len, root_type))
        assert sizes.sum() > 2 * runs  # thousands of children: many slices per block
        for stat in (lambda x: x.astype(float), lambda x: (x == 1).astype(float)):
            a, b = stat(sizes), stat(ref)
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(runs)
            assert abs(a.mean() - b.mean()) < 4 * se


@pytest.mark.parametrize("slice_len", [1, 3, 7])
@pytest.mark.parametrize("case", ["readme", "asymmetric", "gamma-latent", "capped"])
def test_batch_simulator_slices_keep_draw_order(monkeypatch, slice_len, case):
    # slices of a few children within each block: the block simulator's
    # per-slice draws and kept pieces must match the flat-array form's
    monkeypatch.setattr(infector.branching, "_SLICE", slice_len)
    roots = np.array([0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1])
    cfg, horizon, cap = {
        "readme": (readme_config(100), 4.0, 1_000),
        "asymmetric": (asymmetric_seir_config(n=100), 4.0, 1_000),
        "gamma-latent": (marked_config(100, 0.4, 3.0, 2.0), 4.0, 1_000),
        "capped": (readme_config(100), 6.0, 40),
    }[case]
    if case == "gamma-latent":
        kern = cfg.kernel
        cfg = ModelConfig(population=cfg.population,
                          kernel=MarkedSingleProcess([Duration.gamma(2.0, 3.0)] * 2,
                                                     kern.infectious, kern.total_rates),
                          initial_infecteds=(0,))
    ref_rng, rng = stream(17, "slices", slice_len), stream(17, "slices", slice_len)
    ref = simulate_batch(cfg, roots, horizon, cap, ref_rng, slice_len)
    out = _simulate_batch(cfg, roots, horizon, cap, rng)
    assert out[0].sum() > 100  # blocks span many slices
    assert out[2].any() == (case == "capped")
    for a, b in zip(ref, out):
        assert np.array_equal(a, b)
    assert repr(ref_rng.bit_generator.state) == repr(rng.bit_generator.state)


def test_batch_simulator_draws_pinned():
    # recorded with the Poisson-splitting generation step: one Poisson
    # total per parent block and child type, then per slice of children
    # the parent ids and the ages (ContactAgeLaw.sample).  A gamma-2 or
    # gamma-3 excess draws one exponential per child, J - 1 as one uint8
    # draw, then the further exponentials only for the children that
    # need them
    out = _simulate_batch(readme_config(100), np.arange(1000) % 2, 6.0, 1_000_000,
                          stream(7, "pinned"))
    digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
    assert digest == "c2116bc81fd52ee8d0a365c2bb3e6138fd6fda64ff11834db1e95f07a20aeec7"


def test_batch_simulator_rejects_offspring_means_past_int32():
    # int32 Poisson counts: a mean past 2**30 is refused before any draw
    cfg = single_type_config(n=10, rate=2.0**31)
    rng = stream(5, "int32")
    state = repr(rng.bit_generator.state)
    with pytest.raises(NumericError):
        _simulate_batch(cfg, np.zeros(3, dtype=np.int64), 1.0, 10, rng)
    assert repr(rng.bit_generator.state) == state


def test_batch_stops_at_generation_of_first_cap():
    # a constant latent period of 1 and a near-zero infectious period put
    # generation g at birth time g, so a horizon of g* + 1/2 lets the
    # batch grow exactly through generation g*
    cfg = single_type_config(latent=Duration.constant(1.0),
                             infectious=Duration.constant(1e-6), rate=2e6)
    roots = np.zeros(30, dtype=np.int64)
    sizes, last_birth, capped = _simulate_batch(cfg, roots, 40.0, 50, stream(3, "stop"),
                                                stop_on_cap=True)
    assert capped.any() and not capped.all()
    assert (sizes[capped] > 50).all() and (sizes[~capped] <= 50).all()
    gen = np.round(last_birth)
    g_star = gen[capped].max()
    assert (gen[capped] == g_star).all() and (gen <= g_star).all()
    ref = _simulate_batch(cfg, roots, g_star + 0.5, 50, stream(3, "stop"))
    for a, b in zip(ref, (sizes, last_birth, capped)):
        assert np.array_equal(a, b)
    # without stopping, the uncapped runs grow on
    grown, _, _ = _simulate_batch(cfg, roots, 40.0, 50, stream(3, "stop"))
    assert (grown >= sizes).all() and (grown > sizes).any()


def test_run_bad_arguments():
    cfg = single_type_config(n=10)
    with pytest.raises(DomainError):
        estimate_W(cfg, 1, horizon=0.0, alpha=1.0, R=1)
    with pytest.raises(DomainError):
        estimate_W(cfg, 3, horizon=1.0, alpha=1.0, R=1)
    with pytest.raises(DomainError):
        estimate_W(cfg, 1, horizon=1.0, alpha=1.0, R=1, cap=0)


@pytest.mark.parametrize("bad", [dict(root_type=0), dict(root_type=3), dict(root_type=1.7),
                                 dict(root_type=2.9), dict(root_type=math.nan), dict(R=0),
                                 dict(horizon=-1.0), dict(horizon=0.0),
                                 dict(horizon=math.nan), dict(cap=0)], ids=repr)
@pytest.mark.parametrize("entry", ["estimate_W", "extinction_frequency",
                                   "estimate_rho_bp"])
def test_entry_points_reject_bad_arguments(entry, bad):
    cfg = marked_config(100, 0.4, 3.0, 2.0, seed=5)
    args = {**dict(root_type=1, R=10, horizon=2.0, cap=1000), **bad}
    with pytest.raises(DomainError):
        if entry == "estimate_W":
            estimate_W(cfg, args["root_type"], args["horizon"], 1.0, args["R"],
                       cap=args["cap"])
        elif entry == "extinction_frequency":
            extinction_frequency(cfg, args["root_type"], args["R"], args["horizon"],
                                 cap=args["cap"])
        else:
            estimate_rho_bp(cfg, args["root_type"], args["R"], horizon=args["horizon"],
                            cap=args["cap"])


def test_capped_run_flagged_and_rejected():
    cfg = single_type_config(n=10, rate=4.0)
    _, _, capped = _simulate_batch(cfg, np.zeros(1, dtype=np.int64), 50.0, 5,
                                   stream(7, "cap"))
    assert capped.all()
    with pytest.raises(CapExceededError):
        estimate_W(cfg, 1, 50.0, 1.0, 1, cap=5, rng=stream(7, "cap"))


def test_estimate_W_surrogate_zero():
    cfg = single_type_config(n=10, rate=1.5)
    R, horizon, alpha = 200, 8.0, 0.5
    w = estimate_W(cfg, 1, horizon, alpha, R, rng=stream(0, "w0"))
    sizes, last_birth, _ = _simulate_batch(cfg, np.zeros(R, dtype=np.int64), horizon,
                                           1_000_000, stream(0, "w0"))
    alone = sizes == 1
    late = ~alone & (last_birth >= horizon / 2.0)
    early = ~alone & ~late
    assert alone.any() and late.any() and early.any()
    assert (w[alone | early] == 0.0).all()
    assert np.array_equal(w[late], math.exp(-alpha * horizon) * sizes[late])


def test_estimate_W_bad_alpha():
    cfg = single_type_config(n=10)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            estimate_W(cfg, 1, horizon=1.0, alpha=alpha, R=1, rng=stream(1, "a"))


@pytest.mark.parametrize("horizon", [math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("entry", ["estimate_W", "extinction_frequency",
                                   "estimate_rho_bp"])
def test_entry_points_reject_non_finite_horizon(entry, horizon):
    # an infinite horizon once passed the check and grew every surviving
    # subtree to the cap
    cfg = marked_config(100, 0.4, 3.0, 2.0, seed=5)
    with pytest.raises(DomainError, match="finite"):
        if entry == "estimate_W":
            estimate_W(cfg, 1, horizon, 1.0, 10, cap=1000)
        elif entry == "extinction_frequency":
            extinction_frequency(cfg, 1, 10, horizon, cap=1000)
        else:
            estimate_rho_bp(cfg, 1, 10, horizon=horizon, cap=1000)


def test_estimate_W_rejects_infinite_alpha():
    # alpha = inf once gave W = e^(-inf T) * size = 0 for every run
    cfg = single_type_config(n=10)
    with pytest.raises(DomainError, match="finite"):
        estimate_W(cfg, 1, horizon=1.0, alpha=math.inf, R=1, rng=stream(1, "a"))


def test_martingale_mean_stable_in_horizon():
    cfg = single_type_config(n=10, rate=2.0)
    alpha = 1.0
    means, ses = [], []
    for horizon in (6.0, 9.0):
        rng = stream(31, "stab", int(horizon))
        vals = estimate_W(cfg, 1, horizon, alpha, 600, rng=rng)
        means.append(vals.mean())
        ses.append(vals.std(ddof=1) / math.sqrt(len(vals)))
    assert abs(means[0] - means[1]) < 3 * math.hypot(*ses)


def _record_batches(monkeypatch):
    batches = []

    def recorder(config, root_types0, *args, **kwargs):
        batches.append(np.array(root_types0))
        return _simulate_batch(config, root_types0, *args, **kwargs)

    monkeypatch.setattr(infector.branching, "_simulate_batch", recorder)
    return batches


@pytest.mark.parametrize("horizon, R", [(5.0, 9000), (8.0, 1500), (10.0, 300)])
def test_w_batches_sized_by_particle_budget(monkeypatch, horizon, R):
    # a run's size at T grows like e^(alpha T): batches of
    # _PARTICLES * e^(-alpha T) roots cover the roots in order
    cfg = readme_config(1000)
    alpha = solve_malthusian(cfg).alpha
    batches = _record_batches(monkeypatch)
    estimate_W(cfg, 2, horizon, alpha, R, rng=stream(3, "batches"))
    batch = max(1, int(infector.branching._PARTICLES * math.exp(-alpha * horizon)))
    assert [len(b) for b in batches] == [min(batch, R - a) for a in range(0, R, batch)]
    assert np.array_equal(np.concatenate(batches), np.ones(R))


def test_w_batches_of_one_past_exp_underflow(monkeypatch):
    # alpha T > 745: e^(-alpha T) underflows to 0 without a warning, and
    # each root runs alone
    batches = _record_batches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = estimate_W(single_type_config(n=10, rate=2.0), 1, 1.0, 800.0, 5,
                       rng=stream(3, "underflow"))
    assert [len(b) for b in batches] == [1] * 5
    assert (w == 0.0).all()


def test_estimate_W_peak_memory():
    # a batch holds about _PARTICLES * E[W] particles at any horizon; one
    # batch of 2000 subtrees peaked at 36 MB
    cfg = readme_config(1000)
    alpha = solve_malthusian(cfg).alpha
    tracemalloc.start()
    try:
        estimate_W(cfg, 1, 8.0 / alpha, alpha, 2000, rng=stream(4, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# --------------------------------------------------------------------------
# settled subtrees
# --------------------------------------------------------------------------

@pytest.mark.parametrize("growing, last_birth, groups, settled", [
    # a lone open run with a birth in [T/2, T] is dropped
    ([True], [6.0], [0], [True]),
    # two positive runs of one group are both kept
    ([True, True], [6.0, 7.0], [0, 0], [False, False]),
    # a positive run is kept while a sibling is still growing
    ([True, True], [6.0, 2.0], [0, 0], [False, False]),
    # ...and dropped once its siblings have finished with W = 0
    ([True, False], [6.0, 2.0], [0, 0], [True, False]),
    ([True, False, False], [6.0, 0.0, 4.9], [1, 1, 1], [True, False, False]),
    # a finished positive run needs nothing, and an early birth settles nothing
    ([False, True], [6.0, 4.0], [0, 1], [False, False]),
    # groups are independent
    ([True, True, True, True], [6.0, 9.0, 8.0, 1.0], [0, 1, 1, 2], [True, False, False, False]),
])
def test_settle_rule_on_hand_made_generations(growing, last_birth, groups, settled):
    # horizon 10: a birth at or after 5 makes a run's W positive
    out = _settled(np.array(growing), np.array(last_birth), 10.0, np.array(groups))
    assert out.tolist() == settled


def test_settled_runs_stop_growing():
    # with every root its own group, a run stops at the first generation
    # with a birth in [T/2, T], so positive runs end far smaller than
    # when grown to T
    cfg = readme_config(100)
    roots = np.arange(200) % 2
    alone = _simulate_batch(cfg, roots, 8.0, 1_000_000, stream(5, "settle"),
                            groups=np.arange(200))
    full = _simulate_batch(cfg, roots, 8.0, 1_000_000, stream(5, "settle"))
    for sizes, last_birth, capped in (alone, full):
        assert not capped.any()
        positive = (sizes > 1) & (last_birth >= 4.0)
        assert 20 < positive.sum() < 200
    assert alone[0][alone[1] >= 4.0].sum() * 10 < full[0][full[1] >= 4.0].sum()


def test_w_batches_never_split_a_replicate(monkeypatch):
    # batches of a few roots run on to the end of their last replicate
    monkeypatch.setattr(infector.branching, "_PARTICLES", 1 << 8)
    cfg = readme_config(1000)
    calls = []

    def recorder(config, root_types0, *args, groups=None, **kwargs):
        calls.append((np.array(root_types0), groups))
        return _simulate_batch(config, root_types0, *args, groups=groups, **kwargs)

    monkeypatch.setattr(infector.branching, "_simulate_batch", recorder)
    estimate_rho_bp(cfg, 1, R=300, horizon=4.0, rng=stream(3, "split"))
    alpha = solve_malthusian(cfg).alpha
    batch = max(1, int((1 << 8) * math.exp(-alpha * 4.0)))
    groups = [g for _, g in calls]
    assert len(groups) > 10 and all(len(r) == len(g) for r, g in calls)
    assert all(len(g) >= batch for g in groups[:-1])
    assert np.all(np.diff(np.concatenate(groups)) >= 0)
    assert all(a[-1] < b[0] for a, b in zip(groups, groups[1:]))


@pytest.mark.parametrize("name, j, R, horizon", [("readme", 1, 2000, 8.0),
                                                  ("marked", 2, 2000, 5.5)])
def test_settle_rule_agrees_with_full_growth(monkeypatch, name, j, R, horizon):
    # settling is exact in law: a replicate with one positive subtree has
    # share 1 for that subtree's type whatever its size.  Growing every
    # subtree to T (groups forced to None) must agree within 4 sigma.
    # Both horizons are about 7/alpha.
    cfg = {"readme": readme_config(1000),
           "marked": marked_config(100, 0.4, 3.0, 2.0, seed=5)}[name]
    settled = estimate_rho_bp(cfg, j, R, horizon=horizon, rng=stream(28, name, "settled"))

    def ungrouped(*args, groups=None, **kwargs):
        return _simulate_batch(*args, **kwargs)

    monkeypatch.setattr(infector.branching, "_simulate_batch", ungrouped)
    full = estimate_rho_bp(cfg, j, R, horizon=horizon, rng=stream(28, name, "full"))
    for i in range(cfg.k):
        assert abs(settled[0][i] - full[0][i]) < 4 * math.hypot(settled[1][i], full[1][i])


# --------------------------------------------------------------------------
# survival
# --------------------------------------------------------------------------

def test_survival_single_type_fixed_point():
    # survival of a rate-2 single-type process is 1 - q with q = q e^{2(q-1)}
    surv = survival_probability(single_type_config(n=10, rate=2.0), 1)
    q = 1.0 - surv
    assert 0.0 < q < 1.0
    assert abs(q - math.exp(2.0 * (q - 1.0))) < 1e-10


def test_survival_subcritical_rejected():
    with pytest.raises(DomainError):
        survival_probability(single_type_config(n=10, rate=0.9), 1)


def test_extinction_frequency_matches_survival():
    cfg = marked_config(100, 0.4, 3.0, 2.0, seed=5)
    R = 3000
    for j in (1, 2):
        target = 1.0 - survival_probability(cfg, j)
        freq = extinction_frequency(cfg, j, R, horizon=18.0, rng=stream(5, "ext", j))
        se = math.sqrt(target * (1.0 - target) / R)
        assert abs(freq - target) < 3 * se + 0.005


def test_extinction_frequency_value_pinned():
    # recorded with the Poisson-splitting generation step and ages drawn
    # through ContactAgeLaw.sample: the default stream and the draw order
    # must not change
    cfg = marked_config(100, 0.4, 3.0, 2.0, seed=5)
    assert extinction_frequency(cfg, 2, 500, horizon=8.0) == 0.144


# --------------------------------------------------------------------------
# attribution estimates
# --------------------------------------------------------------------------

def test_rho_bp_single_type_is_one():
    cfg = single_type_config(n=10, rate=2.0)
    rho, stderr = estimate_rho_bp(cfg, 1, R=1500, horizon=9.0, rng=stream(3, "r1"))
    assert rho.shape == (1,)
    assert abs(rho[0] - 1.0) < 3 * stderr[0] + 0.01


def test_rho_bp_symmetric_half_half():
    cfg = symmetric_marked_config(n=100, m_tilde=2.0)
    rho, stderr = estimate_rho_bp(cfg, 1, R=1500, horizon=9.0, rng=stream(9, "r2"))
    for i in range(2):
        assert abs(rho[i] - 0.5) < 3 * stderr[i] + 0.01


def test_rho_bp_contrib_rows_sum_to_indicator():
    cfg = symmetric_marked_config(n=100, m_tilde=2.0)
    _, _, contrib = estimate_rho_bp(cfg, 1, R=300, horizon=8.0,
                                    rng=stream(11, "r3"), details=True)
    sums = contrib.sum(axis=1)
    dead = sums == 0.0
    assert np.allclose(sums[~dead], 1.0, atol=1e-12)
    assert (contrib >= 0.0).all()


def test_rho_bp_deterministic():
    cfg = marked_config(100, 0.4, 3.0, 2.0, seed=21)
    a = estimate_rho_bp(cfg, 2, R=200, horizon=6.0)
    b = estimate_rho_bp(cfg, 2, R=200, horizon=6.0)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_rho_bp_single_replicate_has_nan_stderr():
    # one sample has no standard error: NaN, as in forward.aggregate_rho,
    # and no numpy warning
    cfg = symmetric_marked_config(n=400, m_tilde=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, stderr = estimate_rho_bp(cfg, 1, R=1, horizon=6.0, rng=stream(1, "one"))
    assert np.isfinite(rho).all()
    assert np.isnan(stderr).all()


def test_rho_bp_bad_arguments():
    cfg = single_type_config(n=10, rate=2.0)
    with pytest.raises(DomainError):
        estimate_rho_bp(cfg, 1, R=0)
    with pytest.raises(DomainError):
        estimate_rho_bp(cfg, 2, R=10)


def test_rho_bp_cap_exceeded():
    cfg = single_type_config(n=10, rate=2.0)
    with pytest.raises(CapExceededError):
        estimate_rho_bp(cfg, 1, R=50, horizon=20.0, cap=10, rng=stream(13, "r4"))


def test_rho_bp_cap_message_names_cap_and_horizon():
    cfg = single_type_config(n=10, rate=2.0)
    with pytest.raises(CapExceededError, match=r"cap 10 passed at horizon 20 after \d+ of \d+"):
        estimate_rho_bp(cfg, 1, R=50, horizon=20.0, cap=10, rng=stream(13, "r4"))


def test_rho_bp_default_horizon_fails_fast():
    # at the default 12/alpha a few roots fill a batch, so the first
    # subtree past the cap stops the run: whole batches of 4,000 roots
    # grew in lockstep to 2.8 GB first
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="cap 1000000 passed at horizon 14.33"):
            estimate_rho_bp(readme_config(1000), 1, R=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
