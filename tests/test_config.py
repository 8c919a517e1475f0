import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from infector.analytic import is_irreducible
from infector.config import (
    Duration,
    ExtremalTwoType,
    MarkedSingleProcess,
    MarkovSEIR,
    ModelConfig,
    PopulationSpec,
    config_from_dict,
    config_to_dict,
    eta_cdf,
    load_config,
    mean_matrix,
    resolve_initial,
    validate_config,
)
from infector.errors import ConfigError, DomainError
from infector.graph import draw_out_edges
from infector.rng import stream

from conftest import (
    extremal_config,
    marked_config,
    readme_config,
    single_type_config,
    symmetric_marked_config,
)


def _contact_lists(cfg, rng, size, i0=0):
    """Edges of ``size`` type-(i0+1) contact lists: tail slots, 0-based head types, ages."""
    tails, heads, weights = [], [], []
    draw_out_edges(cfg, rng, i0, np.arange(size), tails, heads, weights)
    join = lambda blocks: np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return join(tails), cfg.population.type_of(join(heads)), join(weights)


# --------------------------------------------------------------------------
# durations
# --------------------------------------------------------------------------

DURATIONS = [
    Duration.constant(1.3),
    Duration.exponential(0.7),
    Duration.gamma(2.5, 1.8),
]


@pytest.mark.parametrize("d", DURATIONS)
def test_duration_laplace_matches_quadrature(d):
    for x in (0.0, 0.3, 2.0):
        if d.kind == "constant":
            oracle = math.exp(-x * d.value)
        else:
            oracle, _ = integrate.quad(
                lambda t: math.exp(-x * t) * d.pdf(t), 0, np.inf
            )
        assert d.laplace(x) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("d", DURATIONS)
def test_duration_mean_min_matches_quadrature(d):
    for u in (0.2, 1.0, 5.0):
        oracle, _ = integrate.quad(lambda t: 1.0 - d.cdf(t), 0, u)
        assert d.mean_min(u) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("d", DURATIONS)
def test_duration_sampling_moments(d, rng):
    x = d.sample(rng, size=200_000)
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - d.mean()) < 4 * se + 1e-12


@pytest.mark.parametrize("d", DURATIONS)
def test_size_biased_sampling_mean(d, rng):
    # length-biased mean is E[T^2] / E[T]
    target = d.value if d.kind == "constant" else (d.shape + 1.0) / d.rate
    x = d.sample_size_biased(rng, size=200_000)
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - target) < 4 * se + 1e-12


@pytest.mark.parametrize("d", [
    Duration.constant(1.3),
    Duration.exponential(0.7),
    Duration.gamma(2.0, 1.8),
    Duration.gamma(3.0, 0.6),
    Duration.gamma(1.5, 0.8),
    Duration.gamma(4.0, 2.5),
], ids=["constant", "exponential", "gamma-2", "gamma-3", "gamma-1.5", "gamma-4"])
def test_sample_excess_matches_excess_cdf(d):
    # the stationary excess has CDF E[min(T, a)] / E[T]; shapes 1.5 and 4
    # and the constant take the length-biased-times-uniform path, the
    # others their closed forms; 2e5 draws against it at 5 sigma
    size = 200_000
    x = d.sample_excess(stream(8, "excess", repr(d)), size=size)
    assert x.shape == (size,) and (x >= 0).all()
    for c in (0.05, 0.2, 0.5, 0.9, 1.5, 3.0):
        a = c * d.mean()
        f = d.mean_min(a) / d.mean()
        sigma = math.sqrt(f * (1.0 - f) / size)
        assert abs((x <= a).mean() - f) <= 5 * sigma, c


@pytest.mark.parametrize("shape", [2.0, 3.0])
def test_sample_excess_without_size_is_a_scalar(shape):
    # the shape-2 and shape-3 draw works on arrays; size=None still gives one number
    d = Duration.gamma(shape, 0.7)
    rng = stream(8, "excess-scalar", shape)
    for _ in range(50):
        x = d.sample_excess(rng)
        assert np.ndim(x) == 0 and np.isfinite(x) and x >= 0


@given(rate=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_exponential_is_gamma_shape_one(rate):
    # same draws, bit for bit, from streams built from the same seed
    exp, gam = Duration.exponential(rate), Duration.gamma(1.0, rate)
    assert exp.kind == "exponential" and exp.shape == 1.0
    for method in ("sample", "sample_size_biased", "sample_excess"):
        a, b = stream(5, method), stream(5, method)
        for size in (None, 1000):
            x, y = getattr(exp, method)(a, size=size), getattr(gam, method)(b, size=size)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    assert exp.mean() == gam.mean() == 1.0 / rate
    for x in (0.0, 0.3, 2.0, 1e6):
        assert exp.laplace(x) == gam.laplace(x) == rate / (rate + x)


def test_exponential_round_trips_as_exponential():
    d = config_to_dict(single_type_config(infectious=Duration.exponential(0.7)))
    assert d["kernel"]["infectious"] == [{"kind": "exponential", "rate": 0.7}]
    (again,) = config_from_dict(json.loads(json.dumps(d))).kernel.infectious
    assert again == Duration.exponential(0.7) and again.shape == 1.0


def test_duration_validation():
    with pytest.raises(ConfigError):
        Duration.exponential(0.0)
    with pytest.raises(ConfigError):
        Duration.gamma(-1.0, 1.0)
    with pytest.raises(ConfigError):
        Duration("weibull", value=1.0)


# --------------------------------------------------------------------------
# population
# --------------------------------------------------------------------------

def test_population_type_lookup():
    pop = PopulationSpec(n=10, counts=[3, 7], proportions=[0.3, 0.7])
    assert pop.type_of(0) == 0
    assert pop.type_of(2) == 0
    assert pop.type_of(3) == 1
    assert pop.type_of(9) == 1
    assert np.array_equal(pop.vertices_of_type(0), [0, 1, 2])
    assert np.array_equal(pop.type_array(), [0, 0, 0] + [1] * 7)


@pytest.mark.parametrize("j", [True, np.True_])
def test_population_type_index_refuses_bools(j):
    # a bool is an int subclass, so True once passed as type 1
    pop = PopulationSpec(n=10, counts=[3, 7], proportions=[0.3, 0.7])
    with pytest.raises(DomainError):
        pop.type_index(j)


@pytest.mark.parametrize("v", [0, 9, np.int64(4), np.uint8(9)])
def test_population_vertex_id_accepts_integers(v):
    pop = PopulationSpec(n=10, counts=[3, 7], proportions=[0.3, 0.7])
    assert pop.vertex_id(v, "root") == int(v) and type(pop.vertex_id(v, "root")) is int


@pytest.mark.parametrize("v", [True, False, np.True_, -1, 10, 2**70, 1.0, 1.5, "1", None])
def test_population_vertex_id_refuses_non_ids(v):
    # a bool is an int subclass, so True once passed as vertex 1
    pop = PopulationSpec(n=10, counts=[3, 7], proportions=[0.3, 0.7])
    with pytest.raises(DomainError, match=rf"^seed {v!r} is not a vertex id in 0\.\.9$"):
        pop.vertex_id(v, "seed")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_single_type_markov_sir():
    cfg = single_type_config(n=100, rate=2.0)
    assert validate_config(cfg) == []


def test_validate_reducible_rates():
    pop = PopulationSpec(n=100, counts=[50, 50], proportions=[0.5, 0.5])
    kern = MarkovSEIR(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.exponential(1.0)] * 2,
        contact_rates=[[2.0, 0.0], [0.0, 2.0]],
    )
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,))
    report = validate_config(cfg)
    assert any("irreducib" in str(v) for v in report)


def test_validate_proportion_tolerance_boundary():
    pop = PopulationSpec(n=100, counts=[31, 69], proportions=[0.3, 0.7])
    kern = MarkedSingleProcess(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.exponential(1.0)] * 2,
        total_rates=[2.0, 2.0],
    )
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,))
    assert validate_config(cfg) == []


def test_validate_proportion_drift_rejected():
    pop = PopulationSpec(n=100, counts=[35, 65], proportions=[0.3, 0.7])
    kern = MarkedSingleProcess(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.exponential(1.0)] * 2,
        total_rates=[2.0, 2.0],
    )
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,))
    assert any("proportion" in str(v) for v in validate_config(cfg))


def test_validate_seed_budget():
    cfg = single_type_config(n=100)
    big = ModelConfig(
        population=cfg.population,
        kernel=cfg.kernel,
        initial_infecteds=tuple(range(50)),
    )
    assert any("initial" in str(v) for v in validate_config(big))


@pytest.mark.parametrize("rate", [2.0**31, 1e308])
def test_validate_rejects_huge_contact_rates(rate):
    # finite, but over the bound; 1e308 is also beyond numpy's Poisson sampler
    report = validate_config(single_type_config(n=100, rate=rate))
    assert [v.assumption for v in report] == ["finite-means"]
    assert "2**30" in str(report[0])


def test_validate_reports_overflowing_contact_counts():
    # rate * p * E[infectious] = 1e308 * 2 overflows: reported, not warned
    cfg = single_type_config(n=100, rate=1e308, infectious=Duration.exponential(0.5))
    report = validate_config(cfg)
    assert [v.assumption for v in report] == ["finite-means"]
    assert "not finite" in str(report[0])


def test_validate_accepts_contact_counts_up_to_bound():
    assert validate_config(single_type_config(n=100, rate=2.0**30)) == []


def test_validate_is_pure():
    cfg = single_type_config(n=100)
    assert validate_config(cfg) == validate_config(cfg)


def test_resolve_initial_per_type():
    pop = PopulationSpec(n=10, counts=[4, 6], proportions=[0.4, 0.6])
    assert resolve_initial(pop, {"per_type": [[2, 1], [1, 2]]}) == (0, 1, 4)
    assert resolve_initial(pop, {"vertices": [3, 7]}) == (3, 7)
    with pytest.raises(ConfigError):
        resolve_initial(pop, {"per_type": [[5, 1]]})
    with pytest.raises(ConfigError):
        resolve_initial(pop, {"per_type": [[-1, 1]]})


@pytest.mark.parametrize("spec, field", [
    ({"vertices": [0.9]}, "initial_infecteds.vertices"),
    ({"vertices": ["1"]}, "initial_infecteds.vertices"),
    ([2.5], "initial_infecteds"),
    ({"per_type": [[1.5, 1]]}, "initial_infecteds.per_type count"),
])
def test_resolve_initial_rejects_non_integers(spec, field):
    pop = PopulationSpec(n=10, counts=[4, 6], proportions=[0.4, 0.6])
    with pytest.raises(ConfigError, match=field):
        resolve_initial(pop, spec)


@pytest.mark.parametrize("spec", [[0, 1], [[1, 1]], [], "0", 0])
def test_resolve_initial_refuses_bare_lists(spec):
    # only the two documented forms: {"vertices": [...]} and {"per_type": [...]}
    pop = PopulationSpec(n=10, counts=[4, 6], proportions=[0.4, 0.6])
    with pytest.raises(ConfigError, match="initial_infecteds must be"):
        resolve_initial(pop, spec)
    d = config_to_dict(single_type_config(n=10))
    d["initial_infecteds"] = spec
    with pytest.raises(ConfigError, match="initial_infecteds"):
        config_from_dict(d)


@pytest.mark.parametrize("ids", [(2.7,), (0, 0.5), (True,), (np.True_,), ("1",)])
def test_model_config_refuses_non_integer_initial_infecteds(ids):
    # int() once truncated 2.7 to vertex 2, and validate_config saw nothing
    cfg = single_type_config(n=10)
    with pytest.raises(ConfigError, match="initial_infecteds must be a 64-bit integer"):
        dataclasses.replace(cfg, initial_infecteds=ids)


def test_model_config_keeps_integral_initial_infecteds():
    cfg = dataclasses.replace(single_type_config(n=10), initial_infecteds=(2.0, np.int64(3)))
    assert cfg.initial_infecteds == (2, 3)
    assert all(type(v) is int for v in cfg.initial_infecteds)


def test_non_integer_population_counts_rejected():
    d = config_to_dict(single_type_config(n=100))
    d["population"]["counts"] = [99.5]
    with pytest.raises(ConfigError, match="population.counts"):
        config_from_dict(d)
    d["population"]["counts"] = [100.0]
    assert config_from_dict(d).population.counts.tolist() == [100]


# --------------------------------------------------------------------------
# mean matrix
# --------------------------------------------------------------------------

def test_mean_matrix_marked():
    cfg = symmetric_marked_config(m_tilde=2.0)
    assert np.allclose(mean_matrix(cfg), np.ones((2, 2)))


def test_mean_matrix_single_type():
    cfg = single_type_config(rate=2.0)
    assert mean_matrix(cfg)[0, 0] == pytest.approx(2.0)


def test_mean_matrix_seir_monte_carlo(rng):
    # m_12 = p_2 * lambda_12 * E[iota_1] = 0.4 * 3 * 0.5 = 0.6
    pop = PopulationSpec(n=1000, counts=[600, 400], proportions=[0.6, 0.4])
    kern = MarkovSEIR(
        latent=[Duration.constant(1.0)] * 2,
        infectious=[Duration.exponential(2.0)] * 2,
        contact_rates=[[1.0, 3.0], [1.0, 1.0]],
    )
    cfg = ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,))
    assert mean_matrix(cfg)[0, 1] == pytest.approx(0.6, abs=1e-12)
    tails, head_types, _ = _contact_lists(cfg, rng, 200_000)
    counts = np.bincount(tails[head_types == 1], minlength=200_000)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 0.6) < 3 * se


def test_mean_matrix_marked_ratio_identity():
    cfg = marked_config(1000, 0.3, 2.0, 1.5)
    m = mean_matrix(cfg)
    p = cfg.population.proportions
    assert m[0, 0] / p[0] == pytest.approx(m[0, 1] / p[1], abs=1e-14)
    assert m[1, 0] / p[0] == pytest.approx(m[1, 1] / p[1], abs=1e-14)


def test_mean_matrix_irreducibility_pattern():
    assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]))


# --------------------------------------------------------------------------
# contact-process sampling
# --------------------------------------------------------------------------

def test_sample_contact_process_zero_rate(rng):
    cfg = single_type_config(rate=0.0)
    tails, heads, weights = [], [], []
    draw_out_edges(cfg, rng, 0, np.arange(1000), tails, heads, weights)
    assert tails == heads == weights == []


def test_sample_contact_process_mean_length(rng):
    cfg = single_type_config(rate=2.0)
    tails, _, _ = _contact_lists(cfg, rng, 100_000)
    lens = np.bincount(tails, minlength=100_000)
    se = lens.std(ddof=1) / math.sqrt(len(lens))
    assert abs(lens.mean() - 2.0) < 3 * se


def test_sample_contact_process_latent_support(rng):
    cfg = single_type_config(rate=3.0, latent=Duration.constant(1.0))
    _, _, ages = _contact_lists(cfg, rng, 200)
    assert len(ages) > 0 and (ages >= 1.0).all()


# --------------------------------------------------------------------------
# edge-age distribution
# --------------------------------------------------------------------------

def test_eta_cdf_markov_sir_closed_form():
    cfg = single_type_config(rate=2.0, infectious=Duration.exponential(1.0))
    assert eta_cdf(cfg, 1, 1, 0.0) == 0.0
    assert eta_cdf(cfg, 1, 1, math.log(2.0)) == pytest.approx(0.5, abs=1e-10)
    assert eta_cdf(cfg, 1, 1, 50.0) == pytest.approx(1.0, abs=1e-10)


def test_eta_cdf_is_valid_cdf():
    cfg = single_type_config(
        rate=2.0,
        latent=Duration.gamma(2.0, 3.0),
        infectious=Duration.gamma(1.5, 0.8),
    )
    grid = np.linspace(0.0, 40.0, 1000)
    vals = np.array([eta_cdf(cfg, 1, 1, t) for t in grid])
    assert (np.diff(vals) >= -1e-12).all()
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)


def test_eta_cdf_matches_sampled_ages(rng):
    # CDF oracle: empirical distribution of latent + iota * U ages weighted
    # by the contact count, i.e. ages of sampled contact points
    cfg = single_type_config(
        rate=2.0,
        latent=Duration.exponential(2.0),
        infectious=Duration.gamma(2.0, 2.0),
    )
    _, _, ages = _contact_lists(cfg, rng, 20_000)
    for t in (0.5, 1.0, 2.0, 4.0):
        emp = (ages <= t).mean()
        se = math.sqrt(emp * (1 - emp) / len(ages))
        assert abs(eta_cdf(cfg, 1, 1, t) - emp) < 5 * se + 1e-3


def test_eta_cdf_extremal_rejected(rng):
    # the fast-pair weights lie in (0, n^-2), so at n = 1e4 their
    # empirical CDF at 1e-8 is 1, not the base kernel's 1e-8
    cfg = extremal_config(n=10_000)
    _, head_types, ages = _contact_lists(cfg, rng, 1000)
    fast = ages[head_types == 0]
    assert len(fast) > 0 and (fast < 1e-8).all()
    with pytest.raises(DomainError, match="extremal"):
        eta_cdf(cfg, 1, 1, 1e-8)


def test_eta_cdf_nan_rejected_infinities_are_limits():
    cfg = readme_config(1000)
    for i in (1, 2):  # constant, then exponential latent period
        with pytest.raises(DomainError, match="nan"):
            eta_cdf(cfg, i, 1, float("nan"))
        with pytest.raises(DomainError, match="nan"):
            cfg.kernel.contact_age(i - 1).cdf(float("nan"))
        assert eta_cdf(cfg, i, 1, -1.0) == eta_cdf(cfg, i, 1, -math.inf) == 0.0
        assert eta_cdf(cfg, i, 1, math.inf) == 1.0


@pytest.mark.parametrize("cfg", [
    readme_config(10_000),
    single_type_config(latent=Duration.gamma(2.0, 3.0), infectious=Duration.gamma(1.5, 0.8)),
], ids=["readme", "gamma-latent"])
def test_eta_cdf_stays_at_one_for_large_ages(cfg):
    # a random latent period's mass near 0 must not drop out of the
    # quadrature at large t (the README type 2 once gave 2.9e-92 at 1e5)
    i = cfg.k
    vals = [eta_cdf(cfg, i, 1, t) for t in (10.0, 100.0, 1e3, 1e4, 1e5)]
    assert (np.diff(vals) >= -1e-12).all()
    assert all(abs(v - 1.0) <= 1e-12 for v in vals[2:])


def test_eta_cdf_zero_mean_rejected():
    cfg = single_type_config(rate=0.0)
    with pytest.raises(DomainError):
        eta_cdf(cfg, 1, 1, 1.0)


# --------------------------------------------------------------------------
# JSON round trip
# --------------------------------------------------------------------------

def test_json_round_trip(tmp_path):
    cfg = marked_config(1000, 0.3, 2.0, 1.5, seed=99)
    d = config_to_dict(cfg)
    again = config_from_dict(json.loads(json.dumps(d)))
    assert config_to_dict(again) == d
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    loaded = load_config(path)
    assert loaded.seed == 99
    assert loaded.initial_infecteds == cfg.initial_infecteds


def test_extremal_json_round_trip_and_base_variants():
    # the kernel is itself a marked kernel, but its JSON base must be a plain one
    d = config_to_dict(extremal_config(1000, fast_pair=(2, 1)))
    again = config_from_dict(json.loads(json.dumps(d)))
    assert config_to_dict(again) == d and again.kernel.fast_pair == (2, 1)
    assert isinstance(again.kernel, MarkedSingleProcess)
    for base in (config_to_dict(readme_config(1000))["kernel"], d["kernel"]):
        bad = json.loads(json.dumps(d))
        bad["kernel"]["base"] = base
        with pytest.raises(ConfigError, match="base must be a marked_single kernel"):
            config_from_dict(bad)


def test_json_missing_field_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"population": {"n": 10}})


def test_json_seed_defaults_to_zero():
    d = config_to_dict(single_type_config())
    del d["seed"]
    assert config_from_dict(d).seed == 0


@given(
    p1=st.floats(min_value=0.1, max_value=0.9),
    m1=st.floats(min_value=0.1, max_value=5.0),
    m2=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
@settings(max_examples=30, deadline=None)
def test_json_round_trip_property(p1, m1, m2, seed):
    cfg = marked_config(1000, p1, m1, m2, seed=seed)
    d = config_to_dict(cfg)
    assert config_to_dict(config_from_dict(d)) == d


# --------------------------------------------------------------------------
# refusals no other test reaches
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["weibull", "Constant", 3])
def test_unknown_duration_kind_refused(kind):
    d = config_to_dict(single_type_config(n=10))
    d["kernel"]["infectious"][0] = {"kind": kind, "rate": 1.0}
    with pytest.raises(ConfigError, match=f"unknown duration kind {kind!r}"):
        config_from_dict(d)
    with pytest.raises(ConfigError, match=f"unknown duration kind {kind!r}"):
        Duration(kind)


def test_constant_duration_has_no_density():
    with pytest.raises(DomainError, match="no density"):
        Duration.constant(1.0).pdf(0.5)


@pytest.mark.parametrize("d", [Duration.constant(1.0), Duration.gamma(2.0, 3.0)])
def test_duration_mean_min_is_zero_at_nonpositive_u(d):
    assert d.mean_min(0.0) == 0.0 and d.mean_min(-1.0) == 0.0


def test_markov_seir_refuses_wrongly_shaped_rates():
    periods = [Duration.constant(0.0)] * 2
    for rates in ([[1.0, 2.0]], [[1.0]], [[1.0, 2.0, 3.0]] * 2):
        with pytest.raises(ConfigError, match="K x K"):
            MarkovSEIR(periods, [Duration.exponential(1.0)] * 2, rates)


def test_extremal_kernel_needs_two_types():
    periods = [Duration.constant(0.0)] * 3
    with pytest.raises(ConfigError, match="exactly two types"):
        ExtremalTwoType(periods, [Duration.exponential(1.0)] * 3, [2.0] * 3, (1, 1))


def test_validate_config_reports_kernel_type_count():
    cfg = symmetric_marked_config(n=100)
    one_type = single_type_config(n=100).kernel
    violations = validate_config(dataclasses.replace(cfg, kernel=one_type))
    assert [v.assumption for v in violations] == ["kernel"]
    assert "kernel has 1 types, population has 2" in str(violations[0])


def test_mean_matrix_refuses_infinite_rates():
    cfg = single_type_config(n=10, rate=math.inf)
    with pytest.raises(ConfigError, match="nonfinite"):
        mean_matrix(cfg)
