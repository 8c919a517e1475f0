import json

import numpy as np
import pytest

from infector.config import (
    Duration,
    ExtremalTwoType,
    MarkedSingleProcess,
    MarkovSEIR,
    ModelConfig,
    PopulationSpec,
    config_from_dict,
)

# The README scenario; tests change only the population size.
README_SCENARIO = {
    "population": {"n": 10000, "counts": [5000, 5000], "proportions": [0.5, 0.5]},
    "kernel": {
        "variant": "markov_seir",
        "latent": [{"kind": "constant", "value": 0.0},
                   {"kind": "exponential", "rate": 2.0}],
        "infectious": [{"kind": "exponential", "rate": 1.0},
                       {"kind": "gamma", "shape": 2.0, "rate": 2.0}],
        "contact_rates": [[3.0, 1.5], [1.0, 2.5]],
    },
    "initial_infecteds": {"vertices": [0]},
    "seed": 11,
}


def readme_scenario(n):
    """The README scenario as a JSON-ready dict, at population size n."""
    scenario = json.loads(json.dumps(README_SCENARIO))
    scenario["population"].update(n=n, counts=[n // 2, n - n // 2])
    return scenario


def readme_config(n):
    return config_from_dict(readme_scenario(n))


def single_type_config(n=1000, rate=2.0, seed=0, latent=None, infectious=None):
    """One-type model with R0 = rate (unit-mean infectious period)."""
    pop = PopulationSpec(n=n, counts=[n], proportions=[1.0])
    kern = MarkovSEIR(
        latent=[latent or Duration.constant(0.0)],
        infectious=[infectious or Duration.exponential(1.0)],
        contact_rates=[[rate]],
    )
    return ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,), seed=seed)


def symmetric_marked_config(n=2000, m_tilde=2.0, seed=0):
    """Two-type marked model, p1 = p2 = 1/2, both total means m_tilde."""
    half = n // 2
    pop = PopulationSpec(n=n, counts=[half, n - half], proportions=[0.5, 0.5])
    kern = MarkedSingleProcess(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.exponential(1.0)] * 2,
        total_rates=[m_tilde, m_tilde],
    )
    return ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,), seed=seed)


def marked_config(n, p1, m1_tilde, m2_tilde, seed=0):
    n1 = int(round(n * p1))
    pop = PopulationSpec(n=n, counts=[n1, n - n1], proportions=[p1, 1.0 - p1])
    kern = MarkedSingleProcess(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.exponential(1.0)] * 2,
        total_rates=[m1_tilde, m2_tilde],
    )
    return ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,), seed=seed)


def asymmetric_seir_config(n=20000, seed=0):
    """Two-type Markov SEIR with unequal proportions, rates and periods."""
    n1 = int(round(n * 0.3))
    pop = PopulationSpec(n=n, counts=[n1, n - n1], proportions=[0.3, 0.7])
    kern = MarkovSEIR(
        latent=[Duration.exponential(2.0), Duration.constant(0.5)],
        infectious=[Duration.exponential(1.0), Duration.gamma(2.0, 2.0)],
        contact_rates=[[3.0, 1.5], [1.0, 2.5]],
    )
    # one seed of each type: lowest id per type block
    return ModelConfig(
        population=pop, kernel=kern, initial_infecteds=(0, n1), seed=seed
    )


def extremal_config(n=10000, m_tilde=2.0, fast_pair=(1, 1), seed=0):
    half = n // 2
    pop = PopulationSpec(n=n, counts=[half, n - half], proportions=[0.5, 0.5])
    base = MarkedSingleProcess(
        latent=[Duration.constant(0.0)] * 2,
        infectious=[Duration.exponential(1.0)] * 2,
        total_rates=[m_tilde, m_tilde],
    )
    kern = ExtremalTwoType(base.latent, base.infectious, base.total_rates, fast_pair)
    return ModelConfig(population=pop, kernel=kern, initial_infecteds=(0,), seed=seed)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
