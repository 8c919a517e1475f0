"""Scenario configuration: populations, contact kernels and their moments.

A scenario is a population split into K types plus a contact kernel
describing how an infected individual of type i generates typed, timed
contacts.  Each kernel owns both of its laws: forward, the window
``contact_window`` in which a tail's contacts toward a head type fall
uniformly; backward, the contact-age law ``contact_age`` of a type.
Three kernel variants are supported:

* ``MarkovSEIR`` -- per-type latent/infectious periods and a K x K
  contact-rate matrix; the rate toward a *given* individual of type j is
  ``proportions[j] * contact_rates[i][j]`` while infectious.
* ``MarkedSingleProcess`` -- one contact process per type with total rate
  ``total_rates[i]``; each contact is independently marked type j with
  probability ``proportions[j]``.
* ``ExtremalTwoType`` -- a two-type marked process whose realized edge
  weights are replaced by micro-interval uniforms so that one ordered
  type pair always wins the shortest-path race.  Its weights depend on
  n, so it refuses the backward law.

Type indices in the public API are 1-based (1..K); vertex ids are
0-based.  All configuration objects are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .analytic import is_irreducible
from .errors import ConfigError, DomainError

__all__ = [
    "Duration",
    "PopulationSpec",
    "MarkovSEIR",
    "MarkedSingleProcess",
    "ExtremalTwoType",
    "ContactAgeLaw",
    "ModelConfig",
    "Violation",
    "validate_config",
    "mean_matrix",
    "eta_cdf",
    "load_config",
    "config_from_dict",
    "config_to_dict",
]


# --------------------------------------------------------------------------
# duration menu
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Duration:
    """A nonnegative duration distribution: constant, exponential or gamma."""

    kind: str  # "constant" | "exponential" | "gamma"
    value: float = 0.0  # constant value
    rate: float = 0.0
    shape: float = 0.0

    @staticmethod
    def constant(value: float) -> "Duration":
        return Duration("constant", value=float(value))

    @staticmethod
    def exponential(rate: float) -> "Duration":
        return Duration("exponential", rate=float(rate))

    @staticmethod
    def gamma(shape: float, rate: float) -> "Duration":
        return Duration("gamma", shape=float(shape), rate=float(rate))

    def __post_init__(self):
        if self.kind not in ("constant", "exponential", "gamma"):
            raise ConfigError(f"unknown duration kind {self.kind!r}")
        if self.kind == "constant" and not (self.value >= 0 and np.isfinite(self.value)):
            raise ConfigError("constant duration must be finite and >= 0")
        if self.kind == "exponential" and not (self.rate > 0 and np.isfinite(self.rate)):
            raise ConfigError("exponential rate must be finite and > 0")
        if self.kind == "gamma" and not (
            self.rate > 0 and self.shape > 0 and np.isfinite(self.rate) and np.isfinite(self.shape)
        ):
            raise ConfigError("gamma shape and rate must be finite and > 0")

    def mean(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return 1.0 / self.rate
        return self.shape / self.rate

    def laplace(self, x: float) -> float:
        """E[exp(-x T)] for x >= 0."""
        if self.kind == "constant":
            return float(np.exp(-x * self.value))
        if self.kind == "exponential":
            return self.rate / (self.rate + x)
        return float((self.rate / (self.rate + x)) ** self.shape)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return (t >= self.value).astype(float)
        if self.kind == "exponential":
            return np.where(t > 0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)
        return self._gamma_cdf(self.shape, t)

    def _gamma_cdf(self, shape, t):
        from scipy.special import gammainc  # kept out of the CLI's import time

        # scipy.stats.gamma's arithmetic: x = t / scale, and 0 below the support
        return gammainc(shape, np.maximum(t / (1.0 / self.rate), 0.0))

    def pdf(self, t):
        if self.kind == "constant":
            raise DomainError("constant duration has no density")
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.where(t >= 0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)
        from scipy.special import gammaln, xlogy

        scale = 1.0 / self.rate
        x = t / scale
        with np.errstate(invalid="ignore"):
            x0 = np.maximum(x, 0.0)
            dens = np.exp(xlogy(self.shape - 1.0, x0) - x0 - gammaln(self.shape)) / scale
        return np.where(x < 0, 0.0, dens)

    def mean_min(self, u: float) -> float:
        """E[min(T, u)], the integrated survival function on [0, u]."""
        if u <= 0:
            return 0.0
        if self.kind == "constant":
            return min(self.value, u)
        if self.kind == "exponential":
            return float(-np.expm1(-self.rate * u) / self.rate)
        # E[min(X,u)] = u(1-F(u)) + (shape/rate) F_{shape+1}(u)
        tail = 1.0 - self._gamma_cdf(self.shape, u)
        body = (self.shape / self.rate) * self._gamma_cdf(self.shape + 1, u)
        return float(u * tail + body)

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "constant":
            return np.full(size, self.value) if size is not None else self.value
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size=size)
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def sample_size_biased(self, rng: np.random.Generator, size=None):
        """Sample from the length-biased law t f(t) / E[T].

        Closed form for the whole menu: constants are unchanged,
        exponential(r) becomes gamma(2, r), gamma(k, r) becomes
        gamma(k+1, r).
        """
        if self.kind == "constant":
            return np.full(size, self.value) if size is not None else self.value
        if self.kind == "exponential":
            return rng.gamma(2.0, 1.0 / self.rate, size=size)
        return rng.gamma(self.shape + 1.0, 1.0 / self.rate, size=size)


# --------------------------------------------------------------------------
# population
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationSpec:
    """Population split into K types.

    ``counts[i]`` vertices of type i+1 occupy the contiguous id range
    ``[boundaries[i], boundaries[i+1])``.
    """

    n: int
    counts: np.ndarray
    proportions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "proportions", np.asarray(self.proportions, dtype=float))
        if self.counts.ndim != 1 or self.proportions.shape != self.counts.shape:
            raise ConfigError("counts and proportions must be 1-d and equal length")
        object.__setattr__(self, "_boundaries", np.concatenate(([0], np.cumsum(self.counts))))

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries

    def type_index(self, j) -> int:
        """0-based index of a 1-based type j; DomainError unless j is an integer in 1..K."""
        if not (float(j).is_integer() and 1 <= j <= self.k):  # NaN fails is_integer
            raise DomainError(f"type {j} out of range 1..{self.k}")
        return int(j) - 1

    def type_of(self, v):
        """0-based type index of vertex id(s) v, O(log K) per query."""
        return np.searchsorted(self._boundaries, np.asarray(v), side="right") - 1

    def vertices_of_type(self, i0: int) -> np.ndarray:
        return np.arange(self._boundaries[i0], self._boundaries[i0 + 1], dtype=np.int64)

    def type_array(self) -> np.ndarray:
        return np.repeat(np.arange(self.k, dtype=np.int64), self.counts)


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactAgeLaw:
    """Backward contact-age law of one type: L + U * I* for latent period L,
    size-biased infectious period I* and U uniform on (0, 1)."""

    latent: Duration
    infectious: Duration

    def cdf(self, t: float) -> float:
        """E[length of (L, L + I) intersected with (0, t)] / E[I]."""
        if t <= 0:
            return 0.0
        lat, iota, t = self.latent, self.infectious, float(t)
        if lat.kind == "constant":
            return iota.mean_min(t - lat.value) / iota.mean()
        from scipy import integrate  # only user; keeps it out of the CLI's import time

        val, _ = integrate.quad(lambda l: lat.pdf(l) * iota.mean_min(t - l), 0.0, t, limit=200)
        return float(val) / iota.mean()

    def window_laplace(self, x: float) -> float:
        """Integral of e^(-x t) P(L < t < L + I) dt: E[I] at x = 0, unnormalized."""
        if x == 0.0:
            return self.infectious.mean()
        return self.latent.laplace(x) * (1.0 - self.infectious.laplace(x)) / x

    def draw(self, rng: np.random.Generator, size: int):
        """(biased, lat) of ``size`` ages lat + u * biased, drawn lat first, u after both.

        ``lat`` is a scalar for a constant latent period."""
        latent = self.latent
        lat = latent.value if latent.kind == "constant" else latent.sample(rng, size=size)
        return self.infectious.sample_size_biased(rng, size=size), lat


@dataclass(frozen=True)
class _PeriodKernel:
    """Per-type periods: a tail's contacts fall uniformly in its window (L, L + I)."""

    latent: tuple
    infectious: tuple

    def __post_init__(self):
        object.__setattr__(self, "latent", tuple(self.latent))
        object.__setattr__(self, "infectious", tuple(self.infectious))

    @property
    def k(self) -> int:
        return len(self.latent)

    def contact_window(self, n: int, i0: int, j0: int, lat, iota) -> tuple:
        """(start, length) per tail, from its drawn periods, of its type-j0 contacts' window."""
        return lat, iota

    def contact_age(self, i0: int) -> ContactAgeLaw:
        return ContactAgeLaw(self.latent[i0], self.infectious[i0])


@dataclass(frozen=True)
class MarkovSEIR(_PeriodKernel):
    """Per-type latent/infectious periods and a K x K contact-rate matrix."""

    contact_rates: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "contact_rates", np.asarray(self.contact_rates, dtype=float))
        if self.contact_rates.shape != (self.k, self.k) or len(self.infectious) != self.k:
            raise ConfigError("contact_rates must be K x K matching the period menus")

    def pair_rates(self) -> np.ndarray:
        return self.contact_rates


@dataclass(frozen=True)
class MarkedSingleProcess(_PeriodKernel):
    """One contact process per type, marks assigned i.i.d. by proportion."""

    total_rates: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "total_rates", np.asarray(self.total_rates, dtype=float))
        if self.total_rates.shape != (self.k,) or len(self.infectious) != self.k:
            raise ConfigError("total_rates must have one entry per type")

    def pair_rates(self) -> np.ndarray:
        return np.repeat(self.total_rates.reshape(self.k, 1), self.k, axis=1)


@dataclass(frozen=True)
class ExtremalTwoType:
    """Marked two-type process with degenerate edge-weight ordering.

    Edge weights for the ordered ``fast_pair`` (tail type, head type),
    1-based, are uniform on (0, n^-2); all other weights are uniform on
    (n^-1, n^-1 + n^-2).  Any path of short edges is then shorter than a
    single long edge, so shortest paths prefer the fast pair whenever a
    route through it exists.  Contact counts follow the base kernel.
    """

    base: MarkedSingleProcess
    fast_pair: tuple

    def __post_init__(self):
        if self.base.k != 2:
            raise ConfigError("ExtremalTwoType requires exactly two types")
        i, j = self.fast_pair
        if not (1 <= i <= 2 and 1 <= j <= 2):
            raise ConfigError("fast_pair entries must be 1 or 2")
        object.__setattr__(self, "fast_pair", (int(i), int(j)))

    @property
    def k(self) -> int:
        return 2

    @property
    def latent(self):
        return self.base.latent

    @property
    def infectious(self):
        return self.base.infectious

    def pair_rates(self) -> np.ndarray:
        return self.base.pair_rates()

    def contact_window(self, n: int, i0: int, j0: int, lat, iota) -> tuple:
        start = 0.0 if (i0 + 1, j0 + 1) == self.fast_pair else n**-1.0
        return np.full(len(lat), start), np.full(len(lat), n**-2.0)

    def contact_age(self, i0: int):
        raise DomainError("extremal_two_type has no backward contact-age law: "
                          "its edge weights depend on n, not on the base kernel's contact ages")


Kernel = Union[MarkovSEIR, MarkedSingleProcess, ExtremalTwoType]


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    population: PopulationSpec
    kernel: Kernel
    initial_infecteds: tuple  # resolved 0-based vertex ids
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "initial_infecteds", tuple(int(v) for v in self.initial_infecteds)
        )

    @property
    def k(self) -> int:
        return self.population.k

    @property
    def n(self) -> int:
        return self.population.n

    def v_init(self) -> np.ndarray:
        return np.asarray(self.initial_infecteds, dtype=np.int64)


def resolve_initial(population: PopulationSpec, spec) -> tuple:
    """Resolve an initial-infected spec to concrete vertex ids.

    Accepts an explicit vertex list or a list of (count, type) pairs
    (1-based types), in which case the lowest ids of each type are used.
    """
    if isinstance(spec, dict):
        if "vertices" in spec:
            return tuple(_integer(v, "initial_infecteds.vertices") for v in spec["vertices"])
        pairs = spec["per_type"]
    else:
        pairs = spec
        if pairs and not isinstance(pairs[0], (list, tuple)):
            return tuple(_integer(v, "initial_infecteds") for v in pairs)
    out = []
    for count, t in pairs:
        count = _integer(count, "initial_infecteds.per_type count")
        vs = population.vertices_of_type(population.type_index(t))
        if not 0 <= count <= len(vs):
            raise ConfigError(f"cannot seed {count} vertices of type {t}")
        out.extend(int(v) for v in vs[:count])
    return tuple(out)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    assumption: str
    message: str

    def __str__(self):
        return f"[{self.assumption}] {self.message}"


# Largest expected contact count a scenario may have: far below where the
# Perron root R0 overflows and numpy's Poisson sampler gives up.
_MAX_MEAN_CONTACTS = 2.0**30


def validate_config(config: ModelConfig) -> list:
    """Check a configuration against the model assumptions.

    Returns a list of :class:`Violation`; empty means valid.  Validation
    never raises.
    """
    report = []
    pop = config.population
    if pop.counts.sum() != pop.n:
        report.append(Violation("population", f"type counts sum to {pop.counts.sum()} != n={pop.n}"))
    if (pop.counts <= 0).any():
        report.append(Violation("population", "every type must have at least one vertex"))
    if (pop.proportions <= 0).any():
        report.append(Violation("positive-proportions", "all type proportions must be > 0"))
    drift = np.abs(pop.proportions - pop.counts / pop.n)
    if (drift > 1.0 / pop.n + 1e-12).any():
        worst = int(np.argmax(drift))
        report.append(
            Violation(
                "proportion-consistency",
                f"|p_{worst + 1} - n_{worst + 1}/n| = {drift[worst]:.3g} exceeds 1/n",
            )
        )

    kern = config.kernel
    if kern.k != pop.k:
        report.append(Violation("kernel", f"kernel has {kern.k} types, population has {pop.k}"))
    else:
        rates = kern.pair_rates()
        if not np.isfinite(rates).all() or (rates < 0).any():
            report.append(Violation("finite-means", "contact rates must be finite and >= 0"))
        else:
            with np.errstate(over="ignore"):  # an overflow is reported as not finite
                m = _mean_entries(config)
            if not np.isfinite(m).all():
                report.append(Violation("finite-means", "some expected contact count is not finite"))
            elif m.max() > _MAX_MEAN_CONTACTS:
                report.append(Violation("finite-means", f"some expected contact count exceeds "
                                        f"2**30: {m.max():.3g}"))
            elif not is_irreducible(m):
                report.append(
                    Violation("irreducibility", "positivity pattern of the mean matrix is reducible")
                )

    v_init = config.v_init()
    if len(v_init) < 1:
        report.append(Violation("initial-set", "at least one initially infected vertex required"))
    else:
        limit = max(10, int(np.log(max(pop.n, 2))))
        if len(v_init) > limit:
            report.append(
                Violation("initial-set", f"{len(v_init)} seeds exceeds the O(1) budget of {limit}")
            )
        if (v_init < 0).any() or (v_init >= pop.n).any():
            report.append(Violation("initial-set", "seed vertex id out of range"))
    return report


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------

def _mean_entries(config: ModelConfig) -> np.ndarray:
    kern = config.kernel
    p = config.population.proportions
    iota_means = np.array([d.mean() for d in kern.infectious])
    return kern.pair_rates() * p[None, :] * iota_means[:, None]


def mean_matrix(config: ModelConfig) -> np.ndarray:
    """Expected contact counts m[i][j] = p_j * rate_ij * E[infectious_i]."""
    m = _mean_entries(config)
    if not np.isfinite(m).all():
        raise ConfigError("mean matrix has nonfinite entries")
    return m


def eta_cdf(config: ModelConfig, i: int, j: int, t: float) -> float:
    """CDF of the conditional edge-weight law for tail type i, head type j.

    Equals the expected number of (i -> j) contacts by age t divided by
    the total expected number: the tail's contact-age law, independent
    of population size.  The ``ExtremalTwoType`` kernel has none.
    """
    i0, j0 = config.population.type_index(i), config.population.type_index(j)
    law = config.kernel.contact_age(i0)
    if _mean_entries(config)[i0, j0] <= 0:
        raise DomainError(f"eta_{i}{j} is undefined: m_{i}{j} = 0")
    return law.cdf(t)


# --------------------------------------------------------------------------
# JSON interface
# --------------------------------------------------------------------------

# The parameters of each duration kind, in their JSON order.
_DURATION_PARAMS = {"constant": ("value",), "exponential": ("rate",), "gamma": ("shape", "rate")}


def _duration_from_dict(d) -> Duration:
    kind = d["kind"]
    if kind not in _DURATION_PARAMS:
        raise ConfigError(f"unknown duration kind {kind!r}")
    return Duration(kind, **{name: float(d[name]) for name in _DURATION_PARAMS[kind]})


def _duration_to_dict(d: Duration):
    return {"kind": d.kind, **{name: getattr(d, name) for name in _DURATION_PARAMS[d.kind]}}


# The kernels with per-type periods: variant name -> (class, its rate field).
_PERIOD_VARIANTS = {"markov_seir": (MarkovSEIR, "contact_rates"),
                    "marked_single": (MarkedSingleProcess, "total_rates")}


def _kernel_from_dict(d) -> Kernel:
    variant = d["variant"]
    if variant in _PERIOD_VARIANTS:
        cls, rates = _PERIOD_VARIANTS[variant]
        return cls([_duration_from_dict(x) for x in d["latent"]],
                   [_duration_from_dict(x) for x in d["infectious"]], d[rates])
    if variant == "extremal_two_type":
        base = _kernel_from_dict(d["base"])
        if not isinstance(base, MarkedSingleProcess):
            raise ConfigError("extremal_two_type base must be a marked_single kernel")
        return ExtremalTwoType(base=base, fast_pair=tuple(d["fast_pair"]))
    raise ConfigError(f"unknown kernel variant {variant!r}")


def _kernel_to_dict(kern: Kernel):
    if isinstance(kern, ExtremalTwoType):
        return {"variant": "extremal_two_type", "base": _kernel_to_dict(kern.base),
                "fast_pair": list(kern.fast_pair)}
    variant, rates = next((v, r) for v, (cls, r) in _PERIOD_VARIANTS.items() if type(kern) is cls)
    return {
        "variant": variant,
        "latent": [_duration_to_dict(x) for x in kern.latent],
        "infectious": [_duration_to_dict(x) for x in kern.infectious],
        rates: getattr(kern, rates).tolist(),
    }


def _integer(value, name: str) -> int:
    if isinstance(value, str) or not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_from_dict(d: dict) -> ModelConfig:
    """Build a config from its JSON form; any malformed field raises ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    try:
        pop = PopulationSpec(
            n=_integer(d["population"]["n"], "population.n"),
            counts=[_integer(c, "population.counts") for c in d["population"]["counts"]],
            proportions=d["population"]["proportions"],
        )
        kernel = _kernel_from_dict(d["kernel"])
        initial = resolve_initial(pop, d["initial_infecteds"])
        seed = _integer(d.get("seed", 0), "seed")
    except KeyError as exc:
        raise ConfigError(f"missing mandatory config field: {exc}") from exc
    except (TypeError, ValueError) as exc:  # ConfigError and DomainError too
        raise ConfigError(f"malformed config: {exc}") from exc
    return ModelConfig(population=pop, kernel=kernel, initial_infecteds=initial, seed=seed)


def config_to_dict(config: ModelConfig) -> dict:
    return {
        "population": {
            "n": config.population.n,
            "counts": config.population.counts.tolist(),
            "proportions": config.population.proportions.tolist(),
        },
        "kernel": _kernel_to_dict(config.kernel),
        "initial_infecteds": {"vertices": list(config.initial_infecteds)},
        "seed": config.seed,
    }


def load_config(path) -> ModelConfig:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(d)
