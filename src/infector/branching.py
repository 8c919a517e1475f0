"""Backward multi-type branching process: simulation, Malthusian rate,
martingale-limit estimates, and the Monte Carlo attribution formula.

Particles of type j bear type-i children at ages drawn from the
normalized contact-age law of type i, with Poisson((p_i/p_j) m_ij)
counts; particles never die.  The Malthusian parameter makes the
Laplace-transformed backward mean matrix critical, and e^(-alpha t)
times the population converges to the martingale limit W.

One simulator, ``_simulate_batch``, grows many independent runs a
generation at a time up to a horizon T and returns each run's size,
last birth time and cap flag.  W is estimated as e^(-alpha T) * size(T),
and as 0 when the run had no birth in [T/2, T]: that no-growth rule is
the extinction surrogate shared by ``estimate_W``, ``estimate_rho_bp``
and ``extinction_frequency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .analytic import _bisect, extinction_probs, r0
from .config import ModelConfig, mean_matrix
from .errors import CapExceededError, DomainError, NoDataError, NumericError

__all__ = [
    "MalthusianSolution",
    "backward_mean_matrix",
    "laplace_mean_matrix",
    "solve_malthusian",
    "estimate_W",
    "survival_probability",
    "extinction_frequency",
    "estimate_rho_bp",
]


@dataclass(frozen=True)
class MalthusianSolution:
    alpha: float
    residual: float


# Roots per _simulate_batch call when estimating W; bounds peak memory.
_BATCH = 4_000


# --------------------------------------------------------------------------
# mean structure
# --------------------------------------------------------------------------

def backward_mean_matrix(config: ModelConfig) -> np.ndarray:
    """mb[j, i] = (p_i / p_j) m[i, j]: mean type-i offspring of a type-j parent."""
    m = mean_matrix(config).entries
    p = config.population.proportions
    return (p[None, :] / p[:, None]) * m.T


def laplace_mean_matrix(config: ModelConfig, x: float) -> np.ndarray:
    """Laplace transform of the backward mean offspring measure at x >= 0.

    Entry (j, i) is (p_i/p_j) * integral of e^(-x t) against the mean
    contact measure of type i toward type j; at x = 0 this is the
    backward mean matrix.  Closed form for the whole duration menu.
    """
    if x < 0:
        raise DomainError("Laplace argument must be >= 0")
    kern = config.kernel
    p = config.population.proportions
    k = config.k
    rates = kern.pair_rates()
    phi = np.empty(k)
    for i0 in range(k):
        lat, iota = kern.latent[i0], kern.infectious[i0]
        if x == 0.0:
            phi[i0] = iota.mean()
        else:
            phi[i0] = lat.laplace(x) * (1.0 - iota.laplace(x)) / x
    out = np.empty((k, k))
    for j0 in range(k):
        for i0 in range(k):
            out[j0, i0] = p[i0] * rates[i0, j0] * phi[i0]
    return out


def solve_malthusian(config: ModelConfig) -> MalthusianSolution:
    """Rate alpha > 0 at which the Laplace mean matrix has unit Perron root.

    The spectral radius is strictly decreasing in x with value R0 > 1 at
    x = 0, so bisection on an expanding bracket always succeeds.
    """
    basic = r0(mean_matrix(config).entries)
    if basic <= 1.0:
        raise DomainError(f"Malthusian parameter requires R0 > 1, got R0 = {basic}")

    def g(x):
        return r0(laplace_mean_matrix(config, x), require_irreducible=False) - 1.0

    lo, hi = 0.0, 1.0
    while g(hi) > 0:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise NumericError("failed to bracket the Malthusian parameter")
    alpha, _ = _bisect(g, lo, hi)
    residual = abs(g(alpha))
    if residual >= 1e-10:
        raise NumericError(f"Malthusian residual {residual:.3g} too large")
    return MalthusianSolution(alpha=float(alpha), residual=float(residual))


# --------------------------------------------------------------------------
# simulation
# --------------------------------------------------------------------------

def _child_ages(rng, kern, child_type0: int, size: int) -> np.ndarray:
    """Ages from the normalized mean contact measure of the child's type.

    Latent period plus a uniform position in a length-biased infectious
    period; exact for constants, exponentials and gammas.
    """
    lat = kern.latent[child_type0].sample(rng, size=size)
    iota = kern.infectious[child_type0].sample_size_biased(rng, size=size)
    return lat + iota * rng.random(size)


def _simulate_batch(config: ModelConfig, root_types0: np.ndarray, horizon: float,
                    cap: int, rng: np.random.Generator):
    """Simulate independent backward runs generation by generation.

    Returns (sizes, last_birth, capped) per run.  Capped runs stop
    growing once their size exceeds the cap; their counts are lower
    bounds and must not be used for W estimates.
    """
    kern = config.kernel
    k = config.k
    mb = backward_mean_matrix(config)
    n_runs = len(root_types0)
    sizes = np.ones(n_runs, dtype=np.int64)
    last_birth = np.zeros(n_runs)
    capped = np.zeros(n_runs, dtype=bool)

    run = np.arange(n_runs, dtype=np.int64)
    times = np.zeros(n_runs)
    types0 = np.asarray(root_types0, dtype=np.int64)

    while len(run) > 0:
        next_run, next_times, next_types = [], [], []
        for i0 in range(k):
            lam = mb[types0, i0]
            counts = rng.poisson(lam)
            total = int(counts.sum())
            if total == 0:
                continue
            child_run = np.repeat(run, counts)
            birth = np.repeat(times, counts) + _child_ages(rng, kern, i0, total)
            keep = birth <= horizon
            if not keep.any():
                continue
            next_run.append(child_run[keep])
            next_times.append(birth[keep])
            next_types.append(np.full(int(keep.sum()), i0, dtype=np.int64))
        if not next_run:
            break
        run = np.concatenate(next_run)
        times = np.concatenate(next_times)
        types0 = np.concatenate(next_types)
        np.add.at(sizes, run, 1)
        np.maximum.at(last_birth, run, times)
        over = sizes > cap
        if over.any():
            capped |= over
            alive = ~capped[run]
            run, times, types0 = run[alive], times[alive], types0[alive]
    return sizes, last_birth, capped


def _check_bp_args(config: ModelConfig, root_type: int, R: int, horizon: float,
                   cap: int) -> int:
    """Shared argument check of the Monte Carlo entry points; returns the 0-based root type."""
    j0 = config.population.type_index(root_type)
    if R < 1:
        raise DomainError("need at least one replicate")
    if not horizon > 0:
        raise DomainError("horizon must be positive")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    return j0


def _no_growth(sizes: np.ndarray, last_birth: np.ndarray, horizon: float) -> np.ndarray:
    """Extinction surrogate: no birth at all, or none in [T/2, T]."""
    return (sizes <= 1) | (last_birth < horizon / 2.0)


def _w_values(config: ModelConfig, root_types0: np.ndarray, horizon: float,
              alpha: float, cap: int, rng: np.random.Generator) -> np.ndarray:
    """W = e^(-alpha T) * size(T) per root, 0 under the extinction surrogate.

    Roots run in batches of ``_BATCH`` to bound memory; a capped run
    raises, since its size is only a lower bound.
    """
    w = np.empty(len(root_types0))
    for start in range(0, len(root_types0), _BATCH):
        idx = slice(start, start + _BATCH)
        sizes, last_birth, capped = _simulate_batch(config, root_types0[idx], horizon, cap, rng)
        if capped.any():
            raise CapExceededError(
                "branching population cap hit while estimating W; raise cap"
            )
        w_batch = np.exp(-alpha * horizon) * sizes
        w_batch[_no_growth(sizes, last_birth, horizon)] = 0.0
        w[idx] = w_batch
    return w


def estimate_W(config: ModelConfig, root_type: int, horizon: float, alpha: float, R: int,
               cap: int = 1_000_000,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """R independent martingale-limit estimates e^(-alpha T) * population(T).

    Each run starts from one type ``root_type`` particle.  A run with no
    birth in [T/2, T] is reported as W = 0 -- the extinction surrogate,
    whose exactness improves with the horizon.  Raises
    ``CapExceededError`` if any run exceeds ``cap`` particles.
    """
    j0 = _check_bp_args(config, root_type, R, horizon, cap)
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if rng is None:
        rng = rngmod.stream(config.seed, "bp")
    return _w_values(config, np.full(R, j0, dtype=np.int64), horizon, alpha, cap, rng)


def survival_probability(config: ModelConfig, root_type: int) -> float:
    """1 - extinction probability of the backward process from a typed root."""
    mb = backward_mean_matrix(config)
    if r0(mb, require_irreducible=False) <= 1.0:
        raise DomainError("survival probability requires R0 > 1")
    j0 = config.population.type_index(root_type)
    q = extinction_probs(mb)
    return float(1.0 - q[j0])


def extinction_frequency(config: ModelConfig, root_type: int, R: int, horizon: float,
                         cap: int = 10_000,
                         rng: Optional[np.random.Generator] = None) -> float:
    """Monte Carlo extinction frequency under the no-late-birth surrogate.

    Runs that hit the cap have certainly not gone extinct and count as
    surviving without being grown further.
    """
    j0 = _check_bp_args(config, root_type, R, horizon, cap)
    if rng is None:
        rng = rngmod.stream(config.seed, "bp-extinction")
    sizes, last_birth, capped = _simulate_batch(
        config, np.full(R, j0, dtype=np.int64), horizon, cap, rng
    )
    extinct = ~capped & _no_growth(sizes, last_birth, horizon)
    return float(extinct.mean())


# --------------------------------------------------------------------------
# attribution by Monte Carlo
# --------------------------------------------------------------------------

def estimate_rho_bp(config: ModelConfig, j: int, R: int, horizon: Optional[float] = None,
                    rng: Optional[np.random.Generator] = None, cap: int = 1_000_000,
                    details: bool = False):
    """Monte Carlo attribution fractions toward type-j vertices.

    Per replicate, the first backward generation has Poisson counts per
    type with ages from the normalized contact measure; each member
    carries an independent martingale-limit estimate, and the replicate
    contributes the exponentially discounted share of each type on the
    event that any subtree survives.  The mean is normalized by the
    survival probability of a type-j root.

    Returns (rho, stderr): length-K arrays; stderr is NaN when R = 1, as
    one sample has no standard error.  With ``details=True`` the
    per-replicate share matrix (R x K, before survival normalization) is
    appended to the return tuple.
    """
    k = config.k
    alpha = solve_malthusian(config).alpha
    if horizon is None:
        horizon = 12.0 / alpha
    j0 = _check_bp_args(config, j, R, horizon, cap)
    if rng is None:
        rng = rngmod.stream(config.seed, "bp-estimate", j)
    mb = backward_mean_matrix(config)
    kern = config.kernel
    surv = survival_probability(config, j)

    # first generation: counts per replicate and type
    counts = rng.poisson(mb[j0][None, :], size=(R, k))
    totals = counts.sum(axis=1)
    rep_of = np.repeat(np.arange(R), totals)
    type_of = np.repeat(np.tile(np.arange(k), R), counts.ravel())

    tau = np.zeros(len(rep_of))
    for i0 in range(k):
        sel = type_of == i0
        n_sel = int(sel.sum())
        if n_sel == 0:
            continue
        tau[sel] = _child_ages(rng, kern, i0, n_sel)

    w = _w_values(config, type_of, horizon, alpha, cap, rng)
    disc = np.exp(-alpha * tau) * w
    num = np.zeros((R, k))
    np.add.at(num, (rep_of, type_of), disc)
    w_sum = np.zeros(R)
    np.add.at(w_sum, rep_of, w)
    denom = num.sum(axis=1)
    alive = w_sum > 0
    if not alive.any():
        raise NoDataError("all replicates had zero surviving first-generation mass")
    contrib = np.zeros((R, k))
    contrib[alive] = num[alive] / denom[alive][:, None]
    rho = contrib.mean(axis=0) / surv
    if R > 1:
        stderr = contrib.std(axis=0, ddof=1) / np.sqrt(R) / surv
    else:
        stderr = np.full(k, np.nan)
    if details:
        return rho, stderr, contrib
    return rho, stderr
