"""Backward multi-type branching process: simulation, Malthusian rate,
martingale-limit estimates, and the Monte Carlo attribution formula.

Particles of type j bear type-i children at ages drawn from the
kernel's contact-age law of type i, with Poisson((p_i/p_j) m_ij)
counts; particles never die.  A kernel without that law, the extremal
one, is refused before any draw.  The Malthusian parameter makes the
Laplace-transformed backward mean matrix critical, and e^(-alpha t)
times the population converges to the martingale limit W.

One simulator, ``_simulate_batch``, grows many independent runs a
generation at a time up to a horizon T and returns each run's size,
last birth time and cap flag.  A generation is a short list of blocks,
one per child type, holding an int32 run id and a float64 birth time per
particle: 12 bytes per live particle, plus, while a child type is drawn,
4 bytes per parent of counts, 8 bytes per child of age draws (16 with a
random latent period) and the temporaries of one slice of ``_SLICE``
parents.  W is estimated as e^(-alpha T) * size(T), and as 0 when the
run had no birth in [T/2, T]: that no-growth rule is the extinction
surrogate shared by ``estimate_W``, ``estimate_rho_bp`` and
``extinction_frequency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .analytic import extinction_probs, mean_stderr, r0
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
# Parents per slice of _simulate_batch's expand-filter step; bounds its temporaries.
_SLICE = 1 << 14


# --------------------------------------------------------------------------
# mean structure
# --------------------------------------------------------------------------

def backward_mean_matrix(config: ModelConfig) -> np.ndarray:
    """mb[j, i] = (p_i / p_j) m[i, j]: mean type-i offspring of a type-j parent."""
    m = mean_matrix(config)
    p = config.population.proportions
    return (p[None, :] / p[:, None]) * m.T


def laplace_mean_matrix(config: ModelConfig, x: float) -> np.ndarray:
    """Laplace transform of the backward mean offspring measure at x >= 0.

    Entry (j, i) is (p_i/p_j) * integral of e^(-x t) against the mean
    contact measure of type i toward type j; at x = 0 this is the
    backward mean matrix.  Closed form for the whole duration menu.
    """
    kern = config.kernel
    laws = [kern.contact_age(i0) for i0 in range(config.k)]
    if not 0 <= x < np.inf:  # also rejects NaN
        raise DomainError(f"Laplace argument must be finite and >= 0, got {x}")
    p = config.population.proportions
    phi = np.array([law.window_laplace(x) for law in laws])
    return (p[:, None] * kern.pair_rates() * phi[:, None]).T


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection to machine precision; f(lo) and f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NumericError("bisection bracket does not straddle a root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_malthusian(config: ModelConfig) -> MalthusianSolution:
    """Rate alpha > 0 at which the Laplace mean matrix has unit Perron root.

    The spectral radius is strictly decreasing in x with value R0 > 1 at
    x = 0, so bisection on an expanding bracket always succeeds.
    """
    basic = r0(mean_matrix(config))
    if basic <= 1.0:
        raise DomainError(f"Malthusian parameter requires R0 > 1, got R0 = {basic}")

    def g(x):
        return r0(laplace_mean_matrix(config, x), require_irreducible=False) - 1.0

    lo, hi = 0.0, 1.0
    while g(hi) > 0:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise NumericError("failed to bracket the Malthusian parameter")
    alpha = _bisect(g, lo, hi)
    residual = abs(g(alpha))
    if residual >= 1e-10:
        raise NumericError(f"Malthusian residual {residual:.3g} too large")
    return MalthusianSolution(alpha=float(alpha), residual=float(residual))


# --------------------------------------------------------------------------
# simulation
# --------------------------------------------------------------------------

def _simulate_batch(config: ModelConfig, root_types0: np.ndarray, horizon: float,
                    cap: int, rng: np.random.Generator, stop_on_cap: bool = False):
    """Simulate independent backward runs generation by generation.

    Returns (sizes, last_birth, capped) per run.  Capped runs stop
    growing once their size exceeds the cap; their counts are lower
    bounds and must not be used for W estimates.  With ``stop_on_cap``
    the batch stops at the generation where the first run passes the cap.
    A generation is a list of (type, run ids, birth times) blocks: one
    per stretch of equal root types, then one per child type.
    """
    laws = [config.kernel.contact_age(i0) for i0 in range(config.k)]
    mb = backward_mean_matrix(config)
    if mb.max() > 2**30:  # Poisson counts then stay far below 2**31: int32 holds them
        raise NumericError(f"backward offspring mean {mb.max():.3g} exceeds 2**30")
    types0 = np.asarray(root_types0, dtype=np.int64)
    n_runs = len(types0)
    sizes = np.ones(n_runs, dtype=np.int64)
    last_birth = np.zeros(n_runs)
    capped = np.zeros(n_runs, dtype=bool)

    bounds = np.flatnonzero(np.diff(types0)) + 1
    gen = [(int(types0[a]), np.arange(a, b, dtype=np.int32), np.zeros(b - a))
           for a, b in zip(np.r_[0, bounds], np.r_[bounds, n_runs]) if b > a]
    while gen:
        nxt = []
        for i0 in range(config.k):
            counts = [rng.poisson(mb[t, i0], size=len(run)).astype(np.int32) for t, run, _ in gen]
            total = sum(int(c.sum()) for c in counts)
            if total == 0:
                continue
            biased, lat = laws[i0].draw(rng, total)
            runs, births, at = [], [], 0
            for (_, run, times), c in zip(gen, counts):
                for p in range(0, len(c), _SLICE):
                    cs = c[p:p + _SLICE]
                    n = int(cs.sum())
                    birth = biased[at:at + n]
                    birth *= rng.random(n)  # uniform draws may come in slices: no buffered state
                    birth += lat if np.ndim(lat) == 0 else lat[at:at + n]
                    parent = np.arange(len(cs)).repeat(cs.astype(np.intp))  # slice-local ids
                    birth += times[p:p + _SLICE].take(parent)
                    kept = np.flatnonzero(birth <= horizon)
                    births.append(birth.take(kept))
                    runs.append(run[p:p + _SLICE].take(parent.take(kept)))
                    at += n
            del counts, c, cs, biased, lat, birth, parent, kept  # free the draws before the join
            birth, child_run = np.concatenate(births), np.concatenate(runs)
            del births, runs
            if not len(birth):
                continue
            sizes += np.bincount(child_run, minlength=n_runs)
            np.maximum.at(last_birth, child_run, birth)
            nxt.append((i0, child_run, birth))
        over = sizes > cap
        if over.any():
            capped |= over
            if stop_on_cap:
                break
            for b, (t, run, times) in enumerate(nxt):
                alive = ~capped[run]
                nxt[b] = (t, run[alive], times[alive])
        gen = nxt
    return sizes, last_birth, capped


def _check_bp_args(config: ModelConfig, root_type: int, R: int, horizon: float,
                   cap: int) -> int:
    """Shared argument check of the Monte Carlo entry points; returns the 0-based root type."""
    j0 = config.population.type_index(root_type)
    if R < 1:
        raise DomainError("need at least one replicate")
    if not 0 < horizon < np.inf:
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    return j0


def _no_growth(sizes: np.ndarray, last_birth: np.ndarray, horizon: float) -> np.ndarray:
    """Extinction surrogate: no birth at all, or none in [T/2, T]."""
    return (sizes <= 1) | (last_birth < horizon / 2.0)


def _w_values(config: ModelConfig, root_types0: np.ndarray, horizon: float,
              alpha: float, cap: int, rng: np.random.Generator) -> np.ndarray:
    """W = e^(-alpha T) * size(T) per root, 0 under the extinction surrogate.

    Roots run in batches of ``_BATCH`` to bound memory.  A batch stops at
    the generation where its first run passes the cap, which then
    raises, since that run's size is only a lower bound.
    """
    w = np.empty(len(root_types0))
    for start in range(0, len(root_types0), _BATCH):
        idx = slice(start, start + _BATCH)
        sizes, last_birth, capped = _simulate_batch(config, root_types0[idx], horizon, cap,
                                                    rng, stop_on_cap=True)
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
    if not 0 < alpha < np.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    if rng is None:
        rng = rngmod.stream(config.seed, "bp")
    return _w_values(config, np.full(R, j0, dtype=np.int64), horizon, alpha, cap, rng)


def survival_probability(config: ModelConfig, root_type: int) -> float:
    """1 - extinction probability of the backward process from a typed root."""
    q = extinction_probs(backward_mean_matrix(config))
    return float(1.0 - q[config.population.type_index(root_type)])


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
        biased, lat = config.kernel.contact_age(i0).draw(rng, n_sel)
        tau[sel] = biased * rng.random(n_sel) + lat

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
    mean, stderr = mean_stderr(contrib)
    rho, stderr = mean / surv, stderr / surv
    if details:
        return rho, stderr, contrib
    return rho, stderr
