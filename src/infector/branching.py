"""Backward multi-type branching process: simulation, Malthusian rate,
martingale-limit estimates, and the Monte Carlo attribution formula.

Particles of type j bear type-i children with Poisson((p_i/p_j) m_ij)
counts, at ages drawn by ``ContactAgeLaw.sample``: the latent period of
type i plus the stationary excess of its infectious period.  For a gamma
period of shape k = 2 or 3 that excess is Gamma(J, rate), J uniform on
1..k: one exponential per child, J - 1 from one uint8 draw, and the
second and third exponentials only for the children with J > 1 and
J > 2.  Particles
never die.  A kernel without that law, the extremal one, is refused
before any draw.  The Malthusian parameter makes the
Laplace-transformed backward mean matrix critical, and e^(-alpha t)
times the population converges to the martingale limit W.

One simulator, ``_simulate_batch``, grows many independent runs a
generation at a time up to a horizon T and returns each run's size,
last birth time and cap flag.  A generation is a short list of blocks,
one per child type, holding an int32 run id and a float64 birth time per
particle.  The L parents of a block bear one Poisson(L m) total of
type-i children, each with a uniform parent: the law of L independent
Poisson(m) counts.  Memory is 12 bytes per live particle, plus the kept
children of the type being drawn and the temporaries of one slice of
``_SLICE`` children.  W is estimated as e^(-alpha T) * size(T), and as 0
when the run had no birth in [T/2, T]: that no-growth rule is the
extinction surrogate shared by ``estimate_W``, ``estimate_rho_bp`` and
``extinction_frequency``.  W runs grow ``_PARTICLES`` * e^(-alpha T)
roots at a time, about ``_PARTICLES`` * E[W] particles at any horizon.

``estimate_rho_bp`` needs only the ratios of the W of a replicate's
subtrees, so it passes each root's replicate as its group and its
batches end at replicate boundaries.  Once a replicate's only subtree
that can still end with W > 0 has a birth in [T/2, T], the replicate's
share is fixed, and that settled subtree stops growing: its W is only
known to be positive.  ``estimate_W`` and ``extinction_frequency`` pass
no groups and grow every run to T or to the cap.
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


# Particle budget of a _simulate_batch call when estimating W (see _w_values).
_PARTICLES = 1 << 19
# Children per slice of _simulate_batch's draw-filter step; bounds its temporaries.
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
    while (g_alpha := g(hi)) > 0:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise NumericError("failed to bracket the Malthusian parameter")
    # g(lo) > 0 >= g(hi): halve to machine precision, stopping at an exact root
    alpha = hi
    while g_alpha != 0.0 and lo < (alpha := (lo + hi) / 2) < hi:
        if (g_alpha := g(alpha)) > 0:
            lo = alpha
        else:
            hi = alpha
    residual = abs(g(alpha))
    if residual >= 1e-10:
        raise NumericError(f"Malthusian residual {residual:.3g} too large")
    return MalthusianSolution(alpha=float(alpha), residual=float(residual))


# --------------------------------------------------------------------------
# simulation
# --------------------------------------------------------------------------

def _settled(growing: np.ndarray, last_birth: np.ndarray, horizon: float,
             groups: np.ndarray) -> np.ndarray:
    """Runs whose group's outcome is fixed: growing, with a birth in [T/2, T],
    and the group's only open run.

    A run is open while it is growing or has such a birth; a closed run
    has finished with W = 0.  ``groups`` holds 0-based ids below the run
    count.
    """
    late = last_birth >= horizon / 2.0
    n_open = np.bincount(groups[growing | late], minlength=len(groups))
    return growing & late & (n_open[groups] == 1)


def _simulate_batch(config: ModelConfig, root_types0: np.ndarray, horizon: float,
                    cap: int, rng: np.random.Generator, stop_on_cap: bool = False,
                    groups: Optional[np.ndarray] = None):
    """Simulate independent backward runs generation by generation.

    Returns (sizes, last_birth, capped) per run.  Capped runs stop
    growing once their size exceeds the cap; their counts are lower
    bounds and must not be used for W estimates.  With ``stop_on_cap``
    the batch stops at the generation where the first run passes the cap.
    With ``groups``, one id per run, a run that ``_settled`` finds to be
    its group's only open run, with a birth in [T/2, T], stops growing
    too; its W is then only known to be positive.  A generation is a
    list of (type, run ids, birth times) blocks: one per stretch of equal
    root types, then one per child type.
    """
    laws = [config.kernel.contact_age(i0) for i0 in range(config.k)]
    mb = backward_mean_matrix(config)
    if mb.max() > 2**30:  # a block's Poisson total mean then stays in numpy's range
        raise NumericError(f"backward offspring mean {mb.max():.3g} exceeds 2**30")
    types0 = np.asarray(root_types0, dtype=np.int64)
    n_runs = len(types0)
    sizes = np.ones(n_runs, dtype=np.int64)
    last_birth = np.zeros(n_runs)
    capped = np.zeros(n_runs, dtype=bool)

    if groups is not None:
        groups = np.unique(groups, return_inverse=True)[1]
    bounds = np.flatnonzero(np.diff(types0)) + 1
    gen = [(int(types0[a]), np.arange(a, b, dtype=np.int32), np.zeros(b - a))
           for a, b in zip(np.r_[0, bounds], np.r_[bounds, n_runs]) if b > a]
    while gen:
        before = sizes.copy() if groups is not None else None
        nxt = []
        for i0 in range(config.k):
            totals = [rng.poisson(mb[t, i0] * len(run)) for t, run, _ in gen]
            if not any(totals):
                continue
            runs, births = [], []
            for (_, run, times), total in zip(gen, totals):
                for at in range(0, total, _SLICE):
                    n = min(_SLICE, total - at)
                    parent = rng.integers(0, len(run), n)
                    birth = laws[i0].sample(rng, n)
                    birth += times.take(parent)
                    kept = np.flatnonzero(birth <= horizon)
                    births.append(birth.take(kept))
                    runs.append(run.take(parent.take(kept)))
            birth, child_run = np.concatenate(births), np.concatenate(runs)
            del births, runs
            if not len(birth):
                continue
            sizes += np.bincount(child_run, minlength=n_runs)
            np.maximum.at(last_birth, child_run, birth)
            nxt.append((i0, child_run, birth))
        halted = sizes > cap
        if halted.any():
            capped |= halted
            if stop_on_cap:
                break
        if groups is not None:
            halted |= _settled(sizes > before, last_birth, horizon, groups)
        if halted.any():
            for b, (t, run, times) in enumerate(nxt):
                alive = ~halted[run]
                nxt[b] = (t, run[alive], times[alive])
        gen = nxt
    return sizes, last_birth, capped


def _check_bp_args(config: ModelConfig, root_type: int, R: int, horizon: float,
                   cap: int) -> int:
    """Shared argument check of the Monte Carlo entry points; returns the 0-based root type."""
    j0 = config.population.type_index(root_type)
    if R < 1:
        raise DomainError("need at least one replicate")
    max_r = np.iinfo(np.intp).max // (8 * config.k)  # numpy cannot size a larger R x K int64 array
    if R > max_r:
        raise DomainError(f"replicates must be at most {max_r}, got {R}")
    if not 0 < horizon < np.inf:
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    return j0


def _no_growth(sizes: np.ndarray, last_birth: np.ndarray, horizon: float) -> np.ndarray:
    """Extinction surrogate: no birth at all, or none in [T/2, T]."""
    return (sizes <= 1) | (last_birth < horizon / 2.0)


def _w_values(config: ModelConfig, root_types0: np.ndarray, horizon: float,
              alpha: float, cap: int, rng: np.random.Generator,
              groups: Optional[np.ndarray] = None) -> np.ndarray:
    """W = e^(-alpha T) * size(T) per root, 0 under the extinction surrogate.

    A run's size at T grows like e^(alpha T), so batches of ``_PARTICLES``
    * e^(-alpha T) roots (at least one) hold about ``_PARTICLES`` * E[W]
    particles.  With sorted ``groups`` a batch runs on to the end of its
    last group, so each group settles within one batch, and a settled
    run's W is only known to be positive.  A batch stops at the
    generation where its first run passes the cap, which then raises,
    since that run's size is only a lower bound.
    """
    scale = np.exp(-alpha * horizon)  # underflows to 0 past alpha T = 745: batches of 1
    batch = max(1, int(_PARTICLES * scale))
    n = len(root_types0)
    w = np.empty(n)
    start = 0
    while start < n:
        stop = min(start + batch, n)
        if groups is not None:
            stop = int(np.searchsorted(groups, groups[stop - 1], side="right"))
        idx = slice(start, stop)
        sizes, last_birth, capped = _simulate_batch(
            config, root_types0[idx], horizon, cap, rng, stop_on_cap=True,
            groups=None if groups is None else groups[idx])
        if capped.any():
            raise CapExceededError(f"branching population cap {cap} passed at horizon "
                                   f"{horizon:.4g} after {start} of {n} "
                                   "subtrees; lower the horizon or raise the cap")
        w_batch = scale * sizes
        w_batch[_no_growth(sizes, last_birth, horizon)] = 0.0
        w[idx] = w_batch
        start = stop
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
    survival probability of a type-j root.  A replicate whose one
    positive subtree has a birth in [T/2, T] has share 1 for that
    subtree's type, whatever its size, so that subtree stops growing
    there; ``cap`` can only be passed by a subtree of a replicate that is
    still undecided.

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
        tau[sel] = config.kernel.contact_age(i0).sample(rng, n_sel)

    w = _w_values(config, type_of, horizon, alpha, cap, rng, groups=rep_of)
    disc = np.exp(-alpha * tau) * w
    num = np.zeros((R, k))
    np.add.at(num, (rep_of, type_of), disc)
    denom = num.sum(axis=1)
    alive = denom > 0
    if not alive.any():
        raise NoDataError("all replicates had zero surviving first-generation mass")
    contrib = np.zeros((R, k))
    contrib[alive] = num[alive] / denom[alive][:, None]
    mean, stderr = mean_stderr(contrib)
    rho, stderr = mean / surv, stderr / surv
    if details:
        return rho, stderr, contrib
    return rho, stderr
