"""Closed-form and fixed-point layer.

Everything here is a pure function of scalars or small matrices:
reproduction numbers, extinction/final-size fixed points, Borel
identities, two-type attribution bounds, the exact binomial/Poisson
total-variation distance, and per-cell replicate means and stderrs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "FixedPointResult",
    "AnalyticReport",
    "is_irreducible",
    "r0",
    "fixed_point_q",
    "fixed_point_qtilde",
    "extinction_probs",
    "borel_pmf",
    "borel_mean_inverse",
    "borel_conditional_pmf",
    "rho21_min",
    "theorem2_bounds",
    "analytic_report",
    "tv_binomial_poisson",
    "mean_stderr",
]

_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class FixedPointResult:
    value: float
    residual: float


@dataclass(frozen=True)
class AnalyticReport:
    """All scalar outputs of the fixed-point layer for a two-type marked model."""

    p1: float
    m1_tilde: float
    m2_tilde: float
    r0: float
    q: float
    q_tilde_1: float
    q_tilde_2: float
    q1: float
    q2: float
    rho1_minus: float
    rho1_plus: float

    def rows(self):
        """(name, value) of each output, in field order after the three model inputs."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)[3:]]


# --------------------------------------------------------------------------
# spectral radius
# --------------------------------------------------------------------------

def is_irreducible(entries) -> bool:
    """Irreducibility of a square matrix's positivity pattern, via reachability."""
    reach = np.asarray(entries) > 0
    closure = reach.copy()
    for _ in range(reach.shape[0]):
        closure = closure | (closure @ reach)
    return bool(closure.all())


def r0(entries, require_irreducible: bool = True) -> float:
    """Perron root of a nonnegative matrix: its largest real eigenvalue.

    By Perron-Frobenius, a nonnegative matrix has its spectral radius
    as a real eigenvalue, and every other eigenvalue has modulus and so
    real part at most that radius; this holds for reducible matrices too.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DomainError("mean matrix must be square and nonempty")
    if (m < 0).any() or not np.isfinite(m).all():
        raise DomainError("mean matrix must be nonnegative and finite")
    if require_irreducible and not is_irreducible(m):
        raise DomainError("mean matrix is reducible")
    root = float(np.linalg.eigvals(m).real.max())
    if not np.isfinite(root):
        raise NumericError("Perron root is not finite: mean matrix entries too large")
    return root


# --------------------------------------------------------------------------
# extinction fixed points
# --------------------------------------------------------------------------

def extinction_probs(mb) -> np.ndarray:
    """Smallest fixed point of q = exp(-Mb (1 - q)) for Poisson offspring.

    ``mb[j, i]`` is the expected number of type-(i+1) children of a
    type-(j+1) parent.  Newton's method runs on the survival
    probabilities s = 1 - q: F(s) = s + expm1(-Mb s) is convex, with
    Jacobian I - diag(exp(-Mb s)) Mb, so from s = 1 the iterates fall
    monotonically to its largest root with no warm start.  They stop
    after the first step that lowers no entry of s by more than 4 ulps,
    as in exact arithmetic every step would.  F's rounding error scales
    with s, so 1 - q keeps its relative accuracy near criticality; q is
    returned as exp(-Mb s), which keeps its own where it is tiny.
    """
    mb = np.asarray(mb, dtype=float)
    if r0(mb, require_irreducible=False) <= 1.0:
        raise DomainError("extinction probabilities require a supercritical mean matrix")
    s = np.ones(mb.shape[0])
    for _ in range(100):
        ms = mb @ s
        step = np.linalg.solve(np.eye(len(s)) - np.exp(-ms)[:, None] * mb, s + np.expm1(-ms))
        s = s - step
        if np.all(step <= 4 * np.spacing(s)):
            break
    else:
        raise NumericError("extinction Newton iteration hit its 100-step cap")
    q = np.exp(-mb @ s)
    residual = np.max(np.abs(q - np.exp(-mb @ (1.0 - q))))
    if residual < _RESIDUAL_TOL:
        return np.clip(q, 0.0, 1.0)
    raise NumericError(f"extinction fixed point stalled at residual {residual:.3g}")


def fixed_point_q(r0_value: float) -> FixedPointResult:
    """Smallest solution in (0,1) of x = exp(-(1-x) r0), for r0 > 1.

    The one-type case of ``extinction_probs``; ``1 - q`` is the final
    fraction infected given a large outbreak.
    """
    if not r0_value > 1.0:
        raise DomainError(f"fixed_point_q requires r0 > 1, got {r0_value}")
    value = float(extinction_probs(np.array([[r0_value]]))[0])
    return FixedPointResult(value, float(abs(value - np.exp(-(1.0 - value) * r0_value))))


def fixed_point_qtilde(m: float) -> FixedPointResult:
    """Smallest positive solution in (0,1] of x = exp(-m (1-x)).

    Returns 1 exactly when m <= 1 (sub- or exactly critical restriction).
    """
    if m < 0:
        raise DomainError("offspring mean must be >= 0")
    if m <= 1.0:
        return FixedPointResult(1.0, 0.0)
    return fixed_point_q(m)


# --------------------------------------------------------------------------
# Borel distribution
# --------------------------------------------------------------------------

def borel_log_pmf(m: float, ell) -> np.ndarray:
    from scipy.special import gammaln  # kept out of the CLI's import time

    ell = np.asarray(ell, dtype=np.int64)
    if (ell <= 0).any():
        raise DomainError("Borel support starts at 1")
    lf = ell.astype(float)
    with np.errstate(divide="ignore"):
        lead = np.where(lf > 1, (lf - 1.0) * np.log(np.maximum(m * lf, 1e-300)), 0.0)
    return lead - m * lf - gammaln(lf + 1.0)


def borel_pmf(m: float, ell):
    """P(Y = ell) = (m ell)^(ell-1) exp(-m ell) / ell!, computed in log space.

    Raises DomainError for m < 0, and for m > 1, where the law is
    defective (total mass < 1).
    """
    if m < 0:
        raise DomainError("Borel parameter must be >= 0")
    if m > 1:
        raise DomainError("Borel pmf is defective for m > 1")
    scalar = np.isscalar(ell)
    out = np.exp(borel_log_pmf(m, ell))
    return float(out) if scalar else out


def borel_mean_inverse(m: float) -> float:
    """E[1/Y] = 1 - m/2 for a Borel(m) variable with m <= 1."""
    if not 0 <= m <= 1:
        raise DomainError("E[1/Y] closed form requires 0 <= m <= 1")
    return 1.0 - m / 2.0


def borel_conditional_pmf(m11b: float, q1: float, ell):
    """Size of the type-1-restricted exploration given overall survival.

    Implements ``[qt1 Borel(m qt1)(l) - q1 Borel(m q1)(l)] / (qt1 - q1)``
    with qt1 the smallest fixed point of x = exp(-m (1 - x)).  For
    m <= 1 (qt1 = 1) this is exactly the combination
    ``[(m l)^(l-1) e^(-m l) - q1 (m q1 l)^(l-1) e^(-m q1 l)] / (l! (1 - q1))``;
    for m > 1 the restriction to the almost-finite branch keeps the law
    proper.  Requires the implied no-type-1-children survival factor
    q = q1 exp(m (1 - q1)) to lie in (0, 1] and q1 < qt1.
    """
    if not 0 < q1 < 1:
        raise DomainError("q1 must lie in (0, 1)")
    q = q1 * np.exp(m11b * (1.0 - q1))
    if q > 1.0 + 1e-12:
        raise DomainError(f"inconsistent (m, q1): implied q = {q:.6g} > 1")
    qt1 = fixed_point_qtilde(m11b).value
    if q1 >= qt1 - 1e-15:
        raise DomainError("require q1 < q_tilde_1")
    a = borel_pmf(m11b * qt1, ell)
    b = borel_pmf(m11b * q1, ell)
    return (qt1 * a - q1 * b) / (qt1 - q1)


# --------------------------------------------------------------------------
# attribution bounds
# --------------------------------------------------------------------------

def rho21_min(m11b: float, q1: float, q_tilde_1: float) -> float:
    """Lower bound on the cross-type attribution fraction.

    ``(1 - m11b (qt1 + q1) / 2) * (qt1 - q1) / (1 - q1)``; reduces to
    ``1 - (1 + q1) m11b / 2`` when the restricted process is subcritical
    (qt1 = 1).  q1 = 0 is allowed: exp underflow gives it for R0 >~ 745.
    """
    if not (0 <= q1 < 1):
        raise DomainError("q1 must lie in [0, 1)")
    if not (q1 <= q_tilde_1 <= 1):
        raise DomainError("require q1 <= q_tilde_1 <= 1")
    if m11b * q_tilde_1 > 1 + 1e-12:
        raise DomainError("require m11b * q_tilde_1 <= 1")
    value = (1.0 - m11b * (q_tilde_1 + q1) / 2.0) * (q_tilde_1 - q1) / (1.0 - q1)
    return float(min(max(value, 0.0), 1.0))


def theorem2_bounds(p1: float, m1_tilde: float, m2_tilde: float):
    """Bounds (rho1_minus, rho1_plus) on the type-1 attribution fractions.

    ``rho1_plus`` bounds rho_11 from above, and ``rho1_minus = 1 -
    rho2_plus`` bounds rho_12 = 1 - rho_22 from below.  Inside the marked
    class, where every column of rho is the same, both cells lie in
    [rho1_minus, rho1_plus]; outside it they need not (at p1 = 0.5 and
    m1 = m2 = 2 with the (1, 1) contact ages 10x longer, rho_11 = 0.3724
    < rho1_minus = 0.3984).

    This is the derivation-consistent form
    ``rho1+ = 1 - (1 - p1 m1 (qt1 + q) / 2) (qt1 - q) / (1 - q)``; the
    alternative statement drops the leading ``1 -``, which is
    ``rho21_min(p1 m1, q, qt1)`` itself.
    """
    report = analytic_report(p1, m1_tilde, m2_tilde)
    return report.rho1_minus, report.rho1_plus


def analytic_report(p1: float, m1_tilde: float, m2_tilde: float) -> AnalyticReport:
    """Evaluate the whole fixed-point layer for a two-type marked model with R0 > 1."""
    if not (0 < p1 < 1):
        raise DomainError("p1 must lie in (0, 1)")
    for name, m in (("m1_tilde", m1_tilde), ("m2_tilde", m2_tilde)):
        if not 0 <= m < np.inf:  # also rejects NaN
            raise DomainError(f"{name} must be finite and >= 0, got {m}")
    p2 = 1.0 - p1
    r0_value = p1 * m1_tilde + p2 * m2_tilde
    if not r0_value > 1.0:
        raise DomainError(f"bounds require R0 > 1, got {r0_value}")
    q = fixed_point_q(r0_value).value
    qt1, qt2 = fixed_point_qtilde(p1 * m1_tilde).value, fixed_point_qtilde(p2 * m2_tilde).value
    # Theorem 2: each rho_j+ is 1 - rho21_min(p_j m_j, q, qt_j), and rho1- = 1 - rho2+
    rho1_plus = 1.0 - rho21_min(p1 * m1_tilde, q, qt1)
    rho2_plus = 1.0 - rho21_min(p2 * m2_tilde, q, qt2)
    rho1_minus = 1.0 - rho2_plus
    return AnalyticReport(
        p1=p1,
        m1_tilde=m1_tilde,
        m2_tilde=m2_tilde,
        r0=r0_value,
        q=q,
        q_tilde_1=qt1,
        q_tilde_2=qt2,
        # equal rows (p_1 m_1, p_2 m_2) of the backward mean matrix: q1 = q2 = q
        q1=q,
        q2=q,
        rho1_minus=float(min(max(rho1_minus, 0.0), 1.0)),
        rho1_plus=float(min(max(rho1_plus, 0.0), 1.0)),
    )


# --------------------------------------------------------------------------
# total variation
# --------------------------------------------------------------------------

def tv_binomial_poisson(n_trials: int, p: float, lam: float) -> float:
    """Exact total variation distance between Binomial(n, p) and Poisson(lam).

    The support sum is truncated where both tails are below 1e-15, which
    keeps the truncation error under 1e-14.
    """
    from scipy.special import bdtrc, gammaln, pdtrc, xlog1py, xlogy

    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    if lam < 0:
        raise DomainError("lam must be >= 0")
    mean = max(n_trials * p, lam, 1.0)
    hi = int(mean + 40.0 * np.sqrt(mean) + 40.0)
    k = np.arange(0, hi + 1)
    kb = k[: n_trials + 1]  # the binomial support
    # log n!/(n-k)! as a running sum of log(n - i): no cancellation
    # between large log-gammas when n is large and k small
    log_falling = np.concatenate(([0.0], np.cumsum(np.log(n_trials - kb[:-1]))))
    pb = np.zeros(len(k))
    pb[: len(kb)] = np.exp(log_falling - gammaln(kb + 1) + xlogy(kb, p)
                           + xlog1py(n_trials - kb, -p))
    pp = np.exp(xlogy(k, lam) - gammaln(k + 1) - lam)
    tv = 0.5 * np.abs(pb - pp).sum()
    # account for any mass beyond the truncation point
    tail = 0.5 * abs(bdtrc(min(hi, n_trials), n_trials, p) - pdtrc(hi, lam))
    return float(tv + tail)


# --------------------------------------------------------------------------
# replicate summaries
# --------------------------------------------------------------------------

def mean_stderr(rows) -> tuple:
    """NaN-aware per-cell (mean, standard error) over a stack of replicate rows.

    Each cell averages its non-NaN values; its standard error is their
    sample standard deviation (ddof 1) over the square root of their
    count, and NaN for a cell with fewer than two values.
    """
    stack = np.asarray(rows, dtype=float)
    missing = np.isnan(stack)
    count = np.sum(~missing, axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.nansum(stack, axis=0) / count
        dev = np.where(missing, 0.0, stack - mean)
        var = np.sum(dev * dev, axis=0) / np.where(count > 1, count - 1, np.nan)
        return mean, np.sqrt(var) / np.sqrt(count)
