import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

import infector.analytic
from infector.analytic import (
    analytic_report,
    borel_conditional_pmf,
    borel_mean_inverse,
    borel_pmf,
    extinction_probs,
    fixed_point_q,
    fixed_point_qtilde,
    mean_stderr,
    r0,
    rho21_min,
    theorem2_bounds,
    tv_binomial_poisson,
)
from infector.errors import DomainError, NumericError

import oracles


def brentq_q(r0_value: float) -> float:
    """Independent oracle for the final-size fixed point."""
    return optimize.brentq(
        lambda x: x - math.exp(-r0_value * (1.0 - x)), 1e-12, 1.0 - 1e-12,
        xtol=1e-15, rtol=8.9e-16,
    )


# --------------------------------------------------------------------------
# spectral radius
# --------------------------------------------------------------------------

def test_r0_rank_one():
    assert r0(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)


def test_r0_marked_row_formula():
    # marked model p=(0.5,0.5), m_tilde=(2,2): R0 = p1*m1 + p2*m2 = 2
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert r0(m) == pytest.approx(2.0, abs=1e-12)


def test_r0_quadratic_oracle():
    m = np.array([[2.0, 0.1], [0.1, 0.5]])
    # largest root of x^2 - 2.5 x + 0.99
    oracle = (2.5 + math.sqrt(2.5**2 - 4 * 0.99)) / 2.0
    assert r0(m) == pytest.approx(oracle, abs=1e-10)


def test_r0_eig_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.random((3, 3)) + 0.01
        oracle = max(abs(np.linalg.eigvals(m)))
        assert r0(m) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("m", [np.zeros((0, 0)), np.ones((2, 3)), np.ones(4)],
                         ids=["empty", "2x3", "vector"])
def test_r0_shape_rejected(m):
    with pytest.raises(DomainError):
        r0(m)


def test_r0_reducible_rejected():
    with pytest.raises(DomainError):
        r0(np.array([[2.0, 0.0], [0.0, 0.5]]))


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_r0_overflow_raises(scale):
    # a representable root comes back accurately; only a root past the
    # float range raises
    m = np.array([[3.0, 1.5], [1.0, 2.5]]) / 3.0 * scale
    assert r0(m) == pytest.approx(4.0 / 3.0 * scale, rel=1e-14)
    with pytest.raises(NumericError):
        r0(np.full((2, 2), 1e308))


def test_r0_random_2x2_closed_form():
    rng = np.random.default_rng(2)
    worst = 0.0
    for a, b, c, d in rng.random((500, 4)) + 0.01:
        oracle = (a + d + math.sqrt((a - d) ** 2 + 4 * b * c)) / 2.0
        worst = max(worst, abs(r0(np.array([[a, b], [c, d]])) / oracle - 1.0))
    assert worst <= 1e-14


def test_r0_reducible_allowed():
    # reducible and defective: a Jordan block and a nilpotent matrix
    assert r0(np.array([[2.0, 1.0], [0.0, 2.0]]), require_irreducible=False) == 2.0
    assert r0(np.array([[0.0, 3.0], [0.0, 0.0]]), require_irreducible=False) == 0.0


def test_r0_matches_backward_matrix():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.random((3, 3)) + 0.05
        p = rng.dirichlet(np.ones(3))
        mb = (p[None, :] / p[:, None]) * m.T
        assert r0(mb) == pytest.approx(r0(m), abs=1e-10)


def test_analytic_imports_only_errors_from_package():
    # config imports analytic, so anything more here could bring back a cycle
    tree = ast.parse(Path(infector.analytic.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "infector"))} == {".errors"}


# --------------------------------------------------------------------------
# scalar fixed points
# --------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1.1, 1.5, 2.0, 5.0, 10.0])
def test_fixed_point_q_oracle(r):
    res = fixed_point_q(r)
    assert abs(res.value - math.exp(-r * (1.0 - res.value))) < 1e-12
    assert res.value == pytest.approx(brentq_q(r), abs=1e-10)


def test_fixed_point_q_near_critical():
    assert fixed_point_q(1.001).value > 0.99


def test_fixed_point_q_large_r0():
    res = fixed_point_q(10.0)
    assert res.value < 1e-4
    assert abs(res.value - math.exp(-10.0 * (1.0 - res.value))) < 1e-12


def test_fixed_point_q_subcritical_rejected():
    with pytest.raises(DomainError):
        fixed_point_q(1.0)


def test_qtilde_subcritical_is_one():
    assert fixed_point_qtilde(1.0).value == 1.0
    assert fixed_point_qtilde(0.5).value == 1.0


def test_qtilde_matches_q_supercritical():
    assert fixed_point_qtilde(2.0).value == pytest.approx(
        fixed_point_q(2.0).value, abs=1e-12
    )


@given(st.floats(min_value=1.01, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_fixed_point_residual_property(r):
    res = fixed_point_q(r)
    assert 0.0 < res.value < 1.0
    assert abs(res.value - math.exp(-r * (1.0 - res.value))) < 1e-12


@pytest.mark.parametrize("r", [1.001, 1.01, 1.02, 1.04])
def test_fixed_point_q_near_critical_oracle(r):
    # the smallest root lies below 1/r; brentq on [1e-12, 1/r] cannot return 1
    oracle = optimize.brentq(lambda x: x - math.exp(-r * (1.0 - x)), 1e-12, 1.0 / r,
                             xtol=1e-15, rtol=8.9e-16)
    assert abs(fixed_point_q(r).value - oracle) <= 1e-9


@pytest.mark.parametrize("p1, m1t, m2t", [
    (0.5, 1.02, 1.02),   # R0 = 1.02
    (0.5, 2.06, 0.5),    # p1 m1 = 1.03 > 1
    (0.3, 3.4, 0.5),     # p1 m1 = 1.02
    (0.05, 0.5, 1.1),    # R0 = 1.07, p2 m2 = 1.045
    (0.6, 1.04, 1.0),    # R0 = 1.024
    (0.2, 1.0, 1.01),    # R0 = 1.008
])
def test_analytic_report_near_critical_marked(p1, m1t, m2t):
    # a marked model's backward process is one-type in disguise: q = q1 = q2
    rep = analytic_report(p1, m1t, m2t)
    assert rep.q1 == rep.q2 == rep.q
    for m, qt in ((p1 * m1t, rep.q_tilde_1), ((1.0 - p1) * m2t, rep.q_tilde_2)):
        assert (qt < 1.0) == (m > 1.0)
        if m > 1.0:  # the smallest root, not one ulp below the trivial root 1
            assert m * qt < 1.0 and abs(qt - math.exp(-m * (1.0 - qt))) < 1e-12


# --------------------------------------------------------------------------
# multitype extinction
# --------------------------------------------------------------------------

def test_extinction_symmetric_collapse():
    mb = np.ones((2, 2))  # marked symmetric, R0 = 2
    q1, q2 = extinction_probs(mb)
    q = fixed_point_q(2.0).value
    assert q1 == pytest.approx(q, abs=1e-12)
    assert q2 == pytest.approx(q, abs=1e-12)


def test_extinction_no_type1_children_identity():
    # exp(-m12b (1 - q2)) = q1 exp(m11b (1 - q1)) for any 2-type system
    mb = np.array([[1.2, 0.9], [0.4, 1.1]])
    q1, q2 = extinction_probs(mb)
    lhs = math.exp(-mb[0, 1] * (1.0 - q2))
    rhs = q1 * math.exp(mb[0, 0] * (1.0 - q1))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def _simulate_extinction_2type(mb, runs, rng, max_pop=20000):
    """Direct Poisson Galton-Watson extinction indicators per root type.

    Runs reaching max_pop particles are counted as surviving.
    """
    out = []
    for root in range(2):
        pops = np.zeros((runs, 2), dtype=np.int64)
        pops[:, root] = 1
        survived = np.zeros(runs, dtype=bool)
        alive = np.ones(runs, dtype=bool)
        for _ in range(2000):
            if not alive.any():
                break
            idx = alive.nonzero()[0]
            nxt = rng.poisson(pops[idx] @ mb)
            big = nxt.sum(axis=1) >= max_pop
            survived[idx[big]] = True
            nxt[big] = 0
            pops[idx] = nxt
            alive[idx] = nxt.sum(axis=1) > 0
        out.append((pops.sum(axis=1) == 0) & ~survived)
    return out


def test_extinction_probs_simulation_oracle():
    mb = np.array([[1.5, 0.2], [0.2, 0.8]])
    q1, q2 = extinction_probs(mb)
    rng = np.random.default_rng(42)
    runs = 40000
    ext1, ext2 = _simulate_extinction_2type(mb, runs, rng)
    for q, ext in ((q1, ext1), (q2, ext2)):
        freq = ext.mean()
        se = math.sqrt(freq * (1 - freq) / runs)
        assert abs(freq - q) < 3 * se + 1e-3


def test_extinction_probs_residual():
    mb = np.array([[1.5, 0.2], [0.2, 0.8]])
    q = extinction_probs(mb)
    resid = q - np.exp(-mb @ (1.0 - q))
    assert np.abs(resid).max() < 1e-12


def test_extinction_probs_reducible():
    mb = np.array([[2.0, 1.0], [0.0, 2.0]])
    q = extinction_probs(mb)
    assert np.abs(q - np.exp(-mb @ (1.0 - q))).max() < 1e-12


def test_extinction_probs_critical_component_dies_out():
    # type 2 alone is critical, so its line dies out surely: q2 = 1
    assert abs(extinction_probs(np.array([[2.0, 1.0], [0.0, 1.0]]))[1] - 1.0) <= 1e-12


# 1 - q references: 50-digit mpmath roots of s = -expm1(-Mb s), taken at the
# float inputs as written here
@pytest.mark.parametrize("r, survival", [
    (1 + 1e-6, 1.9999973331719116039e-6),
    (1 + 1e-4, 0.00019997333644407875672),
    (1.001, 0.0019973364410108776513),
])
def test_fixed_point_q_survival_relative_accuracy(r, survival):
    # near criticality 1 - q is small and must keep its relative accuracy
    assert abs((1.0 - fixed_point_q(r).value) / survival - 1.0) <= 1e-9


def test_extinction_probs_survival_relative_accuracy_2x2():
    # irreducible, unequal row sums, Perron root 1 + 1e-6 (to 1e-17)
    mb = np.array([[0.5, 0.6], [0.5, 0.4000021999976]])
    survival = np.array([2.1639300014535131395e-6, 1.803278903377766353e-6])
    assert np.abs((1.0 - extinction_probs(mb)) / survival - 1.0).max() <= 1e-9


def test_extinction_ordering_chain():
    # q <= q1 <= q_tilde_1 for a supercritical marked model
    p1, m1t, m2t = 0.4, 3.0, 1.8
    rep = analytic_report(p1, m1t, m2t)
    assert rep.q <= rep.q1 + 1e-12
    assert rep.q1 <= rep.q_tilde_1 + 1e-12


# --------------------------------------------------------------------------
# Borel machinery
# --------------------------------------------------------------------------

def test_borel_pmf_ell_one():
    for m in (0.2, 0.7, 1.0):
        assert borel_pmf(m, 1) == pytest.approx(math.exp(-m), abs=1e-15)


def test_borel_pmf_direct_value():
    assert borel_pmf(0.8, 2) == pytest.approx(1.6 * math.exp(-1.6) / 2.0, rel=1e-14)


def borel_tail_sums(L: int):
    """Tails sum_{l>L} pmf(1, l) and sum_{l>L} pmf(1, l)/l at criticality.

    pmf(1, l) = l^(l-1) e^(-l) / l!; dividing by the Stirling series of
    l! gives pmf = (2 pi)^(-1/2) l^(-3/2) (1 - 1/(12 l) + 1/(288 l^2)
    + 139/(51840 l^3) + O(l^-4)), so the tails reduce to Hurwitz zeta
    values with truncation error O(L^(-9/2)).
    """
    from scipy.special import zeta

    coeff = [1.0, -1.0 / 12.0, 1.0 / 288.0, 139.0 / 51840.0]
    tail_p = sum(c * zeta(1.5 + k, L + 1) for k, c in enumerate(coeff))
    tail_pi = sum(c * zeta(2.5 + k, L + 1) for k, c in enumerate(coeff))
    root = 1.0 / math.sqrt(2.0 * math.pi)
    return root * tail_p, root * tail_pi


@pytest.mark.parametrize("m", [0.2, 0.5, 0.8])
def test_borel_normalization_and_mean_inverse_subcritical(m):
    ells = np.arange(1, 10001)
    pmf = borel_pmf(m, ells)
    assert abs(pmf.sum() - 1.0) < 1e-10
    assert abs((pmf / ells).sum() - (1.0 - m / 2.0)) < 1e-8
    assert borel_mean_inverse(m) == pytest.approx(1.0 - m / 2.0, abs=1e-15)


def test_borel_normalization_and_mean_inverse_critical():
    # heavy l^(-3/2) tail at m=1: add the zeta tail to the partial sum
    L = 100000
    ells = np.arange(1, L + 1)
    pmf = borel_pmf(1.0, ells)
    tail_p, tail_pi = borel_tail_sums(L)
    assert abs(pmf.sum() + tail_p - 1.0) < 1e-10
    assert abs((pmf / ells).sum() + tail_pi - 0.5) < 1e-8
    assert borel_mean_inverse(1.0) == 0.5


def test_borel_mean_inverse_endpoints():
    assert borel_mean_inverse(0.0) == 1.0
    assert borel_mean_inverse(1.0) == 0.5
    with pytest.raises(DomainError):
        borel_mean_inverse(1.2)


def test_borel_conditional_reduces_to_borel():
    ells = np.arange(1, 200)
    m = 0.7
    tiny = 1e-12
    cond = borel_conditional_pmf(m, tiny, ells)
    plain = borel_pmf(m, ells)
    assert np.abs(cond - plain).max() < 1e-9


def _marked_pair(p1, m1t, m2t):
    """(m11b, q1) for a marked model; q1 from the 2-type extinction system."""
    p2 = 1.0 - p1
    mb = np.array([[p1 * m1t, p2 * m2t], [p1 * m1t, p2 * m2t]])
    q1, _ = extinction_probs(mb)
    return p1 * m1t, q1


def test_borel_conditional_normalization_supercritical_restriction():
    # m11b = 1.2 > 1: the restricted process can itself survive
    m, q1 = _marked_pair(0.4, 3.0, 2.0)
    assert m == pytest.approx(1.2, abs=1e-12)
    ells = np.arange(1, 10001)
    pmf = borel_conditional_pmf(m, q1, ells)
    assert (pmf >= -1e-15).all()
    assert abs(pmf.sum() - 1.0) < 1e-8


def test_borel_conditional_normalization_subcritical_restriction():
    m, q1 = _marked_pair(0.4, 2.0, 2.5)  # m11b = 0.8
    ells = np.arange(1, 10001)
    pmf = borel_conditional_pmf(m, q1, ells)
    assert abs(pmf.sum() - 1.0) < 1e-8


def test_borel_conditional_mean_inverse_identity():
    # E[1/Y | A] = 1 - (1 + q1) m / 2 for a subcritical restriction
    m, q1 = _marked_pair(0.4, 2.0, 2.5)
    ells = np.arange(1, 10001)
    pmf = borel_conditional_pmf(m, q1, ells)
    target = 1.0 - (1.0 + q1) * m / 2.0
    assert abs((pmf / ells).sum() - target) < 1e-8


def test_borel_conditional_mean_inverse_supercritical_restriction():
    # E[1/Y | A, restricted branch finite] = 1 - m (qt1 + q1) / 2
    m, q1 = _marked_pair(0.4, 3.0, 2.0)
    qt1 = fixed_point_qtilde(m).value
    ells = np.arange(1, 10001)
    pmf = borel_conditional_pmf(m, q1, ells)
    target = 1.0 - m * (qt1 + q1) / 2.0
    assert abs((pmf / ells).sum() - target) < 1e-8


def test_borel_conditional_inconsistent_pair_rejected():
    with pytest.raises(DomainError):
        borel_conditional_pmf(1.2, 0.9, 1)


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

def test_rho21_min_reduction_at_qtilde_one():
    m, q1 = 0.8, 0.3
    assert rho21_min(m, q1, 1.0) == pytest.approx(
        1.0 - (1.0 + q1) * m / 2.0, abs=1e-14
    )


def test_rho21_min_vanishes_when_equal():
    assert rho21_min(0.8, 0.4, 0.4) == 0.0


def test_rho21_min_domain_checks():
    with pytest.raises(DomainError):
        rho21_min(0.8, 0.5, 0.4)  # q1 > q_tilde
    with pytest.raises(DomainError):
        rho21_min(2.0, 0.3, 0.9)  # m * q_tilde > 1


def test_bounds_symmetric_values():
    lo, hi = theorem2_bounds(0.5, 2.0, 2.0)
    q = fixed_point_q(2.0).value
    assert hi == pytest.approx((1.0 + q) / 2.0, abs=1e-12)
    assert hi == pytest.approx(0.6016, abs=5e-5)
    assert lo == pytest.approx(0.3984, abs=5e-5)
    assert lo == pytest.approx(1.0 - hi, abs=1e-12)
    assert lo <= 0.5 <= hi


def test_bounds_p1_to_one():
    lo, hi = theorem2_bounds(0.999, 2.0, 2.0)
    assert hi > 0.99
    assert lo > 0.99


def test_bounds_type1_never_infects():
    lo, hi = theorem2_bounds(0.3, 0.0, 2.0)
    assert hi == pytest.approx(0.0, abs=1e-12)
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_bounds_subcritical_rejected():
    with pytest.raises(DomainError):
        theorem2_bounds(0.5, 0.9, 0.9)


def test_bounds_printed_form_differs():
    # the printed form drops the leading "1 -": it is rho21_min itself
    lo, hi = theorem2_bounds(0.5, 2.0, 2.0)
    rep = analytic_report(0.5, 2.0, 2.0)
    hi_p = rho21_min(0.5 * 2.0, rep.q, rep.q_tilde_1)
    assert hi_p == pytest.approx(1.0 - hi, abs=1e-12)
    assert hi_p < 0.5  # the printed form contradicts the symmetric exact value


_M_TILDE = st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 2000.0))


@settings(max_examples=300, deadline=None)
@given(p1=st.floats(1e-9, 1.0 - 1e-9), m1t=_M_TILDE, m2t=_M_TILDE)
@example(p1=0.5, m1t=1600.0, m2t=1600.0)   # R0 = 1600: q underflows to 0
@example(p1=0.3, m1t=0.0, m2t=1100.0)      # R0 = 770, q = 0, qt1 = 1
@example(p1=0.5, m1t=1.0 + 2e-6, m2t=1.0)  # R0 = 1 + 1e-6
def test_bounds_match_inline_formula_bitwise(p1, m1t, m2t):
    # rho1_plus through rho21_min is the earlier inline formula, bit for bit
    r0_value = p1 * m1t + (1.0 - p1) * m2t
    if not r0_value > 1.0:
        with pytest.raises(DomainError):
            theorem2_bounds(p1, m1t, m2t)
        return
    rep = analytic_report(p1, m1t, m2t)
    expected = oracles.rho1_bounds(p1, m1t, m2t, rep.q, rep.q_tilde_1, rep.q_tilde_2)
    assert theorem2_bounds(p1, m1t, m2t) == expected == (rep.rho1_minus, rep.rho1_plus)
    assert rep.q1 == rep.q2 == rep.q  # the marked identity


def test_bounds_match_rho21_min_complement():
    # upper bound equals 1 minus the cross-type lower bound with q1 -> q
    p1, m1t, m2t = 0.4, 2.5, 1.6
    rep = analytic_report(p1, m1t, m2t)
    assert rep.rho1_plus == pytest.approx(
        1.0 - rho21_min(p1 * m1t, rep.q, rep.q_tilde_1), abs=1e-12
    )


@pytest.mark.parametrize("m", [math.nan, math.inf, -0.5], ids=repr)
def test_analytic_report_refuses_bad_m_tilde_by_name(m):
    with pytest.raises(DomainError, match=r"m1_tilde must be finite and >= 0"):
        analytic_report(0.5, m, 2.0)
    with pytest.raises(DomainError, match=r"m2_tilde must be finite and >= 0"):
        analytic_report(0.5, 2.0, m)


def test_analytic_report_invariants():
    rep = analytic_report(0.5, 2.0, 2.0)
    assert 0.0 < rep.q < 1.0
    assert rep.q <= rep.q1 + 1e-12
    assert rep.q1 <= rep.q_tilde_1 + 1e-12
    assert 0.0 <= rep.rho1_minus <= rep.rho1_plus <= 1.0
    assert rep.r0 == pytest.approx(2.0, abs=1e-12)


# --------------------------------------------------------------------------
# total variation
# --------------------------------------------------------------------------

def _tv_oracle(n, p, lam):
    ks = np.arange(0, n + 200)
    return 0.5 * np.abs(
        stats.binom.pmf(ks, n, p) - stats.poisson.pmf(ks, lam)
    ).sum() + 0.5 * stats.poisson.sf(ks[-1], lam)


def test_tv_zero_for_identical_point_masses():
    assert tv_binomial_poisson(10, 0.0, 0.0) == 0.0


def test_tv_matches_brute_force():
    for n, m in [(50, 2.0), (200, 0.5), (1000, 2.0)]:
        assert tv_binomial_poisson(n, m / n, m) == pytest.approx(
            _tv_oracle(n, m / n, m), abs=1e-10
        )


def test_tv_envelope_and_monotonicity():
    for m in (0.5, 1.0, 2.0):
        prev = None
        for n in (1000, 2000, 4000, 8000):
            tv = tv_binomial_poisson(n, m / n, m)
            assert tv < 1.0 / math.sqrt(n)
            if prev is not None:
                assert tv < prev
            prev = tv


# --------------------------------------------------------------------------
# replicate summaries
# --------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reps=st.integers(2, 40), k=st.integers(1, 3),
       nan_frac=st.floats(0.0, 0.9))
def test_mean_stderr_matches_nan_aware_formula_bitwise(seed, reps, k, nan_frac):
    # every cell keeps at least two values; the rest are NaN at random
    rng = np.random.default_rng(seed)
    stack = rng.random((reps, k, k)) * 10.0 ** rng.integers(-3, 4)
    missing = rng.random(stack.shape) < nan_frac
    keep = np.argsort(rng.random(stack.shape), axis=0)[:2]
    np.put_along_axis(missing, keep, False, axis=0)
    stack[missing] = np.nan
    mean, stderr = mean_stderr(list(stack))
    mean_o, stderr_o = oracles.aggregate_mean_stderr(list(stack))
    assert mean.tobytes() == mean_o.tobytes() and stderr.tobytes() == stderr_o.tobytes()
    # without NaN, the plain mean and ddof-1 std over sqrt(R) of the BP estimate
    full = np.where(missing, 0.5, stack).reshape(reps, -1)
    mean, stderr = mean_stderr(full)
    assert mean.tobytes() == full.mean(axis=0).tobytes()
    assert stderr.tobytes() == (full.std(axis=0, ddof=1) / np.sqrt(len(full))).tobytes()


def test_mean_stderr_fewer_than_two_values_is_nan():
    # a cell with one value (or none) has no standard error: NaN, no warning
    rows = [np.array([0.2, np.nan, np.nan]), np.array([0.4, 0.7, np.nan])]
    mean, stderr = mean_stderr(rows)
    assert mean[:2].tolist() == pytest.approx([0.3, 0.7]) and np.isnan(mean[2])
    assert np.isfinite(stderr[0]) and np.isnan(stderr[1:]).all()
    mean, stderr = mean_stderr(rows[1:])
    assert mean[:2].tolist() == [0.4, 0.7] and np.isnan(stderr).all()


# --------------------------------------------------------------------------
# refusals: each domain check, with the message that names it
# --------------------------------------------------------------------------

_Q_TILDE_2 = fixed_point_qtilde(2.0).value  # the largest q1 that still gives q <= 1 at m = 2


@pytest.mark.parametrize("call, message", [
    (lambda: r0(np.array([[1.0, -0.5], [0.5, 1.0]])), "nonnegative and finite"),
    (lambda: r0(np.array([[1.0, np.inf], [0.5, 1.0]])), "nonnegative and finite"),
    (lambda: r0(np.array([[1.0, np.nan], [0.5, 1.0]])), "nonnegative and finite"),
    (lambda: fixed_point_qtilde(-0.1), "offspring mean must be >= 0"),
    (lambda: borel_pmf(0.5, 0), "support starts at 1"),
    (lambda: borel_pmf(0.5, [1, 2, -3]), "support starts at 1"),
    (lambda: borel_pmf(-0.1, 1), "must be >= 0"),
    (lambda: borel_pmf(1.5, 1), "defective for m > 1"),
    (lambda: borel_conditional_pmf(0.8, 0.0, 1), r"q1 must lie in \(0, 1\)"),
    (lambda: borel_conditional_pmf(0.8, 1.0, 1), r"q1 must lie in \(0, 1\)"),
    (lambda: borel_conditional_pmf(2.0, _Q_TILDE_2, 1), "require q1 < q_tilde_1"),
    (lambda: rho21_min(0.8, -0.1, 0.5), r"q1 must lie in \[0, 1\)"),
    (lambda: rho21_min(0.8, 1.0, 1.0), r"q1 must lie in \[0, 1\)"),
    (lambda: tv_binomial_poisson(0, 0.5, 1.0), "n_trials must be >= 1"),
    (lambda: tv_binomial_poisson(10, -0.1, 1.0), r"p must lie in \[0, 1\]"),
    (lambda: tv_binomial_poisson(10, 1.5, 1.0), r"p must lie in \[0, 1\]"),
    (lambda: tv_binomial_poisson(10, 0.5, -1.0), "lam must be >= 0"),
], ids=["r0-negative", "r0-inf", "r0-nan", "qtilde-negative", "borel-ell-0",
        "borel-ell-negative", "borel-m-negative", "borel-m-above-1", "conditional-q1-0",
        "conditional-q1-1", "conditional-q1-at-qtilde", "rho21-q1-negative", "rho21-q1-1",
        "tv-n-0", "tv-p-negative", "tv-p-above-1", "tv-lam-negative"])
def test_domain_refusals_name_their_input(call, message):
    with pytest.raises(DomainError, match=message):
        call()
