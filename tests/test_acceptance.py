"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line with the measured quantities and elapsed time.
"""

import json
import math
import time

import numpy as np
from scipy import stats
from scipy.optimize import brentq

from infector.analytic import (
    analytic_report,
    borel_conditional_pmf,
    borel_pmf,
    fixed_point_q,
    theorem2_bounds,
    tv_binomial_poisson,
)
from infector.backward import explore_susceptibility, restricted_susceptibility_size
from infector.branching import estimate_W, estimate_rho_bp, solve_malthusian
from infector.cli import main
from infector.config import Duration, PopulationSpec, config_to_dict
from infector.forward import attribute_infectors, replicate_records, replicate_rho, run_epidemic
from infector.graph import FIG1_LABELS, _assemble, build_graph, fixture_graph_fig1
from infector.rng import stream

from conftest import (
    asymmetric_seir_config,
    extremal_config,
    marked_config,
    single_type_config,
    symmetric_marked_config,
)
from test_analytic import borel_tail_sums


def _report(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} ({detail}; {elapsed:.1f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s over {budget}s budget"


def test_criterion_01_fixture_exactness():
    t0 = time.perf_counter()
    g = fixture_graph_fig1()
    a, b, c, d, f = (FIG1_LABELS[x] for x in "abcdf")
    res = run_epidemic(g, [a])
    ok = (res.sigma[a] == 0.0 and res.sigma[b] == 0.3
          and res.sigma[c] == 1.3 and res.sigma[d] == 1.8)
    names = {v: k for k, v in FIG1_LABELS.items()}
    full = {names[u] for u in explore_susceptibility(g, f, math.inf).explored} - {"f"}
    sliced = {names[u] for u in explore_susceptibility(g, f, 1.1).explored} - {"f"}
    ok = ok and full == {"a", "b", "c", "d"} and sliced == {"c", "d"}
    rho = attribute_infectors(res)
    ok = ok and rho[0, 0] == 2.0 / 3.0 and rho[1, 0] == 1.0 / 3.0
    _report(1, "fixture-exactness", ok,
            f"sigma={res.sigma[[a, b, c, d]].tolist()}, rho11={rho[0, 0]}",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_fixed_points():
    t0 = time.perf_counter()
    worst_res, worst_gap = 0.0, 0.0
    for r in (1.1, 1.5, 2.0, 5.0, 10.0):
        fp = fixed_point_q(r)
        worst_res = max(worst_res, abs(fp.value - math.exp(-r * (1.0 - fp.value))))
        oracle = brentq(lambda x: x - math.exp(-r * (1.0 - x)), 1e-14, 1.0 - 1e-9,
                        xtol=1e-14)
        worst_gap = max(worst_gap, abs(fp.value - oracle))
    ok = worst_res < 1e-12 and worst_gap < 1e-10
    _report(2, "fixed-points", ok,
            f"residual<={worst_res:.2e}, oracle-gap<={worst_gap:.2e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_03_borel_suite():
    t0 = time.perf_counter()
    worst_norm, worst_mean = 0.0, 0.0
    for m in (0.2, 0.5, 0.8, 1.0):
        if m < 1.0:
            ells = np.arange(1, 10_001)
            p = borel_pmf(m, ells)
            tail_p = tail_pi = 0.0
        else:
            L = 100_000
            ells = np.arange(1, L + 1)
            p = borel_pmf(m, ells)
            tail_p, tail_pi = borel_tail_sums(L)
        worst_norm = max(worst_norm, abs(p.sum() + tail_p - 1.0))
        worst_mean = max(worst_mean,
                         abs((p / ells).sum() + tail_pi - (1.0 - m / 2.0)))
    # conditional law: normalization and the mean-inverse identity
    worst_cnorm, worst_cmean = 0.0, 0.0
    for m, q1 in ((0.5, 0.3), (0.8, 0.6), (1.0, 0.4)):
        if m < 1.0:
            ells = np.arange(1, 10_001)
            tail_p = tail_pi = 0.0
        else:
            L = 100_000
            ells = np.arange(1, L + 1)
            tp, tpi = borel_tail_sums(L)
            # only the non-defective unit-parameter component has a heavy
            # tail; the q1-component tail is geometrically negligible
            tail_p, tail_pi = tp / (1.0 - q1), tpi / (1.0 - q1)
        p = borel_conditional_pmf(m, q1, ells)
        worst_cnorm = max(worst_cnorm, abs(p.sum() + tail_p - 1.0))
        target = 1.0 - (1.0 + q1) * m / 2.0
        worst_cmean = max(worst_cmean, abs((p / ells).sum() + tail_pi - target))
    ok = (worst_norm < 1e-10 and worst_mean < 1e-8
          and worst_cnorm < 1e-8 and worst_cmean < 1e-8)
    _report(3, "borel-suite", ok,
            f"norm<={worst_norm:.2e}, mean<={worst_mean:.2e}, "
            f"cond-norm<={worst_cnorm:.2e}, cond-mean<={worst_cmean:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_04_borel_vs_graph():
    t0 = time.perf_counter()
    # 10^4 roots spread over 50 independent n=10^4 graphs so the sampled
    # set sizes are effectively independent
    ys = []
    for gi in range(50):
        g = build_graph(marked_config(10_000, 0.4, 2.0, 1.5, seed=300 + gi))
        n1 = g.population.counts[0]
        roots = np.random.default_rng(300 + gi).choice(n1, size=200, replace=False)
        ys.extend(restricted_susceptibility_size(g, int(v), 1, 1).y for v in roots)
    ys = np.asarray(ys)
    obs = np.array([(ys == l).sum() for l in range(1, 11)] + [(ys > 10).sum()])
    pm = borel_pmf(0.8, np.arange(1, 11))
    exp = np.append(pm, 1.0 - pm.sum()) * len(ys)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    crit = stats.chi2.ppf(0.99, len(obs) - 1)
    inv = 1.0 / ys
    se = inv.std(ddof=1) / math.sqrt(len(inv))
    mean_ok = abs(inv.mean() - 0.6) < 3 * se
    ok = chi2 < crit and mean_ok
    _report(4, "borel-vs-graph", ok,
            f"chi2={chi2:.1f}<{crit:.1f}, mean1/Y={inv.mean():.4f} (3se={3 * se:.4f})",
            time.perf_counter() - t0, 120.0)


def test_criterion_05_final_size():
    t0 = time.perf_counter()
    cfg = single_type_config(n=10_000, rate=2.0, seed=500)
    recs = replicate_records(cfg, 200, threshold=0.05)
    fr = np.array([r["final_fraction"] for r in recs if r["large_outbreak"]])
    target = 1.0 - fixed_point_q(2.0).value
    diff = abs(fr.mean() - target)
    ok = diff < 0.02 and len(fr) > 0
    _report(5, "final-size", ok,
            f"mean={fr.mean():.5f}, target={target:.5f}, diff={diff:.5f}, "
            f"outbreaks={len(fr)}/200",
            time.perf_counter() - t0, 120.0)


def test_criterion_06_malthusian():
    t0 = time.perf_counter()
    markov = solve_malthusian(single_type_config(n=10, rate=2.0)).alpha
    const = solve_malthusian(
        single_type_config(n=10, rate=2.0, infectious=Duration.constant(1.0))
    ).alpha
    oracle = brentq(lambda x: 2.0 * (1.0 - math.exp(-x)) / x - 1.0, 1e-9, 10.0,
                    xtol=1e-14)
    ok = abs(markov - 1.0) < 1e-8 and abs(const - oracle) < 1e-8
    # horizon stability of the martingale-limit estimate, z-test at 1%
    cfg = single_type_config(n=10, rate=2.0)
    means, ses = [], []
    for h in (5.0, 7.5):
        rng = stream(600, "acc6", int(h * 10))
        vals = estimate_W(cfg, 1, h, 1.0, 500, rng=rng)
        means.append(vals.mean())
        ses.append(vals.std(ddof=1) / math.sqrt(len(vals)))
    z = abs(means[0] - means[1]) / math.hypot(*ses)
    ok = ok and z < 2.576
    _report(6, "malthusian", ok,
            f"alpha={markov:.10f}, const={const:.10f} (oracle {oracle:.10f}), "
            f"stability-z={z:.2f}",
            time.perf_counter() - t0, 60.0)


def test_criterion_07_forward_backward_agreement():
    t0 = time.perf_counter()
    cfg = asymmetric_seir_config(n=20_000, seed=0)
    alpha = solve_malthusian(cfg).alpha
    fwd = replicate_rho(cfg, 300)
    assert fwd.replicates_used >= 200
    detail, ok = [], True
    for j in (1, 2):
        rho, se = estimate_rho_bp(cfg, j, R=10_000, horizon=8.0 / alpha,
                                  rng=stream(0, "acc7", j))
        for i in range(2):
            diff = abs(fwd.mean[i, j - 1] - rho[i])
            tol = 3.0 * math.hypot(fwd.stderr[i, j - 1], se[i])
            ok = ok and diff < tol
            detail.append(f"d{i + 1}{j}={diff:.4f}<{tol:.4f}")
    _report(7, "forward-backward-agreement", ok, ", ".join(detail),
            time.perf_counter() - t0, 600.0)


def test_criterion_08_sandwich():
    t0 = time.perf_counter()
    lo, hi = theorem2_bounds(0.5, 2.0, 2.0)
    bounds_ok = abs(lo - 0.3984) < 1e-4 and abs(hi - 0.6016) < 1e-4
    est = replicate_rho(symmetric_marked_config(n=10_000, m_tilde=2.0, seed=800), 200)
    rho1 = float(est.mean[0].mean())
    inside = abs(rho1 - 0.5) < 0.02 and lo <= rho1 <= hi
    ext = replicate_rho(extremal_config(n=10_000, m_tilde=2.0, fast_pair=(1, 1),
                                        seed=801), 200)
    attained = abs(ext.mean[0, 0] - hi) < 0.03
    ok = bounds_ok and inside and attained
    _report(8, "sandwich", ok,
            f"rho1={rho1:.4f} in [{lo:.4f},{hi:.4f}], extremal rho11="
            f"{ext.mean[0, 0]:.4f} (target {hi:.4f})",
            time.perf_counter() - t0, 300.0)


def test_criterion_09_coupling_envelope():
    t0 = time.perf_counter()
    ok, worst = True, 0.0
    for m in (0.5, 1.0, 2.0):
        prev = np.inf
        for n in (1_000, 10_000, 100_000):
            tv = tv_binomial_poisson(n, m / n, m)
            ok = ok and tv < 1.0 / math.sqrt(n) and tv < prev
            worst = max(worst, tv * math.sqrt(n))
            prev = tv
    _report(9, "coupling-envelope", ok, f"max tv*sqrt(n)={worst:.3f}<1",
            time.perf_counter() - t0, 5.0)


def test_criterion_10_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1000)
    mismatch = 0
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(0, 3 * n))
        pop = PopulationSpec(n=n, counts=[n], proportions=[1.0])
        g = _assemble(pop, rng.integers(0, n, size=m), rng.integers(0, n, size=m),
                      rng.random(m) + 0.01, realized_seed=0)
        fwd = np.array([np.isfinite(run_epidemic(g, [u]).sigma) for u in range(n)])
        for v in range(n):
            members = explore_susceptibility(g, v, math.inf).explored
            back = np.array([u in members for u in range(n)])
            mismatch += int((back != fwd[:, v]).sum())
    _report(10, "duality", mismatch == 0, f"mismatches={mismatch}",
            time.perf_counter() - t0, 60.0)


def test_criterion_11_columns_and_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = symmetric_marked_config(n=2_000, seed=1100)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    for d in ("a", "b"):
        rc = main(["simulate", "--config", str(cfg_path), "--replicates", "30",
                   "--no-timestamp", "--output-dir", str(tmp_path / d)])
        assert rc == 0
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("replicates.csv", "summary.csv")
    )
    # column sums of every emitted attribution matrix
    lines = (tmp_path / "a" / "replicates.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    header, body = rows[0], rows[1:]
    k = 2
    worst = 0.0
    for r in body:
        vals = np.array([float(x) for x in r[3:]]).reshape(k, k)
        for j in range(k):
            col = vals[:, j]
            if np.isnan(col).all():
                continue
            worst = max(worst, abs(np.nansum(col) - 1.0))
    est = replicate_rho(cfg, 30)
    worst = max(worst, float(np.abs(est.mean.sum(axis=0) - 1.0).max()))
    ok = identical and worst < 1e-12
    _report(11, "columns-and-determinism", ok,
            f"byte-identical={identical}, max|colsum-1|={worst:.2e}",
            time.perf_counter() - t0, 120.0)
