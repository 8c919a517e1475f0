"""Benchmark of the ``infector`` CLI: four subcommand workloads.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced and traced
    python3 perfbench/run.py --smoke    # every workload at a tiny size

Run from the root of a source checkout (``src/infector`` must exist);
nothing is installed, children get ``PYTHONPATH=src``.  Each workload
is one subcommand run as a fresh single-threaded child process, over
and over on one scenario derived from ``--seed`` until ``--seconds``
have passed; every child's outputs are checked.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``).

With ``--trace 1`` the scenario runs in pairs: untraced, then under
traced.py, whose wrappers time each layer in-process.  The two runs'
CSVs must be byte-identical.
"""

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; no child may outlive this.
RUN_BUDGET_S = 170.0
# Fewest untraced invocations a run makes, whatever --seconds says.
MIN_INVOCATIONS = {"full": 3, "smoke": 1}

# The README scenario.  Only "seed" and the population size vary.
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
    "seed": 0,
}

# Per workload: population size, subcommand argv (without --config and
# output flags), and the work items it processes, at full and smoke size.
#
# simulate: what users run (default lazy engine).  Graph, _kernels and
#   branching do no work here, so changes to them should not move it.
#   A replicate costs about its number of infections, and only about 56%
#   of replicates are large outbreaks, so the work of R replicates varies
#   between seeds by about 0.9/sqrt(R).  At n = 2500 rather than the
#   README's 1e4, 240 replicates cost what 60 do at 1e4 with half that
#   spread; rho_1_1 at n = 2500 (0.7658 +- 0.0005 over 2000 replicates)
#   agrees with the reference.
# simulate-eager: the same pipeline on the eager engine, where
#   _kernels.dijkstra and graph.build_graph dominate over many small
#   graphs; the gap to `simulate` shows kernel and engine changes.
# backward: one large graph (n = 2e5) explored in reverse; --t-star 8
#   because the default horizon (about 1.8) leaves exploration under 1%
#   of the wall time.
# bp-estimate: _simulate_batch is about 99% of the work and sets peak
#   RSS.  The horizon is 8/alpha (alpha = 0.8375 for this kernel); the
#   default 12/alpha runs for minutes and exits 3 with "cap hit", so it
#   cannot be a steady workload.
SIZES = {
    "full": {
        "simulate": (2_500, ["simulate", "--replicates", "240", "--threads", "1"], 240),
        "simulate-eager": (10_000, ["simulate", "--method", "eager", "--replicates", "100",
                                    "--threads", "1"], 100),
        "backward": (200_000, ["backward", "--roots-per-type", "50", "--t-star", "8"], 100),
        "bp-estimate": (10_000, ["bp-estimate", "--type", "1", "--replicates", "1000",
                                 "--horizon", "9.55"], 1000),
    },
    "smoke": {
        "simulate": (2_500, ["simulate", "--replicates", "12", "--threads", "1"], 12),
        "simulate-eager": (10_000, ["simulate", "--method", "eager", "--replicates", "12",
                                    "--threads", "1"], 12),
        "backward": (20_000, ["backward", "--roots-per-type", "5", "--t-star", "4"], 10),
        "bp-estimate": (10_000, ["bp-estimate", "--type", "1", "--replicates", "100",
                                 "--horizon", "9.55"], 100),
    },
}

# Set-up: import the CLI, load and validate the scenario, and no work.
# It also reports the versions the children run with.
SETUP_CODE = ("import json, sys, numpy, scipy, infector.cli as c, infector._kernels as k; "
              "c.validate_config(c.load_config(sys.argv[1])); "
              "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
              "'numba_enabled': k.NUMBA_ENABLED}))")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, timeout, log_path):
    """Run a child to exit; return (exit code, wall s, rusage).

    Wall time runs from spawn to exit.  The child is killed after
    ``timeout`` seconds, and is always waited for.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def sub_seed(workload, seed):
    blob = f"{workload}|{seed}".encode()
    return int(hashlib.sha256(blob).hexdigest()[:8], 16)


def write_scenario(path, n, seed):
    scenario = copy.deepcopy(README_SCENARIO)
    scenario["population"].update(n=n, counts=[n // 2, n - n // 2])
    scenario["seed"] = seed
    with open(path, "w") as fh:
        json.dump(scenario, fh)


# --------------------------------------------------------------------------
# output checks: they test properties, not bytes, so that a change of
# random draws or engine keeps passing while wrong outputs fail
# --------------------------------------------------------------------------

def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_simulate(out_dir, items):
    errors = []
    rows = read_csv(os.path.join(out_dir, "replicates.csv"))
    if len(rows) != items:
        errors.append(f"{len(rows)} replicate rows, expected {items}")
    for row in rows:
        if not 0.0 <= float(row["final_fraction"]) <= 1.0:
            errors.append(f"replicate {row['replicate']}: final_fraction out of [0, 1]")
        for j in (1, 2):
            col = [float(row[f"rho_{i}_{j}"]) for i in (1, 2)]
            nans = sum(math.isnan(x) for x in col)
            if nans == 0 and abs(sum(col) - 1.0) > 1e-12:
                errors.append(f"replicate {row['replicate']}: column {j} sums to {sum(col)!r}")
            elif 0 < nans < len(col):
                errors.append(f"replicate {row['replicate']}: column {j} partly NaN")
    if not any(row["large_outbreak"] == "1" for row in rows):
        errors.append("no large outbreak")
    stats = {row["statistic"]: row for row in read_csv(os.path.join(out_dir, "summary.csv"))}
    estimate = None
    if "stderr" in stats:
        estimate = (float(stats["mean"]["rho_1_1"]), float(stats["stderr"]["rho_1_1"]))
    return errors, estimate


def check_backward(out_dir, items):
    errors = []
    rows = read_csv(os.path.join(out_dir, "backward.csv"))
    if len(rows) != items:
        errors.append(f"{len(rows)} root rows, expected {items}")
    for row in rows:
        if int(row["explored"]) < 1 or int(row["restricted_size"]) < 1:
            errors.append(f"root {row['root']}: empty explored or restricted set")
        if (row["flagged"] == "1") != (int(row["collisions"]) > 0):
            errors.append(f"root {row['root']}: flagged disagrees with collisions")
    return errors, None


def check_bp(out_dir, items):
    errors = []
    rows = read_csv(os.path.join(out_dir, "bp_replicates.csv"))
    if len(rows) != items:
        errors.append(f"{len(rows)} share rows, expected {items}")
    for row in rows:
        shares = [float(row["share_1"]), float(row["share_2"])]
        if not (abs(sum(shares) - 1.0) <= 1e-12 or shares == [0.0, 0.0]):
            errors.append(f"replicate {row['replicate']}: shares sum to {sum(shares)!r}")
    summary = read_csv(os.path.join(out_dir, "bp_summary.csv"))[0]
    return errors, (float(summary["rho_1_1"]), float(summary["stderr_1"]))


CHECKS = {"simulate": check_simulate, "simulate-eager": check_simulate,
          "backward": check_backward, "bp-estimate": check_bp}


def reference_check(estimates):
    """Forward/backward cross-check of rho_1_1 against reference.json.

    Invocations of one scenario repeat one estimate, which counts once;
    distinct estimates are combined with equal weights.  The combined
    estimate must lie within z_max standard errors of the reference.
    Returns (ok, message); ok is None when the workload reports no rho.
    """
    estimates = sorted({(m, se) for m, se in estimates if math.isfinite(se) and se > 0})
    if not estimates:
        return None, "no rho_1_1 estimate"
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    mean = statistics.fmean(m for m, _ in estimates)
    se = math.sqrt(sum(s * s for _, s in estimates)) / len(estimates)
    z = abs(mean - ref["rho_1_1"]) / math.hypot(se, ref["stderr"])
    ok = z <= ref["z_max"]
    return ok, (f"rho_1_1 = {mean:.5f} +- {se:.5f} over {len(estimates)} runs, reference "
                f"{ref['rho_1_1']:.5f} +- {ref['stderr']:.5f}: z = {z:.2f} "
                f"({'<=' if ok else '>'} {ref['z_max']})")


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload: its children, checks and results."""

    def __init__(self, workload, seed, seconds, scale):
        self.workload = workload
        self.seed = seed
        self.n, self.args, self.items = SIZES[scale][workload]
        self.min_invocations = MIN_INVOCATIONS[scale]
        self.start = time.perf_counter()
        self.seconds = seconds
        self.dir = os.path.join(OUT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # Every invocation of a run does the same work, so that they differ
        # only by how much the host slowed them down.
        self.scenario = os.path.join(self.dir, "scenario.json")
        write_scenario(self.scenario, self.n, sub_seed(workload, seed))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.estimates = []
        self.cycles = []
        self.versions = {}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, argv, tag):
        return spawn(argv, RUN_BUDGET_S - self.elapsed(), os.path.join(self.dir, tag + ".log"))

    def more(self, minimum):
        """Start another cycle if it should end by about --seconds.

        A cycle is one set-up plus one invocation, or one untraced plus
        one traced invocation; the run ends within half a cycle of
        --seconds, or after ``minimum`` cycles.
        """
        self.cycles.append(self.elapsed())
        done = len(self.cycles) - 1
        if done < minimum:
            return True
        cycle = statistics.median(b - a for a, b in zip(self.cycles, self.cycles[1:]))
        return self.elapsed() + cycle / 2 <= self.seconds

    def command(self, out_dir):
        return self.args + ["--config", self.scenario, "--output-dir", out_dir,
                            "--no-timestamp"]

    def invoke(self, tag, traced=None):
        """Run the subcommand once (traced if a spans path is given) and check it.

        Returns (output dir, wall s, rusage, errors).
        """
        out_dir = os.path.join(self.dir, tag)
        argv = [sys.executable, "-m", "infector.cli"]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), traced, "--"]
        rc, wall, usage = self.spawn(argv + self.command(out_dir), tag)
        self.attempted += 1
        errors = [f"exit code {rc}"] if rc != 0 else []
        if rc == 0:
            try:
                errors, estimate = CHECKS[self.workload](out_dir, self.items)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                errors, estimate = [f"unreadable output: {exc!r}"], None
            if estimate and not traced:
                self.estimates.append(estimate)
        return out_dir, wall, usage, errors

    def fail(self, tag, errors):
        """Count one failed invocation if it has errors."""
        if errors:
            self.failed += 1
            self.errors += [f"{tag}: {e}" for e in errors[:5]]

    def setup_time(self):
        rc, wall, _ = self.spawn([sys.executable, "-c", SETUP_CODE, self.scenario], "setup")
        if rc != 0:
            self.errors.append(f"set-up exited {rc}")
        elif not self.versions:
            with open(os.path.join(self.dir, "setup.log")) as fh:
                self.versions = json.loads(fh.read().splitlines()[-1])
        return wall

    def untraced(self):
        """End-to-end metrics over invocations, set-up interleaved.

        Other tenants of a shared host only ever slow a child down, by up
        to 2x for seconds to minutes at a time, so the fastest invocation
        of a run is the steadiest estimate of the program's own cost:
        wall_s is the minimum over invocations and items_per_s divides by
        the minimum wall time less the minimum set-up time.  setup_s is
        the median set-up time, and peak_rss_mb the median peak RSS.
        """
        walls, setups, rss, ok_walls = [], [], [], []
        while self.more(self.min_invocations):
            tag = f"inv{len(walls)}"
            setups.append(self.setup_time())
            out_dir, wall, usage, errors = self.invoke(tag)
            self.fail(tag, errors)
            shutil.rmtree(out_dir, ignore_errors=True)
            walls.append(wall)
            rss.append(usage.ru_maxrss / 1024.0)
            if not errors:
                ok_walls.append(wall)
        self.note(f"fail_frac = {self.failed}/{self.attempted}; {len(walls)} invocations: "
                  f"wall_s {fmt(walls)} (median {statistics.median(walls):.3f}), "
                  f"setup_s {fmt(setups)}, peak_rss_mb {fmt(rss)}")
        # A failed invocation may have stopped early; the run is not correct
        # then, and its time counts only if no invocation succeeded.
        fastest = min(ok_walls or walls)
        return {
            "wall_s": fastest,
            "setup_s": statistics.median(setups),
            "items_per_s": self.items / max(fastest - min(setups), 1e-9),
            "peak_rss_mb": statistics.median(rss),
        }

    def traced(self):
        """Per-layer metrics: low medians over (untraced, traced) pairs.

        The low median is a value one pair measured, so counts stay whole.
        """
        pairs, index = [], 0
        self.setup_time()  # for the versions only
        while self.more(1):
            plain, wall_u, usage, errors = self.invoke(f"plain{index}")
            self.fail(f"plain{index}", errors)
            spans_path = os.path.join(self.dir, f"spans{index}.json")
            traced, wall_t, _, errors = self.invoke(f"traced{index}", spans_path)
            if not errors:
                if not same_files(plain, traced):
                    errors.append("CSVs differ from the untraced run")
                with open(spans_path) as fh:
                    trace = json.load(fh)
                layer = layer_metrics(trace["spans"], trace["counters"])
                layer["proc.cpu_s"] = usage.ru_utime + usage.ru_stime
                layer["trace.overhead_s"] = wall_t - wall_u
                # Outside cli.main the child only starts, imports and exits (its
                # set-up); inside, what no layer span covers is main's self time.
                layer["trace.coverage"] = 1.0 - self_times(trace["spans"])["cli.main"] / wall_t
                errors += self.identities(trace["counters"], layer)
                pairs.append(layer)
            self.fail(f"traced{index}", errors)
            index += 1
        self.note(f"{len(pairs)} of {index} traced/untraced pairs usable")
        if not pairs:
            self.errors.append("no traced run completed")
            return {}
        return {name: statistics.median_low(p[name] for p in pairs) for name in pairs[0]}

    def identities(self, counters, layer):
        c = lambda name: counters.get(name, 0)
        errors = []
        if c("forward.large_outbreaks") + c("forward.minor_outbreaks") != c("forward.replicates"):
            errors.append("large + minor outbreaks != replicates")
        if self.workload == "bp-estimate" and c("branching.capped_runs") != 0:
            errors.append("capped branching runs on bp-estimate")
        if c("backward.explored") > c("backward.roots") * self.n:
            errors.append("explored more than roots x n vertices")
        if (self.workload == "simulate-eager"
                and c("kernels.dijkstra_calls") != c("forward.replicates")):
            errors.append("dijkstra calls != replicates")
        if layer["trace.coverage"] < 0.85:
            errors.append(f"layers and set-up cover {layer['trace.coverage']:.1%} < 85% of wall")
        return errors

    def note(self, text):
        print(f"[{self.workload} seed={self.seed}] {text}", flush=True)


def fmt(values):
    return "[" + " ".join(f"{v:.3f}" for v in values) + "]"


def same_files(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def self_times(spans):
    """Per span name: sum of duration minus the durations of direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def layer_metrics(spans, counters):
    t = self_times(spans)
    c = counters
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "cli.import_s": t.get("cli.import", 0.0),
        "config.load_s": t.get("config.load", 0.0),
        "cli.csv_write_s": t.get("cli.csv_write", 0.0),
        "cli.csv_bytes": c.get("cli.csv_bytes", 0),
        "graph.build_s": t.get("graph.build", 0.0),
        "graph.build_calls": c.get("graph.build_calls", 0),
        "graph.edges": c.get("graph.edges", 0),
        "graph.edges_per_s": ratio(c.get("graph.edges", 0), t.get("graph.build", 0.0)),
        "graph.reverse_csr_s": t.get("graph.reverse_csr", 0.0),
        "kernels.dijkstra_s": t.get("kernels.dijkstra", 0.0),
        "kernels.dijkstra_calls": c.get("kernels.dijkstra_calls", 0),
        "kernels.settled": c.get("kernels.settled", 0),
        "kernels.settled_per_s": ratio(c.get("kernels.settled", 0),
                                        t.get("kernels.dijkstra", 0.0)),
        "forward.replicate_self_s": t.get("forward.replicate", 0.0),
        "forward.lazy_s": t.get("forward.lazy", 0.0),
        "forward.lazy_infected": c.get("forward.lazy_infected", 0),
        "forward.replicates": c.get("forward.replicates", 0),
        "forward.large_outbreaks": c.get("forward.large_outbreaks", 0),
        "forward.large_frac": ratio(c.get("forward.large_outbreaks", 0),
                                    c.get("forward.replicates", 0)),
        "backward.explore_s": t.get("backward.explore", 0.0),
        "backward.explored": c.get("backward.explored", 0),
        "backward.collisions": c.get("backward.collisions", 0),
        "backward.restricted_s": t.get("backward.restricted", 0.0),
        "backward.restricted_visited": c.get("backward.restricted_visited", 0),
        "branching.simulate_s": t.get("branching.simulate", 0.0),
        "branching.particles": c.get("branching.particles", 0),
        "branching.particles_per_s": ratio(c.get("branching.particles", 0),
                                           t.get("branching.simulate", 0.0)),
        "branching.capped_runs": c.get("branching.capped_runs", 0),
        "branching.zero_w_frac": ratio(c.get("branching.zero_w", 0),
                                       c.get("branching.subtrees", 0)),
        "branching.malthusian_s": t.get("branching.malthusian", 0.0),
        "analytic.r0_calls": c.get("analytic.r0_calls", 0),
        "analytic.r0_s": t.get("analytic.r0", 0.0),
        "analytic.extinction_s": t.get("analytic.extinction", 0.0),
    }


# --------------------------------------------------------------------------
# provenance and reporting
# --------------------------------------------------------------------------

def provenance(run):
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {var: "1" for var in THREAD_VARS}, "seed": run.seed, **run.versions}
    # The checkout a benchmark runs in need not be a git repository, so the
    # sources are also identified by their digest.
    info["git_sha"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        info["git_sha"] = git.stdout.strip() or None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "infector"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    info["src_sha256"] = digest.hexdigest()
    return info


def run_workload(spec, workload, seed, seconds, trace, scale):
    """One run; returns (the result object that ends the output, provenance)."""
    run = Run(workload, seed, seconds, scale)
    try:
        values = run.traced() if trace else run.untraced()
        info = provenance(run)
        run.note("provenance " + json.dumps(info, sort_keys=True))
        ok, message = reference_check(run.estimates)
        if ok is not None:
            run.note(message)
        if ok is False:
            run.errors.append("rho_1_1 is off the reference")
    finally:
        run.close()
    for error in run.errors:
        run.note("FAIL " + error)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[kind]}
    for name, m in metrics.items():
        run.note(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; write .bench_out/all.json")
    parser.add_argument("--smoke", action="store_true",
                        help="like --all at a tiny size, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "infector", "cli.py")):
        print(f"error: no infector sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not (args.all or args.smoke):
        if args.workload is None:
            parser.error("--workload is required without --all or --smoke")
        result, _ = run_workload(spec, args.workload, args.seed, args.seconds, args.trace,
                                 "full")
        print(json.dumps(result))
        return 0

    scale, seconds = ("smoke", 0) if args.smoke else ("full", args.seconds)
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, info = run_workload(spec, workload, args.seed, seconds, trace, scale)
            results[f"{workload} trace={trace}"] = {"result": result, "provenance": info}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "all.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    bad = [key for key, r in results.items() if not r["result"]["correct"]]
    print(json.dumps({"correct": not bad, "failed_runs": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
