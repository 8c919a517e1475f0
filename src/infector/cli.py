"""Command line interface.

Subcommands: simulate, backward, bp-estimate, bounds, verify, sweep.
Scenarios are JSON files (see README for the schema); outputs are CSV
with header rows and 17-significant-digit reals.  Every output embeds
the config hash and seed; existing files are never overwritten without
--force.  ``main`` loads the config, writes ``--seed`` into it and opens
every output a subcommand declares before any work, so a bad config or an
existing output exits 2 with nothing written.  Exit status: 0 all
verdicts pass, 1 verdict failure, 2 usage, configuration or path error,
3 numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import rng as rngmod
from .analytic import AnalyticReport, analytic_report, fixed_point_q, r0
from .backward import (
    default_t_star,
    explore_susceptibility,
    restricted_susceptibility_size,
)
from .branching import estimate_rho_bp, solve_malthusian
from .config import (
    MarkedSingleProcess,
    ModelConfig,
    config_to_dict,
    load_config,
    mean_matrix,
    validate_config,
)
from .errors import ConfigError, DomainError, InfectorError, NoDataError
from .graph import build_graph

__all__ = ["main"]

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Columns of bounds.csv and sweep.csv: the model inputs, then the report's outputs.
_REPORT_COLUMNS = [f.name for f in fields(AnalyticReport)]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _config_hash(config: ModelConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class CsvWriter:
    """CSV emission with provenance header lines and overwrite protection."""

    def __init__(self, path: str, force: bool, no_timestamp: bool,
                 config_hash: str = "", seed: int = 0):
        if os.path.exists(path) and not force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force")
        self.path = path
        self.no_timestamp = no_timestamp
        self.config_hash = config_hash
        self.seed = seed

    def write(self, header, rows) -> None:
        with open(self.path, "w") as fh:
            fh.write(f"# config_hash={self.config_hash} seed={self.seed}\n")
            if not self.no_timestamp:
                stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
                fh.write(f"# timestamp={stamp}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")


def _load_valid_config(path: str) -> ModelConfig:
    config = load_config(path)
    violations = validate_config(config)
    if violations:
        raise ConfigError("; ".join(str(v) for v in violations))
    return config


def _marked_params(config: ModelConfig):
    """(p1, m1_tilde, m2_tilde) when the kernel is a two-type marked one, else None."""
    kern = config.kernel
    if not isinstance(kern, MarkedSingleProcess) or kern.k != 2:
        return None
    m1, m2 = (float(rate * d.mean()) for rate, d in zip(kern.total_rates, kern.infectious))
    return float(config.population.proportions[0]), m1, m2


# --------------------------------------------------------------------------
# subcommands: cmd_x(args, config, out) computes and writes; ``out``
# maps each declared output name to its CsvWriter.  ``config.seed`` is
# the run's seed, and every stream derives from it.
# --------------------------------------------------------------------------

def cmd_simulate(args, config, out) -> int:
    from .forward import aggregate_rho, replicate_records  # loads scipy.sparse

    records = replicate_records(
        config, args.replicates, threshold=args.threshold,
        method=args.method, threads=args.threads,
    )
    k = config.k
    rho_cols = [f"rho_{i}_{j}" for i in range(1, k + 1) for j in range(1, k + 1)]
    header = ["replicate", "large_outbreak", "final_fraction"] + rho_cols
    rows = [
        [rec["replicate"], rec["large_outbreak"], rec["final_fraction"]]
        + list(rec["rho"].ravel())
        for rec in records
    ]
    out["replicates.csv"].write(header, rows)

    sum_header = ["statistic"] + rho_cols + ["replicates_used", "replicates_total"]
    try:
        est = aggregate_rho(records)
    except NoDataError:
        used = 0
        sum_rows = [["mean"] + [np.nan] * (k * k) + [0, args.replicates]]
    else:
        used = est.replicates_used
        sum_rows = [["mean"] + list(est.mean.ravel()) + [used, args.replicates],
                    ["stderr"] + list(est.stderr.ravel()) + [used, args.replicates]]
    out["summary.csv"].write(sum_header, sum_rows)
    print(f"wrote {args.replicates} replicates ({used} large outbreaks) "
          f"to {args.output_dir}")
    return EXIT_PASS


def cmd_backward(args, config, out) -> int:
    pop = config.population
    if args.roots is not None:
        try:
            roots = [int(v) for v in args.roots.split(",")]
        except ValueError:
            raise DomainError(f"--roots takes comma-separated integers: {args.roots!r}") from None
    elif args.roots_per_type < 0:
        raise DomainError("--roots-per-type must be >= 0")
    else:
        rng = rngmod.stream(config.seed, "backward-roots")
        roots = []
        for j0 in range(pop.k):
            ids = pop.vertices_of_type(j0)
            pick = rng.choice(ids, size=min(args.roots_per_type, len(ids)),
                              replace=False)
            roots.extend(int(v) for v in np.sort(pick))
    if args.t_star is not None:
        t_star = args.t_star
    else:
        alpha = solve_malthusian(config).alpha
        t_star = default_t_star(pop.n, alpha, kappa=args.kappa)
    graph = build_graph(config)

    rows = []
    for v in roots:
        snap = explore_susceptibility(graph, v, t_star)
        rows.append([v, int(pop.type_of(v)) + 1, len(snap.explored), None,
                     snap.collision_count, snap.flagged])
    # The graph keeps one restricted view at a time, so the sizes are taken
    # grouped by root type; the rows stay in input order.
    for row in sorted(rows, key=lambda row: row[1]):
        v, j = row[:2]
        row[3] = restricted_susceptibility_size(graph, v, j, j).y
    header = ["root", "root_type", "explored", "restricted_size",
              "collisions", "flagged"]
    out["backward.csv"].write(header, rows)
    print(f"explored {len(roots)} roots at t_star={t_star:.6g}")
    return EXIT_PASS


def cmd_bp_estimate(args, config, out) -> int:
    rho, stderr, contrib = estimate_rho_bp(
        config, args.type, args.replicates, horizon=args.horizon,
        cap=args.cap, details=True,
    )
    k = config.k
    header = ["replicate"] + [f"share_{i}" for i in range(1, k + 1)]
    rows = [[r] + list(contrib[r]) for r in range(args.replicates)]
    out["bp_replicates.csv"].write(header, rows)
    sum_header = (["target_type"]
                  + [f"rho_{i}_{args.type}" for i in range(1, k + 1)]
                  + [f"stderr_{i}" for i in range(1, k + 1)])
    out["bp_summary.csv"].write(sum_header, [[args.type] + list(rho) + list(stderr)])
    shown = ", ".join(f"rho_{i + 1}{args.type}={rho[i]:.4f}" for i in range(k))
    print(shown)
    return EXIT_PASS


def cmd_bounds(args, config, out) -> int:
    if config is not None:
        params = _marked_params(config)
        if params is None:
            raise ConfigError("bounds require a two-type marked_single kernel")
    elif None in (args.p1, args.m1, args.m2):
        raise ConfigError("bounds need either --config or all of --p1 --m1 --m2")
    else:
        params = args.p1, args.m1, args.m2
    p1, m1, m2 = params
    report = analytic_report(p1, m1, m2)
    width = max(len(name) for name, _ in report.rows())
    print(f"{'p1':<{width}}  {p1:.6g}")
    print(f"{'m1_tilde':<{width}}  {m1:.6g}")
    print(f"{'m2_tilde':<{width}}  {m2:.6g}")
    for name, value in report.rows():
        print(f"{name:<{width}}  {value:.12g}")
    if out:
        out["bounds.csv"].write(_REPORT_COLUMNS, [astuple(report)])
    return EXIT_PASS


def cmd_verify(args, config, out) -> int:
    from .forward import replicate_rho  # loads scipy.sparse

    if not (np.isfinite(args.slack) and args.slack >= 0):  # also rejects NaN
        raise DomainError(f"--slack must be finite and >= 0, got {args.slack}")
    sol = solve_malthusian(config)  # refuses R0 <= 1
    fp = fixed_point_q(r0(mean_matrix(config)))
    checks = [("fixed-point-residual", 0.0, fp.residual, 1e-12, fp.residual < 1e-12),
              ("malthusian-residual", 0.0, sol.residual, 1e-10, sol.residual < 1e-10)]

    est = replicate_rho(config, args.replicates, threshold=args.threshold,
                        threads=args.threads)
    col_err = float(np.nanmax(np.abs(np.nansum(est.mean, axis=0) - 1.0)))
    checks.append(("attribution-columns-sum", 1.0, 1.0 + col_err, 1e-12,
                   col_err < 1e-12))

    params = _marked_params(config)
    if params is not None:
        report = analytic_report(*params)
        rho1 = float(np.nanmean(est.mean[0]))
        checks.append(("sandwich-lower", report.rho1_minus, rho1, args.slack,
                       rho1 >= report.rho1_minus - args.slack))
        checks.append(("sandwich-upper", report.rho1_plus, rho1, args.slack,
                       rho1 <= report.rho1_plus + args.slack))

    header = ["check", "target", "measured", "tolerance", "verdict"]
    rows = [[name, target, measured, tol, "pass" if ok else "fail"]
            for name, target, measured, tol, ok in checks]
    for name, target, measured, tol, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: measured {measured:.6g} "
              f"(target {target:.6g}, tol {tol:.3g})")
    out["verify.csv"].write(header, rows)
    return EXIT_PASS if all(ok for *_, ok in checks) else EXIT_VERDICT


def _grid(text: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def cmd_sweep(args, config, out) -> int:
    n_outputs = len(_REPORT_COLUMNS) - 3
    rows = []
    for p1 in args.p1_grid:
        for m1 in args.m1_grid:
            for m2 in args.m2_grid:
                try:
                    rows.append([*astuple(analytic_report(p1, m1, m2)), ""])
                except InfectorError as exc:
                    rows.append([p1, m1, m2] + [np.nan] * n_outputs
                                + [type(exc).__name__])
    out["sweep.csv"].write(_REPORT_COLUMNS + ["error"], rows)
    print(f"wrote {len(rows)} grid points to {out['sweep.csv'].path}")
    return EXIT_PASS


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", required=True, help="JSON scenario file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--output-dir", default="out", help="output directory")
    sub.add_argument("--force", action="store_true",
                     help="overwrite existing output files")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="suppress the timestamp header line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infector",
        description="Epidemic attribution: who is the infector?",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("simulate", help="forward epidemic replicates")
    _add_common(s)
    s.add_argument("--replicates", type=int, required=True)
    s.add_argument("--threshold", type=float, default=0.05)
    s.add_argument("--method", choices=["eager", "lazy"], default="eager",
                   help="reveal budget of the seeded build: eager draws every "
                        "contact list once an outbreak passes a few; lazy draws "
                        "only the infected vertices' lists (same law, different draws)")
    s.add_argument("--threads", type=int, default=1)
    s.set_defaults(func=cmd_simulate, outputs=("replicates.csv", "summary.csv"))

    s = sub.add_parser("backward", help="susceptibility-set exploration")
    _add_common(s)
    s.add_argument("--roots", default=None,
                   help="comma-separated explicit root ids")
    s.add_argument("--roots-per-type", type=int, default=10)
    s.add_argument("--t-star", type=float, default=None)
    s.add_argument("--kappa", type=float, default=0.5)
    s.set_defaults(func=cmd_backward, outputs=("backward.csv",))

    s = sub.add_parser("bp-estimate", help="branching-process attribution")
    _add_common(s)
    s.add_argument("--type", type=int, required=True, help="target type j")
    s.add_argument("--replicates", type=int, required=True)
    s.add_argument("--horizon", type=float, default=None,
                   help="default 12/alpha")
    s.add_argument("--cap", type=int, default=1_000_000)
    s.set_defaults(func=cmd_bp_estimate, outputs=("bp_replicates.csv", "bp_summary.csv"))

    s = sub.add_parser("bounds", help="analytic fixed points and bounds")
    s.add_argument("--config", default=None, help="JSON scenario file")
    s.add_argument("--p1", type=float, default=None)
    s.add_argument("--m1", type=float, default=None)
    s.add_argument("--m2", type=float, default=None)
    s.add_argument("--output-dir", default=None,
                   help="also write bounds.csv here")
    s.add_argument("--force", action="store_true")
    s.add_argument("--no-timestamp", action="store_true")
    s.set_defaults(func=cmd_bounds, outputs=("bounds.csv",))

    s = sub.add_parser("verify", help="cross-validation check suite")
    _add_common(s)
    s.add_argument("--replicates", type=int, default=50)
    s.add_argument("--threshold", type=float, default=0.05)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--slack", type=float, default=0.02,
                   help="statistical slack for bound checks")
    s.set_defaults(func=cmd_verify, outputs=("verify.csv",))

    s = sub.add_parser("sweep", help="analytic report over a parameter grid")
    s.add_argument("--output-dir", default="out")
    s.add_argument("--force", action="store_true")
    s.add_argument("--no-timestamp", action="store_true")
    s.add_argument("--p1-grid", type=_grid, required=True,
                   help="comma-separated p1 values")
    s.add_argument("--m1-grid", type=_grid, required=True)
    s.add_argument("--m2-grid", type=_grid, required=True)
    s.set_defaults(func=cmd_sweep, outputs=("sweep.csv",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # Everything that can refuse the run happens here, before any work.
        config = _load_valid_config(args.config) if getattr(args, "config", None) else None
        chash = _config_hash(config) if config else ""  # of the file, before --seed
        if getattr(args, "seed", None) is not None:  # only set where --config is required
            config = replace(config, seed=args.seed)
        out = {}
        if args.output_dir is not None:  # only bounds may have no output directory
            os.makedirs(args.output_dir, exist_ok=True)
            out = {name: CsvWriter(os.path.join(args.output_dir, name), args.force,
                                   args.no_timestamp, chash, config.seed if config else 0)
                   for name in args.outputs}
        return args.func(args, config, out)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfectorError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
