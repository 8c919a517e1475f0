"""Traced run of one ``infector`` CLI command, for per-layer metrics.

Usage: python traced.py SPANS_JSON -- <infector argv...>

Imports ``infector.cli``, replaces each layer function at the module
global its caller looks it up through with a timing wrapper, runs
``infector.cli.main(argv)`` in this process and writes the spans and
counters to SPANS_JSON.  Spans stay in memory until the command ends.
The wrappers only observe: outputs are byte-identical to an untraced
run, which run.py checks.
"""

import functools
import json
import os
import sys
import time


class Tracer:
    """Spans as (name, start, end, parent index) plus named counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``count(tracer, result, args, kwargs)`` updates counters from a
        call's result after the span has closed, so counting is not
        charged to the layer.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, out, args, kwargs)
            return out

        setattr(owner, attr, wrapper)


def _count_build(tr, graph, args, kwargs):
    tr.add("graph.build_calls", 1)
    tr.add("graph.edges", graph.num_edges)


def _count_dijkstra(tr, out, args, kwargs):
    import numpy as np

    tr.add("kernels.dijkstra_calls", 1)
    tr.add("kernels.settled", int(np.isfinite(out[0]).sum()))


def _count_lazy(tr, result, args, kwargs):
    tr.add("forward.lazy_infected", result.total_infected)


def _count_replicate(tr, record, args, kwargs):
    tr.add("forward.replicates", 1)


def _count_outbreak(tr, large, args, kwargs):
    tr.add("forward.large_outbreaks" if large else "forward.minor_outbreaks", 1)


def _count_explore(tr, snap, args, kwargs):
    tr.add("backward.roots", 1)
    tr.add("backward.explored", len(snap.explored))
    tr.add("backward.collisions", snap.collision_count)


def _count_restricted(tr, out, args, kwargs):
    tr.add("backward.restricted_visited", out.y)


def _count_batch(tr, out, args, kwargs):
    # Same zero-W rule as estimate_rho_bp: no growth, or no birth in the
    # second half of the horizon.
    sizes, last_birth, capped = out
    horizon = kwargs["horizon"] if "horizon" in kwargs else args[2]
    tr.add("branching.subtrees", len(sizes))
    tr.add("branching.particles", int(sizes.sum()))
    tr.add("branching.capped_runs", int(capped.sum()))
    tr.add("branching.zero_w", int(((sizes <= 1) | (last_birth < horizon / 2.0)).sum()))


def _count_r0(tr, out, args, kwargs):
    tr.add("analytic.r0_calls", 1)


def _count_csv(tr, out, args, kwargs):
    tr.add("cli.csv_bytes", os.path.getsize(args[0].path))


def install(tr):
    """Wrap every layer at the call sites the CLI subcommands reach."""
    import infector.analytic
    import infector.branching
    import infector.cli
    import infector.forward
    import infector.graph

    cli, fwd, br = infector.cli, infector.forward, infector.branching
    tr.wrap(cli, "load_config", "config.load")
    tr.wrap(cli, "validate_config", "config.load")
    tr.wrap(cli.CsvWriter, "write", "cli.csv_write", _count_csv)
    tr.wrap(cli, "build_graph", "graph.build", _count_build)
    tr.wrap(fwd, "build_graph", "graph.build", _count_build)
    tr.wrap(infector.graph.EpidemicGraph, "reverse_csr", "graph.reverse_csr")
    tr.wrap(fwd, "dijkstra", "kernels.dijkstra", _count_dijkstra)
    tr.wrap(fwd, "run_epidemic_lazy", "forward.lazy", _count_lazy)
    tr.wrap(fwd, "_one_replicate", "forward.replicate", _count_replicate)
    tr.wrap(fwd, "is_large_outbreak", "forward.classify", _count_outbreak)
    tr.wrap(cli, "explore_susceptibility", "backward.explore", _count_explore)
    tr.wrap(cli, "restricted_susceptibility_size", "backward.restricted",
            _count_restricted)
    tr.wrap(br, "_simulate_batch", "branching.simulate", _count_batch)
    tr.wrap(cli, "solve_malthusian", "branching.malthusian")
    tr.wrap(br, "solve_malthusian", "branching.malthusian")
    for owner in (cli, br, infector.analytic):
        tr.wrap(owner, "r0", "analytic.r0", _count_r0)
    tr.wrap(br, "extinction_probs", "analytic.extinction")


def main():
    out_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tr = Tracer()
    idx = tr.open("cli.import")
    import infector.cli

    tr.close(idx)
    install(tr)
    # The self time of cli.main is the command's time outside every layer.
    idx = tr.open("cli.main")
    rc = infector.cli.main(argv)
    tr.close(idx)
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "spans": tr.spans, "counters": tr.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
