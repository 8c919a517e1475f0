import ast
import dataclasses
import hashlib
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import infector
import infector.cli
import infector.graph
from infector import forward
from infector.analytic import analytic_report
from infector.backward import explore_susceptibility, restricted_susceptibility_size
from infector.cli import main
from infector.config import config_from_dict, config_to_dict
from infector.graph import EpidemicGraph, build_graph
from infector.rng import stream

from conftest import (
    extremal_config,
    marked_config,
    readme_config,
    readme_scenario,
    single_type_config,
    symmetric_marked_config,
)


def _write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def _read_csv(path):
    """(comment-lines, header, rows) of one output file."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def _child_stdout(code, *argv):
    """Stdout of ``python -c code argv...`` in a fresh interpreter importing this infector."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(infector.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_skips_scipy_stats_and_integrate():
    # each costs a large share of the CLI's start-up; the package reaches
    # scipy.integrate only inside eta_cdf, scipy.special only inside the
    # gamma-period and analytic functions that need it, and scipy.stats
    # not at all
    code = ("import sys, infector.cli; print([m for m in "
            "('scipy.stats', 'scipy.integrate', 'scipy.special') if m in sys.modules])")
    assert _child_stdout(code) == "[]"


@pytest.mark.parametrize("module", ["infector.cli", "infector"])
def test_import_loads_no_scipy(module):
    # the README promises that importing the CLI loads numpy only; every
    # command's start-up time rests on it
    code = f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _child_stdout(code) == "[]"


def test_cli_loads_scipy_sparse_only_where_a_graph_is_searched(tmp_path):
    # bp-estimate and bounds never search a graph, so neither they nor
    # the CLI's import load the sparse-graph stack
    bp = _write_config(tmp_path, config_from_dict(readme_scenario(400)), "bp.json")
    marked = _write_config(tmp_path, marked_config(400, 0.4, 3.0, 2.0), "marked.json")
    code = (
        "import sys, infector.cli as c\n"
        "loaded = lambda: [m for m in ('scipy.sparse', 'infector.forward', 'infector._kernels')"
        " if m in sys.modules]\n"
        "print(loaded())\n"
        "a, b, o = sys.argv[1:]\n"
        "assert c.main(['bp-estimate', '--config', a, '--type', '1', '--replicates', '20',"
        " '--horizon', '4', '--output-dir', o + '/bp']) == 0\n"
        "assert c.main(['bounds', '--config', b, '--output-dir', o + '/bounds']) == 0\n"
        "print(loaded())\n"
        "import infector\n"  # a forward name loads forward on first use
        "print(infector.replicate_rho is sys.modules['infector.forward'].replicate_rho)\n"
    )
    lines = _child_stdout(code, bp, marked, str(tmp_path)).splitlines()
    assert lines[0] == "[]" and lines[-2] == "[]" and lines[-1] == "True"
    assert (tmp_path / "bp" / "bp_replicates.csv").exists()


def test_kernels_import_loads_csgraph():
    # the benchmark's set-up child imports infector._kernels to pay the
    # csgraph import outside the timed forward and backward commands
    code = "import sys, infector._kernels; print('scipy.sparse.csgraph' in sys.modules)"
    assert _child_stdout(code) == "True"


@pytest.mark.parametrize("name", forward.__all__)
def test_package_serves_forward_names_lazily(name):
    assert getattr(infector, name) is getattr(forward, name)


@pytest.mark.parametrize("module", ["analytic", "backward", "branching", "config", "errors",
                                    "graph", "rng"])
def test_package_serves_every_public_name(module):
    mod = importlib.import_module(f"infector.{module}")
    assert [name for name in mod.__all__
            if getattr(infector, name, None) is not getattr(mod, name)] == []


def test_readme_commands_parse():
    # every documented command line must still parse: a renamed or removed
    # flag fails here rather than in the docs
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        lines = [line for line in fh if line.startswith("infector ")]
    parser = infector.cli.build_parser()
    parsed = {parser.parse_args(shlex.split(line)[1:]).subcommand for line in lines}
    assert parsed == {"simulate", "backward", "bp-estimate", "bounds", "verify", "sweep"}


def test_package_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        infector.no_such_name


def _package_trees():
    """(file name, parsed module) of each source file of the package."""
    package = os.path.dirname(os.path.abspath(infector.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                yield name, ast.parse(fh.read())


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("infector")):
                offenders += [f"{name}: {node.module}.{alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_no_unused_imports_in_src():
    # every name an import binds is referenced in its module or listed in
    # its __all__; __future__ and star imports bind no checkable name
    unused = []
    for name, tree in _package_trees():
        bound, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names
                             if alias.name != "*")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{name}: {b}" for b in sorted(bound - used)]
    assert unused == []


def test_no_unreferenced_private_names_in_src():
    # every module-level private function, class or constant is used
    # somewhere in the package, so a deleted path leaves nothing behind
    defined, used = [], set()
    for name, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            defined += [(name, t) for t in targets if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert ("graph.py", "_REVEAL") in defined
    assert [f"{name}: {t}" for name, t in defined if t not in used] == []


def test_missing_config_file(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--replicates", "1", "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def _edited(keys, value, cfg=None):
    """JSON text of a valid two-type config (marked by default) with one field replaced."""
    d = config_to_dict(cfg or marked_config(2000, 0.4, 3.0, 2.0))
    node = d
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(d)


@pytest.mark.parametrize("text", [
    pytest.param('{"population": {"n": 10}}', id="missing-fields"),
    pytest.param('{"population": ', id="invalid-json"),
    pytest.param("[1, 2]", id="top-level-list"),
    pytest.param(_edited(("kernel", "infectious", 0, "rate"), "x"), id="rate-x"),
    pytest.param(_edited(("seed",), "abc"), id="seed-abc"),
    pytest.param(_edited(("initial_infecteds",), {"per_type": [[1, 3]]}), id="per-type-3"),
    pytest.param(_edited(("population", "n"), 2000.7), id="n-2000.7"),
])
def test_malformed_config(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["simulate", "--config", str(path), "--replicates", "1",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("keys, value, field, cfg", [
    (("population", "counts"), [800.5, 1199.5], "population.counts", None),
    (("initial_infecteds",), {"vertices": [0.9]}, "initial_infecteds.vertices", None),
    (("initial_infecteds",), {"per_type": [[1.5, 1]]}, "initial_infecteds.per_type", None),
    (("initial_infecteds",), {"per_type": [[True, 1]]}, "initial_infecteds.per_type", None),
    (("initial_infecteds",), {"per_type": [[1, True]]}, "initial_infecteds.per_type", None),
    (("seed",), True, "seed", None),
    (("kernel", "fast_pair"), [1.5, 1], "fast_pair", extremal_config(2000)),
    (("kernel", "fast_pair"), [True, 2], "fast_pair", extremal_config(2000)),
    (("population", "n"), 0, "population.n", None),
    (("population", "counts"), [2**63, 1000], "population.counts", None),
    (("initial_infecteds",), {"vertices": [2**63]}, "initial_infecteds.vertices", None),
], ids=["counts", "vertices", "per-type", "per-type-true", "per-type-type-true", "seed-true",
        "fast-pair-1.5", "fast-pair-true", "n-0", "counts-2**63", "vertices-2**63"])
def test_non_integer_config_field_named(tmp_path, capsys, keys, value, field, cfg):
    # once silently truncated or read as 1: counts [800, 1199] then failed on
    # their sum, fast_pair [1.5, 1] loaded as (1, 1) and "seed": true as 1;
    # n = 0 and the 2**63 entries ended in a traceback with exit 1
    path = tmp_path / "bad.json"
    path.write_text(_edited(keys, value, cfg))
    rc = main(["simulate", "--config", str(path), "--replicates", "1",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and field in err


@pytest.mark.parametrize("keys, value, field, cfg", [
    (("kernel", "infectious", 0, "rate"), True, "kernel.infectious.rate", None),
    (("kernel", "latent", 1, "value"), "0", "kernel.latent.value", None),
    (("population", "proportions"), [0.4, True], "population.proportions", None),
    (("population", "proportions"), ["0.4", 0.6], "population.proportions", None),
    (("kernel", "total_rates"), [3.0, True], "kernel.total_rates", None),
    (("kernel", "contact_rates"), [[3.0, 1.5], [True, 2.5]], "kernel.contact_rates",
     readme_config(2000)),
    (("kernel", "base", "total_rates"), ["3", 2.0], "kernel.total_rates",
     extremal_config(2000)),
], ids=["rate-true", "latent-str", "proportions-true", "proportions-str", "total-rates-true",
        "contact-rates-true", "extremal-base-str"])
def test_non_numeric_real_config_field_named(tmp_path, capsys, keys, value, field, cfg):
    # "rate": true once loaded as 1.0 and a string as its parsed number,
    # and simulate exited 0 on either
    path = tmp_path / "bad.json"
    path.write_text(_edited(keys, value, cfg))
    rc = main(["simulate", "--config", str(path), "--replicates", "1",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and field in err


# Each leaf of the fuzzed config is replaced by each of these, or deleted.
_FUZZ_VALUES = [True, False, "x", None, [], {}, math.nan, math.inf, -math.inf, -1, 0, 1.5,
                1e308, 2**70]
_DELETE = object()


def _leaves(node, keys=()):
    """Key paths to every non-container value of a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, keys + (key,))
    else:
        yield keys


def test_config_fuzz_single_mutations_exit_cleanly(tmp_path, capsys):
    # every single-leaf mutation of the README config at n = 200, through
    # every subcommand that takes a config and both simulate methods, and
    # of the symmetric marked and extremal configs through both simulate
    # methods: each run ends with a mapped exit code, no exception escapes
    # main, and a usage error prints exactly one error: line
    path, out = tmp_path / "fuzz.json", ["--output-dir", str(tmp_path / "o"), "--force"]
    bounds = ("bounds", ["bounds"])
    simulate = ("simulate", ["simulate", "--replicates", "1"] + out)
    lazy = ("lazy", ["simulate", "--method", "lazy", "--replicates", "1"] + out)
    bp = ("bp-estimate",
          ["bp-estimate", "--type", "1", "--replicates", "2", "--horizon", "2"] + out)
    backward = ("backward", ["backward", "--roots-per-type", "1", "--t-star", "1"] + out)
    verify = ("verify", ["verify", "--replicates", "1"] + out)
    cases = [("readme", readme_scenario(200), [bounds, simulate, bp, backward, verify, lazy]),
             ("marked", config_to_dict(symmetric_marked_config(200)), [simulate, lazy]),
             ("extremal", config_to_dict(extremal_config(200)), [simulate, lazy])]
    bad, runs, reached = [], 0, set()
    for name, base, commands in cases:
        for keys in list(_leaves(base)):
            for value in _FUZZ_VALUES + [_DELETE]:
                d = json.loads(json.dumps(base))
                node = d
                for key in keys[:-1]:
                    node = node[key]
                if value is _DELETE:
                    del node[keys[-1]]
                else:
                    node[keys[-1]] = value
                path.write_text(json.dumps(d))
                for label, argv in commands:
                    runs += 1
                    try:
                        rc = main(argv + ["--config", str(path)])
                    except Exception as exc:  # an escape is a finding, not a crash of the sweep
                        rc = repr(exc)
                    err = capsys.readouterr().err
                    reached.add((name, label, rc))
                    if rc not in (0, 1, 2, 3) or (
                            rc == 2 and not (err.count("\n") == 1 and err.startswith("error:"))):
                        bad.append((name, keys, "delete" if value is _DELETE else value,
                                    label, rc, err))
    assert runs == (21 * 6 + 18 * 2 + 21 * 2) * 15
    assert not bad, bad[:10]
    # bounds refuses every markov_seir kernel; the other runs do real work
    assert {("readme", "simulate", 0), ("readme", "bp-estimate", 0), ("readme", "backward", 0),
            ("readme", "verify", 0), ("readme", "lazy", 0), ("marked", "simulate", 0),
            ("marked", "lazy", 0), ("extremal", "simulate", 0), ("extremal", "lazy", 0)} <= reached


# A passing small run per subcommand on the README kernel at n = 500, and the
# flags whose values the flag fuzzer replaces one at a time.
_FLAG_RUNS = {
    "simulate": (["simulate", "--replicates", "2"], ["--replicates", "--threshold", "--threads"]),
    "verify": (["verify", "--replicates", "2"],
               ["--replicates", "--threshold", "--threads", "--slack"]),
    "backward": (["backward", "--roots-per-type", "1"],
                 ["--roots-per-type", "--t-star", "--kappa", "--roots"]),
    "bp-estimate": (["bp-estimate", "--type", "1", "--replicates", "2", "--horizon", "3"],
                    ["--type", "--replicates", "--horizon", "--cap"]),
    "bounds": (["bounds", "--p1", "0.5", "--m1", "2", "--m2", "2"], ["--p1", "--m1", "--m2"]),
    "sweep": (["sweep", "--p1-grid", "0.5", "--m1-grid", "2", "--m2-grid", "2"],
              ["--p1-grid"]),
}
_FLAG_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", str(2**63), "1.5", "true", ""]


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command, (_, flags) in _FLAG_RUNS.items() for flag in flags
    for value in _FLAG_VALUES
    # a legal replicate count whose work has no bound
    if not (command in ("simulate", "verify") and flag == "--replicates" and value == str(2**63))])
def test_cli_flag_fuzz_exits_cleanly(tmp_path, capsys, command, flag, value):
    # each run ends with a mapped exit code and no exception escapes main; a
    # refusal ends with exactly one error line, after argparse's usage lines
    argv, _ = _FLAG_RUNS[command]
    argv = argv + [f"{flag}={value}", "--output-dir", str(tmp_path / "o")]
    if command not in ("bounds", "sweep"):
        argv += ["--config", str(tmp_path / "readme.json")]
        (tmp_path / "readme.json").write_text(json.dumps(readme_scenario(500)))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc in (2, 3):
        lines = err.splitlines()
        said = [line for line in lines if "error:" in line or line.startswith(
            ("numeric failure:", "out of memory:"))]
        assert said == lines[-1:], err
        assert all(line.startswith(("usage:", " ")) for line in lines[:-1]), err


@pytest.mark.parametrize("value", [1e308, 2**70], ids=["1e308", "2**70"])
@pytest.mark.parametrize("command", [["simulate", "--replicates", "4"],
                                     ["bp-estimate", "--type", "1", "--replicates", "2",
                                      "--horizon", "2"]], ids=["simulate", "bp-estimate"])
def test_unresolvable_latent_period_is_usage_error(tmp_path, capsys, value, command):
    # contact times L + U * I all round to L: simulate once exited 3 with
    # "resample with a new seed", which no seed can satisfy
    path = tmp_path / "latent.json"
    scenario = readme_scenario(200)
    scenario["kernel"]["latent"][0]["value"] = value
    path.write_text(json.dumps(scenario))
    rc = main(command + ["--config", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "latent[0]" in err


@pytest.mark.parametrize("case", ["config-is-dir", "output-dir-is-file",
                                  "grid-a", "grid-comma", "sweep-seed"])
def test_bad_paths_and_grids_are_usage_errors(tmp_path, capsys, case):
    cfg = _write_config(tmp_path, single_type_config(n=50))
    (tmp_path / "file").write_text("")
    argv = {
        "config-is-dir": ["simulate", "--config", str(tmp_path), "--replicates", "1",
                          "--output-dir", str(tmp_path / "o")],
        "output-dir-is-file": ["simulate", "--config", cfg, "--replicates", "1",
                               "--output-dir", str(tmp_path / "file")],
        "grid-a": ["sweep", "--p1-grid", "a", "--m1-grid", "2", "--m2-grid", "2",
                   "--output-dir", str(tmp_path / "o")],
        "grid-comma": ["sweep", "--p1-grid", ",", "--m1-grid", "2", "--m2-grid", "2",
                       "--output-dir", str(tmp_path / "o")],
        # sweep is deterministic: it has no --seed
        "sweep-seed": ["sweep", "--p1-grid", "0.5", "--m1-grid", "2", "--m2-grid", "2",
                       "--seed", "3", "--output-dir", str(tmp_path / "o")],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_missing_required_argument(tmp_path):
    cfg = _write_config(tmp_path, single_type_config(n=50))
    assert main(["simulate", "--config", cfg]) == 2


def test_verify_subcritical_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, single_type_config(n=200, rate=0.5))
    rc = main(["verify", "--config", cfg, "--replicates", "5",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def test_verify_subcritical_message_rounds_r0(tmp_path, capsys):
    # solve_malthusian's refusal, with R0 = 0.1 + 0.1 printed as 0.2
    cfg = _write_config(tmp_path, single_type_config(n=200, rate=0.1 + 0.1))
    rc = main(["verify", "--config", cfg, "--replicates", "5",
               "--output-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: Malthusian parameter requires R0 > 1, got R0 = 0.2\n"
    assert not (tmp_path / "o" / "verify.csv").exists()


def test_verify_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=1500, seed=3))
    rc = main(["verify", "--config", cfg, "--replicates", "40",
               "--slack", "0.05", "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 4


def _report_with_bounds(monkeypatch, lo, hi):
    """Make verify's analytic_report give the sandwich (lo, hi)."""
    real = infector.cli.analytic_report
    monkeypatch.setattr(infector.cli, "analytic_report", lambda *a: dataclasses.replace(
        real(*a), rho1_minus=lo, rho1_plus=hi))


def test_verify_verdict_failure(tmp_path, monkeypatch):
    # the estimate sits above the upper bound (a negative --slack, once used
    # here to force this, is now a usage error)
    _report_with_bounds(monkeypatch, -3.0, -2.0)
    cfg = _write_config(tmp_path, symmetric_marked_config(n=800, seed=5))
    rc = main(["verify", "--config", cfg, "--replicates", "20",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 1


def test_verify_sandwich_rows_have_own_bounds(tmp_path, monkeypatch):
    # an estimate below the lower bound used to fail the upper row too
    _report_with_bounds(monkeypatch, 2.0, 3.0)
    cfg = _write_config(tmp_path, symmetric_marked_config(n=800, seed=5))
    rc = main(["verify", "--config", cfg, "--replicates", "20", "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    _, header, rows = _read_csv(tmp_path / "o" / "verify.csv")
    verdict = {row[0]: row[header.index("verdict")] for row in rows}
    assert verdict["sandwich-lower"] == "fail"
    assert verdict["sandwich-upper"] == "pass"


@pytest.mark.parametrize("slack", ["nan", "-0.01", "inf"])
def test_verify_bad_slack_is_usage_error(tmp_path, capsys, slack):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=800, seed=5))
    rc = main(["verify", "--config", cfg, "--replicates", "20", f"--slack={slack}",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "--slack" in err
    assert not (tmp_path / "o" / "verify.csv").exists()


def test_verify_zero_replicates_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=5))
    rc = main(["verify", "--config", cfg, "--replicates", "0",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "replicate" in err
    assert [p.name for p in (tmp_path / "o").iterdir()] == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, command, threads):
    # once these ran serially and exited 0
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=5))
    rc = main([command, "--config", cfg, "--replicates", "3", "--threads", threads,
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "threads" in err
    assert [p.name for p in (tmp_path / "o").iterdir()] == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("threshold", ["1.5", "nan", "0"])
def test_bad_threshold_is_usage_error_before_any_graph(tmp_path, capsys, monkeypatch,
                                                        command, threshold):
    # once replicate 0 built its graph and ran its search before the refusal
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built before --threshold was checked")

    monkeypatch.setattr(forward, "build_graph", no_build)
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=5))
    rc = main([command, "--config", cfg, "--replicates", "3", "--threshold", threshold,
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "threshold" in err
    assert [p.name for p in (tmp_path / "o").iterdir()] == []


def test_overwrite_refused_without_force(tmp_path):
    cfg = _write_config(tmp_path, single_type_config(n=300, rate=2.0, seed=7))
    args = ["simulate", "--config", cfg, "--replicates", "3",
            "--output-dir", str(tmp_path / "o")]
    assert main(args) == 0
    assert main(args) == 2
    assert main(args + ["--force"]) == 0


def test_existing_output_refused_before_any_work(tmp_path):
    cfg = _write_config(tmp_path, single_type_config(n=300, rate=2.0, seed=7))
    out = tmp_path / "o"
    out.mkdir()
    (out / "summary.csv").write_text("kept\n")
    assert main(["simulate", "--config", cfg, "--replicates", "3",
                 "--output-dir", str(out)]) == 2
    assert not (out / "replicates.csv").exists()
    assert (out / "summary.csv").read_text() == "kept\n"


def test_bp_estimate_refuses_before_monte_carlo(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("estimate_rho_bp ran although the output exists")

    monkeypatch.setattr(infector.cli, "estimate_rho_bp", never)
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=21))
    out = tmp_path / "o"
    out.mkdir()
    (out / "bp_summary.csv").write_text("kept\n")
    assert main(["bp-estimate", "--config", cfg, "--type", "1", "--replicates", "20",
                 "--output-dir", str(out)]) == 2
    assert not (out / "bp_replicates.csv").exists()


# --------------------------------------------------------------------------
# output format
# --------------------------------------------------------------------------

def test_readme_config_hash_pinned():
    # exponential periods are stored as shape-1 gammas; their JSON form,
    # and so every CSV's config hash, must not move
    assert infector.cli._config_hash(readme_config(10_000)) == "334e9994d9de2947"


def test_provenance_header_and_timestamp_suppression(tmp_path):
    cfg = _write_config(tmp_path, single_type_config(n=300, rate=2.0, seed=9))
    main(["simulate", "--config", cfg, "--replicates", "2",
          "--output-dir", str(tmp_path / "a")])
    comments, _, _ = _read_csv(tmp_path / "a" / "replicates.csv")
    assert comments[0].startswith("# config_hash=")
    assert "seed=9" in comments[0]
    assert any(c.startswith("# timestamp=") for c in comments)

    main(["simulate", "--config", cfg, "--replicates", "2", "--no-timestamp",
          "--output-dir", str(tmp_path / "b")])
    comments, _, _ = _read_csv(tmp_path / "b" / "replicates.csv")
    assert not any(c.startswith("# timestamp=") for c in comments)


def test_simulate_outputs_deterministic(tmp_path):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=600, seed=11))
    for d in ("a", "b"):
        main(["simulate", "--config", cfg, "--replicates", "5",
              "--no-timestamp", "--output-dir", str(tmp_path / d)])
    for name in ("replicates.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_reals_round_trip_exactly(tmp_path):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=600, seed=13))
    main(["simulate", "--config", cfg, "--replicates", "4", "--no-timestamp",
          "--output-dir", str(tmp_path / "o")])
    _, header, rows = _read_csv(tmp_path / "o" / "replicates.csv")
    col = header.index("final_fraction")
    fracs = [float(r[col]) for r in rows]
    # 17 significant digits reproduce the double exactly
    text = [format(f, ".17g") for f in fracs]
    assert [float(t) for t in text] == fracs
    assert any("." in t for t in text)


def test_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=600, seed=15))
    main(["simulate", "--config", cfg, "--replicates", "5", "--no-timestamp",
          "--output-dir", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--replicates", "5", "--no-timestamp",
          "--seed", "99", "--output-dir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "replicates.csv").read_text()
    b = (tmp_path / "b" / "replicates.csv").read_text()
    assert a != b
    assert "seed=99" in b.splitlines()[0]


@pytest.mark.parametrize("argv, names", [
    (["simulate", "--replicates", "4"], ["replicates.csv", "summary.csv"]),
    (["backward", "--roots-per-type", "2"], ["backward.csv"]),
    (["bp-estimate", "--type", "2", "--replicates", "20", "--horizon", "4"],
     ["bp_replicates.csv", "bp_summary.csv"]),
], ids=["simulate", "backward", "bp-estimate"])
def test_seed_override_is_the_config_seed(tmp_path, argv, names):
    # --seed replaces the config's seed, and every stream derives from it:
    # the outputs equal those of a config written with that seed, save the
    # header's hash, which stays the hash of the file given
    cfg = readme_config(400)
    assert cfg.seed != 7
    base = _write_config(tmp_path, cfg, "base.json")
    seeded = _write_config(tmp_path, dataclasses.replace(cfg, seed=7), "seeded.json")
    for config, extra, out in ((base, ["--seed", "7"], "a"), (seeded, [], "b"), (base, [], "c")):
        assert main(argv + ["--config", config, "--no-timestamp",
                            "--output-dir", str(tmp_path / out)] + extra) == 0
    for name in names:
        a, b, c = ((tmp_path / out / name).read_text().split("\n", 1) for out in "abc")
        assert a[1] == b[1] and a[1] != c[1]
        assert a[0] == c[0].replace(f"seed={cfg.seed}", "seed=7") and a[0] != b[0]


def _readme_digests(tmp_path, n, argv, names):
    cfg = tmp_path / f"readme_{n}.json"
    cfg.write_text(json.dumps(readme_scenario(n)))
    out = tmp_path / f"out_{n}"
    assert main(argv + ["--config", str(cfg), "--no-timestamp",
                        "--output-dir", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def test_shortest_path_outputs_byte_identical(tmp_path, monkeypatch):
    # Digests recorded with the heap-loop shortest paths this package
    # used before scipy.sparse.csgraph; a fixed seed must reproduce them.
    # They predate the seeded build, which draws them again at a budget of 0.
    argv = ["simulate", "--method", "eager", "--replicates", "20", "--force"]
    names = ["replicates.csv", "summary.csv"]
    with monkeypatch.context() as patch:
        patch.setattr(infector.graph, "_REVEAL", 0)
        eager = _readme_digests(tmp_path, 2000, argv, names)
    assert eager == {
        "replicates.csv": "b8765cd2ee93329dfbd6284cea0a996d6bc2c9a8b2e44732e8c01c621c21c571",
        "summary.csv": "a94311d90897f9bf7db704be7b747ff760a60f2fdd0b4405156293e93037047d",
    }
    # recorded with the seeded build at its default budget
    assert _readme_digests(tmp_path, 2000, argv, names) == {
        "replicates.csv": "0f415f12ae9bb858aa31104f16e42d558f6ef5060ad200ebb18b3a66cc930871",
        "summary.csv": "057480cef9c38930456be97305103edf4ddc62f1e2dbe2e7159814de34a1a91a",
    }
    backward = _readme_digests(tmp_path, 20000,
                               ["backward", "--roots-per-type", "10", "--t-star", "4"],
                               ["backward.csv"])
    assert backward == {
        "backward.csv": "9b4533008bdb9e56a080a5527dd7473237420a8a983d9ed5c44e583fc3cd1ab6",
    }


def test_simulate_default_method_is_eager(tmp_path):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=600, seed=29))
    for d, method in (("default", []), ("eager", ["--method", "eager"]),
                      ("lazy", ["--method", "lazy"])):
        assert main(["simulate", "--config", cfg, "--replicates", "6", "--no-timestamp",
                     "--output-dir", str(tmp_path / d)] + method) == 0
    read = lambda d, name: (tmp_path / d / name).read_bytes()
    for name in ("replicates.csv", "summary.csv"):
        assert read("default", name) == read("eager", name)
    assert read("default", "replicates.csv") != read("lazy", "replicates.csv")


def test_bp_estimate_outputs_byte_identical(tmp_path):
    # Digests recorded with the Poisson-splitting generation step of the
    # branching simulator, ages drawn through ContactAgeLaw.sample (the
    # infectious period's stationary excess; a gamma-2 excess draws its
    # second exponential only when J = 2) and W subtrees grown in batches
    # of _PARTICLES * e^(-alpha T) roots, each run on to the end of its
    # last replicate, in which a replicate's one positive subtree stops
    # growing once it has a birth in [T/2, T].  At --horizon 5 a batch
    # holds 7,962 roots, so 2500 replicates put their ~5000
    # first-generation subtrees in one batch.
    argv = ["bp-estimate", "--replicates", "2500", "--horizon", "5", "--force"]
    names = ["bp_replicates.csv", "bp_summary.csv"]
    assert _readme_digests(tmp_path, 2000, argv + ["--type", "1"], names) == {
        "bp_replicates.csv": "e751a3a20166cee95ef31215ce72b08e6ede1b916fa6c1b756e90a1fe6656d3c",
        "bp_summary.csv": "a06159ea84c1345f9aa9b43a48ea3b324794b49aa22995362926956ef57335f8",
    }
    assert _readme_digests(tmp_path, 2000, argv + ["--type", "2"], names) == {
        "bp_replicates.csv": "2101b49e7dad73e8c46bc7a119a8c10e4605f62670710e2852454011b5dbbff1",
        "bp_summary.csv": "38ac3cfe156867fc50db841aef5e5786388aa591ef62fa0323ee6fab364f68ce",
    }
    # at --horizon 8 a batch holds 645 roots and the rest of its last
    # replicate: ~2000 subtrees span four batches
    argv = ["bp-estimate", "--replicates", "1000", "--horizon", "8", "--force"]
    assert _readme_digests(tmp_path, 2000, argv + ["--type", "1"], names) == {
        "bp_replicates.csv": "bc524ef8e00e86f74be4f0676ad59752cd8716a88ecd9c79ac3c6ac76129792e",
        "bp_summary.csv": "1488daa6141792240fb2fc445175d6d2428bc5eeee2626852deec4f01bd2a295",
    }


def test_extremal_outputs_byte_identical(tmp_path):
    # The README digests never reach this kernel; its config_hash heads every CSV.
    cfg = _write_config(tmp_path, extremal_config(2000))
    digests = {}
    for argv, names in ((["simulate", "--replicates", "40"], ["replicates.csv", "summary.csv"]),
                        (["bounds"], ["bounds.csv"])):
        out = tmp_path / argv[0]
        assert main(argv + ["--config", cfg, "--no-timestamp", "--output-dir", str(out)]) == 0
        digests.update({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in names})
    assert digests == {
        "replicates.csv": "ea6c3ac3fcc8c95392a7fe5eb0ecbddd6307461ef54e8818ff30dd0ab738ed66",
        "summary.csv": "67b44987ad4c9cb3dfcf8cf9d7e66c54557005e9304aff320495a8cc95df648c",
        "bounds.csv": "be06e24fa18bf8b4bdb001d5c61be39aabf8519f30c25fd78d24228d72e753b4",
    }


def test_summary_stderr_matches_replicate_rho(tmp_path, monkeypatch):
    # one used replicate has a NaN column: per-cell counts differ from
    # the number of used replicates, and both paths must divide by them
    rhos = [np.array([[0.7, 0.4], [0.3, 0.6]]),
            np.array([[0.9, np.nan], [0.1, np.nan]]),
            np.array([[0.6, 0.2], [0.4, 0.8]]),
            np.array([[0.5, 0.5], [0.5, 0.5]])]

    def fake_replicate(config, master_seed, index, threshold, method):
        return {"replicate": index, "large_outbreak": index < 3,
                "final_fraction": 0.5 if index < 3 else 0.001, "rho": rhos[index]}

    monkeypatch.setattr(forward, "_one_replicate", fake_replicate)
    cfg_obj = symmetric_marked_config(n=100, seed=23)
    cfg = _write_config(tmp_path, cfg_obj)
    assert main(["simulate", "--config", cfg, "--replicates", "4",
                 "--no-timestamp", "--output-dir", str(tmp_path / "o")]) == 0
    _, header, rows = _read_csv(tmp_path / "o" / "summary.csv")
    stderr_row = next(r for r in rows if r[0] == "stderr")
    est = forward.replicate_rho(cfg_obj, 4)
    assert est.replicates_used == 3
    assert [float(x) for x in stderr_row[1:5]] == list(est.stderr.ravel())
    assert est.stderr[0, 1] == pytest.approx(np.std([0.4, 0.2], ddof=1) / math.sqrt(2))


# --------------------------------------------------------------------------
# backward and bp-estimate
# --------------------------------------------------------------------------

def test_backward_output_columns(tmp_path):
    cfg = _write_config(tmp_path, marked_config(500, 0.4, 3.0, 2.0, seed=17))
    rc = main(["backward", "--config", cfg, "--roots-per-type", "4",
               "--t-star", "1.0", "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "backward.csv")
    assert header == ["root", "root_type", "explored", "restricted_size",
                      "collisions", "flagged"]
    assert len(rows) == 8
    for r in rows:
        assert int(r[2]) >= 1  # explored includes the root
        assert int(r[3]) >= 1
        assert r[5] in ("0", "1")


def test_backward_explicit_roots(tmp_path):
    cfg = _write_config(tmp_path, marked_config(500, 0.4, 3.0, 2.0, seed=19))
    main(["backward", "--config", cfg, "--roots", "0,5,250",
          "--t-star", "0.5", "--no-timestamp",
          "--output-dir", str(tmp_path / "o")])
    _, _, rows = _read_csv(tmp_path / "o" / "backward.csv")
    assert [r[0] for r in rows] == ["0", "5", "250"]


def test_backward_alternating_roots_match_api(tmp_path, monkeypatch):
    # restricted sizes are taken grouped by root type, one view per type,
    # and the rows keep the input order
    n = 20_000
    config = readme_config(n)
    roots = [1, n - 1, 2, n - 2]
    views = []
    real = EpidemicGraph.reverse_matrix

    def recording(self, restriction=None):
        mat = real(self, restriction)
        if restriction is not None:
            views.append(mat)
        return mat

    monkeypatch.setattr(EpidemicGraph, "reverse_matrix", recording)
    rc = main(["backward", "--config", _write_config(tmp_path, config),
               "--roots", ",".join(map(str, roots)), "--t-star", "3",
               "--no-timestamp", "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    assert len(views) == 4 and len({id(v) for v in views}) == 2
    _, _, rows = _read_csv(tmp_path / "o" / "backward.csv")

    graph = build_graph(config, stream(config.seed, "graph"))
    expected = []
    for v in roots:
        snap = explore_susceptibility(graph, v, 3.0)
        j = int(config.population.type_of(v)) + 1
        y = restricted_susceptibility_size(graph, v, j, j).y
        expected.append([str(v), str(j), str(len(snap.explored)), str(y),
                         str(snap.collision_count), "1" if snap.flagged else "0"])
    assert rows == expected


@pytest.mark.parametrize("bad, says", [
    pytest.param(["--roots", "2000"], "0..1999", id="--roots 2000"),
    pytest.param(["--roots", "-1"], "0..1999", id="--roots -1"),
    pytest.param(["--roots", "x"], "--roots", id="--roots x"),
    pytest.param(["--roots", "5,1.5"], "--roots", id="--roots 5,1.5"),
    pytest.param(["--roots", ""], "--roots", id="--roots ''"),
    pytest.param(["--roots-per-type", "-3"], "--roots-per-type", id="--roots-per-type -3"),
    pytest.param(["--t-star", "nan"], "t_star", id="--t-star nan"),
    pytest.param(["--t-star", "-1"], "t_star", id="--t-star -1"),
])
def test_backward_bad_arguments_are_usage_errors(tmp_path, capsys, bad, says):
    cfg = _write_config(tmp_path, marked_config(2000, 0.4, 3.0, 2.0, seed=19))
    rc = main(["backward", "--config", cfg, "--roots-per-type", "2",
               "--output-dir", str(tmp_path / "o")] + bad)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err and "Traceback" not in err
    assert not (tmp_path / "o" / "backward.csv").exists()


@pytest.mark.parametrize("command", [
    ["bp-estimate", "--type", "1", "--replicates", "200", "--horizon", "6"],
    ["backward", "--roots-per-type", "2"],
    ["verify", "--replicates", "5"],  # its malthusian-residual row needs alpha
], ids=["bp-estimate", "backward", "verify"])
def test_extremal_kernel_refused_on_the_backward_side(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, extremal_config(n=2000))
    rc = main(command + ["--config", cfg, "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "extremal_two_type" in err
    assert not list((tmp_path / "o").glob("*.csv"))


def test_extremal_backward_search_with_given_t_star(tmp_path):
    # the graph search itself is defined; only the default t_star needs alpha
    cfg = _write_config(tmp_path, extremal_config(n=2000))
    assert main(["backward", "--config", cfg, "--roots-per-type", "2", "--t-star", "0.001",
                 "--output-dir", str(tmp_path / "o")]) == 0


def test_bp_estimate_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=21))
    rc = main(["bp-estimate", "--config", cfg, "--type", "1",
               "--replicates", "150", "--horizon", "6", "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    assert "rho_11=" in capsys.readouterr().out
    _, header, rows = _read_csv(tmp_path / "o" / "bp_replicates.csv")
    assert header == ["replicate", "share_1", "share_2"]
    assert len(rows) == 150
    _, sh, srows = _read_csv(tmp_path / "o" / "bp_summary.csv")
    assert sh == ["target_type", "rho_1_1", "rho_2_1", "stderr_1", "stderr_2"]
    vals = [float(x) for x in srows[0][1:3]]
    assert all(np.isfinite(vals))


def test_bp_estimate_single_replicate(tmp_path):
    # one replicate has no standard error: nan, without a numpy warning
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["bp-estimate", "--config", cfg, "--type", "1", "--replicates", "1",
                   "--horizon", "6", "--no-timestamp", "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "bp_summary.csv")
    values = dict(zip(header, rows[0]))
    assert values["stderr_1"] == values["stderr_2"] == "nan"
    assert math.isfinite(float(values["rho_1_1"]))


@pytest.mark.parametrize("bad", [["--horizon", "0"], ["--horizon", "-2"],
                                 ["--cap", "0"], ["--type", "3"]], ids=" ".join)
def test_bp_estimate_bad_arguments_are_usage_errors(tmp_path, capsys, bad):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=21))
    rc = main(["bp-estimate", "--config", cfg, "--type", "1", "--replicates", "20",
               "--output-dir", str(tmp_path / "o")] + bad)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "bp_summary.csv").exists()


def test_bp_estimate_infinite_horizon_is_usage_error(tmp_path, capsys):
    # once accepted: every surviving subtree grew to the cap, then exit 3
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=21))
    rc = main(["bp-estimate", "--config", cfg, "--type", "1", "--replicates", "20",
               "--output-dir", str(tmp_path / "o"), "--horizon", "inf"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "finite" in err
    assert list((tmp_path / "o").iterdir()) == []


def test_bp_estimate_unsizable_replicates_is_usage_error(tmp_path, capsys):
    # once numpy's "array is too big" ValueError, with a traceback and exit 1
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=21))
    rc = main(["bp-estimate", "--config", cfg, "--type", "1", "--replicates", str(2**62),
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "replicates" in err
    assert list((tmp_path / "o").iterdir()) == []


def test_out_of_memory_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(infector.cli, "estimate_rho_bp", out_of_memory)
    cfg = _write_config(tmp_path, symmetric_marked_config(n=400, seed=21))
    rc = main(["bp-estimate", "--config", cfg, "--type", "1", "--replicates", str(2**40),
               "--output-dir", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "memory" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--replicates", "2"],
    ["backward", "--roots-per-type", "1"],
    ["bp-estimate", "--type", "1", "--replicates", "10"],
    ["verify", "--replicates", "2"],
], ids=lambda argv: argv[0])
def test_huge_contact_rates_are_usage_errors(tmp_path, capsys, argv):
    # finite rates of 1e308 once gave a Poisson traceback (exit 1) or,
    # through an overflowed Perron-root computation, "R0 = -1"
    scenario = readme_scenario(2000)
    scenario["kernel"]["contact_rates"][0][0] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    rc = main(argv + ["--config", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "2**30" in err
    assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------------
# bounds and sweep
# --------------------------------------------------------------------------

def test_bounds_stdout_matches_report(tmp_path, capsys):
    rc = main(["bounds", "--p1", "0.5", "--m1", "2.0", "--m2", "2.0"])
    assert rc == 0
    out = capsys.readouterr().out
    rep = analytic_report(0.5, 2.0, 2.0)
    for name, value in rep.rows():
        line = next(l for l in out.splitlines() if l.startswith(name))
        assert float(line.split()[-1]) == pytest.approx(value, rel=1e-10)


def test_bounds_near_critical_marked(capsys):
    # R0 = 1.02: q = q1 = q2 = 0.961042, not the trivial root 1
    assert main(["bounds", "--p1", "0.5", "--m1", "1.02", "--m2", "1.02"]) == 0
    values = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert abs(float(values["rho1_plus"]) - 0.500066) <= 1e-6
    assert float(values["q"]) == pytest.approx(float(values["q1"]), abs=1e-12)


def test_bounds_ordered_just_above_criticality(tmp_path):
    # R0 = 1.000002 puts the bounds 6.7e-13 either side of 1/2, so an error
    # of 1.2e-11 in q once swapped them; references: 50-digit mpmath
    assert main(["bounds", "--p1", "0.5", "--m1", "1.000002", "--m2", "1.000002",
                 "--no-timestamp", "--output-dir", str(tmp_path)]) == 0
    _, header, rows = _read_csv(tmp_path / "bounds.csv")
    lo, hi = (float(rows[0][header.index(name)]) for name in ("rho1_minus", "rho1_plus"))
    assert lo < hi
    assert abs(lo - 0.49999999999933333422) <= 1e-12
    assert abs(hi - 0.50000000000066666578) <= 1e-12


def test_bounds_requires_parameters():
    assert main(["bounds", "--p1", "0.5"]) == 2


@pytest.mark.parametrize("m1,m2,name", [("nan", "2", "m1"), ("inf", "2", "m1"),
                                         ("2", "nan", "m2")])
def test_bounds_refuses_non_finite_m_tilde_by_name(capsys, m1, m2, name):
    # a NaN once reached fixed_point_q, and inf the mean-matrix check, whose
    # messages named neither flag
    assert main(["bounds", "--p1", "0.5", "--m1", m1, "--m2", m2]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"{name}_tilde must be finite and >= 0" in err


def test_bounds_from_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, marked_config(500, 0.4, 3.0, 2.0))
    rc = main(["bounds", "--config", cfg, "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "bounds.csv")
    assert float(rows[0][header.index("p1")]) == 0.4
    rep = analytic_report(0.4, 3.0, 2.0)
    assert float(rows[0][header.index("rho1_plus")]) == pytest.approx(
        rep.rho1_plus, rel=1e-15
    )


def test_bounds_rejects_single_type_config(tmp_path):
    cfg = _write_config(tmp_path, single_type_config(n=50))
    assert main(["bounds", "--config", cfg]) == 2


def test_sweep_single_point_matches_bounds(tmp_path):
    main(["sweep", "--p1-grid", "0.4", "--m1-grid", "3.0", "--m2-grid", "2.0",
          "--no-timestamp", "--output-dir", str(tmp_path / "o")])
    _, header, rows = _read_csv(tmp_path / "o" / "sweep.csv")
    assert len(rows) == 1
    rep = analytic_report(0.4, 3.0, 2.0)
    for name, value in rep.rows():
        assert float(rows[0][header.index(name)]) == pytest.approx(value, rel=1e-15)
    assert rows[0][header.index("error")] == ""


def test_sweep_rho_plus_monotone_in_p1(tmp_path):
    main(["sweep", "--p1-grid", "0.2,0.4,0.6,0.8", "--m1-grid", "2.0",
          "--m2-grid", "2.0", "--no-timestamp",
          "--output-dir", str(tmp_path / "o")])
    _, header, rows = _read_csv(tmp_path / "o" / "sweep.csv")
    vals = [float(r[header.index("rho1_plus")]) for r in rows]
    assert vals == sorted(vals)


def test_sweep_subcritical_rows_marked(tmp_path):
    rc = main(["sweep", "--p1-grid", "0.5", "--m1-grid", "0.5,3.0",
               "--m2-grid", "0.5", "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "o" / "sweep.csv")
    errs = [r[header.index("error")] for r in rows]
    assert errs[0] != "" and math.isnan(float(rows[0][header.index("q1")]))
    assert errs[1] == ""
