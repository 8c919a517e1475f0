import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import infector
import infector.cli
from infector import forward
from infector.analytic import analytic_report
from infector.cli import main
from infector.config import config_to_dict

from conftest import (
    marked_config,
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

def test_cli_import_skips_scipy_stats_and_integrate():
    # each costs a large share of the CLI's start-up; the package reaches
    # scipy.integrate only inside eta_cdf, and scipy.stats not at all
    code = ("import sys, infector.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(infector.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_missing_config_file(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--replicates", "1", "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def _edited(keys, value):
    """JSON text of a valid two-type config with one field replaced."""
    d = config_to_dict(marked_config(2000, 0.4, 3.0, 2.0))
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


@pytest.mark.parametrize("case", ["config-is-dir", "output-dir-is-file",
                                  "grid-a", "grid-comma"])
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


def test_verify_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=1500, seed=3))
    rc = main(["verify", "--config", cfg, "--replicates", "40",
               "--slack", "0.05", "--no-timestamp",
               "--output-dir", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 4


def test_verify_verdict_failure(tmp_path):
    cfg = _write_config(tmp_path, symmetric_marked_config(n=800, seed=5))
    rc = main(["verify", "--config", cfg, "--replicates", "20",
               "--slack=-1", "--output-dir", str(tmp_path / "o")])
    assert rc == 1


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


def _readme_digests(tmp_path, n, argv, names):
    cfg = tmp_path / f"readme_{n}.json"
    cfg.write_text(json.dumps(readme_scenario(n)))
    out = tmp_path / f"out_{n}"
    assert main(argv + ["--config", str(cfg), "--no-timestamp",
                        "--output-dir", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def test_shortest_path_outputs_byte_identical(tmp_path):
    # Digests recorded with the heap-loop shortest paths this package
    # used before scipy.sparse.csgraph; a fixed seed must reproduce them.
    eager = _readme_digests(tmp_path, 2000,
                            ["simulate", "--method", "eager", "--replicates", "20"],
                            ["replicates.csv", "summary.csv"])
    assert eager == {
        "replicates.csv": "b8765cd2ee93329dfbd6284cea0a996d6bc2c9a8b2e44732e8c01c621c21c571",
        "summary.csv": "a94311d90897f9bf7db704be7b747ff760a60f2fdd0b4405156293e93037047d",
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
    # Digests recorded with the per-particle event-log simulator still in
    # the package; the batched simulator must reproduce them.  2500
    # replicates put ~5000 first-generation subtrees in two batches.
    argv = ["bp-estimate", "--replicates", "2500", "--horizon", "5", "--force"]
    names = ["bp_replicates.csv", "bp_summary.csv"]
    assert _readme_digests(tmp_path, 2000, argv + ["--type", "1"], names) == {
        "bp_replicates.csv": "e78cc53a23032759c86d4e657219751d2ee1d2b8d151895245a3461a6cb88f90",
        "bp_summary.csv": "ee0c65dbe045a92bb106e0a8f2b8c52706dde2c5fd49c8e3a4d7d6a12fa16696",
    }
    assert _readme_digests(tmp_path, 2000, argv + ["--type", "2"], names) == {
        "bp_replicates.csv": "4a2ab803cd9047baf5f1b6e10034ee393ccd12150cbb46f19e5cd6364921c649",
        "bp_summary.csv": "be8f4d55c2f2594f893933483072deac5b41b72a2fee1f30dc083b2b115fced2",
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


@pytest.mark.parametrize("bad, says", [
    pytest.param(["--roots", "2000"], "0..1999", id="--roots 2000"),
    pytest.param(["--roots", "-1"], "0..1999", id="--roots -1"),
    pytest.param(["--roots", "x"], "--roots", id="--roots x"),
    pytest.param(["--roots", "5,1.5"], "--roots", id="--roots 5,1.5"),
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


def test_bounds_requires_parameters():
    assert main(["bounds", "--p1", "0.5"]) == 2


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
