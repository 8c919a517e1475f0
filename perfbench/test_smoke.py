"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at a tiny size, untraced and traced, and checks
that every metric of BENCHMARK.json is printed with its unit and that
every output check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_prints_every_metric_and_passes_checks():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            line = (rf"^\[{re.escape(workload)} seed=0\] {re.escape(metric['name'])} = "
                    rf"\S+ {re.escape(metric['unit'])}$")
            assert re.search(line, proc.stdout, re.M), (workload, metric["name"])
