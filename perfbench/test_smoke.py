"""Smoke test of the benchmark, outside the main suite.

    python3 -m pytest perfbench/test_smoke.py -q

Runs from the root of a source checkout.  Each run asks for one second of
measurement (a deck of one round, five passes), so this checks the plumbing
(result line, metric names and units, correctness checks, refusal outside a
checkout), not the figures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable if a == "python3" else a for a in argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = _run(ROOT, "levels-waves", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_workload_names_match_the_spec():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from run import WORKLOAD_NAMES

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "thermo-sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
