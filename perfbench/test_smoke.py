"""Smoke test of the benchmark itself: ``pytest perfbench/test_smoke.py``.

Runs every workload at minimum size in both modes and checks that each
metric ``BENCHMARK.json`` names is emitted with its unit, that the
traced runs confirm what the workloads claim, that the correctness gate
trips on a tampered digest, and that a directory holding only the
benchmark refuses to run.  Takes a few minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"),
                      encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
RUN_TIMEOUT_S = 300


def _run(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.fixture(scope="module")
def traced():
    return {workload: _result(_run(workload, 1))["metrics"]
            for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


def test_per_layer_metrics_emitted_with_units(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, metrics in traced.items():
        assert {name: m["unit"] for name, m in metrics.items()} == expected, \
            workload


def test_traced_runs_confirm_the_workloads(traced):
    value = lambda w, name: traced[w][name]["value"]  # noqa: E731
    assert value("detect-unique", "pipeline.cache.hit_ratio") == 0
    assert value("detect-replay", "pipeline.cache.hit_ratio") == 1
    assert value("detect-unique", "pipeline.cache.key_calls_per_clip") == 4
    assert value("detect-replay", "pipeline.cache.key_calls_per_clip") == 4
    assert value("detect-replay", "dsp.front_end_calls_per_clip") == 0
    for workload in WORKLOADS:
        queries = value(workload, "attacks.blackbox.queries_per_ae")
        assert (queries > 0) == (workload == "craft-aes"), workload


def test_layer_map_covers_every_metric():
    layers = json.load(open(os.path.join(BENCH_DIR, "layers.json"),
                            encoding="utf-8"))
    assert set(layers["per_layer"]) == {m["name"]
                                        for m in SPEC["per_layer"]}
    assert set(layers["end_to_end"]) == {m["name"]
                                         for m in SPEC["end_to_end"]}


def test_gate_trips_on_a_tampered_digest():
    """One replay result's digest is altered: the run must refuse."""
    script = (
        "import itertools, sys\n"
        f"sys.path.insert(0, {BENCH_DIR!r})\n"
        "import gate, run\n"
        "real, calls = gate.detection_digest, itertools.count()\n"
        "gate.detection_digest = lambda r: real(r) + "
        "('x' if next(calls) == 20 else '')\n"
        "sys.exit(run.main(['--workload', 'detect-replay', '--seed', '1', "
        "'--seconds', '1', '--trace', '0']))\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    assert done.returncode == 3, done.stderr
    assert "correctness gate failed" in done.stderr
    assert '"correct"' not in done.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    done = _run("detect-unique", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout



#: Runs the command in argv as a child subreaper: every process the run
#: leaves behind is re-parented here, and is counted once it ends.
LEFTOVER_PROBE = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
run = subprocess.run(sys.argv[1:], capture_output=True, text=True)
if run.returncode:
    sys.exit(run.stderr)
left = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    left += 1
print(left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs prctl(PR_SET_CHILD_SUBREAPER)")
def test_serve_open_leaves_no_process_behind():
    """The worker pool and the shared-memory resource tracker end with
    the run, not some time after it."""
    command = [sys.executable, *SPEC["command"][1:], "--workload",
               "serve-open", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, "-c", LEFTOVER_PROBE, *command],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
