"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import run
from tracer import EXACT_COUNTERS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_counters_repeat_exactly(name, tmp_path):
    bench.load_program()
    workload = bench.WORKLOADS[name]()
    inputs = workload.make_inputs(run.DEFAULT_SEED, tmp_path)
    check = bench.Checker(workload)
    bench.serial_cycle(workload, inputs, check, bench.Phase(), 0)  # untraced reference
    counters = []
    for _ in range(2):
        tracer, _ = bench.traced_pass(workload, inputs, check)
        metrics = layer_metrics(tracer)
        counters.append({key: metrics[key] for key in EXACT_COUNTERS})
    assert check.failures == []
    assert counters[0] == counters[1]
    assert counters[0]["cli.main.calls"] == len(inputs)
    # the tracer puts every original binding back
    assert not hasattr(sys.modules["zfprob.cli"].main, "__wrapped__")
    assert not hasattr(sys.modules["zfprob.reduction"].round_nearest, "__wrapped__")


def test_checker_flags_changed_output_and_failed_verdict():
    bench.load_program()
    workload = bench.Invariance()
    argv = ["invariance", "--seed", "5", "--trials", str(workload.cases_per_invocation)]
    code, _, stdout, error = bench.invoke(argv)
    check = bench.Checker(workload)
    check(0, argv, code, stdout, error)
    assert check.failed == 0

    report = json.loads(stdout)
    report["cases"][3]["p"] += 1e-12
    check(0, argv, code, json.dumps(report), error)
    report["cases"][3]["p"] -= 1e-12
    report["verdicts"][0]["passed"] = False
    check(0, argv, 1, json.dumps(report), error)
    assert check.attempted == 3 and check.failed == 2
    assert "differ from the first run" in check.failures[0]["problems"][0]
    assert any("failed" in p for p in check.failures[1]["problems"])


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-n48", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
