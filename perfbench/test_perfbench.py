"""Tests of the benchmark itself: python3 -m pytest perfbench

A short run of every workload completes with every per-layer metric, and
each workload's checker accepts real output and rejects one corrupted
copy of it.
"""

import copy
import gzip
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def job_outputs(name: str, index: int, tmp_path) -> tuple:
    jobs = workloads.make_jobs(name, SEED, index + 1)
    workloads.write_inputs(jobs, str(tmp_path))
    _, _, outputs, code = worker.run_job(jobs[index])
    assert code == 0
    return jobs[index], outputs


def test_benchmark_json_lists_the_emitted_metrics():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.METRICS]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (unit, better) for _, unit, better in tracing.METRICS
    ]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_short_traced_run_completes(name, tmp_path):
    result = worker.measure(name, SEED, 1, True, str(tmp_path), size=4)
    passes = workloads.passes(name, 1)
    assert result["attempted"] == 2 * 4 * passes
    assert result["failed"] == 0 and result["mismatched"] == 0
    assert list(result["per_layer"]) == [m for m, _, _ in tracing.METRICS]
    layer = result["per_layer"]
    if name == "spherical":
        assert layer["kernel.canonical_code.calls"]["value"] == 0
    if name == "concentrate":
        self_ms = result["layer_self_ms"]
        assert max(self_ms, key=self_ms.get) == "kernel"
    if name == "algebra":
        assert layer["ik.ik_product.glues"]["value"] == 34
    seed_jobs = workloads.make_jobs(name, SEED, 4)
    with gzip.open(os.path.join(tmp_path, "outputs.jsonl.gz"), "rt") as fh:
        for line in fh:
            record = json.loads(line)
            checks.check(name, SEED, record["job"], seed_jobs[record["job"]], record["outputs"])


def test_concentrate_rejects_a_shifted_coefficient(tmp_path):
    job, outputs = job_outputs("concentrate", 1, tmp_path)
    checks.check("concentrate", SEED, 1, job, outputs)
    payload = json.loads(outputs[0])
    decomp = payload["decompositions"][0]
    beta = job["inputs"]["L"]["beta"]
    term = decomp["terms"][0]
    term["coeff"] = str(Fraction(term["coeff"]) + Fraction(1, factorial(decomp["n"] - beta)))
    with pytest.raises(checks.CheckFailure, match="mass"):
        checks.check("concentrate", SEED, 1, job, [json.dumps(payload)])


def test_spherical_rejects_a_value_off_by_1e_6(tmp_path):
    job, outputs = job_outputs("spherical", 0, tmp_path)
    checks.check("spherical", SEED, 0, job, outputs)
    payload = json.loads(outputs[0])
    payload["assignment_sum"]["re"] += 1e-6
    with pytest.raises(checks.CheckFailure, match="einsum"):
        checks.check("spherical", SEED, 0, job, [json.dumps(payload)])


def test_algebra_rejects_a_missing_projection_term(tmp_path):
    job, outputs = job_outputs("algebra", 0, tmp_path)
    checks.check("algebra", SEED, 0, job, outputs)
    projected = json.loads(outputs[1])
    for corrupt_index in range(len(projected["terms"])):
        corrupted = copy.deepcopy(projected)
        del corrupted["terms"][corrupt_index]
        with pytest.raises(checks.CheckFailure):
            checks.check("algebra", SEED, 0, job, [outputs[0], json.dumps(corrupted)])


def test_product_rejects_swapped_labels(tmp_path):
    job, outputs = job_outputs("product", 1, tmp_path)
    assert job["meta"]["alpha"] != job["meta"]["gamma"]
    checks.check("product", SEED, 1, job, outputs)
    info = json.loads(outputs[0])
    info["alpha"], info["beta"] = info["beta"], info["alpha"]
    with pytest.raises(checks.CheckFailure, match="labels"):
        checks.check("product", SEED, 1, job, [json.dumps(info)])


def test_run_prints_end_to_end_metrics_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "product", "--seed", str(SEED),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in benchmark_json()["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "product", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
