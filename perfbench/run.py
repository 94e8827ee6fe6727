"""Seeded end-to-end benchmark of the checkersurf CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload concentrate --seed 1 --seconds 25 --trace 0

Workloads: concentrate, algebra, spherical, product (see README.md). Each
run starts fresh worker processes: SETUP_SAMPLES - 1 that only set up,
then one that sets up and runs the timed jobs. This process then checks
every output of the measured run and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the worker
runs the same passes again under the tracer and the metrics are the
per-layer ones.

The package is imported from src/ of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# All workers of one run must end within this many seconds, so that the
# run, checks included, ends within 180 s.
WORKERS_DEADLINE_S = 150


def blas_info() -> dict:
    """BLAS library, version and thread count of the numpy in use."""
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def run_info(args) -> dict:
    import numpy as np

    import checkersurf.kernel

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": checkersurf.kernel.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def start_worker(args, directory: str, extra: list, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", directory,
    ] + extra
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        raise RuntimeError("worker exited %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(name: str, seed: int, directory: str, expected: int) -> list:
    """Check every output the worker wrote; returns the failure messages."""
    import checks

    jobs = workloads.make_jobs(name, seed)
    problems = []
    seen = 0
    with gzip.open(os.path.join(directory, "outputs.jsonl.gz"), "rt") as fh:
        for line in fh:
            record = json.loads(line)
            seen += 1
            try:
                checks.check(name, seed, record["job"], jobs[record["job"]], record["outputs"])
            except checks.CheckFailure as exc:
                problems.append("job %d: %s" % (record["job"], exc))
    if seen != expected:
        problems.append("%d outputs read, the worker wrote %d" % (seen, expected))
    return problems


def end_to_end(result: dict, setup_samples: list) -> dict:
    times_ms = [t * 1e3 for t in result["times"]]
    values = {
        "jobs_per_s": ("1/s", len(times_ms) / (sum(times_ms) / 1e3)),
        "job_ms_p50": ("ms", statistics.median(times_ms)),
        "job_ms_p90": ("ms", tracing.percentile(times_ms, 90)),
        "setup_s": ("s", statistics.median(setup_samples)),
        "peak_rss_mb": ("MB", result["peak_rss_mb"]),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "checkersurf", "__init__.py")):
        print("error: no checkersurf package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    deadline = time.monotonic() + WORKERS_DEADLINE_S
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    directory = os.path.join(OUT_DIR, "run-" + tag)
    os.makedirs(directory)
    setup_samples, setup_wall = [], []

    def add_sample(times: dict):
        setup_samples.append(times["setup_s"])
        setup_wall.append(times["setup_wall_s"])

    def setup_sample():
        add_sample(start_worker(args, directory, ["--setup-only"], deadline))

    try:
        # Set-up samples are taken before and after the measured worker, so
        # that their median spans the run rather than one moment of it.
        for _ in range(SETUP_SAMPLES // 2):
            setup_sample()
        extra = []
        if args.trace:
            os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
            extra = ["--trace-file", os.path.join(OUT_DIR, "traces", tag + ".npz")]
        result = start_worker(args, directory, extra, deadline)
        add_sample(result)
        problems = check_outputs(args.workload, args.seed, directory, result["written"])
        while len(setup_samples) < SETUP_SAMPLES:
            setup_sample()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if result["mismatched"]:
        problems.append("%d repeated jobs gave different output" % result["mismatched"])
    for problem in problems[:20]:
        print("check failed: %s" % problem, file=sys.stderr)

    info = run_info(args)
    info["jobs"] = len(result["times"])
    info["setup_samples_s"] = setup_samples
    info["setup_wall_samples_s"] = setup_wall
    if args.trace:
        info["layer_self_ms"] = result["layer_self_ms"]
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(result, setup_samples)
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
