"""One workload process: set up, run the timed jobs, report as JSON.

Started by run.py, once per set-up sample (--setup-only) and once for
the measured run. Set-up runs from the top of this file through
`import checkersurf` and the generation of the job list, and is measured
as the main thread's CPU time (its wall time is reported beside it).
The wall time also holds a wait of 0 to about 70 ms while numpy starts
its OpenBLAS thread pool; that wait depends on how soon the host runs
the second vCPU, not on the program. The input files are written after
set-up, since creating some hundred small files takes longer than the
rest of set-up and varies several-fold with the file system. Each job
calls `checkersurf.cli.main(argv)` in this process, as a user runs
the subcommand but without interpreter start, with stdout and stderr
captured in memory. Every `functools` cache of the package is emptied
before each job, so that each job pays what a fresh process pays.

The first output of every job goes to a gzip file of JSON lines for
run.py to check; every later run of the job must reproduce it byte for
byte.
"""

import time

T0 = time.perf_counter()
C0 = time.thread_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checkersurf  # noqa: E402,F401
import checkersurf.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def package_caches() -> list:
    """Every functools cache reachable from a module of the package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "checkersurf":
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def run_job(job: dict) -> tuple:
    """Run one job; returns (wall seconds, cpu seconds, outputs, exit code).

    Only the cli.main calls are timed. The file that chains the two calls
    of `algebra` is written between them, outside the timing.
    """
    wall = cpu = 0.0
    outputs = []
    code = 0
    for k, argv in enumerate(job["argv"]):
        if k:
            with open(job["pipe"], "w", encoding="utf-8") as fh:
                fh.write(outputs[-1])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = checkersurf.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # an uncaught error exits 1, as the interpreter would
                code = 1
                err.write("%s: %s\n" % (type(exc).__name__, exc))
            t1 = time.perf_counter()
            c1 = time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        outputs.append(out.getvalue())
        if code != 0:
            sys.stderr.write("job %r exited %r: %s" % (argv, code, err.getvalue()[-500:]))
            break
    return wall, cpu, outputs, code


class Tally:
    """Job times and totals for one way of running the jobs."""

    def __init__(self):
        self.times = []
        self.cpu = 0.0
        self.output_bytes = 0
        self.failed = 0
        self.mismatched = 0

    @property
    def jobs_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    @property
    def cpu_per_wall(self) -> float:
        return self.cpu / sum(self.times)


class Runner:
    """Runs jobs with the package caches emptied before each one, and keeps
    the first output of every job for the checks."""

    def __init__(self, jobs: list, sink):
        self.jobs = jobs
        self.sink = sink
        self.caches = package_caches()
        self.digests = {}

    def run(self, index: int, tally: Tally) -> None:
        for cache in self.caches:
            cache.cache_clear()
        wall, cpu, outputs, code = run_job(self.jobs[index])
        tally.times.append(wall)
        tally.cpu += cpu
        tally.output_bytes += sum(len(o) for o in outputs)
        if code != 0:
            tally.failed += 1
            return
        digest = hashlib.sha1("\0".join(outputs).encode()).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            self.sink.write(json.dumps({"job": index, "outputs": outputs}) + "\n")
        elif self.digests[index] != digest:
            tally.mismatched += 1


def setup_times() -> dict:
    """Set-up so far: main-thread CPU seconds and wall seconds."""
    return {"setup_s": time.thread_time() - C0, "setup_wall_s": time.perf_counter() - T0}


def measure(name: str, seed: int, seconds: int, trace: bool, directory: str,
            trace_path: str | None = None, size: int | None = None) -> dict:
    """The measured run: whole passes over the job list.

    With `trace`, every job runs twice in a row, once under the tracer,
    in alternating order, so that the tracing overhead is measured on the
    same moment of the machine. `size` shortens the job list (tests).
    """
    jobs = workloads.make_jobs(name, seed, size)
    setup_time = setup_times()
    workloads.write_inputs(jobs, directory)
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer() if trace else None
    with gzip.open(os.path.join(directory, "outputs.jsonl.gz"), "wt", compresslevel=1) as sink:
        runner = Runner(jobs, sink)
        for _ in range(workloads.passes(name, seconds)):
            for index in range(len(jobs)):
                if tracer is None:
                    runner.run(index, plain)
                    continue
                tracer.job = index
                for with_trace in (False, True) if index % 2 == 0 else (True, False):
                    if not with_trace:
                        runner.run(index, plain)
                        continue
                    tracer.install()
                    try:
                        runner.run(index, traced)
                    finally:
                        tracer.uninstall()
    tallies = (plain, traced)
    result = {
        **setup_time,
        "times": plain.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(len(t.times) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "mismatched": sum(t.mismatched for t in tallies),
        "written": len(runner.digests),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(
            jobs=len(traced.times),
            output_bytes=traced.output_bytes,
            cpu_per_wall=plain.cpu_per_wall,
            overhead_pct=100.0 * (plain.jobs_per_s - traced.jobs_per_s) / plain.jobs_per_s,
        )
        result["layer_self_ms"] = tracer.layer_self_ms(len(traced.times))
        if trace_path:
            tracer.save(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="directory for inputs and outputs")
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.make_jobs(args.workload, args.seed)
        result = setup_times()
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.dir,
                         args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
