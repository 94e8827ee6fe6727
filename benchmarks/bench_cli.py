"""Benchmark reading a CLI call's argv, and one fresh-process call.

For one argv per subcommand, shaped like the benchmark's calls, prints
microseconds per argv read by cli._read_argv, which main uses, and by
building the argparse parser and parsing with it, which main does only
for help and usage errors; best of three timed passes each. Then prints
the minimum wall time of several fresh `python -m checkersurf.cli`
calls of `product`, interpreter start and import included.

Usage: python3 benchmarks/bench_cli.py [--reps 2000] [--calls 11]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import checkersurf
from checkersurf import cli

ARGVS = {
    "canon": ["canon", "t.json"],
    "product": ["product", "l.json", "r.json", "--alpha", "1", "--beta", "2", "--gamma", "0"],
    "concentrate": ["concentrate", "l.json", "r.json", "--n-from", "4", "--n-to", "9"],
    "spherical": ["spherical", "s.json", "xi.json"],
    "ik-product": ["ik-product", "p.json", "q.json"],
    "ik-project": ["ik-project", "prev.json", "--n", "5"],
    "poisson": ["poisson", "l.json", "r.json"],
    "dessin": ["dessin", "t.json"],
    "census": ["census", "--n", "4"],
    "random": ["random", "--n", "5", "--seed", "3"],
}

LEFT = {"n": 3, "blue": [2, 3, 1], "red": [1, 3, 2], "yellow": [1, 2, 3]}
RIGHT = {"n": 3, "blue": [2, 1, 3], "red": [3, 2, 1], "yellow": [2, 3, 1]}


def best_us(read, argv, reps):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            read(argv)
        best = min(best, (time.perf_counter() - start) / reps)
    return best * 1e6


def fresh_call_ms(calls):
    """The minimum wall time of calls fresh `product` processes, in ms."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(checkersurf.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, triple in (("l.json", LEFT), ("r.json", RIGHT)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(triple, fh)
        argv = [sys.executable, "-m", "checkersurf.cli", "product", *paths,
                "--alpha", "1", "--beta", "1", "--gamma", "0", "--quiet"]
        for _ in range(calls):
            start = time.perf_counter()
            subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
            best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--calls", type=int, default=11)
    args = parser.parse_args(argv)

    header = "%-12s  %14s  %16s" % ("subcommand", "reader us/argv", "argparse us/argv")
    print(header)
    print("-" * len(header))
    for name, call in ARGVS.items():
        if cli._read_argv(call) is None:
            sys.exit("the reader left %r to argparse" % call)
        reader = best_us(cli._read_argv, call, args.reps)
        full = best_us(lambda a: cli.build_parser().parse_args(a), call, max(1, args.reps // 20))
        print("%-12s  %14.2f  %16.1f" % (name, reader, full))
    print("fresh product call: %.1f ms (minimum of %d)" % (fresh_call_ms(args.calls), args.calls))


if __name__ == "__main__":
    main()
