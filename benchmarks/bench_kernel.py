"""Benchmark the canonical-labeling kernel.

Runs canonical_code at several degrees on the same batch of seeded random
triples, and on one n-cycle (blue the cycle, red and yellow the identity),
whose every white is a root of the minimal code. Prints microseconds per
call for each, best of three timed passes.

Usage: python3 benchmarks/bench_kernel.py [--sizes 4,8,16,32] [--reps 2000]
"""

import argparse
import random
import time

from checkersurf.kernel import canonical_code
from checkersurf.surface import random_triple


def time_kernel(n, batch, reps):
    # One untimed pass warms caches and surfaces errors early.
    for b, r, y in batch:
        canonical_code(n, b, r, y, 0, 0, True)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        done = 0
        while done < reps:
            for b, r, y in batch:
                canonical_code(n, b, r, y, 0, 0, True)
                done += 1
                if done >= reps:
                    break
        best = min(best, (time.perf_counter() - start) / done)
    return best * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="4,8,16,32,64")
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    header = "%6s  %10s  %11s" % ("n", "us/op", "cycle us/op")
    print(header)
    print("-" * len(header))
    for n in sizes:
        rng = random.Random(args.seed)
        triples = [random_triple(rng, n) for _ in range(args.batch)]
        batch = [(t._b, t._r, t._y) for t in triples]
        ident = tuple(range(n))
        cycle = tuple((w + 1) % n for w in range(n))
        print("%6d  %10.2f  %11.2f" % (
            n, time_kernel(n, batch, args.reps), time_kernel(n, [(cycle, ident, ident)], args.reps)
        ))


if __name__ == "__main__":
    main()
