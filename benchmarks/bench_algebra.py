"""Benchmark the pair group algebra layer: lift, project and convolve.

Builds seeded inputs shaped like the `algebra` workload: the gluing
product ik_product(p, q) of pairs of random degree-3 surfaces. At each
degree n it times lift(s, n) over every surface s of degree at most n in
those products, project(x, n) over the products x, and convolve(f, g)
over the lifts f and g of each pair at n. Prints microseconds per call
for each, best of three timed passes.

Usage: python3 benchmarks/bench_algebra.py [--sizes 5,6] [--pairs 20]
"""

import argparse
import random
import time

from checkersurf.convolution import convolve
from checkersurf.ik import ik_product, lift, project
from checkersurf.surface import checker_surface, random_triple


def time_calls(calls):
    # One untimed pass warms caches and surfaces errors early.
    for call in calls:
        call()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for call in calls:
            call()
        best = min(best, (time.perf_counter() - start) / len(calls))
    return best * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="5,6")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    rng = random.Random(args.seed)
    pairs = [
        (checker_surface(random_triple(rng, 3)), checker_surface(random_triple(rng, 3)))
        for _ in range(args.pairs)
    ]
    products = [ik_product(p, q) for p, q in pairs]

    header = "%4s  %7s  %10s  %8s  %10s  %11s" % (
        "n", "lifts", "lift us", "projects", "project us", "convolve us"
    )
    print(header)
    print("-" * len(header))
    for n in sizes:
        surfaces = [s for x in products for s, _ in x.items() if s.n <= n]
        lifts = [lambda s=s: lift(s, n) for s in surfaces]
        projects = [lambda x=x: project(x, n) for x in products]
        lifted = [(lift(p, n), lift(q, n)) for p, q in pairs]
        convolves = [lambda f=f, g=g: convolve(f, g) for f, g in lifted]
        print("%4d  %7d  %10.1f  %8d  %10.1f  %11.1f" % (
            n, len(lifts), time_calls(lifts), len(projects), time_calls(projects),
            time_calls(convolves),
        ))


if __name__ == "__main__":
    main()
