"""Seeded job lists for the four benchmark workloads.

A job is one `checkersurf` subcommand call, or the two chained calls of
`algebra`, on one seeded input. Each workload's list has one shape, so
that the median and the 90th percentile of a run describe like jobs.

The lists are stratified samples: the mix of what sets a job's cost is
fixed and shared by every seed, and the seed chooses the inputs inside
each slot. For `product` the mix is the degrees and label counts and the
seed draws the permutations; for `spherical` every slot is a connected
degree-5 surface. For `algebra` and `concentrate` the program's work
depends only on the classes of its inputs (it canonicalizes them first),
so the mix is the classes themselves and the seed draws a random member
of each: the relabeling classes of degree-3 triples in proportion to
their sizes, and a fixed draw of labeled cosets. Runs with different
seeds therefore do like work on different input files, and the spread
between them measures the machine rather than the draw.

This module imports nothing from `checkersurf`: inputs are made apart
from the program, which receives only the generated files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

NAMES = ("concentrate", "algebra", "spherical", "product")

# Distinct jobs in one list. Each is at least 100 so that ten jobs lie
# beyond the 90th percentile of a single pass.
LIST_SIZE = {"concentrate": 175, "algebra": 275, "spherical": 310, "product": 200}

# Jobs per second on the reference machine (README); turns --seconds into
# a whole number of passes, so a run does a fixed amount of work.
NOMINAL_JOBS_PER_S = {"concentrate": 7.0, "algebra": 11.0, "spherical": 12.4, "product": 256.0}

# concentrate: every PINNED_EVERY-th job is ((1 2), id, id) with no labels,
# whose series has the closed form (n-2)(n-3)/(n(n-1)).
PINNED_EVERY = 10
CONCENTRATE_SHAPES = list(itertools.product(range(3), range(2, 5), range(2, 5)))  # (beta, deg L, deg R)
CONCENTRATE_N_FROM = 4
CONCENTRATE_TOP = 7  # largest h-sum has (n_to - beta)! = 7! = 5040 terms

ALGEBRA_DEGREE = 3
ALGEBRA_PROJECT_N = 5

SPHERICAL_DEGREE = 5
SPHERICAL_DIMS = (2, 2, 2)

PRODUCT_MAX_DEGREE = 24
PRODUCT_LABELS = list(itertools.product(range(4), repeat=3))  # (alpha, beta, gamma)
# Additive recurrence with the plastic number: an even, seed-independent
# spread of each factor's degree over its range.
PRODUCT_STEPS = (0.7548776662466927, 0.5698402909980532)


def passes(name: str, seconds: int) -> int:
    """Whole passes over the job list that fill about `seconds`."""
    return max(1, round(seconds * NOMINAL_JOBS_PER_S[name] / LIST_SIZE[name]))


def random_images(rng: random.Random, n: int) -> list:
    images = list(range(n))
    rng.shuffle(images)
    return images


def triple_json(n: int, b, r, y) -> dict:
    """Triple JSON from 0-based image arrays."""
    return {
        "n": n,
        "blue": [x + 1 for x in b],
        "red": [x + 1 for x in r],
        "yellow": [x + 1 for x in y],
    }


def random_triple_json(rng: random.Random, n: int) -> dict:
    return triple_json(n, *(random_images(rng, n) for _ in range(3)))


def zero_based(data: dict) -> tuple:
    """(n, blue, red, yellow) with 0-based images from triple JSON."""
    return (
        int(data["n"]),
        [x - 1 for x in data["blue"]],
        [x - 1 for x in data["red"]],
        [x - 1 for x in data["yellow"]],
    )


def inverse(arr) -> list:
    out = [0] * len(arr)
    for i, v in enumerate(arr):
        out[v] = i
    return out


def components(n: int, b, r, y) -> list:
    """Connected components of a triple as sorted lists of 0-based whites.

    Whites w and w' touch when they share a black triangle, so the
    components are the orbits of y^-1 b and y^-1 r.
    """
    iy = inverse(y)
    gens = ([iy[v] for v in b], [iy[v] for v in r])
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, orbit = [start], []
        while stack:
            x = stack.pop()
            orbit.append(x)
            for g in gens:
                if not seen[g[x]]:
                    seen[g[x]] = True
                    stack.append(g[x])
        comps.append(sorted(orbit))
    return sorted(comps)


def relabel(arrays, whites, blacks) -> list:
    """The triple with white w renamed whites[w] and black k renamed blacks[k]."""
    out = []
    for arr in arrays:
        new = [0] * len(arr)
        for w, k in enumerate(arr):
            new[whites[w]] = blacks[k]
        out.append(new)
    return out


def relabeling_classes(n: int) -> list:
    """Orbits of all triples of degree n under relabeling whites and blacks.

    Returns (representative, orbit size) pairs in a fixed order. A triple
    drawn uniformly from S_n^3 lies in an orbit with probability
    size / (n!)^3.
    """
    perms = list(itertools.permutations(range(n)))
    sizes = {}
    for t in itertools.product(perms, repeat=3):
        rep = min(tuple(map(tuple, relabel(t, s, k))) for s in perms for k in perms)
        sizes[rep] = sizes.get(rep, 0) + 1
    return sorted(sizes.items())


def stratified_pairs(weights: list, count: int) -> list:
    """`count` index pairs (i, j) with pair (i, j) taken in proportion to
    weights[i] * weights[j], by largest remainder; the same on every call."""
    total = sum(weights) ** 2
    shares = {
        (i, j): count * wi * wj / total
        for i, wi in enumerate(weights)
        for j, wj in enumerate(weights)
    }
    taken = {pair: int(share) for pair, share in shares.items()}
    rest = count - sum(taken.values())
    for pair in sorted(shares, key=lambda p: (taken[p] - shares[p], p))[:rest]:
        taken[pair] += 1
    return [pair for pair in sorted(taken) for _ in range(taken[pair])]


def _pinned_relabel(rng: random.Random, t: dict, alpha: int, beta: int) -> dict:
    """A random member of the double coset of t: whites from beta on and
    blacks from alpha on are renamed, the labeled ones stay."""
    n, b, r, y = zero_based(t)
    whites = list(range(beta)) + [beta + x for x in random_images(rng, n - beta)]
    blacks = list(range(alpha)) + [alpha + x for x in random_images(rng, n - alpha)]
    return dict(triple_json(n, *relabel((b, r, y), whites, blacks)), alpha=alpha, beta=beta)


def _concentrate_jobs(rng: random.Random, count: int) -> list:
    # The cosets come from a fixed draw, their representatives from the seed.
    mix = random.Random("concentrate:mix")
    jobs = []
    for i in range(count):
        if i % PINNED_EVERY == 0:
            left = dict(triple_json(2, [1, 0], [0, 1], [0, 1]), alpha=0, beta=0)
            right = dict(left)
            beta = 0
        else:
            beta, dl, dr = CONCENTRATE_SHAPES[i % len(CONCENTRATE_SHAPES)]
            alpha, gamma = mix.randint(0, 2), mix.randint(0, 2)
            left = _pinned_relabel(rng, random_triple_json(mix, dl), alpha, beta)
            right = _pinned_relabel(rng, random_triple_json(mix, dr), beta, gamma)
        n_to = CONCENTRATE_TOP + beta
        jobs.append({
            "inputs": {"L": left, "R": right},
            "argvs": [
                ["concentrate", "{L}", "{R}", "--n-from", str(CONCENTRATE_N_FROM), "--n-to", str(n_to)]
            ],
            "meta": {"pinned": i % PINNED_EVERY == 0, "n_from": CONCENTRATE_N_FROM, "n_to": n_to},
        })
    return jobs


def _algebra_jobs(rng: random.Random, count: int) -> list:
    n = ALGEBRA_DEGREE
    classes = relabeling_classes(n)
    pairs = stratified_pairs([size for _, size in classes], count)
    rng.shuffle(pairs)
    jobs = []
    for pair in pairs:
        p, q = (
            triple_json(n, *relabel(classes[c][0], random_images(rng, n), random_images(rng, n)))
            for c in pair
        )
        jobs.append({
            "inputs": {"P": p, "Q": q},
            "argvs": [
                ["ik-product", "{P}", "{Q}"],
                ["ik-project", "{prev}", "--n", str(ALGEBRA_PROJECT_N)],
            ],
            "meta": {},
        })
    return jobs


def random_unit_tensor(rng: random.Random, dims) -> dict:
    size = dims[0] * dims[1] * dims[2]
    re = [rng.gauss(0.0, 1.0) for _ in range(size)]
    im = [rng.gauss(0.0, 1.0) for _ in range(size)]
    norm = math.sqrt(math.fsum(a * a for a in re) + math.fsum(b * b for b in im))
    return {"dims": list(dims), "re": [a / norm for a in re], "im": [b / norm for b in im]}


def _spherical_jobs(rng: random.Random, count: int) -> list:
    jobs = []
    while len(jobs) < count:
        # Connected surfaces only: a split surface factors into smaller sums
        # and would be a job of another size.
        t = random_triple_json(rng, SPHERICAL_DEGREE)
        if len(components(*zero_based(t))) != 1:
            continue
        jobs.append({
            "inputs": {"S": t, "XI": random_unit_tensor(rng, SPHERICAL_DIMS)},
            "argvs": [["spherical", "{S}", "{XI}"]],
            "meta": {},
        })
    return jobs


def _product_jobs(rng: random.Random, count: int) -> list:
    jobs = []
    for i in range(count):
        alpha, beta, gamma = PRODUCT_LABELS[i % len(PRODUCT_LABELS)]
        dl, dr = (
            lo + int((i * step) % 1.0 * (PRODUCT_MAX_DEGREE + 1 - lo))
            for lo, step in zip((max(1, alpha, beta), max(1, beta, gamma)), PRODUCT_STEPS)
        )
        jobs.append({
            "inputs": {"L": random_triple_json(rng, dl), "R": random_triple_json(rng, dr)},
            "argvs": [
                [
                    "product", "{L}", "{R}",
                    "--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma),
                ]
            ],
            "meta": {"alpha": alpha, "beta": beta, "gamma": gamma},
        })
    return jobs


JOB_LISTS = {
    "concentrate": _concentrate_jobs,
    "algebra": _algebra_jobs,
    "spherical": _spherical_jobs,
    "product": _product_jobs,
}


def make_jobs(name: str, seed: int, count: int | None = None) -> list:
    """The seeded job list of one workload; the same seed gives the same list.

    `count` shortens the list (tests); None keeps the workload's own size.
    """
    rng = random.Random("%s:%d" % (name, seed))
    return JOB_LISTS[name](rng, LIST_SIZE[name] if count is None else count)


def write_inputs(jobs: list, directory: str) -> None:
    """Write every job's input files and resolve the argv placeholders.

    Adds "argv" (list of resolved argument lists) and "pipe" (the file
    that carries one call's output into the next, or None) to each job.
    """
    for i, job in enumerate(jobs):
        paths = {}
        for stem, data in job["inputs"].items():
            path = os.path.join(directory, "%d-%s.json" % (i, stem))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            paths[stem] = path
        paths["prev"] = os.path.join(directory, "%d-prev.json" % i)
        job["argv"] = [[arg.format(**paths) for arg in argv] for argv in job["argvs"]]
        job["pipe"] = paths["prev"] if len(job["argvs"]) > 1 else None
