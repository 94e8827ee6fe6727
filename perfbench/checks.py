"""Output checkers, one per workload.

Each checker takes a job (from workloads.make_jobs) and the standard
output of each of its calls, and raises CheckFailure when the output is
wrong. Every check is either a computation made apart from the program
or a property the method must have; none compares against a stored copy
of earlier output. Checks that call back into `checkersurf` use a
different code path from the one the CLI ran (concat_geometric against
circledast, convolution of lifts against projection of the product).

The caller imports this module only after `checkersurf` is importable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, factorial, perm

import numpy as np

from checkersurf.convolution import convolve
from checkersurf.cosets import DoubleCoset, circledast, concat_geometric
from checkersurf.ik import lift
from checkersurf.surface import LabeledSurface, Triple, checker_surface

import workloads

SPHERICAL_TOLERANCE = 1e-10

# Share of jobs that get the costly checks (a convolution of two lifts,
# or two extra coset products); the rest get every other check.
ALGEBRA_CONVOLVE_EVERY = 8
PRODUCT_ASSOCIATIVITY_EVERY = 10


class CheckFailure(Exception):
    """An output that the program should not have produced."""


def _require(condition: bool, message: str, *args) -> None:
    if not condition:
        raise CheckFailure(message % args)


def check_concentrate(job: dict, outputs: list, rng: random.Random) -> None:
    payload = json.loads(outputs[0])
    left, right = job["inputs"]["L"], job["inputs"]["R"]
    alpha, beta, gamma = left["alpha"], left["beta"], right["beta"]
    degrees = list(range(job["meta"]["n_from"], job["meta"]["n_to"] + 1))
    _require(
        [d["n"] for d in payload["decompositions"]] == degrees
        and [s["n"] for s in payload["series"]] == degrees,
        "degrees differ from %r",
        degrees,
    )
    p = LabeledSurface.from_json(left)
    q = LabeledSurface.from_json(right)
    geometric = concat_geometric(p, q)
    target = LabeledSurface.from_json(payload["target"])
    _require(target == geometric, "series target is not the geometric product")
    for decomp, point in zip(payload["decompositions"], payload["series"]):
        n = decomp["n"]
        _require(
            (decomp["alpha"], decomp["gamma"]) == (alpha, gamma),
            "labels (%r, %r) at n=%d, expected (%d, %d)",
            decomp["alpha"], decomp["gamma"], n, alpha, gamma,
        )
        size = factorial(n - beta)
        mass = Fraction(0)
        sigma = Fraction(0)
        for term in decomp["terms"]:
            coeff = Fraction(term["coeff"])
            _require(coeff > 0, "coefficient %s at n=%d is not positive", coeff, n)
            _require(
                size % coeff.denominator == 0,
                "denominator of %s at n=%d does not divide (n-beta)! = %d",
                coeff, n, size,
            )
            surface = term["surface"]
            _require(
                (surface["alpha"], surface["beta"]) == (alpha, gamma),
                "term labels (%r, %r) at n=%d",
                surface["alpha"], surface["beta"], n,
            )
            mass += coeff
            if LabeledSurface.from_json(surface) == target:
                sigma = coeff
        _require(mass == 1, "mass %s at n=%d is not 1", mass, n)
        _require(
            Fraction(point["sigma"]) == sigma,
            "series value %s at n=%d differs from the target's coefficient %s",
            point["sigma"], n, sigma,
        )
        if job["meta"]["pinned"]:
            closed = Fraction((n - 2) * (n - 3), n * (n - 1))
            _require(sigma == closed, "sigma %s at n=%d, closed form gives %s", sigma, n, closed)


def _rational(text: str):
    """A printed coefficient as an exact number; integers skip Fraction."""
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


def _conjugate(g, ginv, images) -> tuple:
    """g x g^-1 on 0-based image arrays, ginv the inverse of g."""
    return tuple(g[images[x]] for x in ginv)


def _pair_terms(payload: dict, n: int) -> dict:
    """{(blue, red): coefficient} of an ik-project output, 0-based images."""
    terms = {}
    identity = list(range(1, n + 1))
    for term in payload["terms"]:
        t = term["triple"]
        _require(t["n"] == n, "ik-project term of degree %r, expected %d", t["n"], n)
        _require(t["yellow"] == identity, "ik-project term with yellow %r", t["yellow"])
        coeff = _rational(term["coeff"])
        _require(coeff > 0, "ik-project coefficient %s is not positive", coeff)
        terms[(tuple(x - 1 for x in t["blue"]), tuple(x - 1 for x in t["red"]))] = coeff
    return terms


def check_algebra(job: dict, outputs: list, rng: random.Random) -> None:
    product = json.loads(outputs[0])
    d = workloads.ALGEBRA_DEGREE
    total = 0
    for term in product["terms"]:
        coeff = _rational(term["coeff"])
        _require(coeff.denominator == 1 and coeff > 0, "ik-product coefficient %s", coeff)
        degree = term["surface"]["n"]
        _require(d <= degree <= 2 * d, "ik-product term of degree %d", degree)
        total += coeff
    # One gluing per partial bijection from the blacks of p to the whites of q.
    expected = sum(comb(d, k) * perm(d, k) for k in range(d + 1))
    _require(total == expected, "ik-product coefficients sum to %s, expected %d", total, expected)

    n = workloads.ALGEBRA_PROJECT_N
    projected = json.loads(outputs[1])
    _require(projected["n"] == n, "ik-project degree %r", projected["n"])
    terms = _pair_terms(projected, n)
    # The lift of a degree-d surface sums its n!/(n-d)! point embeddings,
    # and convolution multiplies masses, so the projection of p q has mass
    # (n!/(n-d)!)^2.
    mass = sum(terms.values())
    _require(mass == perm(n, d) ** 2, "ik-project mass %s, expected %d", mass, perm(n, d) ** 2)
    # A projection is a sum of diagonal class sums: conjugating every pair
    # by the same permutation maps the support onto itself, coefficients
    # kept. The two generators of S_n make the check complete.
    conjugators = [
        (1, 0) + tuple(range(2, n)),
        tuple(range(1, n)) + (0,),
        tuple(workloads.random_images(rng, n)),
    ]
    for g in conjugators:
        ginv = workloads.inverse(g)
        for (b, r), coeff in terms.items():
            image = (_conjugate(g, ginv, b), _conjugate(g, ginv, r))
            _require(
                terms.get(image) == coeff,
                "ik-project coefficient of %r is %s, of its conjugate %s",
                (b, r), coeff, terms.get(image),
            )
    if rng.randrange(ALGEBRA_CONVOLVE_EVERY) == 0:
        p = checker_surface(Triple.from_json(job["inputs"]["P"]))
        q = checker_surface(Triple.from_json(job["inputs"]["Q"]))
        conv = convolve(lift(p, n), lift(q, n))
        expected_terms = {(key._b, key._r): coeff for key, coeff in conv.items()}
        _require(
            terms == expected_terms,
            "projection of the product differs from the convolution of the lifts",
        )


def spherical_reference(surface: dict, xi: dict) -> complex:
    """Full contraction of the edge network with numpy.einsum.

    One index per (color, white triangle) edge; white w contributes
    xi[b_w, r_w, y_w] and black k the conjugated entry on the edges of the
    whites glued to it.
    """
    n, b, r, y = workloads.zero_based(surface)
    dims = tuple(xi["dims"])
    entries = (np.array(xi["re"]) + 1j * np.array(xi["im"])).reshape(dims)
    inverses = [workloads.inverse(a) for a in (b, r, y)]
    operands = []
    for w in range(n):
        operands += [entries, [3 * w, 3 * w + 1, 3 * w + 2]]
    conj = np.conjugate(entries)
    for k in range(n):
        operands += [conj, [3 * inverses[c][k] + c for c in range(3)]]
    return complex(np.einsum(*operands, [], optimize=True))


def check_spherical(job: dict, outputs: list, rng: random.Random) -> None:
    payload = json.loads(outputs[0])
    reference = spherical_reference(job["inputs"]["S"], job["inputs"]["XI"])
    for path in ("assignment_sum", "inner_product"):
        value = complex(payload[path]["re"], payload[path]["im"])
        _require(
            abs(value - reference) <= SPHERICAL_TOLERANCE,
            "%s %r is %.3e from the einsum contraction %r",
            path, value, abs(value - reference), reference,
        )
        _require(abs(value) <= 1 + SPHERICAL_TOLERANCE, "|%s| = %r exceeds 1", path, abs(value))


def _euler_characteristics(n: int, b, r, y) -> dict:
    """chi of each component (1-based tuple), recounted from the gluing words."""
    iy = workloads.inverse(y)
    ir = workloads.inverse(r)
    words = ([iy[v] for v in b], [iy[v] for v in r], [ir[v] for v in b])
    chis = {}
    for comp in workloads.components(n, b, r, y):
        cycles = 0
        for word in words:
            seen = set()
            for start in comp:
                if start not in seen:
                    cycles += 1
                    x = start
                    while x not in seen:
                        seen.add(x)
                        x = word[x]
        chis[tuple(x + 1 for x in comp)] = cycles - len(comp)
    return chis


def check_product(job: dict, outputs: list, rng: random.Random) -> None:
    info = json.loads(outputs[0])
    meta = job["meta"]
    _require(
        (info["alpha"], info["beta"]) == (meta["alpha"], meta["gamma"]),
        "labels (%r, %r), expected (%d, %d)",
        info["alpha"], info["beta"], meta["alpha"], meta["gamma"],
    )
    bound = job["inputs"]["L"]["n"] + job["inputs"]["R"]["n"] - meta["beta"]
    _require(info["n"] <= bound, "degree %d exceeds deg L + deg R - beta = %d", info["n"], bound)
    chis = _euler_characteristics(*workloads.zero_based(info))
    printed = {tuple(c): chi for c, chi in zip(info["components"], info["chi"])}
    _require(
        len(info["components"]) == len(info["chi"]) and printed == chis,
        "components and Euler characteristics %r, recounted %r",
        printed, chis,
    )
    if rng.randrange(PRODUCT_ASSOCIATIVITY_EVERY) == 0:
        left = DoubleCoset.from_triple(Triple.from_json(job["inputs"]["L"]), meta["alpha"], meta["beta"])
        right = DoubleCoset.from_triple(Triple.from_json(job["inputs"]["R"]), meta["beta"], meta["gamma"])
        delta = rng.randint(0, 3)
        third_t = workloads.random_triple_json(rng, rng.randint(max(1, meta["gamma"], delta), 8))
        third = DoubleCoset.from_triple(Triple.from_json(third_t), meta["gamma"], delta)
        printed_coset = DoubleCoset(LabeledSurface.from_json(info))
        _require(
            circledast(printed_coset, third) == circledast(left, circledast(right, third)),
            "(L R) T differs from L (R T)",
        )


CHECKERS = {
    "concentrate": check_concentrate,
    "algebra": check_algebra,
    "spherical": check_spherical,
    "product": check_product,
}


def check(name: str, seed: int, index: int, job: dict, outputs: list) -> None:
    """Run the workload's checker on one job's outputs.

    The seeded generator picks the subset for the costly checks and the
    random conjugators; it depends on the seed and the job index only.
    """
    rng = random.Random("check:%s:%d:%d" % (name, seed, index))
    try:
        CHECKERS[name](job, outputs, rng)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailure("malformed output: %r" % (exc,)) from None
