"""Brute-force oracles kept for the tests after a formula replaced them."""

from fractions import Fraction
from itertools import permutations
from math import factorial

from checkersurf import kernel
from checkersurf.convolution import CosetAlgebraElement
from checkersurf.cosets import DoubleCoset
from checkersurf.perm import _pad
from checkersurf.surface import LabeledSurface


def hsum_oracle(p: DoubleCoset, q: DoubleCoset, n: int) -> CosetAlgebraElement:
    """coset_decomposition by the h-sum: classify a0 * (h,h,h) * b0 for
    every one of the (n - beta)! permutations h of [beta, n)."""
    assert p.beta == q.alpha and n >= max(p.degree, q.degree)
    alpha, beta, gamma = p.alpha, p.beta, q.beta
    a = [_pad(arr, n) for arr in (p.surface._b, p.surface._r, p.surface._y)]
    b = [_pad(arr, n) for arr in (q.surface._b, q.surface._r, q.surface._y)]
    counts = {}
    for tail in permutations(range(beta, n)):
        h = tuple(range(beta)) + tail
        prods = [tuple(ac[h[bc[x]]] for x in range(n)) for ac, bc in zip(a, b)]
        key = kernel.canonical_code(n, prods[0], prods[1], prods[2], alpha, gamma, True)
        counts[key] = counts.get(key, 0) + 1
    total = factorial(n - beta)
    coeffs = {
        DoubleCoset(LabeledSurface(alpha, gamma, *key)): Fraction(cnt, total)
        for key, cnt in counts.items()
    }
    return CosetAlgebraElement(n, alpha, gamma, coeffs)
