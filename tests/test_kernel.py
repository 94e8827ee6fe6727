"""Canonical-labeling kernel: the contract every other module leans on.

Oracles here are independent of the kernel: double-coset orbits are
enumerated directly by applying the two-sided relabeling action, and the
pair census has a closed-form Burnside count (sum over cycle types of the
centralizer order).
"""

import math
import random
from itertools import permutations

import pytest

from checkersurf.kernel import BACKEND, canonical_code


def all_perms(n):
    return [tuple(p) for p in permutations(range(n))]


def act(triple, left, right):
    """Two-sided relabeling: white w -> new white, black b -> left[b].

    q^c = left o p^c o right as 0-based image arrays.
    """
    b, r, y = triple
    n = len(b)
    return (
        tuple(left[b[right[w]]] for w in range(n)),
        tuple(left[r[right[w]]] for w in range(n)),
        tuple(left[y[right[w]]] for w in range(n)),
    )


def fixing(n, k):
    """All elements of S_n fixing 0..k-1 pointwise, as image tuples."""
    out = []
    for tail in permutations(range(k, n)):
        out.append(tuple(range(k)) + tail)
    return out


def orbit_of(triple, alpha, beta):
    """Direct double-coset orbit enumeration, the kernel-free oracle."""
    n = len(triple[0])
    lefts = fixing(n, alpha)
    rights = fixing(n, beta)
    return {act(triple, l, r) for l in lefts for r in rights}


def test_coset_constancy_exhaustive_n3():
    perms = all_perms(3)
    rng = random.Random(7)
    triples = [(rng.choice(perms), rng.choice(perms), rng.choice(perms)) for _ in range(40)]
    for b, r, y in triples:
        for alpha in range(3):
            for beta in range(3):
                base = canonical_code(3, b, r, y, alpha, beta, True)
                for other in orbit_of((b, r, y), alpha, beta):
                    assert canonical_code(3, *other, alpha, beta, True) == base


def test_distinct_cosets_get_distinct_codes_n3():
    # Injectivity at fixed degree: group all of S_3^3 by orbit, then by code.
    perms = all_perms(3)
    for alpha, beta in [(0, 0), (1, 0), (0, 2), (2, 1)]:
        orbit_id = {}
        for b in perms:
            for r in perms:
                for y in perms:
                    t = (b, r, y)
                    if t in orbit_id:
                        continue
                    orb = orbit_of(t, alpha, beta)
                    for member in orb:
                        orbit_id[member] = t
        codes = {}
        for t, rep in orbit_id.items():
            code = canonical_code(3, *t, alpha, beta, True)
            if code in codes:
                assert codes[code] == rep, "two orbits share a code"
            else:
                codes[code] = rep
        assert len(codes) == len(set(orbit_id.values()))


def test_idempotent():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 8)
        arrs = []
        for _ in range(3):
            a = list(range(n))
            rng.shuffle(a)
            arrs.append(tuple(a))
        alpha, beta = rng.randint(0, n), rng.randint(0, n)
        strip = rng.random() < 0.5
        n2, b2, r2, y2 = canonical_code(n, *arrs, alpha, beta, strip)
        again = canonical_code(n2, b2, r2, y2, alpha, beta, strip)
        assert again == (n2, b2, r2, y2)


def test_pins_are_pointwise_fixed_under_full_labels():
    # alpha = beta = n pins everything: the code is the input itself.
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 7)
        arrs = []
        for _ in range(3):
            a = list(range(n))
            rng.shuffle(a)
            arrs.append(tuple(a))
        assert canonical_code(n, *arrs, n, n, True) == (n, *arrs)


def test_strip_drops_exactly_unlabeled_double_triangles():
    # identity triple: all components are double triangles.
    n = 4
    idt = tuple(range(n))
    assert canonical_code(n, idt, idt, idt, 0, 0, True) == (0, (), (), ())
    # one white pin keeps one of them.
    n2, b, r, y = canonical_code(n, idt, idt, idt, 0, 1, True)
    assert (n2, b, r, y) == (1, (0,), (0,), (0,))
    # without strip everything stays.
    assert canonical_code(n, idt, idt, idt, 0, 0, False) == (n, idt, idt, idt)


def burnside_pair_count(n):
    """Sum over cycle types of prod_i i^{m_i} m_i!, the orbit count of
    diagonal conjugation on pairs."""

    def types(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in types(remaining - part, part):
                yield (part,) + rest

    total = 0
    for lam in types(n, n):
        z = 1
        mult = {}
        for part in lam:
            mult[part] = mult.get(part, 0) + 1
        for part, m in mult.items():
            z *= part**m * math.factorial(m)
        total += z
    return total


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 11), (4, 43)])
def test_pair_census_matches_burnside(n, expected):
    assert burnside_pair_count(n) == expected
    idt = tuple(range(n))
    forms = set()
    for g1 in permutations(range(n)):
        for g2 in permutations(range(n)):
            forms.add(canonical_code(n, g1, g2, idt, 0, 0, False))
    assert len(forms) == expected


def test_pair_census_matches_direct_orbit_count():
    # Second oracle: enumerate diagonal-conjugation orbits of pairs directly.
    for n in range(1, 5):
        perms = all_perms(n)
        seen = set()
        orbits = 0
        for g1 in perms:
            for g2 in perms:
                if (g1, g2) in seen:
                    continue
                orbits += 1
                for h in perms:
                    ih = [0] * n
                    for i, v in enumerate(h):
                        ih[v] = i
                    c1 = tuple(h[g1[ih[x]]] for x in range(n))
                    c2 = tuple(h[g2[ih[x]]] for x in range(n))
                    seen.add((c1, c2))
        assert orbits == burnside_pair_count(n)


def test_label_counts_validated():
    with pytest.raises(ValueError):
        canonical_code(2, (0, 1), (0, 1), (0, 1), 3, 0, True)
    with pytest.raises(ValueError):
        canonical_code(2, (0, 1), (0, 1), (0, 1), 0, -1, True)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        canonical_code(2, (0, 0), (0, 1), (0, 1), 0, 0, True)


def test_empty_input():
    assert canonical_code(0, (), (), (), 0, 0, True) == (0, (), (), ())


def test_component_sort_is_by_size_then_code():
    # A double triangle plus a sphere on two pairs, fed in both orders.
    b1 = (0, 2, 1)
    one_first = canonical_code(3, b1, tuple(range(3)), tuple(range(3)), 0, 0, False)
    b2 = (1, 0, 2)
    two_first = canonical_code(3, b2, tuple(range(3)), tuple(range(3)), 0, 0, False)
    assert one_first == two_first
    assert one_first[1][0] == 0  # double-triangle block first


def test_backend_selection_reports():
    assert BACKEND == "python"
