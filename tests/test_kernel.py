"""Canonical-labeling kernel: the contract every other module leans on.

Oracles here are independent of the kernel: double-coset orbits are
enumerated directly by applying the two-sided relabeling action, and the
pair census has a closed-form Burnside count (sum over cycle types of the
centralizer order). The kernel's pruned root search is also compared with
`oracles.canonical_code_oracle`, which builds every root's full code.
"""

import math
import random
from itertools import permutations

import pytest

from checkersurf import kernel
from checkersurf.kernel import BACKEND, canonical_code
from oracles import canonical_code_oracle


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


@pytest.mark.parametrize("alpha,beta", [(3, 0), (0, 3), (-1, 0), (0, -1)])
def test_label_count_error_message(alpha, beta):
    ident = (0, 1)
    message = "label counts alpha=%r beta=%r out of range for n=2" % (alpha, beta)
    with pytest.raises(ValueError) as err:
        canonical_code(2, ident, ident, ident, alpha, beta, True)
    assert str(err.value) == message


@pytest.mark.parametrize("color", [0, 1, 2])
@pytest.mark.parametrize(
    "bad", [(0, 1, 3), (0, -1, 2), (0, 2, 0)], ids=["range", "negative", "duplicate"]
)
def test_non_bijection_error_message(color, bad):
    arrays = [(0, 1, 2)] * 3
    arrays[color] = bad
    name = ("blue", "red", "yellow")[color]
    with pytest.raises(ValueError) as err:
        canonical_code(3, *arrays, 0, 0, True)
    assert str(err.value) == "%s is not a bijection of range(n)" % name


def shuffled(rng, n):
    a = list(range(n))
    rng.shuffle(a)
    return a


def relabeled(rng, arrays):
    """The arrays under a random relabeling of whites and of blacks."""
    n = len(arrays[0])
    left, right = shuffled(rng, n), shuffled(rng, n)
    return [[left[a[right[w]]] for w in range(n)] for a in arrays]


def random_triples(rng):
    for _ in range(150):
        n = rng.randint(1, 12)
        yield [shuffled(rng, n) for _ in range(3)]


def disjoint_copies(rng):
    # 1 to 4 copies of one component, each renumbered, then all shuffled
    for _ in range(60):
        m, copies = rng.randint(1, 6), rng.randint(1, 4)
        base = [shuffled(rng, m) for _ in range(3)]
        arrays = [[0] * (m * copies) for _ in range(3)]
        for c in range(copies):
            wl, bl = shuffled(rng, m), shuffled(rng, m)
            for w in range(m):
                for a, img in zip(arrays, base):
                    a[c * m + wl[w]] = c * m + bl[img[w]]
        yield relabeled(rng, arrays)


def cycle_powers(rng):
    # powers of one n-cycle in blue, red and yellow: transitive symmetry
    for _ in range(60):
        n = rng.randint(1, 30)
        ks = [rng.randrange(n) for _ in range(3)]
        if rng.random() < 0.5:
            ks[1] = ks[2] = 0
        yield relabeled(rng, [[(w + k) % n for w in range(n)] for k in ks])


def regular_actions(rng):
    # Z_a x Z_c acting freely: white (w, g) meets black (img[w], g + v)
    # for a random voltage v per white and color, over a random triple on
    # m points; the group acts regularly on each fiber, and on everything
    # when m = 1
    for _ in range(80):
        a, c, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        base = [shuffled(rng, m) for _ in range(3)]
        arrays = []
        for img in base:
            volts = [(rng.randrange(a), rng.randrange(c)) for _ in range(m)]
            arrays.append([
                (img[w] * a + (i + volts[w][0]) % a) * c + (j + volts[w][1]) % c
                for w in range(m) for i in range(a) for j in range(c)
            ])
        yield relabeled(rng, arrays)


def cycle_with_defect(rng):
    # a long cycle whose red swaps two nearby points: roots far from the
    # swap share long code prefixes
    for _ in range(40):
        n = rng.randint(3, 40)
        red = list(range(n))
        i = rng.randrange(n)
        j = (i + rng.randint(1, 3)) % n
        red[i], red[j] = red[j], red[i]
        yield relabeled(rng, [[(w + 1) % n for w in range(n)], red, list(range(n))])


@pytest.mark.parametrize(
    "family", [random_triples, disjoint_copies, cycle_powers, regular_actions, cycle_with_defect]
)
def test_matches_full_root_enumeration(family):
    rng = random.Random(family.__name__)
    for arrays in family(rng):
        n = len(arrays[0])
        settings = [(0, 0, True), (0, 0, False)]
        settings.append((rng.randint(0, n), rng.randint(0, n), rng.random() < 0.5))
        settings.append((rng.randint(0, 1), rng.randint(0, 1), False))
        for alpha, beta, strip in settings:
            expected = canonical_code_oracle(n, *arrays, alpha, beta, strip)
            assert canonical_code(n, *arrays, alpha, beta, strip) == expected


def test_cycle_starts_at_most_two_root_runs(monkeypatch):
    # the second root ties with the first; the rotation it yields covers
    # every other root
    runs = []
    root_code = kernel._root_code

    def counted(*args):
        runs.append(args[0])
        return root_code(*args)

    monkeypatch.setattr(kernel, "_root_code", counted)
    n = 2000
    ident = tuple(range(n))
    cycle = tuple((w + 1) % n for w in range(n))
    assert canonical_code(n, cycle, ident, ident, 0, 0, True)[0] == n
    assert len(runs) <= 2


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
