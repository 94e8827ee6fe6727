"""Coset category: theta, the shift product, its geometric twin, star.

The geometric concatenation is the independent oracle for circledast;
both paths are computed on every sampled pair and must agree.
"""

import random

import pytest
from oracles import concat_geometric_oracle

from checkersurf.errors import SchemaError
from checkersurf.perm import Permutation, compose
from checkersurf.surface import (
    Triple,
    canonical_form,
    disjoint_union,
    random_triple,
)
from checkersurf.cosets import (
    DoubleCoset,
    _shift_product,
    circledast,
    circledast_with_reps,
    concat_geometric,
    star,
    theta,
)


def rand_coset(rng, n, alpha, beta):
    return DoubleCoset.from_triple(random_triple(rng, n), alpha, beta)


def k_elt(rng, fix, n):
    """Random element of S_n fixing 1..fix pointwise."""
    tail = list(range(fix + 1, n + 1))
    rng.shuffle(tail)
    return Permutation(tuple(range(1, fix + 1)) + tuple(tail))


def test_theta_examples():
    assert theta(1, 0) == Permutation.from_cycle_string("(1 2)")
    assert theta(2, 1) == Permutation.from_cycle_string("(2 4)(3 5)")


def test_theta_is_involution_fixing_prefix():
    for j in range(1, 5):
        for beta in range(4):
            th = theta(j, beta)
            assert compose(th, th).is_identity()
            for x in range(1, beta + 1):
                assert th(x) == x
            for x in range(beta + 2 * j + 1, beta + 2 * j + 4):
                assert th(x) == x


def test_theta_rejects_bad_sizes():
    with pytest.raises(ValueError):
        theta(0, 0)


def test_product_at_zero_labels_is_disjoint_union():
    rng = random.Random(51)
    for _ in range(100):
        tp = random_triple(rng, rng.randint(1, 5))
        tq = random_triple(rng, rng.randint(1, 5))
        p = DoubleCoset.from_triple(tp, 0, 0)
        q = DoubleCoset.from_triple(tq, 0, 0)
        union = canonical_form(disjoint_union(tp, tq), 0, 0)
        assert circledast(p, q).surface == union


def test_unit_laws_by_enumeration_small_beta():
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(1, 5)
        alpha = rng.randint(0, min(2, n))
        beta = rng.randint(0, min(2, n))
        c = rand_coset(rng, n, alpha, beta)
        assert circledast(c, DoubleCoset.identity(beta)) == c
        assert circledast(DoubleCoset.identity(alpha), c) == c


def test_identity_morphism_shape():
    e = DoubleCoset.identity(2)
    assert (e.alpha, e.beta, e.degree) == (2, 2, 2)
    assert e.surface.triple == Triple("()", "()", "()", n=2)


def test_associativity_random():
    rng = random.Random(59)
    for _ in range(500):
        a, b, c, d = (rng.randint(0, 2) for _ in range(4))
        P = rand_coset(rng, rng.randint(max(a, b, 1), 5), a, b)
        Q = rand_coset(rng, rng.randint(max(b, c, 1), 5), b, c)
        R = rand_coset(rng, rng.randint(max(c, d, 1), 5), c, d)
        assert circledast(circledast(P, Q), R) == circledast(P, circledast(Q, R))


def test_stabilization_three_consecutive_shifts():
    rng = random.Random(61)
    for _ in range(100):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        beta = rng.randint(0, min(n1, n2, 2))
        alpha = rng.randint(0, min(2, n1))
        gamma = rng.randint(0, min(2, n2))
        tp = canonical_form(random_triple(rng, n1), alpha, beta).triple
        tq = canonical_form(random_triple(rng, n2), beta, gamma).triple
        j0 = max(tp.n, tq.n, 1)
        values = [
            _shift_product(tp, tq, alpha, beta, gamma, j) for j in (j0, j0 + 1, j0 + 2)
        ]
        assert values[0] == values[1] == values[2]


def test_representative_independence():
    rng = random.Random(67)
    for _ in range(150):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        beta = rng.randint(0, min(n1, n2, 2))
        alpha = rng.randint(0, min(2, n1))
        gamma = rng.randint(0, min(2, n2))
        P = rand_coset(rng, n1, alpha, beta)
        Q = rand_coset(rng, n2, beta, gamma)
        base = circledast(P, Q).surface

        # scramble both representatives inside their cosets
        tp, tq = P.surface.triple, Q.surface.triple
        h1, h2 = k_elt(rng, alpha, tp.n), k_elt(rng, beta, tp.n)
        tq_h1, tq_h2 = k_elt(rng, beta, tq.n), k_elt(rng, gamma, tq.n)
        tp2 = Triple(
            *[compose(compose(h1, g), h2) for g in (tp.blue, tp.red, tp.yellow)], n=tp.n
        )
        tq2 = Triple(
            *[compose(compose(tq_h1, g), tq_h2) for g in (tq.blue, tq.red, tq.yellow)],
            n=tq.n,
        )
        assert circledast_with_reps(tp2, tq2, alpha, beta, gamma) == base


def test_concat_two_double_triangles_gives_one():
    e = DoubleCoset.identity(1)
    assert concat_geometric(e.surface, e.surface) == e.surface
    assert circledast(e, e) == e


def test_concat_beta_zero_is_disjoint_union():
    rng = random.Random(71)
    for _ in range(50):
        tp = random_triple(rng, rng.randint(1, 5))
        tq = random_triple(rng, rng.randint(1, 5))
        P = canonical_form(tp, 0, 0)
        Q = canonical_form(tq, 0, 0)
        assert concat_geometric(P, Q) == canonical_form(disjoint_union(tp, tq), 0, 0)


def test_concat_equals_circledast_random():
    rng = random.Random(73)
    for _ in range(1000):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        beta = rng.randint(0, min(n1, n2, 3))
        alpha = rng.randint(0, min(3, n1))
        gamma = rng.randint(0, min(3, n2))
        P = rand_coset(rng, n1, alpha, beta)
        Q = rand_coset(rng, n2, beta, gamma)
        assert concat_geometric(P.surface, Q.surface) == circledast(P, Q).surface


def test_concat_geometric_matches_the_loop_oracle():
    rng = random.Random(74)
    edge_cases = 0
    for i in range(600):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        # beta = 0 (disjoint union), beta = a factor's degree, or in between
        beta = (0, min(n1, n2), rng.randint(0, min(n1, n2)))[i % 3]
        P = canonical_form(random_triple(rng, n1), rng.randint(0, n1), beta)
        Q = canonical_form(random_triple(rng, n2), beta, rng.randint(0, n2))
        edge_cases += beta == 0 or beta in (P.n, Q.n)
        assert concat_geometric(P, Q) == concat_geometric_oracle(P, Q)
    assert edge_cases >= 400


def test_star_examples_and_laws():
    assert star(DoubleCoset.identity(2)) == DoubleCoset.identity(2)
    rng = random.Random(79)
    for _ in range(500):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        b = rng.randint(0, min(n1, n2, 2))
        a = rng.randint(0, min(2, n1))
        g = rng.randint(0, min(2, n2))
        P = rand_coset(rng, n1, a, b)
        Q = rand_coset(rng, n2, b, g)
        assert star(star(P)) == P
        assert star(circledast(P, Q)) == circledast(star(Q), star(P))
        assert (star(P).alpha, star(P).beta) == (P.beta, P.alpha)


def test_mismatched_inner_labels_rejected():
    rng = random.Random(83)
    P = rand_coset(rng, 4, 1, 2)
    Q = rand_coset(rng, 4, 1, 1)
    with pytest.raises(SchemaError):
        circledast(P, Q)
    with pytest.raises(SchemaError):
        concat_geometric(P.surface, Q.surface)


def test_coset_json_round_trip():
    rng = random.Random(89)
    for _ in range(30):
        n = rng.randint(1, 5)
        c = rand_coset(rng, n, rng.randint(0, n), rng.randint(0, n))
        assert DoubleCoset.from_json(c.to_json()) == c
