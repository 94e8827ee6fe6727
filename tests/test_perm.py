"""Permutation substrate: group laws, cycles, notation round trips."""

import random
from itertools import permutations

import pytest

from checkersurf.perm import (
    Permutation,
    _cycle_points,
    _cycle_string,
    _invert,
    compose,
    cycles,
    identity,
    inverse,
    random_permutation,
)


def perm(text):
    return Permutation.from_cycle_string(text)


def test_compose_identity_cases():
    assert compose(identity, identity) == identity
    assert compose(perm("(1 2)"), perm("(1 2)")) == identity


def test_compose_hand_evaluation():
    # p(q(x)) for p=(1 2 3), q=(1 2): 1->3, 2->2, 3->1; brute table below.
    p, q = perm("(1 2 3)"), perm("(1 2)")
    r = compose(p, q)
    assert [r(x) for x in (1, 2, 3)] == [3, 2, 1]
    for x in range(1, 6):
        assert r(x) == p(q(x))


def test_inverse_cases():
    assert inverse(identity) == identity
    assert inverse(perm("(1 2)")) == perm("(1 2)")
    p = perm("(1 2 3)")
    assert inverse(p) == perm("(1 3 2)")
    assert compose(p, inverse(p)) == identity


def test_cycles_cases():
    assert cycles(identity, {1, 2, 3}) == [(1,), (2,), (3,)]
    assert cycles(perm("(1 2 3)"), {1, 2, 3}) == [(1, 2, 3)]
    assert cycles(perm("(1 2)(3 4)"), range(1, 5)) == [(1, 2), (3, 4)]


def test_cycles_rejects_non_invariant_carrier():
    with pytest.raises(ValueError):
        cycles(perm("(1 2)"), {1})


def test_equality_ignores_trailing_fixed_points():
    assert Permutation((2, 1, 3, 4)) == Permutation((2, 1))
    assert hash(Permutation((2, 1, 3, 4))) == hash(Permutation((2, 1)))
    assert Permutation((2, 1)) != Permutation((2, 3, 1))


def test_compose_associative_exhaustive_deg_4():
    elems = [Permutation(p) for p in permutations(range(1, 5))]
    for p in elems:
        for q in elems:
            pq = compose(p, q)
            for r in elems[:6]:
                assert compose(pq, r) == compose(p, compose(q, r))


def test_compose_associative_random_larger():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 9)
        p, q, r = (random_permutation(rng, n) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_inverse_antihomomorphism():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 9)
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))
        # the 0-based array helper agrees with the Permutation inverse
        assert _invert([p(x) - 1 for x in range(1, n + 1)]) == tuple(
            inverse(p)(x) - 1 for x in range(1, n + 1)
        )


def test_cycle_lengths_partition_degree():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 10)
        p = random_permutation(rng, n)
        assert sum(len(c) for c in cycles(p, range(1, n + 1))) == n


def test_cycle_string_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        p = random_permutation(rng, rng.randint(1, 9))
        assert Permutation.from_cycle_string(p.cycle_string()) == p


def test_cycle_string_parser_examples():
    assert perm("(1 2 3)(4 5)").images == (2, 3, 1, 5, 4)
    assert perm("()") == identity
    assert perm("(1, 2, 3)") == perm("(1 2 3)")


def test_parser_rejects_malformed():
    for bad in ["(1 2", "1 2)", "(1 1)", "(1 2)(2 3)", "(0 1)"]:
        with pytest.raises(ValueError):
            perm(bad)


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        p = random_permutation(rng, rng.randint(0, 8))
        assert Permutation.from_json(p.to_json()) == p


def test_constructor_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_one_line_padding():
    assert perm("(1 2)").one_line(4) == (2, 1, 3, 4)
    with pytest.raises(ValueError):
        perm("(1 2 3)").one_line(2)


def test_cycle_points_yields_each_cycle():
    assert list(_cycle_points(" (1 2 3)(4, 5)( 7 ) ")) == [[1, 2, 3], [4, 5], [7]]
    assert list(_cycle_points("(1 2)()")) == [[1, 2], []]
    for text in ("", "()", "id", "e", "  "):
        assert list(_cycle_points(text)) == []
    # each cycle is checked before it is yielded, the text's shape first
    points = _cycle_points("(1 2)(3 3)")
    assert next(points) == [1, 2]
    with pytest.raises(ValueError, match="repeated point"):
        next(points)
    for bad in ["(1 2", "1 2)", "(1 2))(", "(1 x)", "(0 1)", "(1 2) 3", "(1 (2 3))"]:
        with pytest.raises(ValueError):
            list(_cycle_points(bad))


def test_cycle_string_is_the_text_of_the_public_cycles():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(0, 12)
        arr = list(range(n))
        moved = rng.sample(range(n), rng.randint(0, n))  # the rest stay fixed
        images = moved[:]
        rng.shuffle(images)
        for x, y in zip(moved, images):
            arr[x] = y
        p = Permutation(tuple([x + 1 for x in arr]))
        parts = ["(%s)" % " ".join(map(str, c)) for c in cycles(p, range(1, n + 1)) if len(c) > 1]
        expected = "".join(parts) or "()"
        assert _cycle_string(arr) == p.cycle_string() == str(p) == expected
