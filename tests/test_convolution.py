"""Exact convolution of biinvariant measures and coset decompositions.

Every numeric expectation here is either computed by a brute-force oracle
(full group-algebra convolution over enumerated cosets, inside this file,
or the h-sum of oracles.py) or frozen from the closed form for the
transposition pair.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from oracles import hsum_oracle

from checkersurf import convolution, kernel
from checkersurf.convolution import (
    CosetAlgebraElement,
    GroupAlgebraElement,
    convolve,
    coset_decomposition,
    delta_subgroup,
    matching_count,
    sigma_series,
)
from checkersurf.cosets import DoubleCoset, circledast
from checkersurf.errors import SchemaError
from checkersurf.ik import IKElement
from checkersurf.perm import compose
from checkersurf.surface import Triple, canonical_form, random_triple


def uniform_on_coset(p, n):
    """Oracle: enumerate the double coset as a set and weight uniformly."""
    a = [list(arr) + list(range(len(arr), n)) for arr in (p.surface._b, p.surface._r, p.surface._y)]
    seen = set()
    for tl in permutations(range(p.alpha, n)):
        hl = tuple(range(p.alpha)) + tl
        for tr in permutations(range(p.beta, n)):
            hr = tuple(range(p.beta)) + tr
            seen.add(
                Triple._from_zero_based(
                    n, *[tuple(hl[a[c][hr[x]]] for x in range(n)) for c in range(3)]
                )
            )
    w = Fraction(1, len(seen))
    return GroupAlgebraElement(n, {t: w for t in seen})


def classify(f, alpha, gamma):
    """Oracle: push a group-algebra element down to coset classes."""
    out = {}
    for t, c in f.items():
        key = DoubleCoset.from_triple(t, alpha, gamma)
        out[key] = out.get(key, Fraction(0)) + c
    return out


def random_coset(rng, alpha, beta, max_deg):
    deg = rng.randint(max(alpha, beta, 1), max_deg)
    return DoubleCoset.from_triple(random_triple(rng, deg), alpha, beta)


def test_point_masses_multiply_like_group_elements():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(1, 5)
        x = random_triple(rng, n)
        y = random_triple(rng, n)
        lhs = convolve(GroupAlgebraElement.delta(x, n), GroupAlgebraElement.delta(y, n))
        xy = Triple(*(compose(getattr(x, c), getattr(y, c)) for c in ("blue", "red", "yellow")), n=n)
        assert lhs == GroupAlgebraElement.delta(xy, n)


def test_identity_point_mass_is_neutral():
    rng = random.Random(22)
    e = Triple("()", "()", "()")
    for _ in range(30):
        n = rng.randint(1, 4)
        f = GroupAlgebraElement(
            n,
            {
                random_triple(rng, n): Fraction(rng.randint(-4, 6), rng.randint(1, 9))
                for _ in range(5)
            },
        )
        de = GroupAlgebraElement.delta(e, n)
        assert convolve(f, de) == f
        assert convolve(de, f) == f


def test_convolution_is_associative():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 4)
        elts = []
        for _ in range(3):
            elts.append(
                GroupAlgebraElement(
                    n,
                    {
                        random_triple(rng, n): Fraction(rng.randint(-3, 5), rng.randint(1, 7))
                        for _ in range(4)
                    },
                )
            )
        f, g, h = elts
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_mass_is_multiplicative_and_linear():
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = GroupAlgebraElement(
            n,
            {random_triple(rng, n): Fraction(rng.randint(-3, 5), rng.randint(1, 7)) for _ in range(4)},
        )
        g = GroupAlgebraElement(
            n,
            {random_triple(rng, n): Fraction(rng.randint(-3, 5), rng.randint(1, 7)) for _ in range(4)},
        )
        assert convolve(f, g).mass() == f.mass() * g.mass()
        assert (f + g).mass() == f.mass() + g.mass()
        assert (f - g).mass() == f.mass() - g.mass()
        assert f.scale(Fraction(2, 3)).mass() == f.mass() * Fraction(2, 3)


def test_no_zero_coefficients_are_stored():
    t = Triple("(1 2)", "()", "()")
    f = GroupAlgebraElement(3, {t: Fraction(1, 2)})
    g = f - f
    assert g.support_size() == 0
    assert g.mass() == 0
    assert f.coefficient(Triple("()", "()", "()")) == 0


def test_degree_overflow_and_mismatch_are_rejected():
    with pytest.raises(SchemaError):
        GroupAlgebraElement.delta(Triple("(1 2 3 4)", "()", "()"), 3)
    with pytest.raises(SchemaError):
        convolve(
            GroupAlgebraElement.delta(Triple("()", "()", "()"), 2),
            GroupAlgebraElement.delta(Triple("()", "()", "()"), 3),
        )
    with pytest.raises(SchemaError):
        delta_subgroup(5, 4)


def test_element_json_round_trips_and_rejects_arithmetic_errors():
    rng = random.Random(26)
    f = GroupAlgebraElement(
        3, {random_triple(rng, 3): Fraction(rng.randint(-3, 5), rng.randint(1, 7)) for _ in range(4)}
    )
    assert GroupAlgebraElement.from_json(f.to_json()) == f
    p = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
    decomp = coset_decomposition(p, p, 4)
    assert CosetAlgebraElement.from_json(decomp.to_json()) == decomp
    triple = {"n": 2, "blue": [2, 1], "red": [1, 2], "yellow": [1, 2]}
    for coeff in ("1/0", float("inf"), float("-inf"), float("nan")):
        with pytest.raises(SchemaError):
            GroupAlgebraElement.from_json({"n": 2, "terms": [{"triple": triple, "coeff": coeff}]})
        with pytest.raises(SchemaError):
            IKElement.from_json({"terms": [{"surface": triple, "coeff": coeff}]})
    with pytest.raises(SchemaError):
        GroupAlgebraElement.from_json({"n": float("inf"), "terms": []})


def test_element_degrees_must_be_nonnegative_integers():
    with pytest.raises(SchemaError):
        GroupAlgebraElement(-1)
    for n in (-1, 2.7, True, "3", None):
        with pytest.raises(SchemaError):
            GroupAlgebraElement.from_json({"n": n, "terms": []})
    good = {"n": 2, "alpha": 1, "gamma": 1, "terms": []}
    assert CosetAlgebraElement.from_json(good) == CosetAlgebraElement(2, 1, 1, {})
    for name in ("n", "alpha", "gamma"):
        for value in (2.7, True):
            with pytest.raises(SchemaError):
                CosetAlgebraElement.from_json(dict(good, **{name: value}))


def test_subgroup_uniform_support_mass_idempotence():
    for alpha, n in ((0, 3), (1, 4), (2, 4), (4, 4), (0, 4)):
        d = delta_subgroup(alpha, n)
        assert d.support_size() == factorial(n - alpha)
        assert d.mass() == 1
        assert convolve(d, d) == d
        for t, w in d.items():
            assert w == Fraction(1, factorial(n - alpha))
            assert t._b == t._r == t._y
            assert t._b[: min(alpha, len(t._b))] == tuple(range(min(alpha, len(t._b))))


def test_sandwich_by_subgroup_uniforms_gives_coset_uniform():
    rng = random.Random(25)
    n = 4
    for _ in range(8):
        alpha = rng.randint(0, 2)
        beta = rng.randint(0, 2)
        p = random_coset(rng, alpha, beta, n)
        a0 = Triple._from_zero_based(
            n,
            *[
                list(arr) + list(range(len(arr), n))
                for arr in (p.surface._b, p.surface._r, p.surface._y)
            ],
        )
        lhs = convolve(
            convolve(delta_subgroup(alpha, n), GroupAlgebraElement.delta(a0, n)),
            delta_subgroup(beta, n),
        )
        assert lhs == uniform_on_coset(p, n)


def test_coset_uniform_is_biinvariant():
    rng = random.Random(26)
    n = 4
    for _ in range(5):
        alpha = rng.randint(0, 2)
        beta = rng.randint(0, 2)
        p = random_coset(rng, alpha, beta, n)
        u = uniform_on_coset(p, n)
        assert convolve(delta_subgroup(alpha, n), u) == u
        assert convolve(u, delta_subgroup(beta, n)) == u


def test_decomposition_matches_full_convolution():
    rng = random.Random(27)
    n = 4
    cases = []
    for _ in range(3):
        alpha = rng.randint(0, 2)
        beta = rng.randint(0, 2)
        gamma = rng.randint(0, 2)
        cases.append(
            (
                random_coset(rng, alpha, beta, 3),
                random_coset(rng, beta, gamma, 3),
            )
        )
    pt = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
    cases.append((pt, pt))
    for p, q in cases:
        dec = coset_decomposition(p, q, n)
        assert dec.mass() == 1
        assert all(v > 0 for _, v in dec.items())
        full = convolve(uniform_on_coset(p, n), uniform_on_coset(q, n))
        assert classify(full, p.alpha, q.beta) == dict(dec.items())


def test_decomposition_keys_are_canonical_and_probability():
    rng = random.Random(28)
    for _ in range(12):
        alpha = rng.randint(0, 2)
        beta = rng.randint(0, 2)
        gamma = rng.randint(0, 2)
        p = random_coset(rng, alpha, beta, 4)
        q = random_coset(rng, beta, gamma, 4)
        n = rng.randint(max(p.degree, q.degree), 6)
        dec = coset_decomposition(p, q, n)
        assert dec.mass() == 1
        for coset, w in dec.items():
            assert w > 0
            assert coset.alpha == alpha and coset.beta == gamma
            redone = canonical_form(
                Triple._from_zero_based(
                    coset.surface.n, coset.surface._b, coset.surface._r, coset.surface._y
                ),
                alpha,
                gamma,
            )
            assert redone == coset.surface


def test_decomposition_matches_hsum_oracle():
    # Every degree up to where all matchings weigh in (dp + dq - beta) and
    # at least to 7. Beyond that the classes no longer change, and a
    # beta = 0 h-sum at degree 8 has 40,320 terms.
    rng = random.Random(30)
    for _ in range(300):
        alpha, beta, gamma = (rng.randint(0, 2) for _ in range(3))
        p = random_coset(rng, alpha, beta, 4)
        q = random_coset(rng, beta, gamma, 4)
        top = max(7, p.degree + q.degree - beta)
        for n in range(max(p.degree, q.degree), top + 1):
            assert coset_decomposition(p, q, n) == hsum_oracle(p, q, n)


def test_decompositions_canonicalize_each_matching_once(monkeypatch):
    calls = []
    canonical_code = kernel.canonical_code

    def counted(*args):
        calls.append(args[0])
        return canonical_code(*args)

    monkeypatch.setattr(kernel, "canonical_code", counted)
    rng = random.Random(31)
    for _ in range(20):
        beta = rng.randint(0, 2)
        p = random_coset(rng, rng.randint(0, 2), beta, 5)
        q = random_coset(rng, beta, rng.randint(0, 2), 5)
        lo = max(p.degree, q.degree)
        del calls[:]
        convolution._decompositions(p, q, range(lo, lo + 6))
        # only the matchings that fit in the largest degree, each once at
        # the least degree it fits in, and never more than the h-sum's terms
        assert len(calls) == matching_count(p, q, lo + 5) <= factorial(lo + 5 - beta)
        assert max(calls, default=0) <= lo + 5
        for n in range(lo, lo + 6):
            del calls[:]
            coset_decomposition(p, q, n)
            assert len(calls) == matching_count(p, q, n) <= factorial(n - beta)
            assert max(calls, default=0) <= n


def test_decompositions_of_a_range_are_its_single_decompositions():
    # the one table weighs each degree as the h-sum does; every element
    # survives the public constructor's checks and merging unchanged
    rng = random.Random(36)
    for _ in range(30):
        alpha, beta, gamma = (rng.randint(0, 2) for _ in range(3))
        p = random_coset(rng, alpha, beta, 4)
        q = random_coset(rng, beta, gamma, 4)
        lo = max(p.degree, q.degree)
        degrees = [lo + 2, lo, lo + 4, lo + 1, lo]
        decomps = convolution._decompositions(p, q, degrees)
        assert decomps == [coset_decomposition(p, q, n) for n in degrees]
        for n, decomp in zip(degrees, decomps):
            assert decomp == CosetAlgebraElement(n, alpha, gamma, dict(decomp._coeffs))
            assert all(type(c) is Fraction and c > 0 for c in decomp._coeffs.values())
            if n <= 8 and n - beta <= 7:  # an h-sum of at most 7! terms
                assert decomp == hsum_oracle(p, q, n)
    assert convolution._decompositions(p, q, []) == []
    for degrees in ([lo - 1, lo], [lo, lo - 1, lo - 2]):
        with pytest.raises(SchemaError, match="degree %d cannot embed" % (lo - 1)):
            convolution._decompositions(p, q, degrees)


def test_unmatched_piece_is_the_coset_product():
    # m = 0 glues the beta labels alone: concat_geometric, whose class is
    # p circledast q, the limit the decomposition concentrates on
    rng = random.Random(35)
    for _ in range(300):
        alpha, beta, gamma = (rng.randint(0, 2) for _ in range(3))
        p = random_coset(rng, alpha, beta, 5)
        q = random_coset(rng, beta, gamma, 5)
        assert convolution._matching_classes(p, q, 0) == ((circledast(p, q), 1),)


def test_decomposition_matches_hsum_oracle_at_the_least_degree():
    # Degrees 5-6 at n = max(dp, dq): most matchings do not fit yet.
    rng = random.Random(32)
    for _ in range(40):
        alpha, beta, gamma = (rng.randint(0, 2) for _ in range(3))
        p = DoubleCoset.from_triple(random_triple(rng, rng.randint(5, 6)), alpha, beta)
        q = DoubleCoset.from_triple(random_triple(rng, rng.randint(5, 6)), beta, gamma)
        n = max(p.degree, q.degree)
        assert coset_decomposition(p, q, n) == hsum_oracle(p, q, n)


def test_inner_label_mismatch_is_rejected():
    p = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 1)
    q = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 2, 0)
    with pytest.raises(SchemaError):
        coset_decomposition(p, q, 5)
    with pytest.raises(SchemaError):
        coset_decomposition(p, DoubleCoset.from_triple(Triple("()", "()", "()", n=1), 1, 0), 0)


def test_transposition_pair_closed_forms():
    pt = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
    three = DoubleCoset.from_triple(Triple("(1 2 3)", "()", "()"), 0, 0)
    disj = DoubleCoset.from_triple(Triple("(1 2)(3 4)", "()", "()"), 0, 0)
    empty = DoubleCoset.from_triple(Triple("()", "()", "()"), 0, 0)
    assert circledast(pt, pt) == disj
    for n in (4, 5, 6):
        dec = coset_decomposition(pt, pt, n)
        assert dec.coefficient(disj) == Fraction((n - 2) * (n - 3), n * (n - 1))
        assert dec.coefficient(three) == Fraction(4 * (n - 2), n * (n - 1))
        assert dec.coefficient(empty) == Fraction(2, n * (n - 1))
        assert dec.coefficient(disj) + dec.coefficient(three) + dec.coefficient(empty) == 1


def test_concentration_series_is_monotone_toward_one():
    pt = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
    series = sigma_series(pt, pt, range(4, 9))
    assert series == [
        Fraction(1, 6),
        Fraction(3, 10),
        Fraction(2, 5),
        Fraction(10, 21),
        Fraction(15, 28),
    ]
    assert all(a < b for a, b in zip(series, series[1:]))
    assert all(0 <= s <= 1 for s in series)


def test_empty_cosets_concentrate_immediately():
    empty = DoubleCoset.from_triple(Triple("()", "()", "()"), 0, 0)
    for n in (1, 3, 5):
        dec = coset_decomposition(empty, empty, n)
        assert dict(dec.items()) == {empty: Fraction(1)}
    assert sigma_series(empty, empty, range(1, 5)) == [Fraction(1)] * 4


def test_labeled_pair_series_reaches_coset_product():
    rng = random.Random(29)
    for _ in range(4):
        p = random_coset(rng, 1, 1, 3)
        q = random_coset(rng, 1, 1, 3)
        target = circledast(p, q)
        lo = max(p.degree, q.degree)
        series = sigma_series(p, q, range(lo, lo + 3))
        for n, s in zip(range(lo, lo + 3), series):
            assert s == coset_decomposition(p, q, n).coefficient(target)
        assert series[-1] > 0


def test_json_round_trip_of_decomposition():
    pt = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
    dec = coset_decomposition(pt, pt, 4)
    blob = dec.to_json()
    assert blob["n"] == 4 and blob["alpha"] == 0 and blob["gamma"] == 0
    total = Fraction(0)
    for term in blob["terms"]:
        frac = Fraction(term["coeff"])
        assert abs(float(frac) - term["value"]) < 1e-15
        assert DoubleCoset.from_json(term["surface"]).alpha == 0
        total += frac
    assert total == 1


def times(x, y, n):
    """(sum x_r delta_r) * (sum y_s delta_s) at degree n, expanded
    bilinearly through coset_decomposition; x and y map cosets to weights."""
    out = {}
    for r, a in x.items():
        for s, b in y.items():
            for t, c in coset_decomposition(r, s, n).items():
                out[t] = out.get(t, 0) + a * b * c
    return out


def test_coset_products_are_associative_with_units_above_the_hsum_reach():
    # degrees 9 and 10, where the h-sum oracle (n <= 8) cannot check the
    # weights: (dp * dq) * ds = dp * (dq * ds), and d_id * dp = dp = dp * d_id
    rng = random.Random(37)
    for case in range(60):
        n = 9 + case % 2
        alpha, beta, gamma, delta = (rng.randint(0, 2) for _ in range(4))
        p = {random_coset(rng, alpha, beta, 4): 1}
        q = {random_coset(rng, beta, gamma, 4): 1}
        s = {random_coset(rng, gamma, delta, 4): 1}
        assert times(times(p, q, n), s, n) == times(p, times(q, s, n), n)
        assert times({DoubleCoset.identity(alpha): 1}, p, n) == p
        assert times(p, {DoubleCoset.identity(beta): 1}, n) == p
