"""Filtered algebra of surfaces: gluing products, lifts, Poisson bracket.

The load-bearing oracle is the projection test: the image of a gluing
product in the pair group algebra must equal the convolution of the
images, exactly. Lift scalars for the named small surfaces are frozen
from the bootstrap identities that force them.
"""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, perm

import pytest
from oracles import glue_oracle, lift_oracle, project_fold_oracle, reduced_centralizer_order

from checkersurf.convolution import GroupAlgebraElement, convolve
from checkersurf.errors import SchemaError
from checkersurf.ik import (
    IKElement,
    _glue,
    graded_product,
    ik_product,
    lift,
    poisson_bracket,
    project,
)
from checkersurf.surface import Triple, _glued, checker_surface, random_triple

EMPTY = checker_surface(Triple("()", "()", "()"))
DT = checker_surface(Triple("()", "()", "()", n=1))
DT2 = checker_surface(Triple("()", "()", "()", n=2))

_BASIS_CACHE = {}


def basis(kmax):
    """All canonical surfaces of degree up to kmax, double triangles kept."""
    if kmax in _BASIS_CACHE:
        return _BASIS_CACHE[kmax]
    out = [EMPTY]
    for k in range(1, kmax + 1):
        seen = set()
        allp = [tuple(p) for p in permutations(range(k))]
        for b in allp:
            for r in allp:
                for y in allp:
                    seen.add(checker_surface(Triple._from_zero_based(k, b, r, y)))
        out.extend(sorted(seen, key=lambda s: s.sort_key()))
    _BASIS_CACHE[kmax] = out
    return out


def ik_mul_elem(x, y):
    out = IKElement()
    for a, ca in x.items():
        for b, cb in y.items():
            out = out + ik_product(a, b).scale(ca * cb)
    return out


def lin_poisson(x, y):
    out = IKElement()
    for a, ca in x.items():
        for b, cb in y.items():
            out = out + poisson_bracket(a, b).scale(ca * cb)
    return out


def graded_elem(x, s):
    return IKElement({graded_product(k, s): v for k, v in x.items()})


def top_part(x, deg):
    return IKElement({k: v for k, v in x.items() if k.n == deg})


def test_empty_surface_is_the_unit():
    for p in basis(2):
        assert ik_product(EMPTY, p) == IKElement.from_surface(p)
        assert ik_product(p, EMPTY) == IKElement.from_surface(p)


def test_double_triangle_product_law():
    assert ik_product(DT, DT) == IKElement({DT2: Fraction(1), DT: Fraction(1)})


def test_structure_constants_are_nonnegative_integers():
    for p in basis(3):
        for q in basis(3):
            for r, co in ik_product(p, q).items():
                assert co > 0 and co.denominator == 1


def test_degree_bounds_on_every_product():
    # The sum over partial bijections makes the sharp window
    # max(m, n) <= l <= m + n automatic; assert it and thereby also the
    # weaker published lower bound min(m, n).
    for p in basis(3):
        for q in basis(3):
            m, n = p.n, q.n
            x = ik_product(p, q)
            assert top_part(x, m + n).support_size() == 1
            for r, _ in x.items():
                assert max(m, n) <= r.n <= m + n


def test_total_bijection_count_matches_mass():
    rng = random.Random(71)
    for _ in range(40):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        m, n = p.n, q.n
        expected = sum(
            factorial(k) * comb(m, k) * comb(n, k) for k in range(min(m, n) + 1)
        )
        got = sum(co for _, co in ik_product(p, q).items())
        assert got == expected


def test_associativity_exhaustive_up_to_degree_two():
    b2 = basis(2)
    for p in b2:
        for q in b2:
            for r in b2:
                lhs = ik_mul_elem(ik_product(p, q), IKElement.from_surface(r))
                rhs = ik_mul_elem(IKElement.from_surface(p), ik_product(q, r))
                assert lhs == rhs


def test_associativity_random_degree_three():
    rng = random.Random(72)
    for _ in range(25):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        r = checker_surface(random_triple(rng, rng.randint(1, 3)))
        lhs = ik_mul_elem(ik_product(p, q), IKElement.from_surface(r))
        rhs = ik_mul_elem(IKElement.from_surface(p), ik_product(q, r))
        assert lhs == rhs


def test_lift_of_double_triangle_is_m_times_identity():
    for m in range(1, 5):
        e = Triple("()", "()", "()", n=m)
        assert lift(DT, m) == GroupAlgebraElement(m, {e: Fraction(m)})


def test_lift_of_two_double_triangles():
    for m in range(2, 5):
        e = Triple("()", "()", "()", n=m)
        assert lift(DT2, m) == GroupAlgebraElement(m, {e: Fraction(m * (m - 1))})


def test_lift_scalar_is_the_pair_centralizer_order():
    # Torus-like surface: pair ((1 2 3), (1 3 2)) commutes with the cyclic
    # group of order 3. Rigid surface: pair ((1 2), (1 3)) has trivial
    # joint centralizer.
    tor = checker_surface(Triple("(1 2 3)", "(1 3 2)", "()"))
    rigid = checker_surface(Triple("(1 2)", "(1 3)", "()"))
    for m in (3, 4):
        assert {v for _, v in lift(tor, m).items()} == {Fraction(3)}
        assert {v for _, v in lift(rigid, m).items()} == {Fraction(1)}


def test_lift_support_is_one_conjugacy_class():
    rng = random.Random(73)
    for _ in range(20):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        m = rng.randint(p.n, p.n + 2)
        el = lift(p, m)
        # all support triples have identity third coordinate and one
        # common canonical form
        forms = set()
        for t, _ in el.items():
            b, r, y = t._key()
            assert all(y[i] == i for i in range(len(y)))
            forms.add(checker_surface(Triple._from_zero_based(m, *[
                tuple(arr) + tuple(range(len(arr), m)) for arr in (b, r, y)
            ])))
        assert len(forms) == 1


def seeded_surfaces(count):
    """Surfaces of degree 4-5, every third with a double triangle."""
    rng = random.Random(82)
    out = []
    for i in range(count):
        if i % 3 == 0:
            core = checker_surface(random_triple(rng, rng.randint(3, 4)))
            out.append(graded_product(core, DT))
        else:
            out.append(checker_surface(random_triple(rng, rng.randint(4, 5))))
    return out


def test_glue_matches_the_loop_oracle_on_every_partial_bijection():
    # _glued yields the gluings with dom in combinations order and, under
    # each, img in permutations order, and then ends
    rng = random.Random(86)
    gluings = 0
    for i in range(60):
        p = checker_surface(random_triple(rng, 4 - i % 5))
        q = checker_surface(random_triple(rng, rng.randint(2, 4)))
        for k in range(min(p.n, q.n) + 1):
            glued = _glued(p, q, 0, k)
            for dom in combinations(range(p.n), k):
                for img in permutations(range(q.n), k):
                    assert _glue(*next(glued)) == glue_oracle(p, q, dom, img)
                    gluings += 1
            assert next(glued, None) is None
    assert gluings >= 1500


def test_lift_matches_the_full_conjugation_oracle():
    surfaces = basis(3) + seeded_surfaces(40)
    assert sum(1 for p in surfaces if p.double_triangle_count()) >= 20
    for p in surfaces:
        k, f = p.n, p.double_triangle_count()
        for m in range(k, 7):
            el, want = lift(p, m), lift_oracle(p, m)
            assert el == want and el.items() == want.items()
            # orbit-stabilizer: class size times the centralizer at m
            centralizer = reduced_centralizer_order(p) * factorial(m - k + f)
            assert el.support_size() * centralizer == factorial(m)


def test_lift_keeps_nothing_once_its_result_is_dropped():
    # 100 lifts of degree-5 surfaces at m = 6, classes of up to 720 pairs
    # each: none may outlive the caller's reference to it
    rng = random.Random(87)
    surfaces = [checker_surface(random_triple(rng, 5)) for _ in range(100)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p in surfaces:
            assert lift(p, 6).mass() == perm(6, 5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2 * 2**20


def test_lift_below_surface_degree_is_rejected():
    with pytest.raises(SchemaError):
        lift(DT2, 1)


def test_projection_of_unit_is_identity_point_mass():
    for m in range(0, 4):
        e = Triple("()", "()", "()", n=m)
        assert project(IKElement.from_surface(EMPTY), m) == GroupAlgebraElement(
            m, {e: Fraction(1)}
        )


def test_projection_drops_surfaces_above_target_degree():
    x = IKElement.from_surface(checker_surface(random_triple(random.Random(74), 3)))
    assert project(x, 2) == GroupAlgebraElement(2, {})


def test_projection_matches_the_fold_of_scaled_lifts():
    rng = random.Random(83)
    cancelled = 0
    for _ in range(100):
        n = rng.randint(4, 5)
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            s = checker_surface(random_triple(rng, rng.randint(1, n + 1)))
            coeffs[s] = Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.randint(1, 6))
        # s and s with one more double triangle lift onto one class: weigh
        # them so that the class cancels
        s = checker_surface(random_triple(rng, rng.randint(0, 3)))
        sd = graded_product(s, DT)
        t, c1 = lift(sd, n).items()[0]
        c2 = lift(s, n).coefficient(t)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        coeffs[sd] = coeffs.get(sd, 0) + a
        coeffs[s] = coeffs.get(s, 0) - a * c1 / c2
        x = IKElement(coeffs)
        got = project(x, n)
        want = project_fold_oracle(x, n)
        assert got == want
        assert all(c != 0 for c in got._coeffs.values())
        if want.coefficient(t) == 0:
            # t is at degree n, so its arrays are its stored key
            assert (t._b, t._r, t._y) not in got._coeffs
            cancelled += 1
    assert cancelled >= 50


def test_projection_merges_the_surfaces_of_one_class():
    # s, s with one double triangle and s with two lift onto one class and
    # add up to a nonzero total; c and c with one double triangle lift onto
    # another class and cancel
    rng = random.Random(88)
    for n in (5, 6):
        for _ in range(12):
            s = checker_surface(random_triple(rng, rng.randint(1, n - 2)))
            sd = graded_product(s, DT)
            sdd = graded_product(sd, DT)
            u, _ = lift(s, n).items()[0]
            c = s
            while lift(c, n).coefficient(u):
                c = checker_surface(random_triple(rng, rng.randint(1, n - 1)))
            cd = graded_product(c, DT)
            t, c1 = lift(cd, n).items()[0]
            a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            coeffs = {cd: a, c: -a * c1 / lift(c, n).coefficient(t)}
            for surf in (s, sd, sdd):
                coeffs[surf] = Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.randint(1, 6))
            x = IKElement(coeffs)
            got, want = project(x, n), project_fold_oracle(x, n)
            assert got == want and got.items() == want.items()
            total = sum(coeffs[surf] * lift(surf, n).coefficient(u) for surf in (s, sd, sdd))
            assert total != 0 and got.coefficient(u) == total
            assert got.support_size() == lift(s, n).support_size()
            assert (t._b, t._r, t._y) not in got._coeffs


def test_projection_of_double_triangle_square():
    for m in (1, 2, 3):
        e = Triple("()", "()", "()", n=m)
        lhs = project(ik_product(DT, DT), m)
        want = convolve(lift(DT, m), lift(DT, m))
        assert lhs == want
        assert want.coefficient(e) >= Fraction(m * m)


def test_projection_is_an_algebra_map_on_small_basis():
    b2 = basis(2)
    for p in b2:
        for q in b2:
            x = ik_product(p, q)
            for m in range(max(p.n, q.n), 6):
                lhs = project(x, m)
                rhs = convolve(
                    project(IKElement.from_surface(p), m),
                    project(IKElement.from_surface(q), m),
                )
                assert lhs == rhs


def test_projection_is_an_algebra_map_on_chiral_pairs():
    # Degree-3 surfaces whose pair classes differ from their inverses are
    # the cases that pin the orientation conventions; a regression here
    # means the lift and the gluing disagree about mirror images.
    p = checker_surface(Triple("()", "(2 3)", "(1 2)"))
    q = checker_surface(Triple("(2 3)", "()", "(1 2)"))
    for a, b in ((p, q), (q, p), (p, p), (q, q)):
        x = ik_product(a, b)
        for m in range(3, 6):
            lhs = project(x, m)
            rhs = convolve(
                project(IKElement.from_surface(a), m),
                project(IKElement.from_surface(b), m),
            )
            assert lhs == rhs


def test_poisson_antisymmetry_and_self_bracket():
    rng = random.Random(75)
    for _ in range(30):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        assert poisson_bracket(p, q) == poisson_bracket(q, p).scale(-1)
        assert poisson_bracket(p, p) == IKElement()


def test_poisson_equals_top_term_of_commutator():
    rng = random.Random(76)
    for _ in range(30):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        comm = ik_product(p, q) - ik_product(q, p)
        assert top_part(comm, p.n + q.n - 1) == poisson_bracket(p, q)


def test_poisson_jacobi_identity():
    rng = random.Random(77)
    for _ in range(30):
        trio = [checker_surface(random_triple(rng, rng.randint(1, 2))) for _ in range(3)]
        x, y, z = [IKElement.from_surface(s) for s in trio]
        total = (
            lin_poisson(x, lin_poisson(y, z))
            + lin_poisson(y, lin_poisson(z, x))
            + lin_poisson(z, lin_poisson(x, y))
        )
        assert total == IKElement()


def test_poisson_leibniz_in_associated_graded():
    rng = random.Random(78)
    for _ in range(30):
        x = checker_surface(random_triple(rng, rng.randint(1, 2)))
        y = checker_surface(random_triple(rng, rng.randint(1, 2)))
        z = checker_surface(random_triple(rng, rng.randint(1, 2)))
        lhs = poisson_bracket(x, graded_product(y, z))
        rhs = graded_elem(poisson_bracket(x, y), z) + graded_elem(
            poisson_bracket(x, z), y
        )
        assert lhs == rhs


def test_graded_product_unit_and_commutativity():
    rng = random.Random(79)
    for _ in range(25):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        assert graded_product(p, EMPTY) == p
        assert graded_product(p, q) == graded_product(q, p)


def test_top_term_of_product_is_disjoint_union():
    rng = random.Random(80)
    for _ in range(25):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        assert top_part(ik_product(p, q), p.n + q.n) == IKElement.from_surface(
            graded_product(p, q)
        )


def test_element_json_round_trip():
    rng = random.Random(81)
    x = ik_product(
        checker_surface(random_triple(rng, 2)), checker_surface(random_triple(rng, 3))
    ).scale(Fraction(3, 7))
    again = IKElement.from_json(x.to_json())
    assert again == x
    with pytest.raises(SchemaError):
        IKElement.from_json({"terms": [{"surface": {"n": 1}, "coeff": "1"}]})
    with pytest.raises(SchemaError):
        IKElement.from_json({})
