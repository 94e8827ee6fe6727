"""End-to-end acceptance gates, one test per numbered criterion.

Every test pins its own tolerances and, where a wall-clock budget is part
of the criterion, asserts the elapsed time. Expected values are either
exact rationals forced by the definitions or are recomputed on the spot
by an independent oracle (explicit cell complexes for the Euler count,
orbit enumeration for the census, the full inner-diagonal sum for
concentration, dense tensor contraction for spherical values, literal
group-algebra convolution for the projection homomorphism). The summary
hook in conftest.py prints one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from oracles import euler_by_cells_oracle

from checkersurf.convolution import coset_decomposition, convolve
from checkersurf.cosets import DoubleCoset, circledast, concat_geometric, star
from checkersurf.ik import IKElement, ik_product, lift, poisson_bracket, project
from checkersurf.kernel import canonical_code
from checkersurf.spherical import (
    Tensor3,
    spherical_assignment_sum,
    spherical_oracle,
)
from checkersurf.surface import (
    Triple,
    build_surface,
    checker_surface,
    components,
    disjoint_union,
    euler_characteristic,
    random_triple,
    triple_of,
)

SEED = 20260819


def _all_perms(n):
    return [tuple(p) for p in permutations(range(n))]


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_triple_surface_bijection():
    start = time.perf_counter()
    perms3 = _all_perms(3)
    for b in perms3:
        for r in perms3:
            for y in perms3:
                t = Triple._from_zero_based(3, b, r, y)
                s = build_surface(t)
                assert len(s.triangles) == 6 and len(s.edges) == 9
                assert triple_of(s) == t
    rng = random.Random(SEED)
    for _ in range(10_000):
        n = rng.randint(0, 8)
        t = random_triple(rng, n)
        s = build_surface(t)
        assert len(s.triangles) == 2 * t.n and len(s.edges) == 3 * t.n
        assert triple_of(s) == t
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------- criterion 2


def _check_euler(t):
    by_cells = euler_by_cells_oracle(t)
    comps = components(t)
    assert sorted(by_cells) == sorted(comps)
    for comp in comps:
        chi = euler_characteristic(t, comp)
        assert chi == by_cells[comp]
        assert chi % 2 == 0 and chi <= 2


def test_criterion_2_euler_characteristic():
    perms3 = _all_perms(3)
    for b in perms3:
        for r in perms3:
            for y in perms3:
                _check_euler(Triple._from_zero_based(3, b, r, y))
    rng = random.Random(SEED + 2)
    for _ in range(400):
        _check_euler(random_triple(rng, rng.randint(1, 8)))


# ---------------------------------------------------------------- criterion 3


def _inv(arr):
    out = [0] * len(arr)
    for i, v in enumerate(arr):
        out[v] = i
    return tuple(out)


def _pair_orbit_count(n):
    """Orbits of simultaneous conjugation on pairs, by direct enumeration."""
    allp = _all_perms(n)
    seen = set()
    orbits = 0
    for g1 in allp:
        for g2 in allp:
            if (g1, g2) in seen:
                continue
            orbits += 1
            for h in allp:
                hi = _inv(h)
                c1 = tuple(h[g1[hi[x]]] for x in range(n))
                c2 = tuple(h[g2[hi[x]]] for x in range(n))
                seen.add((c1, c2))
    return orbits


def test_criterion_3_pair_census():
    frozen = {1: 1, 2: 4, 3: 11, 4: 43}
    for n in range(1, 5):
        allp = _all_perms(n)
        ident = tuple(range(n))
        forms = set()
        for g1 in allp:
            for g2 in allp:
                forms.add(canonical_code(n, g1, g2, ident, 0, 0, False))
        assert len(forms) == _pair_orbit_count(n) == frozen[n]


# ---------------------------------------------------------------- criterion 4


def _random_coset(rng, alpha, beta, max_n=6):
    n = rng.randint(max(alpha, beta), max_n)
    return DoubleCoset.from_triple(random_triple(rng, n), alpha, beta)


def test_criterion_4_coset_product_coherence():
    start = time.perf_counter()
    rng = random.Random(SEED + 4)
    # circledast runs the shift product at two consecutive stable shifts
    # and raises if they differ, so each call also checks stabilization.
    for _ in range(1000):
        alpha, beta, gamma = (rng.randint(0, 3) for _ in range(3))
        p = _random_coset(rng, alpha, beta)
        q = _random_coset(rng, beta, gamma)
        assert circledast(p, q).surface == concat_geometric(p.surface, q.surface)
    for _ in range(500):
        a, b, c, d = (rng.randint(0, 2) for _ in range(4))
        p = _random_coset(rng, a, b, 4)
        q = _random_coset(rng, b, c, 4)
        r = _random_coset(rng, c, d, 4)
        assert circledast(circledast(p, q), r) == circledast(p, circledast(q, r))
    for _ in range(500):
        alpha, beta, gamma = (rng.randint(0, 3) for _ in range(3))
        p = _random_coset(rng, alpha, beta, 4)
        q = _random_coset(rng, beta, gamma, 4)
        assert star(star(p)) == p
        assert star(circledast(p, q)) == circledast(star(q), star(p))
    for _ in range(100):
        alpha, beta = rng.randint(0, 3), rng.randint(0, 3)
        p = _random_coset(rng, alpha, beta)
        assert circledast(DoubleCoset.identity(alpha), p) == p
        assert circledast(p, DoubleCoset.identity(beta)) == p
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_concentration():
    start = time.perf_counter()
    p = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
    target = circledast(p, p)
    series = []
    for n in range(4, 10):
        decomp = coset_decomposition(p, p, n)  # exact sum over the 7 partial matchings
        assert all(c > 0 for _, c in decomp.items())
        assert decomp.mass() == 1
        series.append(decomp.coefficient(target))
    closed = [Fraction((n - 2) * (n - 3), n * (n - 1)) for n in range(4, 10)]
    assert series == closed
    assert all(a < b for a, b in zip(series, series[1:]))
    assert 1 - series[-1] < 1 - series[0]
    rng = random.Random(SEED + 5)
    for _ in range(200):
        alpha, beta, gamma = (rng.randint(0, 2) for _ in range(3))
        pp = _random_coset(rng, alpha, beta, 4)
        qq = _random_coset(rng, beta, gamma, 4)
        n = rng.randint(max(pp.degree, qq.degree), 7)
        decomp = coset_decomposition(pp, qq, n)
        assert all(c > 0 for _, c in decomp.items())
        assert decomp.mass() == 1
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_spherical_function():
    start = time.perf_counter()
    tol = 1e-10
    rng = random.Random(SEED + 6)
    perms2 = _all_perms(2)
    tensors = [
        Tensor3.random_unit(rng, (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)))
        for _ in range(20)
    ]
    for xi in tensors:
        for b in perms2:
            for r in perms2:
                for y in perms2:
                    t = Triple._from_zero_based(2, b, r, y)
                    got = spherical_assignment_sum(t, xi)
                    want = spherical_oracle(t, xi)
                    assert abs(got - want) < tol
    for _ in range(100):
        t = random_triple(rng, rng.randint(1, 5))
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        assert abs(spherical_assignment_sum(t, xi) - spherical_oracle(t, xi)) < tol
    dt = Triple("()", "()", "()", n=1)
    for _ in range(20):
        xi = Tensor3.random_unit(rng, (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)))
        assert abs(spherical_assignment_sum(dt, xi) - 1.0) < 1e-12
    for _ in range(40):
        t1 = random_triple(rng, rng.randint(1, 3))
        t2 = random_triple(rng, rng.randint(1, 3))
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        both = spherical_assignment_sum(disjoint_union(t1, t2), xi)
        split = spherical_assignment_sum(t1, xi) * spherical_assignment_sum(t2, xi)
        assert abs(both - split) < tol
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------- criterion 7


def _surface_basis(kmax):
    out = [checker_surface(Triple("()", "()", "()"))]
    for k in range(1, kmax + 1):
        seen = set()
        allp = _all_perms(k)
        for b in allp:
            for r in allp:
                for y in allp:
                    seen.add(checker_surface(Triple._from_zero_based(k, b, r, y)))
        out.extend(sorted(seen, key=lambda s: s.sort_key()))
    return out


def test_criterion_7_projection_homomorphism():
    start = time.perf_counter()
    dt = checker_surface(Triple("()", "()", "()", n=1))
    dt2 = checker_surface(Triple("()", "()", "()", n=2))
    assert ik_product(dt, dt) == IKElement({dt2: Fraction(1), dt: Fraction(1)})
    surfaces = _surface_basis(3)
    assert len(surfaces) == 17
    for p in surfaces:
        for q in surfaces:
            x = ik_product(p, q)
            for r, coeff in x.items():
                assert coeff.denominator == 1 and coeff > 0
                assert max(p.n, q.n) <= r.n <= p.n + q.n
            for m in range(max(p.n, q.n, 1), 7):
                lhs = project(x, m)
                rhs = convolve(lift(p, m), lift(q, m))
                assert lhs == rhs
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------- criterion 8


def _lin_poisson(x, y):
    out = IKElement()
    for a, ca in x.items():
        for b, cb in y.items():
            out = out + poisson_bracket(a, b).scale(ca * cb)
    return out


def _top_part(x, deg):
    return IKElement({k: v for k, v in x.items() if k.n == deg})


def test_criterion_8_poisson_structure():
    start = time.perf_counter()
    small = _surface_basis(2)
    assert len(small) == 6
    for p in small:
        for q in small:
            comm = ik_product(p, q) - ik_product(q, p)
            assert poisson_bracket(p, q) == _top_part(comm, p.n + q.n - 1)
    rng = random.Random(SEED + 8)
    for _ in range(100):
        p = checker_surface(random_triple(rng, rng.randint(2, 3)))
        q = checker_surface(random_triple(rng, rng.randint(2, 3)))
        comm = ik_product(p, q) - ik_product(q, p)
        assert poisson_bracket(p, q) == _top_part(comm, p.n + q.n - 1)
        assert poisson_bracket(p, q) == poisson_bracket(q, p).scale(-1)
    for p in small:
        for q in small:
            for r in small:
                x = IKElement.from_surface(p)
                y = IKElement.from_surface(q)
                z = IKElement.from_surface(r)
                total = (
                    _lin_poisson(x, _lin_poisson(y, z))
                    + _lin_poisson(y, _lin_poisson(z, x))
                    + _lin_poisson(z, _lin_poisson(x, y))
                )
                assert total == IKElement()
    from checkersurf.ik import graded_product

    def graded_elem(x, s):
        return IKElement({graded_product(k, s): v for k, v in x.items()})

    for _ in range(60):
        a = checker_surface(random_triple(rng, rng.randint(1, 2)))
        b = checker_surface(random_triple(rng, rng.randint(1, 2)))
        c = checker_surface(random_triple(rng, rng.randint(1, 2)))
        lhs = poisson_bracket(a, graded_product(b, c))
        rhs = graded_elem(poisson_bracket(a, b), c) + graded_elem(poisson_bracket(a, c), b)
        assert lhs == rhs
    assert time.perf_counter() - start < 120.0
