"""Surface dictionary: gluing, analytics, canonical forms, dessins.

chi values are cross-checked against V - E + F with V from the vertex
census, E = 3k, F = 2k per component, and against the explicit cell
complex of oracles.euler_by_cells_oracle, which shares no code with the
gluing-word formula.
"""

import random
from collections import Counter
from itertools import permutations

import pytest
from oracles import euler_by_cells_oracle

from checkersurf.perm import Permutation, compose, cycles
from checkersurf import surface as surface_mod
from checkersurf.convolution import CosetAlgebraElement, GroupAlgebraElement
from checkersurf.cosets import DoubleCoset
from checkersurf.ik import IKElement
from checkersurf.spherical import Tensor3
from checkersurf.surface import (
    CheckerSurface,
    CompletelyLabeledSurface,
    LabeledSurface,
    Triple,
    build_surface,
    canonical_form,
    checker_surface,
    components,
    disjoint_union,
    euler_characteristic,
    genus,
    random_triple,
    reverse,
    to_dessin,
    triple_of,
    vertex_census,
)

ID3 = Triple("()", "()", "()", n=3)


def tr(blue, red="()", yellow="()", n=None):
    return Triple(blue, red, yellow, n=n)


def chi_cross_check(t):
    """V - E + F per component must equal the gluing-word formula."""
    census = vertex_census(t)
    for comp in components(t):
        k = len(comp)
        v = census.count_on(comp)
        chi = euler_characteristic(t, comp)
        assert chi == v - 3 * k + 2 * k
        assert chi % 2 == 0 and chi <= 2
        assert genus(chi) >= 0


def test_build_surface_counts():
    s1 = build_surface(tr("()", n=1))
    assert len(s1.triangles) == 2 and len(s1.edges) == 3
    s3 = build_surface(ID3)
    assert len(s3.triangles) == 6 and len(s3.edges) == 9
    assert len(components(ID3)) == 3


def test_build_surface_transposition_sphere():
    t = tr("(1 2)", n=2)
    s = build_surface(t)
    assert len(s.triangles) == 4 and len(s.edges) == 6
    assert components(t) == [(1, 2)]
    assert vertex_census(t).total() == 4
    assert euler_characteristic(t, (1, 2)) == 2


def test_triple_round_trip_small():
    t = tr("()", n=2)
    assert triple_of(build_surface(t)) == t
    dt = build_surface(tr("()", n=1))
    assert triple_of(dt) == tr("()", n=1)


def test_triple_round_trip_exhaustive_s3():
    perms = [Permutation(p) for p in permutations(range(1, 4))]
    for b in perms:
        for r in perms:
            for y in perms:
                t = Triple(b, r, y, n=3)
                assert triple_of(build_surface(t)) == t


def test_triple_round_trip_random():
    rng = random.Random(17)
    for _ in range(300):
        t = random_triple(rng, rng.randint(1, 8))
        assert triple_of(build_surface(t)) == t


def test_triple_of_rejects_malformed():
    good = build_surface(tr("(1 2)", n=2))
    # drop an edge
    with pytest.raises(ValueError):
        triple_of(CompletelyLabeledSurface(2, good.edges[:-1]))
    # double an edge color on a white triangle
    bad = good.edges[:-1] + (("blue", 1, 1),)
    with pytest.raises(ValueError):
        triple_of(CompletelyLabeledSurface(2, bad))


def test_components_examples():
    assert components(ID3) == [(1,), (2,), (3,)]
    assert components(tr("(1 2)", n=2)) == [(1, 2)]
    assert components(tr("(1 2)", "(3 4)", "()", n=5)) == [(1, 2), (3, 4), (5,)]


def test_euler_characteristic_examples():
    assert euler_characteristic(tr("()", n=1), (1,)) == 2
    assert euler_characteristic(tr("(1 2)", n=2), (1, 2)) == 2
    torus = tr("(1 2 3)", "(1 3 2)", "()")
    assert euler_characteristic(torus, (1, 2, 3)) == 0
    assert genus(0) == 1


def test_euler_characteristic_rejects_non_component():
    with pytest.raises(ValueError):
        euler_characteristic(tr("(1 2)", n=2), (1,))


def test_vertex_census_examples():
    c1 = vertex_census(tr("()", n=1))
    assert len(c1.blue) == len(c1.red) == len(c1.yellow) == 1
    assert c1.orders("blue") == c1.orders("red") == c1.orders("yellow") == (2,)

    c2 = vertex_census(tr("(1 2)", n=2))
    assert (len(c2.blue), len(c2.red), len(c2.yellow)) == (2, 1, 1)
    assert c2.total() - 3 * 2 + 2 * 2 == 2

    c3 = vertex_census(tr("(1 2 3)", n=3))
    assert (len(c3.blue), len(c3.red), len(c3.yellow)) == (3, 1, 1)
    assert c3.total() - 3 * 3 + 2 * 3 == 2


def test_chi_cross_check_exhaustive_s3():
    perms = [Permutation(p) for p in permutations(range(1, 4))]
    for b in perms:
        for r in perms:
            for y in perms:
                chi_cross_check(Triple(b, r, y, n=3))


def test_chi_cross_check_random():
    rng = random.Random(19)
    for _ in range(300):
        chi_cross_check(random_triple(rng, rng.randint(1, 8)))


def test_genus_values_and_errors():
    assert genus(2) == 0 and genus(0) == 1 and genus(-2) == 2
    with pytest.raises(ValueError):
        genus(1)
    with pytest.raises(ValueError):
        genus(4)


def test_reverse_examples():
    assert reverse(ID3) == ID3
    assert reverse(tr("(1 2 3)")) == tr("(1 3 2)")


def test_reverse_involution_and_invariants():
    rng = random.Random(23)
    for _ in range(1000):
        t = random_triple(rng, rng.randint(1, 6))
        rt = reverse(t)
        assert reverse(rt) == t
        c, rc = vertex_census(t), vertex_census(rt)
        for color in ("blue", "red", "yellow"):
            assert Counter(len(cyc) for cyc in getattr(c, color)) == Counter(
                len(cyc) for cyc in getattr(rc, color)
            )
        chis = Counter(
            (len(comp), euler_characteristic(t, comp)) for comp in components(t)
        )
        rchis = Counter(
            (len(comp), euler_characteristic(rt, comp)) for comp in components(rt)
        )
        assert chis == rchis


def test_canonical_form_identity_strips_to_empty():
    ls = canonical_form(ID3, 0, 0)
    assert ls.n == 0 and ls.triple == Triple("()", "()", "()", n=0)


def test_canonical_form_full_labels_is_identity_map():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 7)
        t = random_triple(rng, n)
        ls = canonical_form(t, n, n)
        assert ls.triple._b == t._b and ls.triple._r == t._r and ls.triple._y == t._y


def test_canonical_form_pair_census_n2():
    forms = set()
    for g1 in permutations(range(1, 3)):
        for g2 in permutations(range(1, 3)):
            forms.add(canonical_form(Triple(Permutation(g1), Permutation(g2), "()", n=2), 0, 0))
    assert len(forms) == 4


def test_canonical_form_idempotent_and_orbit_constant():
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randint(1, 6)
        t = random_triple(rng, n)
        alpha, beta = rng.randint(0, n), rng.randint(0, n)
        c1 = canonical_form(t, alpha, beta)
        # relabel by h in K[alpha] on the left, h' in K[beta] on the right
        def k_elt(fix):
            tail = list(range(fix + 1, n + 1))
            rng.shuffle(tail)
            return Permutation(tuple(range(1, fix + 1)) + tuple(tail))

        h, hp = k_elt(alpha), k_elt(beta)
        t2 = Triple(
            compose(compose(h, t.blue), hp),
            compose(compose(h, t.red), hp),
            compose(compose(h, t.yellow), hp),
            n=n,
        )
        assert canonical_form(t2, alpha, beta) == c1
        assert canonical_form(c1.triple, alpha, beta) == c1


def test_census_matches_orbit_count_small_degrees():
    # canonical forms at (0,0) over embedded pairs == diagonal orbit count
    for n, expected in [(1, 1), (2, 4), (3, 11)]:
        perms = [Permutation(p) for p in permutations(range(1, n + 1))]
        forms = {
            checker_surface(Triple(g1, g2, "()", n=n)) for g1 in perms for g2 in perms
        }
        orbits = set()
        count = 0
        for g1 in perms:
            for g2 in perms:
                if (g1, g2) in orbits:
                    continue
                count += 1
                from checkersurf.perm import inverse as pinv

                for h in perms:
                    orbits.add(
                        (compose(compose(h, g1), pinv(h)), compose(compose(h, g2), pinv(h)))
                    )
        assert len(forms) == count == expected


def test_dessin_examples():
    d1 = to_dessin(tr("()", n=1))
    assert len(d1.red_vertices) == len(d1.yellow_vertices) == 1
    assert len(d1.edges) == 1
    d2 = to_dessin(tr("(1 2)", n=2))
    assert len(d2.red_vertices) == 1
    assert len(d2.red_vertices[0]) == 2  # degree 2


def test_chi_matches_cell_complex_oracle():
    # seed 37's sample, each triple alone and after the one before it, so
    # that several components (double triangles among them) occur
    rng, labels = random.Random(37), random.Random(38)
    prev = tr("()", n=2)
    for _ in range(1000):
        t = random_triple(rng, rng.randint(1, 6))
        for u in (t, disjoint_union(prev, t)):
            by_cells = euler_by_cells_oracle(u)
            for comp in components(u):
                assert euler_characteristic(u, comp) == by_cells[comp]
            checker = checker_surface(u)
            labeled = canonical_form(u, labels.randint(0, u.n), labels.randint(0, u.n))
            for surface in (labeled, checker):
                by_cells = euler_by_cells_oracle(surface.triple)
                info = surface.describe()
                assert info["chi"] == [by_cells[tuple(c)] for c in info["components"]]
                assert info["genus"] == [genus(chi) for chi in info["chi"]]
            chis = [by_cells[comp] for comp in checker.component_partition]
            assert checker.chi_by_component == chis
            assert checker.genus_by_component == [genus(chi) for chi in chis]
        prev = t


def test_chi_of_many_components_takes_one_components_pass(monkeypatch):
    calls = []
    real = surface_mod.components

    def counting(t):
        calls.append(t.n)
        return real(t)

    monkeypatch.setattr(surface_mod, "components", counting)
    n = 4000  # 2,000 two-point components: blue swaps 2k and 2k+1
    blue = tuple([x ^ 1 for x in range(n)])
    ident = tuple(range(n))
    surface = CheckerSurface(n, blue, ident, ident)
    info = surface.describe()
    assert len(calls) == 1 and info["chi"] == [2] * 2000
    calls.clear()
    assert surface.chi_by_component == [2] * 2000
    assert len(calls) == 1


def test_dessin_dot_output():
    dot = to_dessin(tr("(1 2)", n=2)).to_dot()
    assert dot.startswith("graph dessin {")
    assert "shape=box" in dot and "shape=circle" in dot
    assert dot.count(" -- ") == 2


def test_disjoint_union_components():
    t = disjoint_union(tr("(1 2)", n=2), tr("()", n=1))
    assert components(t) == [(1, 2), (3,)]
    assert euler_characteristic(t, (3,)) == 2


def test_triple_json_round_trip():
    rng = random.Random(41)
    for _ in range(50):
        t = random_triple(rng, rng.randint(1, 7))
        assert Triple.from_json(t.to_json()) == t


def test_labeled_surface_json_round_trip():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(1, 6)
        t = random_triple(rng, n)
        ls = canonical_form(t, rng.randint(0, n), rng.randint(0, n))
        from checkersurf.surface import LabeledSurface

        assert LabeledSurface.from_json(ls.to_json()) == ls


def test_describe_carries_analytics():
    info = canonical_form(tr("(1 2)", n=2), 0, 0).describe()
    assert info["chi"] == [2] and info["genus"] == [0]
    assert info["components"] == [[1, 2]]
    assert set(info["vertices"]) == {"blue", "red", "yellow"}


def test_canonical_surfaces_are_immutable_with_fixed_reprs():
    labeled = canonical_form(tr("(1 2 3)", "(1 2)"), 1, 0)
    two_sided = canonical_form(tr("(1 2)", "(2 3)", "(1 3)"), 2, 1)
    checker = checker_surface(tr("(1 2 3)", "(1 2)", n=4))
    assert repr(labeled) == "LabeledSurface(alpha=1, beta=0, n=3, (), (1 2), (1 2 3))"
    assert repr(two_sided) == "LabeledSurface(alpha=2, beta=1, n=3, (1 2), (2 3), (1 3))"
    assert repr(checker) == "CheckerSurface(n=4, (3 4), (), (2 3))"
    t = tr("(1 2)")
    values = (
        (labeled, "alpha"), (labeled, "n"), (checker, "n"), (checker, "_b"),
        (DoubleCoset(labeled), "surface"), (Permutation((2, 1)), "_images"), (t, "_b"),
        (build_surface(t), "edges"), (vertex_census(t), "red"), (to_dessin(t), "faces"),
        (GroupAlgebraElement(2, {t: 1}), "_coeffs"), (CosetAlgebraElement(0, 0, 0, {}), "alpha"),
        (IKElement(), "_coeffs"), (Tensor3([[[1]]]), "entries"),
    )
    for obj, name in values:
        before = getattr(obj, name)
        for attempt in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name)):
            with pytest.raises(AttributeError, match="^%s is immutable$" % type(obj).__name__):
                attempt()
        assert getattr(obj, name) is before
    arrays = (2, (1, 0), (0, 1), (0, 1))
    assert LabeledSurface(0, 0, *arrays) != CheckerSurface(*arrays)
    assert not LabeledSurface(0, 0, *arrays) == CheckerSurface(*arrays)


def test_cycle_strings_are_the_text_of_the_public_cycles():
    # identities, triples with fixed points, and disjoint unions, of
    # degree 0 to 12, as triples and as canonical surfaces
    rng = random.Random(71)

    def text(p, n):
        parts = ["(%s)" % " ".join(map(str, c)) for c in cycles(p, range(1, n + 1)) if len(c) > 1]
        return "".join(parts) or "()"

    def with_fixed_points(n):
        arrs = []
        for _ in range(3):
            arr = list(range(n))
            moved = rng.sample(range(n), rng.randint(0, n))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                arr[x] = y
            arrs.append(arr)
        return Triple._from_zero_based(n, *arrs)

    triples = [Triple("()", "()", "()", n=n) for n in range(13)]
    for _ in range(100):
        n = rng.randint(0, 12)
        a = rng.randint(0, n)
        triples += [
            random_triple(rng, n),
            with_fixed_points(n),
            disjoint_union(random_triple(rng, a), with_fixed_points(n - a)),
        ]
    for t in triples:
        expected = tuple(text(getattr(t, color), t.n) for color in surface_mod.COLORS)
        assert t.cycle_strings() == expected
        assert repr(t) == "Triple(%s, %s, %s, n=%d)" % (*expected, t.n)
        alpha, beta = rng.randint(0, t.n), rng.randint(0, t.n)
        for s in (canonical_form(t, alpha, beta), checker_surface(t)):
            u = s.triple
            assert s.cycle_strings() == u.cycle_strings()
            assert s.cycle_strings() == tuple(text(getattr(s, c), s.n) for c in surface_mod.COLORS)


def test_triples_and_canonical_surfaces_share_one_json_layout():
    rng = random.Random(73)
    for _ in range(50):
        n = rng.randint(0, 8)
        t = random_triple(rng, n)
        ls = canonical_form(t, rng.randint(0, n), rng.randint(0, n))
        cs = checker_surface(t)
        u = ls.triple
        assert ls.to_json() == dict(u.to_json(), alpha=ls.alpha, beta=ls.beta)
        assert cs.to_json() == cs.canonical_triple.to_json()
        assert list(ls.to_json()) == ["n", "blue", "red", "yellow", "alpha", "beta"]
        assert (ls.blue, ls.red, ls.yellow) == (u.blue, u.red, u.yellow)
        # a triple never equals a canonical surface with its arrays
        assert u != ls and ls != u and cs.canonical_triple != cs
        assert len({u, ls}) == 2
