"""Spherical evaluation: two independent computation paths must agree.

The file carries its own third oracle, a direct nested-loop translation
of the defining sum, so the planned contraction and the tensor inner
product are each checked against it and against each other. The
recursion over edge assignments that the contraction replaced is the
fourth, `oracles.assignment_sum_oracle`.
"""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from checkersurf.errors import BudgetError, SchemaError
from checkersurf.perm import random_permutation
from checkersurf.spherical import Tensor3, spherical_assignment_sum, spherical_oracle
from checkersurf.surface import (
    Triple,
    checker_surface,
    components,
    disjoint_union,
    random_triple,
    reverse,
)

from oracles import assignment_sum_oracle


def brute_assignment_sum(surface, xi):
    """Oracle: one index per colored edge, whites plain, blacks conjugated."""
    n = surface.n
    if n == 0:
        return complex(1.0)
    invs = []
    for img in (surface._b, surface._r, surface._y):
        inv = [0] * n
        for w, b in enumerate(img):
            inv[b] = w
        invs.append(inv)
    db, dr, dy = xi.dims
    e = xi.entries
    total = complex(0.0)
    for iw in iproduct(range(db), repeat=n):
        for jw in iproduct(range(dr), repeat=n):
            for kw in iproduct(range(dy), repeat=n):
                term = complex(1.0)
                for w in range(n):
                    term *= e[iw[w], jw[w], kw[w]]
                for b in range(n):
                    term *= e[iw[invs[0][b]], jw[invs[1][b]], kw[invs[2][b]]].conjugate()
                total += term
    return total


def all_degree_two_triples():
    arrs = ((0, 1), (1, 0))
    for b in arrs:
        for r in arrs:
            for y in arrs:
                yield Triple._from_zero_based(2, b, r, y)


def test_empty_surface_and_identity_triple_give_one():
    rng = random.Random(41)
    xi = Tensor3.random_unit(rng, (2, 2, 2))
    assert spherical_assignment_sum(checker_surface(Triple("()", "()", "()")), xi) == 1
    assert spherical_oracle(Triple("()", "()", "()"), xi) == 1
    for n in (1, 2, 3):
        t = Triple("()", "()", "()", n=n)
        assert abs(spherical_oracle(t, xi) - 1) < 1e-12


def test_double_triangle_evaluates_to_one():
    rng = random.Random(42)
    dt = checker_surface(Triple("()", "()", "()", n=1))
    for dims in ((2, 2, 2), (3, 2, 1), (1, 1, 1), (3, 3, 3)):
        xi = Tensor3.random_unit(rng, dims)
        assert abs(spherical_assignment_sum(dt, xi) - 1) < 1e-12
        assert abs(spherical_oracle(dt.canonical_triple, xi) - 1) < 1e-12


def test_degree_two_exhaustive_against_brute_force():
    rng = random.Random(43)
    for _ in range(6):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        xi = Tensor3.random_unit(rng, dims)
        for t in all_degree_two_triples():
            s = checker_surface(t)
            v1 = brute_assignment_sum(s, xi)
            v2 = spherical_assignment_sum(s, xi)
            v3 = spherical_oracle(t, xi)
            assert abs(v1 - v2) < 1e-10
            assert abs(v1 - v3) < 1e-10


def test_degree_two_twenty_random_tensors():
    rng = random.Random(44)
    for _ in range(20):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        xi = Tensor3.random_unit(rng, dims)
        for t in all_degree_two_triples():
            s = checker_surface(t)
            assert abs(spherical_assignment_sum(s, xi) - spherical_oracle(t, xi)) < 1e-10


def test_degree_three_brute_force_spot_checks():
    rng = random.Random(45)
    for _ in range(10):
        t = random_triple(rng, 3)
        dims = (2, 2, 2)
        xi = Tensor3.random_unit(rng, dims)
        s = checker_surface(t)
        v1 = brute_assignment_sum(s, xi)
        assert abs(spherical_assignment_sum(s, xi) - v1) < 1e-10
        assert abs(spherical_oracle(t, xi) - v1) < 1e-10


def test_hundred_random_triples_up_to_degree_five():
    rng = random.Random(46)
    for _ in range(100):
        n = rng.randint(1, 5)
        t = random_triple(rng, n)
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        v_sum = spherical_assignment_sum(checker_surface(t), xi)
        v_orc = spherical_oracle(t, xi)
        assert abs(v_sum - v_orc) < 1e-10
        assert abs(v_orc) <= 1 + 1e-10


def test_two_sided_diagonal_invariance():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 4)
        t = random_triple(rng, n)
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        h = random_permutation(rng, n)
        hp = random_permutation(rng, n)
        harr = tuple(h(x + 1) - 1 for x in range(n))
        hparr = tuple(hp(x + 1) - 1 for x in range(n))
        moved = Triple._from_zero_based(
            n, *[tuple(harr[arr[hparr[x]]] for x in range(n)) for arr in (t._b, t._r, t._y)]
        )
        assert abs(spherical_oracle(t, xi) - spherical_oracle(moved, xi)) < 1e-10


def test_value_depends_only_on_canonical_surface():
    rng = random.Random(48)
    for _ in range(25):
        n = rng.randint(1, 4)
        t = random_triple(rng, n)
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        assert (
            abs(
                spherical_oracle(t, xi)
                - spherical_assignment_sum(checker_surface(t), xi)
            )
            < 1e-10
        )


def test_reversal_conjugates_the_value():
    rng = random.Random(49)
    for _ in range(40):
        n = rng.randint(1, 4)
        t = random_triple(rng, n)
        xi = Tensor3.random_unit(rng, (2, 3, 2))
        a = spherical_oracle(t, xi)
        b = spherical_oracle(reverse(t), xi)
        assert abs(a - b.conjugate()) < 1e-10


def test_multiplicative_over_disjoint_union():
    rng = random.Random(50)
    for _ in range(25):
        p = checker_surface(random_triple(rng, rng.randint(1, 3)))
        q = checker_surface(random_triple(rng, rng.randint(1, 3)))
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        pq = checker_surface(disjoint_union(p.canonical_triple, q.canonical_triple))
        lhs = spherical_assignment_sum(pq, xi)
        rhs = spherical_assignment_sum(p, xi) * spherical_assignment_sum(q, xi)
        assert abs(lhs - rhs) < 1e-10


def test_budget_errors():
    rng = random.Random(51)
    xi3 = Tensor3.random_unit(rng, (3, 3, 3))
    with pytest.raises(BudgetError):
        spherical_oracle(random_triple(rng, 10), xi3)
    with pytest.raises(BudgetError):
        spherical_assignment_sum(
            checker_surface(random_triple(rng, 6)), xi3, max_assignments=100
        )


def test_unit_norm_is_required():
    not_unit = Tensor3([[[1.0, 1.0]]], dims=(1, 1, 2))
    with pytest.raises(SchemaError):
        spherical_oracle(Triple("()", "()", "()", n=1), not_unit)
    with pytest.raises(SchemaError):
        spherical_assignment_sum(checker_surface(Triple("()", "()", "()", n=1)), not_unit)
    assert abs(not_unit.normalized().norm - 1) < 1e-12
    not_a_number = Tensor3([[[float("nan"), 0.0]]], dims=(1, 1, 2))
    with pytest.raises(SchemaError):
        spherical_assignment_sum(Triple("()", "()", "()", n=1), not_a_number)


def test_tensor_schema_validation_and_json_round_trip():
    rng = random.Random(52)
    with pytest.raises(SchemaError):
        Tensor3([1.0, 2.0], dims=(2, 1))
    with pytest.raises(SchemaError):
        Tensor3.from_json({"dims": [2, 2, 2], "re": [1.0] * 3, "im": [0.0] * 3})
    with pytest.raises(SchemaError):
        Tensor3.from_json({"dims": [2, 2], "re": [1.0] * 4, "im": [0.0] * 4})
    xi = Tensor3.random_unit(rng, (2, 3, 2))
    again = Tensor3.from_json(xi.to_json())
    assert again.dims == xi.dims
    assert float(abs(again.entries - xi.entries).max()) < 1e-15
    real_only = Tensor3.from_json({"dims": [1, 1, 2], "re": [0.6, 0.8]})
    assert abs(real_only.norm - 1) < 1e-12


def test_contraction_matches_both_oracles_on_every_degree_two_triple_and_dims():
    rng = random.Random(53)
    for dims in iproduct((1, 2, 3), repeat=3):
        xi = Tensor3.random_unit(rng, dims)
        for t in all_degree_two_triples():
            got = spherical_assignment_sum(t, xi)
            assert abs(got - assignment_sum_oracle(t, xi)) < 1e-10
            assert abs(got - spherical_oracle(t, xi)) < 1e-10


def test_contraction_matches_both_oracles_on_random_triples():
    rng = random.Random(54)
    for case in range(200):
        n = rng.randint(0, 6)
        if case % 4 == 0 and n >= 2:
            split = rng.randint(1, n - 1)
            t = disjoint_union(random_triple(rng, split), random_triple(rng, n - split))
        else:
            t = random_triple(rng, n)
        # dims up to 3, with a small enough tensor power to keep the
        # recursion oracle (about (db dr dy)^n steps) quick
        while True:
            dims = tuple(rng.randint(1, 3) for _ in range(3))
            if (dims[0] * dims[1] * dims[2]) ** n <= 2**15:
                break
        xi = Tensor3.random_unit(rng, dims)
        got = spherical_assignment_sum(t, xi)
        assert abs(got - assignment_sum_oracle(t, xi)) < 1e-10
        assert abs(got - spherical_oracle(t, xi)) < 1e-10


def test_budget_error_comes_before_any_einsum(monkeypatch):
    calls = []
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(len(args))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    rng = random.Random(56)
    t = random_triple(rng, 8)
    xi = Tensor3.random_unit(rng, (2, 2, 2))
    with pytest.raises(BudgetError, match="multiply-adds"):
        spherical_assignment_sum(t, xi, max_assignments=100)
    assert calls == []
    spherical_assignment_sum(t, xi)
    # every step is a two-operand call: operand, labels, operand, labels, output
    assert calls and set(calls) == {5}


def test_oracle_drops_axes_of_dimension_one():
    # 3n axes of length 1 would exceed numpy's 64 axes at n >= 22
    rng = random.Random(57)
    t = random_triple(rng, 30)
    xi = Tensor3.random_unit(rng, (1, 1, 1))
    assert abs(spherical_oracle(t, xi) - 1) < 1e-12
    assert abs(spherical_assignment_sum(t, xi) - 1) < 1e-12


# Identities that hold at every degree and read nothing of the contraction
# plan; they check the contraction at n = 10-40, past the dense oracle's
# reach of n = 7 at 2 x 2 x 2.


def scaling_surfaces(rng, count):
    """Triples of degree 10-40, every third a disjoint union of two, and
    so is every one above degree 28, whose plan could cost a second."""
    out = []
    for i in range(count):
        n = rng.randint(10, 40)
        if i % 3 == 0 or n > 28:
            split = rng.randint(max(1, n - 28), min(28, n - 1))
            out.append(disjoint_union(random_triple(rng, split), random_triple(rng, n - split)))
        else:
            out.append(random_triple(rng, n))
    return out


def complex_gaussians(rng, count):
    return [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(count)]


def random_unitary(rng, d):
    q, r = np.linalg.qr(np.array(complex_gaussians(rng, d * d)).reshape(d, d))
    return q * (np.diag(r) / abs(np.diag(r)))


def close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_closed_form_at_a_diagonal_tensor():
    # xi = sum_i l_i e_i (x) e_i (x) e_i puts one index on every edge of a
    # component c, so the value is the product over c of sum_i |l_i|^(2|c|)
    rng = random.Random(58)
    for t in scaling_surfaces(rng, 30):
        d = 3 if t.n <= 16 else 2  # three indices reach the budget by n = 28
        lams = np.array(complex_gaussians(rng, d))
        lams /= np.linalg.norm(lams)
        entries = np.zeros((d, d, d), dtype=complex)
        entries[range(d), range(d), range(d)] = lams
        expected = np.prod([(abs(lams) ** (2 * len(c))).sum() for c in components(t)])
        assert close(spherical_assignment_sum(t, Tensor3(entries)), expected)


def test_value_at_a_tensor_product_is_the_product_of_values():
    rng = random.Random(59)
    for t in scaling_surfaces(rng, 20):
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        eta = Tensor3.random_unit(rng, (1, 1, 2))
        both = np.einsum("ijk,abc->iajbkc", xi.entries, eta.entries).reshape(2, 2, 4)
        lhs = spherical_assignment_sum(t, Tensor3(both))
        assert close(lhs, spherical_assignment_sum(t, xi) * spherical_assignment_sum(t, eta))


def test_value_is_invariant_under_local_unitaries():
    rng = random.Random(60)
    for t in scaling_surfaces(rng, 20):
        xi = Tensor3.random_unit(rng, (2, 2, 2))
        u, v, w = (random_unitary(rng, 2) for _ in range(3))
        moved = np.einsum("ai,bj,ck,ijk->abc", u, v, w, xi.entries)
        assert close(spherical_assignment_sum(t, Tensor3(moved)), spherical_assignment_sum(t, xi))
