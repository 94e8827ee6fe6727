"""Filtered algebra on finite checker surfaces.

Basis elements are canonical label-free surfaces, double triangles kept.
The product sums over partial bijections from the black triangles of the
left factor to the white triangles of the right factor; each bijection
glues the matched triangle pairs away and the result is canonicalized.
Structure constants count bijections, so they are nonnegative integers.
surface._glued, which all three gluing products share (checkersurf.cosets,
checkersurf.convolution), cuts and reglues each bijection; _glue's
label-free canonical form of one forgets _glued's numbering.

Projections to pair algebras: a surface of degree k lifts at degree
m >= k to a multiple of a conjugacy-class sum in the group algebra of
pairs of permutations, pairs being embedded as triples with identity
third coordinate. The lift of one surface is the sum over all (m)_k
degree-m point embeddings of a concrete representative, which works out
to the scalar z * (m - k + f)! / (m - k)! on the class sum, where f
counts the double-triangle components and z is the order of the joint
centralizer of the reduced pair. With that scalar the projection is an
algebra homomorphism, which the tests enforce exactly.

The conjugate of the padded pair by g depends only on g restricted to
the k' = k - f points the pair moves, so the class is enumerated from
the (m)_k' injections of those points into [m]. By orbit-stabilizer
each pair of the class is hit by exactly z of them, so z = (m)_k' / |class|
and the scalar, (m)_k / |class|, needs no separate centralizer count.
Each member is kept as its three arrays (h1, h2, identity), the key a
GroupAlgebraElement stores, so no Triple is built per member.

The class depends only on the moved pair, so s, s with one double
triangle and s with two share one. project enumerates the class of each
moved pair once, adds up the scaled coefficients of the surfaces that
share it, and writes each member once with the total; a class whose
total cancels is not written.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import perm
from typing import Dict, List, Tuple

from checkersurf import kernel
from checkersurf.convolution import GroupAlgebraElement, SparseCombination
from checkersurf.errors import SchemaError
from checkersurf.perm import _invert
from checkersurf.surface import (
    CheckerSurface,
    Triple,
    _glued,
    checker_surface,
    disjoint_union,
)

__all__ = [
    "IKElement",
    "ik_product",
    "lift",
    "project",
    "poisson_bracket",
    "graded_product",
]


def _as_surface(p) -> CheckerSurface:
    if isinstance(p, CheckerSurface):
        return p
    if isinstance(p, Triple):
        return checker_surface(p)
    raise SchemaError("expected a surface or a triple, got %r" % type(p).__name__)


class IKElement(SparseCombination):
    """Sparse exact-rational combination of canonical surfaces."""

    __slots__ = ()
    _field = "surface"

    def _check_key(self, key) -> CheckerSurface:
        if not isinstance(key, CheckerSurface):
            raise SchemaError("basis keys must be canonical surfaces, got %r" % type(key).__name__)
        return key

    @staticmethod
    def _sort_key(item):
        return item[0].sort_key()

    @staticmethod
    def _key_from_json(data) -> CheckerSurface:
        return checker_surface(Triple.from_json(data))

    @classmethod
    def from_surface(cls, p) -> "IKElement":
        return cls({_as_surface(p): Fraction(1)})

    def max_degree(self) -> int:
        """Filtration level: largest triangle-pair count in the support."""
        return max((s.n for s in self._coeffs), default=0)

    def __repr__(self):
        return "IKElement(%d terms, max degree %d)" % (len(self._coeffs), self.max_degree())


def _glue(n: int, b: List[int], r: List[int], y: List[int]) -> CheckerSurface:
    """One glued triple of surface._glued, canonicalized label-free, which
    does not depend on the numbering _glued fixes."""
    return CheckerSurface(*kernel.canonical_code(n, b, r, y, 0, 0, False))


def ik_product(p, q) -> IKElement:
    """Sum over all partial bijections from blacks of p to whites of q.

    >>> dt = checker_surface(Triple("()", "()", "()", n=1))
    >>> sorted(v for _, v in ik_product(dt, dt).items())
    [Fraction(1, 1), Fraction(1, 1)]
    """
    p = _as_surface(p)
    q = _as_surface(q)
    coeffs: Dict[CheckerSurface, int] = {}
    for k in range(min(p.n, q.n) + 1):
        for glued in _glued(p, q, 0, k):
            r = _glue(*glued)
            coeffs[r] = coeffs.get(r, 0) + 1
    return IKElement(coeffs)


def _moved_pair(p: CheckerSurface) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The pair of p on the k' points it moves, numbered 0..k'-1 in order.

    The pair of a surface is (yellow after blue inverse, yellow after red
    inverse); black-to-white composites, matching the direction the gluing
    product composes through matched triangles. Its fixed points are the
    double triangles.
    """
    ib = _invert(p._b)
    ir = _invert(p._r)
    g1 = [p._y[ib[x]] for x in range(p.n)]
    g2 = [p._y[ir[x]] for x in range(p.n)]
    moved = [x for x in range(p.n) if g1[x] != x or g2[x] != x]
    index = {x: i for i, x in enumerate(moved)}
    return tuple([index[g1[x]] for x in moved]), tuple([index[g2[x]] for x in moved])


def _pair_class(a1: Tuple[int, ...], a2: Tuple[int, ...], m: int) -> set:
    """The diagonal conjugacy class at degree m of the moved pair (a1, a2),
    as GroupAlgebraElement keys (h1, h2, identity), from the (m)_k'
    injections of the k' moved points into [m]."""
    ident = tuple(range(m))
    seen = set()
    for inj in permutations(range(m), len(a1)):
        h1 = list(ident)
        h2 = list(ident)
        for x, y in enumerate(inj):
            h1[y] = inj[a1[x]]
            h2[y] = inj[a2[x]]
        seen.add((tuple(h1), tuple(h2), ident))
    return seen


def lift(p: CheckerSurface, m: int) -> GroupAlgebraElement:
    """The degree-m shadow of a basis surface: a scaled class sum of pairs.

    The diagonal conjugacy class at degree m of the pair of p (_moved_pair)
    is enumerated from the (m)_k' injections of its k' moved points, so
    keep m small. The coefficient is the (m)_k point embeddings spread
    evenly over the class (module docstring); every member is one key of
    the element, with no Triple built.
    """
    p = _as_surface(p)
    if m < p.n:
        raise SchemaError("target degree %d is below the surface degree %d" % (m, p.n))
    members = _pair_class(*_moved_pair(p), m)
    # dict.fromkeys reuses the hashes the set holds
    return GroupAlgebraElement._from_clean(dict.fromkeys(members, perm(m, p.n) // len(members)), m)


def project(x: IKElement, n: int) -> GroupAlgebraElement:
    """Linear extension of the lift; surfaces above degree n map to zero.

    Multiplicative against the gluing product, with convolution of pairs
    on the other side. Surfaces with one moved pair (s, s with double
    triangles) share one class, enumerated once; classes are equal or
    disjoint, so the least member keys a class exactly. Each class
    collects the coefficients of its surfaces, and its members are
    written once with the total, or not at all when it cancels.
    """
    entries: Dict[tuple, list] = {}  # moved pair -> [members, coefficient] of its class
    classes: Dict[tuple, list] = {}  # least member -> the same entry
    for surf, co in x._coeffs.items():
        if surf.n <= n:
            if co.denominator == 1:
                co = co.numerator
            pair = _moved_pair(surf)
            entry = entries.get(pair)
            if entry is None:
                members = _pair_class(*pair, n)
                entry = entries[pair] = classes.setdefault(min(members), [members, 0])
            entry[1] += co * (perm(n, surf.n) // len(entry[0]))
    coeffs: Dict[tuple, Fraction] = {}
    for members, co in classes.values():
        if co:
            coeffs.update(dict.fromkeys(members, co))
    return GroupAlgebraElement._from_clean(coeffs, n)


def poisson_bracket(p, q) -> IKElement:
    """Single-triangle gluings of p onto q minus those of q onto p.

    The top graded piece of the commutator of the gluing product.
    """
    p = _as_surface(p)
    q = _as_surface(q)
    coeffs: Dict[CheckerSurface, int] = {}
    for left, right, sign in ((p, q, 1), (q, p, -1)):
        for glued in _glued(left, right, 0, 1):
            r = _glue(*glued)
            coeffs[r] = coeffs.get(r, 0) + sign
    return IKElement(coeffs)


def graded_product(p, q) -> CheckerSurface:
    """Disjoint union: the commutative product of the associated graded."""
    p = _as_surface(p)
    q = _as_surface(q)
    return checker_surface(disjoint_union(p, q))
