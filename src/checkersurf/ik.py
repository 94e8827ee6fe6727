"""Filtered algebra on finite checker surfaces.

Basis elements are canonical label-free surfaces, double triangles kept.
The product sums over partial bijections from the black triangles of the
left factor to the white triangles of the right factor; each bijection
glues the matched triangle pairs away and the result is canonicalized.
Structure constants count bijections, so they are nonnegative integers.

Projections to pair algebras: a surface of degree k lifts at degree
m >= k to a multiple of a conjugacy-class sum in the group algebra of
pairs of permutations, pairs being embedded as triples with identity
third coordinate. The lift of one surface is the sum over all degree-m
point embeddings of a concrete representative, which works out to the
scalar z * (m - k + f)! / (m - k)! on the class sum, where f counts the
double-triangle components and z is the order of the joint centralizer
of the reduced pair. With that scalar the projection is an algebra
homomorphism, which the tests enforce exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import Dict, List, Tuple

from checkersurf import kernel
from checkersurf.convolution import GroupAlgebraElement
from checkersurf.errors import SchemaError
from checkersurf.perm import _invert
from checkersurf.surface import (
    CheckerSurface,
    Triple,
    canonical_form,
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


class IKElement:
    """Sparse exact-rational combination of canonical surfaces."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[CheckerSurface, Fraction] | None = None):
        clean: Dict[CheckerSurface, Fraction] = {}
        for key, val in (coeffs or {}).items():
            if not isinstance(key, CheckerSurface):
                raise SchemaError("basis keys must be canonical surfaces, got %r" % type(key).__name__)
            val = Fraction(val)
            if val != 0:
                clean[key] = clean.get(key, Fraction(0)) + val
                if clean[key] == 0:
                    del clean[key]
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("IKElement is immutable")

    @classmethod
    def from_surface(cls, p) -> "IKElement":
        return cls({_as_surface(p): Fraction(1)})

    def coefficient(self, p: CheckerSurface) -> Fraction:
        return self._coeffs.get(p, Fraction(0))

    def items(self) -> List[Tuple[CheckerSurface, Fraction]]:
        return sorted(self._coeffs.items(), key=lambda kv: kv[0].sort_key())

    def support_size(self) -> int:
        return len(self._coeffs)

    def max_degree(self) -> int:
        """Filtration level: largest triangle-pair count in the support."""
        return max((s.n for s in self._coeffs), default=0)

    def __add__(self, other: "IKElement") -> "IKElement":
        out = dict(self._coeffs)
        for key, val in other._coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return IKElement(out)

    def __sub__(self, other: "IKElement") -> "IKElement":
        return self + other.scale(-1)

    def scale(self, c) -> "IKElement":
        c = Fraction(c)
        return IKElement({k: v * c for k, v in self._coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, IKElement):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        return "IKElement(%d terms, max degree %d)" % (len(self._coeffs), self.max_degree())

    def to_json(self) -> dict:
        return {
            "terms": [
                {"surface": key.to_json(), "coeff": str(val)}
                for key, val in self.items()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "IKElement":
        try:
            terms = data["terms"]
            coeffs = {}
            for term in terms:
                key = checker_surface(Triple.from_json(term["surface"]))
                coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(term["coeff"])
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            # ArithmeticError: a coefficient like "1/0" or Infinity
            raise SchemaError("malformed element data: %s" % exc) from None
        return cls(coeffs)


def _glue(p: CheckerSurface, q: CheckerSurface, dom: Tuple[int, ...], img: Tuple[int, ...]) -> CheckerSurface:
    """Remove the matched blacks of p and whites of q, route the edges of
    each matched white's neighbors through, canonicalize the rest."""
    m, n = p.n, q.n
    s = dict(zip(dom, img))
    image = set(img)
    k = len(dom)
    new_black = {}
    nxt = 0
    for b in range(m):
        if b not in s:
            new_black[b] = nxt
            nxt += 1
    off = nxt
    new_white = {}
    w_nxt = m
    for w in range(n):
        if w not in image:
            new_white[w] = w_nxt
            w_nxt += 1
    size = m + n - k
    p_arrs = (p._b, p._r, p._y)
    q_arrs = (q._b, q._r, q._y)
    cols = []
    for c in range(3):
        pc = p_arrs[c]
        qc = q_arrs[c]
        col = [0] * size
        for w in range(m):
            t = pc[w]
            col[w] = off + qc[s[t]] if t in s else new_black[t]
        for w in range(n):
            if w not in image:
                col[new_white[w]] = off + qc[w]
        cols.append(col)
    n2, b2, r2, y2 = kernel.canonical_code(size, cols[0], cols[1], cols[2], 0, 0, False)
    return CheckerSurface(n2, b2, r2, y2)


def ik_product(p, q) -> IKElement:
    """Sum over all partial bijections from blacks of p to whites of q.

    >>> dt = checker_surface(Triple("()", "()", "()", n=1))
    >>> sorted(v for _, v in ik_product(dt, dt).items())
    [Fraction(1, 1), Fraction(1, 1)]
    """
    p = _as_surface(p)
    q = _as_surface(q)
    m, n = p.n, q.n
    coeffs: Dict[CheckerSurface, Fraction] = {}
    for k in range(min(m, n) + 1):
        for dom in combinations(range(m), k):
            for img in permutations(range(n), k):
                r = _glue(p, q, dom, img)
                coeffs[r] = coeffs.get(r, Fraction(0)) + 1
    return IKElement(coeffs)


@lru_cache(maxsize=None)
def _reduced_centralizer_order(p: CheckerSurface) -> int:
    """Order of the diagonal centralizer of the pair of p with its
    double-triangle components removed."""
    stripped = canonical_form(p.canonical_triple, 0, 0)
    kk = stripped.n
    ib = _invert(stripped._b)
    ir = _invert(stripped._r)
    g1 = tuple(stripped._y[ib[x]] for x in range(kk))
    g2 = tuple(stripped._y[ir[x]] for x in range(kk))
    count = 0
    for h in permutations(range(kk)):
        if all(h[g1[x]] == g1[h[x]] and h[g2[x]] == g2[h[x]] for x in range(kk)):
            count += 1
    return count


@lru_cache(maxsize=None)
def lift(p: CheckerSurface, m: int) -> GroupAlgebraElement:
    """The degree-m shadow of a basis surface: a scaled class sum of pairs.

    The pair of a surface is (yellow after blue inverse, yellow after red
    inverse); black-to-white composites, matching the direction the gluing
    product composes through matched triangles. Its diagonal conjugacy
    class at degree m is enumerated outright, so keep m small. The scalar
    counts the point embeddings that land on one fixed class member.
    """
    p = _as_surface(p)
    k = p.n
    if m < k:
        raise SchemaError("target degree %d is below the surface degree %d" % (m, k))
    f = p.double_triangle_count()
    scalar = Fraction(
        _reduced_centralizer_order(p) * factorial(m - k + f), factorial(m - k)
    )
    ib = _invert(p._b)
    ir = _invert(p._r)
    g1 = tuple(p._y[ib[x]] for x in range(k)) + tuple(range(k, m))
    g2 = tuple(p._y[ir[x]] for x in range(k)) + tuple(range(k, m))
    ident = tuple(range(m))
    seen = set()
    for g in permutations(range(m)):
        ginv = _invert(g)
        seen.add(
            (
                tuple(g[g1[ginv[x]]] for x in range(m)),
                tuple(g[g2[ginv[x]]] for x in range(m)),
            )
        )
    coeffs = {
        Triple._from_zero_based(m, h1, h2, ident): scalar for h1, h2 in sorted(seen)
    }
    return GroupAlgebraElement(m, coeffs)


def project(x: IKElement, n: int) -> GroupAlgebraElement:
    """Linear extension of the lift; surfaces above degree n map to zero.

    Multiplicative against the gluing product, with convolution of pairs
    on the other side.
    """
    out = GroupAlgebraElement(n, {})
    for surf, co in x.items():
        if surf.n <= n:
            out = out + lift(surf, n).scale(co)
    return out


def poisson_bracket(p, q) -> IKElement:
    """Single-triangle gluings of p onto q minus those of q onto p.

    The top graded piece of the commutator of the gluing product.
    """
    p = _as_surface(p)
    q = _as_surface(q)
    coeffs: Dict[CheckerSurface, Fraction] = {}
    for b in range(p.n):
        for w in range(q.n):
            r = _glue(p, q, (b,), (w,))
            coeffs[r] = coeffs.get(r, Fraction(0)) + 1
    for b in range(q.n):
        for w in range(p.n):
            r = _glue(q, p, (b,), (w,))
            coeffs[r] = coeffs.get(r, Fraction(0)) - 1
    return IKElement(coeffs)


def graded_product(p, q) -> CheckerSurface:
    """Disjoint union: the commutative product of the associated graded."""
    p = _as_surface(p)
    q = _as_surface(q)
    return checker_surface(disjoint_union(p.canonical_triple, q.canonical_triple))
