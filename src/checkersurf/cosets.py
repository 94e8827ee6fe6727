"""The category of double cosets and its associative product.

Objects are label counts; a morphism from beta to alpha is a double coset,
canonically a labeled surface with alpha black and beta white labels. The
product has two independent realizations kept in agreement by tests:

* circledast: multiply representatives with a block-swap involution
  between them and canonicalize; the value is constant once the swap
  blocks clear both representatives' degrees, and that constancy is
  asserted at runtime (j0 and j0+1 must agree).
* concat_geometric: remove the beta labeled white triangles of the left
  factor and the beta labeled black triangles of the right factor, glue
  the freed boundaries color to color, and canonicalize the resulting
  cell complex. The cut and reglue is the one gluing that
  surface._glued(Q, P, beta, 0) yields; that enumerator serves three
  products: this one, each class of the coset decomposition
  (checkersurf.convolution) and the gluing product of the surface
  algebra (checkersurf.ik).

>>> p = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 0, 0)
>>> circledast(p, p).surface.n
4
"""

from __future__ import annotations

from typing import Tuple

from checkersurf.errors import InvariantError, SchemaError
from checkersurf.perm import Permutation, _Immutable, _pad
from checkersurf.surface import LabeledSurface, Triple, _glued, canonical_form, reverse

__all__ = [
    "DoubleCoset",
    "theta",
    "circledast",
    "circledast_with_reps",
    "concat_geometric",
    "star",
]


def _theta_images(j: int, beta: int) -> Tuple[int, ...]:
    """0-based images on range(beta + 2j)."""
    th = list(range(beta + 2 * j))
    for i in range(j):
        th[beta + i] = beta + j + i
        th[beta + j + i] = beta + i
    return tuple(th)


def theta(j: int, beta: int) -> Permutation:
    """Involution fixing 1..beta and swapping the next two j-blocks.

    >>> theta(1, 0).cycle_string()
    '(1 2)'
    >>> theta(2, 1).cycle_string()
    '(2 4)(3 5)'
    """
    if j < 1 or beta < 0:
        raise ValueError("need j >= 1 and beta >= 0, got j=%r beta=%r" % (j, beta))
    return Permutation(tuple([x + 1 for x in _theta_images(j, beta)]))


class DoubleCoset(_Immutable):
    """A morphism of the coset category: beta white labels in, alpha black
    labels out, canonical labeled surface as the representative."""

    __slots__ = ("surface",)

    def __init__(self, surface: LabeledSurface):
        object.__setattr__(self, "surface", surface)

    @classmethod
    def from_triple(cls, t: Triple, alpha: int, beta: int) -> "DoubleCoset":
        return cls(canonical_form(t, alpha, beta))

    @classmethod
    def identity(cls, beta: int) -> "DoubleCoset":
        """The identity morphism at object beta: beta labeled double
        triangles."""
        return cls.from_triple(Triple("()", "()", "()", n=beta), beta, beta)

    @property
    def alpha(self) -> int:
        return self.surface.alpha

    @property
    def beta(self) -> int:
        return self.surface.beta

    @property
    def degree(self) -> int:
        return self.surface.n

    def __eq__(self, other):
        if not isinstance(other, DoubleCoset):
            return NotImplemented
        return self.surface == other.surface

    def __hash__(self):
        return hash(("DoubleCoset", self.surface))

    def __lt__(self, other: "DoubleCoset"):
        return self.surface.sort_key() < other.surface.sort_key()

    def __repr__(self):
        return "DoubleCoset(alpha=%d, beta=%d, n=%d)" % (self.alpha, self.beta, self.degree)

    def to_json(self) -> dict:
        return self.surface.to_json()

    @classmethod
    def from_json(cls, data: dict) -> "DoubleCoset":
        return cls(LabeledSurface.from_json(data))


def _check_pair(p, q) -> None:
    """Refuse a product whose inner label counts differ; p and q are double
    cosets or labeled surfaces."""
    if p.beta != q.alpha:
        raise SchemaError(
            "inner label counts differ: left beta=%d, right alpha=%d" % (p.beta, q.alpha)
        )


def _shift_product(tp: Triple, tq: Triple, alpha: int, beta: int, gamma: int, j: int) -> LabeledSurface:
    """canonical_form(rep_p * Theta_j[beta] * rep_q) at ambient beta + 2j."""
    n = beta + 2 * j
    if n < tp.n or n < tq.n:
        raise ValueError("shift j=%d too small for degrees %d, %d" % (j, tp.n, tq.n))
    th = _theta_images(j, beta)
    out = []
    for pa, qa in ((tp._b, tq._b), (tp._r, tq._r), (tp._y, tq._y)):
        pa = _pad(pa, n)
        qa = _pad(qa, n)
        out.append(tuple([pa[th[qa[x]]] for x in range(n)]))
    return canonical_form(Triple._from_zero_based(n, *out), alpha, gamma)


def circledast_with_reps(tp: Triple, tq: Triple, alpha: int, beta: int, gamma: int) -> LabeledSurface:
    """Shift product from any representatives, triples or surfaces, of the two cosets.

    Constancy of the value at the stabilized shift is rechecked at j0 and
    j0 + 1 on every call; disagreement raises InvariantError.
    """
    j0 = max(tp.n, tq.n, 1)
    first = _shift_product(tp, tq, alpha, beta, gamma, j0)
    second = _shift_product(tp, tq, alpha, beta, gamma, j0 + 1)
    if first != second:
        raise InvariantError(
            "shift stabilization failed: values at j=%d and j=%d differ" % (j0, j0 + 1)
        )
    return first


def circledast(p: DoubleCoset, q: DoubleCoset) -> DoubleCoset:
    """The coset product: morphism composition beta -> alpha after gamma -> beta.

    >>> e = DoubleCoset.identity(1)
    >>> p = DoubleCoset.from_triple(Triple("(1 2)", "()", "()"), 1, 1)
    >>> circledast(p, e) == p and circledast(e, p) == p
    True
    """
    _check_pair(p, q)
    return DoubleCoset(circledast_with_reps(p.surface, q.surface, p.alpha, p.beta, q.beta))


def concat_geometric(P: LabeledSurface, Q: LabeledSurface) -> LabeledSurface:
    """Geometric realization of the product over explicit cells.

    Remove Q's beta labeled black triangles and P's beta labeled white
    triangles and glue Q's black j to P's white j: the one gluing of
    surface._glued(Q, P, beta, 0). Its numbering puts Q's whites first
    and P's blacks first, so Q's gamma white labels and P's alpha black
    labels keep their slots, and the result is canonicalized with them.
    """
    _check_pair(P, Q)
    (glued,) = _glued(Q, P, P.beta, 0)
    return canonical_form(Triple._from_zero_based(*glued), P.alpha, Q.beta)


def star(p: DoubleCoset) -> DoubleCoset:
    """The involution: componentwise inverse, labels swap sides."""
    return DoubleCoset.from_triple(reverse(p.surface), p.beta, p.alpha)
