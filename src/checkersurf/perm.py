"""Finitely supported permutations of the positive integers.

A permutation is stored in one-line notation on 1..deg with an implicit
identity tail, so elements living at different ambient degrees compare
equal whenever they agree on all of the positive integers. This is the
substrate for every other module: triples of these are surfaces, and the
canonical-form machinery downstream relies on the deterministic cycle
order fixed here.

>>> p = Permutation.from_cycle_string("(1 2 3)")
>>> q = Permutation.from_cycle_string("(1 2)")
>>> compose(p, q)
Permutation((3, 2, 1))
>>> inverse(p)
Permutation((3, 1, 2))
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "Permutation",
    "compose",
    "inverse",
    "cycles",
    "identity",
    "random_permutation",
]


def _trim(images: Sequence[int]) -> Tuple[int, ...]:
    """Drop trailing fixed points to reach the minimal one-line form."""
    m = len(images)
    while m > 0 and images[m - 1] == m:
        m -= 1
    return tuple(images[:m])


def _pad(arr: Sequence[int], n: int) -> Tuple[int, ...]:
    """0-based image array extended by fixed points to length ``n``."""
    return tuple(arr) + tuple(range(len(arr), n))


def _invert(arr: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of a 0-based image array."""
    out = [0] * len(arr)
    for i, v in enumerate(arr):
        out[v] = i
    return tuple(out)


def _cycles(arr: Sequence[int]) -> List[Tuple[int, ...]]:
    """Cycles of a 0-based image array as 1-based tuples, in the order of
    cycles(): each starts at its least point, ordered by those points.

    >>> _cycles((1, 0, 2))
    [(1, 2), (3,)]
    """
    seen = [False] * len(arr)
    out = []
    for start in range(len(arr)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = arr[x]
        out.append(tuple(cyc))
    return out


def _cycle_string(arr: Sequence[int]) -> str:
    """Cycle notation of a 0-based image array, nontrivial cycles only;
    ``()`` for the identity. The one writer of cycle notation.

    >>> _cycle_string((1, 2, 0, 3, 5, 4))
    '(1 2 3)(5 6)'
    """
    parts = ["(" + " ".join(map(str, cyc)) + ")" for cyc in _cycles(arr) if len(cyc) > 1]
    return "".join(parts) or "()"


def _cycle_points(text: str) -> Iterator[List[int]]:
    """The points of each cycle of notation like ``"(1 2 3)(4 5)"``, commas
    also splitting; the one reader of cycle notation. Raises ValueError
    on malformed text or a cycle with a nonpositive or repeated point.

    >>> list(_cycle_points("(1 2 3)(4, 5)"))
    [[1, 2, 3], [4, 5]]
    """
    text = text.strip()
    if text in ("", "()", "id", "e"):
        return
    if text.count("(") != text.count(")") or not text.startswith("("):
        raise ValueError("malformed cycle string: %r" % (text,))
    for chunk in text.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError("malformed cycle string: %r" % (text,))
        points = [int(tok) for tok in chunk[1:-1].replace(",", " ").split()]
        if any(x < 1 for x in points):
            raise ValueError("points must be positive: %r" % (text,))
        if len(set(points)) != len(points):
            raise ValueError("repeated point inside a cycle: %r" % (chunk,))
        yield points


class _Immutable:
    """Base of the value classes: attributes are set once in construction,
    through object.__setattr__, and can be neither reassigned nor deleted.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Permutation(_Immutable):
    """A finitely supported bijection of {1, 2, 3, ...}.

    ``images`` is one-line notation: ``images[i-1]`` is the image of ``i``.
    Points beyond ``len(images)`` are fixed. Equality and hashing use the
    trimmed form, so ``Permutation((2, 1))`` built at any larger ambient
    degree is the same element.

    >>> Permutation((2, 1, 3)) == Permutation((2, 1))
    True
    >>> Permutation((2, 1))(2)
    1
    >>> Permutation((2, 1))(17)
    17
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int] = ()):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection of {1..%d}: %r" % (len(images), images))
        object.__setattr__(self, "_images", _trim(images))

    @property
    def images(self) -> Tuple[int, ...]:
        """Trimmed one-line notation (no trailing fixed points)."""
        return self._images

    @property
    def deg(self) -> int:
        """Smallest d such that all points beyond d are fixed."""
        return len(self._images)

    def __call__(self, x: int) -> int:
        if x < 1:
            raise ValueError("points are positive integers, got %r" % (x,))
        if x <= len(self._images):
            return self._images[x - 1]
        return x

    def one_line(self, n: int) -> Tuple[int, ...]:
        """One-line notation padded to ambient degree ``n``.

        >>> Permutation((2, 1)).one_line(4)
        (2, 1, 3, 4)
        """
        if n < len(self._images):
            raise ValueError("degree %d is below the support degree %d" % (n, len(self._images)))
        return self._images + tuple(range(len(self._images) + 1, n + 1))

    def is_identity(self) -> bool:
        return not self._images

    def support(self) -> Tuple[int, ...]:
        """The moved points, increasing."""
        return tuple(x for x in range(1, len(self._images) + 1) if self._images[x - 1] != x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return "Permutation(%r)" % (self._images,)

    def __str__(self) -> str:
        return self.cycle_string()

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def cycle_string(self) -> str:
        """Cycle notation, nontrivial cycles only; ``()`` for the identity.

        >>> Permutation((2, 3, 1, 4, 6, 5)).cycle_string()
        '(1 2 3)(5 6)'
        """
        return _cycle_string([x - 1 for x in self._images])

    @classmethod
    def from_cycle_string(cls, text: str) -> "Permutation":
        """Parse cycle notation like ``"(1 2 3)(4 5)"``; commas also split.

        >>> Permutation.from_cycle_string("(1 2 3)(4 5)").images
        (2, 3, 1, 5, 4)
        >>> Permutation.from_cycle_string("()")
        Permutation(())
        """
        mapping = {}
        for points in _cycle_points(text):
            for a, b in zip(points, points[1:] + points[:1]):
                if a in mapping:
                    raise ValueError("point %d appears in two cycles: %r" % (a, text.strip()))
                mapping[a] = b
        n = max(mapping) if mapping else 0
        return cls(tuple([mapping.get(x, x) for x in range(1, n + 1)]))

    def to_json(self) -> dict:
        return {"deg": self.deg, "images": list(self._images)}

    @classmethod
    def from_json(cls, data: dict) -> "Permutation":
        images = data["images"]
        deg = data.get("deg", len(images))
        if deg < len(images):
            raise ValueError("deg %r below images length %d" % (deg, len(images)))
        return cls(tuple(images) + tuple(range(len(images) + 1, deg + 1)))


identity = Permutation(())


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p*q acting as (p*q)(x) = p(q(x)).

    >>> compose(Permutation.from_cycle_string("(1 2 3)"),
    ...         Permutation.from_cycle_string("(1 2)")).images
    (3, 2, 1)
    """
    n = max(p.deg, q.deg)
    return Permutation(tuple([p(q(x)) for x in range(1, n + 1)]))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation.

    >>> inverse(Permutation.from_cycle_string("(1 2 3)")).images
    (3, 1, 2)
    """
    images = p.images
    inv = [0] * len(images)
    for x, y in enumerate(images, start=1):
        inv[y - 1] = x
    return Permutation(tuple(inv))


def cycles(p: Permutation, carrier: Iterable[int]) -> List[Tuple[int, ...]]:
    """Disjoint cycles of ``p`` partitioning ``carrier``.

    Each cycle starts at its minimal element and the cycles are ordered by
    those minima; downstream canonical forms depend on this determinism.
    ``carrier`` must be invariant under ``p``.

    >>> cycles(Permutation.from_cycle_string("(1 2)(3 4)"), {1, 2, 3, 4})
    [(1, 2), (3, 4)]
    >>> cycles(identity, {1, 2, 3})
    [(1,), (2,), (3,)]
    """
    pts = sorted(set(carrier))
    pts_set = set(pts)
    seen = set()
    out: List[Tuple[int, ...]] = []
    for start in pts:
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = p(start)
        while x != start:
            if x not in pts_set:
                raise ValueError("carrier is not invariant: %d escapes to %d" % (start, x))
            cyc.append(x)
            seen.add(x)
            x = p(x)
        out.append(tuple(cyc))
    return out


def random_permutation(rng: random.Random, n: int) -> Permutation:
    """A uniform element of S_n from a seeded generator."""
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))
