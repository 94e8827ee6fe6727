"""Exact convolution algebras on triples of permutations of fixed degree.

Biinvariant probability measures concentrate: the product of two uniform
double-coset measures decomposes over cosets with rational coefficients
summing to 1, and as the degree grows the coefficient of the coset product
tends to 1. Everything here is exact Fraction arithmetic; no floats.

The workhorse identity: delta_p * delta_q spreads uniformly over the
classes of a0 * (h,h,h) * b0 as h runs over the inner stabilizer, the
permutations of [beta, n). Since a0 and b0 fix every point beyond their
degrees dp and dq, the class depends on h only through the partial
injection phi it induces from [beta, dq) into [beta, dp). With
kp = dp - beta, kq = dq - beta and m points matched by phi, exactly
(n - dp)_(kq - m) (n - dq)! of the (n - beta)! values of h induce phi,
so phi carries the weight

    (n - dp)_(kq - m) / (n - beta)_(kq),       (x)_k the falling factorial,

which vanishes below n_min = dp + kq - m. surface._glued(q, p, beta, m)
yields the gluing of q's labeled blacks and the m pairs of each phi, the
labels glued as in cosets.concat_geometric, so for m = 0 it is p
circledast q; canonicalized at its degree n_min with unlabeled double
triangles stripped, it is phi's class at every n >= n_min. So one coset
product up to degree n costs the sum over m >= dp + kq - n of
C(kp, m) C(kq, m) m! canonicalizations for all degrees together, not
(n - beta)! at each degree; every such phi is induced by some h, so the
sum never exceeds (n - beta)!. _decompositions counts the classes of
every m once into one table, class -> [(m, count)], and weighs each
degree of a range from it in integers; nothing is cached between calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, perm
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from checkersurf import kernel
from checkersurf.errors import SchemaError
from checkersurf.cosets import DoubleCoset, _check_pair, circledast
from checkersurf.perm import _Immutable, _pad
from checkersurf.surface import (
    LabeledSurface,
    Triple,
    _array_members,
    _glued,
    _gluing_count,
    _one_based,
)

__all__ = [
    "GroupAlgebraElement",
    "CosetAlgebraElement",
    "delta_subgroup",
    "convolve",
    "coset_decomposition",
    "matching_count",
    "sigma_series",
]


class SparseCombination(_Immutable):
    """Immutable sparse exact-rational combination of basis keys.

    A subclass names its fixed parameters in _params and a term's key
    field in _field, and gives _sort_key, which orders the stored
    (key, value) pairs as they print, and _key_from_json, which reads a
    public key. Keys are stored as given unless the subclass overrides
    _check_key, which refuses a public key that does not belong and
    returns its stored form, and then also coefficient and items, which
    take and give public keys, and _key_members, which writes a stored
    key's JSON. Integral values stay int outside the public constructor,
    which checks each key, makes each value a Fraction and drops zeros.
    """

    __slots__ = ("_coeffs",)
    _params: Tuple[str, ...] = ()
    _field = ""
    # a term's JSON beside its key: each field's name and the function
    # that makes it from the coefficient; to_json and cli._json_text
    # both read it
    _term_fields: Tuple[Tuple[str, Callable], ...] = (("coeff", str),)

    def __init__(self, coeffs: Dict | None = None):
        clean: Dict = {}
        for key, val in (coeffs or {}).items():
            key = self._check_key(key)
            val = Fraction(val)
            if val != 0:
                clean[key] = val
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _from_clean(cls, coeffs: Dict, *params):
        """Wrap coeffs, which the caller owns and guarantees to hold only
        valid keys and nonzero values, without copying or checking it."""
        obj = object.__new__(cls)
        for name, value in zip(cls._params, params):
            object.__setattr__(obj, name, value)
        object.__setattr__(obj, "_coeffs", coeffs)
        return obj

    def _check_key(self, key):
        return key

    def _key_members(self, key, array) -> dict:
        """The JSON members of a stored key, each array written by array;
        to_json and cli._combination_json both read them."""
        return key._json_members(array)

    def _param_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._params)

    def coefficient(self, key) -> Fraction:
        return self._coeffs.get(key, Fraction(0))

    def _terms(self) -> List[Tuple[object, Fraction]]:
        """The stored (key, value) pairs in print order."""
        return sorted(self._coeffs.items(), key=self._sort_key)

    def items(self) -> List[Tuple[object, Fraction]]:
        return self._terms()

    def support_size(self) -> int:
        return len(self._coeffs)

    def mass(self) -> Fraction:
        return sum(self._coeffs.values(), Fraction(0))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._param_values() != other._param_values():
            raise SchemaError("cannot add %r and %r" % (self, other))
        out = dict(self._coeffs)
        for key, val in other._coeffs.items():
            val += out.get(key, 0)
            if val:
                out[key] = val
            else:
                del out[key]
        return self._from_clean(out, *self._param_values())

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        coeffs = {k: v * c for k, v in self._coeffs.items()} if c else {}
        return self._from_clean(coeffs, *self._param_values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._param_values() == other._param_values() and self._coeffs == other._coeffs

    def __repr__(self):
        params = "".join("%s=%d, " % (name, getattr(self, name)) for name in self._params)
        return "%s(%s%d terms, mass=%s)" % (type(self).__name__, params, len(self._coeffs), self.mass())

    def to_json(self) -> dict:
        data = {name: getattr(self, name) for name in self._params}
        data["terms"] = [self._term_json(key, val) for key, val in self._terms()]
        return data

    def _term_json(self, key, val) -> dict:
        term = {self._field: self._key_members(key, _one_based)}
        for name, make in self._term_fields:
            term[name] = make(val)
        return term

    @classmethod
    def from_json(cls, data: dict):
        try:
            params = [data[name] for name in cls._params]
            for name, value in zip(cls._params, params):
                if type(value) is not int:
                    raise ValueError("%s must be an integer, got %r" % (name, value))
            coeffs: Dict = {}
            for term in data["terms"]:
                key = cls._key_from_json(term[cls._field])
                coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(term["coeff"])
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            # ArithmeticError: a coefficient like "1/0" or Infinity
            raise SchemaError("malformed element data: %s" % exc) from None
        return cls(*params, coeffs)


class GroupAlgebraElement(SparseCombination):
    """Sparse exact-rational combination of group elements at degree n.

    A term is stored keyed by its three 0-based arrays at length n, so
    lift, project and convolve build no Triple per term. The public
    constructor and coefficient take Triples, padded to n, and items
    gives them at degree n; to_json writes every term at degree n.
    """

    __slots__ = ("n",)
    _params = ("n",)
    _field = "triple"

    def __init__(self, n: int, coeffs: Dict[Triple, Fraction] | None = None):
        if n < 0:
            raise SchemaError("ambient degree must be nonnegative, got %d" % n)
        object.__setattr__(self, "n", n)
        super().__init__(coeffs)

    def _arrays(self, t: Triple):
        """t's three arrays at length n, or None if t moves a point beyond n."""
        key = t._key()
        if len(key[0]) > self.n:
            return None
        return tuple([_pad(arr, self.n) for arr in key])

    def _check_key(self, key):
        arrays = self._arrays(key)
        if arrays is None:
            raise SchemaError(
                "group element of degree %d exceeds ambient degree %d"
                % (len(key._key()[0]), self.n)
            )
        return arrays

    def coefficient(self, key: Triple) -> Fraction:
        return self._coeffs.get(self._arrays(key), Fraction(0))

    def items(self) -> List[Tuple[Triple, Fraction]]:
        n = self.n
        return [(Triple._from_zero_based(n, *key), val) for key, val in self._terms()]

    @staticmethod
    def _sort_key(item):
        # Triple._key() order: the arrays cut after the last point that
        # one of them moves, compared color by color; each color ends in
        # -1, below every point, so one flat tuple compares the same way
        b, r, y = item[0]
        m = len(b)
        while m and b[m - 1] == r[m - 1] == y[m - 1] == m - 1:
            m -= 1
        return b[:m] + (-1,) + r[:m] + (-1,) + y[:m]

    def _key_members(self, key, array) -> dict:
        return _array_members(self.n, key, array)

    _key_from_json = staticmethod(Triple.from_json)

    @classmethod
    def delta(cls, t: Triple, n: int) -> "GroupAlgebraElement":
        """Point mass at one group element."""
        return cls(n, {t: Fraction(1)})


def delta_subgroup(alpha: int, n: int) -> GroupAlgebraElement:
    """Uniform probability measure on the diagonal subgroup fixing 1..alpha.

    Support size (n - alpha)!, total mass exactly 1.
    """
    if not 0 <= alpha <= n:
        raise SchemaError("alpha=%r out of range for n=%r" % (alpha, n))
    weight = Fraction(1, factorial(n - alpha))
    coeffs = {}
    for tail in permutations(range(alpha, n)):
        h = tuple(range(alpha)) + tail
        coeffs[h, h, h] = weight
    return GroupAlgebraElement._from_clean(coeffs, n)


def convolve(f: GroupAlgebraElement, g: GroupAlgebraElement) -> GroupAlgebraElement:
    """(f * g)(x) = sum over y of f(y) g(y^-1 x); mass multiplies."""
    if f.n != g.n:
        raise SchemaError("ambient degrees differ: %d vs %d" % (f.n, g.n))
    right = list(g._coeffs.items())
    out: Dict[tuple, Fraction] = {}
    for ys, fy in f._coeffs.items():
        for zs, gz in right:
            x = tuple([tuple([a[v] for v in b]) for a, b in zip(ys, zs)])
            val = out.get(x, 0) + fy * gz
            if val:
                out[x] = val
            else:
                out.pop(x, None)
    return GroupAlgebraElement._from_clean(out, f.n)


class CosetAlgebraElement(SparseCombination):
    """Sparse rational combination of double cosets at fixed degree n."""

    __slots__ = ("n", "alpha", "gamma")
    _params = ("n", "alpha", "gamma")
    _field = "surface"

    def __init__(self, n: int, alpha: int, gamma: int, coeffs: Dict[DoubleCoset, Fraction]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        super().__init__(coeffs)

    @staticmethod
    def _sort_key(item):
        return item[0].surface.sort_key()

    def _key_members(self, key, array) -> dict:
        return key.surface._json_members(array)

    _key_from_json = staticmethod(DoubleCoset.from_json)
    _term_fields = (("coeff", str), ("value", float))


def _matched(p: DoubleCoset, q: DoubleCoset, n: int) -> range:
    """The numbers m of matched points of the partial injections that fit
    in degree n (n_min = dp + kq - m <= n); those with fewer weigh 0 there."""
    kp, kq = p.degree - p.beta, q.degree - p.beta
    return range(max(0, p.degree + q.degree - p.beta - n), min(kp, kq) + 1)


def _matching_counts(p: DoubleCoset, q: DoubleCoset, n: int) -> Iterator[int]:
    """What _matching_classes(p, q, m) canonicalizes, for each m in
    _matched(p, q, n); lazy, so that a running total can stop early."""
    _check_pair(p, q)
    return (_gluing_count(q.surface, p.surface, p.beta, m) for m in _matched(p, q, n))


def matching_count(p: DoubleCoset, q: DoubleCoset, n: int) -> int:
    """Partial injections of [beta, dq) into [beta, dp) that fit in degree
    n: the canonicalizations behind coset_decomposition(p, q, n') at every
    n' <= n. Never more than the (n - beta)! terms of the h-sum, since
    each is induced by some h."""
    return sum(_matching_counts(p, q, n))


def _matching_classes(p: DoubleCoset, q: DoubleCoset, m: int) -> Tuple[Tuple[DoubleCoset, int], ...]:
    """(class, count): how many partial injections with m matched points
    yield each class. Independent of the ambient degree."""
    P, Q = p.surface, q.surface
    alpha, gamma = p.alpha, q.beta
    counts: Dict[tuple, int] = {}
    for glued in _glued(Q, P, p.beta, m):
        code = kernel.canonical_code(*glued, alpha, gamma, True)
        counts[code] = counts.get(code, 0) + 1
    return tuple(
        (DoubleCoset(LabeledSurface(alpha, gamma, *code)), cnt) for code, cnt in counts.items()
    )


def _decompositions(p: DoubleCoset, q: DoubleCoset, degrees: Iterable[int]) -> List[CosetAlgebraElement]:
    """coset_decomposition(p, q, n) for each n in degrees: the classes of
    each m that fits in the largest degree canonicalized once, and every
    degree weighed from one table of class -> [(m, count)]. A degree
    that cannot embed p and q is refused before any work."""
    _check_pair(p, q)
    degrees = list(degrees)
    for n in degrees:
        if n < p.degree or n < q.degree:
            raise SchemaError(
                "degree %d cannot embed representatives of degrees %d and %d"
                % (n, p.degree, q.degree)
            )
    if not degrees:
        return []
    table: Dict[DoubleCoset, List[Tuple[int, int]]] = {}
    for m in _matched(p, q, max(degrees)):
        for coset, cnt in _matching_classes(p, q, m):
            table.setdefault(coset, []).append((m, cnt))
    kq = q.degree - p.beta
    out = []
    for n in degrees:
        # (n - dp)_(kq - m), positive exactly for the m in _matched(p, q, n)
        falling = [perm(n - p.degree, kq - m) for m in range(kq + 1)]
        total = perm(n - p.beta, kq)
        coeffs = {}
        for coset, counts in table.items():
            w = sum([cnt * falling[m] for m, cnt in counts])
            if w:
                coeffs[coset] = Fraction(w, total)
        out.append(CosetAlgebraElement._from_clean(coeffs, n, p.alpha, q.beta))
    return out


def coset_decomposition(p: DoubleCoset, q: DoubleCoset, n: int) -> CosetAlgebraElement:
    """Coefficients c^r with delta_p(n) * delta_q(n) = sum c^r delta_r(n).

    Sums the weights of the partial injections of each class (module
    docstring); exact, nonnegative, summing to 1. Only the injections
    that fit in degree n are canonicalized, each once; _decompositions
    weighs a range of degrees from one canonicalization of each.
    """
    return _decompositions(p, q, [n])[0]


def sigma_series(p: DoubleCoset, q: DoubleCoset, n_range: Iterable[int]) -> List[Fraction]:
    """The concentration coefficients: weight of the coset product inside
    the decomposition, one exact value per degree."""
    target = circledast(p, q)
    return [decomp.coefficient(target) for decomp in _decompositions(p, q, n_range)]
