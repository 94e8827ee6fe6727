"""Checker surfaces as permutation triples.

A closed oriented surface glued from n white and n black triangles with
3-colored edges is the same data as a triple of permutations: white
triangle j meets black triangle p^c(j) along its color-c edge. This module
holds the dictionary in both directions, the component / vertex / Euler
analytics, the two canonical-form types on one array base with Triple,
_glued, the one enumerator that cuts and reglues every partial gluing of
all three gluing products, and the dessin export.

The analytics take one pass: the vertices are the cycles of the three
gluing words, and each component's chi is its vertex count minus its size,
every vertex charged to the component of its first point.

>>> t = Triple("(1 2)", "()", "()")
>>> [len(c) for c in components(t)]
[2]
>>> euler_characteristic(t, (1, 2))
2
"""

from __future__ import annotations

from itertools import accumulate, combinations, compress, permutations
from math import comb, perm
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from checkersurf import kernel
from checkersurf.errors import SchemaError
from checkersurf.perm import Permutation, _cycle_string, _cycles, _Immutable, _invert

__all__ = [
    "Triple",
    "CompletelyLabeledSurface",
    "VertexCensus",
    "LabeledSurface",
    "CheckerSurface",
    "Dessin",
    "build_surface",
    "triple_of",
    "components",
    "euler_characteristic",
    "vertex_census",
    "genus",
    "reverse",
    "canonical_form",
    "checker_surface",
    "to_dessin",
    "disjoint_union",
    "random_triple",
]

COLORS = ("blue", "red", "yellow")

PermLike = Union[Permutation, Sequence[int], str]


def _as_images(p: PermLike) -> Tuple[int, ...]:
    """Coerce to 1-based one-line notation (trimmed)."""
    if isinstance(p, Permutation):
        return p.images
    if isinstance(p, str):
        return Permutation.from_cycle_string(p).images
    return Permutation(tuple(p)).images


def _one_based(arr: Sequence[int]) -> List[int]:
    return [x + 1 for x in arr]


def _array_members(n: int, arrays: Sequence[Sequence[int]], array) -> dict:
    """The JSON members of a triple of degree n with the 0-based blue, red
    and yellow arrays, each written by array: the one JSON layout, which
    _Gluing, GroupAlgebraElement and cli._combination_json read."""
    b, r, y = arrays
    return {"n": n, "blue": array(b), "red": array(r), "yellow": array(y)}


class _Gluing(_Immutable):
    """The degree n and the three 0-based gluing arrays with their
    formats, the base of Triple and of the canonical surfaces; every
    function here that reads a triple's arrays takes any of them.
    """

    __slots__ = ("n", "_b", "_r", "_y")
    _params: Tuple[str, ...] = ()  # integer attributes a subclass adds

    # the 1-based views
    blue = property(lambda self: Permutation(tuple([x + 1 for x in self._b])))
    red = property(lambda self: Permutation(tuple([x + 1 for x in self._r])))
    yellow = property(lambda self: Permutation(tuple([x + 1 for x in self._y])))

    def cycle_strings(self) -> Tuple[str, str, str]:
        """Cycle notation of blue, red and yellow."""
        return _cycle_string(self._b), _cycle_string(self._r), _cycle_string(self._y)

    def to_json(self) -> dict:
        return self._json_members(_one_based)

    def _json_members(self, array) -> dict:
        """The members of to_json, each color's 0-based array written by
        array, in the layout of _array_members."""
        data = _array_members(self.n, (self._b, self._r, self._y), array)
        for name in self._params:
            data[name] = getattr(self, name)
        return data


class Triple(_Gluing):
    """An element of S_n x S_n x S_n, the (blue, red, yellow) gluing data.

    Stored at a fixed ambient degree n; equality ignores trailing points
    fixed by all three colors, matching Permutation equality componentwise.
    The hash is computed on first use and kept in _h.

    >>> Triple("(1 2)", "()", "()", n=3) == Triple("(1 2)", "()", "()")
    True
    """

    __slots__ = ("_h",)

    def __init__(self, blue: PermLike, red: PermLike, yellow: PermLike, n: int | None = None):
        ib, ir, iy = _as_images(blue), _as_images(red), _as_images(yellow)
        deg = max(len(ib), len(ir), len(iy))
        if n is None:
            n = deg
        if n < deg:
            raise ValueError("ambient degree %d below support degree %d" % (n, deg))
        object.__setattr__(self, "n", n)
        # hot paths build tuples from lists: tuple(generator) shrinks a
        # larger tuple to size, and the freed tuple refills CPython's
        # small-tuple free lists, which grow the heap between collections
        object.__setattr__(self, "_b", tuple([x - 1 for x in ib]) + tuple(range(len(ib), n)))
        object.__setattr__(self, "_r", tuple([x - 1 for x in ir]) + tuple(range(len(ir), n)))
        object.__setattr__(self, "_y", tuple([x - 1 for x in iy]) + tuple(range(len(iy), n)))

    @classmethod
    def _from_zero_based(cls, n: int, b: Sequence[int], r: Sequence[int], y: Sequence[int]) -> "Triple":
        t = cls.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "_b", tuple(b))
        object.__setattr__(t, "_r", tuple(r))
        object.__setattr__(t, "_y", tuple(y))
        return t

    @property
    def deg(self) -> int:
        return self.n

    def _key(self):
        m = self.n
        while m > 0 and self._b[m - 1] == m - 1 and self._r[m - 1] == m - 1 and self._y[m - 1] == m - 1:
            m -= 1
        return (self._b[:m], self._r[:m], self._y[:m])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        if self.n == other.n:
            return self._b == other._b and self._r == other._r and self._y == other._y
        return self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_h", h)
            return h

    def __repr__(self) -> str:
        return "Triple(%s, %s, %s, n=%d)" % (*self.cycle_strings(), self.n)

    @classmethod
    def from_json(cls, data: dict) -> "Triple":
        """Each color a cycle string or a 1-based image list; "n" optional."""
        colors = [data[color] for color in COLORS]
        for color, value in zip(COLORS, colors):
            if isinstance(value, list):
                if any(type(x) is not int for x in value):
                    raise ValueError("%s images must be integers" % color)
            elif not isinstance(value, str):
                raise ValueError("%s must be a cycle string or an image list" % color)
        n = data.get("n")
        if n is not None and type(n) is not int:
            raise ValueError("n must be an integer, got %r" % (n,))
        return cls(*colors, n=n)


class CompletelyLabeledSurface(_Immutable):
    """Explicit cell structure: 2n labeled triangles and 3n colored edges.

    Edges are (color, white_label, black_label) with 1-based labels, listed
    blue block first, then red, then yellow, each by white label.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Tuple[str, int, int]]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def triangles(self) -> Tuple[Tuple[str, int], ...]:
        whites = tuple(("W", j) for j in range(1, self.n + 1))
        blacks = tuple(("B", j) for j in range(1, self.n + 1))
        return whites + blacks

    @property
    def vertices(self) -> "VertexCensus":
        return vertex_census(triple_of(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompletelyLabeledSurface):
            return NotImplemented
        return self.n == other.n and set(self.edges) == set(other.edges)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.edges)))

    def __repr__(self) -> str:
        return "CompletelyLabeledSurface(n=%d, %d edges)" % (self.n, len(self.edges))


def build_surface(t: Triple) -> CompletelyLabeledSurface:
    """Glue white j to black p^c(j) along the color-c edge, all colors.

    >>> s = build_surface(Triple("()", "()", "()", n=3))
    >>> len(s.triangles), len(s.edges)
    (6, 9)
    """
    edges = []
    for color, arr in zip(COLORS, (t._b, t._r, t._y)):
        for w in range(t.n):
            edges.append((color, w + 1, arr[w] + 1))
    return CompletelyLabeledSurface(t.n, edges)


def triple_of(s: CompletelyLabeledSurface) -> Triple:
    """Exact inverse of build_surface, reading labels off the edges.

    Raises ValueError on malformed incidence (an edge color missing,
    doubled, or not matching whites to blacks bijectively).
    """
    n = s.n
    maps: Dict[str, List[int]] = {c: [-1] * n for c in COLORS}
    hit: Dict[str, List[bool]] = {c: [False] * n for c in COLORS}
    if len(s.edges) != 3 * n:
        raise ValueError("expected %d edges, got %d" % (3 * n, len(s.edges)))
    for color, w, b in s.edges:
        if color not in maps:
            raise ValueError("unknown edge color %r" % (color,))
        if not (1 <= w <= n and 1 <= b <= n):
            raise ValueError("edge (%r, %r, %r) out of range" % (color, w, b))
        if maps[color][w - 1] >= 0:
            raise ValueError("white %d has two %s edges" % (w, color))
        if hit[color][b - 1]:
            raise ValueError("black %d has two %s edges" % (b, color))
        maps[color][w - 1] = b - 1
        hit[color][b - 1] = True
    for color in COLORS:
        if any(v < 0 for v in maps[color]):
            raise ValueError("missing %s edges" % (color,))
    return Triple._from_zero_based(n, maps["blue"], maps["red"], maps["yellow"])


def _comp_perms(t: Triple) -> Tuple[List[int], List[int], List[int]]:
    """The three gluing words: a = y^-1 b, bgen = y^-1 r, c = r^-1 b (0-based)."""
    iy = _invert(t._y)
    ir = _invert(t._r)
    a = [iy[v] for v in t._b]
    bgen = [iy[v] for v in t._r]
    c = [ir[v] for v in t._b]
    return a, bgen, c


def components(t: Triple) -> List[Tuple[int, ...]]:
    """Orbits of the subgroup generated by y^-1 b and y^-1 r, 1-based.

    Each orbit is sorted and the orbits are ordered by minimal element.

    >>> components(Triple("(1 2)", "(3 4)", "()", n=5))
    [(1, 2), (3, 4), (5,)]
    """
    a, bgen, _ = _comp_perms(t)
    seen = [False] * t.n
    out = []
    for start in range(t.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        orbit = []
        while stack:
            x = stack.pop()
            orbit.append(x)
            for g in (a, bgen):
                nxt = g[x]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        orbit.sort()
        out.append(tuple([x + 1 for x in orbit]))
    out.sort()
    return out


def euler_characteristic(t: Triple, comp: Iterable[int]) -> int:
    """chi of one component: -|comp| plus the three gluing-word cycle counts.

    >>> euler_characteristic(Triple("(1 2 3)", "(1 3 2)", "()"), (1, 2, 3))
    0
    """
    comp = tuple(sorted(comp))
    comps = components(t)
    if comp not in comps:
        raise ValueError("%r is not a component of %r" % (comp, t))
    return _chis(t, comps, vertex_census(t))[comps.index(comp)]


class VertexCensus(_Immutable):
    """Vertices of the glued surface, one cycle per vertex, per color.

    Colors follow the gluing words: blue vertices are cycles of y^-1 r,
    red vertices cycles of y^-1 b, yellow vertices cycles of r^-1 b.
    A vertex's order (number of incident triangles) is twice its cycle
    length.
    """

    __slots__ = ("blue", "red", "yellow")

    def __init__(self, blue, red, yellow):
        object.__setattr__(self, "blue", tuple(blue))
        object.__setattr__(self, "red", tuple(red))
        object.__setattr__(self, "yellow", tuple(yellow))

    def orders(self, color: str) -> Tuple[int, ...]:
        return tuple(2 * len(cyc) for cyc in getattr(self, color))

    def total(self) -> int:
        return len(self.blue) + len(self.red) + len(self.yellow)

    def count_on(self, comp: Iterable[int]) -> int:
        """Vertices whose cycles lie inside the given point set."""
        pts = set(comp)
        return sum(
            1
            for color in COLORS
            for cyc in getattr(self, color)
            if set(cyc) <= pts
        )

    def __eq__(self, other):
        if not isinstance(other, VertexCensus):
            return NotImplemented
        return (self.blue, self.red, self.yellow) == (other.blue, other.red, other.yellow)

    def __repr__(self):
        return "VertexCensus(blue=%d, red=%d, yellow=%d)" % (
            len(self.blue),
            len(self.red),
            len(self.yellow),
        )


def vertex_census(t: Triple) -> VertexCensus:
    """All vertices with their cycles, 1-based points.

    >>> vertex_census(Triple("(1 2)", "()", "()")).total()
    4
    """
    a, bgen, c = _comp_perms(t)
    return VertexCensus(blue=_cycles(bgen), red=_cycles(a), yellow=_cycles(c))


def _chis(t: Triple, comps: Sequence[Tuple[int, ...]], census: VertexCensus) -> List[int]:
    """chi of each of t's components, in order: the vertices charged to
    the component of their first point, minus the component's size."""
    comp_of = [0] * t.n
    for i, comp in enumerate(comps):
        for x in comp:
            comp_of[x - 1] = i
    chis = [-len(comp) for comp in comps]
    for color in COLORS:
        for cyc in getattr(census, color):
            chis[comp_of[cyc[0] - 1]] += 1
    return chis


def genus(chi: int) -> int:
    """g with chi = 2 - 2g; odd or oversized chi signals a bug upstream.

    >>> genus(2), genus(0), genus(-2)
    (0, 1, 2)
    """
    if chi % 2 != 0 or chi > 2:
        raise ValueError("impossible Euler characteristic %r for a closed oriented component" % (chi,))
    return (2 - chi) // 2


def reverse(t: Triple) -> Triple:
    """Componentwise inverse: the same surface with colors of triangles
    swapped and orientation reversed.

    >>> reverse(Triple("(1 2 3)", "()", "()")).blue.cycle_string()
    '(1 3 2)'
    """
    return Triple._from_zero_based(t.n, _invert(t._b), _invert(t._r), _invert(t._y))


class _CanonicalSurface(_Gluing):
    """Order and export shared by the canonical surface types.

    A subclass names its leading integer parameters in _params; the
    constructor takes those, then the degree n and the three 0-based
    gluing arrays. Instances are immutable and ordered by sort_key, the
    parameters followed by n and the arrays; instances of different
    types never compare equal, nor equal a Triple.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._params + _Gluing.__slots__
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args):
        values = (*args[:-3], *map(tuple, args[-3:]))
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    @property
    def triple(self) -> Triple:
        return Triple._from_zero_based(self.n, self._b, self._r, self._y)

    def sort_key(self):
        return self._key(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        params = "".join("%s=%d, " % (name, getattr(self, name)) for name in self._fields[:-3])
        return "%s(%s%s, %s, %s)" % (type(self).__name__, params, *self.cycle_strings())

    def describe(self) -> dict:
        """Triple JSON plus components, chi, genus, and the vertex census."""
        comps = components(self)
        census = vertex_census(self)
        chis = _chis(self, comps, census)
        data = self.to_json()
        data["components"] = [list(c) for c in comps]
        data["chi"] = chis
        data["genus"] = [genus(chi) for chi in chis]
        data["vertices"] = {color: [list(c) for c in getattr(census, color)] for color in COLORS}
        return data


class LabeledSurface(_CanonicalSurface):
    """Canonical representative of a double coset: alpha black labels,
    beta white labels, unlabeled double triangles stripped.

    Built as LabeledSurface(alpha, beta, n, b, r, y). Equality is
    degree-aware; obtain instances through canonical_form.
    """

    __slots__ = ("alpha", "beta")
    _params = ("alpha", "beta")

    @classmethod
    def from_json(cls, data: dict) -> "LabeledSurface":
        """Canonical form of triple JSON with "alpha" and "beta" keys
        (default 0); malformed data raises SchemaError."""
        if not isinstance(data, dict):
            raise SchemaError("surface data must be a JSON object")
        try:
            t = Triple.from_json(data)
        except KeyError as exc:
            raise SchemaError("surface data lacks the key %s" % exc) from None
        except (TypeError, ValueError) as exc:
            raise SchemaError("malformed surface data: %s" % exc) from None
        alpha, beta = data.get("alpha", 0), data.get("beta", 0)
        for name, value in (("alpha", alpha), ("beta", beta)):
            if type(value) is not int or not 0 <= value <= t.n:
                raise SchemaError("%s must be an integer in 0..%d, got %r" % (name, t.n, value))
        return canonical_form(t, alpha, beta)


class CheckerSurface(_CanonicalSurface):
    """Canonical representative of a triple up to the label-free relabeling
    action, double triangles kept.

    Built as CheckerSurface(n, b, r, y). The basis objects of the filtered
    surface algebra; also the census keys. Equality is degree-aware: k
    disjoint double triangles at degree k and at degree k+1 are different
    elements.
    """

    __slots__ = ()

    canonical_triple = _CanonicalSurface.triple

    @property
    def component_partition(self) -> List[Tuple[int, ...]]:
        return components(self)

    @property
    def chi_by_component(self) -> List[int]:
        return _chis(self, components(self), vertex_census(self))

    @property
    def genus_by_component(self) -> List[int]:
        return [genus(chi) for chi in self.chi_by_component]

    @property
    def vertices(self) -> VertexCensus:
        return vertex_census(self)

    def double_triangle_count(self) -> int:
        return sum(1 for comp in self.component_partition if len(comp) == 1)


def canonical_form(t: Triple, alpha: int, beta: int) -> LabeledSurface:
    """Canonical representative of the double coset of t with alpha black
    and beta white labels; unlabeled double triangles stripped.

    Idempotent and constant on double cosets.

    >>> canonical_form(Triple("()", "()", "()", n=3), 0, 0).n
    0
    """
    if not (0 <= alpha <= t.n and 0 <= beta <= t.n):
        raise ValueError("alpha=%r beta=%r out of range for degree %d" % (alpha, beta, t.n))
    n2, b, r, y = kernel.canonical_code(t.n, t._b, t._r, t._y, alpha, beta, True)
    return LabeledSurface(alpha, beta, n2, b, r, y)


def checker_surface(t: Triple) -> CheckerSurface:
    """Canonical label-free form with double triangles kept.

    >>> checker_surface(Triple("()", "()", "()", n=2)).n
    2
    """
    n2, b, r, y = kernel.canonical_code(t.n, t._b, t._r, t._y, 0, 0, False)
    return CheckerSurface(n2, b, r, y)


class Dessin(_Immutable):
    """Bipartite ribbon graph: red and yellow vertices, one blue edge per
    point; rotations are the cycle orders. Faces are the blue vertices.
    """

    __slots__ = ("n", "red_vertices", "yellow_vertices", "faces", "edges")

    def __init__(self, n, red_vertices, yellow_vertices, faces, edges):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "red_vertices", tuple(red_vertices))
        object.__setattr__(self, "yellow_vertices", tuple(yellow_vertices))
        object.__setattr__(self, "faces", tuple(faces))
        object.__setattr__(self, "edges", tuple(edges))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "red_vertices": [list(c) for c in self.red_vertices],
            "yellow_vertices": [list(c) for c in self.yellow_vertices],
            "faces": [list(c) for c in self.faces],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        """Graphviz source; red vertices as boxes, yellow as circles."""
        lines = ["graph dessin {"]
        for i, cyc in enumerate(self.red_vertices):
            label = "(" + " ".join(str(x) for x in cyc) + ")"
            lines.append('  r%d [shape=box, label="%s"];' % (i, label))
        for i, cyc in enumerate(self.yellow_vertices):
            label = "(" + " ".join(str(x) for x in cyc) + ")"
            lines.append('  y%d [shape=circle, label="%s"];' % (i, label))
        for j, (ri, yi) in enumerate(self.edges, start=1):
            lines.append('  r%d -- y%d [label="%d"];' % (ri, yi, j))
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return "Dessin(n=%d, red=%d, yellow=%d, faces=%d)" % (
            self.n,
            len(self.red_vertices),
            len(self.yellow_vertices),
            len(self.faces),
        )


def to_dessin(t: Triple) -> Dessin:
    """Keep the blue edges; red and yellow vertices become the graph nodes.

    >>> d = to_dessin(Triple("(1 2)", "()", "()"))
    >>> len(d.red_vertices), len(d.yellow_vertices), len(d.edges)
    (1, 1, 2)
    """
    census = vertex_census(t)
    red_vertices = census.red
    yellow_vertices = census.yellow
    faces = census.blue
    red_of = {}
    for i, cyc in enumerate(red_vertices):
        for x in cyc:
            red_of[x] = i
    yellow_of = {}
    for i, cyc in enumerate(yellow_vertices):
        for x in cyc:
            yellow_of[x] = i
    edges = tuple((red_of[j], yellow_of[j]) for j in range(1, t.n + 1))
    return Dessin(t.n, red_vertices, yellow_vertices, faces, edges)


def disjoint_union(t1: Triple, t2: Triple) -> Triple:
    """Concatenate gluing data, shifting the second block of triangles."""
    n1 = t1.n
    b = t1._b + tuple([x + n1 for x in t2._b])
    r = t1._r + tuple([x + n1 for x in t2._r])
    y = t1._y + tuple([x + n1 for x in t2._y])
    return Triple._from_zero_based(n1 + t2.n, b, r, y)


def _glued(p, q, fixed: int, k: int) -> Iterator[Tuple[int, List[int], List[int], List[int]]]:
    """Cut and reglue each partial bijection of p's blacks dom to q's
    whites img that glues range(fixed) to range(fixed), then k blacks from
    [fixed, p.n) to k whites from [fixed, q.n); dom in combinations order
    and, under each, img in permutations order. Each removes dom and img,
    glues black dom[i] to white img[i] color to color, and routes each
    edge of p into a removed black through to the matched white's
    neighbor in q.

    p and q are anything with n and 0-based _b, _r, _y tuples. Yields the
    degree and the 0-based blue, red and yellow arrays, numbered with p's
    whites first, then q's unmatched whites in order, and q's blacks
    first, then p's unmatched blacks in order.

    >>> list(_glued(Triple("()", "()", "()", n=1), Triple("(1 2)", "()", "()"), 1, 0))
    [(2, [1, 0], [0, 1], [0, 1])]
    """
    m, n = p.n, q.n
    head = tuple(range(fixed))
    tail = tuple(range(n, n + m - fixed - k))
    columns = [(pc, qc, qc + tail) for pc, qc in ((p._b, q._b), (p._r, q._r), (p._y, q._y))]
    for dom in combinations(range(fixed, m), k):
        dom = head + dom
        kept = [1] * m  # p's blacks left unmatched
        for t in dom:
            kept[t] = 0
        # h[t]: q's white that an edge of p into black t reaches; if t is kept,
        # n plus the kept blacks before t, which ext maps to t's new number
        h = list(accumulate(kept, initial=n))
        for img in permutations(range(fixed, n), k):
            img = head + img
            free = [1] * n  # q's whites left unmatched
            for t, w in zip(dom, img):
                h[t] = w
                free[w] = 0
            b, r, y = [[ext[h[t]] for t in pc] + list(compress(qc, free)) for pc, qc, ext in columns]
            yield m + n - fixed - k, b, r, y


def _gluing_count(p, q, fixed: int, k: int) -> int:
    """The length of _glued(p, q, fixed, k), without making its gluings:
    C(p.n - fixed, k) (q.n - fixed)_k.

    >>> t, u = Triple("()", "()", "()", n=3), Triple("()", "()", "()", n=4)
    >>> _gluing_count(t, u, 1, 2) == len(list(_glued(t, u, 1, 2))) == 6
    True
    """
    return comb(p.n - fixed, k) * perm(q.n - fixed, k)


def random_triple(rng, n: int) -> Triple:
    """Uniform element of S_n x S_n x S_n from a seeded generator."""
    arrs = []
    for _ in range(3):
        images = list(range(n))
        rng.shuffle(images)
        arrs.append(tuple(images))
    return Triple._from_zero_based(n, *arrs)
