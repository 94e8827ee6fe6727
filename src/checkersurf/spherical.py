"""Spherical function of a checker surface against a unit tensor.

The value is the full contraction of the surface's edge network. Every
edge carries one index, ranging over db, dr or dy values by its color;
each white triangle contributes the factor xi[i, j, k] on its three edges
and each black triangle the conjugated factor on its three, so the value
is a sum over index assignments to the edges.

`spherical_assignment_sum` evaluates that sum by pairwise contraction, one
component at a time, the value being the product over components. For
each component it plans a greedy order that always merges the two factors
sharing an edge whose result has the fewest entries. A step costs the
product of the dimensions of the edges its two factors carry, in
multiply-adds; the cost of the plans of all components is checked
against the budget before any arithmetic, then each step runs as one
two-operand `numpy.einsum`. Edges of dimension 1 carry no sum and are
left out of the network. The cost grows with the largest intermediate
factor of the plan, not with the number of assignments.

`spherical_oracle` computes the same number another way: the inner
product of the n-fold tensor power of xi against its copy with the
colored slots permuted by the triple. It holds (db dr dy)^n entries, so
it serves as a cross-check at small n.

numpy is imported by the functions that use it, so importing the package
does not load it.
"""

from __future__ import annotations

import heapq
import random
from math import prod
from typing import List, Sequence, Tuple

from checkersurf.errors import BudgetError, SchemaError
from checkersurf.perm import _Immutable, _invert
from checkersurf.surface import components

__all__ = [
    "Tensor3",
    "spherical_assignment_sum",
    "spherical_oracle",
]

UNIT_NORM_TOLERANCE = 1e-12

DEFAULT_MAX_ASSIGNMENTS = 10**8

MAX_ORACLE_ENTRIES = 2**22


class Tensor3(_Immutable):
    """A complex tensor with one axis per edge color."""

    __slots__ = ("dims", "entries")

    def __init__(self, entries, dims: Tuple[int, int, int] | None = None):
        import numpy as np

        arr = np.asarray(entries, dtype=complex)
        if dims is not None:
            dims = tuple(int(d) for d in dims)
            if len(dims) != 3 or any(d < 1 for d in dims):
                raise SchemaError("dims must be three positive integers, got %r" % (dims,))
            arr = arr.reshape(dims)
        if arr.ndim != 3:
            raise SchemaError("tensor must have exactly three axes, got shape %r" % (arr.shape,))
        if any(d < 1 for d in arr.shape):
            raise SchemaError("tensor axes must be positive, got shape %r" % (arr.shape,))
        object.__setattr__(self, "dims", tuple(int(d) for d in arr.shape))
        object.__setattr__(self, "entries", arr)

    @property
    def norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.entries))

    def normalized(self) -> "Tensor3":
        nrm = self.norm
        if nrm == 0:
            raise SchemaError("cannot normalize the zero tensor")
        return Tensor3(self.entries / nrm)

    @classmethod
    def random_unit(cls, rng: random.Random, dims: Sequence[int]) -> "Tensor3":
        """Unit tensor with Gaussian entries drawn from a seeded generator."""
        db, dr, dy = (int(d) for d in dims)
        flat = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(db * dr * dy)]
        return cls(flat, dims=(db, dr, dy)).normalized()

    def to_json(self) -> dict:
        flat = self.entries.reshape(-1)
        return {
            "dims": list(self.dims),
            "re": [float(z.real) for z in flat],
            "im": [float(z.imag) for z in flat],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tensor3":
        try:
            dims = tuple(int(d) for d in data["dims"])
            re = [float(x) for x in data["re"]]
            im = [float(x) for x in data.get("im") or [0.0] * len(re)]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError("malformed tensor data: %s" % exc) from None
        if len(dims) != 3:
            raise SchemaError("dims must have three entries, got %r" % (dims,))
        size = dims[0] * dims[1] * dims[2]
        if len(re) != size or len(im) != size:
            raise SchemaError(
                "entry count %d/%d does not match dims product %d" % (len(re), len(im), size)
            )
        flat = [complex(a, b) for a, b in zip(re, im)]
        return cls(flat, dims=dims)

    def __repr__(self):
        return "Tensor3(dims=%r, norm=%.6f)" % (self.dims, self.norm)


def _require_unit(xi: Tensor3) -> None:
    # written so that a NaN norm fails too
    if not abs(xi.norm - 1.0) <= UNIT_NORM_TOLERANCE:
        raise SchemaError("spherical vector must have unit norm, got %r" % xi.norm)


def _summed_colors(xi: Tensor3) -> List[int]:
    """The colors whose edges carry a sum: those of dimension above 1."""
    return [c for c in range(3) if xi.dims[c] > 1]


def _plan(factors: List[Tuple[int, ...]], dims: Sequence[int]):
    """Greedy pairwise contraction order of one connected network.

    `factors` lists the edge labels of each factor; label e has dimension
    dims[e % 3] and belongs to exactly two factors. Each step merges the
    pair sharing an edge whose result has the fewest entries (ties: the
    cheaper step, then the lower ids). The merged factor gets the next id
    and carries the edges of either factor that are not shared. Factors
    left without edges are multiplied in at the end, at cost 1 each.
    Returns the steps as (a, b, result labels) and their total
    multiply-adds, the product of the dimensions of each step's edges.
    """
    live = dict(enumerate(factors))
    owners = {}
    for f, labels in live.items():
        for e in labels:
            owners.setdefault(e, []).append(f)
    heap = []

    def push(a: int, b: int) -> None:
        la, lb = live[a], live[b]
        out = tuple(e for e in la if e not in lb) + tuple(e for e in lb if e not in la)
        size = prod(dims[e % 3] for e in out)
        cost = size * prod(dims[e % 3] for e in la if e in lb)
        heapq.heappush(heap, (size, cost, a, b, out))

    for pair in {tuple(sorted(fs)) for fs in owners.values()}:
        push(*pair)
    steps = []
    total = 0
    fresh = len(factors)
    while heap:
        _, cost, a, b, out = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        del live[a], live[b]
        live[fresh] = out
        partners = set()
        for e in out:
            fs = owners[e]
            fs[fs.index(a) if a in fs else fs.index(b)] = fresh
            partners.add(fs[0] if fs[1] == fresh else fs[1])
        for other in sorted(partners):
            push(other, fresh)
        steps.append((a, b, out))
        total += cost
        fresh += 1
    scalars = sorted(live)
    product = scalars[0]
    for other in scalars[1:]:
        steps.append((product, other, ()))
        total += 1
        product = fresh
        fresh += 1
    return steps, total


def spherical_assignment_sum(
    surface,
    xi: Tensor3,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> complex:
    """Sum over edge-index assignments, one xi factor per white triangle
    and one conjugated factor per black triangle.

    Contracts the edge network of each component pairwise in a planned
    order and multiplies the components' values. Raises BudgetError,
    before any arithmetic, when the plans' multiply-adds would exceed
    max_assignments.
    """
    _require_unit(xi)
    colors = _summed_colors(xi)
    imgs = (surface._b, surface._r, surface._y)
    invs = [_invert(img) for img in imgs]
    networks = []
    total = 0
    for comp in components(surface):
        whites = [w - 1 for w in comp]
        blacks = sorted({imgs[c][w] for w in whites for c in range(3)})
        factors = [tuple(3 * w + c for c in colors) for w in whites]
        factors += [tuple(3 * invs[c][k] + c for c in colors) for k in blacks]
        steps, cost = _plan(factors, xi.dims)
        networks.append((factors, len(whites), steps))
        total += cost
    if total > max_assignments:
        raise BudgetError(
            "the contraction plan needs %d multiply-adds, over the %d budget"
            % (total, max_assignments)
        )

    import numpy as np

    plain = xi.entries.reshape([xi.dims[c] for c in colors])
    conj = plain.conj()
    value = complex(1.0)
    for factors, white_count, steps in networks:
        tensors = [plain] * white_count + [conj] * (len(factors) - white_count)
        labels = list(factors)
        for a, b, out in steps:
            la, lb = labels[a], labels[b]
            axis = {e: i for i, e in enumerate(dict.fromkeys(la + lb))}
            tensors.append(
                np.einsum(
                    tensors[a], [axis[e] for e in la],
                    tensors[b], [axis[e] for e in lb],
                    [axis[e] for e in out],
                )
            )
            labels.append(out)
        value *= complex(tensors[-1])
    return value


def spherical_oracle(t, xi: Tensor3) -> complex:
    """Inner product of the slot-permuted tensor power against itself.

    The blue coordinate permutes the blue slots of the n factors, red and
    yellow likewise. Axes of dimension 1 are dropped. Raises BudgetError
    when the tensor power would hold more than MAX_ORACLE_ENTRIES entries.
    """
    _require_unit(xi)
    n = t.n
    if n == 0:
        return complex(1.0)
    db, dr, dy = xi.dims
    size = (db * dr * dy) ** n
    if size > MAX_ORACLE_ENTRIES:
        raise BudgetError("tensor power needs %d entries, budget %d" % (size, MAX_ORACLE_ENTRIES))

    import numpy as np

    colors = _summed_colors(xi)
    factor = xi.entries.reshape([xi.dims[c] for c in colors])
    v = factor
    for _ in range(n - 1):
        v = np.multiply.outer(v, factor)
    invs = [_invert(img) for img in (t._b, t._r, t._y)]
    k = len(colors)
    axes = [k * invs[c][slot] + i for slot in range(n) for i, c in enumerate(colors)]
    rho_v = np.transpose(v, axes)
    # an elementwise reduction, not np.vdot: BLAS would wake its helper
    # threads, which then spin between calls
    return complex((v.conj() * rho_v).sum())
