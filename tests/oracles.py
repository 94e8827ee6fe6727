"""Brute-force oracles kept for the tests after a formula replaced them."""

from collections import deque
from fractions import Fraction
from itertools import permutations
from math import factorial

from checkersurf import kernel
from checkersurf.convolution import CosetAlgebraElement, GroupAlgebraElement
from checkersurf.cosets import DoubleCoset
from checkersurf.ik import lift
from checkersurf.perm import _invert, _pad
from checkersurf.surface import (
    CheckerSurface,
    LabeledSurface,
    Triple,
    build_surface,
    canonical_form,
    components,
)


def hsum_oracle(p: DoubleCoset, q: DoubleCoset, n: int) -> CosetAlgebraElement:
    """coset_decomposition by the h-sum: classify a0 * (h,h,h) * b0 for
    every one of the (n - beta)! permutations h of [beta, n)."""
    assert p.beta == q.alpha and n >= max(p.degree, q.degree)
    alpha, beta, gamma = p.alpha, p.beta, q.beta
    a = [_pad(arr, n) for arr in (p.surface._b, p.surface._r, p.surface._y)]
    b = [_pad(arr, n) for arr in (q.surface._b, q.surface._r, q.surface._y)]
    counts = {}
    for tail in permutations(range(beta, n)):
        h = tuple(range(beta)) + tail
        prods = [tuple(ac[h[bc[x]]] for x in range(n)) for ac, bc in zip(a, b)]
        key = kernel.canonical_code(n, prods[0], prods[1], prods[2], alpha, gamma, True)
        counts[key] = counts.get(key, 0) + 1
    total = factorial(n - beta)
    coeffs = {
        DoubleCoset(LabeledSurface(alpha, gamma, *key)): Fraction(cnt, total)
        for key, cnt in counts.items()
    }
    return CosetAlgebraElement(n, alpha, gamma, coeffs)


def assignment_sum_oracle(surface, xi) -> complex:
    """spherical_assignment_sum by recursion over the index assignments of
    the edges, component by component: each white's three indices are
    chosen in turn, and a black's conjugated factor is multiplied in as
    soon as its last white has its indices. Costs about (db dr dy)^k
    multiply-adds on a component of k whites."""
    imgs = [surface._b, surface._r, surface._y]
    invs = [_invert(img) for img in imgs]
    db, dr, dy = xi.dims
    plain = xi.entries
    conj = xi.entries.conj()

    def component_sum(order):
        pos = {w: d for d, w in enumerate(order)}
        k = len(order)
        # black b completes at the last of its three whites in the order
        completing = [[] for _ in range(k)]
        for b in sorted({imgs[c][w] for w in order for c in range(3)}):
            wb, wr, wy = invs[0][b], invs[1][b], invs[2][b]
            completing[max(pos[wb], pos[wr], pos[wy])].append((wb, wr, wy))
        idx_i = dict.fromkeys(order, 0)
        idx_j = dict.fromkeys(order, 0)
        idx_k = dict.fromkeys(order, 0)
        total = complex(0.0)

        def descend(depth, product):
            nonlocal total
            if depth == k:
                total += product
                return
            w = order[depth]
            for i in range(db):
                idx_i[w] = i
                for j in range(dr):
                    idx_j[w] = j
                    for kk in range(dy):
                        idx_k[w] = kk
                        factor = product * plain[i, j, kk]
                        for wb, wr, wy in completing[depth]:
                            factor *= conj[idx_i[wb], idx_j[wr], idx_k[wy]]
                        descend(depth + 1, factor)

        descend(0, complex(1.0))
        return total

    value = complex(1.0)
    for comp in components(surface):
        value *= component_sum([w - 1 for w in comp])
    return value


def reduced_centralizer_order(p) -> int:
    """Order of the diagonal centralizer of the pair of the canonical
    surface p with its double-triangle components removed, by trying
    every permutation of the remaining points."""
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


def lift_oracle(p, m: int) -> GroupAlgebraElement:
    """lift by conjugating the padded pair of p by all m! permutations,
    with the scalar z (m - k + f)! / (m - k)! from the centralizer order
    z of the reduced pair and the f double triangles of p."""
    k = p.n
    f = p.double_triangle_count()
    scalar = Fraction(reduced_centralizer_order(p) * factorial(m - k + f), factorial(m - k))
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
    coeffs = {Triple._from_zero_based(m, h1, h2, ident): scalar for h1, h2 in sorted(seen)}
    return GroupAlgebraElement(m, coeffs)


def project_fold_oracle(x, n: int) -> GroupAlgebraElement:
    """project by folding each scaled lift into the sum through the
    public +, one rebuild per surface."""
    out = GroupAlgebraElement(n, {})
    for surf, co in x.items():
        if surf.n <= n:
            out = out + lift(surf, n).scale(co)
    return out


def concat_geometric_oracle(P, Q) -> LabeledSurface:
    """concat_geometric by its own edge-routing loop over the labeled
    surfaces P and Q (P.beta == Q.alpha): result whites are Q's whites,
    then P's unlabeled whites; result blacks are P's blacks, then Q's
    unlabeled blacks, so both label sets keep their slots."""
    beta = P.beta
    np_, nq = P.n, Q.n
    arrs = []
    for pc, qc in ((P._b, Q._b), (P._r, Q._r), (P._y, Q._y)):
        col = []
        for w in range(nq):
            t = qc[w]
            if t < beta:
                col.append(pc[t])  # edge passes through the glued boundary
            else:
                col.append(np_ + t - beta)
        for w in range(beta, np_):
            col.append(pc[w])
        arrs.append(tuple(col))
    glued = Triple._from_zero_based(nq + np_ - beta, *arrs)
    return canonical_form(glued, P.alpha, Q.beta)


def glue_oracle(p, q, dom, img) -> CheckerSurface:
    """ik._glue by its own edge-routing loop: p's unmatched blacks first,
    then q's blacks; p's whites first, then q's unmatched whites."""
    m, n = p.n, q.n
    s = dict(zip(dom, img))
    image = set(img)
    new_black = {}
    for b in range(m):
        if b not in s:
            new_black[b] = len(new_black)
    off = len(new_black)
    new_white = {}
    for w in range(n):
        if w not in image:
            new_white[w] = m + len(new_white)
    size = m + n - len(dom)
    cols = []
    for pc, qc in ((p._b, q._b), (p._r, q._r), (p._y, q._y)):
        col = [0] * size
        for w in range(m):
            t = pc[w]
            col[w] = off + qc[s[t]] if t in s else new_black[t]
        for w, slot in new_white.items():
            col[slot] = off + qc[w]
        cols.append(col)
    n2, b2, r2, y2 = kernel.canonical_code(size, cols[0], cols[1], cols[2], 0, 0, False)
    return CheckerSurface(n2, b2, r2, y2)


class _DSU:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


_PAIR_INDEX = {
    frozenset(("blue", "red")): 0,
    frozenset(("blue", "yellow")): 1,
    frozenset(("red", "yellow")): 2,
}
_OTHERS = {
    "blue": ("red", "yellow"),
    "red": ("blue", "yellow"),
    "yellow": ("blue", "red"),
}


def euler_by_cells_oracle(t) -> dict:
    """chi per component from the explicit cell complex alone.

    Vertices are classes of triangle corners under the edge gluings: the
    color-c edge of white w and of black b share both endpoints, and an
    endpoint is named by the unordered pair of edge colors meeting there.
    Returns a dict mapping each sorted white-label tuple to V - E + F.
    """
    s = build_surface(t)
    n = t.n
    corners = _DSU(6 * n)  # 3 corners per triangle, whites then blacks
    tris = _DSU(2 * n)
    for color, w, b in s.edges:
        for other in _OTHERS[color]:
            pi = _PAIR_INDEX[frozenset((color, other))]
            corners.union((w - 1) * 3 + pi, (n + b - 1) * 3 + pi)
        tris.union(w - 1, n + b - 1)
    whites_of = {}
    for w in range(n):
        whites_of.setdefault(tris.find(w), []).append(w + 1)
    verts_of = {}
    for idx in range(6 * n):
        root = tris.find(idx // 3)
        verts_of.setdefault(root, set()).add(corners.find(idx))
    out = {}
    for root, whites in whites_of.items():
        w = len(whites)
        v = len(verts_of[root])
        out[tuple(sorted(whites))] = v - 3 * w + 2 * w
    return out


def canonical_code_oracle(n, blue, red, yellow, alpha, beta, strip):
    """kernel.canonical_code by a full local BFS from every white root of
    each component, the minimum taken after all codes are built.

    Returns (n2, blue2, red2, yellow2), the canonical relabeled arrays.

    alpha, beta: pinned black / white counts. strip: drop unpinned
    double-triangle components. Output arrays are 0-based tuples of
    length n2 (n2 < n only when stripping removed components).
    """
    if not (0 <= alpha <= n and 0 <= beta <= n):
        raise ValueError("label counts alpha=%r beta=%r out of range for n=%r" % (alpha, beta, n))
    if n == 0:
        return 0, (), (), ()

    iblue = [-1] * n
    ired = [-1] * n
    iyellow = [-1] * n
    for w in range(n):
        i = blue[w]
        if i < 0 or i >= n or iblue[i] >= 0:
            raise ValueError("blue is not a bijection of range(n)")
        iblue[i] = w
        i = red[w]
        if i < 0 or i >= n or ired[i] >= 0:
            raise ValueError("red is not a bijection of range(n)")
        ired[i] = w
        i = yellow[w]
        if i < 0 or i >= n or iyellow[i] >= 0:
            raise ValueError("yellow is not a bijection of range(n)")
        iyellow[i] = w

    images = (blue, red, yellow)
    inverses = (iblue, ired, iyellow)

    white_num = [-1] * n
    black_num = [-1] * n

    # Phase A: whites encoded 2w, blacks 2b+1; pins enqueued whites first.
    for w in range(beta):
        white_num[w] = w
    for b in range(alpha):
        black_num[b] = b
    next_w = beta
    next_b = alpha
    queue = deque()
    for w in range(beta):
        queue.append(2 * w)
    for b in range(alpha):
        queue.append(2 * b + 1)
    while queue:
        v = queue.popleft()
        if v & 1:
            b = v >> 1
            for inv in inverses:
                w = inv[b]
                if white_num[w] < 0:
                    white_num[w] = next_w
                    next_w += 1
                    queue.append(2 * w)
        else:
            w = v >> 1
            for img in images:
                b = img[w]
                if black_num[b] < 0:
                    black_num[b] = next_b
                    next_b += 1
                    queue.append(2 * b + 1)

    # Phase B: unpinned components.
    comp_seen = [False] * n

    def local_run(root):
        # Single-source BFS; local numbering of whites and blacks from 0.
        lw = {root: 0}
        lb = {}
        order_w = [root]
        dq = deque([2 * root])
        while dq:
            v = dq.popleft()
            if v & 1:
                b = v >> 1
                for inv in inverses:
                    w = inv[b]
                    if w not in lw:
                        lw[w] = len(lw)
                        order_w.append(w)
                        dq.append(2 * w)
            else:
                w = v >> 1
                for img in images:
                    b = img[w]
                    if b not in lb:
                        lb[b] = len(lb)
                        dq.append(2 * b + 1)
        code = []
        for w in order_w:
            code.append(lb[blue[w]])
            code.append(lb[red[w]])
            code.append(lb[yellow[w]])
        return tuple(code), order_w

    kept = []
    for w0 in range(n):
        if white_num[w0] >= 0 or comp_seen[w0]:
            continue
        best, whites = local_run(w0)
        for w in whites:
            comp_seen[w] = True
        k = len(whites)
        if strip and k == 1:
            continue
        for root in whites[1:]:
            code = local_run(root)[0]
            if code < best:
                best = code
        kept.append((k, best))
    kept.sort()

    # Phase C: pinned part first, then sorted component blocks.
    n2 = next_w
    for k, _code in kept:
        n2 += k
    out_blue = [0] * n2
    out_red = [0] * n2
    out_yellow = [0] * n2
    for w in range(n):
        nw = white_num[w]
        if nw >= 0:
            out_blue[nw] = black_num[blue[w]]
            out_red[nw] = black_num[red[w]]
            out_yellow[nw] = black_num[yellow[w]]
    off_w = next_w
    off_b = next_b
    for k, code in kept:
        for i in range(k):
            out_blue[off_w + i] = off_b + code[3 * i]
            out_red[off_w + i] = off_b + code[3 * i + 1]
            out_yellow[off_w + i] = off_b + code[3 * i + 2]
        off_w += k
        off_b += k
    return n2, tuple(out_blue), tuple(out_red), tuple(out_yellow)
