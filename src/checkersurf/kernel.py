"""Canonical labeling of triangle gluings.

Input model: 0-based image arrays of length n. White triangle w meets black
triangle blue[w] along its blue edge, likewise red and yellow. Allowed
relabelings renumber whites and blacks independently, except whites < beta
and blacks < alpha are pinned. The code of a labeling is the concatenation
(blue'[0], red'[0], yellow'[0], blue'[1], ...) after renumbering.

Phases:
  A. multi-source BFS seeded by the pins (whites first), pinned vertices
     keep their numbers, the rest numbered in discovery order;
  B. each unpinned component is found by the local BFS from its least
     white and takes the minimal local BFS code over all of its white
     roots; double-triangle components drop when strip is set; kept
     components sort by (size, code);
  C. emit the relabeled arrays.

Both BFSs walk the whites in numbering order; a black, once numbered,
numbers its new whites at once. Whites and blacks are each processed in
their numbering order, so the numbering is that of one FIFO of both.

Phase B emits a root's code white by white against the best code so far:
the root stops at its first larger entry, and after its first smaller one
it finishes without comparing. A root whose full code ties with the best
is the best root's image under an automorphism, read off the two BFS
white orders position by position. A union-find over the component's
whites, built at the first tie, merges along every such automorphism;
a root is skipped when its class holds a root already tried, since
equivalent roots give equal codes. So a component costs about one BFS per
root that its automorphisms do not cover and that survives its first
entries: near-linear on random and on symmetric components, quadratic
still on nearly symmetric ones, where roots far from the defect share
long prefixes.

Equivariance of BFS under admissible relabelings makes the result constant
on double cosets; the emitted blocks depend only on the minimal codes, so
the map is idempotent and injective across cosets at fixed n.
"""

__all__ = ["canonical_code", "BACKEND"]

# Named in run reports; the kernel has this one implementation.
BACKEND = "python"


def canonical_code(n, blue, red, yellow, alpha, beta, strip):
    """Return (n2, blue2, red2, yellow2), the canonical relabeled arrays.

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

    # Phase A: pins keep their numbers; pinned blacks number their new
    # whites, then the walk over the whites numbers the rest.
    order = list(range(beta))
    for w in range(beta):
        white_num[w] = w
    for b in range(alpha):
        black_num[b] = b
    next_w = beta
    next_b = alpha
    for b in range(alpha):
        for inv in inverses:
            w = inv[b]
            if white_num[w] < 0:
                white_num[w] = next_w
                next_w += 1
                order.append(w)
    for w in order:  # the loop reaches the whites appended as it runs
        for img in images:
            b = img[w]
            if black_num[b] < 0:
                black_num[b] = next_b
                next_b += 1
                for inv in inverses:
                    v = inv[b]
                    if white_num[v] < 0:
                        white_num[v] = next_w
                        next_w += 1
                        order.append(v)

    # Phase B: unpinned components; place[w] is w's position in the first
    # root's BFS order of its component, -1 while w is unvisited.
    place = [-1] * n
    kept = []
    for w0 in range(n):
        if white_num[w0] >= 0 or place[w0] >= 0:
            continue
        best, whites = _root_code(w0, images, inverses, None)
        for i, w in enumerate(whites):
            place[w] = i
        k = len(whites)
        if strip and k == 1:
            continue
        best_whites = whites
        # Union-find over positions, built at the first tie. A class is
        # represented by its earliest position, so a position that does not
        # represent its class has an equivalent root tried before it.
        parent = None
        for i in range(1, k):
            if parent is not None and _find(parent, i) != i:
                continue
            run = _root_code(whites[i], images, inverses, best)
            if run is None:
                continue
            code, run_whites = run
            if code < best:
                best, best_whites = code, run_whites
                continue
            # A tie: best_whites[j] -> run_whites[j] is an automorphism.
            if parent is None:
                parent = list(range(k))
            for u, v in zip(best_whites, run_whites):
                a = _find(parent, place[u])
                c = _find(parent, place[v])
                if a < c:
                    parent[c] = a
                elif c < a:
                    parent[a] = c
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


def _root_code(root, images, inverses, best):
    """Local BFS code of root's component, emitted white by white.

    Returns (code, whites): code lists each white's local blue, red and
    yellow black numbers in BFS order, whites is that order. With best
    given, returns None at the first entry larger than best's; after the
    first smaller entry the run finishes without comparing.
    """
    num = {}
    whites = [root]
    seen = {root}
    code = []
    tied = best is not None
    for w in whites:
        for img in images:
            b = img[w]
            x = num.get(b)
            if x is None:
                x = num[b] = len(num)
                for inv in inverses:
                    v = inv[b]
                    if v not in seen:
                        seen.add(v)
                        whites.append(v)
            if tied:
                y = best[len(code)]
                if x != y:
                    if x > y:
                        return None
                    tied = False
            code.append(x)
    return code, whites


def _find(parent, i):
    """Class root of i, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i
