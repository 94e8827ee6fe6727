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

Equivariance of BFS under admissible relabelings makes the result constant
on double cosets; the emitted blocks depend only on the minimal codes, so
the map is idempotent and injective across cosets at fixed n.
"""

from collections import deque

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
