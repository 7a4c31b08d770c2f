"""The benchmark's own reference computations.

Every output check of the benchmark is made against these functions, which
share no code with ``fusionkit``: a check that reused the program's code would
pass whenever the program agreed with itself.  Multiplicities are plain dicts
``{highest weight: coefficient}`` with zero coefficients dropped and keys in
ascending order.
"""

from __future__ import annotations


def _sorted_nonzero(acc: dict[int, int]) -> dict[int, int]:
    return {k: c for k, c in sorted(acc.items()) if c}


def cg_fold(ws) -> dict[int, int]:
    """V_w1 (x) ... (x) V_wr by folding the Clebsch-Gordan rule left to right.

    V_i (x) V_j = V_|i-j| + V_|i-j|+2 + ... + V_i+j.
    """
    acc = {0: 1}
    for w in ws:
        nxt: dict[int, int] = {}
        for k, c in acc.items():
            for m in range(abs(k - w), k + w + 1, 2):
                nxt[m] = nxt.get(m, 0) + c
        acc = nxt
    return _sorted_nonzero(acc)


def truncated_fold(ws, level: int) -> dict[int, int]:
    """The level-``level`` fusion product: each pair step stops at min(i+j, 2l-i-j)."""
    if level < 1 or any(w > level for w in ws):
        raise ValueError(f"weights {tuple(ws)} do not lie in the level-{level} alcove")
    acc = {0: 1}
    for w in ws:
        nxt: dict[int, int] = {}
        for k, c in acc.items():
            for m in range(abs(k - w), min(k + w, 2 * level - k - w) + 1, 2):
                nxt[m] = nxt.get(m, 0) + c
        acc = nxt
    return _sorted_nonzero(acc)


def kw_reduce(coeffs: dict[int, int], level: int) -> dict[int, int]:
    """Reduce into the level alcove by the Kac-Walton reflection.

    ``[V_{l+1}] = 0`` and ``[V_{2l+2-k}] = -[V_k]``, applied until the weight
    lies in 0..l.  A weight above 2l+2 reflects to a negative one; the wall at
    -1 then gives ``[V_{-1}] = 0`` and ``[V_{-2-k}] = -[V_k]``, the same
    reflections continued.
    """
    out: dict[int, int] = {}
    for k, c in coeffs.items():
        sign = 1
        while k > level:
            if k == level + 1:
                sign = 0
                break
            k, sign = 2 * level + 2 - k, -sign
            if k < 0:
                if k == -1:
                    sign = 0
                    break
                k, sign = -2 - k, -sign
        if sign:
            out[k] = out.get(k, 0) + sign * c
    return _sorted_nonzero(out)


def total_dim(coeffs: dict[int, int]) -> int:
    """Dimension of the module with the given multiplicities."""
    return sum(c * (k + 1) for k, c in coeffs.items())


def match_count(ws) -> int:
    """Number of lower crossingless matches on boxes ``ws``: one per summand."""
    return sum(cg_fold(ws).values())


def oriented_count(ws) -> int:
    """Number of oriented matches on ``ws``: the product of the w_i + 1."""
    out = 1
    for w in ws:
        out *= w + 1
    return out


def parse_key(key: str) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Split a text key ``"w1,w2,...|p1-q1,p2-q2,..."`` into sizes and arcs."""
    sizes_part, sep, arcs_part = key.partition("|")
    if not sep:
        raise ValueError(f"match key {key!r} has no '|'")
    sizes = tuple(int(s) for s in sizes_part.split(","))
    arcs = []
    if arcs_part:
        for chunk in arcs_part.split(","):
            p, q = chunk.split("-")
            arcs.append((int(p), int(q)))
    return sizes, tuple(arcs)


def valid_match(sizes, arcs) -> bool:
    """Whether ``arcs`` is a lower crossingless match on boxes ``sizes``.

    Arcs are pairs ``(p, q)`` with ``1 <= p < q <= w``.  No vertex is used
    twice, no arc joins a box to itself, no two arcs cross and no unmatched
    vertex lies under an arc.  One left-to-right pass with a stack of open
    arcs checks the last three rules.
    """
    w = sum(sizes)
    box = [0] * (w + 1)
    v = 1
    for b, s in enumerate(sizes):
        for _ in range(s):
            box[v] = b
            v += 1
    partner = [0] * (w + 1)
    for p, q in arcs:
        if not 1 <= p < q <= w or partner[p] or partner[q] or box[p] == box[q]:
            return False
        partner[p] = q
        partner[q] = p
    stack: list[int] = []
    for v in range(1, w + 1):
        u = partner[v]
        if u == 0:
            if stack:
                return False
        elif u > v:
            stack.append(v)
        elif not stack or stack.pop() != u:
            return False
    return True
