"""Search kernel for crossingless-match enumeration.

The search walks the vertex line left to right keeping a stack of open arcs.
Three moves are possible at each vertex: leave it unmatched (only when no arc
is open, since an unmatched vertex may not sit inside an arc), close the
innermost open arc (only onto a different box), or open a new arc.  Every
complete walk with an empty stack is a valid lower crossingless match.
Results are cached: enumeration is pure and canonical.

Two caps refuse work before the search starts: ``MAX_VERTICES`` bounds the
recursion depth, and ``MAX_MATCHES`` bounds the size of the result, counted
beforehand by a Clebsch-Gordan fold.
"""

from __future__ import annotations

from functools import lru_cache

MAX_VERTICES = 64
# The largest listing the benchmark makes has 38,165 matches and (4,)*10 has
# 856,945; (4,)*16 has 10,651,488,789 and would never finish.
MAX_MATCHES = 10**6


def _match_count(sizes: list[int]) -> int:
    """Number of irreducible summands of V_{w1} x ... x V_{wr}, with multiplicity.

    Each summand is labelled by exactly one lower crossingless match.
    """
    mult = {0: 1}
    for w in sizes:
        folded: dict[int, int] = {}
        for k, c in mult.items():
            for j in range(abs(k - w), k + w + 1, 2):
                folded[j] = folded.get(j, 0) + c
        mult = folded
    return sum(mult.values())


@lru_cache(maxsize=None)
def enumerate_arc_sets(sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All valid arc sets on the vertex line of ``sizes``, canonically ordered.

    Arcs are pairs ``(p, q)`` of 1-based vertex positions with ``p < q``.  The
    result is sorted lexicographically on the arc tuples, empty set first.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError(f"box sizes must be nonnegative, got {sizes}")
    w = sum(sizes)
    if w > MAX_VERTICES:
        raise ValueError(f"enumeration supports at most {MAX_VERTICES} vertices, got {w}")
    count = _match_count(sizes)
    if count > MAX_MATCHES:
        raise ValueError(f"enumeration supports at most {MAX_MATCHES} matches, got {count}")

    box_of = [0] * (w + 1)
    v = 1
    for b, s in enumerate(sizes, start=1):
        for _ in range(s):
            box_of[v] = b
            v += 1

    out: list[tuple[tuple[int, int], ...]] = []
    stack: list[int] = []
    arcs: list[tuple[int, int]] = []

    def search(pos: int) -> None:
        if pos > w:
            if not stack:
                out.append(tuple(sorted(arcs)))
            return
        if len(stack) > w - pos + 1:
            return
        if not stack:
            search(pos + 1)
        if stack and box_of[stack[-1]] != box_of[pos]:
            arcs.append((stack.pop(), pos))
            search(pos + 1)
            stack.append(arcs.pop()[0])
        stack.append(pos)
        search(pos + 1)
        stack.pop()

    search(1)
    out.sort()
    return tuple(out)
