"""Search kernel for crossingless-match enumeration.

The search walks the vertex line left to right keeping a stack of open arcs.
Three moves are possible at each vertex: leave it unmatched (only when no arc
is open, since an unmatched vertex may not sit inside an arc), close the
innermost open arc (only onto a different box), or open a new arc.  Every
complete walk with an empty stack is a valid lower crossingless match.
Results are cached: enumeration is pure and canonical.
"""

from __future__ import annotations

from functools import lru_cache

MAX_VERTICES = 64


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
