"""Search kernel for crossingless-match enumeration.

The search walks the vertex line left to right keeping a stack of open arcs.
Three moves are possible at each vertex: leave it unmatched (only when no arc
is open, since an unmatched vertex may not sit inside an arc), close the
innermost open arc (only onto a different box), or open a new arc.  Every
complete walk with an empty stack is a valid lower crossingless match.
Results are cached: enumeration is pure and canonical.

A search given a level budget also counts, as it passes the last vertex of a
box, the curves of every budgeted tensor operation whose scope ends in that
box (see :func:`load`), and drops the prefix when a count exceeds the level.
Arcs opened later never join two vertices of such a scope, so the count on
the prefix is final.

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
    # Imported here: ring imports bracketing, which imports this module.
    from .ring import tensor_many

    return sum(c for _, c in tensor_many(sizes).items())


@lru_cache(maxsize=None)
def layout(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(box index of every vertex 1..total with entry 0 unused, prefix sums of sizes)."""
    box = [0]
    prefix = [0]
    for b, s in enumerate(sizes, start=1):
        box.extend([b] * s)
        prefix.append(prefix[-1] + s)
    return tuple(box), tuple(prefix)


def load(sizes: tuple[int, ...], arcs, scopes) -> int:
    """The largest count of curves over ``scopes`` (0 for none), as in ``bracketing``.

    Each scope is ``(S lo, A hi, B lo, S hi)`` in box indices, for a tensor
    operation with sides A and B and scope S = A u B.
    """
    box, prefix = layout(sizes)
    arc_boxes = [(box[p], box[q]) for p, q in arcs]
    result = 0
    for slo, ahi, blo, shi in scopes:
        # Every vertex of S counts once, less one for an arc inside S (its two
        # ends are one curve) and one more if that arc stays inside A or B.
        count = prefix[shi] - prefix[slo - 1]
        for bp, bq in arc_boxes:
            if slo <= bp and bq <= shi:
                count -= 2 if bq <= ahi or bp >= blo else 1
        if count > result:
            result = count
    return result


@lru_cache(maxsize=None)
def enumerate_arc_sets(
    sizes: tuple[int, ...], budget: tuple[int, tuple[tuple[int, int, int, int], ...]] | None = None
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All valid arc sets on the vertex line of ``sizes``, canonically ordered.

    Arcs are pairs ``(p, q)`` of 1-based vertex positions with ``p < q``.  The
    result is sorted lexicographically on the arc tuples, empty set first.

    ``budget`` is ``(level, scopes)``, each scope ``(S lo, A hi, B lo, S hi)``
    in box indices as in ``bracketing``.  Only the arc sets that fit the level
    at every given scope are kept, a sub-list of the full result.  The caps
    apply to the full result either way.
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

    key = tuple(sizes)
    box_of, prefix = layout(key)
    # The scopes to count on reaching each vertex: those whose last vertex precedes it.
    due: dict[int, list[tuple[int, int, int, int]]] = {}
    if budget is not None:
        level, scopes = budget
        for scope in scopes:
            due.setdefault(prefix[scope[3]] + 1, []).append(scope)

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
            step(pos + 1)
        if stack and box_of[stack[-1]] != box_of[pos]:
            arcs.append((stack.pop(), pos))
            step(pos + 1)
            stack.append(arcs.pop()[0])
        stack.append(pos)
        step(pos + 1)
        stack.pop()

    def pruned(pos: int) -> None:
        if pos in due and load(key, arcs, due[pos]) > level:
            return
        search(pos)

    # Without a budget the search recurses into itself and counts nothing.
    step = search if budget is None else pruned
    step(1)
    out.sort()
    return tuple(out)
