"""Listing kernel for crossingless-match enumeration.

Two algorithms list the matches, and the input picks one: without a budget
the matches are built from memoized blocks, with one a pruned search walks
the vertex line.

The blocks come from the graphical calculus's decomposition of a lower
match: it splits at its unmatched vertices and its outermost arcs, and an
outermost arc (i, k) encloses a perfect matching of i+1..k-1, because no
unmatched vertex may sit under an arc.  So the perfect matchings of each
interval and the matches of each suffix are listed once, as sorted arc
tuples, and a match is a concatenation of such tuples sharing one ``(i, k)``
object per arc.  Each list is built in canonical order, so nothing is sorted.

The search walks the vertex line left to right keeping a stack of open arcs.
Three moves are possible at each vertex: leave it unmatched (only when no arc
is open, since an unmatched vertex may not sit inside an arc), close the
innermost open arc (only onto a different box), or open a new arc.  Every
complete walk with an empty stack is a valid lower crossingless match.  As it
passes the last vertex of a box, it counts the curves of every budgeted
tensor operation whose scope ends in that box (see :func:`load`), and drops
the prefix when a count exceeds the level.  Arcs opened later never join two
vertices of such a scope, so the count on the prefix is final.  Suffix blocks
could only check scopes inside a closed suffix, and those of the default left
comb all start at box 1, so a budget keeps the search.  Given no scope, the
search lists every match: it is the blocks' test oracle.

Results are cached: enumeration is pure and canonical.  Two caps refuse work
before either algorithm starts: ``MAX_VERTICES`` bounds the search's
recursion depth, and ``MAX_MATCHES`` bounds the size of the result, counted
beforehand by a Clebsch-Gordan fold; ``(4,)*10``, just under it, lists in
about 10 s.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

MAX_VERTICES = 64
# The largest listing the benchmark makes has 38,165 matches; (4,)*10 has
# 856,945 and lists in about 10 s; (4,)*16 has 10,651,488,789 and would never
# finish.
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
    apply to the full result either way.  Without a budget the list is built
    from blocks (:func:`_blocks`); with one, the search finds it.
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
    if budget is None:
        return _blocks(w, box_of)
    # The scopes to count on reaching each vertex: those whose last vertex precedes it.
    level, scopes = budget
    due: dict[int, list[tuple[int, int, int, int]]] = {}
    for scope in scopes:
        due.setdefault(prefix[scope[3]] + 1, []).append(scope)

    out: list[tuple[tuple[int, int], ...]] = []
    stack: list[int] = []
    arcs: list[tuple[int, int]] = []

    def search(pos: int) -> None:
        if pos in due and load(key, arcs, due[pos]) > level:
            return
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


def _blocks(w: int, box_of: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every match on vertices 1..w, in canonical order, from memoized blocks.

    ``closed[a, k]`` lists the perfect matchings of a..k that join a to k,
    ``perfect[a, b]`` all perfect matchings of a..b (only the one empty
    matching if a > b), and ``suffix[i]`` the matches of i..w.  A list
    starting at a holds first its matchings whose first arc is (a, k), k
    ascending, each of those a fixed-length block followed by a canonical
    tail; in ``suffix[i]`` the empty match precedes them and the matches that
    leave i unmatched follow.  So every list is canonical as it is built.
    """
    empty = [()]
    closed: dict[tuple[int, int], list] = {}
    perfect: dict[tuple[int, int], list] = {}

    def inner(a: int, b: int) -> list:
        return perfect[a, b] if a <= b else empty

    # Intervals by length: a block needs the shorter interval it encloses, and
    # a perfect matching its first block and the shorter rest.  Only intervals
    # inside 2..w-1 can lie under an arc or follow a block under one.
    for length in range(2, w + 1, 2):
        for a in range(1, w - length + 2):
            b = a + length - 1
            if box_of[a] != box_of[b]:
                arc = ((a, b),)
                closed[a, b] = [arc + p for p in inner(a + 1, b - 1)]
            if 2 <= a and b < w:
                perfect[a, b] = [
                    h + s
                    for k in range(a + 1, b + 1, 2)
                    if (a, k) in closed
                    for h in closed[a, k]
                    for s in inner(k + 1, b)
                ]

    suffix = [empty] * (w + 2)
    for i in range(w, 0, -1):
        found = [()]
        for k in range(i + 1, w + 1, 2):
            if (i, k) in closed:
                rest = suffix[k + 1]
                found.extend(h + s for h in closed[i, k] for s in rest)
        found.extend(itertools.islice(suffix[i + 1], 1, None))
        suffix[i] = found
    return tuple(suffix[1])
