"""Listing kernel for crossingless-match enumeration.

Two algorithms list the matches, and the input picks one: without a budget
the matches are built from memoized blocks, with one a pruned search walks
the boxes.

The blocks come from the graphical calculus's decomposition of a lower
match: it splits at its unmatched vertices and its outermost arcs, and an
outermost arc (i, k) encloses a perfect matching of i+1..k-1, because no
unmatched vertex may sit under an arc.  So the perfect matchings of each
interval and the matches of each suffix are listed once, and a match is a
concatenation of two such blocks: of arc tuples sharing one ``(i, k)`` object
per arc for :func:`enumerate_arc_sets`, or of arc texts for
:func:`arc_texts`, from which ``diagrams`` writes untruncated listings and
census labels.  Each list is built in canonical order, so nothing is sorted.

The search walks the boxes left to right, as ballot paths.  A lower match is
fixed by c_a, the number of arcs that close in each box a: the first c_a
vertices of the box close the c_a most recently opened vertices still open,
and the rest of the box opens (a vertex that closed after another of its box
opened would join the two, and no arc lies inside a box).  So at box a the
walk tries c = 0..min(w_a, open count), and the vertices still open at the end
are the unmatched ones: none lies under an arc, since arcs close onto the most
recent.  Every path is a valid match, and no walk dead-ends.  The search
keeps, per budgeted tensor operation, the count of curve ends its closed arcs
remove: closing (p, q) adds 2 to each operation that holds both ends in one
side and 1 to each that holds them across its sides, read from a table per
(box of p, box of q).  After the last box of a scope it counts |S| less that
number (see :func:`_load`), and drops the prefix when the count exceeds the
level.  Arcs closed later never join two vertices of such a scope, so the
count on the prefix is final, and the walk keeps exactly the matches that fit
every given scope.  A scope that ends at the last vertex is counted only when
a walk ends, so the search walks from the end that leaves fewer such scopes,
ties left to right.  From the right it walks the reversed sizes with mirrored
scopes, ``(slo, ahi, blo, shi) -> (r+1-shi, r+1-blo, r+1-ahi, r+1-slo)`` on r
boxes, and maps each arc back as it closes, ``(p, q) -> (w+1-q, w+1-p)`` on w
vertices; so a right comb prunes as the left comb does.  Suffix blocks could
only check scopes inside a closed suffix, and those of the default left comb
all start at box 1, so a budget keeps the search.  Given no scope, the search
lists every match by its paths, independently of the blocks: it is their test
oracle.

The paths come in no canonical order, so the search keys each match by the
bytes ``partner[1..w]``, the right end of the arc that starts at each vertex
or 0xFF, with the trailing 0xFF bytes stripped: byte order on these keys is
canonical order, and one sort of the keys orders the result.  A match itself
is joined from per-arc pieces indexed by left end, each made once per arc and
query: arc tuples for :func:`enumerate_arc_sets`, or arc texts for
:func:`arc_texts` with a budget, from which ``diagrams`` writes a searched
census's labels.

Only the untruncated listing of arc tuples is cached, per box tuple; no
budgeted query repeats, so a search is not, and neither are arc texts, which
serve one listing or census each.
Two caps refuse work before either algorithm starts: ``MAX_VERTICES`` bounds
the vertex line (the search's recursion is as deep as the box count), and
``MAX_MATCHES`` bounds the size of the result, counted beforehand by a
Clebsch-Gordan fold above 22 vertices (on fewer, no tuple can exceed it);
``(4,)*10``, just under it, is built in about 0.6 s as arc tuples and 0.3 s as
arc texts.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

# Below 0xFF, which the search's sort keys reserve for "no arc starts here".
MAX_VERTICES = 64
# The largest listing the benchmark makes has 38,165 matches; (4,)*10 has
# 856,945, and ``fusionkit matches`` writes them in about 1.4 s; (4,)*16 has
# 10,651,488,789 and would never finish.
MAX_MATCHES = 10**6


def _match_count(sizes: list[int]) -> int:
    """Number of irreducible summands of V_{w1} x ... x V_{wr}, with multiplicity.

    Each summand is labelled by exactly one lower crossingless match.
    """
    # Imported here: ring imports bracketing, which imports this module.
    from .ring import tensor_many

    return sum(c for _, c in tensor_many(sizes).items())


def layout(sizes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(box index of every vertex 1..total with entry 0 unused, prefix sums of sizes).

    The sizes are indexed before the cache lookup: ``(2.0, 1)`` is a key equal
    to ``(2, 1)``.
    """
    sizes = tuple(map(operator.index, sizes))
    if any(s < 0 for s in sizes):
        raise ValueError(f"box sizes must be nonnegative, got {list(sizes)}")
    return _layout(sizes)


@lru_cache(maxsize=None)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`layout` for callers that hold a tuple of nonnegative ints already."""
    box = [0]
    prefix = [0]
    for b, s in enumerate(sizes, start=1):
        box.extend([b] * s)
        prefix.append(prefix[-1] + s)
    return tuple(box), tuple(prefix)


def _load(sizes: tuple[int, ...], arcs, scopes) -> int:
    """The largest count of curves over ``scopes`` (0 for none), as in ``bracketing``.

    Each scope is ``(S lo, A hi, B lo, S hi)`` in box indices, for a tensor
    operation with sides A and B and scope S = A u B.  ``sizes`` must be a
    tuple of nonnegative ints: it keys the :func:`_layout` cache unchecked,
    since this runs once per arc set, so ``(2.0, 1)`` would read the entry of
    ``(2, 1)``.  Its callers, ``bracketing.budget_load`` and
    ``bracketing._budget_loads``, hold such tuples.
    """
    box, prefix = _layout(sizes)
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


def _checked(sizes) -> tuple[int, ...]:
    """``sizes`` as ints, refused unless integers, nonnegative and within both caps."""
    sizes = [operator.index(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError(f"box sizes must be nonnegative, got {sizes}")
    n = sum(sizes)
    if n > MAX_VERTICES:
        raise ValueError(f"enumeration supports at most {MAX_VERTICES} vertices, got {n}")
    # comb(n, n // 2) counts the matches on n boxes of 1, which bound those
    # of every tuple on n vertices, so the fold runs only above 22 vertices.
    if math.comb(n, n // 2) <= MAX_MATCHES:
        return tuple(sizes)
    count = _match_count(sizes)
    if count > MAX_MATCHES:
        raise ValueError(f"enumeration supports at most {MAX_MATCHES} matches, got {count}")
    return tuple(sizes)


@lru_cache(maxsize=None)
def _listing(sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every arc set on ``sizes`` from blocks; the caps are checked on a miss only."""
    box_of, prefix = _layout(_checked(sizes))
    return tuple(_blocks(prefix[-1], box_of, lambda a, b: ((a, b),)))


def arc_texts(sizes, arc_text, budget=None) -> list[str]:
    """The text of every match on ``sizes``, in canonical order, uncached.

    ``arc_text(p, q)`` is the text of the arc (p, q), separator first, such
    as ``f",{p}-{q}"``; a match's text is its arcs' texts in order, so it is
    ``""`` for the empty match and starts with the separator otherwise.  The
    caps are checked first, and ``budget`` keeps the matches that fit it, as
    for :func:`enumerate_arc_sets`.
    """
    key = _checked(sizes)
    if budget is None:
        box_of, prefix = _layout(key)
        return _blocks(prefix[-1], box_of, arc_text)
    return _search(key, budget, arc_text, "".join)


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
    from blocks and cached (:func:`_listing`); with one, the search finds it,
    walking from either end.
    """
    if budget is None:
        # Indexed before the lookup: (2.0, 1) is a key equal to (2, 1).
        return _listing(tuple(map(operator.index, sizes)))
    # A piece is the arc itself, one ``(p, q)`` object per arc that every
    # match holding it shares; no arc starts where the piece is ``()``.
    found = _search(
        _checked(sizes), budget, lambda p, q: (p, q), lambda pieces: tuple(filter(None, pieces))
    )
    return tuple(found)


def _search(key: tuple[int, ...], budget, unit, join) -> list:
    """The matches on ``key`` that fit ``budget``, in canonical order, each ``join(pieces)``.

    The walk goes box by box, and every path it completes is one match: at box
    a it closes c = 0..min(w_a, open) vertices and opens the rest, so the
    recursion is as deep as the box count.  ``key`` is a checked size tuple
    and ``budget`` is as for :func:`enumerate_arc_sets`.  The walk runs from
    the end that leaves fewer scopes ending at its last vertex; from the
    right, it maps each arc it closes, (p, q) -> (w+1-q, w+1-p), as it closes.

    While a walk holds the arc (p, q) of the original numbering, ``pieces[p]``
    is ``unit(p, q)``, made once per arc and query, and ``partner[p]`` is q;
    where no arc starts they hold ``unit(0, 0)[:0]`` and 0xFF.  So
    ``join(pieces)`` reads a match's arcs by left end, which is canonical, and
    the match is keyed by ``partner`` less its trailing 0xFF bytes.  Byte
    order on these keys is canonical order: at the first vertex where two keys
    differ, either one match starts an arc there and the other none, and the
    arc's end is below 0xFF, or both start one and their ends decide; and a
    match whose arcs begin another's has a key that begins the other's.  So
    one sort of the keys puts the matches in order, with no sort per match;
    this needs every vertex below 0xFF (``MAX_VERTICES``).
    """
    level, scopes = budget
    box_of, prefix = _layout(key)
    w = prefix[-1]
    r = len(key)
    # A walk checks a scope on passing its last vertex, so one that ends at
    # the walk's last vertex prunes nothing: walk from the end with fewer.
    mirrored = sum(prefix[slo - 1] == 0 for slo, _, _, _ in scopes) < sum(
        prefix[shi] == w for _, _, _, shi in scopes
    )
    if mirrored:
        key = key[::-1]
        scopes = [
            (r + 1 - shi, r + 1 - blo, r + 1 - ahi, r + 1 - slo) for slo, ahi, blo, shi in scopes
        ]
        box_of, prefix = _layout(key)
    # The scopes to count after each box, those ending there, as (scope index, |S|).
    due: list[list[tuple[int, int]]] = [[] for _ in range(r + 1)]
    for i, (slo, _, _, shi) in enumerate(scopes):
        due[shi].append((i, prefix[shi] - prefix[slo - 1]))
    # bumps[bq][bp] lists (scope index, ends removed) for every scope holding
    # both ends of an arc from box bp to box bq: 2 inside A or inside B, 1 across.
    bumps = [[()] * (r + 1) for _ in range(r + 1)]
    for bp, bq in itertools.combinations([b for b in range(1, r + 1) if key[b - 1]], 2):
        bumps[bq][bp] = tuple(
            (i, 2 if bq <= ahi or bp >= blo else 1)
            for i, (slo, ahi, blo, shi) in enumerate(scopes)
            if slo <= bp and bq <= shi
        )
    inner = [0] * len(scopes)

    # arcs[q][p] is (left end, right end, unit) of the arc the walk closes from
    # p to q, in the original numbering: made on its first close.
    arcs: list[list] = [[None] * q for q in range(w + 1)]
    nothing = unit(0, 0)[:0]
    pieces = [nothing] * (w + 1)
    partner = bytearray(b"\xff") * (w + 1)
    found: list = []
    keys: list = []
    stack: list[int] = []  # the open vertices, most recent last
    closed: list[int] = []  # the vertices closed onto, in closing order

    def walk(a: int) -> None:
        if a > r:
            keys.append(partner.rstrip(b"\xff"))
            found.append(join(pieces))
            return
        into, due_here = bumps[a], due[a]
        start = q = prefix[a - 1]
        end = prefix[a]
        while True:
            # Vertices start+1..q have closed; the rest of the box opens.
            stack.extend(range(q + 1, end + 1))
            for i, size in due_here:
                if size - inner[i] > level:
                    break
            else:
                walk(a + 1)
            del stack[len(stack) - (end - q) :]
            if q == end or not stack:
                break
            q += 1
            p = stack.pop()
            closed.append(p)
            arc = arcs[q][p]
            if arc is None:
                lo, hi = (w + 1 - q, w + 1 - p) if mirrored else (p, q)
                arc = arcs[q][p] = (lo, hi, unit(lo, hi))
            lo, hi, piece = arc
            partner[lo] = hi
            pieces[lo] = piece
            for i, ends in into[box_of[p]]:
                inner[i] += ends
        for q in range(q, start, -1):
            p = closed.pop()
            stack.append(p)
            lo = arcs[q][p][0]
            partner[lo] = 0xFF
            pieces[lo] = nothing
            for i, ends in into[box_of[p]]:
                inner[i] -= ends

    walk(1)
    # ``walk`` refers to itself through its closure, so the cycle would keep
    # ``found`` and every piece the walk made alive until the next cyclic
    # collection; unbinding it frees them once the caller drops the result.
    del walk
    return [found[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def _blocks(w: int, box_of: tuple[int, ...], unit) -> list:
    """Every match on vertices 1..w, in canonical order, from memoized blocks.

    A match is a sequence whose ``+`` concatenates: ``unit(a, b)`` is the
    one-arc match (a, b) and ``unit(0, 0)[:0]`` the empty one, so arc tuples
    and arc texts come from this one recurrence.  ``unit`` is called once per
    arc, and every match that holds the arc shares its value.

    ``closed[a, k]`` lists the perfect matchings of a..k that join a to k,
    ``perfect[a, b]`` all perfect matchings of a..b (only the one empty
    matching if a > b), and ``suffix[i]`` the matches of i..w.  A list
    starting at a holds first its matchings whose first arc is (a, k), k
    ascending, each of those a fixed-length block followed by a canonical
    tail; in ``suffix[i]`` the empty match precedes them and the matches that
    leave i unmatched follow.  So every list is canonical as it is built.
    """
    nothing = unit(0, 0)[:0]
    empty = [nothing]
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
                arc = unit(a, b)
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
        found = [nothing]
        for k in range(i + 1, w + 1, 2):
            if (i, k) in closed:
                rest = suffix[k + 1]
                found.extend(h + s for h in closed[i, k] for s in rest)
        found.extend(itertools.islice(suffix[i + 1], 1, None))
        suffix[i] = found
    return suffix[1]
