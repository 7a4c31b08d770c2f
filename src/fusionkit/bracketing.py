"""Bracketings of an r-fold tensor product and the level budget they induce.

A bracketing is a full binary tree whose leaves are the factors 1..r in order,
written in the text grammar ``expr := digit | "(" expr expr ")"`` (so the left
comb for three factors is ``"((12)3)"``).  Each internal node is one tensor
operation; its scope is the interval of factors it combines.  At level ``l`` a
match passes the budget when, for every operation, the number of curves that
touch the operation's scope without being internal to an already-combined side
is at most ``l``.  Unmatched vertices always count: their curve leaves every
scope.  The largest of these numbers is the match's budget load, so the match
passes at every level from its load up; ``budget_loads`` computes the loads of
all matches of a box tuple once per tree.

The closed-form stratum counts ``ra_count``/``rb_count`` (and the ``_c``
variants for diagrams with arcs joining the outer factors) count the
budget-passing matches of one stratum of three factors.  A match in such a
stratum is fixed by ``a``, its number of box1-box2 arcs, and ``b``, its number
of box2-box3 arcs, so each left-comb count is the length of an interval of
``a``, clamped at zero.  The classical formulas bound that interval by the
level budget alone; the stratum's own feasibility bounds (no negative arc
counts, no box holding more arc ends than vertices) are added to the lower end,
so that no stratum is counted that cannot exist.  The right-comb counts are the
left-comb ones on the reversed factors.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

from . import kernels
from .diagrams import BoxConfig, LowerMatch, _as_weight


@dataclass(frozen=True)
class BracketTree:
    """A full binary tree over the leaf interval lo..hi (1-based, inclusive).

    The tree is stored as its operations alone: ``scopes`` holds
    ``(S lo, A hi, B lo, S hi)`` per internal node, in postorder, and with
    ``lo`` and ``hi`` determines the tree.  ``children``, the (left, right)
    pair of an internal node, is read at construction and not kept.
    """

    lo: int
    hi: int
    children: InitVar[tuple["BracketTree", "BracketTree"] | None] = None
    scopes: tuple[tuple[int, int, int, int], ...] = field(init=False)

    def __post_init__(self, children):
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"bad leaf interval {self.lo}..{self.hi}")
        if children is None:
            if self.lo != self.hi:
                raise ValueError("a leaf must cover a single index")
            scopes = ()
        else:
            left, right = children
            if left.lo != self.lo or right.hi != self.hi or left.hi + 1 != right.lo:
                raise ValueError(
                    f"children {left.lo}..{left.hi} and {right.lo}..{right.hi} "
                    f"do not tile {self.lo}..{self.hi}"
                )
            scopes = left.scopes + right.scopes + ((self.lo, left.hi, right.lo, self.hi),)
        object.__setattr__(self, "scopes", scopes)

    @classmethod
    def leaf(cls, index: int) -> "BracketTree":
        index = operator.index(index)
        return cls(index, index)

    @classmethod
    def join(cls, left: "BracketTree", right: "BracketTree") -> "BracketTree":
        return cls(left.lo, right.hi, (left, right))

    @classmethod
    def _from_scopes(cls, lo: int, hi: int, scopes) -> "BracketTree":
        """Wrap the postorder scopes of a tree on lo..hi, which the caller has written right."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "lo", lo)
        object.__setattr__(tree, "hi", hi)
        object.__setattr__(tree, "scopes", tuple(scopes))
        return tree

    @classmethod
    def left_comb(cls, r: int) -> "BracketTree":
        """The default bracketing (...((1 2) 3)... r), one shared instance per leaf count."""
        r = operator.index(r)
        if r < 1:
            raise ValueError(f"need at least one leaf, got {r}")
        return _left_comb(r)

    @classmethod
    def right_comb(cls, r: int) -> "BracketTree":
        """The bracketing (1 (2 (... (r-1 r)...))), its scopes written in one pass."""
        r = operator.index(r)
        if r < 1:
            raise ValueError(f"need at least one leaf, got {r}")
        return cls._from_scopes(1, r, ((i, i, i + 1, r) for i in range(r - 1, 0, -1)))

    @property
    def num_leaves(self) -> int:
        return self.hi - self.lo + 1

    def fold(self, leaf, join):
        """``leaf(i)`` for each leaf i in order, combined by ``join(a, b)`` at each operation.

        The operations are taken in postorder without recursion: each value
        waits in a dict keyed by its leaf interval until its operation pops it.
        """
        done = {(i, i): leaf(i) for i in range(self.lo, self.hi + 1)}
        for slo, ahi, blo, shi in self.scopes:
            done[slo, shi] = join(done.pop((slo, ahi)), done.pop((blo, shi)))
        return done[self.lo, self.hi]

    def __str__(self) -> str:
        return self.fold(str, "({}{})".format)


@lru_cache(maxsize=None)
def _left_comb(r: int) -> BracketTree:
    # Written in one pass: joining leaf by leaf would copy the scopes r times.
    return BracketTree._from_scopes(1, r, ((1, i - 1, i, i) for i in range(2, r + 1)))


def parse_bracketing(text: str, r: int) -> BracketTree:
    """Parse ``text`` into a bracketing tree with leaves 1..r in order.

    Leaves are single ASCII digits 1-9 (enumeration stops at eight factors
    anyway), so no valid text nests deeper than 8 and a deeper one is refused
    at its 9th open bracket; whitespace is ignored.
    """
    r = operator.index(r)
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expr(depth: int) -> BracketTree:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ValueError("unexpected end of bracketing expression")
        ch = text[pos]
        if ch == "(":
            if depth == 8:
                raise ValueError(f"brackets nest deeper than 8 at position {pos}")
            pos += 1
            left = expr(depth + 1)
            right = expr(depth + 1)
            skip_ws()
            if pos >= n or text[pos] != ")":
                raise ValueError(f"expected ')' at position {pos} in {text!r}")
            pos += 1
            return BracketTree.join(left, right)
        if "1" <= ch <= "9":
            pos += 1
            return BracketTree.leaf(int(ch))
        raise ValueError(f"unexpected character {ch!r} at position {pos} in {text!r}")

    tree = expr(0)
    skip_ws()
    if pos != n:
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    if tree.lo != 1 or tree.hi != r:
        raise ValueError(f"bracketing must cover leaves 1..{r}, got {tree.lo}..{tree.hi}")
    return tree


def enumerate_trees(r: int) -> list[BracketTree]:
    """All full binary trees on r ordered leaves (Catalan(r-1) of them)."""
    r = operator.index(r)
    if not 1 <= r <= 8:
        raise ValueError(f"tree enumeration supports 1..8 leaves, got {r}")

    # Trees are immutable, so each interval's subtrees are built once and shared.
    built: dict[tuple[int, int], list[BracketTree]] = {}

    def build(lo: int, hi: int) -> list[BracketTree]:
        if lo == hi:
            return [BracketTree.leaf(lo)]
        if (lo, hi) not in built:
            built[lo, hi] = [
                BracketTree.join(left, right)
                for k in range(lo, hi)
                for left in build(lo, k)
                for right in build(k + 1, hi)
            ]
        return built[lo, hi]

    return build(1, r)


def _check_level(level) -> int:
    level = operator.index(level)
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    return level


def check_alcove(sizes, level) -> int:
    """The level, checked positive and at least every box size (highest weight)."""
    level = _check_level(level)
    for w in sizes:
        if w > level:
            raise ValueError(f"highest weight {w} lies outside the level alcove 0..{level}")
    return level


def _check_tree(tree: BracketTree, count: int) -> None:
    if tree.num_leaves != count or tree.lo != 1:
        raise ValueError(
            f"bracketing covers leaves {tree.lo}..{tree.hi} but there are {count} factors"
        )


def resolve_tree(tree: BracketTree | None, count: int) -> BracketTree:
    """``tree`` checked to cover boxes 1..count; the shared left comb when it is None."""
    if tree is None:
        return BracketTree.left_comb(count)
    if not isinstance(tree, BracketTree):
        raise TypeError(f"expected a BracketTree or None, got {tree!r}")
    _check_tree(tree, count)
    return tree


def budget_load(m: LowerMatch, tree: BracketTree) -> int:
    """The largest per-operation count of ``m`` over the operations of ``tree``.

    The count at an operation with sides A, B and scope S = A u B is: arcs
    joining an A-box to a B-box, plus arcs with exactly one endpoint in an
    S-box, plus unmatched vertices in S-boxes.  A one-leaf tree has no
    operation and load 0.
    """
    _check_tree(tree, m.boxes.count)
    return kernels._load(m.boxes.sizes, m.arcs, tree.scopes)


def budget_loads(sizes, tree: BracketTree) -> tuple[int, ...]:
    """The budget load of every arc set of ``kernels.enumerate_arc_sets(sizes)``, in order.

    The sizes are indexed before the cache lookup: ``(2.0, 1)`` is a key equal
    to ``(2, 1)``.
    """
    return _budget_loads(tuple(map(operator.index, sizes)), tree)


@lru_cache(maxsize=None)
def _budget_loads(sizes: tuple[int, ...], tree: BracketTree) -> tuple[int, ...]:
    """:func:`budget_loads` for callers that hold a tuple of ints already."""
    _check_tree(tree, len(sizes))
    scopes = tree.scopes
    return tuple(kernels._load(sizes, arcs, scopes) for arcs in kernels.enumerate_arc_sets(sizes))


def search_budget(sizes: tuple[int, ...], level: int, tree: BracketTree):
    """The budget ``kernels.enumerate_arc_sets`` prunes with, or None to list every match.

    It is ``(level, scopes)``, holding every operation of ``tree`` that spans
    more than ``level`` vertices, the root among them: the others fit any
    match.  So the search returns exactly the matches that pass.  It is None
    when every such operation covers the whole vertex line, since those are
    checked only when a walk ends, from either end; then the block listing and
    :func:`satisfies_truncation` are faster.
    """
    _, prefix = kernels.layout(sizes)
    scopes = tuple(s for s in tree.scopes if prefix[s[3]] - prefix[s[0] - 1] > level)
    if all(prefix[shi] - prefix[slo - 1] == prefix[-1] for slo, _, _, shi in scopes):
        return None
    return level, scopes


def satisfies_truncation(m: LowerMatch, level: int, tree: BracketTree) -> bool:
    """Whether ``m`` fits the level budget of every operation of ``tree``.

    That is, whether its :func:`budget_load` is at most ``level``.  The
    per-node formulation is equivalent to evaluating the operations in any
    order compatible with the tree.
    """
    level = _check_level(level)
    return budget_load(m, tree) <= level


def _plan(boxes, level, tree, *, optional_level=False, routed=True):
    """A query for the matches on ``boxes`` that fit ``level`` under ``tree``, checked and routed.

    Returns ``(boxes, level, tree, budget, filtered)``.  Every query is
    checked in one order: the boxes are coerced to a :class:`BoxConfig`, the
    level is checked against their alcove (None passes with
    ``optional_level``, for the untruncated census), and the tree is resolved
    (the left comb for None).  A routed query then takes one of three routes:

    - searched: :func:`search_budget` gives ``budget``, and the pruned search
      lists exactly the passing matches;
    - filtered: only operations covering every vertex bind, so ``budget`` is
      None and ``filtered`` is true: every match is listed and scored by
      :func:`satisfies_truncation`;
    - every match: there is no level, or it is at least the vertex count,
      which no operation's count exceeds; ``budget`` is None.

    ``count_truncated`` and ``build_basis`` read the cached loads of every
    match (:func:`_passing_arc_sets`) instead, so they are not routed and get
    ``None, False``.
    """
    boxes = BoxConfig.coerce(boxes)
    if level is not None or not optional_level:
        level = check_alcove(boxes.sizes, level)
    tree = resolve_tree(tree, boxes.count)
    if not routed or level is None or level >= boxes.total:
        return boxes, level, tree, None, False
    budget = search_budget(boxes.sizes, level, tree)
    return boxes, level, tree, budget, budget is None


def _passing_arc_sets(sizes: tuple[int, ...], level: int, tree: BracketTree):
    """The arc sets of ``kernels.enumerate_arc_sets(sizes)`` loaded at most ``level``, in order."""
    loads = _budget_loads(sizes, tree)
    return (arcs for arcs, load in zip(kernels.enumerate_arc_sets(sizes), loads) if load <= level)


def count_truncated(boxes, level: int, tree: BracketTree | None = None) -> dict[int, int]:
    """``{mu: count}`` of the budget-passing matches by unmatched vertices mu, ascending, no zeros."""
    boxes, level, tree, _, _ = _plan(boxes, level, tree, routed=False)
    total = boxes.total
    counts = Counter(total - 2 * len(arcs) for arcs in _passing_arc_sets(boxes.sizes, level, tree))
    return dict(sorted(counts.items()))


def ra_count(w1, w2, w3, level, n) -> int:
    """Closed-form stratum count for the left comb on three factors.

    Counts matches with no arcs joining the outer factors and ``n`` lower
    arcs, ``a`` of them joining box 1 to box 2 and ``b = n - a`` joining box 2
    to box 3.  The budget at ``(12)`` gives ``a >= w1 + w2 - level`` and the
    one at the root gives ``a >= w1 + w2 + w3 - n - level``; together with
    ``a <= min(w1, n)`` these are the classical terms.  Feasibility adds
    ``a >= 0``, ``a >= n - w3`` (``b <= w3``) and ``n <= w2``.  The interval
    length is clamped at zero.
    """
    w1, w2, w3 = (_as_weight(w) for w in (w1, w2, w3))
    level = _check_level(level)
    n = operator.index(n)
    if n > w2:
        return 0
    value = min(w1, n) - max(w1 + w2 - level, w1 + w2 + w3 - n - level, 0, n - w3) + 1
    return max(0, value)


def rb_count(w1, w2, w3, level, n) -> int:
    """Closed-form stratum count for the right comb on three factors.

    Reversing the factors maps the right comb to the left comb and keeps the
    stratum (``n`` lower arcs, none joining the outer factors), so this is
    :func:`ra_count` on ``(w3, w2, w1)``.
    """
    return ra_count(w3, w2, w1, level, n)


def ra_count_c(w1, w2, w3, level, c) -> int:
    """Left-comb stratum count for diagrams with ``c >= 1`` outer-joining arcs.

    Box 2 lies under the ``c`` arcs joining box 1 to box 3, so all of its
    vertices are matched: ``a`` arcs to box 1 and ``b = w2 - a`` to box 3.
    The classical terms are ``a <= min(w1 - c, w2)``, ``a >= w1 + w2 - level``
    (budget at ``(12)``) and ``a >= w1 + w3 - level - c`` (budget at the
    root); feasibility adds ``a >= 0`` and ``a >= w2 - w3 + c``
    (``b + c <= w3``).  The interval length is clamped at zero.
    """
    w1, w2, w3 = (_as_weight(w) for w in (w1, w2, w3))
    level = _check_level(level)
    c = operator.index(c)
    if c < 1:
        raise ValueError(f"need at least one outer-joining arc, got c={c}")
    value = min(w1 - c, w2) - max(w1 + w2 - level, w1 + w3 - level - c, 0, w2 - w3 + c) + 1
    return max(0, value)


def rb_count_c(w1, w2, w3, level, c) -> int:
    """Right-comb stratum count for diagrams with ``c >= 1`` outer-joining arcs.

    Reversing the factors maps the right comb to the left comb and keeps the
    ``c`` arcs joining the outer factors, so this is :func:`ra_count_c` on
    ``(w3, w2, w1)``.
    """
    return ra_count_c(w3, w2, w1, level, c)
