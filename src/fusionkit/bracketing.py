"""Bracketings of an r-fold tensor product and the level budget they induce.

A bracketing is a full binary tree whose leaves are the factors 1..r in order,
written in the text grammar ``expr := digit | "(" expr expr ")"`` (so the left
comb for three factors is ``"((12)3)"``).  Each internal node is one tensor
operation; its scope is the interval of factors it combines.  At level ``l`` a
match passes the budget when, for every operation, the number of curves that
touch the operation's scope without being internal to an already-combined side
is at most ``l``.  Unmatched vertices always count: their curve leaves every
scope.

The closed-form stratum counts ``ra_count``/``rb_count`` (and the ``_c``
variants for diagrams with arcs joining the outer factors) count the
budget-passing matches of one stratum of three factors.  A match in such a
stratum is fixed by ``a``, its number of box1-box2 arcs, and ``b``, its number
of box2-box3 arcs, so each count is the length of an interval of ``a`` (or
``b``), clamped at zero.  The classical formulas bound that interval by the
level budget alone; the stratum's own feasibility bounds (no negative arc
counts, no box holding more arc ends than vertices) are added to the lower end,
so that no stratum is counted that cannot exist.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .diagrams import BoxConfig, LowerMatch, _as_weight, enumerate_cm


@dataclass(frozen=True)
class BracketTree:
    """A full binary tree over the leaf interval lo..hi (1-based, inclusive)."""

    lo: int
    hi: int
    children: tuple["BracketTree", "BracketTree"] | None = None

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"bad leaf interval {self.lo}..{self.hi}")
        if self.children is None:
            if self.lo != self.hi:
                raise ValueError("a leaf must cover a single index")
        else:
            left, right = self.children
            if left.lo != self.lo or right.hi != self.hi or left.hi + 1 != right.lo:
                raise ValueError(
                    f"children {left.lo}..{left.hi} and {right.lo}..{right.hi} "
                    f"do not tile {self.lo}..{self.hi}"
                )

    @classmethod
    def leaf(cls, index: int) -> "BracketTree":
        index = operator.index(index)
        return cls(index, index)

    @classmethod
    def join(cls, left: "BracketTree", right: "BracketTree") -> "BracketTree":
        return cls(left.lo, right.hi, (left, right))

    @classmethod
    def left_comb(cls, r: int) -> "BracketTree":
        """The default bracketing (...((1 2) 3)... r)."""
        r = operator.index(r)
        if r < 1:
            raise ValueError(f"need at least one leaf, got {r}")
        tree = cls.leaf(1)
        for i in range(2, r + 1):
            tree = cls.join(tree, cls.leaf(i))
        return tree

    @classmethod
    def right_comb(cls, r: int) -> "BracketTree":
        r = operator.index(r)
        if r < 1:
            raise ValueError(f"need at least one leaf, got {r}")
        tree = cls.leaf(r)
        for i in range(r - 1, 0, -1):
            tree = cls.join(cls.leaf(i), tree)
        return tree

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def num_leaves(self) -> int:
        return self.hi - self.lo + 1

    def scopes(self) -> tuple["NodeScope", ...]:
        """One scope record per internal node, in postorder."""
        out: list[NodeScope] = []

        def walk(node: BracketTree) -> None:
            if node.is_leaf:
                return
            left, right = node.children
            walk(left)
            walk(right)
            out.append(
                NodeScope(
                    a=(left.lo, left.hi),
                    b=(right.lo, right.hi),
                    s=(node.lo, node.hi),
                )
            )

        walk(self)
        return tuple(out)

    def __str__(self) -> str:
        if self.is_leaf:
            return str(self.lo)
        left, right = self.children
        return f"({left}{right})"


class NodeScope(NamedTuple):
    """Leaf intervals of one tensor operation: left side, right side, union."""

    a: tuple[int, int]
    b: tuple[int, int]
    s: tuple[int, int]


def parse_bracketing(text: str, r: int) -> BracketTree:
    """Parse ``text`` into a bracketing tree with leaves 1..r in order.

    Leaves are single digits (enumeration is capped at eight factors anyway);
    whitespace is ignored.
    """
    r = operator.index(r)
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expr() -> BracketTree:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ValueError("unexpected end of bracketing expression")
        ch = text[pos]
        if ch == "(":
            pos += 1
            left = expr()
            right = expr()
            skip_ws()
            if pos >= n or text[pos] != ")":
                raise ValueError(f"expected ')' at position {pos} in {text!r}")
            pos += 1
            return BracketTree.join(left, right)
        if ch.isdigit() and ch != "0":
            pos += 1
            return BracketTree.leaf(int(ch))
        raise ValueError(f"unexpected character {ch!r} at position {pos} in {text!r}")

    tree = expr()
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

    def build(lo: int, hi: int) -> list[BracketTree]:
        if lo == hi:
            return [BracketTree.leaf(lo)]
        out = []
        for k in range(lo, hi):
            for left in build(lo, k):
                for right in build(k + 1, hi):
                    out.append(BracketTree.join(left, right))
        return out

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


def satisfies_truncation(m: LowerMatch, level: int, tree: BracketTree) -> bool:
    """Whether ``m`` fits the level budget of every operation of ``tree``.

    The count at an operation with sides A, B and scope S = A u B is: arcs
    joining an A-box to a B-box, plus arcs with exactly one endpoint in an
    S-box, plus unmatched vertices in S-boxes.  The per-node formulation is
    equivalent to evaluating the operations in any order compatible with the
    tree.
    """
    level = _check_level(level)
    if tree.num_leaves != m.boxes.count or tree.lo != 1:
        raise ValueError(
            f"bracketing covers leaves {tree.lo}..{tree.hi} "
            f"but the match has {m.boxes.count} boxes"
        )
    boxes = m.boxes
    arc_boxes = [(boxes.box_of(p), boxes.box_of(q)) for p, q in m.arcs]
    free_boxes = [boxes.box_of(u) for u in m.unmatched()]
    for (alo, ahi), (blo, bhi), (slo, shi) in tree.scopes():
        count = 0
        for bp, bq in arc_boxes:
            p_in = slo <= bp <= shi
            q_in = slo <= bq <= shi
            if p_in and q_in:
                if bp <= ahi and bq >= blo:
                    count += 1
            elif p_in or q_in:
                count += 1
        count += sum(1 for b in free_boxes if slo <= b <= shi)
        if count > level:
            return False
    return True


def count_truncated(boxes, mu, level: int, tree: BracketTree | None = None) -> int:
    """Number of matches with ``mu`` unmatched vertices passing the budget."""
    boxes = BoxConfig.coerce(boxes)
    level = check_alcove(boxes.sizes, level)
    if tree is None:
        tree = BracketTree.left_comb(boxes.count)
    return sum(1 for m in enumerate_cm(boxes, mu) if satisfies_truncation(m, level, tree))


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
    """Mirror of :func:`ra_count` for the right comb on three factors.

    Runs over ``b``, the number of box2-box3 arcs: the classical terms are
    ``b <= min(w3, n)``, ``b >= w2 + w3 - level`` (budget at ``(23)``) and
    ``b >= w1 + w2 + w3 - n - level`` (budget at the root); feasibility adds
    ``b >= 0``, ``b >= n - w1`` (``a <= w1``) and ``n <= w2``.
    """
    w1, w2, w3 = (_as_weight(w) for w in (w1, w2, w3))
    level = _check_level(level)
    n = operator.index(n)
    if n > w2:
        return 0
    value = min(w3, n) - max(w2 + w3 - level, w1 + w2 + w3 - n - level, 0, n - w1) + 1
    return max(0, value)


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
    """Mirror of :func:`ra_count_c` for the right comb.

    Runs over ``b = w2 - a``: the classical terms are ``b <= min(w3 - c, w2)``,
    ``b >= w2 + w3 - level`` (budget at ``(23)``) and
    ``b >= w1 + w3 - level - c`` (budget at the root); feasibility adds
    ``b >= 0`` and ``b >= w2 - w1 + c`` (``a + c <= w1``).
    """
    w1, w2, w3 = (_as_weight(w) for w in (w1, w2, w3))
    level = _check_level(level)
    c = operator.index(c)
    if c < 1:
        raise ValueError(f"need at least one outer-joining arc, got c={c}")
    value = min(w3 - c, w2) - max(w2 + w3 - level, w1 + w3 - level - c, 0, w2 - w1 + c) + 1
    return max(0, value)
