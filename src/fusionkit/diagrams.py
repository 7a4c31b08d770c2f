"""Crossingless-match diagrams on a line of marked boxes.

A tensor factor of highest weight ``w`` is drawn as a box with ``w`` vertices;
the boxes sit left to right on a line and their vertices are numbered 1..w
globally.  A diagram is stored through its *lower* data only: the box sizes
plus the set of lower arcs.  Every unmatched vertex implicitly continues to an
upper boundary, which forces the two structural rules enforced here beyond
planarity: no arc joins a box to itself, and no unmatched vertex sits strictly
inside an arc (its upward curve would have to cross it).

Validity is an invariant of :class:`LowerMatch`: arcs that enter from outside
(the constructor, ``dataclasses.replace``, JSON, canonical keys) are checked
by :func:`validate` once, and the enumerators wrap the kernel's arc sets,
valid by construction, without checking them again.

The number of unmatched vertices of a match ``m`` is written ``m.mu``; it is
the highest weight of the irreducible summand the match labels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import kernels


def _as_weight(value, what: str = "highest weight") -> int:
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value}")
    return value


@dataclass(frozen=True)
class BoxConfig:
    """An ordered list of box sizes (w1, ..., wr); boxes of size 0 are allowed.

    At most ``kernels.MAX_VERTICES`` vertices in all: no match on more can be
    enumerated, and refusing them here keeps a huge size from ever reaching a
    vertex table or a drawing.
    """

    sizes: tuple[int, ...]
    # (box of each vertex, prefix sums of sizes), shared with the kernel.
    _layout: tuple[tuple[int, ...], tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(_as_weight(s, "box size") for s in self.sizes)
        if not sizes:
            raise ValueError("a box configuration needs at least one box")
        if sum(sizes) > kernels.MAX_VERTICES:
            raise ValueError(
                f"a box configuration holds at most {kernels.MAX_VERTICES} vertices, "
                f"got {sum(sizes)}"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_layout", kernels._layout(sizes))

    @classmethod
    def coerce(cls, value) -> "BoxConfig":
        if isinstance(value, cls):
            return value
        return cls(tuple(value))

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return self._layout[1][-1]

    def box_of(self, vertex: int) -> int:
        """1-based index of the box containing the given 1-based vertex."""
        if not 1 <= vertex <= self.total:
            raise ValueError(f"vertex {vertex} out of range 1..{self.total}")
        return self._layout[0][vertex]

    def vertices_of(self, box: int) -> range:
        if not 1 <= box <= self.count:
            raise ValueError(f"box {box} out of range 1..{self.count}")
        prefix = self._layout[1]
        return range(prefix[box - 1] + 1, prefix[box] + 1)


def _normalize_arcs(arcs) -> tuple[tuple[int, int], ...]:
    pairs = []
    for arc in arcs:
        p, q = arc
        p = operator.index(p)
        q = operator.index(q)
        if p > q:
            p, q = q, p
        pairs.append((p, q))
    pairs.sort()
    return tuple(pairs)


@dataclass(frozen=True)
class LowerMatch:
    """Box sizes plus a set of lower arcs, stored sorted by left endpoint.

    Every instance is valid: construction normalizes the arcs and raises
    ``ValueError`` unless :func:`validate` accepts them.
    """

    boxes: BoxConfig
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "boxes", BoxConfig.coerce(self.boxes))
        object.__setattr__(self, "arcs", _normalize_arcs(self.arcs))
        if not validate(self.boxes, self.arcs):
            raise ValueError(f"invalid lower match: boxes={self.boxes.sizes} arcs={self.arcs}")

    @classmethod
    def _from_kernel(cls, boxes: BoxConfig, arcs: tuple[tuple[int, int], ...]) -> "LowerMatch":
        """Wrap an arc set of ``kernels.enumerate_arc_sets``, which is sorted and valid."""
        m = object.__new__(cls)
        object.__setattr__(m, "boxes", boxes)
        object.__setattr__(m, "arcs", arcs)
        return m

    @property
    def mu(self) -> int:
        """Number of unmatched vertices (= highest weight of the labelled summand)."""
        return self.boxes._layout[1][-1] - 2 * len(self.arcs)

    def matched_vertices(self) -> frozenset[int]:
        return frozenset(v for arc in self.arcs for v in arc)

    def unmatched(self) -> tuple[int, ...]:
        used = self.matched_vertices()
        return tuple(v for v in range(1, self.boxes.total + 1) if v not in used)

    def to_json_dict(self) -> dict:
        """``boxes`` and ``arcs`` are the match's own tuples, which ``json`` writes as arrays."""
        return {"boxes": self.boxes.sizes, "arcs": self.arcs, "mu": self.mu}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LowerMatch":
        """Inverse of :meth:`to_json_dict`; ``boxes`` and ``arcs`` may be lists or tuples."""
        m = cls(BoxConfig(tuple(obj["boxes"])), tuple((p, q) for p, q in obj["arcs"]))
        if obj["mu"] != m.mu:
            raise ValueError(f"mu {obj['mu']} disagrees with the {m.mu} unmatched vertices")
        return m


@dataclass(frozen=True)
class OrientedLowerMatch:
    """A lower match whose ``downs`` rightmost unmatched vertices point down.

    Lower arcs always carry the fixed leftward orientation and the down
    vertices must be the rightmost unmatched ones, so a single count is the
    whole orientation datum.
    """

    base: LowerMatch
    downs: int

    def __post_init__(self):
        downs = operator.index(self.downs)
        if not 0 <= downs <= self.base.mu:
            raise ValueError(f"downs must lie in 0..{self.base.mu}, got {downs}")
        object.__setattr__(self, "downs", downs)

    @classmethod
    def _unchecked(cls, base: LowerMatch, downs: int) -> "OrientedLowerMatch":
        """Wrap an int ``downs`` in 0..base.mu, which the caller has taken from that range."""
        o = object.__new__(cls)
        object.__setattr__(o, "base", base)
        object.__setattr__(o, "downs", downs)
        return o

    @property
    def weight(self) -> int:
        return self.base.mu - 2 * self.downs

    def up_vertices(self) -> tuple[int, ...]:
        free = self.base.unmatched()
        return free[: len(free) - self.downs]

    def down_vertices(self) -> tuple[int, ...]:
        free = self.base.unmatched()
        return free[len(free) - self.downs :]

    def to_json_dict(self) -> dict:
        out = self.base.to_json_dict()
        out["downs"] = self.downs
        out["weight"] = self.weight
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "OrientedLowerMatch":
        o = cls(LowerMatch.from_json_dict(obj), obj["downs"])
        if obj["weight"] != o.weight:
            raise ValueError(f"weight {obj['weight']} disagrees with mu - 2*downs = {o.weight}")
        return o


def validate(boxes, arcs) -> bool:
    """True iff ``arcs`` is a lower crossingless match on ``boxes``.

    ``arcs`` are pairs ``(p, q)`` with ``p < q``, in any order, using each
    vertex at most once.  A walk along the line then meets each vertex in a
    move of the kernel's search: open an arc, close the innermost open arc
    onto a different box, or leave the vertex unmatched with no arc open.
    """
    box_of, prefix = BoxConfig.coerce(boxes)._layout
    total = prefix[-1]
    partner: dict[int, int] = {}
    for p, q in arcs:
        if not 1 <= p < q <= total or p in partner or q in partner:
            return False
        partner[p], partner[q] = q, p
    stack: list[int] = []
    for v in range(1, total + 1):
        u = partner.get(v, v)  # v itself when unmatched
        if u > v:
            stack.append(v)
        elif u == v:
            if stack:
                return False
        elif not stack or stack.pop() != u or box_of[u] == box_of[v]:
            return False
    return True


def enumerate_lcm(boxes, budget=None) -> list[LowerMatch]:
    """All lower crossingless matches on ``boxes``, in canonical order.

    Canonical order is lexicographic on the sorted arc tuples, with the empty
    arc set first.  A ``budget`` from ``bracketing.search_budget`` keeps
    exactly the matches that fit the level at every operation it holds.  Only
    the untruncated arc sets are cached, in the kernel.
    """
    boxes = BoxConfig.coerce(boxes)
    arc_sets = kernels.enumerate_arc_sets(boxes.sizes, budget)
    return [LowerMatch._from_kernel(boxes, arcs) for arcs in arc_sets]


def enumerate_cm(boxes, mu) -> list[LowerMatch]:
    """The matches with exactly ``mu`` unmatched vertices, in canonical order."""
    mu = _as_weight(mu)
    boxes = BoxConfig.coerce(boxes)
    return [
        LowerMatch._from_kernel(boxes, arcs)
        for arcs in kernels.enumerate_arc_sets(boxes.sizes)
        if 2 * len(arcs) == boxes.total - mu
    ]


def orientations(m: LowerMatch) -> list[OrientedLowerMatch]:
    """All mu+1 orientations of a match, by ascending down count."""
    return [OrientedLowerMatch._unchecked(m, k) for k in range(m.mu + 1)]


@dataclass(frozen=True)
class ArcCensus:
    """Per-prefix and per-box arc statistics of a match.

    ``c[i-1]`` counts arcs with both endpoints among the first ``i`` boxes;
    ``b[i-1]`` counts left arc endpoints plus unmatched vertices in box ``i``;
    ``endpoints_by_box[i-1]`` lists the arc-endpoint vertices in box ``i``.
    """

    c: tuple[int, ...]
    b: tuple[int, ...]
    endpoints_by_box: tuple[tuple[int, ...], ...]


def arc_census(m: LowerMatch) -> ArcCensus:
    boxes = m.boxes
    r = boxes.count
    arc_boxes = [(boxes.box_of(p), boxes.box_of(q)) for p, q in m.arcs]
    c = tuple(sum(1 for _, bq in arc_boxes if bq <= i) for i in range(1, r + 1))
    unmatched = m.unmatched()
    free_set = set(unmatched)
    b = []
    endpoints = []
    for i in range(1, r + 1):
        lefts = sum(1 for bp, _ in arc_boxes if bp == i)
        free = sum(1 for u in unmatched if boxes.box_of(u) == i)
        b.append(lefts + free)
        endpoints.append(tuple(v for v in boxes.vertices_of(i) if v not in free_set))
    return ArcCensus(c=c, b=tuple(b), endpoints_by_box=tuple(endpoints))


def canonical_key(m: LowerMatch) -> str:
    """Injective text key: ``"w1,w2,...|p1-q1,p2-q2,..."``."""
    sizes = ",".join(str(s) for s in m.boxes.sizes)
    arcs = ",".join(f"{p}-{q}" for p, q in m.arcs)
    return f"{sizes}|{arcs}"


class _Memo(dict):
    """``memo[x]`` is ``fmt(x)``, formatted on the first lookup of ``x`` only."""

    __slots__ = ("_fmt",)

    def __init__(self, fmt):
        super().__init__()
        self._fmt = fmt

    def __missing__(self, key):
        text = self[key] = self._fmt(key)
        return text


class _Form(NamedTuple):
    """One listing format, spelled once for every writer below.

    A match's item is its head, its arcs joined by ``","`` and a tail; a
    listing joins the items by ``sep`` inside ``brackets``.  ``mark`` occurs
    exactly once in the text of an arc.
    """

    head: Callable[[tuple[int, ...]], str]
    arc: Callable[[int, int], str]
    mark: str
    tail: Callable[[int], str]
    oriented_tail: Callable[[int, int], str]
    sep: str
    brackets: tuple[str, str]
    empty: str

    def tails(self, mu: int, oriented: bool) -> list[str]:
        """The tails of a match's items: one, or with ``oriented`` one per down count."""
        if oriented:
            return [self.oriented_tail(mu, k) for k in range(mu + 1)]
        return [self.tail(mu)]

    def joined(self, items: list[str]) -> str:
        if not items:
            return self.empty
        # The brackets go on the end items: around the joined text they would copy it twice.
        items[0] = self.brackets[0] + items[0]
        items[-1] += self.brackets[1]
        return self.sep.join(items)


_FORMS = {
    "text": _Form(
        head=lambda sizes: ",".join(map(str, sizes)) + "|",
        arc=lambda p, q: f"{p}-{q}",
        mark="-",
        tail=lambda mu: f" mu={mu}",
        oriented_tail=lambda mu, k: f" downs={k} weight={mu - 2 * k}",
        sep="\n",
        brackets=("", ""),
        empty="(none)",
    ),
    "json": _Form(
        head=lambda sizes: '{"boxes":[' + ",".join(map(str, sizes)) + '],"arcs":[',
        arc=lambda p, q: f"[{p},{q}]",
        mark="[",
        tail=lambda mu: f'],"mu":{mu}}}',
        oriented_tail=lambda mu, k: f'],"mu":{mu},"downs":{k},"weight":{mu - 2 * k}}}',
        sep=",",
        brackets=("[", "]"),
        empty="[]",
    ),
}


# The listing writers of match lists format each distinct box tuple, arc and
# mu once per call and join those pieces per match: a listing holds tens of
# thousands of matches but at most w(w-1)/2 distinct arcs.  The memos live for
# one call, so nothing outlives it.  :func:`canonical_key` and ``to_json_dict``
# with ``json.dumps`` stay the single-match forms and the writers' test oracle.


def canonical_keys(matches) -> list[str]:
    """``[canonical_key(m) for m in matches]``."""
    form = _FORMS["text"]
    heads = _Memo(form.head)
    arc_text = _Memo(lambda arc: form.arc(*arc)).__getitem__
    return [heads[m.boxes.sizes] + ",".join(map(arc_text, m.arcs)) for m in matches]


def searched_keys(sizes: tuple[int, ...], budget) -> list[str]:
    """:func:`canonical_keys` of the matches ``kernels.enumerate_arc_sets(sizes, budget)`` lists.

    ``budget`` is a search budget, or None for every match.  Written from the
    kernel's arc texts (``kernels.arc_texts``), the search's or the blocks':
    each key is the head of ``sizes`` and the text of the match's arcs, so no
    match or arc tuple is built and no arc text is joined per match.
    """
    form = _FORMS["text"]
    head = form.head(sizes)
    texts = kernels.arc_texts(sizes, lambda p, q: "," + form.arc(p, q), budget)
    return [head + t[1:] for t in texts]


def listing(matches, fmt: str = "text", oriented: bool = False) -> str:
    """The ``fusionkit matches`` listing of ``matches`` in ``fmt``, ``"text"`` or ``"json"``.

    A text listing has a line per match, its :func:`canonical_key` and
    ``mu=``, or with ``oriented`` a line per orientation, with ``downs=`` and
    ``weight=``, and reads ``(none)`` when empty.  A JSON listing equals
    ``json.dumps([x.to_json_dict() for x in xs], separators=(",", ":"))``,
    where ``xs`` are the matches, or with ``oriented`` each match's
    :func:`orientations` in turn, which are not built.
    """
    form = _FORMS[fmt]
    heads = _Memo(form.head)
    arc_text = _Memo(lambda arc: form.arc(*arc)).__getitem__
    tails = _Memo(lambda mu: form.tails(mu, oriented))
    items: list[str] = []
    for m in matches:
        body = heads[m.boxes.sizes] + ",".join(map(arc_text, m.arcs))
        items.extend([body + tail for tail in tails[m.mu]])
    return form.joined(items)


def listing_json(matches, oriented: bool = False) -> str:
    """``listing(matches, "json", oriented)``, the compact JSON array of the matches."""
    return listing(matches, "json", oriented)


def untruncated_listing(boxes, fmt: str = "text", oriented: bool = False, mu=None) -> str:
    """``listing(enumerate_lcm(boxes), fmt, oriented)``, or of ``enumerate_cm(boxes, mu)``.

    Written from the kernel's block texts (``kernels.arc_texts``): each match
    arrives as the text of its arcs, each preceded by ``","``, so no
    :class:`LowerMatch` is built and no arc text is joined per match.  The
    count of ``mark`` in that text is the match's arc count, which picks its
    tails.  Nothing is cached.
    """
    form = _FORMS[fmt]
    boxes = BoxConfig.coerce(boxes)
    if mu is not None:
        mu = _as_weight(mu)
    texts = kernels.arc_texts(boxes.sizes, lambda p, q: "," + form.arc(p, q))
    head = form.head(boxes.sizes)
    mark = form.mark
    total = boxes.total
    # The tails of a match with n arcs, whose mu is total - 2n.
    tails = [form.tails(total - 2 * n, oriented) for n in range(total // 2 + 1)]
    if mu is not None:
        texts = [t for t in texts if total - 2 * t.count(mark) == mu]
    if oriented:
        items = [f"{head}{t[1:]}{tail}" for t in texts for tail in tails[t.count(mark)]]
    else:
        ends = [end for end, in tails]
        items = [f"{head}{t[1:]}{ends[t.count(mark)]}" for t in texts]
    del texts  # its strings can go before the join copies the items
    return form.joined(items)


def _digits(text: str, what: str = "a number") -> int:
    """The number a run of ASCII digits spells, the only form :func:`canonical_key` writes.

    ``int`` alone would also take signs, spaces, underscores and other scripts' digits.
    JSON weight keys are read the same way; ``what`` names the number in the error.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits for {what}, got {text!r}")
    return int(text)


def _weight_key(key) -> int:
    """A highest weight used as a JSON key: an int, or a string read by :func:`_digits`."""
    return _as_weight(_digits(key, "a highest weight") if isinstance(key, str) else key)


def parse_canonical_key(key: str) -> LowerMatch:
    """Inverse of :func:`canonical_key`; raises ValueError on malformed keys."""
    try:
        sizes_part, _, arcs_part = key.partition("|")
        sizes = tuple(_digits(s) for s in sizes_part.split(","))
        arcs = []
        if arcs_part:
            for chunk in arcs_part.split(","):
                p, q = chunk.split("-")
                arcs.append((_digits(p), _digits(q)))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed match key {key!r}") from exc
    # Outside the try: the vertex cap's message must reach the caller as it is.
    return LowerMatch(BoxConfig(sizes), tuple(arcs))
