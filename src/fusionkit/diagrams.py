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
        object.__setattr__(self, "_layout", kernels.layout(sizes))

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
        return self.boxes.total - 2 * len(self.arcs)

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

    ``arcs`` are pairs ``(p, q)`` with ``p < q``, in any order.  They must use
    each vertex once, join two different boxes, not cross, and leave no
    unmatched vertex under an arc.
    """
    boxes = BoxConfig.coerce(boxes)
    arcs = sorted(arcs)
    w = boxes.total
    seen: set[int] = set()
    for p, q in arcs:
        if not (1 <= p < q <= w):
            return False
        if p in seen or q in seen:
            return False
        seen.add(p)
        seen.add(q)
        if boxes.box_of(p) == boxes.box_of(q):
            return False
    for i, (p, q) in enumerate(arcs):
        for p2, q2 in arcs[i + 1 :]:
            if p < p2 < q < q2:
                return False
    for u in range(1, w + 1):
        if u in seen:
            continue
        for p, q in arcs:
            if p < u < q:
                return False
    return True


def enumerate_lcm(boxes, budget=None) -> list[LowerMatch]:
    """All lower crossingless matches on ``boxes``, in canonical order.

    Canonical order is lexicographic on the sorted arc tuples, with the empty
    arc set first.  A ``budget`` from ``bracketing.search_budget`` keeps only
    the matches whose finished operations fit the level: every match that
    passes the budget and some that do not, so ``satisfies_truncation`` still
    gives the verdict.
    """
    boxes = BoxConfig.coerce(boxes)
    # Without a budget, call with the sizes alone: that is the one cache entry
    # every untruncated caller shares.
    if budget is None:
        arc_sets = kernels.enumerate_arc_sets(boxes.sizes)
    else:
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
    return [OrientedLowerMatch(m, k) for k in range(m.mu + 1)]


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


def parse_canonical_key(key: str) -> LowerMatch:
    """Inverse of :func:`canonical_key`; raises ValueError on malformed keys."""
    try:
        sizes_part, _, arcs_part = key.partition("|")
        sizes = tuple(_as_weight(int(s), "box size") for s in sizes_part.split(","))
        arcs = []
        if arcs_part:
            for chunk in arcs_part.split(","):
                p, q = chunk.split("-")
                arcs.append((int(p), int(q)))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed match key {key!r}") from exc
    # Outside the try: the vertex cap's message must reach the caller as it is.
    return LowerMatch(BoxConfig(sizes), tuple(arcs))
