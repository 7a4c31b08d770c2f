"""Discrete shadows of the varieties behind the diagram combinatorics.

Only dimension formulas and kernel/rank bookkeeping are modelled: a stratum
of the tensor-product variety is identified with its lower-match label, and
the nilpotent endomorphism it parametrizes is read off combinatorially --
restricted to the first i boxes, its rank is the number of arcs closed there
and its kernel takes up the rest.  :func:`component_census` is the one census
of strata: ``fusionkit components`` prints it and the census properties of
``verify`` read its counts.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

from .bracketing import (
    BracketTree,
    _check_level,
    check_alcove,
    resolve_tree,
    satisfies_truncation,
    search_budget,
)
from .diagrams import (
    BoxConfig,
    LowerMatch,
    _as_weight,
    _weight_key,
    arc_census,
    arc_set_keys,
    enumerate_lcm,
    searched_keys,
)
from .kernels import enumerate_arc_sets


def _check_dims(*values) -> tuple[int, ...]:
    out = []
    for v in values:
        v = operator.index(v)
        if v < 0:
            raise ValueError(f"dimensions must be nonnegative, got {v}")
        out.append(v)
    return tuple(out)


def dim_m(v, w) -> int:
    """Dimension 2v(w-v) of the pair variety over the Grassmannian Gr(v, w)."""
    v, w = _check_dims(v, w)
    if v > w:
        raise ValueError(f"need v <= w, got v={v}, w={w}")
    return 2 * v * (w - v)


def dim_z(v1, v2, w) -> int:
    """Dimension v1(w-v1) + v2(w-v2) of the triple variety."""
    v1, v2, w = _check_dims(v1, v2, w)
    if v1 > w or v2 > w:
        raise ValueError(f"need v1, v2 <= w, got v1={v1}, v2={v2}, w={w}")
    return v1 * (w - v1) + v2 * (w - v2)


@dataclass(frozen=True)
class KernelProfile:
    """Prefix kernel dimensions and ranks of the endomorphism labelled by a match.

    Entry i-1 refers to the restriction to the first i boxes:
    ``dimker[i-1] + rank[i-1] = w1 + ... + wi`` and ``rank`` is the running
    count of arcs closed within the prefix.
    """

    sizes: tuple[int, ...]
    dimker: tuple[int, ...]
    rank: tuple[int, ...]


def kernel_profile(m: LowerMatch) -> KernelProfile:
    census = arc_census(m)
    sizes = m.boxes.sizes
    dimker = []
    prefix = 0
    for i, w in enumerate(sizes):
        prefix += w
        dimker.append(prefix - census.c[i])
    return KernelProfile(sizes=sizes, dimker=tuple(dimker), rank=census.c)


def nl_threshold(m: LowerMatch) -> int:
    """max_i dimker_i - rank_{i-1}: the inequalities hold exactly at levels from here up.

    With ``prefix[i] = w1 + ... + wi`` and ``rank_i`` the arcs closing in
    boxes 1..i, ``dimker_i = prefix[i] - rank_i``, so the threshold is
    max_i ``prefix[i] - rank_i - rank_{i-1}``: one pass over the arcs and one
    over the boxes, with :func:`kernel_profile` as its test oracle.
    """
    box, prefix = m.boxes._layout
    closing = [0] * len(prefix)  # arcs closing in each box; entry 0 unused
    for _, q in m.arcs:
        closing[box[q]] += 1
    # Every term is >= 0, since prefix[i] >= 2·rank_i, so 0 starts the max.
    threshold = rank = 0
    for i in range(1, len(prefix)):
        before = rank
        rank += closing[i]
        if prefix[i] - rank - before > threshold:
            threshold = prefix[i] - rank - before
    return threshold


def nl_condition(m: LowerMatch, level) -> bool:
    """The kernel/rank inequalities: dimker_i <= l + rank_{i-1} for all prefixes."""
    level = _check_level(level)
    return nl_threshold(m) <= level


@dataclass(frozen=True)
class ComponentCensus:
    """Component counts of the (truncated) variety, bucketed by highest weight."""

    per_mu: dict
    total_components: int
    total_dim: int
    labels: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "per_mu": {str(k): v for k, v in sorted(self.per_mu.items())},
            "total_components": self.total_components,
            "total_dim": self.total_dim,
            "labels": list(self.labels),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ComponentCensus":
        census = cls(
            per_mu={
                _weight_key(k): _as_weight(v, "component count")
                for k, v in obj["per_mu"].items()
            },
            total_components=obj["total_components"],
            total_dim=obj["total_dim"],
            labels=tuple(obj["labels"]),
        )
        counted = sum(census.per_mu.values())
        if census.total_components != counted or census.total_components != len(census.labels):
            raise ValueError(
                f"total_components {census.total_components} disagrees with per_mu "
                f"({counted}) or with the {len(census.labels)} labels"
            )
        dim = sum((mu + 1) * n for mu, n in census.per_mu.items())
        if census.total_dim != dim:
            raise ValueError(f"total_dim {census.total_dim} disagrees with per_mu ({dim})")
        return census


def truncated_matches(boxes, level, tree: BracketTree | None = None) -> list[LowerMatch]:
    """The matches that fit the level budget of ``tree`` (the left comb by default).

    With a :func:`search_budget` the search lists exactly those matches.
    Without one, when only operations covering every vertex can fail, the
    full listing is filtered by ``satisfies_truncation``, unless the level is
    at least the vertex count, which no scope's count can pass.  The order is
    canonical.
    """
    boxes = BoxConfig.coerce(boxes)
    level = check_alcove(boxes.sizes, level)
    tree = resolve_tree(tree, boxes.count)
    budget = search_budget(boxes.sizes, level, tree)
    matches = enumerate_lcm(boxes, budget)
    if budget is None and level < boxes.total:
        matches = [m for m in matches if satisfies_truncation(m, level, tree)]
    return matches


def component_census(boxes, level: int | None = None, tree: BracketTree | None = None) -> ComponentCensus:
    """Census of strata, truncated at ``level`` or untruncated when it is None.

    The truncation is :func:`truncated_matches`.  ``total_dim`` adds mu+1 per
    stratum, which is the dimension of the module the census indexes.
    ``labels`` are as :func:`diagrams.canonical_keys` writes them, and a match
    with n arcs on ``total`` vertices has mu = total - 2n.  A searched census
    writes its labels from the search's arc texts
    (:func:`diagrams.searched_keys`) and counts each label's arcs.  An
    untruncated census, or one at a level at least the vertex count, where no
    scope can bind, counts and labels the kernel's cached arc tuples.  Neither
    builds a :class:`LowerMatch`; only the filtered census, where only
    operations covering every vertex bind, builds every match and scores it
    with ``satisfies_truncation``, as :func:`truncated_matches` does.
    """
    boxes = BoxConfig.coerce(boxes)
    if level is not None:
        level = check_alcove(boxes.sizes, level)
    tree = resolve_tree(tree, boxes.count)  # a tree that does not fit is refused either way
    budget = None if level is None else search_budget(boxes.sizes, level, tree)
    if budget is not None:
        labels = searched_keys(boxes.sizes, budget)
        # A key spells each arc as p-q, and its head holds no "-".
        arc_counts = [label.count("-") for label in labels]
    else:
        if level is None or level >= boxes.total:
            arc_sets = enumerate_arc_sets(boxes.sizes)
        else:
            matches = enumerate_lcm(boxes)
            arc_sets = [m.arcs for m in matches if satisfies_truncation(m, level, tree)]
        labels = arc_set_keys(boxes.sizes, arc_sets)
        arc_counts = map(len, arc_sets)
    by_arcs = Counter(arc_counts)
    per_mu = {boxes.total - 2 * n: by_arcs[n] for n in sorted(by_arcs, reverse=True)}
    return ComponentCensus(
        per_mu=per_mu,
        total_components=len(labels),
        total_dim=sum((mu + 1) * k for mu, k in per_mu.items()),
        labels=tuple(labels),
    )
