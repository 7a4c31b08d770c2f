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

from .bracketing import BracketTree, _check_level, _plan, satisfies_truncation
from .diagrams import (
    LowerMatch,
    _as_weight,
    _weight_key,
    arc_census,
    canonical_keys,
    enumerate_lcm,
    searched_keys,
)


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


def _filtered(boxes, level: int, tree: BracketTree) -> list[LowerMatch]:
    """The filtered route of ``bracketing._plan``: every match that satisfies the truncation."""
    return [m for m in enumerate_lcm(boxes) if satisfies_truncation(m, level, tree)]


def truncated_matches(boxes, level, tree: BracketTree | None = None) -> list[LowerMatch]:
    """The matches that fit the level budget of ``tree`` (the left comb by default).

    The query is checked and routed by ``bracketing._plan``: searched,
    filtered, or every match.  The order is canonical.
    """
    boxes, level, tree, budget, filtered = _plan(boxes, level, tree)
    return _filtered(boxes, level, tree) if filtered else enumerate_lcm(boxes, budget)


def component_census(boxes, level: int | None = None, tree: BracketTree | None = None) -> ComponentCensus:
    """Census of strata, truncated at ``level`` or untruncated when it is None.

    The strata are the matches of :func:`truncated_matches`, on the route
    ``bracketing._plan`` picks.  ``total_dim`` adds mu+1 per stratum, which is
    the dimension of the module the census indexes.  ``labels`` are as
    :func:`diagrams.canonical_keys` writes them, and a match with n arcs on
    ``total`` vertices has mu = total - 2n.  The searched and every-match
    routes write the labels from the kernel's arc texts
    (:func:`diagrams.searched_keys`) and count each label's arcs, building no
    :class:`LowerMatch`; the filtered route labels and counts the matches that
    pass.
    """
    boxes, level, tree, budget, filtered = _plan(boxes, level, tree, optional_level=True)
    if filtered:
        matches = _filtered(boxes, level, tree)
        labels = canonical_keys(matches)
        arc_counts = [len(m.arcs) for m in matches]
    else:
        labels = searched_keys(boxes.sizes, budget)
        # A key spells each arc as p-q, and its head holds no "-".
        arc_counts = [label.count("-") for label in labels]
    by_arcs = Counter(arc_counts)
    per_mu = {boxes.total - 2 * n: by_arcs[n] for n in sorted(by_arcs, reverse=True)}
    return ComponentCensus(
        per_mu=per_mu,
        total_components=len(labels),
        total_dim=sum((mu + 1) * k for mu, k in per_mu.items()),
        labels=tuple(labels),
    )
