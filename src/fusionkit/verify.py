"""Batch verification sweeps behind the ``verify`` CLI subcommand.

Every property is an exhaustive exact check over a bounded sweep; bounds come
from the CLI flags.  Each is declared once, as a generator of cases under
``@_property(suite, name)``, which registers it in ``SUITES``.  A case is its
counterexample text, or None when it passes, and the text is formatted only
for a failing case.  A property returns its case count and the first few
counterexamples verbatim, so a failing sweep points straight at the offending
configuration.

Properties that walk the same sweep points are declared together, as one
generator of ``(index, failure)`` cases under ``@_properties(suite, *names)``,
so each point's data is built once: the module suite builds one basis and
folds one ``fuse_many`` per (ws, l), the matches suite enumerates the matches
and folds one ``tensor_many`` per ws, and the three closed-form properties
read each match's loads once per ws (``_scored_strata``), bucket one
``_stratified_counts`` per (ws, l) and evaluate each form once per stratum
(``rb_count`` is ``ra_count`` on the reversed factors, so ``ra_equals_rb``
checks the reversal symmetry of ``ra_count``).  ``SUITES`` still holds one callable per property.  Within one
:func:`run_suites` call the first callable of a group runs the sweep and the
others take the results it held for them; called on its own, a callable runs
its group's sweep afresh.  Nothing outlives its sweep point or its run.  The
census properties read :func:`geometry.component_census`, the census that
``fusionkit components`` prints.

:func:`run_suites` shards its sweeps over the CPUs this process may run on.
It forks one worker per CPU, at most ``MAX_WORKERS``, before its first group
starts; the calling process is worker 0.  Every sweep draws its outermost
loop through :func:`_points`, which deals the points to the n workers back
and forth: worker k takes point i when ``i % 2n`` is k or 2n-1-k.  Every
worker runs the same groups in the same order, and each forked one sends, per
group, each property's case count, failure count and first counterexamples
with their point indices, as plain ints and strings through a pipe.  Worker
0 merges them into its own group's results: counts are summed and the
counterexamples ordered by point index, then cut to the first
``MAX_COUNTEREXAMPLES``.  A point's cases all come from one worker in sweep
order, so the report is the serial one, byte for byte, for any worker count.
The run is serial where ``os.fork`` is missing, where other threads are
alive, inside a worker, and on one CPU.
"""

from __future__ import annotations

import itertools
import marshal
import operator
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

from . import bracketing, diagrams, geometry, module_action, ring
from .bracketing import BracketTree

MAX_COUNTEREXAMPLES = 5
# Each worker fills its own caches, so more workers than this cost more
# memory than their share of the sweep saves.
MAX_WORKERS = 4


@dataclass(frozen=True)
class Bounds:
    max_rank: int = 4
    max_weight: int = 4
    max_level: int = 6

    def __post_init__(self):
        for name in ("max_rank", "max_weight", "max_level"):
            value = operator.index(getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)


@dataclass
class PropertyResult:
    suite: str
    name: str
    cases: int = 0
    failure_count: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def check(self, failure: str | None) -> None:
        """Count one case, failed when ``failure`` is its counterexample text.

        The first ``MAX_COUNTEREXAMPLES`` texts are kept.
        """
        self.cases += 1
        if failure is not None:
            self.failure_count += 1
            if len(self.failures) < MAX_COUNTEREXAMPLES:
                self.failures.append(failure)


Cases = Iterator[str | None]
GroupCases = Iterator[tuple[int, str | None]]
Property = Callable[..., PropertyResult]

# suite -> its properties, in declaration order; filled by ``_properties``.
SUITES: dict[str, tuple[Property, ...]] = {}


def _properties(suite: str, *names: str):
    """Register a sweep of ``(index, failure)`` cases as properties ``names`` of ``suite``.

    The sweep runs once and counts each case, through
    :meth:`PropertyResult.check`, towards the property ``names[index]``.  One
    callable per name is registered and returned, in order.
    Called as ``run(bounds)`` it runs the sweep and returns its own result.
    Called as ``run(bounds, held)``, with a dict that :func:`run_suites` owns
    for one run, it takes its result from ``held`` if a sibling's sweep left
    it there, and otherwise runs the sweep and leaves its siblings' results.
    """
    keys = [(suite, name) for name in names]

    def register(sweep: Callable[[Bounds], GroupCases]) -> tuple[Property, ...]:
        def run_all(bounds: Bounds) -> list[PropertyResult]:
            results = [PropertyResult(suite, name) for name in names]
            points: list[list[int]] = [[] for _ in names]  # the point of each kept failure
            for index, failure in sweep(bounds):
                result = results[index]
                result.check(failure)
                if failure is not None and len(points[index]) < MAX_COUNTEREXAMPLES:
                    points[index].append(_point)
            return results if _exchange is None else _exchange(results, points)

        def runner(index: int) -> Property:
            def run(bounds: Bounds, held: dict | None = None) -> PropertyResult:
                if held is None:
                    return run_all(bounds)[index]
                if keys[index] not in held:
                    held.update(zip(keys, run_all(bounds)))
                return held.pop(keys[index])

            return run

        runs = tuple(runner(index) for index in range(len(names)))
        SUITES[suite] = SUITES.get(suite, ()) + runs
        return runs

    return register


def _property(suite: str, name: str):
    """Register a sweep of failure cases as property ``name`` of ``suite``."""

    def register(sweep: Callable[[Bounds], Cases]) -> Property:
        (run,) = _properties(suite, name)(lambda bounds: zip(itertools.repeat(0), sweep(bounds)))
        return run

    return register


# The sharded run in progress: (this worker, workers), and what each group's
# ``run_all`` does with its results and kept failure points (None when serial).
_shard: tuple[int, int] = (0, 1)
_exchange: Callable[[list[PropertyResult], list[list[int]]], list[PropertyResult]] | None = None
# The index of the running point in its sweep's outermost loop.
_point = 0


def _points(items):
    """This worker's points of a sweep's outermost loop, dealt back and forth.

    Worker k of n takes point i when ``i % 2n`` is k or 2n-1-k.  Every n-th
    point from k on would give worker k of 2 the ``_box_configs`` tuples
    whose last weight has k's parity, an uneven split.  Every sweep draws its
    outermost loop through here; records the running point's index in
    ``_point``.
    """
    global _point
    worker, workers = _shard
    mine = (worker, 2 * workers - 1 - worker)
    for _point, item in enumerate(items):
        if _point % (2 * workers) in mine:
            yield item


def _box_configs(max_rank: int, max_weight: int):
    for r in range(1, max_rank + 1):
        yield from itertools.product(range(1, max_weight + 1), repeat=r)


def _levels(ws, bounds: Bounds):
    return range(max(ws), bounds.max_level + 1)


# ---------------------------------------------------------------- ring suite


@_property("ring", "cg_total_dimension")
def _ring_cg_total_dimension(bounds: Bounds) -> Cases:
    for i in _points(range(13)):
        for j in range(13):
            got = ring.tensor_cg(i, j).total_dim()
            yield None if got == (i + 1) * (j + 1) else f"i={i} j={j}: total dim {got}"


@_property("ring", "fuse_is_truncated_cg")
def _ring_fuse_is_truncated_cg(bounds: Bounds) -> Cases:
    for level in _points(range(1, bounds.max_level + 1)):
        for i in range(level + 1):
            for j in range(level + 1):
                top = min(i + j, 2 * level - i - j)
                expected = ring.RingElement(
                    {k: c for k, c in ring.tensor_cg(i, j).items() if k <= top}
                )
                got = ring.fuse_pair(i, j, level)
                yield None if got == expected else f"i={i} j={j} l={level}: {got.coeffs}"


@_property("ring", "fusion_quotient_identity")
def _ring_fusion_quotient_identity(bounds: Bounds) -> Cases:
    for level in _points(range(1, bounds.max_level + 1)):
        for i in range(1, level + 1):
            for j in range(1, level + 1):
                reduced = ring.quotient_reduce(
                    ring.ring_mul(ring.RingElement.simple(i), ring.RingElement.simple(j)),
                    level,
                )
                fused = ring.fuse_pair(i, j, level)
                yield (
                    None
                    if reduced == fused
                    else f"i={i} j={j} l={level}: reduced {reduced.coeffs} != fused {fused.coeffs}"
                )


@_property("ring", "quotient_reflection")
def _ring_quotient_reflection(bounds: Bounds) -> Cases:
    for level in _points(range(1, bounds.max_level + 1)):
        for m in range(1, level + 2):
            got = ring.quotient_reduce(ring.RingElement.simple(level + 1 + m), level)
            expected = ring.RingElement({level + 1 - m: -1})
            yield None if got == expected else f"l={level} m={m}: {got.coeffs}"


@_property("ring", "fuse_many_bracketing_independent")
def _ring_bracketing_independence(bounds: Bounds) -> Cases:
    # One point per (level, ws), so that the shards split the rank-4 points.
    ranks = range(2, min(bounds.max_rank, 4) + 1)
    trees = {r: bracketing.enumerate_trees(r) for r in ranks}
    sweep = (
        (level, ws)
        for r in ranks
        for level in range(1, bounds.max_level + 1)
        for ws in itertools.product(range(1, min(bounds.max_weight, level) + 1), repeat=r)
    )
    for level, ws in _points(sweep):
        results = {ring.fuse_many(ws, level, t) for t in trees[len(ws)]}
        yield (
            None
            if len(results) == 1
            else f"ws={ws} l={level}: {len(results)} distinct results across trees"
        )


@_property("ring", "generator_assoc_comm")
def _ring_generator_assoc_comm(bounds: Bounds) -> Cases:
    simples = [ring.RingElement.simple(i) for i in range(9)]
    for i, j, k in _points(itertools.product(range(9), repeat=3)):
        left = ring.ring_mul(ring.ring_mul(simples[i], simples[j]), simples[k])
        right = ring.ring_mul(simples[i], ring.ring_mul(simples[j], simples[k]))
        comm = ring.ring_mul(simples[j], simples[i]) == ring.ring_mul(simples[i], simples[j])
        yield None if left == right and comm else f"i={i} j={j} k={k}"


# ------------------------------------------------------------- matches suite


def _all_partial_matchings(n: int):
    """Every partial matching of 1..n, as a sorted tuple of pairs.

    Each is sorted as it is built: ``first`` is the smallest vertex left, so
    its pair precedes every pair of the tail, which is sorted by induction.
    """

    def go(vertices: tuple[int, ...]):
        if not vertices:
            yield ()
            return
        first, rest = vertices[0], vertices[1:]
        yield from go(rest)
        for idx in range(len(rest)):
            other = rest[idx]
            remaining = rest[:idx] + rest[idx + 1 :]
            for tail in go(remaining):
                yield ((first, other),) + tail

    yield from go(tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def _unit_box_matchings(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The partial matchings of 1..n that ``validate`` accepts on n boxes of size 1, sorted.

    Any box tuple with n vertices refines to unit boxes by splitting boxes,
    which only drops the rule that no arc joins a box to itself; so every
    match on those boxes is among these, and filtering them with
    ``validate(boxes, .)`` gives exactly the brute-force set.
    """
    unit = diagrams.BoxConfig((1,) * n or (0,))
    return tuple(
        sorted(arcs for arcs in _all_partial_matchings(n) if diagrams.validate(unit, arcs))
    )


@_properties(
    "matches",
    "cm_count_equals_hom_dim",
    "oriented_total_dimension",
    "weight_census",
    "brute_force_equivalence",
    "no_nested_unmatched",
)
def _matches_properties(bounds: Bounds) -> GroupCases:
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        matches = diagrams.enumerate_lcm(ws)
        product = ring.tensor_many(ws)

        counts: dict[int, int] = {}
        for m in matches:
            counts[m.mu] = counts.get(m.mu, 0) + 1
        for mu in range(sum(ws) + 1):
            got = counts.get(mu, 0)
            expected = product.coeff(mu)
            yield 0, (
                None if got == expected else f"ws={ws} mu={mu}: {got} matches, hom dim {expected}"
            )

        total = sum(m.mu + 1 for m in matches)
        expected = 1
        for w in ws:
            expected *= w + 1
        yield 1, None if total == expected else f"ws={ws}: oriented total {total} != {expected}"

        census: dict[int, int] = {}
        for m in matches:
            for o in diagrams.orientations(m):
                census[o.weight] = census.get(o.weight, 0) + 1
        expected = ring.weight_multiplicities(product)
        yield 2, None if census == expected else f"ws={ws}: census {census} != {expected}"

        if sum(ws) <= 10:
            boxes = diagrams.BoxConfig(ws)
            brute = [
                arcs
                for arcs in _unit_box_matchings(boxes.total)
                if diagrams.validate(boxes, arcs)
            ]
            fast = [m.arcs for m in matches]
            yield 3, None if brute == fast else f"ws={ws}: kernel/{len(fast)} vs brute/{len(brute)}"

        for m in matches:
            nested = any(
                p < u < q for u in m.unmatched() for p, q in m.arcs
            )
            valid = diagrams.validate(m.boxes, m.arcs)
            yield 4, None if valid and not nested else f"ws={ws} arcs={m.arcs}"


(
    _matches_cm_count_equals_hom_dim,
    _matches_oriented_total_dimension,
    _matches_weight_census,
    _matches_brute_force_equivalence,
    _matches_no_nested_unmatched,
) = _matches_properties


# ---------------------------------------------------------- bracketing suite


@_property("bracketing", "truncated_count_equals_fusion_dim")
def _bracketing_count_equals_fusion_dim(bounds: Bounds) -> Cases:
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        for level in _levels(ws, bounds):
            fused = ring.fuse_many(ws, level)
            counted = bracketing.count_truncated(ws, level)
            for mu in range(sum(ws) + 1):
                got = counted.get(mu, 0)
                expected = fused.coeff(mu)
                yield (
                    None
                    if got == expected
                    else f"ws={ws} mu={mu} l={level}: counted {got}, fusion dim {expected}"
                )


@_property("bracketing", "count_independent_of_tree")
def _bracketing_count_independent_of_tree(bounds: Bounds) -> Cases:
    # One point per ws, so that the shards split the rank-4 tuples.
    ranks = range(3, min(bounds.max_rank, 4) + 1)
    trees = {r: bracketing.enumerate_trees(r) for r in ranks}
    weights = range(1, bounds.max_weight + 1)
    sweep = (ws for r in ranks for ws in itertools.product(weights, repeat=r))
    for ws in _points(sweep):
        for level in _levels(ws, bounds):
            per_tree = [bracketing.count_truncated(ws, level, t) for t in trees[len(ws)]]
            for mu in range(sum(ws) + 1):
                counts = {counted.get(mu, 0) for counted in per_tree}
                yield (
                    None
                    if len(counts) == 1
                    else f"ws={ws} mu={mu} l={level}: counts {sorted(counts)} differ"
                )


@_property("bracketing", "pair_budget_closed_form")
def _bracketing_pair_closed_form(bounds: Bounds) -> Cases:
    pair = BracketTree.left_comb(2)
    for w1 in _points(range(1, bounds.max_weight + 1)):
        for w2 in range(1, bounds.max_weight + 1):
            for level in range(1, bounds.max_level + 1):
                for m in diagrams.enumerate_lcm((w1, w2)):
                    got = bracketing.satisfies_truncation(m, level, pair)
                    expected = m.mu <= 2 * level - w1 - w2
                    yield (
                        None
                        if got == expected
                        else f"ws=({w1},{w2}) arcs={m.arcs} l={level}: {got} vs {expected}"
                    )


@_property("bracketing", "level_monotonicity")
def _bracketing_level_monotonicity(bounds: Bounds) -> Cases:
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        tree = BracketTree.left_comb(len(ws))
        for m, load in zip(diagrams.enumerate_lcm(ws), bracketing.budget_loads(ws, tree)):
            passes = [load <= level for level in range(1, bounds.max_level + 1)]
            for level, lower, higher in zip(itertools.count(1), passes, passes[1:]):
                yield (
                    None
                    if higher or not lower
                    else f"ws={ws} arcs={m.arcs}: passes l={level} but not l={level + 1}"
                )


def _cross_and_lower_counts(m: diagrams.LowerMatch) -> tuple[int, int]:
    """(#arcs joining box 1 to box 3, #lower arcs) for a three-box match."""
    cross = sum(
        1
        for p, q in m.arcs
        if m.boxes.box_of(p) == 1 and m.boxes.box_of(q) == 3
    )
    return cross, len(m.arcs)


def _scored_strata(ws) -> list[tuple[int, int, int, int]]:
    """(cross, lower, left-comb load, right-comb load) for every match of a three-box tuple.

    A load does not depend on the level, so the loads are read once per tuple
    from the cached tables of ``bracketing.budget_loads``, and
    :func:`_stratified_counts` compares them at every level.
    """
    left = bracketing.budget_loads(ws, BracketTree.left_comb(3))
    right = bracketing.budget_loads(ws, BracketTree.right_comb(3))
    return [
        (*_cross_and_lower_counts(m), load_left, load_right)
        for m, load_left, load_right in zip(diagrams.enumerate_lcm(ws), left, right)
    ]


def _stratified_counts(scored, level):
    """Bucket budget-passing matches of the two three-factor combs by stratum.

    ``scored`` is :func:`_scored_strata` of the tuple.  Returns
    ({tree_name: {n: count}} for the no-cross strata,
    {tree_name: {c: count}} for the c >= 1 strata).
    """
    by_n = {"s1": {}, "s2": {}}
    by_c = {"s1": {}, "s2": {}}
    for cross, lower, load_left, load_right in scored:
        for name, load in (("s1", load_left), ("s2", load_right)):
            if load > level:
                continue
            if cross == 0:
                by_n[name][lower] = by_n[name].get(lower, 0) + 1
            else:
                by_c[name][cross] = by_c[name].get(cross, 0) + 1
    return by_n, by_c


@_properties(
    "bracketing",
    "stratified_no_cross_closed_form",
    "stratified_cross_closed_form",
    "ra_equals_rb",
)
def _bracketing_stratified_properties(bounds: Bounds) -> GroupCases:
    for ws in _points(itertools.product(range(1, bounds.max_weight + 1), repeat=3)):
        w1, w2, w3 = ws
        scored = _scored_strata(ws)
        for level in _levels(ws, bounds):
            by_n, by_c = _stratified_counts(scored, level)
            for n in range(sum(ws) // 2 + 1):
                got_a = by_n["s1"].get(n, 0)
                got_b = by_n["s2"].get(n, 0)
                formula_a = bracketing.ra_count(w1, w2, w3, level, n)
                formula_b = bracketing.rb_count(w1, w2, w3, level, n)
                yield (
                    0,
                    None
                    if got_a == formula_a and got_b == formula_b
                    else f"ws={ws} l={level} n={n}: enumerated ({got_a},{got_b}) "
                    f"vs closed form ({formula_a},{formula_b})",
                )
                yield (
                    2,
                    None
                    if formula_a == formula_b
                    else f"ws={ws} l={level} n={n}: ra={formula_a} rb={formula_b}",
                )
            for c in range(1, min(w1, w3) + 1):
                got_a = by_c["s1"].get(c, 0)
                got_b = by_c["s2"].get(c, 0)
                formula_a = bracketing.ra_count_c(w1, w2, w3, level, c)
                formula_b = bracketing.rb_count_c(w1, w2, w3, level, c)
                yield (
                    1,
                    None
                    if got_a == formula_a and got_b == formula_b
                    else f"ws={ws} l={level} c={c}: enumerated ({got_a},{got_b}) "
                    f"vs closed form ({formula_a},{formula_b})",
                )
                yield (
                    2,
                    None
                    if formula_a == formula_b
                    else f"ws={ws} l={level} c={c}: ra_c={formula_a} rb_c={formula_b}",
                )


(
    _bracketing_stratified_no_cross,
    _bracketing_stratified_with_cross,
    _bracketing_ra_equals_rb,
) = _bracketing_stratified_properties


# -------------------------------------------------------------- module suite


def _module_sweep(bounds: Bounds):
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        for level in _levels(ws, bounds):
            yield ws, level, module_action.build_basis(ws, level)


@_properties(
    "module",
    "sl2_relations",
    "isotypic_equals_fusion_coeffs",
    "dimension_matches_fusion",
    "h_weight_census",
)
def _module_properties(bounds: Bounds) -> GroupCases:
    for ws, level, basis in _module_sweep(bounds):
        fused = ring.fuse_many(ws, level)

        ok = module_action.verify_sl2(module_action.action_matrices(basis))
        yield 0, None if ok else f"ws={ws} l={level}: commutation relations fail"

        got = module_action.isotypic_census(basis)
        expected = fused.coeffs
        yield 1, None if got == expected else f"ws={ws} l={level}: census {got} != {expected}"

        expected = fused.total_dim()
        yield 2, (
            None if basis.dim == expected else f"ws={ws} l={level}: dim {basis.dim} != {expected}"
        )

        census: dict[int, int] = {}
        for o in basis.elements:
            census[o.weight] = census.get(o.weight, 0) + 1
        expected = ring.weight_multiplicities(fused)
        yield 3, None if census == expected else f"ws={ws} l={level}: {census} != {expected}"


(
    _module_sl2_relations,
    _module_isotypic_equals_fusion,
    _module_dimension_matches,
    _module_h_weights_match,
) = _module_properties


# ------------------------------------------------------------ geometry suite


@_property("geometry", "nl_equiv_budget")
def _geometry_nl_equiv_budget(bounds: Bounds) -> Cases:
    # A single box has no tensor operation for the budget to constrain, while
    # the kernel inequality still enforces w1 <= l, so r = 1 is compared only
    # on levels the factor fits.
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        tree = BracketTree.left_comb(len(ws))
        start_level = max(ws) if len(ws) == 1 else 1
        for m, load in zip(diagrams.enumerate_lcm(ws), bracketing.budget_loads(ws, tree)):
            threshold = geometry.nl_threshold(m)
            for level in range(start_level, bounds.max_level + 1):
                got = threshold <= level
                expected = load <= level
                yield (
                    None
                    if got == expected
                    else f"ws={ws} arcs={m.arcs} l={level}: nl={got} budget={expected}"
                )


@_property("geometry", "census_matches_fusion")
def _geometry_census_matches_fusion(bounds: Bounds) -> Cases:
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        for level in _levels(ws, bounds):
            census = geometry.component_census(ws, level)
            fused = ring.fuse_many(ws, level)
            ok = census.total_dim == fused.total_dim() and census.per_mu == fused.coeffs
            yield None if ok else f"ws={ws} l={level}: census {census.per_mu} vs {fused.coeffs}"


@_property("geometry", "untruncated_dim_product")
def _geometry_untruncated_dim_product(bounds: Bounds) -> Cases:
    for ws in _points(_box_configs(bounds.max_rank, bounds.max_weight)):
        total_dim = geometry.component_census(ws, None).total_dim
        expected = 1
        for w in ws:
            expected *= w + 1
        yield None if total_dim == expected else f"ws={ws}: total dim {total_dim} != {expected}"


@_property("geometry", "dim_formulas")
def _geometry_dim_formulas(bounds: Bounds) -> Cases:
    for w in _points(range(21)):
        for v in range(w + 1):
            dm = geometry.dim_m(v, w)
            ok = (
                dm == 2 * v * (w - v)
                and dm % 2 == 0
                and dm == geometry.dim_m(w - v, w)
                and geometry.dim_z(v, v, w) == dm
            )
            yield None if ok else f"v={v} w={w}"


@_property("geometry", "pair_highest_weight_window")
def _geometry_pair_highest_weight_window(bounds: Bounds) -> Cases:
    for w1 in _points(range(1, bounds.max_weight + 1)):
        for w2 in range(1, bounds.max_weight + 1):
            for level in range(max(w1, w2), bounds.max_level + 1):
                per_mu = geometry.component_census((w1, w2), level).per_mu
                for mu in range(w1 + w2 + 1):
                    inside = (
                        abs(w1 - w2) <= mu <= min(w1 + w2, 2 * level - w1 - w2)
                        and (mu + w1 + w2) % 2 == 0
                    )
                    got = per_mu.get(mu, 0)
                    yield (
                        None
                        if got == (1 if inside else 0)
                        else f"w1={w1} w2={w2} l={level} mu={mu}: count {got}"
                    )


# -------------------------------------------------------------------- runner


def _run(names, bounds: Bounds, shard=(0, 1), exchange=None) -> list[PropertyResult]:
    """Run the named suites as worker ``shard[0]`` of ``shard[1]``, in declaration order.

    Each group's sweep runs once: its first property runs it and the others
    take what it held for them in a dict that lives for this call only.
    ``exchange`` gets each group's results and kept failure points, and its
    return value stands for the group's results.
    """
    global _shard, _exchange
    outer = _shard, _exchange
    _shard, _exchange = shard, exchange
    try:
        held: dict = {}
        return [prop(bounds, held) for name in names for prop in SUITES[name]]
    finally:
        _shard, _exchange = outer


def _partial(results: list[PropertyResult], points: list[list[int]]) -> list:
    """A group's results as plain ints and strings: per property, the cases,
    the failure count and the kept (point, text) pairs."""
    return [
        (result.cases, result.failure_count, list(zip(kept, result.failures)))
        for result, kept in zip(results, points)
    ]


def _merge(
    results: list[PropertyResult], points: list[list[int]], partials
) -> list[PropertyResult]:
    """Add other workers' :func:`_partial` results of the same group into ``results``.

    Counts are summed; the counterexamples are ordered by point index and the
    first ``MAX_COUNTEREXAMPLES`` kept.  A point's failures all come from one
    worker, in order, and the sort is stable, so they keep their sweep order.
    """
    for index, result in enumerate(results):
        pairs = list(zip(points[index], result.failures))
        for partial in partials:
            cases, failure_count, kept = partial[index]
            result.cases += cases
            result.failure_count += failure_count
            pairs += kept
        pairs.sort(key=lambda pair: pair[0])
        result.failures = [text for _, text in pairs[:MAX_COUNTEREXAMPLES]]
    return results


def _worker_count() -> int:
    """One worker per CPU this process may run on, at most ``MAX_WORKERS``.

    A forked child holds only the forking thread, so the run is serial while
    other threads are alive (none can run without ``threading`` loaded), where
    ``os.fork`` is missing, and inside a sharded run.
    """
    threading = sys.modules.get("threading")
    if (
        not hasattr(os, "fork")
        or _shard[1] > 1
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_WORKERS))


def _send(fd: int, message) -> None:
    data = marshal.dumps(message)
    data = len(data).to_bytes(8, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _receive(reader, worker: int) -> list:
    """The next group's :func:`_partial` from ``worker``; raises its error text if it failed."""
    head = reader.read(8)
    if len(head) < 8:
        raise RuntimeError(f"verify worker {worker} exited without its results")
    message = marshal.loads(reader.read(int.from_bytes(head, "little")))
    if isinstance(message, str):
        raise RuntimeError(f"verify worker {worker} failed:\n{message}")
    return message


def _work(names, bounds: Bounds, shard: tuple[int, int], fd: int) -> None:
    """A forked worker's whole life: run its shard, send each group's part, exit.

    An error is sent as its traceback text.  ``os._exit`` ends it without
    running handlers or flushing buffers that it inherited.
    """
    code = 1
    try:

        def send(results, points):
            _send(fd, _partial(results, points))
            return results

        _run(names, bounds, shard, send)
        code = 0
    except BaseException as exc:  # an interrupt too: the worker ends here, whatever is raised
        import traceback

        try:
            _send(fd, "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)))
        except OSError:  # worker 0 has closed the pipe
            pass
    finally:
        os._exit(code)


def run_suites(names, bounds: Bounds) -> list[PropertyResult]:
    """Run the named suites and return their results in declaration order.

    The sweeps are sharded over :func:`_worker_count` workers, forked here
    before the first group starts; this process is worker 0 and merges every
    group's parts.  The results are those of a serial run.  No worker
    outlives the call: on an error or an interrupt they are killed, and
    every one is reaped.
    """
    workers = _worker_count()
    if workers == 1:
        return _run(names, bounds)
    children: list[tuple[int, object]] = []  # (pid, reader) of workers 1..n-1
    finished = False
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for _, reader in children:
                    reader.close()
                _work(names, bounds, (worker, workers), write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))

        def merge(results, points):
            partials = [_receive(reader, worker) for worker, (_, reader) in enumerate(children, 1)]
            return _merge(results, points, partials)

        results = _run(names, bounds, (0, workers), merge)
        finished = True
        return results
    finally:
        for pid, reader in children:
            reader.close()
            if not finished:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
