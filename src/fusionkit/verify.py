"""Batch verification sweeps behind the ``verify`` CLI subcommand.

Every property is an exhaustive exact check over a bounded sweep; bounds come
from the CLI flags.  A property returns its case count and the first few
counterexamples verbatim, so a failing sweep points straight at the offending
configuration.  Properties run in declaration order on one thread, so the
report is in a fixed order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import bracketing, diagrams, geometry, module_action, ring
from .bracketing import BracketTree

MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class Bounds:
    max_rank: int = 4
    max_weight: int = 4
    max_level: int = 6

    def __post_init__(self):
        for name in ("max_rank", "max_weight", "max_level"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


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

    def check(self, ok: bool, detail: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failure_count += 1
            if len(self.failures) < MAX_COUNTEREXAMPLES:
                self.failures.append(detail)


def _box_configs(max_rank: int, max_weight: int):
    for r in range(1, max_rank + 1):
        yield from itertools.product(range(1, max_weight + 1), repeat=r)


def _levels(ws, bounds: Bounds):
    return range(max(ws), bounds.max_level + 1)


# ---------------------------------------------------------------- ring suite


def _ring_cg_total_dimension(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("ring", "cg_total_dimension")
    for i in range(13):
        for j in range(13):
            got = ring.tensor_cg(i, j).total_dim()
            res.check(got == (i + 1) * (j + 1), f"i={i} j={j}: total dim {got}")
    return res


def _ring_fuse_is_truncated_cg(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("ring", "fuse_is_truncated_cg")
    for level in range(1, bounds.max_level + 1):
        for i in range(level + 1):
            for j in range(level + 1):
                top = min(i + j, 2 * level - i - j)
                expected = ring.RingElement(
                    {k: c for k, c in ring.tensor_cg(i, j).items() if k <= top}
                )
                got = ring.fuse_pair(i, j, level)
                res.check(got == expected, f"i={i} j={j} l={level}: {got.coeffs}")
    return res


def _ring_fusion_quotient_identity(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("ring", "fusion_quotient_identity")
    for level in range(1, bounds.max_level + 1):
        for i in range(1, level + 1):
            for j in range(1, level + 1):
                reduced = ring.quotient_reduce(
                    ring.ring_mul(ring.RingElement.simple(i), ring.RingElement.simple(j)),
                    level,
                )
                fused = ring.fuse_pair(i, j, level)
                res.check(
                    reduced == fused,
                    f"i={i} j={j} l={level}: reduced {reduced.coeffs} != fused {fused.coeffs}",
                )
    return res


def _ring_quotient_reflection(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("ring", "quotient_reflection")
    for level in range(1, bounds.max_level + 1):
        for m in range(1, level + 2):
            got = ring.quotient_reduce(ring.RingElement.simple(level + 1 + m), level)
            expected = ring.RingElement({level + 1 - m: -1})
            res.check(got == expected, f"l={level} m={m}: {got.coeffs}")
    return res


def _ring_bracketing_independence(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("ring", "fuse_many_bracketing_independent")
    for r in range(2, min(bounds.max_rank, 4) + 1):
        trees = bracketing.enumerate_trees(r)
        for level in range(1, bounds.max_level + 1):
            top_w = min(bounds.max_weight, level)
            for ws in itertools.product(range(1, top_w + 1), repeat=r):
                results = {ring.fuse_many(ws, level, t) for t in trees}
                res.check(
                    len(results) == 1,
                    f"ws={ws} l={level}: {len(results)} distinct results across trees",
                )
    return res


def _ring_generator_assoc_comm(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("ring", "generator_assoc_comm")
    simples = [ring.RingElement.simple(i) for i in range(9)]
    for i, j, k in itertools.product(range(9), repeat=3):
        left = ring.ring_mul(ring.ring_mul(simples[i], simples[j]), simples[k])
        right = ring.ring_mul(simples[i], ring.ring_mul(simples[j], simples[k]))
        comm = ring.ring_mul(simples[j], simples[i]) == ring.ring_mul(simples[i], simples[j])
        res.check(left == right and comm, f"i={i} j={j} k={k}")
    return res


# ------------------------------------------------------------- matches suite


def _matches_cm_count_equals_hom_dim(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("matches", "cm_count_equals_hom_dim")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        counts: dict[int, int] = {}
        for m in diagrams.enumerate_lcm(ws):
            counts[m.mu] = counts.get(m.mu, 0) + 1
        for mu in range(sum(ws) + 1):
            got = counts.get(mu, 0)
            expected = ring.dim_hom_tensor(ws, mu)
            res.check(got == expected, f"ws={ws} mu={mu}: {got} matches, hom dim {expected}")
    return res


def _matches_oriented_total_dimension(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("matches", "oriented_total_dimension")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        total = sum(m.mu + 1 for m in diagrams.enumerate_lcm(ws))
        expected = 1
        for w in ws:
            expected *= w + 1
        res.check(total == expected, f"ws={ws}: oriented total {total} != {expected}")
    return res


def _matches_weight_census(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("matches", "weight_census")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        census: dict[int, int] = {}
        for m in diagrams.enumerate_lcm(ws):
            for o in diagrams.orientations(m):
                census[o.weight] = census.get(o.weight, 0) + 1
        product = ring.RingElement.unit()
        for w in ws:
            product = ring.ring_mul(product, ring.RingElement.simple(w))
        expected = ring.weight_multiplicities(product)
        res.check(census == expected, f"ws={ws}: census {census} != {expected}")
    return res


def _all_partial_matchings(n: int):
    """Every partial matching of 1..n, as a sorted tuple of pairs."""

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
                yield tuple(sorted(((first, other),) + tail))

    yield from go(tuple(range(1, n + 1)))


def _matches_brute_force_equivalence(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("matches", "brute_force_equivalence")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        if sum(ws) > 10:
            continue
        boxes = diagrams.BoxConfig(ws)
        brute = sorted(
            arcs
            for arcs in set(_all_partial_matchings(boxes.total))
            if diagrams.validate(boxes, arcs)
        )
        fast = [m.arcs for m in diagrams.enumerate_lcm(boxes)]
        res.check(brute == fast, f"ws={ws}: kernel/{len(fast)} vs brute/{len(brute)}")
    return res


def _matches_no_nested_unmatched(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("matches", "no_nested_unmatched")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        for m in diagrams.enumerate_lcm(ws):
            nested = any(
                p < u < q for u in m.unmatched() for p, q in m.arcs
            )
            valid = diagrams.validate(m.boxes, m.arcs)
            res.check(not nested and valid, f"ws={ws} arcs={m.arcs}")
    return res


# ---------------------------------------------------------- bracketing suite


def _bracketing_count_equals_fusion_dim(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "truncated_count_equals_fusion_dim")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        for level in _levels(ws, bounds):
            for mu in range(sum(ws) + 1):
                got = bracketing.count_truncated(ws, mu, level)
                expected = ring.dim_hom_fusion(ws, mu, level)
                res.check(
                    got == expected,
                    f"ws={ws} mu={mu} l={level}: counted {got}, fusion dim {expected}",
                )
    return res


def _bracketing_count_independent_of_tree(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "count_independent_of_tree")
    for r in range(3, min(bounds.max_rank, 4) + 1):
        trees = bracketing.enumerate_trees(r)
        for ws in itertools.product(range(1, bounds.max_weight + 1), repeat=r):
            for level in _levels(ws, bounds):
                for mu in range(sum(ws) + 1):
                    counts = {bracketing.count_truncated(ws, mu, level, t) for t in trees}
                    res.check(
                        len(counts) == 1,
                        f"ws={ws} mu={mu} l={level}: counts {sorted(counts)} differ",
                    )
    return res


def _bracketing_pair_closed_form(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "pair_budget_closed_form")
    pair = BracketTree.left_comb(2)
    for w1 in range(1, bounds.max_weight + 1):
        for w2 in range(1, bounds.max_weight + 1):
            for level in range(1, bounds.max_level + 1):
                for m in diagrams.enumerate_lcm((w1, w2)):
                    got = bracketing.satisfies_truncation(m, level, pair)
                    expected = m.mu <= 2 * level - w1 - w2
                    res.check(
                        got == expected,
                        f"ws=({w1},{w2}) arcs={m.arcs} l={level}: {got} vs {expected}",
                    )
    return res


def _bracketing_level_monotonicity(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "level_monotonicity")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        tree = BracketTree.left_comb(len(ws))
        for m in diagrams.enumerate_lcm(ws):
            for level in range(1, bounds.max_level):
                lower = bracketing.satisfies_truncation(m, level, tree)
                higher = bracketing.satisfies_truncation(m, level + 1, tree)
                res.check(
                    higher or not lower,
                    f"ws={ws} arcs={m.arcs}: passes l={level} but not l={level + 1}",
                )
    return res


def _cross_and_lower_counts(m: diagrams.LowerMatch) -> tuple[int, int]:
    """(#arcs joining box 1 to box 3, #lower arcs) for a three-box match."""
    cross = sum(
        1
        for p, q in m.arcs
        if m.boxes.box_of(p) == 1 and m.boxes.box_of(q) == 3
    )
    return cross, len(m.arcs)


def _stratified_counts(ws, level):
    """Bucket budget-passing matches of the two three-factor combs by stratum.

    Returns ({tree_name: {n: count}} for the no-cross strata,
    {tree_name: {c: count}} for the c >= 1 strata).
    """
    trees = {"s1": BracketTree.left_comb(3), "s2": BracketTree.right_comb(3)}
    by_n = {name: {} for name in trees}
    by_c = {name: {} for name in trees}
    for m in diagrams.enumerate_lcm(ws):
        cross, lower = _cross_and_lower_counts(m)
        for name, tree in trees.items():
            if not bracketing.satisfies_truncation(m, level, tree):
                continue
            if cross == 0:
                by_n[name][lower] = by_n[name].get(lower, 0) + 1
            else:
                by_c[name][cross] = by_c[name].get(cross, 0) + 1
    return by_n, by_c


def _bracketing_stratified_no_cross(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "stratified_no_cross_closed_form")
    for ws in itertools.product(range(1, bounds.max_weight + 1), repeat=3):
        w1, w2, w3 = ws
        for level in _levels(ws, bounds):
            by_n, _ = _stratified_counts(ws, level)
            for n in range(sum(ws) // 2 + 1):
                got_a = by_n["s1"].get(n, 0)
                got_b = by_n["s2"].get(n, 0)
                formula_a = bracketing.ra_count(w1, w2, w3, level, n)
                formula_b = bracketing.rb_count(w1, w2, w3, level, n)
                res.check(
                    got_a == formula_a and got_b == formula_b,
                    f"ws={ws} l={level} n={n}: enumerated ({got_a},{got_b}) "
                    f"vs closed form ({formula_a},{formula_b})",
                )
    return res


def _bracketing_stratified_with_cross(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "stratified_cross_closed_form")
    for ws in itertools.product(range(1, bounds.max_weight + 1), repeat=3):
        w1, w2, w3 = ws
        for level in _levels(ws, bounds):
            _, by_c = _stratified_counts(ws, level)
            for c in range(1, min(w1, w3) + 1):
                got_a = by_c["s1"].get(c, 0)
                got_b = by_c["s2"].get(c, 0)
                formula_a = bracketing.ra_count_c(w1, w2, w3, level, c)
                formula_b = bracketing.rb_count_c(w1, w2, w3, level, c)
                res.check(
                    got_a == formula_a and got_b == formula_b,
                    f"ws={ws} l={level} c={c}: enumerated ({got_a},{got_b}) "
                    f"vs closed form ({formula_a},{formula_b})",
                )
    return res


def _bracketing_ra_equals_rb(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("bracketing", "ra_equals_rb")
    for ws in itertools.product(range(1, bounds.max_weight + 1), repeat=3):
        w1, w2, w3 = ws
        for level in _levels(ws, bounds):
            for n in range(sum(ws) // 2 + 1):
                a = bracketing.ra_count(w1, w2, w3, level, n)
                b = bracketing.rb_count(w1, w2, w3, level, n)
                res.check(a == b, f"ws={ws} l={level} n={n}: ra={a} rb={b}")
            for c in range(1, min(w1, w3) + 1):
                a = bracketing.ra_count_c(w1, w2, w3, level, c)
                b = bracketing.rb_count_c(w1, w2, w3, level, c)
                res.check(a == b, f"ws={ws} l={level} c={c}: ra_c={a} rb_c={b}")
    return res


# -------------------------------------------------------------- module suite


def _module_sweep(bounds: Bounds):
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        for level in _levels(ws, bounds):
            yield ws, level, module_action.build_basis(ws, level)


def _module_sl2_relations(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("module", "sl2_relations")
    for ws, level, basis in _module_sweep(bounds):
        ok = module_action.verify_sl2(module_action.action_matrices(basis))
        res.check(ok, f"ws={ws} l={level}: commutation relations fail")
    return res


def _module_isotypic_equals_fusion(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("module", "isotypic_equals_fusion_coeffs")
    for ws, level, basis in _module_sweep(bounds):
        got = module_action.isotypic_census(basis)
        expected = ring.fuse_many(ws, level).coeffs
        res.check(got == expected, f"ws={ws} l={level}: census {got} != {expected}")
    return res


def _module_dimension_matches(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("module", "dimension_matches_fusion")
    for ws, level, basis in _module_sweep(bounds):
        expected = ring.fuse_many(ws, level).total_dim()
        res.check(basis.dim == expected, f"ws={ws} l={level}: dim {basis.dim} != {expected}")
    return res


def _module_h_weights_match(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("module", "h_weight_census")
    for ws, level, basis in _module_sweep(bounds):
        census: dict[int, int] = {}
        for o in basis.elements:
            census[o.weight] = census.get(o.weight, 0) + 1
        expected = ring.weight_multiplicities(ring.fuse_many(ws, level))
        res.check(census == expected, f"ws={ws} l={level}: {census} != {expected}")
    return res


# ------------------------------------------------------------ geometry suite


def _geometry_nl_equiv_budget(bounds: Bounds) -> PropertyResult:
    # A single box has no tensor operation for the budget to constrain, while
    # the kernel inequality still enforces w1 <= l, so r = 1 is compared only
    # on levels the factor fits.
    res = PropertyResult("geometry", "nl_equiv_budget")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        tree = BracketTree.left_comb(len(ws))
        start_level = max(ws) if len(ws) == 1 else 1
        for m in diagrams.enumerate_lcm(ws):
            for level in range(start_level, bounds.max_level + 1):
                got = geometry.nl_condition(m, level)
                expected = bracketing.satisfies_truncation(m, level, tree)
                res.check(
                    got == expected,
                    f"ws={ws} arcs={m.arcs} l={level}: nl={got} budget={expected}",
                )
    return res


def _geometry_census_matches_fusion(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("geometry", "census_matches_fusion")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        for level in _levels(ws, bounds):
            census = geometry.component_census(ws, level)
            fused = ring.fuse_many(ws, level)
            ok = census.total_dim == fused.total_dim() and census.per_mu == fused.coeffs
            res.check(ok, f"ws={ws} l={level}: census {census.per_mu} vs {fused.coeffs}")
    return res


def _geometry_untruncated_dim_product(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("geometry", "untruncated_dim_product")
    for ws in _box_configs(bounds.max_rank, bounds.max_weight):
        census = geometry.component_census(ws, None)
        expected = 1
        for w in ws:
            expected *= w + 1
        res.check(
            census.total_dim == expected,
            f"ws={ws}: total dim {census.total_dim} != {expected}",
        )
    return res


def _geometry_dim_formulas(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("geometry", "dim_formulas")
    for w in range(21):
        for v in range(w + 1):
            dm = geometry.dim_m(v, w)
            ok = (
                dm == 2 * v * (w - v)
                and dm % 2 == 0
                and dm == geometry.dim_m(w - v, w)
                and geometry.dim_z(v, v, w) == dm
            )
            res.check(ok, f"v={v} w={w}")
    return res


def _geometry_pair_highest_weight_window(bounds: Bounds) -> PropertyResult:
    res = PropertyResult("geometry", "pair_highest_weight_window")
    for w1 in range(1, bounds.max_weight + 1):
        for w2 in range(1, bounds.max_weight + 1):
            for level in range(max(w1, w2), bounds.max_level + 1):
                census = geometry.component_census((w1, w2), level)
                for mu in range(w1 + w2 + 1):
                    inside = (
                        abs(w1 - w2) <= mu <= min(w1 + w2, 2 * level - w1 - w2)
                        and (mu + w1 + w2) % 2 == 0
                    )
                    got = census.per_mu.get(mu, 0)
                    res.check(
                        got == (1 if inside else 0),
                        f"w1={w1} w2={w2} l={level} mu={mu}: count {got}",
                    )
    return res


# -------------------------------------------------------------------- runner

SUITES: dict[str, tuple] = {
    "ring": (
        _ring_cg_total_dimension,
        _ring_fuse_is_truncated_cg,
        _ring_fusion_quotient_identity,
        _ring_quotient_reflection,
        _ring_bracketing_independence,
        _ring_generator_assoc_comm,
    ),
    "matches": (
        _matches_cm_count_equals_hom_dim,
        _matches_oriented_total_dimension,
        _matches_weight_census,
        _matches_brute_force_equivalence,
        _matches_no_nested_unmatched,
    ),
    "bracketing": (
        _bracketing_count_equals_fusion_dim,
        _bracketing_count_independent_of_tree,
        _bracketing_pair_closed_form,
        _bracketing_level_monotonicity,
        _bracketing_stratified_no_cross,
        _bracketing_stratified_with_cross,
        _bracketing_ra_equals_rb,
    ),
    "module": (
        _module_sl2_relations,
        _module_isotypic_equals_fusion,
        _module_dimension_matches,
        _module_h_weights_match,
    ),
    "geometry": (
        _geometry_nl_equiv_budget,
        _geometry_census_matches_fusion,
        _geometry_untruncated_dim_product,
        _geometry_dim_formulas,
        _geometry_pair_highest_weight_window,
    ),
}


def run_suites(names, bounds: Bounds) -> list[PropertyResult]:
    """Run the named suites and return their results in declaration order."""
    return [prop(bounds) for name in names for prop in SUITES[name]]
