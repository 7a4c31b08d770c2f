"""Bracketing trees, the level budget, and the closed-form stratum counts."""

from __future__ import annotations

import functools
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import bracketing, kernels, verify
from fusionkit.bracketing import (
    BracketTree,
    budget_load,
    budget_loads,
    count_truncated,
    enumerate_trees,
    parse_bracketing,
    ra_count,
    ra_count_c,
    rb_count,
    rb_count_c,
    resolve_tree,
    satisfies_truncation,
    search_budget,
)
from fusionkit.diagrams import LowerMatch, enumerate_lcm, orientations
from fusionkit.geometry import component_census
from fusionkit.module_action import build_basis
from fusionkit.ring import dim_hom_fusion

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def _scopes_by_walk(text: str) -> list:
    """(A, B, S) leaf intervals of every operation of a bracketing text, in postorder.

    Read with a stack of leaf intervals and no BracketTree: a digit pushes its
    leaf, and each ')' pops the two sides it closes and pushes their union.
    """
    stack, ops = [], []
    for ch in text:
        if ch.isdigit():
            stack.append((int(ch), int(ch)))
        elif ch == ")":
            b = stack.pop()
            a = stack.pop()
            ops.append((a, b, (a[0], b[1])))
            stack.append((a[0], b[1]))
    assert len(stack) == 1, text
    return ops


def _texts(lo: int, hi: int) -> list[str]:
    """Every bracketing text on leaves lo..hi, split points in increasing order."""
    if lo == hi:
        return [str(lo)]
    return [f"({a}{b})" for k in range(lo, hi) for a in _texts(lo, k) for b in _texts(k + 1, hi)]


def _budget_ok_by_scope(m: LowerMatch, level: int, tree: BracketTree) -> bool:
    """Oracle for the budget: count every operation's curves, scope by scope."""
    boxes = m.boxes
    arc_boxes = [(boxes.box_of(p), boxes.box_of(q)) for p, q in m.arcs]
    free_boxes = [boxes.box_of(u) for u in m.unmatched()]
    for (alo, ahi), (blo, bhi), (slo, shi) in _scopes_by_walk(str(tree)):
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


# ----------------------------------------------------------------------- parsing


def test_parse_bracketing_examples():
    left = parse_bracketing("((12)3)", 3)
    assert left == BracketTree.left_comb(3)

    right = parse_bracketing("(1(23))", 3)
    assert right == BracketTree.right_comb(3)

    balanced = parse_bracketing("((12)(34))", 4)
    assert balanced.scopes == ((1, 1, 2, 2), (3, 3, 4, 4), (1, 2, 3, 4))


def test_parse_bracketing_accepts_whitespace_and_single_leaf():
    assert parse_bracketing(" ( 1 ( 2 3 ) ) ", 3) == BracketTree.right_comb(3)
    assert parse_bracketing("1", 1) == BracketTree.leaf(1)


@pytest.mark.parametrize(
    "text,r",
    [
        ("((12)3", 3),     # unbalanced
        ("(12)3)", 3),     # trailing input
        ("(21)", 2),       # out of order
        ("(13)", 2),       # gap in leaves
        ("(11)", 2),       # repeated leaf
        ("((12)3)", 4),    # leaf count mismatch
        ("(1(23))", 2),    # leaf count mismatch
        ("(1x2)", 2),      # stray character
        ("", 1),           # empty
        ("(10)", 2),       # zero is not a leaf
    ],
)
def test_parse_bracketing_rejects(text, r):
    with pytest.raises(ValueError):
        parse_bracketing(text, r)


def test_parse_bracketing_refuses_nesting_deeper_than_single_digit_leaves_allow():
    assert parse_bracketing("((((((((12)3)4)5)6)7)8)9)", 9) == BracketTree.left_comb(9)
    assert parse_bracketing("(1(2(3(4(5(6(7(89))))))))", 9) == BracketTree.right_comb(9)
    with pytest.raises(ValueError, match="nest deeper than 8 at position 8"):
        parse_bracketing("(" * 9 + "12" + ")" * 9, 2)
    with pytest.raises(ValueError, match="nest deeper than 8"):
        parse_bracketing("(" * 3000, 2)


def test_str_parse_roundtrip():
    for r in range(1, 6):
        for tree in enumerate_trees(r):
            assert parse_bracketing(str(tree), r) == tree


# -------------------------------------------------------------- tree enumeration


def test_enumerate_trees_counts():
    for r in range(1, 9):
        assert len(enumerate_trees(r)) == CATALAN[r - 1], r


def test_enumerate_trees_bounds():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(9)


def test_tree_structure_invariants():
    for r in range(1, 9):
        texts = _texts(1, r)
        trees = enumerate_trees(r)
        assert [str(tree) for tree in trees] == texts, r
        for tree, text in zip(trees, texts):
            assert tree.num_leaves == r
            walk = _scopes_by_walk(text)
            assert tree.scopes == tuple((s[0], a[1], b[0], s[1]) for a, b, s in walk), text
            assert len(tree.scopes) == r - 1
            for (alo, ahi), (blo, bhi), (slo, shi) in walk:
                assert alo <= ahi and blo <= bhi
                assert ahi + 1 == blo and (slo, shi) == (alo, bhi)


def test_trees_compare_and_hash_by_their_scopes():
    for r in range(1, 9):
        trees = enumerate_trees(r)
        assert all(a != b for a, b in itertools.combinations(trees, 2)), r
        for tree in trees:
            parsed = parse_bracketing(str(tree), r)
            assert parsed is not tree
            assert parsed == tree and hash(parsed) == hash(tree), str(tree)


def test_default_tree_is_one_shared_left_comb():
    for r in range(1, 9):
        comb = BracketTree.left_comb(r)
        assert comb is BracketTree.left_comb(r)
        assert resolve_tree(None, r) is comb
        text = "1"
        for i in range(2, r + 1):
            text = f"({text}{i})"
        assert comb == parse_bracketing(text, r)
        tree = enumerate_trees(r)[-1]
        assert resolve_tree(tree, r) is tree


def test_combs_written_in_one_pass_equal_the_joined_trees():
    for r in range(1, 61):
        left = functools.reduce(BracketTree.join, map(BracketTree.leaf, range(1, r + 1)))
        right = BracketTree.leaf(r)
        for i in range(r - 1, 0, -1):
            right = BracketTree.join(BracketTree.leaf(i), right)
        for comb, joined in [(BracketTree.left_comb(r), left), (BracketTree.right_comb(r), right)]:
            assert (comb.lo, comb.hi, comb.scopes) == (joined.lo, joined.hi, joined.scopes), r
            assert str(comb) == str(joined)
            assert comb == joined and hash(comb) == hash(joined)


def test_combs_build_in_linear_time():
    # Joining leaf by leaf copies the scopes at every join: 100,000 leaves
    # would take about 25 s that way.
    start = time.perf_counter()
    left = bracketing._left_comb.__wrapped__(100_000)
    right = BracketTree.right_comb(100_000)
    assert time.perf_counter() - start < 2.0
    assert left.scopes[-1] == (1, 99_999, 100_000, 100_000)
    assert right.scopes[-1] == (1, 1, 2, 100_000)


def test_resolve_tree_rejects_leaf_count_mismatch():
    with pytest.raises(ValueError, match="covers leaves 1..3 but there are 2 factors"):
        resolve_tree(BracketTree.left_comb(3), 2)


def test_construction_checks_the_leaf_interval_and_the_tiling():
    assert BracketTree(1, 2, (BracketTree.leaf(1), BracketTree.leaf(2))) == BracketTree.left_comb(2)
    with pytest.raises(ValueError, match="bad leaf interval 0..0"):
        BracketTree(0, 0)
    with pytest.raises(ValueError, match="a leaf must cover a single index"):
        BracketTree(1, 2)
    with pytest.raises(ValueError, match="children 1..1 and 2..2 do not tile 1..3"):
        BracketTree(1, 3, (BracketTree.leaf(1), BracketTree.leaf(2)))


def test_fold_takes_leaves_in_order_and_operations_in_postorder():
    for r in range(1, 7):
        for tree in enumerate_trees(r):
            leaves, joins = [], []

            def leaf(i):
                leaves.append(i)
                return (i, i)

            def join(a, b):
                joins.append((a[0], a[1], b[0], b[1]))
                return (a[0], b[1])

            assert tree.fold(leaf, join) == (1, r)
            assert leaves == list(range(1, r + 1)), str(tree)
            assert tuple(joins) == tree.scopes, str(tree)
    assert BracketTree.leaf(5).fold(lambda i: ("leaf", i), None) == ("leaf", 5)


def test_deep_trees_print_without_recursion():
    r = 1500
    text = str(r)
    for i in range(r - 1, 0, -1):
        text = f"({i}{text})"
    assert str(BracketTree.right_comb(r)) == text
    assert repr(BracketTree.left_comb(2)) == "BracketTree(lo=1, hi=2, scopes=((1, 1, 2, 2),))"
    assert repr(BracketTree.left_comb(r)).startswith("BracketTree(lo=1, hi=1500, scopes=((1, 1, 2, 2), ")


def test_a_kept_tree_holds_only_its_scopes():
    # Keeping every subtree would cost O(r^2) memory: about 35 MB for this comb.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = BracketTree.right_comb(3000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.num_leaves == 3000
    assert held < 2 * 2**20, held


# ----------------------------------------------------------------- level budget


def test_satisfies_truncation_pair_examples():
    pair = BracketTree.left_comb(2)
    assert satisfies_truncation(LowerMatch((1, 1), ((1, 2),)), 1, pair) is True
    assert satisfies_truncation(LowerMatch((1, 1), ()), 1, pair) is False


def test_satisfies_truncation_depends_on_tree():
    m = LowerMatch((1, 1, 1), ((2, 3),))
    assert satisfies_truncation(m, 1, parse_bracketing("((12)3)", 3)) is False
    assert satisfies_truncation(m, 1, parse_bracketing("(1(23))", 3)) is True


def test_satisfies_truncation_leaf_count_mismatch():
    with pytest.raises(ValueError):
        satisfies_truncation(LowerMatch((1, 1), ()), 2, BracketTree.left_comb(3))


def test_satisfies_truncation_rejects_invalid_match():
    with pytest.raises(ValueError):
        satisfies_truncation(LowerMatch((2,), ((1, 2),)), 2, BracketTree.left_comb(1))


def test_pair_budget_closed_form():
    pair = BracketTree.left_comb(2)
    for w1, w2 in itertools.product(range(1, 5), repeat=2):
        for level in range(1, 7):
            for m in enumerate_lcm((w1, w2)):
                expected = m.mu <= 2 * level - w1 - w2
                assert satisfies_truncation(m, level, pair) == expected, (w1, w2, level, m)


def test_budget_monotone_in_level():
    for ws in [(1, 1, 1), (2, 2, 1), (2, 1, 2, 1)]:
        tree = BracketTree.left_comb(len(ws))
        for m in enumerate_lcm(ws):
            passing = [level for level in range(1, 8) if satisfies_truncation(m, level, tree)]
            assert passing == list(range(min(passing, default=8), 8)), (ws, m)


@st.composite
def _sizes_and_tree(draw):
    r = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(0, 4), min_size=r, max_size=r).filter(lambda s: sum(s) <= 12))
    return tuple(sizes), draw(st.sampled_from(enumerate_trees(r)))


@settings(max_examples=80, deadline=None)
@given(_sizes_and_tree())
def test_budget_load_equals_per_scope_oracle(case):
    sizes, tree = case
    matches = enumerate_lcm(sizes)
    loads = [budget_load(m, tree) for m in matches]
    top = max(loads)
    for m, load in zip(matches, loads):
        for level in range(1, top + 2):
            assert (load <= level) == _budget_ok_by_scope(m, level, tree), (sizes, tree, m, level)
    assert budget_loads(sizes, tree) == tuple(loads)


def test_budget_load_examples():
    pair = BracketTree.left_comb(2)
    assert budget_load(LowerMatch((1, 1), ((1, 2),)), pair) == 1
    assert budget_load(LowerMatch((1, 1), ()), pair) == 2
    assert budget_load(LowerMatch((2,), ()), BracketTree.leaf(1)) == 0
    m = LowerMatch((1, 1, 1), ((2, 3),))
    assert budget_load(m, parse_bracketing("((12)3)", 3)) == 2
    assert budget_load(m, parse_bracketing("(1(23))", 3)) == 1


def test_budget_load_rejects_leaf_count_mismatch():
    with pytest.raises(ValueError, match="covers leaves 1..3 but there are 2 factors"):
        budget_load(LowerMatch((1, 1), ()), BracketTree.left_comb(3))
    with pytest.raises(ValueError, match="covers leaves 1..3 but there are 2 factors"):
        budget_loads((1, 1), BracketTree.left_comb(3))


# -------------------------------------------------------------- count_truncated


def test_count_truncated_examples():
    pair = BracketTree.left_comb(2)
    assert count_truncated((1, 1), 0, 1, pair) == 1
    assert count_truncated((1, 1), 2, 1, pair) == 0
    assert count_truncated((1, 1, 1), 1, 1, parse_bracketing("((12)3)", 3)) == 1
    assert count_truncated((1, 1, 1), 1, 1, parse_bracketing("(1(23))", 3)) == 1


def test_count_truncated_rejects_weights_above_level():
    with pytest.raises(ValueError, match="alcove"):
        count_truncated((3, 1), 0, 2)


def test_count_truncated_checks_tree_even_for_an_empty_mu_slice():
    for mu in (0, 5):
        with pytest.raises(ValueError, match="covers leaves 1..3 but there are 2 factors"):
            count_truncated((1, 1), mu, 1, BracketTree.left_comb(3))


def test_count_truncated_rejects_negative_mu():
    with pytest.raises(ValueError, match="nonnegative"):
        count_truncated((1, 1), -1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        count_truncated((1, 1), -2, 1, BracketTree.left_comb(2))


def test_count_truncated_equals_oracle_filter_for_every_tree():
    bounds = verify.Bounds()
    for ws in verify._box_configs(bounds.max_rank, bounds.max_weight):
        matches = enumerate_lcm(ws)
        for tree in enumerate_trees(len(ws)):
            for level in verify._levels(ws, bounds):
                passing = [m.mu for m in matches if _budget_ok_by_scope(m, level, tree)]
                for mu in range(sum(ws) + 2):
                    expected = passing.count(mu)
                    assert count_truncated(ws, mu, level, tree) == expected, (ws, tree, level, mu)


def test_build_basis_equals_enumerate_filter_orient():
    tree_cache: dict[int, BracketTree] = {}
    for ws, level, basis in verify._module_sweep(verify.Bounds()):
        tree = tree_cache.setdefault(len(ws), BracketTree.left_comb(len(ws)))
        expected = [
            o
            for m in enumerate_lcm(ws)
            if _budget_ok_by_scope(m, level, tree)
            for o in orientations(m)
        ]
        assert list(basis.elements) == expected, (ws, level)


def test_bracketing_suite_computes_loads_once_per_tuple_and_tree():
    bounds = verify.Bounds()
    asked = {(ws, BracketTree.left_comb(len(ws))) for ws in verify._box_configs(4, 4)}
    for r in (3, 4):
        for ws in itertools.product(range(1, 5), repeat=r):
            asked.update((ws, t) for t in enumerate_trees(r))
    budget_loads.cache_clear()
    bracketing._sorted_loads_by_mu.cache_clear()
    results = verify.run_suites(["bracketing"], bounds)
    assert all(r.passed for r in results)
    info = budget_loads.cache_info()
    assert info.misses == len(asked) == 1428
    assert info.hits == 0


def test_build_basis_reads_the_shared_loads():
    budget_loads.cache_clear()
    build_basis((2, 1, 2), 3)
    build_basis((2, 1, 2), 2)
    info = budget_loads.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_count_truncated_equals_fusion_dimension():
    for r in range(1, 4):
        for ws in itertools.product(range(1, 4), repeat=r):
            for level in range(max(ws), 6):
                for mu in range(sum(ws) + 1):
                    assert count_truncated(ws, mu, level) == dim_hom_fusion(ws, mu, level)


def test_count_truncated_independent_of_tree():
    for ws in itertools.product(range(1, 4), repeat=3):
        for level in range(max(ws), 6):
            for mu in range(sum(ws) + 1):
                counts = {count_truncated(ws, mu, level, t) for t in enumerate_trees(3)}
                assert len(counts) == 1, (ws, level, mu)


# ------------------------------------------------------------ pruned search


def _oracle_passing(sizes, tree, level) -> list:
    """The untruncated enumeration filtered by its budget loads, in canonical order."""
    loads = budget_loads(sizes, tree)
    return [a for a, load in zip(kernels.enumerate_arc_sets(sizes), loads) if load <= level]


def _assert_pruned_search_agrees_with_oracle(sizes, tree, level):
    full = kernels.enumerate_arc_sets(sizes)
    passing = _oracle_passing(sizes, tree, level)
    budget = search_budget(sizes, level, tree)
    candidates = enumerate_lcm(sizes, budget)
    arcs = [m.arcs for m in candidates]
    # Sound: a sub-list of the full enumeration holding every passing arc set.
    assert set(passing) <= set(arcs), (sizes, tree, level)
    assert arcs == [a for a in full if a in set(arcs)], (sizes, tree, level)
    assert len(set(arcs)) == len(arcs)
    # Exact after the per-match verdict.
    kept = [m.arcs for m in candidates if satisfies_truncation(m, level, tree)]
    assert kept == passing, (sizes, tree, level)
    # Given every scope, the root included, the kernel itself is exact.
    assert list(kernels.enumerate_arc_sets(sizes, (level, tree.scopes))) == passing


@settings(max_examples=80, deadline=None)
@given(_sizes_and_tree())
def test_pruned_search_agrees_with_enumerate_then_filter(case):
    sizes, tree = case
    for level in range(1, max(budget_loads(sizes, tree)) + 2):
        _assert_pruned_search_agrees_with_oracle(sizes, tree, level)


def test_pruned_search_agrees_with_enumerate_then_filter_exhaustively():
    for r in range(1, 5):
        trees = enumerate_trees(r)
        for sizes in itertools.product(range(0, 4), repeat=r):
            if sum(sizes) > 9:
                continue
            for tree in trees:
                for level in range(1, max(budget_loads(sizes, tree)) + 2):
                    _assert_pruned_search_agrees_with_oracle(sizes, tree, level)


def test_search_budget_keeps_only_operations_that_can_fail_early():
    left = BracketTree.left_comb(3)
    # (12) spans four vertices and ends at vertex 4 of 6; the root is left out.
    assert search_budget((2, 2, 2), 1, left) == (1, ((1, 1, 2, 2),))
    # At level 4 the four vertices of (12) always fit.
    assert search_budget((2, 2, 2), 4, left) is None
    # Every operation of a right comb ends at the last vertex.
    assert search_budget((2, 2, 2), 1, BracketTree.right_comb(3)) is None
    # A trailing empty box moves no vertex: (12) still ends at the last one.
    assert search_budget((2, 2, 0), 1, left) is None


def test_pruned_search_builds_few_candidates_for_the_reference_query():
    sizes = (4,) * 8
    budget = search_budget(sizes, 6, BracketTree.left_comb(8))
    candidates = kernels.enumerate_arc_sets(sizes, budget)
    # 38,165 arc sets in all, of which 577 pass the budget.
    assert 577 <= len(candidates) <= 887
    assert component_census(sizes, 6).total_components == 577


def test_untruncated_callers_share_one_kernel_cache_entry_per_box_tuple():
    kernels.enumerate_arc_sets.cache_clear()
    budget_loads.cache_clear()
    configs = [(2, 2), (1, 2, 1), (2, 1, 2, 1), (3, 0, 2)]
    for n, ws in enumerate(configs, start=1):
        tree = BracketTree.left_comb(len(ws))
        component_census(ws, None)
        enumerate_lcm(ws)
        budget_loads(ws, tree)
        # A truncated census whose operations all end at the last vertex.
        component_census(ws, max(ws), BracketTree.right_comb(len(ws)))
        assert kernels.enumerate_arc_sets.cache_info().currsize == n, ws


# ----------------------------------------------------------- closed-form counts


def test_ra_count_examples():
    assert ra_count(1, 1, 1, 1, 1) == 1
    assert ra_count(1, 1, 1, 1, 0) == 0
    assert ra_count(4, 1, 1, 2, 0) == 0


def test_rb_count_examples():
    assert rb_count(1, 1, 1, 1, 1) == 1
    assert rb_count(2, 1, 2, 3, 2) == ra_count(2, 1, 2, 3, 2)


def test_ra_rb_agree_everywhere():
    for w1, w2, w3 in itertools.product(range(1, 5), repeat=3):
        for level in range(1, 7):
            for n in range((w1 + w2 + w3) // 2 + 1):
                assert ra_count(w1, w2, w3, level, n) == rb_count(w1, w2, w3, level, n)
            for c in range(1, min(w1, w3) + 1):
                assert ra_count_c(w1, w2, w3, level, c) == rb_count_c(w1, w2, w3, level, c)


def test_closed_forms_skip_infeasible_strata():
    # With the level not binding, the budget alone admits a = -1..1 box1-box2
    # arcs for ws=(1,1,4), n=1; a = -1 cannot exist, so 2 matches, not 3.
    assert ra_count(1, 1, 4, 6, 1) == rb_count(1, 1, 4, 6, 1) == 2
    assert ra_count(1, 1, 1, 5, 0) == 1
    # Box 2 of (1,1,1) cannot sit under an arc joining boxes 1 and 3.
    for level in range(2, 7):
        assert ra_count_c(1, 1, 1, level, 1) == rb_count_c(1, 1, 1, level, 1) == 0


def test_closed_forms_equal_classical_terms_where_bounds_are_slack():
    slack = 0
    for w1, w2, w3 in itertools.product(range(1, 5), repeat=3):
        for level in range(1, 7):
            for n in range(min(w2, w3) + 1):
                classical = max(
                    0, min(w1, n) - max(w1 + w2 - level, w1 + w2 + w3 - n - level) + 1
                )
                if w1 + w2 - level >= 0:
                    slack += 1
                    assert ra_count(w1, w2, w3, level, n) == classical, (w1, w2, w3, level, n)
            for c in range(1, min(w1, w3) + 1):
                classical = max(
                    0, min(w1 - c, w2) - max(w1 + w2 - level, w1 + w3 - level - c) + 1
                )
                if w1 + w2 - level >= max(0, w2 - w3 + c):
                    slack += 1
                    assert ra_count_c(w1, w2, w3, level, c) == classical, (w1, w2, w3, level, c)
    assert slack > 0


def test_ra_count_c_requires_cross_arc():
    with pytest.raises(ValueError):
        ra_count_c(2, 1, 2, 3, 0)
    with pytest.raises(ValueError):
        rb_count_c(2, 1, 2, 3, -1)


def test_cross_arc_closed_form_spot_check():
    # For boxes (3,1,3) at level 4 exactly one diagram with a single
    # outer-joining arc survives each comb's budget; checked by hand against
    # the enumeration in test_acceptance's stratified sweep.
    assert ra_count_c(3, 1, 3, 4, 1) == 1
    assert rb_count_c(3, 1, 3, 4, 1) == 1
