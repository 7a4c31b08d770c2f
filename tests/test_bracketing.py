"""Bracketing trees, the level budget, and the closed-form stratum counts."""

from __future__ import annotations

import functools
import itertools
import sys
import time
import tracemalloc
from collections import Counter

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
from fusionkit.geometry import component_census, truncated_matches
from fusionkit.module_action import build_basis, isotypic_census
from fusionkit.ring import fuse_many

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


@pytest.mark.parametrize(
    "text,r,position",
    [
        ("((\u0661\u0662)\u0663)", 3, 2),  # Arabic-Indic digits one, two, three
        ("((12)\u00b2)", 3, 5),  # superscript two, which int() refuses
        ("(\uff11\uff12)", 2, 1),  # fullwidth digits
        ("(1\u0662)", 2, 2),  # an ASCII leaf beside an Arabic-Indic two
    ],
)
def test_parse_bracketing_takes_only_ascii_digits_as_leaves(text, r, position):
    with pytest.raises(ValueError, match=f"unexpected character .* at position {position} "):
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


@pytest.mark.parametrize("sizes", [(2.0, 1), (2.5, 1), ("2", 1)])
def test_budget_loads_and_layout_refuse_sizes_that_are_not_integers_cold_and_warm(sizes):
    # (2.0, 1) is a key equal to (2, 1): a cached entry must not let it through.
    tree = BracketTree.left_comb(2)
    bracketing._budget_loads.cache_clear()
    kernels._layout.cache_clear()
    for warm in (False, True):
        with pytest.raises(TypeError, match="integer"):
            budget_loads(sizes, tree)
        with pytest.raises(TypeError, match="integer"):
            kernels.layout(sizes)
        assert budget_loads((2, 1), tree) == (3, 2)
        assert kernels.layout((2, 1)) == ((0, 1, 1, 2), (0, 2, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        kernels.layout((2, -1))


# -------------------------------------------------------------- count_truncated


def test_count_truncated_examples():
    pair = BracketTree.left_comb(2)
    assert count_truncated((1, 1), 1, pair) == {0: 1}
    assert list(count_truncated((1, 1), 2, pair).items()) == [(0, 1), (2, 1)]
    assert count_truncated((1, 1, 1), 1, parse_bracketing("((12)3)", 3)) == {1: 1}
    assert count_truncated((1, 1, 1), 1, parse_bracketing("(1(23))", 3)) == {1: 1}
    assert count_truncated((0,), 1) == {0: 1}


def test_count_truncated_rejects_weights_above_level():
    with pytest.raises(ValueError, match="alcove"):
        count_truncated((3, 1), 2)


def test_count_truncated_checks_tree_even_for_an_empty_mu_slice():
    # The tree is checked before anything is counted, whatever the level lets pass.
    for level in (1, 2, 5):
        with pytest.raises(ValueError, match="covers leaves 1..3 but there are 2 factors"):
            count_truncated((1, 1), level, BracketTree.left_comb(3))


def test_count_truncated_refuses_the_old_mu_argument():
    # The former signature was (boxes, mu, level, tree=None): a third positional
    # argument is now the tree, so a leftover call raises instead of counting.
    for ws in ((1, 1), (2, 2), (1, 1, 1), (2, 1, 2)):
        for mu in range(sum(ws) + 1):
            for level in range(max(ws), 4):
                with pytest.raises((TypeError, ValueError)):
                    count_truncated(ws, mu, level)
    with pytest.raises(TypeError, match="BracketTree"):
        count_truncated((1, 1), 2, 1)


# Each bad input of a box query and the error it raises.  The good inputs are
# the boxes (2, 1), the level 2 and the default tree; level 1 lies below box 2.
BAD_BOXES = {
    (-1, 2): (ValueError, "box size must be a nonnegative integer, got -1"),
    (2.5, 1): (TypeError, "'float' object cannot be interpreted as an integer"),
    (40, 40): (ValueError, "a box configuration holds at most 64 vertices, got 80"),
    (): (ValueError, "a box configuration needs at least one box"),
}
BAD_LEVELS = {
    0: (ValueError, "level must be a positive integer, got 0"),
    -3: (ValueError, "level must be a positive integer, got -3"),
    2.5: (TypeError, "'float' object cannot be interpreted as an integer"),
    None: (TypeError, "'NoneType' object cannot be interpreted as an integer"),
    1: (ValueError, "highest weight 2 lies outside the level alcove 0..1"),
}
BAD_TREES = {
    BracketTree.left_comb(5): (ValueError, "bracketing covers leaves 1..5 but there are 2 factors"),
    "((12)3)": (TypeError, "expected a BracketTree or None, got '((12)3)'"),
}


def test_box_queries_check_the_boxes_then_the_level_then_the_tree():
    # Every pair and triple of bad inputs raises the error of the first in
    # that order; the census alone takes the level None, untruncated.
    outcomes = 0
    for query, ws, level, tree in itertools.product(
        (count_truncated, build_basis, truncated_matches, component_census),
        [(2, 1), *BAD_BOXES],
        [2, *BAD_LEVELS],
        [None, *BAD_TREES],
    ):
        level_fault = None if query is component_census and level is None else BAD_LEVELS.get(level)
        faults = [BAD_BOXES.get(ws), level_fault, BAD_TREES.get(tree)]
        want = next((fault for fault in faults if fault), None)
        try:
            query(ws, level, tree)
            got = None
        except (TypeError, ValueError) as exc:
            got = type(exc), str(exc)
        assert got == want, (query.__name__, ws, level, tree)
        outcomes += 1
    assert outcomes == 4 * 5 * 6 * 3 == 360


def test_count_truncated_equals_oracle_filter_for_every_tree():
    bounds = verify.Bounds()
    for ws in verify._box_configs(bounds.max_rank, bounds.max_weight):
        matches = enumerate_lcm(ws)
        for tree in enumerate_trees(len(ws)):
            for level in verify._levels(ws, bounds):
                passing = Counter(m.mu for m in matches if _budget_ok_by_scope(m, level, tree))
                got = count_truncated(ws, level, tree)
                assert got == dict(passing), (ws, tree, level)
                assert list(got) == sorted(passing), (ws, tree, level)


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


def test_bracketing_suite_computes_loads_once_per_tuple_and_tree(monkeypatch):
    # One worker: a forked worker's cache misses are not seen here.
    monkeypatch.setattr(verify, "MAX_WORKERS", 1)
    bounds = verify.Bounds()
    asked = {(ws, BracketTree.left_comb(len(ws))) for ws in verify._box_configs(4, 4)}
    for r in (3, 4):
        for ws in itertools.product(range(1, 5), repeat=r):
            asked.update((ws, t) for t in enumerate_trees(r))
    bracketing._budget_loads.cache_clear()
    results = verify.run_suites(["bracketing"], bounds)
    assert all(r.passed for r in results)
    info = bracketing._budget_loads.cache_info()
    assert info.misses == len(asked) == 1428
    # Each reads its table once: one count per (tuple, level) and per
    # (tuple, level, tree), 5,960 in all; a level_monotonicity read per
    # tuple, 340; and both comb tables per three-box tuple of
    # _scored_strata, 64 x 2.
    assert info.hits == 5960 + 340 + 64 * 2 - 1428 == 5000


def test_build_basis_reads_the_shared_loads():
    bracketing._budget_loads.cache_clear()
    build_basis((2, 1, 2), 3)
    build_basis((2, 1, 2), 2)
    info = bracketing._budget_loads.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_count_truncated_equals_fusion_dimension():
    for r in range(1, 4):
        for ws in itertools.product(range(1, 4), repeat=r):
            for level in range(max(ws), 6):
                assert count_truncated(ws, level) == fuse_many(ws, level).coeffs, (ws, level)


def test_count_truncated_independent_of_tree():
    for ws in itertools.product(range(1, 4), repeat=3):
        for level in range(max(ws), 6):
            counts = [count_truncated(ws, level, t) for t in enumerate_trees(3)]
            assert all(c == counts[0] for c in counts), (ws, level)


def test_count_truncated_equals_pruned_census_and_module_isotypes_on_every_tree():
    # component_census lists through the pruned search and the module basis
    # through the shared filter; all three must give the same {mu: count}.
    cases = 0
    for r in range(1, 5):
        trees = enumerate_trees(r)
        for ws in itertools.product(range(0, 4), repeat=r):
            for tree in trees:
                for level in range(max(max(ws), 1), 7):
                    got = count_truncated(ws, level, tree)
                    assert got == component_census(ws, level, tree).per_mu, (ws, tree, level)
                    assert got == isotypic_census(build_basis(ws, level, tree)), (ws, tree, level)
                    assert list(got) == sorted(got)
                    cases += 1
    assert cases == 6285


# ------------------------------------------------------------ pruned search


def _oracle_passing(sizes, tree, level) -> list:
    """The untruncated enumeration filtered by its budget loads, in canonical order."""
    loads = budget_loads(sizes, tree)
    return [a for a, load in zip(kernels.enumerate_arc_sets(sizes), loads) if load <= level]


def _load_search(sizes, budget) -> tuple:
    """``kernels.enumerate_arc_sets(sizes, budget)`` as a vertex walk that rescans its arcs.

    It makes one call per vertex: leave it unmatched (only with no arc open),
    close the innermost open arc (only onto another box) or open an arc, and
    drops walks that end with an arc open.  At each vertex after a budgeted
    scope's last box it scores every closed arc with ``kernels._load``.  The
    kernel walks box by box instead, choosing how many vertices close, and
    reads counters kept as arcs close; both prune the same prefixes.
    """
    key = tuple(sizes)
    box_of, prefix = kernels.layout(key)
    w = prefix[-1]
    level, scopes = budget
    due: dict = {}
    for scope in scopes:
        due.setdefault(prefix[scope[3]] + 1, []).append(scope)
    out, stack, arcs = [], [], []

    def search(pos: int) -> None:
        if pos in due and kernels._load(key, arcs, due[pos]) > level:
            return
        if pos > w:
            if not stack:
                out.append(tuple(sorted(arcs)))
            return
        if len(stack) > w - pos + 1:
            return
        if not stack:
            search(pos + 1)
        if stack and box_of[stack[-1]] != box_of[pos]:
            arcs.append((stack.pop(), pos))
            search(pos + 1)
            stack.append(arcs.pop()[0])
        stack.append(pos)
        search(pos + 1)
        stack.pop()

    search(1)
    out.sort()
    return tuple(out)


def _mirrored_search(sizes, budget) -> tuple:
    """``kernels.enumerate_arc_sets`` on the reversed sizes and mirrored scopes, mapped back."""
    r, w = len(sizes), sum(sizes)
    level, scopes = budget
    mirrored = tuple(
        (r + 1 - shi, r + 1 - blo, r + 1 - ahi, r + 1 - slo) for slo, ahi, blo, shi in scopes
    )
    found = kernels.enumerate_arc_sets(tuple(reversed(sizes)), (level, mirrored))
    return tuple(sorted(tuple(sorted((w + 1 - q, w + 1 - p) for p, q in arcs)) for arcs in found))


def _assert_pruned_search_agrees_with_oracle(sizes, tree, level):
    passing = _oracle_passing(sizes, tree, level)
    budget = search_budget(sizes, level, tree)
    # With a budget the search is exact; without one it lists every match.
    expected = passing if budget is not None else list(kernels.enumerate_arc_sets(sizes))
    assert list(kernels.enumerate_arc_sets(sizes, budget)) == expected, (sizes, tree, level)
    if level >= max(sizes, default=0):
        # Exact either way, through the per-match verdict when there is no budget.
        kept = [m.arcs for m in truncated_matches(sizes, level, tree)]
        assert kept == passing, (sizes, tree, level)
    # Given every scope, the root included, the kernel itself is exact.
    assert list(kernels.enumerate_arc_sets(sizes, (level, tree.scopes))) == passing
    for scoped in (budget, (level, tree.scopes)):
        if scoped is not None:
            # The counters prune exactly where a rescan of the closed arcs would,
            found = kernels.enumerate_arc_sets(sizes, scoped)
            assert found == _load_search(sizes, scoped), (sizes, tree, level)
            # and a walk from the other end finds the same list.
            assert found == _mirrored_search(sizes, scoped), (sizes, tree, level)


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


def test_box_walk_equals_the_vertex_walk_and_the_mirrored_walk_exhaustively():
    # Every tree given all its scopes, so every operation prunes, at every
    # level up to the largest load, where all pass; zero-size boxes included.
    cases = 0
    for r in range(1, 6):
        trees = enumerate_trees(r)
        for sizes in itertools.product(range(0, 4), repeat=r):
            if sum(sizes) > 6:
                continue
            for tree in trees:
                for level in range(1, max(1, *budget_loads(sizes, tree)) + 1):
                    budget = (level, tree.scopes)
                    found = kernels.enumerate_arc_sets(sizes, budget)
                    assert found == _load_search(sizes, budget), (sizes, tree, level)
                    assert found == _mirrored_search(sizes, budget), (sizes, tree, level)
                    cases += 1
    assert cases == 27870


def test_arc_texts_and_arc_tuples_equal_the_vertex_walk_on_every_searched_query():
    # Every query the census searches on these trees, from the end the kernel
    # picks: the texts spell the arc tuples, which the vertex walk finds.
    cases = from_right = 0
    for r in range(1, 6):
        trees = enumerate_trees(r)
        for sizes in itertools.product(range(0, 4), repeat=r):
            total = sum(sizes)
            if total > 12:
                continue
            _, prefix = kernels.layout(sizes)
            for tree in trees:
                for level in range(max(1, *sizes), total + 1):
                    budget = search_budget(sizes, level, tree)
                    if budget is None:
                        continue
                    found = kernels.enumerate_arc_sets(sizes, budget)
                    texts = kernels.arc_texts(sizes, lambda p, q: f",{p}-{q}", budget)
                    assert texts == ["".join(f",{p}-{q}" for p, q in arcs) for arcs in found]
                    assert found == _load_search(sizes, budget), (sizes, tree, level)
                    scopes = budget[1]
                    from_right += sum(prefix[s[0] - 1] == 0 for s in scopes) < sum(
                        prefix[s[3]] == total for s in scopes
                    )
                    cases += 1
    # 19,353 walked from the left and 18,101 from the right.
    assert (cases, from_right) == (37_454, 18_101)


def _recursive_calls(run, filename) -> dict:
    """{function name: calls} of the functions in ``filename`` that ``run()`` calls more than once."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == filename:
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {name: n for name, n in calls.items() if n > 1 and not name.startswith("<")}


def test_box_walk_recurses_once_per_box_on_the_reference_query():
    # A call per node of the walk's tree, counted by a profile hook: a walk
    # that recursed per vertex again would make the vertex oracle's count.
    sizes = (4,) * 8
    budget = search_budget(sizes, 6, BracketTree.left_comb(8))
    found = []
    calls = _recursive_calls(
        lambda: found.extend(kernels.enumerate_arc_sets(sizes, budget)), kernels.__file__
    )
    assert len(found) == 577
    assert calls == {"walk": 985}
    # The census walks the same tree for arc texts.
    texts = []
    calls = _recursive_calls(
        lambda: texts.extend(kernels.arc_texts(sizes, lambda p, q: f",{p}-{q}", budget)),
        kernels.__file__,
    )
    assert len(texts) == 577
    assert calls == {"walk": 985}
    assert _recursive_calls(lambda: _load_search(sizes, budget), __file__) == {"search": 18433}


def test_search_budget_keeps_only_operations_that_can_fail_early():
    left = BracketTree.left_comb(3)
    # (12) spans four vertices of 6 and the root six: both can fail at level 1.
    assert search_budget((2, 2, 2), 1, left) == (1, ((1, 1, 2, 2), (1, 2, 3, 3)))
    # At level 4 the four vertices of (12) always fit and only the root binds.
    assert search_budget((2, 2, 2), 4, left) is None
    # A right comb's (23) ends at the last vertex; a walk from the right checks it early.
    right = BracketTree.right_comb(3)
    assert search_budget((2, 2, 2), 1, right) == (1, ((2, 2, 3, 3), (1, 1, 2, 3)))
    # A trailing empty box moves no vertex: (12) covers the whole line too.
    assert search_budget((2, 2, 0), 1, left) is None
    # A single operation is the root.
    assert search_budget((2, 2), 2, BracketTree.left_comb(2)) is None


def test_pruned_search_builds_few_candidates_for_the_reference_query():
    sizes = (4,) * 8
    budget = search_budget(sizes, 6, BracketTree.left_comb(8))
    candidates = kernels.enumerate_arc_sets(sizes, budget)
    # 38,165 arc sets in all, of which 577 pass the budget.
    assert len(candidates) == 577
    assert candidates == _load_search(sizes, budget)
    assert component_census(sizes, 6).total_components == 577


def test_right_comb_reference_query_walks_from_the_right_without_a_listing():
    sizes = (4,) * 8
    tree = BracketTree.right_comb(8)
    kernels._listing.cache_clear()
    census = component_census(sizes, 6, tree)
    assert census.total_components == 577
    assert census.per_mu == component_census(sizes, 6).per_mu
    assert kernels._listing.cache_info().currsize == 0


def test_untruncated_callers_share_one_kernel_cache_entry_per_box_tuple():
    kernels._listing.cache_clear()
    bracketing._budget_loads.cache_clear()
    configs = [(2, 2), (1, 2, 1), (2, 1, 2, 1), (3, 0, 2)]
    for n, ws in enumerate(configs, start=1):
        tree = BracketTree.left_comb(len(ws))
        component_census(ws, None)
        enumerate_lcm(ws)
        budget_loads(ws, tree)
        # A truncated census on a right comb, searched or filtered from the listing.
        component_census(ws, max(ws), BracketTree.right_comb(len(ws)))
        assert kernels._listing.cache_info().currsize == n, ws


def test_pruned_searches_leave_the_kernel_cache_unchanged():
    kernels._listing.cache_clear()
    enumerate_lcm((1, 1))
    pruned = 0
    for sizes, levels in (((2, 2, 2), (2, 3)), ((2, 2, 2, 2), (2, 3, 4, 5)), ((3, 1, 2), (3,))):
        for tree in enumerate_trees(len(sizes)):
            for level in levels:
                budget = search_budget(sizes, level, tree)
                if budget is None:
                    continue
                pruned += 1
                for ask in (
                    lambda: truncated_matches(sizes, level, tree),
                    lambda: component_census(sizes, level, tree),
                    lambda: kernels.enumerate_arc_sets(sizes, budget),
                ):
                    first = ask()
                    assert ask() == first
                    assert kernels._listing.cache_info().currsize == 1, (sizes, tree, level)
    assert pruned == 23
    assert kernels._listing.cache_info().hits == 0


# ----------------------------------------------------------- closed-form counts


def test_ra_count_examples():
    assert ra_count(1, 1, 1, 1, 1) == 1
    assert ra_count(1, 1, 1, 1, 0) == 0
    assert ra_count(4, 1, 1, 2, 0) == 0


def test_rb_count_examples():
    assert rb_count(1, 1, 1, 1, 1) == 1
    assert rb_count(2, 1, 2, 3, 2) == ra_count(2, 1, 2, 3, 2)
    # The right-comb forms read the factors reversed, so w3 is checked first.
    with pytest.raises(ValueError, match="got -2"):
        rb_count(-1, 1, -2, 3, 1)


def test_right_comb_strata_are_left_comb_strata_on_reversed_factors():
    # The premise of rb_count: reversing the factors maps the right comb's
    # passing matches onto the left comb's, stratum by stratum.
    left, right = BracketTree.left_comb(3), BracketTree.right_comb(3)

    def strata(ws, level, tree):
        return Counter(
            verify._cross_and_lower_counts(m) for m in truncated_matches(ws, level, tree)
        )

    cases = 0
    for ws in itertools.product(range(0, 5), repeat=3):
        for level in range(max(1, *ws), 9):
            assert strata(ws, level, right) == strata(ws[::-1], level, left), (ws, level)
            cases += 1
    assert cases == 724


def test_stratified_counts_from_loads_scored_once_equal_a_check_per_level():
    trees = {"s1": BracketTree.left_comb(3), "s2": BracketTree.right_comb(3)}

    def oracle(ws, level):
        by_n = {name: Counter() for name in trees}
        by_c = {name: Counter() for name in trees}
        for m in enumerate_lcm(ws):
            cross, lower = verify._cross_and_lower_counts(m)
            for name, tree in trees.items():
                if not satisfies_truncation(m, level, tree):
                    continue
                if cross:
                    by_c[name][cross] += 1
                else:
                    by_n[name][lower] += 1
        return by_n, by_c

    cases = 0
    for ws in itertools.product(range(0, 4), repeat=3):
        scored = verify._scored_strata(ws)
        for level in range(1, sum(ws) + 2):
            assert verify._stratified_counts(scored, level) == oracle(ws, level), (ws, level)
            cases += 1
    assert cases == 352


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
