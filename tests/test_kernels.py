"""Kernel-level contracts, checked against a brute-force oracle."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import diagrams, kernels, verify


def brute_force_arc_sets(sizes) -> list[tuple[tuple[int, int], ...]]:
    """Every partial matching of the vertex line that is a valid lower match, sorted."""
    boxes = diagrams.BoxConfig(tuple(sizes))
    return [
        arcs for arcs in verify._unit_box_matchings(boxes.total) if diagrams.validate(boxes, arcs)
    ]


def _compositions(n: int):
    """Every tuple of positive box sizes summing to n (the empty tuple for n = 0)."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_unit_box_prefilter_equals_full_filter():
    # Zero-size boxes hold no vertex, so they change no box boundary; the
    # positive compositions of n cover every way to cut 1..n into boxes.
    for n in range(9):
        every = set(verify._all_partial_matchings(n))
        for sizes in _compositions(n) if n else [(0,)]:
            boxes = diagrams.BoxConfig(sizes)
            full = sorted(arcs for arcs in every if diagrams.validate(boxes, arcs))
            assert brute_force_arc_sets(sizes) == full, sizes


def test_matches_suite_generates_partial_matchings_once_per_vertex_count():
    verify._unit_box_matchings.cache_clear()
    results = verify.run_suites(["matches"], verify.Bounds())
    assert all(r.passed for r in results)
    info = verify._unit_box_matchings.cache_info()
    assert info.misses <= 10
    assert info.hits > 0


def test_kernel_equals_brute_force_exhaustively():
    for r in range(1, 4):
        for sizes in itertools.product(range(0, 4), repeat=r):
            expected = brute_force_arc_sets(sizes)
            assert list(kernels.enumerate_arc_sets(sizes)) == expected, sizes
            assert kernels._match_count(sizes) == len(expected), sizes


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(lambda s: sum(s) <= 9))
def test_kernel_equals_brute_force_on_random_tuples(sizes):
    assert list(kernels.enumerate_arc_sets(tuple(sizes))) == brute_force_arc_sets(sizes)


def test_kernel_output_is_canonical():
    out = kernels.enumerate_arc_sets((2, 1, 2))
    assert list(out) == sorted(out)
    assert out[0] == ()
    assert len(set(out)) == len(out)


def test_kernel_edge_cases():
    assert kernels.enumerate_arc_sets((0,)) == ((),)
    assert kernels.enumerate_arc_sets((0, 0, 0)) == ((),)
    with pytest.raises(ValueError):
        kernels.enumerate_arc_sets((-1, 2))
    with pytest.raises(ValueError):
        kernels.enumerate_arc_sets((kernels.MAX_VERTICES + 1,))


def test_kernel_refuses_more_than_max_matches_before_searching():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most 1000000 matches, got 10651488789"):
        kernels.enumerate_arc_sets((4,) * 16)
    assert time.perf_counter() - start < 1.0
    assert len(kernels.enumerate_arc_sets((4,) * 8)) == 38165


def test_cached_wrapper_returns_tuples():
    out = kernels.enumerate_arc_sets((1, 1))
    assert isinstance(out, tuple)
    assert out == ((), ((1, 2),))
    assert kernels.enumerate_arc_sets((1, 1)) is out


def test_layout_gives_the_box_of_each_vertex_and_prefix_sums():
    assert kernels.layout((2, 0, 1)) == ((0, 1, 1, 3), (0, 2, 2, 3))
    assert kernels.layout((0,)) == ((0,), (0, 0))
    assert kernels.layout((1, 2)) is kernels.layout((1, 2))
    for sizes in itertools.product(range(0, 4), repeat=3):
        box, prefix = kernels.layout(sizes)
        assert box[1:] == tuple(b for b, s in enumerate(sizes, 1) for _ in range(s)), sizes
        assert prefix == tuple(sum(sizes[:i]) for i in range(len(sizes) + 1)), sizes


# The untruncated listing is built from memoized blocks; the search, given a
# budget with no scope, lists every match and is the oracle for the blocks.
LISTING_FULL_TUPLES = [
    (4, 4, 4, 4, 4, 4, 4, 4),
    (4, 4, 4, 4, 3, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3, 3),
    (4, 4, 4, 4, 4, 4, 4),
    (3, 3, 3, 3, 3, 3, 3),
    (4, 3, 4, 3, 4, 3, 2),
    (1, 2, 3, 4, 1, 2, 3, 4),
]


def _search_oracle(sizes):
    return kernels.enumerate_arc_sets(tuple(sizes), (max(sizes), ()))


def _assert_canonical(out):
    assert all(a < b for a, b in zip(out, out[1:]))


def test_blocks_equal_the_search_on_every_small_tuple():
    tuples = [
        sizes
        for r in range(1, 7)
        for sizes in itertools.product(range(0, 5), repeat=r)
        if sum(sizes) <= 10
    ]
    assert len(tuples) == 7658
    for sizes in tuples:
        out = kernels.enumerate_arc_sets(sizes)
        assert out == _search_oracle(sizes), sizes
        _assert_canonical(out)


def test_blocks_equal_the_search_on_the_benchmark_listings():
    for sizes in LISTING_FULL_TUPLES:
        out = kernels.enumerate_arc_sets(sizes)
        assert out == _search_oracle(sizes), sizes
        _assert_canonical(out)
        assert len(out) == kernels._match_count(sizes)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=10).filter(lambda s: sum(s) <= 20))
def test_blocks_equal_the_search_on_random_tuples(sizes):
    out = kernels.enumerate_arc_sets(tuple(sizes))
    assert out == _search_oracle(sizes)
    _assert_canonical(out)


def test_blocks_share_one_object_per_arc():
    out = kernels.enumerate_arc_sets((3, 3, 3, 3))
    arcs = [arc for arcs in out for arc in arcs]
    assert len({id(arc) for arc in arcs}) == len(set(arcs))
