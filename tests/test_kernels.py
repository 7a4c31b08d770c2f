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
    return sorted(
        arcs
        for arcs in set(verify._all_partial_matchings(boxes.total))
        if diagrams.validate(boxes, arcs)
    )


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
