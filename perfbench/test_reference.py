"""The benchmark's reference computations against hand-worked values."""

import pytest

from perfbench.reference import (
    cg_fold,
    kw_reduce,
    match_count,
    oriented_count,
    parse_key,
    total_dim,
    truncated_fold,
    valid_match,
)


def test_cg_fold():
    assert cg_fold(()) == {0: 1}
    assert cg_fold((1, 1)) == {0: 1, 2: 1}
    assert cg_fold((2, 3)) == {1: 1, 3: 1, 5: 1}
    # (V0 + V2) (x) V1 = V1 + (V1 + V3)
    assert cg_fold((1, 1, 1)) == {1: 2, 3: 1}
    # (V0 + V2) (x) V2 = V2 + (V0 + V2 + V4)
    assert cg_fold((1, 1, 2)) == {0: 1, 2: 2, 4: 1}
    assert total_dim(cg_fold((4, 4, 4))) == 125


def test_truncated_fold():
    assert truncated_fold((1, 1), 1) == {0: 1}
    assert truncated_fold((1, 1), 2) == {0: 1, 2: 1}
    assert truncated_fold((1, 1, 1), 1) == {1: 1}
    # (V0 + V2) (x) V1 at l=2: V1, then V2 (x) V1 cut at min(3, 4-3) = 1.
    assert truncated_fold((1, 1, 1), 2) == {1: 2}
    assert truncated_fold((2, 3), 3) == {1: 1}
    assert truncated_fold((2, 2), 2) == {0: 1}
    # Level 4 cuts V2 (x) V2 at min(4, 8-4) = 4: nothing is lost.
    assert truncated_fold((2, 2), 4) == cg_fold((2, 2))
    with pytest.raises(ValueError):
        truncated_fold((3, 1), 2)


def test_kw_reduce_reflections():
    # Level 1: [V2] = 0, [V3] = -[V1], [V4] = -[V0]; beyond 2l+2 the walls repeat.
    assert kw_reduce({2: 1}, 1) == {}
    assert kw_reduce({3: 1}, 1) == {1: -1}
    assert kw_reduce({4: 1}, 1) == {0: -1}
    assert kw_reduce({5: 1}, 1) == {}
    assert kw_reduce({6: 1}, 1) == {0: 1}
    assert kw_reduce({7: 1}, 1) == {1: 1}
    assert kw_reduce({8: 1}, 1) == {}
    # Level 2: V2 (x) V2 = V0 + V2 + V4 and [V4] = -[V2].
    assert kw_reduce({0: 1, 2: 1, 4: 1}, 2) == {0: 1}
    # Level 2: V1 (x) V2 = V1 + V3 and [V3] = 0.
    assert kw_reduce({1: 1, 3: 1}, 2) == {1: 1}
    # Weights inside the alcove are kept, coefficients add up.
    assert kw_reduce({0: 2, 3: -1, 5: 1}, 3) == {0: 2, 3: -2}


def test_counts():
    assert match_count((1, 1)) == 2
    assert match_count((2, 2)) == 3
    assert match_count((1, 1, 1, 1)) == 6
    assert oriented_count((4, 4, 4)) == 125
    assert oriented_count(()) == 1


def test_parse_key():
    assert parse_key("2,2|1-4,2-3") == ((2, 2), ((1, 4), (2, 3)))
    assert parse_key("3|") == ((3,), ())
    with pytest.raises(ValueError):
        parse_key("1,1")


@pytest.mark.parametrize(
    "sizes, arcs, ok",
    [
        ((1, 1), (), True),
        ((1, 1), ((1, 2),), True),
        ((2, 2), ((1, 4), (2, 3)), True),
        ((1, 2, 1), ((1, 2), (3, 4)), True),
        ((2,), ((1, 2),), False),  # arc inside one box
        ((1, 1, 1, 1), ((1, 3), (2, 4)), False),  # crossing
        ((1, 1, 1), ((1, 3),), False),  # vertex 2 unmatched under the arc
        ((1, 1, 1), ((1, 2), (2, 3)), False),  # vertex 2 used twice
        ((1, 1), ((2, 1),), False),  # endpoints out of order
        ((1, 1), ((1, 3),), False),  # vertex out of range
        ((0, 1, 0, 1), ((1, 2),), True),
    ],
)
def test_valid_match(sizes, arcs, ok):
    assert valid_match(sizes, arcs) is ok
