"""Ring arithmetic: decomposition, fusion, quotient reduction.

Expected values for the decomposition formulas are frozen from an independent
character oracle: multiply Laurent characters and peel summands greedily from
the top weight.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.bracketing import BracketTree, _check_level, enumerate_trees, parse_bracketing
from fusionkit.ring import (
    RingElement,
    _product,
    dim_hom_fusion,
    dim_hom_tensor,
    fuse_many,
    fuse_pair,
    quotient_reduce,
    ring_mul,
    tensor_cg,
    tensor_many,
    weight_multiplicities,
)

# ------------------------------------------------------------ character oracle


def char_of_simple(k: int) -> dict[int, int]:
    return {e: 1 for e in range(-k, k + 1, 2)}


def char_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, ci in a.items():
        for j, cj in b.items():
            out[i + j] = out.get(i + j, 0) + ci * cj
    return {k: v for k, v in out.items() if v}


def decompose_character(char: dict[int, int]) -> dict[int, int]:
    """Greedy top-weight peeling of a character into simple characters."""
    char = dict(char)
    out: dict[int, int] = {}
    while char:
        top = max(char)
        mult = char[top]
        assert mult > 0, "not a character of a genuine module"
        out[top] = mult
        for e in range(-top, top + 1, 2):
            c = char.get(e, 0) - mult
            if c:
                char[e] = c
            else:
                char.pop(e, None)
    return out


def tensor_oracle(i: int, j: int) -> dict[int, int]:
    return decompose_character(char_mul(char_of_simple(i), char_of_simple(j)))


# ------------------------------------------------------------------ RingElement


def test_ring_element_normalizes_and_compares():
    x = RingElement({2: 1, 0: 3, 5: 0})
    assert x.coeffs == {0: 3, 2: 1}
    assert x.support() == (0, 2)
    assert x.coeff(5) == 0
    assert x == RingElement({0: 3, 2: 1})
    assert hash(x) == hash(RingElement({2: 1, 0: 3}))
    assert x.total_dim() == 3 * 1 + 1 * 3
    assert bool(RingElement()) is False


def test_ring_element_rejects_negative_weights():
    with pytest.raises(ValueError):
        RingElement({-1: 2})


def test_ring_element_arithmetic():
    x = RingElement({0: 1, 2: 1})
    y = RingElement({2: -1, 4: 2})
    assert (x + y).coeffs == {0: 1, 4: 2}
    assert (x - y).coeffs == {0: 1, 2: 2, 4: -2}
    assert (2 * x).coeffs == {0: 2, 2: 2}
    assert (-y).is_effective() is False


def test_format_text():
    assert RingElement().format_text() == "0"
    assert RingElement({0: 1}).format_text() == "V0"
    assert RingElement({0: 2, 2: 1}).format_text() == "2·V0 + V2"


@given(
    st.dictionaries(st.integers(0, 12), st.integers(-4, 4), max_size=6)
)
def test_ring_element_json_roundtrip(coeffs):
    x = RingElement(coeffs)
    assert RingElement.from_json_dict(x.to_json_dict()) == x
    keys = list(x.to_json_dict()["coeffs"])
    assert keys == sorted(keys, key=int)


@pytest.mark.parametrize("key", ["٣", " 2", "1_0", "+2", "-1", "2 "])
def test_ring_element_json_keys_are_ascii_digit_runs(key):
    # int() would read these as 3, 2, 10, 2, -1 and 2.
    with pytest.raises(ValueError, match="ASCII digits"):
        RingElement.from_json_dict({"coeffs": {key: 1}})
    with pytest.raises(ValueError, match="ASCII digits"):
        RingElement({key: 1})
    assert RingElement.from_json_dict({"coeffs": {"3": 1, "10": -2}}).coeffs == {3: 1, 10: -2}


# --------------------------------------- results built without re-validation


def _product_oracle(x: RingElement, y: RingElement, level: int | None = None) -> RingElement:
    """Oracle: the weight strings summed term by term into the validating constructor."""
    acc: dict[int, int] = {}
    for i, ci in x.items():
        for j, cj in y.items():
            top = i + j if level is None else min(i + j, 2 * level - i - j)
            for k in range(abs(i - j), top + 1, 2):
                acc[k] = acc.get(k, 0) + ci * cj
    return RingElement(acc)


def _assert_same_element(got: RingElement, expected: RingElement) -> None:
    assert got == expected
    assert hash(got) == hash(expected)
    assert list(got.coeffs.items()) == list(expected.coeffs.items())
    assert got.support() == expected.support()


ELEMENTS = st.dictionaries(st.integers(0, 8), st.integers(-2, 2), max_size=5).map(RingElement)


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, ELEMENTS, st.one_of(st.none(), st.integers(1, 8)))
def test_products_equal_the_validated_constructor(x, y, level):
    _assert_same_element(_product(x, y, level), _product_oracle(x, y, level))
    _assert_same_element(x * y, _product_oracle(x, y))


def test_products_drop_coefficients_that_cancel():
    # V1·V1 = V0 + V2 and V1·V3 = V2 + V4, so V2 cancels in V1·(V1 - V3).
    got = RingElement({1: 1}) * RingElement({1: 1, 3: -1})
    _assert_same_element(got, RingElement({0: 1, 4: -1}))
    _assert_same_element(got, _product_oracle(RingElement({1: 1}), RingElement({1: 1, 3: -1})))
    # At level 2 the string of V2·V2 is cut to V0 alone, and V0 - V0 leaves zero.
    zero = _product(RingElement({2: 1, 0: -1}), RingElement({2: 1, 0: 1}), 2)
    _assert_same_element(zero, RingElement())
    assert not zero


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5), st.integers(0, 3), st.data())
def test_fuse_many_equals_a_fold_through_the_validated_constructor(ws, extra, data):
    level = max(max(ws), 1) + extra
    tree = data.draw(st.sampled_from(enumerate_trees(len(ws))))
    expected = tree.fold(
        lambda i: RingElement.simple(ws[i - 1]), lambda a, b: _product_oracle(a, b, level)
    )
    _assert_same_element(fuse_many(ws, level, tree), expected)


# -------------------------------------------------------------------- tensor_cg


def test_tensor_cg_examples():
    assert tensor_cg(1, 2).coeffs == {1: 1, 3: 1}
    for j in (0, 1, 5):
        assert tensor_cg(0, j).coeffs == {j: 1}
    assert tensor_cg(3, 3).coeffs == {0: 1, 2: 1, 4: 1, 6: 1}
    assert tensor_cg(3, 3).coeffs == tensor_oracle(3, 3)


def test_tensor_cg_matches_character_oracle():
    for i in range(13):
        for j in range(13):
            element = tensor_cg(i, j)
            assert element.coeffs == tensor_oracle(i, j), (i, j)
            assert element.total_dim() == (i + 1) * (j + 1)
            assert element == tensor_cg(j, i)


def test_tensor_cg_rejects_negative():
    with pytest.raises(ValueError):
        tensor_cg(-1, 2)


# -------------------------------------------------------------------- fuse_pair


def test_fuse_pair_examples():
    assert fuse_pair(1, 1, 1).coeffs == {0: 1}
    assert fuse_pair(1, 1, 2).coeffs == {0: 1, 2: 1}
    assert fuse_pair(2, 2, 2).coeffs == {0: 1}


def test_fuse_pair_rejects_weights_outside_alcove():
    with pytest.raises(ValueError, match="alcove"):
        fuse_pair(2, 1, 1)
    with pytest.raises(ValueError, match="alcove"):
        fuse_pair(1, 3, 2)
    with pytest.raises(ValueError):
        fuse_pair(1, 1, 0)


def test_fuse_pair_is_truncated_tensor_product():
    for level in range(1, 11):
        for i in range(level + 1):
            for j in range(level + 1):
                top = min(i + j, 2 * level - i - j)
                expected = {k: 1 for k in tensor_cg(i, j).coeffs if k <= top}
                assert fuse_pair(i, j, level).coeffs == expected, (i, j, level)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 8))
def test_fuse_pair_symmetric(i, j, level):
    if max(i, j) > level:
        return
    assert fuse_pair(i, j, level) == fuse_pair(j, i, level)


# -------------------------------------------------------------------- fuse_many


def test_fuse_many_examples():
    left = parse_bracketing("((12)3)", 3)
    right = parse_bracketing("(1(23))", 3)
    assert fuse_many([1, 1, 1], 1, left).coeffs == {1: 1}
    assert fuse_many([1, 1, 1], 1, right).coeffs == {1: 1}
    assert fuse_many([3], 5).coeffs == {3: 1}
    assert fuse_many([], 1).coeffs == {0: 1}


def test_fuse_many_defaults_to_left_comb():
    assert fuse_many([2, 2, 1], 3) == fuse_many([2, 2, 1], 3, BracketTree.left_comb(3))


def test_fuse_many_leaf_count_mismatch():
    with pytest.raises(ValueError, match="covers leaves 1..3 but there are 2 factors"):
        fuse_many([1, 1], 2, BracketTree.left_comb(3))


def test_fuse_many_folds_deep_trees_without_recursion():
    # At level 2, V1 x V1 = V0 + V2 and V1 x V0 = V1 x V2 = V1, so 1500 copies give 2^749 (V0 + V2).
    expected = {0: 2**749, 2: 2**749}
    assert fuse_many([1] * 1500, 2).coeffs == expected
    assert fuse_many([1] * 1500, 2, BracketTree.right_comb(1500)).coeffs == expected


def test_fuse_many_independent_of_bracketing():
    for r in range(2, 5):
        trees = enumerate_trees(r)
        for level in range(1, 7):
            for ws in itertools.product(range(1, min(4, level) + 1), repeat=r):
                results = {fuse_many(ws, level, t) for t in trees}
                assert len(results) == 1, (ws, level)


# --------------------------------------------------------------------- ring_mul


def test_ring_mul_examples():
    y = RingElement({3: 2, 7: 1})
    assert ring_mul(RingElement.unit(), y) == y
    assert ring_mul(RingElement({1: 1}), RingElement({1: 1})).coeffs == {0: 1, 2: 1}
    assert ring_mul(RingElement({1: 2}), RingElement({1: 1})).coeffs == {0: 2, 2: 2}


def test_ring_mul_operator_and_scalar():
    assert (RingElement({1: 1}) * RingElement({1: 1})).coeffs == {0: 1, 2: 1}


def test_ring_mul_associative_commutative_on_generators():
    simples = [RingElement.simple(i) for i in range(9)]
    for i, j, k in itertools.product(range(9), repeat=3):
        left = ring_mul(ring_mul(simples[i], simples[j]), simples[k])
        right = ring_mul(simples[i], ring_mul(simples[j], simples[k]))
        assert left == right, (i, j, k)
        if k == 0:
            assert ring_mul(simples[i], simples[j]) == ring_mul(simples[j], simples[i])


# -------------------------------------------------------------- quotient_reduce


def quotient_reduce_by_row_reduction(x: RingElement, level) -> RingElement:
    """Reduce to the canonical representative supported on weights 0..l.

    Works in the span of [V_0]..[V_M] (M the top weight of ``x``), row-reduces
    the ideal slice spanned by [V_{l+1}]·[V_j] for j = 0..M-l-1 with the
    highest weight of each row as the pivot, and eliminates every coordinate
    of ``x`` above l.  The pivots land exactly on weights l+1..M, so the
    representative is unique and the arithmetic, though rational inside the
    elimination, returns integers.
    """
    level = _check_level(level)
    top = x.max_weight()
    if top is None or top <= level:
        return x

    width = top + 1
    gens = [ring_mul(RingElement.simple(level + 1), RingElement.simple(j)) for j in range(top - level)]
    rows = [[Fraction(g.coeff(k)) for k in range(width)] for g in gens]

    # Row reduce, pivoting each row on its highest-weight nonzero column.
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        for col in range(width - 1, -1, -1):
            if row[col] == 0:
                continue
            if col in pivots:
                factor = row[col]
                row[:] = [a - factor * b for a, b in zip(row, pivots[col])]
            else:
                inv = Fraction(1) / row[col]
                pivots[col] = [a * inv for a in row]
                break

    vec = [Fraction(x.coeff(k)) for k in range(width)]
    for col in sorted(pivots, reverse=True):
        if vec[col] != 0:
            factor = vec[col]
            vec = [a - factor * b for a, b in zip(vec, pivots[col])]

    out: dict[int, int] = {}
    for k, a in enumerate(vec):
        if a != 0:
            if a.denominator != 1 or k > level:
                raise AssertionError("quotient reduction left a non-integral or high term")
            out[k] = int(a)
    return RingElement(out)


@settings(max_examples=200)
@given(
    st.integers(1, 24).flatmap(
        lambda level: st.tuples(
            st.just(level),
            st.dictionaries(st.integers(0, 4 * level + 10), st.integers(-3, 3), max_size=8),
        )
    )
)
def test_quotient_reduce_equals_row_reduction(case):
    level, coeffs = case
    x = RingElement(coeffs)
    assert quotient_reduce(x, level) == quotient_reduce_by_row_reduction(x, level)


def test_quotient_reduce_examples():
    for level in (1, 3, 6):
        for k in range(level + 1):
            assert quotient_reduce(RingElement.simple(k), level) == RingElement.simple(k)
        assert quotient_reduce(RingElement.simple(level + 1), level) == RingElement.zero()
        assert quotient_reduce(RingElement.simple(level + 2), level).coeffs == {level: -1}


def test_quotient_reflection_identity():
    for level in range(1, 9):
        for m in range(1, level + 2):
            got = quotient_reduce(RingElement.simple(level + 1 + m), level)
            assert got == RingElement({level + 1 - m: -1}), (level, m)


def test_quotient_reduce_agrees_with_fuse_pair():
    for level in range(1, 7):
        for i in range(1, level + 1):
            for j in range(1, level + 1):
                product = ring_mul(RingElement.simple(i), RingElement.simple(j))
                assert quotient_reduce(product, level) == fuse_pair(i, j, level), (i, j, level)


@settings(max_examples=60)
@given(
    st.dictionaries(st.integers(0, 14), st.integers(-3, 3), max_size=5),
    st.dictionaries(st.integers(0, 14), st.integers(-3, 3), max_size=5),
    st.integers(1, 6),
)
def test_quotient_reduce_linear_and_idempotent(a, b, level):
    x, y = RingElement(a), RingElement(b)
    rx = quotient_reduce(x, level)
    assert quotient_reduce(x + y, level) == rx + quotient_reduce(y, level)
    assert quotient_reduce(rx, level) == rx
    assert all(k <= level for k in rx.support())


# ------------------------------------------------------------------ tensor_many


def test_tensor_many_examples():
    assert tensor_many([]) == RingElement.unit()
    assert tensor_many([3]) == RingElement.simple(3)
    assert tensor_many([1, 1, 1]).coeffs == {1: 2, 3: 1}
    assert tensor_many(iter([2, 0, 1])) == tensor_cg(2, 1)


def test_ring_inputs_are_checked_before_the_product():
    # A string weight must not slip through RingElement's JSON-key coercion.
    with pytest.raises(TypeError):
        tensor_cg("3", 1)
    with pytest.raises(TypeError):
        fuse_pair("1", 1, 2)
    with pytest.raises(TypeError):
        tensor_many(["1"])
    with pytest.raises(ValueError, match="highest weight must be a nonnegative integer, got -1"):
        tensor_many([-1])


# --------------------------------------------------------------- hom dimensions


def test_dim_hom_tensor_examples():
    assert dim_hom_tensor([1, 1], 0) == 1
    assert dim_hom_tensor([1, 1, 1, 1], 0) == 2
    assert dim_hom_tensor([2], 1) == 0
    assert dim_hom_tensor([], 0) == 1


def test_dim_hom_tensor_against_character_oracle():
    for ws in itertools.product(range(5), repeat=3):
        char = char_of_simple(0)
        for w in ws:
            char = char_mul(char, char_of_simple(w))
        oracle = decompose_character(char)
        for mu in range(sum(ws) + 1):
            assert dim_hom_tensor(ws, mu) == oracle.get(mu, 0), (ws, mu)


def test_dim_hom_fusion_examples():
    pair = BracketTree.left_comb(2)
    assert dim_hom_fusion([1, 1], 2, 1, pair) == 0
    assert dim_hom_fusion([1, 1], 0, 1, pair) == 1
    assert dim_hom_fusion([1, 1, 1], 1, 1, parse_bracketing("((12)3)", 3)) == 1


# -------------------------------------------------------- weight multiplicities


def test_weight_multiplicities_examples():
    assert weight_multiplicities(RingElement({1: 1})) == {-1: 1, 1: 1}
    assert weight_multiplicities(RingElement({0: 1, 2: 1})) == {-2: 1, 0: 2, 2: 1}
    assert weight_multiplicities(fuse_many([2, 2], 2)) == {0: 1}


def test_weight_multiplicities_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        weight_multiplicities(RingElement({2: -1}))


def test_weight_multiplicities_total_dimension():
    for i in range(6):
        for j in range(6):
            product = tensor_cg(i, j)
            census = weight_multiplicities(product)
            assert sum(census.values()) == product.total_dim()
            assert census == {-k: v for k, v in census.items()}
