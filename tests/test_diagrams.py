"""Diagram enumeration against a brute-force oracle and frozen examples."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import diagrams, kernels
from fusionkit.cli import main
from fusionkit.diagrams import (
    BoxConfig,
    LowerMatch,
    OrientedLowerMatch,
    arc_census,
    canonical_key,
    canonical_keys,
    enumerate_cm,
    enumerate_lcm,
    listing,
    listing_json,
    orientations,
    parse_canonical_key,
    untruncated_listing,
    validate,
)
from fusionkit.bracketing import enumerate_trees
from fusionkit.geometry import component_census, truncated_matches
from fusionkit.module_action import action_matrices, build_basis
from fusionkit.ring import RingElement, dim_hom_tensor, ring_mul, weight_multiplicities
from fusionkit.verify import _all_partial_matchings, _unit_box_matchings

# ----------------------------------------------------------- brute-force oracle


def brute_force_lcm(sizes: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    boxes = BoxConfig(sizes)
    return [arcs for arcs in _unit_box_matchings(boxes.total) if validate(boxes, arcs)]


# --------------------------------------------------------------------- BoxConfig


def test_box_config_basics():
    boxes = BoxConfig((2, 0, 3))
    assert boxes.count == 3
    assert boxes.total == 5
    assert [boxes.box_of(v) for v in range(1, 6)] == [1, 1, 3, 3, 3]
    assert list(boxes.vertices_of(1)) == [1, 2]
    assert list(boxes.vertices_of(2)) == []
    assert list(boxes.vertices_of(3)) == [3, 4, 5]


def test_box_config_errors():
    with pytest.raises(ValueError):
        BoxConfig(())
    with pytest.raises(ValueError):
        BoxConfig((1, -1))
    with pytest.raises(ValueError):
        BoxConfig((1, 1)).box_of(3)


def test_box_config_refuses_more_vertices_than_the_kernel_cap():
    assert BoxConfig((kernels.MAX_VERTICES,)).total == kernels.MAX_VERTICES
    with pytest.raises(ValueError, match="at most 64 vertices, got 65"):
        BoxConfig((32, 33))
    with pytest.raises(ValueError, match="at most 64 vertices, got 30000000") as info:
        parse_canonical_key("30000000|")
    assert "malformed" not in str(info.value)
    with pytest.raises(ValueError, match="at most 64 vertices, got 80"):
        LowerMatch.from_json_dict({"boxes": [40, 40], "arcs": [], "mu": 80})


# ---------------------------------------------------------------------- validate


def test_validate_examples():
    assert validate((1, 1), ((1, 2),)) is True
    assert validate((2,), ((1, 2),)) is False
    assert validate((1, 1, 1), ((1, 3),)) is False


def test_validate_rejects_crossings_and_reuse():
    assert validate((1, 1, 1, 1), ((1, 3), (2, 4))) is False
    assert validate((1, 1, 1, 1), ((2, 4), (1, 3))) is False
    assert validate((1, 1, 1, 1), ((1, 4), (2, 3))) is True
    assert validate((1, 1), ((1, 2), (1, 2))) is False
    assert validate((1, 1), ((0, 2),)) is False
    assert validate((1, 1), ((1, 5),)) is False


def validate_pairwise(boxes, arcs) -> bool:
    """:func:`validate` by pairwise loops, its oracle: range, reuse and box checks
    per arc, then every pair of arcs for a crossing and every unmatched vertex
    against every arc."""
    boxes = BoxConfig.coerce(boxes)
    arcs = sorted(arcs)
    w = boxes.total
    seen: set[int] = set()
    for p, q in arcs:
        if not (1 <= p < q <= w):
            return False
        if p in seen or q in seen:
            return False
        seen.add(p)
        seen.add(q)
        if boxes.box_of(p) == boxes.box_of(q):
            return False
    for i, (p, q) in enumerate(arcs):
        for p2, q2 in arcs[i + 1 :]:
            if p < p2 < q < q2:
                return False
    for u in range(1, w + 1):
        if u in seen:
            continue
        for p, q in arcs:
            if p < u < q:
                return False
    return True


def test_validate_walk_equals_the_pairwise_oracle_on_every_partial_matching():
    # Crossing ones included: every partial matching of 1..w, not only the valid ones.
    matchings = {w: list(_all_partial_matchings(w)) for w in range(9)}
    assert [len(matchings[w]) for w in range(9)] == [1, 1, 2, 4, 10, 26, 76, 232, 764]
    checked = accepted = 0
    for r in range(1, 5):
        for ws in itertools.product(range(0, 4), repeat=r):
            if sum(ws) > 8:
                continue
            for arcs in matchings[sum(ws)]:
                # validate takes the arcs in any order; the walk must not depend on it.
                for given_arcs in (arcs, arcs[::-1]):
                    expected = validate_pairwise(ws, given_arcs)
                    assert validate(ws, given_arcs) is expected, (ws, given_arcs)
                    checked += 1
                    accepted += expected
    # Both verdicts occur, so neither version can pass by answering one way.
    assert 0 < accepted < checked


def test_validate_walk_equals_the_pairwise_oracle_on_malformed_arcs():
    cases = []
    for ws in ((1, 1), (2, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1), (0, 3, 1)):
        w = sum(ws)
        pairs = [(p, q) for p in range(-1, w + 3) for q in range(-1, w + 3)]
        # Out of range, p >= q, or fine on its own.
        cases.extend((ws, (arc,)) for arc in pairs)
        # A vertex used twice, or a malformed arc beside any other.
        cases.extend(
            (ws, (a, b)) for a in pairs for b in pairs if len({*a, *b}) < 4 or a[0] >= a[1]
        )
    rejected = 0
    for ws, arcs in cases:
        expected = validate_pairwise(ws, arcs)
        assert validate(ws, arcs) is expected, (ws, arcs)
        rejected += not expected
    assert rejected > len(cases) // 2


# ------------------------------------------------------- validity by construction


def test_construction_rejects_invalid_arcs():
    for sizes, arcs in [
        ((2,), ((1, 2),)),
        ((1, 1, 1), ((1, 3),)),
        ((1, 1, 1, 1), ((1, 3), (2, 4))),
        ((1, 1), ((1, 2), (1, 2))),
        ((1, 1), ((1, 5),)),
    ]:
        with pytest.raises(ValueError, match="invalid lower match"):
            LowerMatch(sizes, arcs)


def test_replace_rejects_invalid_arcs():
    m = LowerMatch((1, 1, 1, 1), ((1, 4), (2, 3)))
    assert dataclasses.replace(m, arcs=((1, 2), (3, 4))).arcs == ((1, 2), (3, 4))
    with pytest.raises(ValueError, match="invalid lower match"):
        dataclasses.replace(m, arcs=((1, 3), (2, 4)))


def test_kernel_matches_equal_user_built_matches():
    for r in range(1, 5):
        for ws in itertools.product(range(0, 4), repeat=r):
            for m in enumerate_lcm(ws):
                rebuilt = LowerMatch(m.boxes, m.arcs)
                assert rebuilt == m and hash(rebuilt) == hash(m), (ws, m.arcs)


def test_validate_runs_once_per_user_built_match_and_never_on_kernel_output(
    monkeypatch, capsys
):
    calls = []

    def counting(boxes, arcs):
        calls.append(arcs)
        return validate(boxes, arcs)

    monkeypatch.setattr(diagrams, "validate", counting)
    component_census((2, 2, 2, 2), 3)
    action_matrices(build_basis((2, 1, 2), 3))
    assert main(["matches", "-b", "2,1,2", "--oriented"]) == 0
    assert capsys.readouterr().out.count("weight=") == 18
    assert calls == []

    LowerMatch((1, 1), ((1, 2),))
    parse_canonical_key("2,2|1-4,2-3")
    LowerMatch.from_json_dict({"boxes": [1, 1], "arcs": [[1, 2]], "mu": 0})
    assert len(calls) == 3


# ------------------------------------------------------------------- enumeration


def test_enumerate_lcm_examples():
    found = enumerate_lcm((1, 1))
    assert [m.arcs for m in found] == [(), ((1, 2),)]
    assert [m.mu for m in found] == [2, 0]

    single = enumerate_lcm((2,))
    assert [m.arcs for m in single] == [()]
    assert single[0].mu == 2

    assert len(enumerate_cm((1, 1, 1, 1), 0)) == 2


def test_enumerate_cm_examples():
    assert [m.arcs for m in enumerate_cm((1, 1), 0)] == [((1, 2),)]
    assert enumerate_cm((1, 1), 1) == []
    assert [m.arcs for m in enumerate_cm((2, 2), 0)] == [((1, 4), (2, 3))]


def test_enumerate_cm_is_the_mu_slice_of_enumerate_lcm():
    for r in range(1, 5):
        for ws in itertools.product(range(0, 4), repeat=r):
            full = enumerate_lcm(ws)
            for mu in range(sum(ws) + 2):
                assert enumerate_cm(ws, mu) == [m for m in full if m.mu == mu], (ws, mu)


def test_enumeration_matches_brute_force():
    configs = [
        (1,),
        (4,),
        (0, 2),
        (1, 1),
        (2, 2),
        (3, 2),
        (1, 1, 1),
        (2, 1, 2),
        (1, 2, 0, 1),
        (2, 2, 2),
        (1, 1, 1, 1),
        (3, 3, 2),
        (2, 2, 2, 2),
    ]
    for sizes in configs:
        fast = [m.arcs for m in enumerate_lcm(sizes)]
        assert fast == brute_force_lcm(sizes), sizes


def test_enumeration_canonical_order():
    for sizes in [(2, 2), (1, 1, 1), (2, 1, 2), (3, 3)]:
        found = [m.arcs for m in enumerate_lcm(sizes)]
        assert found == sorted(found)
        assert found[0] == ()


def test_cm_counts_equal_hom_dimensions():
    for r in range(1, 4):
        for ws in itertools.product(range(1, 5), repeat=r):
            for mu in range(sum(ws) + 1):
                assert len(enumerate_cm(ws, mu)) == dim_hom_tensor(ws, mu), (ws, mu)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_enumerated_matches_are_valid_and_unnested(sizes):
    total_oriented = 0
    for m in enumerate_lcm(tuple(sizes)):
        assert validate(m.boxes, m.arcs)
        free = m.unmatched()
        assert not any(p < u < q for u in free for p, q in m.arcs)
        total_oriented += m.mu + 1
    expected = 1
    for w in sizes:
        expected *= w + 1
    assert total_oriented == expected


def test_oriented_weight_census_matches_ring():
    for ws in [(1, 1), (2, 1), (2, 2, 1), (1, 1, 1, 1)]:
        census: dict[int, int] = {}
        for m in enumerate_lcm(ws):
            for o in orientations(m):
                census[o.weight] = census.get(o.weight, 0) + 1
        product = RingElement.unit()
        for w in ws:
            product = ring_mul(product, RingElement.simple(w))
        assert census == weight_multiplicities(product), ws


# ------------------------------------------------------------------ orientations


def test_orientations_examples():
    perfect = enumerate_cm((1, 1), 0)[0]
    assert [o.downs for o in orientations(perfect)] == [0]

    empty = enumerate_lcm((1, 1))[0]
    oriented = orientations(empty)
    assert [o.downs for o in oriented] == [0, 1, 2]
    assert [o.weight for o in oriented] == [2, 0, -2]
    assert sum(m.mu + 1 for m in enumerate_lcm((1, 1))) == 4


def test_orientations_reject_invalid_match():
    with pytest.raises(ValueError):
        orientations(LowerMatch((2,), ((1, 2),)))


def test_oriented_vertex_split():
    empty = enumerate_lcm((2, 1))[0]
    o = OrientedLowerMatch(empty, 1)
    assert o.up_vertices() == (1, 2)
    assert o.down_vertices() == (3,)
    with pytest.raises(ValueError):
        OrientedLowerMatch(empty, 4)


def test_orientations_and_basis_elements_equal_the_checked_constructor():
    # Every match of rank <= 4 with sizes 0-3, and every basis of the same
    # tuples at levels max(ws)..4: the orientations built without the check
    # are those of the checked constructor, field by field.
    oriented = 0
    for r in range(1, 5):
        for ws in itertools.product(range(4), repeat=r):
            for m in enumerate_lcm(ws):
                assert m.mu == m.boxes.total - 2 * len(m.arcs) == len(m.unmatched())
                got = orientations(m)
                expected = [OrientedLowerMatch(m, k) for k in range(m.mu + 1)]
                assert got == expected, (ws, m.arcs)
                assert [(o.base, o.downs, o.weight) for o in got] == [
                    (o.base, o.downs, o.weight) for o in expected
                ]
                assert all(o.base is m and type(o.downs) is int for o in got)
                oriented += len(got)
            for level in range(max(max(ws), 1), 5):
                basis = build_basis(ws, level)
                assert basis.elements == tuple(
                    OrientedLowerMatch(m, k) for m in basis.matches for k in range(m.mu + 1)
                ), (ws, level)
    # The product of (w + 1) over the boxes, summed over the 340 tuples.
    assert oriented == sum(
        math.prod(w + 1 for w in ws)
        for r in range(1, 5)
        for ws in itertools.product(range(4), repeat=r)
    )


# -------------------------------------------------------------------- arc census


def test_arc_census_examples():
    census = arc_census(LowerMatch((1, 1, 1), ((2, 3),)))
    assert census.c == (0, 0, 1)
    assert census.b == (1, 1, 0)

    assert arc_census(LowerMatch((1, 1), ((1, 2),))).c == (0, 1)

    m = LowerMatch((2, 2), ((2, 3),))
    assert arc_census(m).c == (0, 1)
    assert m.mu == 2


def test_arc_census_endpoints_by_box():
    census = arc_census(LowerMatch((2, 2), ((2, 3),)))
    assert census.endpoints_by_box == ((2,), (3,))


# ---------------------------------------------------------------- canonical keys


def test_canonical_key_examples():
    assert canonical_key(LowerMatch((1, 1), ())) == "1,1|"
    assert canonical_key(LowerMatch((1, 1), ((1, 2),))) == "1,1|1-2"


def test_canonical_key_injective_and_parseable():
    seen = set()
    for sizes in [(2, 2), (1, 1, 1), (2, 1, 2), (0, 3, 1)]:
        for m in enumerate_lcm(sizes):
            key = canonical_key(m)
            assert key not in seen
            seen.add(key)
            assert parse_canonical_key(key) == m


def test_parse_canonical_key_rejects_garbage():
    # From "\u0663" on, int() reads each number, but canonical_key writes
    # only runs of ASCII digits.
    for bad in ["", "a,b|", "1,-1|", "1,1|2-1-3", "1,1|1+2", "2|1-2",
                "\u0663", "+3|", " 3|", "1_0|", "1,1|1- 2", "1,1|\u0661-2"]:
        with pytest.raises(ValueError):
            parse_canonical_key(bad)


# ------------------------------------------------------------------------- JSON


def test_lower_match_json_roundtrip():
    for m in enumerate_lcm((2, 1, 2)):
        assert LowerMatch.from_json_dict(m.to_json_dict()) == m
        for o in orientations(m):
            assert OrientedLowerMatch.from_json_dict(o.to_json_dict()) == o


def test_lower_match_json_rejects_mu_that_disagrees_with_arcs():
    with pytest.raises(ValueError, match="mu 7"):
        LowerMatch.from_json_dict({"boxes": [1, 1], "arcs": [[1, 2]], "mu": 7})


def test_oriented_json_rejects_weight_that_disagrees_with_downs():
    obj = {"boxes": [1, 1], "arcs": [], "mu": 2, "downs": 1, "weight": 2}
    with pytest.raises(ValueError, match="weight 2"):
        OrientedLowerMatch.from_json_dict(obj)
    assert OrientedLowerMatch.from_json_dict({**obj, "weight": 0}).weight == 0


def test_lower_match_json_rejects_invalid_arcs():
    with pytest.raises(ValueError, match="invalid lower match"):
        LowerMatch.from_json_dict({"boxes": [2], "arcs": [[1, 2]], "mu": 0})


def _list_built_json(x) -> dict:
    """The JSON dict as it was built before ``to_json_dict`` returned tuples."""
    m = x.base if isinstance(x, OrientedLowerMatch) else x
    out = {"boxes": list(m.boxes.sizes), "arcs": [list(arc) for arc in m.arcs], "mu": m.mu}
    if isinstance(x, OrientedLowerMatch):
        out["downs"] = x.downs
        out["weight"] = x.weight
    return out


def test_json_text_of_tuples_equals_that_of_lists():
    seen = 0
    for sizes in [(2, 3, 1, 2), (0, 2, 0, 2, 1)]:
        for m in enumerate_lcm(sizes):
            for x in [m, *orientations(m)]:
                text = json.dumps(x.to_json_dict(), separators=(",", ":"))
                assert text == json.dumps(_list_built_json(x), separators=(",", ":"))
                assert type(x).from_json_dict(json.loads(text)) == x
                assert type(x).from_json_dict(x.to_json_dict()) == x
                seen += 1
    # 16 matches with 3*4*2*3 orientations, and 5 with 3*3*2.
    assert seen == 16 + 72 + 5 + 18


# ------------------------------------------------------------- listing writers


def _text_lines(matches, oriented) -> str:
    """The text listing as ``fusionkit matches`` wrote it line by line from the keys."""
    if oriented:
        lines = [
            f"{canonical_key(m)} downs={o.downs} weight={o.weight}"
            for m in matches
            for o in orientations(m)
        ]
    else:
        lines = [f"{canonical_key(m)} mu={m.mu}" for m in matches]
    return "\n".join(lines) if lines else "(none)"


def _assert_writers_match_oracles(matches):
    """The batch writers against the single-match forms they replace in listings."""
    assert canonical_keys(matches) == [canonical_key(m) for m in matches]
    assert listing(matches) == _text_lines(matches, False)
    assert listing(matches, "text", oriented=True) == _text_lines(matches, True)
    plain = [m.to_json_dict() for m in matches]
    assert listing_json(matches) == json.dumps(plain, separators=(",", ":"))
    oriented = [o.to_json_dict() for m in matches for o in orientations(m)]
    assert listing_json(matches, oriented=True) == json.dumps(oriented, separators=(",", ":"))


def test_listing_writers_equal_their_oracles_on_every_small_box_tuple():
    tuples = matches = 0
    for rank in range(1, 5):
        for sizes in itertools.product(range(4), repeat=rank):
            found = enumerate_lcm(sizes)
            _assert_writers_match_oracles(found)
            tuples += 1
            matches += len(found)
    assert (tuples, matches) == (340, 2489)


def test_listing_writers_equal_their_oracles_on_truncated_lists():
    for sizes, level in [((2, 3, 2, 3), 4), ((3, 1, 2, 4, 4), 7), ((4, 4, 4, 4, 4), 6)]:
        for tree in enumerate_trees(len(sizes)):
            _assert_writers_match_oracles(truncated_matches(sizes, level, tree))


def test_listing_writers_equal_their_oracles_on_filtered_empty_and_mixed_lists():
    _assert_writers_match_oracles([m for m in enumerate_lcm((2, 3, 1, 2)) if m.mu == 2])
    _assert_writers_match_oracles([m for m in enumerate_lcm((2, 2, 2)) if m.mu == 7])
    _assert_writers_match_oracles([])
    # The head memo is keyed by the box sizes, so the two tuples of rank 3
    # must not share a head; the arc memo is keyed by the arc alone and
    # serves every tuple.
    mixed = [
        *enumerate_lcm((2, 2, 2)),
        *enumerate_lcm((1, 2, 0, 3)),
        *enumerate_lcm((2, 1, 3)),
        *enumerate_lcm((2, 2, 2))[::-1],
    ]
    _assert_writers_match_oracles(mixed)
    assert canonical_keys(mixed)[0] == "2,2,2|" and listing_json([]) == "[]"
    # Arcs given out of order and as lists, normalized by the constructor.
    m = LowerMatch((1, 2, 1), [[4, 3], [1, 2]])
    _assert_writers_match_oracles([m, LowerMatch((1, 2, 1)), m])


# ------------------------------------------------------------- block listings

LISTING_FORMS = [(fmt, oriented) for fmt in ("text", "json") for oriented in (False, True)]


def test_block_listing_equals_the_match_list_writers_on_every_small_box_tuple():
    listings = 0
    for rank in range(1, 5):
        for sizes in itertools.product(range(4), repeat=rank):
            found = enumerate_lcm(sizes)
            for mu in [None, *range(sum(sizes) + 2)]:
                chosen = found if mu is None else [m for m in found if m.mu == mu]
                for fmt, oriented in LISTING_FORMS:
                    got = untruncated_listing(sizes, fmt, oriented, mu)
                    assert got == listing(chosen, fmt, oriented), (sizes, mu, fmt, oriented)
                    listings += 1
    # 340 tuples, each without a mu and with each of 0..total+1, in four forms.
    assert listings == 11592


def test_block_listing_equals_the_match_list_writers_on_the_benchmark_listings():
    for sizes in [
        (4, 4, 4, 4, 4, 4, 4, 4),
        (4, 4, 4, 4, 3, 3, 3, 3),
        (3, 3, 3, 3, 3, 3, 3, 3),
        (4, 4, 4, 4, 4, 4, 4),
        (3, 3, 3, 3, 3, 3, 3),
        (4, 3, 4, 3, 4, 3, 2),
        (1, 2, 3, 4, 1, 2, 3, 4),
    ]:
        found = enumerate_lcm(sizes)
        for fmt, oriented in LISTING_FORMS:
            assert untruncated_listing(sizes, fmt, oriented) == listing(found, fmt, oriented)


def test_block_listing_checks_its_input_before_listing():
    with pytest.raises(ValueError, match="at most 1000000 matches"):
        untruncated_listing((4,) * 16)
    with pytest.raises(ValueError, match="nonnegative"):
        untruncated_listing((2, 2), mu=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        untruncated_listing((2, -2))
    assert untruncated_listing(BoxConfig((1, 1)), "json", mu=0) == (
        '[{"boxes":[1,1],"arcs":[[1,2]],"mu":0}]'
    )
