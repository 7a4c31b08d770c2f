"""Diagram enumeration against a brute-force oracle and frozen examples."""

from __future__ import annotations

import dataclasses
import itertools
import json

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
    enumerate_cm,
    enumerate_lcm,
    orientations,
    parse_canonical_key,
    validate,
)
from fusionkit.geometry import component_census
from fusionkit.module_action import action_matrices, build_basis
from fusionkit.ring import RingElement, dim_hom_tensor, ring_mul, weight_multiplicities
from fusionkit.verify import _unit_box_matchings

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
    for bad in ["", "a,b|", "1,-1|", "1,1|2-1-3", "1,1|1+2", "2|1-2"]:
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
