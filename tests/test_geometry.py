"""Dimension formulas, kernel profiles, and the stratum census."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import geometry, verify
from fusionkit.bracketing import (
    BracketTree,
    budget_loads,
    enumerate_trees,
    satisfies_truncation,
    search_budget,
)
from fusionkit.diagrams import LowerMatch, canonical_keys, enumerate_lcm
from fusionkit.geometry import (
    ComponentCensus,
    component_census,
    dim_m,
    dim_z,
    kernel_profile,
    nl_condition,
    nl_threshold,
    truncated_matches,
)
from fusionkit.kernels import enumerate_arc_sets
from fusionkit.ring import fuse_many, weight_multiplicities


# ----------------------------------------------------------- dimension formulas


def test_dim_m_examples():
    assert dim_m(1, 2) == 2
    assert dim_m(0, 7) == 0
    assert dim_m(3, 3) == 0


def test_dim_m_errors():
    with pytest.raises(ValueError):
        dim_m(3, 2)
    with pytest.raises(ValueError):
        dim_m(-1, 2)


def test_dim_z_examples():
    assert dim_z(1, 1, 2) == 2
    assert dim_z(0, 0, 9) == 0
    with pytest.raises(ValueError):
        dim_z(3, 1, 2)


def test_dim_formulas_sweep():
    for w in range(21):
        for v in range(w + 1):
            assert dim_m(v, w) == 2 * v * (w - v)
            assert dim_m(v, w) == dim_m(w - v, w)
            assert dim_z(v, v, w) == dim_m(v, w)
        for v1 in range(w + 1):
            for v2 in range(w + 1):
                assert dim_z(v1, v2, w) == v1 * (w - v1) + v2 * (w - v2)


# -------------------------------------------------------------- kernel profiles


def test_kernel_profile_examples():
    profile = kernel_profile(LowerMatch((1, 1, 1), ((2, 3),)))
    assert profile.dimker == (1, 2, 2)
    assert profile.rank == (0, 0, 1)

    empty = kernel_profile(LowerMatch((2, 3), ()))
    assert empty.dimker == (2, 5)
    assert empty.rank == (0, 0)

    for n in range(1, 4):
        full = LowerMatch((n, n), tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))
        profile = kernel_profile(full)
        assert profile.dimker == (n, n)
        assert profile.rank == (0, n)


def test_kernel_profile_invariants():
    for ws in [(2, 2), (1, 2, 1), (2, 1, 2, 1)]:
        prefix = list(itertools.accumulate(ws))
        for m in enumerate_lcm(ws):
            profile = kernel_profile(m)
            for i in range(len(ws)):
                assert profile.dimker[i] + profile.rank[i] == prefix[i]
            assert all(a <= b for a, b in zip(profile.rank, profile.rank[1:]))


# ------------------------------------------------------- kernel/rank inequality


def test_nl_condition_examples():
    assert nl_condition(LowerMatch((1, 1), ((1, 2),)), 1) is True
    assert nl_condition(LowerMatch((1, 1), ()), 1) is False
    assert nl_condition(LowerMatch((1, 1, 1), ((2, 3),)), 1) is False


def test_nl_condition_equals_left_comb_budget():
    # For a single box the budget has no operations to constrain, while the
    # kernel inequality still enforces w1 <= l; the predicates agree wherever
    # the factors fit the level, and for r >= 2 at every level.
    for r in range(1, 5):
        for ws in itertools.product(range(1, 4), repeat=r):
            tree = BracketTree.left_comb(r)
            for m in enumerate_lcm(ws):
                for level in range(max(ws) if r == 1 else 1, 6):
                    assert nl_condition(m, level) == satisfies_truncation(m, level, tree), (
                        ws,
                        m.arcs,
                        level,
                    )


def _nl_ok_by_prefix(profile, level: int) -> bool:
    """Oracle for the kernel/rank inequalities, checked prefix by prefix."""
    for i in range(len(profile.sizes)):
        bound = level + (profile.rank[i - 1] if i > 0 else 0)
        if profile.dimker[i] > bound:
            return False
    return True


def test_nl_threshold_equals_per_prefix_oracle():
    bounds = verify.Bounds()
    for ws in verify._box_configs(bounds.max_rank, bounds.max_weight):
        for m in enumerate_lcm(ws):
            profile = kernel_profile(m)
            threshold = nl_threshold(m)
            for level in range(threshold - 1, bounds.max_level + 2):
                assert (threshold <= level) == _nl_ok_by_prefix(profile, level), (ws, m.arcs, level)
            assert nl_condition(m, max(threshold, 1))
            if threshold > 1:
                assert not nl_condition(m, threshold - 1)


def _threshold_by_profile(m) -> int:
    """Oracle: the threshold read off the full kernel profile."""
    profile = kernel_profile(m)
    return max(d - r for d, r in zip(profile.dimker, (0,) + profile.rank))


def test_nl_threshold_equals_kernel_profile_on_every_small_box_tuple():
    tuples = [
        ws for r in range(1, 6) for ws in itertools.product(range(5), repeat=r) if sum(ws) <= 12
    ]
    assert len(tuples) == 3183
    checked = 0
    for ws in tuples:
        for m in enumerate_lcm(ws):
            assert nl_threshold(m) == _threshold_by_profile(m), (ws, m.arcs)
            checked += 1
    assert checked == 59594


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.data())
def test_nl_threshold_equals_kernel_profile_on_random_matches(sizes, data):
    # Up to 30 vertices, past the exhaustive test's 12.
    m = data.draw(st.sampled_from(enumerate_lcm(sizes)))
    assert nl_threshold(m) == _threshold_by_profile(m), (sizes, m.arcs)


def test_nl_condition_single_box_enforces_alcove():
    assert nl_condition(LowerMatch((2,), ()), 1) is False
    assert nl_condition(LowerMatch((2,), ()), 2) is True


# ----------------------------------------------------------------------- census


def test_component_census_examples():
    truncated = component_census((1, 1), 1)
    assert truncated.per_mu == {0: 1}
    assert truncated.total_dim == 1
    assert truncated.total_components == 1

    full = component_census((1, 1), None)
    assert full.per_mu == {0: 1, 2: 1}
    assert full.total_dim == 4

    assert component_census((2, 2), 2).total_dim == 1


def test_component_census_labels_in_canonical_order():
    census = component_census((2, 2), None)
    assert census.labels == ("2,2|", "2,2|1-4,2-3", "2,2|2-3")


def test_component_census_rejects_weights_above_level():
    with pytest.raises(ValueError, match="alcove"):
        component_census((3, 1), 2)


def test_component_census_rejects_tree_with_wrong_leaf_count():
    with pytest.raises(ValueError, match="covers leaves 1..5 but there are 2 factors"):
        component_census((1, 1), None, BracketTree.left_comb(5))
    with pytest.raises(ValueError, match="covers leaves 1..5 but there are 2 factors"):
        component_census((1, 1), 2, BracketTree.left_comb(5))
    assert component_census((1, 1), None, BracketTree.left_comb(2)) == component_census((1, 1))


def test_truncated_matches_make_no_budget_check_when_no_scope_can_bind(monkeypatch):
    # A scope's count is at most its vertex count, so from level = total up
    # every match passes and the listing is returned unfiltered; below it a
    # query that only the root binds is still filtered.
    import fusionkit.geometry as geometry_module

    calls = []
    real = geometry_module.satisfies_truncation

    def counted(m, level, tree):
        calls.append(level)
        return real(m, level, tree)

    monkeypatch.setattr(geometry_module, "satisfies_truncation", counted)
    for r in range(1, 4):
        for ws in itertools.product(range(0, 4), repeat=r):
            total = sum(ws)
            for tree in enumerate_trees(r):
                for level in range(max(1, total, *ws), total + 3):
                    assert truncated_matches(ws, level, tree) == enumerate_lcm(ws), (ws, level)
    assert calls == []
    assert len(truncated_matches((2, 2), 3)) == 2 and calls == [3, 3, 3]


def _count_census_work(monkeypatch) -> dict:
    """Count the LowerMatch objects built and the budget checks the census makes from here on."""
    counts = {"matches": 0, "checks": 0}
    wrap = LowerMatch._from_kernel.__func__
    init = LowerMatch.__post_init__
    check = geometry.satisfies_truncation

    def from_kernel(cls, boxes, arcs):
        counts["matches"] += 1
        return wrap(cls, boxes, arcs)

    def post_init(self):
        counts["matches"] += 1
        init(self)

    def checked(m, level, tree):
        counts["checks"] += 1
        return check(m, level, tree)

    monkeypatch.setattr(LowerMatch, "_from_kernel", classmethod(from_kernel))
    monkeypatch.setattr(LowerMatch, "__post_init__", post_init)
    monkeypatch.setattr(geometry, "satisfies_truncation", checked)
    return counts


def test_component_census_builds_matches_only_on_the_filtered_route(monkeypatch):
    # Untruncated, searched and level >= total censuses build no match and
    # make no budget check; a filtered one (only operations covering every
    # vertex bind) builds every match once and checks each once.
    counts = _count_census_work(monkeypatch)
    routes = Counter()
    for r in range(1, 5):
        for ws in itertools.product(range(0, 3), repeat=r):
            total = sum(ws)
            matches = len(enumerate_arc_sets(ws))
            component_census(ws)
            assert counts == {"matches": 0, "checks": 0}, ws
            routes["untruncated"] += 1
            for tree in enumerate_trees(r):
                for level in range(max(1, *ws), total + 2):
                    searched = search_budget(ws, level, tree) is not None
                    component_census(ws, level, tree)
                    if searched or level >= total:
                        assert counts == {"matches": 0, "checks": 0}, (ws, tree, level)
                        routes["searched" if searched else "unbound"] += 1
                    else:
                        assert counts == {"matches": matches, "checks": matches}, (ws, tree, level)
                        routes["filtered"] += 1
                    counts.update(matches=0, checks=0)
    assert all(routes[route] for route in ("untruncated", "searched", "unbound", "filtered"))
    census = component_census((2, 2), 2)
    assert census.total_components == 1
    assert counts == {"matches": 3, "checks": 3}


def test_verify_geometry_suite_reads_the_census(monkeypatch):
    # Its three census properties take their counts from the census that
    # ``fusionkit components`` prints: 1,174 (ws, l) points, 340 untruncated
    # tuples and 62 (w1, w2, l) pairs at default bounds, on one worker, since
    # a forked worker's calls are not seen here.
    monkeypatch.setattr(verify, "MAX_WORKERS", 1)
    calls = []
    real = geometry.component_census

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "component_census", counted)
    results = verify.run_suites(["geometry"], verify.Bounds())
    assert all(result.passed for result in results)
    assert len(calls) == 1_174 + 340 + 62 == 1_576
    assert not hasattr(geometry, "_census_counts")


def _census_fields(census: ComponentCensus) -> tuple:
    return census.per_mu, census.total_components, census.total_dim, census.labels


def _census_of_matches(mus, keys) -> tuple:
    """:func:`_census_fields` of a census of matches with these mus and canonical keys."""
    per_mu = dict(sorted(Counter(mus).items()))
    total_dim = sum((mu + 1) * n for mu, n in per_mu.items())
    return per_mu, len(keys), total_dim, tuple(keys)


def test_census_from_arc_tuples_equals_the_census_of_matches_on_every_tree():
    # The census counts and labels the kernel's arc texts, or on the filtered
    # route the matches that pass.  Its oracle takes the LowerMatch route,
    # independent of the search: every match of enumerate_lcm, kept when its
    # budget load fits the level, counted by ``.mu`` and keyed by
    # canonical_keys.  Levels run from the largest box to
    # one past the vertex count, so walks from the left and from the right,
    # filtered queries and levels that no operation can reach all occur.
    cases = searched = filtered = 0
    for r in range(1, 6):
        trees = enumerate_trees(r)
        for ws in itertools.product(range(0, 4), repeat=r):
            total = sum(ws)
            matches = enumerate_lcm(ws)
            mus = [m.mu for m in matches]
            keys = canonical_keys(matches)
            assert _census_fields(component_census(ws)) == _census_of_matches(mus, keys), ws
            cases += 1
            for tree in trees:
                loads = budget_loads(ws, tree)
                for level in range(max(1, *ws), total + 2):
                    fits = [load <= level for load in loads]
                    want = _census_of_matches(
                        itertools.compress(mus, fits), list(itertools.compress(keys, fits))
                    )
                    assert _census_fields(component_census(ws, level, tree)) == want, (
                        ws, tree, level,
                    )
                    budget = search_budget(ws, level, tree)
                    searched += budget is not None
                    filtered += budget is None and level < total
                    cases += 1
    # 1,364 untruncated and 104,489 truncated cases: 39,484 searched, 33,500
    # filtered and 31,505 at levels that no operation can reach.
    assert (cases, searched, filtered) == (105_853, 39_484, 33_500)


def test_component_census_matches_fusion_dimension():
    for ws in [(1, 1), (2, 2), (2, 1, 2), (1, 1, 1, 1)]:
        for level in range(max(ws), 6):
            census = component_census(ws, level)
            fused = fuse_many(ws, level)
            assert census.per_mu == fused.coeffs, (ws, level)
            assert census.total_dim == fused.total_dim()

            oriented: dict[int, int] = {}
            for label_mu, count in census.per_mu.items():
                for k in range(-label_mu, label_mu + 1, 2):
                    oriented[k] = oriented.get(k, 0) + count
            assert oriented == weight_multiplicities(fused)


def test_untruncated_census_dimension_is_product():
    for r in range(1, 5):
        for ws in itertools.product(range(1, 4), repeat=r):
            expected = 1
            for w in ws:
                expected *= w + 1
            assert component_census(ws, None).total_dim == expected, ws


def test_pair_highest_weight_window():
    for w1, w2 in itertools.product(range(1, 5), repeat=2):
        for level in range(max(w1, w2), 7):
            census = component_census((w1, w2), level)
            for mu in range(w1 + w2 + 1):
                inside = (
                    abs(w1 - w2) <= mu <= min(w1 + w2, 2 * level - w1 - w2)
                    and (mu + w1 + w2) % 2 == 0
                )
                assert census.per_mu.get(mu, 0) == (1 if inside else 0), (w1, w2, level, mu)


def test_component_census_json_roundtrip():
    census = component_census((2, 1, 2), 3)
    assert ComponentCensus.from_json_dict(census.to_json_dict()) == census


def test_component_census_json_rejects_total_components_that_disagrees_with_per_mu():
    obj = component_census((2, 1, 2), 3).to_json_dict()
    obj["total_components"] += 1
    obj["labels"].append(obj["labels"][0])
    with pytest.raises(ValueError, match="total_components"):
        ComponentCensus.from_json_dict(obj)
    with pytest.raises(ValueError, match="total_components 5"):
        ComponentCensus.from_json_dict(
            {"per_mu": {"0": 1}, "total_components": 5, "total_dim": 1, "labels": ["1,1|1-2"]}
        )
    with pytest.raises(ValueError):
        ComponentCensus.from_json_dict(
            {"per_mu": {"0": 1}, "total_components": 5, "total_dim": 9, "labels": []}
        )


def test_component_census_json_rejects_total_components_that_disagrees_with_labels():
    obj = component_census((2, 1, 2), 3).to_json_dict()
    obj["labels"].pop()
    with pytest.raises(ValueError, match="labels"):
        ComponentCensus.from_json_dict(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"per_mu": {"-1": 1}, "total_components": 1, "total_dim": 0, "labels": ["x"]},
         "highest weight"),
        ({"per_mu": {"2": -1, "0": 2}, "total_components": 1, "total_dim": -1, "labels": ["a"]},
         "component count"),
    ],
)
def test_component_census_json_rejects_negative_weights_and_counts(obj, message):
    # Both totals agree with per_mu, so only the sign checks refuse these.
    with pytest.raises(ValueError, match=message):
        ComponentCensus.from_json_dict(obj)


@pytest.mark.parametrize("key", ["٢", " 2", "0_2", "+2"])
def test_component_census_json_weight_keys_are_ascii_digit_runs(key):
    # Both totals agree with per_mu {2: 1}, so only the key check refuses these.
    obj = {"per_mu": {key: 1}, "total_components": 1, "total_dim": 3, "labels": ["x"]}
    with pytest.raises(ValueError, match="ASCII digits for a highest weight"):
        ComponentCensus.from_json_dict(obj)
    assert ComponentCensus.from_json_dict({**obj, "per_mu": {"2": 1}}).per_mu == {2: 1}


def test_component_census_json_rejects_total_dim_that_disagrees_with_per_mu():
    obj = component_census((2, 1, 2), 3).to_json_dict()
    obj["total_dim"] -= 1
    with pytest.raises(ValueError, match="total_dim"):
        ComponentCensus.from_json_dict(obj)
    with pytest.raises(ValueError, match="total_dim 9"):
        ComponentCensus.from_json_dict(
            {"per_mu": {"0": 1}, "total_components": 1, "total_dim": 9, "labels": ["1,1|1-2"]}
        )
