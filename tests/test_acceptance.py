"""Acceptance sweep: every released counting identity, exact, at desk scale.

One test per criterion, each running the matching ``fusionkit.verify``
properties and printing a PASS/FAIL line (visible with ``-s`` or on failure)
with their case counts.  Each criterion also asserts that its sweep is no
smaller than the released one.  Checks 4a and 4b compare the closed-form
stratum counts (the classical level-budget terms plus each stratum's
feasibility bounds) against each comb's own enumeration across the whole
sweep, with no case left out.  The right-comb forms are the left-comb ones on
the reversed factors, so 4c checks that the left-comb forms are symmetric under
that reversal; with 4a and 4b this gives the agreement of the two combs, the
actual bijection conclusion.
"""

from __future__ import annotations

import time

from fusionkit import verify
from fusionkit.geometry import dim_z
from fusionkit.verify import Bounds, PropertyResult


def _report(num: str, description: str, results, min_cases: int, extra: str = ""):
    cases = sum(r.cases for r in results)
    failures = [f for r in results for f in r.failures]
    failure_count = sum(r.failure_count for r in results)
    status = "PASS" if failure_count == 0 else "FAIL"
    counts = " + ".join(str(r.cases) for r in results)
    suffix = f", {extra}" if extra else ""
    print(f"[criterion {num}] {status}: {description} ({counts} cases{suffix})")
    for failure in failures:
        print(f"    counterexample: {failure}")
    assert failure_count == 0, (
        f"criterion {num}: {failure_count}/{cases} cases failed; first: {failures[:3]}"
    )
    assert cases >= min_cases, f"criterion {num}: the sweep shrank to {cases} < {min_cases} cases"


def test_criterion_01_fusion_quotient_identity():
    start = time.perf_counter()
    res = verify._ring_fusion_quotient_identity(Bounds(max_level=10))
    elapsed = time.perf_counter() - start
    _report("01", "quotient reduction equals pair fusion", [res], 385, f"{elapsed:.2f}s")
    assert elapsed < 5.0, f"criterion 01 exceeded its 5 s budget: {elapsed:.2f}s"


def test_criterion_02_truncated_counts_equal_fusion_dims():
    start = time.perf_counter()
    res = verify._bracketing_count_equals_fusion_dim(Bounds())
    elapsed = time.perf_counter() - start
    _report("02", "match counts equal fusion multiplicities", [res], 11573, f"{elapsed:.2f}s")
    assert elapsed < 60.0, f"criterion 02 exceeded its 60 s budget: {elapsed:.2f}s"


def test_criterion_03_counts_independent_of_bracketing():
    res = verify._bracketing_count_independent_of_tree(Bounds())
    _report("03", "truncated counts independent of bracketing", [res], 11163)


def test_criterion_04a_stratified_counts_without_cross_arcs():
    res = verify._bracketing_stratified_no_cross(Bounds())
    _report("04a", "no-cross strata match the closed forms", [res], 991)


def test_criterion_04b_stratified_counts_with_cross_arcs():
    res = verify._bracketing_stratified_with_cross(Bounds())
    _report("04b", "cross-arc strata match the closed forms", [res], 413)


def test_criterion_04c_closed_forms_agree_with_each_other():
    res = verify._bracketing_ra_equals_rb(Bounds())
    _report("04c", "left-comb closed forms agree on reversed factors", [res], 1404)


def test_criterion_05_match_counts_equal_hom_dimensions():
    res = verify._matches_cm_count_equals_hom_dim(Bounds())
    _report("05", "match counts equal intertwiner dimensions", [res], 3470)


def test_criterion_06_module_structure_matches_fusion_product():
    results = [
        verify._module_sl2_relations(Bounds()),
        verify._module_isotypic_equals_fusion(Bounds()),
        verify._module_dimension_matches(Bounds()),
        verify._module_h_weights_match(Bounds()),
    ]
    _report("06", "oriented-match module realizes the fusion product", results, 4 * 1174)


def test_criterion_07_kernel_inequalities_equal_budget():
    res = verify._geometry_nl_equiv_budget(Bounds())
    _report("07", "kernel/rank inequalities equal the left-comb budget", [res], 43038)


def test_criterion_08_untruncated_census_dimension():
    res = verify._geometry_untruncated_dim_product(Bounds(max_rank=5))
    _report("08", "untruncated census carries the full tensor dimension", [res], 1364)


def test_criterion_09_dimension_formulas():
    sums = PropertyResult("geometry", "dim_z_sum")
    for w in range(21):
        for v1 in range(w + 1):
            for v2 in range(w + 1):
                ok = dim_z(v1, v2, w) == v1 * (w - v1) + v2 * (w - v2)
                sums.check(None if ok else f"v1={v1} v2={v2} w={w}")
    formulas = verify._geometry_dim_formulas(Bounds())
    _report("09", "variety dimension formulas", [sums, formulas], 3542)


def test_criterion_10_reflection_identity():
    res = verify._ring_quotient_reflection(Bounds(max_level=8))
    _report("10", "reflection identity in the level quotient", [res], 44)
