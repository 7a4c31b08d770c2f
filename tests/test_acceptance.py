"""Acceptance sweep: every released counting identity, exact, at desk scale.

One test per criterion, each printing a PASS/FAIL line (visible with ``-s``
or on failure).  Two checks (4a, 4b) compare the closed-form stratum counts
(the classical level-budget terms plus each stratum's feasibility bounds)
against enumeration, bucketed by ``verify._stratified_counts``, across the
whole sweep, with no case left out.  The companion identity 4c, the actual
bijection conclusion, holds everywhere.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from fusionkit.bracketing import (
    BracketTree,
    count_truncated,
    enumerate_trees,
    ra_count,
    ra_count_c,
    rb_count,
    rb_count_c,
    satisfies_truncation,
)
from fusionkit.diagrams import enumerate_cm, enumerate_lcm
from fusionkit.geometry import component_census, dim_m, dim_z, nl_condition
from fusionkit.module_action import (
    action_matrices,
    build_basis,
    isotypic_census,
    verify_sl2,
)
from fusionkit.ring import (
    RingElement,
    dim_hom_fusion,
    dim_hom_tensor,
    fuse_many,
    fuse_pair,
    quotient_reduce,
    ring_mul,
    weight_multiplicities,
)
from fusionkit.verify import _stratified_counts

MAX_RANK = 4
MAX_WEIGHT = 4
MAX_LEVEL = 6


def _configs(max_rank=MAX_RANK, max_weight=MAX_WEIGHT):
    for r in range(1, max_rank + 1):
        yield from itertools.product(range(1, max_weight + 1), repeat=r)


def _sweep():
    for ws in _configs():
        for level in range(max(ws), MAX_LEVEL + 1):
            yield ws, level


def _report(num: str, description: str, failures: list[str], cases: int, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f", {extra}" if extra else ""
    print(f"[criterion {num}] {status}: {description} ({cases} cases{suffix})")
    for failure in failures[:5]:
        print(f"    counterexample: {failure}")
    assert not failures, (
        f"criterion {num}: {len(failures)}/{cases} cases failed; first: {failures[:3]}"
    )


def test_criterion_01_fusion_quotient_identity():
    failures, cases = [], 0
    start = time.perf_counter()
    for level in range(1, 11):
        for i in range(1, level + 1):
            for j in range(1, level + 1):
                cases += 1
                reduced = quotient_reduce(
                    ring_mul(RingElement.simple(i), RingElement.simple(j)), level
                )
                fused = fuse_pair(i, j, level)
                if reduced != fused:
                    failures.append(f"i={i} j={j} l={level}: {reduced.coeffs} != {fused.coeffs}")
    elapsed = time.perf_counter() - start
    _report("01", "quotient reduction equals pair fusion", failures, cases, f"{elapsed:.2f}s")
    assert elapsed < 5.0, f"criterion 01 exceeded its 5 s budget: {elapsed:.2f}s"


def test_criterion_02_truncated_counts_equal_fusion_dims():
    failures, cases = [], 0
    start = time.perf_counter()
    for ws, level in _sweep():
        for mu in range(sum(ws) + 1):
            cases += 1
            counted = count_truncated(ws, mu, level)
            expected = dim_hom_fusion(ws, mu, level)
            if counted != expected:
                failures.append(f"ws={ws} mu={mu} l={level}: {counted} != {expected}")
    elapsed = time.perf_counter() - start
    _report("02", "match counts equal fusion multiplicities", failures, cases, f"{elapsed:.2f}s")
    assert elapsed < 60.0, f"criterion 02 exceeded its 60 s budget: {elapsed:.2f}s"


def test_criterion_03_counts_independent_of_bracketing():
    failures, cases = [], 0
    for r in (3, 4):
        trees = enumerate_trees(r)
        for ws in itertools.product(range(1, MAX_WEIGHT + 1), repeat=r):
            for level in range(max(ws), MAX_LEVEL + 1):
                for mu in range(sum(ws) + 1):
                    cases += 1
                    counts = {count_truncated(ws, mu, level, t) for t in trees}
                    if len(counts) != 1:
                        failures.append(f"ws={ws} mu={mu} l={level}: counts {sorted(counts)}")
    _report("03", "truncated counts independent of bracketing", failures, cases)


def test_criterion_04a_stratified_counts_without_cross_arcs():
    failures, cases = [], 0
    for ws in itertools.product(range(1, MAX_WEIGHT + 1), repeat=3):
        w1, w2, w3 = ws
        for level in range(max(ws), MAX_LEVEL + 1):
            by_n, _ = _stratified_counts(ws, level)
            for n in range(sum(ws) // 2 + 1):
                cases += 1
                got = (by_n["s1"].get(n, 0), by_n["s2"].get(n, 0))
                formula = (ra_count(w1, w2, w3, level, n), rb_count(w1, w2, w3, level, n))
                if got != formula:
                    failures.append(f"ws={ws} l={level} n={n}: enumerated {got} vs {formula}")
    _report("04a", "no-cross strata match the closed forms", failures, cases)


def test_criterion_04b_stratified_counts_with_cross_arcs():
    failures, cases = [], 0
    for ws in itertools.product(range(1, MAX_WEIGHT + 1), repeat=3):
        w1, w2, w3 = ws
        for level in range(max(ws), MAX_LEVEL + 1):
            _, by_c = _stratified_counts(ws, level)
            for c in range(1, min(w1, w3) + 1):
                cases += 1
                got = (by_c["s1"].get(c, 0), by_c["s2"].get(c, 0))
                formula = (
                    ra_count_c(w1, w2, w3, level, c),
                    rb_count_c(w1, w2, w3, level, c),
                )
                if got != formula:
                    failures.append(f"ws={ws} l={level} c={c}: enumerated {got} vs {formula}")
    _report("04b", "cross-arc strata match the closed forms", failures, cases)


def test_criterion_04c_closed_forms_agree_with_each_other():
    failures, cases = [], 0
    for ws in itertools.product(range(1, MAX_WEIGHT + 1), repeat=3):
        w1, w2, w3 = ws
        for level in range(max(ws), MAX_LEVEL + 1):
            for n in range(sum(ws) // 2 + 1):
                cases += 1
                if ra_count(w1, w2, w3, level, n) != rb_count(w1, w2, w3, level, n):
                    failures.append(f"ws={ws} l={level} n={n}")
            for c in range(1, min(w1, w3) + 1):
                cases += 1
                if ra_count_c(w1, w2, w3, level, c) != rb_count_c(w1, w2, w3, level, c):
                    failures.append(f"ws={ws} l={level} c={c}")
    _report("04c", "left/right closed forms agree", failures, cases)


def test_criterion_05_match_counts_equal_hom_dimensions():
    failures, cases = [], 0
    for ws in _configs():
        for mu in range(sum(ws) + 1):
            cases += 1
            counted = len(enumerate_cm(ws, mu))
            expected = dim_hom_tensor(ws, mu)
            if counted != expected:
                failures.append(f"ws={ws} mu={mu}: {counted} != {expected}")
    _report("05", "match counts equal intertwiner dimensions", failures, cases)


def test_criterion_06_module_structure_matches_fusion_product():
    failures, cases = [], 0
    for ws, level in _sweep():
        cases += 1
        basis = build_basis(ws, level)
        fused = fuse_many(ws, level)
        matrices = action_matrices(basis)
        problems = []
        if not verify_sl2(matrices):
            problems.append("commutation relations fail")
        if isotypic_census(basis) != fused.coeffs:
            problems.append(f"isotypic census {isotypic_census(basis)} != {fused.coeffs}")
        if basis.dim != fused.total_dim():
            problems.append(f"dim {basis.dim} != {fused.total_dim()}")
        h_census: dict[int, int] = {}
        for value in np.diag(matrices.h):
            h_census[int(value)] = h_census.get(int(value), 0) + 1
        if h_census != weight_multiplicities(fused):
            problems.append("H eigenvalue census mismatch")
        if problems:
            failures.append(f"ws={ws} l={level}: " + "; ".join(problems))
    _report("06", "oriented-match module realizes the fusion product", failures, cases)


def test_criterion_07_kernel_inequalities_equal_budget():
    failures, cases = [], 0
    for ws, level in _sweep():
        tree = BracketTree.left_comb(len(ws))
        for m in enumerate_lcm(ws):
            cases += 1
            nl = nl_condition(m, level)
            budget = satisfies_truncation(m, level, tree)
            if nl != budget:
                failures.append(f"ws={ws} arcs={m.arcs} l={level}: nl={nl} budget={budget}")
    _report("07", "kernel/rank inequalities equal the left-comb budget", failures, cases)


def test_criterion_08_untruncated_census_dimension():
    failures, cases = [], 0
    for ws in _configs(max_rank=5):
        cases += 1
        total = component_census(ws, None).total_dim
        expected = 1
        for w in ws:
            expected *= w + 1
        if total != expected:
            failures.append(f"ws={ws}: {total} != {expected}")
    _report("08", "untruncated census carries the full tensor dimension", failures, cases)


def test_criterion_09_dimension_formulas():
    failures, cases = [], 0
    for w in range(21):
        for v in range(w + 1):
            cases += 1
            if dim_m(v, w) != 2 * v * (w - v) or dim_z(v, v, w) != dim_m(v, w):
                failures.append(f"v={v} w={w}")
        for v1 in range(w + 1):
            for v2 in range(w + 1):
                cases += 1
                if dim_z(v1, v2, w) != v1 * (w - v1) + v2 * (w - v2):
                    failures.append(f"v1={v1} v2={v2} w={w}")
    _report("09", "variety dimension formulas", failures, cases)


def test_criterion_10_reflection_identity():
    failures, cases = [], 0
    for level in range(1, 9):
        for m in range(1, level + 2):
            cases += 1
            got = quotient_reduce(RingElement.simple(level + 1 + m), level)
            expected = RingElement({level + 1 - m: -1})
            if got != expected:
                failures.append(f"l={level} m={m}: {got.coeffs}")
    _report("10", "reflection identity in the level quotient", failures, cases)
