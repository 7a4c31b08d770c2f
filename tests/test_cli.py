"""CLI contract: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fusionkit
from fusionkit import verify
from fusionkit.cli import build_parser, main
from fusionkit.diagrams import LowerMatch, OrientedLowerMatch, enumerate_lcm
from fusionkit.geometry import ComponentCensus, component_census
from fusionkit.render import ascii_diagram, svg_diagram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------- fuse


def test_fuse_text_output(capsys):
    code, out, _ = run(capsys, "fuse", "--weights", "1,1", "--level", "1")
    assert code == 0
    assert out.strip() == "V0"


def test_fuse_json_output(capsys):
    code, out, _ = run(capsys, "fuse", "--weights", "1,1", "--level", "2", "--format", "json")
    assert code == 0
    assert out.strip() == '{"coeffs":{"0":1,"2":1}}'


def test_fuse_with_bracketing(capsys):
    code, out, _ = run(
        capsys, "fuse", "--weights", "1,1,1", "--level", "1", "--bracketing", "(1(23))"
    )
    assert code == 0
    assert out.strip() == "V1"


def test_fuse_mu_flag(capsys):
    code, out, _ = run(capsys, "fuse", "--weights", "2,2", "--level", "3", "--mu", "2")
    assert code == 0
    assert out.strip() == "1"


def test_fuse_requires_level(capsys):
    code, _, err = run(capsys, "fuse", "--weights", "1,1")
    assert code == 2
    assert "--level" in err


def test_fuse_alcove_violation_exits_one(capsys):
    code, _, err = run(capsys, "fuse", "--weights", "2,1", "--level", "1")
    assert code == 1
    assert "alcove" in err


def test_fuse_negative_mu_exits_one(capsys):
    code, out, err = run(capsys, "fuse", "--weights", "1,1", "--level", "2", "--mu", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--mu" in err


def test_fuse_rejects_bad_bracketing_as_usage_error(capsys):
    code, _, err = run(
        capsys, "fuse", "--weights", "1,1", "--level", "2", "--bracketing", "((1)2)"
    )
    assert code == 2
    assert "bracketing" in err


def test_fuse_of_many_factors_runs_without_recursion(capsys):
    code, out, err = run(capsys, "fuse", "-w", ",".join(["0"] * 2000), "-l", "1")
    assert (code, out, err) == (0, "V0\n", "")


def test_deeply_nested_bracketing_is_a_usage_error(capsys):
    code, out, err = run(capsys, "fuse", "-w", "1,1", "-l", "2", "-s", "(" * 3000)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --bracketing") and "Traceback" not in err
    assert len(err) < 200


@pytest.mark.parametrize("text", ["((\u0661\u0662)\u0663)", "((12)\u00b2)"])
def test_bracketing_with_non_ascii_digits_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "fuse", "-w", "1,1,1", "-l", "2", "-s", text)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --bracketing: unexpected character")


@pytest.mark.parametrize(
    "argv",
    [
        ("matches", "-b", "\u0663,1"),
        ("matches", "-b", "1_0"),
        ("fuse", "-w", "\u0662,2", "-l", "\u0663"),
        ("fuse", "-w", "2,2", "-l", "3", "-m", "+2"),
        ("tensor", "-w", "1, 1"),
        ("matches", "-b", "1,1", "-l", " 3"),
        ("components", "-b", "1,1", "-l", "\uff13"),
        ("render", "2|", "--downs", "\u0661"),
        ("verify", "--max-rank", "\u0663"),
        ("verify", "--max-level", "1_0"),
    ],
)
def test_integer_flags_take_only_ascii_digit_runs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument" in err


def test_integer_flag_errors_keep_their_text_and_negatives_reach_the_domain_checks(capsys):
    code, _, err = run(capsys, "fuse", "-w", "1,1", "-l", "x")
    assert code == 2
    assert err.endswith("error: argument --level/-l: invalid int value: 'x'\n")
    code, out, err = run(capsys, "components", "-b", "2,2", "-l", "-1")
    assert (code, out) == (1, "")
    assert err == "error: level must be a positive integer, got -1\n"
    code, out, _ = run(capsys, "fuse", "-w", "1,1", "-l", "2", "-m", "-0")
    assert (code, out) == (0, "1\n")


def test_fuse_rejects_svg_format(capsys):
    code, _, _ = run(capsys, "fuse", "--weights", "1,1", "--level", "1", "--format", "svg")
    assert code == 2


def test_malformed_weight_list_is_usage_error(capsys):
    code, _, _ = run(capsys, "fuse", "--weights", "1,x", "--level", "1")
    assert code == 2


# ----------------------------------------------------------------------- tensor


def test_tensor_output(capsys):
    code, out, _ = run(capsys, "tensor", "--weights", "1,1")
    assert code == 0
    assert out.strip() == "V0 + V2"


def test_tensor_has_no_level_flag(capsys):
    code, _, _ = run(capsys, "tensor", "--weights", "1,1", "--level", "2")
    assert code == 2


def test_tensor_negative_mu_exits_one(capsys):
    code, out, err = run(capsys, "tensor", "--weights", "1,1", "--mu", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--mu" in err


# ---------------------------------------------------------------------- matches


def test_matches_listing(capsys):
    code, out, _ = run(capsys, "matches", "--boxes", "1,1")
    assert code == 0
    assert out.splitlines() == ["1,1| mu=2", "1,1|1-2 mu=0"]


def test_matches_filtered(capsys):
    code, out, _ = run(capsys, "matches", "--boxes", "1,1", "--mu", "0", "--level", "1")
    assert code == 0
    assert out.splitlines() == ["1,1|1-2 mu=0"]


def test_matches_oriented(capsys):
    code, out, _ = run(capsys, "matches", "--boxes", "2", "--oriented")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "2| downs=0 weight=2"
    assert lines[2] == "2| downs=2 weight=-2"


def test_matches_json_roundtrip(capsys):
    code, out, _ = run(capsys, "matches", "--boxes", "2,2", "--format", "json")
    assert code == 0
    parsed = [LowerMatch.from_json_dict(obj) for obj in json.loads(out)]
    assert parsed == enumerate_lcm((2, 2))


def test_matches_bracketing_requires_level(capsys):
    code, _, err = run(capsys, "matches", "--boxes", "1,1,1", "--bracketing", "((12)3)")
    assert code == 2
    assert "--level" in err


def test_matches_negative_mu_exits_one(capsys):
    code, out, err = run(capsys, "matches", "--boxes", "1,1", "--mu", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--mu" in err


def test_matches_alcove_violation_exits_one_like_components(capsys):
    for command in ("matches", "components"):
        code, out, err = run(capsys, command, "--boxes", "5,1", "--level", "2")
        assert code == 1
        assert out == ""
        assert err == "error: highest weight 5 lies outside the level alcove 0..2\n"


def _env_importing_this_fusionkit() -> dict[str, str]:
    src = str(Path(fusionkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_matches_closed_stdout_exits_quietly():
    # 172 kB of output overfills the pipe, so the write after the close must fail.
    with subprocess.Popen(
        [sys.executable, "-m", "fusionkit.cli", "matches", "--boxes", "4,4,4,4,4", "--oriented"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env_importing_this_fusionkit(),
    ) as proc:
        assert proc.stdout.readline() == b"4,4,4,4,4| downs=0 weight=20\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


def test_matches_refuses_a_listing_that_cannot_finish():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionkit.cli", "matches", "-b", ",".join(["4"] * 16)],
        capture_output=True,
        env=_env_importing_this_fusionkit(),
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: enumeration supports at most 1000000 matches")


def test_import_does_not_load_numpy():
    code = "import sys, fusionkit, fusionkit.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=_env_importing_this_fusionkit(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


# ------------------------------------------------------------------- components


def test_components_truncated(capsys):
    code, out, _ = run(capsys, "components", "--boxes", "1,1", "--level", "1")
    assert code == 0
    assert "total_dim: 1" in out


def test_components_untruncated(capsys):
    code, out, _ = run(capsys, "components", "--boxes", "1,1")
    assert code == 0
    assert "total_dim: 4" in out


def test_components_level_none_sentinel(capsys):
    _, omitted, _ = run(capsys, "components", "--boxes", "1,1")
    _, explicit, _ = run(capsys, "components", "--boxes", "1,1", "--level", "none")
    assert explicit == omitted


def test_components_json(capsys):
    code, out, _ = run(
        capsys, "components", "--boxes", "2,2", "--level", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dim"] == 1
    assert ComponentCensus.from_json_dict(payload) == component_census((2, 2), 2)


# ----------------------------------------------------------------------- verify


def test_verify_bound_defaults_are_those_of_bounds():
    args = build_parser().parse_args(["verify"])
    bounds = verify.Bounds()
    assert (args.max_rank, args.max_weight, args.max_level) == (
        bounds.max_rank, bounds.max_weight, bounds.max_level
    )


def test_verify_bounds_read_their_fields_as_integers():
    # Each of these constructed before and failed partway through a sweep, or
    # on a comparison of a string with 1.
    for bad in ({"max_level": 2.5}, {"max_weight": 2.0}, {"max_rank": "3"}):
        with pytest.raises(TypeError, match="integer"):
            verify.Bounds(**bad)
    with pytest.raises(ValueError, match="max_rank must be at least 1"):
        verify.Bounds(max_rank=0)

    class Three:
        def __index__(self):
            return 3

    bounds = verify.Bounds(max_rank=Three(), max_weight=Three(), max_level=Three())
    assert bounds == verify.Bounds(3, 3, 3)
    assert all(type(value) is int for value in dataclasses.astuple(bounds))


def test_property_result_counts_a_none_case_as_a_pass():
    result = verify.PropertyResult("ring", "example")
    for _ in range(3):
        result.check(None)
    assert (result.cases, result.failure_count, result.failures) == (3, 0, [])
    assert result.passed


def test_property_result_counts_a_text_case_as_a_failure_and_keeps_the_first_five():
    result = verify.PropertyResult("ring", "example")
    result.check(None)
    for i in range(8):
        result.check(f"case {i}")
    result.check(None)
    assert verify.MAX_COUNTEREXAMPLES == 5
    assert (result.cases, result.failure_count) == (10, 8)
    assert result.failures == [f"case {i}" for i in range(5)]
    assert not result.passed
    # An empty text is still a counterexample; only None passes.
    result = verify.PropertyResult("ring", "example")
    result.check("")
    assert (result.failure_count, result.failures) == (1, [""])


def test_verify_ring_suite_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "ring",
        "--max-rank", "3", "--max-weight", "3", "--max-level", "4",
    )
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_geometry_suite_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "geometry",
        "--max-rank", "2", "--max-weight", "2", "--max-level", "3",
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_bracketing_reports_closed_form_gap(capsys, monkeypatch):
    # Closed forms bounded by the level budget alone overcount once the level
    # stops binding; the suite must surface such a gap, with counterexamples,
    # exit 1.  The real forms carry their feasibility bounds and pass.
    import fusionkit.bracketing as bracketing_module

    argv = (
        "verify", "--suite", "bracketing",
        "--max-rank", "3", "--max-weight", "2", "--max-level", "4",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "FAIL" not in out

    def unbounded_ra(w1, w2, w3, level, n):
        return max(0, min(w1, n) - max(w1 + w2 - level, w1 + w2 + w3 - n - level) + 1)

    def unbounded_rb(w1, w2, w3, level, n):
        return max(0, min(w3, n) - max(w2 + w3 - level, w1 + w2 + w3 - n - level) + 1)

    monkeypatch.setattr(bracketing_module, "ra_count", unbounded_ra)
    monkeypatch.setattr(bracketing_module, "rb_count", unbounded_rb)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "[bracketing] truncated_count_equals_fusion_dim: PASS" in out
    assert "[bracketing] stratified_no_cross_closed_form: FAIL" in out
    assert "counterexample:" in out
    assert "[bracketing] ra_equals_rb: PASS" in out


def test_verify_fault_injection_surfaces_counterexample(capsys, monkeypatch):
    import fusionkit.geometry as geometry_module

    real = geometry_module.dim_m
    monkeypatch.setattr(
        geometry_module, "dim_m", lambda v, w: real(v, w) + (v == 1 and w == 2)
    )
    code, out, _ = run(
        capsys, "verify", "--suite", "geometry",
        "--max-rank", "2", "--max-weight", "2", "--max-level", "2",
    )
    assert code == 1
    assert "dim_formulas: FAIL" in out
    assert "counterexample: v=1 w=2" in out


def test_verify_failure_report_is_pinned(capsys, monkeypatch):
    # Dropping the highest weight of every level-cut product breaks the ring,
    # bracketing, module and geometry suites at once; the report of those
    # failures (8 FAIL lines, 40 counterexamples) is pinned byte for byte.
    import fusionkit.ring as ring_module

    real = ring_module._product

    def drop_top(x, y, level=None):
        out = real(x, y, level)
        if level is None or not out.coeffs:
            return out
        top = max(out.coeffs)
        return ring_module.RingElement({k: c for k, c in out.coeffs.items() if k != top})

    monkeypatch.setattr(ring_module, "_product", drop_top)
    code, out, _ = run(
        capsys, "verify", "--suite", "all",
        "--max-rank", "3", "--max-weight", "3", "--max-level", "4",
    )
    assert code == 1
    assert out.count("FAIL") == 8 and out.count("counterexample:") == 40
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ab0ef1042b5f59be8b882ec7a436d718108932e259138e47b4036586004794a0"
    )


def test_verify_builds_each_basis_and_folds_each_module_product_once(capsys, monkeypatch):
    import fusionkit.module_action as module_action_module
    import fusionkit.ring as ring_module

    calls = {"build_basis": 0, "fuse_many": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(module_action_module, "build_basis")
    counted(ring_module, "fuse_many")
    # One worker: a forked worker's calls are not counted here.
    monkeypatch.setattr(verify, "MAX_WORKERS", 1)
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f79697aa4e0e3e6a5bfaebd1fe0544475cdcce6448efb850e83f81f9b8e91212"
    )
    # 1,174 (ws, l) module points, each built and folded once by its group;
    # the other fuse_many calls are the ring, bracketing and geometry sweeps'.
    assert calls == {"build_basis": 1174, "fuse_many": 8370}


# The properties registered in groups, each group declared by one sweep.
GROUPED = {
    "matches": (
        "cm_count_equals_hom_dim",
        "oriented_total_dimension",
        "weight_census",
        "brute_force_equivalence",
        "no_nested_unmatched",
    ),
    "bracketing": (
        "stratified_no_cross_closed_form",
        "stratified_cross_closed_form",
        "ra_equals_rb",
    ),
    "module": (
        "sl2_relations",
        "isotypic_equals_fusion_coeffs",
        "dimension_matches_fusion",
        "h_weight_census",
    ),
}
SMALL = verify.Bounds(max_rank=3, max_weight=3, max_level=4)


def _break_every_group(monkeypatch):
    """Faults that fail properties of every group: products lose their top weight,
    and the no-cross closed form loses its feasibility bounds."""
    import fusionkit.bracketing as bracketing_module
    import fusionkit.ring as ring_module

    real = ring_module._product

    def drop_top(x, y, level=None):
        out = real(x, y, level)
        if not out.coeffs:
            return out
        top = max(out.coeffs)
        return ring_module.RingElement({k: c for k, c in out.coeffs.items() if k != top})

    def unbounded_ra(w1, w2, w3, level, n):
        return max(0, min(w1, n) - max(w1 + w2 - level, w1 + w2 + w3 - n - level) + 1)

    monkeypatch.setattr(ring_module, "_product", drop_top)
    monkeypatch.setattr(bracketing_module, "ra_count", unbounded_ra)


def _summary(result):
    return (result.suite, result.name, result.cases, result.failure_count, result.failures)


def test_verify_grouped_properties_run_alone_equal_their_run_suites_results(monkeypatch):
    _break_every_group(monkeypatch)
    props = [prop for suite in GROUPED for prop in verify.SUITES[suite]]
    results = verify.run_suites(list(GROUPED), SMALL)
    grouped = [(prop, _summary(r)) for prop, r in zip(props, results) if r.name in GROUPED[r.suite]]
    assert [summary[:2] for _, summary in grouped] == [
        (suite, name) for suite, names in GROUPED.items() for name in names
    ]
    for prop, expected in reversed(grouped):
        assert _summary(prop(SMALL)) == expected
    assert {summary[0] for _, summary in grouped if summary[3]} == set(GROUPED)
    # The private names the acceptance tests call are the registered callables.
    assert [prop for prop, _ in grouped] == [
        verify._matches_cm_count_equals_hom_dim,
        verify._matches_oriented_total_dimension,
        verify._matches_weight_census,
        verify._matches_brute_force_equivalence,
        verify._matches_no_nested_unmatched,
        verify._bracketing_stratified_no_cross,
        verify._bracketing_stratified_with_cross,
        verify._bracketing_ra_equals_rb,
        verify._module_sl2_relations,
        verify._module_isotypic_equals_fusion,
        verify._module_dimension_matches,
        verify._module_h_weights_match,
    ]


def test_verify_holds_no_result_between_runs(monkeypatch):
    first = verify.run_suites(list(GROUPED), SMALL)
    assert all(r.passed for r in first)
    _break_every_group(monkeypatch)
    second = verify.run_suites(list(GROUPED), SMALL)
    assert [(r.suite, r.name, r.cases) for r in second] == [
        (r.suite, r.name, r.cases) for r in first
    ]
    assert {r.suite for r in second if not r.passed} == set(GROUPED)
    monkeypatch.undo()
    assert all(r.passed for r in verify.run_suites(list(GROUPED), SMALL))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_two_workers_equal_one_on_planted_defects(monkeypatch):
    _break_every_group(monkeypatch)
    names = list(verify.SUITES)
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    serial = [_summary(r) for r in verify.run_suites(names, SMALL)]
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    sharded = [_summary(r) for r in verify.run_suites(names, SMALL)]
    _no_child_left()
    assert sharded == serial
    # The forked worker's counterexamples are among the first five kept:
    # worker 0 alone keeps other texts for some property.
    alone = verify._run(names, SMALL, (0, 2), lambda results, points: results)
    assert any(mine.failures != summary[4] for mine, summary in zip(alone, serial))
    assert sum(summary[3] > verify.MAX_COUNTEREXAMPLES for summary in serial) >= 5


def test_verify_raises_a_forked_worker_error_with_its_text(monkeypatch):
    import fusionkit.ring as ring_module

    parent = os.getpid()
    real = ring_module.tensor_cg

    def planted(i, j):
        if os.getpid() != parent:
            raise ValueError(f"planted fault at i={i}")
        return real(i, j)

    monkeypatch.setattr(ring_module, "tensor_cg", planted)
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError, match="verify worker 1 failed") as raised:
        verify.run_suites(["ring"], SMALL)
    _no_child_left()
    assert "ValueError: planted fault at i=1" in str(raised.value)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_verify_kills_and_reaps_its_workers_when_it_raises(monkeypatch, error):
    import fusionkit.ring as ring_module

    parent = os.getpid()
    real = ring_module.tensor_cg

    def planted(i, j):
        if os.getpid() == parent:
            raise error("planted in worker 0")
        return real(i, j)

    monkeypatch.setattr(ring_module, "tensor_cg", planted)
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    with pytest.raises(error, match="planted in worker 0"):
        verify.run_suites(list(verify.SUITES), verify.Bounds())
    _no_child_left()


def test_verify_shards_of_a_three_way_split_sum_to_the_serial_run(monkeypatch):
    # The shards run one after another in this process, with no fork: workers
    # 2 and 1 keep each group's part, as plain data; worker 0 merges them.
    import marshal

    import fusionkit.bracketing as bracketing_module
    import fusionkit.diagrams as diagrams_module
    import fusionkit.geometry as geometry_module
    import fusionkit.module_action as module_action_module
    import fusionkit.ring as ring_module

    _break_every_group(monkeypatch)
    calls: dict[str, int] = {}
    for module, name in (
        (diagrams_module, "enumerate_lcm"),
        (bracketing_module, "count_truncated"),
        (module_action_module, "build_basis"),
        (ring_module, "fuse_many"),
        (geometry_module, "component_census"),
    ):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    names = list(verify.SUITES)
    parts: dict[int, list] = {1: [], 2: []}
    per_shard = {}
    for worker in (2, 1):
        calls.clear()

        def keep(results, points, kept=parts[worker]):
            kept.append(marshal.loads(marshal.dumps(verify._partial(results, points))))
            return results

        verify._run(names, SMALL, (worker, 3), keep)
        per_shard[worker] = dict(calls)
    groups = iter(zip(parts[1], parts[2]))

    def merge(results, points):
        return verify._merge(results, points, next(groups))

    calls.clear()
    merged = verify._run(names, SMALL, (0, 3), merge)
    per_shard[0] = dict(calls)
    assert next(groups, None) is None
    calls.clear()
    serial = verify._run(names, SMALL)
    assert [_summary(r) for r in merged] == [_summary(r) for r in serial]
    assert set(calls) == set(per_shard[0]) == set(per_shard[1]) == set(per_shard[2])
    for name, count in calls.items():
        assert sum(shard[name] for shard in per_shard.values()) == count, name
        assert all(shard[name] < count for shard in per_shard.values()), name


@pytest.mark.parametrize("workers", [2, 4])
def test_verify_shards_of_the_box_tuples_hold_even_vertex_totals(monkeypatch, workers):
    # Dealt every n-th point, the shards held 1480/1650 vertices with 2
    # workers and 655/740/825/910 with 4: a tuple's index parity is its last
    # weight's.
    configs = list(verify._box_configs(4, 4))
    totals, taken = [], []
    for worker in range(workers):
        monkeypatch.setattr(verify, "_shard", (worker, workers))
        totals.append(sum(sum(ws) for ws in verify._points(configs)))
        taken += verify._points(range(len(configs)))
    assert sorted(taken) == list(range(len(configs)))
    assert max(totals) <= 1.01 * min(totals), totals


def test_verify_output_is_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "verify", "--suite", "module",
            "--max-rank", "2", "--max-weight", "2", "--max-level", "3",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------- render


def test_render_ascii_cup(capsys):
    code, out, _ = run(capsys, "render", "1,1|1-2")
    assert code == 0
    assert ".---." in out
    assert out.count("o") == 2


def test_render_by_index(capsys):
    code, out, _ = run(capsys, "render", "1", "--boxes", "1,1")
    assert code == 0
    assert ".---." in out


def test_render_oriented_marks(capsys):
    code, out, _ = run(capsys, "render", "0", "--boxes", "2", "--downs", "1")
    assert code == 0
    assert "^" in out and "v" in out


def test_render_svg(capsys):
    code, out, _ = run(
        capsys, "render", "0", "--boxes", "1,1", "--downs", "1", "--format", "svg"
    )
    assert code == 0
    assert out.startswith("<svg")
    assert "polygon" in out
    assert "line" in out


def test_render_svg_arc_path(capsys):
    code, out, _ = run(capsys, "render", "1,1|1-2", "--format", "svg")
    assert code == 0
    assert "<path" in out and " A " in out


def test_render_out_file(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    code, out, _ = run(
        capsys, "render", "1,1|1-2", "--format", "svg", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("<svg")


def test_render_refuses_downs_beyond_the_unmatched_count():
    m = LowerMatch((1, 1), ())
    for draw in (ascii_diagram, svg_diagram):
        with pytest.raises(ValueError, match=r"downs must lie in 0\.\.2, got 3"):
            draw(m, 3)
        with pytest.raises(ValueError, match=r"downs must lie in 0\.\.2, got -1"):
            draw(m, -1)


def test_render_unknown_key_exits_one(capsys):
    code, _, err = run(capsys, "render", "9,9|banana")
    assert code == 1
    assert "key" in err


def test_render_index_out_of_range_exits_one(capsys):
    code, _, _ = run(capsys, "render", "99", "--boxes", "1,1")
    assert code == 1


def test_render_takes_only_ascii_digits_as_an_index(capsys):
    # "²" passes str.isdigit() but int() refuses it, so it is read as a key.
    code, _, err = run(capsys, "render", "\u00b2", "--boxes", "1,1")
    assert code == 1
    assert "malformed match key '\u00b2'" in err


@pytest.mark.parametrize("key", ["\u0663", "+3|", " 3|", "1_0|"])
def test_render_refuses_numbers_that_are_not_ascii_digit_runs(capsys, key):
    # int() reads each as 3 or 10 and a box was drawn, but canonical_key
    # never writes any of these texts.
    code, out, err = run(capsys, "render", key)
    assert (code, out) == (1, "")
    assert f"malformed match key {key!r}" in err


def test_oversized_boxes_exit_one_at_once(capsys):
    # A 30M-vertex key used to build a 90M-column drawing until the process
    # was killed; every way in refuses more than 64 vertices before any work.
    for argv in (
        ("render", "30000000|"),
        ("render", "0", "--boxes", "30000000"),
        ("matches", "-b", "65"),
        ("components", "-b", "33,32"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "at most 64 vertices" in err, argv
        assert time.perf_counter() - start < 1.0, argv


def test_render_index_without_boxes_is_usage_error(capsys):
    code, _, _ = run(capsys, "render", "0")
    assert code == 2


# ------------------------------------------------------------------ determinism


def test_listings_are_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "matches", "--boxes", "2,1,2", "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


# sha256 digests of outputs recorded before `LowerMatch` became valid by
# construction. Listings, error text and exit codes are a stable contract, so
# any later change must reproduce them byte for byte.
PARENT_DIGESTS = [
    (("matches", "-b", "4,4,4,4", "-f", "json"), 0, "out",
     "202929c2c409618113c7c79a6139d57382502d2622c45e18eddedbf3c1435bfa"),
    (("matches", "-b", "3,3,3", "--oriented"), 0, "out",
     "c2e30e5b8d278d0192d0c9747ca82f8d54c5fd950690779c76284b318c15d262"),
    (("components", "-b", "4,4,4,4,4,4", "-l", "5", "-f", "json"), 0, "out",
     "bda9f2e2b9e0fad361c6e6fab0de3b3b256ea5c9d504c05ac6be732067c1208f"),
    (("render", "2,2|1-4,2-3", "--format", "svg"), 0, "out",
     "ca4ccd2bf6a067903fa61122676896d59a095127ac850a2db53a537d83b75df1"),
    (("fuse", "-w", "2,2,2", "-l", "4"), 0, "out",
     "cce43c18d7555d8d4429cb7272c210e70c677be4bea9a7b1047b8d0117dbc8e6"),
    (("fuse", "-w", "2,2,2", "-l", "4", "-m", "2", "-f", "json"), 0, "out",
     "c40a9387bab3b24b09d2c87ef43fcdd12972b9ecc0c4d6b1be5bd4a071120c9e"),
    (("tensor", "-w", "2,2,2", "-f", "json"), 0, "out",
     "03621e2b12907206600933c2d339f1ee327a802e1ddf509db6d3b4042da732c5"),
    (("tensor", "-w", "2,2,2", "-m", "2"), 0, "out",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    (("render", "2|1-2"), 1, "err",
     "d26653870e574c17dc959810635094f9f7f2427b4788b7f1b9c708d8511ef5da"),
    (("components", "-b", "5,1", "-l", "2"), 1, "err",
     "adf1c98f9f3147ed7c69c7779da65f822ccacf1b96e27a0b1ecb5b1079c130b3"),
]


# sha256 digests recorded before the weight string, the default bracketing and
# the vertex layout each got one owner: truncated listings, non-default
# bracketings, the plain tensor fold and a small verify sweep.
SHARED_DEFAULTS_DIGESTS = [
    (("matches", "-b", "2,3,2,3", "-l", "4", "-s", "(1(2(34)))"), 0, "out",
     "60956b895bce382c1dcac95c1aee2a8a7c9e8959f83855171712be77a8cd4f31"),
    (("matches", "-b", "2,3,2,3", "-l", "4", "-m", "2"), 0, "out",
     "0e8f87bd1f96d7b02d886afa0579de5a453f2df602441cef16dcd8752c6ed905"),
    (("components", "-b", "3,2,3,2,1", "-l", "4", "-s", "((1(23))(45))", "-f", "json"), 0, "out",
     "b12c9a64dd718e704d4f1d7eeaca67c940f7915e72b5494e98b3c820ba4f1f22"),
    (("tensor", "-w", "2,3,1", "-f", "json"), 0, "out",
     "ba6625727237c0671dd083ad8e505a541b7c48c1c525de04ff1f69507e08ae81"),
    (("fuse", "-w", "2,3,1", "-l", "3", "-s", "(1(23))"), 0, "out",
     "c6fbb8b696fd8c31cbe7c9dfbc8e3465afc780f8f6159979a23b0b03227b1bd0"),
    (("verify", "--suite", "all", "--max-rank", "3", "--max-weight", "3", "--max-level", "4"), 0, "out",
     "c242c0e02bcf6bf3ddbfeb8ac28f24f13c107e15fbba0ec840fd3aa6ce59df70"),
]

# sha256 digests recorded before the truncated search learned to prune at each
# operation's last box: queries where an operation ends before the last vertex
# (only one does in the last listing), and the cap's refusal on a truncated
# query.
PRUNED_SEARCH_DIGESTS = [
    (("components", "-b", "4,4,4,4,4,4,4,4", "-l", "6", "-f", "json"), 0, "out",
     "f4538ab9ae58635a1f11c78f72c818e76232d0350be4cd4f9538f8c80540211c"),
    (("components", "-b", "3,3,3,3,3,3,3,3", "-l", "5", "-s", "(((12)(34))(((56)7)8))",
      "-f", "json"), 0, "out",
     "d18b42986ebe2a820b9fad833299805ee4594b76eb95887c7daa47ee76707cb3"),
    (("matches", "-b", "3,1,2,4,4", "-l", "7", "-s", "((1(2(34)))5)", "--oriented"), 0, "out",
     "015822ce2617dcde17006dfba8cde672d318568ccffccf9c98754b9629cf6730"),
    (("matches", "-b", "2,2,2,2,2,2", "-l", "3", "-m", "2"), 0, "out",
     "5d88e8a6a568bf31e2f2afc38dc2451781a7599c67032f030aa1b7d94d8fcbc2"),
    (("components", "-b", "4,4,3,2,2,3,1", "-l", "5", "-s", "(1(2(3(4((56)7)))))"), 0, "out",
     "1607e1d927f66b28f45b3dafff4603d76709617d159164e0e22239e23ccf4c90"),
    (("matches", "-b", ",".join(["4"] * 16), "-l", "4"), 1, "err",
     "ccc00736ecc0ac55a4a2e274422db40c315b05ac57a9c8d7d580e4e0f4044f52"),
]


# sha256 digests recorded before untruncated listings were built from blocks
# and serialized from tuples: listing forms no digest above covers, among
# them a right comb, whose truncated listing takes the untruncated path.
BLOCK_LISTING_DIGESTS = [
    (("matches", "-b", "2,3,1,2", "--oriented", "-f", "json"), 0, "out",
     "721810a93f1c0a0324e7137e720b6345ce4f2f385f3737dec8dcfc32f8379b47"),
    (("matches", "-b", "3,2,3,2"), 0, "out",
     "991c7ae81994a0e6b80f6e76bd4d3a45bf82f9871689ced9cbf7d22c3edd05d8"),
    (("matches", "-b", "2,2,2", "-m", "7"), 0, "out",
     "5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f"),
    (("matches", "-b", "0,2,0,2,1", "-f", "json"), 0, "out",
     "a536a1f37e9e6d5374f218498ac4a912e702683b3286a4891fc0d150981f0de4"),
    (("matches", "-b", "3,3,3,3,3", "-l", "4", "-s", "(1(2(3(45))))", "--oriented", "-f", "json"),
     0, "out", "c5f5feebcb296a7fc8eaa381bdf1c128ac74ebbe814b7687e898100e1f566149"),
]


# sha256 digests recorded before listings were written from per-arc text:
# the empty JSON listings, zero-size boxes in an oriented text listing, and
# census labels.
TEXT_WRITER_DIGESTS = [
    (("matches", "-b", "2,2,2", "-m", "7", "-f", "json"), 0, "out",
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    (("matches", "-b", "2,2,2", "-m", "7", "--oriented", "-f", "json"), 0, "out",
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    (("matches", "-b", "0,3,0,1,2", "--oriented"), 0, "out",
     "8fd5a3ddf779c68f6582b9add29d9dc85357387d841583487a677378302c8b80"),
    (("components", "-b", "0,2,1,3", "-l", "3"), 0, "out",
     "da6ac02a5e4b9381a7ac8f995d453d801259213d24361e4cd808c6732bc6ff32"),
]


# sha256 digests recorded before untruncated listings were written from block
# texts: a non-empty --mu slice (5 matches, 15 orientations) on a tuple with
# zero-size boxes, in all four forms.
BLOCK_TEXT_DIGESTS = [
    (("matches", "-b", "0,3,1,0,2,2", "-m", "2"), 0, "out",
     "b825983c5ef4fb1238b670ed8a27f6fce94230e9959fd5eb89795f17f95b33a2"),
    (("matches", "-b", "0,3,1,0,2,2", "-m", "2", "--oriented"), 0, "out",
     "eb1dafdfc9d926d3227214bddd1d787aab76974d2c4b8a581dc6b03bd83fd1ca"),
    (("matches", "-b", "0,3,1,0,2,2", "-m", "2", "-f", "json"), 0, "out",
     "5aff1fca7920c8bb4c0c25c35acb485cf01086b7a2d100ac8e2211e396ac5a5d"),
    (("matches", "-b", "0,3,1,0,2,2", "-m", "2", "--oriented", "-f", "json"), 0, "out",
     "35e4153be927e34f74f9aa159298486dbd7c65eb5e56fda5af23169f8816a395"),
]


# sha256 of stdout and of stderr, and the exit code, recorded before each call
# built only the parser of the subcommand it names, with COLUMNS=80 on Python
# 3.11: the top-level texts (no command, help, an unknown command), every
# subcommand's help, and a usage error per subcommand, two of them an
# unrecognized argument, which argparse reports with the top-level usage.
NOTHING = hashlib.sha256(b"").hexdigest()
CLI_TEXT_DIGESTS = [
    ((), 2,
     NOTHING,
     "0b9b3a2d0475e579474db4877a81cd67a83485ebc3c12854309e7f5a4bac9e50"),
    (("--help",), 0,
     "7e3d4cffc8ac124398870eff2fa9b29343ffc72594922a192224c322b94fc08e",
     NOTHING),
    (("nope",), 2,
     NOTHING,
     "3fd25cccf8ae481f55bbc84a8900fa91cc14b9b1d21b6f874bd395b4a26984b3"),
    (("-h", "components"), 0,
     "7e3d4cffc8ac124398870eff2fa9b29343ffc72594922a192224c322b94fc08e",
     NOTHING),
    (("fuse", "--help"), 0,
     "72ed85512291b70267a9d5e323ebf599c671f2f0f478a332a07c1d70bb670574",
     NOTHING),
    (("tensor", "--help"), 0,
     "eb040d5839137acab917728d52bcce9825b7cfc901feea25d08f735c69d6d43f",
     NOTHING),
    (("matches", "--help"), 0,
     "44dff5d35c698ddb4b40b85eb7ba1581ca7d78bae44e2c5bc073a191be0d1d78",
     NOTHING),
    (("components", "--help"), 0,
     "b3194edbedbdfd567f35f607a9117458297d44d025622500e04d6e10e3e4ab7b",
     NOTHING),
    (("verify", "--help"), 0,
     "f8a8fd6a918c99db9c6b4f6542b7b0dd3d1fcf354bfbe03bfc7b294b7049430e",
     NOTHING),
    (("render", "--help"), 0,
     "88afd2ff7d3066ea0fb1c2567f5be1a9e2c8738970546c43db41967c5bd9645d",
     NOTHING),
    (("fuse", "-w", "1,1"), 2,
     NOTHING,
     "456b49254be525aec8a4a3de97fea933de8d60695b9e7ee05f7bd9d021071cc6"),
    (("tensor", "-w", "1,1", "-l", "2"), 2,
     NOTHING,
     "e9601f7202121fbd29d8f9facef64af0ca76ffd54658d5011e4bf36727b9d796"),
    (("matches", "-b", "x"), 2,
     NOTHING,
     "6824e0bf32baaae05f513a2f0348e852d285444d9180f3c1ae99edee76384e91"),
    (("components",), 2,
     NOTHING,
     "264453cf455dd72fe6d0c59b7e15f79ef384d1df9d57e6d10be3c78172382187"),
    (("components", "-b", "2,2", "--bogus"), 2,
     NOTHING,
     "0a21fc451530a0f5a86b9f3835012fdde10f3d227088986b5883a4366ed6d3d5"),
    (("verify", "--suite", "nope"), 2,
     NOTHING,
     "a371610dd7ff772afd41cca488aa38ed68dce2e769207f92e9099cc9bb4e5795"),
    (("render",), 2,
     NOTHING,
     "8f3d624aeb58c3afe240146bcbd1d6e80ba732a8d959d7783327e1eedc4ec77a"),
]


def test_help_usage_and_error_texts_match_parent_digests(capsys, monkeypatch):
    # Digests also checked, outside pytest, on Python 3.10.13 and 3.12.1.
    monkeypatch.setenv("COLUMNS", "80")
    # Forward, reversed and forward again through the one parser of this
    # process, so a text that depended on an earlier call would fail here.
    for argv, code, out_digest, err_digest in [
        *CLI_TEXT_DIGESTS, *reversed(CLI_TEXT_DIGESTS), *CLI_TEXT_DIGESTS
    ]:
        got = run(capsys, *argv)
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in got[1:]]
        assert (got[0], *digests) == (code, out_digest, err_digest), argv


def test_one_parser_per_process(capsys, monkeypatch):
    commands = ["fuse", "tensor", "matches", "components", "verify", "render"]
    built = []
    real = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    build_parser.cache_clear()
    calls = [
        (["components", "-b", "2,2", "-l", "2", "-f", "json"], 0),
        (["fuse", "-w", "1,1", "-l", "2"], 0),
        (["tensor", "-w", "1,2"], 0),
        (["matches", "-b", "2,2"], 0),
        (["render", "1,1|1-2"], 0),
        (["verify", "--suite", "ring", "--max-rank", "1", "--max-weight", "1", "--max-level", "1"], 0),
        *[([command, "--help"], 0) for command in commands],
        (["fuse", "-w", "1,1"], 2),
        (["tensor", "-w", "x"], 2),
        (["components", "-b", "2,2", "--bogus"], 2),
        (["verify", "--suite", "nope"], 2),
        ([], 2),
        (["--help"], 0),
        (["nope"], 2),
        (["matches", "-b", "2,2", "-s", "(12)"], 2),
    ]
    for argv, code in calls:
        assert run(capsys, *argv)[0] == code, argv
    assert built == commands


def _assert_digests(capsys, cases):
    for argv, expected_code, stream, digest in cases:
        code, out, err = run(capsys, *argv)
        text = out if stream == "out" else err
        assert code == expected_code, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_outputs_match_parent_digests(capsys):
    _assert_digests(capsys, PARENT_DIGESTS)


def test_truncated_and_bracketed_outputs_match_parent_digests(capsys):
    _assert_digests(capsys, SHARED_DEFAULTS_DIGESTS)


def test_pruned_truncated_outputs_match_parent_digests(capsys):
    _assert_digests(capsys, PRUNED_SEARCH_DIGESTS)


def test_block_listing_outputs_match_parent_digests(capsys):
    _assert_digests(capsys, BLOCK_LISTING_DIGESTS)


def test_text_writer_outputs_match_parent_digests(capsys):
    _assert_digests(capsys, TEXT_WRITER_DIGESTS)


def test_block_text_outputs_match_parent_digests(capsys):
    _assert_digests(capsys, BLOCK_TEXT_DIGESTS)


def test_oriented_listings_build_no_oriented_match(capsys, monkeypatch):
    built = []
    original = OrientedLowerMatch.__post_init__

    def counting(self):
        built.append(self.downs)
        original(self)

    monkeypatch.setattr(OrientedLowerMatch, "__post_init__", counting)
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "matches", "-b", "2,1,2", "--oriented", "-f", fmt)
        assert code == 0 and out.count("downs") == 3 * 2 * 3
    assert built == []


def test_matches_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ["matches", "-b", "4,4,4,4", "-f", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "matches.json"
    code, to_file, _ = run(capsys, *argv, "-o", str(target))
    assert (code, to_file) == (0, "")
    assert target.read_bytes() == out.encode()
