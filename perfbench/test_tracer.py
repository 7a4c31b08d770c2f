"""The tracer's rebinding, counts and self times on small calls."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import fusionkit
import fusionkit.cli
from fusionkit import bracketing, geometry, verify

from perfbench.tracer import Tracer


def test_union_of_intervals():
    assert Tracer._union([]) == 0.0
    assert Tracer._union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert Tracer._union([(1.0, 4.0), (2.0, 3.0)]) == 3.0


def test_wrappers_rebound_everywhere_and_removed():
    original = bracketing.satisfies_truncation
    tracer = Tracer()
    tracer.install()
    try:
        assert geometry.satisfies_truncation is bracketing.satisfies_truncation
        assert geometry.satisfies_truncation is not original
        census = geometry.component_census((2, 2), 2)
    finally:
        tracer.remove()
    assert geometry.satisfies_truncation is original
    assert bracketing.satisfies_truncation is original
    metrics = tracer.layer_metrics(0)
    # (2,2) has three matches; at level 2 only the fully matched one fits.
    assert census.total_components == 1
    assert metrics["bracketing.budget_checks"] == (3, "count")
    assert metrics["bracketing.budget_pass_ratio"] == (1 / 3, "ratio")
    assert metrics["diagrams.matches_materialized"] == (3, "count")
    assert metrics["diagrams.rematerialize_ratio"] == (1.0, "ratio")
    agg = tracer.aggregates()
    calls, total, self_s = agg["geometry.census"]
    assert calls == 1 and 0 <= self_s < total


def test_pool_threads_count_as_children_of_the_cli_call():
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = fusionkit.cli.main(
                ["verify", "--suite", "ring", "--max-rank", "2", "--max-weight", "2", "--max-level", "2"]
            )
    finally:
        tracer.remove()
    assert code == 0 and "FAIL" not in out.getvalue()
    assert all(not getattr(p, "__wrapped__", None) for p in verify.SUITES["ring"])
    calls, total, self_s = tracer.aggregates()["cli"]
    assert calls == 1
    assert 0 <= self_s < total
    metrics = tracer.layer_metrics(0)
    assert metrics["verify.cases"][0] > 0
    assert metrics["ring.quotient_calls"][0] > 0


def test_layer_metrics_are_the_declared_per_layer_metrics():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = set(Tracer().layer_metrics(0)) | {"trace.work_s", "trace.overhead_s"}
    assert names == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in Tracer().layer_metrics(0).items())
