"""CLI contract: outputs, exit codes, determinism."""

from __future__ import annotations

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
from fusionkit.diagrams import LowerMatch, enumerate_lcm
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


def test_matches_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ["matches", "-b", "4,4,4,4", "-f", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "matches.json"
    code, to_file, _ = run(capsys, *argv, "-o", str(target))
    assert (code, to_file) == (0, "")
    assert target.read_bytes() == out.encode()
