"""CLI contract: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import fusionkit
from fusionkit.cli import main
from fusionkit.diagrams import LowerMatch, enumerate_lcm
from fusionkit.geometry import ComponentCensus, component_census


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


def test_render_unknown_key_exits_one(capsys):
    code, _, err = run(capsys, "render", "9,9|banana")
    assert code == 1
    assert "key" in err


def test_render_index_out_of_range_exits_one(capsys):
    code, _, _ = run(capsys, "render", "99", "--boxes", "1,1")
    assert code == 1


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


def test_outputs_match_parent_digests(capsys):
    for argv, expected_code, stream, digest in PARENT_DIGESTS:
        code, out, err = run(capsys, *argv)
        text = out if stream == "out" else err
        assert code == expected_code, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv
