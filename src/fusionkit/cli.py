"""Command-line front end.

Subcommands: ``fuse``, ``tensor``, ``matches``, ``components``, ``verify``,
``render``.  Exit codes are a stable contract: 0 success, 1 domain or
verification failure, 2 usage error.  All listings are emitted in canonical
order, so output is byte-identical across runs.  A reader that closes stdout
early (``| head``) ends the listing quietly with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bracketing, diagrams, geometry, ring, verify
from .render import ascii_diagram, svg_diagram


class UsageError(Exception):
    """Bad flag usage detected after argparse (exit code 2)."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _level_or_none(text: str) -> int | None:
    if text.strip().lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer level or 'none', got {text!r}")


def _tree_for(text: str | None, r: int):
    if text is None:
        return None
    try:
        return bracketing.parse_bracketing(text, r)
    except ValueError as exc:
        raise UsageError(f"--bracketing: {exc}")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _check_mu(mu: int | None) -> None:
    if mu is not None and mu < 0:
        raise ValueError(f"--mu must be nonnegative, got {mu}")


def _emit_element(args, element) -> None:
    """Emit ``element``, or with ``--mu`` its multiplicity there, as text or JSON."""
    if args.mu is not None:
        dim = element.coeff(args.mu)
        _emit(args, _dump({"mu": args.mu, "dim": dim}) if args.format == "json" else str(dim))
    else:
        _emit(args, _dump(element.to_json_dict()) if args.format == "json" else element.format_text())


def cmd_fuse(args) -> int:
    _check_mu(args.mu)
    tree = _tree_for(args.bracketing, len(args.weights))
    _emit_element(args, ring.fuse_many(args.weights, args.level, tree))
    return 0


def cmd_tensor(args) -> int:
    _check_mu(args.mu)
    _emit_element(args, ring.tensor_many(args.weights))
    return 0


def cmd_matches(args) -> int:
    if args.bracketing is not None and args.level is None:
        raise UsageError("--bracketing requires --level")
    _check_mu(args.mu)
    boxes = diagrams.BoxConfig(tuple(args.boxes))
    if args.level is None:
        found = diagrams.enumerate_lcm(boxes)
    else:
        # The alcove is checked first, so its error wins over a bad --bracketing.
        bracketing.check_alcove(boxes.sizes, args.level)
        found = geometry.truncated_matches(
            boxes, args.level, _tree_for(args.bracketing, boxes.count)
        )
    if args.mu is not None:
        found = [m for m in found if m.mu == args.mu]
    if args.oriented:
        if args.format == "json":
            _emit(args, _dump([o.to_json_dict() for m in found for o in diagrams.orientations(m)]))
        else:
            lines = []
            for m in found:
                key = diagrams.canonical_key(m)
                lines.extend(
                    f"{key} downs={o.downs} weight={o.weight}" for o in diagrams.orientations(m)
                )
            _emit(args, "\n".join(lines) if lines else "(none)")
    else:
        if args.format == "json":
            _emit(args, _dump([m.to_json_dict() for m in found]))
        else:
            lines = [f"{diagrams.canonical_key(m)} mu={m.mu}" for m in found]
            _emit(args, "\n".join(lines) if lines else "(none)")
    return 0


def cmd_components(args) -> int:
    if args.bracketing is not None and args.level is None:
        raise UsageError("--bracketing requires --level")
    tree = _tree_for(args.bracketing, len(args.boxes)) if args.level is not None else None
    census = geometry.component_census(tuple(args.boxes), args.level, tree)
    if args.format == "json":
        _emit(args, _dump(census.to_json_dict()))
    else:
        level = "none" if args.level is None else str(args.level)
        lines = [
            f"boxes: {','.join(str(b) for b in args.boxes)}  level: {level}",
            f"total_components: {census.total_components}",
            f"total_dim: {census.total_dim}",
            "per_mu: " + " ".join(f"{mu}:{n}" for mu, n in sorted(census.per_mu.items())),
        ]
        lines.extend(f"  {label}" for label in census.labels)
        _emit(args, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    bounds = verify.Bounds(
        max_rank=args.max_rank, max_weight=args.max_weight, max_level=args.max_level
    )
    results = verify.run_suites(names, bounds)
    all_passed = True
    for result in results:
        if result.passed:
            print(f"[{result.suite}] {result.name}: PASS ({result.cases} cases)")
        else:
            all_passed = False
            print(
                f"[{result.suite}] {result.name}: FAIL "
                f"({result.failure_count}/{result.cases} cases)"
            )
            for failure in result.failures:
                print(f"  counterexample: {failure}")
    return 0 if all_passed else 1


def cmd_render(args) -> int:
    if args.match.isdigit():
        if args.boxes is None:
            raise UsageError("an index needs --boxes to enumerate against")
        found = diagrams.enumerate_lcm(tuple(args.boxes))
        index = int(args.match)
        if index >= len(found):
            raise ValueError(f"match index {index} out of range 0..{len(found) - 1}")
        match = found[index]
    else:
        match = diagrams.parse_canonical_key(args.match)
        if args.boxes is not None and tuple(args.boxes) != match.boxes.sizes:
            raise ValueError(f"--boxes {args.boxes} disagrees with key {args.match!r}")
    if args.downs is not None and not 0 <= args.downs <= match.mu:
        raise ValueError(f"--downs must lie in 0..{match.mu}, got {args.downs}")
    if args.format == "svg":
        _emit(args, svg_diagram(match, args.downs))
    else:
        _emit(args, ascii_diagram(match, args.downs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Level-truncated sl2 fusion products and their crossingless-match combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, weights=False, boxes=False, level=None, formats=("text", "json")):
        if weights:
            p.add_argument("--weights", "-w", type=_int_list, required=True,
                           help="comma-separated highest weights")
        if boxes:
            p.add_argument("--boxes", "-b", type=_int_list, required=True,
                           help="comma-separated box sizes")
        if level == "required":
            p.add_argument("--level", "-l", type=int, required=True, help="fusion level")
        elif level == "optional":
            p.add_argument("--level", "-l", type=_level_or_none, default=None,
                           help="fusion level; omit or pass 'none' for the untruncated product")
        p.add_argument("--format", "-f", choices=formats, default=formats[0])
        p.add_argument("--out", "-o", default=None, help="write output to a file")

    p = sub.add_parser("fuse", help="level fusion product of simple modules")
    add_common(p, weights=True, level="required")
    p.add_argument("--mu", "-m", type=int, default=None, help="report only this multiplicity")
    p.add_argument("--bracketing", "-s", default=None,
                   help="bracketing expression such as '((12)3)'; default is the left comb")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("tensor", help="plain tensor product of simple modules")
    add_common(p, weights=True)
    p.add_argument("--mu", "-m", type=int, default=None, help="report only this multiplicity")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("matches", help="list crossingless matches")
    add_common(p, boxes=True, level="optional")
    p.add_argument("--mu", "-m", type=int, default=None, help="restrict to this unmatched count")
    p.add_argument("--bracketing", "-s", default=None,
                   help="bracketing for the level budget (needs --level)")
    p.add_argument("--oriented", action="store_true", help="list orientations instead")
    p.set_defaults(func=cmd_matches)

    p = sub.add_parser("components", help="stratum census of the (truncated) variety")
    add_common(p, boxes=True, level="optional")
    p.add_argument("--bracketing", "-s", default=None,
                   help="bracketing for the level budget; default is the left comb")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("verify", help="run exhaustive property sweeps")
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    bounds = verify.Bounds()
    p.add_argument("--max-rank", type=int, default=bounds.max_rank, help="largest number of factors")
    p.add_argument("--max-weight", type=int, default=bounds.max_weight, help="largest highest weight")
    p.add_argument("--max-level", type=int, default=bounds.max_level, help="largest fusion level")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a match as text art or SVG")
    p.add_argument("match", help="canonical key like '1,1|1-2', or an index into --boxes")
    p.add_argument("--boxes", "-b", type=_int_list, default=None,
                   help="box sizes (required when rendering by index)")
    p.add_argument("--downs", type=int, default=None,
                   help="orient this many rightmost unmatched vertices down")
    p.add_argument("--format", "-f", choices=("text", "svg"), default="text")
    p.add_argument("--out", "-o", default=None, help="write output to a file")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout; silence the flush at interpreter exit too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
