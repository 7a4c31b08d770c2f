"""The four workloads: their inputs, drawn from a seed, their operations and checks.

Each workload is a fixed list of operations.  An operation calls either
``fusionkit.cli.main(argv)`` with stdout captured, as the ``fusionkit`` command
would run, or a public library function.  Its check compares the output with
the benchmark's own computations in :mod:`perfbench.reference`.

The seed permutes the factors of each configuration, picks the bracketings
and the order of the census queries, and for ``algebra`` the split of each
product into simples and the coefficients of the general elements.  The
multisets of weights and the levels are fixed, so every seed asks for the same
amount of work: match counts, fusion multiplicities and basis dimensions do
not depend on the order of the factors or on the bracketing.  Run-to-run
spread then measures the program and the machine, not the draw.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .reference import (
    cg_fold,
    kw_reduce,
    match_count,
    oriented_count,
    parse_key,
    total_dim,
    truncated_fold,
    valid_match,
)

SUITES = ("ring", "matches", "bracketing", "module", "geometry")

# census-truncated: (weights, level, level of a second query on the same box
# tuple with another bracketing, or None).  Ranks 5-8, weights 1-4, levels
# from the largest weight up to 8.
CENSUS_QUERIES = (
    ((3, 3, 3, 3, 3, 3, 3, 3), 5, 7),
    ((1, 2, 3, 4, 1, 2, 3, 4), 6, 8),
    ((2, 2, 2, 2, 2, 2, 2, 2), 4, 6),
    ((1, 3, 3, 4, 4, 4, 1), 8, None),
    ((2, 2, 3, 3, 4, 4, 1), 5, None),
    ((4, 4, 4, 4, 4, 4), 5, None),
    ((2, 3, 4, 2, 3, 4), 4, 6),
    ((4, 4, 3, 3, 2), 4, None),
    ((1, 2, 3, 4, 4), 7, None),
)
# The reference configuration of the roadmap, asked with the left comb.
CENSUS_REFERENCE = ((4, 4, 4, 4, 4, 4, 4, 4), 6)

# listing-full: untruncated listings with 2k-40k matches.
LISTING_JSON = (
    (4, 4, 4, 4, 4, 4, 4, 4),
    (4, 4, 4, 4, 3, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3, 3),
    (4, 4, 4, 4, 4, 4, 4),
)
LISTING_ORIENTED = (
    (3, 3, 3, 3, 3, 3, 3),
    (4, 3, 4, 3, 4, 3, 2),
    (1, 2, 3, 4, 1, 2, 3, 4),
)

# algebra, first part: (weights, level) of the bases; dimensions 225-524.
SL2_BASES = (
    ((4, 4, 4, 4), 8),
    ((1, 2, 3, 4, 4), 8),
    ((2, 2, 3, 3, 4), 8),
    ((3, 3, 3, 3, 3), 8),
)
# algebra, second part: (level, number of simple factors, top weight) of the
# products to reduce; a factor count of 0 asks for a general element with
# coefficients in -3..3 on weights 0..top instead.
QUOTIENTS = (
    (10, 2, 16),
    (20, 3, 50),
    (40, 3, 100),
    (80, 3, 200),
    (120, 2, 220),
    (160, 2, 300),
    (160, 3, 400),
    (120, 3, 330),
    (60, 0, 150),
    (100, 0, 250),
    (160, 0, 400),
)


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` returns None or what is wrong."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _cli_call(cli, argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def _csv(ws) -> str:
    return ",".join(str(w) for w in ws)


def _shuffled(rng: random.Random, ws) -> tuple[int, ...]:
    out = list(ws)
    rng.shuffle(out)
    return tuple(out)


def _cli_failure(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}: {res.err.strip()[:200]}"
    return None


# ------------------------------------------------------------ verify-default


_PROPERTY_LINE = re.compile(r"\[(\w+)\] (\w+): (PASS|FAIL) \((?:\d+/)?(\d+) cases\)")


def verify_min_cases(max_rank: int = 4, max_weight: int = 4, max_level: int = 6) -> dict:
    """suite -> {property: case count} that a sweep at these bounds must reach."""
    R, W, L = max_rank, max_weight, max_level
    weights = range(1, W + 1)
    configs = [ws for r in range(1, R + 1) for ws in itertools.product(weights, repeat=r)]
    triples = list(itertools.product(weights, repeat=3))
    pairs = list(itertools.product(weights, repeat=2))
    matches = {ws: match_count(ws) for ws in configs}

    def levels(ws) -> int:
        return max(0, L - max(ws) + 1)

    per_level = sum(levels(ws) for ws in configs)
    no_cross = sum((sum(ws) // 2 + 1) * levels(ws) for ws in triples)
    cross = sum(min(ws[0], ws[2]) * levels(ws) for ws in triples)
    return {
        "ring": {
            "cg_total_dimension": 13 * 13,
            "fuse_is_truncated_cg": sum((l + 1) ** 2 for l in range(1, L + 1)),
            "fusion_quotient_identity": sum(l * l for l in range(1, L + 1)),
            "quotient_reflection": sum(l + 1 for l in range(1, L + 1)),
            "fuse_many_bracketing_independent": sum(
                min(W, l) ** r for r in range(2, min(R, 4) + 1) for l in range(1, L + 1)
            ),
            "generator_assoc_comm": 9**3,
        },
        "matches": {
            "cm_count_equals_hom_dim": sum(sum(ws) + 1 for ws in configs),
            "oriented_total_dimension": len(configs),
            "weight_census": len(configs),
            "brute_force_equivalence": sum(1 for ws in configs if sum(ws) <= 10),
            "no_nested_unmatched": sum(matches.values()),
        },
        "bracketing": {
            "truncated_count_equals_fusion_dim": sum(
                (sum(ws) + 1) * levels(ws) for ws in configs
            ),
            "count_independent_of_tree": sum(
                (sum(ws) + 1) * levels(ws) for ws in configs if 3 <= len(ws) <= 4
            ),
            "pair_budget_closed_form": sum(match_count(ws) * L for ws in pairs),
            "level_monotonicity": sum(matches.values()) * (L - 1),
            "stratified_no_cross_closed_form": no_cross,
            "stratified_cross_closed_form": cross,
            "ra_equals_rb": no_cross + cross,
        },
        "module": {
            name: per_level
            for name in (
                "sl2_relations",
                "isotypic_equals_fusion_coeffs",
                "dimension_matches_fusion",
                "h_weight_census",
            )
        },
        "geometry": {
            "nl_equiv_budget": sum(
                matches[ws] * (L - (max(ws) if len(ws) == 1 else 1) + 1) for ws in configs
            ),
            "census_matches_fusion": per_level,
            "untruncated_dim_product": len(configs),
            "dim_formulas": sum(w + 1 for w in range(21)),
            "pair_highest_weight_window": sum(
                (a + b + 1) * max(0, L - max(a, b) + 1) for a, b in pairs
            ),
        },
    }


def _check_verify(suite: str, want: dict, res: CliResult) -> str | None:
    problem = _cli_failure(res)
    if problem:
        return problem
    seen = {}
    for line in res.out.splitlines():
        if line.startswith("  counterexample:"):
            continue
        m = _PROPERTY_LINE.fullmatch(line)
        if m is None:
            return f"unexpected line {line!r}"
        if m[1] != suite or m[3] != "PASS":
            return f"property not passed: {line!r}"
        seen[m[2]] = int(m[4])
    for name, cases in want.items():
        if name not in seen:
            return f"property {name} missing"
        if seen[name] < cases:
            return f"property {name}: {seen[name]} cases, bounds give {cases}"
    return None


def _verify_default(rng: random.Random, fk) -> list[Op]:
    return [
        Op(
            f"verify --suite {suite}",
            _cli_call(fk.cli, ["verify", "--suite", suite]),
            lambda res, suite=suite: _check_verify(suite, verify_min_cases()[suite], res),
        )
        for suite in SUITES
    ]


# ---------------------------------------------------------- census-truncated


def _arcs_in_order(arc_lists, sizes, what: str) -> str | None:
    """Each arc set valid on ``sizes``; the sets distinct and in canonical order."""
    previous = None
    for arcs in arc_lists:
        if not valid_match(sizes, arcs):
            return f"invalid {what} {arcs} on boxes {sizes}"
        if previous is not None and not previous < arcs:
            return f"{what}s out of canonical order or repeated: {previous} then {arcs}"
        previous = arcs
    return None


def _check_census(ws, level: int, res: CliResult) -> str | None:
    problem = _cli_failure(res)
    if problem:
        return problem
    got = json.loads(res.out)
    per_mu = {int(k): v for k, v in got["per_mu"].items()}
    want = truncated_fold(ws, level)
    if per_mu != want:
        return f"per_mu {per_mu} != truncated fold {want}"
    if got["total_components"] != sum(per_mu.values()):
        return f"total_components {got['total_components']} disagrees with per_mu"
    if got["total_dim"] != total_dim(per_mu):
        return f"total_dim {got['total_dim']} disagrees with per_mu"
    labels = [parse_key(label) for label in got["labels"]]
    if any(sizes != ws for sizes, _ in labels):
        return "a label is not on the queried boxes"
    arcs = [a for _, a in labels]
    tally: dict[int, int] = {}
    for a in arcs:
        mu = sum(ws) - 2 * len(a)
        tally[mu] = tally.get(mu, 0) + 1
    if dict(sorted(tally.items())) != per_mu:
        return f"labels give per-mu counts {tally}, per_mu says {per_mu}"
    return _arcs_in_order(arcs, ws, "label")


def _census_truncated(rng: random.Random, fk) -> list[Op]:
    trees = {r: [str(t) for t in fk.enumerate_trees(r)] for r in range(5, 9)}
    queries = []
    for ws, level, again in CENSUS_QUERIES:
        boxes = _shuffled(rng, ws)
        first, second = rng.sample(trees[len(ws)], 2)
        queries.append((boxes, level, first))
        if again is not None:
            queries.append((boxes, again, second))
    rng.shuffle(queries)
    boxes, level = CENSUS_REFERENCE
    queries.insert(0, (boxes, level, None))
    ops = []
    for boxes, level, tree in queries:
        argv = ["components", "-b", _csv(boxes), "-l", str(level), "-f", "json"]
        if tree is not None:
            argv += ["-s", tree]
        ops.append(
            Op(
                " ".join(argv),
                _cli_call(fk.cli, argv),
                lambda res, boxes=boxes, level=level: _check_census(boxes, level, res),
            )
        )
    return ops


# -------------------------------------------------------------- listing-full


def _check_listing_json(ws, res: CliResult) -> str | None:
    problem = _cli_failure(res)
    if problem:
        return problem
    found = json.loads(res.out)
    if len(found) != match_count(ws):
        return f"{len(found)} matches, the Clebsch-Gordan fold gives {match_count(ws)}"
    tally: dict[int, int] = {}
    arcs = []
    for item in found:
        a = tuple(tuple(arc) for arc in item["arcs"])
        if tuple(item["boxes"]) != ws or item["mu"] != sum(ws) - 2 * len(a):
            return f"bad boxes or mu in {item}"
        tally[item["mu"]] = tally.get(item["mu"], 0) + 1
        arcs.append(a)
    if dict(sorted(tally.items())) != cg_fold(ws):
        return f"per-mu counts {tally} != Clebsch-Gordan fold {cg_fold(ws)}"
    return _arcs_in_order(arcs, ws, "match")


def _check_listing_oriented(ws, res: CliResult) -> str | None:
    problem = _cli_failure(res)
    if problem:
        return problem
    lines = res.out.splitlines()
    if len(lines) != oriented_count(ws):
        return f"{len(lines)} oriented lines, the product of w_i + 1 is {oriented_count(ws)}"
    tally: dict[int, int] = {}
    arcs = []
    key = None
    expect_downs = 0
    mu = -1
    for line in lines:
        k, downs, weight = line.split(" ")
        if not (downs.startswith("downs=") and weight.startswith("weight=")):
            return f"malformed line {line!r}"
        downs = int(downs[6:])
        if k != key:
            if expect_downs != mu + 1:
                return f"match {key} has {expect_downs} orientations, mu + 1 = {mu + 1}"
            sizes, a = parse_key(k)
            if sizes != ws:
                return f"line {line!r} is not on the queried boxes"
            key, mu, expect_downs = k, sum(ws) - 2 * len(a), 0
            tally[mu] = tally.get(mu, 0) + 1
            arcs.append(a)
        if downs != expect_downs or int(weight[7:]) != mu - 2 * downs:
            return f"line {line!r}: expected downs={expect_downs} weight={mu - 2 * expect_downs}"
        expect_downs += 1
    if expect_downs != mu + 1:
        return f"match {key} has {expect_downs} orientations, mu + 1 = {mu + 1}"
    if dict(sorted(tally.items())) != cg_fold(ws):
        return f"per-mu counts {tally} != Clebsch-Gordan fold {cg_fold(ws)}"
    return _arcs_in_order(arcs, ws, "match")


def _listing_full(rng: random.Random, fk) -> list[Op]:
    ops = []
    for ws in LISTING_JSON:
        boxes = _shuffled(rng, ws)
        argv = ["matches", "-b", _csv(boxes), "-f", "json"]
        ops.append(
            Op(" ".join(argv), _cli_call(fk.cli, argv),
               lambda res, boxes=boxes: _check_listing_json(boxes, res))
        )
    for ws in LISTING_ORIENTED:
        boxes = _shuffled(rng, ws)
        argv = ["matches", "-b", _csv(boxes), "--oriented"]
        ops.append(
            Op(" ".join(argv), _cli_call(fk.cli, argv),
               lambda res, boxes=boxes: _check_listing_oriented(boxes, res))
        )
    return ops


# ------------------------------------------------------------------- algebra


def _check_sl2(ws, level: int, fk, got) -> str | None:
    basis, ok = got
    want = truncated_fold(ws, level)
    if basis.dim != total_dim(want):
        return f"basis dimension {basis.dim} != {total_dim(want)}"
    census = fk.isotypic_census(basis)
    if census != want:
        return f"isotypic census {census} != truncated fold {want}"
    if ok is not True:
        return "verify_sl2 is not True"
    return None


def _check_quotient(coeffs: dict, ws, level: int, got) -> str | None:
    reduced, fused = got
    want = kw_reduce(coeffs, level)
    if reduced.coeffs != want:
        return f"quotient_reduce gives {reduced.coeffs}, the reflection gives {want}"
    if ws is not None and fused.coeffs != want:
        return f"fuse_many gives {fused.coeffs}, the reflection gives {want}"
    return None


def _split(rng: random.Random, total: int, parts: int, cap: int) -> tuple[int, ...]:
    """``parts`` weights in 0..cap with the given sum, drawn uniformly per step."""
    out = []
    for left in range(parts, 0, -1):
        lo = max(0, total - cap * (left - 1))
        hi = min(cap, total)
        w = rng.randint(lo, hi)
        out.append(w)
        total -= w
    return tuple(out)


def _algebra(rng: random.Random, fk) -> list[Op]:
    ops = []
    for ws, level in SL2_BASES:
        boxes = _shuffled(rng, ws)
        tree = rng.choice(fk.enumerate_trees(len(ws)))

        def call(boxes=boxes, level=level, tree=tree):
            basis = fk.build_basis(boxes, level, tree)
            return basis, fk.verify_sl2(fk.action_matrices(basis))

        ops.append(
            Op(f"sl2 {boxes} l={level} {tree}", call,
               lambda got, boxes=boxes, level=level: _check_sl2(boxes, level, fk, got))
        )
    for level, factors, top in QUOTIENTS:
        if factors:
            ws = _split(rng, top, factors, level)
            coeffs = cg_fold(ws)
        else:
            ws = None
            coeffs = {k: rng.randint(-3, 3) for k in range(top)}
            coeffs[top] = rng.choice((-3, -2, -1, 1, 2, 3))
        element = fk.RingElement(coeffs)

        def call(element=element, ws=ws, level=level):
            return fk.quotient_reduce(element, level), (
                fk.fuse_many(ws, level) if ws is not None else None
            )

        ops.append(
            Op(f"quotient l={level} {ws or f'general top={top}'}", call,
               lambda got, coeffs=coeffs, ws=ws, level=level: _check_quotient(coeffs, ws, level, got))
        )
    return ops


_WORKLOAD_OPS = {
    "verify-default": _verify_default,
    "census-truncated": _census_truncated,
    "algebra": _algebra,
    "listing-full": _listing_full,
}
WORKLOADS = tuple(_WORKLOAD_OPS)


def build(workload: str, seed: int, fk) -> list[Op]:
    """The operations of ``workload`` for ``seed``; ``fk`` is the imported package."""
    return _WORKLOAD_OPS[workload](random.Random(f"{workload}:{seed}"), fk)
