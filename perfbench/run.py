"""Run one workload of the fusionkit benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census-truncated --seed 1 --seconds 24 --trace 0

Workloads: verify-default, census-truncated, algebra, listing-full (see
perfbench/README.md).  One process, one client, closed loop: each operation
starts when the previous one has returned.  The run repeats whole rounds of
the workload's fixed list of operations, with the program's caches cleared
before each round as a fresh ``fusionkit`` process would have them, while
another round fits in ``--seconds``; it always finishes at least one.

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: median wall time of separate processes that start Python,
  import ``fusionkit`` and build the workload's inputs from the seed;
- ``work_s``: median over rounds of the time to run the list of operations,
  output checks not counted;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it runs one round untraced, then one round traced, and
reports the per-layer metrics of the traced round, plus ``trace.work_s`` and
``trace.overhead_s`` (traced less untraced ``work_s``).  No end-to-end metric
comes from a traced run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes that object, and for a
traced run the aggregates and spans, under ``perfbench/out/``.  The exit code
is 0 only when every operation completed and passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, build  # noqa: E402

SETUP_PROBES = 7


def _load(workload: str, seed: int):
    """Import fusionkit from the checkout's ``src`` and build the workload's operations."""
    src = ROOT / "src"
    if not (src / "fusionkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no fusionkit sources under {src}")
    sys.path.insert(0, str(src))
    import fusionkit
    import fusionkit.cli

    if Path(fusionkit.__file__).resolve().parent != (src / "fusionkit").resolve():
        raise SystemExit(f"error: imported fusionkit from {fusionkit.__file__}, not from {src}")
    return fusionkit, build(workload, seed, fusionkit)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of processes that only import and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _clear_caches(fk) -> None:
    """Empty every ``functools`` cache in the package, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == fk.__name__ or name.startswith(fk.__name__ + ".")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "") == name:
                clear()


def _round(fk, ops, verified: dict) -> dict:
    """Run the operation list once with cold caches, timing calls and checking outputs.

    An operation fails when it raises, exits non-zero or fails its check; it
    is wrong when it exited 0 and failed its check.  ``verified`` maps an
    operation's index to the digest of a CLI result that passed its check; a
    byte-identical result in a later round is not checked again.
    """
    _clear_caches(fk)
    work = 0.0
    failed = 0
    wrong = 0
    output_bytes = 0
    problems = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            got = op.call()
        except Exception:
            work += time.perf_counter() - start
            failed += 1
            problems.append(f"{op.label}: raised\n{traceback.format_exc()}")
            continue
        work += time.perf_counter() - start
        digest = None
        out = getattr(got, "out", None)
        if out is not None:
            data = out.encode()
            output_bytes += len(data)
            digest = (got.code, got.err, hashlib.blake2b(data).digest())
            if verified.get(index) == digest:
                continue
        try:
            problem = op.check(got)
        except Exception:
            problem = f"check raised\n{traceback.format_exc()}"
        if not problem and digest is not None:
            verified[index] = digest
        if problem:
            failed += 1
            wrong += getattr(got, "code", 0) == 0
            problems.append(f"{op.label}: {problem}")
    return {
        "work_s": work,
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "output_bytes": output_bytes,
        "problems": problems,
    }


def _summary(rounds: list[dict], metrics: dict) -> dict:
    return {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _measure(fk, ops, seconds: float) -> tuple[list[dict], dict]:
    rounds = []
    verified: dict = {}
    begin = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        rounds.append(_round(fk, ops, verified))
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() - begin + longest > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rounds, {
        "work_s": (statistics.median(r["work_s"] for r in rounds), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _traced(fk, ops, dump: Path) -> tuple[list[dict], dict]:
    verified: dict = {}
    plain = _round(fk, ops, verified)
    tracer = Tracer()
    # The wrappers hide ``cache_clear``, so the caches are emptied before
    # they go in.
    _clear_caches(fk)
    tracer.install()
    try:
        traced = _round(fk, ops, verified)
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics(traced["output_bytes"])
    metrics["trace.work_s"] = (traced["work_s"], "s")
    metrics["trace.overhead_s"] = (traced["work_s"] - plain["work_s"], "s")
    dump.write_text(json.dumps({
        "untraced_work_s": plain["work_s"],
        "traced_work_s": traced["work_s"],
        "aggregates": {name: dict(zip(("calls", "total_s", "self_s"), agg))
                       for name, agg in sorted(tracer.aggregates().items())},
        "spans": [dict(zip(("name", "thread", "parent", "start_s", "end_s"), span))
                  for span in tracer.spans()],
    }, indent=1))
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="start another round only while it fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _load(args.workload, args.seed)
        return 0

    fk, ops = _load(args.workload, args.seed)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        rounds, metrics = _traced(fk, ops, out_dir / f"trace-{stem}.json")
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        rounds, metrics = _measure(fk, ops, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    for r in rounds:
        for problem in r["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    summary = _summary(rounds, metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:16.6f}" if isinstance(value, float) else f"{value:9d}"
        print(f"{name:34} {shown} {unit}")
    print(f"{'rounds':34} {len(rounds):9d}  work_s " + " ".join(f"{r['work_s']:.3f}" for r in rounds))
    print(f"{'attempted':34} {summary['attempted']:9d}")
    print(f"{'failed':34} {summary['failed']:9d}")
    line = json.dumps(summary)
    (out_dir / f"{'trace' if args.trace else 'result'}-{stem}.out.json").write_text(line + "\n")
    print(line)
    return 0 if summary["failed"] == 0 and summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
