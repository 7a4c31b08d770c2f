"""Per-layer tracing from outside the program.

The tracer wraps public functions of ``fusionkit`` and rebinds each wrapper in
every ``fusionkit`` module namespace that binds the original, because modules
import one another's functions by name.  The layers are the package's modules.
A call's self time is its duration less the part of it that the traced calls
it made cover.  Stacks are kept per thread, since ``verify`` runs its
properties on a thread pool; aggregates are kept per thread as well and merged
at the end, so the hot path takes no lock.  A call that opens a worker
thread's stack was caused by the call open on the thread that installed the
tracer (``verify`` waits there for its pool), so it counts as that call's
child; children on two threads overlap, so such a parent loses the union of
their intervals, not their sum.  Functions called hundreds of thousands of times
keep only per-name aggregates; the coarse ones (a CLI command, a ``verify``
property, a basis build, a quotient reduction) also keep a span each.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "fusionkit"

# (layer metric prefix, module, function, keep spans)
TRACED = (
    ("kernels.search", "kernels", "enumerate_arc_sets", False),
    ("diagrams.enumerate", "diagrams", "enumerate_lcm", False),
    ("diagrams.enumerate", "diagrams", "enumerate_cm", False),
    ("diagrams.validate", "diagrams", "validate", False),
    ("diagrams.orientations", "diagrams", "orientations", False),
    ("diagrams.canonical_key", "diagrams", "canonical_key", False),
    ("bracketing.budget", "bracketing", "satisfies_truncation", False),
    ("bracketing.count_truncated", "bracketing", "count_truncated", False),
    ("geometry.census", "geometry", "component_census", False),
    ("geometry.nl", "geometry", "nl_condition", False),
    ("module_action.build", "module_action", "build_basis", True),
    ("module_action.matrices", "module_action", "action_matrices", True),
    ("module_action.sl2_check", "module_action", "verify_sl2", True),
    ("ring.quotient", "ring", "quotient_reduce", True),
    ("ring.fuse", "ring", "fuse_many", False),
    ("ring.fuse", "ring", "fuse_pair", False),
    ("ring.mul", "ring", "ring_mul", False),
    ("cli", "cli", "main", True),
)


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # name -> [calls, total_s, self_s]
    spans: list = field(default_factory=list)


class Tracer:
    """Installs the wrappers, collects aggregates and spans, removes them again."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._undo: list[tuple[object, str, object]] = []
        self._home: _ThreadState | None = None
        self._origin = time.perf_counter()
        self.budget_passes = 0
        self.kernel_inputs: set = set()
        self.matches_materialized = 0
        self.matches_per_tuple: dict = {}
        self.basis_dim = 0
        self.verify_cases = 0

    # ------------------------------------------------------------ recording

    @staticmethod
    def _union(intervals) -> float:
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(intervals):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, name: str, fn, keep_span: bool, on_result=None):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            elif state is not tracer._home and tracer._home.stack:
                parent = tracer._home.stack[-1]
            else:
                parent = None
            # same-thread child time, name, intervals of children on other threads
            frame = [0.0, name, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                elif parent is not None:
                    with tracer._lock:
                        if parent[2] is None:
                            parent[2] = []
                        parent[2].append((start, end))
                covered = frame[0]
                if frame[2] is not None:
                    with tracer._lock:
                        covered += tracer._union(frame[2])
                agg = state.stats.get(name)
                if agg is None:
                    agg = state.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - covered
                if keep_span:
                    state.spans.append((
                        name,
                        parent[1] if parent is not None else None,
                        start - tracer._origin,
                        end - tracer._origin,
                    ))
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------- result hooks

    def _on_budget(self, args, result) -> None:
        if result:
            with self._lock:
                self.budget_passes += 1

    def _on_kernel(self, args, result) -> None:
        with self._lock:
            self.kernel_inputs.add(tuple(args[0]))

    def _on_enumerate(self, args, result) -> None:
        sizes = tuple(getattr(args[0], "sizes", args[0]))
        with self._lock:
            self.matches_materialized += len(result)
            self.matches_per_tuple[sizes] = len(result)

    def _on_basis(self, args, result) -> None:
        with self._lock:
            self.basis_dim += result.dim

    def _on_property(self, args, result) -> None:
        with self._lock:
            self.verify_cases += result.cases

    # ------------------------------------------------------ install/remove

    def _modules(self) -> list:
        return [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None and (modname == PACKAGE or modname.startswith(PACKAGE + "."))
        ]

    def _rebind(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        self._home = self._state()
        hooks = {
            "satisfies_truncation": self._on_budget,
            "enumerate_arc_sets": self._on_kernel,
            "enumerate_lcm": self._on_enumerate,
            "build_basis": self._on_basis,
        }
        for name, modname, fnname, keep_span in TRACED:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(mod, fnname, None)
            if original is None:
                continue
            self._rebind(original, self._wrap(name, original, keep_span, hooks.get(fnname)))
        verify = sys.modules.get(f"{PACKAGE}.verify")
        suites = getattr(verify, "SUITES", None)
        if isinstance(suites, dict):
            for suite, props in list(suites.items()):
                wrapped = tuple(
                    self._wrap(f"verify.{suite}", prop, True, self._on_property) for prop in props
                )
                suites[suite] = wrapped
                self._undo.append((suites, suite, props))

    def remove(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # ------------------------------------------------------------- results

    def aggregates(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, total, self_s) in state.stats.items():
                agg = out.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return out

    def spans(self) -> list[tuple]:
        with self._lock:
            states = list(self._threads)
        out = []
        for tid, state in enumerate(states):
            out.extend((name, tid, parent, start, end) for name, parent, start, end in state.spans)
        out.sort(key=lambda span: span[3])
        return out

    def layer_metrics(self, output_bytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the benchmark, as name -> (value, unit)."""
        agg = self.aggregates()

        def calls(name: str) -> int:
            return agg.get(name, [0, 0.0, 0.0])[0]

        def self_s(name: str) -> float:
            return agg.get(name, [0, 0.0, 0.0])[2]

        distinct_matches = sum(self.matches_per_tuple.values())
        checks = calls("bracketing.budget")
        metrics = {
            "kernels.search_s": (self_s("kernels.search"), "s"),
            "kernels.calls": (calls("kernels.search"), "count"),
            "kernels.distinct_inputs": (len(self.kernel_inputs), "count"),
            "diagrams.enumerate_s": (self_s("diagrams.enumerate"), "s"),
            "diagrams.matches_materialized": (self.matches_materialized, "count"),
            "diagrams.rematerialize_ratio": (
                self.matches_materialized / distinct_matches if distinct_matches else 0.0,
                "ratio",
            ),
            "diagrams.validate_calls": (calls("diagrams.validate"), "count"),
            "diagrams.validate_s": (self_s("diagrams.validate"), "s"),
            "diagrams.orientations_s": (self_s("diagrams.orientations"), "s"),
            "diagrams.canonical_key_s": (self_s("diagrams.canonical_key"), "s"),
            "bracketing.budget_checks": (checks, "count"),
            "bracketing.budget_pass_ratio": (self.budget_passes / checks if checks else 0.0, "ratio"),
            "bracketing.budget_s": (self_s("bracketing.budget"), "s"),
            "bracketing.count_truncated_calls": (calls("bracketing.count_truncated"), "count"),
            "geometry.census_s": (self_s("geometry.census"), "s"),
            "geometry.nl_checks": (calls("geometry.nl"), "count"),
            "geometry.nl_s": (self_s("geometry.nl"), "s"),
            "module_action.basis_builds": (calls("module_action.build"), "count"),
            "module_action.basis_dim": (self.basis_dim, "count"),
            "module_action.build_s": (self_s("module_action.build"), "s"),
            "module_action.matrices_s": (self_s("module_action.matrices"), "s"),
            "module_action.sl2_check_s": (self_s("module_action.sl2_check"), "s"),
            "ring.quotient_calls": (calls("ring.quotient"), "count"),
            "ring.quotient_s": (self_s("ring.quotient"), "s"),
            "ring.fuse_s": (self_s("ring.fuse"), "s"),
            "ring.mul_s": (self_s("ring.mul"), "s"),
        }
        for suite in ("ring", "matches", "bracketing", "module", "geometry"):
            metrics[f"verify.{suite}_s"] = (self_s(f"verify.{suite}"), "s")
        metrics["verify.cases"] = (self.verify_cases, "count")
        metrics["cli.self_s"] = (self_s("cli"), "s")
        metrics["cli.output_bytes"] = (output_bytes, "bytes")
        return metrics
