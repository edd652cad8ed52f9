"""Layer spans around tracealg's public functions, installed from outside.

The traced run rebinds every module attribute and class attribute that holds
one of the wrapped functions, since ``from .x import y`` copies the binding
into each importing module.  A span's self time is its duration minus the
durations of the spans it encloses.  ``traces._gen_contains`` runs hundreds
of thousands of times per ``chain`` pass, so it gets a call counter rather
than a span.

Spans are aggregated per name as they close (calls and self time) instead of
being kept one by one: a ``chain`` pass opens a few hundred thousand.
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Callable

# (module, attribute, span name); "Class.method" wraps at class level.
SPANS = [
    ("cli", "parse_file", "cli.parse_file"),
    ("cli", "cmd_eq", "cli.command"),
    ("cli", "cmd_refines", "cli.command"),
    ("cli", "cmd_denote", "cli.command"),
    ("cli", "cmd_par", "cli.command"),
    ("kernel", "check_sort", "kernel.check_sort"),
    ("kernel", "evaluate", "kernel.evaluate"),
    ("theories", "build", "theories.build"),
    ("theories", "builtin_translations", "theories.builtin_translations"),
    ("theories", "apply_translation", "theories.apply_translation"),
    ("model", "TraceAlgebra.update", "model.update"),
    ("model", "TraceAlgebra.lookup", "model.lookup"),
    ("model", "TraceAlgebra.acquire", "model.acquire"),
    ("model", "TraceAlgebra.release", "model.release"),
    ("model", "TraceAlgebra.join", "model.join"),
    ("model", "TraceAlgebra.transition", "model.transition"),
    ("model", "unit", "model.unit"),
    ("model", "kleisli", "model.kleisli"),
    ("model", "reify", "model.reify"),
    ("model", "reify_trace", "model.reify_trace"),
    ("model", "BrookesAlgebra.join", "model.brookes"),
    ("model", "BrookesAlgebra.transition", "model.brookes"),
    ("model", "BrookesAlgebra.unit", "model.brookes"),
    ("model", "BrookesAlgebra.kleisli", "model.brookes"),
    ("model", "GTableAlgebra.apply", "model.gtable"),
    ("model", "variable_gtable", "model.gtable"),
    ("model", "gtable_to_traceset", "model.gtable"),
    ("model", "par", "model.par"),
    ("traces", "canonicalize", "traces.canonicalize"),
    ("traces", "member", "traces.member"),
    ("traces", "subset", "traces.subset"),
    ("traces", "equal", "traces.equal"),
    ("traces", "missing_witness", "traces.missing_witness"),
    ("traces", "step_deductions", "traces.step_deductions"),
    ("checker", "check_equal", "checker"),
    ("checker", "check_refines", "checker"),
    ("checker", "denote", "checker"),
    ("checker", "denote_B", "checker"),
    ("checker", "denote_G", "checker"),
    ("checker", "_denote_as_traces", "checker"),
]

# Operations of TraceAlgebra whose results count towards model.ops.
MODEL_OPS = {
    "model.update", "model.lookup", "model.acquire", "model.release",
    "model.join", "model.transition", "model.unit", "model.kleisli",
}

COUNTED = ("traces", "_gen_contains", "traces.gen_contains")

# Spans whose self time is reported; names with a call count as well.
SELF_TIMES = sorted({name for _, _, name in SPANS})
CALL_COUNTS = [
    "cli.parse_file", "kernel.check_sort", "kernel.evaluate",
    "theories.apply_translation", "traces.canonicalize", "traces.member",
    "traces.missing_witness",
]


def _unit(name: str) -> tuple[str, str]:
    """Unit and better direction of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name == "trace.overhead_ratio":
        return "ratio", "lower"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio", "higher"
    return "count", "lower"


def metric_names() -> list[str]:
    names = [f"{n}.self_s" for n in SELF_TIMES]
    names += [f"{n}.calls" for n in CALL_COUNTS]
    names += [
        "model.ops.calls", "model.ops.gens_out",
        "traces.canonicalize.gens_in", "traces.canonicalize.gens_out",
        "traces.canonicalize.keep_ratio",
        "traces.gen_contains.calls", "traces.gen_contains.hit_ratio",
        "trace.coverage", "trace.overhead_ratio", "trace.wall_s", "trace.untraced_wall_s",
    ]
    return names


def metric_specs() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json, in emission order."""
    out = []
    for name in metric_names():
        unit, better = _unit(name)
        out.append({"name": name, "unit": unit, "better": better})
    return out


class Tracer:
    """Installs and removes the wrappers, and holds what they measured."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0] for name in SELF_TIMES}
        self.counts = {
            "model.ops.calls": 0, "model.ops.gens_out": 0,
            "traces.canonicalize.gens_in": 0, "traces.canonicalize.gens_out": 0,
        }
        self.gen_contains = [0, 0]  # calls, hits
        # Child-time accumulators; the bottom entry collects root spans.
        self.stack = [0.0]
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._originals: list[object] = []
        self._prepare()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        counts = self.counts
        is_op = name in MODEL_OPS
        is_canon = name == "traces.canonicalize"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if is_op:
                    counts["model.ops.calls"] += 1
                    counts["model.ops.gens_out"] += len(result.generators)
                elif is_canon:
                    counts["traces.canonicalize.gens_in"] += len(args[0].generators)
                    counts["traces.canonicalize.gens_out"] += len(result.generators)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur - stack.pop()
                stack[-1] += dur
            return result

        return wrapper

    def _counter(self, fn: Callable) -> Callable:
        cell = self.gen_contains

        def counted(*args):
            hit = fn(*args)
            cell[0] += 1
            if hit:
                cell[1] += 1
            return hit

        return counted

    def _prepare(self) -> None:
        """Build one wrapper per function and find every binding of it."""
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "tracealg" or n.startswith("tracealg.")
        ]
        for mod, attr, name in SPANS + [COUNTED]:
            module = sys.modules.get(f"tracealg.{mod}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or leaf not in vars(owner):
                self.missing.append(f"{mod}.{attr}")
                continue
            original = vars(owner)[leaf]
            wrapper = self._counter(original) if name == COUNTED[2] else self._span(name, original)
            self._originals.append(original)
            if owner_name:
                self._bindings.append((owner, leaf, original, wrapper))
                continue
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._bindings.append((m, key, original, wrapper))

    def install(self) -> None:
        for holder, key, _original, wrapper in self._bindings:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _wrapper in self._bindings:
            setattr(holder, key, original)

    def unbound_aliases(self) -> list[str]:
        """While installed: dictionaries that still hold an unwrapped function.

        A module, class or table that kept the original (say, a dispatch
        dict built at import time) would silently bypass its span.
        """
        bad = []
        for original in self._originals:
            for ref in gc.get_referrers(original):
                if isinstance(ref, dict):
                    owner = ref.get("__name__", "a table")
                    bad.append(f"{getattr(original, '__qualname__', original)} via {owner}")
        return bad

    # -- results ----------------------------------------------------------

    @property
    def root_s(self) -> float:
        return self.stack[0]

    def metrics(self, traced_wall: float, untraced_wall: float, root_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self.stats[name][1]
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = self.stats[name][0]
        out.update(self.counts)
        gin = self.counts["traces.canonicalize.gens_in"]
        out["traces.canonicalize.keep_ratio"] = (
            self.counts["traces.canonicalize.gens_out"] / gin if gin else 0.0
        )
        calls, hits = self.gen_contains
        out["traces.gen_contains.calls"] = calls
        out["traces.gen_contains.hit_ratio"] = hits / calls if calls else 0.0
        out["trace.coverage"] = root_s / traced_wall if traced_wall else 0.0
        out["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        return {name: out[name] for name in metric_names()}

    def call_counts(self) -> dict[str, int]:
        out = {name: stat[0] for name, stat in self.stats.items()}
        out["traces.gen_contains"] = self.gen_contains[0]
        return out


# Layers each workload must reach, and those it must not: a wrapper that
# records nothing where work is predicted means an alias was missed.
PREDICTED_WORK = {
    "chain": [
        "checker", "kernel.evaluate", "model.update", "model.lookup", "model.acquire",
        "model.release", "model.unit", "traces.canonicalize", "traces.member",
        "traces.missing_witness", "traces.gen_contains",
    ],
    "queries": [
        "cli.parse_file", "cli.command", "kernel.check_sort", "kernel.evaluate",
        "theories.build", "theories.apply_translation", "checker", "model.update",
        "model.lookup", "model.acquire", "model.release", "model.join", "model.brookes",
        "model.gtable", "model.par", "traces.canonicalize", "traces.member",
        "traces.missing_witness", "traces.gen_contains",
    ],
    "sweep": [
        "checker", "kernel.evaluate", "model.update", "model.lookup", "model.acquire",
        "model.release", "model.kleisli", "model.reify", "model.reify_trace",
        "traces.canonicalize", "traces.member", "traces.subset", "traces.equal",
        "traces.step_deductions", "traces.gen_contains",
    ],
}
PREDICTED_IDLE = {
    "chain": ["cli.parse_file", "cli.command", "kernel.check_sort", "theories.apply_translation"],
    "queries": [],
    "sweep": ["cli.parse_file", "cli.command", "kernel.check_sort", "theories.apply_translation"],
}


def self_check(workload: str, before: dict[str, int], after: dict[str, int]) -> list[str]:
    """Compare the calls a query pass made (``after - before``) with the tables."""
    calls = {name: after[name] - before[name] for name in after}
    problems = []
    for name in PREDICTED_WORK[workload]:
        if calls[name] == 0:
            problems.append(f"{name} recorded no calls on {workload}")
    for name in PREDICTED_IDLE[workload]:
        if calls[name] != 0:
            problems.append(f"{name} recorded {calls[name]} calls on {workload}, expected none")
    return problems
