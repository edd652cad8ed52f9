"""One benchmark worker: a fresh interpreter that sets up, then measures.

    python3 bench/worker.py setup WORKLOAD
    python3 bench/worker.py run WORKLOAD SEED SECONDS TRACE

``run.py`` starts it with ``PYTHONHASHSEED`` pinned and ``src`` on the path,
and reads the JSON object on its last line of output.  Only the standard
library is imported before the set-up clock starts.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(HERE, ".work")

# Store spaces whose presentations and translations each workload builds.
SETUP_LOCATIONS = {
    "chain": [("l0",), ("l0", "l1"), ("l0", "l1", "l2")],
    "queries": [("x", "y")],
    "sweep": [("x", "y")],
}

CALIB_EVERY_S = 0.25
MIN_SAMPLES = 100  # so that at least ten latency samples lie beyond p90


class CpuRotation:
    """Move this process to the next allowed CPU at each call.

    On a shared machine each CPU slows down and speeds up with its
    neighbours' load, independently of the others; a run that stayed on one
    CPU would measure that CPU's luck.  Rotating every calibration interval
    spreads every run evenly over all of them.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.next = 0

    def step(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.next % len(self.cpus)]})
            self.next += 1


def setup(workload: str) -> float:
    """Import tracealg and build what every query of the workload shares."""
    t0 = time.perf_counter()
    import tracealg
    import tracealg.cli  # noqa: F401  (the queries workload drives the CLI)

    for locations in SETUP_LOCATIONS[workload]:
        space = tracealg.StoreSpace(locations)
        for name in tracealg.theories.THEORY_NAMES:
            tracealg.build(name, space)
        tracealg.builtin_translations(space)
    return time.perf_counter() - t0


def calibrate() -> float:
    """A fixed pure-Python loop: its time tracks how fast the machine is now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of sorted ``values``."""
    pos = (len(values) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def load_reference() -> dict:
    import workloads

    with open(workloads.REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def execute(q) -> tuple[float, str | None, str | None]:
    """Run one query: its time, its output, and the error it raised."""
    t0 = time.perf_counter()
    try:
        out = q.run()
    except Exception as exc:  # a crashing query is a failed query
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


class Tally:
    """Attempted and failed queries, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, q, out: str | None, error: str | None) -> None:
        import workloads

        self.attempted += 1
        if error is None and workloads.matches(q.expect, out):
            return
        self.failed += 1
        if len(self.examples) < 5:
            got = error or (out if len(out) < 300 else workloads.listing_digest(out))
            self.examples.append(f"{q.key} ({q.kind}): got {got!r}, expected {q.expect!r}")


def timed(queries: list, seed: int, seconds: float) -> dict:
    """Closed loop, one query in flight, whole seeded passes over the list.

    The run ends with the first pass that finishes after ``seconds`` (and
    after ``MIN_SAMPLES`` queries), so every query has the same number of
    samples and the latency distribution does not depend on where a clock
    cut a pass.
    """
    rng = random.Random(f"order-{seed}")
    tally = Tally()
    samples: list[float] = []
    by_key: dict[str, list[float]] = {}
    calib: list[float] = []
    calib_total = 0.0
    passes = 0
    rotation = CpuRotation()
    rotation.step()
    start = time.perf_counter()
    last_calib = start
    while True:
        order = list(queries)
        rng.shuffle(order)
        for q in order:
            dt, out, error = execute(q)
            tally.record(q, out, error)
            samples.append(dt)
            by_key.setdefault(q.key, []).append(dt)
            now = time.perf_counter()
            if now - last_calib >= CALIB_EVERY_S:
                rotation.step()
                c = calibrate()
                calib.append(c)
                calib_total += c
                last_calib = time.perf_counter()
        passes += 1
        if time.perf_counter() - start >= seconds and len(samples) >= MIN_SAMPLES:
            break
    elapsed = time.perf_counter() - start - calib_total
    samples.sort()
    log_medians = [math.log(statistics.median(v)) for v in by_key.values()]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.examples,
        "passes": passes,
        "elapsed_s": elapsed,
        "distinct": len(by_key),
        "queries_per_s": tally.attempted / elapsed,
        "latency_p50_ms": percentile(samples, 0.5) * 1e3,
        "latency_p90_ms": percentile(samples, 0.9) * 1e3,
        "beyond_p90": sum(1 for s in samples if s > percentile(samples, 0.9)),
        "latency_geomean_ms": math.exp(statistics.fmean(log_medians)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calib_ms": statistics.median(calib) * 1e3 if calib else calibrate() * 1e3,
        "calib_n": len(calib),
    }


def traced(queries: list, workload: str, tracer) -> dict:
    """Each query once untraced and once traced, back to back.

    Which of the two goes first alternates, so that both see the same
    machine phases and the wall ratio is the tracing overhead.  Only the
    traced runs are checked and counted; counts repeat exactly for a seed.
    """
    import tracer as tracer_mod

    tally = Tally()
    tracer.install()
    problems = [f"no such function: {m}" for m in tracer.missing]
    problems += [f"alias not rebound: {a}" for a in tracer.unbound_aliases()]
    tracer.uninstall()
    before = tracer.call_counts()
    traced_wall = untraced_wall = root_s = 0.0
    for i, q in enumerate(queries):
        for trace_now in (i % 2 == 1, i % 2 == 0):
            if not trace_now:
                untraced_wall += execute(q)[0]
                continue
            tracer.install()
            root_before = tracer.root_s
            dt, out, error = execute(q)
            root_s += tracer.root_s - root_before
            tracer.uninstall()
            traced_wall += dt
            tally.record(q, out, error)
    problems += tracer_mod.self_check(workload, before, tracer.call_counts())
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.examples + problems,
        "metrics": tracer.metrics(traced_wall, untraced_wall, root_s),
    }


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        print(json.dumps({"setup_s": setup(workload)}))
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    sys.path.insert(0, HERE)
    import tracer as tracer_mod
    import workloads  # imports every tracealg module the tracer wraps

    if trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
    setup(workload)
    if trace:
        tracer.uninstall()
    workdir = os.path.join(WORKDIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        queries = workloads.make(workload, seed, load_reference(), workdir)
        result = traced(queries, workload, tracer) if trace else timed(queries, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:  # another worker still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
