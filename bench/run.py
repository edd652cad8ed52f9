"""tracealg benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload chain|queries|sweep --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; tracealg is imported from ``src``.  Each
run starts fresh worker interpreters with ``PYTHONHASHSEED`` pinned: one that
generates the workload's inputs from the seed and measures, and, before and
after it, several that only time set-up (their median is ``setup_s``).  With
``--trace 0`` the worker runs whole passes for at least ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it runs one pass, each
query once plain and once with layer spans installed, and reports the
per-layer metrics.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output is checked against its reference;
a mismatch counts as a failed query and the run exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("chain", "queries", "sweep")
SETUP_SAMPLES = 20
WORKER_TIMEOUT_S = 170
HASH_SEED = "0"

# name -> (unit, how many samples it summarises, given the worker result)
END_TO_END = {
    "setup_s": ("s", lambda r: r["setup_samples"]),
    "queries_per_s": ("1/s", lambda r: r["attempted"]),
    "latency_p50_ms": ("ms", lambda r: r["attempted"]),
    "latency_p90_ms": ("ms", lambda r: r["attempted"]),
    "latency_geomean_ms": ("ms", lambda r: r["distinct"]),
    "peak_rss_mb": ("MB", lambda r: 1),
}


class WorkerFailed(Exception):
    pass


def worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(args)} timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over tracealg's sources: names the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tracealg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def diagnostics() -> dict:
    """Noise context for the run; never used to rescale a metric."""
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "hash_seed": HASH_SEED,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Returns the result object and the human-readable report lines."""
    diag = diagnostics()
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    if trace:
        r = worker("run", workload, str(seed), str(seconds), "1")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in r["metrics"].items()}
        for k, v in r["metrics"].items():
            lines.append(f"  {k:42s} {v:>14.6g} {unit_of(k)}")
        lines.append("  share of traced wall: " + layer_shares(r["metrics"]))
    else:
        # Set-up samples straddle the measuring worker, so that one slow
        # phase of the machine does not decide their median.
        worker("setup", workload)  # compiles bytecode and warms the file cache
        setups = [worker("setup", workload)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        r = worker("run", workload, str(seed), str(seconds), "0")
        setups += [worker("setup", workload)["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
        r["setup_s"] = statistics.median(setups)
        r["setup_samples"] = len(setups)
        metrics = {}
        for name, (unit, count) in END_TO_END.items():
            metrics[name] = {"value": r[name], "unit": unit}
            lines.append(f"  {name:20s} {r[name]:>12.5g} {unit:6s} n={count(r)}")
        error_rate = r["failed"] / r["attempted"]
        lines.append(f"  {'error_rate':20s} {error_rate:>12.5g} {'ratio':6s} n={r['attempted']}")
        lines.append(
            f"  passes={r['passes']} elapsed_s={r['elapsed_s']:.2f} "
            f"distinct={r['distinct']} beyond_p90={r['beyond_p90']}"
        )
        diag["calib_ms"] = round(r["calib_ms"], 4)
        diag["calib_n"] = r["calib_n"]
    lines += [f"  FAILED {f}" for f in r["failures"]]
    lines.append("diagnostics " + json.dumps(diag))
    result = {
        "correct": r["failed"] == 0 and not r["failures"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }
    return result, lines


def layer_shares(metrics: dict) -> str:
    """Self time per layer (the first part of each span name) over traced wall."""
    wall = metrics["trace.wall_s"]
    shares: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value / wall
    canon = metrics["traces.canonicalize.self_s"] / wall
    parts = [f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])]
    return ", ".join(parts) + f" (of which traces.canonicalize {canon:.1%})"


def unit_of(name: str) -> str:
    import tracer

    return {m["name"]: m["unit"] for m in tracer.metric_specs()}[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tracealg")):
        print(f"error: no tracealg sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
