"""The benchmark's own checks; they are not part of the tracealg test suite.

    python3 -m pytest -q bench/checks.py     # about two minutes
    python3 bench/checks.py roadmap          # one-off: the ROADMAP's larger chain rows

The pytest checks prove that the ``chain`` generator is the ROADMAP's
``chain(k, n)``, that the inputs still match their pins, that the tracer
reaches every alias, and that two traced runs count exactly the same work.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as W  # noqa: E402

# (k, n) -> canonical generators, from the ROADMAP's baseline table.
CHAIN_COUNTS = {(8, 1): 55, (11, 1): 233, (4, 2): 106, (5, 2): 304, (3, 3): 241}
ROADMAP_ROWS = {(12, 1): 377, (6, 2): 860, (4, 3): 1361}


def test_chain_counts_match_roadmap():
    for (k, n), count in CHAIN_COUNTS.items():
        assert W.chain_count(k, n) == count, (k, n)


def test_query_pool_matches_pins():
    with open(W.REFERENCE_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)["queries"]
    assert len(pins) == W.QUERY_POOL
    for index in range(W.QUERY_POOL):
        _theory, _kind, text = W.query_file(index)
        assert pins[str(index)]["text"] == W.digest(text), index


def test_benchmark_json_names_what_the_harness_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for u, _ in run.END_TO_END.values()]
    assert spec["per_layer"] == tracer_mod.metric_specs()


def test_tracer_rebinds_every_alias():
    tracer = tracer_mod.Tracer()
    assert tracer.missing == []
    tracer.install()
    try:
        assert tracer.unbound_aliases() == []
        import tracealg

        for mod in ("traces", "model", "checker", "cli"):
            assert getattr(tracealg, mod).canonicalize.__module__ == tracer_mod.__name__
        assert tracealg.model.TraceAlgebra.update.__module__ == tracer_mod.__name__
    finally:
        tracer.uninstall()
    assert tracealg.traces.canonicalize.__module__ == "tracealg.traces"


def test_traced_runs_count_identically():
    counts = [
        name for name in tracer_mod.metric_names()
        if name.endswith((".calls", ".gens_in", ".gens_out"))
    ]
    for workload in run.WORKLOADS:
        first, second = (run.worker("run", workload, "7", "1", "1") for _ in range(2))
        assert first["failures"] == [] and second["failures"] == [], workload
        for name in counts:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def roadmap() -> None:
    """Reproduce the ROADMAP baseline rows that take 15 s or less."""
    for (k, n), count in sorted(ROADMAP_ROWS.items()):
        t0 = time.perf_counter()
        got = W.chain_count(k, n)
        print(f"chain(k={k}, n={n}): {got} generators (ROADMAP: {count}) in {time.perf_counter() - t0:.2f} s")
        assert got == count


if __name__ == "__main__":
    if sys.argv[1:] != ["roadmap"]:
        sys.exit(__doc__)
    roadmap()
