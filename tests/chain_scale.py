"""CPU time of the ``chain(k, n)`` queries, at sizes past the benchmark's caps.

Run from the repository root:

    python3 tests/chain_scale.py 16,1 8,2 6,3

Each ``k,n`` argument prints one row: ``k``, ``n``, the number of canonical
generators of the chain's denotation, and the best of three CPU times
(``time.process_time``, in seconds) of three queries on it:

- ``denote``, the chain's canonical generators;
- ``dead_write``, the chain refines the chain behind a write that its first
  block overwrites;
- ``irrelevant_read``, a read whose branches are both the chain equals the
  chain.

The terms are the benchmark's, built by ``bench/workloads.ChainShape``
(imported read only) with flip 0, the identity permutation and location 0
probed by the read; each is sort-checked once, before any timing.  Both
decisions must hold: the script exits 1 at the first that does not.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402  (bench/workloads.py, imported read only)
from tracealg import CEDE, build, check_equal, check_refines, check_sort, denote  # noqa: E402

REPEAT = 3


def best_of(run) -> tuple[float, object]:
    """The least CPU time of ``REPEAT`` calls of ``run``, and its last result."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.process_time()
        result = run()
        best = min(best, time.process_time() - t0)
    return best, result


def row(k: int, n: int) -> str:
    shape = workloads.ChainShape(k, n, 0, tuple(range(n)), 0)
    space = workloads.space_for(n)
    sig, ctx = build("S", space).signature, {"C": CEDE}
    chain, dead, read = (check_sort(sig, ctx, raw) for raw in
                         (shape.raw(), shape.dead_write_raw(), shape.irrelevant_read_raw()))
    denote_s, K = best_of(lambda: denote("S", ctx, chain, space))
    cells = [str(k), str(n), str(len(K.generators)), f"{denote_s:.3f}"]
    for name, decide in (("dead_write", lambda: check_refines("S", ctx, chain, dead, space)),
                         ("irrelevant_read", lambda: check_equal("S", ctx, read, chain, space))):
        seconds, verdict = best_of(decide)
        if not verdict.holds:
            sys.exit(f"chain({k}, {n}) {name}: {verdict}")
        cells.append(f"{seconds:.3f}")
    return " ".join(cells)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tests/chain_scale.py K,N [K,N ...]", file=sys.stderr)
        return 2
    print("k n gens denote_s dead_write_s irrelevant_read_s")
    for arg in argv:
        k, n = map(int, arg.split(","))
        print(row(k, n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
