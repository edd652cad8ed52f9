"""Pin the reference answers in ``reference.json`` (run once, at a known-good commit).

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/pin.py

Pins every ``denote`` listing (a sha256 prefix and the line count) and every refutation
(the exact CLI output) that a benchmark run can draw: each ``chain`` variant
and each ``queries`` pool entry.  Verdicts that follow from the laws are not
pinned, but asserted here on every variant.  Each pinned refutation is
confirmed against the brute-force oracle ``closure_bounded`` wherever the
bounded closure stays under ``ORACLE_CAP`` traces; the pin records whether
it was.  A later run compares against these pins, never against the code
it measures.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracealg  # noqa: E402
from tracealg import checker, cli, traces  # noqa: E402

import workloads as W  # noqa: E402

ORACLE_CAP = 200_000


def oracle(verdict, d_left, d_right) -> str:
    """Does the bounded closure agree that the witness separates the sides?"""
    if verdict.holds:
        return "n/a"
    w = verdict.witness
    inside, outside = (d_left, d_right) if verdict.direction == "lhs ⊄ rhs" else (d_right, d_left)
    space = traces._space_for([w])
    try:
        for K, want in ((inside, True), (outside, False)):
            bound = max([len(w.steps)] + [len(g.steps) for g in K.generators])
            closure = traces.closure_bounded(
                K.generators, K.discipline, space, bound, slack=0, cap=ORACLE_CAP
            )
            if (w in closure) != want:
                raise AssertionError(f"oracle disagrees on {w.render()}")
    except traces.BudgetExceeded:
        return "cap"
    return "confirmed"


def pin_chain() -> dict:
    pins = {}
    for kind in W.CHAIN_KINDS:
        for n, k in W.chain_sizes(kind):
            for variant in W.chain_shapes(n, k):
                probes = range(n) if kind == "irrelevant_read" else (0,)
                for probe in probes:
                    shape = W.ChainShape(k, n, variant.flip, variant.perm, probe)
                    q = W.chain_query(kind, shape, {})
                    out = q.run()
                    if kind == "denote":
                        pins[q.key] = list(W.listing_digest(out))
                    elif kind == "write_intro":
                        assert out.startswith("refuted"), (q.key, out)
                        pins[q.key] = {"expect": out, "oracle": chain_oracle(shape)}
                    else:
                        assert out == q.expect, (q.key, out)
            print(f"chain {kind} n={n} k={k}", file=sys.stderr)
    return pins


def chain_oracle(shape) -> str:
    space = W.space_for(shape.n)
    sig = tracealg.build("S", space).signature
    ctx = {"C": W.CEDE}
    lhs = tracealg.check_sort(sig, ctx, shape.dead_write_raw())
    rhs = tracealg.check_sort(sig, ctx, shape.raw())
    verdict = checker.check_refines("S", ctx, lhs, rhs, space)
    return oracle(verdict, checker.denote("S", ctx, lhs, space), checker.denote("S", ctx, rhs, space))


def pin_queries(workdir: str) -> dict:
    pins = {}
    for index in range(W.QUERY_POOL):
        theory, kind, text = W.query_file(index)
        path = os.path.join(workdir, f"q{index}.tf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        handler, args = W.query_namespace(kind, path)
        out = W.run_cli(handler, args)
        assert out.startswith(("exit 0\n", "exit 1\n")), (index, out)
        pin = {"text": W.digest(text)}
        if kind in ("denote", "par"):
            pin["expect"] = list(W.listing_digest(out))
        elif kind == "refines_join":
            assert out == "exit 0\nholds\n", (index, out)
        else:
            pin["expect"] = out
            tf = cli.parse_file(path)
            l, r = tf.terms["l"], tf.terms["r"]
            decide = checker.check_equal if kind == "eq" else checker.check_refines
            verdict = decide(tf.theory.name, tf.ctx, l, r, tf.space)
            assert out.split("\n", 1)[1] == W.render_verdict(verdict), (index, out)
            sides = [checker._denote_as_traces(tf.theory.name, tf.ctx, t, tf.space) for t in (l, r)]
            pin["oracle"] = oracle(verdict, *sides)
        pins[str(index)] = pin
    return pins


def write_reference(reference: dict) -> None:
    """One pin per line, keys sorted, so that a re-pin diffs line by line."""
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for i, section in enumerate(sorted(reference)):
            handle.write(f"{json.dumps(section)}: {{\n")
            entries = sorted(reference[section].items())
            for j, (key, pin) in enumerate(entries):
                comma = "," if j < len(entries) - 1 else ""
                handle.write(f"{json.dumps(key)}: {json.dumps(pin, sort_keys=True, ensure_ascii=False)}{comma}\n")
            handle.write("}" + ("," if i < len(reference) - 1 else "") + "\n")
        handle.write("}\n")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        reference = {"chain": pin_chain(), "queries": pin_queries(workdir)}
    write_reference(reference)
    oracles = [p.get("oracle") for p in reference["queries"].values()]
    oracles += [p["oracle"] for k, p in reference["chain"].items() if k.startswith("write_intro")]
    print(
        f"pinned {len(reference['chain'])} chain and {len(reference['queries'])} queries entries; "
        f"refutations confirmed by the oracle: {oracles.count('confirmed')}, "
        f"over the cap: {oracles.count('cap')}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
