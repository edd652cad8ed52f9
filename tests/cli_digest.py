"""Digest of the command-line tool's answers on a fixed set of term files.

Run from the repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/cli_digest.py > digest.txt

Each line is one ``cli.main`` run, in process: its key (input file and
arguments), the exit code, and sha256 prefixes of what it printed to stdout
and to stderr.  The inputs are

- the 2,000 files of the ``queries`` benchmark pool
  (``bench/workloads.query_file``, read only);
- one file per variant of ``chain(k, n)`` at the benchmark's sizes;
- seeded random ``S``, ``Tr``, ``B``, ``G`` and ``Tgs`` files at one to three
  locations, drawn by ``checker.random_term`` and printed by
  ``cli.term_to_sexpr``.

On each file it runs ``eq l r``, ``refines`` both ways, ``refines l u`` on
files with a join ``u``, ``denote`` and ``denote --json`` of both sides,
``par`` on ``B`` files and every built-in ``translate`` from the file's
theory; on a chain file it runs the benchmark's ``chain`` queries.  Files
are written to a temporary directory and named relative to it, so that no
output depends on where that directory is.

A change that must keep the tool's behaviour compares two checkouts (here
``parent`` and ``change``) with

    for tree in parent change; do
        (cd $tree && PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/cli_digest.py) > $tree.txt
    done
    diff parent.txt change.txt

and an empty ``diff`` means every run printed the same bytes with the same
exit code.  The run takes about a minute on one core.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench/workloads.py, imported read only)
from tracealg import CEDE, HOLD, STAR, StoreSpace, build, check_sort, cli  # noqa: E402
from tracealg.checker import random_term  # noqa: E402
from tracealg.theories import builtin_translations  # noqa: E402

RANDOM_THEORIES = ("S", "Tr", "B", "G", "Tgs")
RANDOM_FILES = 40  # per theory and location count
RANDOM_DEPTH = 4


def translations(theory: str) -> list[str]:
    """The target of every built-in translation from ``theory``."""
    return sorted(t.target.name for t in builtin_translations().values() if t.source.name == theory)


def file_commands(theory: str, has_join: bool) -> list[list[str]]:
    """The commands run on a file defining ``l`` and ``r`` (and ``u``)."""
    out = [["eq", "l", "r"], ["refines", "l", "r"], ["refines", "r", "l"]]
    if has_join:
        out.append(["refines", "l", "u"])
    for name in ("l", "r"):
        out += [["denote", name], ["denote", name, "--json"]]
        out += [["translate", name, "--from", theory, "--to", t] for t in translations(theory)]
    if theory == "B":
        out.append(["par", "l", "r"])
    return out


def pool_files():
    for index in range(workloads.QUERY_POOL):
        theory, kind, text = workloads.query_file(index)
        yield f"pool{index}", text, file_commands(theory, kind == "refines_join")


def chain_files():
    """One file per variant of each benchmark size; ``d`` is the dead-write
    form of the chain ``c`` and ``i<p>`` its irrelevant read of ``l<p>``."""
    sizes = {size for kind in workloads.CHAIN_KINDS for size in workloads.chain_sizes(kind)}
    for n, k in sorted(sizes):
        space = workloads.space_for(n)
        theory = build("S", space)
        ctx = {"C": CEDE}

        def text_of(raw: object) -> str:
            return cli.term_to_sexpr(check_sort(theory.signature, ctx, raw), theory)

        for shape in workloads.chain_shapes(n, k):
            lines = [
                "theory S", f"locs {' '.join(space.locations)}", "var C : cede",
                f"def c = {text_of(shape.raw())}", f"def d = {text_of(shape.dead_write_raw())}",
            ]
            commands = [["denote", "c"]]
            if k <= workloads.CHAIN_CAPS["dead_write"][n]:
                commands += [["refines", "c", "d"], ["refines", "d", "c"]]
            for probe in range(n):
                probed = workloads.ChainShape(k, n, shape.flip, shape.perm, probe)
                lines.append(f"def i{probe} = {text_of(probed.irrelevant_read_raw())}")
                if k <= workloads.CHAIN_CAPS["irrelevant_read"][n]:
                    commands.append(["eq", f"i{probe}", "c"])
            yield f"chain-n{n}-k{k}-{shape.variant}", "\n".join(lines) + "\n", commands


def random_files():
    for theory in RANDOM_THEORIES:
        for n in (1, 2, 3):
            space = StoreSpace(tuple(f"l{i}" for i in range(n)))
            p = build(theory, space)
            two = theory in ("S", "Tr")
            ctx = {"a": HOLD, "b": CEDE} if two else {"a": STAR, "b": STAR}
            rng = random.Random(f"cli-digest-{theory}-{n}")
            for i in range(RANDOM_FILES):
                sort = rng.choice((HOLD, CEDE)) if two else STAR
                left, right = (
                    cli.term_to_sexpr(random_term(p, ctx, sort, RANDOM_DEPTH, rng), p)
                    for _ in range(2)
                )
                text = (
                    f"theory {theory}\nlocs {' '.join(space.locations)}\n"
                    + "".join(f"var {v} : {s.value}\n" for v, s in ctx.items())
                    + f"def l = {left}\ndef r = {right}\ndef u = (or {left} {right})\n"
                )
                yield f"random-{theory}-n{n}-{i}", text, file_commands(theory, True)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0, so that two runs compare", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for group in (pool_files(), chain_files(), random_files()):
            for name, text, commands in group:
                path = f"{name}.talg"
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                for argv in commands:
                    code, out, err = run([argv[0], path, *argv[1:]])
                    print(f"{name} {' '.join(argv)}\t{code} {sha(out)} {sha(err)}", flush=True)
                os.remove(path)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
