"""The three benchmark workloads: ``chain``, ``queries`` and ``sweep``.

Each workload turns a seed into a list of queries before any timing starts.
A query is a closure that calls into tracealg and returns the text the CLI
would print (a verdict line with its witness, or a ``denote`` listing), plus
the reference that text must match.  References never come from the code
being measured: they follow from the laws (``chain`` verdicts, ``t ⊑ t∨u``,
the ``sweep`` theorems) or were pinned once in ``reference.json`` by
``pin.py``.

This module imports tracealg at the top; the set-up workers, which time that
import, never import it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import tracealg
from tracealg import cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

HOLD, CEDE = tracealg.HOLD, tracealg.CEDE


@dataclass
class Query:
    """One unit of closed-loop work.

    ``key`` names the distinct input (its median feeds the geometric mean);
    ``run`` returns the output text; ``expect`` is the reference: either the
    exact text, or ``("listing", digest, lines)`` for long listings.
    """

    key: str
    kind: str
    run: Callable[[], str]
    expect: object


def digest(text: str) -> str:
    """The first 64 bits of the text's sha256, in hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def listing_digest(text: str) -> tuple[str, str, int]:
    return ("listing", digest(text), text.count("\n"))


def matches(expect: object, out: str) -> bool:
    if isinstance(expect, str):
        return out == expect
    return listing_digest(out) == tuple(expect)


def render_verdict(verdict) -> str:
    """The line ``tracealg eq``/``refines`` prints for a verdict."""
    if verdict.holds:
        return "holds\n"
    return f"refuted ({verdict.direction}): {verdict.witness.render()}\n"


def render_listing(K) -> str:
    """The listing ``tracealg denote`` prints for a trace set."""
    return "".join(g.render() + "\n" for g in K.ordered())


def space_for(n: int) -> tracealg.StoreSpace:
    return tracealg.StoreSpace(tuple(f"l{i}" for i in range(n)))


# ---------------------------------------------------------------------------
# chain: k atomic blocks over n locations, the ROADMAP's chain(k, n)

CHAIN_KINDS = ("denote", "dead_write", "write_intro", "irrelevant_read")

# Largest k per (kind, n).  The largest query takes about 0.3 s on a 2-core
# x86 virtual machine at commit cbd4650, and a pass about 2.6 s, so that a
# 36 s run gives every query more than ten samples spread over the run.
# Larger sizes lengthen a pass until each query has only a few samples, and
# a run's p50 then rests on the few samples of the queries in the middle.
# Dead-write elimination, write introduction and the irrelevant read
# compare two denotations, so they stop earlier than the bare listing.
CHAIN_CAPS = {
    "denote": {1: 10, 2: 4, 3: 3},
    "dead_write": {1: 8, 2: 3, 3: 2},
    "write_intro": {1: 8, 2: 3, 3: 2},
    "irrelevant_read": {1: 8, 2: 3, 3: 2},
}


@dataclass(frozen=True)
class ChainShape:
    """``chain(k, n)`` up to the symmetries that keep its difficulty fixed.

    Block ``i`` writes bit ``(i + flip) % 2`` to location ``perm[i % n]``;
    relabelling locations or bits is an automorphism of the theory, so
    every variant has the same generator counts.  ``probe`` is the location
    the irrelevant read looks up.
    """

    k: int
    n: int
    flip: int
    perm: tuple[int, ...]
    probe: int

    @property
    def variant(self) -> str:
        return f"f{self.flip}p{''.join(map(str, self.perm))}"

    def block(self, i: int) -> tuple[str, int]:
        return f"l{self.perm[i % self.n]}", (i + self.flip) % 2

    def raw(self, tail: object = "C") -> object:
        """The raw operator tree of the chain, ending in the cede variable."""
        t = tail
        for i in reversed(range(self.k)):
            loc, bit = self.block(i)
            t = ("acq", (f"upd:{loc}:{bit}", ("rel", t)))
        return t

    def dead_write_raw(self) -> object:
        """One leading write that block 0 overwrites."""
        loc, bit = self.block(0)
        return ("acq", (f"upd:{loc}:{1 - bit}", ("rel", self.raw())))

    def irrelevant_read_raw(self) -> object:
        c = self.raw()
        return ("acq", (f"lkp:l{self.probe}", ("rel", c), ("rel", c)))


def chain_shapes(n: int, k: int) -> list[ChainShape]:
    """Every variant of ``chain(k, n)``, in a fixed order."""
    return [
        ChainShape(k, n, flip, perm, 0)
        for flip in (0, 1)
        for perm in itertools.permutations(range(n))
    ]


def chain_key(kind: str, shape: ChainShape) -> str:
    return f"{kind}:n{shape.n}:k{shape.k}:{shape.variant}"


def chain_sizes(kind: str) -> list[tuple[int, int]]:
    return [(n, k) for n, cap in CHAIN_CAPS[kind].items() for k in range(1, cap + 1)]


def chain_count(k: int, n: int) -> int:
    """Canonical generators of ``denote(chain(k, n))``."""
    shape = ChainShape(k, n, 0, tuple(range(n)), 0)
    space = space_for(n)
    sig = tracealg.build("S", space).signature
    ctx = {"C": CEDE}
    term = tracealg.check_sort(sig, ctx, shape.raw())
    return len(tracealg.denote("S", ctx, term, space).generators)


def chain_query(kind: str, shape: ChainShape, pins: dict) -> Query:
    """Build the terms now (input generation); the closure only decides."""
    space = space_for(shape.n)
    sig = tracealg.build("S", space).signature
    ctx = {"C": CEDE}
    check = tracealg.check_sort
    chain = check(sig, ctx, shape.raw())
    key = chain_key(kind, shape)
    checker = tracealg.checker
    if kind == "denote":
        return Query(
            key, kind,
            lambda: render_listing(checker.denote("S", ctx, chain, space)),
            tuple(pins[key]) if key in pins else None,
        )
    if kind == "dead_write":
        rhs = check(sig, ctx, shape.dead_write_raw())
        return Query(
            key, kind,
            lambda: render_verdict(checker.check_refines("S", ctx, chain, rhs, space)),
            "holds\n",
        )
    if kind == "write_intro":
        lhs = check(sig, ctx, shape.dead_write_raw())
        return Query(
            key, kind,
            lambda: render_verdict(checker.check_refines("S", ctx, lhs, chain, space)),
            pins[key]["expect"] if key in pins else None,
        )
    if kind == "irrelevant_read":
        lhs = check(sig, ctx, shape.irrelevant_read_raw())
        return Query(
            key, kind,
            lambda: render_verdict(checker.check_equal("S", ctx, lhs, chain, space)),
            "holds\n",
        )
    raise ValueError(f"unknown chain query kind {kind!r}")


def make_chain(seed: int, reference: dict) -> list[Query]:
    """One query per (kind, n, k); the seed picks each one's variant."""
    rng = random.Random(f"chain-{seed}")
    pins = reference["chain"]
    out = []
    for kind in CHAIN_KINDS:
        for n, k in chain_sizes(kind):
            shape = rng.choice(chain_shapes(n, k))
            shape = ChainShape(k, n, shape.flip, shape.perm, rng.randrange(n))
            out.append(chain_query(kind, shape, pins))
    return out


# ---------------------------------------------------------------------------
# queries: random term files in the README grammar, through the CLI commands

QUERY_THEORIES = ("S", "Tr", "B", "G", "Tgs")
QUERY_DEPTH = 5
# par multiplies its operands' generator counts and interleaves every pair,
# so at depth 5 a few par queries take half a second and the workload turns
# into a par benchmark; at depth 3 they stay in the size class of the rest.
PAR_DEPTH = 3
QUERY_JOIN_ARITY = 3
QUERY_POOL = 2000
QUERY_SAMPLE = 1000
_BITS = ("00", "01", "10", "11")

# (theory, kind) in a fixed order; pool entry i uses COMBOS[i % len(COMBOS)].
QUERY_COMBOS = tuple(
    [(t, "eq") for t in QUERY_THEORIES]
    + [(t, "refines") for t in QUERY_THEORIES]
    + [(t, "refines_join") for t in QUERY_THEORIES]
    + [(t, "denote") for t in ("S", "Tr", "B", "G")]
    + [("B", "par")]
)


def _operators(theory: str) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Surface operators by result sort: (prefix text, argument sorts).

    This is the README grammar over locations ``x y``, written out here so
    that the inputs do not depend on the signatures under measurement.
    """
    state = [(f"upd {loc} {b}", ("H",)) for loc in "xy" for b in "01"]
    state += [(f"lkp {loc}", ("H", "H")) for loc in "xy"]
    trans = [(f"tr {p} {q}", ("H",)) for p in _BITS for q in _BITS]
    if theory == "S":
        return {"H": state + [("rel", ("C",))], "C": [("acq", ("H",))]}
    if theory == "Tr":
        return {"H": trans + [("rel", ("C",))], "C": [("acq", ("H",))]}
    if theory == "G":
        return {"H": state}
    return {"H": trans}


def _two_sorted(theory: str) -> bool:
    return theory in ("S", "Tr")


def random_term_text(
    theory: str, sort: str, rng: random.Random, depth: int = QUERY_DEPTH
) -> tuple[str, bool]:
    """A random term in the shape of ``checker.random_term``, as text.

    Returns the text and whether its sort is determined without context:
    a join whose children are all bare ``bot`` (or such joins) is not.
    Variables are ``a`` (hold, or the single sort) and ``b`` (cede).
    """
    ops = _operators(theory)
    names = {"H": ["a"], "C": ["b"]} if _two_sorted(theory) else {"H": ["a", "b"]}

    def gen(want: str, depth: int) -> tuple[str, bool]:
        vs = names.get(want, [])
        if depth <= 0:
            if vs and rng.random() < 0.9:
                return rng.choice(vs), True
            return "bot", False
        if vs and rng.random() < 0.2:
            return rng.choice(vs), True
        choices = [("or", None)] + ops[want]
        head, args = choices[rng.randrange(len(choices))]
        if args is None:
            kids = [gen(want, depth - 1) for _ in range(rng.randint(0, QUERY_JOIN_ARITY))]
            if not kids:
                return "bot", False
            return f"(or {' '.join(t for t, _ in kids)})", any(d for _, d in kids)
        kids = [gen(s, depth - 1) for s in args]
        return f"({head} {' '.join(t for t, _ in kids)})", True

    return gen(sort, depth)


def query_file(index: int) -> tuple[str, str, str]:
    """Pool entry ``index``: (theory, kind, term file text).

    Draws are redrawn until every top-level term has a determined sort, so
    each file is one the README grammar accepts.
    """
    theory, kind = QUERY_COMBOS[index % len(QUERY_COMBOS)]
    rng = random.Random(f"queries-{index}")
    two = _two_sorted(theory)
    depth = PAR_DEPTH if kind == "par" else QUERY_DEPTH
    while True:
        sort = rng.choice(("H", "C")) if two else "H"
        left, ldet = random_term_text(theory, sort, rng, depth)
        right, rdet = random_term_text(theory, sort, rng, depth)
        if not two or (ldet and rdet):
            break
    if two:
        decls = "var a : hold\nvar b : cede\n"
    else:
        decls = "var a : star\nvar b : star\n"
    text = f"theory {theory}\nlocs x y\n{decls}def l = {left}\ndef r = {right}\n"
    if kind == "refines_join":
        text += f"def u = (or {left} {right})\n"
    return theory, kind, text


def query_namespace(kind: str, path: str) -> tuple[str, argparse.Namespace]:
    """The CLI handler name and its parsed arguments for one query."""
    if kind == "eq":
        return "cmd_eq", argparse.Namespace(file=path, lhs="l", rhs="r")
    if kind == "refines":
        return "cmd_refines", argparse.Namespace(file=path, lhs="l", rhs="r")
    if kind == "refines_join":
        return "cmd_refines", argparse.Namespace(file=path, lhs="l", rhs="u")
    if kind == "denote":
        return "cmd_denote", argparse.Namespace(file=path, name="l", json=False)
    if kind == "par":
        return "cmd_par", argparse.Namespace(file=path, left="l", right="r", json=False)
    raise ValueError(f"unknown query kind {kind!r}")


def run_cli(handler: str, args: argparse.Namespace) -> str:
    """Run one CLI command as ``main`` would, returning exit code and stdout.

    The handler is looked up at call time so traced runs see the wrapper.
    """
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = getattr(cli, handler)(args)
    return f"exit {code}\n{buf.getvalue()}"


def make_queries(seed: int, reference: dict, workdir: str) -> list[Query]:
    """A seeded sample of the pinned pool, written as term files."""
    pins = reference["queries"]
    rng = random.Random(f"queries-sample-{seed}")
    combos = len(QUERY_COMBOS)
    chosen = []
    for c in range(combos):
        stratum = range(c, QUERY_POOL, combos)
        chosen += rng.sample(stratum, QUERY_SAMPLE // combos)
    out = []
    for index in sorted(chosen):
        theory, kind, text = query_file(index)
        pin = pins[str(index)]
        if pin["text"] != digest(text):
            raise RuntimeError(f"query {index} no longer matches its pinned text")
        path = os.path.join(workdir, f"q{index}.tf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        handler, args = query_namespace(kind, path)
        expect = "exit 0\nholds\n" if kind == "refines_join" else pin["expect"]
        if not isinstance(expect, str):
            expect = tuple(expect)
        out.append(
            Query(
                f"{index}", f"{theory}:{kind}",
                lambda handler=handler, args=args: run_cli(handler, args),
                expect,
            )
        )
    return out


# ---------------------------------------------------------------------------
# sweep: the tier-1 hot loop (criteria 4 and 9) on seeded inputs

SWEEP_QUERIES = 400
SWEEP_BATCH = 16
SWEEP_VALUES = {"u": HOLD, "v": CEDE}
_SORT_PAIRS = tuple(itertools.product((HOLD, CEDE), repeat=2))


def _random_steps(space, length: int, rng: random.Random) -> tuple:
    stores = space.stores
    return tuple(
        tracealg.Transition(rng.choice(stores), rng.choice(stores)) for _ in range(length)
    )


def _random_set(space, sort, rng: random.Random):
    """Like criterion 4's sets: 0-3 generators of 1-2 steps, canonicalised."""
    gens = []
    for _ in range(rng.randint(0, 3)):
        value = rng.choice(sorted(SWEEP_VALUES))
        steps = _random_steps(space, rng.randint(1, 2), rng)
        gens.append(tracealg.Trace(sort, steps, SWEEP_VALUES[value], value))
    return tracealg.canonicalize(tracealg.sorted_set(sort, gens))


def deduction_count(source, space) -> int:
    """How many distinct one-step stutter and mumble deductions ``source`` has.

    Counted here from the definition, on plain tuples, as the reference for
    ``traces.step_deductions``.
    """
    steps = tuple((s.pre.bits, s.post.bits) for s in source.steps)
    n = len(steps)
    out = set()
    for pos in range(n + 1):
        if (pos == 0 and source.start is not CEDE) or (pos == n and source.value_sort is not CEDE):
            continue
        for sigma in space.stores:
            out.add(steps[:pos] + ((sigma.bits, sigma.bits),) + steps[pos:])
    for i in range(n - 1):
        if steps[i][1] == steps[i + 1][0]:
            out.add(steps[:i] + ((steps[i][0], steps[i + 1][1]),) + steps[i + 2 :])
    return len(out)


def deduction_query(space, source) -> Callable[[], str]:
    """Criterion 9's shape: every one-step deduction shrinks the denotation."""
    ctx = {"v": source.value_sort}

    def run() -> str:
        checker, model, traces = tracealg.checker, tracealg.model, tracealg.traces
        d_source = checker.denote("S", ctx, model.reify_trace(space, source), space)
        base = traces.sorted_set(source.start, [source])
        bad = 0
        deduced = traces.step_deductions(source, traces.SORTED, space)
        for t in deduced:
            if not traces.member(t, base):
                bad += 1
            d = checker.denote("S", ctx, model.reify_trace(space, t), space)
            if not traces.subset(d, d_source):
                bad += 1
        return f"{len(deduced)} deductions, {bad} violations\n"

    return run


def extension_query(space, cases) -> Callable[[], str]:
    """Criterion 4's shape: extension equals evaluating the reification."""

    def run() -> str:
        model, traces, kernel = tracealg.model, tracealg.traces, tracealg.kernel
        alg = model.TraceAlgebra(space)
        differ = 0
        for K, env in cases:
            lhs = model.kleisli(env, K)
            rhs = kernel.evaluate(alg, env, model.reify(space, K))
            if not traces.equal(lhs, rhs):
                differ += 1
        return f"{len(cases)} sets, {differ} differ\n"

    return run


def make_sweep(seed: int) -> list[Query]:
    """Deduction-soundness sources alternating with extension batches.

    Source lengths (2-4) and end sorts cycle through all twelve combinations,
    so seeds differ in transitions only and not in how much work a pass is.
    """
    space = tracealg.StoreSpace(("x", "y"))
    rng = random.Random(f"sweep-{seed}")
    out = []
    for i in range(SWEEP_QUERIES):
        j = i // 2
        if i % 2 == 0:
            start, vsort = _SORT_PAIRS[(j // 3) % 4]
            steps = _random_steps(space, 2 + j % 3, rng)
            source = tracealg.Trace(start, steps, vsort, "v")
            expect = f"{deduction_count(source, space)} deductions, 0 violations\n"
            out.append(Query(f"d{j}", "deduction", deduction_query(space, source), expect))
        else:
            cases = []
            for c in range(SWEEP_BATCH):
                K = _random_set(space, (HOLD, CEDE)[c % 2], rng)
                env = {name: _random_set(space, s, rng) for name, s in SWEEP_VALUES.items()}
                cases.append((K, env))
            expect = f"{SWEEP_BATCH} sets, 0 differ\n"
            out.append(Query(f"e{j}", "extension", extension_query(space, cases), expect))
    return out


# ---------------------------------------------------------------------------


def make(workload: str, seed: int, reference: dict, workdir: str) -> list[Query]:
    if workload == "chain":
        return make_chain(seed, reference)
    if workload == "queries":
        return make_queries(seed, reference, workdir)
    if workload == "sweep":
        return make_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")
