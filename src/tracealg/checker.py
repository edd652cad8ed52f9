"""Denotational deciders, axiom validation suites, and the named experiments.

Equality and refinement in each theory are decided by evaluating both terms
in the theory's free model with the returning environment and comparing the
results; refinement is inclusion.  ``FREE_MODELS`` says which free model
reads each theory and, for Tgs alone, through which translation: S and Tr
are each read in their own signature.  ``denote`` covers S, Tr, B, G and
Tgs; J and V have no trace model.  Axiom validation samples random model
elements for the variables: the mathematics guarantees the axioms, so these
suites guard the implementation of the models.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .kernel import (
    CEDE,
    HOLD,
    STAR,
    Algebra,
    App,
    Operator,
    Sort,
    Term,
    Var,
    bottom,
    evaluate,
)
from .model import (
    BrookesAlgebra,
    GTable,
    GTableAlgebra,
    TraceAlgebra,
    gtable_to_traceset,
    reify,
    single_cell_witness,
    unit,
    variable_gtable,
    yield1,
    yield2,
)
from .store import StoreSpace, Transition
from .theories import (
    AxiomInstance,
    Bounds,
    Presentation,
    Translation,
    UnknownTheory,
    apply_translation,
    build,
    builtin_translations,
    compose,
    distributivity_instances,
    identity_translation,
    instantiate_axioms,
    translate_context,
)
from .traces import (
    Trace,
    TraceSet,
    brookes_set,
    canonicalize,
    equal,
    missing_witness,
    sorted_set,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equality or refinement query.

    A failed verdict carries a trace lying in exactly one denotation; the
    witness is the least failing generator (shortest first).
    """

    holds: bool
    witness: Trace | None = None
    direction: str = ""

    def __post_init__(self) -> None:
        if self.holds == (self.witness is not None):
            raise ValueError("a witness accompanies exactly the failed verdicts")


@dataclass(frozen=True)
class SampleConfig:
    """Shape of randomly sampled closed sets and how many to draw."""

    seed: int = 0
    samples: int = 100
    gens: tuple[int, int] = (0, 3)
    length: tuple[int, int] = (1, 2)

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.gens[0] < 0 or self.length[0] < 1:
            raise ValueError("generator counts start at zero, lengths at one")


@dataclass
class ReportRow:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append(ReportRow(name, ok, detail))

    def format(self) -> str:
        lines = [self.title]
        by_name: dict[str, list[ReportRow]] = {}
        for row in self.rows:
            by_name.setdefault(row.name, []).append(row)
        for name, rows in sorted(by_name.items()):
            bad = [r for r in rows if not r.ok]
            status = "PASS" if not bad else "FAIL"
            lines.append(f"  {status} {name} ({len(rows) - len(bad)}/{len(rows)})")
            for r in bad[:5]:
                lines.append(f"       {r.detail}")
        verdict = "all passed" if self.passed else "FAILURES PRESENT"
        lines.append(f"  => {verdict} ({len(self.rows)} checks)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Denotation


def _space(space: StoreSpace | None) -> StoreSpace:
    return space or StoreSpace()


# Each theory is read in the free model of a base theory (J, V, G, S or B),
# directly or through the built-in translation named here: Tr's operators are
# ``TraceAlgebra`` operations, while Tgs goes through ``E_G`` into G.  Entries
# are names, not functions, so that the traced benchmark's rebinding reaches
# every call.
FREE_MODELS: dict[str, tuple[str, str | None]] = {
    "J": ("J", None),
    "V": ("V", None),
    "G": ("G", None),
    "S": ("S", None),
    "B": ("B", None),
    "Tgs": ("G", "E_G"),
    "Tr": ("S", None),
}

# The base models whose elements read as closed trace sets.
TRACE_MODELS = frozenset({"S", "B", "G"})


def _free_model(theory: str, space: StoreSpace) -> tuple[str, Translation | None]:
    """The base theory that reads ``theory`` and the translation into it."""
    if theory not in FREE_MODELS:
        raise UnknownTheory(f"unknown theory {theory!r}; expected one of {tuple(FREE_MODELS)}")
    base, via = FREE_MODELS[theory]
    return base, builtin_translations(space)[via] if via else None


def denote(theory: str, ctx: Mapping[str, Sort], t: Term, space: StoreSpace | None = None) -> TraceSet:
    """Evaluate in the theory's free model with the returning environment."""
    space = _space(space)
    base, tr = _free_model(theory, space)
    if base not in TRACE_MODELS:
        raise UnknownTheory(f"theory {theory} has no trace model")
    if tr is not None:
        ctx, t = translate_context(tr, ctx), apply_translation(tr, t)
    if base == "S":
        env = {name: unit(space, sort, name) for name, sort in ctx.items()}
        # S and Tr, each untranslated and read in its own signature
        alg = TraceAlgebra(space, build(theory, space).signature)
        return canonicalize(evaluate(alg, env, t))
    if base == "B":
        alg = BrookesAlgebra(space)
        return canonicalize(evaluate(alg, {name: alg.unit(name) for name in ctx}, t))
    return gtable_to_traceset(space, denote_G(ctx, t, space))


# The benchmark harness wraps and calls the trace denotation by this name.
_denote_as_traces = denote


def denote_B(ctx: Mapping[str, Sort], t: Term, space: StoreSpace | None = None) -> TraceSet:
    return denote("B", ctx, t, space)


def denote_G(ctx: Mapping[str, Sort], t: Term, space: StoreSpace | None = None) -> GTable:
    space = _space(space)
    alg = GTableAlgebra(space)
    env = {name: variable_gtable(space, name) for name in ctx}
    return evaluate(alg, env, t)


def check_refines(
    theory: str, ctx: Mapping[str, Sort], t1: Term, t2: Term, space: StoreSpace | None = None
) -> Verdict:
    """Does every behaviour of ``t1`` belong to ``t2``?"""
    space = _space(space)
    d1 = denote(theory, ctx, t1, space)
    d2 = denote(theory, ctx, t2, space)
    witness = missing_witness(d1, d2)
    if witness is None:
        return Verdict(True)
    return Verdict(False, witness, "lhs ⊄ rhs")


def check_equal(
    theory: str, ctx: Mapping[str, Sort], t1: Term, t2: Term, space: StoreSpace | None = None
) -> Verdict:
    space = _space(space)
    d1 = denote(theory, ctx, t1, space)
    d2 = denote(theory, ctx, t2, space)
    witness = missing_witness(d1, d2)
    if witness is not None:
        return Verdict(False, witness, "lhs ⊄ rhs")
    witness = missing_witness(d2, d1)
    if witness is not None:
        return Verdict(False, witness, "rhs ⊄ lhs")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Random closed sets, tables, and terms


def random_closed_set(
    space: StoreSpace,
    sort: Sort,
    ctx: Mapping[str, Sort],
    cfg: SampleConfig,
    rng: random.Random | None = None,
) -> TraceSet:
    """A reproducible closed set: random generators, then canonicalized."""
    rng = rng or random.Random(cfg.seed)
    values = sorted(ctx.items())
    gens = []
    for _ in range(rng.randint(*cfg.gens)):
        length = rng.randint(*cfg.length)
        steps = tuple(
            Transition(rng.choice(space.stores), rng.choice(space.stores))
            for _ in range(length)
        )
        name, vsort = rng.choice(values)
        gens.append(Trace(sort, steps, vsort, name))
    return canonicalize(sorted_set(sort, gens))


def random_brookes_set(
    space: StoreSpace,
    names: Sequence[str],
    cfg: SampleConfig,
    rng: random.Random | None = None,
) -> TraceSet:
    """A random closed set of the cede fragment, with values drawn from ``names``."""
    return random_closed_set(space, CEDE, {n: CEDE for n in names}, cfg, rng)


def random_gtable(
    space: StoreSpace, names: Sequence[str], rng: random.Random, max_outcomes: int = 2
) -> GTable:
    rows = []
    for _ in space.stores:
        outcomes = {
            (rng.choice(list(names)), rng.choice(space.stores))
            for _ in range(rng.randint(0, max_outcomes))
        }
        rows.append(frozenset(outcomes))
    return GTable(tuple(rows))


def random_term(
    p: Presentation,
    ctx: Mapping[str, Sort],
    sort: Sort,
    depth: int,
    rng: random.Random,
    max_join_arity: int = 3,
) -> Term:
    """A random well-sorted term over the presentation's signature."""
    sig = p.signature
    by_sort: dict[Sort, list[str]] = {}
    for name, s in ctx.items():
        by_sort.setdefault(s, []).append(name)
    for names in by_sort.values():
        names.sort()
    ops_by_sort: dict[Sort, list[Operator]] = {}
    for op in sig.operators.values():
        ops_by_sort.setdefault(op.result, []).append(op)
    for ops in ops_by_sort.values():
        ops.sort(key=lambda o: o.name)

    def gen(want: Sort, depth: int) -> Term:
        names = by_sort.get(want, [])
        if depth <= 0:
            if names and rng.random() < 0.9:
                return Var(rng.choice(names), want)
            return bottom(sig, want)
        if names and rng.random() < 0.2:
            return Var(rng.choice(names), want)
        op = rng.choice(ops_by_sort[want])
        if op.variadic:
            arity = rng.randint(0, max_join_arity)
            return App(op.name, tuple(gen(op.args[0], depth - 1) for _ in range(arity)), op.result)
        return App(op.name, tuple(gen(s, depth - 1) for s in op.args), op.result)

    return gen(sort, depth)


# ---------------------------------------------------------------------------
# Axiom validation


class SetAlgebra(Algebra):
    """Finite powersets with union: the free model of the join theories."""

    def join(self, sort: Sort, args: Sequence[frozenset]) -> frozenset:
        return frozenset().union(*args)


_VALUE_CTX = {"u": HOLD, "v": CEDE}


def _validate_instances(
    theory: str,
    instances: Sequence[AxiomInstance],
    cfg: SampleConfig,
    space: StoreSpace,
    title: str,
) -> Report:
    """Evaluate each instance, translated once, in the free model on sampled variables."""
    base, tr = _free_model(theory, space)
    rng = random.Random(cfg.seed)
    if base in ("J", "V"):
        alg = SetAlgebra(build(base, space).signature)
        pool = tuple(range(6))
        sample = lambda sort: frozenset(rng.sample(pool, rng.randint(0, 3)))
    elif base == "G":
        alg = GTableAlgebra(space)
        sample = lambda sort: random_gtable(space, ("u", "v"), rng)
    elif base == "B":
        alg = BrookesAlgebra(space)
        sample = lambda sort: random_brookes_set(space, ("u", "v"), cfg, rng)
    else:
        alg = TraceAlgebra(space, build(theory, space).signature)
        sample = lambda sort: random_closed_set(space, sort, _VALUE_CTX, cfg, rng)
    same = equal if base in ("S", "B") else operator.eq
    report = Report(title)
    for idx, inst in enumerate(instances):
        ctx, lhs, rhs = inst.context, inst.lhs, inst.rhs
        if tr is not None:
            ctx = translate_context(tr, ctx)
            lhs, rhs = apply_translation(tr, lhs), apply_translation(tr, rhs)
        ok = True
        detail = ""
        for trial in range(cfg.samples):
            env = {name: sample(sort) for name, sort in ctx.items()}
            if not same(evaluate(alg, env, lhs), evaluate(alg, env, rhs)):
                ok = False
                detail = f"instance {idx} fails on trial {trial}: env over {list(inst.context)}"
                break
        report.add(inst.scheme, ok, detail)
    return report


def validate_axioms(
    theory: str,
    cfg: SampleConfig = SampleConfig(),
    space: StoreSpace | None = None,
    bounds: Bounds = Bounds(),
) -> Report:
    """Evaluate every axiom instance under sampled environments."""
    space = _space(space)
    instances = instantiate_axioms(build(theory, space), bounds)
    return _validate_instances(theory, instances, cfg, space, f"axioms of {theory}")


def validate_distributivity(
    theory: str,
    cfg: SampleConfig = SampleConfig(),
    space: StoreSpace | None = None,
    bounds: Bounds = Bounds(),
) -> Report:
    space = _space(space)
    instances = distributivity_instances(build(theory, space), bounds)
    return _validate_instances(
        theory, instances, cfg, space, f"distributivity over binary joins in {theory}"
    )


def validate_translation(
    name: str,
    cfg: SampleConfig = SampleConfig(),
    space: StoreSpace | None = None,
    bounds: Bounds = Bounds(),
) -> Report:
    """Check that every source axiom translates to a target-valid equation."""
    space = _space(space)
    tr = builtin_translations(space)[name]
    report = Report(f"translation {name}: {tr.source.name} ~> {tr.target.name}")
    for idx, inst in enumerate(instantiate_axioms(tr.source, bounds)):
        ctx = translate_context(tr, inst.context)
        verdict = check_equal(
            tr.target.name, ctx, apply_translation(tr, inst.lhs), apply_translation(tr, inst.rhs), space
        )
        detail = "" if verdict.holds else f"instance {idx}: witness {verdict.witness.render()}"
        report.add(inst.scheme, verdict.holds, detail)
    return report


# ---------------------------------------------------------------------------
# Cross-checks between models and theory equivalences


def cross_check_G(
    t: Term, ctx: Mapping[str, Sort], space: StoreSpace | None = None
) -> bool:
    """State-function semantics against the hold-sort trace semantics."""
    space = _space(space)
    as_traces = denote("G", ctx, t, space)
    e = builtin_translations(space)["E"]
    image = denote("S", translate_context(e, ctx), apply_translation(e, t), space)
    return equal(as_traces, image)


_ROUNDTRIP_PAIRS = {
    "Tgs~G": ("E_Tgs", "E_G", "G", "Tgs"),
    "Tr~S": ("E_STr", "E_TrS", "S", "Tr"),
}


def check_roundtrip(
    pair: str,
    cfg: SampleConfig = SampleConfig(),
    space: StoreSpace | None = None,
    depth: int = 3,
) -> Report:
    """Both composites of an equivalence must be identity translations."""
    space = _space(space)
    if pair not in _ROUNDTRIP_PAIRS:
        raise ValueError(f"unknown pair {pair!r}; expected one of {sorted(_ROUNDTRIP_PAIRS)}")
    out_name, back_name, left, right = _ROUNDTRIP_PAIRS[pair]
    trs = builtin_translations(space)
    out, back = trs[out_name], trs[back_name]
    report = Report(f"roundtrip {pair}")
    legs = (
        (left, compose(out, back)),
        (right, compose(back, out)),
    )
    for theory, loop in legs:
        p = build(theory, space)
        ident = identity_translation(p)
        for op in sorted(p.signature.operators.values(), key=lambda o: o.name):
            arity = 2 if op.variadic else len(op.args)
            term = ident.image(op.name, arity)
            ctx = {f"x{i}": s for i, s in enumerate(op.scheme(arity))}
            verdict = check_equal(theory, ctx, apply_translation(loop, term), term, space)
            report.add(f"{theory}:{op.name}", verdict.holds,
                       "" if verdict.holds else f"witness {verdict.witness.render()}")
        rng = random.Random(cfg.seed)
        ctx = (
            {"a": STAR, "b": STAR}
            if STAR in p.signature.sorts
            else {"a": HOLD, "b": CEDE}
        )
        sorts = sorted(p.signature.sorts, key=lambda s: s.order)
        for i in range(cfg.samples):
            sort = sorts[i % len(sorts)]
            term = random_term(p, ctx, sort, depth, rng)
            verdict = check_equal(theory, ctx, apply_translation(loop, term), term, space)
            report.add(f"{theory}:random", verdict.holds,
                       "" if verdict.holds else f"sample {i}: witness {verdict.witness.render()}")
    return report


def check_representation(
    t: Term, ctx: Mapping[str, Sort], space: StoreSpace | None = None
) -> bool:
    """A term equals the reification of its own denotation."""
    space = _space(space)
    d = denote("S", ctx, t, space)
    return check_equal("S", ctx, t, reify(space, d), space).holds


# ---------------------------------------------------------------------------
# The experiments


def run_nogo2(depth: int = 3, space: StoreSpace | None = None) -> Report:
    """Sets built from read, write, and union always admit a trace whose
    transitions each change at most one cell; a raw transition set does not."""
    space = _space(space)
    alg = BrookesAlgebra(space)
    seen: dict[frozenset, TraceSet] = {}
    base = alg.unit("v")
    seen[base.generators] = base
    for _ in range(depth):
        prev = list(seen.values())
        fresh: list[TraceSet] = []

        def add(K: TraceSet) -> None:
            if K.generators not in seen:
                seen[K.generators] = K
                fresh.append(K)

        for K in prev:
            for loc in range(len(space.locations)):
                for bit in (0, 1):
                    add(alg.write(loc, bit, K))
        for K0 in prev:
            for K1 in prev:
                for loc in range(len(space.locations)):
                    add(alg.read(loc, K0, K1))
                add(alg.join(STAR, (K0, K1)))
        if not fresh:
            break
    report = Report(f"single-cell witnesses over read/write/union programs to depth {depth}")
    failures = sum(1 for K in seen.values() if not single_cell_witness(K, space))
    report.add("generated-sets", failures == 0, f"{failures} of {len(seen)} sets lack a witness")
    lo = space.stores[0]
    hi = space.stores[-1]
    jump = brookes_set([Trace(CEDE, (Transition(lo, hi),), CEDE, "v")])
    report.add("await-set", not single_cell_witness(jump, space),
               "the two-cell transition set must lack a witness")
    return report


def run_nogo3(
    cfg: SampleConfig = SampleConfig(), space: StoreSpace | None = None
) -> Report:
    """Both yield interpretations fix every closed set."""
    space = _space(space)
    rng = random.Random(cfg.seed)
    report = Report("yield interpretations on sampled closed sets")
    for i in range(cfg.samples):
        K = random_brookes_set(space, ("u", "v"), cfg, rng)
        ok1 = equal(yield1(K, space), K)
        ok2 = equal(yield2(K, space), K)
        report.add("yield-prefix", ok1, "" if ok1 else f"sample {i}")
        report.add("yield-maybe", ok2, "" if ok2 else f"sample {i}")
    return report
