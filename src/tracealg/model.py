"""Free models over closed trace sets, and the state-function model.

``TraceAlgebra`` interprets the two-sorted signatures, shared state (S) and
transitions (Tr), on finitely generated closed trace sets; ``BrookesAlgebra``
interprets the transition signature on their cede fragment (generators that
cede at both ends) and shares join, unit and extension with it;
``GTableAlgebra`` interprets nondeterministic global state as store functions.
Each model names its operations after the operator kinds, and
``Algebra.apply`` dispatches to them.  All operations work on generators, or
on their first steps, and are exact for the denoted closures, a fact the
oracle tests pin down.

Two boundary rules put steps in front of generators.  A ceding boundary lets
the environment run, so the steps on either side concatenate: ``_prefixed``
builds Brookes transitions, reads and writes, ``yield1`` and ceding
``kleisli``.  A held boundary holds the global lock, so the steps around it
fuse into one: ``_fused`` builds held ``kleisli``.  Stores and steps are
ints (see ``store``): operations test locations with masks and take every
step they emit from the space's tables.

The held operations act only on a generator's first step, so they work on a
hold-sorted set's first-step index (see ``traces.TraceSet``).  ``update``,
``lookup`` and ``transition`` are the fusion rule over one location's bit or
one step: they filter and re-key first steps, share their tail sets, and
build no trace.  ``release`` indexes its set, with every generator's steps
under each stutter, and ``acquire`` builds its cede traces from the index.

Checks run where values enter: the public constructors (``Trace``,
``TraceSet``, ``sorted_set``, ``brookes_set``), ``unit``'s sort, and each
operation's ``_expect`` on its arguments' sorts.  Past those, ``_prefixed``,
``_fused`` and ``acquire`` build each generator through the unchecked
``traces._trace``, since it takes its sorts from a checked generator or a
sort constant and its steps from that generator, the index and the space's
tables, and every operation builds its result through ``TraceSet._built``
or ``TraceSet._held``, since each generator starts at the set's sort.
``reify_trace`` likewise builds its terms from the signature's operators
without ``kernel.app``'s per-node checks (see ``open_transition_term``).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .kernel import (
    CEDE,
    HOLD,
    Algebra,
    App,
    MissingBinding,
    Operator,
    Record,
    Signature,
    Sort,
    SortMismatch,
    Term,
    Var,
    join as join_term,
)
from .store import Store, StoreSpace, Transition
from .theories import build, open_transition_term
from .traces import (
    SORTED,
    Trace,
    TraceSet,
    _trace,
    brookes_set,
    canonicalize,
    closure_bounded,
    member,
)


def unit(space: StoreSpace, sort: Sort, value: str) -> TraceSet:
    """The single-stutter traces; this set is already closed."""
    return TraceSet._built(sort, [Trace(sort, (st,), sort, value) for st in space.stutters])


def _expect(K: TraceSet, sort: Sort) -> None:
    if K.sort is not sort:
        raise SortMismatch(f"expected a {sort.value}-sorted set, got {K.sort.value}")


def _prefixed(start: Sort, runs: Sequence[tuple[Transition, ...]], K: TraceSet) -> list[Trace]:
    """The prefix rule: each generator of ``K`` behind each run of steps, from ``start``."""
    return [_trace(start, run + steps, value_sort, value)
            for _, steps, value_sort, value in K.generators for run in runs]


def _fused(start: Sort, prefix: tuple[Transition, ...], step: Transition, K: TraceSet) -> set[Trace]:
    """The fusion rule: each generator of the hold-sorted ``K`` whose first
    step relies on the store ``step`` leaves, behind ``prefix`` and with
    ``step`` fused into that first step, from ``start``.  Exact: the first
    step of a hold-sorted trace keeps its source store under all sorted
    deductions, so this computes the image of the closure."""
    tables = step.tables
    pre_of, post_of = tables.pre_of, tables.post_of
    from_pre, mid = tables.step_of[pre_of[step]], post_of[step]
    gens = set()
    for _, steps, value_sort, value in K.generators:
        first = steps[0]
        if pre_of[first] is mid:
            gens.add(_trace(start, prefix + (from_pre[post_of[first]],) + steps[1:], value_sort, value))
    return gens


class TraceAlgebra(Algebra):
    """Closed trace sets as a model of the two-sorted signatures, S (the
    default ``signature``) and Tr: each reads the operators of its own
    signature, so a Tr term needs no translation into S.

    Acquire relabels generators to the ceding start sort (front stutters are
    then recovered by closure) and returns the canonical form; release emits
    each generator both bare and behind every possible stutter, since a held
    start blocks front stuttering.  Those stutter-prefixed generators are
    deducible again once the start sort cedes, so acquire drops them, which
    keeps nested delimiter chains from compounding.
    """

    def __init__(self, space: StoreSpace, signature: Signature | None = None):
        self.space = space
        self.signature = signature or build("S", space).signature

    def join(self, sort: Sort, args: Sequence[TraceSet]) -> TraceSet:
        gens: set[Trace] = set()
        for k in args:
            if k.sort is not sort:
                raise SortMismatch("joined sets must share their sort")
            gens |= k.generators
        return TraceSet._built(sort, gens)

    def update(self, loc: int, bit: int, K: TraceSet) -> TraceSet:
        """The held rule over one bit, the union over stores ``s`` of
        ``_fused(HOLD, (), step(s, s with loc := bit), K)``: a first step
        that relies on ``loc = bit`` keeps its tails, which its copy with
        that bit of its source flipped shares; the other first steps drop."""
        _expect(K, HOLD)
        space = self.space
        mask = space.pre_masks[loc]
        want = mask if bit else 0
        table = space.steps
        firsts = {}
        for first, tails in K._firsts.items():
            if first & mask == want:
                firsts[first] = firsts[table[first ^ mask]] = tails
        return TraceSet._held(firsts)

    def lookup(self, loc: int, K0: TraceSet, K1: TraceSet) -> TraceSet:
        """Branch on the bit at ``loc``, the held rule over one bit with
        stutters: the first steps of ``K0`` relying on ``loc = 0`` and those
        of ``K1`` relying on ``loc = 1``, with their tails."""
        _expect(K0, HOLD)
        _expect(K1, HOLD)
        mask = self.space.pre_masks[loc]
        firsts = {}
        for first, tails in K0._firsts.items():
            if not first & mask:
                firsts[first] = tails
        for first, tails in K1._firsts.items():
            if first & mask:
                firsts[first] = tails
        return TraceSet._held(firsts)

    def acquire(self, K: TraceSet) -> TraceSet:
        _expect(K, HOLD)
        return canonicalize(TraceSet._built(CEDE, K._restarted(CEDE)))

    def release(self, K: TraceSet) -> TraceSet:
        """Each generator bare, indexed by its first step, and whole behind
        every stutter: each stutter's tails are all of ``K``'s steps, plus
        those of the bare generators that start with that stutter."""
        _expect(K, CEDE)
        gens = K.generators
        if not gens:
            return TraceSet._held({})
        whole = frozenset([g[1:] for g in gens])
        firsts = K._firsts  # grouped afresh: a cede-sorted set is built from generators
        for stutter in self.space.stutters:
            own = firsts.get(stutter)
            firsts[stutter] = whole | own if own else whole
        return TraceSet._held(firsts)

    def transition(self, pre: Store, post: Store, K: TraceSet) -> TraceSet:
        """Assert the store is ``pre`` and move it to ``post``: Tr's operator,
        which agrees with S's assert/update blocks under ``E_TrS``.  The
        fusion rule on the index: each first step that relies on ``post``
        becomes the step from ``pre`` to its post store."""
        _expect(K, HOLD)
        space = self.space
        pre_of, post_of, from_pre = space.pre_of, space.post_of, space.step_of[pre]
        return TraceSet._held({from_pre[post_of[first]]: tails
                               for first, tails in K._firsts.items() if pre_of[first] is post})

    def unit(self, sort: Sort, value: str) -> TraceSet:
        return unit(self.space, sort, value)


def kleisli(env: Mapping[str, TraceSet], K: TraceSet) -> TraceSet:
    """Substitute continuations for values, generator by generator.

    A ceding value splices the continuation's transitions after the prefix
    (``_prefixed``); a held value must chain, fusing the boundary transitions
    around the shared intermediate store (``_fused``).  Both parts follow
    from the ends-invariance of closed sets, so generator pairs suffice."""
    gens: set[Trace] = set()
    for g in K.generators:
        if g.value not in env:
            raise MissingBinding(f"no continuation for value {g.value!r}")
        cont = env[g.value]
        if cont.sort is not g.value_sort:
            raise SortMismatch(
                f"continuation for {g.value!r} is {cont.sort.value}-sorted, "
                f"value needs {g.value_sort.value}"
            )
        if g.value_sort is CEDE:
            gens.update(_prefixed(g.start, (g.steps,), cont))
        else:
            gens.update(_fused(g.start, g.steps[:-1], g.steps[-1], cont))
    return TraceSet._built(K.sort, gens)


# ---------------------------------------------------------------------------
# Reification: closed sets back to terms


def reify_trace(space: StoreSpace, t: Trace) -> Term:
    """The term denoting exactly the closure of the one-trace set.

    Each step is an ``open_transition_term``.  The ``rel`` and ``acq``
    wrappers around and between them are ``App`` nodes of the signature's
    operators, unchecked: each wraps a term of the sort it takes, since a
    trace's sorts are hold or cede and each spine is hold-sorted.
    """
    sig = build("S", space).signature
    acq, rel = sig.op_of("acquire"), sig.op_of("release")
    acc: Term = Var(t.value, t.value_sort)
    if t.value_sort is CEDE:
        acc = App(rel.name, (acc,), rel.result)
    for i, step in enumerate(reversed(t.steps)):
        if i:
            acc = App(rel.name, (App(acq.name, (acc,), acq.result),), rel.result)
        acc = open_transition_term(sig, space, step.pre, step.post, acc)
    if t.start is CEDE:
        acc = App(acq.name, (acc,), acq.result)
    return acc


def reify(space: StoreSpace, K: TraceSet) -> Term:
    """Join the reified generators in canonical order."""
    sig = build("S", space).signature
    return join_term(sig, K.sort, tuple(reify_trace(space, g) for g in K.ordered()))


# ---------------------------------------------------------------------------
# Brookes-style sets: the cede fragment, all ends ceded


class BrookesAlgebra(Algebra):
    """Cede-delimited trace sets as a model of the transition signature.

    Its carrier is the cede fragment of ``TraceAlgebra``'s: join, unit and
    the extension are the two-sorted ones at the cede sort.
    """

    def __init__(self, space: StoreSpace):
        self.space = space
        self.signature = build("B", space).signature

    def join(self, sort: Sort, args: Sequence[TraceSet]) -> TraceSet:
        # the signature's one sort is the cede sort of the carrier
        return TraceAlgebra.join(self, CEDE, args)

    def transition(self, pre: Store, post: Store, K: TraceSet) -> TraceSet:
        _expect(K, CEDE)
        return TraceSet._built(CEDE, _prefixed(CEDE, ((self.space.step_of[pre][post],),), K))

    def unit(self, value: str) -> TraceSet:
        return unit(self.space, CEDE, value)

    def read(self, loc: int, K0: TraceSet, K1: TraceSet) -> TraceSet:
        """Branch on a location: a stutter records the store that was read."""
        _expect(K0, CEDE)
        _expect(K1, CEDE)
        mask, stutters = self.space.pre_mask(loc), self.space.stutters
        gens = set(_prefixed(CEDE, [(st,) for st in stutters if not st & mask], K0))
        gens.update(_prefixed(CEDE, [(st,) for st in stutters if st & mask], K1))
        return TraceSet._built(CEDE, gens)

    def write(self, loc: int, bit: int, K: TraceSet) -> TraceSet:
        _expect(K, CEDE)
        space, mask = self.space, self.space.mask(loc)
        runs = [(space.step_of[s][s | mask if bit else s & ~mask],) for s in space.stores]
        return TraceSet._built(CEDE, set(_prefixed(CEDE, runs, K)))

    def kleisli(self, env: Mapping[str, TraceSet], K: TraceSet) -> TraceSet:
        _expect(K, CEDE)
        return kleisli(env, K)


def strip_cede(K: TraceSet) -> TraceSet:
    """The ceded fragment seen as a brookes set; its generators must cede at
    their value, and are returned unchanged."""
    _expect(K, CEDE)
    return brookes_set(K.generators)


# Brookes sets are already cede-sorted sets, so embedding is the same identity.
embed_cede = strip_cede


def par(K1: TraceSet, K2: TraceSet) -> TraceSet:
    """All order-preserving interleavings of generator pairs, valued ``(a,b)``."""
    _expect(K1, CEDE)
    _expect(K2, CEDE)
    gens = set()
    for g1 in K1.generators:
        for g2 in K2.generators:
            value = f"({g1.value},{g2.value})"
            n1, n2 = len(g1.steps), len(g2.steps)
            for positions in itertools.combinations(range(n1 + n2), n1):
                merged: list[Transition] = []
                it1, it2 = iter(g1.steps), iter(g2.steps)
                chosen = set(positions)
                for slot in range(n1 + n2):
                    merged.append(next(it1) if slot in chosen else next(it2))
                gens.add(Trace(CEDE, tuple(merged), CEDE, value))
    return TraceSet._built(CEDE, gens)


# ---------------------------------------------------------------------------
# Yield interpretations, the uniform-stutter rule, and cell-change witnesses


def yield1(K: TraceSet, space: StoreSpace) -> TraceSet:
    """Prefix every behaviour with an environment step (closure implicit)."""
    _expect(K, CEDE)
    return TraceSet._built(CEDE, set(_prefixed(CEDE, [(st,) for st in space.stutters], K)))


def yield2(K: TraceSet, space: StoreSpace) -> TraceSet:
    """Possibly yield: the original behaviours stay available."""
    pre = yield1(K, space)
    return brookes_set(K.generators | pre.generators)


def single_cell_witness(K: TraceSet, space: StoreSpace) -> bool:
    """Does the closure contain a trace whose every transition changes at
    most one location?

    Stutters never hurt the property, so it is enough to search the bounded
    closure up to the longest generator (all mumble reducts live there).
    """

    pre_of, post_of = space.pre_of, space.post_of

    def qualifies(t: Trace) -> bool:
        return all((pre_of[s] ^ post_of[s]).bit_count() <= 1 for s in t.steps)

    if K.is_empty():
        return False
    if any(qualifies(g) for g in K.generators):
        return True
    longest = max(len(g.steps) for g in K.generators)
    closure = closure_bounded(K.generators, SORTED, space, longest, slack=0)
    return any(qualifies(t) for t in closure)


def hush_step(K: TraceSet, space: StoreSpace) -> frozenset[Trace]:
    """Conclusions of the uniform-stutter deletion rule on a bounded closure.

    A stutter position may be deleted (leaving a non-empty remainder) when
    the trace with that position replaced by a stutter at *every* store lies
    in the set.
    """
    if K.is_empty():
        return frozenset()
    max_len = max(len(g.steps) for g in K.generators) + 1
    out: set[Trace] = set()
    for t in closure_bounded(K.generators, SORTED, space, max_len):
        if len(t.steps) < 2:
            continue
        for i, step in enumerate(t.steps):
            if not step.is_stutter():
                continue
            rest = t.steps[:i] + t.steps[i + 1 :]
            family_present = all(
                member(
                    Trace(t.start, t.steps[:i] + (stutter,) + t.steps[i + 1 :], t.value_sort, t.value),
                    K,
                )
                for stutter in space.stutters
            )
            if family_present:
                out.add(Trace(t.start, rest, t.value_sort, t.value))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The state-function model of nondeterministic global state


class GTable(Record):
    """For each input store (in space order), the set of (value, store) outcomes."""

    __slots__ = _compared = _fields = ("rows",)
    rows: tuple[frozenset[tuple[str, Store]], ...]

    def __init__(self, rows: tuple[frozenset[tuple[str, Store]], ...]) -> None:
        object.__setattr__(self, "rows", rows)  # built once per G operation

    def is_empty(self) -> bool:
        return all(not row for row in self.rows)


def variable_gtable(space: StoreSpace, name: str) -> GTable:
    return GTable(tuple(frozenset({(name, s)}) for s in space.stores))


def gtable_to_traceset(space: StoreSpace, table: GTable) -> TraceSet:
    """View outcomes as single-transition held traces; such sets are closed."""
    gens = set()
    for sigma, row in zip(space.stores, table.rows):
        from_sigma = space.step_of[sigma]
        for value, rho in row:
            gens.add(Trace(HOLD, (from_sigma[rho],), HOLD, value))
    return TraceSet._built(HOLD, gens)


class GTableAlgebra(Algebra):
    """Global state interpreted as nondeterministic store functions."""

    def __init__(self, space: StoreSpace):
        self.space = space
        self.signature = build("G", space).signature

    def apply(self, op: Operator, args: tuple) -> GTable:
        # ``bench/tracer.py`` wraps this name for its ``model.gtable`` span,
        # so every operation of the model passes through a method of its own
        return Algebra.apply(self, op, args)

    def join(self, sort: Sort, args: Sequence[GTable]) -> GTable:
        stores = range(len(self.space.stores))
        return GTable(tuple(frozenset().union(*(k.rows[s] for k in args)) for s in stores))

    # a store is its own row index
    def update(self, loc: int, bit: int, k: GTable) -> GTable:
        mask = self.space.mask(loc)
        rows = k.rows
        return GTable(tuple(rows[s | mask if bit else s & ~mask] for s in range(len(rows))))

    def lookup(self, loc: int, k0: GTable, k1: GTable) -> GTable:
        mask = self.space.mask(loc)
        return GTable(
            tuple((k1 if s & mask else k0).rows[s] for s in range(len(self.space.stores)))
        )
