"""Free models over closed trace sets, and the state-function model.

``TraceAlgebra`` interprets the two-sorted signatures, shared state (S) and
transitions (Tr), on finitely generated closed trace sets; ``BrookesAlgebra``
interprets the single-sorted transition signature on the cede fragment of
the same sets, cede-sorted sets whose generators cede at their value, and
shares join, unit and extension with ``TraceAlgebra``;
``GTableAlgebra`` interprets nondeterministic global state as store
functions.  Each model names its operations after the operator kinds, and
``Algebra.apply`` dispatches to them.  All operations work on generators
and are exact for the denoted closures, a fact the oracle tests pin down.

Stores and steps are ints (see ``store``): the operations test a location
with ``space.mask`` or ``space.pre_mask``, read a step's stores from
``pre_of``/``post_of``, and pick every step they emit from the space's
tables.  They build their results through ``TraceSet._built``, since each
generator they make starts at the sort they make it with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .kernel import (
    CEDE,
    HOLD,
    Algebra,
    MissingBinding,
    Operator,
    Signature,
    Sort,
    SortMismatch,
    Term,
    Var,
    app,
    join as join_term,
)
from .store import Store, StoreSpace, Transition
from .theories import build, open_transition_term
from .traces import (
    SORTED,
    Trace,
    TraceSet,
    brookes_set,
    canonicalize,
    closure_bounded,
    member,
)

# Acquire canonicalizes results with more generators than this.
CANONICAL_THRESHOLD = 8


def unit(space: StoreSpace, sort: Sort, value: str) -> TraceSet:
    """The single-stutter traces; this set is already closed."""
    return TraceSet._built(sort, [Trace(sort, (st,), sort, value) for st in space.stutters])


class TraceAlgebra(Algebra):
    """Closed trace sets as a model of the two-sorted signatures, S (the
    default ``signature``) and Tr: each reads the operators of its own
    signature, so a Tr term needs no translation into S.

    Acquire relabels generators to the ceding start sort (front stutters are
    then recovered by closure); release emits each generator both bare and
    behind every possible stutter, since a held start blocks front
    stuttering.  Acquire canonicalizes results above ``CANONICAL_THRESHOLD``
    generators: the stutter-prefixed generators release produced collapse
    once the start sort cedes again, which keeps nested delimiter chains
    from compounding.
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
        """Union over input stores of prefixing with the store update.

        A generator whose first transition relies on ``loc = bit`` is kept
        as it is (from its own source store the update rebuilds it), and
        once more with the first source's bit flipped; the others drop.
        """
        self._expect(K, HOLD)
        space = self.space
        mask = space.pre_mask(loc)
        want = mask if bit else 0
        table = space.steps
        gens = set()
        for g in K.generators:
            steps = g.steps
            first = steps[0]
            if first & mask != want:
                continue
            gens.add(g)
            gens.add(Trace(HOLD, (table[first ^ mask],) + steps[1:], g.value_sort, g.value))
        return TraceSet._built(HOLD, gens)

    def lookup(self, loc: int, K0: TraceSet, K1: TraceSet) -> TraceSet:
        """Branch on the bit at ``loc`` without changing the store: the
        generators of ``K0`` relying on ``loc = 0`` and those of ``K1``
        relying on ``loc = 1``, in one pass over each branch."""
        self._expect(K0, HOLD)
        self._expect(K1, HOLD)
        mask = self.space.pre_mask(loc)
        gens = {g for g in K0.generators if not g.steps[0] & mask}
        gens.update(g for g in K1.generators if g.steps[0] & mask)
        return TraceSet._built(HOLD, gens)

    def acquire(self, K: TraceSet) -> TraceSet:
        self._expect(K, HOLD)
        gens = frozenset(
            Trace(CEDE, g.steps, g.value_sort, g.value) for g in K.generators
        )
        out = TraceSet._built(CEDE, gens)
        if len(gens) > CANONICAL_THRESHOLD:
            out = canonicalize(out)
        return out

    def release(self, K: TraceSet) -> TraceSet:
        self._expect(K, CEDE)
        stutters = self.space.stutters
        gens = set()
        for g in K.generators:
            steps, value_sort, value = g.steps, g.value_sort, g.value
            gens.add(Trace(HOLD, steps, value_sort, value))
            for stutter in stutters:
                gens.add(Trace(HOLD, (stutter,) + steps, value_sort, value))
        return TraceSet._built(HOLD, gens)

    def transition(self, pre: Store, post: Store, K: TraceSet) -> TraceSet:
        """Assert the store is ``pre`` and move it to ``post``: Tr's
        operator, which agrees with translating the transition into S's
        assert/update blocks (``E_TrS``).

        Works on generators: the first transition of a hold-sorted trace
        keeps its source store under all sorted deductions, so rewriting the
        first transition of each matching generator computes the image of
        the closure.
        """
        self._expect(K, HOLD)
        space = self.space
        pre_of, post_of, from_pre = space.pre_of, space.post_of, space.step_of[pre]
        gens = set()
        for g in K.generators:
            steps = g.steps
            first = steps[0]
            if pre_of[first] == post:
                steps = (from_pre[post_of[first]],) + steps[1:]
                gens.add(Trace(HOLD, steps, g.value_sort, g.value))
        return TraceSet._built(HOLD, gens)

    def unit(self, sort: Sort, value: str) -> TraceSet:
        return unit(self.space, sort, value)

    @staticmethod
    def _expect(K: TraceSet, sort: Sort) -> None:
        if K.sort is not sort:
            raise SortMismatch(f"expected a {sort.value}-sorted set, got {K.sort.value}")


def kleisli(env: Mapping[str, TraceSet], K: TraceSet) -> TraceSet:
    """Substitute continuations for values, generator by generator.

    A ceding value splices the continuation's transitions after the prefix;
    a held value must chain, fusing the boundary transitions around the
    shared intermediate store.  Both parts follow from the ends-invariance
    of closed sets, so generator pairs suffice.
    """
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
            for h in cont.generators:
                gens.add(Trace(g.start, g.steps + h.steps, h.value_sort, h.value))
        else:
            last = g.steps[-1]
            tables = last.tables
            pre_of, post_of = tables.pre_of, tables.post_of
            from_pre, post = tables.step_of[pre_of[last]], post_of[last]
            prefix = g.steps[:-1]
            for h in cont.generators:
                first = h.steps[0]
                if pre_of[first] is not post:
                    continue
                steps = prefix + (from_pre[post_of[first]],) + h.steps[1:]
                gens.add(Trace(g.start, steps, h.value_sort, h.value))
    return TraceSet._built(K.sort, gens)


# ---------------------------------------------------------------------------
# Reification: closed sets back to terms


def reify_trace(space: StoreSpace, t: Trace) -> Term:
    """The term denoting exactly the closure of the one-trace set."""
    sig = build("S", space).signature
    core: Term = Var(t.value, t.value_sort)
    acc: Term | None = None
    for step in reversed(t.steps):
        if acc is None:
            body = app(sig, "rel", core) if t.value_sort is CEDE else core
        else:
            body = app(sig, "rel", app(sig, "acq", acc))
        acc = open_transition_term(sig, space, step.pre, step.post, body)
    assert acc is not None
    if t.start is CEDE:
        acc = app(sig, "acq", acc)
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
        self._expect(K)
        step = self.space.step_of[pre][post]
        return TraceSet._built(
            CEDE, [Trace(CEDE, (step,) + g.steps, CEDE, g.value) for g in K.generators]
        )

    def unit(self, value: str) -> TraceSet:
        return unit(self.space, CEDE, value)

    def read(self, loc: int, K0: TraceSet, K1: TraceSet) -> TraceSet:
        """Branch on a location: a stutter records the store that was read."""
        self._expect(K0)
        self._expect(K1)
        mask = self.space.mask(loc)
        gens = set()
        for sigma, stutter in zip(self.space.stores, self.space.stutters):
            for g in (K1 if sigma & mask else K0).generators:
                gens.add(Trace(CEDE, (stutter,) + g.steps, CEDE, g.value))
        return TraceSet._built(CEDE, gens)

    def write(self, loc: int, bit: int, K: TraceSet) -> TraceSet:
        self._expect(K)
        step_of = self.space.step_of
        mask = self.space.mask(loc)
        gens = set()
        for sigma in self.space.stores:
            step = step_of[sigma][sigma | mask if bit else sigma & ~mask]
            for g in K.generators:
                gens.add(Trace(CEDE, (step,) + g.steps, CEDE, g.value))
        return TraceSet._built(CEDE, gens)

    def kleisli(self, env: Mapping[str, TraceSet], K: TraceSet) -> TraceSet:
        self._expect(K)
        return kleisli(env, K)

    @staticmethod
    def _expect(K: TraceSet) -> None:
        if K.sort is not CEDE:
            raise SortMismatch(f"brookes sets are cede-sorted, got a {K.sort.value}-sorted set")


def strip_cede(K: TraceSet) -> TraceSet:
    """The ceded fragment seen as a brookes set; its generators must cede at
    their value, and are returned unchanged."""
    BrookesAlgebra._expect(K)
    return brookes_set(K.generators)


# Brookes sets are already cede-sorted sets, so embedding is the same identity.
embed_cede = strip_cede


def par(K1: TraceSet, K2: TraceSet, pairing: Callable[[str, str], str] | None = None) -> TraceSet:
    """All order-preserving interleavings of generator transition sequences."""
    BrookesAlgebra._expect(K1)
    BrookesAlgebra._expect(K2)
    pairing = pairing or (lambda a, b: f"({a},{b})")
    gens = set()
    for g1 in K1.generators:
        for g2 in K2.generators:
            value = pairing(g1.value, g2.value)
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
    BrookesAlgebra._expect(K)
    if K.is_empty():
        return K
    gens = set()
    for step in space.stutters:
        for g in K.generators:
            gens.add(Trace(CEDE, (step,) + g.steps, CEDE, g.value))
    return TraceSet._built(CEDE, gens)


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


@dataclass(frozen=True)
class GTable:
    """For each input store (in space order), the set of (value, store) outcomes."""

    rows: tuple[frozenset[tuple[str, Store]], ...]

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
