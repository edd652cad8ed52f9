"""Sorted traces, stutter/mumble deductions, and finitely generated closed sets.

A trace is a non-empty sequence of store transitions delimited by sorts: the
start sort says whether the environment may run before the first transition,
the value sort whether it may run after the last.  ``Trace`` is a plain
immutable tuple ``(start, steps, value_sort, value)`` of sorts (``str``
enums), transitions (interned ints, see ``store``) and a string, so the
model operations, which build and hash many traces, do C-level work on each.
The public constructors ``Trace``, ``TraceSet``, ``sorted_set`` and
``brookes_set`` check what they are given.  The model operations and
``step_deductions`` build every trace from a checked trace's sorts and
steps, so they use the unchecked ``_trace``, ``TraceSet._built`` and
``TraceSet._held``, and the checks run in Python only where traces enter.
Closed sets of traces are represented by finite generator sets; the closure
itself is countably infinite and never materialised.  A hold-sorted set has
a second view, its first-step index: each first step ``a`` with the set of
tails that follow it, so the set is the union over ``a`` of ``a`` before the
tails of ``a``, the first layer of Brzozowski's derivatives.  The held model
operations and the held half of ``kleisli`` act only on first steps, so they
build and read this view, and a set derives the view it was not built from
on first use (``TraceSet``).
Membership in a closure is decided by a
bit-parallel dynamic program: the generators that share start sort, value
sort and value are compiled once, side by side, into one bitmask per store
and kind (``_compile``), and one pass over a candidate's steps advances all
of them at once (``_gen_contains``); it is validated exhaustively against
the bounded closure.

Closure follows one rule: a stutter may be inserted at the very front only
when the start sort cedes control, and at the very back only when the value
sort does.  Brookes's stutter/mumble closure of cede-delimited traces is the
fragment where both ends cede, so a Brookes set is a cede-sorted set whose
generators cede at their value (``brookes_set``).  The brute-force oracle
takes the end rule as its ``discipline`` argument: ``SORTED`` is the rule
above, ``BROOKES`` is Brookes's unconditional one, kept so that tests can
check this agreement against an independent reference.

Deductions never change a trace's normal form under two rewrite rules:
fuse a chained pair ``(p,q)(q,r) -> (p,r)`` and delete a stutter ``(p,p)``.
Both rules shorten the steps, so rewriting terminates; every overlap of two
redexes rejoins in one step, so by Newman's lemma it is confluent and each
trace has one normal form.  A mumble is one rewrite and a stutter insertion
undoes one, so a generator deduces only traces with its start sort, value
sort, value and normal form (``_closure_key``).  ``canonicalize`` and
``missing_witness`` compare generators only within these classes.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple

from .kernel import CEDE, HOLD, Sort, SortMismatch
from .store import StoreSpace, Transition

SORTED = "sorted"
BROOKES = "brookes"

DEFAULT_ORACLE_CAP = 1_000_000


class BudgetExceeded(Exception):
    pass


class Trace(tuple):
    """A sorted trace: start sort, non-empty transitions, sorted value.

    An immutable ``(start, steps, value_sort, value)`` tuple, so that
    building, hashing and comparing one is C-level tuple work.  Construction
    goes through ``__new__`` only, which checks the steps are non-empty and
    each end sort *is* ``HOLD`` or ``CEDE``; the test is by identity, since
    the string ``"hold"`` equals ``HOLD``.
    """

    __slots__ = ()

    def __new__(
        cls, start: Sort, steps: tuple[Transition, ...], value_sort: Sort, value: str
    ) -> "Trace":
        if not steps:
            raise ValueError("a trace needs at least one transition")
        if (start is not HOLD and start is not CEDE) or (
            value_sort is not HOLD and value_sort is not CEDE
        ):
            raise ValueError("trace sorts must be hold or cede")
        return tuple.__new__(cls, (start, steps, value_sort, value))

    start = property(itemgetter(0), doc="The start sort.")
    steps = property(itemgetter(1), doc="The transitions, a non-empty tuple.")
    value_sort = property(itemgetter(2), doc="The sort of the value.")
    value = property(itemgetter(3), doc="The value's name.")

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild through __new__, and so through its checks
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"Trace(start={self.start!r}, steps={self.steps!r}, "
            f"value_sort={self.value_sort!r}, value={self.value!r})"
        )

    def render(self) -> str:
        body = " ".join([t.render() for t in self.steps])
        return f"{self.start.symbol} [ {body} ] {self.value_sort.symbol} {self.value}"

    def key(self) -> tuple:
        """Length, start sort, steps, value sort, value.  Steps of one width
        compare as ints in the order of their ``(pre.bits, post.bits)``."""
        steps = self.steps
        return (len(steps), self.start.order, steps, self.value_sort.order, self.value)


def _trace(start: Sort, steps: tuple[Transition, ...], value_sort: Sort, value: str) -> Trace:
    """``Trace(start, steps, value_sort, value)`` without its checks.

    Only for callers that take both sorts from checked traces or the sort
    constants and the steps from a trace's steps and the space's tables,
    never empty: the model operations and ``step_deductions``.
    """
    return tuple.__new__(Trace, (start, steps, value_sort, value))


class TraceSet:
    """A closed set of traces, given by finite generators.

    The set denoted is the deductive closure of the generators; operations
    treat the closure semantically and never expand it.  All generators
    share the start sort recorded in ``sort``.

    A hold-sorted set has a second view, its first-step index ``_firsts``:
    a dict from each generator's first step to the frozenset of its tails
    ``(rest_steps, value_sort, value)``, none of them empty.  The held
    operations only filter and rewrite first steps, so they work on the
    index and share its tail sets.  A set is built from one view, its
    generators (the public constructor, ``_built``) or its index
    (``_held``), and derives the other on first use.  Generators, once
    built, are kept; the index is kept only on sets built from one, since
    keeping it on every set costs memory and saves no time.
    Equality, hash, repr, pickling and ``ordered`` read the generators.
    ``sort`` and ``generators`` are read-only; the slots behind them are set
    once, by the constructors or by the first use of a derived view.
    """

    __slots__ = ("_sort", "_gens", "_index", "_compiled")

    sort = property(attrgetter("_sort"), doc="The start sort of every generator.")

    def __init__(self, sort: Sort, generators: Iterable[Trace]) -> None:
        gens = frozenset(generators)
        for g in gens:
            if g.start is not sort:
                raise ValueError(
                    f"generator starts at {g.start.value}, set is {sort.value}-sorted"
                )
        self._sort, self._gens, self._index, self._compiled = sort, gens, None, None

    @classmethod
    def _built(cls, sort: Sort, gens: Iterable[Trace]) -> "TraceSet":
        """A set whose generators the caller built to start at ``sort``:
        the per-generator check of ``__init__`` is skipped."""
        K = object.__new__(cls)
        K._sort, K._gens, K._index, K._compiled = sort, frozenset(gens), None, None
        return K

    @classmethod
    def _held(cls, firsts: dict[Transition, frozenset[tuple]]) -> "TraceSet":
        """The hold-sorted set of first-step index ``firsts``, which the
        caller built with no empty tail set."""
        K = object.__new__(cls)
        K._sort, K._gens, K._index, K._compiled = HOLD, None, firsts, None
        return K

    @property
    def generators(self) -> frozenset[Trace]:
        gens = self._gens
        if gens is None:
            gens = self._gens = frozenset([_trace(HOLD, (first,) + rest, value_sort, value)
                                           for first, tails in self._index.items()
                                           for rest, value_sort, value in tails])
        return gens

    @property
    def _firsts(self) -> dict[Transition, frozenset[tuple]]:
        """The first-step index: kept if the set was built from it, else
        grouped from the generators on each call, a fresh dict that the
        caller may change."""
        index = self._index
        if index is None:
            index = {}
            for _, steps, value_sort, value in self._gens:
                index.setdefault(steps[0], []).append((steps[1:], value_sort, value))
            for first, tails in index.items():
                index[first] = frozenset(tails)
        return index

    def is_empty(self) -> bool:
        gens = self._gens
        return not (self._index if gens is None else gens)

    @property
    def _classes(self) -> dict[tuple, _Class]:
        """The generators by value sort and value, each group compiled once
        as one class for ``member``; the set is immutable, so this stays."""
        classes = self._compiled
        if classes is None:
            groups: dict[tuple, list[Trace]] = {}
            for g in self.generators:
                groups.setdefault((g[2], g[3]), []).append(g)
            classes = self._compiled = {key: _compile(group) for key, group in groups.items()}
        return classes

    def ordered(self) -> list[Trace]:
        return sorted(self.generators, key=Trace.key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._sort, self.generators) == (other._sort, other.generators)

    def __hash__(self) -> int:
        return hash((self._sort, self.generators))

    def __repr__(self) -> str:
        return f"TraceSet(sort={self._sort!r}, generators={self.generators!r})"

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the public constructor
        return TraceSet, (self._sort, self.generators)


def sorted_set(sort: Sort, gens: Iterable[Trace]) -> TraceSet:
    return TraceSet(sort, frozenset(gens))


def brookes_set(gens: Iterable[Trace]) -> TraceSet:
    """A cede-sorted set whose generators all cede at their value."""
    K = sorted_set(CEDE, gens)
    for g in K.generators:
        if g.value_sort is not CEDE:
            raise SortMismatch(f"generator holds at its value: {g.render()}")
    return K


def _space_for(traces: Iterable[Trace]) -> StoreSpace:
    for t in traces:
        width = t.steps[0].width
        return StoreSpace(tuple(f"l{i}" for i in range(width)))
    raise ValueError("cannot derive a store space from no traces")


# ---------------------------------------------------------------------------
# Deductions and the brute-force bounded closure (the oracle)


def _check_discipline(discipline: str) -> None:
    if discipline not in (SORTED, BROOKES):
        raise ValueError(f"unknown discipline {discipline!r}; expected {SORTED!r} or {BROOKES!r}")


def step_deductions(t: Trace, discipline: str, space: StoreSpace) -> frozenset[Trace]:
    """All one-step stutter insertions and mumble fusions of ``t``.

    Under ``SORTED`` an end stutter needs a ceding sort at that end; under
    ``BROOKES`` both ends accept one unconditionally.
    """
    _check_discipline(discipline)
    front_ok = discipline == BROOKES or t.start is CEDE
    back_ok = discipline == BROOKES or t.value_sort is CEDE
    out: set[Trace] = set()
    steps = t.steps
    n = len(steps)
    for pos in range(n + 1):
        if pos == 0 and not front_ok:
            continue
        if pos == n and not back_ok:
            continue
        head, tail = steps[:pos], steps[pos:]
        for stutter in space.stutters:
            out.add(_trace(t.start, head + (stutter,) + tail, t.value_sort, t.value))
    pre_of, post_of, step_of = space.pre_of, space.post_of, space.step_of
    for i in range(n - 1):
        a, b = steps[i], steps[i + 1]
        if post_of[a] is pre_of[b]:
            fused = step_of[pre_of[a]][post_of[b]]
            out.add(_trace(t.start, steps[:i] + (fused,) + steps[i + 2 :], t.value_sort, t.value))
    return frozenset(out)


def closure_bounded(
    gens: Iterable[Trace],
    discipline: str,
    space: StoreSpace,
    max_len: int,
    *,
    slack: int = 2,
    cap: int = DEFAULT_ORACLE_CAP,
) -> frozenset[Trace]:
    """Brute-force closure, truncated to traces of at most ``max_len`` steps.

    Saturation explores up to ``max_len + slack`` steps before filtering;
    normalising derivations (mumbles before stutters) shows slack zero
    already suffices, and the slack-invariance is itself tested.
    """
    _check_discipline(discipline)
    gens = list(gens)
    for g in gens:
        if len(g.steps) > max_len:
            raise ValueError("max_len must cover the longest generator")
    bound = max_len + slack
    seen: set[Trace] = set(gens)
    frontier = deque(gens)
    while frontier:
        t = frontier.popleft()
        for succ in step_deductions(t, discipline, space):
            if len(succ.steps) > bound or succ in seen:
                continue
            seen.add(succ)
            if len(seen) > cap:
                raise BudgetExceeded(f"bounded closure exceeded {cap} traces")
            frontier.append(succ)
    return frozenset(t for t in seen if len(t.steps) <= max_len)


# ---------------------------------------------------------------------------
# Closure membership without materialising the closure


class _Class(NamedTuple):
    """Generators laid side by side as the bitmasks ``_gen_contains`` steps
    with; see ``_compile``."""

    by_pre: list[int]
    by_post: list[int]
    chained: int
    accept: int
    heads: int
    offsets: list[int]


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _compile(gens: list[Trace]) -> _Class:
    """``gens``, which share start sort, value sort and value, as one class.

    Generator ``k`` takes ``len(steps) + 1`` consecutive bits from
    ``offsets[k]``, its head: one per step, then its accepting bit.
    ``by_pre[s]`` and ``by_post[s]`` mark the steps that rely on and leave
    store ``s`` (stores are ints ``0..2^n-1``, so a list indexed by store
    holds them), ``chained`` the steps whose pre store is the post store of
    the step before, ``accept`` the accepting bits and ``heads`` the heads.
    No mask but ``accept`` marks an accepting bit, so it separates each
    generator from the next: neither the carry nor the shift of
    ``_gen_contains`` crosses it.  Each store's masks are first written one
    byte per bit, highest bit first, and read as a binary numeral: setting
    bits in a growing int would copy it at every step, which is quadratic
    in the class length, and this is linear.  Only the stores that some
    step relies on or leaves get a row; the other stores' masks are 0.
    """
    tables = gens[0][1][0].tables
    pre_of, post_of = tables.pre_of, tables.post_of
    width = sum([len(g[1]) for g in gens]) + len(gens)
    pre_rows: dict[int, bytearray] = {}
    post_rows: dict[int, bytearray] = {}
    offsets = []
    i = width  # bit b is byte width - 1 - b
    for g in gens:
        offsets.append(width - i)
        for step in g[1]:
            i -= 1
            store = pre_of[step]
            row = pre_rows.get(store)
            if row is None:
                row = pre_rows[store] = bytearray(width)
            row[i] = 1
            store = post_of[step]
            row = post_rows.get(store)
            if row is None:
                row = post_rows[store] = bytearray(width)
            row[i] = 1
        i -= 1  # the accepting bit
    by_pre = [0] * len(tables.stores)
    by_post = by_pre.copy()
    for store, row in post_rows.items():
        by_post[store] = int(row.translate(_DIGITS), 2)
    steps = chained = 0
    for store, row in pre_rows.items():
        relies = by_pre[store] = int(row.translate(_DIGITS), 2)
        steps |= relies
        chained |= relies & by_post[store] << 1
    accept = ((1 << width) - 1) ^ steps
    heads = (accept << 1 | 1) ^ (1 << width)
    return _Class(by_pre, by_post, chained, accept, heads, offsets)


def _gen_contains(c: _Class, t: Trace, reach: int) -> bool:
    """Decide whether ``t`` is deducible from a generator of the class ``c``
    whose head bit is set in ``reach``.

    ``t`` must have the class's start sort, value sort and value, and assign
    every position either a fused block of consecutive chained generator
    steps (in order, jointly covering all of them) or an inserted stutter;
    end positions accept a stutter only where the sorts cede.  ``reach`` has
    the bit of a generator's step ``i`` set when some prefix of ``t``
    deduces from that generator's first ``i`` steps, so it starts at the
    heads.  A step of ``t`` starts a block at each reached generator step
    that relies on its pre store; adding those starts to the chained runs
    they begin carries each one past the end of its run, so the bits the
    addition clears, and the starts (a second start in one run is set again
    by its own addend), are the steps a block covers.  A carry out of a
    generator's last step stops at its accepting bit, which no run holds.
    All the class's generators advance together, one int operation per
    mask and step.
    """
    by_pre, by_post, chained, accept, _, _ = c
    start, steps, value_sort, _ = t
    tables = steps[0].tables
    pre_of, post_of = tables.pre_of, tables.post_of
    front_ok = start is CEDE
    back_ok = value_sort is CEDE
    last = len(steps) - 1
    for j, step in enumerate(steps):
        pre, post = pre_of[step], post_of[step]
        starts = reach & by_pre[pre]
        run = chained | starts
        nxt = ((run & (run ^ (run + starts)) | starts) & by_post[post]) << 1
        if pre is post and (j or front_ok) and (j < last or back_ok):
            nxt |= reach
        reach = nxt
        if not reach:
            return False
    return bool(reach & accept)


def member(t: Trace, K: TraceSet) -> bool:
    """Is ``t`` in the closure of ``K``'s generators?

    Both deductions are unary, so the closure of a union is the union of the
    closures, and only generators with ``t``'s sorts and value can deduce
    it: ``t`` is tested once against that class of ``K``, compiled once.
    """
    if t.start is not K.sort:
        return False
    c = K._classes.get((t.value_sort, t.value))
    return c is not None and _gen_contains(c, t, c.heads)


def _check_comparable(a: TraceSet, b: TraceSet) -> None:
    if a.sort is not b.sort:
        raise SortMismatch(f"{a.sort.value}-sorted set compared against {b.sort.value}-sorted set")


def subset(a: TraceSet, b: TraceSet) -> bool:
    """Is the closure of ``a`` inside that of ``b``?  A generator lies in
    its own closure, so one of ``a``'s that is also ``b``'s needs no test,
    and ``b``'s classes are compiled only for the others."""
    _check_comparable(a, b)
    gens = b.generators
    return all(g in gens or member(g, b) for g in a.generators)


def equal(a: TraceSet, b: TraceSet) -> bool:
    return subset(a, b) and subset(b, a)


def _normal_form(steps: tuple[Transition, ...]) -> tuple[Transition, ...]:
    """``steps`` rewritten until no chained pair and no stutter is left.

    One left-to-right pass with a stack is one order of rewriting; by
    confluence (see the module docstring) every order ends here.
    """
    tables = steps[0].tables
    pre_of, post_of, step_of = tables.pre_of, tables.post_of, tables.step_of
    nf: list[Transition] = []
    for step in steps:
        pre, post = pre_of[step], post_of[step]
        if nf and post_of[nf[-1]] is pre:
            pre = pre_of[nf.pop()]
            step = step_of[pre][post]
        if pre is not post:
            nf.append(step)
    return tuple(nf)


def _closure_key(t: Trace) -> tuple:
    """Start sort, value sort, value and the normal form of ``t``'s steps.

    ``t`` deduces only traces with its key.  The converse fails: the key
    ignores the end rule.
    """
    return (t.start, t.value_sort, t.value, _normal_form(t.steps))


def missing_witness(a: TraceSet, b: TraceSet) -> Trace | None:
    """The least generator of ``a`` (length first) outside the closure of ``b``.

    A generator lies in its own closure, so only those of ``a`` that are
    not ``b``'s are tested, and ``b``'s generators are grouped only if
    there are any.  Only ``b``'s generators with the same ``_closure_key``
    can deduce a generator of ``a``, so each is tested against that class
    alone; a class's set is built, and compiled by ``member``, the first
    time a generator of ``a`` needs it.
    """
    _check_comparable(a, b)
    outside = [g for g in a.generators if g not in b.generators]
    if not outside:
        return None
    classes: dict[tuple, list[Trace]] = {}
    for h in b.generators:
        classes.setdefault(_closure_key(h), []).append(h)
    class_sets: dict[tuple, TraceSet] = {}
    for g in sorted(outside, key=Trace.key):
        key = _closure_key(g)
        K = class_sets.get(key)
        if K is None:
            K = class_sets[key] = TraceSet._built(b.sort, classes.get(key, ()))
        if not member(g, K):
            return g
    return None


def canonicalize(K: TraceSet) -> TraceSet:
    """Drop generators deducible from the remaining ones.

    Scanning longest-first lets the shortest representative of mutually
    deducible generators survive, which fixes the canonical enumeration.
    A generator can only be deduced from one with the same
    ``_closure_key``, so the scan runs within each key's class; the
    survivors are those of a scan over the whole set in the same order.
    Each class is compiled once, and each generator is tested once against
    it with the heads enabled of the generators after it and of the
    survivors before it: its own head is cleared for its test and set back
    only if it survives.
    """
    buckets: dict[tuple, list[Trace]] = {}
    for g in K.generators:
        buckets.setdefault((g[0], g[2], g[3]), []).append(g)
    kept: list[Trace] = []
    for bucket in buckets.values():
        if len(bucket) == 1:  # nothing to compare, so no normal form needed
            kept.extend(bucket)
            continue
        classes: dict[tuple, list[Trace]] = {}
        for g in bucket:
            classes.setdefault(_normal_form(g.steps), []).append(g)
        for group in classes.values():
            if len(group) == 1:
                kept.extend(group)
                continue
            group.sort(key=Trace.key, reverse=True)
            c = _compile(group)
            enabled = c.heads
            for t, offset in zip(group, c.offsets):
                head = 1 << offset
                enabled ^= head
                if not _gen_contains(c, t, enabled):
                    enabled |= head
                    kept.append(t)
    return TraceSet._built(K.sort, kept)
