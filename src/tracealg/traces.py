"""Sorted traces, stutter/mumble deductions, and finitely generated closed sets.

A trace is a non-empty sequence of store transitions delimited by sorts: the
start sort says whether the environment may run before the first transition,
the value sort whether it may run after the last.  ``Trace`` is a plain
immutable tuple ``(start, steps, value_sort, value)`` of sorts (``str``
enums), transitions (interned ints, see ``store``) and a string, so the
model operations, which build and hash many traces, do C-level work on each;
only its constructor's checks run in Python.  Closed sets of traces are
represented by finite generator sets; the closure itself is countably
infinite and never materialised.  Membership in a closure is decided by a
small dynamic program, validated exhaustively against the brute-force
bounded closure.

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

import os
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

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


@dataclass(frozen=True)
class TraceSet:
    """A closed set of traces, given by finite generators.

    The set denoted is the deductive closure of the generators; operations
    treat the closure semantically and never expand it.  All generators
    share the start sort recorded in ``sort``.
    """

    sort: Sort
    generators: frozenset[Trace]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.start is not self.sort:
                raise ValueError(
                    f"generator starts at {g.start.value}, set is {self.sort.value}-sorted"
                )

    @classmethod
    def _built(cls, sort: Sort, gens: Iterable[Trace]) -> "TraceSet":
        """A set whose generators the caller built to start at ``sort``:
        the per-generator check of ``__post_init__`` is skipped."""
        K = object.__new__(cls)
        object.__setattr__(K, "sort", sort)
        object.__setattr__(K, "generators", frozenset(gens))
        return K

    def is_empty(self) -> bool:
        return not self.generators

    def ordered(self) -> list[Trace]:
        return sorted(self.generators, key=Trace.key)


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


def step_deductions(t: Trace, discipline: str, space: StoreSpace) -> frozenset[Trace]:
    """All one-step stutter insertions and mumble fusions of ``t``.

    Under ``SORTED`` an end stutter needs a ceding sort at that end; under
    ``BROOKES`` both ends accept one unconditionally.
    """
    if discipline not in (SORTED, BROOKES):
        raise ValueError(f"unknown discipline {discipline!r}; expected {SORTED!r} or {BROOKES!r}")
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
            out.add(Trace(t.start, head + (stutter,) + tail, t.value_sort, t.value))
    pre_of, post_of, step_of = space.pre_of, space.post_of, space.step_of
    for i in range(n - 1):
        a, b = steps[i], steps[i + 1]
        if post_of[a] is pre_of[b]:
            fused = step_of[pre_of[a]][post_of[b]]
            out.add(Trace(t.start, steps[:i] + (fused,) + steps[i + 2 :], t.value_sort, t.value))
    return frozenset(out)


def _oracle_cap() -> int:
    text = os.environ.get("BROOKES_ORACLE_CAP")
    if text is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"BROOKES_ORACLE_CAP must be a non-negative integer, got {text!r}")
    return cap


def closure_bounded(
    gens: Iterable[Trace],
    discipline: str,
    space: StoreSpace,
    max_len: int,
    *,
    slack: int = 2,
    cap: int | None = None,
) -> frozenset[Trace]:
    """Brute-force closure, truncated to traces of at most ``max_len`` steps.

    Saturation explores up to ``max_len + slack`` steps before filtering;
    normalising derivations (mumbles before stutters) shows slack zero
    already suffices, and the slack-invariance is itself tested.
    """
    gens = list(gens)
    if cap is None:
        cap = _oracle_cap()
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


def _gen_contains(g: Trace, t: Trace) -> bool:
    """Decide whether ``t`` is deducible from the single generator ``g``.

    ``t`` must assign every position either a fused block of consecutive
    chained generator steps (in order, jointly covering all of them) or an
    inserted stutter; end positions accept a stutter only where the sorts
    cede.  The reachable-prefix sets are kept as bitmasks over how many
    generator steps have been consumed; stores are compared as interned
    objects.
    """
    if g.start is not t.start or g.value_sort is not t.value_sort or g.value != t.value:
        return False
    gs, ts = g.steps, t.steps
    m, n = len(gs), len(ts)
    tables = gs[0].tables
    pre_of, post_of = tables.pre_of, tables.post_of
    gpre = [pre_of[s] for s in gs]
    gpost = [post_of[s] for s in gs]
    front_ok = t.start is CEDE
    back_ok = t.value_sort is CEDE
    reach = 1
    for j in range(n):
        step = ts[j]
        pre, post = pre_of[step], post_of[step]
        nxt = 0
        if pre is post and (j > 0 or front_ok) and (j < n - 1 or back_ok):
            nxt = reach
        for i in range(m):
            if not (reach >> i) & 1 or gpre[i] is not pre:
                continue
            k = i
            while True:
                if gpost[k] is post:
                    nxt |= 1 << (k + 1)
                if k + 1 >= m or gpost[k] is not gpre[k + 1]:
                    break
                k += 1
        reach = nxt
        if not reach:
            return False
    return bool((reach >> m) & 1)


def member(t: Trace, K: TraceSet) -> bool:
    """Is ``t`` in the closure of ``K``'s generators?

    Both deductions are unary, so the closure of a union is the union of the
    closures and membership is a disjunction over generators.
    """
    return any(_gen_contains(g, t) for g in K.generators)


def _check_comparable(a: TraceSet, b: TraceSet) -> None:
    if a.sort is not b.sort:
        raise SortMismatch(f"{a.sort.value}-sorted set compared against {b.sort.value}-sorted set")


def subset(a: TraceSet, b: TraceSet) -> bool:
    _check_comparable(a, b)
    return all(member(g, b) for g in a.generators)


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

    Only ``b``'s generators with the same ``_closure_key`` can deduce a
    generator of ``a``, so each is tested against that class alone; a
    class's set is built the first time a generator of ``a`` needs it.
    """
    _check_comparable(a, b)
    classes: dict[tuple, list[Trace]] = {}
    for h in b.generators:
        classes.setdefault(_closure_key(h), []).append(h)
    class_sets: dict[tuple, TraceSet] = {}
    for g in a.ordered():
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
    """
    buckets: dict[tuple, list[Trace]] = {}
    for g in K.generators:
        buckets.setdefault((g.start, g.value_sort, g.value), []).append(g)
    kept: list[Trace] = []
    for bucket in buckets.values():
        if len(bucket) == 1:  # nothing to compare, so no normal form needed
            kept.extend(bucket)
            continue
        classes: dict[tuple, list[Trace]] = {}
        for g in bucket:
            classes.setdefault(_normal_form(g.steps), []).append(g)
        for group in classes.values():
            group.sort(key=Trace.key, reverse=True)
            surviving: list[Trace] = []
            for idx, t in enumerate(group):
                rest = group[idx + 1 :] + surviving
                if not any(_gen_contains(g, t) for g in rest):
                    surviving.append(t)
            kept.extend(surviving)
    return TraceSet._built(K.sort, kept)

