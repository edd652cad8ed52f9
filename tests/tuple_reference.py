"""Tuple stores and transitions, and the operations written on them.

Stores and transitions used to be named tuples of bits; the model now packs
them into ints.  The tuple classes and the tuple-walking operations are kept
here, as they were, so that tests can compare every packed operation with
them.  A reference trace is a ``RefTrace`` whose steps are ``RefTransition``s;
``ref_trace`` converts a packed ``Trace`` through its ``bits``.

The held operations ``update``, ``lookup``, ``release``, ``transition`` and
``acquire`` now work on a hold-sorted set's first-step index.  Their packed
loops over generators, which built every output trace, are kept at the end
(``loop_*``), so that tests can compare the index with them too.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from tracealg import BROOKES, CEDE, HOLD, TraceSet, canonicalize
from tracealg.traces import _trace


class RefStore(NamedTuple):
    bits: tuple[int, ...]

    def get(self, index: int) -> int:
        return self.bits[index]

    def set(self, index: int, bit: int) -> "RefStore":
        return RefStore(self.bits[:index] + (bit,) + self.bits[index + 1 :])

    def render(self) -> str:
        return "".join(str(b) for b in self.bits)


class RefTransition(NamedTuple):
    pre: RefStore
    post: RefStore

    def is_stutter(self) -> bool:
        return self.pre == self.post

    def render(self) -> str:
        return f"({self.pre.render()},{self.post.render()})"


class RefTrace(NamedTuple):
    start: object
    steps: tuple[RefTransition, ...]
    value_sort: object
    value: str


def ref_stores(width: int) -> tuple[RefStore, ...]:
    return tuple(RefStore(bits) for bits in itertools.product((0, 1), repeat=width))


def ref_step(step) -> RefTransition:
    return RefTransition(RefStore(step.pre.bits), RefStore(step.post.bits))


def ref_trace(t) -> RefTrace:
    return RefTrace(t.start, tuple(ref_step(s) for s in t.steps), t.value_sort, t.value)


def ref_gens(K) -> frozenset[RefTrace]:
    return frozenset(ref_trace(g) for g in K.generators)


def ref_key(t) -> tuple:
    """``Trace.key`` as it was: steps as pairs of bit tuples."""
    return (
        len(t.steps),
        t.start.order,
        tuple((s.pre.bits, s.post.bits) for s in t.steps),
        t.value_sort.order,
        t.value,
    )


# ---------------------------------------------------------------------------
# traces: deductions, membership, normal form


def ref_step_deductions(t: RefTrace, discipline: str, width: int) -> frozenset[RefTrace]:
    front_ok = discipline == BROOKES or t.start is CEDE
    back_ok = discipline == BROOKES or t.value_sort is CEDE
    out = set()
    n = len(t.steps)
    for pos in range(n + 1):
        if (pos == 0 and not front_ok) or (pos == n and not back_ok):
            continue
        for s in ref_stores(width):
            steps = t.steps[:pos] + (RefTransition(s, s),) + t.steps[pos:]
            out.add(t._replace(steps=steps))
    for i in range(n - 1):
        a, b = t.steps[i], t.steps[i + 1]
        if a.post == b.pre:
            steps = t.steps[:i] + (RefTransition(a.pre, b.post),) + t.steps[i + 2 :]
            out.add(t._replace(steps=steps))
    return frozenset(out)


def ref_gen_contains(g: RefTrace, t: RefTrace) -> bool:
    if g.start is not t.start or g.value_sort is not t.value_sort or g.value != t.value:
        return False
    gs, ts = g.steps, t.steps
    m, n = len(gs), len(ts)
    front_ok = t.start is CEDE
    back_ok = t.value_sort is CEDE
    reach = 1
    for j in range(n):
        pre, post = ts[j]
        nxt = 0
        if pre == post and (j > 0 or front_ok) and (j < n - 1 or back_ok):
            nxt = reach
        for i in range(m):
            if not (reach >> i) & 1 or gs[i].pre != pre:
                continue
            k = i
            while True:
                if gs[k].post == post:
                    nxt |= 1 << (k + 1)
                if k + 1 >= m or gs[k].post != gs[k + 1].pre:
                    break
                k += 1
        reach = nxt
        if not reach:
            return False
    return bool((reach >> m) & 1)


def ref_normal_form(steps: tuple[RefTransition, ...]) -> tuple[tuple[RefStore, RefStore], ...]:
    nf: list[tuple[RefStore, RefStore]] = []
    for pre, post in steps:
        if nf and nf[-1][1] == pre:
            pre = nf.pop()[0]
        if pre != post:
            nf.append((pre, post))
    return tuple(nf)


def ref_canonicalize(gens: frozenset[RefTrace]) -> frozenset[RefTrace]:
    """Pairwise canonicalization within each (start, value sort, value)."""
    buckets: dict[tuple, list[RefTrace]] = {}
    for g in gens:
        buckets.setdefault((g.start, g.value_sort, g.value), []).append(g)
    kept: list[RefTrace] = []
    for group in buckets.values():
        group.sort(key=ref_key, reverse=True)
        surviving: list[RefTrace] = []
        for idx, t in enumerate(group):
            if not any(ref_gen_contains(g, t) for g in group[idx + 1 :] + surviving):
                surviving.append(t)
        kept.extend(surviving)
    return frozenset(kept)


# ---------------------------------------------------------------------------
# model operations, each on reference generator sets


def ref_unit(width: int, sort, value: str) -> frozenset[RefTrace]:
    return frozenset(
        RefTrace(sort, (RefTransition(s, s),), sort, value) for s in ref_stores(width)
    )


def ref_update(loc: int, bit: int, gens) -> frozenset[RefTrace]:
    out = set()
    for g in gens:
        first = g.steps[0]
        if first.pre.get(loc) != bit:
            continue
        for source in (first.pre, first.pre.set(loc, 1 - bit)):
            steps = (RefTransition(source, first.post),) + g.steps[1:]
            out.add(RefTrace(HOLD, steps, g.value_sort, g.value))
    return frozenset(out)


def ref_lookup(loc: int, gens0, gens1) -> frozenset[RefTrace]:
    return frozenset(
        [g for g in gens0 if g.steps[0].pre.get(loc) == 0]
        + [g for g in gens1 if g.steps[0].pre.get(loc) == 1]
    )


def ref_acquire(gens) -> frozenset[RefTrace]:
    return ref_canonicalize(frozenset(g._replace(start=CEDE) for g in gens))


def ref_release(width: int, gens) -> frozenset[RefTrace]:
    out = set()
    for g in gens:
        out.add(g._replace(start=HOLD))
        for s in ref_stores(width):
            out.add(RefTrace(HOLD, (RefTransition(s, s),) + g.steps, g.value_sort, g.value))
    return frozenset(out)


def ref_transition(pre: RefStore, post: RefStore, gens) -> frozenset[RefTrace]:
    return frozenset(
        RefTrace(HOLD, (RefTransition(pre, g.steps[0].post),) + g.steps[1:], g.value_sort, g.value)
        for g in gens
        if g.steps[0].pre == post
    )


def ref_kleisli(env: dict, gens) -> frozenset[RefTrace]:
    """``env`` maps each value to its continuation's reference generators."""
    out = set()
    for g in gens:
        for h in env[g.value]:
            if g.value_sort is CEDE:
                out.add(RefTrace(g.start, g.steps + h.steps, h.value_sort, h.value))
                continue
            last, first = g.steps[-1], h.steps[0]
            if last.post == first.pre:
                steps = g.steps[:-1] + (RefTransition(last.pre, first.post),) + h.steps[1:]
                out.add(RefTrace(g.start, steps, h.value_sort, h.value))
    return frozenset(out)


def ref_brookes_transition(pre: RefStore, post: RefStore, gens) -> frozenset[RefTrace]:
    return frozenset(
        RefTrace(CEDE, (RefTransition(pre, post),) + g.steps, CEDE, g.value) for g in gens
    )


def ref_read(width: int, loc: int, gens0, gens1) -> frozenset[RefTrace]:
    out = set()
    for s in ref_stores(width):
        for g in (gens0, gens1)[s.get(loc)]:
            out.add(RefTrace(CEDE, (RefTransition(s, s),) + g.steps, CEDE, g.value))
    return frozenset(out)


def ref_write(width: int, loc: int, bit: int, gens) -> frozenset[RefTrace]:
    out = set()
    for s in ref_stores(width):
        step = RefTransition(s, s.set(loc, bit))
        for g in gens:
            out.add(RefTrace(CEDE, (step,) + g.steps, CEDE, g.value))
    return frozenset(out)


def ref_par(gens1, gens2) -> frozenset[RefTrace]:
    out = set()
    for g1 in gens1:
        for g2 in gens2:
            n1, n2 = len(g1.steps), len(g2.steps)
            for chosen in itertools.combinations(range(n1 + n2), n1):
                it1, it2 = iter(g1.steps), iter(g2.steps)
                merged = tuple(next(it1) if i in chosen else next(it2) for i in range(n1 + n2))
                out.add(RefTrace(CEDE, merged, CEDE, f"({g1.value},{g2.value})"))
    return frozenset(out)


def ref_qualifies(t: RefTrace) -> bool:
    """``single_cell_witness``'s test: each step changes at most one bit."""
    return all(sum(a != b for a, b in zip(s.pre.bits, s.post.bits)) <= 1 for s in t.steps)


def ref_gtable_update(width: int, loc: int, bit: int, rows: tuple) -> tuple:
    stores = ref_stores(width)
    index = {s: i for i, s in enumerate(stores)}
    return tuple(rows[index[s.set(loc, bit)]] for s in stores)


def ref_gtable_lookup(width: int, loc: int, rows0: tuple, rows1: tuple) -> tuple:
    return tuple((rows0, rows1)[s.get(loc)][i] for i, s in enumerate(ref_stores(width)))


# ---------------------------------------------------------------------------
# The held operations as packed generator loops, as they were before the
# first-step index: each builds and hashes every output trace


def loop_update(space, loc: int, bit: int, K: TraceSet) -> TraceSet:
    mask = space.pre_masks[loc]
    want = mask if bit else 0
    table = space.steps
    gens = set()
    for g in K.generators:
        _, steps, value_sort, value = g
        first = steps[0]
        if first & mask != want:
            continue
        gens.add(g)
        gens.add(_trace(HOLD, (table[first ^ mask],) + steps[1:], value_sort, value))
    return TraceSet._built(HOLD, gens)


def loop_lookup(space, loc: int, K0: TraceSet, K1: TraceSet) -> TraceSet:
    mask = space.pre_masks[loc]
    gens = {g for g in K0.generators if not g.steps[0] & mask}
    gens.update(g for g in K1.generators if g.steps[0] & mask)
    return TraceSet._built(HOLD, gens)


def loop_acquire(K: TraceSet) -> TraceSet:
    gens = [_trace(CEDE, steps, value_sort, value) for _, steps, value_sort, value in K.generators]
    return canonicalize(TraceSet._built(CEDE, gens))


def loop_release(space, K: TraceSet) -> TraceSet:
    runs = [()] + [(st,) for st in space.stutters]
    return TraceSet._built(HOLD, {_trace(HOLD, run + steps, value_sort, value)
                                  for _, steps, value_sort, value in K.generators for run in runs})


def loop_transition(space, pre, post, K: TraceSet) -> TraceSet:
    from_pre = space.step_of[pre]
    gens = set()
    for _, steps, value_sort, value in K.generators:
        first = steps[0]
        if space.pre_of[first] is post:
            gens.add(_trace(HOLD, (from_pre[space.post_of[first]],) + steps[1:], value_sort, value))
    return TraceSet._built(HOLD, gens)
