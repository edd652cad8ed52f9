"""The transition-term builders as they were, one checked ``app`` per node,
and the terms as they were, frozen dataclasses.

``theories.open_transition_term`` and ``model.reify_trace`` now take their
operators from the signature's index, build every node as a plain ``App``
and check only the body's sort.  These are the earlier versions, which
format each operator's name and build every node through ``kernel.app`` and
its arity and sort checks, so that tests can compare the two: equal terms,
and the same ``SortMismatch`` for a body of the wrong sort.

``RefVar`` and ``RefApp`` are ``kernel.Var`` and ``kernel.App`` as frozen
dataclasses, whose generated hash, equality and repr the tuple terms keep.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracealg.kernel import CEDE, Sort, Var, app, bottom
from tracealg.theories import build, lookup_name, update_name


def ref_cell_assert_term(sig, space, loc, bit, body):
    bot = bottom(sig, body.sort)
    args = (body, bot) if bit == 0 else (bot, body)
    return app(sig, lookup_name(space, loc), *args)


def ref_open_transition_term(sig, space, pre, post, body):
    t = body
    for loc in reversed(range(len(space.locations))):
        t = app(sig, update_name(space, loc, post.get(loc)), t)
    for loc in reversed(range(len(space.locations))):
        t = ref_cell_assert_term(sig, space, loc, pre.get(loc), t)
    return t


def ref_reify_trace(space, t):
    sig = build("S", space).signature
    core = Var(t.value, t.value_sort)
    acc = None
    for step in reversed(t.steps):
        if acc is None:
            body = app(sig, "rel", core) if t.value_sort is CEDE else core
        else:
            body = app(sig, "rel", app(sig, "acq", acc))
        acc = ref_open_transition_term(sig, space, step.pre, step.post, body)
    if t.start is CEDE:
        acc = app(sig, "acq", acc)
    return acc


@dataclass(frozen=True)
class RefVar:
    name: str
    sort: Sort


@dataclass(frozen=True)
class RefApp:
    op: str
    args: tuple
    sort: Sort


