"""The term walks against their recursive references, and on deep terms.

``check_sort``, ``evaluate``, ``substitute``, ``free_vars``,
``apply_translation`` and ``term_to_sexpr`` walk terms on explicit stacks.
On terms shallow enough for recursion they must agree with the recursive
versions in ``recursive_reference``: equal results, the same operations in
the same order, and errors of the same type, message and path.  On a term
far deeper than the recursion limit every walk must still finish.
Evaluation with a memo value-numbers: it must merge equal applications,
deep ones too, and no others.
"""

import random
import sys

import pytest
import recursive_reference as ref

from tracealg import App, TermError, TraceAlgebra, Var, build, builtin_translations, check_equal
from tracealg.checker import random_term
from tracealg.cli import parse_term, term_to_sexpr
from tracealg.kernel import (
    CEDE,
    HOLD,
    TermAlgebra,
    bottom,
    check_sort,
    evaluate,
    fold,
    free_vars,
    substitute,
)
from tracealg.theories import THEORY_NAMES, apply_translation

JUNK = ["ghost", (), (7,), 7, ["or"], ("nope", "a"), ("or",), ("bot",)]


def context(p):
    """Two variables of each sort of the theory."""
    return {f"{s.value}{i}": s for s in sorted(p.signature.sorts, key=str) for i in (0, 1)}


def outcome(f, *args):
    """What a call gives: its value, or the type, message and path it raised."""
    try:
        return f(*args)
    except TermError as exc:
        return type(exc), str(exc), exc.path


def to_raw(t, rng):
    """A raw tree that elaborates to ``t``, joins spelled by their alias where
    the signature has one, so that elaboration must resolve their sort."""
    if isinstance(t, Var):
        return t.name
    name = "or" if t.op.startswith("or@") and rng.random() < 0.8 else t.op
    return (name, *(to_raw(a, rng) for a in t.args))


def mutate(raw, rng, names):
    """``raw`` with one random subtree replaced: by junk, a variable, a bare
    join, or the same node with a child dropped or added."""
    if isinstance(raw, str) or not raw[1:] or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return rng.choice(JUNK)
        if choice < 0.7:
            return rng.choice(names)
        if isinstance(raw, tuple) and raw:
            return raw[:-1] if choice < 0.85 else raw + (rng.choice(names),)
        return ("or",)
    i = rng.randrange(1, len(raw))
    return raw[:i] + (mutate(raw[i], rng, names),) + raw[i + 1 :]


def variables(t):
    if isinstance(t, Var):
        return {t.name: t.sort}
    return {name: sort for a in t.args for name, sort in variables(a).items()}


def random_raw(sig, names, rng, depth):
    """A raw tree of operator names with random arities, mostly ill-sorted."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + ["ghost", ("or",)])
    heads = sorted(sig.operators) + sorted(sig.aliases)
    name = rng.choice(heads)
    arity = rng.choice([0, 1, 1, 2, 2, 3])
    return (name, *(random_raw(sig, names, rng, depth - 1) for _ in range(arity)))


@pytest.mark.parametrize("theory", THEORY_NAMES)
def test_check_sort_matches_the_recursive_reference(theory):
    p = build(theory)
    sig, ctx = p.signature, context(p)
    names = sorted(ctx)
    rng = random.Random(theory)
    sorts = [None, *sorted(sig.sorts, key=str)]
    failures = 0
    for i in range(300):
        t = random_term(p, ctx, sorts[1 + i % (len(sorts) - 1)], 4, rng)
        raws = [to_raw(t, rng), random_raw(sig, names, rng, 4)]
        raws.append(mutate(raws[0], rng, names))
        for raw in raws:
            for expected in sorts:
                got = outcome(check_sort, sig, ctx, raw, expected)
                assert got == outcome(ref.check_sort, sig, ctx, raw, expected)
                failures += type(got) is tuple
    assert failures  # the trees reach the error paths


def test_check_sort_errors_cover_every_kind():
    # unresolvable bots, probes that fail before one resolves, and errors
    # under a probe, each compared with the reference
    sig = build("S").signature
    ctx = {"h": HOLD, "c": CEDE}
    raws = [
        ("or",),
        ("or", ("or",), ("or", ("or",))),
        ("or", ("or",), "h", ("or",)),
        ("or", ("or", ("or",)), ("acq", "c"), "ghost"),
        ("or", ("or",), ("acq", ("upd:x:0", "c"))),
        ("or", ("or", ("or",)), ("nope",)),
        ("acq", ("rel", ("or", ("or",), ("or",)))),
        ("acq", ("rel", ("or", ("lkp:x", "h")))),
        ("lkp:y", ("rel", "c"), ("or", ("or",), "c", ("bot",))),
        ("rel", ("or", "h", "c")),
        ("or", ("or",), ("acq", ("rel", "ghost"))),
        ("or", ("or",), ("rel", "c", "c")),
        [],
        ("or", 3),
    ]
    seen = set()
    for raw in raws:
        for expected in (None, HOLD, CEDE):
            got = outcome(check_sort, sig, ctx, raw, expected)
            assert got == outcome(ref.check_sort, sig, ctx, raw, expected)
            seen.add(got[0].__name__ if type(got) is tuple else "term")
    assert seen == {
        "term", "AmbiguousSort", "SortMismatch", "UnknownVariable", "UnknownOperator",
        "ArityMismatch",
    }


def test_alias_candidates_differ_in_sort():
    # check_sort keeps a probed child's term, which is the term a second walk
    # at the found sort would build only if no two candidates share a sort
    from tracealg import Operator, Signature, STAR

    ops = {n: Operator(n, STAR, (STAR,), variadic=True, kind="join") for n in ("j1", "j2")}
    with pytest.raises(ValueError, match="alias or names two operators of one sort"):
        Signature(frozenset({STAR}), ops, aliases={"or": ("j1", "j2")})


class Recording(TermAlgebra):
    """The term algebra, recording the operations it applies in order."""

    def __init__(self, signature):
        super().__init__(signature)
        self.calls = []

    def apply(self, op, args):
        self.calls.append((op.name, args))
        return super().apply(op, args)


@pytest.mark.parametrize("theory", THEORY_NAMES)
def test_folds_match_the_recursive_references(theory):
    p = build(theory)
    sig, ctx = p.signature, context(p)
    names = sorted(ctx)
    rng = random.Random(theory)
    translations = [tr for tr in builtin_translations().values() if tr.source.name == theory]
    for i in range(100):
        sort = sorted(sig.sorts, key=str)[i % len(sig.sorts)]
        # a substitution shares the images, so the folds meet aliased subterms
        theta = {n: random_term(p, ctx, s, 2, rng) for n, s in ctx.items()}
        t = substitute(random_term(p, ctx, sort, 4, rng), theta)
        for env in (theta, {n: theta[n] for n in names[1:]}):
            new, old = Recording(sig), Recording(sig)
            assert outcome(evaluate, new, env, t) == outcome(ref.evaluate, old, env, t)
            assert new.calls == old.calls
            assert outcome(substitute, t, env) == outcome(ref.substitute, t, env)
        wrong = {n: Var(n, HOLD if s is not HOLD else CEDE) for n, s in ctx.items()}
        assert outcome(substitute, t, wrong) == outcome(ref.substitute, t, wrong)
        assert free_vars(t) == variables(t)
        for tr in translations:
            assert apply_translation(tr, t) == ref.apply_translation(tr, t)
        assert term_to_sexpr(t, p) == ref.term_to_sexpr(t, p)


def height(t):
    return fold(t, lambda v: 0, lambda n, args: 1 + max(args))


def test_walks_take_terms_deeper_than_the_recursion_limit():
    depth = 20_000
    assert sys.getrecursionlimit() < depth
    p = build("S")
    sig = p.signature
    ctx = {"x": CEDE}
    raw = "x"
    for _ in range(depth // 2):
        raw = ("acq", ("rel", raw))
    t = check_sort(sig, ctx, raw)
    assert height(t) == depth
    assert free_vars(t) == ctx
    image = App("acq", (App("rel", (Var("x", CEDE),), HOLD),), CEDE)
    twice = substitute(t, {"x": image})
    assert height(twice) == depth + 2
    folded = evaluate(Recording(sig), {"x": image}, t)
    text = term_to_sexpr(twice, p)
    assert text == "(acq (rel " * (depth // 2 + 1) + "x" + "))" * (depth // 2 + 1)
    assert term_to_sexpr(folded, p) == text
    assert term_to_sexpr(parse_term(text, p, ctx), p) == text
    tr = builtin_translations()["E_STr"]
    translated = apply_translation(tr, t)
    target_ctx = {"x": tr.sort_map[CEDE]}
    printed = term_to_sexpr(translated, tr.target)
    assert term_to_sexpr(parse_term(printed, tr.target, target_ctx), tr.target) == printed
    # a chain of joins whose sort only the innermost variable settles
    chain = "x"
    for _ in range(depth):
        chain = ("or", chain)
    assert height(check_sort(sig, ctx, chain)) == depth


def test_a_decision_of_equal_deep_terms_evaluates_each_application_once(monkeypatch):
    depth = 20_000
    sig = build("S").signature
    ctx = {"x": CEDE}
    raw = "x"
    for _ in range(depth // 2):
        raw = ("acq", ("rel", raw))
    t1, t2 = check_sort(sig, ctx, raw), check_sort(sig, ctx, raw)
    assert t1 is not t2
    calls = []
    acquire = TraceAlgebra.acquire
    monkeypatch.setattr(TraceAlgebra, "acquire", lambda alg, K: calls.append(K) or acquire(alg, K))
    assert check_equal("S", ctx, t1, t2).holds
    assert len(calls) == depth // 2


@pytest.mark.parametrize("theory", THEORY_NAMES)
def test_value_numbering_merges_no_two_different_applications(theory):
    # in the term algebra two applications are merged only if they build
    # equal terms, so one memo over a list of terms must change no result
    p = build(theory)
    sig, ctx = p.signature, context(p)
    alg = TermAlgebra(sig)
    rng = random.Random(f"numbering-{theory}")
    sorts = sorted(sig.sorts, key=str)
    for i in range(50):
        theta = {n: random_term(p, ctx, s, 2, rng) for n, s in ctx.items()}
        terms = [random_term(p, ctx, sorts[j % len(sorts)], 1 + (i + j) % 4, rng) for j in range(5)]
        terms += [substitute(t, theta) for t in terms[:2]]
        memo = {}
        numbered = [evaluate(alg, theta, t, memo) for t in terms]
        assert numbered == [evaluate(alg, theta, t) for t in terms]
    # a variable never meets a nullary operator of its name
    sort = sorts[0]
    bot = bottom(sig, sort)
    image = random_term(p, ctx, sort, 2, rng)
    memo = {}
    assert [evaluate(alg, {bot.op: image}, t, memo) for t in (Var(bot.op, sort), bot)] == [image, bot]
