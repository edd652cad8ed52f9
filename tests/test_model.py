import copy
import itertools
import pickle
import random

import pytest

from tracealg import (
    BROOKES,
    CEDE,
    HOLD,
    SORTED,
    BrookesAlgebra,
    SortMismatch,
    StoreSpace,
    Trace,
    TraceAlgebra,
    TraceSet,
    Transition,
    Var,
    brookes_set,
    build,
    canonicalize,
    check_sort,
    closure_bounded,
    embed_cede,
    equal,
    evaluate,
    hush_step,
    kleisli,
    member,
    par,
    reify,
    reify_trace,
    single_cell_witness,
    sorted_set,
    step_deductions,
    strip_cede,
    subset,
    unit,
    yield1,
    yield2,
)
from tracealg.checker import SampleConfig, random_brookes_set, random_closed_set
from tracealg.model import (
    GTableAlgebra,
    gtable_to_traceset,
    variable_gtable,
)
from tracealg.theories import open_transition_term
from app_reference import ref_reify_trace
from tuple_reference import (
    loop_acquire,
    loop_lookup,
    loop_release,
    loop_transition,
    loop_update,
    RefStore,
    RefTrace,
    RefTransition,
    ref_acquire,
    ref_brookes_transition,
    ref_gens,
    ref_gtable_lookup,
    ref_gtable_update,
    ref_kleisli,
    ref_lookup,
    ref_par,
    ref_qualifies,
    ref_read,
    ref_release,
    ref_step,
    ref_stores,
    ref_trace,
    ref_transition,
    ref_unit,
    ref_update,
    ref_write,
)

SP = StoreSpace()
ST = {s.render(): s for s in SP.stores}
CFG = SampleConfig(gens=(0, 3), length=(1, 2))
VALUES = {"u": HOLD, "v": CEDE}


def tr(a, b):
    return Transition(ST[a], ST[b])


def mk(start, pairs, value_sort, value="v"):
    return Trace(start, tuple(tr(a, b) for a, b in pairs), value_sort, value)


def ev(alg, ctx, raw, env=None):
    sig = build("S", SP).signature
    term = check_sort(sig, ctx, raw)
    env = env or {name: unit(SP, sort, name) for name, sort in ctx.items()}
    return evaluate(alg, env, term)


def random_sets(count, sort=None, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        chosen = sort or rng.choice((HOLD, CEDE))
        out.append(random_closed_set(SP, chosen, VALUES, CFG, rng))
    return out


# ---------------------------------------------------------------------------
# unit


def test_unit_has_one_stutter_per_store_and_is_closed():
    u = unit(SP, HOLD, "x")
    assert len(u.generators) == len(SP.stores) == 4
    assert closure_bounded(u.generators, SORTED, SP, 1) == u.generators


def test_unit_membership():
    u = unit(SP, CEDE, "x")
    assert member(mk(CEDE, [("01", "01"), ("10", "10")], CEDE, "x"), u)
    held = unit(SP, HOLD, "x")
    assert not member(mk(HOLD, [("01", "10")], HOLD, "x"), held)


# ---------------------------------------------------------------------------
# The interpreted operations, against the oracle


def relabel(gens, sort):
    return frozenset(Trace(sort, g.steps, g.value_sort, g.value) for g in gens)


def test_acquire_matches_literal_definition_on_random_sets(alg):
    for K in random_sets(25, HOLD, seed=1):
        got = closure_bounded(alg.acquire(K).generators, SORTED, SP, 3, slack=0)
        source = closure_bounded(K.generators, SORTED, SP, 4, slack=0)
        closed = closure_bounded(relabel(source, CEDE), SORTED, SP, 4, slack=0)
        literal = frozenset(t for t in closed if len(t.steps) <= 3)
        assert got == literal


def test_release_matches_literal_definition_on_random_sets(alg):
    for K in random_sets(25, CEDE, seed=2):
        got = closure_bounded(alg.release(K).generators, SORTED, SP, 3, slack=0)
        source = closure_bounded(K.generators, SORTED, SP, 4, slack=0)
        prefixed = {
            Trace(HOLD, (Transition(s, s),) + g.steps, g.value_sort, g.value)
            for s in SP.stores
            for g in source
        }
        literal = frozenset(
            t for t in closure_bounded(prefixed, SORTED, SP, 5, slack=0) if len(t.steps) <= 3
        )
        assert got == literal


def test_update_strictness_and_empty_join(alg):
    empty_hold = sorted_set(HOLD, [])
    assert alg.join(HOLD, []).is_empty()
    assert alg.update(0, 1, empty_hold).is_empty()
    assert alg.lookup(0, empty_hold, empty_hold).is_empty()
    assert alg.acquire(empty_hold).is_empty()
    assert alg.release(sorted_set(CEDE, [])).is_empty()


def test_overview_denotation_contains_the_walked_trace(alg):
    ctx = {"three": CEDE, "seven": CEDE}
    raw = (
        "upd:y:0",
        ("rel", ("acq", ("lkp:y", ("rel", "three"), ("upd:x:1", ("upd:y:1", ("rel", "seven")))))),
    )
    d = ev(alg, ctx, raw)
    assert member(mk(HOLD, [("11", "10"), ("11", "11")], CEDE, "seven"), d)


def test_closure_pair_laws_on_random_sets(alg):
    for K in random_sets(30, CEDE, seed=3):
        assert equal(alg.acquire(alg.release(K)), K)
    for K in random_sets(30, HOLD, seed=4):
        assert subset(K, alg.release(alg.acquire(K)))


def test_all_stutter_open_transitions_collapse_to_unit(alg):
    sig = build("S", SP).signature
    x_hold = Var("x", HOLD)
    from tracealg.kernel import app, join

    big = join(
        sig, HOLD, tuple(open_transition_term(sig, SP, s, s, x_hold) for s in SP.stores)
    )
    env = {"x": unit(SP, HOLD, "x")}
    assert equal(evaluate(alg, env, big), unit(SP, HOLD, "x"))

    x_cede = Var("x", CEDE)
    delimited = join(
        sig,
        CEDE,
        tuple(
            app(sig, "acq", open_transition_term(sig, SP, s, s, app(sig, "rel", x_cede)))
            for s in SP.stores
        ),
    )
    env = {"x": unit(SP, CEDE, "x")}
    assert equal(evaluate(alg, env, delimited), unit(SP, CEDE, "x"))


def test_two_sorted_transition_op_agrees_with_open_transition(alg):
    # interpreting a transition directly is prefixing; expanding it through
    # assert/update blocks must agree
    sig = build("S", SP).signature
    for K in random_sets(10, HOLD, seed=5):
        for pre_name, post_name in (("11", "10"), ("00", "00"), ("01", "11")):
            direct = alg.transition(ST[pre_name], ST[post_name], K)
            term = open_transition_term(sig, SP, ST[pre_name], ST[post_name], Var("k", HOLD))
            expanded = evaluate(alg, {"k": K}, term)
            assert equal(direct, expanded)


# ---------------------------------------------------------------------------
# Kleisli extension


def unit_env(K):
    names = {(g.value, g.value_sort) for g in K.generators}
    return {name: unit(SP, sort, name) for name, sort in names}


def test_kleisli_right_unit(alg):
    for K in random_sets(50, seed=6):
        assert equal(kleisli(unit_env(K), K), K)


def test_kleisli_left_unit(alg):
    rng = random.Random(7)
    for _ in range(50):
        sort = rng.choice((HOLD, CEDE))
        e = {"x": random_closed_set(SP, sort, VALUES, CFG, rng)}
        assert equal(kleisli(e, unit(SP, sort, "x")), e["x"])


def test_kleisli_associativity(alg):
    rng = random.Random(8)
    for _ in range(40):
        K = random_closed_set(SP, rng.choice((HOLD, CEDE)), VALUES, CFG, rng)
        e = {name: random_closed_set(SP, sort, VALUES, CFG, rng) for name, sort in VALUES.items()}
        f = {name: random_closed_set(SP, sort, VALUES, CFG, rng) for name, sort in VALUES.items()}
        lhs = kleisli(f, kleisli(e, K))
        rhs = kleisli({name: kleisli(f, e[name]) for name in e}, K)
        assert equal(lhs, rhs)


def test_kleisli_formula_equals_reify_then_evaluate(alg):
    rng = random.Random(9)
    cfg = SampleConfig(gens=(0, 3), length=(1, 2))
    for _ in range(40):
        K = random_closed_set(SP, rng.choice((HOLD, CEDE)), VALUES, cfg, rng)
        e = {name: random_closed_set(SP, sort, VALUES, cfg, rng) for name, sort in VALUES.items()}
        via_formula = kleisli(e, K)
        via_reify = evaluate(alg, e, reify(SP, K))
        assert equal(via_formula, via_reify)


# ---------------------------------------------------------------------------
# Reification


def test_reify_trace_structure():
    sig = build("S", SP).signature
    t = mk(HOLD, [("11", "10"), ("01", "00")], CEDE, "x")
    term = reify_trace(SP, t)
    inner = open_transition_term(sig, SP, ST["01"], ST["00"], _rel(sig, Var("x", CEDE)))
    expected = open_transition_term(sig, SP, ST["11"], ST["10"], _rel(sig, _acq(sig, inner)))
    assert term == expected


def _acq(sig, t):
    from tracealg.kernel import app

    return app(sig, "acq", t)


def _rel(sig, t):
    from tracealg.kernel import app

    return app(sig, "rel", t)


def test_reify_trace_delimits_ceding_start():
    term = reify_trace(SP, mk(CEDE, [("11", "10")], HOLD, "x"))
    assert term.op == "acq"


def test_reify_empty_set_is_bottom():
    term = reify(SP, sorted_set(CEDE, []))
    assert term.op == "or@cede" and term.args == ()


def test_reified_trace_denotes_its_own_closure(alg):
    rng = random.Random(10)
    for _ in range(25):
        steps = tuple(
            Transition(rng.choice(SP.stores), rng.choice(SP.stores))
            for _ in range(rng.randint(1, 3))
        )
        t = Trace(rng.choice((HOLD, CEDE)), steps, rng.choice((HOLD, CEDE)), "v")
        env = {"v": unit(SP, t.value_sort, "v")}
        d = evaluate(alg, env, reify_trace(SP, t))
        assert equal(d, sorted_set(t.start, [t]))


# ---------------------------------------------------------------------------
# Brookes operations


def test_brookes_unit_generators(space):
    b = BrookesAlgebra(space)
    assert b.unit("x").generators == frozenset(
        Trace(CEDE, (Transition(s, s),), CEDE, "x") for s in space.stores
    )


def test_brookes_write_generators(space):
    b = BrookesAlgebra(space)
    got = b.write(1, 0, b.unit("*"))
    expected_first = {
        (s, s.set(1, 0)) for s in space.stores
    }
    assert {(g.steps[0].pre, g.steps[0].post) for g in got.generators} == expected_first


def test_brookes_transition_matches_literal_closure(space):
    b = BrookesAlgebra(space)
    rng = random.Random(11)
    for _ in range(20):
        K = random_brookes_set(space, ("u", "v"), CFG, rng)
        pre, post = rng.choice(space.stores), rng.choice(space.stores)
        got = closure_bounded(b.transition(pre, post, K).generators, BROOKES, space, 3, slack=0)
        source = closure_bounded(K.generators, BROOKES, space, 4, slack=0)
        prefixed = {
            Trace(CEDE, (Transition(pre, post),) + g.steps, CEDE, g.value) for g in source
        }
        literal = frozenset(
            t for t in closure_bounded(prefixed, BROOKES, space, 5, slack=0) if len(t.steps) <= 3
        )
        assert got == literal


def test_brookes_monad_laws(space):
    b = BrookesAlgebra(space)
    rng = random.Random(12)
    names = ("u", "v")
    for _ in range(40):
        K = random_brookes_set(space, names, CFG, rng)
        ue = {n: b.unit(n) for n in names}
        assert equal(b.kleisli(ue, K), K)
        e = {n: random_brookes_set(space, names, CFG, rng) for n in names}
        assert equal(b.kleisli(e, b.unit("u")), e["u"])
        f = {n: random_brookes_set(space, names, CFG, rng) for n in names}
        assert equal(
            b.kleisli(f, b.kleisli(e, K)),
            b.kleisli({n: b.kleisli(f, e[n]) for n in e}, K),
        )


# ---------------------------------------------------------------------------
# Stripping and embedding the ceded fragment


def test_strip_unit_is_brookes_unit(space):
    b = BrookesAlgebra(space)
    assert strip_cede(unit(space, CEDE, "x")) == b.unit("x")


def test_strip_embed_roundtrip(space):
    rng = random.Random(13)
    for _ in range(30):
        K = random_brookes_set(space, ("u", "v"), CFG, rng)
        assert strip_cede(embed_cede(K)) == K
    ceded = {"v": CEDE}
    for _ in range(30):
        K = random_closed_set(space, CEDE, ceded, CFG, rng)
        assert embed_cede(strip_cede(K)) == K


def test_strip_rejects_held_values(space):
    K = sorted_set(CEDE, [mk(CEDE, [("11", "00")], HOLD, "u")])
    with pytest.raises(SortMismatch):
        strip_cede(K)


# ---------------------------------------------------------------------------
# Parallel interleaving


def test_par_contains_paired_unit(space):
    b = BrookesAlgebra(space)
    got = par(b.unit("x"), b.unit("y"))
    assert subset(b.unit("(x,y)"), got)


def test_par_empty_is_empty(space):
    b = BrookesAlgebra(space)
    assert par(brookes_set([]), b.unit("x")).is_empty()


def test_par_symmetry_up_to_value_swap(space):
    rng = random.Random(14)
    for _ in range(15):
        K1 = random_brookes_set(space, ("a",), CFG, rng)
        K2 = random_brookes_set(space, ("b",), CFG, rng)
        swapped = par(K2, K1)
        # par(K2, K1) values its traces (b,a); rename them before comparing
        assert {g.value for g in swapped.generators} <= {"(b,a)"}
        right = brookes_set(
            Trace(g.start, g.steps, g.value_sort, "(a,b)") for g in swapped.generators
        )
        assert equal(par(K1, K2), right)


# ---------------------------------------------------------------------------
# Yield interpretations, uniform stutters, cell-change witnesses


def test_yields_fix_closed_sets(space):
    rng = random.Random(15)
    for _ in range(40):
        K = random_brookes_set(space, ("u", "v"), CFG, rng)
        assert equal(yield1(K, space), K)
        assert equal(yield2(K, space), K)


def test_single_cell_witness_examples(space):
    b = BrookesAlgebra(space)
    assert single_cell_witness(b.write(0, 1, b.read(1, b.unit("*"), b.unit("*"))), space)
    jump = brookes_set([mk(CEDE, [("00", "11")], CEDE, "*")])
    assert not single_cell_witness(jump, space)
    assert not single_cell_witness(brookes_set([]), space)


def test_single_cell_witness_found_by_mumbling(space):
    # the generator itself fails, yet fusing the two writes cancels the changes
    g = mk(CEDE, [("00", "11"), ("11", "00")], CEDE, "*")
    assert single_cell_witness(brookes_set([g]), space)


def test_hush_adds_nothing(space):
    rng = random.Random(16)
    for _ in range(30):
        K = random_brookes_set(space, ("u", "v"), CFG, rng)
        for concluded in hush_step(K, space):
            assert member(concluded, K)


def test_hush_emits_the_expected_deletion(space):
    gens = [mk(CEDE, [(s.render(), s.render()), ("11", "00")], CEDE) for s in space.stores]
    K = brookes_set(gens + [mk(CEDE, [("11", "00")], CEDE)])
    assert mk(CEDE, [("11", "00")], CEDE) in hush_step(K, space)


# ---------------------------------------------------------------------------
# The state-function model


def test_gtable_update_lookup_collapse(space):
    g = build("G", space)
    alg = GTableAlgebra(space)
    env = {n: variable_gtable(space, n) for n in ("x0", "x1")}
    ctx = {"x0": None, "x1": None}
    t1 = check_sort(g.signature, {"x0": g.signature.operators["or"].result, "x1": g.signature.operators["or"].result}, ("upd:y:0", ("lkp:y", "x0", "x1")))
    t2 = check_sort(g.signature, {"x0": g.signature.operators["or"].result, "x1": g.signature.operators["or"].result}, ("upd:y:0", "x0"))
    assert evaluate(alg, env, t1) == evaluate(alg, env, t2)


def test_gtable_lookup_merge(space):
    from tracealg import STAR

    g = build("G", space)
    alg = GTableAlgebra(space)
    ctx = {"x0": STAR, "x1": STAR, "y": STAR}
    env = {n: variable_gtable(space, n) for n in ctx}
    nested = check_sort(g.signature, ctx, ("lkp:x", ("lkp:x", "x0", "x1"), "y"))
    flat = check_sort(g.signature, ctx, ("lkp:x", "x0", "y"))
    assert evaluate(alg, env, nested) == evaluate(alg, env, flat)


def test_gtable_update_lookup_commute_across_locations(space):
    from tracealg import STAR

    g = build("G", space)
    alg = GTableAlgebra(space)
    ctx = {"x0": STAR, "x1": STAR}
    env = {n: variable_gtable(space, n) for n in ctx}
    lhs = check_sort(g.signature, ctx, ("lkp:x", ("upd:y:1", "x0"), ("upd:y:1", "x1")))
    rhs = check_sort(g.signature, ctx, ("upd:y:1", ("lkp:x", "x0", "x1")))
    assert evaluate(alg, env, lhs) == evaluate(alg, env, rhs)


def test_gtable_traceset_view_is_closed(space):
    rng = random.Random(17)
    from tracealg.checker import random_gtable

    for _ in range(20):
        table = random_gtable(space, ("u", "v"), rng)
        K = gtable_to_traceset(space, table)
        assert closure_bounded(K.generators, SORTED, space, 2) == K.generators


# ---------------------------------------------------------------------------
# The packed operations against the tuple operations they replace
# (``tuple_reference``)


def raw_set(space, sort, rng, brookes=False, least=0):
    """``least`` to eight generators of one to three steps, not canonicalized."""
    gens = []
    for _ in range(rng.randint(least, 8)):
        steps = tuple(
            Transition(rng.choice(space.stores), rng.choice(space.stores))
            for _ in range(rng.randint(1, 3))
        )
        value = rng.choice(sorted(VALUES))
        value_sort = CEDE if brookes else VALUES[value]
        gens.append(Trace(sort, steps, value_sort, value))
    return sorted_set(sort, gens)


SPACES = [StoreSpace(tuple(f"l{i}" for i in range(n))) for n in (1, 2, 3)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_space_tables_match_store_operations(space):
    refs = ref_stores(space.width)
    assert [s.bits for s in space.stores] == [r.bits for r in refs]
    for s, r in zip(space.stores, refs):
        for loc in range(space.width):
            assert s.get(loc) == r.get(loc)
            for bit in (0, 1):
                assert s.set(loc, bit).bits == r.set(loc, bit).bits
                assert s.set(loc, bit) is space.stores[s.set(loc, bit)]
    assert space.stutters == tuple(Transition(s, s) for s in space.stores)
    assert [ref_step(t) for t in space.steps] == [
        RefTransition(p, q) for p in refs for q in refs
    ]
    for p in space.stores:
        for q in space.stores:
            assert space.step_of[p][q] is Transition(p, q)
            step = space.step_of[p][q]
            assert space.pre_of[step] is p and space.post_of[step] is q
            for loc in range(space.width):
                flipped = space.steps[step ^ space.pre_masks[loc]]
                assert flipped is Transition(p.set(loc, 1 - p.get(loc)), q)


def ref_env(env):
    return {name: ref_gens(K) for name, K in env.items()}


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_trace_operations_equal_store_scans(space):
    rng = random.Random(len(space.locations))
    alg = TraceAlgebra(space)
    refs = ref_stores(space.width)
    for sort in (HOLD, CEDE):
        assert ref_gens(alg.unit(sort, "v")) == ref_unit(space.width, sort, "v")
    for _ in range(60):
        held, other = raw_set(space, HOLD, rng), raw_set(space, HOLD, rng)
        ceded = raw_set(space, CEDE, rng)
        h, o, c = ref_gens(held), ref_gens(other), ref_gens(ceded)
        assert ref_gens(alg.release(ceded)) == ref_release(space.width, c)
        assert ref_gens(alg.acquire(held)) == ref_acquire(h)
        for loc in range(space.width):
            got = alg.lookup(loc, held, other)
            assert got.sort is HOLD and ref_gens(got) == ref_lookup(loc, h, o)
            for bit in (0, 1):
                got = alg.update(loc, bit, held)
                assert got.sort is HOLD and ref_gens(got) == ref_update(loc, bit, h)
        i, j = rng.randrange(len(refs)), rng.randrange(len(refs))
        got = alg.transition(space.stores[i], space.stores[j], held)
        assert ref_gens(got) == ref_transition(refs[i], refs[j], h)
        for K in (held, ceded):
            env = {"u": raw_set(space, HOLD, rng), "v": raw_set(space, CEDE, rng)}
            assert ref_gens(kleisli(env, K)) == ref_kleisli(ref_env(env), ref_gens(K))


def fused_by_definition(start, prefix, step, K):
    """The fusion rule read off ``model._fused``'s docstring, on generators,
    through the checked ``Transition`` constructor and its ``pre``/``post``
    properties: each generator of the hold-sorted ``K`` whose first step
    relies on the store ``step`` leaves, behind ``prefix`` and with ``step``
    fused into that first step, from ``start``."""
    return {
        Trace(start, prefix + (Transition(step.pre, h.steps[0].post),) + h.steps[1:],
              h.value_sort, h.value)
        for h in K.generators
        if h.steps[0].pre is step.post
    }


def fusion_inputs(space, alg, rng):
    """Hold-sorted sets of both views, with multi-generator sets as the
    model makes them beside raw ones, and the environment of the last."""
    env = {"u": raw_set(space, HOLD, rng, least=1), "v": raw_set(space, CEDE, rng)}
    released = alg.release(raw_set(space, CEDE, rng, least=1))
    bound = kleisli(env, raw_set(space, HOLD, rng, least=1))
    return [raw_set(space, HOLD, rng), raw_set(space, HOLD, rng), released, bound], env


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_fused_is_the_fusion_rule_on_the_index(space):
    from tracealg.model import _fused

    rng = random.Random(50 + len(space.locations))
    alg = TraceAlgebra(space)
    views = [0, 0]
    for _ in range(30):
        sets, _ = fusion_inputs(space, alg, rng)
        for K in sets + [alg.update(0, rng.randint(0, 1), K) for K in sets]:
            views[built_from_index(K)] += 1
            for step in space.steps:
                got = _fused(step, K._firsts)
                assert all(got.values())  # no empty tail set
                assert TraceSet._held(got).generators == fused_by_definition(HOLD, (), step, K)
    assert min(views) > 30


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_held_operations_are_the_fusion_rule(space):
    rng = random.Random(40 + len(space.locations))
    alg = TraceAlgebra(space)
    step_of, stutters = space.step_of, space.stutters
    for _ in range(40):
        sets, env = fusion_inputs(space, alg, rng)
        released, bound = sets[2:]
        for K, L in zip(sets, sets[1:] + sets[:1]):
            for loc in range(space.width):
                mask = space.mask(loc)
                for bit in (0, 1):
                    want = set()
                    for s in space.stores:
                        step = step_of[s][s | mask if bit else s & ~mask]
                        want |= fused_by_definition(HOLD, (), step, K)
                    assert alg.update(loc, bit, K).generators == want
                want = set()
                for s in space.stores:
                    want |= fused_by_definition(HOLD, (), stutters[s], L if s & mask else K)
                assert alg.lookup(loc, K, L).generators == want
            pre, post = rng.choice(space.stores), rng.choice(space.stores)
            want = fused_by_definition(HOLD, (), step_of[pre][post], K)
            assert alg.transition(pre, post, K).generators == want
        for K in (raw_set(space, HOLD, rng, least=1), raw_set(space, CEDE, rng, least=1),
                  released, bound):
            K = sorted_set(K.sort, [g for g in K.generators if g.value_sort is HOLD])
            want = set()
            for g in K.generators:
                want |= fused_by_definition(g.start, g.steps[:-1], g.steps[-1], env[g.value])
            assert kleisli(env, K).generators == want


def held_valued(space, sort, rng, values):
    """Two to eight held-valued generators of one start sort, each valued
    by one of ``values``."""
    return sorted_set(sort, [Trace(sort, g.steps, HOLD, rng.choice(values))
                             for g in raw_set(space, sort, rng, least=2).generators])


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_kleisli_shares_one_held_continuation_among_generators(space, monkeypatch):
    # one generator-built held continuation, bound to two values and met by
    # several held-valued generators of each, grouped once per call
    rng = random.Random(60 + len(space.locations))
    firsts = TraceSet._firsts
    grouped = []

    def counting(self):
        grouped.append(self)
        return firsts.fget(self)

    monkeypatch.setattr(TraceSet, "_firsts", property(counting))
    shared = 0
    for _ in range(40):
        cont = raw_set(space, HOLD, rng, least=2)
        env = {"u": cont, "w": cont, "v": raw_set(space, CEDE, rng)}
        for sort in (HOLD, CEDE):
            K = held_valued(space, sort, rng, "uw")
            grouped.clear()
            got = kleisli(env, K)
            values = {g.value for g in K.generators}
            assert len(grouped) == len(values) and all(c is cont for c in grouped)
            assert ref_gens(got) == ref_kleisli(ref_env(env), ref_gens(K))
            shared += len(K.generators) - len(values)
    assert shared > 100


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_acquire_returns_its_canonical_form(space):
    # small sets too: release's stutter-prefixed generators are deducible
    # once acquire cedes the start, and acquire drops them at any size
    rng = random.Random(30 + len(space.locations))
    alg = TraceAlgebra(space)
    for _ in range(60):
        held = raw_set(space, HOLD, rng, least=1)
        released = alg.release(raw_set(space, CEDE, rng, least=1))
        for K in (held, released):
            got = alg.acquire(K)
            assert canonicalize(got).generators == got.generators


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_brookes_operations_equal_store_scans(space):
    rng = random.Random(10 + len(space.locations))
    alg = BrookesAlgebra(space)
    refs = ref_stores(space.width)
    for _ in range(60):
        K0, K1 = raw_set(space, CEDE, rng, brookes=True), raw_set(space, CEDE, rng, brookes=True)
        g0, g1 = ref_gens(K0), ref_gens(K1)
        i, j = rng.randrange(len(refs)), rng.randrange(len(refs))
        got = alg.transition(space.stores[i], space.stores[j], K0)
        assert ref_gens(got) == ref_brookes_transition(refs[i], refs[j], g0)
        stuttered = ref_read(space.width, 0, g0, g0)  # every stutter in front of K0
        assert ref_gens(yield1(K0, space)) == stuttered
        assert ref_gens(yield2(K0, space)) == g0 | stuttered
        for loc in range(space.width):
            assert ref_gens(alg.read(loc, K0, K1)) == ref_read(space.width, loc, g0, g1)
            for bit in (0, 1):
                assert ref_gens(alg.write(loc, bit, K0)) == ref_write(space.width, loc, bit, g0)
        small0 = brookes_set(list(K0.generators)[:2])
        small1 = brookes_set(list(K1.generators)[:2])
        assert ref_gens(par(small0, small1)) == ref_par(ref_gens(small0), ref_gens(small1))
        longest = max((len(g.steps) for g in K0.generators), default=1)
        closure = closure_bounded(K0.generators, SORTED, space, longest, slack=0)
        assert single_cell_witness(K0, space) == any(ref_qualifies(ref_trace(t)) for t in closure)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_gtable_update_equals_store_scan(space):
    from tracealg.checker import random_gtable

    rng = random.Random(20 + len(space.locations))
    alg = GTableAlgebra(space)
    ops = alg.signature.operators.values()
    kinds = [op.kind for op in ops]
    assert kinds.count("update") == 2 * len(space.locations)
    assert kinds.count("lookup") == len(space.locations)
    for _ in range(30):
        t0 = random_gtable(space, ("u", "v"), rng, max_outcomes=3)
        t1 = random_gtable(space, ("u", "v"), rng, max_outcomes=3)
        for op in ops:
            if op.kind == "update":
                want = ref_gtable_update(space.width, *op.params, t0.rows)
                assert alg.apply(op, (t0,)).rows == want
            elif op.kind == "lookup":
                want = ref_gtable_lookup(space.width, *op.params, t0.rows, t1.rows)
                assert alg.apply(op, (t0, t1)).rows == want
            else:
                want = tuple(a | b for a, b in zip(t0.rows, t1.rows))
                assert alg.apply(op, (t0, t1)).rows == want
        got = gtable_to_traceset(space, t0)
        refs = ref_stores(space.width)
        assert ref_gens(got) == frozenset(
            RefTrace(HOLD, (RefTransition(refs[i], RefStore(rho.bits)),), HOLD, value)
            for i, row in enumerate(t0.rows)
            for value, rho in row
        )


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_denotations_hold_only_steps_of_their_width(space):
    # a step of one width can equal a step of another as an int, so every
    # step a denotation holds must come from its own space's tables
    from tracealg import STAR
    from tracealg.checker import denote, random_term
    from tracealg.traces import _space_for

    own = set(map(id, space.steps))
    rng = random.Random(60 + len(space.locations))
    for theory, ctx, sorts in (
        ("S", {"a": HOLD, "b": CEDE}, (HOLD, CEDE)),
        ("Tr", {"a": HOLD, "b": CEDE}, (HOLD, CEDE)),
        ("B", {"a": STAR, "b": STAR}, (STAR,)),
        ("G", {"a": STAR, "b": STAR}, (STAR,)),
        ("Tgs", {"a": STAR, "b": STAR}, (STAR,)),
    ):
        p = build(theory, space)
        for i in range(12):
            t = random_term(p, ctx, sorts[i % len(sorts)], 3, rng)
            K = denote(theory, ctx, t, space)
            for g in K.generators:
                assert all(id(s) in own for s in g.steps), g.render()
            if K.generators:
                assert _space_for(K.generators).steps is space.steps


# ---------------------------------------------------------------------------
# Built without checks: every trace and term the model makes unchecked is
# the one the checked constructors make


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_reify_trace_equals_the_checked_construction(space):
    rng = random.Random(70 + len(space.locations))
    for _ in range(200):
        steps = tuple(
            Transition(rng.choice(space.stores), rng.choice(space.stores))
            for _ in range(rng.randint(1, 4))
        )
        t = Trace(rng.choice((HOLD, CEDE)), steps, rng.choice((HOLD, CEDE)), "v")
        assert reify_trace(space, t) == ref_reify_trace(space, t)


def random_inputs(space, rng):
    """Random closed sets over ``space`` for ``unchecked_outputs``, built
    through the checked constructors."""
    rand = lambda sort: random_closed_set(space, sort, VALUES, CFG, rng)
    ceded = rand(CEDE)
    return {
        "held": rand(HOLD),
        "other": rand(HOLD),
        "ceded": ceded,
        "cede_only": brookes_set(g for g in ceded.generators if g.value_sort is CEDE),
        "env": {"u": rand(HOLD), "v": rand(CEDE)},
        "pre": rng.choice(space.stores),
        "post": rng.choice(space.stores),
    }


def unchecked_outputs(space, held, other, ceded, cede_only, env, pre, post):
    """Every set that the model operations which build traces unchecked
    return on the given sets, then ``step_deductions`` of each generator."""
    alg, brookes = TraceAlgebra(space), BrookesAlgebra(space)
    out = [
        alg.acquire(held),
        alg.release(ceded),
        alg.transition(pre, post, held),
        kleisli(env, held),
        kleisli(env, ceded),
        brookes.transition(pre, post, cede_only),
        yield1(cede_only, space),
    ]
    for loc in range(space.width):
        out.append(alg.lookup(loc, held, other))
        out.append(brookes.read(loc, cede_only, cede_only))
        for bit in (0, 1):
            out.append(alg.update(loc, bit, held))
            out.append(brookes.write(loc, bit, cede_only))
    gens = [g for K in out for g in K.generators]
    for discipline in (SORTED, BROOKES):
        out += [step_deductions(g, discipline, space) for g in gens]
    return out


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_unchecked_traces_rebuild_equal_through_the_public_constructor(space):
    rng = random.Random(80 + len(space.locations))
    seen = 0
    for _ in range(40):
        for gens in unchecked_outputs(space, **random_inputs(space, rng)):
            if isinstance(gens, TraceSet):
                assert all(g.start is gens.sort for g in gens.generators)
                gens = gens.generators
            for g in gens:
                assert type(g) is Trace and Trace(*g) == g
                seen += 1
    assert seen > 1000


def test_model_operations_make_no_checked_trace(monkeypatch):
    rng = random.Random(90)
    inputs = [(space, random_inputs(space, rng)) for space in SPACES for _ in range(20)]
    calls = []
    checked = Trace.__new__

    def counting(cls, *args):
        calls.append(args)
        return checked(cls, *args)

    monkeypatch.setattr(Trace, "__new__", staticmethod(counting))
    mk(HOLD, [("00", "01")], HOLD)
    assert len(calls) == 1  # the counter sees the public constructor
    calls.clear()
    made = sum(len(K) for space, kw in inputs for K in unchecked_outputs(space, **kw)
               if isinstance(K, frozenset))
    assert made > 1000 and calls == []


# ---------------------------------------------------------------------------
# Held sets by first step: the index against the generator loops it replaced
# (``tuple_reference.loop_*``), and the two views of one set


def stuttering_set(space, rng):
    """A cede-sorted set rich in generators that start with a stutter, one
    step long among them: ``release`` puts their tails under the keys where
    it puts every generator's steps."""
    gens = []
    for _ in range(rng.randint(1, 6)):
        first = rng.choice(space.stutters)
        rest = tuple(rng.choice(space.steps) for _ in range(rng.choice((0, 0, 1, 2))))
        value = rng.choice(sorted(VALUES))
        gens.append(Trace(CEDE, (first,) + rest, VALUES[value], value))
    return sorted_set(CEDE, gens)


def held_inputs(space, alg, rng):
    """Hold-sorted sets of both views: built from generators (empty ones
    among them) and built from an index by ``release`` and ``update``."""
    released = alg.release(raw_set(space, CEDE, rng))
    updated = alg.update(rng.randrange(space.width), rng.randint(0, 1), raw_set(space, HOLD, rng))
    return [raw_set(space, HOLD, rng), raw_set(space, HOLD, rng), sorted_set(HOLD, ()),
            released, updated, alg.release(stuttering_set(space, rng))]


def built_from_index(K):
    return K._index is not None


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_held_operations_equal_their_generator_loops(space):
    rng = random.Random(100 + len(space.locations))
    alg = TraceAlgebra(space)
    mixed = 0
    for _ in range(40):
        sets = held_inputs(space, alg, rng)
        for K in [raw_set(space, CEDE, rng), sorted_set(CEDE, ()), stuttering_set(space, rng)]:
            got = alg.release(K)
            assert got.sort is HOLD and built_from_index(got)
            assert got == loop_release(space, K)
        for K, L in itertools.product(sets, sets):
            for loc in range(space.width):
                assert alg.lookup(loc, K, L) == loop_lookup(space, loc, K, L)
                mixed += built_from_index(K) != built_from_index(L)
        for K in sets:
            for loc in range(space.width):
                for bit in (0, 1):
                    assert alg.update(loc, bit, K) == loop_update(space, loc, bit, K)
            for pre, post in itertools.product(space.stores, repeat=2):
                assert alg.transition(pre, post, K) == loop_transition(space, pre, post, K)
            assert alg.acquire(K) == loop_acquire(K)
            for L in sets:
                assert alg.join(HOLD, [K, L]).generators == K.generators | L.generators
    assert mixed > 100


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_acquire_skips_released_copies_as_the_generator_loop_drops_them(space, monkeypatch):
    # release pads a copy behind every stutter; update and lookup move the
    # stutters that rely on their bit, and a second release, of the
    # restarted generators, pads the padded copies again
    import tracealg.model as model_module

    built = []

    def recording(K):
        built.append(len(K.generators))
        return canonicalize(K)

    monkeypatch.setattr(model_module, "canonicalize", recording)
    n = space.width
    alg = TraceAlgebra(space)
    cfg = SampleConfig(gens=(1, 4), length=(1, 3))
    rng = random.Random(f"acquire-copies-{n}")
    skipped = [0, 0]
    for i in range(40 if n < 3 else 15):
        K0, K1 = (random_closed_set(space, CEDE, VALUES, cfg, rng) for _ in range(2))
        held = alg.release(K0)
        loc = rng.randrange(n)
        for padding in range(1 + i % 2):
            if rng.random() < 0.5:
                held = alg.update(loc, rng.randrange(2), held)
            else:
                held = alg.lookup(loc, held, alg.release(K1))
            for K in (held, TraceSet(HOLD, held.generators)):  # both views
                built.clear()
                assert alg.acquire(K) == loop_acquire(K)
                skipped[padding] += len(K.generators) - built[0]
            held = alg.release(sorted_set(CEDE, [Trace(CEDE, *g[1:]) for g in held.generators]))
    assert min(skipped) > 100  # copies skipped after one round of padding, and after two


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_the_held_spine_equals_its_generator_loops(space):
    # release, update, update, lookup, lookup, acquire: the spine of one
    # reified step, each stage taking the previous stage's index
    rng = random.Random(110 + len(space.locations))
    alg = TraceAlgebra(space)
    bottom = alg.join(HOLD, [])
    for _ in range(60):
        K = rng.choice((raw_set(space, CEDE, rng), stuttering_set(space, rng)))
        got, want = alg.release(K), loop_release(space, K)
        assert got == want
        for loc in range(space.width):
            bit = rng.randint(0, 1)
            got, want = alg.update(loc, bit, got), loop_update(space, loc, bit, want)
            assert built_from_index(got) and got == want
        for loc in range(space.width):
            if rng.randint(0, 1):
                got, want = alg.lookup(loc, got, bottom), loop_lookup(space, loc, want, bottom)
            else:
                got, want = alg.lookup(loc, bottom, got), loop_lookup(space, loc, bottom, want)
            assert built_from_index(got) and got == want
        assert alg.acquire(got) == loop_acquire(want)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{len(s.locations)}loc")
def test_both_views_of_a_set_read_alike(space):
    rng = random.Random(120 + len(space.locations))
    alg = TraceAlgebra(space)
    copiers = [lambda K: pickle.loads(pickle.dumps(K)), copy.copy, copy.deepcopy]
    empties = 0
    for _ in range(60):
        for K in filter(built_from_index, held_inputs(space, alg, rng)):
            empty = K.is_empty()
            assert K._gens is None  # is_empty reads the index
            empties += empty
            G = TraceSet(HOLD, K.generators)
            assert not built_from_index(G) and G.is_empty() == empty
            for a, b in ((K, G), (G, K)):
                assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
                assert a.ordered() == b.ordered()
                assert a._firsts == b._firsts
            for copier in copiers:
                back = copier(K)
                assert back == K and hash(back) == hash(K) and back.sort is HOLD
    assert empties > 0


def test_held_operations_on_an_index_build_no_trace(monkeypatch):
    import tracealg.model as model_module
    import tracealg.traces as traces_module

    rng = random.Random(130)
    inputs = []
    for space in SPACES:
        alg = TraceAlgebra(space)
        for _ in range(20):
            K, L = alg.release(raw_set(space, CEDE, rng, least=1)), alg.release(stuttering_set(space, rng))
            inputs.append((space, alg, K, L))
    calls = []
    checked, unchecked = Trace.__new__, traces_module._trace

    def counting_new(cls, *args):
        calls.append(args)
        return checked(cls, *args)

    def counting(*args):
        calls.append(args)
        return unchecked(*args)

    monkeypatch.setattr(Trace, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(traces_module, "_trace", counting)
    monkeypatch.setattr(model_module, "_trace", counting)
    outputs = []
    for space, alg, K, L in inputs:
        for loc in range(space.width):
            outputs.append(alg.lookup(loc, K, L))
            for bit in (0, 1):
                outputs.append(alg.update(loc, bit, K))
        for pre, post in itertools.product(space.stores, repeat=2):
            outputs.append(alg.transition(pre, post, L))
    assert calls == [] and all(built_from_index(K) and K._gens is None for K in outputs)
    made = sum(len(K.generators) for K in outputs)
    assert made > 1000 and len(calls) == made  # the counter sees the materialised view
