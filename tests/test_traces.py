import copy
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracealg
from tracealg import (
    BROOKES,
    CEDE,
    HOLD,
    SORTED,
    BrookesAlgebra,
    BudgetExceeded,
    SortMismatch,
    Store,
    StoreSpace,
    Trace,
    TraceAlgebra,
    TraceSet,
    Transition,
    brookes_set,
    build,
    canonicalize,
    check_sort,
    closure_bounded,
    denote,
    equal,
    member,
    par,
    sorted_set,
    step_deductions,
    strip_cede,
    subset,
    yield1,
)
from tracealg.traces import (
    _closure_key,
    _compile,
    _gen_contains,
    _normal_form,
    _space_for,
    missing_witness,
)
from tuple_reference import (
    RefTransition,
    ref_canonicalize,
    ref_gen_contains,
    ref_gens,
    ref_key,
    ref_normal_form,
    ref_step,
    ref_step_deductions,
    ref_stores,
    ref_trace,
)

SP = StoreSpace()
SP1 = StoreSpace(("x",))
ST = {s.render(): s for s in SP.stores}


def tr(a, b):
    return Transition(ST[a], ST[b])


def mk(start, pairs, value_sort, value="v"):
    return Trace(start, tuple(tr(a, b) for a, b in pairs), value_sort, value)


# ---------------------------------------------------------------------------
# The Trace value


PINNED = mk(CEDE, [("10", "00"), ("00", "10")], HOLD, "x")


@pytest.mark.parametrize(
    "start, steps, value_sort",
    [
        ("hold", (tr("00", "01"),), CEDE),  # equals HOLD, but is not a sort
        (HOLD, (tr("00", "01"),), "cede"),
        (tracealg.STAR, (tr("00", "01"),), CEDE),
        (HOLD, (tr("00", "01"),), tracealg.STAR),
        (HOLD, (), CEDE),
    ],
)
def test_trace_refuses_bad_sorts_and_empty_steps(start, steps, value_sort):
    with pytest.raises(ValueError):
        Trace(start, steps, value_sort, "v")


@pytest.mark.parametrize("copier", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy])
def test_trace_round_trips_through_pickle_and_copy(copier):
    back = copier(PINNED)
    assert type(back) is Trace
    assert back == PINNED and hash(back) == hash(PINNED)
    assert back.start is CEDE and back.value_sort is HOLD
    # stores and steps come back as the interned objects of their width
    assert all(a is b for a, b in zip(back.steps, PINNED.steps))
    for space in (SP1, SP, StoreSpace(("a", "b", "c"))):
        assert all(copier(s) is s for s in space.stores)
        assert all(copier(step) is step for step in space.steps)


def test_equal_traces_built_separately_hash_alike():
    again = Trace(CEDE, (tr("10", "00"), tr("00", "10")), HOLD, "x")
    assert again is not PINNED
    assert again == PINNED and hash(again) == hash(PINNED)
    assert len({again, PINNED}) == 1
    assert again != mk(CEDE, [("10", "00"), ("00", "10")], CEDE, "x")


def test_trace_render_and_key_are_pinned():
    assert PINNED.render() == "∘ [ (10,00) (00,10) ] • x"
    assert ref_key(PINNED) == (2, 1, (((1, 0), (0, 0)), ((0, 0), (1, 0))), 0, "x")
    assert PINNED.key() == (2, 1, (0b1000, 0b0010), 0, "x")
    assert (PINNED.start, PINNED.steps, PINNED.value_sort, PINNED.value) == (
        CEDE, (tr("10", "00"), tr("00", "10")), HOLD, "x"
    )


def test_trace_has_no_unchecked_constructors():
    for name in ("_replace", "_make"):
        assert not hasattr(Trace, name)
    with pytest.raises(AttributeError):
        PINNED.value = "y"


# ---------------------------------------------------------------------------
# One-step deductions


def test_mumble_fuses_chained_transitions():
    t = mk(HOLD, [("11", "10"), ("10", "00")], CEDE, "7")
    assert mk(HOLD, [("11", "00")], CEDE, "7") in step_deductions(t, SORTED, SP)


def test_back_stutter_allowed_at_ceding_value():
    t = mk(HOLD, [("11", "10"), ("11", "00")], CEDE, "7")
    succ = step_deductions(t, SORTED, SP)
    assert mk(HOLD, [("11", "10"), ("11", "00"), ("01", "01")], CEDE, "7") in succ


def test_front_stutter_blocked_at_held_start():
    t = mk(HOLD, [("11", "10"), ("11", "00")], CEDE, "7")
    succ = step_deductions(t, SORTED, SP)
    assert mk(HOLD, [("01", "01"), ("11", "10"), ("11", "00")], CEDE, "7") not in succ


def test_brookes_deductions_allow_both_ends():
    t = mk(CEDE, [("11", "00")], CEDE)
    succ = step_deductions(t, BROOKES, SP)
    assert mk(CEDE, [("00", "00"), ("11", "00")], CEDE) in succ
    assert mk(CEDE, [("11", "00"), ("00", "00")], CEDE) in succ


def test_unfusable_adjacent_transitions_do_not_mumble():
    t = mk(HOLD, [("11", "10"), ("00", "00")], HOLD)
    succ = step_deductions(t, SORTED, SP)
    assert all(len(s.steps) != 1 for s in succ)


@pytest.mark.parametrize("discipline", ["Brookes", "sorted ", "lenient", None])
def test_unknown_discipline_is_rejected(discipline):
    # a misspelled rule must not fall back to the sorted one
    t = mk(CEDE, [("11", "00")], CEDE)
    with pytest.raises(ValueError, match="unknown discipline"):
        step_deductions(t, discipline, SP)
    for gens in ([t], []):
        with pytest.raises(ValueError, match="unknown discipline"):
            closure_bounded(gens, discipline, SP, 2)


# ---------------------------------------------------------------------------
# The bounded-closure oracle


def test_closure_of_single_held_transition_is_itself():
    g = mk(HOLD, [("10", "01")], HOLD)
    assert closure_bounded([g], SORTED, SP, 3) == frozenset({g})


def test_closure_of_empty_set_is_empty():
    assert closure_bounded([], SORTED, SP, 3) == frozenset()


def test_closure_counts_for_single_ceded_transition():
    # one generator plus every one-stutter insertion at either end; front
    # inserts with sigma = 11 mumble back to the generator, nothing else new
    g = mk(CEDE, [("11", "00")], CEDE, "x")
    got = closure_bounded([g], SORTED, SP, 2)
    fronts = {mk(CEDE, [(s, s), ("11", "00")], CEDE, "x") for s in ST}
    backs = {mk(CEDE, [("11", "00"), (s, s)], CEDE, "x") for s in ST}
    assert got == frozenset({g}) | fronts | backs
    assert len(got) == 9


def test_closure_budget_cap():
    g = mk(CEDE, [("11", "00")], CEDE)
    with pytest.raises(BudgetExceeded):
        closure_bounded([g], SORTED, SP, 4, cap=10)


def test_closure_requires_covering_generators():
    g = mk(CEDE, [("11", "00"), ("00", "00")], CEDE)
    with pytest.raises(ValueError):
        closure_bounded([g], SORTED, SP, 1)


def test_closure_slack_invariance():
    small = [Store((0, 0)), Store((1, 1))]
    seqs = [
        [(a, b)]
        for a in small
        for b in small
    ] + [
        [(a, b), (c, d)]
        for a in small
        for b in small
        for c in small
        for d in small
    ]
    for pairs in seqs:
        for start, vsort in itertools.product((HOLD, CEDE), repeat=2):
            g = Trace(start, tuple(Transition(a, b) for a, b in pairs), vsort, "v")
            results = {
                closure_bounded([g], SORTED, SP, 3, slack=s) for s in (0, 1, 2)
            }
            assert len(results) == 1


# ---------------------------------------------------------------------------
# Membership against the oracle


def all_sequences(stores, length):
    transitions = [Transition(a, b) for a in stores for b in stores]
    return itertools.product(transitions, repeat=length)


def test_member_examples():
    K = sorted_set(HOLD, [mk(HOLD, [("11", "10"), ("10", "00")], CEDE, "7")])
    assert member(mk(HOLD, [("11", "00")], CEDE, "7"), K)
    bad = mk(HOLD, [("01", "01"), ("11", "10"), ("11", "00")], CEDE, "7")
    K2 = sorted_set(HOLD, [mk(HOLD, [("11", "10"), ("11", "00")], CEDE, "7")])
    assert not member(bad, K2)


def test_member_distinguishes_value_and_sorts():
    g = mk(CEDE, [("11", "00")], CEDE, "a")
    K = sorted_set(CEDE, [g])
    assert not member(mk(CEDE, [("11", "00")], CEDE, "b"), K)
    assert not member(mk(CEDE, [("11", "00")], HOLD, "a"), K)


def test_member_brookes_discipline_guard():
    # a brookes set is cede-sorted: a held start is simply not a member
    K = brookes_set([mk(CEDE, [("11", "00")], CEDE)])
    assert not member(mk(HOLD, [("11", "00")], CEDE), K)
    with pytest.raises(SortMismatch):
        brookes_set([mk(CEDE, [("11", "00")], HOLD)])


def test_member_agrees_with_oracle_exhaustively_small():
    small = (Store((0, 0)), Store((1, 1)))
    cand_stores = (Store((0, 0)), Store((1, 1)), Store((0, 1)))
    checked = 0
    for glen in (1, 2):
        for gsteps in all_sequences(small, glen):
            for start, vsort in itertools.product((HOLD, CEDE), repeat=2):
                g = Trace(start, gsteps, vsort, "v")
                K = sorted_set(start, [g])
                oracle = closure_bounded([g], SORTED, SP, 3)
                for clen in (1, 2, 3):
                    for csteps in all_sequences(cand_stores, clen):
                        cand = Trace(start, csteps, vsort, "v")
                        assert member(cand, K) == (cand in oracle)
                        checked += 1
    assert checked > 50_000


def test_member_brookes_matches_lenient_sorted():
    rng = random.Random(5)
    for _ in range(300):
        gsteps = tuple(
            Transition(rng.choice(SP.stores), rng.choice(SP.stores))
            for _ in range(rng.randint(1, 3))
        )
        csteps = tuple(
            Transition(rng.choice(SP.stores), rng.choice(SP.stores))
            for _ in range(rng.randint(1, 4))
        )
        g = Trace(CEDE, gsteps, CEDE, "v")
        cand = Trace(CEDE, csteps, CEDE, "v")
        assert member(cand, brookes_set([g])) == member(cand, sorted_set(CEDE, [g]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_member_agrees_with_oracle_random(data):
    # slack-free oracle here; slack invariance has its own exhaustive test
    stores = SP.stores
    glen = data.draw(st.integers(1, 3))
    gsteps = tuple(
        Transition(data.draw(st.sampled_from(stores)), data.draw(st.sampled_from(stores)))
        for _ in range(glen)
    )
    start = data.draw(st.sampled_from((HOLD, CEDE)))
    vsort = data.draw(st.sampled_from((HOLD, CEDE)))
    g = Trace(start, gsteps, vsort, "v")
    oracle = closure_bounded([g], SORTED, SP, 4, slack=0)
    clen = data.draw(st.integers(1, 4))
    csteps = tuple(
        Transition(data.draw(st.sampled_from(stores)), data.draw(st.sampled_from(stores)))
        for _ in range(clen)
    )
    cand = Trace(start, csteps, vsort, "v")
    assert member(cand, sorted_set(start, [g])) == (cand in oracle)


def test_membership_over_union_is_disjunction():
    g1 = mk(HOLD, [("11", "10")], HOLD, "a")
    g2 = mk(HOLD, [("00", "01")], HOLD, "b")
    K = sorted_set(HOLD, [g1, g2])
    assert member(g1, K) and member(g2, K)
    assert not member(mk(HOLD, [("11", "01")], HOLD, "a"), K)


# ---------------------------------------------------------------------------
# subset / equal / canonicalize


def test_subset_examples():
    k1 = sorted_set(HOLD, [mk(HOLD, [("11", "00")], CEDE, "7")])
    k2 = sorted_set(HOLD, [mk(HOLD, [("11", "10"), ("10", "00")], CEDE, "7")])
    assert subset(k1, k2)
    assert not subset(k2, k1)
    assert subset(sorted_set(HOLD, []), k1)


def test_subset_requires_same_shape():
    k1 = sorted_set(HOLD, [])
    k2 = sorted_set(CEDE, [])
    with pytest.raises(SortMismatch):
        subset(k1, k2)
    with pytest.raises(SortMismatch):
        subset(k1, brookes_set([]))


def random_steps(rng, space, lo, hi):
    return tuple(
        Transition(rng.choice(space.stores), rng.choice(space.stores))
        for _ in range(rng.randint(lo, hi))
    )


def test_canonicalize_preserves_closure():
    gens = [
        mk(CEDE, [("11", "00")], CEDE),
        mk(CEDE, [("10", "10"), ("11", "00")], CEDE),
        mk(CEDE, [("11", "10"), ("10", "00")], CEDE),
    ]
    K = sorted_set(CEDE, gens)
    canon = canonicalize(K)
    assert equal(K, canon)
    assert len(canon.generators) < len(K.generators)
    # random one-location sets, against the brute-force closure up to the
    # longest generator (which canonical generators never exceed)
    rng = random.Random(17)
    for _ in range(60):
        start = rng.choice((HOLD, CEDE))
        K = sorted_set(
            start,
            [
                Trace(start, random_steps(rng, SP1, 1, 3), rng.choice((HOLD, CEDE)), "v")
                for _ in range(rng.randint(1, 6))
            ],
        )
        canon = canonicalize(K)
        longest = max(len(g.steps) for g in K.generators)
        assert closure_bounded(canon.generators, SORTED, SP1, longest) == closure_bounded(
            K.generators, SORTED, SP1, longest
        )


def test_canonicalize_keeps_shortest_of_mutual_pair():
    short = mk(CEDE, [("11", "00")], CEDE)
    long = mk(CEDE, [("11", "11"), ("11", "00")], CEDE)
    canon = canonicalize(sorted_set(CEDE, [short, long]))
    assert canon.generators == frozenset({short})


def test_canonicalize_deterministic_given_equal_closures():
    a = mk(CEDE, [("00", "01")], CEDE)
    b = mk(CEDE, [("00", "00"), ("00", "01")], CEDE)
    c1 = canonicalize(sorted_set(CEDE, [a, b]))
    c2 = canonicalize(sorted_set(CEDE, [b, a]))
    assert c1 == c2


# ---------------------------------------------------------------------------
# Normal-form classes: the key every deduction keeps


def canonicalize_pairwise(K):
    """``canonicalize`` by the tuple reference: every pair of generators
    that share start sort, value sort and value is compared by
    ``ref_gen_contains``, without closure classes or compiled masks."""
    by_ref = {ref_trace(g): g for g in K.generators}
    kept = ref_canonicalize(frozenset(by_ref))
    return TraceSet(K.sort, frozenset(by_ref[r] for r in kept))


def missing_witness_unindexed(a, b):
    """``missing_witness`` testing each generator against all of ``b``."""
    for g in a.ordered():
        if not member(g, b):
            return g
    return None


def listing(K):
    return [g.render() for g in K.ordered()]


def random_generator_pair(rng):
    """Two sets over one space and start sort; ``b`` mixes a subset of
    ``a``'s generators, some of their one-step deductions, and fresh ones."""
    space = rng.choice((SP1, SP))
    start = rng.choice((HOLD, CEDE))

    def fresh():
        return Trace(start, random_steps(rng, space, 1, 4), rng.choice((HOLD, CEDE)), rng.choice("uv"))

    a = [fresh() for _ in range(rng.randint(0, 12))]
    b = [g for g in a if rng.random() < 0.5]
    for g in a:
        succ = sorted(step_deductions(g, SORTED, space), key=Trace.key)
        if succ and rng.random() < 0.3:
            b.append(rng.choice(succ))
    b += [fresh() for _ in range(rng.randint(0, 4))]
    return sorted_set(start, a), sorted_set(start, b)


def test_canonicalize_and_missing_witness_match_references_on_random_sets():
    rng = random.Random(2026)
    witnesses = 0
    for _ in range(2000):
        a, b = random_generator_pair(rng)
        assert listing(canonicalize(a)) == listing(canonicalize_pairwise(a))
        assert listing(canonicalize(b)) == listing(canonicalize_pairwise(b))
        for x, y in ((a, b), (b, a)):
            w = missing_witness(x, y)
            assert w == missing_witness_unindexed(x, y)
            witnesses += w is not None
    assert witnesses > 1000


def padded_copies(K):
    """The cede-start generators of ``K`` whose first step is a stutter and
    whose remainder is a generator of ``K`` too."""
    return {
        g for g in K.generators
        if g.start is CEDE and len(g.steps) > 1 and g.steps[0].is_stutter()
        and Trace(CEDE, g.steps[1:], g.value_sort, g.value) in K.generators
    }


def ceded(K):
    """``K`` relabelled to the ceding start sort, as ``acquire`` sees it."""
    return sorted_set(CEDE, [Trace(CEDE, g.steps, g.value_sort, g.value) for g in K.generators])


def test_canonicalize_drops_released_copies_as_the_pairwise_scan_does():
    values = {"u": HOLD, "v": CEDE}
    cfg = tracealg.SampleConfig(gens=(1, 4), length=(1, 3))
    padded = 0
    for n in (1, 2, 3):
        space = StoreSpace(("x", "y", "z")[:n])
        alg = TraceAlgebra(space)
        rng = random.Random(f"released-copies-{n}")
        for i in range(40 if n < 3 else 15):
            K0, K1 = (tracealg.random_closed_set(space, CEDE, values, cfg, rng) for _ in range(2))
            held = alg.release(K0)
            loc = rng.randrange(n)
            for _ in range(1 + i % 2):  # a second round pads the padded copies again
                if rng.random() < 0.5:
                    held = alg.update(loc, rng.randrange(2), held)
                else:
                    held = alg.lookup(loc, held, alg.release(K1))
                K = ceded(held)
                assert listing(canonicalize(K)) == listing(canonicalize_pairwise(K))
                padded += len(padded_copies(K))
                held = alg.release(K)
    assert padded > 1000


def padded_generator_set(rng, space, start):
    """Random generators of one start sort, with copies behind a stutter
    (some twice), behind a step that is no stutter, and with a stutter
    appended: only the first kind may be dropped by lookup, and only when
    the start sort cedes."""
    gens = [
        Trace(start, random_steps(rng, space, 1, 3), rng.choice((HOLD, CEDE)), rng.choice("uv"))
        for _ in range(rng.randint(1, 5))
    ]
    for g in list(gens):
        for _ in range(rng.randint(0, 2)):
            st = rng.choice(space.stutters)
            step = rng.choice(space.steps)
            steps = rng.choice([(st,) + g.steps, (st, st) + g.steps, (step,) + g.steps, g.steps + (st,)])
            gens.append(Trace(start, steps, g.value_sort, g.value))
    return sorted_set(start, gens)


def test_canonicalize_drops_padded_copies_as_the_pairwise_scan_does():
    rng = random.Random(1403)
    padded = 0
    for _ in range(1500):
        space = rng.choice((SP1, SP))
        K = padded_generator_set(rng, space, rng.choice((HOLD, CEDE)))
        assert listing(canonicalize(K)) == listing(canonicalize_pairwise(K))
        padded += len(padded_copies(K))
    assert padded > 500


def test_canonicalize_survivors_are_confirmed_by_the_bounded_closure():
    rng = random.Random(1404)
    for _ in range(150):
        K = padded_generator_set(rng, SP1, rng.choice((HOLD, CEDE)))
        kept = canonicalize(K).generators
        longest = max(len(g.steps) for g in K.generators)
        assert kept <= K.generators
        # every generator lies in the survivors' closure ...
        assert K.generators <= closure_bounded(kept, SORTED, SP1, longest, slack=0)
        # ... and no survivor in the closure of the others
        for g in kept:
            assert g not in closure_bounded(kept - {g}, SORTED, SP1, longest, slack=0)


def chain_raw(k, n):
    """``k`` atomic blocks over ``n`` locations; block i writes i mod 2 to
    location i mod n, and the chain ends in the cede variable ``C``."""
    t = "C"
    for i in reversed(range(k)):
        t = ("acq", (f"upd:l{i % n}:{i % 2}", ("rel", t)))
    return t


def test_chain_denotations_match_references(monkeypatch):
    cases = []
    for k, n in [(k, 1) for k in range(1, 9)] + [(k, 2) for k in range(1, 4)]:
        space = StoreSpace(tuple(f"l{i}" for i in range(n)))
        sig = build("S", space).signature
        chain = check_sort(sig, {"C": CEDE}, chain_raw(k, n))
        dead = check_sort(sig, {"C": CEDE}, ("acq", ("upd:l0:1", ("rel", chain_raw(k, n)))))
        denoted = [denote("S", {"C": CEDE}, t, space) for t in (chain, dead)]
        cases.append((space, chain, *denoted))
    for mod in (tracealg.model, tracealg.checker):
        monkeypatch.setattr(mod, "canonicalize", canonicalize_pairwise)
    for space, chain, d_chain, d_dead in cases:
        assert listing(d_chain) == listing(denote("S", {"C": CEDE}, chain, space))
        # chain ⊑ dead write holds (dead-write elimination); the reverse is refuted
        assert missing_witness(d_chain, d_dead) is None
        assert missing_witness_unindexed(d_chain, d_dead) is None
        w = missing_witness(d_dead, d_chain)
        assert w is not None and w == missing_witness_unindexed(d_dead, d_chain)


def test_deductions_keep_the_closure_key_exhaustively():
    for length in (1, 2, 3):
        for steps in all_sequences(SP1.stores, length):
            for start, vsort in itertools.product((HOLD, CEDE), repeat=2):
                t = Trace(start, steps, vsort, "v")
                for discipline in (SORTED, BROOKES):
                    for succ in step_deductions(t, discipline, SP1):
                        assert _closure_key(succ) == _closure_key(t)


def transitions_strategy(space, lo, hi):
    pair = st.builds(Transition, st.sampled_from(space.stores), st.sampled_from(space.stores))
    return st.lists(pair, min_size=lo, max_size=hi).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    transitions_strategy(SP, 1, 4),
    st.sampled_from((HOLD, CEDE)),
    st.sampled_from((HOLD, CEDE)),
    st.sampled_from((SORTED, BROOKES)),
)
def test_deductions_keep_the_closure_key_random(steps, start, vsort, discipline):
    t = Trace(start, steps, vsort, "v")
    for succ in step_deductions(t, discipline, SP):
        assert _closure_key(succ) == _closure_key(t)


def rewrite_to_fixpoint(steps, rng):
    """Apply the fuse and delete rules at random redexes until none is left."""
    steps = [(s.pre, s.post) for s in steps]
    while True:
        redexes = [("delete", i) for i, (p, q) in enumerate(steps) if p == q]
        redexes += [
            ("fuse", i) for i in range(len(steps) - 1) if steps[i][1] == steps[i + 1][0]
        ]
        if not redexes:
            return tuple(steps)
        rule, i = rng.choice(redexes)
        if rule == "delete":
            del steps[i]
        else:
            steps[i : i + 2] = [(steps[i][0], steps[i + 1][1])]


@settings(max_examples=300, deadline=None)
@given(transitions_strategy(SP, 1, 7), st.integers(0, 2**32 - 1))
def test_one_pass_normal_form_equals_random_rewriting(steps, seed):
    # every rewrite order reaching the one-pass result is evidence that the
    # rules are confluent, which the key's exactness rests on
    key = _closure_key(Trace(CEDE, steps, CEDE, "v"))[3]
    pairs = tuple((s.pre, s.post) for s in key)
    rng = random.Random(seed)
    for _ in range(4):
        assert rewrite_to_fixpoint(steps, rng) == pairs


# ---------------------------------------------------------------------------
# Prefixing a transition (``TraceAlgebra.transition``)


def test_prefix_formula():
    K = sorted_set(HOLD, [mk(HOLD, [("10", "00")], HOLD, "x")])
    out = TraceAlgebra(SP).transition(ST["11"], ST["10"], K)
    assert out.generators == frozenset({mk(HOLD, [("11", "00")], HOLD, "x")})


def test_prefix_drops_other_sources():
    K = sorted_set(HOLD, [mk(HOLD, [("01", "00")], HOLD, "x")])
    assert TraceAlgebra(SP).transition(ST["11"], ST["10"], K).is_empty()


def test_prefix_identity_on_matching_stutter():
    gens = [mk(HOLD, [("10", "00"), ("11", "01")], CEDE, "x")]
    K = sorted_set(HOLD, gens)
    assert equal(TraceAlgebra(SP).transition(ST["10"], ST["10"], K), K)


_TA, _BA = TraceAlgebra(SP), BrookesAlgebra(SP)
_HELD, _CEDED = sorted_set(HOLD, []), brookes_set([])

# Each operation that checks its set's sort, given an empty set of the wrong
# sort, and the sort it expects.
SORT_CHECKS = {
    "TraceAlgebra.update": (lambda K: _TA.update(0, 1, K), HOLD),
    "TraceAlgebra.lookup-0": (lambda K: _TA.lookup(0, K, _HELD), HOLD),
    "TraceAlgebra.lookup-1": (lambda K: _TA.lookup(0, _HELD, K), HOLD),
    "TraceAlgebra.acquire": (_TA.acquire, HOLD),
    "TraceAlgebra.release": (_TA.release, CEDE),
    "TraceAlgebra.transition": (lambda K: _TA.transition(ST["11"], ST["10"], K), HOLD),
    "BrookesAlgebra.transition": (lambda K: _BA.transition(ST["11"], ST["10"], K), CEDE),
    "BrookesAlgebra.read-0": (lambda K: _BA.read(0, K, _CEDED), CEDE),
    "BrookesAlgebra.read-1": (lambda K: _BA.read(0, _CEDED, K), CEDE),
    "BrookesAlgebra.write": (lambda K: _BA.write(0, 1, K), CEDE),
    "BrookesAlgebra.kleisli": (lambda K: _BA.kleisli({}, K), CEDE),
    "strip_cede": (strip_cede, CEDE),
    "par-0": (lambda K: par(K, _CEDED), CEDE),
    "par-1": (lambda K: par(_CEDED, K), CEDE),
    "yield1": (lambda K: yield1(K, SP), CEDE),
}


@pytest.mark.parametrize("name", sorted(SORT_CHECKS))
def test_operations_require_their_sets_sort(name):
    op, want = SORT_CHECKS[name]
    wrong = _CEDED if want is HOLD else _HELD
    with pytest.raises(SortMismatch, match=f"expected a {want.value}-sorted set, got {wrong.sort.value}"):
        op(wrong)


def test_prefix_commutes_with_closure():
    rng = random.Random(11)
    for _ in range(40):
        gens = [
            Trace(
                HOLD,
                tuple(
                    Transition(rng.choice(SP.stores), rng.choice(SP.stores))
                    for _ in range(rng.randint(1, 3))
                ),
                rng.choice((HOLD, CEDE)),
                "v",
            )
            for _ in range(rng.randint(1, 2))
        ]
        sigma, rho = rng.choice(SP.stores), rng.choice(SP.stores)
        image_of_closure = frozenset(
            Trace(HOLD, (Transition(sigma, t.steps[0].post),) + t.steps[1:], t.value_sort, t.value)
            for t in closure_bounded(gens, SORTED, SP, 4)
            if t.steps[0].pre == rho
        )
        image = TraceAlgebra(SP).transition(sigma, rho, sorted_set(HOLD, gens))
        closure_of_image = closure_bounded(image.generators, SORTED, SP, 4)
        assert image_of_closure == closure_of_image


def test_first_store_invariance_of_held_deductions():
    # every sorted deduction from a held-start trace keeps the first source
    # store; exhaustive over the full store space up to length three
    for length in (1, 2, 3):
        for steps in all_sequences(SP.stores, length):
            for vsort in (HOLD, CEDE):
                t = Trace(HOLD, steps, vsort, "v")
                for succ in step_deductions(t, SORTED, SP):
                    assert succ.steps[0].pre == t.steps[0].pre


# ---------------------------------------------------------------------------
# Packed stores and steps against the tuple references


SPACES = [StoreSpace(tuple(f"l{i}" for i in range(n))) for n in (1, 2, 3)]


def class_contains(gens, t, enabled=None):
    """``t`` tested once against ``gens`` compiled as one class, from the
    heads of the generators at the indices in ``enabled`` (default all)."""
    c = _compile(list(gens))
    reach = c.heads if enabled is None else sum(1 << c.offsets[i] for i in enabled)
    return _gen_contains(c, t, reach)


def deduced_from(g, rng, space):
    """``g`` after up to three random one-step deductions."""
    t = g
    for _ in range(rng.randint(0, 3)):
        succ = sorted(step_deductions(t, SORTED, space), key=Trace.key)
        if not succ:
            break
        t = rng.choice(succ)
    return t


def test_packed_deciders_equal_tuple_references_on_random_pairs():
    rng = random.Random(7)
    hits = 0
    for _ in range(2000):
        space = rng.choice(SPACES)
        start, vsort = rng.choice((HOLD, CEDE)), rng.choice((HOLD, CEDE))
        g = Trace(start, random_steps(rng, space, 1, 4), vsort, "v")
        if rng.random() < 0.5:
            t = deduced_from(g, rng, space)
        else:
            t = Trace(start, random_steps(rng, space, 1, 5), vsort, "v")
        rg, rt = ref_trace(g), ref_trace(t)
        got = class_contains([g], t)
        assert got == ref_gen_contains(rg, rt)
        hits += got
        for x, rx in ((g, rg), (t, rt)):
            assert tuple(map(ref_step, _normal_form(x.steps))) == ref_normal_form(rx.steps)
        for discipline in (SORTED, BROOKES):
            got = {ref_trace(d) for d in step_deductions(g, discipline, space)}
            assert got == ref_step_deductions(rg, discipline, space.width)
    assert hits > 500


def chained_steps(rng, space, m):
    """``m`` steps, each chained on from the one before with probability 3/4."""
    steps, store = [], rng.choice(space.stores)
    for _ in range(m):
        if rng.random() < 0.25:
            store = rng.choice(space.stores)
        post = rng.choice(space.stores)
        steps.append(space.step_of[store][post])
        store = post
    return tuple(steps)


def test_compiled_membership_equals_tuple_reference_on_long_chained_generators():
    # long chained runs put several block starts in one run, which is where
    # the carry of ``_gen_contains`` does its work
    rng = random.Random(13)
    hits = misses = 0
    for _ in range(1500):
        start, vsort = rng.choice((HOLD, CEDE)), rng.choice((HOLD, CEDE))
        g, other = (Trace(start, chained_steps(rng, SP1, rng.randint(1, 12)), vsort, "v")
                    for _ in range(2))
        t = g
        for _ in range(rng.randint(0, 8)):
            succ = sorted(step_deductions(t, SORTED, SP1), key=Trace.key)
            if not succ:
                break
            t = rng.choice(succ)
        for h in (g, other):
            got = class_contains([h], t)
            assert got == ref_gen_contains(ref_trace(h), ref_trace(t)), (h, t)
            hits += got
            misses += not got
    assert hits > 1500 and misses > 500


def s1(pairs):
    return tuple(SP1.step_of[int(a)][int(b)] for a, b in pairs)


CARRY_CASES = [
    # two block starts in one chained run: after t's first step, none (a
    # front stutter) and one of the generator's steps are consumed, so the
    # second starts blocks at steps 0 and 1, which both rely on store 0
    (CEDE, ["00", "00"], HOLD, ["00", "00"], True),
    (CEDE, ["01", "10", "01", "10"], HOLD, ["00", "01", "10"], True),
    # a run that ends at the last step: the carry passes the accepting bit
    (HOLD, ["01", "10", "01"], HOLD, ["01"], True),
    (HOLD, ["01", "10", "01"], HOLD, ["00", "01"], True),
    (HOLD, ["01", "10", "01"], HOLD, ["00"], False),
    # two runs split by one break: no block crosses it
    (HOLD, ["01", "01"], HOLD, ["01", "01"], True),
    (HOLD, ["01", "01"], HOLD, ["01"], False),
    (HOLD, ["01", "10", "10", "01"], HOLD, ["00", "11"], True),
    (HOLD, ["01", "10", "10", "01"], HOLD, ["01", "11"], False),
    (HOLD, ["00", "01", "10", "11"], HOLD, ["01", "11", "11"], False),
    (HOLD, ["00", "01", "10", "11"], HOLD, ["01", "11", "01"], False),
    (HOLD, ["00", "01", "00", "01"], HOLD, ["01", "01"], True),
    # a one-step generator
    (HOLD, ["01"], HOLD, ["01"], True),
    (HOLD, ["01"], HOLD, ["00"], False),
    (HOLD, ["01"], HOLD, ["01", "11"], False),
    # a hold and a cede end at each side: a stutter goes only where it cedes
    (HOLD, ["01"], CEDE, ["01", "11"], True),
    (HOLD, ["01"], CEDE, ["00", "01"], False),
    (CEDE, ["01"], HOLD, ["00", "01"], True),
    (CEDE, ["01"], HOLD, ["01", "11"], False),
    (CEDE, ["01"], CEDE, ["00", "01", "11"], True),
    (HOLD, ["01"], HOLD, ["00", "01", "11"], False),
    (HOLD, ["01", "10"], HOLD, ["01", "11", "10"], True),
]


def test_compiled_membership_hand_cases():
    for case in CARRY_CASES:
        start, g_steps, vsort, t_steps, want = case
        g = Trace(start, s1(g_steps), vsort, "v")
        t = Trace(start, s1(t_steps), vsort, "v")
        assert ref_gen_contains(ref_trace(g), ref_trace(t)) == want, case
        assert class_contains([g], t) == want, case


def random_class(rng):
    """1-6 distinct generators of lengths 1-5 over 1-3 locations that share
    start sort, value sort and value; half the time all but the first are
    deductions of the first, so that one generator deduces another."""
    space = rng.choice(SPACES)
    start, vsort = rng.choice((HOLD, CEDE)), rng.choice((HOLD, CEDE))
    gens = [Trace(start, random_steps(rng, space, 1, 5), vsort, "v")]
    related = rng.random() < 0.5
    for _ in range(rng.randint(0, 5)):
        g = deduced_from(gens[0], rng, space) if related else Trace(
            start, random_steps(rng, space, 1, 5), vsort, "v")
        if len(g.steps) <= 5 and g not in gens:
            gens.append(g)
    return space, gens


def test_class_membership_equals_tuple_reference_on_random_classes():
    rng = random.Random(16)
    hits = misses = 0
    for _ in range(2000):
        space, gens = random_class(rng)
        enabled = [i for i in range(len(gens)) if rng.random() < 0.6]
        g = rng.choice(gens)
        t = deduced_from(g, rng, space) if rng.random() < 0.7 else Trace(
            g.start, random_steps(rng, space, 1, 5), g.value_sort, "v")
        want = any(ref_gen_contains(ref_trace(gens[i]), ref_trace(t)) for i in enabled)
        assert class_contains(gens, t, enabled) == want, (gens, enabled, t)
        hits += want
        misses += not want
    assert hits > 500 and misses > 500


def test_class_layout_stops_each_carry_at_its_accepting_bit():
    # g0's chained run 0->1->0 ends at its last step, and g1's first step
    # relies on store 0, so one step (0,0) of t starts blocks at both heads
    # and carries g0's run into its accepting bit, which no mask but
    # ``accept`` holds
    g0 = Trace(HOLD, s1(["01", "10"]), HOLD, "v")
    g1 = Trace(HOLD, s1(["00", "01"]), HOLD, "v")
    c = _compile([g0, g1])
    assert c.offsets == [0, 3]
    assert (c.heads, c.accept, c.chained) == (0b001001, 0b100100, 0b010010)
    for mask in c.by_pre + c.by_post + [c.chained, c.heads]:
        assert not mask & c.accept
    cases = [
        (["00"], {0}),            # g0 fused into one step
        (["00", "01"], {1}),      # g1 itself; g0's accepted bit starts nothing
        (["01", "10"], {0}),
        (["00", "00"], set()),
        (["01", "10", "00", "01"], set()),  # g0 then g1 is no generator
        (["01", "00", "01"], set()),
    ]
    for t_steps, deducing in cases:
        t = Trace(HOLD, s1(t_steps), HOLD, "v")
        for enabled in ([], [0], [1], [0, 1]):
            want = any(ref_gen_contains(ref_trace((g0, g1)[i]), ref_trace(t)) for i in enabled)
            assert want == bool(deducing & set(enabled)), (t_steps, enabled)
            assert class_contains([g0, g1], t, enabled) == want, (t_steps, enabled)


def test_canonicalize_equals_tuple_reference_on_random_sets():
    rng = random.Random(17)
    dropped = 0
    for _ in range(300):
        space = rng.choice(SPACES)
        start = rng.choice((HOLD, CEDE))
        gens = set()
        for _ in range(rng.randint(1, 4)):
            base = Trace(start, random_steps(rng, space, 1, 4), rng.choice((HOLD, CEDE)),
                         rng.choice("uv"))
            gens.add(base)
            for _ in range(rng.randint(0, 12)):
                gens.add(deduced_from(base, rng, space))
        K = sorted_set(start, gens)
        got = canonicalize(K)
        assert ref_gens(got) == ref_canonicalize(ref_gens(K))
        dropped += len(K.generators) - len(got.generators)
    assert dropped > 1000


def test_subset_and_missing_witness_compile_each_class_once(monkeypatch):
    rng = random.Random(18)
    compiled = []
    inner = tracealg.traces._compile

    def counting(gens):
        compiled.append(frozenset(gens))
        return inner(gens)

    monkeypatch.setattr(tracealg.traces, "_compile", counting)
    for _ in range(200):
        a, b = random_generator_pair(rng)
        compiled.clear()
        subset(a, b)
        assert len(compiled) == len(set(compiled))
        assert len(compiled) <= len({(h.value_sort, h.value) for h in b.generators})
        subset(a, b)  # b holds its classes compiled
        assert len(compiled) == len(set(compiled))
        compiled.clear()
        missing_witness(a, b)
        assert len(compiled) == len(set(compiled))
        keys = {_closure_key(h) for h in b.generators}
        assert len(compiled) <= len({_closure_key(g) for g in a.generators} & keys)


HASH_SEED_SCRIPT = """
import tracealg.traces as traces
from tracealg import CEDE, StoreSpace, build, check_sort, checker

calls = [0]
inner = traces._gen_contains

def counted(*args):
    calls[0] += 1
    return inner(*args)

traces._gen_contains = counted

def chain(k, n):
    t = "C"
    for i in reversed(range(k)):
        t = ("acq", (f"upd:l{i % n}:{i % 2}", ("rel", t)))
    return t

for k, n in ((8, 1), (4, 2), (3, 3)):
    space = StoreSpace(tuple(f"l{i}" for i in range(n)))
    sig = build("S", space).signature
    ctx = {"C": CEDE}
    c = check_sort(sig, ctx, chain(k, n))
    dead = check_sort(sig, ctx, ("acq", ("upd:l0:1", ("rel", chain(k, n)))))
    assert checker.check_refines("S", ctx, c, dead, space).holds
    assert not checker.check_refines("S", ctx, dead, c, space).holds
print(calls[0])
"""


def test_gen_contains_calls_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracealg.__file__)))
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    assert counts[0] == counts[1] > 0


def test_trace_key_orders_as_the_tuple_key():
    rng = random.Random(8)
    for space in SPACES:
        traces = [
            Trace(rng.choice((HOLD, CEDE)), random_steps(rng, space, 1, 3),
                  rng.choice((HOLD, CEDE)), rng.choice("uv"))
            for _ in range(300)
        ]
        assert sorted(traces, key=Trace.key) == sorted(traces, key=ref_key)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.width}loc")
def test_store_and_transition_edge_api(space):
    refs = ref_stores(space.width)
    for i, (s, r) in enumerate(zip(space.stores, refs)):
        assert s == i and s.bits == r.bits and s.render() == r.render()
        assert Store(r.bits) is s and Store(list(r.bits)) is s
        assert repr(s) == repr(r).replace("Ref", "") and str(s) == r.render()
    for a, ra in zip(space.stores, refs):
        for b, rb in zip(space.stores, refs):
            step = Transition(a, b)
            assert step == a << space.width | b
            assert step.pre is a and step.post is b
            assert (step.pre.bits, step.post.bits) == (ra.bits, rb.bits)
            assert step.render() == RefTransition(ra, rb).render()
            assert repr(step) == repr(RefTransition(ra, rb)).replace("Ref", "")
            assert step.is_stutter() == (a == b)
    with pytest.raises(ValueError):
        Store((0, 2))
    with pytest.raises(ValueError):
        Store(())
    other = SP if space.width == 1 else SP1
    with pytest.raises(ValueError):
        Transition(space.stores[0], other.stores[0])


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.width}loc")
def test_space_for_reads_the_width_of_the_steps(space):
    t = Trace(HOLD, (space.steps[-1],), CEDE, "v")
    derived = _space_for([t])
    assert derived == StoreSpace(tuple(f"l{i}" for i in range(space.width)))
    assert derived.stores is space.stores and derived.steps is space.steps
    with pytest.raises(ValueError):
        _space_for([])


def test_public_constructors_still_reject_mis_sorted_generators():
    # the model skips these checks through ``TraceSet._built``, ``_held`` and
    # ``traces._trace``; callers do not
    held = mk(HOLD, [("00", "01")], CEDE)
    with pytest.raises(ValueError):
        TraceSet(CEDE, frozenset({held}))
    with pytest.raises(ValueError):
        TraceSet(HOLD, frozenset({mk(CEDE, [("00", "01")], CEDE)}))
    with pytest.raises(ValueError):
        sorted_set(CEDE, [held])
    with pytest.raises(ValueError):
        brookes_set([held])
    with pytest.raises(ValueError):
        Trace(HOLD, (), CEDE, "v")
    for start, value_sort in (("hold", CEDE), (HOLD, "cede")):
        with pytest.raises(ValueError):
            Trace(start, held.steps, value_sort, "v")


def compile_bit_by_bit(gens):
    """``_compile``'s layout, one bit at a time into growing ints, with a
    mask for every store of the width."""
    stores = gens[0].steps[0].tables.stores
    by_pre, by_post = [0] * len(stores), [0] * len(stores)
    chained = accept = heads = 0
    offsets = []
    bit = 0
    for g in gens:
        offsets.append(bit)
        heads |= 1 << bit
        for i, step in enumerate(g.steps):
            by_pre[step.pre] |= 1 << bit
            by_post[step.post] |= 1 << bit
            if i and g.steps[i - 1].post is step.pre:
                chained |= 1 << bit
            bit += 1
        accept |= 1 << bit
        bit += 1
    return by_pre, by_post, chained, accept, heads, offsets


def test_compile_equals_the_bit_by_bit_layout_on_random_classes():
    rng = random.Random(19)
    untouched = 0
    for _ in range(2000):
        space, gens = random_class(rng)
        c = _compile(gens)
        assert tuple(c) == compile_bit_by_bit(gens), gens
        untouched += c.by_pre.count(0)
    assert untouched > 1000


def test_subset_equals_membership_of_every_generator_on_random_pairs():
    rng = random.Random(20)
    outcomes = set()
    for _ in range(1000):
        a, b = random_generator_pair(rng)
        for x, y in ((a, b), (b, a), (a, a)):
            want = all(member(g, y) for g in x.generators)
            assert subset(x, y) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_a_set_in_itself_compiles_and_reduces_nothing(monkeypatch):
    # every generator lies in its own closure, so neither ``subset`` nor
    # ``missing_witness`` tests one, or groups ``b``'s generators
    calls = []

    def counted(name):
        inner = getattr(tracealg.traces, name)
        monkeypatch.setattr(tracealg.traces, name, lambda *a: calls.append(name) or inner(*a))

    rng = random.Random(21)
    sets = [random_generator_pair(rng)[0] for _ in range(200)]
    assert sum(len(K.generators) for K in sets) > 1000
    counted("_compile")
    counted("_normal_form")
    for K in sets:
        assert subset(K, K) and missing_witness(K, K) is None
    assert calls == []
