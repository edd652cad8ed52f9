import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracealg
from tracealg import (
    BROOKES,
    CEDE,
    HOLD,
    SORTED,
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
    sorted_set,
    step_deductions,
    subset,
)
from tracealg.traces import _closure_key, _gen_contains, _normal_form, _space_for, missing_witness
from tuple_reference import (
    RefTransition,
    ref_gen_contains,
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
    with pytest.raises(ValueError, match="unknown discipline"):
        closure_bounded([t], discipline, SP, 2)


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


def test_closure_budget_cap_from_environment(monkeypatch):
    monkeypatch.setenv("BROOKES_ORACLE_CAP", "10")
    g = mk(CEDE, [("11", "00")], CEDE)
    with pytest.raises(BudgetExceeded):
        closure_bounded([g], SORTED, SP, 4)


@pytest.mark.parametrize("text", ["abc", "-1"])
def test_closure_budget_cap_from_environment_is_validated(monkeypatch, text):
    monkeypatch.setenv("BROOKES_ORACLE_CAP", text)
    g = mk(CEDE, [("11", "00")], CEDE)
    with pytest.raises(ValueError, match="BROOKES_ORACLE_CAP"):
        closure_bounded([g], SORTED, SP, 4)


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
    """``canonicalize`` without closure classes: every pair of generators
    that share start sort, value sort and value is compared."""
    buckets = {}
    for g in K.generators:
        buckets.setdefault((g.start, g.value_sort, g.value), []).append(g)
    kept = []
    for _, group in sorted(buckets.items(), key=lambda kv: kv[0][2]):
        group.sort(key=Trace.key, reverse=True)
        surviving = []
        for idx, t in enumerate(group):
            rest = group[idx + 1 :] + surviving
            if not any(_gen_contains(g, t) for g in rest):
                surviving.append(t)
        kept.extend(surviving)
    return TraceSet(K.sort, frozenset(kept))


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


def test_prefix_requires_held_sorted_set():
    with pytest.raises(SortMismatch):
        TraceAlgebra(SP).transition(ST["11"], ST["10"], sorted_set(CEDE, []))
    with pytest.raises(SortMismatch):
        TraceAlgebra(SP).transition(ST["11"], ST["10"], brookes_set([]))


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
        got = _gen_contains(g, t)
        assert got == ref_gen_contains(rg, rt)
        hits += got
        for x, rx in ((g, rg), (t, rt)):
            assert tuple(map(ref_step, _normal_form(x.steps))) == ref_normal_form(rx.steps)
        for discipline in (SORTED, BROOKES):
            got = {ref_trace(d) for d in step_deductions(g, discipline, space)}
            assert got == ref_step_deductions(rg, discipline, space.width)
    assert hits > 500


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
    # the model skips this check through ``TraceSet._built``; callers do not
    held = mk(HOLD, [("00", "01")], CEDE)
    with pytest.raises(ValueError):
        TraceSet(CEDE, frozenset({held}))
    with pytest.raises(ValueError):
        sorted_set(CEDE, [held])
    with pytest.raises(ValueError):
        brookes_set([held])
