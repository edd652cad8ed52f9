import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Transition,
    brookes_set,
    canonicalize,
    closure_bounded,
    equal,
    member,
    prefix,
    sorted_set,
    step_deductions,
    subset,
)

SP = StoreSpace()
ST = {s.render(): s for s in SP.stores}


def tr(a, b):
    return Transition(ST[a], ST[b])


def mk(start, pairs, value_sort, value="v"):
    return Trace(start, tuple(tr(a, b) for a, b in pairs), value_sort, value)


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
# Prefixing


def test_prefix_formula():
    K = sorted_set(HOLD, [mk(HOLD, [("10", "00")], HOLD, "x")])
    out = prefix(ST["11"], ST["10"], K)
    assert out.generators == frozenset({mk(HOLD, [("11", "00")], HOLD, "x")})


def test_prefix_drops_other_sources():
    K = sorted_set(HOLD, [mk(HOLD, [("01", "00")], HOLD, "x")])
    assert prefix(ST["11"], ST["10"], K).is_empty()


def test_prefix_identity_on_matching_stutter():
    gens = [mk(HOLD, [("10", "00"), ("11", "01")], CEDE, "x")]
    K = sorted_set(HOLD, gens)
    assert equal(prefix(ST["10"], ST["10"], K), K)


def test_prefix_requires_held_sorted_set():
    with pytest.raises(SortMismatch):
        prefix(ST["11"], ST["10"], sorted_set(CEDE, []))
    with pytest.raises(SortMismatch):
        prefix(ST["11"], ST["10"], brookes_set([]))


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
        closure_of_image = closure_bounded(
            prefix(sigma, rho, sorted_set(HOLD, gens)).generators, SORTED, SP, 4
        )
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
