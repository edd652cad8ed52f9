"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The oracle-equivalence
and deduction-soundness sweeps are exhaustive and take a few minutes each;
they and criteria 3 and 8 are marked ``slow``, and everything else finishes
in seconds.
"""

import itertools
import random

import numpy as np
import pytest

from tracealg import (
    BROOKES,
    CEDE,
    HOLD,
    SORTED,
    STAR,
    BrookesAlgebra,
    SampleConfig,
    StoreSpace,
    Trace,
    TraceAlgebra,
    TraceSet,
    Transition,
    brookes_set,
    build,
    canonicalize,
    check_equal,
    check_refines,
    check_representation,
    check_roundtrip,
    check_sort,
    closure_bounded,
    cross_check_G,
    denote,
    denote_B,
    embed_cede,
    equal,
    evaluate,
    hush_step,
    kleisli,
    member,
    random_brookes_set,
    random_closed_set,
    random_term,
    reify,
    run_nogo2,
    run_nogo3,
    sorted_set,
    step_deductions,
    strip_cede,
    subset,
    unit,
    validate_axioms,
    validate_distributivity,
)
from tracealg.model import reify_trace
from tracealg.theories import apply_translation, builtin_translations, translate_context

SP = StoreSpace()
SIG = build("S", SP).signature
X_CEDE = {"x": CEDE}
VALUES = {"u": HOLD, "v": CEDE}

TRANSITIONS = tuple(Transition(a, b) for a in SP.stores for b in SP.stores)
T_INDEX = {t: i for i, t in enumerate(TRANSITIONS)}

VARIANTS = (
    ("sorted-hold-hold", SORTED, HOLD, HOLD),
    ("sorted-hold-cede", SORTED, HOLD, CEDE),
    ("sorted-cede-hold", SORTED, CEDE, HOLD),
    ("sorted-cede-cede", SORTED, CEDE, CEDE),
    ("brookes", BROOKES, CEDE, CEDE),
)


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _single_gen_set(discipline, start, g):
    if discipline == BROOKES:
        return brookes_set([g])
    return sorted_set(start, [g])


# ---------------------------------------------------------------------------


def test_criterion_1_transformation_regressions():
    ctx = X_CEDE
    irie_lhs = check_sort(SIG, ctx, ("acq", ("lkp:y", ("rel", "x"), ("rel", "x"))))
    irie_rhs = check_sort(SIG, ctx, "x")
    twice = check_sort(
        SIG, ctx, ("acq", ("upd:x:0", ("rel", ("acq", ("upd:x:1", ("rel", "x"))))))
    )
    once = check_sort(SIG, ctx, ("acq", ("upd:x:1", ("rel", "x"))))

    irie = check_equal("S", ctx, irie_lhs, irie_rhs, SP)
    write_elim = check_refines("S", ctx, once, twice, SP)
    write_intro = check_refines("S", ctx, twice, once, SP)
    changing = (
        sum(1 for s in write_intro.witness.steps if s.pre != s.post)
        if write_intro.witness is not None
        else 0
    )
    ok = irie.holds and write_elim.holds and not write_intro.holds and changing == 2
    _line(
        "criterion 1: transformation regressions",
        ok,
        f"write-intro witness {write_intro.witness.render()} has {changing} state-changing transitions",
    )


# ---------------------------------------------------------------------------


IS_STUTTER = np.array([t.pre == t.post for t in TRANSITIONS])
DIGITS = {
    n: [
        ((np.arange(16 ** n, dtype=np.int64) // (16 ** (n - 1 - j))) % 16)
        for j in range(n)
    ]
    for n in (1, 2, 3, 4)
}


def _twin_membership(gsteps, front_ok, back_ok, n):
    """The membership dynamic program, vectorised over all 16**n candidates."""
    m = len(gsteps)
    blocks = []
    for i in range(m):
        k = i
        while True:
            blocks.append((i, k + 1, T_INDEX[Transition(gsteps[i].pre, gsteps[k].post)]))
            if k + 1 >= m or gsteps[k].post != gsteps[k + 1].pre:
                break
            k += 1
    size = 16 ** n
    reach = np.ones(size, dtype=np.uint16)
    for j in range(n):
        tj = DIGITS[n][j]
        ok_pos = (j > 0 or front_ok) and (j < n - 1 or back_ok)
        if ok_pos:
            nxt = np.where(IS_STUTTER[tj], reach, 0).astype(np.uint16)
        else:
            nxt = np.zeros(size, dtype=np.uint16)
        for i, end, fidx in blocks:
            hit = (((reach >> i) & 1) != 0) & (tj == fidx)
            nxt |= hit.astype(np.uint16) << np.uint16(end)
        reach = nxt
    return ((reach >> m) & 1) != 0


def _flat_index(steps):
    n = len(steps)
    return sum(T_INDEX[s] * 16 ** (n - 1 - j) for j, s in enumerate(steps))


def _steps_of(flat, n):
    return tuple(TRANSITIONS[(flat // (16 ** (n - 1 - j))) % 16] for j in range(n))


@pytest.mark.slow
def test_criterion_2_oracle_equivalence():
    rng = random.Random(202)
    direct_pairs = 0
    twin_pairs = 0

    # tier one: membership itself, exhaustive for generators up to length
    # two against every candidate up to length three, per end-sort variant
    for label, discipline, start, vsort in VARIANTS:
        candidates = [
            Trace(start, steps, vsort, "v")
            for n in (1, 2, 3)
            for steps in itertools.product(TRANSITIONS, repeat=n)
        ]
        for m in (1, 2):
            for gsteps in itertools.product(TRANSITIONS, repeat=m):
                g = Trace(start, gsteps, vsort, "v")
                K = _single_gen_set(discipline, start, g)
                oracle = closure_bounded([g], discipline, SP, 3, slack=0)
                for cand in candidates:
                    assert member(cand, K) == (cand in oracle), (label, g, cand)
                    direct_pairs += 1

    # tier two: generators up to length three against every candidate up to
    # length four, through the vectorised twin of the same dynamic program;
    # every oracle member is also pushed through member() directly, plus
    # random spot agreements between member() and the twin
    for label, discipline, start, vsort in VARIANTS:
        front_ok = discipline == BROOKES or start is CEDE
        back_ok = discipline == BROOKES or vsort is CEDE
        for m in (1, 2, 3):
            for gsteps in itertools.product(TRANSITIONS, repeat=m):
                g = Trace(start, gsteps, vsort, "v")
                K = _single_gen_set(discipline, start, g)
                oracle = closure_bounded([g], discipline, SP, 4, slack=0)
                by_len = {}
                for t in oracle:
                    by_len.setdefault(len(t.steps), []).append(t)
                for n in (1, 2, 3, 4):
                    twin = _twin_membership(gsteps, front_ok, back_ok, n)
                    oracle_arr = np.zeros(16 ** n, dtype=bool)
                    for t in by_len.get(n, ()):
                        oracle_arr[_flat_index(t.steps)] = True
                        assert member(t, K), (label, g, t)
                        direct_pairs += 1
                    assert np.array_equal(twin, oracle_arr), (label, g, n)
                    twin_pairs += 16 ** n
                    for _ in range(2):
                        flat = rng.randrange(16 ** n)
                        cand = Trace(start, _steps_of(flat, n), vsort, "v")
                        assert member(cand, K) == bool(twin[flat]), (label, g, cand)
                        direct_pairs += 1

    ok = direct_pairs >= 100_000
    _line(
        "criterion 2: membership vs bounded closure",
        ok,
        f"{direct_pairs} pairs through member(), {twin_pairs} further pairs "
        "through the vectorised twin, all in agreement",
    )


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_3_axiom_validation():
    shared = validate_axioms("S", SampleConfig(seed=301, samples=100), SP)
    transitions = validate_axioms("B", SampleConfig(seed=302, samples=100), SP)
    closure_schemes = {r.name for r in transitions.rows} >= {"M", "S", "H", "ND-B"}
    dist = validate_distributivity("S", SampleConfig(seed=303, samples=100), SP)
    ok = shared.passed and transitions.passed and closure_schemes and dist.passed
    _line(
        "criterion 3: axiom suites on sampled models",
        ok,
        f"{len(shared.rows)} shared-state instances, {len(transitions.rows)} "
        f"transition instances, {len(dist.rows)} distributivity instances, 100 environments each",
    )


# ---------------------------------------------------------------------------


def test_criterion_4_representation_roundtrip():
    p = build("S", SP)
    rng = random.Random(401)
    ctx = {"a": HOLD, "b": CEDE}
    terms = 0
    for i in range(500):
        t = random_term(p, ctx, (HOLD, CEDE)[i % 2], 5, rng)
        assert check_representation(t, ctx, SP), f"term {i}"
        terms += 1

    alg = TraceAlgebra(SP)
    cfg = SampleConfig(gens=(0, 3), length=(1, 2))
    sets = 0
    for i in range(200):
        K = random_closed_set(SP, (HOLD, CEDE)[i % 2], VALUES, cfg, rng)
        env = {name: random_closed_set(SP, s, VALUES, cfg, rng) for name, s in VALUES.items()}
        assert equal(kleisli(env, K), evaluate(alg, env, reify(SP, K))), f"set {i}"
        sets += 1
    _line(
        "criterion 4: representation round trips",
        terms == 500 and sets == 200,
        f"{terms} random terms reified, {sets} extension-vs-reify comparisons",
    )


# ---------------------------------------------------------------------------


def test_criterion_5_monad_laws():
    rng = random.Random(501)
    cfg = SampleConfig(gens=(0, 3), length=(1, 2))
    checked = 0
    for i in range(200):
        sort = (HOLD, CEDE)[i % 2]
        K = random_closed_set(SP, sort, VALUES, cfg, rng)
        units = {name: unit(SP, s, name) for name, s in VALUES.items()}
        assert equal(kleisli(units, K), K)
        e = {name: random_closed_set(SP, s, VALUES, cfg, rng) for name, s in VALUES.items()}
        assert equal(kleisli(e, unit(SP, sort, "u" if sort is HOLD else "v")), e["u" if sort is HOLD else "v"])
        f = {name: random_closed_set(SP, s, VALUES, cfg, rng) for name, s in VALUES.items()}
        assert equal(
            kleisli(f, kleisli(e, K)), kleisli({n: kleisli(f, e[n]) for n in e}, K)
        )
        checked += 1

    b = BrookesAlgebra(SP)
    names = ("u", "v")
    for i in range(200):
        K = random_brookes_set(SP, names, cfg, rng)
        assert equal(b.kleisli({n: b.unit(n) for n in names}, K), K)
        e = {n: random_brookes_set(SP, names, cfg, rng) for n in names}
        assert equal(b.kleisli(e, b.unit("u")), e["u"])
        f = {n: random_brookes_set(SP, names, cfg, rng) for n in names}
        assert equal(
            b.kleisli(f, b.kleisli(e, K)),
            b.kleisli({n: b.kleisli(f, e[n]) for n in e}, K),
        )
        checked += 1
    _line(
        "criterion 5: monad laws",
        checked == 400,
        f"unit and associativity laws on {checked} sampled closed sets (both monads)",
    )


# ---------------------------------------------------------------------------


def test_criterion_6_brookes_recovery():
    e_bs = builtin_translations(SP)["E_BS"]
    p = build("B", SP)
    rng = random.Random(601)
    ctx = {"a": STAR, "b": STAR}
    terms = 0
    for i in range(300):
        t = random_term(p, ctx, STAR, 4, rng)
        through_shared = strip_cede(
            denote("S", translate_context(e_bs, ctx), apply_translation(e_bs, t), SP)
        )
        direct = denote_B(ctx, t, SP)
        assert equal(through_shared, direct), f"term {i}"
        terms += 1

    cfg = SampleConfig(gens=(0, 3), length=(1, 2))
    sets = 0
    for _ in range(300):
        K = random_brookes_set(SP, ("u", "v"), cfg, rng)
        assert strip_cede(embed_cede(K)) == K
        ceded = random_closed_set(SP, CEDE, {"v": CEDE}, cfg, rng)
        assert embed_cede(strip_cede(ceded)) == ceded
        sets += 1
    _line(
        "criterion 6: the ceded fragment is the transition model",
        terms == 300 and sets == 300,
        f"{terms} translated terms, {sets} strip/embed round trips",
    )


# ---------------------------------------------------------------------------


def test_criterion_7_theory_equivalences():
    cfg = SampleConfig(seed=701, samples=200)
    gs = check_roundtrip("Tgs~G", cfg, SP)
    trs = check_roundtrip("Tr~S", cfg, SP)

    g = build("G", SP)
    rng = random.Random(702)
    ctx = {"a": STAR, "b": STAR}
    crossed = 0
    for i in range(200):
        t = random_term(g, ctx, STAR, 4, rng)
        assert cross_check_G(t, ctx, SP), f"term {i}"
        crossed += 1
    ok = gs.passed and trs.passed and crossed == 200
    _line(
        "criterion 7: theory equivalences",
        ok,
        f"{len(gs.rows)} + {len(trs.rows)} roundtrip checks, {crossed} state-function cross-checks",
    )


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_yield_and_generation_experiments():
    nogo3 = run_nogo3(SampleConfig(seed=801, samples=200), SP)
    nogo2 = run_nogo2(3, SP)

    rng = random.Random(802)
    cfg = SampleConfig(gens=(0, 3), length=(1, 2))
    hush_sets = 0
    for _ in range(200):
        K = random_brookes_set(SP, ("u", "v"), cfg, rng)
        for concluded in hush_step(K, SP):
            assert member(concluded, K)
        hush_sets += 1
    ok = nogo3.passed and nogo2.passed and hush_sets == 200
    _line(
        "criterion 8: yield interpretations, generated single-cell witnesses, hush redundancy",
        ok,
        f"{len(nogo3.rows)} yield fixpoints, {nogo2.rows[0].detail}, hush adds nothing on {hush_sets} sets",
    )


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_9_deduction_soundness():
    alg = TraceAlgebra(SP)
    units = {HOLD: unit(SP, HOLD, "v"), CEDE: unit(SP, CEDE, "v")}
    cache: dict[Trace, TraceSet] = {}

    def denotation(t: Trace) -> TraceSet:
        d = cache.get(t)
        if d is None:
            d = canonicalize(
                evaluate(alg, {"v": units[t.value_sort]}, reify_trace(SP, t))
            )
            cache[t] = d
        return d

    pairs = 0
    for n in (1, 2, 3):
        for steps in itertools.product(TRANSITIONS, repeat=n):
            for start, vsort in itertools.product((HOLD, CEDE), repeat=2):
                source = Trace(start, steps, vsort, "v")
                d_source = denotation(source)
                base = sorted_set(start, [source])
                for deduced in step_deductions(source, SORTED, SP):
                    assert member(deduced, base), (source, deduced)
                    assert subset(denotation(deduced), d_source), (source, deduced)
                    pairs += 1
    _line(
        "criterion 9: one-step deductions shrink reified denotations",
        pairs > 0,
        f"{pairs} deductions from all traces up to length 3, {len(cache)} distinct denotations",
    )
