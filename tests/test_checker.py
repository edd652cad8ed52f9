import os
import random
import sys

import pytest

from tracealg import (
    CEDE,
    HOLD,
    STAR,
    Algebra,
    BrookesAlgebra,
    GTableAlgebra,
    SampleConfig,
    StoreSpace,
    Trace,
    TraceAlgebra,
    Transition,
    Verdict,
    apply_translation,
    bottom,
    build,
    builtin_translations,
    canonicalize,
    check_equal,
    check_refines,
    check_representation,
    check_roundtrip,
    check_sort,
    cross_check_G,
    denote,
    denote_B,
    denote_G,
    distributivity_instances,
    equal,
    evaluate,
    gtable_to_traceset,
    instantiate_axioms,
    member,
    random_brookes_set,
    random_closed_set,
    random_term,
    run_nogo2,
    run_nogo3,
    sorted_set,
    subset,
    unit,
    validate_axioms,
    validate_distributivity,
    validate_translation,
)
from tracealg.checker import FREE_MODELS, Report, SetAlgebra, _validate_instances, random_gtable
from tracealg.model import variable_gtable
from tracealg.traces import missing_witness
from tracealg.theories import (
    THEORY_NAMES,
    AxiomInstance,
    Bounds,
    UnknownTheory,
    encode_inequation,
    translate_context,
)
from tracealg.kernel import Var, app

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import workloads  # noqa: E402  (bench/workloads.py, imported read only)

SP = StoreSpace()
SIG = build("S", SP).signature
X_CEDE = {"x": CEDE}

SMALL = Bounds(max_join_arity=2, max_squash=2)


def sterm(raw, ctx=X_CEDE):
    return check_sort(SIG, ctx, raw)


IRIE = sterm(("acq", ("lkp:y", ("rel", "x"), ("rel", "x"))))
WRITE_TWICE = sterm(("acq", ("upd:x:0", ("rel", ("acq", ("upd:x:1", ("rel", "x")))))))
WRITE_ONCE = sterm(("acq", ("upd:x:1", ("rel", "x"))))


# ---------------------------------------------------------------------------
# The named transformations


def test_irrelevant_read_intro_and_elim_holds():
    assert check_equal("S", X_CEDE, IRIE, sterm("x")).holds


def test_write_elim_holds():
    assert check_refines("S", X_CEDE, WRITE_ONCE, WRITE_TWICE).holds


def test_write_intro_refuted_with_two_changing_transitions():
    verdict = check_refines("S", X_CEDE, WRITE_TWICE, WRITE_ONCE)
    assert not verdict.holds
    witness = verdict.witness
    assert sum(1 for s in witness.steps if s.pre != s.post) == 2
    assert member(witness, denote("S", X_CEDE, WRITE_TWICE, SP))
    assert not member(witness, denote("S", X_CEDE, WRITE_ONCE, SP))


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(True, Trace(CEDE, (Transition(SP.stores[0], SP.stores[0]),), CEDE, "x"))
    with pytest.raises(ValueError):
        Verdict(False, None)


# ---------------------------------------------------------------------------
# Denotation


def test_denote_empty_block_is_unit():
    d = denote("S", X_CEDE, sterm(("acq", ("rel", "x"))), SP)
    assert equal(d, unit(SP, CEDE, "x"))


def test_denote_bottom_is_empty():
    bot = check_sort(SIG, {}, ("or",), expected=CEDE)
    assert denote("S", {}, bot, SP).is_empty()


def test_denote_is_canonical():
    from tracealg import canonicalize

    d = denote("S", X_CEDE, WRITE_TWICE, SP)
    assert canonicalize(d) == d


def acquire_rooted_terms():
    """Every ``chain`` variant at the benchmark's sizes, as the chain, its
    dead write and its irrelevant read of each location, and random S and
    Tr hold terms wrapped in ``acq``; each with its theory and space."""
    for n, k in sorted({size for kind in workloads.CHAIN_KINDS for size in workloads.chain_sizes(kind)}):
        space = workloads.space_for(n)
        sig = build("S", space).signature
        for shape in workloads.chain_shapes(n, k):
            raws = [shape.raw(), shape.dead_write_raw()] + [
                workloads.ChainShape(k, n, shape.flip, shape.perm, probe).irrelevant_read_raw()
                for probe in range(n)
            ]
            for raw in raws:
                yield "S", {"C": CEDE}, check_sort(sig, {"C": CEDE}, raw), space
    ctx = {"a": HOLD, "b": CEDE}
    for theory in ("S", "Tr"):
        for n in (1, 2, 3):
            space = StoreSpace(("x", "y", "z")[:n])
            p = build(theory, space)
            rng = random.Random(f"acq-rooted-{theory}-{n}")
            for i in range(40):
                yield theory, ctx, app(p.signature, "acq", random_term(p, ctx, HOLD, 2 + i % 4, rng)), space


def test_acquire_rooted_denotations_are_canonical():
    # ``denote`` returns an ``acq``-rooted term's set without canonicalizing
    # it again, because ``TraceAlgebra.acquire`` already returned it canonical
    count = 0
    for theory, ctx, t, space in acquire_rooted_terms():
        d = denote(theory, ctx, t, space)
        assert canonicalize(d).generators == d.generators, (theory, t)
        count += 1
    assert count > 400


def decision_reference(theory, ctx, t1, t2, space):
    """``check_equal`` and ``check_refines`` of ``t1`` and ``t2`` decided by
    ``missing_witness`` over separately computed denotations."""
    d1, d2 = denote(theory, ctx, t1, space), denote(theory, ctx, t2, space)
    lhs = missing_witness(d1, d2)
    refines = Verdict(True) if lhs is None else Verdict(False, lhs, "lhs ⊄ rhs")
    rhs = missing_witness(d2, d1)
    if lhs is None and rhs is not None:
        return Verdict(False, rhs, "rhs ⊄ lhs"), refines
    return refines, refines


def decision_pairs():
    """The benchmark's ``chain`` decisions on every variant at its sizes
    (dead-write elimination, write introduction and the irrelevant read of
    each location), then random pairs in every theory that decides, some
    sharing a subterm."""
    decisions = ("dead_write", "write_intro", "irrelevant_read")
    for n, k in sorted({size for kind in decisions for size in workloads.chain_sizes(kind)}):
        space = workloads.space_for(n)
        sig = build("S", space).signature
        ctx = {"C": CEDE}
        for shape in workloads.chain_shapes(n, k):
            chain = check_sort(sig, ctx, shape.raw())
            dead = check_sort(sig, ctx, shape.dead_write_raw())
            yield "S", ctx, chain, dead, space
            yield "S", ctx, dead, chain, space
            for probe in range(n):
                probed = workloads.ChainShape(k, n, shape.flip, shape.perm, probe)
                yield "S", ctx, check_sort(sig, ctx, probed.irrelevant_read_raw()), chain, space
    for theory in ("S", "Tr", "B", "G", "Tgs"):
        sorts = (HOLD, CEDE) if theory in ("S", "Tr") else (STAR,)
        ctx = dict(zip("ab", sorts * 2))
        for n in (1, 2, 3):
            space = StoreSpace(("x", "y", "z")[:n])
            p = build(theory, space)
            rng = random.Random(f"shared-decisions-{theory}-{n}")
            for i in range(84):
                sort = sorts[i % len(sorts)]
                t1, t2 = (random_term(p, ctx, sort, 2 + i % 4, rng) for _ in range(2))
                if i % 3 == 0:  # the right side holds the left one
                    t2 = app(p.signature, p.signature.join_op(sort).name, t2, t1)
                yield theory, ctx, t1, t2, space


def test_shared_decisions_match_separate_denotations():
    count = 0
    for theory, ctx, t1, t2, space in decision_pairs():
        eq, refines = decision_reference(theory, ctx, t1, t2, space)
        assert check_equal(theory, ctx, t1, t2, space) == eq
        assert check_refines(theory, ctx, t1, t2, space) == refines
        count += 1
    assert count > 1400


def test_a_decision_evaluates_each_distinct_subterm_once(monkeypatch):
    # chain(6, 1) holds six ``acq`` nodes; the irrelevant read holds it twice
    # on its left and once on its right, under one more ``acq``, and the dead
    # write holds it once on each side, under one more on the right
    shape = workloads.ChainShape(6, 1, 0, (0,), 0)
    space = workloads.space_for(1)
    sig = build("S", space).signature
    ctx = {"C": CEDE}
    chain, dead, read = (
        check_sort(sig, ctx, raw)
        for raw in (shape.raw(), shape.dead_write_raw(), shape.irrelevant_read_raw())
    )
    calls = []
    acquire = TraceAlgebra.acquire
    monkeypatch.setattr(TraceAlgebra, "acquire", lambda alg, K: calls.append(K) or acquire(alg, K))

    def acquires(decide, t1, t2):
        calls.clear()
        assert decide("S", ctx, t1, t2, space).holds
        return len(calls)

    for _ in range(2):  # a second call evaluates again: no cache outlives a call
        assert acquires(check_equal, read, chain) == 7
        assert acquires(check_refines, chain, dead) == 7


def test_denote_overview_term():
    ctx = {"three": CEDE, "seven": CEDE}
    raw = (
        "upd:y:0",
        ("rel", ("acq", ("lkp:y", ("rel", "three"), ("upd:x:1", ("upd:y:1", ("rel", "seven")))))),
    )
    d = denote("S", ctx, sterm(raw, ctx), SP)
    s11, s10 = SP.parse_store("11"), SP.parse_store("10")
    assert member(Trace(HOLD, (Transition(s11, s10), Transition(s11, s11)), CEDE, "seven"), d)


def test_denote_tr_agrees_with_direct_interpretation():
    # Tr is read in its own signature; its translation into S must give the
    # same canonical generators, and the same verdicts and witnesses
    holds = 0
    for n in (1, 2, 3):
        space = StoreSpace(("x", "y", "z")[:n])
        p = build("Tr", space)
        e_trs = builtin_translations(space)["E_TrS"]
        rng = random.Random(f"tr-direct-{n}")
        ctx = {"a": HOLD, "b": CEDE}
        s_ctx = translate_context(e_trs, ctx)
        for i in range(80):
            sort, depth = (HOLD, CEDE)[i % 2], 3 + i % 3
            t1, t2 = random_term(p, ctx, sort, depth, rng), random_term(p, ctx, sort, depth, rng)
            s1, s2 = apply_translation(e_trs, t1), apply_translation(e_trs, t2)
            assert denote("Tr", ctx, t1, space) == denote("S", s_ctx, s1, space), (n, i)
            for decide in (check_equal, check_refines):
                verdict = decide("Tr", ctx, t1, t2, space)
                assert verdict == decide("S", s_ctx, s1, s2, space), (n, i, decide.__name__)
                holds += verdict.holds
    assert 0 < holds < 480


def test_denote_B_stutter_prefix_refines_return():
    b = build("B", SP)
    ctx = {"x": STAR}
    t = check_sort(b.signature, ctx, ("tr:10:10", "x"))
    d = denote_B(ctx, t, SP)
    assert subset(d, denote_B(ctx, check_sort(b.signature, ctx, "x"), SP))


def test_denote_G_update_lookup():
    g = build("G", SP)
    ctx = {"x0": STAR, "x1": STAR}
    t1 = check_sort(g.signature, ctx, ("upd:y:0", ("lkp:y", "x0", "x1")))
    t2 = check_sort(g.signature, ctx, ("upd:y:0", "x0"))
    assert denote_G(ctx, t1, SP) == denote_G(ctx, t2, SP)
    assert check_equal("G", ctx, t1, t2, SP).holds


def test_check_equal_gtable_witness_is_trace():
    g = build("G", SP)
    ctx = {"x0": STAR, "x1": STAR}
    t1 = check_sort(g.signature, ctx, ("upd:y:0", "x0"))
    t2 = check_sort(g.signature, ctx, ("upd:y:1", "x0"))
    verdict = check_equal("G", ctx, t1, t2, SP)
    assert not verdict.holds and verdict.witness is not None


def test_check_equal_tgs_through_embedding():
    tgs = build("Tgs", SP)
    ctx = {"x": STAR}
    seq = check_sort(tgs.signature, ctx, ("tr:11:10", ("tr:10:00", "x")))
    fused = check_sort(tgs.signature, ctx, ("tr:11:00", "x"))
    assert check_equal("Tgs", ctx, seq, fused, SP).holds


# ---------------------------------------------------------------------------
# Axiom validation


@pytest.mark.parametrize("theory", ["J", "V", "G", "S", "B", "Tgs", "Tr"])
def test_axioms_validate_on_samples(theory):
    cfg = SampleConfig(seed=1, samples=3)
    report = validate_axioms(theory, cfg, SP, SMALL)
    assert report.passed, report.format()


def test_corrupted_fuse_fails_with_witness():
    x = Var("x", HOLD)
    rel_acq = app(SIG, "rel", app(SIG, "acq", x))
    lhs, rhs = encode_inequation(SIG, rel_acq, x, "le")
    bad = AxiomInstance("Fuse-flipped", (("x", HOLD),), lhs, rhs)
    report = _validate_instances("S", [bad], SampleConfig(seed=0, samples=20), SP, "mutation")
    assert not report.passed


def test_distributivity_validates_on_samples():
    report = validate_distributivity("S", SampleConfig(seed=2, samples=2), SP, SMALL)
    assert report.passed, report.format()


def test_translation_validity_all_builtins():
    cfg = SampleConfig(seed=3, samples=2)
    for name in ("E", "E_G", "E_Tgs", "E_Tr", "E_TrS", "E_STr", "E_BS"):
        report = validate_translation(name, cfg, SP, SMALL)
        assert report.passed, f"{name}:\n{report.format()}"


def test_monotonicity_consequence_on_samples():
    # refinements survive wrapping in any operator position
    from tracealg.kernel import App, join

    p = build("S", SP)
    rng = random.Random(77)
    ctx = {"a": HOLD, "b": CEDE}
    for _ in range(40):
        sort = rng.choice((HOLD, CEDE))
        small = random_term(p, ctx, sort, 2, rng)
        extra = random_term(p, ctx, sort, 2, rng)
        big = join(SIG, sort, (small, extra))
        assert check_refines("S", ctx, small, big, SP).holds
        ops = [op for op in SIG.operators.values() if not op.variadic]
        op = rng.choice(ops)
        for pos, want in enumerate(op.args):
            if want is not sort:
                continue
            others = [random_term(p, ctx, s, 1, rng) for s in op.args]

            def wrap(hole):
                args = tuple(hole if i == pos else others[i] for i in range(len(op.args)))
                return App(op.name, args, op.result)

            assert check_refines("S", ctx, wrap(small), wrap(big), SP).holds


def test_same_read_intro_refuted():
    # successive reads can see different values, a single read cannot
    ctx = {f"x{i}{j}": CEDE for i in (0, 1) for j in (0, 1)}

    def read(loc, t0, t1):
        return ("acq", (f"lkp:{loc}", ("rel", t0), ("rel", t1)))

    lhs = sterm(read("y", read("y", "x00", "x01"), read("y", "x10", "x11")), ctx)
    rhs = sterm(read("y", "x00", "x11"), ctx)
    verdict = check_refines("S", ctx, lhs, rhs, SP)
    assert not verdict.holds
    assert verdict.witness.value in ("x01", "x10")


# ---------------------------------------------------------------------------
# Cross-model checks


def test_cross_check_G_examples():
    g = build("G", SP)
    ctx = {"x0": STAR}
    assert cross_check_G(check_sort(g.signature, ctx, ("upd:x:1", "x0")), ctx, SP)
    assert cross_check_G(check_sort(g.signature, ctx, ("or",)), ctx, SP)


def test_cross_check_G_random_terms():
    g = build("G", SP)
    rng = random.Random(21)
    ctx = {"a": STAR, "b": STAR}
    for _ in range(50):
        t = random_term(g, ctx, STAR, 4, rng)
        assert cross_check_G(t, ctx, SP)


def test_roundtrip_smoke():
    cfg = SampleConfig(seed=4, samples=5)
    for pair in ("Tgs~G", "Tr~S"):
        report = check_roundtrip(pair, cfg, SP)
        assert report.passed, report.format()


def test_representation_examples():
    t = sterm(("acq", ("upd:y:0", ("rel", ("acq", ("upd:x:1", ("rel", "x")))))))
    assert check_representation(t, X_CEDE, SP)
    assert check_representation(IRIE, X_CEDE, SP)


def test_representation_random_terms():
    p = build("S", SP)
    rng = random.Random(22)
    ctx = {"a": HOLD, "b": CEDE}
    for _ in range(25):
        t = random_term(p, ctx, rng.choice((HOLD, CEDE)), 4, rng)
        assert check_representation(t, ctx, SP)


def test_read_encoding_matches_brookes_read():
    from tracealg import BrookesAlgebra, embed_cede

    b = BrookesAlgebra(SP)
    ctx = {"x0": CEDE, "x1": CEDE}
    for loc_name, loc in (("x", 0), ("y", 1)):
        encoded = sterm(("acq", (f"lkp:{loc_name}", ("rel", "x0"), ("rel", "x1"))), ctx)
        lhs = denote("S", ctx, encoded, SP)
        rhs = embed_cede(b.read(loc, b.unit("x0"), b.unit("x1")))
        assert equal(lhs, rhs)


def test_write_encoding_matches_brookes_write():
    from tracealg import BrookesAlgebra, embed_cede

    b = BrookesAlgebra(SP)
    for loc_name, loc in (("x", 0), ("y", 1)):
        for bit in (0, 1):
            encoded = sterm(("acq", (f"upd:{loc_name}:{bit}", ("rel", "x"))))
            lhs = denote("S", X_CEDE, encoded, SP)
            rhs = embed_cede(b.write(loc, bit, b.unit("x")))
            assert equal(lhs, rhs)


def test_strictness_of_every_operator():
    # in every theory's free model, applying any operator to empty elements
    # yields the empty element; Tgs is read through E_G, each operator as
    # its image in G.  An operator of a kind the model lacks is refused.
    from tracealg import GTable, Operator, brookes_set

    for space in (StoreSpace(("x",)), StoreSpace(("x", "y")), StoreSpace(("x", "y", "z"))):
        no_rows = GTable((frozenset(),) * len(space.stores))
        no_traces = lambda sort: sorted_set(sort, [])
        models = {
            "S": (TraceAlgebra(space), no_traces),
            "Tr": (TraceAlgebra(space, build("Tr", space).signature), no_traces),
            "B": (BrookesAlgebra(space), lambda sort: brookes_set([])),
            "G": (GTableAlgebra(space), lambda sort: no_rows),
            "Tgs": (GTableAlgebra(space), lambda sort: no_rows),
            "J": (SetAlgebra(build("J", space).signature), lambda sort: frozenset()),
            "V": (SetAlgebra(build("V", space).signature), lambda sort: frozenset()),
        }
        assert set(models) == set(THEORY_NAMES)
        e_g = builtin_translations(space)["E_G"]
        for theory, (alg, empty) in models.items():
            for op in build(theory, space).signature.operators.values():
                for arity in (0, 1, 2) if op.variadic else (len(op.args),):
                    scheme = op.scheme(arity)
                    if theory == "Tgs":
                        env = {f"x{i}": empty(s) for i, s in enumerate(scheme)}
                        got = evaluate(alg, env, e_g.image(op.name, arity))
                    else:
                        got = alg.apply(op, tuple(empty(s) for s in scheme))
                    assert got == empty(op.result), (theory, op.name, arity)
            sort = next(iter(alg.signature.sorts))
            odd = Operator("frob", sort, (sort,), kind="frobnicate")
            with pytest.raises(NotImplementedError, match=f"{type(alg).__name__} .*frobnicate.*frob"):
                alg.apply(odd, (empty(sort),))


# ---------------------------------------------------------------------------
# Experiments


def test_nogo2_small_depth():
    report = run_nogo2(2, SP)
    assert report.passed, report.format()


def test_nogo3_small():
    report = run_nogo3(SampleConfig(seed=5, samples=15), SP)
    assert report.passed, report.format()


# ---------------------------------------------------------------------------
# Sampling


def test_random_closed_set_deterministic():
    cfg = SampleConfig(seed=9, gens=(1, 3), length=(1, 2))
    a = random_closed_set(SP, HOLD, {"v": CEDE}, cfg)
    b = random_closed_set(SP, HOLD, {"v": CEDE}, cfg)
    assert a == b


def test_random_closed_set_empty_when_no_generators():
    cfg = SampleConfig(seed=9, gens=(0, 0))
    assert random_closed_set(SP, HOLD, {"v": CEDE}, cfg).is_empty()


def test_random_closed_set_invariants():
    rng = random.Random(23)
    cfg = SampleConfig(gens=(0, 4), length=(1, 3))
    for _ in range(50):
        K = random_closed_set(SP, CEDE, {"u": HOLD, "v": CEDE}, cfg, rng)
        for g in K.generators:
            assert g.steps
            assert g.start is CEDE


# ---------------------------------------------------------------------------
# The theory table against the per-theory dispatch it replaced


class TranslatedAlgebra(Algebra):
    """View an algebra for the target signature through a translation."""

    def __init__(self, translation, target):
        self.translation = translation
        self.target = target
        self.signature = translation.source.signature

    def apply(self, op, args):
        image = self.translation.image(op.name, len(args))
        env = {f"x{i}": arg for i, arg in enumerate(args)}
        return evaluate(self.target, env, image)


def denote_reference(theory, ctx, t, space):
    """Trace denotation by one hand-written branch per theory."""
    if theory == "Tr":
        trs = builtin_translations(space)["E_TrS"]
        return denote_reference("S", translate_context(trs, ctx), apply_translation(trs, t), space)
    if theory == "S":
        env = {name: unit(space, sort, name) for name, sort in ctx.items()}
        return canonicalize(evaluate(TraceAlgebra(space), env, t))
    if theory == "B":
        alg = BrookesAlgebra(space)
        return canonicalize(evaluate(alg, {name: alg.unit(name) for name in ctx}, t))
    if theory == "G":
        env = {name: variable_gtable(space, name) for name in ctx}
        return gtable_to_traceset(space, evaluate(GTableAlgebra(space), env, t))
    if theory == "Tgs":
        eg = builtin_translations(space)["E_G"]
        return denote_reference("G", translate_context(eg, ctx), apply_translation(eg, t), space)
    raise AssertionError(theory)


def instance_checker_reference(theory, space, cfg, rng):
    """The validating model per theory; Tr and Tgs through ``TranslatedAlgebra``."""
    if theory in ("J", "V"):
        alg = SetAlgebra(build(theory, space).signature)
        pool = tuple(range(6))
        sample = lambda sort: frozenset(rng.sample(pool, rng.randint(0, 3)))
        return alg, sample, lambda a, b: a == b
    if theory == "G":
        alg = GTableAlgebra(space)
        sample = lambda sort: random_gtable(space, ("u", "v"), rng)
        return alg, sample, lambda a, b: a == b
    if theory == "Tgs":
        alg = TranslatedAlgebra(builtin_translations(space)["E_G"], GTableAlgebra(space))
        sample = lambda sort: random_gtable(space, ("u", "v"), rng)
        return alg, sample, lambda a, b: a == b
    if theory == "B":
        alg = BrookesAlgebra(space)
        sample = lambda sort: random_brookes_set(space, ("u", "v"), cfg, rng)
        return alg, sample, equal
    if theory in ("S", "Tr"):
        base = TraceAlgebra(space)
        alg = base if theory == "S" else TranslatedAlgebra(
            builtin_translations(space)["E_TrS"], base
        )
        sample = lambda sort: random_closed_set(space, sort, {"u": HOLD, "v": CEDE}, cfg, rng)
        return alg, sample, equal
    raise AssertionError(theory)


def validate_reference(theory, instances, cfg, space, title):
    rng = random.Random(cfg.seed)
    alg, sample, eq = instance_checker_reference(theory, space, cfg, rng)
    report = Report(title)
    for idx, inst in enumerate(instances):
        ok = True
        detail = ""
        for trial in range(cfg.samples):
            env = {name: sample(sort) for name, sort in inst.ctx}
            if not eq(evaluate(alg, env, inst.lhs), evaluate(alg, env, inst.rhs)):
                ok = False
                detail = f"instance {idx} fails on trial {trial}: env over {list(inst.context)}"
                break
        report.add(inst.scheme, ok, detail)
    return report


SPACES = [StoreSpace(("x",)), StoreSpace(("x", "y"))]


def _random_context(theory):
    if theory in ("S", "Tr"):
        return {"a": HOLD, "b": CEDE}, (HOLD, CEDE)
    return {"a": STAR, "b": STAR}, (STAR,)


def test_free_models_name_every_theory():
    assert tuple(FREE_MODELS) == THEORY_NAMES
    # only Tgs is read through a translation
    assert {theory for theory, (_, via) in FREE_MODELS.items() if via} == {"Tgs"}
    # the join theories have no trace model, and unknown names no model at all
    for theory in ("J", "V", "Q"):
        with pytest.raises(UnknownTheory):
            denote(theory, {"a": STAR}, Var("a", STAR), SP)


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"{len(sp.locations)}loc")
@pytest.mark.parametrize("theory", ["S", "Tr", "B", "G", "Tgs"])
def test_denote_listings_match_reference(theory, space):
    p = build(theory, space)
    ctx, sorts = _random_context(theory)
    rng = random.Random(f"denote-{theory}-{len(space.locations)}")
    for i in range(60):
        t = random_term(p, ctx, sorts[i % len(sorts)], 3 + i % 2, rng)
        got = [g.render() for g in denote(theory, ctx, t, space).ordered()]
        assert got == [g.render() for g in denote_reference(theory, ctx, t, space).ordered()], i


def _instances_with_mutants(p):
    # the axioms, their distributivity, and each axiom's lhs set against
    # bottom, so that reports carry failing rows and their trial numbers
    axioms = instantiate_axioms(p, SMALL)
    mutants = [
        AxiomInstance(f"mutant:{inst.scheme}", inst.ctx, inst.lhs, bottom(p.signature, inst.lhs.sort))
        for inst in axioms
    ]
    return axioms + distributivity_instances(p, SMALL) + mutants


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"{len(sp.locations)}loc")
@pytest.mark.parametrize("theory", THEORY_NAMES)
def test_validation_reports_match_reference(theory, space):
    instances = _instances_with_mutants(build(theory, space))
    cfg = SampleConfig(seed=6, samples=5)
    got = _validate_instances(theory, instances, cfg, space, theory)
    want = validate_reference(theory, instances, cfg, space, theory)
    assert got.rows == want.rows
    assert got.format() == want.format()
    assert not got.passed and any(row.ok for row in got.rows)


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: f"{len(sp.locations)}loc")
@pytest.mark.parametrize("theory", ["Tr", "Tgs"])
def test_translated_instances_evaluate_to_equal_values(theory, space):
    # Tr is read directly, Tgs through E_G; both translations must agree
    # with the operator-by-operator view of the base model
    base, via = {"Tr": ("S", "E_TrS"), "Tgs": ("G", "E_G")}[theory]
    tr = builtin_translations(space)[via]
    rng = random.Random(f"values-{theory}")
    alg, sample, _eq = instance_checker_reference(base, space, SampleConfig(), rng)
    view = TranslatedAlgebra(tr, alg)
    for inst in _instances_with_mutants(build(theory, space)):
        for _ in range(3):
            env = {name: sample(tr.sort_map[sort]) for name, sort in inst.ctx}
            for t in (inst.lhs, inst.rhs):
                assert evaluate(view, env, t) == evaluate(alg, env, apply_translation(tr, t))
