import random

import pytest

from tracealg import (
    CEDE,
    HOLD,
    STAR,
    App,
    ArityMismatch,
    MissingBinding,
    SortMismatch,
    UnknownOperator,
    UnknownVariable,
    Var,
    bottom,
    build,
    check_sort,
    evaluate,
    free_vars,
    identity_substitution,
    join,
    substitute,
)
from tracealg.checker import SetAlgebra, random_term
from tracealg.kernel import TermAlgebra, compose_substitutions


def test_check_sort_variable(shared):
    t = check_sort(shared.signature, {"x": CEDE}, "x")
    assert t == Var("x", CEDE)


def test_check_sort_irrelevant_read(shared):
    raw = ("acq", ("lkp:y", ("rel", "x"), ("rel", "x")))
    t = check_sort(shared.signature, {"x": CEDE}, raw)
    assert t.sort is CEDE
    assert t.op == "acq"


def test_check_sort_rejects_ceded_update_argument(shared):
    with pytest.raises(SortMismatch):
        check_sort(shared.signature, {"x": CEDE}, ("upd:y:0", "x"))


def test_check_sort_error_positions(shared):
    with pytest.raises(UnknownOperator, match="0"):
        check_sort(shared.signature, {"x": CEDE}, ("acq", ("nope", "x")))
    with pytest.raises(UnknownVariable):
        check_sort(shared.signature, {}, "ghost")
    with pytest.raises(ArityMismatch):
        check_sort(shared.signature, {"x": CEDE}, ("acq", ("rel", "x"), ("rel", "x")))


def test_check_sort_resolves_join_alias_by_expectation(shared):
    t = check_sort(shared.signature, {"x": CEDE}, ("acq", ("rel", ("or",))))
    rel = t.args[0]
    assert rel.args[0] == App("or@cede", (), CEDE)


def test_check_sort_bare_empty_join_is_ambiguous_in_two_sorted(shared):
    with pytest.raises(SortMismatch):
        check_sort(shared.signature, {}, ("or",))


def test_check_sort_bare_empty_join_single_sorted():
    g = build("G")
    assert check_sort(g.signature, {}, ("or",)) == App("or", (), STAR)


def test_substitute_neutrality_instance():
    sig = build("J").signature
    z, y, x = Var("z", STAR), Var("y", STAR), Var("x", STAR)
    lhs = join(sig, STAR, (z, y))
    theta = {"z": join(sig, STAR, (x, bottom(sig, STAR))), "y": y}
    assert substitute(lhs, theta) == join(
        sig, STAR, (join(sig, STAR, (x, bottom(sig, STAR))), y)
    )


def test_substitute_identity(shared):
    raw = ("acq", ("lkp:y", ("rel", "x"), ("rel", "x")))
    t = check_sort(shared.signature, {"x": CEDE}, raw)
    assert substitute(t, identity_substitution({"x": CEDE})) == t


def test_substitute_structural_replacement(shared):
    sig = shared.signature
    ctx = {"y": CEDE}
    outer = check_sort(sig, ctx, ("acq", ("rel", "y")))
    image = check_sort(sig, ctx, ("acq", ("upd:x:1", ("rel", "y"))))
    expected = check_sort(sig, ctx, ("acq", ("rel", ("acq", ("upd:x:1", ("rel", "y"))))))
    assert substitute(outer, {"y": image}) == expected


def test_substitute_errors(shared):
    t = check_sort(shared.signature, {"x": CEDE}, ("acq", ("rel", "x")))
    with pytest.raises(MissingBinding):
        substitute(t, {})
    with pytest.raises(SortMismatch):
        substitute(t, {"x": Var("x", HOLD)})


def test_substitution_composition_on_random_terms():
    p = build("G")
    rng = random.Random(7)
    ctx = {"a": STAR, "b": STAR}
    for _ in range(60):
        t = random_term(p, ctx, STAR, 3, rng)
        theta = {
            "a": random_term(p, ctx, STAR, 2, rng),
            "b": random_term(p, ctx, STAR, 2, rng),
        }
        theta2 = {
            "a": random_term(p, ctx, STAR, 2, rng),
            "b": random_term(p, ctx, STAR, 2, rng),
        }
        assert substitute(substitute(t, theta), theta2) == substitute(
            t, compose_substitutions(theta, theta2)
        )


def test_evaluate_powerset_choice_is_union():
    v = build("V")
    alg = SetAlgebra(v.signature)
    x, y = Var("x", STAR), Var("y", STAR)
    t = join(v.signature, STAR, (x, y))
    out = evaluate(alg, {"x": frozenset({1}), "y": frozenset({2})}, t)
    assert out == frozenset({1, 2})


def test_evaluate_variable_case():
    v = build("V")
    alg = SetAlgebra(v.signature)
    assert evaluate(alg, {"x": frozenset({3})}, Var("x", STAR)) == frozenset({3})
    with pytest.raises(MissingBinding):
        evaluate(alg, {}, Var("x", STAR))


def test_term_algebra_evaluation_is_substitution(shared):
    sig = shared.signature
    ctx = {"x": CEDE}
    t = check_sort(sig, ctx, ("acq", ("lkp:y", ("rel", "x"), ("rel", "x"))))
    theta = {"x": check_sort(sig, ctx, ("acq", ("upd:x:1", ("rel", "x"))))}
    alg = TermAlgebra(sig)
    assert evaluate(alg, theta, t) == substitute(t, theta)
    assert evaluate(alg, identity_substitution(ctx), t) == t


def test_term_algebra_constructor_case():
    p = build("G")
    sig = p.signature
    alg = TermAlgebra(sig)
    rng = random.Random(3)
    ctx = {"a": STAR, "b": STAR}
    for _ in range(30):
        t1 = random_term(p, ctx, STAR, 2, rng)
        t2 = random_term(p, ctx, STAR, 2, rng)
        theta = {
            "a": random_term(p, ctx, STAR, 1, rng),
            "b": random_term(p, ctx, STAR, 1, rng),
        }
        lifted = App("lkp:x", (t1, t2), STAR)
        assert evaluate(alg, theta, lifted) == App(
            "lkp:x", (substitute(t1, theta), substitute(t2, theta)), STAR
        )


def test_evaluation_is_homomorphic_on_samples(space, alg):
    # applying an operation to evaluated arguments equals evaluating the
    # application, by construction; spot-check through the trace model
    from tracealg import equal, unit

    sig = build("S", space).signature
    env = {"x": unit(space, CEDE, "x")}
    inner = check_sort(sig, {"x": CEDE}, ("rel", "x"))
    outer = check_sort(sig, {"x": CEDE}, ("acq", ("rel", "x")))
    direct = evaluate(alg, env, outer)
    staged = alg.acquire(evaluate(alg, env, inner))
    assert equal(direct, staged)


def test_free_vars(shared):
    t = check_sort(shared.signature, {"x": CEDE, "y": CEDE}, ("lkp:y", ("rel", "x"), ("rel", "y")))
    assert free_vars(t) == {"x": CEDE, "y": CEDE}


def test_join_op_table_matches_an_operator_scan():
    from tracealg import Operator, Signature
    from tracealg.theories import THEORY_NAMES

    for name in THEORY_NAMES:
        sig = build(name).signature
        for sort in (HOLD, CEDE, STAR):
            scan = [op for op in sig.operators.values() if op.kind == "join" and op.result is sort]
            assert sig.join_op(sort) == (scan[0] if scan else None)
    # the derived table takes no part in equality or the repr
    ops = {"or": Operator("or", STAR, (STAR,), variadic=True, kind="join")}
    one, two = Signature(frozenset({STAR}), ops), Signature(frozenset({STAR}), dict(ops))
    assert one == two and "_joins" not in repr(one)


def test_bottom_is_one_shared_term_per_sort_and_folds_once(shared, space):
    from tracealg.theories import cell_assert_term

    sig = shared.signature
    for sort in (HOLD, CEDE):
        assert bottom(sig, sort) is bottom(sig, sort)
        assert bottom(sig, sort) == join(sig, sort, ())
        assert repr(bottom(sig, sort)) == repr(join(sig, sort, ()))
    with pytest.raises(SortMismatch):
        bottom(sig, STAR)
    x = Var("x", HOLD)
    t = join(sig, HOLD, tuple(cell_assert_term(sig, space, loc, 1, x) for loc in (0, 1)))
    assert t.args[0].args[0] is t.args[1].args[0] is bottom(sig, HOLD)

    calls = []

    class Counting(TermAlgebra):
        def apply(self, op, args):
            calls.append(op.name)
            return super().apply(op, args)

    assert evaluate(Counting(sig), {"x": x}, t) == t
    assert calls.count("or@hold") == 2  # the bottom once, the outer join once


def test_bottom_of_a_fixed_arity_join_is_an_arity_error():
    from tracealg import Operator, Signature

    # a hand-built signature whose join takes two arguments has no empty join
    ops = {"or2": Operator("or2", STAR, (STAR, STAR), kind="join")}
    sig = Signature(frozenset({STAR}), ops)
    with pytest.raises(ArityMismatch):
        bottom(sig, STAR)
