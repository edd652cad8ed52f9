import hashlib

import pytest

from tracealg import (
    CEDE,
    HOLD,
    STAR,
    App,
    StoreSpace,
    Var,
    app,
    bottom,
    build,
    builtin_translations,
    check_sort,
    instantiate_axioms,
    join,
)
from tracealg.theories import (
    THEORY_NAMES,
    Bounds,
    TranslationMismatch,
    UnknownTheory,
    apply_translation,
    cell_assert_term,
    compose,
    distributivity_instances,
    encode_inequation,
    identity_translation,
    open_transition_term,
)


def scheme_names(p):
    return [s.name for s in p.schemes]


def instances_of(p, scheme, bounds=Bounds()):
    return [i for i in instantiate_axioms(p, bounds) if i.scheme == scheme]


def test_shared_state_signature_shape(shared):
    acq = shared.signature.operators["acq"]
    rel = shared.signature.operators["rel"]
    assert (acq.result, acq.args) == (CEDE, (HOLD,))
    assert (rel.result, rel.args) == (HOLD, (CEDE,))


def test_join_semilattice_axioms():
    assert scheme_names(build("J")) == [
        "Associativity",
        "Commutativity",
        "Idempotency",
        "Neutrality",
    ]


def test_transition_theory_has_sixteen_transitions(space):
    b = build("B", space)
    transitions = [o for o in b.signature.operators.values() if o.kind == "transition"]
    assert len(transitions) == len(space.stores) ** 2 == 16


def test_unknown_theory():
    with pytest.raises(UnknownTheory):
        build("Q")


def test_update_lookup_instance_shape(space):
    g = build("G", space)
    sig = g.signature
    wanted = [
        i for i in instances_of(g, "UL") if i.lhs.op == "upd:y:0"
    ]
    assert len(wanted) == 1
    inst = wanted[0]
    assert inst.context == {"x0": STAR, "x1": STAR}
    lkp = check_sort(sig, inst.context, ("upd:y:0", ("lkp:y", "x0", "x1")))
    assert inst.lhs == lkp
    assert inst.rhs == check_sort(sig, inst.context, ("upd:y:0", "x0"))


def test_empty_axiom_instance(shared):
    (inst,) = instances_of(shared, "Empty")
    assert inst.context == {"y": CEDE}
    assert inst.lhs == check_sort(shared.signature, {"y": CEDE}, ("acq", ("rel", "y")))
    assert inst.rhs == Var("y", CEDE)


def test_hoover_instance_is_inequation_encoding(space):
    b = build("B", space)
    (inst,) = instances_of(b, "H")
    x = Var("x", STAR)
    big = join(
        b.signature,
        STAR,
        tuple(app(b.signature, f"tr:{s.render()}:{s.render()}", x) for s in space.stores),
    )
    assert len(big.args) == len(space.stores) == 4
    assert inst.lhs == big
    assert inst.rhs == join(b.signature, STAR, (big, x))


def test_fuse_encoding(shared):
    sig = shared.signature
    x = Var("x", HOLD)
    rel_acq = app(sig, "rel", app(sig, "acq", x))
    assert encode_inequation(sig, rel_acq, x, "ge") == (
        rel_acq,
        join(sig, HOLD, (rel_acq, x)),
    )


def test_le_encoding_trivial_case(shared):
    sig = shared.signature
    x = Var("x", CEDE)
    assert encode_inequation(sig, x, x, "le") == (join(sig, CEDE, (x, x)), x)


def test_mumble_encoding(space):
    b = build("B", space)
    sig = b.signature
    x = Var("x", STAR)
    lhs = check_sort(sig, {"x": STAR}, ("tr:11:10", ("tr:10:00", "x")))
    rhs = check_sort(sig, {"x": STAR}, ("tr:11:00", "x"))
    assert encode_inequation(sig, lhs, rhs, "ge") == (lhs, join(sig, STAR, (lhs, rhs)))


def test_squash_instances_enumerate_surjections():
    v = build("V")
    insts = instances_of(v, "ND-squash", Bounds(max_squash=2))
    # the flattening of two singletons onto two variables without repetition
    ctx = {"x0_0": STAR, "x1_0": STAR}
    matching = [
        i
        for i in insts
        if i.context == ctx and len(i.rhs.args) == 2 and i.rhs.args[0] != i.rhs.args[1]
    ]
    assert len(matching) == 2  # the two bijections


def test_translate_transition_into_delimited_open_transition(space):
    e_tr = builtin_translations(space)["E_Tr"]
    b = build("B", space)
    t = check_sort(b.signature, {"x": STAR}, ("tr:11:10", "x"))
    image = apply_translation(e_tr, t)
    tr_sig = build("Tr", space).signature
    assert image == check_sort(tr_sig, {"x": CEDE}, ("acq", ("tr:11:10", ("rel", "x"))))


def test_translate_transition_to_open_transition_term(space):
    e_g = builtin_translations(space)["E_G"]
    g = build("G", space)
    s11, s10 = space.parse_store("11"), space.parse_store("10")
    assert e_g.image("tr:11:10", 1) == open_transition_term(
        g.signature, space, s11, s10, Var("x0", STAR)
    )


def test_translate_global_state_into_hold_copy(space):
    e = builtin_translations(space)["E"]
    g = build("G", space)
    t = check_sort(g.signature, {"x": STAR}, ("upd:y:0", "x"))
    assert apply_translation(e, t) == check_sort(
        build("S", space).signature, {"x": HOLD}, ("upd:y:0", "x")
    )


def test_translate_lookup_into_transition_join(space):
    e_tgs = builtin_translations(space)["E_Tgs"]
    g = build("G", space)
    t = check_sort(g.signature, {"x0": STAR, "x1": STAR}, ("lkp:y", "x0", "x1"))
    image = apply_translation(e_tgs, t)
    assert image.op == "or"
    assert len(image.args) == len(space.stores)
    for branch, store in zip(image.args, space.stores):
        assert branch.op == f"tr:{store.render()}:{store.render()}"
        assert branch.args[0] == Var(f"x{store.get(1)}", STAR)


def test_open_transition_term_order(space):
    # with locations (x, y): assert x then y, update x then y
    sig = build("S", space).signature
    s11 = space.parse_store("11")
    s10 = space.parse_store("10")
    t = open_transition_term(sig, space, s11, s10, Var("x0", HOLD))
    raw = (
        "lkp:x",
        ("or@hold",),
        (
            "lkp:y",
            ("or@hold",),
            ("upd:x:1", ("upd:y:0", "x0")),
        ),
    )
    assert t == check_sort(sig, {"x0": HOLD}, raw)


def test_delimited_open_transition_expansion(space):
    e_bs = builtin_translations(space)["E_BS"]
    b = build("B", space)
    sig = build("S", space).signature
    t = check_sort(b.signature, {"x": STAR}, ("tr:11:10", "x"))
    image = apply_translation(e_bs, t)
    expected_raw = (
        "acq",
        (
            "lkp:x",
            ("or@hold",),
            (
                "lkp:y",
                ("or@hold",),
                ("upd:x:1", ("upd:y:0", ("rel", "x"))),
            ),
        ),
    )
    assert image == check_sort(sig, {"x": CEDE}, expected_raw)


def test_cell_assert_shape(space):
    sig = build("S", space).signature
    body = Var("x", HOLD)
    assert cell_assert_term(sig, space, 1, 0, body) == app(
        sig, "lkp:y", body, bottom(sig, HOLD)
    )
    assert cell_assert_term(sig, space, 1, 1, body) == app(
        sig, "lkp:y", bottom(sig, HOLD), body
    )


def test_compose_with_identity(space):
    e_tgs = builtin_translations(space)["E_Tgs"]
    loop = compose(e_tgs, identity_translation(build("Tgs", space)))
    g = build("G", space)
    for name in ("upd:x:0", "lkp:y"):
        op = g.signature.operators[name]
        term = App(name, tuple(Var(f"x{i}", STAR) for i in range(len(op.args))), STAR)
        assert apply_translation(loop, term) == apply_translation(e_tgs, term)


def test_compose_mismatch(space):
    trs = builtin_translations(space)
    with pytest.raises(TranslationMismatch):
        compose(trs["E_Tgs"], trs["E_TrS"])


def test_translation_sort_maps(space):
    trs = builtin_translations(space)
    assert trs["E_Tr"].sort_map == {STAR: CEDE}
    assert trs["E_BS"].sort_map == {STAR: CEDE}
    assert trs["E"].sort_map == {STAR: HOLD}


def test_shared_ops_translate_to_themselves(space):
    e_str = builtin_translations(space)["E_STr"]
    tr_sig = build("Tr", space).signature
    assert e_str.image("acq", 1) == app(tr_sig, "acq", Var("x0", HOLD))
    assert e_str.image("rel", 1) == app(tr_sig, "rel", Var("x0", CEDE))


def test_distributivity_instances_cover_all_positions(shared):
    insts = distributivity_instances(shared, Bounds(max_join_arity=2))
    names = {i.scheme for i in insts}
    assert "dist:acq@0/1" in names
    assert "dist:rel@0/1" in names
    assert "dist:lkp:x@1/2" in names
    assert "dist:upd:y:1@0/1" in names
    assert "dist:or@hold@0/2" in names
    for inst in insts:
        assert inst.lhs.sort is inst.rhs.sort


# sha256 of the listing below, recorded from the per-operator translation
# tables and per-scheme instance lists that the image rules and row
# generators replaced; any change to an instance or an image changes it.
THEORY_DIGEST = "2354fc6f48631b6189a40929233e74bb80f1a710f4748fd09db6bc5dfaff6e89"


def _image_lines(tr):
    for op in sorted(tr.source.signature.operators.values(), key=lambda o: o.name):
        for arity in range(4) if op.variadic else [len(op.args)]:
            yield f"{tr.name} {op.name}/{arity} {tr.image(op.name, arity)!r}"


def _theory_lines():
    for locs in (("x",), ("x", "y")):
        space = StoreSpace(locs)
        for name in THEORY_NAMES:
            p = build(name, space)
            yield from map(repr, instantiate_axioms(p, Bounds()))
            yield from map(repr, distributivity_instances(p, Bounds()))
            yield from _image_lines(identity_translation(p))
        trs = builtin_translations(space)
        for name in sorted(trs):
            yield from _image_lines(trs[name])
        for a, b in (("E_Tgs", "E_G"), ("E_G", "E_Tgs"), ("E_STr", "E_TrS"), ("E_TrS", "E_STr")):
            yield from _image_lines(compose(trs[a], trs[b]))


def test_axioms_and_translation_images_match_recorded_digest():
    # every axiom and distributivity instance, and every operator image of the
    # built-in, identity and round-trip translations, byte for byte
    h = hashlib.sha256()
    count = 0
    for line in _theory_lines():
        h.update(line.encode() + b"\n")
        count += 1
    assert (count, h.hexdigest()) == (4913, THEORY_DIGEST)
