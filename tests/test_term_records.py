"""Terms as tuples and the hand-written records, against what they were.

The frozen-dataclass ``Var`` and ``App`` (``app_reference``) fix the hash,
repr and equality the tuple terms keep; a table fixes each record's
equality, hash, repr, mutability and construction checks.
"""

import copy
import pickle
import random
import subprocess
import sys

import pytest
from app_reference import RefApp, RefVar

from tracealg import App, StoreSpace, Trace, Transition, Var, build
from tracealg.checker import Report, ReportRow, SampleConfig, Verdict, random_term
from tracealg.cli import TermFile
from tracealg.kernel import CEDE, HOLD, STAR, Operator, Signature, UnknownOperator, check_sort
from tracealg.model import GTable, reify_trace
from tracealg.store import Store
from tracealg.theories import (
    THEORY_NAMES,
    AxiomInstance,
    AxiomScheme,
    Bounds,
    Presentation,
    Translation,
    builtin_translations,
)


def to_ref(t):
    if isinstance(t, Var):
        return RefVar(t.name, t.sort)
    return RefApp(t.op, tuple(to_ref(a) for a in t.args), t.sort)


def deep(depth, leaf):
    """``(acq (rel …))`` pairs ``depth`` deep around ``leaf``, by ``check_sort``."""
    raw = leaf
    for _ in range(depth):
        raw = ("acq", ("rel", raw))
    return check_sort(build("S").signature, {"x": CEDE, "y": CEDE}, raw)


def sample_terms():
    rng = random.Random(22)
    for theory in THEORY_NAMES:
        p = build(theory)
        ctx = {f"{s.value}{i}": s for s in p.signature.sorts for i in (0, 1)}
        for sort in sorted(p.signature.sorts, key=str):
            for _ in range(12):
                yield random_term(p, ctx, sort, 3, rng)
    space = StoreSpace()
    for steps in [((0, 3),), ((1, 1), (2, 0)), ((3, 2), (2, 2), (0, 1))]:
        ts = tuple(Transition(space.stores[a], space.stores[b]) for a, b in steps)
        for start in (HOLD, CEDE):
            for vsort in (HOLD, CEDE):
                yield reify_trace(space, Trace(start, ts, vsort, "v"))


def test_deep_terms_compare_hash_and_print():
    a, b, c = deep(20_000, "x"), deep(20_000, "x"), deep(20_000, "y")
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert repr(a) == repr(b) and repr(a).count("App(op='acq'") == 20_000
    with pytest.raises(TypeError):
        a < b  # noqa: B015


def test_terms_agree_with_the_dataclass_terms():
    terms = list(sample_terms())
    refs = [to_ref(t) for t in terms]
    for t, r in zip(terms, refs):
        assert hash(t) == hash(r) and repr(t) == repr(r).replace("Ref", "")
    for i in range(0, len(terms), 7):
        for j in range(len(terms)):
            assert (terms[i] == terms[j]) == (refs[i] == refs[j])
            assert (terms[i] != terms[j]) == (refs[i] != refs[j])


def test_terms_are_not_their_fields():
    x = Var("x", HOLD)
    t = App("rel", (x,), CEDE)
    assert x != ("x", HOLD) and ("x", HOLD) != x and t != ("rel", (x,), CEDE)
    assert x != App("x", (), HOLD) and {x: 1}.get(("x", HOLD)) is None
    for bad in (t, x):
        with pytest.raises(UnknownOperator, match="malformed node"):
            check_sort(build("S").signature, {"x": HOLD}, bad)
        with pytest.raises(TypeError):
            bad <= ("x",)  # noqa: B015
        with pytest.raises(AttributeError):
            bad.sort = HOLD
        assert pickle.loads(pickle.dumps(bad)) == bad and copy.copy(bad) == bad


SPACE = StoreSpace()
SIG = build("S").signature
E = builtin_translations()["E"]
OP = Operator("f", STAR, (STAR,))
# (record, an equal record, one that differs in a compared field, its repr,
#  whether it is frozen, and constructions that its checks refuse)
RECORDS = [
    (OP, Operator("f", STAR, (STAR,)), Operator("g", STAR, (STAR,)),
     "Operator(name='f', result=Sort.STAR, args=(Sort.STAR,), variadic=False, kind='plain', params=())",
     True, [lambda: Operator("j", STAR, (), variadic=True)]),
    (Signature(frozenset({STAR}), {"f": OP}), Signature(frozenset({STAR}), {"f": OP}, {}),
     Signature(frozenset({STAR}), {}), None, True,
     [lambda: Signature(frozenset(), {"f": OP}), lambda: Signature(frozenset({STAR}), {"g": OP}),
      lambda: Signature(frozenset({STAR}), {"f": OP}, {"a": ("f", "f")}),
      lambda: Signature(frozenset({STAR}), {"f": OP}, {"a": ("h",)})]),
    (StoreSpace(("a",)), StoreSpace(("a",)), StoreSpace(("b",)), "StoreSpace(locations=('a',))",
     True, [lambda: StoreSpace(()), lambda: StoreSpace(("a", "a"))]),
    (Bounds(), Bounds(4, 3), Bounds(2), "Bounds(max_join_arity=4, max_squash=3)", True, []),
    (AxiomInstance("s", (("x", STAR),), Var("x", STAR), Var("x", STAR)),
     AxiomInstance("s", (("x", STAR),), Var("x", STAR), Var("x", STAR)),
     AxiomInstance("t", (("x", STAR),), Var("x", STAR), Var("x", STAR)),
     "AxiomInstance(scheme='s', ctx=(('x', Sort.STAR),), lhs=Var(name='x', sort=Sort.STAR), "
     "rhs=Var(name='x', sort=Sort.STAR))", True, []),
    (AxiomScheme("s", len), AxiomScheme("s", abs), AxiomScheme("t", len),
     "AxiomScheme(name='s', rows=<built-in function len>)", True, []),
    (build("S"), Presentation("S", SPACE, SIG, ()), Presentation("T", SPACE, SIG, ()), None, True, []),
    (E, Translation("E", E.source, E.target, dict(E.sort_map), {}),
     Translation("F", E.source, E.target, E.sort_map, {}), None, True, []),
    (Verdict(True), Verdict(True, None, ""), Verdict(True, direction="<="),
     "Verdict(holds=True, witness=None, direction='')", True, [lambda: Verdict(False)]),
    (SampleConfig(), SampleConfig(0, 100, (0, 3), (1, 2)), SampleConfig(seed=1),
     "SampleConfig(seed=0, samples=100, gens=(0, 3), length=(1, 2))", True,
     [lambda: SampleConfig(samples=0), lambda: SampleConfig(gens=(-1, 2)),
      lambda: SampleConfig(length=(0, 2))]),
    (GTable((frozenset({("v", Store((0,)))}),)), GTable((frozenset({("v", Store((0,)))}),)),
     GTable((frozenset(),)), "GTable(rows=(frozenset({('v', Store(bits=(0,)))}),))", True, []),
    (ReportRow("r", True), ReportRow("r", True, ""), ReportRow("r", False),
     "ReportRow(name='r', ok=True, detail='')", False, []),
    (Report("t"), Report("t", []), Report("t", [ReportRow("r", True)]),
     "Report(title='t', rows=[])", False, []),
    (TermFile(build("S"), {}, {}), TermFile(build("S"), {}, {}), TermFile(build("G"), {}, {}),
     None, False, []),
]


@pytest.mark.parametrize("rec, same, other, text, frozen, refused", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_semantics(rec, same, other, text, frozen, refused):
    assert rec == same and not rec != same and rec != other and rec != object()
    if text is not None:
        assert repr(rec) == text
    assert repr(rec).startswith(f"{type(rec).__name__}(")
    if frozen:
        key = tuple(getattr(rec, name) for name in type(rec)._compared)
        try:
            assert hash(rec) == hash(same) == hash(key)
        except TypeError:  # a dict among the compared fields
            with pytest.raises(TypeError):
                hash(key)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(rec, type(rec)._fields[0], None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(rec, type(rec)._fields[0])
        assert copy.copy(rec) == rec
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(rec)
        for field in type(rec)._fields:
            setattr(same, field, getattr(other, field))
        assert same == other
    for make in refused:
        with pytest.raises(ValueError):
            make()


def test_import_loads_no_dataclasses():
    code = (
        "import sys, tracealg, tracealg.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
