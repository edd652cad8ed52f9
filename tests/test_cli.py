import json
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tracealg import (
    CEDE,
    HOLD,
    STAR,
    App,
    StoreSpace,
    TermError,
    Var,
    build,
    builtin_translations,
    check_sort,
)
from tracealg.cli import (
    ParseError,
    _parse_sexpr,
    _tokenize,
    main,
    parse_file,
    parse_term,
    term_to_sexpr,
)

EX17 = """\
# transformations over one ceded variable
theory S
locs x y
var x : cede
def irie_lhs = (acq (lkp y (rel x) (rel x)))
def irie_rhs = x
def twice = (acq (upd x 0 (rel (acq (upd x 1 (rel x))))))
def once  = (acq (upd x 1 (rel x)))
def bottom = (acq (upd x 1 (rel (or))))
"""

OVERVIEW = """\
theory S
var 3 : cede
var 7 : cede
def t = (upd y 0 (rel (acq (lkp y (rel 3) (upd x 1 (upd y 1 (rel 7)))))))
"""

BFILE = """\
theory B
var x : star
def step = (tr 11 10 x)
def still = (tr 10 10 x)
def ret = x
"""


@pytest.fixture
def ex17(tmp_path):
    path = tmp_path / "ex17.talg"
    path.write_text(EX17)
    return str(path)


@pytest.fixture
def overview(tmp_path):
    path = tmp_path / "overview.talg"
    path.write_text(OVERVIEW)
    return str(path)


@pytest.fixture
def bfile(tmp_path):
    path = tmp_path / "b.talg"
    path.write_text(BFILE)
    return str(path)


def test_parse_file_elaborates_terms(ex17):
    tf = parse_file(ex17)
    assert tf.theory.name == "S"
    assert tf.ctx == {"x": CEDE}
    expected = check_sort(
        tf.theory.signature, tf.ctx, ("acq", ("lkp:y", ("rel", "x"), ("rel", "x")))
    )
    assert tf.terms["irie_lhs"] == expected


def test_parse_bot_keyword():
    g = build("G")
    assert parse_term("bot", g, {}) == check_sort(g.signature, {}, ("or",))


def test_parse_transition_under_B(bfile):
    tf = parse_file(bfile)
    b = build("B")
    assert tf.terms["step"] == check_sort(b.signature, {"x": STAR}, ("tr:11:10", "x"))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.talg"
    path.write_text("theory S\nvar x : cede\ndef t = (upd z 0 x)\n")
    with pytest.raises(ParseError) as err:
        parse_file(str(path))
    assert err.value.line == 3
    assert "z" in str(err.value)


@pytest.mark.parametrize(
    "text, line",
    [
        ("theory S\nvar x : cede\n\ndef t = (acq (rel z))\n", 4),
        ("theory S\nvar x : cede\ndef t = (acq x)\n", 3),
        ("theory S\nlocs x y x\nvar x : cede\ndef t = x\n", 2),
        ("theory S\nvar bot : cede\ndef t = (acq (rel bot))\n", 2),
        ("theory S\nvar (x : cede\ndef t = (acq (rel x))\n", 2),
    ],
)
def test_parse_error_names_the_directive_line(tmp_path, capsys, text, line):
    # sort errors on a def line, duplicate locations on the locs line, and
    # variable names that no term can spell on the var line
    path = tmp_path / "bad.talg"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_file(str(path))
    assert err.value.line == line
    assert main(["denote", str(path), "t"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {line}:")


@pytest.mark.parametrize(
    "text, stderr",
    [
        ("# no such theory\ntheory Q\nvar a : star\ndef t = a\n", "2:1: unknown theory 'Q'"),
        (
            "# join semilattices\ntheory J\nvar a : star\ndef t = (or a a)\n",
            "2:1: theory J has no trace model; use 'axioms --theory J'",
        ),
        (
            "theory V\nvar a : star\ndef t = (or a)\n",
            "1:1: theory V has no trace model; use 'axioms --theory V'",
        ),
        ("theory S\nlocs x y\ntheory B\ndef t = bot\n", "3:1: 'theory' directive given twice"),
        ("theory S\nlocs x y\nvar v : cede\nlocs x\n", "4:1: 'locs' directive given twice"),
        (
            "theory S\nlocs x(y z\nvar v : cede\ndef t = v\n",
            "2:1: no term can refer to a location named 'x(y'",
        ),
    ],
)
def test_theory_and_locs_errors_name_their_line(tmp_path, capsys, text, stderr):
    path = tmp_path / "bad.talg"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_file(str(path))
    assert f"{err.value.line}:{err.value.col}: " == stderr.split(" ", 1)[0] + " "
    assert main(["denote", str(path), "t"]) == 2
    assert capsys.readouterr().err == f"error: {stderr}\n"


def test_parse_rejects_unknown_directive(tmp_path):
    path = tmp_path / "bad.talg"
    path.write_text("theory S\nfrobnicate\n")
    with pytest.raises(ParseError):
        parse_file(str(path))


def test_eq_exit_codes(ex17, capsys):
    assert main(["eq", ex17, "irie_lhs", "irie_rhs"]) == 0
    assert capsys.readouterr().out.strip() == "holds"
    assert main(["eq", ex17, "twice", "once"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out


def test_refines_exit_codes_and_witness(ex17, capsys):
    assert main(["refines", ex17, "once", "twice"]) == 0
    capsys.readouterr()
    assert main(["refines", ex17, "twice", "once"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out and "[" in out


def test_error_exit_code_on_missing_name(ex17, capsys):
    # the name comes from the command line, so the error has no file position
    assert main(["eq", ex17, "nope", "irie_rhs"]) == 2
    assert capsys.readouterr().err == "error: no term named 'nope' in the file\n"


def test_error_exit_code_on_missing_file(capsys):
    assert main(["eq", "/nonexistent.talg", "a", "b"]) == 2


def test_denote_lists_overview_generator(overview, capsys):
    assert main(["denote", overview, "t"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "• [ (11,10) (11,11) ] ∘ 7" in lines


def test_denote_output_is_deterministic(ex17, capsys):
    main(["denote", ex17, "twice"])
    first = capsys.readouterr().out
    main(["denote", ex17, "twice"])
    assert capsys.readouterr().out == first


def test_denote_json_roundtrip(ex17, capsys):
    assert main(["denote", ex17, "once", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {
            "start_sort": "cede",
            "transitions": [[s, post]],
            "value_sort": "cede",
            "value": "x",
        }
        for s, post in (("00", "10"), ("01", "11"), ("10", "10"), ("11", "11"))
    ]
    # the listing rebuilds into the denotation it came from
    from tracealg import Sort, StoreSpace, Trace, Transition, equal, sorted_set
    from tracealg.checker import denote

    space = StoreSpace()
    rebuilt = sorted_set(
        Sort("cede"),
        (
            Trace(
                Sort(entry["start_sort"]),
                tuple(
                    Transition(space.parse_store(a), space.parse_store(b))
                    for a, b in entry["transitions"]
                ),
                Sort(entry["value_sort"]),
                entry["value"],
            )
            for entry in payload
        ),
    )
    tf = parse_file(ex17)
    assert equal(rebuilt, denote("S", tf.ctx, tf.terms["once"], space))


def test_translate_expands_transition(bfile, capsys):
    assert main(["translate", bfile, "step", "--from", "B", "--to", "S"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(acq (lkp x bot (lkp y bot (upd x 1 (upd y 0 (rel x))))))"


def test_translate_theory_mismatch(bfile, capsys):
    assert main(["translate", bfile, "step", "--from", "S", "--to", "Tr"]) == 2


def test_axioms_command(capsys):
    assert main(["axioms", "--theory", "J", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_nogo_command(capsys):
    assert main(["nogo", "--which", "2", "--depth", "1"]) == 0
    assert main(["nogo", "--which", "3", "--samples", "5"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["nogo", "--which", "2", "--depth", "-1"],
        ["nogo", "--which", "3", "--samples", "0"],
        ["nogo", "--which", "3", "--samples", "many"],
        ["axioms", "--theory", "J", "--samples", "0"],
    ],
)
def test_numeric_options_are_validated(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


def test_par_command(bfile, capsys):
    assert main(["par", bfile, "ret", "ret"]) == 0
    out = capsys.readouterr().out
    assert "(x,x)" in out


def test_locs_warning(tmp_path, capsys):
    path = tmp_path / "wide.talg"
    path.write_text("theory S\nlocs a b c\nvar v : cede\ndef t = v\n")
    assert main(["denote", str(path), "t"]) == 0
    assert "warning" in capsys.readouterr().err


def test_too_many_locations(tmp_path, capsys):
    path = tmp_path / "wide.talg"
    path.write_text("theory S\nlocs a b c d e\nvar v : cede\ndef t = v\n")
    assert main(["denote", str(path), "t"]) == 2
    assert "error: 2:1: at most 4 locations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["axioms", "--theory", "S"], ["nogo", "--which", "2"], ["nogo", "--which", "3"]],
)
def test_too_many_locs_option_has_no_file_position(capsys, argv):
    assert main(argv + ["--locs", "a,b,c,d,e"]) == 2
    assert capsys.readouterr().err == "error: --locs: at most 4 locations are supported\n"


@pytest.mark.parametrize(
    "text",
    [
        "theory Tgs\nvar a : hold\ndef t = a\n",
        "theory S\nvar a : star\ndef t = (acq (rel a))\n",
    ],
)
def test_var_sort_missing_from_theory(tmp_path, capsys, text):
    path = tmp_path / "sorts.talg"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_file(str(path))
    assert err.value.line == 2
    assert main(["eq", str(path), "t", "t"]) == 2


def test_internal_error_exits_2(ex17, capsys, monkeypatch):
    # an internal failure must not leave through exit 1, which means "refuted"
    def broken(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr("tracealg.cli.cmd_eq", broken)
    assert main(["eq", ex17, "irie_lhs", "irie_rhs"]) == 2
    assert capsys.readouterr().err == "error: RuntimeError: first line\n"


def test_deep_terms_decide(tmp_path, capsys):
    depth = 2_000
    path = tmp_path / "deep.talg"
    path.write_text(
        f"theory S\nvar x : cede\ndef t = {'(acq (rel ' * depth}x{'))' * depth}\ndef x = x\n"
    )
    assert main(["eq", str(path), "t", "x"]) == 0
    assert capsys.readouterr().out == "holds\n"
    assert main(["denote", str(path), "x"]) == 0
    shallow = capsys.readouterr().out
    assert main(["denote", str(path), "t"]) == 0
    assert capsys.readouterr().out == shallow
    assert main(["translate", str(path), "t", "--from", "S", "--to", "Tr"]) == 0
    printed = capsys.readouterr().out
    tr = build("Tr")
    assert term_to_sexpr(parse_term(printed, tr, {"x": CEDE}), tr) + "\n" == printed


def test_denote_covers_tgs(tmp_path, capsys):
    from tracealg.checker import _denote_as_traces

    path = tmp_path / "tgs.talg"
    path.write_text(
        "theory Tgs\nlocs x y\nvar a : star\nvar b : star\n"
        "def t = (or (tr 11 10 a) (tr 01 01 b))\n"
    )
    assert main(["denote", str(path), "t"]) == 0
    tf = parse_file(str(path))
    listing = _denote_as_traces("Tgs", tf.ctx, tf.terms["t"], tf.space)
    assert capsys.readouterr().out == "".join(g.render() + "\n" for g in listing.ordered())
    assert len(listing.generators) == 2


def test_denote_rejects_join_theory(tmp_path, capsys):
    path = tmp_path / "j.talg"
    path.write_text("theory J\nvar a : star\ndef t = (or a a)\n")
    assert main(["denote", str(path), "t"]) == 2


def test_printer_parser_roundtrip_on_random_terms():
    import random

    from tracealg import App, Var, builtin_translations
    from tracealg.checker import FREE_MODELS, TRACE_MODELS, random_term
    from tracealg.theories import apply_translation, translate_context

    translations = builtin_translations().values()
    for theory, ctx, sorts in (
        ("S", {"a": HOLD, "b": CEDE}, (HOLD, CEDE)),
        ("B", {"a": STAR, "b": STAR}, (STAR,)),
        ("G", {"a": STAR, "b": STAR}, (STAR,)),
        ("Tgs", {"a": STAR, "b": STAR}, (STAR,)),
        ("Tr", {"a": HOLD, "b": CEDE}, (HOLD, CEDE)),
    ):
        p = build(theory)
        rng = random.Random(42)
        for i in range(60):
            sort = sorts[i % len(sorts)]
            t = random_term(p, ctx, sort, 4, rng)
            printed = term_to_sexpr(t, p)
            assert parse_term(printed, p, ctx, expected=sort) == t
            # what `translate` prints must parse back in the target theory
            for tr in translations:
                if tr.source.name == theory:
                    image = apply_translation(tr, t)
                    printed = term_to_sexpr(image, tr.target)
                    target_ctx = translate_context(tr, ctx)
                    assert parse_term(printed, tr.target, target_ctx, expected=image.sort) == image

    # every operator of every theory with a trace model, at 1-4 locations,
    # one of them spelled with a colon
    traced = [name for name, (base, _) in FREE_MODELS.items() if base in TRACE_MODELS]
    assert sorted(traced) == ["B", "G", "S", "Tgs", "Tr"]
    for locations in (("x",), ("a:b", "y"), ("x", "y", "z"), ("p", "q", "r", "s")):
        for theory in traced:
            p = build(theory, StoreSpace(locations))
            ctx = {f"v{s.value}": s for s in p.signature.sorts}
            for op in p.signature.operators.values():
                for arity in (0, 1, 2) if op.variadic else (len(op.args),):
                    args = tuple(Var(f"v{s.value}", s) for s in op.scheme(arity))
                    t = App(op.name, args, op.result)
                    assert parse_term(term_to_sexpr(t, p), p, ctx, expected=op.result) == t


@pytest.mark.parametrize("term", ["(acq (or@hold a))", "(acq (lkp:x a a))"])
def test_operator_names_are_not_concrete_syntax(tmp_path, capsys, term):
    path = tmp_path / "names.talg"
    path.write_text(f"theory S\nvar a : hold\ndef t = {term}\n")
    head = term.split()[1][1:]
    with pytest.raises(ParseError, match=f"3:15: unknown operator '{head}'"):
        parse_file(str(path))
    assert main(["denote", str(path), "t"]) == 2
    assert capsys.readouterr().err == f"error: 3:15: unknown operator '{head}'\n"


def test_def_name_may_contain_equals(tmp_path, capsys):
    path = tmp_path / "eq.talg"
    path.write_text("theory S\nvar x : cede\ndef a=b = (acq (rel x))\n")
    assert main(["denote", str(path), "a=b"]) == 0
    assert capsys.readouterr().out.startswith("∘ [")


def test_parse_sexpr_takes_deep_terms():
    # the parser keeps a stack of open applications instead of recursing
    depth = 10_000
    tokens = _tokenize("(acq (rel " * depth + "x" + "))" * depth)
    raw = _parse_sexpr(tokens, 1, build("S"))
    for _ in range(depth):
        assert raw[0] == "acq" and len(raw) == 2
        assert raw[1][0] == "rel" and len(raw[1]) == 2
        raw = raw[1][1]
    assert raw == "x"


@pytest.mark.parametrize(
    "theory, text, message",
    [
        ("S", "(upd z 0 x)", "1:6: bad parameter 'z' of 'upd'"),
        ("S", "(upd x 2 x)", "1:8: bad parameter '2' of 'upd'"),
        ("B", "(tr 1 00 x)", "1:5: bad parameter '1' of 'tr'"),
        ("S", "(tr 00 11 x)", "1:2: unknown operator 'tr'"),
        ("S", "(upd x 0 x x)", "operator 'upd:x:0' expects 1 arguments, got 2"),
        ("S", "(lkp x x)", "operator 'lkp:x' expects 2 arguments, got 1"),
        ("S", "(acq (rel x", "1:6: unclosed '('"),
        ("S", "(acq (rel x)", "1:1: unclosed '('"),
        ("S", "(upd x", "1:1: unclosed '('"),
        ("S", "x)", "1:2: trailing tokens after term"),
        ("S", ")", "1:1: unexpected ')'"),
        ("S", "(frob x)", "1:2: unknown operator 'frob'"),
        ("S", "(bot)", "1:2: unknown operator 'bot'"),
        ("S", "", "1:1: unexpected end of term"),
    ],
)
def test_parse_error_wording(theory, text, message):
    ctx = {"x": STAR if theory == "B" else HOLD}
    with pytest.raises((ParseError, TermError)) as err:
        parse_term(text, build(theory), ctx)
    assert message in str(err.value)


TERM_WORDS = [
    "(", ")", "(", ")", "upd", "lkp", "tr", "acq", "rel", "or", "bot", "or@hold",
    "lkp:x", "x", "y", "z", "a:b", "0", "1", "2", "00", "01", "10", "11", "101",
    "a", "b", "=", "#", "def", "frob",
]


@settings(
    derandomize=True,
    database=None,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    theory=st.sampled_from(["S", "Tr", "B", "G", "Tgs"]),
    locs=st.sampled_from(["", "locs x\n", "locs x y\n", "locs a:b y\n"]),
    words=st.lists(st.sampled_from(TERM_WORDS), max_size=16),
)
def test_fuzzed_term_files_fail_cleanly(tmp_path, capsys, theory, locs, words):
    sorts = ("hold", "cede") if theory in ("S", "Tr") else ("star", "star")
    path = tmp_path / "fuzz.talg"
    path.write_text(
        f"theory {theory}\n{locs}var a : {sorts[0]}\nvar b : {sorts[1]}\n"
        f"def t = {' '.join(words)}\n"
    )
    try:
        parse_file(str(path))
    except ParseError:
        capsys.readouterr()
        assert main(["denote", str(path), "t"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \d+:\d+: [^\n]+\n", err)


# ---------------------------------------------------------------------------
# Fuzzing past parsing: every command on files whose terms parse, and every
# directive line, ends in a verdict, a listing, or one positioned error


@st.composite
def parsing_files(draw):
    """A theory and a term file at one or two locations whose terms ``l``
    and ``r`` parse: both are drawn from the signature at one sort, to
    depth 3, and printed by ``term_to_sexpr``."""
    theory = draw(st.sampled_from(["S", "Tr", "B", "G", "Tgs"]))
    locations = ("x", "y")[: draw(st.integers(1, 2))]
    p = build(theory, StoreSpace(locations))
    ctx = {"a": HOLD, "b": CEDE} if theory in ("S", "Tr") else {"a": STAR, "b": STAR}
    ops = sorted(p.signature.operators.values(), key=lambda op: op.name)

    def term(sort, depth):
        here = [op for op in ops if op.result is sort] if depth else []
        pick = draw(st.integers(0, len(here)))
        if not pick:
            return Var(draw(st.sampled_from([v for v, s in ctx.items() if s is sort])), sort)
        op = here[pick - 1]
        arity = draw(st.integers(0, 2)) if op.variadic else len(op.args)
        return App(op.name, tuple(term(s, depth - 1) for s in op.scheme(arity)), sort)

    sort = draw(st.sampled_from(sorted(set(ctx.values()), key=lambda s: s.order)))
    lhs, rhs = (term_to_sexpr(term(sort, 3), p) for _ in range(2))
    for printed in (lhs, rhs):
        # a def line gives no sort, so a top-level nullary join at two
        # sorts ("def r = bot" in S) does not parse; such files are skipped
        try:
            parse_term(printed, p, ctx)
        except (ParseError, TermError):
            assume(False)
    text = (
        f"theory {theory}\nlocs {' '.join(locations)}\n"
        + "".join(f"var {v} : {s.value}\n" for v, s in ctx.items())
        + f"def l = {lhs}\ndef r = {rhs}\n"
    )
    return theory, text


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=parsing_files())
def test_commands_on_parsing_files_end_cleanly(tmp_path, capsys, case):
    theory, text = case
    path = tmp_path / "fuzz.talg"
    path.write_text(text)
    assert {"l", "r"} <= parse_file(str(path)).terms.keys()
    commands = [["eq", "l", "r"], ["refines", "l", "r"], ["refines", "r", "l"],
                ["denote", "l"], ["denote", "l", "--json"]]
    commands += [["translate", "l", "--from", theory, "--to", tr.target.name]
                 for tr in builtin_translations().values() if tr.source.name == theory]
    if theory == "B":
        commands.append(["par", "l", "r"])
    for argv in commands:
        code = main([argv[0], str(path), *argv[1:]])
        out, err = capsys.readouterr()
        if code == 2:
            assert re.fullmatch(r"error: [^\n]+\n", err), (argv, err)
        elif argv[0] in ("eq", "refines"):
            verdict = r"holds\n" if code == 0 else r"refuted \((lhs|rhs) ⊄ (lhs|rhs)\): [^\n]+\n"
            assert code in (0, 1) and re.fullmatch(verdict, out) and err == "", (argv, out, err)
        else:
            assert code == 0 and err == "", (argv, code, err)


DIRECTIVE_LINES = [
    "theory S", "theory B", "theory Tr", "theory G", "theory Tgs", "theory J", "theory Q",
    "theory", "theory S B", "locs x", "locs x y", "locs y x", "locs x x", "locs",
    "locs a b c d e", "locs x(y", "var a : hold", "var a : cede", "var a : star",
    "var b : cede", "var a", "var a hold", "var bot : hold", "var a : frob", "var (a : star",
    "def t = a", "def t = b", "def t = (acq (rel a))", "def t = (or)", "def t = (upd x 0 a)",
    "def t = (tr 0 1 a)", "def t = (lkp y a a)", "def t =", "def = a", "def t a", "def t = (",
    "", "# a comment", "def",
]


DIRECTIVES = st.sampled_from(DIRECTIVE_LINES)
JUNK = st.text(alphabet="atx01:=()# \t", max_size=10)


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    head=st.sampled_from([[], ["theory S", "var a : hold"], ["theory B", "locs x y", "var a : star"]]),
    lines=st.lists(
        st.one_of(DIRECTIVES, DIRECTIVES, st.tuples(DIRECTIVES, JUNK).map(" ".join), JUNK),
        max_size=8,
    ),
)
def test_fuzzed_directive_lines_fail_at_a_line_of_the_file(tmp_path, capsys, head, lines):
    # junk words, and repeated or misplaced theory, locs, var and def lines
    lines = head + lines
    path = tmp_path / "fuzz.talg"
    path.write_text("".join(f"{line}\n" for line in lines))
    try:
        terms = parse_file(str(path)).terms
    except ParseError:
        for argv in (["denote", str(path), "t"], ["eq", str(path), "t", "t"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            at = re.fullmatch(r"error: (\d+):(\d+): [^\n]+\n", err)
            assert at and 1 <= int(at[1]) <= max(1, len(lines)) and int(at[2]) >= 1, err
    else:
        code = main(["denote", str(path), "t"])
        err = capsys.readouterr().err
        assert (code, err) == (0, "") if "t" in terms else (
            code == 2 and err == "error: no term named 't' in the file\n"
        ), (code, err)
