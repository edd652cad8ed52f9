import json

import pytest

from tracealg import CEDE, STAR, build, check_sort
from tracealg.cli import ParseError, main, parse_file, parse_term, term_to_sexpr

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
    ],
)
def test_parse_error_names_the_directive_line(tmp_path, capsys, text, line):
    # sort errors on a def line and duplicate locations on the locs line
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


def test_internal_error_exits_2(tmp_path, capsys):
    # this depth exhausts the recursion of the term walks; the resulting
    # RecursionError must not leave through exit 1, which means "refuted"
    depth = 400
    path = tmp_path / "deep.talg"
    path.write_text(f"theory S\nvar x : cede\ndef t = {'(acq (rel ' * depth}x{'))' * depth}\n")
    assert main(["eq", str(path), "t", "t"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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

    from tracealg import HOLD, builtin_translations
    from tracealg.checker import random_term
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
