"""Command-line front end: concrete term syntax and the checker commands.

Term files declare a theory with a trace model (S, Tr, B, G or Tgs; the join
theories J and V have none), optional locations, sorted variables, and named
terms in a parenthesized prefix syntax::

    theory S
    locs x y
    var x : cede
    def lhs = (acq (lkp y (rel x) (rel x)))
    def rhs = x

``(HEAD PARAM… TERM…)`` applies the operator named ``HEAD:PARAM:…``:
``upd L B``, ``lkp L``, ``acq``, ``rel`` and ``tr S S``, with stores as
bitstrings in location order.  Joins are ``(or TERM…)`` and ``bot``.  Exit
codes: 0 when the queried relation holds (or a report passes), 1 when
refuted, 2 on parse, sorting, configuration, or internal errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .checker import (
    FREE_MODELS,
    TRACE_MODELS,
    SampleConfig,
    _denote_all,
    check_equal,
    check_refines,
    denote,
    run_nogo2,
    run_nogo3,
    validate_axioms,
)
from .kernel import (
    App,
    RawTree,
    Record,
    Sort,
    Term,
    TermError,
    check_sort,
)
from .model import par
from .store import StoreSpace
from .theories import (
    THEORY_NAMES,
    Presentation,
    UnknownTheory,
    apply_translation,
    build,
    builtin_translations,
)
from .traces import TraceSet, canonicalize

SORT_NAMES = {"hold": Sort.HOLD, "cede": Sort.CEDE, "star": Sort.STAR}
MAX_LOCATIONS = 4


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class TermFile(Record):
    __slots__ = _compared = _fields = ("theory", "ctx", "terms")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    theory: Presentation
    ctx: dict[str, Sort]
    terms: dict[str, Term]

    def __init__(self, theory: Presentation, ctx: dict[str, Sort], terms: dict[str, Term]) -> None:
        self._set(theory, ctx, terms)

    @property
    def space(self) -> StoreSpace:
        return self.theory.space


def _tokenize(text: str, offset: int = 0) -> list[tuple[str, int]]:
    """Parentheses and whitespace-delimited words, with their 1-based columns."""
    return [(m.group(), offset + m.start() + 1) for m in re.finditer(r"[()]|[^\s()]+", text)]


@lru_cache(maxsize=None)
def _syntax(theory: str, locations: tuple[str, ...]) -> tuple[dict, dict]:
    """Each head's allowed words per parameter, and each operator's spelling
    ``HEAD P…``, read off the operator names ``HEAD:P…``; only the first
    parameter, a location, may contain ``:``.  Joins are ``or`` and ``bot``."""
    params: dict[str, tuple[set[str], ...]] = {"or": ()}
    spelled: dict[str, str] = {}
    for op in build(theory, StoreSpace(locations)).signature.operators.values():
        if op.kind != "join":
            head, _, rest = op.name.partition(":")
            words = rest.rsplit(":", len(op.params) - 1) if op.params else []
            for allowed, word in zip(params.setdefault(head, tuple(set() for _ in words)), words):
                allowed.add(word)
            spelled[op.name] = " ".join([head, *words])
    return params, spelled


def _parse_sexpr(tokens: list[tuple[str, int]], line: int, theory: Presentation) -> RawTree:
    """Tokens to a raw operator tree; variables stay bare strings.

    ``(HEAD P… T…)`` becomes ``("HEAD:P…", T…)``; arity and sorts are left to
    ``check_sort``.  The stack holds the open applications: the column of the
    ``(``, the name, and the children read so far.
    """
    params = _syntax(theory.name, theory.space.locations)[0]
    stack: list[list] = []
    i, n = 0, len(tokens)
    while i < n:
        tok, col = tokens[i]
        i += 1
        if tok == "(":
            if i == n:
                raise ParseError("unclosed '('", line, col)
            head, hcol = tokens[i]
            allowed = params.get(head)
            if allowed is None:
                raise ParseError(f"unknown operator {head!r}", line, hcol)
            name = head
            for ok in allowed:
                i += 1
                if i == n:
                    raise ParseError("unclosed '('", line, col)
                word, wcol = tokens[i]
                if word not in ok:
                    raise ParseError(f"bad parameter {word!r} of {head!r}", line, wcol)
                name += ":" + word
            stack.append([col, name])
            i += 1
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            node = tuple(stack.pop()[1:])
        else:
            node = ("or",) if tok == "bot" else tok
        if stack:
            stack[-1].append(node)
        elif i < n:
            raise ParseError("trailing tokens after term", line, tokens[i][1])
        else:
            return node
    if stack:
        raise ParseError("unclosed '('", line, stack[-1][0])
    raise ParseError("unexpected end of term", line, 1)


def parse_file(path: str) -> TermFile:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    theory_name: str | None = None
    locations: tuple[str, ...] | None = None
    theory_line = locs_line = 1
    var_lines: list[tuple[int, str, str]] = []
    def_lines: list[tuple[int, str, list[tuple[str, int]]]] = []

    for lno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "theory":
            if len(words) != 2:
                raise ParseError("usage: theory NAME", lno, 1)
            if theory_name is not None:
                raise ParseError("'theory' directive given twice", lno, 1)
            theory_name, theory_line = words[1], lno
        elif head == "locs":
            if len(words) < 2:
                raise ParseError("usage: locs NAME...", lno, 1)
            if locations is not None:
                raise ParseError("'locs' directive given twice", lno, 1)
            locations, locs_line = tuple(words[1:]), lno
            if len(set(locations)) != len(locations):
                raise ParseError(f"duplicate location in {' '.join(locations)!r}", lno, 1)
            for name in locations:
                if "(" in name or ")" in name:
                    raise ParseError(f"no term can refer to a location named {name!r}", lno, 1)
        elif head == "var":
            if len(words) != 4 or words[2] != ":" or words[3] not in SORT_NAMES:
                raise ParseError("usage: var NAME : hold|cede|star", lno, 1)
            if words[1] == "bot" or "(" in words[1] or ")" in words[1]:
                raise ParseError(f"no term can refer to a variable named {words[1]!r}", lno, 1)
            var_lines.append((lno, words[1], words[3]))
        elif head == "def":
            if len(words) < 4 or words[2] != "=":
                raise ParseError("usage: def NAME = TERM", lno, 1)
            # the term starts after the '=' that follows the name
            text = raw_line.split("#", 1)[0]
            start = re.match(r"\s*def\s+\S+\s+=", text).end()
            def_lines.append((lno, words[1], _tokenize(text[start:], start)))
        else:
            raise ParseError(f"unknown directive {head!r}", lno, 1)

    if theory_name is None:
        raise ParseError("missing 'theory' directive", 1, 1)
    if theory_name not in FREE_MODELS:
        raise ParseError(f"unknown theory {theory_name!r}", theory_line, 1)
    if FREE_MODELS[theory_name][0] not in TRACE_MODELS:
        message = f"theory {theory_name} has no trace model; use 'axioms --theory {theory_name}'"
        raise ParseError(message, theory_line, 1)
    space = _space_from_locations(locations, locs_line)
    theory = build(theory_name, space)

    ctx: dict[str, Sort] = {}
    for lno, name, sort_name in var_lines:
        if name in ctx:
            raise ParseError(f"variable {name!r} declared twice", lno, 1)
        if SORT_NAMES[sort_name] not in theory.signature.sorts:
            raise ParseError(f"theory {theory_name} has no sort {sort_name!r}", lno, 1)
        ctx[name] = SORT_NAMES[sort_name]

    terms: dict[str, Term] = {}
    for lno, name, tokens in def_lines:
        if name in terms:
            raise ParseError(f"term {name!r} defined twice", lno, 1)
        raw = _parse_sexpr(tokens, lno, theory)
        try:
            terms[name] = check_sort(theory.signature, ctx, raw)
        except TermError as exc:
            raise ParseError(str(exc), lno, tokens[0][1]) from None
    return TermFile(theory, ctx, terms)


def parse_term(
    text: str, theory: Presentation, ctx: dict[str, Sort], expected: Sort | None = None
) -> Term:
    """Parse one term in the concrete syntax against a theory and context."""
    raw = _parse_sexpr(_tokenize(text), 1, theory)
    return check_sort(theory.signature, ctx, raw, expected)


def _space_from_locations(
    locations: tuple[str, ...] | None, line: int | None = None
) -> StoreSpace:
    """The store space over ``locations``, or over ``x, y`` when none are given.

    ``line`` is the line of a term file's ``locs`` directive; locations from
    the ``--locs`` option have none, so their errors carry no file position.
    """
    if locations is None:
        return StoreSpace()
    if len(locations) > MAX_LOCATIONS:
        message = f"at most {MAX_LOCATIONS} locations are supported"
        if line is None:
            raise ValueError(f"--locs: {message}")
        raise ParseError(message, line, 1)
    if len(locations) > 2:
        print(
            f"warning: {len(locations)} locations give {2 ** len(locations)} stores; "
            "every store-indexed enumeration scales accordingly",
            file=sys.stderr,
        )
    return StoreSpace(locations)


# ---------------------------------------------------------------------------
# Term printing


def term_to_sexpr(t: Term, theory: Presentation) -> str:
    """The concrete syntax of ``t``; ``_parse_sexpr`` reads it back."""
    # words leave an explicit stack in order: a string per subterm would
    # take space quadratic in the depth
    spelled = _syntax(theory.name, theory.space.locations)[1]
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        n = stack.pop()
        if not isinstance(n, App):
            out.append(n if isinstance(n, str) else n.name)
        elif not n.args and n.op not in spelled:  # the empty join
            out.append("bot")
        else:
            out.append("(" + spelled.get(n.op, "or"))
            stack.append(")")
            for a in reversed(n.args):
                stack += (a, " ")
    return "".join(out)


def traceset_json(K: TraceSet) -> list[dict]:
    return [
        {
            "start_sort": g.start.value,
            "transitions": [[s.pre.render(), s.post.render()] for s in g.steps],
            "value_sort": g.value_sort.value,
            "value": g.value,
        }
        for g in K.ordered()
    ]


def _print_traceset(K: TraceSet, as_json: bool) -> None:
    if as_json:
        print(json.dumps(traceset_json(K), indent=2))
    else:
        for g in K.ordered():
            print(g.render())


# ---------------------------------------------------------------------------
# Commands


def _lookup_terms(tf: TermFile, *names: str) -> list[Term]:
    out = []
    for name in names:
        if name not in tf.terms:
            raise ValueError(f"no term named {name!r} in the file")
        out.append(tf.terms[name])
    return out


def _decide(args: argparse.Namespace, decider) -> int:
    tf = parse_file(args.file)
    lhs, rhs = _lookup_terms(tf, args.lhs, args.rhs)
    verdict = decider(tf.theory.name, tf.ctx, lhs, rhs, tf.space)
    if verdict.holds:
        print("holds")
        return 0
    print(f"refuted ({verdict.direction}): {verdict.witness.render()}")
    return 1


def cmd_eq(args: argparse.Namespace) -> int:
    return _decide(args, check_equal)


def cmd_refines(args: argparse.Namespace) -> int:
    return _decide(args, check_refines)


def cmd_denote(args: argparse.Namespace) -> int:
    tf = parse_file(args.file)
    (term,) = _lookup_terms(tf, args.name)
    _print_traceset(denote(tf.theory.name, tf.ctx, term, tf.space), args.json)
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    tf = parse_file(args.file)
    (term,) = _lookup_terms(tf, args.name)
    if tf.theory.name != args.source:
        raise UnknownTheory(
            f"file is a {tf.theory.name} file but --from says {args.source}"
        )
    catalogue = builtin_translations(tf.space)
    for tr in catalogue.values():
        if tr.source.name == args.source and tr.target.name == args.target:
            print(term_to_sexpr(apply_translation(tr, term), tr.target))
            return 0
    raise UnknownTheory(f"no built-in translation {args.source} ~> {args.target}")


def cmd_axioms(args: argparse.Namespace) -> int:
    space = _space_from_locations(tuple(args.locs.split(",")) if args.locs else None)
    cfg = SampleConfig(seed=args.seed, samples=args.samples)
    report = validate_axioms(args.theory, cfg, space)
    print(report.format())
    return 0 if report.passed else 1


def cmd_nogo(args: argparse.Namespace) -> int:
    space = _space_from_locations(tuple(args.locs.split(",")) if args.locs else None)
    if args.which == 2:
        report = run_nogo2(args.depth, space)
    else:
        report = run_nogo3(SampleConfig(seed=args.seed, samples=args.samples), space)
    print(report.format())
    return 0 if report.passed else 1


def cmd_par(args: argparse.Namespace) -> int:
    tf = parse_file(args.file)
    if tf.theory.name != "B":
        raise UnknownTheory("parallel composition works on B files")
    left, right = _lookup_terms(tf, args.left, args.right)
    K = par(*_denote_all("B", tf.ctx, (left, right), tf.space))
    _print_traceset(canonicalize(K), args.json)
    return 0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracealg",
        description="decide equality and refinement of shared-state terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_cmd(name: str, handler, *names: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file")
        for n in names:
            p.add_argument(n)
        p.set_defaults(handler=handler)
        return p

    file_cmd("eq", cmd_eq, "lhs", "rhs", help="decide provable equality")
    file_cmd("refines", cmd_refines, "lhs", "rhs", help="decide refinement (lhs below rhs)")
    p = file_cmd("denote", cmd_denote, "name", help="print the canonical generators")
    p.add_argument("--json", action="store_true")
    p = file_cmd("translate", cmd_translate, "name", help="apply a built-in translation")
    p.add_argument("--from", dest="source", required=True, choices=THEORY_NAMES)
    p.add_argument("--to", dest="target", required=True, choices=THEORY_NAMES)
    p = file_cmd("par", cmd_par, "left", "right", help="interleave two B denotations")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("axioms", help="validate a theory's axioms on sampled models")
    p.add_argument("--theory", required=True, choices=THEORY_NAMES)
    p.add_argument("--samples", type=_at_least(1), default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--locs", default=None)
    p.set_defaults(handler=cmd_axioms)

    p = sub.add_parser("nogo", help="run a named experiment")
    p.add_argument("--which", type=int, required=True, choices=(2, 3))
    p.add_argument("--depth", type=_at_least(0), default=3)
    p.add_argument("--samples", type=_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--locs", default=None)
    p.set_defaults(handler=cmd_nogo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, TermError, UnknownTheory, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure must not read as "refuted"
        first_line = str(exc).partition("\n")[0]
        print(f"error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
