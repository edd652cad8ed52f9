"""Multi-sorted signatures, sorted terms, substitution, and evaluation.

Terms are immutable and carry their sort, so deciders can hash and compare
subterms structurally.  Joins are represented by a single variadic operator
per join-carrying sort; the empty join plays the role of bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence, Union


class Sort(str, Enum):
    """A sort; a ``str`` subclass so that hashing a sort is the C string hash.

    A sort equals its value string (``Sort.HOLD == "hold"``), so code that
    must refuse plain strings tests sorts by identity.
    """

    HOLD = "hold"  # exclusive access to the store
    CEDE = "cede"  # the environment may interleave
    STAR = "star"  # the one sort of single-sorted theories

    @property
    def symbol(self) -> str:
        return _SYMBOL[self]

    @property
    def order(self) -> int:
        return _ORDER[self]

    def __repr__(self) -> str:
        return f"Sort.{self.name}"


HOLD = Sort.HOLD
CEDE = Sort.CEDE
STAR = Sort.STAR

_SYMBOL = {HOLD: "•", CEDE: "∘", STAR: "⋆"}
_ORDER = {HOLD: 0, CEDE: 1, STAR: 2}


class TermError(Exception):
    """A raw tree, substitution, or environment violates the signature."""

    def __init__(self, message: str, path: Sequence[int] = ()):
        self.path = tuple(path)
        if self.path:
            message = f"{message} (at node {'/'.join(map(str, self.path))})"
        super().__init__(message)


class UnknownOperator(TermError):
    pass


class UnknownVariable(TermError):
    pass


class ArityMismatch(TermError):
    pass


class SortMismatch(TermError):
    pass


class AmbiguousSort(SortMismatch):
    """An overloaded name whose sort neither context nor arguments settle."""


class MissingBinding(TermError):
    pass


@dataclass(frozen=True)
class Operator:
    """An operator with a result sort and an argument scheme.

    A variadic operator has a one-sort scheme repeated to any finite length;
    arity zero is allowed and denotes the neutral element.  ``kind`` and
    ``params`` identify the operator to algebras without parsing its name.
    """

    name: str
    result: Sort
    args: tuple[Sort, ...]
    variadic: bool = False
    kind: str = "plain"
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.variadic and len(self.args) != 1:
            raise ValueError(f"variadic operator {self.name} needs a one-sort scheme")

    def scheme(self, arity: int) -> tuple[Sort, ...]:
        if self.variadic:
            return self.args * arity
        return self.args

    def accepts_arity(self, arity: int) -> bool:
        return arity >= 0 if self.variadic else arity == len(self.args)


@dataclass(frozen=True)
class Signature:
    """A finite set of sorts and named operators, plus surface-name aliases.

    Aliases let one concrete spelling (``or``) stand for several operators
    that differ only in sort; resolution happens during sort checking.
    """

    sorts: frozenset[Sort]
    operators: Mapping[str, Operator]
    aliases: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    # The first join operator of each sort, derived from ``operators``, and,
    # where that join accepts zero arguments, its empty application: one
    # term per sort.
    _joins: Mapping[Sort, Operator] = field(init=False, repr=False, compare=False)
    _bottoms: Mapping[Sort, "App"] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        joins: dict[Sort, Operator] = {}
        for name, op in self.operators.items():
            if name != op.name:
                raise ValueError(f"operator {op.name} keyed as {name}")
            mentioned = {op.result, *op.args}
            if not mentioned <= self.sorts:
                raise ValueError(f"operator {name} mentions sorts outside the signature")
            if op.kind == "join":
                joins.setdefault(op.result, op)
        object.__setattr__(self, "_joins", joins)
        object.__setattr__(
            self,
            "_bottoms",
            {sort: App(op.name, (), sort) for sort, op in joins.items() if op.accepts_arity(0)},
        )
        for alias, names in self.aliases.items():
            for name in names:
                if name not in self.operators:
                    raise ValueError(f"alias {alias} points at unknown operator {name}")

    def candidates(self, name: str) -> tuple[Operator, ...]:
        if name in self.operators:
            return (self.operators[name],)
        if name in self.aliases:
            return tuple(self.operators[n] for n in self.aliases[name])
        return ()

    def join_op(self, sort: Sort) -> Operator | None:
        return self._joins.get(sort)


VarContext = Mapping[str, Sort]


@dataclass(frozen=True)
class Var:
    name: str
    sort: Sort


@dataclass(frozen=True)
class App:
    op: str
    args: tuple["Term", ...]
    sort: Sort


Term = Union[Var, App]

RawTree = Union[str, tuple]

Substitution = Mapping[str, Term]


def app(sig: Signature, name: str, *args: Term) -> App:
    """Build a well-sorted application, validating the scheme."""
    op = sig.operators[name]
    if not op.accepts_arity(len(args)):
        raise ArityMismatch(f"{name} expects {len(op.args)} arguments, got {len(args)}")
    for i, (arg, want) in enumerate(zip(args, op.scheme(len(args)))):
        if arg.sort is not want:
            raise SortMismatch(f"argument {i} of {name} has sort {arg.sort.value}, expected {want.value}")
    return App(name, tuple(args), op.result)


def join(sig: Signature, sort: Sort, args: Sequence[Term]) -> App:
    op = sig.join_op(sort)
    if op is None:
        raise SortMismatch(f"sort {sort.value} carries no join")
    return app(sig, op.name, *args)


def bottom(sig: Signature, sort: Sort) -> App:
    """The empty join at ``sort``: the same term on every call, so that a
    fold memoized by node identity evaluates it once."""
    bot = sig._bottoms.get(sort)
    return bot if bot is not None else join(sig, sort, ())


def check_sort(
    sig: Signature,
    ctx: VarContext,
    raw: RawTree,
    expected: Sort | None = None,
) -> Term:
    """Elaborate a raw tree of names into the unique well-sorted term.

    Strings are variables; tuples are ``(operator, *children)``.  When a name
    is an alias for several operators the sort is resolved from ``expected``
    or inferred from the first argument; a bare empty join in a multi-sorted
    signature is ambiguous and rejected.
    """

    def walk(node: RawTree, want: Sort | None, path: tuple[int, ...]) -> Term:
        if isinstance(node, str):
            if node not in ctx:
                raise UnknownVariable(f"variable {node!r} not in context", path)
            sort = ctx[node]
            if want is not None and sort is not want:
                raise SortMismatch(
                    f"variable {node!r} has sort {sort.value}, expected {want.value}", path
                )
            return Var(node, sort)
        if not isinstance(node, (tuple, list)) or not node or not isinstance(node[0], str):
            raise UnknownOperator(f"malformed node {node!r}", path)
        name, children = node[0], tuple(node[1:])
        ops = sig.candidates(name)
        if not ops:
            raise UnknownOperator(f"unknown operator {name!r}", path)
        if len(ops) > 1:
            if want is not None:
                ops = tuple(op for op in ops if op.result is want)
            else:
                # infer from the first argument that resolves on its own
                for i, child in enumerate(children):
                    try:
                        probe = walk(child, None, path + (i,))
                    except AmbiguousSort:
                        continue
                    ops = tuple(
                        op for op in ops if op.scheme(len(children))[i : i + 1] == (probe.sort,)
                    )
                    break
            if len(ops) != 1:
                raise AmbiguousSort(
                    f"cannot resolve the sort of {name!r} here; annotate via an enclosing operator",
                    path,
                )
        op = ops[0]
        if want is not None and op.result is not want:
            raise SortMismatch(
                f"operator {name!r} has sort {op.result.value}, expected {want.value}", path
            )
        if not op.accepts_arity(len(children)):
            raise ArityMismatch(
                f"operator {name!r} expects {len(op.args)} arguments, got {len(children)}", path
            )
        scheme = op.scheme(len(children))
        args = tuple(
            walk(child, scheme[i], path + (i,)) for i, child in enumerate(children)
        )
        return App(op.name, args, op.result)

    return walk(raw, expected, ())


def free_vars(t: Term) -> dict[str, Sort]:
    out: dict[str, Sort] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out[node.name] = node.sort
        else:
            stack.extend(node.args)
    return out


def identity_substitution(ctx: VarContext) -> dict[str, Term]:
    return {name: Var(name, sort) for name, sort in ctx.items()}


def substitute(t: Term, theta: Substitution) -> Term:
    """Homomorphic replacement of variables; the result keeps t's sort.

    Aliased subterms are rewritten once and stay aliased in the result.
    """
    memo: dict[int, Term] = {}

    def walk(node: Term) -> Term:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            if node.name not in theta:
                raise MissingBinding(f"no binding for variable {node.name!r}")
            image = theta[node.name]
            if image.sort is not node.sort:
                raise SortMismatch(
                    f"binding for {node.name!r} has sort {image.sort.value}, "
                    f"expected {node.sort.value}"
                )
            out: Term = image
        else:
            out = App(node.op, tuple(walk(a) for a in node.args), node.sort)
        memo[id(node)] = out
        return out

    return walk(t)


def compose_substitutions(theta: Substitution, theta2: Substitution) -> dict[str, Term]:
    """The substitution sending y to (theta y)[theta2]."""
    return {name: substitute(term, theta2) for name, term in theta.items()}


class Algebra:
    """An interpretation of a signature: one operation per operator.

    Carriers are implicit (whatever ``apply`` consumes and produces, sorted
    by convention); operations must respect the operator's scheme.
    """

    signature: Signature

    def apply(self, op: Operator, args: tuple) -> object:
        raise NotImplementedError


def evaluate(alg: Algebra, env: Mapping[str, object], t: Term) -> object:
    """Structural fold: variables via env, applications via alg's operations.

    Substitution shares subterm objects, so results are memoized per node
    identity; an aliased subterm is folded once.
    """
    memo: dict[int, object] = {}

    def walk(node: Term) -> object:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            if node.name not in env:
                raise MissingBinding(f"no environment value for variable {node.name!r}")
            value = env[node.name]
        else:
            op = alg.signature.operators[node.op]
            value = alg.apply(op, tuple(walk(a) for a in node.args))
        memo[id(node)] = value
        return value

    return walk(t)


class TermAlgebra(Algebra):
    """Terms as their own algebra: every operation is the term constructor."""

    def __init__(self, signature: Signature, ctx: VarContext | None = None):
        self.signature = signature
        self.ctx = dict(ctx) if ctx else {}

    def apply(self, op: Operator, args: tuple) -> Term:
        return App(op.name, tuple(args), op.result)


def term_algebra(sig: Signature, ctx: VarContext | None = None) -> TermAlgebra:
    """Evaluating here with a substitution as environment is substitution."""
    return TermAlgebra(sig, ctx)
