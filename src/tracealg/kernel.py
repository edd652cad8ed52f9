"""Multi-sorted signatures, sorted terms, substitution, and evaluation.

Terms are immutable and carry their sort, so deciders can hash and compare
subterms structurally.  Joins are represented by a single variadic operator
per join-carrying sort; the empty join plays the role of bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence, TypeVar, Union


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
            if len({self.operators[name].result for name in names}) != len(names):
                raise ValueError(f"alias {alias} names two operators of one sort")

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

R = TypeVar("R")


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
    or inferred from the first argument that resolves on its own; a bare
    empty join in a multi-sorted signature is ambiguous and rejected.
    """

    # ``walk`` yields ``(child, sort, index)`` where it would recurse and is
    # sent the child's term; the loop below runs the walks on an explicit
    # stack and adds an error's path as the error unwinds it.  A probed
    # child keeps its term: an alias's candidates differ in sort
    # (``Signature``), so a second walk at that sort would build the same.
    def walk(node: RawTree, want: Sort | None) -> Iterator:
        if isinstance(node, str):
            if node not in ctx:
                raise UnknownVariable(f"variable {node!r} not in context")
            sort = ctx[node]
            if want is not None and sort is not want:
                raise SortMismatch(
                    f"variable {node!r} has sort {sort.value}, expected {want.value}"
                )
            return Var(node, sort)
        if not isinstance(node, (tuple, list)) or not node or not isinstance(node[0], str):
            raise UnknownOperator(f"malformed node {node!r}")
        name, children = node[0], tuple(node[1:])
        ops = sig.candidates(name)
        if not ops:
            raise UnknownOperator(f"unknown operator {name!r}")
        args: list[Term | None] = [None] * len(children)
        if len(ops) > 1:
            if want is not None:
                ops = tuple(op for op in ops if op.result is want)
            else:
                # infer from the first argument that resolves on its own
                for i, child in enumerate(children):
                    try:
                        args[i] = yield child, None, i
                    except AmbiguousSort:
                        continue
                    sort = args[i].sort
                    ops = tuple(op for op in ops if op.scheme(len(children))[i : i + 1] == (sort,))
                    break
            if len(ops) != 1:
                raise AmbiguousSort(
                    f"cannot resolve the sort of {name!r} here; annotate via an enclosing operator"
                )
        op = ops[0]
        if want is not None and op.result is not want:
            raise SortMismatch(
                f"operator {name!r} has sort {op.result.value}, expected {want.value}"
            )
        if not op.accepts_arity(len(children)):
            raise ArityMismatch(
                f"operator {name!r} expects {len(op.args)} arguments, got {len(children)}"
            )
        scheme = op.scheme(len(children))
        for i, child in enumerate(children):
            if args[i] is None:
                args[i] = yield child, scheme[i], i
        return App(op.name, tuple(args), op.result)

    # each entry: a running walk and the node's index in its parent
    stack: list[tuple[Iterator, int]] = [(walk(raw, expected), 0)]
    reply: Term | TermError | None = None  # what the top walk is sent, or thrown
    trail: list[int] = []  # the indices an unwinding error has left, innermost first
    while True:
        gen = stack[-1][0]
        try:
            child, want, i = gen.throw(reply) if isinstance(reply, TermError) else gen.send(reply)
        except StopIteration as done:
            stack.pop()
            reply = done.value
            if not stack:
                return reply
        except TermError as exc:
            if exc is not reply:
                trail = []
            i = stack.pop()[1]
            if not stack:
                raise type(exc)(exc.args[0], trail[::-1]) from None
            trail.append(i)
            reply = exc
        else:
            stack.append((walk(child, want), i))
            reply = None


def free_vars(t: Term) -> dict[str, Sort]:
    out: dict[str, Sort] = {}
    fold(t, lambda v: out.setdefault(v.name, v.sort), lambda node, args: None)
    return out


def identity_substitution(ctx: VarContext) -> dict[str, Term]:
    return {name: Var(name, sort) for name, sort in ctx.items()}


def substitute(t: Term, theta: Substitution) -> Term:
    """Homomorphic replacement of variables; the result keeps t's sort.

    Aliased subterms are rewritten once and stay aliased in the result.
    """

    def var(v: Var) -> Term:
        if v.name not in theta:
            raise MissingBinding(f"no binding for variable {v.name!r}")
        image = theta[v.name]
        if image.sort is not v.sort:
            raise SortMismatch(
                f"binding for {v.name!r} has sort {image.sort.value}, expected {v.sort.value}"
            )
        return image

    return fold(t, var, lambda node, args: App(node.op, args, node.sort))


def compose_substitutions(theta: Substitution, theta2: Substitution) -> dict[str, Term]:
    """The substitution sending y to (theta y)[theta2]."""
    return {name: substitute(term, theta2) for name, term in theta.items()}


class Algebra:
    """An interpretation of a signature: one method per operator kind.

    ``apply`` calls the method that ``op.kind`` names, a join with its
    result sort and argument tuple, any other operator with its ``params``
    and then its arguments.  Carriers are implicit, sorted by convention.
    """

    def __init__(self, signature: Signature):
        self.signature = signature

    def apply(self, op: Operator, args: tuple) -> object:
        method = getattr(self, op.kind, None)
        if method is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no {op.kind} operation for {op.name}"
            )
        if op.kind == "join":
            return method(op.result, args)
        return method(*op.params, *args)


def fold(t: Term, var: Callable[[Var], R], node: Callable[[App, tuple], R]) -> R:
    """Fold ``t`` bottom up: ``var`` at each variable and ``node`` at each
    application with its arguments' results, left to right, memoized per node
    identity so that a subterm that substitution shares is folded once."""
    # an explicit stack instead of recursion, so that any depth folds
    memo: dict[int, R] = {}
    stack: list = [t]  # nodes to fold, and (node,) once its arguments are folded
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            n = n[0]
            memo[id(n)] = node(n, tuple([memo[id(a)] for a in n.args]))
        elif id(n) not in memo:
            if isinstance(n, Var):
                memo[id(n)] = var(n)
            else:
                stack.append((n,))
                stack += reversed(n.args)
    return memo[id(t)]


def evaluate(alg: Algebra, env: Mapping[str, object], t: Term) -> object:
    """Structural fold: variables via env, applications via alg's operations."""
    ops = alg.signature.operators

    def var(v: Var) -> object:
        if v.name not in env:
            raise MissingBinding(f"no environment value for variable {v.name!r}")
        return env[v.name]

    return fold(t, var, lambda node, args: alg.apply(ops[node.op], args))


class TermAlgebra(Algebra):
    """Terms as their own algebra: every operation is the term constructor.

    Evaluating here with a substitution as environment is substitution.
    """

    def apply(self, op: Operator, args: tuple) -> Term:
        return App(op.name, tuple(args), op.result)
