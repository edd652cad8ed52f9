"""Multi-sorted signatures, sorted terms, substitution, and evaluation.

Terms are immutable and carry their sort: ``Var`` and ``App`` are tuples of
their fields whose equality, hash and repr walk an explicit stack, so any
depth compares, hashes and prints.  ``Record`` is the base of the package's
other records, written out so that importing it loads no ``dataclasses``.
Every walk over a term is one
``fold``, on an explicit stack and memoized per node identity; ``evaluate``
with a memo also value-numbers, so the terms that share the memo evaluate
each distinct application once.  Joins are represented by a single variadic
operator per join-carrying sort; the empty join plays the role of bottom.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
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


class Record:
    """A hand-written record over ``__slots__``, frozen unless it says not.

    A subclass lists the fields its repr shows, in order, in ``_fields`` and
    the ones that equality and the hash read in ``_compared``; a record
    equals only a record of its own class.  ``__init__`` sets the fields
    with ``_set``, in ``__slots__`` order.  A mutable record restores
    ``object``'s ``__setattr__`` and ``__delattr__`` and is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # pickle and copy restore the slots past the frozen ``__setattr__``
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Operator(Record):
    """An operator with a result sort and an argument scheme.

    A variadic operator has a one-sort scheme repeated to any finite length;
    arity zero is allowed and denotes the neutral element.  ``kind`` and
    ``params`` identify the operator to algebras without parsing its name.
    """

    __slots__ = _compared = _fields = ("name", "result", "args", "variadic", "kind", "params")
    name: str
    result: Sort
    args: tuple[Sort, ...]
    variadic: bool
    kind: str
    params: tuple

    def __init__(
        self,
        name: str,
        result: Sort,
        args: tuple[Sort, ...],
        variadic: bool = False,
        kind: str = "plain",
        params: tuple = (),
    ) -> None:
        if variadic and len(args) != 1:
            raise ValueError(f"variadic operator {name} needs a one-sort scheme")
        self._set(name, result, args, variadic, kind, params)

    def scheme(self, arity: int) -> tuple[Sort, ...]:
        if self.variadic:
            return self.args * arity
        return self.args

    def accepts_arity(self, arity: int) -> bool:
        return arity >= 0 if self.variadic else arity == len(self.args)


class Signature(Record):
    """A finite set of sorts and named operators, plus surface-name aliases.

    Aliases let one concrete spelling (``or``) stand for several operators
    that differ only in sort; resolution happens during sort checking.
    """

    # The first join operator of each sort, derived from ``operators``, and,
    # where that join accepts zero arguments, its empty application: one
    # term per sort.  Every other operator by its kind and parameters, the
    # first where two share them.
    __slots__ = ("sorts", "operators", "aliases", "_joins", "_bottoms", "_by_kind")
    _compared = _fields = __slots__[:3]
    sorts: frozenset[Sort]
    operators: Mapping[str, Operator]
    aliases: Mapping[str, tuple[str, ...]]
    _joins: Mapping[Sort, Operator]
    _bottoms: Mapping[Sort, "App"]
    _by_kind: Mapping[tuple, Operator]

    def __init__(
        self,
        sorts: frozenset[Sort],
        operators: Mapping[str, Operator],
        aliases: Mapping[str, tuple[str, ...]] | None = None,
    ) -> None:
        aliases = {} if aliases is None else aliases
        joins: dict[Sort, Operator] = {}
        by_kind: dict[tuple, Operator] = {}
        for name, op in operators.items():
            if name != op.name:
                raise ValueError(f"operator {op.name} keyed as {name}")
            mentioned = {op.result, *op.args}
            if not mentioned <= sorts:
                raise ValueError(f"operator {name} mentions sorts outside the signature")
            if op.kind == "join":
                joins.setdefault(op.result, op)
            else:
                by_kind.setdefault((op.kind, op.params), op)
        bottoms = {sort: App(op.name, (), sort) for sort, op in joins.items() if op.accepts_arity(0)}
        for alias, names in aliases.items():
            for name in names:
                if name not in operators:
                    raise ValueError(f"alias {alias} points at unknown operator {name}")
            if len({operators[name].result for name in names}) != len(names):
                raise ValueError(f"alias {alias} names two operators of one sort")
        self._set(sorts, operators, aliases, joins, bottoms, by_kind)

    def candidates(self, name: str) -> tuple[Operator, ...]:
        if name in self.operators:
            return (self.operators[name],)
        if name in self.aliases:
            return tuple(self.operators[n] for n in self.aliases[name])
        return ()

    def join_op(self, sort: Sort) -> Operator | None:
        return self._joins.get(sort)

    def op_of(self, kind: str, *params: object) -> Operator:
        """The operator of ``kind`` with ``params`` (``KeyError`` if none):
        ``op_of("update", loc, bit)`` without formatting its name."""
        return self._by_kind[kind, params]


VarContext = Mapping[str, Sort]


_MASK = (1 << 64) - 1
_XXPRIME_1, _XXPRIME_2, _XXPRIME_5 = 11400714785074694791, 14029467366897019727, 2870177450012600261


def _tuple_hash(lanes: Sequence[int]) -> int:
    """``hash`` of a tuple whose items hash to ``lanes``: CPython's 64-bit
    tuple hash, so that a term hashes as the tuple of its fields would."""
    acc = _XXPRIME_5
    for lane in lanes:
        acc = (acc + (lane & _MASK) * _XXPRIME_2) & _MASK
        acc = ((acc << 31 | acc >> 33) & _MASK) * _XXPRIME_1 & _MASK
    acc = (acc + (len(lanes) ^ _XXPRIME_5 ^ 3527539)) & _MASK
    return 1546275796 if acc == _MASK else acc - (acc >> 63 << 64)


def _unordered(symbol: str) -> Callable:
    def refuse(self: tuple, other: object) -> bool:
        if isinstance(other, tuple):  # else ``tuple``'s own order would answer
            raise TypeError(
                f"'{symbol}' not supported between instances of "
                f"{type(self).__name__!r} and {type(other).__name__!r}"
            )
        return NotImplemented

    return refuse


class _Term(tuple):
    """A term is a tuple of its fields that equals no plain tuple and has no
    order; ``App``'s tuple hash, equality and order would recurse in C,
    without a depth check, through its arguments."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_unordered, ("<", "<=", ">", ">="))

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __getnewargs__(self) -> tuple:
        return tuple(self)


class Var(_Term):
    """A variable: the tuple ``(name, sort)``."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __new__(cls, name: str, sort: Sort) -> "Var":
        return tuple.__new__(cls, (name, sort))

    name = property(itemgetter(0))
    sort = property(itemgetter(1))

    def __eq__(self, other: object) -> bool:
        if type(other) is Var:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"Var(name={self[0]!r}, sort={self[1]!r})"


class App(_Term):
    """An application: the tuple ``(op, args, sort)``, ``args`` a tuple of
    terms.  Equality, the hash and the repr walk an explicit stack, so a
    term of any depth has all three."""

    __slots__ = ()

    def __new__(cls, op: str, args: tuple["Term", ...], sort: Sort) -> "App":
        return tuple.__new__(cls, (op, args, sort))

    op = property(itemgetter(0))
    args = property(itemgetter(1))
    sort = property(itemgetter(2))

    def __eq__(self, other: object) -> bool:
        if type(other) is not App:
            return False if isinstance(other, tuple) else NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not App or type(b) is not App:
                if a != b:
                    return False
            elif a[0] != b[0] or a[2] != b[2] or len(a[1]) != len(b[1]):
                return False
            else:
                pairs += zip(a[1], b[1])
        return True

    def __hash__(self) -> int:
        return fold(
            self, hash, lambda n, args: _tuple_hash((hash(n[0]), _tuple_hash(args), hash(n[2])))
        )

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # terms to print, and the text between them
        while stack:
            n = stack.pop()
            if type(n) is str:
                out.append(n)
                continue
            args = n[1]
            stack.append(f"{',' if len(args) == 1 else ''}), sort={n[2]!r})")
            for i in reversed(range(len(args))):
                stack.append(args[i] if type(args[i]) is App else repr(args[i]))
                if i:
                    stack.append(", ")
            out.append(f"App(op={n[0]!r}, args=(")
        return "".join(out)


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

    def leaf(name: str, want: Sort | None) -> Var:
        if name not in ctx:
            raise UnknownVariable(f"variable {name!r} not in context")
        sort = ctx[name]
        if want is not None and sort is not want:
            raise SortMismatch(f"variable {name!r} has sort {sort.value}, expected {want.value}")
        return Var(name, sort)

    # ``walk`` yields ``(child, sort, index)`` where it would recurse and is
    # sent the child's term; the loop below resolves a variable child at
    # once, runs the other walks on an explicit stack, and adds an error's
    # path as the error unwinds it.  A probed child keeps its term: an
    # alias's candidates differ in sort (``Signature``), so a second walk at
    # that sort would build the same.
    def walk(node: RawTree, want: Sort | None) -> Iterator:
        if isinstance(node, str):
            return leaf(node, want)
        if type(node) not in (tuple, list) or not node or not isinstance(node[0], str):
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
            if isinstance(child, str):
                try:
                    reply = leaf(child, want)
                except TermError as exc:  # thrown into the walk that yielded the variable
                    trail, reply = [i], exc
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


def fold(
    t: Term,
    var: Callable[[Var], R],
    node: Callable[[App, tuple], R],
    memo: dict[int, R] | None = None,
) -> R:
    """Fold ``t`` bottom up: ``var`` at each variable and ``node`` at each
    application with its arguments' results, left to right, memoized per node
    identity so that a subterm that substitution shares is folded once.

    A caller that folds several terms with the same callbacks may pass one
    ``memo`` to them all; it must keep the terms alive while it does, since
    the memo is keyed by ``id``.
    """
    # an explicit stack instead of recursion, so that any depth folds
    if memo is None:
        memo = {}
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


def evaluate(alg: Algebra, env: Mapping[str, object], t: Term, memo: dict | None = None) -> object:
    """Structural fold: variables via env, applications via alg's operations.

    Given a ``memo``, evaluation also value-numbers: an application is keyed
    by its operator and the identities of its arguments' values, and a node
    whose key was already met takes that key's value, within ``t`` and
    across every term evaluated with the same memo in the same algebra and
    environment.  Every operation is a function of its operator and
    arguments, so the values are those evaluation without a memo gives.
    The memo holds ``fold``'s keys, node identities (ints), beside these
    keys (tuples), so the two kinds never collide; it keeps every value it
    numbers alive, so no identity in a key is reused.
    """
    ops = alg.signature.operators

    def var(v: Var) -> object:
        if v.name not in env:
            raise MissingBinding(f"no environment value for variable {v.name!r}")
        return env[v.name]

    if memo is None:
        return fold(t, var, lambda node, args: alg.apply(ops[node.op], args))

    def numbered(node: App, args: tuple) -> object:
        key = (node.op, *map(id, args))
        if key not in memo:
            memo[key] = alg.apply(ops[node.op], args)
        return memo[key]

    return fold(t, var, numbered, memo)


class TermAlgebra(Algebra):
    """Terms as their own algebra: every operation is the term constructor.

    Evaluating here with a substitution as environment is substitution.
    """

    def apply(self, op: Operator, args: tuple) -> Term:
        return App(op.name, tuple(args), op.result)
