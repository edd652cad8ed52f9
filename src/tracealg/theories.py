"""The built-in equational theories and the translations between them.

Seven presentations are provided, keyed by short names:

* ``J``   join semilattices (binary join and bottom laws)
* ``V``   countable-join semilattices (variadic join)
* ``G``   nondeterministic global state (lookup/update over a bit store)
* ``S``   shared state: a hold-sort copy of G, a cede-sort copy of V, and
          the acquire/release pair axiomatised as an insertion-closure pair
* ``B``   transitions as unary operators with mumble/stutter inequations
* ``Tgs`` open transitions with exact sequencing laws
* ``Tr``  shared-state shape with open transitions in the hold sort

Axiom schemes are generators, not pre-expanded lists: store-indexed schemes
grow with ``2^|locations|`` and join schemes with the arity bound, so
instantiation takes explicit bounds.  A scheme is a name and a function
from bounds to its ``(context, lhs, rhs)`` rows.

A translation lists only the operators it rewrites.  Every other operator
follows one of two rules: a join maps to the target's join at the mapped
sort, and any other operator maps to the target operator of the same name.
So G ~> S lists nothing, and S ~> Tr and Tr ~> S list only their hold-sort
state or transition operators.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from .kernel import (
    CEDE,
    HOLD,
    STAR,
    App,
    Operator,
    Record,
    Signature,
    Sort,
    SortMismatch,
    Term,
    Var,
    VarContext,
    app,
    bottom,
    fold,
    join,
    substitute,
)
from .store import Store, StoreSpace


class UnknownTheory(Exception):
    pass


class TranslationMismatch(Exception):
    pass


THEORY_NAMES = ("J", "V", "G", "S", "B", "Tgs", "Tr")


class Bounds(Record):
    """Instantiation bounds for axiom schemes.

    ``max_join_arity`` caps the arity-indexed distributivity schemes;
    ``max_squash`` caps the nesting shape of join-flattening instances
    (outer arity, inner arities, and flattened arity all at most this).
    """

    __slots__ = _compared = _fields = ("max_join_arity", "max_squash")
    max_join_arity: int
    max_squash: int

    def __init__(self, max_join_arity: int = 4, max_squash: int = 3) -> None:
        self._set(max_join_arity, max_squash)


class AxiomInstance(Record):
    __slots__ = _compared = _fields = ("scheme", "ctx", "lhs", "rhs")
    scheme: str
    ctx: tuple[tuple[str, Sort], ...]
    lhs: Term
    rhs: Term

    def __init__(self, scheme: str, ctx: tuple[tuple[str, Sort], ...], lhs: Term, rhs: Term) -> None:
        self._set(scheme, ctx, lhs, rhs)

    @property
    def context(self) -> dict[str, Sort]:
        return dict(self.ctx)


# One instance of a scheme: the variable context, then the two sides.
Row = tuple[dict[str, Sort], Term, Term]


class AxiomScheme(Record):
    """A named law; ``rows(bounds)`` yields its instances within the bounds."""

    __slots__ = _fields = ("name", "rows")
    _compared = ("name",)
    name: str
    rows: Callable[[Bounds], Iterable[Row]]

    def __init__(self, name: str, rows: Callable[[Bounds], Iterable[Row]]) -> None:
        self._set(name, rows)


class Presentation(Record):
    __slots__ = _fields = ("name", "space", "signature", "schemes")
    _compared = _fields[:3]
    name: str
    space: StoreSpace
    signature: Signature
    schemes: tuple[AxiomScheme, ...]

    def __init__(
        self, name: str, space: StoreSpace, signature: Signature, schemes: tuple[AxiomScheme, ...]
    ) -> None:
        self._set(name, space, signature, schemes)


def instantiate_axioms(p: Presentation, bounds: Bounds = Bounds()) -> list[AxiomInstance]:
    return [
        AxiomInstance(scheme.name, tuple(sorted(ctx.items())), lhs, rhs)
        for scheme in p.schemes
        for ctx, lhs, rhs in scheme.rows(bounds)
    ]


def encode_inequation(sig: Signature, l: Term, r: Term, direction: str) -> tuple[Term, Term]:
    """Encode an inequation as an equation over the sort's join.

    ``l <= r`` becomes ``l v r = r`` and ``l >= r`` becomes ``l = l v r``;
    ``kernel.join`` raises ``SortMismatch`` on a sort without a join.
    """
    if l.sort is not r.sort:
        raise SortMismatch(f"cannot order {l.sort.value} against {r.sort.value}")
    if direction == "le":
        return join(sig, l.sort, (l, r)), r
    if direction == "ge":
        return l, join(sig, l.sort, (l, r))
    raise ValueError(f"direction must be 'le' or 'ge', got {direction!r}")


# ---------------------------------------------------------------------------
# Operator and signature builders


def update_name(space: StoreSpace, loc: int, bit: int) -> str:
    return f"upd:{space.locations[loc]}:{bit}"

def lookup_name(space: StoreSpace, loc: int) -> str:
    return f"lkp:{space.locations[loc]}"

def transition_name(pre: Store, post: Store) -> str:
    return f"tr:{pre.render()}:{post.render()}"


def _join_op(name: str, sort: Sort) -> Operator:
    return Operator(name, sort, (sort,), variadic=True, kind="join")


def _state_ops(space: StoreSpace, sort: Sort) -> dict[str, Operator]:
    ops: dict[str, Operator] = {}
    for loc in range(len(space.locations)):
        for bit in (0, 1):
            name = update_name(space, loc, bit)
            ops[name] = Operator(name, sort, (sort,), kind="update", params=(loc, bit))
        name = lookup_name(space, loc)
        ops[name] = Operator(name, sort, (sort, sort), kind="lookup", params=(loc,))
    return ops


def _transition_ops(space: StoreSpace, sort: Sort) -> dict[str, Operator]:
    ops: dict[str, Operator] = {}
    for pre in space.stores:
        for post in space.stores:
            name = transition_name(pre, post)
            ops[name] = Operator(name, sort, (sort,), kind="transition", params=(pre, post))
    return ops


def _single_sorted_signature(extra: dict[str, Operator]) -> Signature:
    ops = {"or": _join_op("or", STAR)}
    ops.update(extra)
    return Signature(frozenset({STAR}), ops)


def _two_sorted_signature(hold_ops: dict[str, Operator]) -> Signature:
    ops = {
        "or@hold": _join_op("or@hold", HOLD),
        "or@cede": _join_op("or@cede", CEDE),
        "acq": Operator("acq", CEDE, (HOLD,), kind="acquire"),
        "rel": Operator("rel", HOLD, (CEDE,), kind="release"),
    }
    ops.update(hold_ops)
    return Signature(
        frozenset({HOLD, CEDE}), ops, aliases={"or": ("or@hold", "or@cede")}
    )


# ---------------------------------------------------------------------------
# Derived term builders


def open_transition_term(sig: Signature, space: StoreSpace, pre: Store, post: Store, body: Term) -> Term:
    """Assert the store is ``pre``, then update it to ``post``, location by location.

    A location's assert is its lookup, which continues on the asserted bit
    and is the bottom on the other.

    The operators come from the signature's index (``op_of``) and every
    node is built as an ``App``, without ``app``'s checks.  Only the body's
    sort is checked, against the innermost update, with ``app``'s error:
    each state operator keeps its sort (``_state_ops``), so every node
    above the body, and the bottom beside it, has the body's sort.
    """
    pre_bits, post_bits = pre.bits, post.bits
    locs = range(space.width)
    t = body
    for loc in reversed(locs):
        op = sig.op_of("update", loc, post_bits[loc])
        if t is body and body.sort is not op.args[0]:
            app(sig, op.name, body)  # raises its SortMismatch
        t = App(op.name, (t,), op.result)
    bot = bottom(sig, t.sort)
    for loc in reversed(locs):
        op = sig.op_of("lookup", loc)
        t = App(op.name, (bot, t) if pre_bits[loc] else (t, bot), op.result)
    return t


# ---------------------------------------------------------------------------
# Axiom schemes


def _law(name: str, ctx: dict[str, Sort], lhs: Term, rhs: Term) -> AxiomScheme:
    """A scheme with the same single row under every bound."""
    return AxiomScheme(name, lambda bounds: [(ctx, lhs, rhs)])


def _vars(sort: Sort, count: int) -> list[Var]:
    return [Var(f"x{i}", sort) for i in range(count)]


def _semilattice_schemes(sig: Signature, sort: Sort) -> list[AxiomScheme]:
    x, y, z = Var("x", sort), Var("y", sort), Var("z", sort)
    j = lambda *ts: join(sig, sort, ts)
    return [
        _law("Associativity", {"x": sort, "y": sort, "z": sort}, j(x, j(y, z)), j(j(x, y), z)),
        _law("Commutativity", {"x": sort, "y": sort}, j(x, y), j(y, x)),
        _law("Idempotency", {"x": sort}, j(x, x), x),
        _law("Neutrality", {"x": sort}, j(x, bottom(sig, sort)), x),
    ]


def _countable_join_schemes(sig: Signature, sort: Sort) -> list[AxiomScheme]:
    def nd_squash(bounds: Bounds) -> Iterator[Row]:
        cap = bounds.max_squash
        for alpha in range(cap + 1):
            for betas in itertools.product(range(cap + 1), repeat=alpha):
                pairs = [(i, j) for i in range(alpha) for j in range(betas[i])]
                ctx = {f"x{i}_{j}": sort for i, j in pairs}
                lhs = join(
                    sig,
                    sort,
                    tuple(
                        join(sig, sort, tuple(Var(f"x{i}_{j}", sort) for j in range(betas[i])))
                        for i in range(alpha)
                    ),
                )
                for gamma in range(cap + 1):
                    for f in itertools.product(range(len(pairs)), repeat=gamma):
                        if set(f) != set(range(len(pairs))):
                            continue
                        rhs = join(
                            sig,
                            sort,
                            tuple(Var(f"x{pairs[k][0]}_{pairs[k][1]}", sort) for k in f),
                        )
                        yield ctx, lhs, rhs

    x = Var("x0", sort)
    return [
        _law("ND-return", {"x0": sort}, join(sig, sort, (x,)), x),
        AxiomScheme("ND-squash", nd_squash),
    ]


def _nd_distribution_scheme(
    sig: Signature, name: str, op_names: list[str], arg_sort: Sort, result_sort: Sort
) -> AxiomScheme:
    """Scheme: each unary operator distributes over joins of every arity."""

    def rows(bounds: Bounds) -> Iterator[Row]:
        for op_name in op_names:
            for alpha in range(bounds.max_join_arity + 1):
                xs = _vars(arg_sort, alpha)
                lhs = join(sig, result_sort, tuple(app(sig, op_name, x) for x in xs))
                rhs = app(sig, op_name, join(sig, arg_sort, tuple(xs)))
                yield {v.name: arg_sort for v in xs}, lhs, rhs

    return AxiomScheme(name, rows)


def _global_state_schemes(sig: Signature, space: StoreSpace, sort: Sort) -> list[AxiomScheme]:
    locs = range(len(space.locations))
    upd = lambda l, b, t: app(sig, update_name(space, l, b), t)
    lkp = lambda l, t0, t1: app(sig, lookup_name(space, l), t0, t1)
    x, x0, x1 = Var("x", sort), Var("x0", sort), Var("x1", sort)

    def ul(bounds: Bounds) -> Iterator[Row]:
        for l in locs:
            for b in (0, 1):
                yield {"x0": sort, "x1": sort}, upd(l, b, lkp(l, x0, x1)), upd(l, b, (x0, x1)[b])

    def uu(bounds: Bounds) -> Iterator[Row]:
        for l in locs:
            for b2 in (0, 1):
                for b in (0, 1):
                    yield {"x": sort}, upd(l, b2, upd(l, b, x)), upd(l, b, x)

    def uuc(bounds: Bounds) -> Iterator[Row]:
        for l1, l2 in itertools.combinations(locs, 2):
            for b1 in (0, 1):
                for b2 in (0, 1):
                    yield {"x": sort}, upd(l1, b1, upd(l2, b2, x)), upd(l2, b2, upd(l1, b1, x))

    def lu(bounds: Bounds) -> Iterator[Row]:
        for l in locs:
            yield {"x": sort}, lkp(l, upd(l, 0, x), upd(l, 1, x)), x

    updates = [update_name(space, l, b) for l in locs for b in (0, 1)]
    return [
        AxiomScheme("UL", ul),
        AxiomScheme("UU", uu),
        AxiomScheme("UUC", uuc),
        AxiomScheme("LU", lu),
        _nd_distribution_scheme(sig, "ND-U", updates, sort, sort),
    ]


def _closure_pair_schemes(sig: Signature) -> list[AxiomScheme]:
    x, y = Var("x", HOLD), Var("y", CEDE)
    fuse = encode_inequation(sig, app(sig, "rel", app(sig, "acq", x)), x, "ge")
    return [
        _nd_distribution_scheme(sig, "ND-◁", ["acq"], HOLD, CEDE),
        _nd_distribution_scheme(sig, "ND-▷", ["rel"], CEDE, HOLD),
        _law("Empty", {"y": CEDE}, app(sig, "acq", app(sig, "rel", y)), y),
        _law("Fuse", {"x": HOLD}, *fuse),
    ]


def _transition_schemes(
    sig: Signature, space: StoreSpace, sort: Sort, closing: bool
) -> list[AxiomScheme]:
    """Transition axioms: inequational when ``closing`` (mumble/stutter shape),
    exact sequencing laws otherwise."""
    tr = lambda s, r, t: app(sig, transition_name(s, r), t)
    stores = space.stores
    x = Var("x", sort)
    ctx = {"x": sort}
    all_stutters = join(sig, sort, tuple(tr(s, s, x) for s in stores))

    # Unlike ND-U, the join sits inside on the left.
    def nd_tr(bounds: Bounds) -> Iterator[Row]:
        for pre in stores:
            for post in stores:
                for alpha in range(bounds.max_join_arity + 1):
                    xs = _vars(sort, alpha)
                    lhs = tr(pre, post, join(sig, sort, tuple(xs)))
                    rhs = join(sig, sort, tuple(tr(pre, post, v) for v in xs))
                    yield {v.name: sort for v in xs}, lhs, rhs

    if closing:
        def mumble(bounds: Bounds) -> Iterator[Row]:
            for s, r, t in itertools.product(stores, repeat=3):
                yield ctx, *encode_inequation(sig, tr(s, r, tr(r, t, x)), tr(s, t, x), "ge")

        def stutter(bounds: Bounds) -> Iterator[Row]:
            for s in stores:
                yield ctx, *encode_inequation(sig, x, tr(s, s, x), "ge")

        return [
            AxiomScheme("ND-B", nd_tr),
            AxiomScheme("M", mumble),
            AxiomScheme("S", stutter),
            _law("H", ctx, *encode_inequation(sig, all_stutters, x, "ge")),
        ]

    def seq_eq(bounds: Bounds) -> Iterator[Row]:
        for s, r, t in itertools.product(stores, repeat=3):
            yield ctx, tr(s, r, tr(r, t, x)), tr(s, t, x)

    def seq_neq(bounds: Bounds) -> Iterator[Row]:
        for s, r, m, t in itertools.product(stores, repeat=4):
            if r != m:
                yield ctx, tr(s, r, tr(m, t, x)), bottom(sig, sort)

    return [
        AxiomScheme("ND-T", nd_tr),
        AxiomScheme("Seq=", seq_eq),
        AxiomScheme("Seq≠", seq_neq),
        _law("HS", ctx, x, all_stutters),
    ]


# ---------------------------------------------------------------------------
# The seven presentations


def _build_uncached(name: str, space: StoreSpace) -> Presentation:
    if name == "J":
        sig = _single_sorted_signature({})
        return Presentation("J", space, sig, tuple(_semilattice_schemes(sig, STAR)))
    if name == "V":
        sig = _single_sorted_signature({})
        return Presentation("V", space, sig, tuple(_countable_join_schemes(sig, STAR)))
    if name == "G":
        sig = _single_sorted_signature(_state_ops(space, STAR))
        schemes = _countable_join_schemes(sig, STAR) + _global_state_schemes(sig, space, STAR)
        return Presentation("G", space, sig, tuple(schemes))
    if name == "S":
        sig = _two_sorted_signature(_state_ops(space, HOLD))
        schemes = (
            _countable_join_schemes(sig, HOLD)
            + _global_state_schemes(sig, space, HOLD)
            + _countable_join_schemes(sig, CEDE)
            + _closure_pair_schemes(sig)
        )
        return Presentation("S", space, sig, tuple(schemes))
    if name == "B":
        sig = _single_sorted_signature(_transition_ops(space, STAR))
        schemes = _countable_join_schemes(sig, STAR) + _transition_schemes(sig, space, STAR, closing=True)
        return Presentation("B", space, sig, tuple(schemes))
    if name == "Tgs":
        sig = _single_sorted_signature(_transition_ops(space, STAR))
        schemes = _countable_join_schemes(sig, STAR) + _transition_schemes(sig, space, STAR, closing=False)
        return Presentation("Tgs", space, sig, tuple(schemes))
    if name == "Tr":
        sig = _two_sorted_signature(_transition_ops(space, HOLD))
        schemes = (
            _countable_join_schemes(sig, HOLD)
            + _transition_schemes(sig, space, HOLD, closing=False)
            + _countable_join_schemes(sig, CEDE)
            + _closure_pair_schemes(sig)
        )
        return Presentation("Tr", space, sig, tuple(schemes))
    raise UnknownTheory(f"unknown theory {name!r}; expected one of {THEORY_NAMES}")


@lru_cache(maxsize=None)
def _build_cached(name: str, locations: tuple[str, ...]) -> Presentation:
    return _build_uncached(name, StoreSpace(locations))


def build(name: str, space: StoreSpace = StoreSpace()) -> Presentation:
    return _build_cached(name, space.locations)


# ---------------------------------------------------------------------------
# Translations


class Translation(Record):
    """Maps each source operator to a target term over variables x0, x1, ...

    ``op_images`` lists only the operators the translation rewrites.  Two
    rules give the rest: an unlisted join maps to the target's join at the
    mapped sort, and any other unlisted operator maps to the target operator
    of the same name.  The soundness condition (every source axiom
    translates to a target-provable equation) is checked downstream by the
    denotational deciders, not here.
    """

    __slots__ = _fields = ("name", "source", "target", "sort_map", "op_images")
    _compared = _fields[:4]
    name: str
    source: Presentation
    target: Presentation
    sort_map: Mapping[Sort, Sort]
    op_images: Mapping[str, Term]

    def __init__(
        self,
        name: str,
        source: Presentation,
        target: Presentation,
        sort_map: Mapping[Sort, Sort],
        op_images: Mapping[str, Term],
    ) -> None:
        self._set(name, source, target, sort_map, op_images)

    def image(self, op_name: str, arity: int) -> Term:
        """The target term for ``op_name`` at ``arity`` over x0, x1, ..."""
        if op_name in self.op_images:
            return self.op_images[op_name]
        scheme = self.source.signature.operators[op_name].scheme(arity)
        return self._unlisted(
            op_name, tuple(Var(f"x{i}", self.sort_map[s]) for i, s in enumerate(scheme))
        )

    def _unlisted(self, op_name: str, args: tuple[Term, ...]) -> App:
        """An unlisted operator's image applied to translated arguments."""
        op = self.source.signature.operators[op_name]
        if op.kind == "join":
            return join(self.target.signature, self.sort_map[op.result], args)
        return app(self.target.signature, op_name, *args)


def apply_translation(tr: Translation, t: Term) -> Term:
    def node(n: App, args: tuple[Term, ...]) -> Term:
        image = tr.op_images.get(n.op)
        if image is None:
            return tr._unlisted(n.op, args)
        return substitute(image, {f"x{i}": arg for i, arg in enumerate(args)})

    return fold(t, lambda v: Var(v.name, tr.sort_map[v.sort]), node)


def translate_context(tr: Translation, ctx: VarContext) -> dict[str, Sort]:
    return {name: tr.sort_map[sort] for name, sort in ctx.items()}


def compose(first: Translation, second: Translation) -> Translation:
    """Translate along ``first`` and then ``second`` (diagrammatic order)."""
    if first.target.name != second.source.name or first.target.space != second.source.space:
        raise TranslationMismatch(
            f"cannot compose {first.name} (into {first.target.name}) with "
            f"{second.name} (from {second.source.name})"
        )
    images = {
        name: apply_translation(second, first.image(name, len(op.args)))
        for name, op in first.source.signature.operators.items()
        if op.kind != "join"
    }
    sort_map = {s: second.sort_map[t] for s, t in first.sort_map.items()}
    return Translation(
        f"{first.name};{second.name}", first.source, second.target, sort_map, images
    )


def identity_translation(p: Presentation) -> Translation:
    return Translation(f"id_{p.name}", p, p, {s: s for s in p.signature.sorts}, {})


@lru_cache(maxsize=None)
def _builtin_cached(locations: tuple[str, ...]) -> dict[str, Translation]:
    space = StoreSpace(locations)
    g, s, b, tgs, tr = (build(n, space) for n in ("G", "S", "B", "Tgs", "Tr"))

    def state_to_transitions(target: Presentation, sort: Sort) -> dict[str, Term]:
        sig = target.signature
        x = (Var("x0", sort), Var("x1", sort))
        imgs: dict[str, Term] = {}
        for l in range(len(space.locations)):
            for bit in (0, 1):
                imgs[update_name(space, l, bit)] = join(sig, sort, tuple(
                    app(sig, transition_name(st, st.set(l, bit)), x[0]) for st in space.stores
                ))
            imgs[lookup_name(space, l)] = join(sig, sort, tuple(
                app(sig, transition_name(st, st), x[st.get(l)]) for st in space.stores
            ))
        return imgs

    pairs = list(itertools.product(space.stores, repeat=2))

    def transitions_to_open(target: Presentation, sort: Sort) -> dict[str, Term]:
        x0 = Var("x0", sort)
        return {
            transition_name(*p): open_transition_term(target.signature, space, *p, x0)
            for p in pairs
        }

    # B ~> Tr: delimit each transition by acquire/release.
    sig, rel_x0 = tr.signature, app(tr.signature, "rel", Var("x0", CEDE))
    e_tr = Translation("E_Tr", b, tr, {STAR: CEDE}, {
        transition_name(*p): app(sig, "acq", app(sig, transition_name(*p), rel_x0)) for p in pairs
    })
    # Tr ~> S and S ~> Tr keep the joins and the acquire/release pair, and
    # rewrite only the hold-sort operators.
    e_trs = Translation("E_TrS", tr, s, {HOLD: HOLD, CEDE: CEDE}, transitions_to_open(s, HOLD))
    e_bs = compose(e_tr, e_trs)
    return {
        # G ~> S: the hold-sort copy.
        "E": Translation("E", g, s, {STAR: HOLD}, {}),
        # Tgs ~> G: transitions become assert-then-update blocks.
        "E_G": Translation("E_G", tgs, g, {STAR: STAR}, transitions_to_open(g, STAR)),
        # G ~> Tgs: state operators become joins of transitions.
        "E_Tgs": Translation("E_Tgs", g, tgs, {STAR: STAR}, state_to_transitions(tgs, STAR)),
        "E_Tr": e_tr,
        "E_TrS": e_trs,
        "E_STr": Translation("E_STr", s, tr, {HOLD: HOLD, CEDE: CEDE}, state_to_transitions(tr, HOLD)),
        "E_BS": Translation("E_BS", e_bs.source, e_bs.target, e_bs.sort_map, e_bs.op_images),
    }


def builtin_translations(space: StoreSpace = StoreSpace()) -> dict[str, Translation]:
    return dict(_builtin_cached(space.locations))


# ---------------------------------------------------------------------------
# Distributivity instances (one per operator, position, and join arity)


def distributivity_instances(p: Presentation, bounds: Bounds = Bounds()) -> list[AxiomInstance]:
    """Binary-join distributivity for every operator and argument position."""
    sig = p.signature
    rows: list[AxiomInstance] = []
    for op in sig.operators.values():
        arities = range(1, bounds.max_join_arity + 1) if op.variadic else [len(op.args)]
        for arity in arities:
            scheme = op.scheme(arity)
            if any(sig.join_op(s) is None for s in (*scheme, op.result)):
                continue
            for pos in range(arity):
                ctx: dict[str, Sort] = {
                    f"x{i}": s for i, s in enumerate(scheme) if i != pos
                }
                ctx["y0"] = ctx_sort = scheme[pos]
                ctx["y1"] = ctx_sort
                y0, y1 = Var("y0", ctx_sort), Var("y1", ctx_sort)

                def args_with(at_pos: Term) -> tuple[Term, ...]:
                    return tuple(
                        at_pos if i == pos else Var(f"x{i}", s)
                        for i, s in enumerate(scheme)
                    )

                lhs = App(op.name, args_with(join(sig, ctx_sort, (y0, y1))), op.result)
                rhs = join(
                    sig,
                    op.result,
                    (
                        App(op.name, args_with(y0), op.result),
                        App(op.name, args_with(y1), op.result),
                    ),
                )
                rows.append(
                    AxiomInstance(
                        f"dist:{op.name}@{pos}/{arity}", tuple(sorted(ctx.items())), lhs, rhs
                    )
                )
    return rows
