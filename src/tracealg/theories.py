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
instantiation takes explicit bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Union

from .kernel import (
    CEDE,
    HOLD,
    STAR,
    App,
    Operator,
    Signature,
    Sort,
    SortMismatch,
    Term,
    Var,
    VarContext,
    app,
    bottom,
    join,
    substitute,
)
from .store import Store, StoreSpace


class UnknownTheory(Exception):
    pass


class SortLacksJoin(Exception):
    pass


class TranslationMismatch(Exception):
    pass


THEORY_NAMES = ("J", "V", "G", "S", "B", "Tgs", "Tr")


@dataclass(frozen=True)
class Bounds:
    """Instantiation bounds for axiom schemes.

    ``max_join_arity`` caps the arity-indexed distributivity schemes;
    ``max_squash`` caps the nesting shape of join-flattening instances
    (outer arity, inner arities, and flattened arity all at most this).
    """

    max_join_arity: int = 4
    max_squash: int = 3


@dataclass(frozen=True)
class AxiomInstance:
    scheme: str
    ctx: tuple[tuple[str, Sort], ...]
    lhs: Term
    rhs: Term

    @property
    def context(self) -> dict[str, Sort]:
        return dict(self.ctx)


@dataclass(frozen=True)
class AxiomScheme:
    name: str
    instantiate: Callable[[Bounds], tuple[AxiomInstance, ...]] = field(compare=False)


@dataclass(frozen=True)
class Presentation:
    name: str
    space: StoreSpace
    signature: Signature
    schemes: tuple[AxiomScheme, ...] = field(compare=False)

    def axiom_instances(self, bounds: Bounds = Bounds()) -> list[AxiomInstance]:
        out: list[AxiomInstance] = []
        for scheme in self.schemes:
            out.extend(scheme.instantiate(bounds))
        return out


def instantiate_axioms(p: Presentation, bounds: Bounds = Bounds()) -> list[AxiomInstance]:
    return p.axiom_instances(bounds)


def encode_inequation(sig: Signature, l: Term, r: Term, direction: str) -> tuple[Term, Term]:
    """Encode an inequation as an equation over the sort's join.

    ``l <= r`` becomes ``l v r = r`` and ``l >= r`` becomes ``l = l v r``.
    """
    if l.sort is not r.sort:
        raise SortMismatch(f"cannot order {l.sort.value} against {r.sort.value}")
    if sig.join_op(l.sort) is None:
        raise SortLacksJoin(f"sort {l.sort.value} carries no join")
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


def cell_assert_term(sig: Signature, space: StoreSpace, loc: int, bit: int, body: Term) -> Term:
    """Look a location up and continue only on the given bit, else bottom."""
    bot = bottom(sig, body.sort)
    args = (body, bot) if bit == 0 else (bot, body)
    return app(sig, lookup_name(space, loc), *args)


def open_transition_term(sig: Signature, space: StoreSpace, pre: Store, post: Store, body: Term) -> Term:
    """Assert the store is ``pre``, then update it to ``post``, location by location."""
    t = body
    for loc in reversed(range(len(space.locations))):
        t = app(sig, update_name(space, loc, post.get(loc)), t)
    for loc in reversed(range(len(space.locations))):
        t = cell_assert_term(sig, space, loc, pre.get(loc), t)
    return t


# ---------------------------------------------------------------------------
# Axiom schemes


def _instances(name: str, rows: Iterator[tuple[dict[str, Sort], Term, Term]]) -> tuple[AxiomInstance, ...]:
    return tuple(
        AxiomInstance(name, tuple(sorted(ctx.items())), lhs, rhs) for ctx, lhs, rhs in rows
    )


def _vars(sort: Sort, count: int, prefix: str = "x") -> list[Var]:
    return [Var(f"{prefix}{i}", sort) for i in range(count)]


def _semilattice_schemes(sig: Signature, sort: Sort) -> list[AxiomScheme]:
    x, y, z = Var("x", sort), Var("y", sort), Var("z", sort)
    j = lambda *ts: join(sig, sort, ts)
    fixed = [
        ("Associativity", {"x": sort, "y": sort, "z": sort}, j(x, j(y, z)), j(j(x, y), z)),
        ("Commutativity", {"x": sort, "y": sort}, j(x, y), j(y, x)),
        ("Idempotency", {"x": sort}, j(x, x), x),
        ("Neutrality", {"x": sort}, j(x, bottom(sig, sort)), x),
    ]
    return [
        AxiomScheme(name, lambda bounds, row=(name, ctx, lhs, rhs): _instances(row[0], iter([row[1:]])))
        for name, ctx, lhs, rhs in fixed
    ]


def _countable_join_schemes(sig: Signature, sort: Sort) -> list[AxiomScheme]:
    def nd_return(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        x = Var("x0", sort)
        return _instances("ND-return", iter([({"x0": sort}, join(sig, sort, (x,)), x)]))

    def nd_squash(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        cap = bounds.max_squash
        rows = []
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
                        rows.append((ctx, lhs, rhs))
        return _instances("ND-squash", iter(rows))

    return [AxiomScheme("ND-return", nd_return), AxiomScheme("ND-squash", nd_squash)]


def _nd_distribution_scheme(
    sig: Signature, name: str, op_name: str, arg_sort: Sort, result_sort: Sort,
    wrap: Callable[[Term], Term] | None = None,
) -> AxiomScheme:
    """Scheme: the unary operator distributes over joins of every arity."""
    apply_op = wrap or (lambda t: app(sig, op_name, t))

    def instantiate(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        for alpha in range(bounds.max_join_arity + 1):
            xs = _vars(arg_sort, alpha)
            ctx = {v.name: arg_sort for v in xs}
            lhs = join(sig, result_sort, tuple(apply_op(x) for x in xs))
            rhs = apply_op(join(sig, arg_sort, tuple(xs)))
            rows.append((ctx, lhs, rhs))
        return _instances(name, iter(rows))

    return AxiomScheme(name, instantiate)


def _global_state_schemes(sig: Signature, space: StoreSpace, sort: Sort) -> list[AxiomScheme]:
    locs = range(len(space.locations))
    upd = lambda l, b, t: app(sig, update_name(space, l, b), t)
    lkp = lambda l, t0, t1: app(sig, lookup_name(space, l), t0, t1)

    def ul(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        for l in locs:
            for b in (0, 1):
                x0, x1 = Var("x0", sort), Var("x1", sort)
                rows.append((
                    {"x0": sort, "x1": sort},
                    upd(l, b, lkp(l, x0, x1)),
                    upd(l, b, (x0, x1)[b]),
                ))
        return _instances("UL", iter(rows))

    def uu(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        x = Var("x", sort)
        for l in locs:
            for b2 in (0, 1):
                for b in (0, 1):
                    rows.append(({"x": sort}, upd(l, b2, upd(l, b, x)), upd(l, b, x)))
        return _instances("UU", iter(rows))

    def uuc(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        x = Var("x", sort)
        for l1, l2 in itertools.combinations(locs, 2):
            for b1 in (0, 1):
                for b2 in (0, 1):
                    rows.append((
                        {"x": sort},
                        upd(l1, b1, upd(l2, b2, x)),
                        upd(l2, b2, upd(l1, b1, x)),
                    ))
        return _instances("UUC", iter(rows))

    def lu(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        x = Var("x", sort)
        rows = [({"x": sort}, lkp(l, upd(l, 0, x), upd(l, 1, x)), x) for l in locs]
        return _instances("LU", iter(rows))

    def nd_u(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        for l in locs:
            for b in (0, 1):
                for alpha in range(bounds.max_join_arity + 1):
                    xs = _vars(sort, alpha)
                    ctx = {v.name: sort for v in xs}
                    lhs = join(sig, sort, tuple(upd(l, b, x) for x in xs))
                    rhs = upd(l, b, join(sig, sort, tuple(xs)))
                    rows.append((ctx, lhs, rhs))
        return _instances("ND-U", iter(rows))

    return [
        AxiomScheme("UL", ul),
        AxiomScheme("UU", uu),
        AxiomScheme("UUC", uuc),
        AxiomScheme("LU", lu),
        AxiomScheme("ND-U", nd_u),
    ]


def _closure_pair_schemes(sig: Signature) -> list[AxiomScheme]:
    def empty(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        y = Var("y", CEDE)
        return _instances(
            "Empty", iter([({"y": CEDE}, app(sig, "acq", app(sig, "rel", y)), y)])
        )

    def fuse(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        x = Var("x", HOLD)
        lhs, rhs = encode_inequation(
            sig, app(sig, "rel", app(sig, "acq", x)), x, "ge"
        )
        return _instances("Fuse", iter([({"x": HOLD}, lhs, rhs)]))

    return [
        _nd_distribution_scheme(sig, "ND-◁", "acq", HOLD, CEDE),
        _nd_distribution_scheme(sig, "ND-▷", "rel", CEDE, HOLD),
        AxiomScheme("Empty", empty),
        AxiomScheme("Fuse", fuse),
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

    def nd_tr(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        name = "ND-B" if closing else "ND-T"
        rows = []
        for pre in stores:
            for post in stores:
                for alpha in range(bounds.max_join_arity + 1):
                    xs = _vars(sort, alpha)
                    vctx = {v.name: sort for v in xs}
                    lhs = tr(pre, post, join(sig, sort, tuple(xs)))
                    rhs = join(sig, sort, tuple(tr(pre, post, v) for v in xs))
                    rows.append((vctx, lhs, rhs))
        return _instances(name, iter(rows))

    if closing:
        def mumble(bounds: Bounds) -> tuple[AxiomInstance, ...]:
            rows = []
            for s, r, t in itertools.product(stores, repeat=3):
                lhs, rhs = encode_inequation(sig, tr(s, r, tr(r, t, x)), tr(s, t, x), "ge")
                rows.append((ctx, lhs, rhs))
            return _instances("M", iter(rows))

        def stutter(bounds: Bounds) -> tuple[AxiomInstance, ...]:
            rows = []
            for s in stores:
                lhs, rhs = encode_inequation(sig, x, tr(s, s, x), "ge")
                rows.append((ctx, lhs, rhs))
            return _instances("S", iter(rows))

        def hoover(bounds: Bounds) -> tuple[AxiomInstance, ...]:
            big = join(sig, sort, tuple(tr(s, s, x) for s in stores))
            lhs, rhs = encode_inequation(sig, big, x, "ge")
            return _instances("H", iter([(ctx, lhs, rhs)]))

        return [AxiomScheme("ND-B", nd_tr), AxiomScheme("M", mumble),
                AxiomScheme("S", stutter), AxiomScheme("H", hoover)]

    def seq_eq(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        for s, r, t in itertools.product(stores, repeat=3):
            rows.append((ctx, tr(s, r, tr(r, t, x)), tr(s, t, x)))
        return _instances("Seq=", iter(rows))

    def seq_neq(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        rows = []
        for s, r, m, t in itertools.product(stores, repeat=4):
            if r != m:
                rows.append((ctx, tr(s, r, tr(m, t, x)), bottom(sig, sort)))
        return _instances("Seq≠", iter(rows))

    def hs(bounds: Bounds) -> tuple[AxiomInstance, ...]:
        big = join(sig, sort, tuple(tr(s, s, x) for s in stores))
        return _instances("HS", iter([(ctx, x, big)]))

    return [AxiomScheme("ND-T", nd_tr), AxiomScheme("Seq=", seq_eq),
            AxiomScheme("Seq≠", seq_neq), AxiomScheme("HS", hs)]


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


def build(name: str, space: StoreSpace | None = None) -> Presentation:
    space = space or StoreSpace()
    return _build_cached(name, space.locations)


# ---------------------------------------------------------------------------
# Translations

OpImage = Union[Term, Callable[[int], Term]]


@dataclass(frozen=True)
class Translation:
    """Maps each source operator to a target term over variables x0, x1, ...

    Variadic operators map through a function of the concrete arity.  The
    soundness condition (every source axiom translates to a target-provable
    equation) is checked downstream by the denotational deciders, not here.
    """

    name: str
    source: Presentation
    target: Presentation
    sort_map: Mapping[Sort, Sort]
    op_images: Mapping[str, OpImage] = field(compare=False)

    def image(self, op_name: str, arity: int) -> Term:
        img = self.op_images[op_name]
        return img(arity) if callable(img) else img


def apply_translation(tr: Translation, t: Term) -> Term:
    memo: dict[int, Term] = {}

    def walk(node: Term) -> Term:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            out: Term = Var(node.name, tr.sort_map[node.sort])
        else:
            translated = tuple(walk(a) for a in node.args)
            image = tr.image(node.op, len(node.args))
            out = substitute(image, {f"x{i}": arg for i, arg in enumerate(translated)})
        memo[id(node)] = out
        return out

    return walk(t)


def translate_context(tr: Translation, ctx: VarContext) -> dict[str, Sort]:
    return {name: tr.sort_map[sort] for name, sort in ctx.items()}


def compose(first: Translation, second: Translation) -> Translation:
    """Translate along ``first`` and then ``second`` (diagrammatic order)."""
    if first.target.name != second.source.name or first.target.space != second.source.space:
        raise TranslationMismatch(
            f"cannot compose {first.name} (into {first.target.name}) with "
            f"{second.name} (from {second.source.name})"
        )
    images: dict[str, OpImage] = {}
    for op_name, img in first.op_images.items():
        if callable(img):
            images[op_name] = lambda n, img=img: apply_translation(second, img(n))
        else:
            images[op_name] = apply_translation(second, img)
    sort_map = {s: second.sort_map[t] for s, t in first.sort_map.items()}
    return Translation(
        f"{first.name};{second.name}", first.source, second.target, sort_map, images
    )


def identity_translation(p: Presentation) -> Translation:
    images: dict[str, OpImage] = {}
    for name, op in p.signature.operators.items():
        if op.variadic:
            images[name] = lambda n, name=name, op=op: App(
                name, tuple(Var(f"x{i}", op.args[0]) for i in range(n)), op.result
            )
        else:
            images[name] = App(
                name, tuple(Var(f"x{i}", s) for i, s in enumerate(op.args)), op.result
            )
    return Translation(f"id_{p.name}", p, p, {s: s for s in p.signature.sorts}, images)


def _join_image(sig: Signature, sort: Sort) -> Callable[[int], Term]:
    return lambda n: join(sig, sort, tuple(Var(f"x{i}", sort) for i in range(n)))


@lru_cache(maxsize=None)
def _builtin_cached(locations: tuple[str, ...]) -> dict[str, Translation]:
    space = StoreSpace(locations)
    g, s, b, tgs, tr = (build(n, space) for n in ("G", "S", "B", "Tgs", "Tr"))
    locs = range(len(space.locations))

    def state_images(target_sig: Signature, sort: Sort) -> dict[str, OpImage]:
        imgs: dict[str, OpImage] = {}
        for l in locs:
            for bit in (0, 1):
                imgs[update_name(space, l, bit)] = app(
                    target_sig, update_name(space, l, bit), Var("x0", sort)
                )
            imgs[lookup_name(space, l)] = app(
                target_sig, lookup_name(space, l), Var("x0", sort), Var("x1", sort)
            )
        return imgs

    def state_to_transitions(target_sig: Signature, sort: Sort) -> dict[str, OpImage]:
        imgs: dict[str, OpImage] = {}
        for l in locs:
            for bit in (0, 1):
                imgs[update_name(space, l, bit)] = join(
                    target_sig,
                    sort,
                    tuple(
                        app(target_sig, transition_name(st, st.set(l, bit)), Var("x0", sort))
                        for st in space.stores
                    ),
                )
            imgs[lookup_name(space, l)] = join(
                target_sig,
                sort,
                tuple(
                    app(target_sig, transition_name(st, st), Var(f"x{st.get(l)}", sort))
                    for st in space.stores
                ),
            )
        return imgs

    def transitions_to_open(target_sig: Signature, sort: Sort) -> dict[str, OpImage]:
        return {
            transition_name(pre, post): open_transition_term(
                target_sig, space, pre, post, Var("x0", sort)
            )
            for pre in space.stores
            for post in space.stores
        }

    # G ~> S: the hold-sort copy.
    e_gs = Translation(
        "E", g, s, {STAR: HOLD},
        {"or": _join_image(s.signature, HOLD), **state_images(s.signature, HOLD)},
    )

    # Tgs ~> G: transitions become assert-then-update blocks.
    e_g = Translation(
        "E_G", tgs, g, {STAR: STAR},
        {"or": _join_image(g.signature, STAR), **transitions_to_open(g.signature, STAR)},
    )

    # G ~> Tgs: state operators become joins of transitions.
    e_tgs = Translation(
        "E_Tgs", g, tgs, {STAR: STAR},
        {"or": _join_image(tgs.signature, STAR), **state_to_transitions(tgs.signature, STAR)},
    )

    # B ~> Tr: delimit each transition by acquire/release.
    e_tr_images: dict[str, OpImage] = {"or": _join_image(tr.signature, CEDE)}
    for pre in space.stores:
        for post in space.stores:
            e_tr_images[transition_name(pre, post)] = app(
                tr.signature,
                "acq",
                app(
                    tr.signature,
                    transition_name(pre, post),
                    app(tr.signature, "rel", Var("x0", CEDE)),
                ),
            )
    e_tr = Translation("E_Tr", b, tr, {STAR: CEDE}, e_tr_images)

    # Tr ~> S and S ~> Tr: hold-sort operators translate as above, the
    # cede-sort joins and the acquire/release pair map to themselves.
    def shared_images(target: Presentation) -> dict[str, OpImage]:
        return {
            "or@hold": _join_image(target.signature, HOLD),
            "or@cede": _join_image(target.signature, CEDE),
            "acq": app(target.signature, "acq", Var("x0", HOLD)),
            "rel": app(target.signature, "rel", Var("x0", CEDE)),
        }

    e_trs = Translation(
        "E_TrS", tr, s, {HOLD: HOLD, CEDE: CEDE},
        {**shared_images(s), **transitions_to_open(s.signature, HOLD)},
    )
    e_str = Translation(
        "E_STr", s, tr, {HOLD: HOLD, CEDE: CEDE},
        {**shared_images(tr), **state_to_transitions(tr.signature, HOLD)},
    )

    e_bs = compose(e_tr, e_trs)
    e_bs = Translation("E_BS", b, s, e_bs.sort_map, e_bs.op_images)

    return {
        "E": e_gs, "E_G": e_g, "E_Tgs": e_tgs, "E_Tr": e_tr,
        "E_TrS": e_trs, "E_STr": e_str, "E_BS": e_bs,
    }


def builtin_translations(space: StoreSpace | None = None) -> dict[str, Translation]:
    space = space or StoreSpace()
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
