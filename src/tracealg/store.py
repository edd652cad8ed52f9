"""Finite bit stores over a fixed, ordered list of memory locations, packed.

A store assigns one bit to every location.  Stores render as bitstrings in
declared location order, so with locations ``(x, y)`` the string ``"10"``
means x=1, y=0.  The store *is* the int those bits spell, first location
most significant, so ``StoreSpace.stores[i]`` is ``i``.  A transition over
``n`` locations is the int ``pre << n | post``; only this module relies on
that layout.

Both are ``int`` subclasses, one interned object per width and value, so
hashing and comparing them is C-level int work.  Callers test a store's
bits with ``StoreSpace.mask`` and a step's pre-store bits with ``pre_mask``,
and read and build steps through the per-width tables of ``Packing``
(``pre_of``, ``post_of``, ``step_of``, ``stutters``, ``pre_masks``) instead
of constructing objects; ``bits``, ``pre``, ``post`` and the rendered
strings are lookups in the same tables.

Stores and steps of different widths are different objects but may be
equal ints (the 1-location step ``(0,1)`` is ``1``, as is the store
``"01"``), so they must not be mixed in one set, trace or comparison.  The
model operations never mix them: every store and step they emit comes from
the tables of the width they were given.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .kernel import Record


class Store(int):
    """A total assignment of bits, positionally aligned with a location list.

    ``Store(bits)`` returns the interned store of ``len(bits)`` locations.
    """

    __slots__ = ()
    # Set on each width's subclass: the width, and its stores, bit tuples
    # and rendered strings, all indexed by value.
    width: int
    _all: tuple
    _bits: tuple
    _text: tuple

    def __new__(cls, bits: Iterable[int]) -> "Store":
        bits = tuple(bits)
        if not bits or any(b != 0 and b != 1 for b in bits):
            raise ValueError(f"store bits must be a non-empty tuple over 0/1, got {bits!r}")
        return packing(len(bits)).stores[int("".join(map(str, bits)), 2)]

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits[self]

    def get(self, index: int) -> int:
        return self._bits[self][index]

    def set(self, index: int, bit: int) -> "Store":
        mask = 1 << (self.width - 1 - index)
        return self._all[self | mask if bit else self & ~mask]

    def render(self) -> str:
        return self._text[self]

    __str__ = render

    def __repr__(self) -> str:
        return f"Store(bits={self.bits!r})"

    def __reduce__(self) -> tuple:
        # pickle and copy come back through the interning constructor
        return Store, (self.bits,)


class Transition(int):
    """A guarantee step: relies on store ``pre``, leaves store ``post``.

    ``Transition(pre, post)`` returns the interned step ``pre << n | post``.
    """

    __slots__ = ()
    # Set on each width's subclass: the width, its ``Packing``, and the
    # rendered string of every step, indexed by value.
    width: int
    tables: "Packing"
    _text: tuple

    def __new__(cls, pre: Store, post: Store) -> "Transition":
        width = pre.width
        if post.width != width:
            raise ValueError(f"stores of {width} and {post.width} locations do not make a step")
        return packing(width).step_of[pre][post]

    @property
    def pre(self) -> Store:
        return self.tables.pre_of[self]

    @property
    def post(self) -> Store:
        return self.tables.post_of[self]

    def is_stutter(self) -> bool:
        tables = self.tables
        return tables.pre_of[self] is tables.post_of[self]

    def render(self) -> str:
        return self._text[self]

    def __repr__(self) -> str:
        return f"Transition(pre={self.pre!r}, post={self.post!r})"

    def __reduce__(self) -> tuple:
        return Transition, (self.pre, self.post)


class Packing(NamedTuple):
    """The interned stores and steps of one width, and the tables that read
    and build steps: ``pre_of[step]`` and ``post_of[step]`` are its stores,
    ``step_of[pre][post]`` the step, ``stutters[s]`` the step ``(s, s)``,
    and ``pre_masks[loc]`` the bit of location ``loc`` of a step's pre
    store, in the step."""

    stores: tuple[Store, ...]
    steps: tuple[Transition, ...]
    stutters: tuple[Transition, ...]
    pre_of: tuple[Store, ...]
    post_of: tuple[Store, ...]
    step_of: tuple[tuple[Transition, ...], ...]
    pre_masks: tuple[int, ...]


@lru_cache(maxsize=None)
def packing(width: int) -> Packing:
    """The stores and steps of one width: 2^width and 4^width ints."""
    count = 1 << width
    text = tuple(format(i, f"0{width}b") for i in range(count))
    store_cls = type(f"Store{width}", (Store,), {
        "__slots__": (),
        "width": width,
        "_bits": tuple(tuple(map(int, s)) for s in text),
        "_text": text,
    })
    stores = tuple(int.__new__(store_cls, i) for i in range(count))
    store_cls._all = stores
    step_cls = type(f"Transition{width}", (Transition,), {
        "__slots__": (),
        "width": width,
        "_text": tuple(f"({p},{q})" for p in text for q in text),
    })
    steps = tuple(int.__new__(step_cls, i) for i in range(count * count))
    step_of = tuple(steps[p << width : (p + 1) << width] for p in range(count))
    tables = Packing(
        stores,
        steps,
        tuple(step_of[s][s] for s in stores),
        tuple(p for p in stores for _ in stores),
        stores * count,
        step_of,
        tuple(1 << (2 * width - 1 - loc) for loc in range(width)),
    )
    step_cls.tables = tables
    return tables


class StoreSpace(Record):
    """The set of all stores over an ordered location list (default ``x, y``).

    The ``Packing`` tables of its width are its fields, shared by every
    space of that width: ``stores[i]`` is the store ``i``, ``steps[i]`` the
    transition ``i``, ``step_of[pre][post]`` the transition ``(pre, post)``,
    ``pre_of``/``post_of`` a step's stores, ``stutters[i]`` the stutter
    at ``stores[i]``, and ``pre_masks`` the values of ``pre_mask``.
    """

    __slots__ = ("locations", *Packing._fields)
    _compared = _fields = ("locations",)
    locations: tuple[str, ...]
    stores: tuple[Store, ...]
    steps: tuple[Transition, ...]
    stutters: tuple[Transition, ...]
    pre_of: tuple[Store, ...]
    post_of: tuple[Store, ...]
    step_of: tuple[tuple[Transition, ...], ...]
    pre_masks: tuple[int, ...]

    def __init__(self, locations: tuple[str, ...] = ("x", "y")) -> None:
        if not locations:
            raise ValueError("at least one location is required")
        if len(set(locations)) != len(locations):
            raise ValueError(f"duplicate locations in {locations}")
        self._set(locations, *packing(len(locations)))

    @property
    def width(self) -> int:
        return len(self.locations)

    def mask(self, loc: int) -> int:
        """The bit of location ``loc`` in a store."""
        return 1 << (len(self.locations) - 1 - loc)

    def pre_mask(self, loc: int) -> int:
        """The bit of location ``loc`` of a step's pre store, in the step:
        ``steps[step ^ pre_mask(loc)]`` is ``step`` with that bit flipped."""
        return self.pre_masks[loc]

    def parse_store(self, text: str) -> Store:
        if len(text) != len(self.locations) or any(c not in "01" for c in text):
            raise ValueError(
                f"store {text!r} must be {len(self.locations)} bits over 0/1"
            )
        return self.stores[int(text, 2)]
