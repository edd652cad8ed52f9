"""Finite bit stores over a fixed, ordered list of memory locations.

A store assigns one bit to every location.  Stores render as bitstrings in
declared location order, so with locations ``(x, y)`` the string ``"10"``
means x=1, y=0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple


class Store(NamedTuple):
    """A total assignment of bits, positionally aligned with a location list."""

    bits: tuple[int, ...]

    def get(self, index: int) -> int:
        return self.bits[index]

    def set(self, index: int, bit: int) -> "Store":
        return Store(self.bits[:index] + (bit,) + self.bits[index + 1 :])

    def render(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __str__(self) -> str:
        return self.render()


class Transition(NamedTuple):
    """A guarantee step: relies on store ``pre``, leaves store ``post``."""

    pre: Store
    post: Store

    def is_stutter(self) -> bool:
        return self.pre == self.post

    def render(self) -> str:
        return f"({self.pre.render()},{self.post.render()})"


@dataclass(frozen=True)
class StoreSpace:
    """The set of all stores over an ordered location list (default ``x, y``).

    Two tables, built once per space, spare the model operations from
    building stores and stutters per generator: ``with_bit[loc][bit][s]`` is
    the member of ``stores`` equal to ``s.set(loc, bit)``, and
    ``stutters[i]`` is the stutter ``Transition(s, s)`` at ``s = stores[i]``.
    """

    locations: tuple[str, ...] = ("x", "y")
    stores: tuple[Store, ...] = field(init=False, repr=False, compare=False)
    with_bit: tuple[tuple[dict[Store, Store], dict[Store, Store]], ...] = field(
        init=False, repr=False, compare=False
    )
    stutters: tuple[Transition, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.locations:
            raise ValueError("at least one location is required")
        if len(set(self.locations)) != len(self.locations):
            raise ValueError(f"duplicate locations in {self.locations}")
        all_stores = tuple(
            Store(bits) for bits in itertools.product((0, 1), repeat=len(self.locations))
        )
        # ``all_stores[i]`` has the bits of ``i``, most significant first
        width = len(self.locations)
        with_bit = tuple(
            tuple(
                {s: all_stores[i & ~mask | mask * bit] for i, s in enumerate(all_stores)}
                for bit in (0, 1)
            )
            for mask in (1 << (width - 1 - loc) for loc in range(width))
        )
        object.__setattr__(self, "stores", all_stores)
        object.__setattr__(self, "with_bit", with_bit)
        object.__setattr__(self, "stutters", tuple(Transition(s, s) for s in all_stores))

    def __len__(self) -> int:
        return len(self.stores)

    def index(self, location: str) -> int:
        try:
            return self.locations.index(location)
        except ValueError:
            raise KeyError(f"unknown location {location!r}") from None

    def parse_store(self, text: str) -> Store:
        if len(text) != len(self.locations) or any(c not in "01" for c in text):
            raise ValueError(
                f"store {text!r} must be {len(self.locations)} bits over 0/1"
            )
        return Store(tuple(int(c) for c in text))
