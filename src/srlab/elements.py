"""Uniform group-element interface for the bounded product searches.

The checkers in :mod:`srlab.star_check` enumerate products of elements
drawn from arbitrary groups.  They only need multiplication, inversion,
an identity test, a size estimate for pruning, and a stable text form
for reports.  Concrete groups supply those through a small ops object;
free-group words are covered here, structured HNN and amalgam elements
ship their own ops in their modules.

Requirements on an ops object:

- elements are canonical values: equal group elements compare and hash
  equal, so they can key dictionaries;
- ``size`` is subadditive (size(g*h) <= size(g) + size(h)), invariant
  under inversion, and zero exactly on the identity;
- the ops object itself is hashable and weakly referenceable, and equals
  only an ops that computes the same results: the mutual-reduction checker
  keeps its memo of verdicts per ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Hashable, Protocol

from .errors import ParseError
from .words import Alphabet, Word, identity, invert, multiply


class GroupOps(Protocol):
    """multiply takes canonical operands, the elements that the ops' own
    constructors and operations return; the extension ops compute a product
    from the seam and keep the operands' other syllables as they are.  The
    identity element is canonical, and identity * g canonicalizes g."""

    def multiply(self, g, h): ...

    def invert(self, g): ...

    def identity_element(self): ...

    def is_identity(self, g) -> bool: ...

    def size(self, g) -> int: ...

    def fmt(self, g) -> str: ...


def _element_key(ops: GroupOps):
    """The sort key of the element order, size first and then text: element
    sets, the mutual-reduction universe and ring terms all follow it."""
    size, fmt = ops.size, ops.fmt
    return lambda g: (size(g), fmt(g))


@dataclass(frozen=True)
class FreeGroupOps:
    """Free-group words over a fixed alphabet as checker elements."""

    alphabet: Alphabet

    def multiply(self, g: Word, h: Word) -> Word:
        return multiply(g, h)

    def invert(self, g: Word) -> Word:
        return invert(g)

    def identity_element(self) -> Word:
        return identity(self.alphabet)

    def is_identity(self, g: Word) -> bool:
        return g.is_identity

    def size(self, g: Word) -> int:
        return len(g)

    def fmt(self, g: Word) -> str:
        return str(g)


def product_of(ops: GroupOps, factors) -> Hashable:
    """Left-to-right product of an iterable of elements."""
    acc = ops.identity_element()
    for g in factors:
        acc = ops.multiply(acc, g)
    return acc


def map_basis_coords(
    alphabet: Alphabet, basis: tuple[Word, ...], coords: tuple[int, ...]
) -> Word:
    """Product of signed basis words: coords (i, -j, ...) selects
    basis[i-1] * basis[j-1]^-1 * ...; the index-aligned isomorphisms in the
    extension modules are applied this way."""
    out = identity(alphabet)
    for e in coords:
        w = basis[abs(e) - 1]
        out = multiply(out, w if e > 0 else invert(w))
    return out


def presentation_json(
    text: str, strings=(), lists=(), pairs=(), optional_lists=()
) -> dict:
    """The JSON object of an extension presentation, its shape checked: keys
    in strings hold a string, keys in lists a list of words, keys in pairs a
    list of [word, word] pairs, keys in optional_lists a list of words or
    null or nothing.  A missing key or a wrong shape is a ParseError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ParseError("presentation JSON must be an object")
    is_words = lambda v: isinstance(v, list) and all(isinstance(w, str) for w in v)
    checks = (
        (strings, "a string", lambda v: isinstance(v, str)),
        (lists, "a list of words", is_words),
        (optional_lists, "a list of words or null", lambda v: v is None or is_words(v)),
        (
            pairs,
            "a list of [word, word] pairs",
            lambda v: isinstance(v, list) and all(is_words(p) and len(p) == 2 for p in v),
        ),
    )
    for keys, shape, ok in checks:
        for key in keys:
            if not ok(data.get(key)):
                raise ParseError(f"presentation key {key!r} must hold {shape}")
    return data
