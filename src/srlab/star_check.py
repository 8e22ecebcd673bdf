"""Bounded verification of mutually reduced families of group elements.

Identity-free sets M_1, ..., M_n are *mutually reduced* when every
product g_1 g_2 ... g_k = 1 whose factors come from the symmetric
closures of the sets has two cyclically adjacent factors lying together
in a single closure (indices wrap around, g_{k+1} = g_1).  The property
quantifies over all finite products, so it is only semi-decidable; the
checker enumerates products up to a caller-supplied length bound and
reports that bound alongside the verdict.

The search meets in the middle.  One walker enumerates the admissible
index sequences of a given length in lexicographic order, each with its
product.  For each length k the check indexes the suffix half-sequences by
their product, then walks the prefix half-sequences and joins them against
suffixes whose product inverts the prefix, checking the two seam
adjacencies.  A partial product whose size exceeds (open slots) * (largest
factor) is discarded: factor sizes are subadditive, so no completion can
cancel it back to the identity.  Counterexamples are therefore found
smallest length first, then lexicographically least in the fixed factor
order (factors sorted by size, then text).

The walker reads which item may follow which from bit masks: item i may
follow item j unless outs[j] & ins[i].  The check passes each factor's
closure mask as both, so no two factors of one closure are adjacent.
find_relation walks the same tree over the candidate generators and their
inverses (move 2j is z_j, move 2j + 1 its inverse), with ins[m] = 1 << m
and outs[m] = 1 << (m ^ 1), so no move follows its own inverse.

Each product is computed once per search.  A table keyed by index prefix
serves every length and, in the check, both halves, and is dropped when the
search returns.  The universe is closed under inversion, so the inverse a
prefix half is probed with is the product of its mirror, the reversed
sequence of inverse factors: it is looked up in the same table, and an
inverse that had to be computed is filed there under the mirror.
The expansion budget counts enumeration steps (visited prefixes), not
products computed, so a reused product spends as much budget as a new one
and the point where the budget runs out does not depend on the tables.

The experiments check the same hypotheses again and again, often on
identical sets, so each completed check is remembered: its verdict and the
budget it spent, keyed by the bound and the members of each set in order, in a
memo that belongs to the ops object (held weakly, so it dies with the
ops) and is emptied when it reaches a cap.  A repeated check replays the
spent budget against the new one instead of searching: the search spends
one unit per visited prefix in a fixed order, so it runs out exactly when
the replay does, with the same BudgetExceeded.  A check that ran out is
not remembered.

Adjacency is tested by membership: a pair is blocked when some closure
contains both factors, regardless of which set each factor was chosen
from.  An element may belong to several closures.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .elements import FreeGroupOps, GroupOps, _element_key, product_of
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    EmptySet,
    PreconditionViolated,
    StructureMismatch,
)
from .words import Word, generator, multiply, power

HOLDS = "HoldsUpToBound"
COUNTEREXAMPLE = "Counterexample"

DEFAULT_EXPANSION_BUDGET = 10_000_000

# completed check verdicts and the budget each spent, one memo per ops object;
# a memo dies with its ops and is emptied when it holds _VERDICT_CAP entries
_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_VERDICT_CAP = 4096


@dataclass(frozen=True)
class ElementSet:
    """Finite identity-free set of canonical group elements.

    Elements are deduplicated and kept in (size, text) order so that two
    sets with the same members compare equal and enumerations over them
    are deterministic.
    """

    ops: GroupOps
    elements: tuple
    members: frozenset = field(repr=False, compare=False)

    @staticmethod
    def of(ops: GroupOps, elements) -> "ElementSet":
        unique = frozenset(elements)
        for g in unique:
            if ops.is_identity(g):
                raise ValueError("identity element not allowed in an ElementSet")
        ordered = tuple(sorted(unique, key=_element_key(ops)))
        return ElementSet(ops, ordered, unique)

    @staticmethod
    def from_words(elements) -> "ElementSet":
        elements = list(elements)
        if not elements:
            raise EmptySet("cannot infer the alphabet of an empty word set")
        return ElementSet.of(FreeGroupOps(elements[0].alphabet), elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        return g in self.members


@dataclass(frozen=True)
class MutualVerdict:
    """Outcome of a bounded mutual-reduction check.

    status is HoldsUpToBound or Counterexample; bound is the product
    length that was requested; witness, when present, is the offending
    factor sequence.
    """

    status: str
    bound: int
    witness: Optional[tuple]

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _same_ops(sets: Sequence[ElementSet]) -> GroupOps:
    ops = sets[0].ops
    for s in sets[1:]:
        if s.ops != ops:
            raise AlphabetMismatch("element sets live in different groups")
    return ops


def symmetric_closure(m: ElementSet) -> ElementSet:
    """The set together with all inverses of its members."""
    inverses = [m.ops.invert(g) for g in m.elements]
    return ElementSet.of(m.ops, list(m.elements) + inverses)


def quotient_set(s: ElementSet) -> ElementSet:
    """{f, f^-1 f' | f, f' in s, f != f'}: the members with every quotient
    adjoined, the set whose mutual-reduction behaviour controls product
    isolation for s."""
    ops = s.ops
    out = list(s.elements)
    for f in s.elements:
        f_inv = ops.invert(f)
        for g in s.elements:
            if f != g:
                out.append(ops.multiply(f_inv, g))
    return ElementSet.of(ops, out)


def conjugate_set(m: ElementSet, x) -> ElementSet:
    """{x^-1 f x : f in m}; conjugation is injective, so |result| = |m|.

    x need only be an element the ops can invert (an HNN conjugator need
    only be Britton-reduced): the products use the canonical x^-1 and
    (x^-1)^-1, since multiply takes canonical operands."""
    ops = m.ops
    xinv = ops.invert(x)
    x = ops.invert(xinv)
    return ElementSet.of(
        ops, [ops.multiply(ops.multiply(xinv, f), x) for f in m.elements]
    )


class _Budget:
    """Units of work left; spending past the total raises BudgetExceeded with
    the given message, by default the one for an exhausted search."""

    __slots__ = ("left", "total", "message")

    def __init__(self, total: int, message: Optional[str] = None):
        self.left = total
        self.total = total
        self.message = message

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(
                self.message
                or f"mutual-reduction search exceeded expansion budget {self.total}"
            )


def _walk(ops, items, ins, outs, max_size, length, k, products, budget):
    """Yield the admissible index sequences of `length` items, each with its
    product, in lexicographic order.

    Item i may follow item j unless outs[j] & ins[i].  A partial with d
    items placed may still be completed to a length-k identity product only
    if its size fits in the remaining k - d slots.  products maps an index
    prefix to its (product, size) and is shared by every walk of one search,
    so each prefix is multiplied once.  The budget is spent per visited
    prefix, computed or reused.
    """
    n = len(items)
    prefix: tuple = ()
    blocked = 0  # outs of the last item placed
    nexts = [0]  # next candidate index at each open depth
    while nexts:
        i = nexts[-1]
        if i == n:
            nexts.pop()
            prefix = prefix[:-1]
            blocked = outs[prefix[-1]] if prefix else 0
            continue
        nexts[-1] = i + 1
        if blocked & ins[i]:
            continue
        budget.spend()
        extended = prefix + (i,)
        entry = products.get(extended)
        if entry is None:
            prod = ops.multiply(products[prefix][0], items[i])
            entry = products[extended] = (prod, ops.size(prod))
        if entry[1] > (k - len(extended)) * max_size:
            continue
        if len(extended) == length:
            yield extended, entry[0]
        else:
            prefix = extended
            blocked = outs[i]
            nexts.append(0)


def _search_length(k, universe, masks, flip, max_size, products, ops, budget):
    k1 = (k + 1) // 2
    k2 = k - k1
    by_product: dict = {}
    for indices, prod in _walk(ops, universe, masks, masks, max_size, k2, k, products, budget):
        by_product.setdefault(prod, []).append(indices)
    if not by_product:
        return None
    for indices, prod in _walk(ops, universe, masks, masks, max_size, k1, k, products, budget):
        # the inverse of the prefix's product is the product of its mirror,
        # the reversed prefix of inverse factors; size is inversion-invariant
        mirror = tuple(flip[i] for i in reversed(indices))
        entry = products.get(mirror)
        if entry is None:
            entry = products[mirror] = (ops.invert(prod), products[indices][1])
        suffixes = by_product.get(entry[0])
        if not suffixes:
            continue
        seam_mask = masks[indices[-1]]
        head_mask = masks[indices[0]]
        for suffix in suffixes:
            if masks[suffix[0]] & seam_mask:
                continue
            if masks[suffix[-1]] & head_mask:
                continue
            return tuple(universe[i] for i in indices + suffix)
    return None


def check_mutually_reduced(
    sets: Sequence[ElementSet],
    max_len: int,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> MutualVerdict:
    """Search for a violating product of length <= max_len.

    Returns the lexicographically first counterexample of minimal
    length, or HoldsUpToBound when none exists within the bound.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    sets = list(sets)
    if not sets:
        return MutualVerdict(HOLDS, max_len, None)
    ops = _same_ops(sets)
    memo = _VERDICTS.setdefault(ops, {})
    key = (max_len, tuple(s.members for s in sets))
    known = memo.get(key)
    if known is not None:
        verdict, spent = known
        # raises exactly when the search would have run out, with its message
        _Budget(expansion_budget).spend(spent)
        return verdict
    budget = _Budget(expansion_budget)
    verdict = _search(sets, ops, max_len, budget)
    if len(memo) >= _VERDICT_CAP:
        memo.clear()
    memo[key] = (verdict, budget.total - budget.left)
    return verdict


def _search(sets, ops, max_len, budget) -> MutualVerdict:
    closures = [symmetric_closure(s).members for s in sets]
    universe = sorted({g for c in closures for g in c}, key=_element_key(ops))
    if not universe:
        return MutualVerdict(HOLDS, max_len, None)
    masks = [
        sum(1 << j for j, c in enumerate(closures) if g in c) for g in universe
    ]
    position = {g: i for i, g in enumerate(universe)}
    flip = [position[ops.invert(g)] for g in universe]
    max_size = max(ops.size(g) for g in universe)
    products = {(): (ops.identity_element(), 0)}
    for k in range(2, max_len + 1):
        witness = _search_length(
            k, universe, masks, flip, max_size, products, ops, budget
        )
        if witness is not None:
            return MutualVerdict(COUNTEREXAMPLE, max_len, witness)
    return MutualVerdict(HOLDS, max_len, None)


def check_conjugated_copies(
    m: ElementSet,
    conjugators,
    max_len: int,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> MutualVerdict:
    """Check the copies x^-1 m x, one per conjugator x, for mutual reduction.

    The check blocks two adjacent factors when one closure holds both,
    whichever copy each was drawn from, so its verdict certifies condition
    (*) for the conjugators only when the copies' symmetric closures are
    pairwise disjoint; copies that share an element raise
    PreconditionViolated."""
    copies = [conjugate_set(m, x) for x in conjugators]
    closures = [symmetric_closure(c) for c in copies]
    for i, first in enumerate(closures):
        for j in range(i + 1, len(closures)):
            shared = next((g for g in first if g in closures[j]), None)
            if shared is not None:
                raise PreconditionViolated(
                    f"conjugated copies {i + 1} and {j + 1} share "
                    f"{m.ops.fmt(shared)}, so a mutual-reduction check "
                    "cannot certify the triple"
                )
    return check_mutually_reduced(copies, max_len, expansion_budget)


def verify_mutual_witness(sets: Sequence[ElementSet], witness) -> bool:
    """Independently re-check a counterexample sequence.

    True when every factor lies in some closure, the product is the
    identity, and no cyclically adjacent pair shares a closure.
    """
    witness = tuple(witness)
    if len(witness) < 2:
        return False
    sets = list(sets)
    if not sets:
        return False
    ops = _same_ops(sets)
    closures = [symmetric_closure(s).members for s in sets]
    for g in witness:
        if not any(g in c for c in closures):
            return False
    if not ops.is_identity(product_of(ops, witness)):
        return False
    k = len(witness)
    for i in range(k):
        g, h = witness[i], witness[(i + 1) % k]
        if any(g in c and h in c for c in closures):
            return False
    return True


def star_witness_locally_free(m: ElementSet, x: str, y: str) -> tuple[Word, Word, Word]:
    """Conjugators x_i = x^(2p+i) y x^(2p+i) over the longest member p.

    The three conjugated copies of m are expected to be mutually reduced;
    check_mutually_reduced is the acceptance oracle for that claim.
    """
    if not m.elements:
        raise EmptySet("witness construction needs a non-empty element set")
    if x == y:
        raise ValueError("the two generators must be distinct")
    first = m.elements[0]
    if not isinstance(first, Word):
        raise StructureMismatch("locally-free witnesses require free-group words")
    alphabet = first.alphabet
    p = max(len(w) for w in m.elements)
    gx = generator(alphabet, x)
    gy = generator(alphabet, y)
    out = []
    for i in (1, 2, 3):
        wing = power(gx, 2 * p + i)
        out.append(multiply(multiply(wing, gy), wing))
    return tuple(out)


@dataclass(frozen=True)
class FreeGenVerdict:
    """Outcome of a bounded free-generator certificate.

    relation, when present, is the offending word in the candidate
    generators as (pair index, exponent) syllables.
    """

    holds: bool
    bound: int
    relation: Optional[tuple]
    mutual: MutualVerdict


def free_generator_certificate(
    m1: ElementSet,
    m2: ElementSet,
    pairing,
    max_len: int,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> FreeGenVerdict:
    """Certify that z_i = x_i y_i^-1 freely generate, up to a bound.

    m1 must equal {x_i} with all quotients x_i^-1 x_j adjoined, m2 the
    same for the y_i.  The certificate searches for a nontrivial relation
    among the z_i of syllable length <= max_len and additionally requires
    the pair (m1, m2) to be mutually reduced at the same bound.
    """
    pairing = list(pairing)
    if not pairing:
        raise StructureMismatch("pairing must name at least one generator pair")
    ops = _same_ops([m1, m2])
    xs = [p[0] for p in pairing]
    ys = [p[1] for p in pairing]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise StructureMismatch("paired elements must be distinct")
    sides = ((m1, xs, "first set is not {x_i}"), (m2, ys, "second set is not {y_i}"))
    for given, members, which in sides:
        # an ElementSet never holds the identity, so a pairing with one fails
        if any(ops.is_identity(g) for g in members) or (
            given.members != quotient_set(ElementSet.of(ops, members)).members
        ):
            raise StructureMismatch(which + " with quotients adjoined")
    zs = [ops.multiply(x, ops.invert(y)) for x, y in zip(xs, ys)]
    relation = find_relation(ops, zs, max_len, expansion_budget)
    mutual = check_mutually_reduced([m1, m2], max_len, expansion_budget)
    holds = relation is None and mutual.holds
    return FreeGenVerdict(holds, max_len, relation, mutual)


def find_relation(ops, elements, max_len: int, expansion_budget: int = DEFAULT_EXPANSION_BUDGET):
    """Shortest nontrivial relation among the elements, as a tuple of
    (index, exponent) pairs with no adjacent inverse pair, or None if every
    reduced product of syllable length <= max_len is nontrivial.

    Iterative deepening keeps the first hit shortest, then lexicographically
    least; the subadditive size bound prunes products that cannot return to
    the identity in the remaining syllables.  Each limit is one walk of the
    check's walker over the moves, and the walks share one table keyed by
    move prefix, so each prefix is multiplied once; the budget is spent per
    visited prefix, computed or reused.
    """
    elements = list(elements)
    budget = _Budget(expansion_budget)
    max_z = max((ops.size(z) for z in elements), default=0)

    # move 2j is z_j and move 2j + 1 its inverse, so move m may not follow m ^ 1
    syllables = [(j, exp) for j in range(len(elements)) for exp in (1, -1)]
    values = [val for z in elements for val in (z, ops.invert(z))]
    ins = [1 << m for m in range(len(values))]
    outs = [1 << (m ^ 1) for m in range(len(values))]
    products = {(): (ops.identity_element(), 0)}
    for limit in range(1, max_len + 1):
        for seq, prod in _walk(ops, values, ins, outs, max_z, limit, limit, products, budget):
            if ops.is_identity(prod):
                return tuple(syllables[m] for m in seq)
    return None
