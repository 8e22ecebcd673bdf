"""HNN extensions of a free base group with finitely generated associated subgroups.

An extension G* = <G, t | t^-1 a t = phi(a) for a in A> is described by a base
alphabet, a fresh stable symbol t, and two subgroup automata A, B over the base
together with an index-aligned basis bijection phi: the i-th basis word of A
maps to the i-th basis word of B.  Both bases are required to be independent
(RedundantBasis otherwise), so phi extends to an isomorphism A -> B and is
computed by expressing a member in A's basis and mapping basis-wise; the
presentation memoizes the images of phi and phi^-1.

Elements are kept in syllable form g0 t^{e1} g1 ... t^{en} gn.  Britton
reduction removes pinches t^-1 g t (g in A) and t g t^-1 (g in B); the normal
form additionally replaces each g_i (i >= 1) by the canonical right-coset
representative of A (after t^-1) or B (after t), pushing the subgroup part
leftward through the stable letter.  Normal forms are canonical: two words are
equal in G* iff their normal forms are identical.

A product u*v of normal forms is computed from the seam (Lyndon-Schupp,
ch. IV.2).  The tail of u is pinched against the head of v; the syllable
left at the junction is made a coset representative, and its subgroup part
is carried leftward through u until a carry is trivial.  The syllables of v
past the junction are coset representatives already and carries only move
left, so they are kept as they are; the syllables of u left of the last
carry pass nothing on.  The result, and the phi letters spent, equal those
of the full normal form of the concatenation.  A base u (no syllables) takes
the full path.  The inverse of a normal form is Britton-reduced, so it only
needs the coset pass.

Iterated phi application can blow up (Baumslag-Solitar style presentations
square lengths per pinch), so every reducing operation takes an expansion
budget counted in letters produced by phi images and raises BudgetExceeded
when it runs out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .elements import presentation_json
from .errors import (
    AlphabetMismatch,
    AmbientMismatch,
    HypothesisViolation,
    PreconditionViolated,
    StructureMismatch,
)
from .star_check import DEFAULT_EXPANSION_BUDGET, ElementSet, _Budget
from .subgroups import SubgroupAutomaton, aligned_bases, basis_image, displaces
from .words import (
    Alphabet,
    Word,
    from_signed,
    identity,
    invert,
    iter_reduced_words,
    multiply,
    parse_word,
)

DEFAULT_SEARCH_LEN = 6


@dataclass(frozen=True)
class HnnPresentation:
    """Immutable HNN extension data; automata are derived and cached."""

    alphabet: Alphabet
    stable: str
    a_basis: tuple[Word, ...]
    b_basis: tuple[Word, ...]
    a_sub: SubgroupAutomaton = field(init=False, repr=False, compare=False, hash=False)
    b_sub: SubgroupAutomaton = field(init=False, repr=False, compare=False, hash=False)
    full_alphabet: Alphabet = field(init=False, repr=False, compare=False, hash=False)
    # phi and phi^-1 images, keyed by letters and capped like the express memo
    _phi: dict = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )
    _phi_inv: dict = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_basis", tuple(self.a_basis))
        object.__setattr__(self, "b_basis", tuple(self.b_basis))
        # stable symbol freshness and validity both fall out of Alphabet checks
        full = Alphabet((*self.alphabet.symbols, self.stable))
        object.__setattr__(self, "full_alphabet", full)
        a_sub, b_sub = aligned_bases(self.alphabet, self.a_basis, self.alphabet, self.b_basis)
        object.__setattr__(self, "a_sub", a_sub)
        object.__setattr__(self, "b_sub", b_sub)

    # -- the defining isomorphism -----------------------------------------

    def phi(self, w: Word) -> Word:
        """Image of a member of A under the basis bijection A -> B."""
        return basis_image(self._phi, self.a_sub, self.alphabet, self.b_basis, w)

    def phi_inv(self, w: Word) -> Word:
        return basis_image(self._phi_inv, self.b_sub, self.alphabet, self.a_basis, w)

    def in_associated(self, w: Word) -> bool:
        return self.a_sub.contains(w) or self.b_sub.contains(w)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "base": list(self.alphabet.symbols),
            "stable": self.stable,
            "A": [str(w) for w in self.a_basis],
            "B": [str(w) for w in self.b_basis],
            "phi": [[str(a), str(b)] for a, b in zip(self.a_basis, self.b_basis)],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "HnnPresentation":
        data = presentation_json(
            text, strings=("stable",), lists=("base",), pairs=("phi",),
            optional_lists=("A", "B"),
        )
        alphabet = Alphabet(tuple(data["base"]))
        pairs = [
            (parse_word(alphabet, a), parse_word(alphabet, b)) for a, b in data["phi"]
        ]
        p = HnnPresentation(
            alphabet,
            data["stable"],
            tuple(a for a, _ in pairs),
            tuple(b for _, b in pairs),
        )
        # A/B lists are redundant with phi's columns; reject if they disagree
        for key, basis in (("A", p.a_basis), ("B", p.b_basis)):
            listed = tuple(parse_word(alphabet, w) for w in data.get(key, ()))
            if data.get(key) is not None and listed != basis:
                raise StructureMismatch(
                    f"{key} list does not match the {key}-side column of phi"
                )
        return p


@dataclass(frozen=True)
class HnnWord:
    """Syllable form g0 t^{e1} g1 ... t^{en} gn; not necessarily reduced.

    The hash is computed once, on first use: elements key the product
    tables of the searches, and each lookup would otherwise rehash every
    syllable."""

    g0: Word
    syllables: tuple[tuple[int, Word], ...] = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", tuple(self.syllables))
        for eps, g in self.syllables:
            if eps not in (1, -1):
                raise ValueError(f"stable-letter exponent must be +1 or -1, got {eps}")
            if g.alphabet.symbols != self.g0.alphabet.symbols:
                raise AlphabetMismatch("syllable alphabet differs from head alphabet")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.g0, self.syllables)))
        return self._hash

    @property
    def t_length(self) -> int:
        return len(self.syllables)

    @property
    def is_base(self) -> bool:
        return not self.syllables


def embed(p: HnnPresentation, w: Word) -> HnnWord:
    if w.alphabet.symbols != p.alphabet.symbols:
        raise AlphabetMismatch("word alphabet differs from the base alphabet")
    return HnnWord(w, ())


def hnn_identity(p: HnnPresentation) -> HnnWord:
    return HnnWord(identity(p.alphabet), ())


def structure_word(p: HnnPresentation, w: Word) -> HnnWord:
    """Split a word over base+stable into syllable form at the stable letter."""
    if w.alphabet.symbols != p.full_alphabet.symbols:
        raise AlphabetMismatch("word alphabet differs from the extended alphabet")
    return hnn_word_from_signed(p, w.letters)


def hnn_word_from_signed(p: HnnPresentation, seq: Sequence[int]) -> HnnWord:
    """Split a signed sequence over base-plus-stable letters at the stable
    letter WITHOUT reducing across it; base chunks reduce freely, which is
    sound because each chunk is a base group element."""
    t_index = len(p.alphabet) + 1
    chunks: list[list[int]] = [[]]
    signs: list[int] = []
    for letter in seq:
        if abs(letter) == t_index:
            signs.append(1 if letter > 0 else -1)
            chunks.append([])
        else:
            chunks[-1].append(letter)
    return HnnWord(
        from_signed(p.alphabet, chunks[0]),
        tuple((s, from_signed(p.alphabet, c)) for s, c in zip(signs, chunks[1:])),
    )


def parse_hnn_word(p: HnnPresentation, text: str) -> HnnWord:
    return structure_word(p, parse_word(p.full_alphabet, text))


def to_plain_word(p: HnnPresentation, w: HnnWord) -> Word:
    """Flatten to a word over base+stable (freely reduced; lossless on
    Britton-reduced input since no stable letter can cancel there)."""
    t_index = len(p.alphabet) + 1
    letters: list[int] = list(w.g0.letters)
    for eps, g in w.syllables:
        letters.append(eps * t_index)
        letters.extend(g.letters)
    return from_signed(p.full_alphabet, letters)


def format_hnn_word(p: HnnPresentation, w: HnnWord) -> str:
    return str(to_plain_word(p, w))


def hnn_invert(w: HnnWord) -> HnnWord:
    """(g0 t^{e1} g1 ... t^{en} gn)^-1 without any reduction."""
    sylls: list[tuple[int, Word]] = []
    prev = [invert(g) for _, g in w.syllables]
    heads = [invert(w.g0)] + prev[:-1]
    for (eps, _), head in zip(reversed(w.syllables), reversed(heads)):
        sylls.append((-eps, head))
    g0 = invert(w.syllables[-1][1]) if w.syllables else invert(w.g0)
    return HnnWord(g0, tuple(sylls))


def hnn_concat(u: HnnWord, v: HnnWord) -> HnnWord:
    if u.g0.alphabet.symbols != v.g0.alphabet.symbols:
        raise AlphabetMismatch("cannot concatenate words over different alphabets")
    if not u.syllables:
        return HnnWord(multiply(u.g0, v.g0), v.syllables)
    last_eps, last_g = u.syllables[-1]
    merged = u.syllables[:-1] + ((last_eps, multiply(last_g, v.g0)),)
    return HnnWord(u.g0, merged + v.syllables)


# the BudgetExceeded message of a letter budget for phi images (one per reduction)
_PHI_EXHAUSTED = (
    "isomorphism application budget exhausted; the presentation "
    "expands too fast at this word (raise the expansion budget)"
)


def _pinch_image(p: HnnPresentation, eps: int, g: Word) -> Word | None:
    """Image carried through a pinch t^eps g t^-eps, or None if not a pinch."""
    if eps == -1:
        return p.phi(g) if p.a_sub.contains(g) else None
    return p.phi_inv(g) if p.b_sub.contains(g) else None


def is_britton_reduced(p: HnnPresentation, w: HnnWord) -> bool:
    for (e1, g), (e2, _) in zip(w.syllables, w.syllables[1:]):
        if e2 == -e1 and _pinch_image(p, e1, g) is not None:
            return False
    return True


def britton_reduce(
    p: HnnPresentation, w: HnnWord, budget: int = DEFAULT_EXPANSION_BUDGET
) -> HnnWord:
    """Remove pinches t^-1 g t (g in A) and t g t^-1 (g in B) until none remain.

    Each pinch deletes two stable letters, so this terminates; the budget
    bounds the total length of phi images produced along the way.
    """
    return _britton(p, w, _Budget(budget, _PHI_EXHAUSTED))


def _britton(p: HnnPresentation, w: HnnWord, budget: _Budget) -> HnnWord:
    g0 = w.g0
    stack: list[tuple[int, Word]] = []
    for eps, g in w.syllables:
        if stack and stack[-1][0] == -eps:
            image = _pinch_image(p, stack[-1][0], stack[-1][1])
            if image is not None:
                budget.spend(len(image))
                stack.pop()
                carried = multiply(image, g)
                if stack:
                    le, lg = stack.pop()
                    stack.append((le, multiply(lg, carried)))
                else:
                    g0 = multiply(g0, carried)
                continue
        stack.append((eps, g))
    return HnnWord(g0, tuple(stack))


def normal_form(
    p: HnnPresentation, w: HnnWord, budget: int = DEFAULT_EXPANSION_BUDGET
) -> HnnWord:
    """Canonical form: Britton-reduce, then make each g_i (i >= 1) the
    canonical right-coset representative (of A after t^-1, of B after t) by
    carrying the subgroup part leftward through the stable letter.

    Equal group elements produce identical normal forms; the head g0 absorbs
    everything that commutes out.
    """
    tracker = _Budget(budget, _PHI_EXHAUSTED)
    w = _britton(p, w, tracker)
    return _coset_pass(p, w.g0, list(w.syllables), (), tracker, False)


def _coset_pass(
    p: HnnPresentation,
    g0: Word,
    sylls: list[tuple[int, Word]],
    settled: tuple[tuple[int, Word], ...],
    tracker: _Budget,
    canonical_left: bool,
) -> HnnWord:
    """Make the Britton-reduced sylls coset representatives, right to left,
    and append the settled syllables, which already are.  Each subgroup
    part moves left through its stable letter (t^-1 a = phi(a) t^-1,
    t b = phi^-1(b) t) into the previous syllable or g0.  When the
    syllables left of each one are representatives too (canonical_left),
    the pass stops at the first trivial carry: it would change nothing
    further and spend nothing."""
    for i in range(len(sylls) - 1, -1, -1):
        eps, g = sylls[i]
        sub, image_of = (p.a_sub, p.phi) if eps == -1 else (p.b_sub, p.phi_inv)
        rep = sub.coset_representative(g)
        part = multiply(g, invert(rep))
        if not part:  # g is its own representative and carries nothing
            if canonical_left:
                break
            continue
        image = image_of(part)
        tracker.spend(len(image))
        sylls[i] = (eps, rep)
        if i > 0:
            pe, pg = sylls[i - 1]
            sylls[i - 1] = (pe, multiply(pg, image))
        else:
            g0 = multiply(g0, image)
    # carries stay inside A or B, so no junction can become a new pinch
    return HnnWord(g0, (*sylls, *settled))


def _seam_product(
    p: HnnPresentation, u: HnnWord, v: HnnWord, tracker: _Budget
) -> HnnWord:
    """Normal form of u*v for normal forms u (with syllables) and v: the
    Britton pass over the concatenation pinches only at the seam, and the
    coset pass changes only the junction and what its carries reach."""
    stack = list(u.syllables)
    eps, g = stack[-1]
    stack[-1] = (eps, multiply(g, v.g0))
    g0 = u.g0
    rest = v.syllables
    j = 0
    while j < len(rest) and stack and stack[-1][0] == -rest[j][0]:
        image = _pinch_image(p, *stack[-1])
        if image is None:
            break
        tracker.spend(len(image))
        stack.pop()
        carried = multiply(image, rest[j][1])
        if stack:
            le, lg = stack[-1]
            stack[-1] = (le, multiply(lg, carried))
        else:
            g0 = multiply(g0, carried)
        j += 1
    return _coset_pass(p, g0, stack, rest[j:], tracker, True)


def is_normal_form(p: HnnPresentation, w: HnnWord) -> bool:
    if not is_britton_reduced(p, w):
        return False
    for eps, g in w.syllables:
        sub = p.a_sub if eps == -1 else p.b_sub
        if g != sub.coset_representative(g):
            return False
    return True


def is_identity(
    p: HnnPresentation, w: HnnWord, budget: int = DEFAULT_EXPANSION_BUDGET
) -> bool:
    reduced = britton_reduce(p, w, budget)
    return reduced.is_base and reduced.g0.is_identity


def words_equal(
    p: HnnPresentation, u: HnnWord, v: HnnWord, budget: int = DEFAULT_EXPANSION_BUDGET
) -> bool:
    return is_identity(p, hnn_concat(u, hnn_invert(v)), budget)


@dataclass(frozen=True)
class HnnOps:
    """Group operations on canonical (normal-form) extension elements.

    multiply and invert take canonical operands, as every element this
    module's element sets and operations return is.  multiply(u, v) works
    from the seam and keeps the syllables away from the junction as they
    are; a base u has no syllables to keep, so u*v is then the full normal
    form of the concatenation, and v may be any element.  invert skips the
    Britton pass, which finds no pinch in the inverse of a reduced word.

    size is the stable-letter count, or 1 for a nontrivial base element:
    subadditive because Britton reduction never raises the count, zero exactly
    on the identity, and invariant under inversion.
    """

    presentation: HnnPresentation
    budget: int = DEFAULT_EXPANSION_BUDGET

    def multiply(self, u: HnnWord, v: HnnWord) -> HnnWord:
        if not u.syllables:
            return normal_form(self.presentation, hnn_concat(u, v), self.budget)
        return _seam_product(self.presentation, u, v, _Budget(self.budget, _PHI_EXHAUSTED))

    def invert(self, u: HnnWord) -> HnnWord:
        w = hnn_invert(u)
        p, tracker = self.presentation, _Budget(self.budget, _PHI_EXHAUSTED)
        return _coset_pass(p, w.g0, list(w.syllables), (), tracker, False)

    def identity_element(self) -> HnnWord:
        return hnn_identity(self.presentation)

    def is_identity(self, u: HnnWord) -> bool:
        return u.is_base and u.g0.is_identity

    def size(self, u: HnnWord) -> int:
        if u.syllables:
            return len(u.syllables)
        return 0 if u.g0.is_identity else 1

    def fmt(self, u: HnnWord) -> str:
        return format_hnn_word(self.presentation, u)


def to_hnn_word(
    p: HnnPresentation,
    item: "HnnWord | Word | str",
    budget: int = DEFAULT_EXPANSION_BUDGET,
) -> HnnWord:
    """The element that text, a base word, a base+stable word or a syllable
    word denotes, in normal form, so HnnOps can take it."""
    if isinstance(item, HnnWord):
        if item.g0.alphabet.symbols != p.alphabet.symbols:
            raise AmbientMismatch("syllable word belongs to a different presentation")
        w = item
    elif isinstance(item, str):
        w = parse_hnn_word(p, item)
    elif item.alphabet.symbols == p.alphabet.symbols:
        w = embed(p, item)
    elif item.alphabet.symbols == p.full_alphabet.symbols:
        w = structure_word(p, item)
    else:
        raise AmbientMismatch(
            f"word over {item.alphabet.symbols} fits neither the base nor the "
            "extended alphabet"
        )
    return normal_form(p, w, budget)


def hnn_element_set(
    p: HnnPresentation,
    items: Iterable["HnnWord | Word | str"],
    budget: int = DEFAULT_EXPANSION_BUDGET,
) -> ElementSet:
    """Canonicalize members and bundle them with the extension's operations."""
    ops = HnnOps(p, budget)
    return ElementSet.of(ops, [to_hnn_word(p, x, budget) for x in items])


# -- free-subgroup criterion (proper associated subgroups, displacing element) --


def find_word_outside(
    p: HnnPresentation, max_len: int = DEFAULT_SEARCH_LEN
) -> Word | None:
    """Shortlex-first base word outside A and B; None if none up to max_len."""
    for w in iter_reduced_words(p.alphabet, max_len):
        if not p.in_associated(w):
            return w
    return None


def is_ascending(p: HnnPresentation) -> bool:
    """True when A or B is the whole base group (no displacing element exists)."""
    gens = [from_signed(p.alphabet, (i,)) for i in range(1, len(p.alphabet) + 1)]
    return all(p.a_sub.contains(g) for g in gens) or all(
        p.b_sub.contains(g) for g in gens
    )


def star_witness_hypotheses(
    p: HnnPresentation, search_len: int = DEFAULT_SEARCH_LEN
) -> Word | None:
    """Search for a base element conjugating an associated subgroup off itself.

    Certifies the free-subgroup criterion hypotheses: A u B must miss some
    bounded-length word, and some bounded-length g outside A u B must satisfy
    g^-1 A g n A = 1 (preferred) or g^-1 B g n B = 1.  Returns the
    shortlex-first such g, A-side candidates first, or None at the bound.
    """
    if p.a_sub.is_trivial or p.b_sub.is_trivial:
        raise HypothesisViolation("both associated subgroups must be nontrivial")
    if find_word_outside(p, search_len) is None:
        return None
    for sub in (p.a_sub, p.b_sub):
        for g in iter_reduced_words(p.alphabet, search_len):
            if p.in_associated(g):
                continue
            if displaces(sub, g):
                return g
    return None


def star_witness_hnn(
    p: HnnPresentation,
    m: "ElementSet | Iterable[HnnWord | Word | str]",
    g: Word,
    h: Word,
    budget: int = DEFAULT_EXPANSION_BUDGET,
) -> tuple[HnnWord, HnnWord, HnnWord]:
    """Three conjugators x_i = t^-q_i g t h^-1 t^q_i making {m^x_i} mutually
    reduced, with q minimal so that q exceeds every member's stable-letter
    count in normal form and q_i = q + i.

    g must displace A (g^-1 A g n A = 1, g outside A u B); h must lie outside
    A u B.  Both sides of each x_i then block Britton pinches at the seams, so
    products mixing distinct conjugates can never collapse.
    """
    for w, name in ((g, "g"), (h, "h")):
        if w.alphabet.symbols != p.alphabet.symbols:
            raise AlphabetMismatch(f"{name} must be a word over the base alphabet")
        if p.in_associated(w):
            raise PreconditionViolated(
                f"{name} lies in an associated subgroup; the seam argument needs "
                f"{name} outside A u B"
            )
    if not displaces(p.a_sub, g):
        raise PreconditionViolated(
            "g^-1 A g n A is nontrivial; pass a g certified for the A side"
        )
    members = m.elements if isinstance(m, ElementSet) else tuple(m)
    if not members:
        raise PreconditionViolated("m must be a nonempty set of nontrivial elements")
    deepest = 0
    for item in members:
        nf = to_hnn_word(p, item, budget)
        if nf.is_base and nf.g0.is_identity:
            raise PreconditionViolated("m must not contain the identity")
        deepest = max(deepest, nf.t_length)
    q = deepest + 1
    one = identity(p.alphabet)
    h_inv = invert(h)
    out = []
    for i in (1, 2, 3):
        wing = q + i
        sylls = (
            [(-1, one)] * (wing - 1)
            + [(-1, g)]
            + [(1, h_inv)]
            + [(1, one)] * wing
        )
        out.append(HnnWord(one, tuple(sylls)))
    return tuple(out)
