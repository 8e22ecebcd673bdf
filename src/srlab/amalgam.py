"""Amalgamated free products of two free factors over a common finitely
generated subgroup.

A presentation stores the two factor alphabets, the amalgamated subgroup H as
a Stallings automaton inside each factor, and the index-aligned basis
bijection identifying the two copies.  Membership of a factor element in H,
coset representatives, and translation of H-elements between the factors are
all exact.

Elements carry the standard syllable form u_1 ... u_n with u_i in
(A u B) \\ H and strictly alternating factors; the syllable count l(x) is the
well-defined length, l(x) = 0 exactly for elements of H.  Canonical form:
syllables 1..n-1 are canonical left-coset representatives of u_i H (shortlex
of the inverse right coset), the H-part streams rightward through the
identification, and the last syllable absorbs the remnant; H-elements are
stored as words over the A factor.  Two elements are equal iff their
canonical forms are identical.

A product u*v of canonical elements is computed from the seam
(Lyndon-Schupp, ch. IV).  The syllables of v are merged onto those of u
until the H-part is trivial and the next syllable of v starts a new factor;
the rest of v is appended as it is.  Canonical form is then restored from
the deepest syllable the merge reached, and never from further right than
the last syllable of u, up to the first untouched syllable of v that
receives a trivial H-part.  Every syllable outside that stretch is a
canonical left-coset representative that passes no H-part to its right, or
the last syllable, so the result equals the full reduction of the
concatenation.  An inverse merges nothing, so it runs the coset pass alone.

Beyond arithmetic, the module decides the displacement condition used by the
paperless free-subgroup machinery: B != H together with a, a_* in A \\ H such
that a a_* != 1 and a^-1 H a n H = 1.  From such a pair it classifies the
reduced shape of sandwiched words, builds conjugator triples whose conjugated
families are mutually reduced, and produces explicit free families of the
three stock shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .elements import presentation_json, product_of
from .errors import (
    AlphabetMismatch,
    AmbientMismatch,
    HypothesisViolation,
    InsufficientElements,
    NotFoundAtBound,
    ParseError,
    PreconditionViolated,
    StructureMismatch,
    VariantMismatch,
)
from .star_check import (
    DEFAULT_EXPANSION_BUDGET,
    ElementSet,
    FreeGenVerdict,
    find_relation,
    free_generator_certificate,
    quotient_set,
)
from .subgroups import SubgroupAutomaton, aligned_bases, basis_image, displaces
from .words import (
    Alphabet,
    Word,
    identity,
    invert,
    iter_reduced_words,
    multiply,
    parse_word,
)

DEFAULT_SEARCH_LEN = 6

TAG_A = "A"
TAG_B = "B"
SANDWICH = "Sandwich"
POWER = "Power"
VARIANT_DIRECT = "direct"
VARIANT_MIRRORED = "mirrored"


@dataclass(frozen=True)
class AmalgamPresentation:
    """Two free factors with an identified subgroup; immutable."""

    factor_a: Alphabet
    factor_b: Alphabet
    h_a_basis: tuple[Word, ...]
    h_b_basis: tuple[Word, ...]
    h_in_a: SubgroupAutomaton = field(init=False, repr=False, compare=False, hash=False)
    h_in_b: SubgroupAutomaton = field(init=False, repr=False, compare=False, hash=False)
    a_outside: Word = field(init=False, repr=False, compare=False, hash=False)
    b_outside: Word = field(init=False, repr=False, compare=False, hash=False)
    one: Word = field(init=False, repr=False, compare=False, hash=False)
    # images across the identification, keyed by letters and capped like
    # the express memo they are built from
    _to_a: dict = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )
    _to_b: dict = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_a_basis", tuple(self.h_a_basis))
        object.__setattr__(self, "h_b_basis", tuple(self.h_b_basis))
        h_in_a, h_in_b = aligned_bases(
            self.factor_a, self.h_a_basis, self.factor_b, self.h_b_basis
        )
        object.__setattr__(self, "h_in_a", h_in_a)
        object.__setattr__(self, "h_in_b", h_in_b)
        # the identity in A letters, the trivial H-part every product starts from
        object.__setattr__(self, "one", identity(self.factor_a))
        # a factor equals H exactly when H swallows every generator
        object.__setattr__(self, "a_outside", _generator_outside(self.factor_a, h_in_a, "A"))
        object.__setattr__(self, "b_outside", _generator_outside(self.factor_b, h_in_b, "B"))

    # -- the identification H_in_A <-> H_in_B ------------------------------

    def to_b_side(self, h_word: Word) -> Word:
        return basis_image(self._to_b, self.h_in_a, self.factor_b, self.h_b_basis, h_word)

    def to_a_side(self, h_word: Word) -> Word:
        return basis_image(self._to_a, self.h_in_b, self.factor_a, self.h_a_basis, h_word)

    def alphabet_of(self, tag: str) -> Alphabet:
        return self.factor_a if tag == TAG_A else self.factor_b

    def subgroup_of(self, tag: str) -> SubgroupAutomaton:
        return self.h_in_a if tag == TAG_A else self.h_in_b

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "A": list(self.factor_a.symbols),
            "B": list(self.factor_b.symbols),
            "H_in_A": [str(w) for w in self.h_a_basis],
            "H_in_B": [str(w) for w in self.h_b_basis],
            "iso": [[str(a), str(b)] for a, b in zip(self.h_a_basis, self.h_b_basis)],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AmalgamPresentation":
        data = presentation_json(
            text, lists=("A", "B"), pairs=("iso",), optional_lists=("H_in_A", "H_in_B")
        )
        factor_a = Alphabet(tuple(data["A"]))
        factor_b = Alphabet(tuple(data["B"]))
        pairs = [
            (parse_word(factor_a, a), parse_word(factor_b, b)) for a, b in data["iso"]
        ]
        p = AmalgamPresentation(
            factor_a,
            factor_b,
            tuple(a for a, _ in pairs),
            tuple(b for _, b in pairs),
        )
        for key, basis, alphabet in (
            ("H_in_A", p.h_a_basis, factor_a),
            ("H_in_B", p.h_b_basis, factor_b),
        ):
            if data.get(key) is None:
                continue
            listed = tuple(parse_word(alphabet, w) for w in data[key])
            if listed != basis:
                raise StructureMismatch(
                    f"{key} list does not match its column of the iso pairs"
                )
        return p


def _generator_outside(alphabet: Alphabet, sub: SubgroupAutomaton, side: str) -> Word:
    for i in range(1, len(alphabet) + 1):
        g = Word(alphabet, (i,))
        if not sub.contains(g):
            return g
    raise HypothesisViolation(
        f"the amalgamated subgroup exhausts the {side} factor; a proper factor "
        "is required"
    )


@dataclass(frozen=True)
class AmalgamWord:
    """Canonical alternating syllables, or an H-element held in A letters.

    h_word is meaningful only when syllables is empty; reduction keeps the
    invariant that a nonempty syllable list carries no separate H-part.
    """

    syllables: tuple[tuple[str, Word], ...]
    h_word: Word
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", tuple(self.syllables))
        last = None
        for tag, w in self.syllables:
            if tag not in (TAG_A, TAG_B):
                raise ValueError(f"syllable tag must be 'A' or 'B', got {tag!r}")
            if tag == last:
                raise ValueError("syllable factors must alternate")
            if w.is_identity:
                raise ValueError("syllables must be nontrivial factor elements")
            last = tag
        if self.syllables and not self.h_word.is_identity:
            raise ValueError("the H-remnant must be merged into the last syllable")

    def __hash__(self) -> int:
        # computed once: elements key the search tables, and each lookup
        # would otherwise rehash every syllable
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.syllables, self.h_word)))
        return self._hash

    @property
    def length(self) -> int:
        return len(self.syllables)

    @property
    def in_amalgamated(self) -> bool:
        return not self.syllables


def length(w: AmalgamWord) -> int:
    return w.length


def type_of(w: AmalgamWord) -> str:
    """AA/AB/BA/BB from the first and last syllable factors; H when l = 0."""
    if not w.syllables:
        return "H"
    return w.syllables[0][0] + w.syllables[-1][0]


def raw_syllables(w: AmalgamWord) -> list[tuple[str, Word]]:
    if w.syllables:
        return list(w.syllables)
    if w.h_word.is_identity:
        return []
    return [(TAG_A, w.h_word)]


def amalgam_identity(p: AmalgamPresentation) -> AmalgamWord:
    return AmalgamWord((), p.one)


def amalgam_reduce(
    p: AmalgamPresentation, raw: Iterable[tuple[str, Word]]
) -> AmalgamWord:
    """Merge tagged factor elements into canonical form.

    Adjacent same-factor parts multiply; whenever a part lands in H it is
    translated through the identification and pushed rightward into the next
    part, so the output is the alternating normal form with canonical
    left-coset representatives everywhere but the last syllable.
    """
    return _reduce_onto(p, [], raw, False)


def _reduce_onto(
    p: AmalgamPresentation,
    stack: list[tuple[str, Word]],
    raw: Iterable[tuple[str, Word]],
    raw_is_canonical: bool,
) -> AmalgamWord:
    """Merge raw onto stack, the syllables of a canonical element (or none),
    and canonicalize from the deepest syllable the merge touched; the
    stack's last syllable is never taken as canonical.  When raw is the
    syllable tuple of a canonical element, the part of it that cannot merge
    is appended untouched and canonicalization may stop inside it."""
    low = max(len(stack) - 1, 0)  # first stack index that may change
    settled = None  # stack index from which raw's syllables lie untouched
    pending = p.one  # H-element waiting to be pushed right
    for j, (tag, w) in enumerate(raw):
        if raw_is_canonical and not pending and (not stack or stack[-1][0] != tag):
            settled = len(stack)
            stack.extend(raw[j:])
            break
        if tag not in (TAG_A, TAG_B):
            raise ValueError(f"syllable tag must be 'A' or 'B', got {tag!r}")
        alphabet = p.alphabet_of(tag)
        if w.alphabet.symbols != alphabet.symbols:
            raise AlphabetMismatch(
                f"word over {w.alphabet.symbols} tagged {tag} does not fit that factor"
            )
        u = multiply(_h_into(p, pending, tag), w) if pending else w
        pending = p.one
        if stack and stack[-1][0] == tag:
            u = multiply(stack.pop()[1], u)
            low = min(low, len(stack))
        if p.subgroup_of(tag).contains(u):
            pending = _h_out_of(p, u, tag)
        else:
            stack.append((tag, u))
    if not stack:
        return AmalgamWord((), pending)
    if not pending.is_identity:
        tag, w = stack[-1]
        stack[-1] = (tag, multiply(w, _h_into(p, pending, tag)))
    settled = len(stack) if settled is None else settled
    return AmalgamWord(
        (*stack[:low], *_canonicalize(p, stack[low:], settled - low)), p.one
    )


def _h_into(p: AmalgamPresentation, h_word: Word, tag: str) -> Word:
    """An H-element (A letters) as a word of the tagged factor."""
    if tag == TAG_A:
        return h_word
    return p.to_b_side(h_word)


def _h_out_of(p: AmalgamPresentation, member: Word, tag: str) -> Word:
    if tag == TAG_A:
        return member
    return p.to_a_side(member)


def _canonicalize(
    p: AmalgamPresentation, sylls: list[tuple[str, Word]], settled: int
) -> list[tuple[str, Word]]:
    """Canonical left-coset representatives with the H-part carried right;
    from index settled on the syllables are already canonical, so a trivial
    carry there leaves the rest as it is."""
    out: list[tuple[str, Word]] = []
    carry = p.one
    for idx, (tag, u) in enumerate(sylls):
        if idx >= settled and not carry:
            out.extend(sylls[idx:])
            break
        if carry:
            u = multiply(_h_into(p, carry, tag), u)
        if idx < len(sylls) - 1:
            rep = p.subgroup_of(tag).left_coset_representative(u)
            if rep.letters == u.letters:
                carry = p.one
            else:
                carry = _h_out_of(p, multiply(invert(rep), u), tag)
            out.append((tag, rep))
        else:
            out.append((tag, u))
    return out


# -- text form: factor-tagged segments "A: a h^-1 | B: b" ----------------------


def parse_raw_segments(
    p: AmalgamPresentation, text: str
) -> list[tuple[str, Word]]:
    if not text.strip():
        raise ParseError("empty amalgam word; write e.g. 'A: 1' for the identity")
    raw: list[tuple[str, Word]] = []
    for segment in text.split("|"):
        head, sep, body = segment.partition(":")
        tag = head.strip()
        if not sep or tag not in (TAG_A, TAG_B):
            raise ParseError(
                f"segment {segment.strip()!r} must look like 'A: <word>' or 'B: <word>'"
            )
        raw.append((tag, parse_word(p.alphabet_of(tag), body.strip())))
    return raw


def parse_amalgam_word(p: AmalgamPresentation, text: str) -> AmalgamWord:
    return amalgam_reduce(p, parse_raw_segments(p, text))


def format_amalgam_word(w: AmalgamWord) -> str:
    if not w.syllables:
        return f"A: {w.h_word}"
    return " | ".join(f"{tag}: {word}" for tag, word in w.syllables)


@dataclass(frozen=True)
class AmalgamOps:
    """Group operations on canonical amalgam elements.

    multiply(u, v) works from the seam: it requires u and v to be in
    canonical form (as every element this module returns is) and keeps the
    syllables away from the junction as they are.  An H-element u has no
    syllables to keep, so u*v is then the full reduction of the
    concatenation, and v may be any element.  invert(u) needs no merge: the
    reversed inverted syllables of a canonical u alternate and lie outside
    H, so only the coset pass runs.

    size is the syllable length, or 1 for a nontrivial H-element; it is
    subadditive, inversion-invariant, and zero exactly on the identity.
    """

    presentation: AmalgamPresentation

    def multiply(self, u: AmalgamWord, v: AmalgamWord) -> AmalgamWord:
        p = self.presentation
        if not u.syllables:
            return amalgam_reduce(p, raw_syllables(u) + raw_syllables(v))
        # an H-element v is a single A-part that must merge, not a syllable
        return _reduce_onto(p, list(u.syllables), raw_syllables(v), bool(v.syllables))

    def invert(self, u: AmalgamWord) -> AmalgamWord:
        if not u.syllables:
            return AmalgamWord((), invert(u.h_word))
        p = self.presentation
        raw = [(tag, invert(w)) for tag, w in reversed(u.syllables)]
        return AmalgamWord(tuple(_canonicalize(p, raw, len(raw))), p.one)

    def identity_element(self) -> AmalgamWord:
        return amalgam_identity(self.presentation)

    def is_identity(self, u: AmalgamWord) -> bool:
        return not u.syllables and u.h_word.is_identity

    def size(self, u: AmalgamWord) -> int:
        if u.syllables:
            return len(u.syllables)
        return 0 if u.h_word.is_identity else 1

    def fmt(self, u: AmalgamWord) -> str:
        return format_amalgam_word(u)


def to_amalgam_word(
    p: AmalgamPresentation, item: "AmalgamWord | str | Iterable[tuple[str, Word]]"
) -> AmalgamWord:
    if isinstance(item, AmalgamWord):
        for tag, w in item.syllables:
            if w.alphabet.symbols != p.alphabet_of(tag).symbols:
                raise AmbientMismatch("syllable belongs to a different presentation")
        return amalgam_reduce(p, raw_syllables(item))
    if isinstance(item, str):
        return parse_amalgam_word(p, item)
    return amalgam_reduce(p, list(item))


def amalgam_element_set(
    p: AmalgamPresentation, items: Iterable
) -> ElementSet:
    ops = AmalgamOps(p)
    return ElementSet.of(ops, [to_amalgam_word(p, x) for x in items])


# -- displacement condition: a, a_* in A \ H, a a_* != 1, a^-1 H a n H = 1 ------


@dataclass(frozen=True)
class DaggerWitness:
    a: Word
    a_star: Word
    product_direct_outside: bool  # a a_* outside H
    product_mirrored_outside: bool  # a_* a outside H


def dagger_check(
    p: AmalgamPresentation, search_len: int = DEFAULT_SEARCH_LEN
) -> DaggerWitness:
    """Shortlex-first a in A \\ H conjugating H off itself, with the
    shortlex-first companion a_* in A \\ H such that a a_* != 1.

    B != H is a presentation invariant, so only the A-side pair is searched;
    at least one of a a_* and a_* a lies outside H, and both flags are
    reported.  Raises NotFoundAtBound when no displacing a exists at the
    bound (e.g. H normal in the A factor).
    """
    found_a = None
    for cand in iter_reduced_words(p.factor_a, search_len):
        if p.h_in_a.contains(cand):
            continue
        if displaces(p.h_in_a, cand):
            found_a = cand
            break
    if found_a is None:
        raise NotFoundAtBound(
            f"no element of length <= {search_len} conjugates the amalgamated "
            "subgroup off itself"
        )
    for cand in iter_reduced_words(p.factor_a, search_len):
        if p.h_in_a.contains(cand) or multiply(found_a, cand).is_identity:
            continue
        direct = not p.h_in_a.contains(multiply(found_a, cand))
        mirrored = not p.h_in_a.contains(multiply(cand, found_a))
        return DaggerWitness(found_a, cand, direct, mirrored)
    raise NotFoundAtBound(
        f"no companion element of length <= {search_len} found"
    )


# -- reduced-shape classification of W = (a^-1 b)^m f (b^-1 a)^m ----------------


@dataclass(frozen=True)
class ReducedFormShape:
    kind: str  # SANDWICH or POWER
    word: AmalgamWord
    middle: AmalgamWord | None = None
    sign: int = 0
    power: int = 0


def classify_reduced_form(
    p: AmalgamPresentation, a: Word, b: Word, m: int, f: AmalgamWord
) -> ReducedFormShape:
    """Shape of W = (a^-1 b)^m f (b^-1 a)^m for m > l(f) + 1: either the
    sandwich W = (a^-1 b) V (b^-1 a) with l(V) = l(W) - 4 >= 1, or the power
    W = (b^-1 a)^{+-k} with k > 0.  The verdict is re-verified by length
    arithmetic, not taken from the reduction path."""
    ops = AmalgamOps(p)
    if a.alphabet.symbols != p.factor_a.symbols:
        raise AlphabetMismatch("a must be a word over the A factor")
    if b.alphabet.symbols != p.factor_b.symbols:
        raise AlphabetMismatch("b must be a word over the B factor")
    if p.h_in_a.contains(a) or not displaces(p.h_in_a, a):
        raise PreconditionViolated(
            "a must lie outside H and satisfy a^-1 H a n H = 1"
        )
    if p.h_in_b.contains(b):
        raise PreconditionViolated("b must lie outside H")
    if ops.is_identity(f):
        raise PreconditionViolated("f must be nontrivial")
    if m <= f.length + 1:
        raise PreconditionViolated(
            f"need m > l(f) + 1 = {f.length + 1}, got m = {m}"
        )
    ab = amalgam_reduce(p, [(TAG_A, invert(a)), (TAG_B, b)])
    ba = ops.invert(ab)
    w = ops.multiply(
        ops.multiply(product_of(ops, [ab] * m), f), product_of(ops, [ba] * m)
    )
    middle = ops.multiply(ops.multiply(ba, w), ab)
    if middle.length >= 1 and w.length == middle.length + 4:
        return ReducedFormShape(SANDWICH, w, middle=middle)
    if w.length > 0 and w.length % 2 == 0:
        k = w.length // 2
        for sign, step in ((1, ba), (-1, ab)):
            if product_of(ops, [step] * k) == w:
                return ReducedFormShape(POWER, w, sign=sign, power=k)
    raise StructureMismatch(
        "reduced form matches neither the sandwich nor the power shape"
    )


# -- conjugator triples making conjugated families mutually reduced -------------


def star_witness_amalgam(
    p: AmalgamPresentation,
    m: "ElementSet | Iterable",
    variant: str = VARIANT_DIRECT,
    a: Word | None = None,
    a_star: Word | None = None,
    b: Word | None = None,
    search_len: int = DEFAULT_SEARCH_LEN,
) -> tuple[AmalgamWord, AmalgamWord, AmalgamWord]:
    """Three conjugators x_i, built from a displacing pair, whose conjugated
    copies of m are mutually reduced.

    With w_i = l + i for l the maximal member length: the direct variant
    x_i = (b^-1 a)^{w_i} a_* b^-1 a_*^-1 (b^-1 a)^{w_i} requires a a_*
    outside H, the mirrored variant replaces a, a_* by their inverses and
    requires a_* a outside H (VariantMismatch otherwise)."""
    if variant not in (VARIANT_DIRECT, VARIANT_MIRRORED):
        raise ValueError(f"variant must be 'direct' or 'mirrored', got {variant!r}")
    if a is None or a_star is None:
        witness = dagger_check(p, search_len)
        a = witness.a if a is None else a
        a_star = witness.a_star if a_star is None else a_star
    if b is None:
        b = p.b_outside
    if a.alphabet.symbols != p.factor_a.symbols or a_star.alphabet.symbols != p.factor_a.symbols:
        raise AlphabetMismatch("a and a_* must be words over the A factor")
    if b.alphabet.symbols != p.factor_b.symbols:
        raise AlphabetMismatch("b must be a word over the B factor")
    if p.h_in_a.contains(a) or not displaces(p.h_in_a, a):
        raise PreconditionViolated(
            "a must lie outside H and satisfy a^-1 H a n H = 1"
        )
    if p.h_in_a.contains(a_star) or multiply(a, a_star).is_identity:
        raise PreconditionViolated("a_* must lie outside H with a a_* != 1")
    if p.h_in_b.contains(b):
        raise PreconditionViolated("b must lie outside H")
    if variant == VARIANT_DIRECT:
        if p.h_in_a.contains(multiply(a, a_star)):
            raise VariantMismatch(
                "a a_* lies in H; the direct form needs it outside (try mirrored)"
            )
        seed, star = a, a_star
    else:
        if p.h_in_a.contains(multiply(a_star, a)):
            raise VariantMismatch(
                "a_* a lies in H; the mirrored form needs it outside (try direct)"
            )
        seed, star = invert(a), invert(a_star)
    members = m.elements if isinstance(m, ElementSet) else [
        to_amalgam_word(p, x) for x in m
    ]
    ops = AmalgamOps(p)
    if not members:
        raise PreconditionViolated("m must be a nonempty set of nontrivial elements")
    if any(ops.is_identity(f) for f in members):
        raise PreconditionViolated("m must not contain the identity")
    longest = max(f.length for f in members)
    out = []
    b_inv = invert(b)
    for i in (1, 2, 3):
        wing = [(TAG_B, b_inv), (TAG_A, seed)] * (longest + i)
        raw = (
            wing
            + [(TAG_A, star), (TAG_B, b_inv), (TAG_A, invert(star))]
            + wing
        )
        out.append(amalgam_reduce(p, raw))
    return tuple(out)


# -- stock free families --------------------------------------------------------


KIND_A_LARGE = "A-large"
KIND_B_LARGE = "B-large"
KIND_H_LARGE = "H-large"


def _distinct_outside(
    p: AmalgamPresentation, tag: str, k: int, search_len: int
) -> list[Word]:
    found: list[Word] = []
    sub = p.subgroup_of(tag)
    for w in iter_reduced_words(p.alphabet_of(tag), search_len):
        if sub.contains(w):
            continue
        found.append(w)
        if len(found) == k:
            return found
    raise InsufficientElements(
        f"only {len(found)} elements of the {tag} factor outside H at length "
        f"<= {search_len}, need {k}"
    )


def _distinct_h_members(
    p: AmalgamPresentation, k: int, search_len: int
) -> list[Word]:
    found: list[Word] = []
    for w in p.h_in_a.iter_members(search_len):
        if w.is_identity:
            continue
        found.append(w)
        if len(found) == k:
            return found
    raise InsufficientElements(
        f"only {len(found)} nontrivial amalgamated elements at length "
        f"<= {search_len}, need {k}"
    )


def free_pair_generators(
    p: AmalgamPresentation,
    kind: str,
    k: int,
    elements: Iterable[Word] | None = None,
    search_len: int = DEFAULT_SEARCH_LEN,
) -> list[AmalgamWord]:
    """k words generating a free subgroup, per the stratum that is large:
    a_i b (a b)^2 a_i b over distinct a_i in A \\ H, or (a b_i)^3 over
    distinct b_i in B \\ H, or z_i = (a^-1 h_i a)(b^-1 a^-1 h_i a b)^-1 over
    distinct nontrivial h_i in H."""
    if k < 1:
        raise ValueError("k must be positive")
    witness = dagger_check(p, search_len)
    a, b = witness.a, p.b_outside
    if elements is not None:
        chosen = list(elements)
        if len(set(chosen)) != len(chosen) or len(chosen) != k:
            raise InsufficientElements(f"need exactly {k} distinct elements")
    else:
        chosen = None
    if kind == KIND_A_LARGE:
        ais = chosen if chosen is not None else _distinct_outside(p, TAG_A, k, search_len)
        for ai in ais:
            if ai.alphabet.symbols != p.factor_a.symbols or p.h_in_a.contains(ai):
                raise PreconditionViolated(f"{ai} is not in the A factor outside H")
        return [
            amalgam_reduce(
                p,
                [(TAG_A, ai), (TAG_B, b), (TAG_A, a), (TAG_B, b), (TAG_A, a),
                 (TAG_B, b), (TAG_A, ai), (TAG_B, b)],
            )
            for ai in ais
        ]
    if kind == KIND_B_LARGE:
        bis = chosen if chosen is not None else _distinct_outside(p, TAG_B, k, search_len)
        for bi in bis:
            if bi.alphabet.symbols != p.factor_b.symbols or p.h_in_b.contains(bi):
                raise PreconditionViolated(f"{bi} is not in the B factor outside H")
        return [
            amalgam_reduce(p, [(TAG_A, a), (TAG_B, bi)] * 3) for bi in bis
        ]
    if kind == KIND_H_LARGE:
        his = chosen if chosen is not None else _distinct_h_members(p, k, search_len)
        for hi in his:
            if hi.is_identity or not p.h_in_a.contains(hi):
                raise PreconditionViolated(
                    f"{hi} is not a nontrivial amalgamated element (A letters)"
                )
        a_inv = invert(a)
        out = []
        for hi in his:
            x_part = multiply(multiply(a_inv, hi), a)
            raw = [
                (TAG_A, x_part),
                (TAG_B, invert(b)),
                (TAG_A, multiply(multiply(a_inv, invert(hi)), a)),
                (TAG_B, b),
            ]
            out.append(amalgam_reduce(p, raw))
        return out
    raise ValueError(f"kind must be one of A-large/B-large/H-large, got {kind!r}")


def free_pair_certificate(
    p: AmalgamPresentation,
    hs: Iterable[Word],
    max_len: int,
    search_len: int = DEFAULT_SEARCH_LEN,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> FreeGenVerdict:
    """Bounded certificate that the H-large family is free: builds the two
    conjugate families x_i = a^-1 h_i a and y_i = b^-1 x_i b with their
    quotient sets and runs the paired-generator check."""
    witness = dagger_check(p, search_len)
    a, b = witness.a, p.b_outside
    ops = AmalgamOps(p)
    hs = list(hs)
    a_inv, b_inv = invert(a), invert(b)
    xs = [
        amalgam_reduce(p, [(TAG_A, multiply(multiply(a_inv, h), a))]) for h in hs
    ]
    ys = [
        amalgam_reduce(
            p,
            [(TAG_B, b_inv), (TAG_A, multiply(multiply(a_inv, h), a)), (TAG_B, b)],
        )
        for h in hs
    ]
    m1 = quotient_set(ElementSet.of(ops, xs))
    m2 = quotient_set(ElementSet.of(ops, ys))
    return free_generator_certificate(
        m1, m2, list(zip(xs, ys)), max_len, expansion_budget
    )


def relation_among(
    p: AmalgamPresentation,
    elements: Iterable[AmalgamWord],
    max_len: int,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
):
    """Shortest nontrivial relation of syllable length <= max_len among the
    given elements, or None; the negative answer is the freeness evidence."""
    return find_relation(AmalgamOps(p), list(elements), max_len, expansion_budget)
