"""Free-group word calculus over a fixed finite alphabet.

Words are canonical by construction: every public constructor and operation
returns the freely reduced form, so value equality is equality in the free
group and words can serve directly as dictionary keys.

Letters are stored as signed generator indices (1-based): +i is the i-th
generator, -i its inverse.  The textual syntax is whitespace-separated
letters with an optional ^<int> suffix, e.g. "a b^-1 a"; "1" (or an empty
string) denotes the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import neg
from typing import Iterable, Iterator

from .errors import AlphabetMismatch, ParseError, UnknownGenerator


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of generator symbols."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("alphabet must contain at least one generator")
        index: dict[str, int] = {}
        for pos, sym in enumerate(symbols):
            if not sym or any(ch.isspace() for ch in sym) or "^" in sym or sym == "1":
                raise ValueError(f"invalid generator symbol {sym!r}")
            if sym in index:
                raise ValueError(f"duplicate generator symbol {sym!r}")
            index[sym] = pos + 1
        object.__setattr__(self, "_index", index)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        """1-based index of a symbol; raises UnknownGenerator."""
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {symbol!r}") from None

    def symbol_of(self, signed: int) -> str:
        return self.symbols[abs(signed) - 1]


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _join(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced product of two reduced letter tuples: only the seam cancels."""
    n = min(len(u), len(v))
    i = 0
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[: len(u) - i] + v[i:]


@dataclass(frozen=True)
class Word:
    """Freely reduced word; construct via reduce/parse/multiply, not directly."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def as_pairs(self) -> tuple[tuple[str, int], ...]:
        """Letters as (generator symbol, sign) pairs."""
        return tuple(
            (self.alphabet.symbol_of(l), 1 if l > 0 else -1) for l in self.letters
        )

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for l in self.letters:
            sym = self.alphabet.symbol_of(l)
            parts.append(sym if l > 0 else sym + "^-1")
        return " ".join(parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __hash__(self) -> int:
        # equal words have equal letters, so the alphabet need not be hashed
        return hash(self.letters)


def _check_same_alphabet(*words: Word) -> Alphabet:
    alphabet = words[0].alphabet
    for w in words[1:]:
        if w.alphabet.symbols != alphabet.symbols:
            raise AlphabetMismatch(
                f"mixed alphabets {alphabet.symbols} and {w.alphabet.symbols}"
            )
    return alphabet


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def generator(alphabet: Alphabet, symbol: str, sign: int = 1) -> Word:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return Word(alphabet, (sign * alphabet.index_of(symbol),))


def reduce(alphabet: Alphabet, raw: Iterable[tuple[str, int]]) -> Word:
    """Freely reduce a raw letter sequence of (symbol, sign) pairs."""
    letters = []
    for sym, sign in raw:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        letters.append(sign * alphabet.index_of(sym))
    return Word(alphabet, _reduce(letters))


def from_signed(alphabet: Alphabet, letters: Iterable[int]) -> Word:
    """Reduce a sequence of signed 1-based generator indices."""
    letters = list(letters)
    n = len(alphabet)
    for l in letters:
        if l == 0 or abs(l) > n:
            raise UnknownGenerator(f"signed index {l} outside alphabet of size {n}")
    return Word(alphabet, _reduce(letters))


# longest word parse_word expands, counting each letter of a^n once
MAX_WORD_LETTERS = 1_000_000


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse "a b^-1 a"; "1" or empty input is the identity.  A word that
    would expand past MAX_WORD_LETTERS letters is a ParseError."""
    tokens = text.split()
    if tokens == ["1"] or not tokens:
        return identity(alphabet)
    letters: list[int] = []
    for col, tok in enumerate(tokens, start=1):
        sym, caret, exp = tok.partition("^")
        if not sym:
            raise ParseError(f"token {col}: empty generator in {tok!r}")
        power = 1
        if caret:
            try:
                power = int(exp)
            except ValueError:
                raise ParseError(f"token {col}: bad exponent in {tok!r}") from None
        idx = alphabet.index_of(sym)
        if len(letters) + abs(power) > MAX_WORD_LETTERS:
            raise ParseError(
                f"token {col}: word would expand past {MAX_WORD_LETTERS} letters"
            )
        step = idx if power > 0 else -idx
        letters.extend([step] * abs(power))
    return Word(alphabet, _reduce(letters))


def multiply(u: Word, v: Word) -> Word:
    alphabet = _check_same_alphabet(u, v)
    return Word(alphabet, _join(u.letters, v.letters))


def invert(u: Word) -> Word:
    return Word(u.alphabet, tuple(map(neg, reversed(u.letters))))


def power(u: Word, n: int) -> Word:
    base = u if n >= 0 else invert(u)
    out = identity(u.alphabet)
    for _ in range(abs(n)):
        out = multiply(out, base)
    return out


def conjugate(g: Word, x: Word) -> Word:
    """x^-1 g x, reduced."""
    alphabet = _check_same_alphabet(g, x)
    inv_x = tuple(map(neg, reversed(x.letters)))
    return Word(alphabet, _join(_join(inv_x, g.letters), x.letters))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator^-1 * core * conjugator.

    The core is cyclically reduced: its first and last letters are not
    mutually inverse.
    """
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    core = Word(w.alphabet, letters[i:j])
    # w = P * core * P^-1 for the peeled prefix P, so conjugator = P^-1.
    conjugator = Word(w.alphabet, tuple(-l for l in reversed(letters[:i])))
    return core, conjugator


def exponent_sum(w: Word, symbol: str) -> int:
    idx = w.alphabet.index_of(symbol)
    return sum(1 if l == idx else -1 if l == -idx else 0 for l in w.letters)


def shortlex_key(w: Word) -> tuple:
    """Key for the shortlex order: length first, then a < a^-1 < b < b^-1 < ...."""
    return (len(w.letters), tuple(_letter_rank(l) for l in w.letters))


def _letter_rank(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def letter_from_rank(rank: int) -> int:
    """Inverse of _letter_rank; used by shortlex enumerators."""
    idx, inv = divmod(rank, 2)
    return -(idx + 1) if inv else idx + 1


def reduce_signed(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a sequence of signed indices (no alphabet validation)."""
    return _reduce(letters)


def iter_reduced_words(
    alphabet: Alphabet, max_len: int, include_identity: bool = False
) -> Iterator[Word]:
    """Yield all reduced words of length <= max_len in shortlex order."""
    if include_identity:
        yield identity(alphabet)
    ranks = range(2 * len(alphabet))
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        new_frontier = []
        for prefix in frontier:
            for r in ranks:
                letter = letter_from_rank(r)
                if prefix and prefix[-1] == -letter:
                    continue
                extended = prefix + (letter,)
                yield Word(alphabet, extended)
                new_frontier.append(extended)
        frontier = new_frontier
