"""Amalgamated-product tests: syllable normal forms, length bookkeeping,
the displacement pair, reduced-shape classification, conjugator witnesses,
and the stock free families."""

import random

import pytest

from srlab.amalgam import (
    AmalgamOps,
    AmalgamPresentation,
    AmalgamWord,
    amalgam_element_set,
    amalgam_identity,
    amalgam_reduce,
    classify_reduced_form,
    dagger_check,
    format_amalgam_word,
    free_pair_certificate,
    free_pair_generators,
    parse_amalgam_word,
    parse_raw_segments,
    raw_syllables,
    relation_among,
    star_witness_amalgam,
    to_amalgam_word,
    type_of,
)
from srlab.elements import map_basis_coords
from srlab.errors import (
    AlphabetMismatch,
    AmbientMismatch,
    HypothesisViolation,
    InsufficientElements,
    NotFoundAtBound,
    ParseError,
    PreconditionViolated,
    RedundantBasis,
    StructureMismatch,
    VariantMismatch,
)
from srlab.experiments import fixed_amalgam_presentations, iter_bounded_amalgam_elements
from srlab.star_check import ElementSet, check_mutually_reduced, conjugate_set
from srlab.words import Alphabet, identity, invert, iter_reduced_words, multiply, parse_word


def pres(a_symbols, b_symbols, a_texts, b_texts):
    fa = Alphabet(tuple(a_symbols))
    fb = Alphabet(tuple(b_symbols))
    return AmalgamPresentation(
        fa,
        fb,
        tuple(parse_word(fa, w) for w in a_texts),
        tuple(parse_word(fb, w) for w in b_texts),
    )


@pytest.fixture(scope="module")
def p_free():
    # <a> * <b>, trivial amalgamated subgroup
    return pres(("a",), ("b",), (), ())


@pytest.fixture(scope="module")
def p_hk():
    # F(a,h) * F(b,k) identifying <h> with <k>
    return pres(("a", "h"), ("b", "k"), ["h"], ["k"])


@pytest.fixture(scope="module")
def p_normal():
    # <a> * <b> over <a^2> = <b^2>; H is normal in both factors
    return pres(("a",), ("b",), ["a a"], ["b b"])


@pytest.fixture(scope="module")
def p_rank2():
    # F(a,c) * <b>, trivial amalgamated subgroup
    return pres(("a", "c"), ("b",), (), ())


def aw(p, text):
    return parse_amalgam_word(p, text)


# -- construction ---------------------------------------------------------


def test_factor_equal_to_subgroup_rejected():
    with pytest.raises(HypothesisViolation):
        pres(("a",), ("b", "k"), ["a"], ["k"])
    with pytest.raises(HypothesisViolation):
        pres(("a", "h"), ("b",), ["h"], ["b"])


def test_basis_size_mismatch_rejected():
    with pytest.raises(StructureMismatch):
        pres(("a", "h"), ("b", "k"), ["h"], ["b", "k"])


def test_redundant_basis_rejected():
    with pytest.raises(RedundantBasis):
        pres(("a", "h"), ("b", "k"), ["h", "h h"], ["k", "k k"])


def test_basis_alphabet_mismatch_rejected():
    fa = Alphabet(("a", "h"))
    fb = Alphabet(("b", "k"))
    with pytest.raises(AlphabetMismatch):
        AmalgamPresentation(fa, fb, (parse_word(fb, "k"),), (parse_word(fb, "k"),))


def test_json_round_trip(p_hk):
    text = p_hk.to_json()
    assert AmalgamPresentation.from_json(text) == p_hk
    assert '"iso": [["h", "k"]]' in text


def test_json_explicit_lists_must_match_iso():
    bad = (
        '{"A": ["a", "h"], "B": ["b", "k"], "H_in_A": ["a"],'
        ' "H_in_B": ["k"], "iso": [["h", "k"]]}'
    )
    with pytest.raises(StructureMismatch):
        AmalgamPresentation.from_json(bad)


def test_identification_is_basiswise(p_hk):
    h = parse_word(p_hk.factor_a, "h h")
    assert str(p_hk.to_b_side(h)) == "k k"
    assert p_hk.to_a_side(parse_word(p_hk.factor_b, "k^-1")) == parse_word(
        p_hk.factor_a, "h^-1"
    )
    with pytest.raises(PreconditionViolated):
        p_hk.to_b_side(parse_word(p_hk.factor_a, "a"))


def test_identification_for_nontrivial_basis(p_normal):
    a4 = parse_word(p_normal.factor_a, "a a a a")
    assert str(p_normal.to_b_side(a4)) == "b b b b"


def test_identification_is_memoized_and_capped(monkeypatch):
    import srlab.subgroups

    monkeypatch.setattr(srlab.subgroups, "MEMO_CAP", 5)
    p = pres(("a", "h"), ("b", "k"), ["h", "a h a^-1"], ["b k b^-1", "k k"])
    members = [h for h in p.h_in_a.iter_members(5) if not h.is_identity]
    assert len(members) > 10
    for _ in range(2):  # fill the memos, then read from them
        for h in members:
            coords = p.h_in_a.express(h)
            image = p.to_b_side(h)
            assert image == map_basis_coords(p.factor_b, p.h_b_basis, coords)
            assert p.to_a_side(image) == h
            assert 0 < len(p._to_b) <= 5 and 0 < len(p._to_a) <= 5
    for _ in range(2):  # a non-member is refused on every call
        with pytest.raises(PreconditionViolated):
            p.to_b_side(parse_word(p.factor_a, "a"))


# -- reduction and normal form --------------------------------------------


def test_single_factor_element(p_hk):
    w = aw(p_hk, "A: a")
    assert w.length == 1 and type_of(w) == "AA"


def test_subgroup_element_has_length_zero(p_hk):
    w = aw(p_hk, "A: h")
    assert w.length == 0 and w.in_amalgamated and type_of(w) == "H"
    assert str(w.h_word) == "h"


def test_cancellation_to_identity(p_hk):
    w = amalgam_reduce(
        p_hk,
        [("A", parse_word(p_hk.factor_a, "a")),
         ("A", parse_word(p_hk.factor_a, "a^-1"))],
    )
    assert AmalgamOps(p_hk).is_identity(w)
    assert AmalgamOps(p_hk).is_identity(aw(p_hk, "A: 1"))


def test_subgroup_part_streams_rightward(p_hk):
    # a h crosses into the B factor as k
    w = aw(p_hk, "A: a h | B: b")
    assert format_amalgam_word(w) == "A: a | B: k b"
    assert w.length == 2 and type_of(w) == "AB"


def test_identified_elements_are_equal(p_hk):
    assert aw(p_hk, "B: k") == aw(p_hk, "A: h")
    assert aw(p_hk, "B: k^-1 | A: h") == amalgam_identity(p_hk)


def test_collapse_cascades_across_factors(p_hk):
    # the B syllable dissolves into H and the flanking A parts cancel
    w = aw(p_hk, "A: a | B: k | A: h^-1 a^-1")
    assert AmalgamOps(p_hk).is_identity(w)


def test_format_parse_round_trip(p_hk):
    for text in ("A: a | B: b | A: h a", "A: h h", "B: b k", "A: a^-1 | B: k b"):
        w = aw(p_hk, text)
        assert aw(p_hk, format_amalgam_word(w)) == w


def test_parse_rejects_bad_segments(p_hk):
    with pytest.raises(ParseError):
        parse_raw_segments(p_hk, "C: a")
    with pytest.raises(ParseError):
        parse_raw_segments(p_hk, "a b")
    with pytest.raises(ParseError):
        parse_raw_segments(p_hk, "")


def test_reduce_rejects_wrong_factor_alphabet(p_hk):
    with pytest.raises(AlphabetMismatch):
        amalgam_reduce(p_hk, [("A", parse_word(p_hk.factor_b, "b"))])


def test_coercion(p_hk, p_free):
    w = to_amalgam_word(p_hk, "A: a | B: b")
    assert to_amalgam_word(p_hk, w) == w
    assert to_amalgam_word(p_hk, raw_syllables(w)) == w
    foreign = to_amalgam_word(p_free, "A: a | B: b")
    with pytest.raises(AmbientMismatch):
        to_amalgam_word(p_hk, foreign)


def test_word_invariants_enforced(p_hk):
    one = amalgam_identity(p_hk).h_word
    a = parse_word(p_hk.factor_a, "a")
    with pytest.raises(ValueError):
        AmalgamWord((("A", a), ("A", a)), one)
    with pytest.raises(ValueError):
        AmalgamWord((("A", one),), one)
    with pytest.raises(ValueError):
        AmalgamWord((("A", a),), parse_word(p_hk.factor_a, "h"))


def test_type_swaps_under_inversion(p_hk):
    ops = AmalgamOps(p_hk)
    w = aw(p_hk, "A: a | B: b")
    assert type_of(w) == "AB" and type_of(ops.invert(w)) == "BA"
    v = aw(p_hk, "B: b | A: a | B: b k")
    assert type_of(v) == "BB" and type_of(ops.invert(v)) == "BB"


def _random_raw(p, rng, max_sylls):
    pools = {
        "A": ["a", "a^-1", "h", "a h", "h^-1 a", "a a", "1"],
        "B": ["b", "b^-1", "k", "b k", "k^-1 b^-1", "1"],
    }
    raw = []
    for _ in range(rng.randrange(max_sylls + 1)):
        tag = rng.choice(("A", "B"))
        raw.append((tag, parse_word(p.alphabet_of(tag), rng.choice(pools[tag]))))
    return raw


def test_reduce_is_idempotent_and_rebracketing_invariant(p_hk):
    rng = random.Random(7)
    ops = AmalgamOps(p_hk)
    for _ in range(120):
        raw = _random_raw(p_hk, rng, 8)
        w = amalgam_reduce(p_hk, raw)
        assert amalgam_reduce(p_hk, raw_syllables(w)) == w
        cut = rng.randrange(len(raw) + 1)
        left = amalgam_reduce(p_hk, raw[:cut])
        right = amalgam_reduce(p_hk, raw[cut:])
        assert ops.multiply(left, right) == w


def test_group_laws(p_hk):
    rng = random.Random(11)
    ops = AmalgamOps(p_hk)
    one = amalgam_identity(p_hk)
    for _ in range(80):
        u = amalgam_reduce(p_hk, _random_raw(p_hk, rng, 6))
        v = amalgam_reduce(p_hk, _random_raw(p_hk, rng, 6))
        assert ops.multiply(u, ops.invert(u)) == one
        assert ops.invert(ops.invert(u)) == u
        assert ops.size(u) == ops.size(ops.invert(u))
        assert (ops.size(u) == 0) == ops.is_identity(u)
        assert ops.size(ops.multiply(u, v)) <= ops.size(u) + ops.size(v)


def test_length_additivity_at_factor_boundaries(p_hk):
    # different boundary factors concatenate without loss; equal ones merge
    rng = random.Random(13)
    ops = AmalgamOps(p_hk)
    exact = 0
    for _ in range(150):
        u = amalgam_reduce(p_hk, _random_raw(p_hk, rng, 6))
        v = amalgam_reduce(p_hk, _random_raw(p_hk, rng, 6))
        w = ops.multiply(u, v)
        if u.length == 0 or v.length == 0:
            assert w.length == max(u.length, v.length)
        elif u.syllables[-1][0] != v.syllables[0][0]:
            assert w.length == u.length + v.length
            exact += 1
        else:
            assert w.length <= u.length + v.length - 1
    assert exact > 10


def _full_reduce(p, raw):
    """amalgam_reduce as first written, the reference for the seam-only
    product: merge the whole concatenation from an empty stack, then put
    every syllable but the last in canonical form with the carry pushed
    right."""

    def into(h_word, tag):
        return h_word if tag == "A" else p.to_b_side(h_word)

    def out_of(member, tag):
        return member if tag == "A" else p.to_a_side(member)

    stack = []
    pending = identity(p.factor_a)
    for tag, w in raw:
        u = multiply(into(pending, tag), w)
        pending = identity(p.factor_a)
        if stack and stack[-1][0] == tag:
            u = multiply(stack.pop()[1], u)
        if p.subgroup_of(tag).contains(u):
            pending = out_of(u, tag)
        else:
            stack.append((tag, u))
    if not stack:
        return AmalgamWord((), pending)
    if not pending.is_identity:
        tag, w = stack[-1]
        stack[-1] = (tag, multiply(w, into(pending, tag)))
    out = []
    carry = identity(p.factor_a)
    for idx, (tag, u) in enumerate(stack):
        u = multiply(into(carry, tag), u)
        if idx < len(stack) - 1:
            rep = invert(p.subgroup_of(tag).coset_representative(invert(u)))
            carry = out_of(multiply(invert(rep), u), tag)
            out.append((tag, rep))
        else:
            out.append((tag, u))
    return AmalgamWord(tuple(out), identity(p.factor_a))


def _seam_cases(p, rng):
    """(u, v) pairs over p: pool elements, long conjugators from
    star_witness_amalgam and their inverses, u * u^-1, pairs that cancel
    deeply at the seam, and identity and H-element left operands."""
    ops = AmalgamOps(p)
    pool = list(iter_bounded_amalgam_elements(p, 3, 1))
    elements = rng.sample(pool, min(len(pool), 40))
    for _ in range(4):
        m = ElementSet.of(ops, rng.sample(pool, rng.randint(1, 2)))
        xs = star_witness_amalgam(p, m)
        elements += [*xs, *(ops.invert(x) for x in xs)]
        elements += [ops.multiply(ops.multiply(ops.invert(x), f), x) for x in xs for f in m.elements]
    h_members = [AmalgamWord((), h) for h in p.h_in_a.iter_members(3)]
    for u in elements:
        yield u, ops.invert(u)
        for v in rng.sample(elements, 6):
            yield u, v
            # u w and w^-1 v cancel through the whole of w at the seam
            w = rng.choice(elements)
            yield ops.multiply(u, w), ops.multiply(ops.invert(w), v)
        yield ops.identity_element(), u
        for h in h_members[:3]:
            yield h, u
            yield u, h


@pytest.mark.parametrize("index", [0, 1])
def test_seam_product_equals_full_reduction(index):
    p = fixed_amalgam_presentations()[index]
    ops = AmalgamOps(p)
    cases = 0
    for u, v in _seam_cases(p, random.Random(index)):
        assert ops.multiply(u, v) == _full_reduce(p, raw_syllables(u) + raw_syllables(v))
        cases += 1
    assert cases > 1000


def test_seam_product_keeps_the_untouched_prefix(p_hk):
    # when v does not cancel the last syllable of u, the syllables before it
    # are kept as they are
    ops = AmalgamOps(p_hk)
    u = aw(p_hk, "A: a | B: b | A: a h | B: b")
    for text in ("A: a", "A: h", "B: k b", "B: b^-1 k b"):
        product = ops.multiply(u, aw(p_hk, text))
        assert product.syllables[:3] == u.syllables[:3]
        assert product == _full_reduce(p_hk, raw_syllables(u) + raw_syllables(aw(p_hk, text)))


@pytest.mark.parametrize("index", [0, 1])
def test_inverse_equals_the_reduction_of_reversed_inverted_syllables(index):
    # the inverse of a canonical element needs only the coset pass; the
    # reference merges the reversed inverted syllables from an empty stack
    # (an H-element between u and v makes inner syllables that start with
    # a letter of H, whose inverses are not coset representatives)
    p = fixed_amalgam_presentations()[index]
    ops = AmalgamOps(p)
    rng = random.Random(10 + index)
    h_members = [AmalgamWord((), h) for h in p.h_in_a.iter_members(2)] or [
        ops.identity_element()
    ]
    cases = 0
    for u, v in _seam_cases(p, rng):
        h = rng.choice(h_members)
        for w in (u, ops.multiply(u, v), ops.multiply(ops.multiply(u, h), v)):
            raw = [(tag, invert(x)) for tag, x in reversed(raw_syllables(w))]
            assert ops.invert(w) == amalgam_reduce(p, raw)
            cases += 1
    assert cases > 2500


def test_element_set_deduplicates_identified_elements(p_hk):
    s = amalgam_element_set(p_hk, ["A: h", "B: k", "A: a"])
    assert len(s) == 2
    with pytest.raises(ValueError):
        amalgam_element_set(p_hk, ["A: 1"])


# -- displacement pair ------------------------------------------------------


def test_dagger_trivial_subgroup(p_free):
    w = dagger_check(p_free)
    assert (str(w.a), str(w.a_star)) == ("a", "a")
    assert w.product_direct_outside and w.product_mirrored_outside


def test_dagger_proper_subgroup(p_hk):
    w = dagger_check(p_hk)
    assert (str(w.a), str(w.a_star)) == ("a", "a")


def test_dagger_fails_for_normal_subgroup(p_normal):
    with pytest.raises(NotFoundAtBound):
        dagger_check(p_normal)


# -- reduced-shape classification -------------------------------------------


def _classify(p, f_text, m, a="a", b="b"):
    return classify_reduced_form(
        p, parse_word(p.factor_a, a), parse_word(p.factor_b, b), m, aw(p, f_text)
    )


def test_classify_power_case(p_free):
    shape = _classify(p_free, "A: a^-1 | B: b", 4)
    assert shape.kind == "Power"
    assert (shape.sign, shape.power) == (-1, 1)
    assert shape.word.length == 2


def test_classify_sandwich_case(p_free):
    shape = _classify(p_free, "A: a | B: b", 4)
    assert shape.kind == "Sandwich"
    assert shape.middle.length == shape.word.length - 4 >= 1
    # re-assemble the sandwich
    ops = AmalgamOps(p_free)
    ab = aw(p_free, "A: a^-1 | B: b")
    assert ops.multiply(ops.multiply(ab, shape.middle), ops.invert(ab)) == shape.word


def test_classify_subgroup_middle(p_hk):
    # f inside H still yields a sandwich: the conjugated copy leaves H
    shape = _classify(p_hk, "A: h", 2)
    assert shape.kind == "Sandwich"


def test_classify_with_subgroup_remnants(p_hk):
    shape = _classify(p_hk, "A: h a^-1 | B: b", 4)
    assert shape.kind == "Sandwich"


def test_classify_preconditions(p_free, p_hk, p_normal):
    one = amalgam_identity(p_free)
    a = parse_word(p_free.factor_a, "a")
    b = parse_word(p_free.factor_b, "b")
    with pytest.raises(PreconditionViolated):
        classify_reduced_form(p_free, a, b, 3, one)
    f = aw(p_free, "A: a | B: b")
    with pytest.raises(PreconditionViolated):
        classify_reduced_form(p_free, a, b, 3, f)  # need m > l(f)+1 = 3
    with pytest.raises(PreconditionViolated):
        _classify(p_hk, "A: a", 3, a="h")  # a inside H
    with pytest.raises(PreconditionViolated):
        _classify(p_hk, "A: a", 3, b="k")  # b inside H
    an = parse_word(p_normal.factor_a, "a")
    bn = parse_word(p_normal.factor_b, "b")
    with pytest.raises(PreconditionViolated):
        classify_reduced_form(p_normal, an, bn, 3, aw(p_normal, "A: a"))


def test_classify_dichotomy_small_sweep(p_free):
    # every middle of length <= 2 lands in one of the two shapes
    seen = set()
    fs = set()
    for u in iter_reduced_words(p_free.factor_a, 2):
        fs.add(aw(p_free, f"A: {u}"))
        for v in iter_reduced_words(p_free.factor_b, 2):
            fs.add(aw(p_free, f"A: {u} | B: {v}"))
            fs.add(aw(p_free, f"B: {v} | A: {u}"))
    for v in iter_reduced_words(p_free.factor_b, 2):
        fs.add(aw(p_free, f"B: {v}"))
    ops = AmalgamOps(p_free)
    for f in fs:
        if ops.is_identity(f) or f.length > 2:
            continue
        shape = classify_reduced_form(
            p_free,
            parse_word(p_free.factor_a, "a"),
            parse_word(p_free.factor_b, "b"),
            f.length + 2,
            f,
        )
        seen.add(shape.kind)
    assert seen == {"Sandwich", "Power"}


# -- conjugator witnesses ----------------------------------------------------


def test_witness_matches_hand_expansion(p_free):
    m = [aw(p_free, "A: a | B: b")]
    x1, x2, x3 = star_witness_amalgam(p_free, m)
    assert format_amalgam_word(x1) == (
        "B: b^-1 | A: a | B: b^-1 | A: a | B: b^-1 | A: a a | B: b^-1 | "
        "A: a^-1 | B: b^-1 | A: a | B: b^-1 | A: a | B: b^-1 | A: a"
    )
    assert [x.length for x in (x1, x2, x3)] == [14, 18, 22]


def test_witness_families_mutually_reduced(p_free):
    ops = AmalgamOps(p_free)
    m = ElementSet.of(ops, [aw(p_free, "A: a | B: b")])
    xs = star_witness_amalgam(p_free, m)
    verdict = check_mutually_reduced([conjugate_set(m, x) for x in xs], 6)
    assert verdict.holds


def test_witness_subgroup_member_family(p_hk):
    ops = AmalgamOps(p_hk)
    m = ElementSet.of(ops, [aw(p_hk, "A: h")])
    xs = star_witness_amalgam(p_hk, m)
    assert [x.length for x in xs] == [6, 10, 14]
    assert check_mutually_reduced([conjugate_set(m, x) for x in xs], 4).holds


def test_witness_variant_selection(p_hk):
    a = parse_word(p_hk.factor_a, "a")
    a_star = parse_word(p_hk.factor_a, "a^-1 h")
    m = [aw(p_hk, "A: h")]
    # a a_* = h lies in H, so only the mirrored form applies
    with pytest.raises(VariantMismatch):
        star_witness_amalgam(p_hk, m, a=a, a_star=a_star)
    ops = AmalgamOps(p_hk)
    ms = ElementSet.of(ops, [aw(p_hk, "A: h")])
    xs = star_witness_amalgam(p_hk, ms, variant="mirrored", a=a, a_star=a_star)
    assert check_mutually_reduced([conjugate_set(ms, x) for x in xs], 4).holds


def test_witness_mirrored_shape(p_free):
    m = [aw(p_free, "A: a")]
    x1, _, _ = star_witness_amalgam(p_free, m, variant="mirrored")
    assert format_amalgam_word(x1).startswith("B: b^-1 | A: a^-1")


def test_witness_preconditions(p_hk, p_free):
    m = [aw(p_hk, "A: a")]
    with pytest.raises(PreconditionViolated):
        star_witness_amalgam(p_hk, [])
    with pytest.raises(PreconditionViolated):
        star_witness_amalgam(p_hk, ["A: 1"])
    with pytest.raises(PreconditionViolated):
        star_witness_amalgam(p_hk, m, b=parse_word(p_hk.factor_b, "k"))
    with pytest.raises(PreconditionViolated):
        star_witness_amalgam(p_hk, m, a=parse_word(p_hk.factor_a, "h"))
    with pytest.raises(ValueError):
        star_witness_amalgam(p_free, m, variant="sideways")


def test_witness_random_families(p_hk):
    rng = random.Random(23)
    ops = AmalgamOps(p_hk)
    done = 0
    while done < 5:
        cands = [amalgam_reduce(p_hk, _random_raw(p_hk, rng, 3)) for _ in range(2)]
        cands = [w for w in cands if not ops.is_identity(w)]
        if not cands:
            continue
        m = ElementSet.of(ops, cands)
        xs = star_witness_amalgam(p_hk, m)
        assert check_mutually_reduced([conjugate_set(m, x) for x in xs], 4).holds
        done += 1


# -- stock free families -----------------------------------------------------


def test_a_large_generators(p_rank2):
    cs = [parse_word(p_rank2.factor_a, t) for t in ("c", "c c")]
    gens = free_pair_generators(p_rank2, "A-large", 2, elements=cs)
    assert format_amalgam_word(gens[0]) == (
        "A: c | B: b | A: a | B: b | A: a | B: b | A: c | B: b"
    )
    assert format_amalgam_word(gens[1]) == (
        "A: c c | B: b | A: a | B: b | A: a | B: b | A: c c | B: b"
    )
    assert all(g.length == 8 for g in gens)
    assert relation_among(p_rank2, gens, 6) is None


def test_b_large_generators(p_rank2):
    bs = [parse_word(p_rank2.factor_b, t) for t in ("b", "b b")]
    gens = free_pair_generators(p_rank2, "B-large", 2, elements=bs)
    assert format_amalgam_word(gens[0]) == "A: a | B: b | A: a | B: b | A: a | B: b"
    assert format_amalgam_word(gens[1]) == (
        "A: a | B: b b | A: a | B: b b | A: a | B: b b"
    )
    assert relation_among(p_rank2, gens, 6) is None


def test_h_large_generators(p_hk):
    gens = free_pair_generators(p_hk, "H-large", 2)
    assert all(g.length == 4 and type_of(g) == "AB" for g in gens)
    assert relation_among(p_hk, gens, 6) is None


def test_generators_found_without_explicit_elements(p_rank2):
    gens = free_pair_generators(p_rank2, "A-large", 3)
    assert len(set(gens)) == 3


def test_generator_errors(p_free, p_hk, p_rank2):
    with pytest.raises(InsufficientElements):
        free_pair_generators(p_free, "H-large", 1)
    with pytest.raises(InsufficientElements):
        free_pair_generators(p_free, "A-large", 3, search_len=1)
    with pytest.raises(InsufficientElements):
        free_pair_generators(p_rank2, "A-large", 2,
                             elements=[parse_word(p_rank2.factor_a, "c")])
    with pytest.raises(PreconditionViolated):
        free_pair_generators(p_hk, "A-large", 1,
                             elements=[parse_word(p_hk.factor_a, "h")])
    with pytest.raises(ValueError):
        free_pair_generators(p_hk, "sideways", 1)
    with pytest.raises(ValueError):
        free_pair_generators(p_hk, "A-large", 0)


def test_h_large_certificate(p_hk):
    hs = [parse_word(p_hk.factor_a, t) for t in ("h", "h h")]
    verdict = free_pair_certificate(p_hk, hs, 4)
    assert verdict.holds and verdict.relation is None and verdict.mutual.holds
