"""Stable-letter extension tests: Britton reduction, normal forms, identity
testing against the free-product oracle, and the free-subgroup witness
construction."""

import itertools
import random

import pytest

from srlab.errors import (
    AlphabetMismatch,
    AmbientMismatch,
    BudgetExceeded,
    HypothesisViolation,
    PreconditionViolated,
    RedundantBasis,
    StructureMismatch,
)
from srlab.hnn import (
    HnnOps,
    HnnPresentation,
    HnnWord,
    britton_reduce,
    embed,
    find_word_outside,
    format_hnn_word,
    hnn_concat,
    hnn_element_set,
    hnn_identity,
    hnn_invert,
    is_ascending,
    is_britton_reduced,
    is_identity,
    is_normal_form,
    normal_form,
    parse_hnn_word,
    star_witness_hnn,
    star_witness_hypotheses,
    structure_word,
    to_hnn_word,
    to_plain_word,
    words_equal,
)
from srlab.experiments import random_rank_one_presentation
from srlab.star_check import ElementSet, check_mutually_reduced, conjugate_set
from srlab.words import Alphabet, from_signed, identity, parse_word


def pres(symbols, a_texts, b_texts, stable="t"):
    alphabet = Alphabet(tuple(symbols))
    return HnnPresentation(
        alphabet,
        stable,
        tuple(parse_word(alphabet, w) for w in a_texts),
        tuple(parse_word(alphabet, w) for w in b_texts),
    )


@pytest.fixture(scope="module")
def p_ab():
    # F(a,b), A = <a>, B = <b>, phi(a) = b
    return pres(("a", "b"), ["a"], ["b"])


@pytest.fixture(scope="module")
def p_bs():
    # Baumslag-Solitar BS(1,2): F(a), A = <a>, B = <a^2>, phi(a) = a^2
    return pres(("a",), ["a"], ["a a"])


@pytest.fixture(scope="module")
def p_fh():
    # F(a,h), A = B = <h>, phi = id
    return pres(("a", "h"), ["h"], ["h"])


@pytest.fixture(scope="module")
def p_free():
    # trivial associated subgroups: the extension is F(a,b) * <t>
    return pres(("a", "b"), [], [])


# -- presentation construction ------------------------------------------------


def test_presentation_rejects_dependent_basis():
    with pytest.raises(RedundantBasis):
        pres(("a", "b"), ["a", "a a"], ["b", "b b"])


def test_presentation_rejects_unequal_bases():
    with pytest.raises(StructureMismatch):
        pres(("a", "b"), ["a"], ["b", "a"])


def test_presentation_rejects_stable_letter_collision():
    with pytest.raises(ValueError):
        pres(("a", "b"), ["a"], ["b"], stable="a")


def test_presentation_json_round_trip(p_fh):
    text = (
        '{"base":["a","h"],"A":["h"],"B":["h"],"phi":[["h","h"]],"stable":"t"}'
    )
    parsed = HnnPresentation.from_json(text)
    assert parsed == p_fh
    again = HnnPresentation.from_json(parsed.to_json())
    assert again == p_fh


def test_presentation_json_rejects_mismatched_lists():
    text = '{"base":["a","h"],"A":["a"],"B":["h"],"phi":[["h","h"]],"stable":"t"}'
    with pytest.raises(StructureMismatch):
        HnnPresentation.from_json(text)


def test_phi_maps_basiswise(p_ab, p_bs):
    a = parse_word(p_ab.alphabet, "a")
    assert str(p_ab.phi(a)) == "b"
    assert str(p_ab.phi(parse_word(p_ab.alphabet, "a a"))) == "b b"
    assert str(p_ab.phi_inv(parse_word(p_ab.alphabet, "b^-1"))) == "a^-1"
    with pytest.raises(PreconditionViolated):
        p_ab.phi(parse_word(p_ab.alphabet, "b"))
    one = parse_word(p_bs.alphabet, "a")
    assert str(p_bs.phi(one)) == "a a"
    # a has odd exponent, so it misses B = <a^2>
    with pytest.raises(PreconditionViolated):
        p_bs.phi_inv(one)


# -- parsing and flattening ---------------------------------------------------


def test_parse_structure_round_trip(p_ab):
    w = parse_hnn_word(p_ab, "t^-1 a t")
    assert w.g0.is_identity
    assert [(e, str(g)) for e, g in w.syllables] == [(-1, "a"), (1, "1")]
    assert format_hnn_word(p_ab, w) == "t^-1 a t"
    assert parse_hnn_word(p_ab, "1") == hnn_identity(p_ab)


def test_flatten_is_lossless_on_reduced_words(p_ab):
    w = parse_hnn_word(p_ab, "a t b t a^-1")
    assert structure_word(p_ab, to_plain_word(p_ab, w)) == w


def test_to_hnn_word_coercions(p_ab):
    base_word = parse_word(p_ab.alphabet, "a b")
    assert to_hnn_word(p_ab, base_word) == embed(p_ab, base_word)
    assert to_hnn_word(p_ab, "a t") == parse_hnn_word(p_ab, "a t")
    foreign = parse_word(Alphabet(("x",)), "x")
    with pytest.raises(AmbientMismatch):
        to_hnn_word(p_ab, foreign)


def test_to_hnn_word_returns_the_normal_form(p_ab):
    # t b t = a t t, so a product of raw syllable forms would read t b t t
    u, v = to_hnn_word(p_ab, "t b t"), to_hnn_word(p_ab, "t")
    product = HnnOps(p_ab).multiply(u, v)
    assert product == normal_form(p_ab, parse_hnn_word(p_ab, "t b t t"))
    assert format_hnn_word(p_ab, product) == "a t t t"
    assert to_hnn_word(p_ab, parse_hnn_word(p_ab, "t b t")) == u


def test_to_hnn_word_spends_the_given_budget(p_bs):
    text = "t^-1 t^-1 t^-1 t^-1 t^-1 t^-1 a t t t t t t"
    with pytest.raises(BudgetExceeded):
        to_hnn_word(p_bs, text, budget=20)
    assert len(to_hnn_word(p_bs, text).g0) == 64


# -- Britton reduction --------------------------------------------------------


def test_britton_defining_relation(p_ab):
    w = britton_reduce(p_ab, parse_hnn_word(p_ab, "t^-1 a t"))
    assert w.is_base and str(w.g0) == "b"


def test_britton_bs_relator_gives_identity(p_bs):
    w = parse_hnn_word(p_bs, "t^-1 a t a^-1 a^-1")
    assert is_identity(p_bs, w)


def test_britton_fixes_reduced_words(p_ab):
    for text in ("a t b", "t a t^-1", "t^-1 b t a"):
        w = parse_hnn_word(p_ab, text)
        assert is_britton_reduced(p_ab, w)
        assert britton_reduce(p_ab, w) == w


def test_britton_cascades_nested_pinches(p_ab, p_bs):
    w = britton_reduce(p_ab, parse_hnn_word(p_ab, "t^-1 t^-1 a t t"))
    # inner pinch gives b, which is outside A, so one t-pair survives
    assert format_hnn_word(p_ab, w) == "t^-1 b t"
    v = britton_reduce(p_bs, parse_hnn_word(p_bs, "t^-1 t^-1 a t t"))
    assert v.is_base and str(v.g0) == "a a a a"


def test_britton_never_raises_t_count(p_bs):
    rng = random.Random(404)
    letters = 2 * len(p_bs.full_alphabet)
    for _ in range(200):
        seq = [
            (-1) ** rng.randrange(2) * rng.randrange(1, 3)
            for _ in range(rng.randrange(0, 9))
        ]
        w = _raw_hnn(p_bs, seq)
        out = britton_reduce(p_bs, w)
        assert out.t_length <= w.t_length
        assert (w.t_length - out.t_length) % 2 == 0
        assert is_britton_reduced(p_bs, out)
    del letters


def test_phi_budget_message(p_bs):
    w = parse_hnn_word(p_bs, "t^-1 t^-1 t^-1 t^-1 t^-1 t^-1 a t t t t t t")
    message = (
        "isomorphism application budget exhausted; the presentation "
        "expands too fast at this word (raise the expansion budget)"
    )
    with pytest.raises(BudgetExceeded) as exc:
        britton_reduce(p_bs, w, budget=20)
    assert str(exc.value) == message
    u = normal_form(p_bs, parse_hnn_word(p_bs, "t^-1 t^-1 t^-1 t^-1 t^-1 t^-1"))
    v = normal_form(p_bs, parse_hnn_word(p_bs, "a t t t t t t"))
    with pytest.raises(BudgetExceeded) as exc:
        HnnOps(p_bs, 20).multiply(u, v)
    assert str(exc.value) == message


def test_britton_budget_exhaustion(p_bs):
    w = parse_hnn_word(p_bs, "t^-1 t^-1 t^-1 t^-1 t^-1 t^-1 a t t t t t t")
    with pytest.raises(BudgetExceeded):
        britton_reduce(p_bs, w, budget=20)
    # the same word fits comfortably in the default budget: a^(2^6)
    out = britton_reduce(p_bs, w)
    assert len(out.g0) == 64


# -- normal form --------------------------------------------------------------


def test_normal_form_of_base_word(p_ab):
    w = normal_form(p_ab, parse_hnn_word(p_ab, "a b a^-1"))
    assert w.is_base and str(w.g0) == "a b a^-1"


def test_normal_form_head_absorbs_subgroup_part(p_ab):
    # a t is already normal; t b carries b = phi(a) back through t
    direct = parse_hnn_word(p_ab, "a t")
    assert normal_form(p_ab, direct) == direct
    pushed = normal_form(p_ab, parse_hnn_word(p_ab, "t b"))
    assert pushed == direct
    assert words_equal(p_ab, parse_hnn_word(p_ab, "a t"), parse_hnn_word(p_ab, "t b"))


def test_normal_form_kills_padded_pinch(p_ab):
    w = HnnWord(
        identity(p_ab.alphabet),
        ((-1, identity(p_ab.alphabet)), (1, identity(p_ab.alphabet))),
    )
    assert normal_form(p_ab, w) == hnn_identity(p_ab)


def test_normal_form_coset_representatives(p_bs):
    w = normal_form(p_bs, parse_hnn_word(p_bs, "t a a a"))
    assert is_normal_form(p_bs, w)
    # a^3 splits as a^2 * a; the even part returns through t as a
    assert format_hnn_word(p_bs, w) == "a t a"


def test_normal_form_idempotent(p_bs, p_ab):
    rng = random.Random(77)
    for p in (p_bs, p_ab):
        for _ in range(60):
            w = _random_hnn(p, rng, max_sylls=4, max_base=2)
            nf = normal_form(p, w)
            assert is_normal_form(p, nf)
            assert normal_form(p, nf) == nf


def test_normal_form_unique_iff_equal(p_ab):
    """Random pairs plus planted-equal pairs: identical normal forms exactly
    for equal group elements."""
    rng = random.Random(505)
    relator = parse_hnn_word(p_ab, "t^-1 a t b^-1")
    for _ in range(80):
        u = _random_hnn(p_ab, rng, max_sylls=3, max_base=2)
        if rng.randrange(2):
            c = _random_hnn(p_ab, rng, max_sylls=2, max_base=2)
            noise = hnn_concat(hnn_concat(c, relator), hnn_invert(c))
            v = hnn_concat(u, noise)
            assert words_equal(p_ab, u, v)
        else:
            v = _random_hnn(p_ab, rng, max_sylls=3, max_base=2)
        same = normal_form(p_ab, u) == normal_form(p_ab, v)
        assert same == words_equal(p_ab, u, v)


def test_identity_examples(p_ab):
    assert is_identity(p_ab, hnn_identity(p_ab))
    assert not is_identity(p_ab, parse_hnn_word(p_ab, "t"))
    assert is_identity(p_ab, parse_hnn_word(p_ab, "t^-1 a t b^-1"))


def test_defining_relation_random_presentations():
    rng = random.Random(99)
    for _ in range(20):
        p = _random_presentation(rng)
        for a, b in zip(p.a_basis, p.b_basis):
            w = hnn_concat(
                parse_hnn_word(p, "t^-1"),
                hnn_concat(
                    embed(p, a), hnn_concat(parse_hnn_word(p, "t"), embed(p, invert_word(b)))
                ),
            )
            assert is_identity(p, w)


def test_free_product_oracle(p_free):
    """With trivial associated subgroups the extension is a free product, so
    identity testing must agree with plain free reduction over base+stable."""
    full = p_free.full_alphabet
    letters = [i for i in range(-3, 4) if i]
    checked = 0
    for n in range(0, 6):
        for seq in itertools.product(letters, repeat=n):
            plain = from_signed(full, seq)
            assert is_identity(p_free, _raw_hnn(p_free, seq)) == plain.is_identity
            checked += 1
    assert checked == 9331


# -- group operations wrapper -------------------------------------------------


def test_ops_basic_laws(p_bs):
    ops = HnnOps(p_bs)
    rng = random.Random(11)
    e = ops.identity_element()
    assert ops.is_identity(e) and ops.size(e) == 0
    for _ in range(40):
        u = normal_form(p_bs, _random_hnn(p_bs, rng, max_sylls=3, max_base=2))
        v = normal_form(p_bs, _random_hnn(p_bs, rng, max_sylls=3, max_base=2))
        assert ops.is_identity(ops.multiply(u, ops.invert(u)))
        assert ops.size(ops.multiply(u, v)) <= ops.size(u) + ops.size(v)
        assert ops.size(ops.invert(u)) == ops.size(u)
        assert (ops.size(u) == 0) == ops.is_identity(u)


# -- products from the seam ---------------------------------------------------


def _seam_presentations():
    """Four random rank-1 presentations and Baumslag-Solitar BS(1,2), whose
    phi doubles a letter at every pinch."""
    rng = random.Random(5)
    return [random_rank_one_presentation(rng) for _ in range(4)] + [
        pres(("a",), ["a"], ["a a"])
    ]


def _canonical_pool(p, rng):
    """Normal forms over p: random words, and, where the hypotheses hold,
    witness conjugators (raw, so not normal forms) made canonical, their
    inverses and the conjugates they make."""
    ops = HnnOps(p)
    pool = [normal_form(p, _random_hnn(p, rng, max_sylls=4, max_base=3)) for _ in range(40)]
    g = star_witness_hypotheses(p, search_len=3)
    if g is not None:
        m = ElementSet.of(ops, [u for u in pool[:3] if not ops.is_identity(u)])
        for x in star_witness_hnn(p, m, g, find_word_outside(p, max_len=3)):
            x = ops.multiply(ops.identity_element(), x)
            pool += [x, ops.invert(x), *(ops.multiply(ops.multiply(ops.invert(x), f), x) for f in m)]
    return pool


def _seam_pairs(p, rng):
    """(u, v) pairs of normal forms: random pairs, u u^-1, pairs (u w, w^-1 v)
    that cancel through the whole of w at the seam, and base left operands."""
    ops = HnnOps(p)
    pool = _canonical_pool(p, rng)
    for u in pool:
        yield u, ops.invert(u)
        for v in rng.sample(pool, 5):
            yield u, v
            w = rng.choice(pool)
            yield ops.multiply(u, w), ops.multiply(ops.invert(w), v)
        yield ops.identity_element(), u
        yield HnnWord(u.g0), u


def _outcome(compute):
    try:
        return compute()
    except BudgetExceeded:
        return "BudgetExceeded"


@pytest.mark.parametrize("index", range(5))
def test_seam_product_equals_full_normal_form(index):
    p = _seam_presentations()[index]
    ops = HnnOps(p)
    cases = 0
    for u, v in _seam_pairs(p, random.Random(index)):
        assert is_normal_form(p, u) and is_normal_form(p, v)
        assert ops.multiply(u, v) == normal_form(p, hnn_concat(u, v))
        assert ops.invert(u) == normal_form(p, hnn_invert(u))
        cases += 1
    assert cases > 400


@pytest.mark.parametrize("index", range(5))
def test_seam_product_runs_out_at_the_full_pass_budgets(index):
    # the seam product spends the phi letters the full pass spends, so the
    # same budgets run out
    p = _seam_presentations()[index]
    rng = random.Random(100 + index)
    pairs = rng.sample(list(_seam_pairs(p, rng)), 60)
    exhausted = 0
    for u, v in pairs:
        for budget in range(0, 12):
            ops = HnnOps(p, budget)
            full = _outcome(lambda: normal_form(p, hnn_concat(u, v), budget))
            assert _outcome(lambda: ops.multiply(u, v)) == full
            exhausted += full == "BudgetExceeded"
            full = _outcome(lambda: normal_form(p, hnn_invert(u), budget))
            assert _outcome(lambda: ops.invert(u)) == full
            exhausted += full == "BudgetExceeded"
    assert exhausted > 20


def test_seam_product_keeps_the_untouched_syllables(p_bs):
    # v's syllables past the junction are representatives already, and the
    # carry stops at the first trivial part: t a^2 = a t, so the junction
    # a a carries a into the trivial syllable before it, which keeps it
    ops = HnnOps(p_bs)
    u = normal_form(p_bs, parse_hnn_word(p_bs, "t a t t a"))
    v = normal_form(p_bs, parse_hnn_word(p_bs, "a t a t a"))
    product = ops.multiply(u, v)
    assert format_hnn_word(p_bs, product) == "t a t a t t a t a"
    assert product.syllables[:1] == u.syllables[:1]
    assert product.syllables[-2:] == v.syllables
    assert product == normal_form(p_bs, hnn_concat(u, v))


def test_element_set_canonicalizes(p_ab):
    s = hnn_element_set(p_ab, ["t b", "a t", "a"])
    # t b and a t are the same element, so only two members survive
    assert len(s.elements) == 2
    with pytest.raises(ValueError):
        hnn_element_set(p_ab, ["t^-1 a t b^-1"])


# -- free-subgroup hypotheses and witnesses -----------------------------------


def test_hypotheses_finds_shortlex_displacer(p_fh):
    g = star_witness_hypotheses(p_fh)
    assert str(g) == "a"


def test_hypotheses_ascending_returns_none():
    p = pres(("a", "h"), ["a", "h"], ["a", "h"])
    assert is_ascending(p)
    assert star_witness_hypotheses(p) is None


def test_hypotheses_rank_one_cover_returns_none():
    p = pres(("a",), ["a"], ["a"])
    assert find_word_outside(p) is None
    assert star_witness_hypotheses(p) is None


def test_hypotheses_requires_nontrivial_subgroups(p_free):
    with pytest.raises(HypothesisViolation):
        star_witness_hypotheses(p_free)


def test_witness_spec_arithmetic(p_fh):
    m = hnn_element_set(p_fh, ["a"])
    g = parse_word(p_fh.alphabet, "a")
    h = parse_word(p_fh.alphabet, "a h")
    x1, x2, x3 = star_witness_hnn(p_fh, m, g, h)
    # all members are stable-free, so q = 1 and the wings are 2, 3, 4
    assert format_hnn_word(p_fh, x1) == "t^-1 t^-1 a t h^-1 a^-1 t t"
    assert [x.t_length for x in (x1, x2, x3)] == [5, 7, 9]
    fams = [conjugate_set(m, x) for x in (x1, x2, x3)]
    verdict = check_mutually_reduced(fams, 6)
    assert verdict.holds


def test_witness_with_a_non_representative_syllable(p_ab):
    # g = a b is Britton-reduced but not a coset representative after t^-1
    # (A a b = A b), so the conjugators are not normal forms; conjugating by
    # them gives the normal-form families and the verdict that the full
    # normal form of each product gives
    m = hnn_element_set(p_ab, ["a"])
    g = parse_word(p_ab.alphabet, "a b")
    h = parse_word(p_ab.alphabet, "b a")
    xs = star_witness_hnn(p_ab, m, g, h)
    assert format_hnn_word(p_ab, xs[0]) == "t^-1 t^-1 a b t a^-1 b^-1 t t"
    assert not is_normal_form(p_ab, xs[0])
    fams = [conjugate_set(m, x) for x in xs]
    for fam, x in zip(fams, xs):
        (f,) = m.elements
        raw = hnn_concat(hnn_concat(hnn_invert(x), f), x)
        assert fam.elements == (normal_form(p_ab, raw),)
    assert [m.ops.fmt(f) for f in fams[0]] == [
        "t^-1 t^-1 b a t^-1 b^-1 a^-1 t t a t^-1 b t^-1 b t a^-1 b^-1 t t"
    ]
    assert check_mutually_reduced(fams, 5).holds


def test_witness_counts_stable_letters(p_fh):
    m = hnn_element_set(p_fh, ["t"])
    g = parse_word(p_fh.alphabet, "a")
    h = parse_word(p_fh.alphabet, "a h")
    x1, _, _ = star_witness_hnn(p_fh, m, g, h)
    # t contributes exponent sum 1, so q = 2 and q_1 = 3
    assert x1.t_length == 7


def test_witness_rejects_h_in_associated(p_fh):
    m = hnn_element_set(p_fh, ["a"])
    g = parse_word(p_fh.alphabet, "a")
    for bad in ("h", "1", "h^-1 h^-1"):
        with pytest.raises(PreconditionViolated):
            star_witness_hnn(p_fh, m, g, parse_word(p_fh.alphabet, bad))


def test_witness_rejects_unsuitable_g():
    p = pres(("a", "h"), ["h", "a h a^-1"], ["h", "a h a^-1"])
    m = hnn_element_set(p, ["a a"])
    h = parse_word(p.alphabet, "a a h")
    inside = parse_word(p.alphabet, "h")
    with pytest.raises(PreconditionViolated):
        star_witness_hnn(p, m, inside, h)
    # a is outside A u B yet a^-1 A a still meets A (it recovers h)
    g = parse_word(p.alphabet, "a")
    with pytest.raises(PreconditionViolated):
        star_witness_hnn(p, m, g, h)


def test_witness_random_instances_pass_star_check():
    rng = random.Random(2024)
    done = 0
    while done < 5:
        p = _random_presentation(rng)
        g = star_witness_hypotheses(p, search_len=4)
        if g is None:
            continue
        h = find_word_outside(p, max_len=4)
        pool = ["a", "a h", "h a^-1"]
        m = hnn_element_set(p, rng.sample(pool, rng.randrange(1, 3)))
        xs = star_witness_hnn(p, m, g, h)
        fams = [conjugate_set(m, x) for x in xs]
        assert check_mutually_reduced(fams, 4).holds
        done += 1


# -- helpers ------------------------------------------------------------------


def invert_word(w):
    from srlab.words import invert

    return invert(w)


def _raw_hnn(p, seq):
    """Split a raw signed-letter sequence at the stable letter WITHOUT freely
    reducing across stable letters (base chunks may reduce; that is sound)."""
    t_index = len(p.alphabet) + 1
    chunks = [[]]
    signs = []
    for letter in seq:
        if abs(letter) == t_index:
            signs.append(1 if letter > 0 else -1)
            chunks.append([])
        else:
            chunks[-1].append(letter)
    return HnnWord(
        from_signed(p.alphabet, chunks[0]),
        tuple(
            (s, from_signed(p.alphabet, c)) for s, c in zip(signs, chunks[1:])
        ),
    )


def _random_hnn(p, rng, max_sylls, max_base):
    def base():
        n = rng.randrange(0, max_base + 1)
        return from_signed(
            p.alphabet,
            [
                (-1) ** rng.randrange(2) * rng.randrange(1, len(p.alphabet) + 1)
                for _ in range(n)
            ],
        )

    sylls = tuple(
        (rng.choice((1, -1)), base()) for _ in range(rng.randrange(0, max_sylls + 1))
    )
    return HnnWord(base(), sylls)


def _random_presentation(rng):
    """Rank-1 associated subgroups inside F(a,h), conjugates of h, so the
    basis is always independent and phi is a bijection by construction."""
    alphabet = Alphabet(("a", "h"))
    pool = ["h", "a h a^-1", "a^-1 h a", "h h"]
    a_text = rng.choice(pool)
    b_text = rng.choice(pool)
    return pres(("a", "h"), [a_text], [b_text])
