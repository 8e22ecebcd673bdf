"""Group-ring tests: exact arithmetic in characteristic 0 and p, pair-table
isolation with brute-force recomputation, the epsilon construction, and the
support-bound experiment."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from srlab.amalgam import AmalgamOps
from srlab.elements import FreeGroupOps
from srlab.errors import (
    AmbientMismatch,
    HypothesisUnverified,
    PreconditionViolated,
)
from srlab.experiments import (
    fixed_amalgam_presentations,
    iter_bounded_amalgam_elements,
    random_rank_one_presentation,
    random_support_family,
)
from srlab.hnn import HnnOps, HnnPresentation, hnn_element_set, parse_hnn_word
from srlab.ring_lab import (
    PairTable,
    epsilon,
    format_ring_element,
    isolated_pairs,
    left_translation_table,
    make_pair_table,
    monomial,
    quotient_set,
    right_translation_table,
    ring_add,
    ring_element,
    ring_mul,
    ring_neg,
    ring_scale,
    ring_sub,
    ring_sum,
    ring_terms,
    ring_zero,
    standard_free_family,
    support,
    support_bound_experiment,
    support_csv_row,
    table_report,
)
from srlab.star_check import ElementSet, star_witness_locally_free, symmetric_closure
from srlab.words import Alphabet, identity, invert, iter_reduced_words, multiply, parse_word

AB = Alphabet(("a", "b"))
OPS = FreeGroupOps(AB)


def w(text):
    return parse_word(AB, text)


def words(*texts):
    return [w(t) for t in texts]


# -- coefficients and arithmetic ----------------------------------------------


def test_canonical_key_collision_merges_terms():
    x = ring_element(OPS, [(w("a"), 1), (multiply(w("a b"), w("b^-1")), 1)])
    assert format_ring_element(x) == "2*a"
    assert len(x) == 1 and x.coefficient(w("a")) == 2


def test_canonical_keys_through_nonfree_ambient():
    alphabet = Alphabet(("a",))
    p = HnnPresentation(alphabet, "t", (parse_word(alphabet, "a"),),
                        (parse_word(alphabet, "a"),))
    ops = HnnOps(p)
    raw = parse_hnn_word(p, "t^-1 a t")  # pinches to the base letter a
    x = ring_element(ops, [(raw, 1), (parse_hnn_word(p, "a"), 1)])
    assert len(x) == 1 and ring_terms(x) == [["2", "a"]]


def test_inverse_pair_multiplies_to_identity():
    x = ring_mul(monomial(OPS, w("a")), monomial(OPS, w("a^-1")))
    assert ring_terms(x) == [["1", "1"]]


def test_subtraction_gives_zero_element():
    x = ring_sub(monomial(OPS, w("a")), monomial(OPS, w("a")))
    assert x.is_zero and support(x) == ()
    assert format_ring_element(x) == "0"


def test_rational_coefficients_exact():
    x = ring_element(OPS, [(w("a"), Fraction(1, 3)), (w("a"), "1/6")])
    assert x.coefficient(w("a")) == Fraction(1, 2)
    with pytest.raises(ValueError):
        ring_element(OPS, [(w("a"), 0.5)])


def test_prime_field_mode():
    assert ring_terms(ring_element(OPS, [(w("a"), 7)], char=5)) == [["2", "a"]]
    assert ring_terms(ring_element(OPS, [(w("a"), Fraction(1, 2))], char=5)) == [["3", "a"]]
    x = ring_add(
        ring_element(OPS, [(w("a"), 3)], char=5),
        ring_element(OPS, [(w("a"), 2)], char=5),
    )
    assert x.is_zero
    with pytest.raises(ValueError):
        ring_element(OPS, [(w("a"), Fraction(1, 5))], char=5)
    with pytest.raises(ValueError):
        ring_zero(OPS, char=4)


def test_ambient_mismatch():
    other = FreeGroupOps(Alphabet(("a", "c")))
    with pytest.raises(AmbientMismatch):
        ring_add(monomial(OPS, w("a")), monomial(other, parse_word(other.alphabet, "a")))
    with pytest.raises(AmbientMismatch):
        ring_mul(monomial(OPS, w("a")), monomial(OPS, w("a"), char=5))


def test_ring_laws_sampled():
    rng = random.Random(3)
    pool = list(iter_reduced_words(AB, 2, include_identity=True))

    def rand_elt():
        picks = rng.sample(pool, rng.randrange(1, 4))
        return ring_element(OPS, [(g, rng.choice((-2, -1, 1, 2))) for g in picks])

    for _ in range(40):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert ring_add(x, y) == ring_add(y, x)
        assert ring_mul(ring_add(x, y), z) == ring_add(ring_mul(x, z), ring_mul(y, z))
        assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
        assert ring_add(x, ring_neg(x)).is_zero
        assert ring_scale(x, 2) == ring_add(x, x)


def test_product_support_is_contained_in_pairwise_products():
    rng = random.Random(9)
    pool = list(iter_reduced_words(AB, 2, include_identity=True))
    for _ in range(40):
        x = ring_element(
            OPS, [(g, rng.choice((-1, 1))) for g in rng.sample(pool, rng.randrange(1, 4))]
        )
        y = ring_element(
            OPS, [(g, rng.choice((-1, 1))) for g in rng.sample(pool, rng.randrange(1, 4))]
        )
        products = {multiply(g, h) for g in x.support for h in y.support}
        assert set(ring_mul(x, y).support) <= products


def test_product_support_collision_example():
    # a*(a) and b*(b^-1 a a) collide; opposite signs cancel the shared key
    x = ring_element(OPS, [(w("a"), 1), (w("b"), -1)])
    y = ring_element(OPS, [(w("a"), 1), (w("b^-1 a a"), 1)])
    prod = ring_mul(x, y)
    assert w("a a") not in prod.support
    assert set(prod.support) == {w("a b^-1 a a"), w("b a")}


# -- pair tables ----------------------------------------------------------------


def test_pair_table_isolated_enforced():
    pairs = ((w("a"), w("b")), (w("a b"), w("1")), (w("b"), w("a")))
    table = make_pair_table(OPS, pairs)
    assert table.products == (w("a b"), w("a b"), w("b a"))
    assert table.isolated == ((w("b"), w("a")),)
    with pytest.raises(ValueError):
        PairTable(OPS, table.pairs, table.products, table.pairs)


def brute_isolated(table):
    counts = Counter(table.ops.fmt(p) for p in table.products)
    return tuple(
        v for v, p in zip(table.pairs, table.products) if counts[table.ops.fmt(p)] == 1
    )


def test_quotient_set_contents():
    s = ElementSet.of(OPS, words("a", "b"))
    q = quotient_set(s)
    assert set(q.elements) == set(words("a", "b", "a^-1 b", "b^-1 a"))


def _remark_closure(s):
    """The closure the witness construction once built by hand: members,
    their inverses and every quotient f^-1 g."""
    ops = s.ops
    out = list(s.elements) + [ops.invert(f) for f in s.elements]
    for f in s.elements:
        f_inv = ops.invert(f)
        for g in s.elements:
            if f != g:
                out.append(ops.multiply(f_inv, g))
    return ElementSet.of(ops, out)


def _closure_cases():
    rng = random.Random(4)
    pool = list(iter_reduced_words(AB, 3))[1:]
    for size in (1, 2, 3, 4) * 3:
        yield ElementSet.of(OPS, rng.sample(pool, size))
    for _ in range(6):
        p = random_rank_one_presentation(rng)
        items = ("a", "a h", "h a^-1", "t", "t^-1 a t", "a t h")
        yield hnn_element_set(p, rng.sample(items, rng.randint(1, 3)))
    for p in fixed_amalgam_presentations():
        elements = list(iter_bounded_amalgam_elements(p, 2, 1))
        for size in (1, 2, 3):
            yield ElementSet.of(AmalgamOps(p), rng.sample(elements, size))


def test_closed_quotient_set_is_the_remark_closure():
    for s in _closure_cases():
        assert symmetric_closure(quotient_set(s)) == _remark_closure(s)


def witness_conjugates(base_texts):
    members = ElementSet.of(OPS, words(*base_texts))
    wits = star_witness_locally_free(quotient_set(members), "a", "b")
    sets = [
        ElementSet.of(
            OPS, [multiply(multiply(invert(x), f), x) for f in members.elements]
        )
        for x in wits
    ]
    return sets, wits


def test_right_table_single_member_single_translator():
    sets, _ = witness_conjugates(["b"])
    table = right_translation_table(OPS, sets[0], sets[1], sets[2], words("a"))
    assert table.isolated_count == 3 > 1
    assert table.isolated == brute_isolated(table)
    report = table_report(table, 1)
    assert report["holds"] and report["isolated"] == 3


def test_right_table_two_translators():
    sets, _ = witness_conjugates(["b"])
    table = right_translation_table(OPS, sets[0], sets[1], sets[2], words("a", "a a"))
    assert table.isolated_count == 6 > 2
    assert table.isolated == brute_isolated(table)


def test_right_table_allows_identity_translator():
    sets, _ = witness_conjugates(["b"])
    table = right_translation_table(OPS, sets[0], sets[1], sets[2], [identity(AB)])
    assert table.isolated_count == 3


def test_right_table_rejects_degenerate_input():
    sets, _ = witness_conjugates(["b"])
    s = ElementSet.of(OPS, words("b"))
    with pytest.raises(PreconditionViolated):
        right_translation_table(OPS, s, s, s, words("a"))  # duplicate members
    with pytest.raises(PreconditionViolated):
        right_translation_table(
            OPS, sets[0], sets[1], ElementSet.of(OPS, words("a", "b")), words("a")
        )  # unequal sizes
    with pytest.raises(PreconditionViolated):
        right_translation_table(OPS, sets[0], sets[1], sets[2], words("a", "a"))
    with pytest.raises(PreconditionViolated):
        right_translation_table(OPS, [w("1")], [w("a")], [w("b")], words("a"))


def test_right_table_unverified_hypothesis():
    # a * b * (a b)^-1 = 1 alternates through all three quotient sets
    s1 = ElementSet.of(OPS, words("a"))
    s2 = ElementSet.of(OPS, words("b"))
    s3 = ElementSet.of(OPS, words("a b"))
    with pytest.raises(HypothesisUnverified):
        right_translation_table(OPS, s1, s2, s3, words("b b"))


def test_left_table_spec_examples():
    fam = standard_free_family(OPS, 3)
    t1 = left_translation_table(OPS, [ElementSet.of(OPS, words("b"))], [tuple(fam)])
    assert t1.isolated_count == 3 > 1
    t2 = left_translation_table(OPS, [words("b", "b b")], [tuple(fam)])
    assert t2.isolated_count == 6 > 2
    assert t2.isolated == brute_isolated(t2)


def test_left_table_pairs_each_block_with_its_own_triple():
    fam = standard_free_family(OPS, 6)
    table = left_translation_table(
        OPS, [words("b"), words("b b", "a")], [tuple(fam[:3]), tuple(fam[3:])]
    )
    assert list(table.pairs) == [(x, f) for x in fam[:3] for f in words("b")] + [
        (x, f) for x in fam[3:] for f in words("a", "b b")
    ]


def test_left_table_allows_identity_member():
    fam = standard_free_family(OPS, 3)
    table = left_translation_table(OPS, [[identity(AB), w("b")]], [tuple(fam)])
    assert table.isolated_count > 2
    assert table.isolated == brute_isolated(table)


def test_left_table_rejects_bad_translators():
    fam = standard_free_family(OPS, 6)
    with pytest.raises(PreconditionViolated):
        left_translation_table(OPS, [words("b"), words("a")],
                               [tuple(fam[:3]), tuple(fam[:3])])
    with pytest.raises(PreconditionViolated):
        left_translation_table(OPS, [words("b")], [tuple(fam[:2])])
    with pytest.raises(PreconditionViolated):
        left_translation_table(OPS, [words("b"), words("a")], [tuple(fam[:3])])
    with pytest.raises(HypothesisUnverified):
        left_translation_table(OPS, [words("b b")], [(w("a"), w("b"), w("a b"))])


def test_randomized_tables_beat_thresholds():
    rng = random.Random(17)
    pool = [v for v in iter_reduced_words(AB, 2)]
    for _ in range(10):
        m = rng.randrange(1, 3)
        members = rng.sample(pool, m)
        try:
            sets, _ = witness_conjugates([str(v) for v in members])
        except ValueError:
            continue
        n = rng.randrange(1, 4)
        translators = rng.sample(pool + [identity(AB)], n)
        table = right_translation_table(OPS, sets[0], sets[1], sets[2], translators)
        assert table.isolated_count > n
        assert table.isolated == brute_isolated(table)
    fam = standard_free_family(OPS, 9)
    for _ in range(10):
        n = rng.randrange(1, 4)
        s_list = [rng.sample(pool, rng.randrange(1, 3)) for _ in range(n)]
        x_list = [tuple(fam[3 * i : 3 * i + 3]) for i in range(n)]
        table = left_translation_table(OPS, s_list, x_list)
        assert table.isolated_count > sum(len(s) for s in s_list)
        assert table.isolated == brute_isolated(table)


# -- epsilon ---------------------------------------------------------------------


def test_epsilon_single_term_support_is_nine():
    fam = standard_free_family(OPS, 3)
    _, wits = witness_conjugates(["b"])
    eps, eps1 = epsilon(fam, wits, monomial(OPS, w("b")))
    assert len(eps.support) == 9
    assert len(eps1.support) == 10
    assert eps1 == ring_add(eps, monomial(OPS, identity(AB)))
    assert all(c == 1 for _, c in eps.terms)


def test_epsilon_zero_input():
    fam = standard_free_family(OPS, 3)
    _, wits = witness_conjugates(["b"])
    eps, eps1 = epsilon(fam, wits, ring_zero(OPS))
    assert eps.is_zero
    assert ring_terms(eps1) == [["1", "1"]]


def test_epsilon_multi_term_bound():
    fam = standard_free_family(OPS, 3)
    phi = ring_element(OPS, [(w("b"), 1), (w("b b"), 2)])
    _, wits = witness_conjugates(["b", "b b"])
    eps, _ = epsilon(fam, wits, phi)
    assert 0 < len(eps.support) <= 18


def test_epsilon_preconditions():
    fam = standard_free_family(OPS, 3)
    _, wits = witness_conjugates(["b"])
    with pytest.raises(PreconditionViolated):
        epsilon([fam[0], fam[0], fam[1]], wits, monomial(OPS, w("b")))
    with pytest.raises(PreconditionViolated):
        epsilon(fam, wits[:2], monomial(OPS, w("b")))


def test_epsilon_prime_field():
    fam = standard_free_family(OPS, 3)
    _, wits = witness_conjugates(["b"])
    eps, eps1 = epsilon(fam, wits, monomial(OPS, w("b"), 3, char=5))
    assert all(c == 3 for _, c in eps.terms)
    assert eps1.char == 5


def _double_loop_epsilon(b_s, x_bt, phi):
    """The sibling-by-witness loop epsilon was first written as: conjugate
    phi afresh for every (sibling, witness) pair."""
    ops, char = phi.ops, phi.char
    eps = ring_zero(ops, char)
    for b in b_s:
        left = monomial(ops, b, 1, char)
        for x in x_bt:
            conj = ring_mul(
                ring_mul(monomial(ops, ops.invert(x), 1, char), phi),
                monomial(ops, x, 1, char),
            )
            eps = ring_add(eps, ring_mul(left, conj))
    return eps, ring_add(eps, monomial(ops, ops.identity_element(), 1, char))


@pytest.mark.parametrize("char", [0, 5])
def test_epsilon_matches_double_loop(char):
    rng = random.Random(char)
    pool = list(iter_reduced_words(AB, 2))
    fam = standard_free_family(OPS, 3)
    for terms in (1, 2, 3) * 4:
        members = rng.sample(pool, terms)
        phi = ring_element(OPS, [(g, rng.choice((1, -1, 2, 3))) for g in members], char)
        _, wits = witness_conjugates([str(g) for g in members])
        assert epsilon(fam, wits, phi) == _double_loop_epsilon(fam, wits, phi)


# -- support-bound experiment -----------------------------------------------------


def one_instance(u_text="1", phi_text="b", label="b"):
    return (w(label), monomial(OPS, w(phi_text)), monomial(OPS, w(u_text)))


def test_experiment_identity_translation():
    report = support_bound_experiment([one_instance()])
    assert report["holds"]
    assert report["support_w"] == 10
    assert report["support_w1"] == 9 and report["support_w2"] == 1
    assert report["checks"]["support_at_least_two"]
    assert report["instances"][0]["decomposition_ok"]
    assert report["instances"][0]["inner_isolated"] > 1


def test_experiment_rejects_empty_family():
    with pytest.raises(PreconditionViolated):
        support_bound_experiment([])
    with pytest.raises(PreconditionViolated):
        support_bound_experiment([(w("b"), monomial(OPS, w("b")), ring_zero(OPS))])


def test_experiment_rejects_bad_instances():
    with pytest.raises(PreconditionViolated):
        support_bound_experiment(
            [(w("b"), ring_zero(OPS), monomial(OPS, w("a")))]
        )
    with pytest.raises(PreconditionViolated):
        support_bound_experiment(
            [(w("b"), monomial(OPS, identity(AB)), monomial(OPS, w("a")))]
        )
    with pytest.raises(PreconditionViolated):
        support_bound_experiment([one_instance(), one_instance(u_text="a")])


def test_experiment_two_instances():
    inst = [
        one_instance(u_text="a", phi_text="b", label="b"),
        one_instance(u_text="a^-1", phi_text="b b", label="a"),
    ]
    report = support_bound_experiment(inst)
    assert report["holds"] and report["instance_count"] == 2
    assert report["support_w"] >= 2


def test_experiment_prime_field():
    inst = [(w("b"), monomial(OPS, w("b"), 1, char=3),
             monomial(OPS, identity(AB), 1, char=3))]
    report = support_bound_experiment(inst)
    assert report["holds"] and report["char"] == 3


def test_experiment_conjugates_phi_once_per_witness(monkeypatch):
    import srlab.ring_lab as rl

    calls = []
    original = rl._ring_conjugate

    def counted(phi, x):
        calls.append(x)
        return original(phi, x)

    monkeypatch.setattr(rl, "_ring_conjugate", counted)
    for seed in range(6):
        instances = random_support_family(random.Random(seed))
        calls.clear()
        report = support_bound_experiment(instances, max_product_len=3)
        assert len(calls) == 3 * report["instance_count"]


def test_experiment_deterministic_report():
    first = support_bound_experiment([one_instance(u_text="a b")])
    second = support_bound_experiment([one_instance(u_text="a b")])
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_experiment_explicit_triples_validated():
    fam = standard_free_family(OPS, 3)
    with pytest.raises(PreconditionViolated):
        support_bound_experiment([one_instance()], siblings=[tuple(fam)] * 2)


def test_csv_row_shape():
    report = support_bound_experiment([one_instance()])
    row = support_csv_row(report)
    assert row["holds"] is True and row["instance_count"] == 1
    assert list(row) == [
        "instance_count", "char", "support_w1", "support_w2", "support_w",
        "outer_isolated", "sum_e_supports", "sum_u_supports", "holds",
    ]
