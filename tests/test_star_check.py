import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import star_check
from srlab.elements import FreeGroupOps, product_of
from srlab.errors import BudgetExceeded, EmptySet, PreconditionViolated, StructureMismatch
from srlab.star_check import (
    COUNTEREXAMPLE,
    HOLDS,
    ElementSet,
    check_conjugated_copies,
    check_mutually_reduced,
    conjugate_set,
    find_relation,
    free_generator_certificate,
    star_witness_locally_free,
    symmetric_closure,
    verify_mutual_witness,
)
from srlab.words import Alphabet, identity, invert, multiply, parse_word

AB = Alphabet(("a", "b"))
A_ONLY = Alphabet(("a",))
ABH = Alphabet(("a", "b", "h"))


def w(text, alphabet=AB):
    return parse_word(alphabet, text)


def es(*texts, alphabet=AB):
    return ElementSet.from_words([w(t, alphabet) for t in texts])


def strs(element_set):
    return [str(g) for g in element_set.elements]


class TestSymmetricClosure:
    def test_singleton(self):
        assert strs(symmetric_closure(es("a"))) == ["a", "a^-1"]

    def test_already_symmetric(self):
        m = es("a", "a^-1")
        assert symmetric_closure(m) == m

    def test_product_element(self):
        assert strs(symmetric_closure(es("a b"))) == ["a b", "b^-1 a^-1"]


class TestConjugateSet:
    def test_single(self):
        assert strs(conjugate_set(es("a"), w("b"))) == ["b^-1 a b"]

    def test_identity_conjugator(self):
        m = es("a")
        assert conjugate_set(m, identity(AB)) == m

    def test_two_elements(self):
        assert strs(conjugate_set(es("a", "b"), w("a"))) == ["a", "a^-1 b a"]


class TestElementSet:
    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            es("a", "a a^-1")

    def test_empty_word_list(self):
        with pytest.raises(EmptySet):
            ElementSet.from_words([])

    def test_dedup_and_order(self):
        assert strs(es("b", "a", "b")) == ["a", "b"]


class TestCheckMutuallyReduced:
    def test_free_product_of_cyclics_holds(self):
        v = check_mutually_reduced([es("a"), es("b")], 8)
        assert v.status == HOLDS and v.bound == 8 and v.witness is None

    def test_nested_powers_fail(self):
        sets = [es("a", alphabet=A_ONLY), es("a a", alphabet=A_ONLY)]
        v = check_mutually_reduced(sets, 4)
        assert v.status == COUNTEREXAMPLE
        # no violating product of length 2 or 3 exists, so the first
        # witness has length 4; it is a rotation of a^2 a^-1 a^-2 a
        assert [str(g) for g in v.witness] == ["a", "a a", "a^-1", "a^-1 a^-1"]
        assert verify_mutual_witness(sets, v.witness)
        rotations = {
            tuple(str(g) for g in v.witness[i:] + v.witness[:i])
            for i in range(4)
        }
        assert ("a a", "a^-1", "a^-1 a^-1", "a") in rotations

    def test_single_set_vacuous(self):
        assert check_mutually_reduced([es("a")], 4).status == HOLDS

    def test_no_sets_vacuous(self):
        assert check_mutually_reduced([], 4).status == HOLDS

    def test_max_len_too_small(self):
        with pytest.raises(ValueError):
            check_mutually_reduced([es("a")], 1)

    def test_budget_exhausts(self):
        sets = [es("a b"), es("b a"), es("a b a")]
        with pytest.raises(BudgetExceeded):
            check_mutually_reduced(sets, 8, expansion_budget=50)

    def test_monotone_in_bound(self):
        sets = [es("a", alphabet=A_ONLY), es("a a", alphabet=A_ONLY)]
        first = check_mutually_reduced(sets, 4)
        for bound in (4, 5, 6, 8):
            v = check_mutually_reduced(sets, bound)
            assert v.status == COUNTEREXAMPLE
            assert v.witness == first.witness
            assert verify_mutual_witness(sets, v.witness)


def _brute_force(sets, max_len):
    # independent oracle: plain nested enumeration in the same factor
    # order, cyclic adjacency checked directly on closure membership
    ops = sets[0].ops
    closures = [frozenset(symmetric_closure(s).elements) for s in sets]
    universe = sorted(
        {g for c in closures for g in c}, key=lambda g: (ops.size(g), ops.fmt(g))
    )
    for k in range(2, max_len + 1):
        for seq in itertools.product(universe, repeat=k):
            ok = True
            for i in range(k):
                g, h = seq[i], seq[(i + 1) % k]
                if any(g in c and h in c for c in closures):
                    ok = False
                    break
            if ok and ops.is_identity(product_of(ops, seq)):
                return seq
    return None


def _random_family(rng):
    n_sets = rng.randint(1, 3)
    alphabet = rng.choice([AB, A_ONLY])
    sets = []
    for _ in range(n_sets):
        elements = []
        for _ in range(rng.randint(1, 2)):
            length = rng.randint(1, 2)
            letters = [
                rng.choice([1, -1]) * rng.randint(1, len(alphabet.symbols))
                for _ in range(length)
            ]
            word = parse_word(
                alphabet,
                " ".join(
                    alphabet.symbols[abs(l) - 1] + ("" if l > 0 else "^-1")
                    for l in letters
                ),
            )
            if not word.is_identity:
                elements.append(word)
        if elements:
            sets.append(ElementSet.from_words(elements))
    return sets


def test_meet_in_middle_matches_brute_force():
    rng = random.Random(314)
    hits = 0
    for _ in range(60):
        sets = _random_family(rng)
        if not sets:
            continue
        expected = _brute_force(sets, 4)
        got = check_mutually_reduced(sets, 4)
        if expected is None:
            assert got.status == HOLDS
        else:
            hits += 1
            assert got.status == COUNTEREXAMPLE
            assert got.witness == expected
            assert verify_mutual_witness(sets, got.witness)
    assert hits >= 5


def _shared_family(rng):
    # two or three sets drawn from a pool of four short words in F(a, b):
    # powers of a generator, which give relations, and two-letter words; a
    # word, or its inverse, often lies in more than one closure
    pool = []
    while len(pool) < 4:
        if rng.random() < 0.6:
            text = f"{rng.choice('ab')}^{rng.choice([-3, -2, -1, 1, 2, 3])}"
        else:
            text = f"{rng.choice('ab')}^{rng.choice([-1, 1])} {rng.choice('ab')}"
        word = w(text)
        if not word.is_identity and word not in pool:
            pool.append(word)
    sets = []
    for _ in range(rng.randint(2, 3)):
        members = rng.sample(pool, rng.randint(1, 2))
        if rng.random() < 0.3:
            members[0] = invert(members[0])
        sets.append(ElementSet.from_words(members))
    if rng.random() < 0.3:
        # close a product of two pool words, for odd-length relations
        x, y = rng.sample(pool, 2)
        product = invert(multiply(x, y))
        if not product.is_identity:
            sets.append(ElementSet.from_words([product]))
    return sets


def test_search_matches_brute_force_at_every_bound():
    rng = random.Random(2718)
    shared = 0
    witness_lengths = []
    for _ in range(40):
        sets = _shared_family(rng)
        closures = [symmetric_closure(s).members for s in sets]
        if any(a & b for a, b in itertools.combinations(closures, 2)):
            shared += 1
        expected = _brute_force(sets, 5)
        for max_len in range(2, 6):
            got = check_mutually_reduced(sets, max_len)
            if expected is None or len(expected) > max_len:
                assert got.status == HOLDS
                assert got.witness is None
            else:
                assert got.status == COUNTEREXAMPLE
                assert got.witness == expected
        if expected is not None:
            witness_lengths.append(len(expected))
    assert shared >= 20
    assert len(witness_lengths) >= 10
    assert {3, 4} <= set(witness_lengths)


def test_budget_counts_visited_prefixes_not_products():
    # 264 was the smallest budget that completes this check when every
    # visited prefix was multiplied afresh; the check now computes 102
    # products, but each visit still spends one unit
    sets = [es("a^2 b a^2"), es("a^3 b a^3"), es("b a b^-1")]
    assert check_mutually_reduced(sets, 5, expansion_budget=264).holds
    with pytest.raises(BudgetExceeded):
        check_mutually_reduced(sets, 5, expansion_budget=263)


def test_check_leaves_no_garbage():
    # the product table must be freed when the check returns, not by a
    # later cyclic collection, even when the search stops at a counterexample
    sets = [es("a b"), es("b a"), es("a b a")]
    gc.disable()
    try:
        gc.collect()
        verdict = check_mutually_reduced(sets, 5)
        assert verdict.status == COUNTEREXAMPLE
        assert len(verdict.witness) == 4
        assert gc.collect() == 0
        assert check_mutually_reduced(sets, 5) == verdict  # from the memo
        assert gc.collect() == 0
    finally:
        gc.enable()


def _no_search(*args):
    raise AssertionError("a remembered check searched again")


def test_remembered_verdict_equals_the_search(monkeypatch):
    # every brute-force family at every bound, first searched with an empty
    # memo, then all through one memo, then all again with the search
    # disabled: each repeat is read from the memo holding every other entry
    families = [_random_family(random.Random(314)) for _ in range(60)]
    rng = random.Random(2718)
    families += [_shared_family(rng) for _ in range(40)]
    checks = [(sets, k) for sets in families if sets for k in range(2, 6)]
    cold = []
    for sets, k in checks:
        star_check._VERDICTS.clear()
        cold.append(check_mutually_reduced(sets, k))
    star_check._VERDICTS.clear()
    assert [check_mutually_reduced(sets, k) for sets, k in checks] == cold
    monkeypatch.setattr(star_check, "_search", _no_search)
    assert [check_mutually_reduced(sets, k) for sets, k in checks] == cold
    assert [v.bound for v in cold] == [k for _, k in checks]
    assert sum(v.status == COUNTEREXAMPLE for v in cold) >= 30


def test_remembered_check_repeats_without_searching(monkeypatch):
    sets = [es("a b"), es("b a"), es("a b a")]
    first = [check_mutually_reduced(sets, k) for k in range(2, 6)]
    monkeypatch.setattr(star_check, "_search", _no_search)
    # equal sets built afresh, over an equal ops, find the same entries
    again = [es("a b"), es("b a"), es("a b a")]
    assert [check_mutually_reduced(again, k) for k in range(2, 6)] == first
    with pytest.raises(AssertionError):
        check_mutually_reduced(again[::-1], 5)  # set order is part of the key


@pytest.mark.parametrize("first_budget", [264, 263])
def test_budget_pin_holds_on_a_warm_memo(first_budget):
    # 264 is the least budget that completes this check, whether the check
    # searches or replays a remembered search's spending
    sets = [es("a^2 b a^2"), es("a^3 b a^3"), es("b a b^-1")]
    messages = []
    for budget in (first_budget, 264, 263, 264, 263):
        try:
            assert check_mutually_reduced(sets, 5, expansion_budget=budget).holds
            assert budget == 264
        except BudgetExceeded as exc:
            assert budget == 263
            messages.append(str(exc))
    assert messages == [
        "mutual-reduction search exceeded expansion budget 263"
    ] * len(messages)
    # a check that ran out is not remembered
    (memo,) = star_check._VERDICTS.values()
    assert list(memo.values()) == [(check_mutually_reduced(sets, 5), 264)]


def test_memo_dies_with_its_ops():
    ops = FreeGroupOps(Alphabet(("p", "q")))
    sets = [ElementSet.of(ops, [parse_word(ops.alphabet, t)]) for t in ("p q", "q p")]
    check_mutually_reduced(sets, 4)
    assert len(star_check._VERDICTS) == 1
    gone = weakref.ref(ops)
    del ops, sets
    gc.collect()
    assert gone() is None
    assert len(star_check._VERDICTS) == 0


def test_memo_is_emptied_at_its_cap(monkeypatch):
    monkeypatch.setattr(star_check, "_VERDICT_CAP", 3)
    sets = [es("a b"), es("b a")]
    for max_len in (2, 3, 4):
        check_mutually_reduced(sets, max_len)
    (memo,) = star_check._VERDICTS.values()
    assert sorted(k[0] for k in memo) == [2, 3, 4]
    check_mutually_reduced(sets, 5)
    assert [k[0] for k in memo] == [5]


def test_conjugated_copies_refuse_an_overlap():
    # the copies of {a, b a b^-1} by a b and b a b both hold b^-1 a b, so
    # (b^-1 a b)(b^-1 a^-1 b) = 1 mixes two copies; the check alone passes
    m = es("a", "b a b^-1")
    xs = [w("a b"), w("b a b"), w("b b a")]
    assert check_mutually_reduced([conjugate_set(m, x) for x in xs], 6).holds
    with pytest.raises(PreconditionViolated, match=r"copies 1 and 2 share b\^-1 a b"):
        check_conjugated_copies(m, xs, 6)


def test_conjugated_copies_check_disjoint_copies():
    for m in (es("a", "b a"), es("a b^-1"), es("a^2", "b a^-1", "a b a")):
        xs = star_witness_locally_free(m, "a", "b")
        copies = [conjugate_set(m, x) for x in xs]
        for max_len in (2, 4):
            assert check_conjugated_copies(m, xs, max_len) == check_mutually_reduced(
                copies, max_len
            )


def test_verify_rejects_tampering():
    sets = [es("a", alphabet=A_ONLY), es("a a", alphabet=A_ONLY)]
    witness = check_mutually_reduced(sets, 4).witness
    assert verify_mutual_witness(sets, witness)
    assert not verify_mutual_witness(sets, witness[:-1])
    assert not verify_mutual_witness(sets, witness[1:] + (w("a a", A_ONLY),))
    assert not verify_mutual_witness(sets, ())


@st.composite
def short_words(draw):
    letters = draw(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5))
    word = parse_word(
        AB,
        " ".join(AB.symbols[abs(l) - 1] + ("" if l > 0 else "^-1") for l in letters)
        or "1",
    )
    return word


class TestConjugationProperties:
    @given(st.lists(short_words(), min_size=1, max_size=4), short_words())
    @settings(max_examples=60, deadline=None)
    def test_cardinality_and_identity_freeness(self, raw, x):
        raw = [g for g in raw if not g.is_identity]
        if not raw:
            return
        m = ElementSet.from_words(raw)
        conj = conjugate_set(m, x)
        assert len(conj) == len(m)
        assert all(not g.is_identity for g in conj.elements)

    @given(st.lists(short_words(), min_size=1, max_size=3), short_words())
    @settings(max_examples=40, deadline=None)
    def test_closure_commutes_with_conjugation(self, raw, x):
        raw = [g for g in raw if not g.is_identity]
        if not raw:
            return
        m = ElementSet.from_words(raw)
        assert symmetric_closure(conjugate_set(m, x)) == conjugate_set(
            symmetric_closure(m), x
        )


class TestLocallyFreeWitness:
    def test_unit_set(self):
        xs = star_witness_locally_free(es("b"), "a", "b")
        assert [str(x) for x in xs] == [
            "a a a b a a a",
            "a a a a b a a a a",
            "a a a a a b a a a a a",
        ]
        m = es("b")
        sets = [conjugate_set(m, x) for x in xs]
        assert check_mutually_reduced(sets, 6).status == HOLDS

    def test_two_generators(self):
        xs = star_witness_locally_free(es("a", "b"), "a", "b")
        assert str(xs[0]) == "a a a b a a a"
        m = es("a", "b")
        sets = [conjugate_set(m, x) for x in xs]
        assert check_mutually_reduced(sets, 6).status == HOLDS

    def test_longest_member_sets_power(self):
        xs = star_witness_locally_free(es("a b a^-1"), "a", "b")
        assert str(xs[0]) == "a a a a a a a b a a a a a a a"

    def test_requires_distinct_generators(self):
        with pytest.raises(ValueError):
            star_witness_locally_free(es("b"), "a", "a")

    def test_random_sets_hold(self):
        # desk-scale version of the locally-free claim; the acceptance
        # suite runs the full 100-instance sweep
        rng = random.Random(99)
        for _ in range(25):
            elements = set()
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(1, 4)
                letters = [rng.choice([1, -1, 2, -2]) for _ in range(length)]
                word = parse_word(
                    AB,
                    " ".join(
                        AB.symbols[abs(l) - 1] + ("" if l > 0 else "^-1")
                        for l in letters
                    ),
                )
                if not word.is_identity:
                    elements.add(word)
            if not elements:
                continue
            m = ElementSet.from_words(elements)
            xs = star_witness_locally_free(m, "a", "b")
            sets = [conjugate_set(m, x) for x in xs]
            assert check_mutually_reduced(sets, 6).status == HOLDS


def _remark_set(els):
    out = list(els)
    for g in els:
        for h in els:
            if g != h:
                out.append(multiply(invert(g), h))
    return ElementSet.from_words(out)


class TestFreeGeneratorCertificate:
    def test_conjugated_torsion_pattern_holds(self):
        x1, x2 = w("a^-1 h a", ABH), w("a^-1 h h a", ABH)
        y1, y2 = w("b^-1 a^-1 h a b", ABH), w("b^-1 a^-1 h h a b", ABH)
        cert = free_generator_certificate(
            _remark_set([x1, x2]), _remark_set([y1, y2]), [(x1, y1), (x2, y2)], 6
        )
        assert cert.holds and cert.relation is None and cert.mutual.holds

    def test_single_pair_holds(self):
        x1, y1 = w("a b"), w("b")
        cert = free_generator_certificate(
            _remark_set([x1]), _remark_set([y1]), [(x1, y1)], 6
        )
        assert cert.holds

    def test_duplicate_quotient_fails(self):
        # z_1 = z_2 = a, so z_1 z_2^-1 is a relation
        x1, x2 = w("a b"), w("a b b")
        y1, y2 = w("b"), w("b b")
        cert = free_generator_certificate(
            _remark_set([x1, x2]), _remark_set([y1, y2]), [(x1, y1), (x2, y2)], 6
        )
        assert not cert.holds
        assert cert.relation == ((0, 1), (1, -1))

    def test_structure_mismatch(self):
        x1, y1 = w("a b"), w("b")
        with pytest.raises(StructureMismatch):
            free_generator_certificate(es("a"), _remark_set([y1]), [(x1, y1)], 4)
        with pytest.raises(StructureMismatch):
            free_generator_certificate(
                _remark_set([x1]), _remark_set([y1]), [], 4
            )


    def test_identity_in_a_pair_is_a_structure_mismatch(self):
        x1, y1 = w("a b"), w("b")
        one = identity(AB)
        with pytest.raises(StructureMismatch, match="first set"):
            free_generator_certificate(
                _remark_set([x1]), _remark_set([y1]), [(x1, y1), (one, w("b b"))], 4
            )
        with pytest.raises(StructureMismatch, match="second set"):
            free_generator_certificate(
                _remark_set([x1]), _remark_set([y1]), [(x1, one)], 4
            )


def test_ops_equality_drives_set_equality():
    assert FreeGroupOps(AB) == FreeGroupOps(Alphabet(("a", "b")))
    assert es("a") == ElementSet.from_words([parse_word(Alphabet(("a", "b")), "a")])


def _recursive_find_relation(ops, elements, max_len, expansion_budget):
    # reference: the self-recursive iterative-deepening search
    elements = list(elements)
    inverses = [ops.invert(z) for z in elements]
    left = [expansion_budget]
    max_z = max((ops.size(z) for z in elements), default=0)

    def relation_at(limit, prefix, prod):
        depth = len(prefix)
        if depth == limit:
            return prefix if ops.is_identity(prod) else None
        for j in range(len(elements)):
            for exp, val in ((1, elements[j]), (-1, inverses[j])):
                if prefix and prefix[-1] == (j, -exp):
                    continue
                left[0] -= 1
                if left[0] < 0:
                    raise BudgetExceeded(
                        f"mutual-reduction search exceeded expansion budget {expansion_budget}"
                    )
                nxt = ops.multiply(prod, val)
                if ops.size(nxt) > (limit - depth - 1) * max_z:
                    continue
                found = relation_at(limit, prefix + ((j, exp),), nxt)
                if found:
                    return found
        return None

    for limit in range(1, max_len + 1):
        relation = relation_at(limit, (), ops.identity_element())
        if relation is not None:
            return relation
    return None


def _relation_outcome(search, ops, elements, max_len, budget):
    try:
        return search(ops, elements, max_len, budget)
    except BudgetExceeded as exc:
        return str(exc)


def test_find_relation_matches_recursive_reference():
    ops = FreeGroupOps(AB)
    rng = random.Random(7)
    letters = ("a", "b", "a^-1", "b^-1")
    found = 0
    for _ in range(150):
        elements = [
            w(" ".join(rng.choice(letters) for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 3))
        ]
        max_len = rng.randint(1, 5)
        for budget in (1, 5, 40, 300, rng.randint(1, 2000), 10**6):
            expected = _relation_outcome(_recursive_find_relation, ops, elements, max_len, budget)
            assert _relation_outcome(find_relation, ops, elements, max_len, budget) == expected
            found += isinstance(expected, tuple)
    assert found > 50


def test_find_relation_multiplies_each_prefix_once():
    # the visited prefixes of a limit include those of every shorter limit,
    # so with products kept across limits the search multiplies exactly as
    # often as the last limit alone visits prefixes
    class Counting(FreeGroupOps):
        calls = 0

        def multiply(self, g, h):
            Counting.calls += 1
            return super().multiply(g, h)

    ops = FreeGroupOps(AB)

    def spent(elements, max_len):
        # least budget the search completes within: the prefixes it visits
        lo, hi = 0, 10**6
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                find_relation(ops, elements, max_len, mid)
                hi = mid
            except BudgetExceeded:
                lo = mid + 1
        return lo

    for texts in (("a b", "b a"), ("a b a", "b^-1"), ("a", "b", "a b a^-1 b^-1")):
        elements = [w(t) for t in texts]
        Counting.calls = 0
        relation = find_relation(Counting(AB), elements, 5)
        assert relation == find_relation(ops, elements, 5)
        if relation is None:
            assert Counting.calls == spent(elements, 5) - spent(elements, 4)
        else:
            assert Counting.calls < spent(elements, 5)


def test_find_relation_leaves_no_garbage():
    ops = FreeGroupOps(AB)
    gc.disable()
    try:
        gc.collect()
        assert find_relation(ops, [w("a b"), w("b a")], 4) is None
        assert find_relation(ops, [w("a"), w("a a")], 4) == ((0, 1), (0, 1), (1, -1))
        assert gc.collect() == 0
    finally:
        gc.enable()
