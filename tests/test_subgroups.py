import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srlab.elements import map_basis_coords
from srlab.errors import ParseError, RedundantBasis, StructureMismatch
from srlab.subgroups import (
    SubgroupAutomaton,
    _core,
    _fold,
    conjugate_subgroup,
    coset_representative,
    from_generators,
    intersect,
    subgroup_equal,
)
from srlab.words import (
    Alphabet,
    Word,
    _letter_rank,
    identity,
    invert,
    iter_reduced_words,
    multiply,
    parse_word,
    power,
    reduce_signed,
    shortlex_key,
)

AB = Alphabet(("a", "b"))
AH = Alphabet(("a", "h"))


def w(text: str, alphabet: Alphabet = AB) -> Word:
    return parse_word(alphabet, text)


def sub(*texts: str, alphabet: Alphabet = AB) -> SubgroupAutomaton:
    return from_generators(alphabet, [w(t, alphabet) for t in texts])


class TestMembership:
    def test_cyclic_powers(self):
        h = sub("a")
        assert h.contains(w("a^5"))
        assert h.contains(w("a^-3"))
        assert not h.contains(w("b"))

    def test_trivial_subgroup(self):
        h = sub()
        assert h.is_trivial
        assert h.contains(identity(AB))
        assert not h.contains(w("a"))

    def test_gap_powers_fill_in(self):
        # a = a^3 * a^-2, so <a^2, a^3> is all of <a>
        h = sub("a^2", "a^3")
        assert h.contains(w("a"))

    def test_conjugated_generator(self):
        h = sub("a b a^-1")
        assert h.contains(w("a b^2 a^-1"))
        assert not h.contains(w("b"))

    def test_proper_finite_index_style(self):
        h = sub("a^2", "b", "a b a^-1")
        assert h.contains(w("a^2"))
        assert h.contains(w("a b a^-1"))
        assert not h.contains(w("a"))


class TestBruteForceOracle:
    def brute_members(self, gens, max_factors, max_len):
        acc = {identity(AB)}
        closure = [g for g in gens] + [invert(g) for g in gens]
        frontier = {identity(AB)}
        for _ in range(max_factors):
            frontier = {
                multiply(u, g)
                for u in frontier
                for g in closure
                if len(multiply(u, g)) <= max_len + 4
            }
            acc |= frontier
        return {u for u in acc if len(u) <= max_len}

    def test_agreement_on_random_subgroups(self):
        import random

        rng = random.Random(7)
        all_words = list(iter_reduced_words(AB, 4))
        for _ in range(12):
            gens = rng.sample(all_words, rng.randint(1, 3))
            h = from_generators(AB, gens)
            members = self.brute_members(gens, 6, 6)
            for u in iter_reduced_words(AB, 6, include_identity=True):
                if u in members:
                    assert h.contains(u), f"{u} missed by automaton for {gens}"

    def test_no_false_positives_small(self):
        gens = [w("a b"), w("b a")]
        h = from_generators(AB, gens)
        members = self.brute_members(gens, 8, 6)
        for u in iter_reduced_words(AB, 4, include_identity=True):
            if h.contains(u):
                assert u in members, f"{u} falsely accepted"


class TestIntersect:
    def test_disjoint_cyclics(self):
        assert intersect(sub("a"), sub("b")).is_trivial

    def test_power_lattice(self):
        h = intersect(sub("a^2"), sub("a^3"))
        assert subgroup_equal(h, sub("a^6"))
        for k in range(-12, 13):
            assert h.contains(power(w("a"), k)) == (k % 6 == 0)

    def test_idempotent(self):
        h = sub("a b", "b a")
        assert subgroup_equal(intersect(h, h), h)

    def test_commutative_membership(self):
        h1, h2 = sub("a", "b a b^-1"), sub("a^2", "b^2")
        left, right = intersect(h1, h2), intersect(h2, h1)
        for u in iter_reduced_words(AB, 5, include_identity=True):
            assert left.contains(u) == right.contains(u)
            assert left.contains(u) == (h1.contains(u) and h2.contains(u))


class TestConjugate:
    def test_identity_conjugator(self):
        assert subgroup_equal(conjugate_subgroup(sub("a"), identity(AB)), sub("a"))

    def test_shift_by_generator(self):
        h = conjugate_subgroup(sub("a"), w("b"))
        assert h.contains(w("b^-1 a^2 b"))
        assert not h.contains(w("a"))

    def test_dagger_instance(self):
        # in F(a, h) with H = <h>: a^-1 H a meets H trivially
        h = sub("h", alphabet=AH)
        conj = conjugate_subgroup(h, w("a", AH))
        assert intersect(conj, h).is_trivial


class TestCosetRepresentative:
    def test_strip_subgroup_prefix(self):
        h = sub("a")
        assert coset_representative(h, w("a^3 b")) == w("b")

    def test_member_maps_to_identity(self):
        h = sub("a")
        assert coset_representative(h, w("a^2")).is_identity

    def test_trivial_subgroup_fixes_everything(self):
        h = sub()
        for u in iter_reduced_words(AB, 3, include_identity=True):
            assert coset_representative(h, u) == u

    def test_coset_invariance_and_membership(self):
        h = sub("a b", "b^-1 a")
        for u in iter_reduced_words(AB, 4, include_identity=True):
            r = coset_representative(h, u)
            assert h.contains(multiply(u, invert(r)))
            for m in [w("a b"), w("b^-1 a"), invert(w("a b"))]:
                assert coset_representative(h, multiply(m, u)) == r

    def test_shortlex_minimality(self):
        # representative must be the shortlex-least coset element
        h = sub("a^2", "b a")
        for u in iter_reduced_words(AB, 3, include_identity=True):
            r = coset_representative(h, u)
            for v in iter_reduced_words(AB, len(r), include_identity=True):
                if h.contains(multiply(v, invert(u))):
                    assert shortlex_key(r) <= shortlex_key(v)


class TestExpression:
    def test_rank_detects_redundancy(self):
        assert sub("a^2", "a^3").rank == 1
        assert sub("a", "b").rank == 2
        assert sub("a b a^-1 b^-1").rank == 1

    def test_express_round_trip(self):
        gens = [w("a^2"), w("b a")]
        h = from_generators(AB, gens)
        for u in [w("a^2"), w("b a"), multiply(w("a^2"), w("b a")), identity(AB)]:
            expr = h.express(u)
            assert expr is not None
            out = identity(AB)
            for e in expr:
                piece = gens[abs(e) - 1]
                out = multiply(out, piece if e > 0 else invert(piece))
            assert out == u

    def test_express_rejects_non_member(self):
        h = sub("a^2")
        assert h.express(w("a")) is None

    def test_redundant_basis_raises(self):
        h = sub("a^2", "a^3")
        with pytest.raises(RedundantBasis):
            h.express(w("a"))

    def test_scrambled_basis(self):
        # a valid but non-obvious basis of F(a, b)
        gens = [w("a b"), w("b")]
        h = from_generators(AB, gens)
        for u in iter_reduced_words(AB, 4, include_identity=True):
            expr = h.express(u)
            assert expr is not None
            out = identity(AB)
            for e in expr:
                piece = gens[abs(e) - 1]
                out = multiply(out, piece if e > 0 else invert(piece))
            assert out == u


class TestMemos:
    GENERATOR_SETS = [
        (),
        ("a^2", "b a"),
        ("a b", "b"),
        ("a b a^-1",),
        ("a^2", "b^2", "a b a^-1 b"),
        ("b a^-1 b^-1", "a b a"),
        # an independent basis whose expression no greedy Nielsen pass finds
        ("b^-3 a^-1 b", "b^-2 a^-1 b a^-1", "a b^-1 a b^-1 a^-1 b^-2", "a^-1 b^-1 a b^2"),
    ]

    def test_memoized_maps_match_fresh_automaton(self):
        words = list(iter_reduced_words(AB, 4, include_identity=True))
        for gens in self.GENERATOR_SETS:
            h = sub(*gens)
            for _ in range(2):  # fill the memos, then read from them
                for u in words:
                    h.express(u)
                    h.coset_representative(u)
                    h.left_coset_representative(u)
            fresh = sub(*gens)
            basis = fresh.automaton_basis()
            over_basis = SubgroupAutomaton.from_generators(AB, basis)
            for u in words:
                assert h.express(u) == fresh.express(u)
                assert h.coset_representative(u) == fresh.coset_representative(u)
                assert h.left_coset_representative(u) == invert(
                    fresh.coset_representative(invert(u))
                )
                expr = over_basis.express(u)
                assert (expr is None) == (not fresh.contains(u))
                if expr is not None:
                    out = identity(AB)
                    for e in expr:
                        piece = basis[abs(e) - 1]
                        out = multiply(out, piece if e > 0 else invert(piece))
                    assert out == u

    def test_redundant_basis_raises_on_every_call(self):
        h = sub("a^2", "a^3")
        for _ in range(2):
            assert h.express(w("b")) is None
            with pytest.raises(RedundantBasis):
                h.express(w("a"))

    @pytest.mark.parametrize(
        "method", ["express", "coset_representative", "left_coset_representative"]
    )
    def test_memo_is_emptied_at_its_cap(self, monkeypatch, method):
        import srlab.subgroups

        monkeypatch.setattr(srlab.subgroups, "MEMO_CAP", 5)
        h = sub("a^2", "b a")
        fresh = sub("a^2", "b a")
        words = list(iter_reduced_words(AB, 2, include_identity=True))
        for i, u in enumerate(words):
            assert getattr(h, method)(u) == getattr(fresh, method)(u)
            assert len(h._cache[method]) == i % 5 + 1
        for u in words:
            assert getattr(h, method)(u) == getattr(fresh, method)(u)
            assert len(h._cache[method]) <= 5


# the file of <a> that to_json writes
A_LOOP = {"alphabet": ["a", "b"], "base": 0, "states": 1, "edges": [[0, "a", 0]], "basis": ["a"]}


class TestSerialization:
    def test_round_trip(self):
        h = sub("a b", "b a")
        h2 = SubgroupAutomaton.from_json(h.to_json())
        assert h2.delta == h.delta
        assert subgroup_equal(h, h2)

    @pytest.mark.parametrize(
        "gens, basis",
        [
            ("a", ["a^2"]),  # a proper subgroup of the same rank
            ("a", ["b"]),  # a word outside the subgroup
            ("a b", []),  # no basis for a nontrivial subgroup
        ],
    )
    def test_rejects_a_basis_that_does_not_generate(self, gens, basis):
        data = json.loads(sub(gens).to_json())
        data["basis"] = basis
        with pytest.raises(StructureMismatch):
            SubgroupAutomaton.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "change",
        [
            {"edges": [[0, "a", 3]]},  # a target past the last state
            {"edges": [[0, "a", -1]]},  # a negative id, not the last state
            {"edges": [[-3, "a", 0]]},
            {"edges": [[0, "a", True]]},  # a boolean is not a state id
            {"edges": [[0, "a", 1.0]]},
            {"edges": [[0, "a"]]},  # not a triple
            {"edges": [[0, "a", 1, "b"]]},
            {"edges": ["0 a 1"]},
            {"base": 3},
            {"base": -1},
            {"states": -1},
            {"states": "3"},
        ],
    )
    def test_rejects_a_state_outside_the_automaton(self, change):
        data = json.loads(sub("a b", "b a").to_json())
        data["edges"] += change.pop("edges", [])
        data.update(change)
        with pytest.raises(ParseError):
            SubgroupAutomaton.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "data",
        [
            {},
            [],
            {**A_LOOP, "basis": [3]},
            {**A_LOOP, "alphabet": "ab"},  # not read as the symbols a, b
            {**A_LOOP, "basis": "a"},
            {key: v for key, v in A_LOOP.items() if key != "states"},
            {key: v for key, v in A_LOOP.items() if key != "base"},
            {**A_LOOP, "edges": None},
            {**A_LOOP, "edges": [[0, ["a"], 0]]},
        ],
    )
    def test_rejects_a_malformed_file(self, data):
        with pytest.raises(ParseError):
            SubgroupAutomaton.from_json(json.dumps(data))

    def test_prunes_a_hanging_path_and_an_unreachable_cycle(self):
        path = 2000
        edges = [[0, "a", 0]] + [[i, "b", i + 1] for i in range(path)]
        cycle = [path + 1, path + 2, path + 3]
        edges += [[u, "a", v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
        data = {**A_LOOP, "states": path + 4, "edges": edges}
        for text in (json.dumps(A_LOOP), json.dumps(data)):
            assert SubgroupAutomaton.from_json(text).to_json() == sub("a").to_json()

    def test_cost_follows_the_file_not_its_states_count(self):
        import tracemalloc

        far = 999_999
        files = [
            ({**A_LOOP, "states": 10**6, "edges": [], "basis": []}, sub()),
            ({**A_LOOP, "states": 10**6, "base": far, "edges": [[far, "a", far]]}, sub("a")),
        ]
        for data, expected in files:
            tracemalloc.start()
            try:
                h = SubgroupAutomaton.from_json(json.dumps(data))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert h.to_json() == expected.to_json()
            assert peak < 2 * 1024 * 1024
        with pytest.raises(ParseError):
            SubgroupAutomaton.from_json(json.dumps({**A_LOOP, "states": 10**6, "base": 10**6}))

    def test_shape_errors_name_the_json_key(self):
        with pytest.raises(ParseError) as info:
            SubgroupAutomaton.from_json(json.dumps({**A_LOOP, "alphabet": "ab"}))
        assert str(info.value) == "JSON key 'alphabet' must hold a list of words"
        from srlab.hnn import HnnPresentation

        text = '{"base":["a","h"],"A":["h"],"B":["h"],"phi":"h","stable":"t"}'
        with pytest.raises(ParseError) as info:
            HnnPresentation.from_json(text)
        assert str(info.value) == "JSON key 'phi' must hold a list of [word, word] pairs"


def _restrict_to_core(delta, base):
    """Reference: keep the base component, then prune dead ends until none is left."""
    reachable = {base}
    stack = [base]
    while stack:
        s = stack.pop()
        for t in delta[s].values():
            if t not in reachable:
                reachable.add(t)
                stack.append(t)
    alive = set(reachable)
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if s != base and sum(1 for t in delta[s].values() if t in alive) <= 1:
                alive.remove(s)
                changed = True
    renum = {s: i for i, s in enumerate(sorted(alive))}
    out = [dict() for _ in renum]
    for s in renum:
        for letter, target in delta[s].items():
            if target in alive:
                out[renum[s]][letter] = renum[target]
    return out, renum[base]


def _canonical_renumber(delta, base):
    """Reference: breadth-first from the base, letters in rank order."""
    order = [base]
    for s in order:
        for letter in sorted(delta[s], key=_letter_rank):
            if delta[s][letter] not in order:
                order.append(delta[s][letter])
    renum = {s: i for i, s in enumerate(order)}
    out = [dict() for _ in order]
    for s in order:
        for letter, target in delta[s].items():
            out[renum[s]][letter] = renum[target]
    return out


def test_core_matches_pruning_to_stability_then_renumbering():
    rng = random.Random(1)
    for _ in range(3000):
        states = rng.randint(1, 9)
        edges = [
            (rng.randrange(states), rng.choice((1, 2)), rng.randrange(states), ())
            for _ in range(rng.randint(0, 12))
        ]
        delta, base, _ = _fold(states, edges, rng.randrange(states))
        core = _core(delta, base)
        assert core == _canonical_renumber(*_restrict_to_core(delta, base))
        for trans in core:
            assert list(trans) == sorted(trans, key=_letter_rank)


@st.composite
def subgroup_st(draw):
    texts = st.sampled_from(
        ["a", "b", "a b", "b a", "a^2", "b^2", "a b^-1", "a^2 b", "b a b^-1"]
    )
    gens = draw(st.lists(texts, min_size=1, max_size=3))
    return from_generators(AB, [w(t) for t in gens])


@settings(max_examples=60, deadline=None)
@given(subgroup_st(), subgroup_st())
def test_intersection_soundness(h1, h2):
    both = intersect(h1, h2)
    for u in itertools.islice(iter_reduced_words(AB, 4, include_identity=True), 60):
        assert both.contains(u) == (h1.contains(u) and h2.contains(u))


@settings(max_examples=60, deadline=None)
@given(subgroup_st())
def test_automaton_basis_generates(h):
    basis = h.automaton_basis()
    assert len(basis) == h.rank
    for b in basis:
        assert h.contains(b)
    regrown = from_generators(AB, basis)
    assert subgroup_equal(regrown, h)


@st.composite
def long_generators_st(draw):
    """One to four reduced words of up to 9 letters: their folds merge
    states that were merged before, which subgroup_st's short words rarely do."""
    signed = st.sampled_from((1, -1, 2, -2))
    raw = st.lists(signed, min_size=1, max_size=9).map(reduce_signed).filter(bool)
    return from_generators(AB, [Word(AB, g) for g in draw(st.lists(raw, min_size=1, max_size=4))])


@st.composite
def basis_coords_st(draw):
    """An independent basis and a reduced word over it."""
    h = draw(subgroup_st() | long_generators_st())
    assume(h.rank == len(h.basis))
    k = len(h.basis)
    signed = st.integers(1, k) | st.integers(-k, -1)
    return h, reduce_signed(draw(st.lists(signed, max_size=8)))


@settings(max_examples=100, deadline=None)
@given(basis_coords_st())
# its fold merges a state into one that was merged before
@example((sub("b a^2", "b a b^-1"), (-1,)))
def test_expression_is_the_unique_reduced_word(case):
    h, coords = case
    assert h.express(map_basis_coords(AB, h.basis, coords)) == coords


def test_folded_invariant():
    for h in [sub("a b", "a b^-1"), sub("a", "b a b^-1"), sub("a b a^-1 b^-1")]:
        for state, trans in enumerate(h.delta):
            assert len(set(trans.keys())) == len(trans)
            for letter, t in trans.items():
                assert h.delta[t][-letter] == state
