"""Folded core automata for finitely generated subgroups of free groups.

A subgroup is represented by its Stallings automaton: a folded, connected,
based graph whose edges are labelled by generators; a word lies in the
subgroup iff it traces a loop at the base state.  Every automaton is folded
and then cut to its core and numbered canonically in one linear pass
(breadth-first from the base, letters in shortlex rank order), so that
equal constructions produce identical structures.

Membership, intersection (product automaton), conjugation, shortlex coset
representatives, and expression of members in a user-supplied independent
basis are provided; the last is what lets HNN/amalgam isomorphisms be
applied to arbitrary subgroup members.  Expression is exact and needs no
search: folding the basis' petals with labelled edges (Stallings,
Invent. Math. 71, 1983; Kapovich-Myasnikov, J. Algebra 248, 2002) gives each
transition the basis word it reads, and a member's expression is the reduced
product of the labels along its loop.

Expression and both coset representatives are pure functions of a word's
letters, and a presentation applies them to the same words again and again,
so each automaton memoizes them, as basis_image memoizes the images of an
isomorphism given by aligned bases.  A memo is emptied when it reaches
MEMO_CAP entries, which bounds the memory of an automaton that outlives many
computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .elements import map_basis_coords, presentation_json
from .errors import (
    AlphabetMismatch,
    ParseError,
    PreconditionViolated,
    RedundantBasis,
    StructureMismatch,
)
from .words import (
    Alphabet,
    Word,
    _letter_rank,
    invert,
    multiply,
    parse_word,
    reduce_signed,
)

# entries a memo of one automaton holds before it is emptied
MEMO_CAP = 4096

_MISSING = object()

Label = tuple[int, ...]


def _remember(memo: dict, key, value):
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _inverse(label: Label) -> Label:
    return tuple([-x for x in reversed(label)])


def _petals(gens: Iterable[Word]) -> tuple[int, list[tuple[int, int, int, Label]]]:
    """One loop at state 0 per generator, as (state count, labelled edges).
    The edge that closes the loop of the i-th generator is labelled (i,),
    1-based, and every other edge (), so the loop reads its generator."""
    edges: list[tuple[int, int, int, Label]] = []
    num_states = 1
    for i, g in enumerate(gens, 1):
        prev = 0
        for letter in g.letters[:-1]:
            edges.append((prev, letter, num_states, ()))
            prev = num_states
            num_states += 1
        if g.letters:
            edges.append((prev, g.letters[-1], 0, (i,)))
    return num_states, edges


def _fold(
    num_states: int, edges: list[tuple[int, int, int, Label]], base: int
) -> tuple[list[dict[int, int]], int, list[dict[int, Label]]]:
    """Identify states until no state has two edges with one signed letter.

    Edges are (u, signed letter, v, label) and may repeat.  A label is a
    reduced word over signed basis indices, read along the edge and
    inverted against it.  Folding merges the targets of equally lettered
    parallel edges until the automaton is deterministic and
    co-deterministic, and the labels fold with it: a weighted union-find
    keeps, for each merged state, the label offset from its parent, so
    every path reads the label product it read before, taken from its
    ends' roots.  A state folds into the lower-numbered one, so state 0
    stays a root and the labels of a loop at state 0 are not conjugated.
    Petal labels of an independent basis never conflict, so a member's
    loop reads its one expression in that basis.

    Returns the transitions, the base's new number, and the label of each
    transition.
    """
    parent = list(range(num_states))
    # offset[s] is the label of an empty path from parent[s] to s; a root's is ()
    offset: list[Label] = [()] * num_states

    def find(x: int) -> int:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        for y in reversed(path):  # nearest the root first
            if parent[y] != x:
                offset[y] = reduce_signed(offset[parent[y]] + offset[y])
                parent[y] = x
        return x

    # adj[s][letter] lists (v, label): an edge from s into the state v,
    # labelled from s's root to v
    adj: list[dict[int, list[tuple[int, Label]]]] = [dict() for _ in range(num_states)]
    for u, letter, v, label in edges:
        adj[u].setdefault(letter, []).append((v, label))
        adj[v].setdefault(-letter, []).append((u, _inverse(label)))

    # (a, b, c): a and b are to be one state, and c labels an empty path from a to b
    queue: list[tuple[int, int, Label]] = []

    def onto_root(v: int, label: Label) -> tuple[int, Label]:
        """v's root, and the label of an edge into v re-read to end there."""
        root = find(v)
        return root, reduce_signed(label + _inverse(offset[v]))

    def enqueue_conflicts(state: int) -> None:
        for letter, targets in adj[state].items():
            if len(targets) == 1:
                continue
            by_root: dict[int, Label] = {}
            for v, label in targets:
                root, label = onto_root(v, label)
                by_root.setdefault(root, label)
            adj[state][letter] = list(by_root.items())
            (first, first_label), *others = adj[state][letter]
            for other, label in others:
                queue.append((first, other, reduce_signed(_inverse(first_label) + label)))

    for s in range(num_states):
        enqueue_conflicts(s)
    while queue:
        a, b, c = queue.pop()
        keep, drop = find(a), find(b)
        if keep == drop:
            continue
        c = reduce_signed(offset[a] + c + _inverse(offset[b]))
        if keep > drop:
            keep, drop, c = drop, keep, _inverse(c)
        parent[drop] = keep
        offset[drop] = c
        for letter, targets in adj[drop].items():
            adj[keep].setdefault(letter, []).extend(
                (v, reduce_signed(c + label)) for v, label in targets
            )
        adj[drop] = {}
        enqueue_conflicts(keep)

    roots = sorted({find(s) for s in range(num_states)})
    renum = {r: i for i, r in enumerate(roots)}
    out: list[dict[int, int]] = [dict() for _ in roots]
    labels: list[dict[int, Label]] = [dict() for _ in roots]
    for r in roots:
        for letter, targets in adj[r].items():
            assert len({find(v) for v, _ in targets}) == 1
            target, label = onto_root(*targets[0])
            out[renum[r]][letter] = renum[target]
            labels[renum[r]][letter] = label
    return out, renum[find(base)], labels


def _core(delta: list[dict[int, int]], base: int) -> list[dict[int, int]]:
    """The core of a folded automaton, numbered canonically.

    delta is folded, so a state's degree is its number of transitions.  A
    worklist prunes the hanging dead ends: each pruned non-base state lowers
    its neighbours' degrees, and a neighbour left with one transition joins
    the list, so each state is pruned at most once.  The states left are
    numbered breadth-first from the base, letters in rank order, which makes
    the base state 0, lists each state's transitions in rank order and drops
    the states the base does not reach.
    """
    degree = [len(trans) for trans in delta]
    pruned = [False] * len(delta)
    stack = [s for s, d in enumerate(degree) if d <= 1 and s != base]
    while stack:
        s = stack.pop()
        pruned[s] = True
        for t in delta[s].values():
            if not pruned[t]:
                degree[t] -= 1
                if degree[t] == 1 and t != base:
                    stack.append(t)
    number = {base: 0}
    order = [base]
    out: list[dict[int, int]] = []
    for s in order:  # order grows as states are numbered
        trans = {}
        for letter in sorted(delta[s], key=_letter_rank):
            t = delta[s][letter]
            if pruned[t]:
                continue
            if t not in number:
                number[t] = len(order)
                order.append(t)
            trans[letter] = number[t]
        out.append(trans)
    return out


@dataclass(frozen=True)
class SubgroupAutomaton:
    """Folded core automaton; base state is always 0, and each state lists
    its transitions in letter rank order."""

    alphabet: Alphabet
    delta: tuple[dict[int, int], ...]
    basis: tuple[Word, ...]
    _cache: dict = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    base = 0

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_generators(
        alphabet: Alphabet, gens: Iterable[Word]
    ) -> "SubgroupAutomaton":
        gens = tuple(gens)
        for g in gens:
            if g.alphabet.symbols != alphabet.symbols:
                raise ValueError("generator alphabet differs from subgroup alphabet")
        delta, base, _ = _fold(*_petals(gens), 0)
        return SubgroupAutomaton(alphabet, tuple(_core(delta, base)), gens)

    # -- basic queries ----------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.delta)

    @property
    def is_trivial(self) -> bool:
        return all(not d for d in self.delta)

    def contains(self, w: Word) -> bool:
        if w.alphabet.symbols != self.alphabet.symbols:
            return False
        state = 0
        for letter in w.letters:
            nxt = self.delta[state].get(letter)
            if nxt is None:
                return False
            state = nxt
        return state == 0

    def trace(self, w: Word) -> tuple[int, int]:
        """(end state of the maximal traceable prefix, its length)."""
        state = 0
        for pos, letter in enumerate(w.letters):
            nxt = self.delta[state].get(letter)
            if nxt is None:
                return state, pos
            state = nxt
        return state, len(w.letters)

    # -- spanning tree, automaton basis, coset representatives -------------

    def _tree(self) -> tuple[list[tuple[int, ...]], list[tuple[int, int, int]]]:
        """Shortlex spanning tree: (min path letters per state, non-tree edges)."""
        if "tree" in self._cache:
            return self._cache["tree"]
        paths: list[tuple[int, ...] | None] = [None] * len(self.delta)
        paths[0] = ()
        tree_edges: set[tuple[int, int, int]] = set()
        queue = [0]
        head = 0
        while head < len(queue):
            s = queue[head]
            head += 1
            for letter, t in self.delta[s].items():
                if paths[t] is None:
                    paths[t] = paths[s] + (letter,)
                    tree_edges.add(self._canonical_edge(s, letter, t))
                    queue.append(t)
        non_tree = []
        for s, trans in enumerate(self.delta):
            for letter, t in trans.items():
                if letter < 0:
                    continue
                edge = (s, letter, t)
                if edge not in tree_edges:
                    non_tree.append(edge)
        non_tree.sort()
        result = ([p for p in paths], non_tree)
        self._cache["tree"] = result
        return result

    @staticmethod
    def _canonical_edge(s: int, letter: int, t: int) -> tuple[int, int, int]:
        return (s, letter, t) if letter > 0 else (t, -letter, s)

    @property
    def rank(self) -> int:
        return len(self._tree()[1])

    def automaton_basis(self) -> tuple[Word, ...]:
        """Free basis derived from the spanning tree (one word per extra edge)."""
        paths, non_tree = self._tree()
        out = []
        for u, letter, v in non_tree:
            letters = paths[u] + (letter,) + _inverse(paths[v])
            out.append(Word(self.alphabet, reduce_signed(letters)))
        return tuple(out)

    def _memo(self, name: str) -> dict:
        memo = self._cache.get(name)
        if memo is None:
            memo = self._cache[name] = {}
        return memo

    def coset_representative(self, w: Word) -> Word:
        """Shortlex-least element of the right coset H*w; identity for H."""
        memo = self._memo("coset_representative")
        rep = memo.get(w.letters)
        if rep is not None:
            return rep
        state, prefix_len = self.trace(w)
        paths, _ = self._tree()
        remainder = w.letters[prefix_len:]
        return _remember(memo, w.letters, Word(self.alphabet, paths[state] + remainder))

    def left_coset_representative(self, w: Word) -> Word:
        """Shortlex-least element of the inverse of the right coset H*w^-1,
        the canonical representative of the left coset w*H."""
        memo = self._memo("left_coset_representative")
        rep = memo.get(w.letters)
        if rep is not None:
            return rep
        return _remember(memo, w.letters, invert(self.coset_representative(invert(w))))

    # -- expression in bases ------------------------------------------------

    def _basis_labels(self) -> list[dict[int, Label]]:
        """Per state, letter -> the word over the stored basis (signed 1-based
        indices) that the transition reads.  The basis' petals are folded
        with labels and matched onto delta by reading the same letters from
        the base; StructureMismatch when the basis does not generate the
        automaton's subgroup.  The labels express members only when the
        basis is independent."""
        labels = self._cache.get("basis_labels")
        if labels is not None:
            return labels
        folded, _, folded_labels = _fold(*_petals(self.basis), 0)
        labels = [dict() for _ in self.delta]
        mismatch = StructureMismatch("the basis does not generate the automaton")
        match = {0: 0}  # folded state -> state
        stack = [0]
        while stack:
            f = stack.pop()
            s = match[f]
            if folded[f].keys() != self.delta[s].keys():
                raise mismatch
            for letter, t in self.delta[s].items():
                labels[s][letter] = folded_labels[f][letter]
                ft = folded[f][letter]
                if ft not in match:
                    match[ft] = t
                    stack.append(ft)
                elif match[ft] != t:
                    raise mismatch
        if len(match) != len(self.delta):
            raise mismatch
        self._cache["basis_labels"] = labels
        return labels

    def express(self, w: Word) -> tuple[int, ...] | None:
        """w as a reduced word over the user basis (signed 1-based indices),
        or None if w is not a member.  Raises RedundantBasis if the stored
        basis is not independent."""
        memo = self._memo("express")
        coords = memo.get(w.letters, _MISSING)
        if coords is not _MISSING:
            return coords
        labels = self._basis_labels()
        state = 0
        out: list[int] = []
        for letter in w.letters:
            nxt = self.delta[state].get(letter)
            if nxt is None:
                return _remember(memo, w.letters, None)
            out += labels[state][letter]
            state = nxt
        if state != 0:
            return _remember(memo, w.letters, None)
        if self.rank != len(self.basis):
            raise RedundantBasis(
                f"{len(self.basis)} generators span a subgroup of rank {self.rank}"
            )
        return _remember(memo, w.letters, reduce_signed(out))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        edges = sorted(
            (u, self.alphabet.symbol_of(letter), v)
            for u, trans in enumerate(self.delta)
            for letter, v in trans.items()
            if letter > 0
        )
        return json.dumps(
            {
                "alphabet": list(self.alphabet.symbols),
                "base": 0,
                "states": self.n_states,
                "edges": [list(e) for e in edges],
                "basis": [str(b) for b in self.basis],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "SubgroupAutomaton":
        """Parse to_json output.  A file without lists of symbols, basis
        words and edges or a non-negative states count, a state id outside
        range(states), or an edge that is not a [state, symbol, state]
        triple, is a ParseError."""
        data = presentation_json(text, lists=("alphabet", "basis"))
        alphabet = Alphabet(tuple(data["alphabet"]))
        states = data.get("states")
        if type(states) is not int or states < 0:
            raise ParseError(f"states must be a non-negative integer, got {states!r}")
        if not isinstance(data.get("edges"), list):
            raise ParseError("edges must be a list of [state, symbol, state] triples")

        # only the states that edges or the base name are folded, numbered
        # as they appear, so the cost follows the file and not its states count
        number: dict[int, int] = {}

        def state(v, what: str) -> int:
            if type(v) is not int or not 0 <= v < states:
                raise ParseError(f"{what} state {v!r} is not in range({states})")
            return number.setdefault(v, len(number))

        edges = []
        for e in data["edges"]:
            if not isinstance(e, list) or len(e) != 3 or not isinstance(e[1], str):
                raise ParseError(f"edge {e!r} is not a [state, symbol, state] triple")
            u, sym, v = e
            edges.append((state(u, "edge"), alphabet.index_of(sym), state(v, "edge"), ()))
        base = state(data.get("base"), "base")
        delta, base, _ = _fold(len(number), edges, base)
        basis = tuple(parse_word(alphabet, b) for b in data["basis"])
        h = SubgroupAutomaton(alphabet, tuple(_core(delta, base)), basis)
        h._basis_labels()  # refuses a basis that does not generate the automaton
        return h

    # -- member enumeration ---------------------------------------------------

    def iter_members(self, max_len: int) -> Iterator[Word]:
        """All nontrivial members of length <= max_len, shortlex order."""
        frontier: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        for _ in range(max_len):
            new_frontier = []
            for state, letters in frontier:
                for letter, t in self.delta[state].items():
                    if letters and letters[-1] == -letter:
                        continue
                    extended = letters + (letter,)
                    if t == 0:
                        yield Word(self.alphabet, extended)
                    new_frontier.append((t, extended))
            frontier = new_frontier


def from_generators(alphabet: Alphabet, gens: Iterable[Word]) -> SubgroupAutomaton:
    return SubgroupAutomaton.from_generators(alphabet, gens)


def contains(h: SubgroupAutomaton, w: Word) -> bool:
    return h.contains(w)


def coset_representative(h: SubgroupAutomaton, w: Word) -> Word:
    return h.coset_representative(w)


def intersect(h1: SubgroupAutomaton, h2: SubgroupAutomaton) -> SubgroupAutomaton:
    """Product automaton accepting the intersection (Howson construction)."""
    if h1.alphabet.symbols != h2.alphabet.symbols:
        raise ValueError("subgroups over different alphabets")
    alphabet = h1.alphabet
    start = (0, 0)
    numbering = {start: 0}
    delta: list[dict[int, int]] = [dict()]
    queue = [start]
    head = 0
    while head < len(queue):
        s1, s2 = queue[head]
        s = numbering[(s1, s2)]
        head += 1
        for letter, t1 in h1.delta[s1].items():
            t2 = h2.delta[s2].get(letter)
            if t2 is None:
                continue
            pair = (t1, t2)
            if pair not in numbering:
                numbering[pair] = len(delta)
                delta.append(dict())
                queue.append(pair)
            delta[s][letter] = numbering[pair]
    result = SubgroupAutomaton(alphabet, tuple(_core(delta, 0)), ())
    # the derived basis doubles as the stored one for computed subgroups
    return SubgroupAutomaton(alphabet, result.delta, result.automaton_basis())


def conjugate_subgroup(h: SubgroupAutomaton, g: Word) -> SubgroupAutomaton:
    """Automaton for g^-1 H g, rebuilt from conjugated generators."""
    basis = h.basis if h.basis else h.automaton_basis()
    inv_g = invert(g)
    gens = [multiply(multiply(inv_g, b), g) for b in basis]
    return SubgroupAutomaton.from_generators(h.alphabet, gens)


def displaces(h: SubgroupAutomaton, g: Word) -> bool:
    """True when g conjugates h off itself: g^-1 H g n H = 1."""
    return intersect(conjugate_subgroup(h, g), h).is_trivial


def subgroup_equal(h1: SubgroupAutomaton, h2: SubgroupAutomaton) -> bool:
    """Exact accepted-set equality via mutual basis membership."""
    return all(h2.contains(b) for b in h1.automaton_basis()) and all(
        h1.contains(b) for b in h2.automaton_basis()
    )


def aligned_bases(
    a_alphabet: Alphabet,
    a_basis: tuple[Word, ...],
    b_alphabet: Alphabet,
    b_basis: tuple[Word, ...],
) -> tuple[SubgroupAutomaton, SubgroupAutomaton]:
    """The automata of two index-aligned bases, whose i-th words correspond.
    The bases must have one size (StructureMismatch), lie over their
    alphabets (AlphabetMismatch) and be independent (RedundantBasis), so
    that the alignment extends to an isomorphism of the subgroups."""
    if len(a_basis) != len(b_basis):
        raise StructureMismatch(
            f"aligned bases must have equal size, got {len(a_basis)} and {len(b_basis)}"
        )
    sides = ((a_alphabet, a_basis), (b_alphabet, b_basis))
    for alphabet, basis in sides:
        if any(w.alphabet.symbols != alphabet.symbols for w in basis):
            raise AlphabetMismatch("basis word alphabet differs from its group's alphabet")
    subs = tuple(from_generators(alphabet, basis) for alphabet, basis in sides)
    for sub, (_, basis) in zip(subs, sides):
        if sub.rank != len(basis):
            raise RedundantBasis(f"{len(basis)} generators span a subgroup of rank {sub.rank}")
    return subs


def basis_image(
    memo: dict,
    sub: SubgroupAutomaton,
    alphabet: Alphabet,
    basis: tuple[Word, ...],
    w: Word,
) -> Word:
    """The image of w, a member of sub, under the isomorphism that sends the
    i-th word of sub's basis to basis[i]: the same product of basis, a word
    over alphabet.  memo keeps images by letters, capped like the express
    memo; a non-member raises PreconditionViolated."""
    image = memo.get(w.letters)
    if image is None:
        coords = sub.express(w)
        if coords is None:
            raise PreconditionViolated(f"{w} is not in the subgroup the isomorphism maps")
        image = _remember(memo, w.letters, map_basis_coords(alphabet, basis, coords))
    return image
