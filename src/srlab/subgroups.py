"""Folded core automata for finitely generated subgroups of free groups.

A subgroup is represented by its Stallings automaton: a folded, connected,
based graph whose edges are labelled by generators; a word lies in the
subgroup iff it traces a loop at the base state.  States are renumbered
canonically (breadth-first from the base, letters in shortlex rank order)
so that equal constructions produce identical structures.

Membership, intersection (product automaton), conjugation, shortlex coset
representatives, and expression of members in a user-supplied independent
basis are provided; the last is what lets HNN/amalgam isomorphisms be
applied to arbitrary subgroup members.

Expression and both coset representatives are pure functions of a word's
letters, and a presentation applies them to the same words again and again,
so each automaton memoizes them.  A memo is emptied when it reaches
MEMO_CAP entries, which bounds the memory of an automaton that outlives many
computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import BudgetExceeded, RedundantBasis
from .words import (
    Alphabet,
    Word,
    _letter_rank,
    invert,
    multiply,
    parse_word,
    reduce_signed,
)

_EXPRESSION_BFS_BUDGET = 200_000

# entries a memo of one automaton holds before it is emptied
MEMO_CAP = 4096

_MISSING = object()


def _remember(memo: dict, key, value):
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _fold(
    num_states: int, edges: list[tuple[int, int, int]], base: int
) -> tuple[list[dict[int, int]], int]:
    """Identify states until no state has two edges with one signed label.

    Edges are (u, signed letter, v) and may repeat; folding merges the
    targets of equally labelled parallel edges until the automaton is
    deterministic and co-deterministic.
    """
    parent = list(range(num_states))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: list[dict[int, set[int]]] = [dict() for _ in range(num_states)]
    for u, letter, v in edges:
        adj[u].setdefault(letter, set()).add(v)
        adj[v].setdefault(-letter, set()).add(u)

    queue: list[tuple[int, int]] = []

    def enqueue_conflicts(state: int) -> None:
        for letter, targets in adj[state].items():
            roots = sorted({find(t) for t in targets})
            adj[state][letter] = set(roots)
            for other in roots[1:]:
                queue.append((roots[0], other))

    for s in range(num_states):
        enqueue_conflicts(s)
    while queue:
        a, b = queue.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        keep, drop = (a, b) if a < b else (b, a)
        parent[drop] = keep
        for letter, targets in adj[drop].items():
            adj[keep].setdefault(letter, set()).update(targets)
        adj[drop] = {}
        enqueue_conflicts(keep)

    roots = sorted({find(s) for s in range(num_states)})
    renum = {r: i for i, r in enumerate(roots)}
    out: list[dict[int, int]] = [dict() for _ in roots]
    for r in roots:
        for letter, targets in adj[r].items():
            resolved = {find(t) for t in targets}
            assert len(resolved) == 1
            out[renum[r]][letter] = renum[resolved.pop()]
    return out, renum[find(base)]


def _restrict_to_core(
    delta: list[dict[int, int]], base: int
) -> tuple[list[dict[int, int]], int]:
    """Keep the base component and iteratively prune hanging dead ends."""
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
            if s == base:
                continue
            degree = sum(1 for t in delta[s].values() if t in alive)
            if degree <= 1:
                alive.remove(s)
                changed = True
    order = sorted(alive)
    renum = {s: i for i, s in enumerate(order)}
    out: list[dict[int, int]] = [dict() for _ in order]
    for s in order:
        for letter, target in delta[s].items():
            if target in alive:
                out[renum[s]][letter] = renum[target]
    return out, renum[base]


def _canonical_renumber(
    delta: list[dict[int, int]], base: int
) -> list[dict[int, int]]:
    """BFS from base with letters in rank order; base becomes state 0."""
    order = [base]
    seen = {base}
    head = 0
    while head < len(order):
        s = order[head]
        head += 1
        for letter in sorted(delta[s], key=_letter_rank):
            t = delta[s][letter]
            if t not in seen:
                seen.add(t)
                order.append(t)
    renum = {s: i for i, s in enumerate(order)}
    out: list[dict[int, int]] = [dict() for _ in order]
    for s in order:
        for letter, target in delta[s].items():
            out[renum[s]][letter] = renum[target]
    return out


@dataclass(frozen=True)
class SubgroupAutomaton:
    """Folded core automaton; base state is always 0."""

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
        edges: list[tuple[int, int, int]] = []
        num_states = 1
        for g in gens:
            letters = g.letters
            if not letters:
                continue
            prev = 0
            for pos, letter in enumerate(letters):
                nxt = 0 if pos == len(letters) - 1 else num_states
                if nxt:
                    num_states += 1
                edges.append((prev, letter, nxt))
                prev = nxt
        delta, base = _fold(num_states, edges, 0)
        delta, base = _restrict_to_core(delta, base)
        delta = _canonical_renumber(delta, base)
        return SubgroupAutomaton(alphabet, tuple(delta), gens)

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
            for letter in sorted(self.delta[s], key=_letter_rank):
                t = self.delta[s][letter]
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
            letters = paths[u] + (letter,) + tuple(-l for l in reversed(paths[v]))
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

    def _edge_labels(self) -> list[dict[int, int]]:
        """Per state, letter -> signed 1-based automaton-basis index of the
        non-tree edge it follows (negative when followed backwards)."""
        if "edge_labels" in self._cache:
            return self._cache["edge_labels"]
        _, non_tree = self._tree()
        labels: list[dict[int, int]] = [dict() for _ in self.delta]
        for i, (u, letter, v) in enumerate(non_tree):
            labels[u][letter] = i + 1
            labels[v][-letter] = -(i + 1)
        self._cache["edge_labels"] = labels
        return labels

    def express_automaton(self, w: Word) -> tuple[int, ...] | None:
        """w as a reduced word over the automaton basis (signed 1-based
        indices into automaton_basis()), or None if w is not a member."""
        labels = self._edge_labels()
        state = 0
        out: list[int] = []
        for letter in w.letters:
            nxt = self.delta[state].get(letter)
            if nxt is None:
                return None
            e = labels[state].get(letter)
            if e is not None:
                out.append(e)
            state = nxt
        if state != 0:
            return None
        return reduce_signed(out)

    def _user_translation(self) -> list[tuple[int, ...]]:
        """For each automaton-basis element, an expression over the user basis
        (signed 1-based indices into self.basis).  Requires independence."""
        if "user_translation" in self._cache:
            return self._cache["user_translation"]
        k = len(self.basis)
        if self.rank != k:
            raise RedundantBasis(
                f"{k} generators span a subgroup of rank {self.rank}"
            )
        gen_exprs = []
        for g in self.basis:
            expr = self.express_automaton(g)
            assert expr is not None
            gen_exprs.append(expr)
        translation = _invert_generating_tuple(gen_exprs, self.rank)
        self._cache["user_translation"] = translation
        return translation

    def express(self, w: Word) -> tuple[int, ...] | None:
        """w as a reduced word over the user basis (signed 1-based indices),
        or None if w is not a member.  Raises RedundantBasis if the stored
        basis is not independent."""
        memo = self._memo("express")
        coords = memo.get(w.letters, _MISSING)
        if coords is not _MISSING:
            return coords
        auto_expr = self.express_automaton(w)
        if auto_expr is None:
            return _remember(memo, w.letters, None)
        translation = self._user_translation()
        out: list[int] = []
        for e in auto_expr:
            piece = translation[abs(e) - 1]
            if e < 0:
                piece = tuple(-x for x in reversed(piece))
            out.extend(piece)
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
        data = json.loads(text)
        alphabet = Alphabet(tuple(data["alphabet"]))
        edges = [(u, alphabet.index_of(sym), v) for u, sym, v in data["edges"]]
        delta, base = _fold(data["states"], edges, data["base"])
        delta, base = _restrict_to_core(delta, base)
        delta = _canonical_renumber(delta, base)
        basis = tuple(parse_word(alphabet, b) for b in data["basis"])
        return SubgroupAutomaton(alphabet, tuple(delta), basis)

    # -- member enumeration ---------------------------------------------------

    def iter_members(self, max_len: int) -> Iterator[Word]:
        """All nontrivial members of length <= max_len, shortlex order."""
        frontier: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        for _ in range(max_len):
            new_frontier = []
            for state, letters in frontier:
                for letter in sorted(self.delta[state], key=_letter_rank):
                    if letters and letters[-1] == -letter:
                        continue
                    t = self.delta[state][letter]
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
    core, base = _restrict_to_core(delta, 0)
    core = _canonical_renumber(core, base)
    result = SubgroupAutomaton(alphabet, tuple(core), ())
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


def _invert_generating_tuple(
    gens: list[tuple[int, ...]], rank: int
) -> list[tuple[int, ...]]:
    """Given k = rank words over an ambient free group F_rank that generate all
    of it, return for each ambient basis letter y_l an expression over the
    given words (signed 1-based indices).  Greedy Nielsen reduction with
    mirrored bookkeeping, then a breadth-first fallback for what remains."""
    u = [tuple(g) for g in gens]
    v: list[tuple[int, ...]] = [(i + 1,) for i in range(len(gens))]

    def mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return reduce_signed(x + y)

    def inv(x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-l for l in reversed(x))

    changed = True
    while changed:
        changed = False
        for i in range(len(u)):
            if not u[i]:
                raise RedundantBasis("a generator collapses to the identity")
            for j in range(len(u)):
                if i == j:
                    continue
                for uj, vj in ((u[j], v[j]), (inv(u[j]), inv(v[j]))):
                    right = mul(u[i], uj)
                    if len(right) < len(u[i]):
                        u[i], v[i] = right, mul(v[i], vj)
                        changed = True
                        continue
                    left = mul(uj, u[i])
                    if len(left) < len(u[i]):
                        u[i], v[i] = left, mul(vj, v[i])
                        changed = True

    translation: list[tuple[int, ...] | None] = [None] * rank
    for ui, vi in zip(u, v):
        if len(ui) == 1:
            letter = ui[0]
            idx = abs(letter) - 1
            if translation[idx] is None:
                translation[idx] = vi if letter > 0 else inv(vi)
    missing = [l for l in range(rank) if translation[l] is None]
    if missing:
        _bfs_expressions(u, v, translation, missing, mul, inv)
    return [t for t in translation]  # type: ignore[misc]


def _bfs_expressions(u, v, translation, missing, mul, inv) -> None:
    """Breadth-first search over products of the generators for the missing
    ambient letters; complete in principle, budgeted in practice."""
    targets = {(-(l + 1),): l for l in missing} | {(l + 1,): l for l in missing}
    seen: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
    frontier = [()]
    expanded = 0
    want = set(missing)
    steps = [(ui, vi) for ui, vi in zip(u, v)] + [
        (inv(ui), inv(vi)) for ui, vi in zip(u, v)
    ]
    while frontier and want:
        next_frontier = []
        for word in frontier:
            expr = seen[word]
            for ui, vi in steps:
                expanded += 1
                if expanded > _EXPRESSION_BFS_BUDGET:
                    raise BudgetExceeded(
                        "basis-inversion search exceeded its node budget"
                    )
                nxt = mul(word, ui)
                if nxt in seen:
                    continue
                nexpr = mul(expr, vi)
                seen[nxt] = nexpr
                hit = targets.get(nxt)
                if hit is not None and hit in want:
                    letter = nxt[0]
                    translation[hit] = nexpr if letter > 0 else inv(nexpr)
                    want.discard(hit)
                    if not want:
                        return
                next_frontier.append(nxt)
        frontier = next_frontier
    if want:
        raise RedundantBasis("generators do not span the subgroup independently")
