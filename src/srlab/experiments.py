"""Batch experiment drivers with deterministic, seed-stamped reports.

Each driver either enumerates a family exhaustively or draws instances from a
seeded generator, runs the corresponding library check, and returns a plain
dict ready for JSON serialization.  Reports carry no wall-clock data and every
collection is emitted in a fixed order, so identical inputs and seed give
byte-identical serialized output.  The recorded "seed" is None for the purely
exhaustive drivers.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Iterator, Sequence

from .amalgam import (
    KIND_A_LARGE,
    KIND_B_LARGE,
    KIND_H_LARGE,
    POWER,
    SANDWICH,
    AmalgamOps,
    AmalgamPresentation,
    AmalgamWord,
    amalgam_reduce,
    classify_reduced_form,
    dagger_check,
    format_amalgam_word,
    free_pair_generators,
    relation_among,
    star_witness_amalgam,
)
from .elements import FreeGroupOps
from .errors import SearchBudgetExceeded, StructureMismatch
from .hnn import (
    HnnPresentation,
    HnnWord,
    find_word_outside,
    hnn_element_set,
    hnn_word_from_signed,
    is_identity,
    star_witness_hnn,
    star_witness_hypotheses,
)
from .ring_lab import (
    SUPPORT_CSV_FIELDS,
    RingElement,
    left_translation_table,
    right_translation_table,
    ring_element,
    standard_free_family,
    support_bound_experiment,
    support_csv_row,
)
from .sr_graph import (
    SRGraph,
    find_sr_cycle,
    complete_criterion,
    graph_to_json,
    multipartite_hypotheses,
    stats,
    validate,
)
from .star_check import (
    ElementSet,
    check_conjugated_copies,
    conjugate_set,
    quotient_set,
    star_witness_locally_free,
)
from .words import (
    Alphabet,
    Word,
    from_signed,
    identity,
    invert,
    iter_reduced_words,
    parse_word,
    power,
)


def report_bytes(report: dict) -> bytes:
    """Canonical UTF-8 serialization used for byte-identity comparisons."""
    return json.dumps(report, sort_keys=True, ensure_ascii=False).encode("utf-8")


# -- two-coloured clique-union families ------------------------------------------


def iter_set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All partitions of items into unlabelled nonempty blocks, in restricted
    growth order; blocks keep the input order of their members."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    codes = [0] * n
    while True:
        blocks: list[list] = [[] for _ in range(max(codes) + 1)]
        for item, c in zip(items, codes):
            blocks[c].append(item)
        yield blocks
        i = n - 1
        while i > 0 and codes[i] > max(codes[:i]):
            i -= 1
        if i == 0:
            return
        codes[i] += 1
        for j in range(i + 1, n):
            codes[j] = 0


def integer_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples summing to n, largest first."""

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def _clique_edges(blocks) -> list[tuple]:
    return [
        (u, v) for b in blocks for u, v in itertools.combinations(sorted(b), 2)
    ]


def _connected(vertices, edges) -> bool:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in parent}) <= 1


def iter_two_clique_family(max_n: int) -> Iterator[SRGraph]:
    """Connected graphs on 1..max_n vertices whose colour classes are both
    disjoint unions of cliques, covering every isomorphism class.

    The first partition ranges over canonical shape layouts (consecutive
    blocks of weakly decreasing size), which reaches every class after
    relabelling; the second ranges over all set partitions.  A pair survives
    when no two vertices share a block in both partitions (the colour classes
    stay edge-disjoint) and the union is connected.  Classes may repeat; the
    stream is deterministic.
    """
    for n in range(1, max_n + 1):
        verts = list(range(1, n + 1))
        for shape in integer_partitions(n):
            e_blocks = []
            next_v = 1
            for size in shape:
                e_blocks.append(list(range(next_v, next_v + size)))
                next_v += size
            e_block_of = {v: i for i, b in enumerate(e_blocks) for v in b}
            e_edges = _clique_edges(e_blocks)
            for f_blocks in iter_set_partitions(verts):
                ok = True
                for fb in f_blocks:
                    seen = set()
                    for v in fb:
                        eb = e_block_of[v]
                        if eb in seen:
                            ok = False
                            break
                        seen.add(eb)
                    if not ok:
                        break
                if not ok:
                    continue
                f_edges = _clique_edges(f_blocks)
                if not _connected(verts, e_edges + f_edges):
                    continue
                yield validate(verts, e_edges, f_edges)


def random_sr_graph(
    rng: random.Random, max_n: int = 10, f_density: float = 0.3
) -> SRGraph:
    """Random clique partition for the first colour, independent random edges
    off it for the second."""
    n = rng.randint(1, max_n)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    blocks, i = [], 0
    while i < n:
        size = rng.randint(1, n - i)
        blocks.append(verts[i : i + size])
        i += size
    e_edges = _clique_edges(blocks)
    e_set = set(e_edges)
    f_edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if (u, v) not in e_set and rng.random() < f_density
    ]
    return validate(range(1, n + 1), e_edges, f_edges)


def random_planted_multipartite(rng: random.Random) -> SRGraph:
    """Random instance of the forced-cycle hypotheses: every F-component is
    complete multipartite and more than twice its largest part, with at most
    one E-isolated vertex per F-component."""
    for _ in range(500):
        k = rng.randint(1, 3)
        profiles = []
        for _ in range(k):
            while True:
                r = rng.randint(3, 4)
                sizes = [rng.randint(1, 2) for _ in range(r)]
                if sum(sizes) <= 2 * max(sizes):
                    continue
                # with a single component all pair blocks live inside parts,
                # so at most one part may have odd size
                if k == 1 and sum(s % 2 for s in sizes) > 1:
                    continue
                break
            profiles.append(sizes)
        label = 1
        part_of = {}
        f_edges = []
        for ci, sizes in enumerate(profiles):
            parts = []
            for pi, s in enumerate(sizes):
                part = list(range(label, label + s))
                label += s
                for v in part:
                    part_of[v] = (ci, pi)
                parts.append(part)
            for i, p1 in enumerate(parts):
                for p2 in parts[i + 1 :]:
                    f_edges.extend((u, v) for u in p1 for v in p2)
        verts = list(range(1, label))
        pool = verts[:]
        rng.shuffle(pool)
        blocks, singles = [], []
        while pool:
            v = pool.pop()
            want = rng.randint(2, 3)
            block = [v]
            i = 0
            while i < len(pool) and len(block) < want:
                u = pool[i]
                # same block means a clique edge, which must not collide with
                # an F-edge: different components or the same part
                if all(
                    part_of[u][0] != part_of[x][0] or part_of[u] == part_of[x]
                    for x in block
                ):
                    block.append(pool.pop(i))
                else:
                    i += 1
            if len(block) == 1:
                singles.append(v)
            else:
                blocks.append(block)
        if len(singles) > k:
            continue
        g = validate(verts, _clique_edges(blocks), f_edges)
        if multipartite_hypotheses(g):
            return g
    raise SearchBudgetExceeded("could not assemble a planted instance")


def graph_equivalence_report(max_n: int = 8) -> dict:
    """Exhaustive agreement of the component-count criterion with cycle
    search over the two-sided clique-union family."""
    instances = with_cycle = 0
    disagreements = []
    for g in iter_two_clique_family(max_n):
        instances += 1
        predicted = complete_criterion(g)
        found = find_sr_cycle(g) is not None
        with_cycle += found
        if predicted != found:
            disagreements.append(graph_to_json(g))
    return {
        "kind": "component-count-equivalence",
        "seed": None,
        "max_n": max_n,
        "instances": instances,
        "with_cycle": with_cycle,
        "without_cycle": instances - with_cycle,
        "disagreements": disagreements,
        "holds": not disagreements,
    }


def graph_bounds_report(
    max_n: int = 8,
    samples: int = 10000,
    sample_max_n: int = 10,
    seed: int = 0,
) -> dict:
    """Component-count inequality over the clique-union family, and the
    isolated-or-cut witness on every cycle-free instance met (family members
    and seeded random graphs alike)."""
    inequality_violations: list[str] = []
    witness_violations: list[str] = []
    family = 0

    def witness_check(g: SRGraph) -> None:
        st = stats(g)
        if not (st.i_g or st.i_h or st.cut_vertices):
            witness_violations.append(graph_to_json(g))

    for g in iter_two_clique_family(max_n):
        family += 1
        st = stats(g)
        if st.c_g + st.c_h > g.n + 1:
            inequality_violations.append(graph_to_json(g))
        if find_sr_cycle(g) is None:
            witness_check(g)
    rng = random.Random(seed)
    cycle_free = 0
    for _ in range(samples):
        g = random_sr_graph(rng, sample_max_n)
        if find_sr_cycle(g) is None:
            cycle_free += 1
            witness_check(g)
    return {
        "kind": "component-bounds",
        "seed": seed,
        "family_max_n": max_n,
        "family_instances": family,
        "inequality_violations": inequality_violations,
        "samples": samples,
        "sample_max_n": sample_max_n,
        "cycle_free_samples": cycle_free,
        "witness_violations": witness_violations,
        "holds": not inequality_violations and not witness_violations,
    }


def planted_cycle_report(count: int = 1000, seed: int = 0) -> dict:
    """Seeded planted multipartite instances, each expected to carry a cycle."""
    rng = random.Random(seed)
    failures = []
    min_n = max_n = None
    for _ in range(count):
        g = random_planted_multipartite(rng)
        min_n = g.n if min_n is None else min(min_n, g.n)
        max_n = g.n if max_n is None else max(max_n, g.n)
        if find_sr_cycle(g) is None:
            failures.append(graph_to_json(g))
    return {
        "kind": "planted-multipartite",
        "seed": seed,
        "count": count,
        "min_n": min_n,
        "max_n": max_n,
        "failures": failures,
        "holds": not failures,
    }


# -- conjugator witnesses over a rank-2 free ambient ------------------------------


def witness_sweep_report(
    count: int = 100,
    seed: int = 0,
    max_set_size: int = 3,
    max_member_len: int = 4,
    check_len: int = 6,
) -> dict:
    """Random identity-free sets; the power-conjugator triple must leave the
    conjugated copies mutually reduced at the check bound."""
    rng = random.Random(seed)
    ab = Alphabet(("a", "b"))
    ops = FreeGroupOps(ab)
    pool = list(iter_reduced_words(ab, max_member_len))
    failures = []
    for _ in range(count):
        m = ElementSet.of(ops, rng.sample(pool, rng.randint(1, max_set_size)))
        xs = star_witness_locally_free(m, "a", "b")
        if not check_conjugated_copies(m, xs, check_len).holds:
            failures.append(sorted(str(v) for v in m.elements))
    return {
        "kind": "conjugator-witness-sweep",
        "seed": seed,
        "count": count,
        "max_set_size": max_set_size,
        "max_member_len": max_member_len,
        "check_len": check_len,
        "failures": failures,
        "holds": not failures,
    }


# -- stable-letter extensions ------------------------------------------------------


def degenerate_oracle_report(max_len: int = 8) -> dict:
    """Trivial associated subgroups turn the extension into a free product,
    so pinch-based identity testing must agree with plain free reduction over
    the enlarged alphabet, on every raw letter sequence up to the bound."""
    base = Alphabet(("a", "b"))
    p = HnnPresentation(base, "t", (), ())
    full = p.full_alphabet
    letters = [l for i in (1, 2, 3) for l in (i, -i)]
    checked = 0
    mismatches = []
    for length in range(0, max_len + 1):
        for seq in itertools.product(letters, repeat=length):
            checked += 1
            free_side = from_signed(full, seq).is_identity
            pinch_side = is_identity(p, hnn_word_from_signed(p, seq))
            if free_side != pinch_side:
                mismatches.append(list(seq))
    return {
        "kind": "degenerate-extension-oracle",
        "seed": None,
        "max_len": max_len,
        "checked": checked,
        "mismatches": mismatches,
        "holds": not mismatches,
    }


_RANK_ONE_POOL = ("h", "a h a^-1", "a^-1 h a", "h h")


def random_rank_one_presentation(rng: random.Random) -> HnnPresentation:
    """Conjugate-of-generator associated subgroups inside F(a, h); the single
    basis word is never redundant, so construction always succeeds."""
    alphabet = Alphabet(("a", "h"))
    a_text = rng.choice(_RANK_ONE_POOL)
    b_text = rng.choice(_RANK_ONE_POOL)
    return HnnPresentation(
        alphabet,
        "t",
        (parse_word(alphabet, a_text),),
        (parse_word(alphabet, b_text),),
    )


def hnn_relation_report(count: int = 20, seed: int = 0) -> dict:
    """The defining pinch t^-1 u t (phi u)^-1 must die for random rank-1
    presentations and random powers u of the associated generator."""
    rng = random.Random(seed)
    rows = []
    holds = True
    for _ in range(count):
        p = random_rank_one_presentation(rng)
        u = power(p.a_basis[0], rng.choice((1, 2, -1)))
        image = p.phi(u)
        word = HnnWord(identity(p.alphabet), ((-1, u), (1, invert(image))))
        ok = is_identity(p, word)
        holds &= ok
        rows.append({"member": str(u), "image": str(image), "identity": ok})
    return {
        "kind": "extension-defining-relation",
        "seed": seed,
        "count": count,
        "rows": rows,
        "holds": holds,
    }


def hnn_witness_report(count: int = 20, seed: int = 0, check_len: int = 4) -> dict:
    """Random rank-1 presentations with certified hypotheses; the seam
    conjugators must leave the conjugated sets mutually reduced."""
    rng = random.Random(seed)
    failures = []
    skipped = 0
    done = 0
    while done < count:
        p = random_rank_one_presentation(rng)
        g = star_witness_hypotheses(p, search_len=4)
        if g is None:
            skipped += 1
            continue
        h = find_word_outside(p, max_len=4)
        m = hnn_element_set(p, rng.sample(("a", "a h", "h a^-1"), rng.randint(1, 2)))
        xs = star_witness_hnn(p, m, g, h)
        if not check_conjugated_copies(m, xs, check_len).holds:
            failures.append(
                {
                    "presentation": p.to_json(),
                    "members": sorted(m.ops.fmt(v) for v in m.elements),
                }
            )
        done += 1
    return {
        "kind": "extension-witness-sweep",
        "seed": seed,
        "count": count,
        "skipped": skipped,
        "check_len": check_len,
        "failures": failures,
        "holds": not failures,
    }


# -- amalgamated products ----------------------------------------------------------


def fixed_amalgam_presentations() -> tuple[AmalgamPresentation, AmalgamPresentation]:
    """The two reference instances: infinite cyclic factors glued over the
    trivial subgroup, and rank-2 free factors glued over cyclic subgroups."""
    plain = AmalgamPresentation(Alphabet(("a",)), Alphabet(("b",)), (), ())
    fa, fb = Alphabet(("a", "h")), Alphabet(("b", "k"))
    glued = AmalgamPresentation(
        fa, fb, (parse_word(fa, "h"),), (parse_word(fb, "k"),)
    )
    return plain, glued


def iter_bounded_amalgam_elements(
    p: AmalgamPresentation, max_sylls: int, interior_len: int = 2
) -> Iterator[AmalgamWord]:
    """Nontrivial elements with at most max_sylls alternating syllables whose
    interiors have at most interior_len letters, preceded by the bounded
    nontrivial amalgamated elements; deduplicated by canonical form."""
    seen: set[AmalgamWord] = set()
    for hw in p.h_in_a.iter_members(interior_len):
        w = amalgam_reduce(p, [("A", hw)])
        if w not in seen:
            seen.add(w)
            yield w
    sides = {
        "A": [
            w
            for w in iter_reduced_words(p.factor_a, interior_len)
            if not p.h_in_a.contains(w)
        ],
        "B": [
            w
            for w in iter_reduced_words(p.factor_b, interior_len)
            if not p.h_in_b.contains(w)
        ],
    }
    for length in range(1, max_sylls + 1):
        for start in ("A", "B"):
            tags = [
                start if i % 2 == 0 else ("B" if start == "A" else "A")
                for i in range(length)
            ]
            for combo in itertools.product(*(sides[t] for t in tags)):
                w = amalgam_reduce(p, list(zip(tags, combo)))
                if w not in seen:
                    seen.add(w)
                    yield w


def dichotomy_report(max_sylls: int = 3, interior_len: int = 2) -> dict:
    """Exhaustive sweep of the wing construction over both reference
    presentations: every middle element must land in the sandwich or the
    power shape, never neither."""
    plain, glued = fixed_amalgam_presentations()
    sections = []
    holds = True
    for name, p in (("plain", plain), ("glued", glued)):
        witness = dagger_check(p)
        a, b = witness.a, p.b_outside
        sandwich = power_count = 0
        neither = []
        elements = 0
        for f in iter_bounded_amalgam_elements(p, max_sylls, interior_len):
            elements += 1
            try:
                shape = classify_reduced_form(p, a, b, f.length + 2, f)
            except StructureMismatch:
                neither.append(format_amalgam_word(f))
                continue
            if shape.kind == SANDWICH:
                sandwich += 1
            elif shape.kind == POWER:
                power_count += 1
        if neither:
            holds = False
        sections.append(
            {
                "presentation": name,
                "elements": elements,
                "sandwich": sandwich,
                "power": power_count,
                "neither": neither,
            }
        )
    return {
        "kind": "wing-shape-dichotomy",
        "seed": None,
        "max_sylls": max_sylls,
        "interior_len": interior_len,
        "presentations": sections,
        "holds": holds,
    }


def amalgam_witness_report(
    count: int = 50, seed: int = 0, check_len: int = 4
) -> dict:
    """Random bounded sets over the reference presentations; the displacing
    conjugator triple must leave the conjugated copies mutually reduced."""
    rng = random.Random(seed)
    plain, glued = fixed_amalgam_presentations()
    pools = [
        (name, p, list(iter_bounded_amalgam_elements(p, 2, 1)))
        for name, p in (("plain", plain), ("glued", glued))
    ]
    failures = []
    for _ in range(count):
        name, p, pool = pools[rng.randrange(2)]
        members = rng.sample(pool, rng.randint(1, 2))
        m = ElementSet.of(AmalgamOps(p), members)
        xs = star_witness_amalgam(p, m)
        if not check_conjugated_copies(m, xs, check_len).holds:
            failures.append(
                {
                    "presentation": name,
                    "members": sorted(format_amalgam_word(v) for v in m.elements),
                }
            )
    return {
        "kind": "amalgam-witness-sweep",
        "seed": seed,
        "count": count,
        "check_len": check_len,
        "failures": failures,
        "holds": not failures,
    }


def free_family_report(family_size: int = 3, relation_len: int = 6) -> dict:
    """Stock free families over the reference presentations must admit no
    relation up to the factor-count bound."""
    plain, glued = fixed_amalgam_presentations()
    rows = []
    holds = True
    cases = [
        ("plain", plain, KIND_A_LARGE),
        ("plain", plain, KIND_B_LARGE),
        ("glued", glued, KIND_A_LARGE),
        ("glued", glued, KIND_B_LARGE),
        ("glued", glued, KIND_H_LARGE),
    ]
    for name, p, kind in cases:
        gens = free_pair_generators(p, kind, family_size)
        rel = relation_among(p, gens, relation_len)
        ok = rel is None
        holds &= ok
        rows.append(
            {
                "presentation": name,
                "family": kind,
                "generators": [format_amalgam_word(g) for g in gens],
                "relation": None if ok else list(rel),
            }
        )
    return {
        "kind": "free-family-relations",
        "seed": None,
        "family_size": family_size,
        "relation_len": relation_len,
        "rows": rows,
        "holds": holds,
    }


# -- group-ring counting and support ----------------------------------------------

_RING_AB = Alphabet(("a", "b"))
_RING_OPS = FreeGroupOps(_RING_AB)


def conjugated_triples(
    members: ElementSet,
) -> tuple[list[ElementSet], tuple[Word, Word, Word]]:
    """Three conjugated copies of the given set under the power-conjugator
    triple built from its quotient closure; the copies are the right-table
    row sets."""
    wits = star_witness_locally_free(quotient_set(members), "a", "b")
    return [conjugate_set(members, x) for x in wits], wits


def random_right_instance(
    rng: random.Random,
) -> tuple[list[ElementSet], list[Word]]:
    """Conjugated row sets plus translators, identity allowed among the
    translators."""
    pool = list(iter_reduced_words(_RING_AB, 2))
    members = ElementSet.of(_RING_OPS, rng.sample(pool, rng.randint(1, 2)))
    sets, _ = conjugated_triples(members)
    translators = rng.sample(pool + [identity(_RING_AB)], rng.randint(1, 3))
    return sets, translators


def random_left_instance(
    rng: random.Random,
) -> tuple[list[list[Word]], list[tuple[Word, Word, Word]]]:
    """Blocks with identity allowed among members, one conjugate triple of the
    standard free family per block."""
    pool = list(iter_reduced_words(_RING_AB, 2))
    n = rng.randint(1, 3)
    fam = standard_free_family(_RING_OPS, 3 * n)
    s_list = [
        rng.sample(pool + [identity(_RING_AB)], rng.randint(1, 2)) for _ in range(n)
    ]
    x_list = [tuple(fam[3 * i : 3 * i + 3]) for i in range(n)]
    return s_list, x_list


def counting_report(runs: int = 50, seed: int = 0) -> dict:
    """Randomized right- and left-translation tables; isolated counts must
    beat the translator and member totals."""
    rng = random.Random(seed)
    right_rows = []
    left_rows = []
    holds = True
    for _ in range(runs):
        sets, translators = random_right_instance(rng)
        table = right_translation_table(
            _RING_OPS, sets[0], sets[1], sets[2], translators
        )
        ok = table.isolated_count > len(translators)
        holds &= ok
        right_rows.append(
            {
                "m": len(sets[0].elements),
                "n": len(translators),
                "isolated": table.isolated_count,
                "holds": ok,
            }
        )
    for _ in range(runs):
        s_list, x_list = random_left_instance(rng)
        table = left_translation_table(_RING_OPS, s_list, x_list)
        total = sum(len(s) for s in s_list)
        ok = table.isolated_count > total
        holds &= ok
        left_rows.append(
            {
                "n": len(s_list),
                "sum_m": total,
                "isolated": table.isolated_count,
                "holds": ok,
            }
        )
    return {
        "kind": "translation-counting",
        "seed": seed,
        "runs": runs,
        "right": right_rows,
        "left": left_rows,
        "holds": holds,
    }


def random_support_family(
    rng: random.Random,
) -> list[tuple[Word, RingElement, RingElement]]:
    """1-3 labelled instances over the rank-2 ambient: identity-free supports
    on the multiplier side, identity allowed on the translation side."""
    pool = list(iter_reduced_words(_RING_AB, 2))
    coeffs = (1, -1, 2, Fraction(1, 2))
    labels = rng.sample(pool, rng.randint(1, 3))
    out = []
    for label in labels:
        phi = ring_element(
            _RING_OPS,
            [(g, rng.choice(coeffs)) for g in rng.sample(pool, rng.randint(1, 2))],
        )
        u = ring_element(
            _RING_OPS,
            [
                (g, rng.choice(coeffs))
                for g in rng.sample(pool + [identity(_RING_AB)], rng.randint(1, 2))
            ],
        )
        out.append((label, phi, u))
    return out


def support_series_report(
    runs: int = 50, seed: int = 0, max_product_len: int = 6
) -> dict:
    """Seeded support-bound runs; each must land at two or more surviving
    terms.  Rows are the batch CSV summary."""
    rng = random.Random(seed)
    rows = []
    holds = True
    min_support = None
    for _ in range(runs):
        report = support_bound_experiment(
            random_support_family(rng), max_product_len=max_product_len
        )
        row = support_csv_row(report)
        rows.append(row)
        holds &= bool(row["holds"]) and report["support_w"] >= 2
        w = report["support_w"]
        min_support = w if min_support is None else min(min_support, w)
    return {
        "kind": "support-series",
        "seed": seed,
        "runs": runs,
        "min_support_w": min_support,
        "rows": rows,
        "holds": holds,
    }


def support_series_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SUPPORT_CSV_FIELDS))
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow(row)
    return buf.getvalue()


# -- one deterministic pass over everything ----------------------------------------


def batch_report(seed: int = 0, scale: str = "quick") -> dict:
    """Every experiment family in one pass.  quick keeps the counts small
    enough for interactive use; full matches the long-run sizes."""
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    quick = scale == "quick"
    sections = {
        "graph_equivalence": graph_equivalence_report(max_n=5 if quick else 8),
        "graph_bounds": graph_bounds_report(
            max_n=5 if quick else 8, samples=300 if quick else 10000, seed=seed
        ),
        "planted": planted_cycle_report(count=50 if quick else 1000, seed=seed),
        "witness_sweep": witness_sweep_report(count=10 if quick else 100, seed=seed),
        "degenerate_oracle": degenerate_oracle_report(max_len=4 if quick else 6),
        "extension_relations": hnn_relation_report(count=5 if quick else 20, seed=seed),
        "extension_witness": hnn_witness_report(count=3 if quick else 20, seed=seed),
        "dichotomy": dichotomy_report(max_sylls=2 if quick else 3),
        "amalgam_witness": amalgam_witness_report(count=5 if quick else 50, seed=seed),
        "free_families": free_family_report(),
        "counting": counting_report(runs=10 if quick else 50, seed=seed),
        "support_series": support_series_report(runs=5 if quick else 50, seed=seed),
    }
    return {
        "kind": "batch",
        "seed": seed,
        "scale": scale,
        "sections": sections,
        "holds": all(s["holds"] for s in sections.values()),
    }
