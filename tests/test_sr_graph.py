import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.errors import (
    DisjointnessViolation,
    HypothesisViolation,
    MalformedEdge,
    NonCompleteEComponent,
    NotMultipartite,
    SearchBudgetExceeded,
)
from srlab.sr_graph import (
    SRCycle,
    cycle_certificate,
    complete_criterion,
    criterion_counts,
    find_sr_cycle,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    is_complete_multipartite,
    multipartite_hypotheses,
    stats,
    validate,
    verify_cycle,
)

FOUR_CYCLE = validate([1, 2, 3, 4], [(1, 2), (3, 4)], [(2, 3), (4, 1)])


class TestValidate:
    def test_single_vertex(self):
        g = validate([1], [], [])
        assert g.n == 1

    def test_path_not_complete(self):
        with pytest.raises(NonCompleteEComponent):
            validate([1, 2, 3], [(1, 2), (2, 3)], [])

    def test_shared_edge(self):
        with pytest.raises(DisjointnessViolation):
            validate([1, 2], [(1, 2)], [(1, 2)])

    def test_loop_rejected(self):
        with pytest.raises(MalformedEdge):
            validate([1, 2], [(1, 1)], [])

    def test_unknown_endpoint(self):
        with pytest.raises(MalformedEdge):
            validate([1, 2], [], [(1, 3)])

    def test_duplicate_edge_entries_collapse(self):
        g = validate([1, 2], [(1, 2), (2, 1)], [])
        assert len(g.e_edges) == 1


class TestStats:
    def test_single_vertex(self):
        st_ = stats(validate([1], [], []))
        assert (st_.c_g, st_.c_h) == (1, 1)
        assert st_.i_g == (1,) and st_.i_h == (1,)
        assert st_.cut_vertices == ()

    def test_four_cycle(self):
        st_ = stats(FOUR_CYCLE)
        assert (st_.c_g, st_.c_h) == (2, 2)
        assert st_.i_g == () and st_.i_h == ()
        assert st_.cut_vertices == ()

    def test_cut_vertex(self):
        st_ = stats(validate([1, 2, 3], [(1, 2)], [(2, 3)]))
        assert (st_.c_g, st_.c_h) == (2, 2)
        assert st_.cut_vertices == (2,)


class TestFindCycle:
    def test_four_cycle_found(self):
        cycle = find_sr_cycle(FOUR_CYCLE)
        assert cycle is not None
        assert cycle.vertex_sequence == (1, 2, 3, 4)
        assert verify_cycle(FOUR_CYCLE, cycle)

    def test_no_f_edges(self):
        assert find_sr_cycle(validate([1, 2], [(1, 2)], [])) is None

    def test_path_has_no_cycle(self):
        assert find_sr_cycle(validate([1, 2, 3], [(1, 2)], [(2, 3)])) is None

    def test_budget_exceeded_distinct_from_not_found(self):
        with pytest.raises(SearchBudgetExceeded):
            find_sr_cycle(FOUR_CYCLE, budget=1)

    def test_six_cycle(self):
        g = validate(
            [1, 2, 3, 4, 5, 6],
            [(1, 2), (3, 4), (5, 6)],
            [(2, 3), (4, 5), (6, 1)],
        )
        cycle = find_sr_cycle(g)
        assert cycle is not None and len(cycle) == 6
        assert verify_cycle(g, cycle)

    def test_certificate_shape(self):
        assert cycle_certificate(FOUR_CYCLE) == {"sr_cycle": [1, 2, 3, 4]}
        cert = cycle_certificate(validate([1, 2, 3], [(1, 2)], [(2, 3)]))
        assert cert["sr_cycle"] is None
        assert cert["witness"] == {
            "isolated_g": [3],
            "isolated_h": [1],
            "cut": [2],
        }


class TestCompleteCriterion:
    def test_single_vertex_false(self):
        assert complete_criterion(validate([1], [], [])) is False

    def test_four_cycle_true(self):
        assert complete_criterion(FOUR_CYCLE) is True
        assert find_sr_cycle(FOUR_CYCLE) is not None

    def test_path_false(self):
        g = validate([1, 2, 3], [(1, 2)], [(2, 3)])
        assert complete_criterion(g) is False
        assert find_sr_cycle(g) is None

    def test_incomplete_f_component_rejected(self):
        g = validate([1, 2, 3, 4], [(1, 2), (3, 4)], [(2, 3), (4, 1), (1, 3)])
        # F-component {1,2,3,4} misses edge (2,4) and (1,3)? (1,3) present;
        # {1,3,4,2} misses (2,4): not complete
        with pytest.raises(HypothesisViolation):
            complete_criterion(g)

    def test_disconnected_union_rejected(self):
        g = validate([1, 2, 3, 4], [(1, 2)], [(3, 4)])
        with pytest.raises(HypothesisViolation):
            complete_criterion(g)

    def test_counts_match_stats(self):
        from srlab.experiments import iter_two_clique_family

        graphs = [FOUR_CYCLE, validate([1, 2, 3], [(1, 2)], [(2, 3)])]
        graphs += list(iter_two_clique_family(5))
        for g in graphs:
            counts = criterion_counts(g)
            st = stats(g)
            assert (counts.c_g, counts.c_h) == (st.c_g, st.c_h)
            assert counts.holds is complete_criterion(g)


class TestCompleteMultipartite:
    def test_triangle(self):
        assert is_complete_multipartite([1, 2, 3], [(1, 2), (1, 3), (2, 3)]) == (
            1,
            1,
            1,
        )

    def test_star(self):
        assert is_complete_multipartite([1, 2, 3], [(1, 2), (1, 3)]) == (1, 2)

    def test_path_rejected(self):
        with pytest.raises(NotMultipartite):
            is_complete_multipartite([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])

    def test_k22(self):
        assert is_complete_multipartite(
            [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]
        ) == (2, 2)


class TestMultipartiteHypotheses:
    def test_star_component_fails_partition(self):
        g = validate([1, 2, 3], [(1, 2)], [(1, 3), (2, 3)])
        # the K_{1,2} F-component is complete multipartite (1,2); but
        # |V_1| = 3 > 2*mu = 4 fails
        assert multipartite_hypotheses(g) is False

    def test_too_many_isolated(self):
        g = validate([1, 2, 3, 4], [(1, 3)], [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert multipartite_hypotheses(g) is False  # |I| = 2 > n = 1

    def test_empty_f(self):
        assert multipartite_hypotheses(validate([1, 2], [(1, 2)], [])) is False

    def test_planted_positive(self):
        # two triangle F-components (K_{1,1,1}), E a perfect matching across them
        g = validate(
            [1, 2, 3, 4, 5, 6],
            [(1, 4), (2, 5), (3, 6)],
            [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)],
        )
        assert multipartite_hypotheses(g) is True
        assert find_sr_cycle(g) is not None


class TestJson:
    def test_round_trip(self):
        g2 = graph_from_json(graph_to_json(FOUR_CYCLE))
        assert g2 == FOUR_CYCLE


def _random_sr_graph(rng: random.Random, max_n: int = 8):
    n = rng.randint(1, max_n)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    blocks = []
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        blocks.append(verts[i : i + size])
        i += size
    e_edges = [
        (u, v) for b in blocks for u, v in itertools.combinations(sorted(b), 2)
    ]
    e_set = {tuple(sorted(e)) for e in e_edges}
    f_edges = []
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if (u, v) not in e_set and rng.random() < 0.3:
            f_edges.append((u, v))
    return validate(range(1, n + 1), e_edges, f_edges)


def test_grossman_haggkvist_witness_on_random_graphs():
    rng = random.Random(20260814)
    for _ in range(400):
        g = _random_sr_graph(rng)
        if find_sr_cycle(g) is None:
            st_ = stats(g)
            assert st_.i_g or st_.i_h or st_.cut_vertices, graph_to_json(g)


def test_found_cycles_reverify():
    rng = random.Random(99)
    for _ in range(300):
        g = _random_sr_graph(rng)
        cycle = find_sr_cycle(g)
        if cycle is not None:
            assert verify_cycle(g, cycle)


def _union_component_count(vertices, edges):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in parent})


def _random_complete_complete_graph(rng: random.Random, max_n: int = 8):
    # both colours are disjoint unions of cliques, the partitions meet
    # trivially, and the union is connected (complete_criterion hypotheses)
    while True:
        n = rng.randint(2, max_n)
        verts = list(range(1, n + 1))
        edge_sets = []
        for _colour in range(2):
            rng.shuffle(verts)
            blocks, i = [], 0
            while i < n:
                size = rng.randint(1, n - i)
                blocks.append(verts[i : i + size])
                i += size
            edge_sets.append(
                {
                    (u, v)
                    for b in blocks
                    for u, v in itertools.combinations(sorted(b), 2)
                }
            )
        e_edges, f_edges = edge_sets
        if e_edges & f_edges:
            continue
        if _union_component_count(range(1, n + 1), e_edges | f_edges) != 1:
            continue
        return validate(range(1, n + 1), e_edges, f_edges)


def test_vertex_deletion_component_identities():
    # on connected graphs whose colour classes are clique unions, deleting a
    # single vertex moves the component counts in a controlled way:
    #   non-cut, isolated in some colour  -> combined count drops by one
    #   non-cut, isolated in neither      -> both counts unchanged
    #   cut vertex -> union splits into exactly two parts, counts additive
    rng = random.Random(5)
    for _ in range(200):
        g = _random_complete_complete_graph(rng)
        if g.n <= 2:
            continue
        st_ = stats(g)
        cut = set(st_.cut_vertices)
        iso = set(st_.i_g) | set(st_.i_h)
        for v in g.vertices:
            rest = [u for u in g.vertices if u != v]
            sub = induced_subgraph(g, rest)
            st_v = stats(sub)
            if v not in cut:
                if v in iso:
                    assert st_v.c_g + st_v.c_h == st_.c_g + st_.c_h - 1
                else:
                    assert st_v.c_g == st_.c_g and st_v.c_h == st_.c_h
            else:
                parts = _union_component_count(
                    sub.vertices, list(sub.e_edges) + list(sub.f_edges)
                )
                assert parts == 2
                assert st_v.c_g + st_v.c_h == st_.c_g + st_.c_h


def test_isolated_count_sandwich_on_subsets():
    # for U disjoint from the E-isolated set, the E-isolated vertices of the
    # complement subset U' are at least those inherited and at most |U| more
    rng = random.Random(11)
    for _ in range(200):
        g = _random_sr_graph(rng)
        st_ = stats(g)
        i_g = set(st_.i_g)
        candidates = [v for v in g.vertices if v not in i_g]
        if not candidates:
            continue
        u = set(rng.sample(candidates, rng.randint(1, len(candidates))))
        u_prime = [v for v in g.vertices if v not in u]
        sub = induced_subgraph(g, u_prime)
        inherited = len(i_g & set(u_prime))
        isolated_sub = len(stats(sub).i_g)
        assert inherited <= isolated_sub <= inherited + len(u)


def test_star_free_f_components_force_cycle():
    # if no F-component of the graph restricted to W = V minus E-isolated
    # vertices is a star K_{1,m} (m >= 2) and W has no F-isolated vertex,
    # the restriction has an SR-cycle
    rng = random.Random(17)
    checked = 0
    for _ in range(4000):
        g = _random_sr_graph(rng, max_n=7)
        st_ = stats(g)
        w = [v for v in g.vertices if v not in set(st_.i_g)]
        if not w:
            continue
        sub = induced_subgraph(g, w)
        sub_stats = stats(sub)
        if sub_stats.i_h:
            continue
        star = False
        from srlab.sr_graph import _adjacency, _components

        adj_f = _adjacency(sub, "f")
        for comp in _components(sub.vertices, adj_f):
            if len(comp) >= 3:
                degs = sorted(len(adj_f[v]) for v in comp)
                if degs[-1] == len(comp) - 1 and all(d == 1 for d in degs[:-1]):
                    star = True
        if star:
            continue
        checked += 1
        assert find_sr_cycle(sub) is not None, graph_to_json(g)
    assert checked > 50


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_inequality_on_random_instances(seed):
    g = _random_sr_graph(random.Random(seed))
    st_ = stats(g)
    # the combined component count bound needs complete F-components too;
    # on general graphs only the weaker per-colour bounds hold
    assert 1 <= st_.c_g <= g.n and 1 <= st_.c_h <= g.n


# -- linear-time cut vertices and the explicit-stack cycle search ----------------


def _brute_cut_vertices(g):
    # reference: delete each vertex in turn and recount union components
    from srlab.sr_graph import _adjacency, _components

    adj_u = _adjacency(g, "union")
    c_union = len(_components(g.vertices, adj_u))
    cut = []
    for v in g.vertices:
        rest = [u for u in g.vertices if u != v]
        adj_rest = {u: [t for t in adj_u[u] if t != v] for u in rest}
        if len(_components(rest, adj_rest)) > c_union:
            cut.append(v)
    return tuple(cut)


def _recursive_find_sr_cycle(g, budget):
    # reference: the self-recursive search, one interpreter frame per path vertex
    n = g.n
    if n < 4:
        return None
    idx = g.index()
    adj = [[[] for _ in range(n)], [[] for _ in range(n)]]
    for kind, edges in ((0, g.e_edges), (1, g.f_edges)):
        for u, v in edges:
            adj[kind][idx[u]].append(idx[v])
            adj[kind][idx[v]].append(idx[u])
    for kind in (0, 1):
        for lst in adj[kind]:
            lst.sort()
    expansions = 0
    path = []

    def dfs(current, anchor, on_path):
        nonlocal expansions
        depth = len(path)
        want = 0 if depth % 2 == 1 else 1
        if want == 1 and depth >= 4 and anchor in adj[1][current]:
            return True
        for t in adj[want][current]:
            if t <= anchor or on_path[t]:
                continue
            expansions += 1
            if expansions > budget:
                raise SearchBudgetExceeded(f"cycle search exceeded {budget} node expansions")
            path.append(t)
            on_path[t] = True
            if dfs(t, anchor, on_path):
                return True
            on_path[t] = False
            path.pop()
        return False

    for anchor in range(n):
        on_path = [False] * n
        on_path[anchor] = True
        path.clear()
        path.append(anchor)
        if dfs(anchor, anchor, on_path):
            return SRCycle(tuple(g.vertices[i] for i in path))
    return None


def _sparse_clique_union(rng, n, f_degree):
    # cliques of 1-3 vertices for E, about n * f_degree / 2 random F-edges
    verts = list(range(1, n + 1))
    pool = verts[:]
    rng.shuffle(pool)
    blocks, i = [], 0
    while i < n:
        size = rng.randint(1, 3)
        blocks.append(pool[i : i + size])
        i += size
    block_of = {v: b for b, blk in enumerate(blocks) for v in blk}
    e_edges = [(u, v) for blk in blocks for u, v in itertools.combinations(blk, 2)]
    f_edges = set()
    while len(f_edges) < n * f_degree // 2:
        u, v = rng.sample(verts, 2)
        if block_of[u] != block_of[v]:
            f_edges.add((min(u, v), max(u, v)))
    return validate(verts, e_edges, f_edges)


def _alternating_path(n):
    # 1 -E- 2 -F- 3 -E- 4 ... : every interior vertex is a cut vertex
    return validate(
        range(1, n + 1),
        [(i, i + 1) for i in range(1, n, 2)],
        [(i, i + 1) for i in range(2, n, 2)],
    )


def _search_outcome(search, g, budget):
    try:
        return search(g, budget)
    except SearchBudgetExceeded as exc:
        return str(exc)


def test_cut_vertices_match_deletion_on_two_clique_family():
    from srlab.experiments import iter_two_clique_family

    count = 0
    for g in iter_two_clique_family(7):
        assert stats(g).cut_vertices == _brute_cut_vertices(g), graph_to_json(g)
        count += 1
    assert count == 1591


def test_cut_vertices_match_deletion_on_random_and_planted():
    from srlab.experiments import random_planted_multipartite, random_sr_graph

    rng = random.Random(31)
    for _ in range(1500):
        g = random_sr_graph(rng)
        assert stats(g).cut_vertices == _brute_cut_vertices(g), graph_to_json(g)
    for _ in range(300):
        g = random_planted_multipartite(rng)
        assert stats(g).cut_vertices == _brute_cut_vertices(g), graph_to_json(g)


def test_cut_vertices_match_deletion_on_sparse_graphs():
    rng = random.Random(41)
    seen_cut = False
    for n, f_degree in ((200, 1), (400, 2), (600, 3)):
        g = _sparse_clique_union(rng, n, f_degree)
        cut = stats(g).cut_vertices
        assert cut == _brute_cut_vertices(g)
        seen_cut = seen_cut or bool(cut)
    assert seen_cut


def test_long_alternating_path_stats_and_search():
    # both passes are deeper than the interpreter's default recursion limit
    g = _alternating_path(3000)
    assert stats(g).cut_vertices == tuple(range(2, 3000))
    cert = cycle_certificate(g)
    assert cert["sr_cycle"] is None and len(cert["witness"]["cut"]) == 2998


def test_cycle_search_leaves_no_garbage():
    import gc

    g = _sparse_clique_union(random.Random(3), 60, 2)
    gc.disable()
    try:
        gc.collect()
        find_sr_cycle(g)
        find_sr_cycle(FOUR_CYCLE)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cycle_search_matches_recursive_reference():
    from srlab.experiments import random_planted_multipartite, random_sr_graph

    rng = random.Random(53)
    small_budgets = (2, 3, 5, 8, 13, 30, 100, 1000, 10**7)
    graphs = [random_sr_graph(rng) for _ in range(1000)]
    graphs += [random_planted_multipartite(rng) for _ in range(300)]
    cases = 0
    for g in graphs:
        for budget in small_budgets + (rng.randint(2, 300),):
            expected = _search_outcome(_recursive_find_sr_cycle, g, budget)
            assert _search_outcome(find_sr_cycle, g, budget) == expected, graph_to_json(g)
            cases += 1
    decided = 0
    for k in range(60):
        g = _sparse_clique_union(rng, (40, 80, 150, 250)[k % 4], 1 + k % 3)
        ended = not isinstance(_search_outcome(find_sr_cycle, g, 10**5), str)
        decided += ended
        budgets = (2, 10, 100, 1000, 10**4, 10**5, rng.randint(2, 10**4))
        for budget in budgets + ((10**7,) if ended else ()):
            expected = _search_outcome(_recursive_find_sr_cycle, g, budget)
            assert _search_outcome(find_sr_cycle, g, budget) == expected, graph_to_json(g)
            cases += 1
    assert decided >= 40 and cases > 13000
