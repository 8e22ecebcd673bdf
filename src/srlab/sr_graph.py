"""Two-edge-coloured graphs with complete E-components and their alternating
cycles.

An SR-graph is (V, E, F) with E and F disjoint simple edge sets such that
every component of (V, E) is a complete graph.  An SR-cycle is an even cycle
of length >= 4 whose edges alternate E, F, E, F, ...; the closing edge (an
even position) is an F-edge.

The cycle search is deterministic: anchors in ascending vertex order, the
anchor is the minimum vertex of the reported cycle, neighbours tried in
ascending order, and the first edge out of the anchor is the E-edge of the
first alternating position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import (
    DisjointnessViolation,
    HypothesisViolation,
    MalformedEdge,
    NonCompleteEComponent,
    NotMultipartite,
    ParseError,
    SearchBudgetExceeded,
)

VertexId = Hashable
Edge = tuple[VertexId, VertexId]

DEFAULT_SEARCH_BUDGET = 10_000_000


def _vkey(v: VertexId) -> tuple:
    """Total order on vertex ids: ints first in numeric order, then strings."""
    if isinstance(v, bool) or not isinstance(v, int):
        return (1, str(v))
    return (0, v)


def _norm_edge(u: VertexId, v: VertexId) -> Edge:
    return (u, v) if _vkey(u) <= _vkey(v) else (v, u)


@dataclass(frozen=True)
class SRGraph:
    vertices: tuple
    e_edges: frozenset
    f_edges: frozenset

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}


@dataclass(frozen=True)
class SRCycle:
    vertex_sequence: tuple

    def __len__(self) -> int:
        return len(self.vertex_sequence)


@dataclass(frozen=True)
class GraphStats:
    c_g: int
    c_h: int
    i_g: tuple
    i_h: tuple
    cut_vertices: tuple


def validate(
    vertices: Iterable[VertexId],
    e_edges: Iterable[Sequence[VertexId]],
    f_edges: Iterable[Sequence[VertexId]],
) -> SRGraph:
    """Check the SR-graph invariants and return the canonical value."""
    vset = set(vertices)
    ordered = tuple(sorted(vset, key=_vkey))

    def norm(edges, name):
        out = set()
        for pair in edges:
            u, v = pair
            if u == v:
                raise MalformedEdge(f"{name}-edge ({u!r}, {v!r}) is a loop")
            if u not in vset or v not in vset:
                raise MalformedEdge(f"{name}-edge ({u!r}, {v!r}) has unknown endpoint")
            out.add(_norm_edge(u, v))
        return frozenset(out)

    e = norm(e_edges, "E")
    f = norm(f_edges, "F")
    shared = e & f
    if shared:
        raise DisjointnessViolation(f"edges in both E and F: {sorted(map(repr, shared))}")
    graph = SRGraph(ordered, e, f)
    for comp in _components(ordered, _adjacency(graph, "e")):
        comp_set = sorted(comp, key=_vkey)
        for i, u in enumerate(comp_set):
            for v in comp_set[i + 1 :]:
                if _norm_edge(u, v) not in e:
                    raise NonCompleteEComponent(
                        f"E-component {comp_set!r} misses edge ({u!r}, {v!r})"
                    )
    return graph


def _adjacency(g: SRGraph, kind: str) -> dict:
    edges = g.e_edges if kind == "e" else g.f_edges if kind == "f" else g.e_edges | g.f_edges
    adj: dict = {v: [] for v in g.vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort(key=_vkey)
    return adj


def _components(vertices: Iterable[VertexId], adj: dict) -> list[set]:
    seen: set = set()
    out = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for t in adj[u]:
                if t not in seen:
                    seen.add(t)
                    comp.add(t)
                    stack.append(t)
        out.append(comp)
    return out


def _cut_vertices(vertices: Sequence[VertexId], adj: dict) -> tuple:
    """Cut vertices in `vertices` order, by one iterative depth-first pass
    (Tarjan, SIAM J. Comput. 1, 1972): a root is a cut vertex when it has two
    or more DFS children, any other u when some child c has low[c] >= disc[u].
    """
    disc: dict = {}
    low: dict = {}
    cut: set = set()
    for root in vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        root_children = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            u, neighbours = stack[-1]
            for t in neighbours:
                if t not in disc:
                    disc[t] = low[t] = len(disc)
                    stack.append((t, iter(adj[t])))
                    break
                # the tree edge back to u's parent lowers low[u] only to
                # disc[parent], which leaves low[u] >= disc[parent] as it was
                if disc[t] < low[u]:
                    low[u] = disc[t]
            else:
                stack.pop()
                if len(stack) > 1:
                    parent = stack[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        cut.add(parent)
                elif stack:
                    root_children += 1
        if root_children >= 2:
            cut.add(root)
    return tuple(v for v in vertices if v in cut)


def stats(g: SRGraph) -> GraphStats:
    adj_e = _adjacency(g, "e")
    adj_f = _adjacency(g, "f")
    comps_e = _components(g.vertices, adj_e)
    comps_f = _components(g.vertices, adj_f)
    i_g = tuple(v for v in g.vertices if not adj_e[v])
    i_h = tuple(v for v in g.vertices if not adj_f[v])
    cut = _cut_vertices(g.vertices, _adjacency(g, "union"))
    return GraphStats(len(comps_e), len(comps_f), i_g, i_h, cut)


def find_sr_cycle(g: SRGraph, budget: int = DEFAULT_SEARCH_BUDGET) -> SRCycle | None:
    """First SR-cycle in deterministic search order, or None if none exists.

    Raises SearchBudgetExceeded when the node-expansion budget runs out,
    which is reported distinctly from a definite not-found.  The search keeps
    its own stack, one neighbour iterator per path vertex, so path length is
    not limited by the interpreter's recursion depth.
    """
    n = g.n
    if n < 4:
        return None
    idx = g.index()
    adj = [[], []]  # adj[0] = E neighbours, adj[1] = F neighbours, by index
    adj[0] = [[] for _ in range(n)]
    adj[1] = [[] for _ in range(n)]
    for kind, edges in ((0, g.e_edges), (1, g.f_edges)):
        for u, v in edges:
            iu, iv = idx[u], idx[v]
            adj[kind][iu].append(iv)
            adj[kind][iv].append(iu)
    for kind in (0, 1):
        for lst in adj[kind]:
            lst.sort()

    expansions = 0
    on_path = [False] * n  # every pushed vertex is popped before the next anchor
    for anchor in range(n):
        path = [anchor]
        on_path[anchor] = True
        frames = [iter(adj[0][anchor])]  # the first edge is an E-edge
        while frames:
            for t in frames[-1]:
                if t <= anchor or on_path[t]:
                    continue
                expansions += 1
                if expansions > budget:
                    raise SearchBudgetExceeded(
                        f"cycle search exceeded {budget} node expansions"
                    )
                path.append(t)
                on_path[t] = True
                depth = len(path)  # the next edge is number depth: E if odd
                if depth % 2 == 0 and depth >= 4 and anchor in adj[1][t]:
                    return SRCycle(tuple(g.vertices[i] for i in path))  # closing F-edge
                frames.append(iter(adj[1 - depth % 2][t]))
                break
            else:
                frames.pop()
                on_path[path.pop()] = False
    return None


def verify_cycle(g: SRGraph, cycle: SRCycle) -> bool:
    """Re-verify a certificate against the SRCycle invariants."""
    seq = cycle.vertex_sequence
    c = len(seq)
    if c < 4 or c % 2 == 1 or len(set(seq)) != c:
        return False
    vset = set(g.vertices)
    if any(v not in vset for v in seq):
        return False
    for i in range(c):
        u, v = seq[i], seq[(i + 1) % c]
        edge = _norm_edge(u, v)
        wanted = g.e_edges if (i + 1) % 2 == 1 else g.f_edges
        if edge not in wanted:
            return False
    return True


@dataclass(frozen=True)
class CriterionCounts:
    c_g: int
    c_h: int
    holds: bool


def complete_criterion(g: SRGraph) -> bool:
    """Component-count criterion, valid when both colour classes have complete
    components and the union graph is connected: a cycle exists iff
    c_g + c_h < |V| + 1."""
    return criterion_counts(g).holds


def criterion_counts(g: SRGraph) -> CriterionCounts:
    """The E- and F-component counts behind complete_criterion, with its
    verdict; raises HypothesisViolation when its hypotheses fail."""
    comps_f = _components(g.vertices, _adjacency(g, "f"))
    for comp in comps_f:
        comp_sorted = sorted(comp, key=_vkey)
        for i, u in enumerate(comp_sorted):
            for v in comp_sorted[i + 1 :]:
                if _norm_edge(u, v) not in g.f_edges:
                    raise HypothesisViolation(
                        f"F-component {comp_sorted!r} is not complete"
                    )
    adj_u = _adjacency(g, "union")
    if len(_components(g.vertices, adj_u)) != 1:
        raise HypothesisViolation("union graph is not connected")
    c_g = len(_components(g.vertices, _adjacency(g, "e")))
    c_h = len(comps_f)
    return CriterionCounts(c_g, c_h, c_g + c_h < g.n + 1)


def is_complete_multipartite(
    component: Iterable[VertexId], f_edges: Iterable[Sequence[VertexId]]
) -> tuple[int, ...]:
    """Partite-set sizes (ascending) if the induced F-graph is complete
    multipartite, else NotMultipartite.  Parts are the components of the
    complement graph; they must be independent and fully joined."""
    verts = sorted(set(component), key=_vkey)
    edges = {_norm_edge(u, v) for u, v in f_edges if u in set(verts) and v in set(verts)}
    comp_adj: dict = {v: [] for v in verts}
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if _norm_edge(u, v) not in edges:
                comp_adj[u].append(v)
                comp_adj[v].append(u)
    parts = _components(verts, comp_adj)
    for part in parts:
        part_sorted = sorted(part, key=_vkey)
        for i, u in enumerate(part_sorted):
            for v in part_sorted[i + 1 :]:
                if _norm_edge(u, v) in edges:
                    raise NotMultipartite(
                        f"vertices {u!r}, {v!r} share a part but are adjacent"
                    )
    return tuple(sorted(len(p) for p in parts))


def multipartite_hypotheses(g: SRGraph) -> bool:
    """True iff every F-component is complete multipartite, the number of
    E-isolated vertices is at most the number of F-components, and each
    F-component is more than twice as large as its largest part.  When true,
    an SR-cycle is guaranteed."""
    adj_f = _adjacency(g, "f")
    comps = _components(g.vertices, adj_f)
    st = stats(g)
    if len(st.i_g) > len(comps):
        return False
    for comp in comps:
        try:
            sizes = is_complete_multipartite(comp, g.f_edges)
        except NotMultipartite:
            return False
        if len(comp) <= 2 * max(sizes):
            return False
    return True


def induced_subgraph(g: SRGraph, subset: Iterable[VertexId]) -> SRGraph:
    sub = set(subset)
    keep = lambda edges: frozenset(e for e in edges if e[0] in sub and e[1] in sub)
    return SRGraph(
        tuple(sorted(sub, key=_vkey)), keep(g.e_edges), keep(g.f_edges)
    )


def graph_to_json(g: SRGraph) -> str:
    return json.dumps(
        {
            "vertices": list(g.vertices),
            "e_edges": sorted([list(e) for e in g.e_edges]),
            "f_edges": sorted([list(e) for e in g.f_edges]),
        },
        sort_keys=True,
    )


def _json_vertex(v, where: str):
    if isinstance(v, (list, dict)):
        raise ParseError(f"{where}: vertex id {v!r} must be a number or a string")
    return v


def graph_from_json(text: str) -> SRGraph:
    """Parse {"vertices": [...], "e_edges": [[u, v], ...], "f_edges": [...]};
    a missing key or a value of the wrong shape is a ParseError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ParseError("graph JSON must be an object")
    for key in ("vertices", "e_edges", "f_edges"):
        if not isinstance(data.get(key), list):
            raise ParseError(f"graph JSON needs a list under {key!r}")

    def edges(key):
        for pair in data[key]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{key}: {pair!r} is not a pair of vertex ids")
            yield tuple(_json_vertex(v, key) for v in pair)

    # parse everything before validating, so a malformed file never reads as
    # an invalid graph
    vertices = [_json_vertex(v, "vertices") for v in data["vertices"]]
    e_edges, f_edges = list(edges("e_edges")), list(edges("f_edges"))
    return validate(vertices, e_edges, f_edges)


def cycle_certificate(g: SRGraph, budget: int = DEFAULT_SEARCH_BUDGET) -> dict:
    """Certificate object: either a cycle, or the no-cycle witness sets."""
    cycle = find_sr_cycle(g, budget)
    if cycle is not None:
        return {"sr_cycle": list(cycle.vertex_sequence)}
    st = stats(g)
    return {
        "sr_cycle": None,
        "witness": {
            "isolated_g": list(st.i_g),
            "isolated_h": list(st.i_h),
            "cut": list(st.cut_vertices),
        },
    }
