"""The Gray-code walks against the ascending-order enumerations they replaced.

`brute_force_mincut`, the Karger-Stein base case `_exhaustive_cut` and
`candidate_vectors` walk their subsets in reflected Gray-code order and
update one vertex or vector per step.  The reference enumerators below are
the straightforward loops: every subset in ascending mask order, each
summed from scratch.  Both sides must return identical answers, ties
included, on random graphs with many ties, zero weights, several
components, and contraction states with scattered labels.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    Candidate,
    Cut,
    GramMatrix,
    Superbase,
    WeightedGraph,
    brute_force_mincut,
    brute_force_short_vector,
    candidate_vectors,
    graph_from_gram,
    quadratic_form,
)
from latcut.lattice import _scaled  # noqa: E402
from latcut.mincut import _Contraction, _exhaustive_cut  # noqa: E402

F = Fraction

# Few distinct values, so that many sides tie; 0 drops the edge.
WEIGHTS = (0, 1, 1, 2, 3, F(1, 2), F(3, 4), F(5, 3))


# --- reference enumerators -----------------------------------------------------

def reference_brute_force_mincut(graph):
    """Every side containing vertex 0, ascending; min of (weight, size, side)."""
    count = graph.vertex_count
    adj, scale = graph.adjacency, graph.scale
    edges = [(i, j, w) for i, nbrs in enumerate(adj)
             for j, w in nbrs.items() if j > i]
    best = None
    for mask in range((1 << (count - 1)) - 1):
        side_mask = mask << 1 | 1
        weight = sum(w for i, j, w in edges
                     if (side_mask >> i & 1) != (side_mask >> j & 1))
        side = tuple(i for i in range(count) if side_mask >> i & 1)
        key = (weight, len(side), side)
        if best is None or key < best:
            best = key
    return Cut(best[2], Fraction(best[0], scale))


def reference_exhaustive_cut(state):
    """Masks over the sorted supervertices, ascending; the first lightest wins."""
    verts = sorted(state.adj)
    bit = {v: 1 << k for k, v in enumerate(verts)}
    pairs = [(bit[i], bit[j], w)
             for i in verts for j, w in state.adj[i].items() if j > i]
    best_weight, best_mask = None, 0
    for mask in range(1, (1 << len(verts)) - 1, 2):
        w = sum(weight for a, b, weight in pairs
                if bool(mask & a) != bool(mask & b))
        if best_weight is None or w < best_weight:
            best_weight, best_mask = w, mask
    side = [m for v in verts if best_mask & bit[v] for m in state.members[v]]
    return best_weight, tuple(sorted(side))


def reference_candidate_vectors(sb):
    """Every proper nonempty subset sum in Fractions, sorted by (length, size, subset)."""
    size = sb.n + 1
    scale = math.lcm(*(x.denominator for vec in sb.vectors for x in vec))
    scaled = [[int(x * scale) for x in vec] for vec in sb.vectors]
    out = []
    for mask in range(1, (1 << size) - 1):
        subset = tuple(i for i in range(size) if mask >> i & 1)
        acc = [0] * sb.m
        for i in subset:
            for k, value in enumerate(scaled[i]):
                acc[k] += value
        sq = Fraction(sum(c * c for c in acc), scale * scale)
        coords = tuple(Fraction(c, scale) for c in acc)
        out.append(Candidate(subset, coords, sq))
    out.sort(key=lambda c: (c.squared_length, len(c.subset), c.subset))
    return out


# --- strategies ------------------------------------------------------------------

@st.composite
def graphs(draw, min_vertices=2, max_vertices=12):
    """Random weighted graphs: uniform weights (many ties) or a few values,
    with zero weights, and sometimes no edge between a prefix and the rest."""
    count = draw(st.integers(min_vertices, max_vertices))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    weights = draw(st.lists(st.sampled_from(WEIGHTS),
                            min_size=len(pairs), max_size=len(pairs)))
    if draw(st.booleans()):
        weights = [1 if w else 0 for w in weights]
    split = draw(st.integers(0, count))  # 1..count-1 cuts the graph apart
    edges = [(i, j, 0 if i < split <= j else w)
             for (i, j), w in zip(pairs, weights)]
    return WeightedGraph.from_edges(count, edges)


@st.composite
def contraction_states(draw):
    """A graph on up to 12 vertices after random merges, 2..8 supervertices
    left; the kept labels are scattered and most absorb several vertices."""
    graph = draw(graphs(min_vertices=2, max_vertices=12))
    state = _Contraction.from_adjacency(graph.adjacency)
    left = draw(st.integers(2, min(8, graph.vertex_count)))
    while len(state.adj) > left:
        labels = sorted(state.adj)
        keep = draw(st.sampled_from(labels))
        drop = draw(st.sampled_from([v for v in labels if v != keep]))
        state.merge(keep, drop)
    return state


@st.composite
def superbases(draw):
    """2..9 arbitrary rational vectors in dimension 1..4, ties plentiful."""
    count = draw(st.integers(2, 9))
    m = draw(st.integers(1, 4))
    entry = st.sampled_from((0, 0, 1, -1, 2, F(1, 2), F(-1, 3), F(3, 4)))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=count, max_size=count))
    return Superbase(*_scaled([[F(x) for x in row] for row in rows]))


def laplacian(graph):
    """The Gram matrix whose Selling graph is `graph`."""
    size = graph.vertex_count
    q = [[0] * size for _ in range(size)]
    for i, nbrs in enumerate(graph.adjacency):
        for j, w in nbrs.items():
            q[i][j] = -w
            q[i][i] += w
    return GramMatrix(tuple(map(tuple, q)), graph.scale)


# --- properties ------------------------------------------------------------------

@given(graphs())
def test_brute_force_mincut_matches_the_ascending_enumeration(graph):
    assert brute_force_mincut(graph) == reference_brute_force_mincut(graph)


@given(contraction_states())
def test_exhaustive_cut_matches_the_ascending_enumeration(state):
    adj = {v: dict(nbrs) for v, nbrs in state.adj.items()}
    assert _exhaustive_cut(state) == reference_exhaustive_cut(state)
    assert state.adj == adj  # the walk leaves the state alone


def test_walks_match_on_every_small_unit_weight_graph():
    """Every graph on 2..5 vertices with weights 0 or 1: ties everywhere,
    including those where the first lightest side in Gray-code order is
    not the first in ascending order."""
    for count in range(2, 6):
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
        for present in range(1 << len(pairs)):
            graph = WeightedGraph.from_edges(count, [
                (i, j, present >> k & 1) for k, (i, j) in enumerate(pairs)])
            assert brute_force_mincut(graph) == \
                reference_brute_force_mincut(graph)
            # Scattered labels 3, 5, 7, ... with one extra member each.
            adj = graph.adjacency
            state = _Contraction(
                {2 * v + 3: {2 * u + 3: w for u, w in nbrs.items()}
                 for v, nbrs in enumerate(adj)},
                {2 * v + 3: [2 * v + 3, 2 * v + 4] for v in range(count)},
            )
            assert _exhaustive_cut(state) == reference_exhaustive_cut(state)


@given(superbases())
def test_candidate_vectors_match_the_ascending_enumeration(sb):
    assert candidate_vectors(sb) == reference_candidate_vectors(sb)


@given(graphs(max_vertices=10))
def test_brute_force_mincut_matches_the_subset_oracle(graph):
    g = laplacian(graph)
    cut = brute_force_mincut(graph_from_gram(g))
    assert cut.weight == brute_force_short_vector(g).squared_length
    bits = [1 if i in cut.side else 0 for i in range(g.size)]
    assert quadratic_form(g, bits) == cut.weight
