"""The proofs that let Stoer-Wagner and Karger-Stein stop early.

Both routes stop once they know the minimum cut's weight lambda:
Stoer-Wagner at the first phase cut that weighs lambda, Karger-Stein at
the first trial whose cut does.  lambda comes from the graph alone, from
one call each, made up front.

The prover: `mincut._lightest(adjacency)` returns exactly lambda and its
first round, the maximum-adjacency walk at the least degree delta (at an
infinite bound when delta is 0) that Stoer-Wagner takes as its first
phase.  Brute force checks lambda here on graphs of 2 to 14 vertices:
sparse ones, whose rounds walk from a heap, dense ones, whose rounds
scan, tied weights, and disconnected graphs, where lambda is 0; either
walk gives the same first round.  Its rounds contract a throwaway copy
by the edges one maximum-adjacency walk lists, and they run on graphs
whose minimum cut is lighter than every vertex's degree.

The walks: `_scan_walk` and `_heap_walk` serve both the phases and the
rounds.  On the same maps, original or contracted, they give the same
(s, t, last key, low) and list the same edges: exactly the edges e whose
q(e), the key of e's later end just after e's weight is added, reaches
the bound, as a plain maximum-adjacency order defines them.  The bound
changes nothing else.

The walk's bound: `low` takes, for each vertex added after the first,
its key plus paths (Padberg and Rinaldi's PR4), or its degree where the
PR2 test lets it, and keeps the least; `_term`, shared by both walks,
gives each such term.  It lies between the PR4 bound
of a plain maximum-adjacency order, itself at least the smallest key,
and the true minimum cut, which brute force gives here.  The first
round's `low` must reach the minimum cut on cycles, where PR4 alone
proves nothing and the rounds would join one edge at a time, and on
stars and uniform complete graphs, so that `_lightest` answers from its
first round.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    WeightedGraph,
    brute_force_mincut,
    gen_an,
    gen_anstar,
    gen_random_gram,
    graph_from_gram,
    selling_parameters,
)
from latcut import mincut  # noqa: E402
from latcut.mincut import (  # noqa: E402
    _Contraction,
    _heap_walk,
    _lightest,
    _scan_walk,
    _term,
)
from conftest import hypercube  # noqa: E402

F = Fraction

# Few distinct values, so that many cuts tie; 0 drops the edge.
WEIGHTS = (0, 1, 1, 2, 3, F(1, 2), F(3, 4), F(5, 3))


def lightest(graph: WeightedGraph) -> int:
    """The minimum cut weight over the graph's common denominator."""
    return brute_force_mincut(graph).weight * graph.scale


def proves(graph: WeightedGraph, bound: int) -> bool:
    """Whether the first round's `low`, walked by both walks at the least
    degree on the graph's maps as `_lightest` walks it, reaches `bound`."""
    adj = dict(enumerate(graph.adjacency))
    return both_walks(adj, least_degree(adj) or math.inf)[3] >= bound


@st.composite
def graphs(draw):
    """2..10 vertices: random weights, sometimes all 1, with pendant
    vertices, heavy edges and zero weights, so that some tests pass and
    some cuts are light."""
    count = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    weight = st.sampled_from(WEIGHTS + (0,) * draw(st.integers(0, 12))
                             + (draw(st.integers(4, 12)),))
    edges = [(i, j, draw(weight)) for i, j in pairs]
    if draw(st.booleans()):
        edges = [(i, j, 1 if w else 0) for i, j, w in edges]
    return WeightedGraph.from_edges(count, edges)


def contracted(graph: WeightedGraph, data) -> _Contraction:
    """`graph`'s maps after a drawn number of merges of drawn pairs, as
    Stoer-Wagner contracts: its keys are the surviving original ids, and
    vertex 0 is never merged away."""
    state = _Contraction.from_adjacency(graph.adjacency)
    for _ in range(data.draw(st.integers(0, graph.vertex_count - 2))):
        keep, drop = data.draw(st.permutations(list(state.adj)))[:2]
        state.merge(*sorted((keep, drop)))
    return state


def relabelled(state: _Contraction) -> WeightedGraph:
    """The contracted maps as a graph on 0..k-1, for brute force; the
    weights are integers already, so its scale is 1."""
    index = {v: k for k, v in enumerate(state.adj)}
    return WeightedGraph.from_edges(len(index), [
        (index[v], index[u], w) for v, nbrs in state.adj.items()
        for u, w in nbrs.items() if v < u])


def cycle(count: int, weight=1) -> WeightedGraph:
    return WeightedGraph.from_edges(
        count, [(v, (v + 1) % count, weight) for v in range(count)])


def complete(count: int, weight=1) -> WeightedGraph:
    return WeightedGraph.from_edges(count, [
        (i, j, weight) for i in range(count) for j in range(i + 1, count)])


def star(count: int, centre: int, weights) -> WeightedGraph:
    leaves = [v for v in range(count) if v != centre]
    return WeightedGraph.from_edges(count, [
        (centre, v, w) for v, w in zip(leaves, weights)])


def two_cliques(size: int) -> WeightedGraph:
    """Two unit-weight complete graphs on 0..size-1 and size..2 size-1,
    joined by one unit edge {size-1, size}: a cut lighter than every
    degree."""
    return WeightedGraph.from_edges(2 * size, [
        (i + base, j + base, 1) for base in (0, size)
        for i in range(size) for j in range(i + 1, size)]
        + [(size - 1, size, 1)])


# --- soundness ---------------------------------------------------------------------

@settings(max_examples=1500)
@given(graphs(), st.data())
def test_never_proves_a_bound_above_the_minimum_cut(graph, data):
    weight = lightest(graph)
    assert not proves(graph, weight + 1)
    bound = data.draw(st.integers(1, weight + 2 * graph.scale))
    assert bound <= weight or not proves(graph, bound)


@settings(max_examples=500)
@given(graphs(), st.data())
def test_never_proves_a_bound_above_the_minimum_cut_of_a_contraction(graph, data):
    # Sound on contracted maps too, which keep vertex 0 and their order,
    # walked at their least degree as a later round walks them.
    state = contracted(graph, data)
    weight = lightest(relabelled(state))
    low = both_walks(state.adj, least_degree(state.adj) or math.inf)[3]
    assert low <= weight
    bound = data.draw(st.integers(1, weight + 2))
    assert bound <= weight or low < bound


def test_a_light_pendant_vertex_is_not_joined_by_its_half_degree():
    # Vertex 2 hangs on vertex 0 by weight 1: its degree is at most twice
    # its key, but it is its key, itself a cut below the bound 2, so PR2
    # does not lift its term.
    graph = WeightedGraph.from_edges(3, [(0, 2, 1), (0, 1, 3)])
    assert lightest(graph) == 1
    assert not proves(graph, 2)
    assert proves(graph, 1)


def test_a_lifted_term_does_not_hide_a_lighter_degree():
    # Vertex 1, key 5, is lifted by PR2 to its degree 6, but vertex 2,
    # added after it, keeps its term, its degree 1, the minimum cut.
    graph = WeightedGraph.from_edges(3, [(0, 1, 5), (1, 2, 1)])
    adj = dict(enumerate(graph.adjacency))
    assert lightest(graph) == 1
    assert path_bound(adj) == 1
    assert not proves(graph, 2)
    assert proves(graph, 1)


def test_the_two_cliques_fail_at_the_bridge():
    # Each clique's degrees are 39 and the first phase's cut is 39, but
    # the bridge, of weight 1, is lighter: the first round's `low` must
    # not reach the least degree, and the rounds find the bridge.
    graph = two_cliques(40)
    adj = dict(enumerate(graph.adjacency))
    assert least_degree(adj) == 39
    assert both_walks(adj, 39)[2] == 39
    assert not proves(graph, 39)
    assert not proves(graph, 2)
    assert _lightest(graph.adjacency)[0] == 1


# --- the walks ----------------------------------------------------------------------

@st.composite
def phase_graphs(draw, most=10):
    """2..`most` vertices: tied weights, dense, sparse, or cut apart."""
    kind = draw(st.sampled_from(("tied", "dense", "sparse", "disconnected")))
    if kind == "tied":
        return draw(graphs())
    count = draw(st.integers(2, most))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    if kind == "dense":  # at least 3/4 of the pairs, weight 1 or 2
        absent = draw(st.sets(st.sampled_from(pairs),
                              max_size=len(pairs) // 4))
        return WeightedGraph.from_edges(count, [
            (i, j, draw(st.sampled_from((1, 2)))) for i, j in pairs
            if (i, j) not in absent])
    weight = st.sampled_from(WEIGHTS[1:])
    if kind == "sparse":  # a random tree and at most two more edges
        edges = [(draw(st.integers(0, v - 1)), v, draw(weight))
                 for v in range(1, count)]
        edges += [(i, j, draw(weight)) for i, j in
                  draw(st.lists(st.sampled_from(pairs), max_size=2))]
        return WeightedGraph.from_edges(count, edges)
    side = draw(st.sets(st.integers(0, count - 1), min_size=1,
                        max_size=count - 1))
    return WeightedGraph.from_edges(count, [
        (i, j, draw(weight)) for i, j in pairs
        if (i in side) == (j in side) and draw(st.booleans())])


def maximum_adjacency(adj) -> tuple[list[int], list[int]]:
    """A plain maximum-adjacency order from vertex 0, the largest key and
    then the lowest id first, and the keys of the vertices after 0."""
    order = [0]
    key = {v: adj[0].get(v, 0) for v in adj if v}
    keys = []
    while key:
        v = max(key, key=lambda u: (key[u], -u))
        order.append(v)
        keys.append(key.pop(v))
        for u in key:
            key[u] += adj[v].get(u, 0)
    return order, keys


def path_bound(adj) -> int:
    """PR4 alone along the plain order: the least, over the vertices v
    added after the first, of v's key plus, for each vertex u added after
    v, the lighter of u's weight to the vertices before v and to v."""
    order, keys = maximum_adjacency(adj)
    return min(keys[i - 1] + sum(
        min(sum(adj[u].get(x, 0) for x in order[:i]), adj[u].get(order[i], 0))
        for u in order[i + 1:]) for i in range(1, len(order)))


def both_walks(adj, bound):
    """What `_scan_walk` and `_heap_walk` give on the same maps, with the
    edges listed as a set: they must agree, and only the order in which
    the edges are listed may differ."""
    found = []
    for walk in (_scan_walk, _heap_walk):
        *ends, joined = walk(adj, bound)
        found.append((*ends, set(map(frozenset, joined))))
    assert found[0] == found[1]
    return found[0]


@settings(max_examples=800)
@given(phase_graphs(), st.data())
def test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut(graph, data):
    state = contracted(graph, data)
    s, t, phase_cut, low, joined = both_walks(state.adj, math.inf)
    assert not joined
    order, keys = maximum_adjacency(state.adj)
    assert (s, t, phase_cut) == (order[-2], order[-1], keys[-1])
    # PR2 only ever raises a vertex's term above PR4's.
    assert min(keys) <= path_bound(state.adj) <= low
    assert low <= lightest(relabelled(state))


@pytest.mark.parametrize("count", [4, 5, 12, 40])
def test_pr2_lifts_the_cycle_s_bound_from_one_to_two(count):
    # Past the triangle, the cycle's first added vertex after 0 has key 1
    # and no path to add, so PR4 alone reads 1; its degree, 2, is at most
    # twice its key, so PR2 reads 2, the minimum cut.
    adj = dict(enumerate(cycle(count).adjacency))
    assert path_bound(adj) == 1
    assert both_walks(adj, math.inf)[3] == both_walks(adj, 2)[3] == 2


def test_the_term_of_a_vertex_by_pr4_or_lifted_by_pr2():
    # Key 3 and paths 1: PR4's term is 4.  A degree of 4 or less is no
    # more than that, and one above twice the key, 6, lets PR2 prove
    # nothing, so the term stays 4.
    assert _term(3, 1, {0: 1, 1: 3}, math.inf) == 4
    assert _term(3, 1, {0: 3, 1: 4}, math.inf) == 4
    # A degree of 5 or 6 is above the term and at most twice the key:
    # PR2 lifts the term to it.
    assert _term(3, 1, {0: 3, 1: 2}, math.inf) == 5
    assert _term(3, 1, {0: 3, 1: 3}, 7) == 6
    # ... but never above the least term so far.
    assert _term(3, 1, {0: 3, 1: 3}, 5) == 5


def least_degree(adj) -> int:
    """The least degree of a vertex of the maps: a cut, so lambda <= it."""
    return min(map(sum, map(dict.values, adj.values())))


@settings(max_examples=800)
@given(phase_graphs(), st.data())
def test_the_order_does_not_depend_on_the_bound(graph, data):
    # Stoer-Wagner walks its first phase at the least degree, so that it
    # is also the prover's first round; the bound changes only the edges
    # listed, never the order, its last two vertices, t's key or low.
    state = contracted(graph, data)
    bound = least_degree(state.adj) or data.draw(st.integers(1, 4))
    for walk in (_scan_walk, _heap_walk):
        assert walk(state.adj, bound)[:4] == walk(state.adj, math.inf)[:4]


def joined_by_definition(adj, bound):
    """The edges a walk must list, as a set of pairs: from the plain
    order, q(v, u) for v added before u is the weight from u to v and the
    vertices added before v."""
    order = maximum_adjacency(adj)[0]
    place = {v: k for k, v in enumerate(order)}
    return {frozenset((v, u)) for u in order for v in adj[u]
            if place[v] < place[u] and sum(
                adj[u].get(x, 0) for x in order[:place[v] + 1]) >= bound}


@settings(max_examples=800)
@given(phase_graphs(), st.data())
def test_a_round_joins_the_edges_whose_q_reaches_the_bound(graph, data):
    # Drawn from the keys, the bound often equals some q(e) exactly.
    state = contracted(graph, data)
    keys = maximum_adjacency(state.adj)[1]
    bound = data.draw(st.sampled_from(sorted({1, *keys} - {0})))
    assert both_walks(state.adj, bound)[4] == \
        joined_by_definition(state.adj, bound)


# --- the prover -------------------------------------------------------------------

@settings(max_examples=800)
@given(st.one_of(phase_graphs(most=14), graphs()))
def test_the_prover_gives_the_minimum_cut_and_its_first_round(graph):
    # The first round walks at the least degree, or at an infinite bound
    # when that is 0; either walk gives it, listing the same edges.
    adjacency = graph.adjacency
    adj = dict(enumerate(adjacency))
    degree = least_degree(adj)
    least, first = _lightest(adjacency)
    assert least == lightest(graph)
    for walk in (_scan_walk, _heap_walk):
        *ends, joined = walk(adj, degree or math.inf)
        assert (*first[:4], set(first[4])) == (*ends, set(joined))
    assert first == mincut._walk(adj, degree or math.inf)


def test_the_first_round_proves_the_star(monkeypatch):
    # The 8-vertex star's minimum cut, 1, is its least degree and its
    # first round's bound, so the prover answers with no further round and
    # no copy.
    adjacency = star(8, 7, [1] * 7).adjacency
    adj = dict(enumerate(adjacency))
    assert _scan_walk(adj, math.inf)[3] == _heap_walk(adj, math.inf)[3] == 1
    monkeypatch.setattr(mincut, "_Contraction", None)
    assert _lightest(adjacency)[0] == 1


def walks_run(monkeypatch, graph: WeightedGraph, weight: int) -> list[str]:
    """`_lightest(graph.adjacency)`, checked against the minimum cut's
    `weight`, and which walk each of its rounds took, the first included."""
    run = []

    def counted(walk):
        def counting(adj, bound):
            run.append(walk.__name__)
            return walk(adj, bound)
        return counting

    monkeypatch.setattr(mincut, "_scan_walk", counted(_scan_walk))
    monkeypatch.setattr(mincut, "_heap_walk", counted(_heap_walk))
    assert _lightest(graph.adjacency)[0] == weight
    return run


def chorded_cycles() -> WeightedGraph:
    """Two 14-cycles, each with the unit chords {0, 7} and {3, 10},
    joined by one unit edge: degrees 2 and 3, and a minimum cut of 1."""
    return WeightedGraph.from_edges(28, [
        (base + v, base + w, 1) for base in (0, 14)
        for v, w in [(v, (v + 1) % 14) for v in range(14)] + [(0, 7), (3, 10)]]
        + [(13, 14, 1)])


def test_the_rounds_follow_the_phases_walk_rule(monkeypatch):
    # Both graphs' minimum cut, a bridge of weight 1, is lighter than
    # every degree, so the first round's own bound cannot answer, and the
    # rounds run.  The chorded cycles are sparse: the rounds on 28, 22,
    # 16 and 10 vertices, with 33, 27, 21 and 11 edges, walk from a heap,
    # and then, contracted to 4 and 2 vertices, scan.  Two unit K7 stay
    # dense, so every round scans.
    assert walks_run(monkeypatch, chorded_cycles(), 1) == \
        ["_heap_walk"] * 4 + ["_scan_walk"] * 2
    assert lightest(two_cliques(7)) == 1
    assert set(walks_run(monkeypatch, two_cliques(7), 1)) == {"_scan_walk"}


@pytest.mark.parametrize("count", range(3, 13))
def test_the_prover_lowers_the_bound_to_each_lighter_cut(count):
    # The cycle's cut is 2, its least degree; two cliques joined by one
    # edge are cut only at that edge, whose weight shows as a degree once
    # the rounds have contracted a clique.
    assert _lightest(cycle(count).adjacency)[0] == 2
    assert _lightest(two_cliques(count).adjacency)[0] == 1


# --- completeness on cycles, complete graphs and stars -----------------------------

@pytest.mark.parametrize("count", range(3, 41))
def test_proves_the_cycle(count):
    for weight in (1, F(2, 3)):
        graph = cycle(count, weight)
        bound = 2 * weight * graph.scale
        if count <= 12:
            assert bound == lightest(graph)
        assert proves(graph, bound)
        assert not proves(graph, bound + 1)


@pytest.mark.parametrize("count", range(2, 31))
def test_proves_the_uniform_complete_graph(count):
    graph = complete(count, F(1, 3))
    bound = (count - 1) * graph.scale // 3
    if count <= 12:
        assert bound == lightest(graph)
    assert proves(graph, bound)
    assert not proves(graph, bound + 1)


@pytest.mark.parametrize("count", range(2, 13))
def test_proves_the_star_from_its_centre_or_a_leaf(count):
    weights = [1 + v % 3 for v in range(count - 1)]
    for centre in (0, count - 1):
        graph = star(count, centre, weights)
        weight = lightest(graph)
        assert proves(graph, weight)
        assert not proves(graph, weight + 1)


@pytest.mark.parametrize("gen, n", [(gen_an, 160), (gen_anstar, 48)])
def test_proves_the_family_graphs(gen, n):
    graph = graph_from_gram(selling_parameters(gen(n)))
    # A_n: two unit edges of the cycle; A_n*: a vertex of K_{n+1}.
    bound = 2 if gen is gen_an else n
    assert proves(graph, bound)
    assert not proves(graph, bound + 1)


# --- work: one pass over each map ---------------------------------------------------

class _Read(dict):
    """A neighbour map that records each pass over its entries."""

    def __init__(self, vertex, nbrs, log):
        super().__init__(nbrs)
        self.vertex, self.log = vertex, log

    def _read(self):
        self.log.append(self.vertex)

    def items(self):
        self._read()
        return super().items()

    def values(self):
        self._read()
        return super().values()

    def __iter__(self):
        self._read()
        return super().__iter__()


@pytest.mark.parametrize("walk", [_scan_walk, _heap_walk])
@pytest.mark.parametrize("graph", [
    pytest.param(graph_from_gram(gen_random_gram(200, 1, F(1))), id="gram200"),
    pytest.param(two_cliques(40), id="cliques40"),
    pytest.param(hypercube(7), id="cube7"),
])
def test_the_first_round_reads_each_map_at_most_twice(graph, walk):
    # At the least degree, as `_lightest` walks it: one pass for a
    # vertex's weights, and at most one more to sum its degree for PR2.
    # The answer is the same as on plain maps.
    log: list[int] = []
    plain = dict(enumerate(graph.adjacency))
    adj = {v: _Read(v, nbrs, log) for v, nbrs in plain.items()}
    bound = least_degree(plain)
    assert walk(adj, bound) == walk(plain, bound)
    assert max(map(log.count, set(log))) <= 2
    entries = sum(len(plain[v]) for v in log)
    assert entries <= 2 * sum(map(len, graph.adjacency))
