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
changes nothing else.  `low`, the least over the vertices added after
the first of key plus paths, lies between the smallest of those keys and
the true minimum cut, which brute force gives here.

The contraction certificate: `mincut._cuts_at_least(adj, bound)` answers
True only when no cut of the graph weighs less than `bound`.  It must
never answer True above the true minimum cut weight, on the original maps
or on contracted ones; it must answer True at that weight on cycles,
where a phase's bound proves nothing and the rounds would join one edge
at a time, and on stars and uniform complete graphs; and an attempt must
cost no more than one phase: it walks each neighbour map at most once.
`_lightest` runs it once, at the least degree, after its first round,
unless that round's own bound reaches the least degree.
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
    _cuts_at_least,
    _heap_walk,
    _lightest,
    _scan_walk,
)
from conftest import hypercube  # noqa: E402

F = Fraction

# Few distinct values, so that many cuts tie; 0 drops the edge.
WEIGHTS = (0, 1, 1, 2, 3, F(1, 2), F(3, 4), F(5, 3))


def lightest(graph: WeightedGraph) -> int:
    """The minimum cut weight over the graph's common denominator."""
    return brute_force_mincut(graph).weight * graph.scale


def proves(graph: WeightedGraph, bound: int) -> bool:
    """`_cuts_at_least` on the graph's maps, keyed as `stoer_wagner`'s."""
    return _cuts_at_least(dict(enumerate(graph.adjacency)), bound)


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
    joined by one unit edge {size-1, size}: the attempt joins the whole
    first clique before the bridge shows a light cut."""
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


def test_the_first_round_proves_the_star(monkeypatch):
    # The 8-vertex star's minimum cut, 1, is its least degree and its
    # first round's bound, so the prover answers with no attempt.
    adjacency = star(8, 7, [1] * 7).adjacency
    adj = dict(enumerate(adjacency))
    assert _scan_walk(adj, math.inf)[3] == _heap_walk(adj, math.inf)[3] == 1
    monkeypatch.setattr(mincut, "_cuts_at_least", None)
    assert _lightest(adjacency)[0] == 1


def test_a_light_pendant_vertex_is_not_joined_by_its_half_degree():
    # Vertex 2 hangs on vertex 0 by weight 1: 2 w >= d(2), but d(2) = 1 is
    # itself a cut below the bound 2.
    graph = WeightedGraph.from_edges(3, [(0, 2, 1), (0, 1, 3)])
    assert lightest(graph) == 1
    assert not proves(graph, 2)
    assert proves(graph, 1)


def test_a_light_degree_of_the_joined_vertex_ends_the_attempt():
    # Joining 1 to 0 passes the tests (w = 5), but leaves a degree of 1.
    graph = WeightedGraph.from_edges(3, [(0, 1, 5), (1, 2, 1)])
    assert lightest(graph) == 1
    assert not proves(graph, 2)


@settings(max_examples=500)
@given(graphs(), st.data())
def test_never_proves_a_bound_above_the_minimum_cut_of_a_contraction(graph, data):
    # Sound on contracted maps too, which keep vertex 0 and their order.
    state = contracted(graph, data)
    weight = lightest(relabelled(state))
    assert not _cuts_at_least(state.adj, weight + 1)
    bound = data.draw(st.integers(1, weight + 2))
    assert bound <= weight or not _cuts_at_least(state.adj, bound)


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
    assert min(keys) <= low <= lightest(relabelled(state))


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
    # every degree, so neither the first round's own bound nor the
    # contraction attempt answers, and the rounds run.  The chorded cycles are sparse: the rounds on 28, 22,
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


# --- work: one phase at most --------------------------------------------------------

class _Walked(dict):
    """A neighbour map that records each walk over its entries."""

    def __init__(self, vertex, nbrs, log):
        super().__init__(nbrs)
        self.vertex, self.log = vertex, log

    def items(self):
        self.log.append((self.vertex, len(self)))
        return super().items()


def first_phase_cut(graph: WeightedGraph) -> int:
    adj = _Contraction.from_adjacency(graph.adjacency).adj
    return _scan_walk(adj, math.inf)[2]


def walks(graph: WeightedGraph, bound: int) -> tuple[bool, list]:
    log: list[tuple[int, int]] = []
    adj = {v: _Walked(v, nbrs, log) for v, nbrs in enumerate(graph.adjacency)}
    return _cuts_at_least(adj, bound), log


@pytest.mark.parametrize("graph", [
    pytest.param(graph_from_gram(gen_random_gram(200, 1, F(1))), id="gram200"),
    pytest.param(two_cliques(40), id="cliques40"),
    pytest.param(hypercube(7), id="cube7"),
])
def test_a_failed_attempt_walks_each_map_at_most_once(graph):
    # The bound is the least degree, as `_lightest` asks it; on these
    # graphs it is also the first phase's cut.  The true minimum is lighter
    # or the tests cannot show it.
    proved, log = walks(graph, least_degree(dict(enumerate(graph.adjacency))))
    assert not proved
    walked = [v for v, _ in log]
    assert len(walked) == len(set(walked))
    edges = sum(map(len, graph.adjacency)) // 2
    # Vertex 0's map is also copied once, with its degree summed.
    touched = sum(size for _, size in log) + len(graph.adjacency[0])
    assert touched <= edges + graph.vertex_count


def test_the_two_cliques_fail_at_the_bridge():
    graph = two_cliques(40)
    assert first_phase_cut(graph) == 39
    proved, log = walks(graph, 39)
    assert not proved
    # Every vertex of the first clique but 0 joined; none of the second.
    assert sorted(v for v, _ in log) == list(range(1, 40))


def test_a_proof_walks_each_map_at_most_once():
    graph = complete(30)
    proved, log = walks(graph, 29)
    assert proved
    walked = [v for v, _ in log]
    assert len(walked) == len(set(walked)) == 28
