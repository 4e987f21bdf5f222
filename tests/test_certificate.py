"""The proofs that let Stoer-Wagner and Karger-Stein stop early.

Stoer-Wagner stops its phases once a phase's bound or the contraction
tests show that no cut is lighter than the best found so far.
Karger-Stein stops its trials on `mincut._no_cut_lighter`, which answers
True on a weight of 0 and on graphs small enough for a trial to have
searched every cut, and otherwise asks the rounds.

The rounds: `mincut._rounds_at_least(adjacency, bound)` contracts a copy of
the graph, each round by `_max_adjacency_round`, and is exact: for every
graph whose minimum cut weighs lambda > 0 it answers True at lambda and
False at lambda + 1, which brute force checks here.  One round lists
exactly the edges e whose q(e), the key of e's later end just after e's
weight is added, reaches the bound, and the last two vertices when the
last key does, as a plain maximum-adjacency order defines them; it gives
None when a key of 0 or a last key below the bound shows a lighter cut.

A phase's own bound: `_scan_phase` and `_heap_phase` return the same
(s, t, cut of the phase, low) on the same maps, and `low`, the least over
the vertices added after vertex 0 of key plus paths, lies between the
smallest of those keys and the true minimum cut, which brute force gives
here, on the original maps or on contracted ones.

The contraction certificate:

`mincut._cuts_at_least(adj, bound)` answers True only when no cut of the
graph weighs less than `bound`.  It must never answer True above the true
minimum cut weight, which brute force gives here, on the original maps or
on contracted ones, as `stoer_wagner` retries it; it must answer True at
that weight on cycles, where a phase's bound proves nothing, and on stars
and uniform complete graphs; and a failed attempt must cost no more
than one phase: it walks each neighbour map at most once, and reports the
entries it walked.  `stoer_wagner` tries it after the first phase, and
after a later one only while the attempts have walked at most a tenth of
the entries its phases walked, so that failing attempts add at most a
tenth to the phases' work, and one attempt.
"""

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
    _CONTRACTION_BASE,
    _Contraction,
    _cuts_at_least,
    _heap_phase,
    _max_adjacency_round,
    _no_cut_lighter,
    _rounds_at_least,
    _scan_phase,
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
    return _cuts_at_least(dict(enumerate(graph.adjacency)), bound)[0]


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


@settings(max_examples=800)
@given(graphs(), st.data())
def test_karger_stein_stops_on_no_bound_above_the_minimum_cut(graph, data):
    # `_no_cut_lighter` is told the weight of a cut that a trial found;
    # on at most `_CONTRACTION_BASE` vertices the trial was exhaustive,
    # so it answers True there whatever the weight, and elsewhere exactly
    # when the weight is the minimum cut's, which the rounds prove.
    adjacency = graph.adjacency
    weight = lightest(graph)
    small = graph.vertex_count <= _CONTRACTION_BASE
    assert _no_cut_lighter(adjacency, weight)
    assert _no_cut_lighter(adjacency, weight + 1) == small
    bound = data.draw(st.integers(0, weight + 2 * graph.scale))
    assert bound <= weight or _no_cut_lighter(adjacency, bound) == small
    assert _no_cut_lighter(adjacency, 0)


def test_karger_stein_takes_the_phase_bound_as_it_is():
    # The 8-vertex star's minimum cut, 1, is also its first phase's bound;
    # the rounds prove 1 and not 2, and 8 vertices are too many for the
    # exhaustive base case.
    adjacency = star(8, 7, [1] * 7).adjacency
    adj = dict(enumerate(adjacency))
    assert _scan_phase(adj)[3] == _heap_phase(adj)[3] == 1
    assert _no_cut_lighter(adjacency, 1)
    assert not _no_cut_lighter(adjacency, 2)


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
    # Stoer-Wagner retries on its contracted maps.
    state = contracted(graph, data)
    weight = lightest(relabelled(state))
    assert not _cuts_at_least(state.adj, weight + 1)[0]
    bound = data.draw(st.integers(1, weight + 2))
    assert bound <= weight or not _cuts_at_least(state.adj, bound)[0]


# --- the phase bound ----------------------------------------------------------------

@st.composite
def phase_graphs(draw):
    """2..10 vertices: tied weights, dense, sparse, or cut apart."""
    kind = draw(st.sampled_from(("tied", "dense", "sparse", "disconnected")))
    if kind == "tied":
        return draw(graphs())
    count = draw(st.integers(2, 10))
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


@settings(max_examples=800)
@given(phase_graphs(), st.data())
def test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut(graph, data):
    state = contracted(graph, data)
    s, t, phase_cut, low = found = _scan_phase(state.adj)
    assert _heap_phase(state.adj) == found
    order, keys = maximum_adjacency(state.adj)
    assert (s, t, phase_cut) == (order[-2], order[-1], keys[-1])
    assert min(keys) <= low <= lightest(relabelled(state))


# --- the rounds -------------------------------------------------------------------

def round_by_definition(adj, bound):
    """The edges `_max_adjacency_round` must list, as a set of pairs, or
    None: from the plain order, q(v, u) for v added before u is the
    weight from u to v and the vertices added before v."""
    order, keys = maximum_adjacency(adj)
    if not min(keys) or keys[-1] < bound:
        return None
    place = {v: k for k, v in enumerate(order)}
    joined = {frozenset(order[-2:])}
    for u in order:
        for v in adj[u]:
            if place[v] < place[u] and sum(
                    adj[u].get(x, 0) for x in order[:place[v] + 1]) >= bound:
                joined.add(frozenset((v, u)))
    return joined


@settings(max_examples=800)
@given(phase_graphs(), st.data())
def test_a_round_joins_the_edges_whose_q_reaches_the_bound(graph, data):
    # Drawn from the keys, the bound often equals some q(e) exactly.
    state = contracted(graph, data)
    keys = maximum_adjacency(state.adj)[1]
    bound = data.draw(st.sampled_from(sorted({1, *keys} - {0})))
    joined = _max_adjacency_round(state.adj, bound)
    if joined is not None:
        joined = set(map(frozenset, joined))
    assert joined == round_by_definition(state.adj, bound)


@settings(max_examples=800)
@given(st.one_of(phase_graphs(), graphs()))
def test_the_rounds_prove_exactly_the_minimum_cut(graph):
    weight = lightest(graph)
    if weight:
        assert _rounds_at_least(graph.adjacency, weight)
    assert not _rounds_at_least(graph.adjacency, weight + 1)


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
    return _scan_phase(adj)[2]


def walks(graph: WeightedGraph, bound: int) -> tuple[bool, list]:
    log: list[tuple[int, int]] = []
    adj = {v: _Walked(v, nbrs, log) for v, nbrs in enumerate(graph.adjacency)}
    proved, walked = _cuts_at_least(adj, bound)
    # It reports every entry it walked: each walk, and vertex 0's map,
    # copied once.
    assert walked == sum(size for _, size in log) + len(graph.adjacency[0])
    return proved, log


@pytest.mark.parametrize("graph", [
    pytest.param(graph_from_gram(gen_random_gram(200, 1, F(1))), id="gram200"),
    pytest.param(two_cliques(40), id="cliques40"),
    pytest.param(hypercube(7), id="cube7"),
])
def test_a_failed_attempt_walks_each_map_at_most_once(graph):
    # The bound is the cut of Stoer-Wagner's first phase, as stoer_wagner
    # passes it; the true minimum is lighter or the tests cannot show it.
    proved, log = walks(graph, first_phase_cut(graph))
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


# --- retries: within a tenth of the phases' walks ---------------------------------

def test_retries_walk_at_most_a_tenth_of_the_phases_entries(monkeypatch):
    # Every attempt on the two cliques joins the first one before the
    # bridge fails it, so only the budget limits the retries.
    phased: list[int] = []  # 2|E| + |V| of each phase's graph
    attempts: list[tuple[int, int]] = []  # (phases run, entries walked)

    def counting(phase):
        def run(adj):
            phased.append(sum(map(len, adj.values())) + len(adj))
            return phase(adj)
        return run

    def attempt(adj, bound):
        proved, walked = _cuts_at_least(adj, bound)
        assert not proved
        attempts.append((len(phased), walked))
        return proved, walked

    monkeypatch.setattr(mincut, "_scan_phase", counting(mincut._scan_phase))
    monkeypatch.setattr(mincut, "_heap_phase", counting(mincut._heap_phase))
    monkeypatch.setattr(mincut, "_cuts_at_least", attempt)
    assert mincut.stoer_wagner(two_cliques(40)).weight == 1
    assert [phases for phases, _ in attempts] == [1, 6, 12, 18, 26, 35]
    # An attempt runs after a phase exactly when the earlier attempts
    # walked at most a tenth of the entries of the phases so far; the last
    # phase proves its cut by its own bound and needs none.
    walked_at = dict(attempts)
    tried = 0
    for phases in range(1, len(phased)):
        assert (10 * tried <= sum(phased[:phases])) == (phases in walked_at)
        tried += walked_at.get(phases, 0)
    # So all attempts walk at most a tenth of the phases' entries, and one
    # attempt more: the first, which always runs, or the last.
    assert tried <= sum(phased) / 10 + max(walked_at.values())
