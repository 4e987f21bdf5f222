"""Min-cut code against frozen copies of earlier versions.

The references below are verbatim copies of `stoer_wagner` and of the
Karger-Stein contraction code (`_Contraction`, `_contract_to`,
`_exhaustive_cut`, `_recursive_contraction`, `karger_stein`) as they stood
before the contraction core relied on its own ordering invariants: each
Stoer-Wagner phase heapified every vertex at key 0 and special-cased
vertex 0, and Karger-Stein sorted its vertex sets, copied member lists on
every branch and re-summed every edge for each pick.  `brute_force_mincut`
and the exhaustive walker `_gray_min_cut` are frozen as they stood before
the walker packed its per-vertex weights into one integer: it kept a list
and looped over the moved vertex's neighbours.  The current code must
return the same `Cut`, side and weight, ties included: on small random
graphs with unit, tied, parallel and zero weights, several components or
no edges at all, on stars, paths and trees, where the current
Stoer-Wagner stops phases early while the frozen one runs them all, on
graphs whose weights need a common denominator near the 4096-bit cap,
on the large tie-heavy Selling graphs of A_n, Z^n and A_n* that the
golden files do not reach, and on the `svp` graphs of the benchmark's
`dense_gram` plan, where the current Stoer-Wagner stops at the first
phase cut that its proofs show minimal; and at the default trial count,
where the current Karger-Stein stops once a trial's cut is proved
minimal while the frozen one runs every trial.  Within a trial, the
current recursion returns at its first branch whose cut weighs the
minimum, lambda, while the frozen one weighs every base case of its
tree: on A_100, Z^100 and A_16* it weighs one base case and finds the
frozen cut, on a graph whose first branch misses lambda it stops in
the second, and on random graphs it weighs its whole tree's base cases
up to the first of weight lambda.  The running sums of the current
`_SampledContraction` are recounted after every merge and clone, and
each pick must be the frozen pick.  On family, hypercube and Gram
graphs, the walks and graph copies of each Stoer-Wagner run are counted.
"""

from __future__ import annotations

import copy
import importlib.util
import operator
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    Cut,
    WeightedGraph,
    gen_an,
    gen_anstar,
    gen_random_gram,
    gen_zn,
    graph_from_gram,
    mincut,
    selling_parameters,
)
from latcut.errors import TooLarge  # noqa: E402
from latcut.mincut import (  # noqa: E402
    BRUTE_FORCE_LIMIT,
    _CONTRACTION_BASE,
    _subproblem_size,
    default_trial_count,
)
from latcut.rng import Xoshiro256StarStar, derive_seeds  # noqa: E402
from conftest import hypercube, random_graph  # noqa: E402

F = Fraction

_ScaledCut = tuple[int, tuple[int, ...]]


# --- references: the earlier code, verbatim ----------------------------------------

def stoer_wagner(graph: WeightedGraph) -> Cut:
    """Deterministic global minimum cut.

    Repeats maximum-adjacency phases, each time merging the two vertices
    added last; the lightest cut-of-the-phase is a global minimum cut.
    Phases start from vertex 0, the lowest index (it is never added last,
    so it is never merged away), and break adjacency ties toward lower
    indices, so the result is a pure function of the graph.  A
    disconnected graph legitimately yields a weight-0 cut.
    """
    state = _Contraction.from_adjacency(graph.adjacency)
    best: _ScaledCut | None = None

    while len(state.adj) > 1:
        key = dict.fromkeys(state.adj, 0)
        del key[0]
        key.update(state.adj[0])
        heap = [(-k, v) for v, k in key.items()]
        heapify(heap)
        s = t = 0
        phase_cut = 0
        while key:
            neg, v = heappop(heap)
            if key.get(v) != -neg:
                continue  # already added, or a stale key
            del key[v]
            s, t, phase_cut = t, v, -neg
            for u, w in state.adj[v].items():
                k = key.get(u)
                if k is not None:
                    key[u] = k = k + w
                    heappush(heap, (-k, u))

        if best is None or phase_cut < best[0]:
            best = (phase_cut, tuple(sorted(state.members[t])))
        state.merge(s, t)

    assert best is not None
    return Cut(best[1], Fraction(best[0], graph.scale))


class _Contraction:
    """Mutable contraction state: surviving vertices with integer-weight
    neighbor maps, and the original vertices each one absorbed."""

    __slots__ = ("adj", "members")

    def __init__(self, adj: dict[int, dict[int, int]],
                 members: dict[int, list[int]]):
        self.adj = adj
        self.members = members

    @classmethod
    def from_adjacency(cls, adj: Sequence[dict[int, int]]) -> "_Contraction":
        """A fresh state over copies of `adj`; the maps are not modified."""
        return cls(
            {v: dict(nbrs) for v, nbrs in enumerate(adj)},
            {v: [v] for v in range(len(adj))},
        )

    def clone(self) -> "_Contraction":
        return _Contraction(
            {v: dict(nbrs) for v, nbrs in self.adj.items()},
            {v: list(m) for v, m in self.members.items()},
        )

    def merge(self, keep: int, drop: int) -> None:
        """Contract `drop` into `keep`, adding up parallel edge weights."""
        adj = self.adj
        kept = adj[keep]
        for u, w in adj.pop(drop).items():
            if u == keep:
                continue
            kept[u] = adj[u][keep] = kept.get(u, 0) + w
            del adj[u][drop]
        kept.pop(drop, None)
        self.members[keep].extend(self.members.pop(drop))

    def pick_weighted_edge(self, rng: Xoshiro256StarStar):
        """A random edge, chosen with probability proportional to weight.

        With u uniform in [0, 2^64), the walk stops at the first edge whose
        running total acc satisfies total * u / 2^64 < acc, compared
        exactly in integers.
        """
        verts = sorted(self.adj)
        total = sum(w for i in verts for j, w in self.adj[i].items() if j > i)
        if not total:
            return None
        threshold = total * rng.next_u64()
        acc = 0
        for i in verts:
            nbrs = self.adj[i]
            for j in sorted(nbrs):
                if j <= i:
                    continue
                acc += nbrs[j]
                if threshold < acc << 64:
                    return (i, j)
        raise AssertionError("weighted edge walk must terminate")

    def zero_cut(self) -> _ScaledCut:
        side = min(self.adj)
        return 0, tuple(sorted(self.members[side]))


def _contract_to(state: _Contraction, target: int,
                 rng: Xoshiro256StarStar) -> bool:
    """Contract random edges until `target` vertices remain.

    Returns False when the state ran out of edges first, in which case a
    zero-weight cut exists and contraction is pointless.
    """
    while len(state.adj) > target:
        edge = state.pick_weighted_edge(rng)
        if edge is None:
            return False
        state.merge(*edge)
    return True


def _exhaustive_cut(state: _Contraction) -> _ScaledCut:
    """Best (weight, side) of a small contracted graph by enumeration.

    The sorted supervertices are relabelled 0..k-1, so a side is a bit
    mask that contains the lowest one.  The winner is the first lightest
    side in ascending mask order, i.e. the minimum of (weight, mask);
    that is a total order, so walking the sides in Gray-code order
    (:func:`_gray_min_cut`) finds the same side.
    """
    verts = sorted(state.adj)
    label = {v: k for k, v in enumerate(verts)}
    adj = [{label[u]: w for u, w in state.adj[v].items()} for v in verts]
    weight, mask = _gray_min_cut(adj, operator.lt)
    side = [m for k, v in enumerate(verts) if mask >> k & 1
            for m in state.members[v]]
    return weight, tuple(sorted(side))


def _recursive_contraction(state: _Contraction,
                           rng: Xoshiro256StarStar) -> _ScaledCut:
    if len(state.adj) <= _CONTRACTION_BASE:
        return _exhaustive_cut(state)
    target = _subproblem_size(len(state.adj))
    best: _ScaledCut | None = None
    for _ in range(2):
        branch = state.clone()
        if not _contract_to(branch, target, rng):
            return branch.zero_cut()
        candidate = _recursive_contraction(branch, rng)
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best


def karger_stein(graph: WeightedGraph, seed: int, trials: int) -> Cut:
    """Randomized minimum cut by repeated recursive contraction.

    Runs `trials` independent trials and returns the lightest cut found
    (ties resolved toward the earliest trial).  Each trial's generator is
    seeded from its own splitmix64-derived stream, so the result depends
    only on (graph, seed, trials) and trials could run in any order or in
    parallel without changing it.  The returned weight is always an upper
    bound on the true minimum.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    best: _ScaledCut | None = None
    for trial_seed in derive_seeds(seed, trials):
        rng = Xoshiro256StarStar(trial_seed)
        candidate = _recursive_contraction(
            _Contraction.from_adjacency(graph.adjacency), rng)
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return Cut(best[1], Fraction(best[0], graph.scale))


def brute_force_mincut(graph: WeightedGraph) -> Cut:
    """Exhaustive minimum cut; the oracle the fast algorithms are tested against.

    Enumerates every side containing vertex 0 (each distinct cut exactly
    once), in Gray-code order at O(degree) per side.  Ties break toward the
    smaller side, then the lexicographically smallest sorted index list: a
    total order, so the result is the minimum of (weight, size, indices)
    whatever the walk order.  Refuses graphs with more than 24 vertices.
    """
    count = len(graph.adjacency)
    if count > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"{count} vertices means {2 ** (count - 1) - 1} cuts; "
            f"the exhaustive limit is {BRUTE_FORCE_LIMIT} vertices"
        )
    weight, mask = _gray_min_cut(graph.adjacency, _fewer_then_lower_indices)
    return Cut(_mask_indices(mask), Fraction(weight, graph.scale))


def _fewer_then_lower_indices(a: int, b: int) -> bool:
    """Whether side mask `a` beats `b`: smaller, then lower sorted indices."""
    return (a.bit_count(), _mask_indices(a)) < (b.bit_count(), _mask_indices(b))


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _gray_min_cut(adj: Sequence[dict[int, int]],
                  prefer: Callable[[int, int], bool]) -> tuple[int, int]:
    """(weight, side mask) of a lightest cut of the graph on 0..k-1, k >= 2.

    Walks every side that contains vertex 0, except the full side, in
    reflected Gray-code order over vertices 1..k-1, so each step moves
    one vertex v across.  It keeps the crossing weight and, for each
    vertex u, into[u], the weight from u into the side; moving v changes
    the weight by +-(deg v - 2 into[v]) and `into` only at v's
    neighbours, so a side costs O(deg v) rather than O(|E|).  Between
    sides of equal weight, `prefer(new, best)` decides; it must be a
    strict total order, which makes the winner independent of the walk.
    """
    count = len(adj)
    neighbours = [tuple(nbrs.items()) for nbrs in adj]
    degree = [sum(nbrs.values()) for nbrs in adj]
    into = [0] * count
    for u, w in neighbours[0]:
        into[u] = w
    side = 1
    weight = degree[0]
    best_weight, best_side = weight, side
    full = (1 << count) - 1
    for step in range(1, 1 << (count - 1)):
        v = (step & -step).bit_length()  # 1 + the step's trailing zeros
        side ^= 1 << v
        if side >> v & 1:
            weight += degree[v] - 2 * into[v]
            for u, w in neighbours[v]:
                into[u] += w
        else:
            weight += 2 * into[v] - degree[v]
            for u, w in neighbours[v]:
                into[u] -= w
        if side != full and (weight < best_weight or
                             weight == best_weight and prefer(side, best_side)):
            best_weight, best_side = weight, side
    return best_weight, best_side


# --- strategies ----------------------------------------------------------------------

# Few distinct values, so that many cuts tie; 0 drops the edge.
WEIGHTS = (0, 1, 1, 2, 3, F(1, 2), F(3, 4), F(5, 3))


@st.composite
def graphs(draw, most=14):
    """2..`most` vertices, dense or sparse; extra edges on drawn pairs are
    parallel edges, and sometimes the weights are all 1 (ties
    everywhere), or no edge joins a prefix of the vertices to the rest."""
    count = draw(st.integers(2, most))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    weight = st.sampled_from(WEIGHTS + (0,) * draw(st.integers(0, 24)))
    edges = [(i, j, draw(weight)) for i, j in pairs]
    edges += draw(st.lists(st.tuples(st.integers(0, count - 1),
                                     st.integers(0, count - 1), weight)
                           .filter(lambda e: e[0] != e[1])))
    if draw(st.booleans()):
        edges = [(i, j, 1 if w else 0) for i, j, w in edges]
    split = draw(st.integers(0, 3 * count))  # 1..count-1 cuts it apart
    return WeightedGraph.from_edges(count, [
        (i, j, 0 if min(i, j) < split <= max(i, j) else w)
        for i, j, w in edges])


@st.composite
def dense_graphs(draw):
    """2..30 vertices, at least 3/4 of all pairs joined by weight 1 or 2:
    Stoer-Wagner scans for its vertices there, and many keys tie."""
    count = draw(st.integers(2, 30))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    absent = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 4))
    weights = draw(st.lists(st.sampled_from((1, 2)),
                            min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph.from_edges(count, [
        (i, j, w) for (i, j), w in zip(pairs, weights) if (i, j) not in absent])


@st.composite
def sparse_graphs(draw):
    """Stars, paths and random trees on 2..40 vertices with a few extra
    edges and pendant vertices, relabelled at random: the early keys of a
    phase often prove that no later phase is lighter, so Stoer-Wagner
    stops early.  Some are split into several components."""
    count = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(("star", "path", "tree")))
    if shape == "star":
        centre = draw(st.integers(0, count - 1))
        pairs = [(centre, v) for v in range(count) if v != centre]
    elif shape == "path":
        pairs = [(v - 1, v) for v in range(1, count)]
    else:
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, count)]
    vertex = st.integers(0, count - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex)
                           .filter(lambda e: e[0] != e[1]), max_size=3))
    pendants = draw(st.integers(0, 4))
    for pendant in range(count, count + pendants):
        pairs.append((draw(st.integers(0, pendant - 1)), pendant))
    count += pendants
    label = draw(st.permutations(range(count)))
    split = draw(st.integers(0, 3 * count))  # 1..count-1 cuts it apart
    edges = []
    for i, j in pairs:
        i, j = label[i], label[j]
        if not min(i, j) < split <= max(i, j):
            edges.append((i, j, draw(st.sampled_from(WEIGHTS[1:]))))
    return WeightedGraph.from_edges(count, edges)


# Weights over 2^a * 3^b with a <= 2040 and b <= 1287, so that their common
# denominator is just under the 4096-bit cap.  A numerator up to 6 * 2^64 + 1
# over small a and b scales to an integer of up to about 4147 bits, past the
# entry cap, which `WeightedGraph.from_edges` does not apply.
CAP_EXPONENTS = (2040, 1287)


@st.composite
def cap_graphs(draw):
    """2..12 vertices with weights drawn from a few fractions whose common
    denominator is near the cap; one of them sets the full denominator,
    and reuse makes sides tie."""
    count = draw(st.integers(2, 12))
    odd = st.integers(1, 2 ** 64).map(lambda x: 6 * x + 1)
    exponents = st.tuples(st.integers(0, CAP_EXPONENTS[0]),
                          st.integers(0, CAP_EXPONENTS[1]))
    pool = [F(draw(odd), 2 ** a * 3 ** b) for a, b in
            [CAP_EXPONENTS] + draw(st.lists(exponents, min_size=1, max_size=3))]
    weight = st.sampled_from(pool + [0] * draw(st.integers(0, 4)))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    return WeightedGraph.from_edges(
        count, [(0, 1, pool[0])] + [(i, j, draw(weight)) for i, j in pairs])


# --- properties ----------------------------------------------------------------------

@settings(max_examples=600)
@given(graphs())
def test_stoer_wagner_matches_the_reference(graph):
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)


@settings(max_examples=200)
@given(dense_graphs())
def test_stoer_wagner_matches_the_reference_on_dense_graphs(graph):
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)


@settings(max_examples=400)
@given(sparse_graphs())
def test_stoer_wagner_matches_the_reference_when_it_stops_early(graph):
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)


@pytest.mark.parametrize("graph, walks, copies", [
    pytest.param(graph_from_gram(selling_parameters(gen_zn(200))), 1, 0,
                 id="zn200"),
    pytest.param(graph_from_gram(selling_parameters(gen_an(20))), 1, 0,
                 id="an20"),
    pytest.param(graph_from_gram(selling_parameters(gen_anstar(20))), 1, 0,
                 id="anstar20"),
    pytest.param(hypercube(4), 7, 1, id="cube4"),
    pytest.param(graph_from_gram(gen_random_gram(52, 7, F(1))), 2, 1,
                 id="gram52"),
    pytest.param(graph_from_gram(gen_random_gram(7, 2, F(1))), 2, 1,
                 id="gram7"),
])
def test_stoer_wagner_stops_once_no_later_phase_can_be_lighter(
        monkeypatch, graph, walks, copies):
    # A phase's bound is the least, over its added vertices v, of v's key
    # plus the paths of length two from the vertices added before v to
    # each vertex not yet added, or of v's degree where that is at most
    # twice v's key.  It proves the star's weight-1 cut, the complete
    # graph's and, by the degrees, the cycle's in their first phase.  The
    # first phase walks at the least degree, so it is also the prover's
    # first round: the hypercube has no triangle and no edge of half a
    # degree, so 6 more rounds prove the first phase's cut minimal, where
    # running every phase takes 15 walks.  The 52-vertex Gram graph's
    # first phase also finds its minimum cut, which one more round
    # proves.  The 7-vertex Gram graph's first phase proves, by its own
    # bound, that the least degree is the minimum cut, and the second
    # phase finds it.  Only the rounds and the phases after the first
    # copy the graph, once each.
    bounds = []
    walk = mincut._walk
    monkeypatch.setattr(mincut, "_walk", lambda adj, bound: (
        bounds.append(bound), walk(adj, bound))[1])
    copied = []
    from_adjacency = mincut._Contraction.from_adjacency.__func__
    monkeypatch.setattr(mincut._Contraction, "from_adjacency", classmethod(
        lambda cls, adj: (copied.append(cls), from_adjacency(cls, adj))[1]))
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)
    assert len(bounds) == walks
    assert len(copied) == copies


@settings(max_examples=300)
@given(graphs(), st.integers(0, 2 ** 64 - 1), st.integers(1, 4))
def test_karger_stein_matches_the_reference(graph, seed, trials):
    assert mincut.karger_stein(graph, seed, trials) == \
        karger_stein(graph, seed, trials)


@settings(max_examples=400)
@given(graphs(most=12), st.integers(0, 2 ** 64 - 1))
def test_karger_stein_matches_the_reference_at_the_default_trial_count(
        graph, seed):
    # The reference runs every trial; the current code stops once a
    # trial's cut is proved minimal, which needs no more than the first
    # trial on graphs of up to 6 vertices or with a cut of weight 0.
    trials = default_trial_count(graph.vertex_count)
    assert mincut.karger_stein(graph, seed, trials) == \
        karger_stein(graph, seed, trials)


def test_edgeless_and_disconnected_graphs_match_the_reference():
    for count in range(2, 10):
        edgeless = WeightedGraph.from_edges(count, [])
        halves = WeightedGraph.from_edges(count, [
            (i, j, 1) for i in range(count) for j in range(i + 1, count)
            if (i < count // 2) == (j < count // 2)])
        for graph in (edgeless, halves):
            assert mincut.stoer_wagner(graph) == stoer_wagner(graph)
            for seed in range(3):
                assert mincut.karger_stein(graph, seed, 2) == \
                    karger_stein(graph, seed, 2)


def family_graphs(*sizes):
    """One case per (generator, n): the Selling graph of that superbase."""
    return [pytest.param(gen, n, id=f"{gen.__name__[4:]}{n}")
            for gen, ns in sizes for n in ns]


@pytest.mark.parametrize("gen, n", family_graphs(
    (gen_an, range(16, 161, 24)), (gen_zn, range(16, 161, 24)),
    (gen_anstar, range(8, 49))))
def test_stoer_wagner_matches_the_reference_on_the_families(gen, n):
    graph = graph_from_gram(selling_parameters(gen(n)))
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)


@pytest.mark.parametrize("gen, n", family_graphs(
    (gen_an, (16, 24, 32, 100)), (gen_zn, (16, 24, 32, 100)),
    (gen_anstar, (8, 12, 16))))
def test_karger_stein_matches_the_reference_on_the_families(gen, n):
    # Many equal-weight cuts: which one wins depends on every contraction.
    # The frozen trial weighs every base case of its tree, 4096 at n = 100,
    # where the current one stops at its first.
    graph = graph_from_gram(selling_parameters(gen(n)))
    for seed in range(3):
        assert mincut.karger_stein(graph, seed, 1) == \
            karger_stein(graph, seed, 1)


def _tree_leaves(order: int) -> int:
    """The base cases of a whole recursion tree from `order` supervertices."""
    if order <= _CONTRACTION_BASE:
        return 1
    return 2 * _tree_leaves(_subproblem_size(order))


def _base_cases(monkeypatch) -> list[int]:
    """The weights of the base cases that Karger-Stein weighs from now on,
    in the order it weighs them; brute force's walks are not counted."""
    weights = []
    walk = mincut._min_cut_walk

    def counted(adj, key):
        found = walk(adj, key)
        if key is None:
            weights.append(found[0])
        return found

    monkeypatch.setattr(mincut, "_min_cut_walk", counted)
    return weights


@pytest.mark.parametrize("gen, n, leaves", [
    pytest.param(gen_an, 100, 4096, id="an100"),
    pytest.param(gen_zn, 100, 4096, id="zn100"),
    pytest.param(gen_anstar, 16, 64, id="anstar16"),
])
def test_a_trial_stops_at_its_first_base_case_of_the_minimum_weight(
        monkeypatch, gen, n, leaves):
    # A trial's whole tree has `leaves` base cases, and the frozen trial
    # weighs them all.  A contracted cycle is a cycle and a contracted
    # star keeps its unmerged leaves, so the first base case of the cycle
    # or the star, and here of the complete graph, already weighs lambda,
    # and the trial stops there.
    graph = graph_from_gram(selling_parameters(gen(n)))
    assert _tree_leaves(graph.vertex_count) == leaves
    weights = _base_cases(monkeypatch)
    for seed in range(3):
        weights.clear()
        mincut.karger_stein(graph, seed, 1)
        assert len(weights) == 1


def test_a_trial_whose_first_branch_misses_stops_in_its_second(monkeypatch):
    # 8 vertices branch to 7 and then to 6, so a trial's tree has two
    # branches of two base cases each.  At seed 0 both base cases of the
    # first branch miss lambda, the first of the second finds it, and the
    # last is never weighed.
    graph = random_graph(8, seed=11)
    least = brute_force_mincut(graph).weight * graph.scale
    assert _tree_leaves(graph.vertex_count) == 4
    weights = _base_cases(monkeypatch)
    cut = mincut.karger_stein(graph, 0, 1)
    assert len(weights) == 3
    assert min(weights[:2]) > least == weights[2]
    assert cut == karger_stein(graph, 0, 1)


@settings(max_examples=200)
@given(graphs(most=13), st.integers(0, 2 ** 64 - 1))
def test_a_trial_weighs_the_whole_tree_s_base_cases_up_to_lambda(
        graph, seed):
    # No cut weighs -1, so a trial told so walks its whole tree.  A trial
    # told lambda weighs the same base cases, in the same order, up to
    # the first of weight lambda, and finds the same cut: the draws it
    # skips are never read.
    least = mincut._lightest(graph.adjacency)[0]
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        weights = _base_cases(patch)
        for told in (-1, least):
            weights.clear()
            best = mincut._recursive_contraction(
                mincut._SampledContraction.from_adjacency(graph.adjacency),
                Xoshiro256StarStar(seed), told)
            found[told] = (best[0], tuple(sorted(chain.from_iterable(best[1]))),
                           list(weights))
    assert found[least][:2] == found[-1][:2]
    whole, stopped = found[-1][2], found[least][2]
    if least in whole:
        assert stopped == whole[:whole.index(least) + 1]
    else:
        assert stopped == whole


@settings(max_examples=400)
@given(graphs())
def test_brute_force_matches_the_reference(graph):
    assert mincut.brute_force_mincut(graph) == brute_force_mincut(graph)


@settings(max_examples=60)
@given(cap_graphs(), st.integers(0, 2 ** 64 - 1))
def test_exhaustive_walks_match_the_reference_near_the_cap(graph, seed):
    assert graph.scale.bit_length() > 4000
    assert mincut.brute_force_mincut(graph) == brute_force_mincut(graph)
    assert mincut.karger_stein(graph, seed, 2) == karger_stein(graph, seed, 2)


def _recount(state) -> None:
    """The running sums of `state` against a count from its maps."""
    upper = {i: sum(w for j, w in nbrs.items() if j > i)
             for i, nbrs in state.adj.items()}
    assert list(state.upper.items()) == list(upper.items())
    assert state.total == sum(upper.values())


@settings(max_examples=300)
@given(graphs(), st.data())
def test_contraction_sums_and_picks_survive_merges_and_clones(graph, data):
    """Random merges and clones on a set of states: after each step every
    state's sums equal a recount, and its pick, from a generator in a given
    state, is the edge the frozen pick takes from a copy of it."""
    states = [mincut._SampledContraction.from_adjacency(graph.adjacency)]
    rng = Xoshiro256StarStar(data.draw(st.integers(0, 2 ** 64 - 1)))
    for _ in range(data.draw(st.integers(0, 2 * graph.vertex_count))):
        state = data.draw(st.sampled_from(states))
        if len(state.adj) > 1 and data.draw(st.integers(0, 3)):
            keep, drop = data.draw(st.permutations(list(state.adj)))[:2]
            state.merge(keep, drop)
        else:
            states.append(state.clone())
        for state in states:
            _recount(state)
            frozen = copy.deepcopy(rng)
            assert state.pick_weighted_edge(rng) == \
                _Contraction(state.adj, {}).pick_weighted_edge(frozen)
            assert rng.next_u64() == frozen.next_u64()


@pytest.mark.parametrize("n, density", [
    (52, F(1)), (52, F(1, 2)),
    # With `_SCAN_DENSITY` at 8, densities 1/10 and 1/6 start sparse and
    # turn dense under contraction, so one run takes phases of both kinds;
    # 1/4 is dense from the start.
    (60, F(1, 10)), (60, F(1, 6)), (60, F(1, 4))])
def test_stoer_wagner_matches_the_reference_on_dense_gram(n, density):
    graph = graph_from_gram(gen_random_gram(n, 7, density))
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)



def benchmark_plan(workload: str, seed: int):
    """The instances of `perfbench/workloads.py`'s plan for one pass."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.plan(workload, seed)


@pytest.mark.parametrize("inst", [
    pytest.param(inst, id=f"n{inst.n}-d{inst.density}")
    for inst in benchmark_plan("dense_gram", 1) if inst.command == ("svp",)])
def test_stoer_wagner_matches_the_reference_on_the_dense_gram_plan(inst):
    # Most of these runs end at their first phase, proved by its own
    # bound or by the rounds; on the rest the phases stop at the first cut
    # that the rounds show minimal.
    graph = graph_from_gram(
        gen_random_gram(inst.n, inst.seed, Fraction(inst.density)))
    assert mincut.stoer_wagner(graph) == stoer_wagner(graph)
