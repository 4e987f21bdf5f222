"""Global minimum cuts of weighted undirected graphs, exactly.

Three routes to the same answer, kept deliberately independent so they
can cross-check each other:

* :func:`stoer_wagner`: deterministic maximum-adjacency phases.  A phase
  on a dense graph scans for each next vertex, O(|V|^2), so O(|V|^3) in
  all; one on a sparse graph keeps a lazy-deletion heap, O(|E| log |V|),
  since every relaxation pushes.  Both give the same cuts.  It returns
  the first phase cut of least weight, so it stops at the first phase
  cut that weighs the minimum cut's weight, lambda: a tie never
  replaces the best cut, so later phases cannot change the answer.  Its
  first phase is the prover's first round, so it learns lambda with its
  first phase cut; only a second phase copies the graph.
* :func:`karger_stein`: randomized recursive contraction, reproducible
  for a fixed (seed, trials) pair.  It learns lambda before its first
  trial and stops at the first trial whose cut weighs lambda, however
  many were asked for, and a trial at its first branch whose cut weighs
  lambda: the later trials and branches could at most tie, and the
  answer is the same.
* :func:`brute_force_mincut`: exhaustive enumeration, the oracle.

The one prover, :func:`_lightest`, gives lambda exactly, from the graph
alone, and each route asks it once, up front.  It starts from the least
degree delta, which bounds lambda, and walks the first round, a
maximum-adjacency order (Stoer & Wagner, JACM 44(4), 1997) on the
graph's own maps.  That walk's own bound, the path test of Padberg &
Rinaldi (Math. Programming 47, 1990, test PR4) along the order, raised
to a vertex's degree where their degree test PR2 allows, proves stars,
uniform complete graphs and cycles.  Else it runs the rounds of
Nagamochi, Ono and Ibaraki (Math. Programming 67, 1994) for the value
only, on a throwaway contracted copy.  The routes stay independent
because each stops on a proof from the graph alone, never on another
route's answer.  The phases and the rounds share two walks of one
maximum-adjacency order, :func:`_scan_walk` for dense graphs and
:func:`_heap_walk` for sparse ones, chosen by :func:`_walk` from the
graph's own edge count; both take each vertex's PR4/PR2 term from one
rule, :func:`_term`.

A :class:`WeightedGraph` holds its rational weights as Python ints over
one common denominator, fixed when it is built: a Gram matrix's own, or
a superbase's products' reduced one.  :func:`graph_from_gram` builds it
from either lattice through the one checked gate,
:func:`latcut.lattice._cut_graph`.  All three algorithms run on those
ints and divide once, when they build the returned :class:`Cut`; every
comparison stays exact, so ties and minima are bit-reproducible.

Brute force and the Karger-Stein base case share one exhaustive walker,
:func:`_min_cut_walk`, built from half tables.  It splits the vertices
other than 0 into a low and a high half and tables, each by doubling a
list, the cut of vertex 0 joined with each part of either half, and each
high vertex's weight into every low part.  It then walks the high
parts in Gray-code order: each step adds or takes off one high vertex's
row, and one `min` weighs every side with that high part, so the inner
loops run at list speed and the tables hold O(2^(|V|/2)) entries.  Each
caller breaks ties by a total order of its own, so the answer does not
depend on the walk order: brute force takes the smallest (weight, size,
sorted indices), the base case the smallest (weight, mask over the
sorted supervertices), and it reads its side's members from the state
at once, so a found cut carries its own side.  Karger-Stein keeps the
total edge weight and each vertex's upper-row sum up to date across
merges, by one rule: edge {a, b} counts in the sum of min(a, b).  So a
pick skips whole rows and sorts only the one it lands in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import add, sub
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import EmptySide, TooLarge
from .lattice import (GramMatrix, Superbase, _cut_graph, _scaled,
                      as_rational)
from .rng import Xoshiro256StarStar, derive_seeds

BRUTE_FORCE_LIMIT = 24

# Below this many supervertices Karger-Stein switches to exhaustive search.
_CONTRACTION_BASE = 6

# A walk, a Stoer-Wagner phase or a round of `_lightest`, scans its keys
# when _SCAN_DENSITY * |E| >= |V|^2, that is when about a quarter or more
# of all vertex pairs are edges, and uses the heap otherwise.  Timed per
# phase on random graphs of 17 to 129 vertices, a scan took 0.38-0.84
# times the heap's time where |V|^2 <= 8|E|, 0.55-1.09 times where
# 9|E| <= |V|^2 <= 15|E| and 1.06-1.43 times where |V|^2 >= 18|E| (the
# sweep is in CHANGES.md).
_SCAN_DENSITY = 8

# What a walk gives: (s, t, t's key, low, joined); see `_scan_walk`.
_Order = tuple[int, int, int, int, list[tuple[int, int]]]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on vertices 0..vertex_count-1 with rational weights.

    `adjacency[i][j]` is the weight of edge {i, j} times `scale`, stored
    both ways and only when positive; loops cannot change any cut, so
    none are stored.  Build through :meth:`from_edges`.  The cut
    algorithms read `adjacency` and `scale` only; `vertex_count` is a
    view for callers.  Treat as immutable.
    """

    adjacency: tuple[dict[int, int], ...]
    scale: int

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable) -> "WeightedGraph":
        """Build a graph, merging parallel edges and dropping zero weights;
        raises TooLarge if their common denominator passes the cap."""
        if vertex_count < 2:
            raise ValueError("a graph needs at least 2 vertices")
        merged: dict[tuple[int, int], Fraction] = {}
        for i, j, w in edges:
            if not 0 <= i < vertex_count or not 0 <= j < vertex_count:
                raise ValueError(f"edge ({i},{j}) is out of range")
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            weight = as_rational(w)
            if weight.numerator < 0:
                raise ValueError(f"edge ({i},{j}) has negative weight {weight}")
            if not weight.numerator:
                continue
            key = (i, j) if i < j else (j, i)
            previous = merged.get(key)
            merged[key] = weight if previous is None else previous + weight
        # Scaling by the positive lcm of the denominators preserves every
        # sum, comparison and tie; the algorithms divide once, in the Cut.
        scaled, scale = _scaled({key: w.as_integer_ratio()
                                 for key, w in merged.items()}, "edge weights")
        adj: tuple[dict[int, int], ...] = tuple({} for _ in range(vertex_count))
        for (i, j), w in scaled.items():
            adj[i][j] = adj[j][i] = w
        return cls(adj, scale)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)


@dataclass(frozen=True)
class Cut:
    """One side of a graph cut together with its exact crossing weight.

    The complement side is an equally valid representative of the same
    cut; algorithms return whichever side they discovered.
    """

    side: tuple[int, ...]
    weight: Fraction


def graph_from_gram(lattice: GramMatrix | Superbase) -> WeightedGraph:
    """Graph whose edge weights are the negated off-diagonal Gram entries.

    Vertex i stands for superbase vector i; a strictly negative q_ij
    becomes an edge of weight -q_ij, and q_ij = 0 means no edge.  A
    GramMatrix gives its entries and keeps its scale; a Superbase gives
    the products of its vectors, straight from its rows, over their
    reduced scale, with no Gram matrix built.  Either is checked as its
    validator checks it, with its classes and messages, so that no cut
    weighs 0: a GramMatrix raises ShapeMismatch, NotSymmetric,
    ObtuseViolation, RowSumNotZero, WrongRank or TooLarge, a Superbase
    ShapeMismatch, SumNotZero, ObtuseViolation, RankDeficient or TooLarge.
    """
    return WeightedGraph(*_cut_graph(lattice))


def cut_weight(graph: WeightedGraph, side: Iterable[int]) -> Cut:
    """Exact total weight of the edges crossing between `side` and the rest.

    Sums the integer weights leaving `side` and divides once.
    """
    adj = graph.adjacency
    chosen = set(side)
    for v in chosen:
        if not 0 <= v < len(adj):
            raise ValueError(f"vertex {v} is out of range")
    if not chosen or len(chosen) == len(adj):
        raise EmptySide("a cut needs a nonempty side and a nonempty complement")
    total = sum(w for v in chosen for u, w in adj[v].items() if u not in chosen)
    return Cut(tuple(sorted(chosen)), Fraction(total, graph.scale))


def stoer_wagner(graph: WeightedGraph) -> Cut:
    """Deterministic global minimum cut.

    Repeats maximum-adjacency phases, each time merging the two vertices
    added last; the lightest cut-of-the-phase is a global minimum cut.
    A phase on a dense graph (see `_SCAN_DENSITY`) finds each next vertex
    by scanning every key, O(|V|^2) per phase; on a sparse one it keeps a
    lazy-deletion heap, O(|E| log |V|) per phase.  Both add the vertex of
    largest key, the lowest index among equal keys, so they add the same
    vertices in the same order: vertex 0 starts every phase and is never
    merged away, and the result is a pure function of the graph.
    A disconnected graph legitimately yields a weight-0 cut.

    It returns the first phase cut of least weight, so once it knows the
    minimum cut's weight, lambda, it stops at the first phase cut that
    weighs lambda: later phases could at most tie, and a tie never
    replaces the best cut.  It asks `_lightest` for lambda once, before
    any phase, and takes the prover's first round, walked on the graph's
    own maps, as its first phase: a walk's order does not depend on its
    bound, only the edges it lists do.  That phase's cut is the best so
    far, and on a star, a uniform complete graph or a cycle its own bound
    proves it minimal.  Only when it weighs more than lambda does it copy
    the graph, merge the first phase's last two vertices and walk the
    later phases, at an infinite bound.
    """
    adjacency = graph.adjacency
    least, (s, t, phase_cut, _, _) = _lightest(adjacency)
    best = (phase_cut, (t,))  # weight, members
    if least < phase_cut:  # a later phase's cut weighs least
        state = _Contraction.from_adjacency(adjacency)
        state.merge(s, t)
        while best[0] > least:
            s, t, phase_cut, _, _ = _walk(state.adj, math.inf)
            if phase_cut < best[0]:
                best = (phase_cut, state.members[t])
            state.merge(s, t)
    return Cut(tuple(sorted(best[1])), Fraction(best[0], graph.scale))


def _walk(adj: dict[int, dict[int, int]], bound: float) -> _Order:
    """One maximum-adjacency order: by scan when the graph is dense (see
    `_SCAN_DENSITY`; its maps hold 2|E| entries), else from a heap."""
    if _SCAN_DENSITY * sum(map(len, adj.values())) >= 2 * len(adj) ** 2:
        return _scan_walk(adj, bound)
    return _heap_walk(adj, bound)


def _scan_walk(adj: dict[int, dict[int, int]], bound: float) -> _Order:
    """One maximum-adjacency order by scanning: (s, t, t's key, low,
    joined), for a Stoer-Wagner phase and for a round of `_lightest`.

    The order starts from the first vertex of `adj`, so `key` starts from
    its weights, and goes on with the largest key, the lowest index among
    equal keys.  After each added vertex t, one walk over the keys left
    adds t's weights to the keys it reaches, sums t's paths, min(key,
    weight) with each key read before its update, and finds the next
    vertex.  s and t are the last two vertices added; low is the least,
    over the vertices added after the first, of `_term`: key plus paths,
    or the vertex's degree where the PR2 test lets it (see `_lightest`).
    Only a vertex whose key plus paths is below the least so far can
    lower low, so only then is `_term` called and the degree summed.
    joined lists each edge (t, u) whose q, u's key just after t's weight
    is added, reaches `bound` (see `_lightest`); the first vertex's are
    its edges of weight at least `bound`, as in `_heap_walk`.  A later
    such key is at most the largest key left, so t's map is read for them
    only when that key reaches `bound`: the phases after the first, whose
    bound is infinite, pay one test per vertex.  The bound changes only
    `joined`, never the order.  `key` is built ascending and only ever
    popped, so the walk meets the keys in ascending order, and the first
    largest key it meets is the lowest index among the largest.
    """
    key = dict.fromkeys(adj, 0)
    t = next(iter(key))
    del key[t]
    key.update(adj[t])
    v = max(key, key=key.__getitem__)
    joined = [(t, u) for u, w in adj[t].items() if w >= bound]
    s = t
    low = math.inf
    while key:
        s, t, last = t, v, key.pop(v)
        paths = 0
        nbrs = adj[t]
        top = -1
        for u, k in key.items():
            w = nbrs.get(u)
            if w:
                paths += k if k < w else w
                key[u] = k = k + w
            if k > top:
                top, v = k, u
        if top >= bound:  # an edge of t may reach it
            joined += [(t, u) for u in nbrs if key.get(u, 0) >= bound]
        if last + paths < low:
            low = _term(last, paths, nbrs, low)
    return s, t, last, low, joined


def _heap_walk(adj: dict[int, dict[int, int]], bound: float) -> _Order:
    """One maximum-adjacency order from a heap: what `_scan_walk` gives.

    The keys and the heap start from the first vertex's weights, so the
    heap starts with its neighbours.  The heap holds only vertices of
    positive key, the largest key and then the lowest index first; a
    stale entry is below its vertex's key and is skipped.  When the heap
    is empty every key left is 0, and the lowest unreached vertex goes
    next.  The walk over an added vertex's neighbours sums its paths,
    which lower `low` through `_term` as in `_scan_walk`, and lists each
    edge whose q, the key it has just pushed, reaches `bound`.
    """
    key = dict.fromkeys(adj, 0)
    t = next(iter(key))
    del key[t]
    key.update(adj[t])
    joined = [(t, u) for u, w in adj[t].items() if w >= bound]
    heap = [(-w, u) for u, w in adj[t].items()]
    heapify(heap)
    unreached = filter(key.__contains__, adj)  # ascending, lazy
    s = t
    low = math.inf
    while key:
        neg, v = heappop(heap) if heap else (0, next(unreached))
        if key.get(v) != -neg:
            continue  # already added, or a stale key
        del key[v]
        s, t, last = t, v, -neg
        paths = 0
        for u, w in adj[v].items():
            k = key.get(u)
            if k is not None:
                paths += k if k < w else w
                key[u] = k = k + w
                heappush(heap, (-k, u))
                if k >= bound:
                    joined.append((v, u))
        if last + paths < low:
            low = _term(last, paths, adj[v], low)
    return s, t, last, low, joined


def _term(last: int, paths: int, nbrs: dict[int, int], low: float) -> float:
    """A walk's new `low` after it adds a vertex whose key `last` plus
    `paths` is below `low`: that sum, PR4's term, or the vertex's degree,
    at most `low`, where PR2 lifts the term to it (see `_lightest`)."""
    degree = sum(nbrs.values())
    if last + paths < degree <= 2 * last:
        return degree if degree < low else low
    return last + paths


def default_trial_count(vertex_count: int) -> int:
    """ceil((log2 |V|)^2) + 8, the default randomized trial count."""
    return math.ceil(math.log2(vertex_count) ** 2) + 8


def _subproblem_size(order: int) -> int:
    """ceil(1 + order / sqrt(2)), computed without floating point."""
    k = math.isqrt(order * order // 2)
    while 2 * k * k < order * order:
        k += 1
    return 1 + k


class _Contraction:
    """Mutable contraction state: surviving vertices with integer-weight
    neighbor maps, and the original vertices each one absorbed.  `adj`
    and `members` iterate in ascending vertex order (built so; `merge`
    only deletes keys and rebinds values), so nothing sorts them; neighbor
    maps have no order.  `members` values are immutable tuples: `merge`
    rebinds them, so a tuple read from a state never changes, and a copy
    of the state copies only the dict."""

    __slots__ = ("adj", "members")

    def __init__(self, adj: dict[int, dict[int, int]],
                 members: dict[int, tuple[int, ...]]):
        self.adj = adj
        self.members = members

    @classmethod
    def from_adjacency(cls, adj: Sequence[dict[int, int]]) -> "_Contraction":
        """A fresh state over copies of `adj`; the maps are not modified."""
        return cls(
            {v: dict(nbrs) for v, nbrs in enumerate(adj)},
            {v: (v,) for v in range(len(adj))},
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
        self.members[keep] += self.members.pop(drop)


class _SampledContraction(_Contraction):
    """A contraction state that also picks edges by weight, for
    Karger-Stein.  Stoer-Wagner merges a plain one, which pays nothing for
    sums it never reads.

    It keeps two running sums: `total`, the weight of all edges, and
    `upper[i]`, the weight of the edges {i, j} with j > i, keyed in the
    same ascending order as `adj`.  `merge` updates both in O(deg drop).
    Only these states are cloned, by Karger-Stein's branches."""

    __slots__ = ("total", "upper")

    def __init__(self, adj: dict[int, dict[int, int]],
                 members: dict[int, tuple[int, ...]]):
        super().__init__(adj, members)
        self.upper = {i: sum([w for j, w in nbrs.items() if j > i])
                      for i, nbrs in adj.items()}
        self.total = sum(self.upper.values())

    def clone(self) -> "_SampledContraction":
        twin = object.__new__(_SampledContraction)
        twin.adj = {v: dict(nbrs) for v, nbrs in self.adj.items()}
        twin.members = dict(self.members)
        twin.total = self.total
        twin.upper = dict(self.upper)
        return twin

    def merge(self, keep: int, drop: int) -> None:
        """Contract `drop` into `keep`, and move the sums with the edges.

        Edge {a, b} counts in upper[min(a, b)].  Edge {u, drop} leaves
        upper[min(u, drop)] and, unless u is `keep`, becomes part of {u,
        keep} and joins upper[min(u, keep)]; edge {keep, drop} leaves the
        graph.  upper[drop] leaves with drop, so only the rows below drop
        are taken from.
        """
        upper = self.upper
        adj = self.adj
        for u, w in adj[drop].items():
            if u < drop:
                upper[u] -= w
            if u != keep:
                upper[u if u < keep else keep] += w
        self.total -= adj[keep].get(drop, 0)
        del upper[drop]
        super().merge(keep, drop)

    def pick_weighted_edge(self, rng: Xoshiro256StarStar):
        """A random edge, chosen with probability proportional to weight.

        With u uniform in [0, 2^64), the edges {i, j}, i < j, are taken in
        ascending (i, j) order, and the pick is the first one whose running
        total acc satisfies total * u / 2^64 < acc, compared exactly in
        integers.  Whole rows are skipped by their upper-row sums, so only
        the chosen row is sorted and walked.
        """
        if not self.total:
            return None
        # floor(total * u / 2^64) < acc exactly when total * u / 2^64 < acc
        threshold = self.total * rng.next_u64() >> 64
        acc = 0
        for i, row_sum in self.upper.items():
            if threshold < acc + row_sum:
                nbrs = self.adj[i]
                for j in sorted([j for j in nbrs if j > i]):
                    acc += nbrs[j]
                    if threshold < acc:
                        return (i, j)
            acc += row_sum
        raise AssertionError("weighted edge walk must terminate")


def _recursive_contraction(state: _SampledContraction,
                           rng: Xoshiro256StarStar, least: int
                           ) -> tuple[int, list[tuple[int, ...]]]:
    """The lighter cut of two branches, each contracted from `state`, as
    (weight, parts): parts are the `members` of the supervertices on its
    side, read from the state as the cut is weighed.

    At most `_CONTRACTION_BASE` supervertices, every cut is weighed.  A
    side is a mask over the supervertices in ascending order, so it
    contains the lowest one, and the winner is the first lightest side in
    ascending mask order, the minimum of (weight, mask): a total order, so
    weighing the sides from half tables (:func:`_min_cut_walk`, straight
    on the state's maps, ties broken by the mask) finds the same side
    whatever the walk order.

    Otherwise each branch contracts random edges, picked by weight, down
    to `_subproblem_size` supervertices and recurses.  The first branch
    contracts a copy and the second `state` itself, which nothing reads
    afterwards.  A branch that runs out of edges first has a cut of
    weight 0, its lowest supervertex alone.

    `least` is the minimum cut's weight, lambda, and a node returns at the
    first branch whose cut weighs it, with the cut it would return after
    weighing both:
    - no cut is lighter, and a node keeps its first branch's cut unless
      the second's is strictly lighter, so that branch's cut is the
      node's;
    - every ancestor then holds lambda and returns too, and so does the
      trial, so the draws the skipped branches would have made are never
      read;
    - contraction keeps the connected components, so a branch runs out
      of edges exactly when its sibling would: the weight-0 return fires
      in the first branch or in neither, as before.
    """
    if len(state.adj) <= _CONTRACTION_BASE:
        weight, mask = _min_cut_walk(state.adj, None)
        return weight, [state.members[v] for k, v in enumerate(state.adj)
                        if mask >> k & 1]
    target = _subproblem_size(len(state.adj))
    best = None
    for branch in (state.clone(), state):
        while len(branch.adj) > target:
            edge = branch.pick_weighted_edge(rng)
            if edge is None:  # the lowest supervertex, cut off
                return 0, [branch.members[min(branch.adj)]]
            branch.merge(*edge)
        candidate = _recursive_contraction(branch, rng, least)
        if candidate[0] == least:
            return candidate  # no cut is lighter: this cut is the node's
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best


def karger_stein(graph: WeightedGraph, seed: int, trials: int) -> Cut:
    """Randomized minimum cut by repeated recursive contraction.

    Runs at most `trials` independent trials and returns the lightest cut
    found (ties resolved toward the earliest trial).  Each trial's
    generator is seeded from its own splitmix64-derived stream, drawn as
    the trial starts, so the result depends only on (graph, seed, trials)
    and trials could run in any order or in parallel without changing it.
    The returned weight is always an upper bound on the true minimum.

    It asks `_lightest` for the minimum cut's weight once, before the
    first trial, and the trials stop at the first one whose cut weighs
    that much: every later trial could at most tie, and a tie never
    replaces the best cut, so the result is the `Cut` of running them all;
    skipping a trial changes no other trial's draws.  Within a trial,
    `_recursive_contraction` stops at its first branch whose cut weighs
    that much, for the same reason.  The prover's first round proves a
    star's, a uniform complete graph's or a cycle's lambda, with no more
    rounds, and a trial on a cycle or a uniform star weighs one base case:
    contracting either keeps its minimum cut.  A trial's cut carries the
    members of its side, so the winner's side is their sorted union.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    adjacency = graph.adjacency
    least = _lightest(adjacency)[0]  # the minimum cut's weight
    best = None
    for trial_seed in derive_seeds(seed, trials):
        rng = Xoshiro256StarStar(trial_seed)
        candidate = _recursive_contraction(
            _SampledContraction.from_adjacency(adjacency), rng, least)
        if best is None or candidate[0] < best[0]:
            best = candidate
        if best[0] == least:
            break
    assert best is not None
    return Cut(tuple(sorted(chain.from_iterable(best[1]))),
               Fraction(best[0], graph.scale))


def _lightest(adjacency: Sequence[dict[int, int]]) -> tuple[int, _Order]:
    """(lambda, first): lambda the weight of a lightest cut, decided
    exactly, and `first` the first round's walk, on the maps of
    `adjacency`; both routes learn lambda from this one call, and
    Stoer-Wagner takes `first` as its first phase.

    The bound starts at the least degree delta: a vertex alone is a cut,
    so lambda <= delta, and the prover keeps min(bound, lambda), which is
    lambda, as it lowers the bound.  The first round walks at bound delta
    (at an infinite one when delta is 0, so it lists no edge) on a view of
    the maps, none copied.  Its own bound answers first.  A walk on H
    adds v_0, v_1, ..., v_{k-1} with keys r_i = w(M_i, v_i), M_i =
    {v_0..v_{i-1}}, and sums paths_i, the sum of min(w(M_i, u), w(v_i,
    u)) over the vertices u added after v_i.  Take any cut of H, S its
    side that holds v_0, and v_i the first added vertex outside S, so
    i >= 1: the cut separates M_i from v_i, so it crosses the M_i-v_i
    edges, of weight r_i, and for every other vertex u either the M_i-u
    or the v_i-u edges (the path test PR4 of Padberg and Rinaldi, Math.
    Programming 47, 1990, on the maximum-adjacency order).  Their degree
    test PR2 raises v_i's term to its degree d(v_i) in H when r_i +
    paths_i < d(v_i) <= 2 r_i: a cut whose first added vertex outside S
    is v_i either is {v_i} alone, of weight d(v_i), or moving v_i into S
    gives a cut no heavier, since w(v_i, S) >= r_i, whose first added
    vertex outside S comes later.  So the moves lead from any cut to one
    no heavier that some term bounds, and no cut of H weighs less than
    low, the least term over i >= 1, which is never below min_{i>=1}
    (r_i + paths_i).  delta is the answer once low reaches it: on a star,
    on a complete graph with equal weights, on a cycle, and always at a
    delta of 0.  Else the rounds of Nagamochi and Ibaraki (SIAM J.
    Discrete Math. 5, 1992), as Nagamochi, Ono and Ibaraki run them (Math.
    Programming 67, 1994), decide it on a throwaway copy of `adjacency`,
    starting with `first`.

    Each round is one walk of a maximum-adjacency order, by `_walk`'s
    rule.  Give each edge e = (v, u), v added first, the value q(e): u's
    key just after e's weight is added.  Every cut that separates u from v
    weighs at least q(e), and the last key, t's, is the minimum cut
    between the last two vertices s and t.  So a round contracts s with t
    and every edge the walk listed, those with q(e) at least the bound it
    walked with.  That keeps every cut lighter than the bound, and every
    cut of the contracted graph is one of the original; a contracted
    vertex's degree is such a cut, and lowers the bound when lighter.  A
    merge changes no other vertex's degree, so every degree of the copy
    stays at or above the bound, t's key, t's degree, among them: the
    round's last pair never shows a lighter cut.  So min(bound, lambda)
    never changes, and an edge joined for one bound may be joined for any
    lower one, so the rounds go on with the same copy.  Each walk's `low`
    ends them: no cut of the copy is lighter, so the bound is the answer
    once `low` reaches it, and 0 is once `low` is 0, which only a key of 0
    makes.  A round always contracts s and t, so otherwise the rounds end
    with one vertex left and no cut lighter than the bound.
    """
    view = dict(enumerate(adjacency))
    bound = min(map(sum, map(dict.values, adjacency)))
    first = _walk(view, bound or math.inf)
    if first[3] >= bound:
        return bound, first
    state = _Contraction.from_adjacency(adjacency)
    adj = state.adj
    s, t, _, low, joined = first
    while low < bound:
        if not low:  # a key of 0: the vertices added before it are cut off
            return 0, first
        root: dict[int, int] = {}  # each vertex merged away, to its keeper
        for a, b in [*joined, (s, t)]:
            while a in root:
                a = root[a]
            while b in root:
                b = root[b]
            if a != b:
                state.merge(a, b)
                root[b] = a
        if len(adj) == 1:
            break  # no cut lighter than the bound survived, so none was
        for v in adj.keys() & root.values():
            degree = sum(adj[v].values())
            if degree < bound:
                bound = degree
        s, t, _, low, joined = _walk(adj, bound)
    return bound, first


def brute_force_mincut(graph: WeightedGraph) -> Cut:
    """Exhaustive minimum cut; the oracle the fast algorithms are tested against.

    Weighs every side containing vertex 0 (each distinct cut exactly
    once) from two half tables, a list operation per part of the high
    half (see :func:`_min_cut_walk`).  Ties break toward the smaller side,
    then the lexicographically smallest sorted index list: a total order,
    so the result is the minimum of (weight, size, indices) whatever the
    walk order.  Refuses graphs with more than 24 vertices.
    """
    count = len(graph.adjacency)
    if count > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"{count} vertices means {2 ** (count - 1) - 1} cuts; "
            f"the exhaustive limit is {BRUTE_FORCE_LIMIT} vertices"
        )
    weight, mask = _min_cut_walk(dict(enumerate(graph.adjacency)),
                                 _size_then_indices)
    return Cut(_mask_indices(mask), Fraction(weight, graph.scale))


def _size_then_indices(mask: int) -> tuple[int, tuple[int, ...]]:
    """A side mask's tie order: its size, then its sorted indices."""
    return mask.bit_count(), _mask_indices(mask)


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _min_cut_walk(adj: Mapping[int, Mapping[int, int]],
                  key: Callable[[int], Any] | None) -> tuple[int, int]:
    """(weight, side mask) of a lightest cut of a graph on k >= 2 vertices.

    `adj` maps each vertex to its neighbours' weights; its keys, in
    iteration order, are labelled 0..k-1, and bit i of a side mask stands
    for label i.  Every side that contains label 0 is weighed, except the
    full side.  Labels 1..a, a = k // 2, form the low half and a+1..k-1
    the high half, so each side is {0} u L u H for a low part L and a high
    part H, and, with d the degree and w(L, H) the weight between them,

        cut({0} u L u H) = cut({0} u L) + cut({0} u H) - d(0) - 2 w(L, H).

    Tables hold the terms, each built by doubling a list: cut({0} u P)
    for every part P of either half (:func:`_cuts`), and for each high
    vertex h its row, 2 w(h, L) for every L (:func:`_sums`).  The walk
    visits the high parts in reflected Gray-code order, so each step
    moves one high vertex h across, and keeps `lows[L]` = cut({0} u L) -
    2 w(L, H): h's row is taken off when h joins H and put back when it
    leaves, one list operation.  One `min` over `lows` then gives the
    lightest side with this H; with H full, the last L, which would make
    the full side, is left out.  Only when that minimum is at or below
    the best so far are its tied sides gathered; the least `key(side)`
    among them and the best so far wins.  `key` must be a strict total
    order (None compares the masks), which makes the winner independent
    of the walk.  The tables hold O(2^(k/2)) entries, and the walk's
    inner loops are list operations over the 2^a low parts.
    """
    count = len(adj)
    low = count // 2
    labels = list(adj)
    twice = [2 * nbrs.get(u, 0) for nbrs in adj.values() for u in labels]
    degree = [sum(nbrs.values()) for nbrs in adj.values()]
    lows = _cuts(twice, degree, 1, low + 1)
    high_cuts = _cuts(twice, degree, low + 1, count)
    rows = [_sums(0, twice[h * count + 1:h * count + low + 1])
            for h in range(low + 1, count)]
    full = len(high_cuts) - 1
    part = 0
    best_weight, best_side = degree[0], 1  # {0}, met again in the walk
    for step in range(full + 1):
        if step:
            t = (step & -step).bit_length() - 1  # the step's trailing zeros
            part ^= 1 << t
            lows = list(map(sub if part >> t & 1 else add, lows, rows[t]))
        sides = lows if part != full else lows[:-1]
        least = min(sides)
        weight = least + high_cuts[part] - degree[0]
        if weight <= best_weight:
            high = part << low + 1 | 1
            if sides.count(least) == 1:  # the usual case, at list speed
                tied = [high | sides.index(least) << 1]
            else:
                tied = [high | i << 1
                        for i, x in enumerate(sides) if x == least]
            if weight == best_weight:
                tied.append(best_side)
            best_weight, best_side = weight, min(tied, key=key)
    return best_weight, best_side


def _sums(first: int, weights: Sequence[int]) -> list[int]:
    """`first` plus the sum of each part of `weights`, by part mask: bit t
    of the index stands for weights[t]."""
    table = [first]
    for w in weights:
        table += [x + w for x in table]
    return table


def _cuts(twice: Sequence[int], degree: Sequence[int],
          first: int, stop: int) -> list[int]:
    """cut({0} u P) for each part P of the labels first..stop-1, by part
    mask, on k = len(degree) labels with 2 w(v, u) at twice[v * k + u]:
    adding v to {0} u P adds d(v) and takes off 2 w(v, {0} u P)."""
    table = [degree[0]]
    for v in range(first, stop):
        at = v * len(degree)
        table += list(map(sub, table, _sums(twice[at] - degree[v],
                                            twice[at + first:at + v])))
    return table
