"""Global minimum cuts of weighted undirected graphs, exactly.

Three routes to the same answer, kept deliberately independent so they
can cross-check each other:

* :func:`stoer_wagner`: deterministic maximum-adjacency phases with a
  lazy-deletion heap, O(|V||E| log |V|): every relaxation pushes.
* :func:`karger_stein`: randomized recursive contraction, reproducible
  for a fixed (seed, trials) pair.
* :func:`brute_force_mincut`: exhaustive enumeration, the oracle.

A :class:`WeightedGraph` holds its rational weights as Python ints over
one common denominator, fixed when it is built (by :func:`graph_from_gram`
from the Gram matrix's own).  All three algorithms run on those ints and
divide once, when they build the returned :class:`Cut`; every comparison
stays exact, so ties and minima are bit-reproducible.

Brute force and the Karger-Stein base case share one exhaustive walker,
:func:`_gray_min_cut`: it visits the sides in reflected Gray-code order,
moving one vertex per step at O(degree) cost.  Each caller breaks ties by
a total order of its own, so the answer does not depend on the walk
order: brute force takes the smallest (weight, size, sorted indices), the
base case the smallest (weight, mask over the sorted supervertices).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Iterable, Sequence

from .errors import EmptySide, TooLarge
from .lattice import GramMatrix, _capped, _scaled, as_rational
from .rng import Xoshiro256StarStar, derive_seeds

BRUTE_FORCE_LIMIT = 24

# Below this many supervertices Karger-Stein switches to exhaustive search.
_CONTRACTION_BASE = 6

# (weight over the graph's common denominator, sorted side)
_ScaledCut = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on vertices 0..vertex_count-1 with rational weights.

    `adjacency[i][j]` is the weight of edge {i, j} times `scale`, stored
    both ways and only when positive; loops cannot change any cut, so
    none are stored.  Build through :meth:`from_edges`.  The cut
    algorithms read `adjacency` and `scale` only; `vertex_count`,
    `weights` and `weight` are views for callers.  Treat as immutable.
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
        (weights,), scale = _scaled([list(merged.values())], "edge weights")
        adj: tuple[dict[int, int], ...] = tuple({} for _ in range(vertex_count))
        for (i, j), w in zip(merged, weights):
            adj[i][j] = adj[j][i] = w
        return cls(adj, scale)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def weights(self) -> dict[tuple[int, int], Fraction]:
        """Pairs (i, j) with i < j mapped to their strictly positive weight."""
        return {(i, j): Fraction(w, self.scale)
                for i, nbrs in enumerate(self.adjacency)
                for j, w in nbrs.items() if i < j}

    def weight(self, i: int, j: int) -> Fraction:
        """The weight of edge {i, j}: zero when there is none."""
        nbrs = self.adjacency[i] if 0 <= i < len(self.adjacency) else {}
        return Fraction(nbrs.get(j, 0), self.scale)


@dataclass(frozen=True)
class Cut:
    """One side of a graph cut together with its exact crossing weight.

    The complement side is an equally valid representative of the same
    cut; algorithms return whichever side they discovered.
    """

    side: tuple[int, ...]
    weight: Fraction


def graph_from_gram(g: GramMatrix) -> WeightedGraph:
    """Graph whose edge weights are the negated off-diagonal Gram entries.

    Vertex i stands for superbase vector i; a strictly negative q_ij
    becomes an edge of weight -q_ij, and q_ij = 0 means no edge.  The
    diagonal is ignored.  The graph keeps `g.scale`, which zero row sums
    make the edge weights' common denominator; past the cap, TooLarge.
    """
    adj: tuple[dict[int, int], ...] = tuple({} for _ in g.rows)
    for i, row in enumerate(g.rows):
        for j, x in enumerate(row[i + 1:], i + 1):
            if x < 0:
                adj[i][j] = adj[j][i] = -x
    return WeightedGraph(adj, _capped(g.scale, "edge weights"))


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
    A phase starts from an empty heap, which holds only vertices of
    positive key; when it is empty the lowest unreached vertex goes next,
    so vertex 0 starts every phase and is never merged away.  Ties break
    toward lower indices, so the result is a pure function of the graph.
    A disconnected graph legitimately yields a weight-0 cut.
    """
    state = _Contraction.from_adjacency(graph.adjacency)
    best: tuple[int, tuple[int, ...]] | None = None  # weight, members

    while len(state.adj) > 1:
        key = dict.fromkeys(state.adj, 0)
        unreached = filter(key.__contains__, state.adj)  # ascending, lazy
        heap: list[tuple[int, int]] = []
        s = t = 0
        while key:
            neg, v = heappop(heap) if heap else (0, next(unreached))
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
            best = (phase_cut, state.members[t])
        state.merge(s, t)

    assert best is not None
    return Cut(tuple(sorted(best[1])), Fraction(best[0], graph.scale))


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
    iterates in ascending vertex order (built so; `merge` only deletes
    keys; `clone` copies in order), so nothing sorts it; neighbor maps
    have no order.  `members` values are immutable tuples: `merge`
    rebinds them, so `clone` copies only the dict."""

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

    def clone(self) -> "_Contraction":
        return _Contraction(
            {v: dict(nbrs) for v, nbrs in self.adj.items()},
            dict(self.members),
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

    def pick_weighted_edge(self, rng: Xoshiro256StarStar):
        """A random edge, chosen with probability proportional to weight.

        With u uniform in [0, 2^64), the walk stops at the first edge whose
        running total acc satisfies total * u / 2^64 < acc, compared
        exactly in integers.
        """
        rows = self.adj.items()
        total = sum(w for i, nbrs in rows for j, w in nbrs.items() if j > i)
        if not total:
            return None
        threshold = total * rng.next_u64()
        acc = 0
        for i, nbrs in rows:
            for j in sorted(nbrs):
                if j <= i:
                    continue
                acc += nbrs[j]
                if threshold < acc << 64:
                    return (i, j)
        raise AssertionError("weighted edge walk must terminate")


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

    The supervertices, ascending, are relabelled 0..k-1, so a side is a bit
    mask that contains the lowest one.  The winner is the first lightest
    side in ascending mask order, i.e. the minimum of (weight, mask);
    that is a total order, so walking the sides in Gray-code order
    (:func:`_gray_min_cut`) finds the same side.
    """
    verts = list(state.adj)
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
            return 0, tuple(sorted(branch.members[min(branch.adj)]))
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
