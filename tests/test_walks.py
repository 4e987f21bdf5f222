"""The exhaustive walks against the ascending-order enumerations they replaced.

`brute_force_mincut` and the Karger-Stein base case, `_min_cut_walk`
on a contraction state's maps with ties broken by the mask, weigh their
sides from half tables: the cut of vertex 0 joined with every part of a
low and of a high half, and each high vertex's weight into every low
part, then a walk over the high parts in Gray-code order that moves one
high vertex's row per step and takes one `min` per part.
`candidate_vectors` and `latcut candidates` sort one packed integer key
per subset.  The reference enumerators below are the straightforward
loops: every subset in ascending mask order, each summed from scratch.
Both sides must return identical answers, ties included: on random
graphs with many ties, zero weights and several components; on 2 and 3
vertices, where the high half is empty or each half holds one vertex;
on edgeless graphs, where the tie order alone decides; at every size
from 2 to 14, odd and even; on contraction states with scattered labels;
and on superbases with tied lengths over a scale above 1.  The
candidates' memory per subset is bounded, and so is brute force's at its
24-vertex limit.
"""

import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import latcut  # noqa: E402
from latcut import (  # noqa: E402
    Candidate,
    Cut,
    GramMatrix,
    Superbase,
    WeightedGraph,
    WrongRank,
    brute_force_mincut,
    brute_force_short_vector,
    candidate_vectors,
    graph_from_gram,
    quadratic_form,
    validate_superbase,
)
from latcut.cli import format_superbase, run_cli  # noqa: E402
from latcut.generators import gen_anstar  # noqa: E402
from latcut.lattice import _entries  # noqa: E402
from latcut.mincut import _Contraction, _min_cut_walk, _side  # noqa: E402

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


def exhaustive_cut(state):
    """The base case's (weight, sorted side)."""
    weight, mask = _min_cut_walk(state.adj, None)
    return weight, _side((weight, mask, state))


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
    return Superbase(*_entries([[F(x) for x in row] for row in rows]))


@st.composite
def obtuse_superbases(draw):
    """Valid superbases of 2..8 vectors: a connected pattern of pairs laid
    out as the columns of an incidence matrix, +r at one end and -r at the
    other.  Distinct vectors then meet in at most one column, with product
    -r² <= 0.  r takes few values, so lengths tie, and needs a scale up to
    12."""
    count = draw(st.integers(2, 8))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, count)]
    pairs += draw(st.lists(st.sampled_from(
        [(i, j) for j in range(count) for i in range(j)]), max_size=count))
    entry = st.sampled_from((1, 1, 2, F(1, 2), F(-2, 3), F(3, 4)))
    vectors = [[F(0)] * len(pairs) for _ in range(count)]
    for column, (i, j) in enumerate(pairs):
        r = draw(entry)
        vectors[i][column], vectors[j][column] = r, -r
    return validate_superbase(vectors)


def cli(args, text=""):
    """stdout of a `latcut` command that succeeds with no stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(args, stdin=io.StringIO(text), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def candidates_stdout(sb):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["candidates", "-"], stdin=io.StringIO(format_superbase(sb)),
                   stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def parse_candidate(line):
    """A `candidates` line back as the Candidate it prints."""
    indices, length, coordinates = line.split(" | ")
    return Candidate(tuple(int(i) - 1 for i in indices.split(",")),
                     tuple(map(Fraction, coordinates.split())),
                     Fraction(length))


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
    assert exhaustive_cut(state) == reference_exhaustive_cut(state)
    assert state.adj == adj  # the walk leaves the state alone


def test_walks_match_on_every_small_unit_weight_graph():
    """Every graph on 2..5 vertices with weights 0 or 1: ties everywhere,
    including those where the first lightest side in the walk's order is
    not the first in ascending order."""
    for count in range(2, 6):
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
        for present in range(1 << len(pairs)):
            graph = WeightedGraph.from_edges(count, [
                (i, j, present >> k & 1) for k, (i, j) in enumerate(pairs)])
            assert_walks_match(graph)


def scattered(graph):
    """`graph` as a contraction state on the scattered labels 3, 5, 7, ...,
    each with one extra member."""
    return _Contraction(
        {2 * v + 3: {2 * u + 3: w for u, w in nbrs.items()}
         for v, nbrs in enumerate(graph.adjacency)},
        {2 * v + 3: (2 * v + 3, 2 * v + 4) for v in range(graph.vertex_count)},
    )


def assert_walks_match(graph):
    """Brute force on `graph`, and the base case on it with scattered
    labels, each equal to its reference, ties included."""
    assert brute_force_mincut(graph) == reference_brute_force_mincut(graph)
    state = scattered(graph)
    assert exhaustive_cut(state) == reference_exhaustive_cut(state)


def random_graph(rng, count, density):
    """`count` vertices, each pair an edge with probability `density`,
    weighted from WEIGHTS, so that many sides tie."""
    return WeightedGraph.from_edges(count, [
        (i, j, rng.choice(WEIGHTS)) for i in range(count)
        for j in range(i + 1, count) if rng.random() < density])


def test_walks_match_on_two_and_three_vertices():
    """At 2 vertices the high half is empty: its one part is the full
    one, so the walk weighs every low part but the last.  At 3 each half
    holds one vertex.  Every weighting from WEIGHTS, zero included."""
    for w in WEIGHTS:
        assert_walks_match(WeightedGraph.from_edges(2, [(0, 1, w)]))
    for a in WEIGHTS:
        for b in WEIGHTS:
            for c in WEIGHTS:
                assert_walks_match(WeightedGraph.from_edges(
                    3, [(0, 1, a), (0, 2, b), (1, 2, c)]))


@pytest.mark.parametrize("count", range(2, 15))
def test_walks_match_on_edgeless_and_disconnected_graphs(count):
    """Every side of an edgeless graph weighs 0, so the tie order alone
    picks the answer: {0} for brute force, the lowest supervertex for
    the base case.  Two or three components leave many sides at 0."""
    edgeless = WeightedGraph.from_edges(count, [])
    assert brute_force_mincut(edgeless) == Cut((0,), Fraction(0))
    assert exhaustive_cut(scattered(edgeless)) == (0, (3, 4))
    assert_walks_match(edgeless)
    rng = random.Random(count)
    for parts in (2, 3):
        component = [rng.randrange(parts) for _ in range(count)]
        assert_walks_match(WeightedGraph.from_edges(count, [
            (i, j, rng.choice(WEIGHTS[1:])) for i in range(count)
            for j in range(i + 1, count) if component[i] == component[j]]))


@pytest.mark.parametrize("count", range(2, 15))
def test_walks_match_at_odd_and_even_sizes(count):
    """Dense and sparse graphs at each size from 2 to 14, odd and even, so
    the halves are equal or the low half holds one more vertex."""
    rng = random.Random(count)
    for density in (1, 0.5, 0.2):
        assert_walks_match(random_graph(rng, count, density))
        assert_walks_match(WeightedGraph.from_edges(count, [
            (i, j, 1) for i in range(count) for j in range(i + 1, count)
            if rng.random() < density]))


@pytest.mark.parametrize("left", range(2, 9))
def test_exhaustive_cut_matches_on_merged_states(left):
    """States contracted from 12-vertex graphs down to 2..8 supervertices,
    odd and even, whose labels are scattered by the merges and most of
    which hold several vertices."""
    rng = random.Random(left)
    for density in (1, 0.5, 0.2):
        state = _Contraction.from_adjacency(
            random_graph(rng, 12, density).adjacency)
        while len(state.adj) > left:
            keep, drop = rng.sample(sorted(state.adj), 2)
            state.merge(keep, drop)
        assert exhaustive_cut(state) == reference_exhaustive_cut(state)


def peak_run(args, text):
    """stdout and peak resident set, in KiB as Linux gives it, of a
    `latcut` command fed `text`, run in an interpreter of its own, which
    reads its own peak as it ends."""
    child = ("import resource, sys\n"
             "from latcut.cli import run_cli\n"
             "code = run_cli(sys.argv[1:])\n"
             "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "print(peak, file=sys.stderr)\n"
             "sys.exit(code)\n")
    src = str(Path(latcut.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", child, *args], input=text,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0
    return done.stdout, int(done.stderr)


def test_brute_force_at_its_limit():
    """`svp --algorithm brute` on a 24-vertex graph, the most it accepts,
    gives Stoer-Wagner's squared length, and its peak resident set stays
    within 32 MB of the same command's on a 4-vertex graph, each in a
    process of its own: the walker's half tables take about 2.5 MB, and
    holding the 2^23 sides at once would take over 200 MB.  One vertex
    more is refused, exit 1, before any walk."""
    text = cli(["gen", "random_gram", "23", "--seed", "1", "--density", "1"])
    brute, peak = peak_run(["svp", "-", "--algorithm", "brute"], text)
    base = peak_run(["svp", "-", "--algorithm", "brute"],
                    cli(["gen", "example3d"]))[1]
    assert "squared length: 31939/840\n" in brute
    assert "squared length: 31939/840\n" in cli(["svp", "-"], text)
    assert peak - base < 32 * 1024
    text = cli(["gen", "random_gram", "24", "--seed", "1", "--density", "1"])
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["svp", "-", "--algorithm", "brute"],
                   stdin=io.StringIO(text), stdout=out, stderr=err) == 1
    assert (out.getvalue(), err.getvalue()) == (
        "", "error: 25 vertices means 16777215 cuts; "
        "the exhaustive limit is 24 vertices\n")


@given(superbases())
def test_candidate_vectors_match_the_ascending_enumeration(sb):
    assert candidate_vectors(sb) == reference_candidate_vectors(sb)


@given(obtuse_superbases())
def test_candidates_lines_parse_back_to_candidate_vectors(sb):
    expected = candidate_vectors(sb)
    assert expected == reference_candidate_vectors(sb)
    text = candidates_stdout(sb)
    assert [parse_candidate(line) for line in text.splitlines()] == expected
    # Each number as str(Fraction) prints it, each line ended by a newline.
    assert text == "".join(
        f"{','.join(str(i + 1) for i in c.subset)} | {c.squared_length} | "
        f"{' '.join(map(str, c.coordinates))}\n" for c in expected)


class _Sink:
    def write(self, text):
        pass


def test_candidates_memory_per_subset_is_bounded():
    """At n + 1 = 14 (A_13*: 16 382 subsets, 14 coordinates each), the
    traced peak per subset of the CLI's enumeration and formatting, whose
    output goes nowhere, and of `candidate_vectors`, whose list holds one
    Candidate per subset."""
    sb = gen_anstar(13)
    text, count = format_superbase(sb), 2 ** 14 - 2
    tracemalloc.start()
    try:
        assert run_cli(["candidates", "-"], stdin=io.StringIO(text),
                       stdout=_Sink()) == 0
        cli_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert len(candidate_vectors(sb)) == count
        list_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli_peak < 120 * count
    assert list_peak < 450 * count


@given(graphs(max_vertices=10))
def test_brute_force_mincut_matches_the_subset_oracle(graph):
    g = laplacian(graph)
    cut = brute_force_mincut(graph)
    assert cut.weight == brute_force_short_vector(g).squared_length
    # graph_from_gram rebuilds a connected graph and refuses the rest.
    if cut.weight:
        assert graph_from_gram(g) == graph
    else:
        with pytest.raises(WrongRank):
            graph_from_gram(g)
    bits = [1 if i in cut.side else 0 for i in range(g.size)]
    assert quadratic_form(g, bits) == cut.weight
