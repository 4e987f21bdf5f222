import tracemalloc
from fractions import Fraction

import pytest

from latcut import (
    EmptySide,
    TooLarge,
    WeightedGraph,
    brute_force_mincut,
    cut_weight,
    default_trial_count,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    graph_from_gram,
    karger_stein,
    selling_parameters,
    stoer_wagner,
)
from latcut import mincut
from latcut.lattice import MAX_DENOMINATOR_BITS
from conftest import random_graph, seeds_from

F = Fraction


def _gram(family, n):
    return selling_parameters(family(n))


def a3_graph():
    return graph_from_gram(_gram(gen_an, 3))


def a3star_graph():
    return graph_from_gram(_gram(gen_anstar, 3))


def example3d_graph():
    return graph_from_gram(selling_parameters(gen_example3d()))


# --- WeightedGraph construction --------------------------------------------

def test_from_edges_merges_parallel_and_drops_zeros():
    g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 0, F(1, 2)), (1, 2, 0)])
    assert g.adjacency == ({1: 3}, {0: 3}, {}) and g.scale == 2


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 1, -1)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 2, 1)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(1, [])


# --- graph_from_gram --------------------------------------------------------

def test_a3_gives_unit_cycle():
    g = a3_graph()
    assert g.vertex_count == 4
    assert g.scale == 1
    assert g.adjacency == ({1: 1, 3: 1}, {0: 1, 2: 1}, {1: 1, 3: 1},
                           {0: 1, 2: 1})


def test_a3star_gives_quarter_weight_complete_graph():
    g = a3star_graph()
    assert g.vertex_count == 4
    assert g.scale == 4
    assert g.adjacency == tuple({j: 1 for j in range(4) if j != i}
                                for i in range(4))


def test_example3d_graph_edges():
    g = example3d_graph()
    assert g.scale == 4
    assert g.adjacency == ({1: 4, 3: 1}, {0: 4, 3: 1}, {3: 4},
                           {0: 1, 1: 1, 2: 4})


# --- cut_weight --------------------------------------------------------------

def test_cycle_pair_cut_weighs_two():
    cut = cut_weight(a3_graph(), [0, 1])
    assert cut.weight == 2
    assert cut.side == (0, 1)


def test_complete_graph_singleton_weighs_three_quarters():
    assert cut_weight(a3star_graph(), [0]).weight == F(3, 4)


def test_empty_or_full_side_rejected():
    g = a3_graph()
    with pytest.raises(EmptySide):
        cut_weight(g, [])
    with pytest.raises(EmptySide):
        cut_weight(g, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        cut_weight(g, [7])


def test_cut_weight_complement_symmetry():
    for seed in seeds_from(41, 10):
        g = random_graph(7, seed)
        for side in ([0], [1, 3], [0, 2, 4], [5, 6]):
            rest = [v for v in range(7) if v not in side]
            assert cut_weight(g, side).weight == cut_weight(g, rest).weight


# --- stoer_wagner ------------------------------------------------------------

def _is_cyclic_interval(side, size):
    chosen = set(side)
    boundary = sum(1 for v in chosen if (v + 1) % size not in chosen)
    return boundary == 1


def test_sw_on_cycle_finds_interval_of_weight_two():
    cut = stoer_wagner(a3_graph())
    assert cut.weight == 2
    assert _is_cyclic_interval(cut.side, 4)


def test_sw_on_complete_graph_finds_singleton():
    cut = stoer_wagner(a3star_graph())
    assert cut.weight == F(3, 4)
    assert len(cut.side) == 1 or len(cut.side) == 3


def test_sw_on_example3d():
    cut = stoer_wagner(example3d_graph())
    assert cut.weight == F(1, 2)
    assert cut.side in ((0, 1), (2, 3))


def test_sw_two_vertex_graph():
    g = WeightedGraph.from_edges(2, [(0, 1, F(7, 3))])
    cut = stoer_wagner(g)
    assert cut.weight == F(7, 3)
    assert cut.side in ((0,), (1,))


def test_sw_disconnected_graph_returns_zero():
    g = WeightedGraph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
    cut = stoer_wagner(g)
    assert cut.weight == 0
    assert cut_weight(g, cut.side).weight == 0


def test_sw_is_deterministic():
    g = random_graph(9, seed=77)
    first = stoer_wagner(g)
    second = stoer_wagner(g)
    assert first == second


def test_sw_side_achieves_reported_weight():
    for seed in seeds_from(55, 25):
        g = random_graph(8, seed)
        cut = stoer_wagner(g)
        assert cut_weight(g, cut.side).weight == cut.weight


def test_sw_matches_brute_force_on_families():
    grams = []
    for n in range(1, 12):
        grams.append(_gram(gen_an, n))
        grams.append(_gram(gen_anstar, n))
        grams.append(_gram(gen_zn, n))
    grams.append(selling_parameters(gen_example3d()))
    for gram in grams:
        graph = graph_from_gram(gram)
        assert stoer_wagner(graph).weight == brute_force_mincut(graph).weight


def test_sw_matches_brute_force_on_random_graphs():
    count = 0
    for nv in range(2, 13):
        for seed in seeds_from(nv * 1000 + 17, 10):
            connected = seed % 2 == 0
            g = random_graph(nv, seed, connected=connected)
            assert stoer_wagner(g).weight == brute_force_mincut(g).weight
            count += 1
    for seed in seeds_from(314159, 90):
        g = random_graph(2 + seed % 11, seed)
        assert stoer_wagner(g).weight == brute_force_mincut(g).weight
        count += 1
    assert count >= 200


def test_scaling_weights_scales_min_cut():
    for c in (F(2), F(1, 3), F(7, 5)):
        for seed in seeds_from(606, 5):
            g = random_graph(7, seed)
            scaled = WeightedGraph.from_edges(
                7, [(i, j, F(w, g.scale) * c)
                    for i, nbrs in enumerate(g.adjacency)
                    for j, w in nbrs.items() if i < j]
            )
            assert stoer_wagner(scaled).weight == c * stoer_wagner(g).weight


# --- karger_stein ------------------------------------------------------------

def test_ks_small_graphs_are_exact_for_any_seed():
    for seed in (0, 1, 42, 2**63):
        assert karger_stein(a3star_graph(), seed, 32).weight == F(3, 4)
        assert karger_stein(example3d_graph(), 42, 32).weight == F(1, 2)


def test_ks_two_vertex_single_trial():
    g = WeightedGraph.from_edges(2, [(0, 1, F(5))])
    cut = karger_stein(g, seed=9, trials=1)
    assert cut.weight == 5
    assert cut.side in ((0,), (1,))


def test_ks_deterministic_for_fixed_seed_and_trials():
    g = random_graph(10, seed=123)
    a = karger_stein(g, seed=4, trials=6)
    b = karger_stein(g, seed=4, trials=6)
    assert a == b


def test_ks_never_beats_the_optimum():
    for seed in seeds_from(888, 12):
        g = random_graph(2 + seed % 9, seed)
        optimum = brute_force_mincut(g).weight
        for ks_seed in (0, 1, 7):
            for trials in (1, 3):
                cut = karger_stein(g, ks_seed, trials)
                assert cut.weight >= optimum
                assert cut_weight(g, cut.side).weight == cut.weight


def test_ks_with_default_trials_usually_finds_the_optimum():
    hits = 0
    cases = 30
    for seed in seeds_from(4242, cases):
        g = random_graph(9, seed)
        optimum = brute_force_mincut(g).weight
        cut = karger_stein(g, seed, default_trial_count(9))
        if cut.weight == optimum:
            hits += 1
    assert hits >= cases - 1


def test_ks_more_trials_never_hurts():
    # trial k's stream is independent of the trial count, so adding
    # trials can only lower (or keep) the best weight found
    g = random_graph(11, seed=2023)
    weights = [karger_stein(g, seed=6, trials=t).weight for t in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_ks_handles_disconnected_graphs():
    g = WeightedGraph.from_edges(8, [(i, i + 1, 1) for i in range(3)]
                                 + [(i, i + 1, 1) for i in range(4, 7)])
    assert karger_stein(g, seed=5, trials=4).weight == 0


def trials_run(monkeypatch, graph: WeightedGraph, trials: int, seed: int = 0):
    """`karger_stein(graph, seed, trials)` and the trials it ran, counted
    as the generators it made, one per trial."""
    made = []
    generator = mincut.Xoshiro256StarStar

    def counted(trial_seed):
        made.append(trial_seed)
        return generator(trial_seed)

    monkeypatch.setattr(mincut, "Xoshiro256StarStar", counted)
    return karger_stein(graph, seed, trials), len(made)


def test_ks_does_not_prove_a_cut_past_a_light_pendant_vertex(monkeypatch):
    # Vertex 4 hangs on vertex 1 by weight 1, the minimum cut.  At seed 281
    # the first trial cuts off vertex 6, of degree 5.  The prover answers
    # 1, the pendant vertex's degree, so that cut is not taken as proved
    # and the second trial runs and finds the pendant edge.
    graph = WeightedGraph.from_edges(8, [
        (0, 1, 5), (0, 2, 2), (0, 5, 1), (0, 6, 1), (1, 2, 3), (1, 3, 2),
        (1, 4, 1), (1, 5, 3), (2, 3, 2), (2, 5, 5), (2, 7, 5), (3, 5, 2),
        (3, 7, 3), (5, 6, 1), (5, 7, 2), (6, 7, 3)])
    assert karger_stein(graph, 281, 1).side == (0, 1, 2, 3, 4, 5, 7)
    cut, trials = trials_run(monkeypatch, graph,
                             default_trial_count(graph.vertex_count), seed=281)
    assert (cut.side, cut.weight, trials) == ((0, 1, 2, 3, 5, 6, 7), 1, 2)


def two_unit_k4s() -> WeightedGraph:
    return WeightedGraph.from_edges(8, [
        (i, j, 1) for i in range(8) for j in range(i + 1, 8)
        if i // 4 == j // 4])


@pytest.mark.parametrize("graph", [
    # The prover proves the first trial's cut on the cycle, the star, the
    # complete graph and example3d, whose 4 vertices the first trial
    # searches exhaustively; a cut of weight 0 needs no proof.
    pytest.param(graph_from_gram(_gram(gen_an, 7)), id="an7"),
    pytest.param(graph_from_gram(_gram(gen_zn, 7)), id="zn7"),
    pytest.param(graph_from_gram(_gram(gen_anstar, 7)), id="anstar7"),
    pytest.param(example3d_graph(), id="example3d"),
    pytest.param(two_unit_k4s(), id="two-k4"),
])
def test_ks_stops_once_its_cut_is_proved_minimal(monkeypatch, graph):
    cut, trials = trials_run(monkeypatch, graph,
                             default_trial_count(graph.vertex_count))
    assert trials == 1
    assert cut.weight == brute_force_mincut(graph).weight


@pytest.mark.parametrize("graph", [
    pytest.param(graph_from_gram(_gram(gen_an, 7)), id="an7"),
    pytest.param(graph_from_gram(_gram(gen_zn, 7)), id="zn7"),
    pytest.param(graph_from_gram(_gram(gen_anstar, 7)), id="anstar7"),
    pytest.param(example3d_graph(), id="example3d"),
    pytest.param(graph_from_gram(gen_random_gram(52, 7, F(1))), id="gram52"),
])
def test_each_route_asks_the_prover_once(monkeypatch, graph):
    # Both routes learn the minimum cut's weight from one `_lightest` call,
    # Karger-Stein before it draws its first trial's generator.
    asked = []
    lightest = mincut._lightest
    monkeypatch.setattr(mincut, "_lightest", lambda adjacency: (
        asked.append("prover"), lightest(adjacency))[1])
    generator = mincut.Xoshiro256StarStar
    monkeypatch.setattr(mincut, "Xoshiro256StarStar", lambda trial_seed: (
        asked.append("trial"), generator(trial_seed))[1])
    optimum = brute_force_mincut(graph).weight if graph.vertex_count <= 24 \
        else stoer_wagner(graph).weight
    asked.clear()
    assert stoer_wagner(graph).weight == optimum
    assert asked == ["prover"]
    asked.clear()
    cut = karger_stein(graph, 0, default_trial_count(graph.vertex_count))
    assert cut.weight == optimum
    assert asked[:2] == ["prover", "trial"]
    assert asked.count("prover") == 1


@pytest.mark.parametrize("n", [20, 40, 100])
def test_ks_proves_a_cycle_with_no_round(monkeypatch, n):
    # A_n's Selling graph is a unit cycle on n + 1 vertices, and contracting
    # a cycle leaves a cycle, so the first trial finds a cut of weight 2.
    # The prover walks its first round at the least degree, 2, and that
    # round's own bound, each vertex's degree by PR2, proves that no cut
    # is lighter, so no further round, a walk with a finite bound, runs
    # and the graph is not copied for the rounds; the rounds alone take
    # n - 1 on this cycle.
    graph = graph_from_gram(_gram(gen_an, n))
    bounds = []
    walk = mincut._walk
    monkeypatch.setattr(mincut, "_walk", lambda adj, bound: (
        bounds.append(bound), walk(adj, bound))[1])
    copied = []
    from_adjacency = mincut._Contraction.from_adjacency.__func__
    monkeypatch.setattr(mincut._Contraction, "from_adjacency", classmethod(
        lambda cls, adj: (copied.append(cls), from_adjacency(cls, adj))[1]))
    cut = karger_stein(graph, 0, default_trial_count(graph.vertex_count))
    assert cut.weight == 2
    assert [bound for bound in bounds if bound != float("inf")] == [2]
    assert mincut._Contraction not in copied


def test_ks_runs_its_trials_until_the_first_that_finds_the_minimum_cut(
        monkeypatch):
    # At seed 17, trials 1-3 miss this graph's minimum cut and trial 4
    # finds it.  The rounds never prove a missed cut minimal, and 7
    # vertices are too many for the exhaustive base case.
    graph = random_graph(7, seed=203)
    optimum = brute_force_mincut(graph).weight
    assert karger_stein(graph, 17, 3).weight > optimum
    cut, trials = trials_run(monkeypatch, graph,
                             default_trial_count(graph.vertex_count), seed=17)
    assert trials == 4
    assert cut.weight == optimum


def test_ks_ends_a_million_trials_at_the_first_that_finds_the_minimum_cut(
        monkeypatch):
    # Neither one phase's bound nor the contraction tests prove this
    # 7-vertex graph's minimum cut; the rounds prove it after trial 1,
    # which finds it.
    graph = graph_from_gram(gen_random_gram(6, seed=3, density=F(1)))
    cut, trials = trials_run(monkeypatch, graph, 10 ** 6)
    assert trials == 1
    assert cut.weight == brute_force_mincut(graph).weight


def test_ks_draws_each_seed_as_its_trial_starts():
    # A list of a million seeds alone takes about 42 MB.
    graph = example3d_graph()
    tracemalloc.start()
    try:
        cut = karger_stein(graph, 0, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cut.weight == F(1, 2)
    assert peak < 2 ** 20


def test_default_trial_count_grows_slowly():
    assert default_trial_count(2) == 9
    assert default_trial_count(4) == 12
    assert default_trial_count(11) == 20


# --- brute_force_mincut -------------------------------------------------------

def test_brute_force_on_cycle():
    assert brute_force_mincut(a3_graph()).weight == 2


def test_brute_force_on_example3d_picks_canonical_side():
    cut = brute_force_mincut(example3d_graph())
    assert cut.side == (0, 1)
    assert cut.weight == F(1, 2)


def test_brute_force_tie_break_prefers_small_side():
    # star: every leaf cut weighs 1; the smallest, lexicographically
    # first side containing vertex 0 wins
    g = graph_from_gram(_gram(gen_zn, 3))
    cut = brute_force_mincut(g)
    assert cut.weight == 1
    assert cut.side == (0,)


def test_brute_force_refuses_large_graphs():
    g = WeightedGraph.from_edges(25, [(i, i + 1, 1) for i in range(24)])
    with pytest.raises(TooLarge):
        brute_force_mincut(g)


def test_mincut_weight_positive_for_valid_grams():
    for seed in seeds_from(99, 20):
        g = graph_from_gram(gen_random_gram(6, seed=seed))
        assert stoer_wagner(g).weight > 0


def test_graph_weights_past_the_denominator_cap_are_refused():
    at_cap = WeightedGraph.from_edges(
        3, [(0, 1, F(1, 2 ** (MAX_DENOMINATOR_BITS - 1))), (1, 2, 1)])
    assert stoer_wagner(at_cap).weight == F(1, 2 ** (MAX_DENOMINATOR_BITS - 1))
    with pytest.raises(TooLarge):
        WeightedGraph.from_edges(
            3, [(0, 1, F(1, 2 ** MAX_DENOMINATOR_BITS)), (1, 2, 1)])
