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
    assert g.weights == {(0, 1): F(3, 2)}
    assert g.weight(0, 1) == F(3, 2)
    assert g.weight(1, 2) == 0


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
    assert g.weights == {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}


def test_a3star_gives_quarter_weight_complete_graph():
    g = a3star_graph()
    assert g.vertex_count == 4
    assert len(g.weights) == 6
    assert all(w == F(1, 4) for w in g.weights.values())


def test_example3d_graph_edges():
    g = example3d_graph()
    assert g.weights == {
        (0, 1): 1,
        (2, 3): 1,
        (0, 3): F(1, 4),
        (1, 3): F(1, 4),
    }


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
                7, [(i, j, w * c) for (i, j), w in g.weights.items()]
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
