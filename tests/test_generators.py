from fractions import Fraction

import pytest

from latcut import (
    GramMatrix,
    InstanceSpec,
    Superbase,
    brute_force_mincut,
    brute_force_short_vector,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    generate,
    graph_from_gram,
    selling_parameters,
    short_vector,
    stoer_wagner,
    validate_gram,
    validate_superbase,
)
from latcut.generators import DEFAULT_DENSITY, MAX_N
from conftest import seeds_from

F = Fraction


# --- A_n ---------------------------------------------------------------------

def test_an_vectors_are_cyclic_shifts():
    sb = gen_an(3)
    assert sb.vectors == (
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (-1, 0, 0, 1),
    )


def test_a1_gram():
    sb = gen_an(1)
    assert sb.vectors == ((1, -1), (-1, 1))
    assert selling_parameters(sb).entries == ((2, -2), (-2, 2))


def test_an_min_cut_weight_is_two():
    for n in (1, 2, 5, 9):
        graph = graph_from_gram(selling_parameters(gen_an(n)))
        cut = stoer_wagner(graph)
        assert cut.weight == 2
        chosen = set(cut.side)
        boundary = sum(1 for v in chosen if (v + 1) % (n + 1) not in chosen)
        assert boundary == 1  # one cyclic run of consecutive vertices


# --- A_n* --------------------------------------------------------------------

def test_anstar_gram_values():
    g = selling_parameters(gen_anstar(4))
    for i in range(5):
        for j in range(5):
            assert g.entries[i][j] == (F(4, 5) if i == j else F(-1, 5))


def test_a1star_short_vector():
    sb = gen_anstar(1)
    assert sb.vectors == ((F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)))
    result = short_vector(sb)
    assert result.squared_length == F(1, 2)


def test_anstar_min_cut_is_n_over_n_plus_one():
    for n in (1, 2, 4, 7):
        graph = graph_from_gram(selling_parameters(gen_anstar(n)))
        cut = stoer_wagner(graph)
        assert cut.weight == F(n, n + 1)
        assert len(cut.side) in (1, n)


def test_anstar_graph_is_complete_with_uniform_weight_at_size():
    """A_n*'s every column is dense, so its products come from the shifted
    columns and the rank-two correction: the complete graph, every weight
    1 over the scale n + 1, each map's keys ascending."""
    for n in [*range(1, 65), 200]:
        graph = graph_from_gram(gen_anstar(n))
        assert graph.scale == n + 1
        assert [list(neighbours.items()) for neighbours in graph.adjacency] \
            == [[(j, 1) for j in range(n + 1) if j != i] for i in range(n + 1)]


# --- Z^n ---------------------------------------------------------------------

def test_z2_star_superbase():
    assert gen_zn(2).vectors == ((1, 0), (0, 1), (-1, -1))


def test_zn_gram_and_star_graph():
    n = 4
    g = selling_parameters(gen_zn(n))
    for i in range(n):
        assert g.entries[i][i] == 1
        assert g.entries[i][n] == -1
    assert g.entries[n][n] == n
    graph = graph_from_gram(g)
    assert graph.scale == 1
    assert graph.adjacency == (*({n: 1} for _ in range(n)),
                               {i: 1 for i in range(n)})
    assert brute_force_mincut(graph).weight == 1


def test_zn_short_vector_is_a_unit_vector():
    for n in range(1, 11):
        g = selling_parameters(gen_zn(n))
        assert short_vector(g).squared_length == 1
        assert brute_force_short_vector(g).squared_length == 1


def test_an_cycle_and_zn_star_at_size():
    """A_n's and Z^n's columns are sparse, so no column is shifted: the
    unit cycle (a doubled edge at n = 1) and the unit star, keys
    ascending, over the scale 1."""
    for n in [*range(1, 65), 160]:
        side = n + 1
        cycle = [sorted({(i - 1) % side, (i + 1) % side}) for i in range(side)]
        graph = graph_from_gram(gen_an(n))
        assert graph.scale == 1
        assert [list(neighbours.items()) for neighbours in graph.adjacency] \
            == [[(j, 2 if n == 1 else 1) for j in js] for js in cycle]
        graph = graph_from_gram(gen_zn(n))
        assert graph.scale == 1
        assert [list(neighbours.items()) for neighbours in graph.adjacency] \
            == [[(n, 1)]] * n + [[(j, 1) for j in range(n)]]


# --- example3d ----------------------------------------------------------------

def test_example3d_exact_vectors():
    h = F(1, 2)
    assert gen_example3d().vectors == (
        (1, -h, 0),
        (-h, 1, 0),
        (0, 0, 1),
        (-h, -h, -1),
    )


def test_example3d_no_singleton_is_shortest():
    sb = gen_example3d()
    g = selling_parameters(sb)
    assert short_vector(g).squared_length == F(1, 2)
    for i in range(4):
        assert g.entries[i][i] > F(1, 2)


# --- random Gram matrices -------------------------------------------------------

def test_random_gram_is_deterministic():
    a = gen_random_gram(5, seed=7, density=F(1, 2))
    b = gen_random_gram(5, seed=7, density=F(1, 2))
    assert a.entries == b.entries


def test_random_gram_different_seeds_differ():
    a = gen_random_gram(5, seed=7)
    b = gen_random_gram(5, seed=8)
    assert a.entries != b.entries


def test_random_gram_revalidates():
    """Revalidating the entries gives the same object: rows over the
    canonical scale, not only equal values."""
    for seed in seeds_from(64, 20):
        g = gen_random_gram(2 + seed % 8, seed=seed)
        assert validate_gram(g.entries) == g


def test_random_gram_connected_hence_positive_min_cut():
    for seed in seeds_from(512, 20):
        g = gen_random_gram(6, seed=seed, density=F(1, 10))
        assert stoer_wagner(graph_from_gram(g)).weight > 0


def test_random_gram_density_one_is_complete():
    g = gen_random_gram(5, seed=3, density=1)
    graph = graph_from_gram(g)
    assert sum(map(len, graph.adjacency)) == 2 * 15


def test_random_gram_oracle_equivalence():
    for seed in seeds_from(2048, 10):
        g = gen_random_gram(2 + seed % 9, seed=seed)
        assert short_vector(g).squared_length == \
            brute_force_short_vector(g).squared_length


def test_random_gram_rejects_bad_density():
    with pytest.raises(ValueError):
        gen_random_gram(3, seed=1, density=0)
    with pytest.raises(ValueError):
        gen_random_gram(3, seed=1, density=F(3, 2))


# --- whole-family validation sweep ----------------------------------------------

def test_every_family_validates_up_to_64():
    """Each generated superbase is the one its coordinates validate to,
    over the canonical scale: the generators check nothing, so this is
    their check, up to the largest n the benchmark generates."""
    cases = [(make, n) for n in range(1, 65)
             for make in (gen_an, gen_anstar, gen_zn)]
    for make, n in cases + [(gen_an, 160), (gen_zn, 160), (gen_anstar, 48)]:
        sb = make(n)
        assert validate_superbase(sb.vectors) == sb
    sb = gen_example3d()
    assert validate_superbase(sb.vectors) == sb


def test_200_random_grams_validate():
    """Each generated Gram matrix is the one its entries validate to, at
    small n and at every n and density the benchmark generates."""
    cases = [(1 + seed % 10, seed, DEFAULT_DENSITY)
             for seed in seeds_from(9000, 200)]
    cases += [(n, seed, density) for n, seed in zip(range(12, 53),
                                                    seeds_from(9001, 41))
              for density in (1, F(1, 2), F(1, 10))]
    for n, seed, density in cases:
        g = gen_random_gram(n, seed=seed, density=density)
        assert g.n == n
        assert validate_gram(g.entries) == g
    assert len(cases) == 200 + 41 * 3


# --- generate / InstanceSpec -----------------------------------------------------

def test_generate_dispatch():
    assert isinstance(generate(InstanceSpec("an", 3)), Superbase)
    assert isinstance(generate(InstanceSpec("example3d", 3)), Superbase)
    assert isinstance(
        generate(InstanceSpec("random_gram", 4, seed=9)), GramMatrix
    )


def test_generate_enforces_invariants():
    with pytest.raises(ValueError):
        generate(InstanceSpec("example3d", 4))
    with pytest.raises(ValueError):
        generate(InstanceSpec("random_gram", 4))
    with pytest.raises(ValueError):
        generate(InstanceSpec("an", 0))
    with pytest.raises(ValueError):
        generate(InstanceSpec("dn", 4))
    for family in ("an", "anstar", "zn", "random_gram"):
        with pytest.raises(ValueError, match=f"n must be <= {MAX_N},"):
            generate(InstanceSpec(family, MAX_N + 1, seed=1))


def test_generate_builds_up_to_its_cap():
    assert len(generate(InstanceSpec("an", MAX_N)).rows) == MAX_N + 1
