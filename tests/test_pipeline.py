from fractions import Fraction

import pytest

import latcut.lattice
import latcut.pipeline
from latcut import (
    ALGORITHMS,
    CertificateError,
    Cut,
    GramMatrix,
    ImproperAssignment,
    Superbase,
    TooLarge,
    WeightedGraph,
    ZeroWeightCut,
    brute_force_short_vector,
    candidate_vectors,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    quadratic_form,
    selling_parameters,
    short_vector,
    validate_gram,
    validate_superbase,
    verify_reduction,
)
from conftest import random_superbase, seeds_from

F = Fraction


def _unit_difference(vec):
    """True when vec has exactly one +1, one -1, and zeros elsewhere."""
    return sorted(vec) == [-1] + [0] * (len(vec) - 2) + [1]


# --- short_vector ------------------------------------------------------------

def test_an_short_vector_is_unit_difference():
    result = short_vector(gen_an(3))
    assert result.squared_length == 2
    assert _unit_difference(result.coordinates)


def test_anstar_short_vector_is_a_superbase_vector():
    sb = gen_anstar(3)
    result = short_vector(sb)
    assert result.squared_length == F(3, 4)
    side = result.subset
    assert len(side) in (1, 3)
    if len(side) == 1:
        assert result.coordinates == sb.vectors[side[0]]


def test_example3d_short_vector():
    sb = gen_example3d()
    result = short_vector(sb)
    assert result.squared_length == F(1, 2)
    assert result.subset in ((0, 1), (2, 3))
    expected = (F(1, 2), F(1, 2), F(0)) if result.subset == (0, 1) \
        else (F(-1, 2), F(-1, 2), F(0))
    assert result.coordinates == expected


def test_gram_only_input_has_no_coordinates():
    result = short_vector(selling_parameters(gen_an(4)))
    assert result.coordinates is None
    assert result.squared_length == 2


def test_all_algorithms_agree_on_random_grams():
    for seed in seeds_from(777, 15):
        g = gen_random_gram(2 + seed % 9, seed=seed)
        det = short_vector(g)
        brute = short_vector(g, "brute")
        rand = short_vector(g, "karger", seed=seed)
        oracle = brute_force_short_vector(g)
        assert det.squared_length == brute.squared_length
        assert det.squared_length == oracle.squared_length
        assert rand.squared_length >= det.squared_length


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        short_vector(selling_parameters(gen_an(2)), "magic")


def test_a_validated_superbase_is_solved_from_its_memo(monkeypatch):
    """short_vector(sb) on the superbase validated last takes the Gram
    matrix its validation built, and reads no Fraction view."""
    def refuse(*_):
        raise AssertionError("products recomputed or a Fraction view read")

    rows = [[1, F(-1, 2), 0], [F(-1, 2), 1, 0], [0, 0, 1], [F(-1, 2), F(-1, 2), -1]]
    cases = [(lambda: gen_anstar(4), F(4, 5)),
             (lambda: validate_superbase(rows), F(1, 2))]
    for validated, expected in cases:
        sb = validated()  # the superbase validated last
        with monkeypatch.context() as patched:
            patched.setattr(latcut.lattice, "_pairwise_products", refuse)
            patched.setattr(Superbase, "vectors", property(refuse))
            patched.setattr(GramMatrix, "entries", property(refuse))
            result = short_vector(sb)
            with pytest.raises(AssertionError):  # the patch is live
                short_vector(Superbase(sb.rows, sb.scale))
        assert result.squared_length == expected
        assert sum(x * x for x in result.coordinates) == expected


def test_corrupted_cut_fails_its_certificate(monkeypatch):
    g = selling_parameters(gen_an(5))
    assert short_vector(g).squared_length == 2
    for forged in (Cut((0,), F(3)), Cut((0, 2), F(2))):
        monkeypatch.setattr(latcut.pipeline, "stoer_wagner", lambda graph: forged)
        with pytest.raises(CertificateError):
            short_vector(g)


def test_corrupted_coordinates_fail_the_certificate(monkeypatch):
    sb = gen_example3d()
    assert short_vector(sb).squared_length == F(1, 2)
    monkeypatch.setattr(
        Superbase, "subset_sum", lambda self, subset: (F(1), F(0), F(0))
    )
    with pytest.raises(CertificateError):
        short_vector(sb)


def test_zero_weight_cut_detected():
    # a disconnected Laplacian smuggled past validation
    block = (
        (1, -1, 0, 0),
        (-1, 1, 0, 0),
        (0, 0, 1, -1),
        (0, 0, -1, 1),
    )
    with pytest.raises(ZeroWeightCut):
        short_vector(GramMatrix(block, 1))


# --- brute_force_short_vector --------------------------------------------------

def test_a2_brute_force_tie_break():
    g = validate_gram([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    result = brute_force_short_vector(g)
    assert result.squared_length == 2
    assert result.subset == (0,)


def test_example3d_brute_force():
    g = selling_parameters(gen_example3d())
    result = brute_force_short_vector(g)
    assert result.squared_length == F(1, 2)
    assert result.subset == (0, 1)


def test_one_dimensional_brute_force():
    g = validate_gram([[1, -1], [-1, 1]])
    result = brute_force_short_vector(g)
    assert result.squared_length == 1
    assert result.subset == (0,)


def test_brute_force_size_guard():
    size = 25
    entries = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        entries[i][i + 1] = entries[i + 1][i] = -1
    for i in range(size):
        entries[i][i] = -sum(entries[i][j] for j in range(size) if j != i)
    with pytest.raises(TooLarge):
        brute_force_short_vector(GramMatrix(tuple(map(tuple, entries)), 1))


# --- candidate_vectors ----------------------------------------------------------

def test_a2_candidates_are_the_six_unit_differences():
    sb = validate_superbase([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
    candidates = candidate_vectors(sb)
    assert len(candidates) == 6
    assert all(c.squared_length == 2 for c in candidates)
    assert all(_unit_difference(c.coordinates) for c in candidates)
    assert len({c.coordinates for c in candidates}) == 6


def test_example3d_candidates():
    sb = gen_example3d()
    candidates = candidate_vectors(sb)
    assert len(candidates) == 14
    assert candidates[0].squared_length == F(1, 2)
    singles = [c for c in candidates if len(c.subset) == 1]
    assert len(singles) == 4
    assert all(c.squared_length > F(1, 2) for c in singles)


def test_one_dimensional_candidates():
    sb = validate_superbase([[1], [-1]])
    candidates = candidate_vectors(sb)
    assert [c.squared_length for c in candidates] == [1, 1]


def test_candidates_sorted_and_consistent_with_oracle():
    for seed in seeds_from(31337, 6):
        sb = random_superbase(4, seed=seed)
        g = selling_parameters(sb)
        candidates = candidate_vectors(sb)
        assert len(candidates) == 2 ** (sb.n + 1) - 2
        lengths = [c.squared_length for c in candidates]
        assert lengths == sorted(lengths)
        assert candidates[0].squared_length == \
            brute_force_short_vector(g).squared_length
        for c in candidates:
            assert sum(x * x for x in c.coordinates) == c.squared_length


def test_minimizer_complement_attains_same_length():
    sb = gen_example3d()
    candidates = candidate_vectors(sb)
    best = candidates[0]
    size = sb.n + 1
    complement = tuple(i for i in range(size) if i not in best.subset)
    by_subset = {c.subset: c.squared_length for c in candidates}
    assert by_subset[complement] == best.squared_length


def test_candidates_size_guard():
    vectors = [[0] * 25 for _ in range(25)]
    for i in range(25):
        vectors[i][i] = 1
        vectors[i][(i + 1) % 25] = -1
    sb = validate_superbase(vectors)
    with pytest.raises(TooLarge):
        candidate_vectors(sb)


# --- verify_reduction ------------------------------------------------------------

def test_verify_reduction_on_cycle():
    g = selling_parameters(gen_an(3))
    assert verify_reduction(g, (1, 1, 0, 0)) == (2, 2)


def test_verify_reduction_on_example3d():
    g = selling_parameters(gen_example3d())
    assert verify_reduction(g, (1, 1, 0, 0)) == (F(1, 2), F(1, 2))


def test_verify_reduction_rejects_improper():
    g = selling_parameters(gen_an(3))
    with pytest.raises(ImproperAssignment):
        verify_reduction(g, (1, 1, 1, 1))
    with pytest.raises(ImproperAssignment):
        verify_reduction(g, (0, 0, 0, 0))


def test_verify_reduction_random_pairs():
    from latcut.rng import Xoshiro256StarStar

    rng = Xoshiro256StarStar(2718)
    for seed in seeds_from(161803, 10):
        g = gen_random_gram(2 + seed % 7, seed=seed)
        size = g.size
        for _ in range(10):
            bits = [rng.randrange(2) for _ in range(size)]
            if 0 < sum(bits) < size:
                q_value, cut_value = verify_reduction(g, bits)
                assert q_value == cut_value


# --- certificates ------------------------------------------------------------

def test_certificates_are_sound():
    cases = [gen_an(5), gen_anstar(4), gen_zn(6), gen_example3d()]
    cases += [random_superbase(4, seed=seed) for seed in seeds_from(5050, 5)]
    for sb in cases:
        g = selling_parameters(sb)
        size = g.size
        for algorithm in ALGORITHMS:
            result = short_vector(sb, algorithm, seed=3)
            gram_only = short_vector(g, algorithm, seed=3)
            assert gram_only.subset == result.subset
            assert gram_only.squared_length == result.squared_length
            assert gram_only.coordinates is None
            assert 0 < len(result.subset) < size
            bits = [1 if i in result.subset else 0 for i in range(size)]
            assert quadratic_form(g, bits) == result.squared_length
            assert verify_reduction(sb, bits) == verify_reduction(g, bits) \
                == (result.squared_length,) * 2
            assert sum(x * x for x in result.coordinates) == \
                result.squared_length
            assert result.squared_length > 0


def test_the_solve_path_builds_no_fraction_view_of_the_graph(monkeypatch):
    """The cut algorithms and the certificate read the graph's integers
    only: with its Fraction views patched to raise, every route solves."""
    def refuse(*_):
        raise AssertionError("a Fraction view of the graph was built")

    monkeypatch.setattr(WeightedGraph, "weights", property(refuse))
    monkeypatch.setattr(WeightedGraph, "weight", refuse)
    lattices = [gen_random_gram(6, seed=11)]
    for sb in (gen_example3d(), gen_anstar(5), random_superbase(4, seed=7)):
        lattices += [sb, selling_parameters(sb)]
    for lattice in lattices:
        g = lattice if isinstance(lattice, GramMatrix) \
            else selling_parameters(lattice)
        expected = brute_force_short_vector(g).squared_length
        for algorithm in ("stoer-wagner", "brute"):
            result = short_vector(lattice, algorithm)
            assert result.squared_length == expected
        # Karger-Stein's weight is an upper bound on the minimum.
        result = short_vector(lattice, "karger", seed=3)
        assert result.squared_length >= expected
        q_value, cut_value = verify_reduction(lattice, [1] + [0] * (g.size - 1))
        assert q_value == cut_value > 0
