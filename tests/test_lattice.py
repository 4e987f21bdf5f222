import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from latcut import (
    BinaryAssignment,
    LengthMismatch,
    NotSymmetric,
    ObtuseViolation,
    RankDeficient,
    RowSumNotZero,
    ShapeMismatch,
    SumNotZero,
    TooLarge,
    WrongRank,
    as_rational,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    quadratic_form,
    selling_parameters,
    validate_gram,
    validate_superbase,
)
from latcut.lattice import MAX_DENOMINATOR_BITS
from conftest import random_superbase, seeds_from

F = Fraction

A3_VECTORS = [
    [1, -1, 0, 0],
    [0, 1, -1, 0],
    [0, 0, 1, -1],
    [-1, 0, 0, 1],
]

EXAMPLE3D_GRAM = (
    (F(5, 4), F(-1), F(0), F(-1, 4)),
    (F(-1), F(5, 4), F(0), F(-1, 4)),
    (F(0), F(0), F(1), F(-1)),
    (F(-1, 4), F(-1, 4), F(-1), F(3, 2)),
)


# --- as_rational -----------------------------------------------------------

def test_as_rational_accepts_exact_forms():
    assert as_rational("5/4") == F(5, 4)
    assert as_rational("0.25") == F(1, 4)
    assert as_rational(-3) == F(-3)
    assert as_rational(F(1, 7)) == F(1, 7)
    assert as_rational("-3") == F(-3)
    assert as_rational("+1.50") == F(3, 2)
    assert as_rational("-.5") == F(-1, 2)
    assert as_rational("5.") == F(5)
    assert as_rational("-10/4") == F(-5, 2)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.25)


def test_as_rational_refuses_exponents_separators_and_decimal():
    for text in ("1e5", "1E-3", "2.5e0", "1_0", "1/1_0", "1e999999999"):
        with pytest.raises(ValueError, match="exponents and '_' digit "
                                             "separators are not accepted"):
            as_rational(text)
    with pytest.raises(TypeError):
        as_rational(Decimal("0.25"))


# --- validate_superbase ----------------------------------------------------

def test_a3_cyclic_shifts_validate():
    sb = validate_superbase(A3_VECTORS)
    assert sb.n == 3
    assert sb.m == 4


def test_z2_star_superbase_validates():
    sb = validate_superbase([[1, 0], [0, 1], [-1, -1]])
    g = selling_parameters(sb)
    assert g.entries[0][1] == 0
    assert g.entries[0][2] == -1
    assert g.entries[1][2] == -1


def test_sum_not_zero_reports_component_and_residual():
    with pytest.raises(SumNotZero) as info:
        validate_superbase([[1, 0], [0, 1], [1, -1]])
    assert info.value.component == 0
    assert info.value.residual == 2


def test_obtuse_violation_reports_pair_and_value():
    with pytest.raises(ObtuseViolation) as info:
        validate_superbase([[1, 0], [1, 1], [-2, -1]])
    assert info.value.pair == (0, 1)
    assert info.value.value == 1


def test_shape_mismatch_on_ragged_vectors():
    with pytest.raises(ShapeMismatch):
        validate_superbase([[1, 0], [0, 1, 0], [-1, -1]])
    with pytest.raises(ShapeMismatch):
        validate_superbase([[1, -1]])


def test_rank_deficient_on_degenerate_directions():
    cases = [
        # zero-sum and obtuse, but the first two vectors only span a line
        ([[1, 0], [-1, 0], [0, 0]], 2),
        # two orthogonal pairs: vectors 1, 3 and vectors 2, 4 never meet
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], 1),
    ]
    for vectors, unreachable in cases:
        with pytest.raises(RankDeficient) as info:
            validate_superbase(vectors)
        assert info.value.vector == unreachable
        assert f"vector {unreachable + 1} cannot be reached from vector 1" \
            in str(info.value)


def test_minimum_dimension_superbase():
    sb = validate_superbase([[1], [-1]])
    assert sb.n == 1
    assert selling_parameters(sb).entries == ((F(1), F(-1)), (F(-1), F(1)))


# --- selling_parameters ----------------------------------------------------

def test_a3_selling_parameters():
    g = selling_parameters(validate_superbase(A3_VECTORS))
    for i in range(4):
        for j in range(4):
            if i == j:
                expected = 2
            elif (i - j) % 4 in (1, 3):
                expected = -1
            else:
                expected = 0
            assert g.entries[i][j] == expected


def test_a3star_selling_parameters():
    g = selling_parameters(gen_anstar(3))
    for i in range(4):
        for j in range(4):
            assert g.entries[i][j] == (F(3, 4) if i == j else F(-1, 4))


def test_example3d_selling_parameters():
    g = selling_parameters(gen_example3d())
    assert g.entries == EXAMPLE3D_GRAM


# --- validate_gram ---------------------------------------------------------

def test_a3star_matrix_validates():
    g = validate_gram(
        [[F(3, 4) if i == j else F(-1, 4) for j in range(4)] for i in range(4)]
    )
    assert g.n == 3


def test_one_dimensional_gram_validates():
    g = validate_gram([[1, -1], [-1, 1]])
    assert g.n == 1


def test_identity_fails_row_sums():
    with pytest.raises(RowSumNotZero) as info:
        validate_gram([[1, 0], [0, 1]])
    assert info.value.row == 0
    assert info.value.residual == 1


def test_not_symmetric():
    with pytest.raises(NotSymmetric):
        validate_gram([[2, -2], [-1, 1]])


def test_gram_obtuse_violation():
    with pytest.raises(ObtuseViolation):
        validate_gram([[2, 1, -3], [1, 2, -3], [-3, -3, 6]])


def test_disconnected_gram_has_wrong_rank():
    cases = [
        ([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]], 2),
        # 1-2-4 is one component, reached only through vector 2; 3-5 the other
        ([[1, -1, 0, 0, 0], [-1, 2, 0, -1, 0], [0, 0, 1, 0, -1],
          [0, -1, 0, 1, 0], [0, 0, -1, 0, 1]], 2),
    ]
    for block, unreachable in cases:
        with pytest.raises(WrongRank) as info:
            validate_gram(block)
        assert info.value.vector == unreachable
        assert f"vector {unreachable + 1} cannot be reached from vector 1" \
            in str(info.value)


def test_zero_diagonal_is_wrong_rank():
    with pytest.raises(WrongRank) as info:
        validate_gram([[0, 0, 0], [0, 1, -1], [0, -1, 1]])
    assert info.value.vector == 1
    assert "vector 2 cannot be reached from vector 1" in str(info.value)


def test_selling_parameters_reuse_the_validated_matrix():
    sb = validate_superbase(A3_VECTORS)
    g = selling_parameters(sb)
    assert selling_parameters(sb) is g
    # an equal superbase that was not validated last gets a fresh, equal matrix
    other = validate_superbase(A3_VECTORS)
    fresh = selling_parameters(sb)
    assert fresh is not g and fresh == g == selling_parameters(other)


def test_gram_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        validate_gram([[1, -1]])
    with pytest.raises(ShapeMismatch):
        validate_gram([[1]])


# --- quadratic_form --------------------------------------------------------

def test_all_ones_gives_zero():
    for g in (
        selling_parameters(gen_an(4)),
        selling_parameters(gen_example3d()),
        gen_random_gram(6, seed=11),
    ):
        assert quadratic_form(g, [1] * g.size) == 0


def test_single_vector_value_is_diagonal():
    g = selling_parameters(validate_superbase(A3_VECTORS))
    assert quadratic_form(g, [1, 0, 0, 0]) == 2


def test_example3d_pair_value():
    g = selling_parameters(gen_example3d())
    assert quadratic_form(g, (1, 1, 0, 0)) == F(1, 2)


def test_length_mismatch():
    g = selling_parameters(gen_an(3))
    with pytest.raises(LengthMismatch):
        quadratic_form(g, [1, 0, 1])


def test_accepts_binary_assignment_objects():
    g = selling_parameters(gen_an(3))
    u = BinaryAssignment.from_subset([0, 1], 4)
    assert quadratic_form(g, u) == 2


# --- BinaryAssignment ------------------------------------------------------

def test_binary_assignment_basics():
    u = BinaryAssignment((1, 0, 1, 0))
    assert u.support == (0, 2)
    assert u.is_proper
    assert u.complement().bits == (0, 1, 0, 1)
    assert not BinaryAssignment((1, 1)).is_proper
    with pytest.raises(ValueError):
        BinaryAssignment((0, 2))


@pytest.mark.parametrize("index", [-1, 3, 7])
def test_from_subset_refuses_an_index_out_of_range(index):
    assert BinaryAssignment.from_subset([0, 2], 3).bits == (1, 0, 1)
    with pytest.raises(ValueError, match=f"index {index} is out of range 0..2"):
        BinaryAssignment.from_subset([1, index], 3)


@pytest.mark.parametrize("index", [-1, 4, 9])
def test_subset_sum_refuses_an_index_out_of_range(index):
    sb = gen_an(3)
    assert sb.subset_sum((0, 3)) == (0, -1, 0, 1)
    with pytest.raises(ValueError, match=f"index {index} is out of range 0..3"):
        sb.subset_sum((0, index))


# --- structural invariants -------------------------------------------------

def _instances():
    yield selling_parameters(gen_an(5))
    yield selling_parameters(gen_anstar(5))
    yield selling_parameters(gen_zn(5))
    yield selling_parameters(gen_example3d())
    for seed in seeds_from(101, 6):
        yield gen_random_gram(6, seed=seed)


def test_validated_grams_satisfy_invariants():
    for g in _instances():
        size = g.size
        for i in range(size):
            assert sum(g.entries[i]) == 0
            assert g.entries[i][i] > 0
            for j in range(size):
                assert g.entries[i][j] == g.entries[j][i]
                if i != j:
                    assert g.entries[i][j] <= 0


def test_complement_symmetry_exhaustive_small():
    for n in range(1, 7):
        g = selling_parameters(gen_an(n))
        size = n + 1
        for mask in range(1, (1 << size) - 1):
            bits = [mask >> i & 1 for i in range(size)]
            flipped = [1 - b for b in bits]
            assert quadratic_form(g, bits) == quadratic_form(g, flipped)


def test_complement_symmetry_random_large():
    from latcut.rng import Xoshiro256StarStar

    g = gen_random_gram(12, seed=303)
    rng = Xoshiro256StarStar(99)
    for _ in range(50):
        bits = [rng.randrange(2) for _ in range(g.size)]
        flipped = [1 - b for b in bits]
        assert quadratic_form(g, bits) == quadratic_form(g, flipped)


def test_selling_roundtrip_accepted_by_validate_gram():
    superbases = [
        gen_an(4),
        gen_anstar(6),
        gen_zn(5),
        gen_example3d(),
        random_superbase(5, seed=17),
    ]
    for sb in superbases:
        g = selling_parameters(sb)
        revalidated = validate_gram(g.entries)
        assert revalidated.entries == g.entries


def test_gram_space_matches_coordinate_space():
    for seed in seeds_from(2024, 8):
        sb = random_superbase(5, seed=seed)
        g = selling_parameters(sb)
        size = sb.n + 1
        for subset_size in range(1, size):
            for subset in itertools.combinations(range(size), subset_size):
                bits = [1 if i in subset else 0 for i in range(size)]
                vec = sb.subset_sum(subset)
                direct = sum(x * x for x in vec)
                assert quadratic_form(g, bits) == direct


# --- the common denominator cap ----------------------------------------------------

def _two_vector_gram(a):
    return [[a, -a], [-a, a]]


def test_validate_gram_accepts_a_denominator_at_the_cap():
    a = F(1, 2 ** (MAX_DENOMINATOR_BITS - 1))
    assert validate_gram(_two_vector_gram(a)).entries[0][0] == a


def test_validate_gram_refuses_a_denominator_past_the_cap():
    with pytest.raises(TooLarge, match=f"more than {MAX_DENOMINATOR_BITS} bits"):
        validate_gram(_two_vector_gram(F(1, 2 ** MAX_DENOMINATOR_BITS)))


def test_many_distinct_prime_denominators_are_refused():
    primes = [p for p in range(2, 20000)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    size = 40  # 1560 off-diagonal entries, each over its own prime
    it = iter(primes)
    rows = [[F(-1, next(it)) if i != j else F(0) for j in range(size)]
            for i in range(size)]
    with pytest.raises(TooLarge):
        validate_gram(rows)
