"""The paper's theorem against the whole lattice, not only subset sums.

For a lattice of Voronoi's first kind, given by an obtuse superbase, a
shortest nonzero vector is a sum of a subset of the superbase, so its
squared length is the weight of a minimum cut of the Selling graph.
Every other oracle in the suite searches subset sums and so assumes
that claim.  This one does not: a Fincke-Pohst enumeration (Fincke &
Pohst, Math. Comp. 44, 1985), in exact Fraction arithmetic over the
LDL^T of the Gram matrix of the first n vectors, lists every lattice
vector x_1 b_1 + ... + x_n b_n up to the reported squared length.  It
must find none shorter, and at least one of equal length.

On a superbase that is not obtuse the theorem fails, and the oracle
shows it: the triple (3, 0), (-5, 1), (2, -1) sums to zero, its
shortest subset sum has squared length 5, and 2 b_1 + b_2 = (1, 1) has
squared length 2.
"""

import math
import random
from fractions import Fraction
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    GramMatrix,
    ObtuseViolation,
    Superbase,
    ValidationError,
    candidate_vectors,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    short_vector,
    validate_superbase,
)

F = Fraction


def ldl(gram):
    """G = L D L^T with L unit lower triangular: (L, the diagonal of D)."""
    n = len(gram)
    low = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [F(0)] * n
    for j in range(n):
        diag[j] = gram[j][j] - sum(low[j][k] ** 2 * diag[k] for k in range(j))
        assert diag[j] > 0, "the first n vectors are not independent"
        for i in range(j + 1, n):
            low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k] * diag[k]
                                          for k in range(j))) / diag[j]
    return low, diag


def lattice_points(gram, bound):
    """Every nonzero integer x with x^T G x <= bound, as (x, x^T G x).

    x^T G x = sum_i d_i (x_i + sum_{j > i} L_ji x_j)^2, so once
    x_{i+1}, ..., x_{n-1} are fixed, x_i runs over the integers around
    the centre -sum_{j > i} L_ji x_j that keep the partial sum within
    the bound, outwards from the centre in both directions.
    """
    low, diag = ldl(gram)
    n = len(gram)
    x = [0] * n
    found = []

    def descend(i, remaining):
        centre = -sum(low[j][i] * x[j] for j in range(i + 1, n))
        for step, start in ((-1, math.floor(centre)), (1, math.floor(centre) + 1)):
            value = start
            while diag[i] * (value - centre) ** 2 <= remaining:
                x[i] = value
                left = remaining - diag[i] * (value - centre) ** 2
                if i:
                    descend(i - 1, left)
                elif any(x):
                    found.append((tuple(x), bound - left))
                value += step
        x[i] = 0

    descend(n - 1, F(bound))
    return found


def first_gram(lattice):
    """The Gram matrix of the first n vectors, in Fractions: from the
    coordinates of a Superbase, or the leading block of a GramMatrix."""
    if isinstance(lattice, GramMatrix):
        return [list(row[:lattice.n]) for row in lattice.entries[:lattice.n]]
    basis = lattice.vectors[:lattice.n]
    return [[sum(map(mul, u, v)) for v in basis] for u in basis]


def check_theorem(lattice):
    """Nothing in the lattice is shorter than `short_vector`'s answer, and
    a lattice vector of that length exists."""
    answer = short_vector(lattice).squared_length
    points = lattice_points(first_gram(lattice), answer)
    assert points and min(q for _, q in points) == answer
    if isinstance(lattice, Superbase):
        basis = lattice.vectors[:lattice.n]
        for x, q in points:
            vector = [sum(map(mul, x, column)) for column in zip(*basis)]
            assert sum(map(mul, vector, vector)) == q


FAMILIES = [(gen, n) for gen in (gen_an, gen_zn, gen_anstar)
            for n in range(1, 9)]


@pytest.mark.parametrize("gen,n", FAMILIES,
                         ids=[f"{gen.__name__}-{n}" for gen, n in FAMILIES])
def test_no_lattice_vector_of_a_family_is_shorter(gen, n):
    check_theorem(gen(n))


def test_no_lattice_vector_of_example3d_is_shorter():
    check_theorem(gen_example3d())


def test_enumeration_finds_every_short_vector_of_z2():
    points = lattice_points([[F(1), F(0)], [F(0), F(1)]], 2)
    assert sorted(points) == sorted(
        ((a, b), F(a * a + b * b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
        if (a, b) != (0, 0))


def test_the_oracle_finds_what_subset_sums_miss_on_a_non_obtuse_triple():
    triple = Superbase(((3, 0), (-5, 1), (2, -1)), 1)
    best_subset_sum = candidate_vectors(triple)[0].squared_length
    assert best_subset_sum == 5
    points = lattice_points(first_gram(triple), best_subset_sum)
    shortest = min(q for _, q in points)
    assert shortest == 2 and ((2, 1), F(2)) in points  # 2 b_1 + b_2 = (1, 1)
    with pytest.raises(ObtuseViolation,
                       match=r"^inner product of vectors 1 and 3 is 6 > 0$"):
        validate_superbase(triple)


@st.composite
def obtuse_superbases(draw):
    """A random obtuse superbase of 2 to 7 vectors.

    Each pair of a random connected pattern gets a column holding +r and
    -r, so two vectors meet in at most one column, with product -r**2.
    Up to two columns of three random entries summing to zero are added;
    each raises one product, and they are redrawn from the drawn seed
    until every product stays nonpositive.  Rational rotations in random
    coordinate planes then mix the coordinates.
    """
    count = draw(st.integers(2, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, count)]
    pairs += [(i, j) for i in range(count) for j in range(i + 1, count)
              if (i, j) not in pairs and draw(st.booleans())]
    columns = [{i: r, j: -r} for i, j in pairs
               for r in [F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))]]
    extra = draw(st.integers(0, 2)) if count > 2 else 0
    turns = [(draw(st.integers(0, 99)), draw(st.integers(0, 99)),
              draw(st.sampled_from(((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13))))))
             for _ in range(draw(st.integers(0, 3)))]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        added = []
        for _ in range(extra):
            i, j, k = rng.sample(range(count), 3)
            a = F(rng.randint(1, 4), rng.randint(1, 3))
            b = F(rng.randint(-4, 4), rng.randint(1, 3))
            added.append({i: a, j: b, k: -a - b})
        vectors = [[column.get(i, F(0)) for column in columns + added]
                   for i in range(count)]
        for a, b, (c, s) in turns:
            a, b = a % len(vectors[0]), b % len(vectors[0])
            if a != b:
                for vector in vectors:
                    vector[a], vector[b] = (c * vector[a] - s * vector[b],
                                            s * vector[a] + c * vector[b])
        try:
            return validate_superbase(vectors)
        except ValidationError:
            continue


@settings(max_examples=60)
@given(obtuse_superbases())
def test_no_lattice_vector_of_a_random_obtuse_superbase_is_shorter(sb):
    check_theorem(sb)


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(0, 2 ** 64 - 1),
       st.sampled_from(("1", "1/2", "1/4")))
def test_no_lattice_vector_of_a_random_gram_matrix_is_shorter(n, seed, density):
    check_theorem(gen_random_gram(n, seed, density))
