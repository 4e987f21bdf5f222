"""`validate_superbase` against a plain-Fraction reference.

The validator scales every coordinate by one common denominator s, sums
columns and forms pairwise products on integers, and keeps the Selling
parameters as integers over s**2 reduced to the canonical scale.  The
reference below does every check directly in Fraction arithmetic.  Both
must raise the same exception, with the same attributes and message, or
agree on every Selling parameter.  Inputs give each vector its own
denominator, so the common denominator is a true lcm.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    ObtuseViolation,
    RankDeficient,
    Superbase,
    SumNotZero,
    ValidationError,
    selling_parameters,
    validate_superbase,
)

F = Fraction


def reference_validate(vectors):
    """Zero sum, obtuseness and connectivity, all in Fraction arithmetic."""
    rows = [tuple(map(F, vec)) for vec in vectors]
    for k, column in enumerate(zip(*rows)):
        if sum(column):
            raise SumNotZero(k, sum(column))
    q = [[sum(map(mul, u, v)) for v in rows] for u in rows]
    for i, j in combinations(range(len(rows)), 2):
        if q[i][j] > 0:
            raise ObtuseViolation((i, j), q[i][j])
    reached, stack = {0}, [0]
    while stack:
        for j, value in enumerate(q[stack.pop()]):
            if value and j not in reached:
                reached.add(j)
                stack.append(j)
    unreached = [j for j in range(len(rows)) if j not in reached]
    if unreached:
        raise RankDeficient(unreached[0])
    return tuple(map(tuple, q))


def outcome(validate, vectors):
    """The Selling parameters, or (exception class, attributes, message)."""
    try:
        result = validate(vectors)
    except ValidationError as exc:
        return type(exc), vars(exc), str(exc)
    if isinstance(result, Superbase):
        # Both the matrix validation kept and a fresh computation.
        fresh = selling_parameters(Superbase(result.rows, result.scale))
        assert fresh.entries == selling_parameters(result).entries
        return fresh.entries
    return result


@st.composite
def superbase_inputs(draw):
    """Incidence-built vectors, valid or broken in one of three ways.

    Each pair (i, j) of a pattern gets a column holding +r at vector i and
    -r at vector j, with r over den_i * den_j; rows then sum to zero and
    distinct rows meet in at most one column, so their product is -r**2.
    """
    count = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(
        ("valid", "sum", "positive", "disconnected", "random")))
    if kind == "positive" and count < 3:
        kind = "valid"
    dens = draw(st.lists(st.integers(1, 12), min_size=count, max_size=count))

    if kind == "random":
        # n free vectors over their own denominators and minus their sum.
        m = draw(st.integers(1, 4))
        vectors = [[F(draw(st.integers(-6, 6)), dens[i]) for _ in range(m)]
                   for i in range(count - 1)]
        vectors.append([-sum(column) for column in zip(*vectors)])
        return vectors

    order = draw(st.permutations(range(count)))
    cut = draw(st.integers(1, count - 1)) if kind == "disconnected" else count
    pairs = []
    for a in range(1, count):
        if a != cut:  # a disconnected pattern joins nothing across `cut`
            pairs.append((order[draw(st.integers(0 if a < cut else cut, a - 1))],
                          order[a]))
    for i, j in combinations(range(count), 2):
        same_part = (order.index(i) < cut) == (order.index(j) < cut)
        if same_part and (i, j) not in pairs and (j, i) not in pairs \
                and draw(st.booleans()):
            pairs.append((i, j))
    columns = [{i: r, j: -r} for i, j in pairs
               for r in [F(draw(st.integers(1, 9)), dens[i] * dens[j])]]
    columns += [{} for _ in range(draw(st.integers(0, 2)))]  # zero columns
    if kind == "positive":
        # +r at two vectors and -2r at a third, r larger than any pattern
        # value: their product becomes positive.
        i, j, k = draw(st.permutations(range(count)))[:3]
        r = F(draw(st.integers(10 * dens[k], 20 * dens[k])), dens[k])
        columns.append({i: r, j: r, k: -2 * r})
    columns = draw(st.permutations(columns))
    vectors = [[column.get(i, F(0)) for column in columns]
               for i in range(count)]
    if not columns:
        vectors = [[F(0)] for _ in range(count)]
    if kind == "sum":
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(vectors[0]) - 1))
            i = draw(st.integers(0, count - 1))
            vectors[i][k] += F(draw(st.integers(1, 5)), 13 * dens[i])
    return vectors


@given(superbase_inputs())
def test_validate_superbase_matches_the_fraction_reference(vectors):
    assert outcome(validate_superbase, vectors) == \
        outcome(reference_validate, vectors)


def test_the_inputs_reach_every_outcome():
    seen = set()

    @given(superbase_inputs())
    def collect(vectors):
        result = outcome(reference_validate, vectors)
        seen.add(result[0] if isinstance(result[0], type) else "valid")

    collect()
    assert seen == {"valid", SumNotZero, ObtuseViolation, RankDeficient}
