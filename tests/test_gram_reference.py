"""The Gram matrix checks against the plain per-entry loop they replaced.

`validate_gram` and `graph_from_gram` share one check of shape, symmetry,
signs, row sums and connectivity that loops over rows and leaves the
entries to C.  The
reference below is the loop `validate_gram` ran before: every pair (i, j),
i < j, in row-major order, asymmetry before sign, and then every row sum.
On small integer matrices, often symmetric, often with zero row sums, and
over two scales, both must raise the reference's exception with its
message, or accept the matrix; on a disconnected one both raise the same
WrongRank, and on a connected one `graph_from_gram` builds the edges of
the negated off-diagonal entries.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    GramMatrix,
    NotSymmetric,
    ObtuseViolation,
    RowSumNotZero,
    ValidationError,
    WrongRank,
    graph_from_gram,
    validate_gram,
)


def reference_check(rows, scale):
    """Symmetry and signs pair by pair, then row sums, as Python loops."""
    size = len(rows)
    for i in range(size):
        for j in range(i + 1, size):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ: "
                    f"{Fraction(rows[i][j], scale)} vs "
                    f"{Fraction(rows[j][i], scale)}"
                )
            if rows[i][j] > 0:
                raise ObtuseViolation((i, j), Fraction(rows[i][j], scale))
    for i, row in enumerate(rows):
        if sum(row):
            raise RowSumNotZero(i, Fraction(sum(row), scale))


@st.composite
def matrices(draw):
    """2..6 rows of small integers; mirrored and balanced (diagonal set to
    zero the row sum) each half the time, so that every check is reached
    and errors often compete."""
    size = draw(st.integers(2, 6))
    entry = st.sampled_from((-2, -1, -1, 0, 0, 0, 1))
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(size)]
                for i in range(size)]
    if draw(st.booleans()):
        rows = [row[:i] + [row[i] - sum(row)] + row[i + 1:]
                for i, row in enumerate(rows)]
    return tuple(map(tuple, rows))


def _outcome(call):
    """(class, message) of what `call` raises, or None."""
    try:
        call()
    except ValidationError as error:
        return type(error), str(error)
    return None


@settings(max_examples=500)
@given(matrices(), st.sampled_from((1, 6)))
def test_checks_match_the_reference(rows, scale):
    g = GramMatrix(rows, scale)
    expected = _outcome(lambda: reference_check(rows, scale))
    validated = _outcome(lambda: validate_gram(g))
    if expected is None:
        assert validated is None or validated[0] is WrongRank
        assert _outcome(lambda: graph_from_gram(g)) == validated
        if validated is None:
            assert graph_from_gram(g).adjacency == tuple(
                {j: -x for j, x in enumerate(row) if j != i and x}
                for i, row in enumerate(rows))
    else:
        assert validated == expected
        assert _outcome(lambda: graph_from_gram(g)) == expected


def test_rows_as_lists_are_checked_the_same_way():
    rows = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    g = GramMatrix(rows, 1)
    assert validate_gram(g) is g
    assert graph_from_gram(g).adjacency == (
        {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: 1})
    rows[0][1] = 0
    expected = _outcome(lambda: reference_check(rows, 1))
    assert expected[0] is NotSymmetric
    assert _outcome(lambda: graph_from_gram(GramMatrix(rows, 1))) == expected
