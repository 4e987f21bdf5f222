"""A superbase's cut graph straight from its products, against the dense route.

`graph_from_gram(sb)` builds a superbase's cut graph from the products
of its integer rows and checks it once.  It must give what the public
composition `graph_from_gram(selling_parameters(sb))` gives: the same
neighbour maps, in the same order, and the same scale, or the same
exception, class, attributes and message, with the composition's
WrongRank read as RankDeficient.  `quadratic_form` on a superbase sums
its rows and must equal the form of its Selling parameters.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    LatCutError,
    LengthMismatch,
    ObtuseViolation,
    RankDeficient,
    ShapeMismatch,
    Superbase,
    SumNotZero,
    TooLarge,
    WrongRank,
    graph_from_gram,
    quadratic_form,
    selling_parameters,
)


def composed(sb):
    try:
        return graph_from_gram(selling_parameters(sb))
    except WrongRank as exc:
        raise RankDeficient(exc.vector) from None


def outcome(build, sb):
    """The maps as item lists and the scale, or the exception's class,
    attributes and message."""
    try:
        graph = build(sb)
    except LatCutError as exc:
        return type(exc), vars(exc), str(exc)
    return [list(neighbours.items()) for neighbours in graph.adjacency], graph.scale


@st.composite
def superbases(draw):
    """Integer rows of 2 to 7 vectors, valid or broken in one of five ways,
    over a scale that need not be canonical."""
    count = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(("valid", "random", "sum", "disconnected",
                                 "ragged", "cap")))
    split = draw(st.integers(1, count - 1)) if kind == "disconnected" else count
    if kind == "random":
        m = draw(st.integers(1, 4))
        rows = [[draw(st.integers(-3, 3)) for _ in range(m)]
                for _ in range(count - 1)]
        rows.append([-sum(column) for column in zip(*rows)])
    else:
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)
                 if (i < split) == (j < split)]
        chosen = [p for p in pairs if draw(st.booleans())]
        columns = [{i: r, j: -r} for i, j in chosen
                   for r in [draw(st.integers(1, 6))]] + [{}]
        rows = [[column.get(i, 0) for column in columns] for i in range(count)]
        if kind == "sum":
            rows[draw(st.integers(0, count - 1))][-1] += draw(st.integers(1, 3))
        elif kind == "ragged":
            rows[draw(st.integers(0, count - 1))].append(0)
    scale = 3 ** 1300 if kind == "cap" else draw(st.sampled_from((1, 2, 3, 6)))
    return Superbase(tuple(map(tuple, rows)), scale)


OUTCOMES = {"valid", ShapeMismatch, SumNotZero, ObtuseViolation,
            RankDeficient, TooLarge}


def test_the_graph_from_products_matches_the_composition():
    seen = set()

    @settings(max_examples=400)
    @given(superbases(), st.data())
    def compare(sb, data):
        expected = outcome(composed, sb)
        assert outcome(graph_from_gram, sb) == expected
        seen.add(expected[0] if isinstance(expected[0], type) else "valid")
        try:
            g = selling_parameters(sb)
        except LatCutError:
            return
        length = len(sb.rows) + data.draw(st.sampled_from((0, 0, 0, 1, -1)))
        u = data.draw(st.lists(st.integers(0, 1), min_size=length,
                               max_size=length))
        try:
            expected_form = quadratic_form(g, u)
        except LengthMismatch as exc:
            with pytest.raises(LengthMismatch, match=f"^{exc}$"):
                quadratic_form(sb, u)
        else:
            assert quadratic_form(sb, u) == expected_form

    compare()
    assert seen == OUTCOMES
