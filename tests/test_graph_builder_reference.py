"""A superbase's cut graph from its products, against two references.

`graph_from_gram(sb)` builds a superbase's cut graph from the products
of its integer rows and checks it once.  Two references check it:

* The products themselves: each pair's inner product summed in the test
  from the two rows, `sum(map(mul, rows[i], rows[j]))`, negated and
  divided by its gcd with `scale ** 2`, must give the maps of
  `lattice._selling_graph`, in the same order, and the same scale, or
  the same ShapeMismatch or SumNotZero.  Those maps through the gate's
  graph check must give what `graph_from_gram(sb)` gives.  The builder
  shifts a column more than half nonzero by its most common value, so
  the strategy draws dense columns as well as incidence columns.
* The public composition `graph_from_gram(selling_parameters(sb))`:
  `selling_parameters` reads the same maps, so this checks the gate's
  classes and the Gram matrix read off them, not the products.  It must
  give the same neighbour maps, in the same order, and the same scale,
  or the same exception, class, attributes and message, with the
  composition's WrongRank read as RankDeficient.  `quadratic_form` on a
  superbase sums its rows and must equal the form of its Selling
  parameters.
"""

import math
from fractions import Fraction
from operator import mul

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
    WeightedGraph,
    WrongRank,
    graph_from_gram,
    quadratic_form,
    selling_parameters,
)
from latcut.lattice import _check_graph, _selling_graph  # noqa: E402


def composed(sb):
    try:
        return graph_from_gram(selling_parameters(sb))
    except WrongRank as exc:
        raise RankDeficient(exc.vector) from None


def per_pair(sb):
    """The cut graph and its scale from each pair's products, summed here:
    ShapeMismatch or SumNotZero with the validators' messages first."""
    rows = sb.rows
    if len(rows) < 2:
        raise ShapeMismatch("a superbase needs at least 2 vectors")
    for idx, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ShapeMismatch(f"vector {idx + 1} has length {len(row)}, "
                                f"expected {len(rows[0])}")
    for k, column in enumerate(zip(*rows)):
        if sum(column):
            raise SumNotZero(k, Fraction(sum(column), sb.scale))
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
    products = {(i, j): sum(map(mul, rows[i], rows[j])) for i, j in pairs}
    common = math.gcd(sb.scale ** 2, *products.values())
    adj = tuple({} for _ in rows)
    for (i, j), product in products.items():
        if product:
            adj[i][j] = adj[j][i] = -product // common
    return adj, sb.scale ** 2 // common


def per_pair_graph(sb):
    adj, scale = per_pair(sb)
    _check_graph(adj, scale, RankDeficient)
    return WeightedGraph(adj, scale)


def outcome(build, sb):
    """The maps as item lists and the scale, or the exception's class,
    attributes and message."""
    try:
        built = build(sb)
    except LatCutError as exc:
        return type(exc), vars(exc), str(exc)
    adj, scale = built if isinstance(built, tuple) else (built.adjacency,
                                                         built.scale)
    return [list(neighbours.items()) for neighbours in adj], scale


def nonzero(limit):
    return st.integers(-limit, limit).filter(bool)


@st.composite
def superbases(draw):
    """Integer rows of 2 to 9 vectors, valid or broken in one of six ways,
    over a scale that need not be canonical.

    Columns are incidence columns, r and -r at two vectors, and an empty
    one.  A valid superbase may add A_n*'s columns, times t.  Dense,
    ragged and broken-sum ones may add copies of some columns with t added at every
    vector but one, that one taking -(count - 1) t; a column exactly
    half nonzero; and one in which 0 ties with t as the most common
    value.  Kind "sum" breaks the last column, after those.
    """
    count = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(("valid", "random", "dense", "sum",
                                 "disconnected", "ragged", "cap")))
    split = draw(st.integers(1, count - 1)) if kind == "disconnected" else count
    if kind == "random":
        m = draw(st.integers(1, 4))
        rows = [[draw(st.integers(-3, 3)) for _ in range(m)]
                for _ in range(count - 1)]
        rows.append([-sum(column) for column in zip(*rows)])
        return Superbase(tuple(map(tuple, rows)),
                         draw(st.sampled_from((1, 2, 3, 6))))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)
             if (i < split) == (j < split)]
    chosen = [p for p in pairs if draw(st.booleans())]
    columns = [[r if v == i else -r if v == j else 0 for v in range(count)]
               for i, j in chosen for r in [draw(st.integers(1, 6))]]
    if kind == "valid" and draw(st.booleans()):
        t = draw(st.integers(1, 3))
        columns += [[(count - 1) * t if v == k else -t for v in range(count)]
                    for k in range(count)]
    if kind in ("dense", "sum", "ragged"):
        for column in columns + [[0] * count]:
            if draw(st.booleans()):
                t, one = draw(nonzero(3)), draw(st.integers(0, count - 1))
                columns.append([x - (count - 1) * t if v == one else x + t
                                for v, x in enumerate(column)])
        if count % 2 == 0 and count >= 4 and draw(st.booleans()):
            r, half = draw(nonzero(3)), count // 2
            values = [r] * (half - 1) + [-(half - 1) * r] + [0] * half
            columns.append(draw(st.permutations(values)))
        if count >= 5 and draw(st.booleans()):
            t = draw(nonzero(3))
            rest = [k * t for k in range(3, count - 2)]
            values = [0, 0, t, t, *rest, -2 * t - sum(rest)]
            columns.append(draw(st.permutations(values)))
        columns = draw(st.permutations(columns))
    columns.append([0] * count)
    rows = [list(row) for row in zip(*columns)]
    if kind == "sum":
        rows[draw(st.integers(0, count - 1))][-1] += draw(st.integers(1, 3))
    elif kind == "ragged":
        rows[draw(st.integers(0, count - 1))].append(0)
    scale = 3 ** 1300 if kind == "cap" else draw(st.sampled_from((1, 2, 3, 6)))
    return Superbase(tuple(map(tuple, rows)), scale)


OUTCOMES = {"valid", ShapeMismatch, SumNotZero, ObtuseViolation,
            RankDeficient, TooLarge}


def features(sb):
    """Which of the builder's column cases `sb` reaches."""
    rows, found = sb.rows, set()
    if len(set(map(len, rows))) > 1:
        return found
    shifted = False
    for column in zip(*rows):
        if sum(column):
            if shifted:
                found.add("sum after a shifted column")
            break
        nonzeros = len(column) - column.count(0)
        if 2 * nonzeros == len(column) and len(column) >= 4:
            found.add("half nonzero")
        elif 2 * nonzeros > len(column):
            most = max(map(column.count, column))
            modes = {x for x in column if column.count(x) == most}
            if 0 not in modes:
                shifted = True
                found.add("shifted")
            if len(modes) > 1 and 0 in modes:
                found.add("0 tied as most common")
    return found


FEATURES = {"shifted", "half nonzero", "0 tied as most common",
            "sum after a shifted column"}


def test_the_products_match_a_per_pair_reference():
    seen = set()

    @settings(max_examples=500)
    @given(superbases())
    def compare(sb):
        expected = outcome(per_pair, sb)
        assert outcome(_selling_graph, sb) == expected
        expected = outcome(per_pair_graph, sb)
        assert outcome(graph_from_gram, sb) == expected
        found = features(sb)
        seen.update(found)
        if isinstance(expected[0], type):
            seen.add(expected[0])
        elif "shifted" in found:
            seen.add("valid with a shifted column")

    compare()
    assert seen == (FEATURES | (OUTCOMES - {"valid"})
                    | {"valid with a shifted column"})


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
        except LengthMismatch:
            with pytest.raises(LengthMismatch, match=(
                    f"^assignment has length {length}, "
                    f"superbase has {len(sb.rows)} vectors$")):
                quadratic_form(sb, u)
        else:
            assert quadratic_form(sb, u) == expected_form

    compare()
    assert seen == OUTCOMES
