"""From file text to cut graph, against a plain-Fraction reference.

The program parses a `gram` or `superbase` file into integers over one
common denominator, validates them, takes the Selling parameters and
builds the cut graph on integers as well; the library route hands the
validators rows of tokens instead.  The reference below does the same in
Fraction arithmetic, straight from the definitions: every check, the
Gram matrix, the edge weights, the exhaustive minimum cut (smallest
weight, then size, then sorted indices) and the exhaustive subset oracle
(smallest squared length, then size, then subset).  Both must raise the
same exception, with the same attributes and message, or agree on every
value.  Files mix integer, ratio, unreduced ratio and decimal tokens.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    NotSymmetric,
    ObtuseViolation,
    RankDeficient,
    RowSumNotZero,
    SumNotZero,
    ValidationError,
    WrongRank,
    brute_force_mincut,
    brute_force_short_vector,
    graph_from_gram,
    selling_parameters,
    validate_gram,
    validate_superbase,
)
from latcut import cli, pipeline  # noqa: E402

F = Fraction


# --- the program and the reference --------------------------------------------

def program(text):
    """The library route: rows of tokens through the public validators."""
    header, *rows = [line.split() for line in text.splitlines()]
    if header[0] == "superbase":
        g = selling_parameters(validate_superbase(rows))
        assert validate_gram(g.entries) == g  # one scale whatever the route
    else:
        g = validate_gram(rows)
    return solved(g)


def command_line(text):
    """The route every command takes from file text to a Gram matrix."""
    return solved(pipeline._gram_of(cli._load(cli.parse_input(text))))


def solved(g):
    graph = graph_from_gram(g)
    cut = brute_force_mincut(graph)
    oracle = brute_force_short_vector(g)
    return (g.entries, graph.weights, (cut.side, cut.weight),
            (oracle.subset, oracle.squared_length))


def reachable_from_first(q):
    reached, stack = {0}, [0]
    while stack:
        for j, value in enumerate(q[stack.pop()]):
            if value and j not in reached:
                reached.add(j)
                stack.append(j)
    return [j for j in range(len(q)) if j not in reached]


def reference(text):
    header, *lines = [line.split() for line in text.splitlines()]
    rows = [[F(token) for token in line] for line in lines]
    size = len(rows)
    pairs = list(combinations(range(size), 2))
    if header[0] == "superbase":
        for k, column in enumerate(zip(*rows)):
            if sum(column):
                raise SumNotZero(k, sum(column))
        q = [[sum(map(mul, u, v)) for v in rows] for u in rows]
        for i, j in pairs:
            if q[i][j] > 0:
                raise ObtuseViolation((i, j), q[i][j])
        unreached = reachable_from_first(q)
        if unreached:
            raise RankDeficient(unreached[0])
    else:
        q = rows
        for i, j in pairs:
            if q[i][j] != q[j][i]:
                raise NotSymmetric(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                    f"differ: {q[i][j]} vs {q[j][i]}")
            if q[i][j] > 0:
                raise ObtuseViolation((i, j), q[i][j])
        for i, row in enumerate(q):
            if sum(row):
                raise RowSumNotZero(i, sum(row))
        unreached = reachable_from_first(q)
        if unreached:
            raise WrongRank(unreached[0])
    weights = {(i, j): -q[i][j] for i, j in pairs if q[i][j] < 0}
    sides = [tuple(i for i in range(size) if mask >> i & 1)
             for mask in range(1, (1 << size) - 1)]
    cut = min((sum(w for (i, j), w in weights.items()
                   if (i in side) != (j in side)), len(side), side)
              for side in sides if 0 in side)
    form = min((sum(q[i][j] for i in side for j in side), len(side), side)
               for side in sides)
    return (tuple(map(tuple, q)), weights, (cut[2], cut[0]),
            (form[2], form[0]))


def outcome(solve, text):
    """Every value, or (exception class, attributes, message)."""
    try:
        return solve(text)
    except ValidationError as exc:
        return type(exc), vars(exc), str(exc)


# --- instance files -------------------------------------------------------------

@st.composite
def token(draw, value):
    """`value` as an integer, ratio, unreduced ratio or decimal token."""
    forms = [f"{value.numerator}/{value.denominator}"]
    factor = draw(st.integers(2, 4))
    forms.append(f"{value.numerator * factor}/{value.denominator * factor}")
    if value.denominator == 1:
        forms.append(str(value.numerator))
    if 10 ** 6 % value.denominator == 0:
        digits = 10 ** 6 * abs(value) // 1
        sign = "-" if value < 0 else ""
        forms.append(f"{sign}{digits // 10 ** 6}.{digits % 10 ** 6:06d}")
    return draw(st.sampled_from(forms))


def render(draw, header, rows):
    return header + "\n" + "".join(
        " ".join(draw(token(x)) for x in row) + "\n" for row in rows)


def pattern(draw, count, split):
    """Random pairs that join 0..count-1, or none across index `split`."""
    order = draw(st.permutations(range(count)))
    pairs = [(order[draw(st.integers(0 if a < split else split, a - 1))],
              order[a]) for a in range(1, count) if a != split]
    for i, j in combinations(range(count), 2):
        same_part = (order.index(i) < split) == (order.index(j) < split)
        if same_part and draw(st.booleans()):
            pairs.append((i, j))
    return sorted({tuple(sorted(p)) for p in pairs})


values = st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 3, 4, 5, 8, 12)))


@st.composite
def gram_files(draw):
    """A Laplacian, valid or broken in one of five ways."""
    count = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(
        ("valid", "asymmetric", "positive", "row sum", "disconnected")))
    split = draw(st.integers(1, count - 1)) if kind == "disconnected" else count
    q = [[F(0)] * count for _ in range(count)]
    for i, j in pattern(draw, count, split):
        w = draw(values)
        q[i][j] = q[j][i] = -w
        q[i][i] += w
        q[j][j] += w
    i, j = sorted(draw(st.permutations(range(count)))[:2])
    if kind == "asymmetric":
        a, b = draw(st.sampled_from(((i, j), (j, i))))
        q[a][b] += draw(values)
    elif kind == "positive":
        w = draw(values) + 10
        q[i][j] += w
        q[j][i] += w
        q[i][i] -= w
        q[j][j] -= w
    elif kind == "row sum":
        q[i][i] += draw(values)
    return render(draw, f"gram {count}", q)


@st.composite
def superbase_files(draw):
    """Incidence-built vectors, valid or broken in one of four ways.

    Each pair (i, j) of a pattern gets a column holding +r at vector i and
    -r at vector j, so rows sum to zero and distinct rows meet in at most
    one column, where their product is -r**2.  Scaled A_n* vectors
    c (e_i - (1, ..., 1) / count) have products whose denominators are
    shorter than the square of the coordinates' one.
    """
    count = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(
        ("valid", "sum", "positive", "disconnected", "random", "dual")))
    if kind == "dual":
        c = draw(values)
        vectors = [[c * ((i == k) - F(1, count)) for k in range(count)]
                   for i in range(count)]
        return render(draw, f"superbase {count} {count}", vectors)
    if kind == "random":
        m = draw(st.integers(1, 4))
        vectors = [[F(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
                    for _ in range(m)] for _ in range(count - 1)]
        vectors.append([-sum(column) for column in zip(*vectors)])
        return render(draw, f"superbase {count} {m}", vectors)
    split = draw(st.integers(1, count - 1)) if kind == "disconnected" else count
    columns = [{i: r, j: -r} for i, j in pattern(draw, count, split)
               for r in [draw(values)]]
    columns.append({})  # a zero column, and at least one column
    if kind == "positive" and count >= 3:
        i, j, k = draw(st.permutations(range(count)))[:3]
        r = draw(values) + 10
        columns.append({i: r, j: r, k: -2 * r})
    columns = draw(st.permutations(columns))
    vectors = [[column.get(i, F(0)) for column in columns]
               for i in range(count)]
    if kind == "sum":
        i = draw(st.integers(0, count - 1))
        vectors[i][draw(st.integers(0, len(columns) - 1))] += draw(values)
    return render(draw, f"superbase {count} {len(columns)}", vectors)


files = st.one_of(gram_files(), superbase_files())


# --- properties -------------------------------------------------------------------

def seen_as(text, result):
    return text.split()[0], result[0] if isinstance(result[0], type) else "valid"


OUTCOMES = {
    ("gram", "valid"), ("gram", NotSymmetric), ("gram", ObtuseViolation),
    ("gram", RowSumNotZero), ("gram", WrongRank),
    ("superbase", "valid"), ("superbase", SumNotZero),
    ("superbase", ObtuseViolation), ("superbase", RankDeficient),
}


def test_text_to_cut_matches_the_fraction_reference():
    """Both routes agree with the reference, on files of every outcome."""
    seen = set()

    @settings(max_examples=300)
    @given(files)
    def compare(text):
        expected = outcome(reference, text)
        assert outcome(program, text) == expected
        assert outcome(command_line, text) == expected
        seen.add(seen_as(text, expected))

    compare()
    assert seen == OUTCOMES


def test_the_files_reach_every_outcome():
    seen = set()

    @settings(max_examples=300)
    @given(files)
    def collect(text):
        result = outcome(reference, text)
        kind = text.split()[0]
        seen.add((kind, result[0] if isinstance(result[0], type) else "valid"))

    collect()
    assert seen == {
        ("gram", "valid"), ("gram", NotSymmetric), ("gram", ObtuseViolation),
        ("gram", RowSumNotZero), ("gram", WrongRank),
        ("superbase", "valid"), ("superbase", SumNotZero),
        ("superbase", ObtuseViolation), ("superbase", RankDeficient),
    }
