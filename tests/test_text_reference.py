"""From file text to cut graph, against a plain-Fraction reference.

The program parses a `gram` or `superbase` file into integers over one
common denominator, takes the Selling parameters and builds the cut graph
on integers as well, checking the lattice on the way as `svp` does; the
library route hands the validators rows of tokens instead.  The reference below does the same in
Fraction arithmetic, straight from the definitions: every check, the
Gram matrix, the edge weights, the exhaustive minimum cut (smallest
weight, then size, then sorted indices) and the exhaustive subset oracle
(smallest squared length, then size, then subset).  Both must raise the
same exception, with the same attributes and message, or agree on every
value.  Files mix integer, ratio, unreduced ratio and decimal tokens.
Each token's value, or its exception, is `Fraction`'s.

A second reference reads the file format one line, then one token, at a
time, as the README states it; the parser, which reads the file's
distinct tokens only after its last row, must give the same lattice or
the same error, line and column on malformed files as well.
"""

import math
import re
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcut import (  # noqa: E402
    NotSymmetric,
    ObtuseViolation,
    ParseError,
    RankDeficient,
    RowSumNotZero,
    ShapeError,
    SumNotZero,
    Superbase,
    TooLarge,
    ValidationError,
    WrongRank,
    brute_force_mincut,
    brute_force_short_vector,
    graph_from_gram,
    selling_parameters,
    validate_gram,
    validate_superbase,
)
from latcut import cli  # noqa: E402
from latcut.lattice import MAX_DENOMINATOR_BITS, _token_value  # noqa: E402

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
    """The route `svp` takes from file text to the checked cut graph,
    which must be the graph of the lattice's Selling parameters."""
    lattice = cli.parse_input(text)
    graph = graph_from_gram(lattice)
    g = selling_parameters(lattice) if isinstance(lattice, Superbase) \
        else lattice
    expected = graph_from_gram(g)
    assert (graph.adjacency, graph.scale) == (expected.adjacency, expected.scale)
    return solved(g, graph)


def solved(g, graph=None):
    graph = graph_from_gram(g) if graph is None else graph
    cut = brute_force_mincut(graph)
    oracle = brute_force_short_vector(g)
    return (g.entries, (graph.adjacency, graph.scale), (cut.side, cut.weight),
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
    scale = math.lcm(*(x.denominator for row in q for x in row))
    adjacency = tuple({j: int(-q[i][j] * scale) for j in range(size)
                       if j != i and q[i][j] < 0} for i in range(size))
    sides = [tuple(i for i in range(size) if mask >> i & 1)
             for mask in range(1, (1 << size) - 1)]
    cut = min((sum(w for (i, j), w in weights.items()
                   if (i in side) != (j in side)), len(side), side)
              for side in sides if 0 in side)
    form = min((sum(q[i][j] for i in side for j in side), len(side), side)
               for side in sides)
    return (tuple(map(tuple, q)), (adjacency, scale), (cut[2], cut[0]),
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


def _value_or_error(parse, token):
    try:
        value = parse(token)
    except (ValueError, ZeroDivisionError) as error:
        return type(error), str(error)
    return type(value), value


# Integer, ratio and decimal characters; the exponents and '_' that are
# refused; and non-ASCII digits, which `Fraction` reads and the fast path
# leaves to it.
TOKEN_CHARS = "0123456789+-/." + "eE_ " + "\u0663\uff13\u00b2"


@settings(max_examples=2000)
@given(st.one_of(
    st.from_regex(r"\A[+-]?[0-9]{1,40}(/[+-]?[0-9]{0,40})?\Z"),
    st.text(TOKEN_CHARS, max_size=12)))
def test_a_token_has_fractions_value_or_exception(token):
    got = _value_or_error(_token_value, token)
    if {"e", "E", "_"}.isdisjoint(token):
        assert got == _value_or_error(Fraction, token)
    else:
        assert got[0] is ValueError and "are not accepted" in got[1]


# --- the parser against a line-by-line reference ---------------------------------

# README, "File format": an optional sign, then an integer, a ratio p/q
# with q nonzero, or a finite decimal.
ENTRY = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]*[1-9][0-9]*)?"
                   r"|[0-9]+\.[0-9]*|\.[0-9]+)\Z")
COUNT = re.compile(r"[+-]?[0-9]+\Z")


def reference_parse(text):
    """The file format read one line, then one token, at a time."""
    lines = text.removeprefix("\ufeff").splitlines()
    kind, rows = None, []
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#")[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        if kind is None:
            kind, count, length = reference_header(tokens, lineno)
            continue
        if len(rows) == count:
            raise ShapeError(lineno, f"expected {count} rows, found more")
        if len(tokens) != length:
            raise ShapeError(lineno, f"row {len(rows) + 1} has {len(tokens)} "
                                     f"entries, expected {length}")
        for token, column in tokens:
            if not ENTRY.match(token):
                raise ParseError(lineno, column,
                                 f"cannot parse {token!r} as a rational")
        rows.append([F(token) for token, _ in tokens])
    if kind is None:
        raise ParseError(max(len(lines), 1), 1, "missing header line")
    if len(rows) != count:
        raise ShapeError(len(lines), f"expected {count} rows, found {len(rows)}")
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    cap = MAX_DENOMINATOR_BITS
    if scale.bit_length() > cap:
        raise TooLarge(f"the entries need a common denominator of more than "
                       f"{cap} bits")
    if any(abs(int(x * scale)).bit_length() > cap for row in rows for x in row):
        raise TooLarge(f"the entries need integers of more than {cap} bits "
                       f"over their common denominator")
    return kind, tuple(map(tuple, rows)), scale


def reference_header(tokens, lineno):
    (word, column), counts = tokens[0], tokens[1:]
    if word not in ("superbase", "gram"):
        raise ParseError(lineno, column, f"unknown kind {word!r}; "
                                         "expected 'superbase' or 'gram'")
    if len(counts) != (2 if word == "superbase" else 1):
        usage = "superbase <count> <m>" if word == "superbase" else "gram <count>"
        raise ParseError(lineno, column, f"header must be '{usage}'")
    for token, at in counts:
        if not COUNT.match(token) or int(token) < 1:
            raise ParseError(lineno, at,
                             f"expected a positive integer, got {token!r}")
    count, length = int(counts[0][0]), int(counts[-1][0])
    return ("Superbase" if word == "superbase" else "GramMatrix"), count, length


def parsed(text):
    lattice = cli.parse_input(text)
    return (type(lattice).__name__, lattice.vectors if isinstance(
        lattice, Superbase) else lattice.entries, lattice.scale)


def parse_outcome(parse, text):
    """The value, or (exception class, attributes, message)."""
    try:
        return parse(text)
    except (ParseError, ShapeError, TooLarge) as exc:
        return type(exc), vars(exc), str(exc)


GOOD = ("0", "-1", "2", "+3", "007", "5/4", "-10/8", "6/3", "-0/3", "0.25",
        "-.5", "5.", "+1.50")
BAD = ("x", "1e5", "2/0", "1_0")
HUGE = (str(2 ** MAX_DENOMINATOR_BITS), f"1/{2 ** MAX_DENOMINATOR_BITS}")
HEADERS = ("gram {k}", "superbase {k} {m}", "gram {k}", "superbase {k} {m}",
           "gram +{k}", "gram {k}_0", "gram 0", "superbase {k}", "lattice {k}",
           "gram x")


@st.composite
def parser_files(draw):
    """Headers, comments, blank lines and a leading BOM around rows of
    good, bad and huge tokens, with too few and too many rows and entries."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = [draw(st.sampled_from(("", "# note", "  ")))
             for _ in range(draw(st.integers(0, 1)))]
    header = draw(st.sampled_from(HEADERS)) if draw(st.integers(0, 19)) else ""
    lines.append(header.format(k=k, m=m))
    length = m if header.startswith("superbase") else k
    for _ in range(max(0, k + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))):
        size = max(0, length + draw(st.sampled_from((0,) * 8 + (-1, 1))))
        row = [draw(st.sampled_from(GOOD)) for _ in range(size)]
        if row and not draw(st.integers(0, 7)):
            row[draw(st.integers(0, size - 1))] = draw(st.sampled_from(BAD))
        if row and not draw(st.integers(0, 11)):
            row[draw(st.integers(0, size - 1))] = draw(st.sampled_from(HUGE))
        line = draw(st.sampled_from((" ", "\t", "  "))).join(row)
        lines.append(line + draw(st.sampled_from(("", "", " # note"))))
        if not draw(st.integers(0, 9)):
            lines.append(draw(st.sampled_from(("", "# note", "  "))))
    text = "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n")))
    return "\ufeff" + text if draw(st.booleans()) else text


def test_the_parser_matches_a_line_by_line_reference():
    """The same value, or the same class, message, line and column, as a
    parser that reads one token at a time; so the parser, which keeps
    each row's words and reads its distinct tokens after the last row,
    still reports the first error in line order."""
    seen = set()

    @settings(max_examples=600)
    @given(parser_files())
    def compare(text):
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(parsed, text) == expected
        message = expected[2] if isinstance(expected[0], type) else ""
        seen.add((expected[0], message.split(": ")[-1].split(" ")[0]))

    compare()
    assert seen >= {("Superbase", ""), ("GramMatrix", ""),
                    (ParseError, "cannot"), (ParseError, "expected"),
                    (ParseError, "unknown"), (ParseError, "header"),
                    (ParseError, "missing"), (ShapeError, "expected"),
                    (ShapeError, "row"), (TooLarge, "the")}
