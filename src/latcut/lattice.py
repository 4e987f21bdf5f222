"""Obtuse superbases, Selling parameters, and the binary quadratic form.

Everything here is exact: scalars are ``fractions.Fraction`` at the API,
and a Superbase or a GramMatrix holds integers over one denominator, both
capped at MAX_DENOMINATOR_BITS by :func:`_entries`, which reads each
distinct entry once as an integer ratio and scales them all through
:func:`_scaled`; the generators build their integers directly.
A matrix of pairwise superbase products is a weighted graph Laplacian
(nonpositive off the diagonal, zero row sums), hence positive semidefinite
with rank equal to its side minus the number of connected components of
its support; so rank is checked by one graph traversal instead of by
elimination.

:func:`_selling_graph` sums the products column by column, over each
column's nonzeros.  A column more than half nonzero is first shifted by
its most common value c_k, which occurs at least as often as 0, so no
shift adds a nonzero; with c the vector of shifts,
<v_i, v_j> = <v_i - c, v_j - c> + <v_i, c> + <v_j, c> - <c, c> exactly,
and that rank-two correction is added once.  So A_n*, whose columns are
all dense, costs O(n^2), not O(n^3).

Who checks what: :func:`_cut_graph` is the one gate, for either kind
of lattice.  Products of vectors that sum to zero are symmetric with
zero row sums, so :func:`_selling_graph` checks a superbase's shape and
column sums and builds the cut graph straight from its products;
:func:`_check_gram` checks a Gram matrix's shape, symmetry and row sums
and builds its graph.  :func:`_check_graph` checks either graph's signs
and connectivity, with the unreachable class of its kind, and caps its
scale.  The validators and the CLI drop the graph and
:func:`latcut.mincut.graph_from_gram` keeps it, so no solve builds a
dense Gram matrix.  Every entry point checks its lattice once; the
generators check nothing.  The oracles and views that read the rows
without the gate check their shape, with the validators' messages.

Indices are 0-based everywhere in this API.  Only the CLI renders them
1-based.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, compress, repeat
from typing import Iterable, Sequence

from .errors import (
    LengthMismatch,
    NotSymmetric,
    ObtuseViolation,
    RankDeficient,
    RowSumNotZero,
    ShapeMismatch,
    SumNotZero,
    TooLarge,
    WrongRank,
)

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Adjacency = tuple[dict[int, int], ...]  # each vertex's neighbours: weights

# Exact arithmetic scales every entry by the lcm of all denominators.  With
# many distinct denominators that lcm, and every scaled entry, grows with
# the input, so inputs that need a longer one are refused before scaling.
MAX_DENOMINATOR_BITS = 4096


def as_rational(value) -> Fraction:
    """Coerce an exact scalar to Fraction; floats are rejected on purpose.

    Strings are integers (``-3``), ratios (``5/4``) or finite decimals
    (``0.25``).  Exponents (``1e5``) and ``_`` digit separators raise
    ValueError: the size of their value is not bounded by their length.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing to convert float to an exact rational; "
            "pass an int, a string like '5/4' or '0.25', or a Fraction"
        )
    if isinstance(value, str):
        return _token_value(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _fractions(values: Iterable[int], scale: int) -> Vector:
    """`values` over `scale`, one Fraction per distinct value."""
    return tuple(map(cache(lambda x: Fraction(x, scale)), values))


def _fraction_view(self) -> Matrix:
    """`rows` over `scale` as Fractions, one object per distinct value."""
    fraction = cache(lambda x: Fraction(x, self.scale))
    return tuple(tuple(map(fraction, row)) for row in self.rows)


def _token_value(token: str) -> Fraction:
    """The value of one token in the grammar of :func:`as_rational`: the
    Fraction of :func:`_ratio`."""
    return Fraction(*_ratio(token))


def _ratio(token: str) -> tuple[int, int]:
    """One token as (numerator, denominator) in lowest terms, or
    `Fraction`'s exception for it; the one reader of the token grammar.
    ASCII `[+-]digits` and `[+-]digits/digits` are read with `int`."""
    if token.isascii():
        num, slash, den = token.partition("/")
        if num[num[:1] in "+-":].isdigit() and (den.isdigit() or not slash):
            numerator, denominator = int(num), int(den) if slash else 1
            if denominator:  # else `Fraction` raises as it does
                g = math.gcd(numerator, denominator)
                return numerator // g, denominator // g
    if not {"e", "E", "_"}.isdisjoint(token):
        raise ValueError(f"{token!r}: exponents and '_' digit separators "
                         f"are not accepted")
    return Fraction(token).as_integer_ratio()


@dataclass(frozen=True)
class Superbase:
    """n+1 exact-rational vectors in ambient dimension m that sum to zero.

    Coordinates are `rows` over `scale`, canonical as in GramMatrix.
    The parser and the generators build one over the canonical scale;
    :func:`validate_superbase` and the pipeline check it.  `vectors` is a
    Fraction view.
    """

    rows: tuple[tuple[int, ...], ...]
    scale: int
    vectors = cached_property(_fraction_view)

    @property
    def n(self) -> int:
        """Lattice dimension: one less than the vector count."""
        return len(self.rows) - 1

    @property
    def m(self) -> int:
        """Ambient dimension."""
        return len(self.rows[0])

    def subset_sum(self, subset: Iterable[int]) -> Vector:
        """Componentwise sum of the vectors selected by `subset`.

        Raises ShapeMismatch, with the validators' message, for fewer than
        2 vectors or at the first ragged one; ValueError for an index out
        of range.
        """
        _check_vectors(self.rows)
        return _fractions(self._subset_total(subset), self.scale)

    def _subset_total(self, subset: Iterable[int]) -> tuple[int, ...]:
        """`subset_sum` over `scale`: the selected integer rows, summed."""
        rows = self.rows
        chosen = [rows[_index(i, len(rows))] for i in subset]
        return tuple(map(sum, zip(*chosen))) if chosen else (0,) * self.m


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise superbase inner products.

    Entry (i, j) is `rows[i][j] / scale`; `scale` is the lcm of the
    entries' reduced denominators, so equal matrices compare equal.  Valid
    instances are graph Laplacians with flipped sign conventions:
    nonpositive off the diagonal, rows summing to zero, rank one less than
    the side.  The parser and `gen_random_gram` build one over the
    canonical scale, and :func:`selling_parameters` returns one;
    :func:`validate_gram` and the pipeline check it.  `entries` is a
    Fraction view for callers.
    """

    rows: tuple[tuple[int, ...], ...]
    scale: int
    entries = cached_property(_fraction_view)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        """Lattice dimension: one less than the matrix side."""
        return len(self.rows) - 1


def _index(i: int, count: int) -> int:
    """`i`, or ValueError naming it unless 0 <= i < count."""
    if not 0 <= i < count:
        raise ValueError(f"index {i} is out of range 0..{count - 1}")
    return i


def _scaled(ratios: dict, what: str = "entries") -> tuple[dict, int]:
    """Each value of `ratios`, a (numerator, denominator) pair in lowest
    terms, as an integer over s, the lcm of the denominators; and s.  The
    one lcm-and-cap core, for :func:`_entries` and `from_edges` weights:
    TooLarge as soon as s passes MAX_DENOMINATOR_BITS, naming them `what`."""
    scale = 1
    for denominator in {d for _, d in ratios.values()}:
        scale = _capped(math.lcm(scale, denominator), what)
    return {key: n * (scale // d) for key, (n, d) in ratios.items()}, scale


def _entries(rows: Sequence[Sequence], ratio=Fraction.as_integer_ratio
             ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """`rows` as integers over their canonical scale, and that scale:
    each distinct entry read once by `ratio`, as (numerator, denominator)
    in lowest terms, and scaled by :func:`_scaled`; what `ratio` raises
    propagates.  TooLarge if an integer passes MAX_DENOMINATOR_BITS, so
    that every answer stays printable."""
    distinct = set().union(*rows)
    scaled, scale = _scaled(dict(zip(distinct, map(ratio, distinct))))
    if max(map(abs, scaled.values()),
           default=0).bit_length() > MAX_DENOMINATOR_BITS:
        raise TooLarge(f"the entries need integers of more than "
                       f"{MAX_DENOMINATOR_BITS} bits over their common "
                       "denominator")
    # Each row through a list, so allocated once at its size: a tuple grown
    # from `map` is reallocated as it grows, which raised a long run's RSS.
    return tuple([tuple(list(map(scaled.__getitem__, row)))
                  for row in rows]), scale


def _capped(scale: int, what: str) -> int:
    """`scale`, or TooLarge naming `what` if it passes MAX_DENOMINATOR_BITS."""
    if scale.bit_length() > MAX_DENOMINATOR_BITS:
        raise TooLarge(f"the {what} need a common denominator of more "
                       f"than {MAX_DENOMINATOR_BITS} bits")
    return scale


def validate_superbase(vectors) -> Superbase:
    """Check the superbase conditions and return a validated Superbase.

    `vectors` is rows of exact scalars, or a Superbase, which is checked
    and returned as it stands.  Verifies, in order: consistent shape,
    componentwise zero sum, all pairwise inner products nonpositive, and
    linear independence of the first n vectors, which for such vectors
    means the graph of nonzero inner products is connected.  The last two
    are the checks :func:`validate_gram` makes of the Selling parameters.
    The checks are :func:`_cut_graph`'s, whose graph is dropped.

    Raises ShapeMismatch, SumNotZero, ObtuseViolation, RankDeficient, or
    TooLarge if the coordinates' integers or common denominator pass the
    cap, or the Selling parameters' denominator, which can be its square.
    """
    return _validated(Superbase, vectors)


def selling_parameters(sb: Superbase) -> GramMatrix:
    """The (n+1) x (n+1) matrix of pairwise inner products of `sb`.

    Read off the maps of :func:`_selling_graph`, over its scale, each
    diagonal entry its row's weight sum; raises what that raises.
    """
    adj, scale = _selling_graph(sb)
    side = range(len(adj))
    return GramMatrix(tuple(tuple(sum(adj[i].values()) if i == j else
                                  -adj[i].get(j, 0) for j in side)
                            for i in side), scale)


def _selling_graph(sb: Superbase) -> tuple[Adjacency, int]:
    """The cut graph of `sb`'s Selling parameters, for :func:`_check_graph`,
    and its scale; or ShapeMismatch, then SumNotZero at the first column
    not summing to 0.  Products of vectors that sum to zero are symmetric
    with zero row sums, so nothing else can fail here.  Weights are minus
    the products over sb.scale**2, both divided by the products' gcd;
    zero row sums make that the gcd over every entry: the canonical scale.

    A column more than half nonzero has its most common value c_k
    subtracted first.  That value occurs at least as often as 0, so the
    shifted column has no more nonzeros than the column; A_n*'s columns
    keep one each.  With c the vector of shifts, 0 in the other columns,
    <v_i, v_j> = <v_i - c, v_j - c> + <v_i, c> + <v_j, c> - <c, c>
    exactly, so the shifted products get that rank-two correction once,
    row by row in C, and not per column.
    """
    rows = sb.rows
    _check_vectors(rows)
    vertices = range(len(rows))
    products = [[0] * len(rows) for _ in vertices]
    shift = [0] * len(rows[0])
    # Python code sees only each column's nonzeros, above the diagonal.
    for k, column in enumerate(zip(*rows)):
        if sum(column):
            raise SumNotZero(k, Fraction(sum(column), sb.scale))
        support = list(compress(vertices, column))
        if 2 * len(support) > len(column):
            shift[k] = c = max(set(column), key=column.count)
            # A list, not a tuple grown from `map`, which fragmented the
            # heap: a long run's RSS grew with it.
            column = [x - c for x in column]
            support = list(compress(vertices, column))
        for a, i in enumerate(support):
            x, row = column[i], products[i]
            for j in support[a + 1:]:
                row[j] += x * column[j]
    if any(shift):
        cross = [sum(map(operator.mul, row, shift)) for row in rows]
        square = sum(map(operator.mul, shift, shift))
        for i, row in enumerate(products):
            row[i + 1:] = map(operator.add, map(operator.add, row[i + 1:],
                                                cross[i + 1:]),
                              repeat(cross[i] - square))
    adj: Adjacency = tuple({} for _ in vertices)
    common = sb.scale * sb.scale
    for i, row in enumerate(products):
        for j in compress(vertices[i + 1:], row[i + 1:]):
            common = math.gcd(common, row[j])
            adj[i][j] = adj[j][i] = -row[j]
    if common > 1:
        adj = tuple({j: w // common for j, w in neighbours.items()}
                    for neighbours in adj)
    return adj, sb.scale * sb.scale // common


def validate_gram(entries) -> GramMatrix:
    """Check Selling-parameter invariants and return a validated GramMatrix.

    `entries` is rows of exact scalars, or a GramMatrix, which is checked
    and returned as it stands.  Verifies shape, symmetry, nonpositive
    off-diagonal entries and zero row sums, which make the matrix a
    weighted graph Laplacian and so positive semidefinite; its rank is
    then side - 1 exactly when the off-diagonal support graph is connected.
    The checks are :func:`_cut_graph`'s, whose graph is dropped.

    Raises ShapeMismatch, NotSymmetric, ObtuseViolation, RowSumNotZero,
    or WrongRank, and TooLarge if the entries' integers or common
    denominator, or a given GramMatrix's scale, pass MAX_DENOMINATOR_BITS.
    """
    return _validated(GramMatrix, entries)


def _validated(kind: type[Superbase] | type[GramMatrix],
               rows) -> Superbase | GramMatrix:
    """`rows` as a `kind`, built from rows of exact scalars unless it is
    one already, and checked by :func:`_cut_graph`."""
    lattice = rows if isinstance(rows, kind) else kind(
        *_entries([list(map(as_rational, row)) for row in rows]))
    _cut_graph(lattice)
    return lattice


def _cut_graph(lattice: Superbase | GramMatrix) -> tuple[Adjacency, int]:
    """The cut graph of `lattice`'s Selling parameters and its scale,
    checked: the one place that knows which checks, and which unreachable
    class, go with which kind of lattice.  A superbase's graph comes
    straight from its products, a Gram matrix's from its entries, and
    either raises what its validator documents.
    """
    if isinstance(lattice, Superbase):
        adj, scale = _selling_graph(lattice)
        _check_graph(adj, scale, RankDeficient)
    else:
        adj, scale = _check_gram(lattice.rows, lattice.scale), lattice.scale
        _check_graph(adj, scale, WrongRank)
    return adj, scale


def _check_gram(rows: Sequence[Sequence[int]], scale: int) -> Adjacency:
    """The cut graph of integer rows over `scale`, for :func:`_check_graph`,
    built from the entries above the diagonal, negated; or what outside
    Gram input can get wrong first.  ShapeMismatch unless the side is at
    least 2 and every row that long; then, entry by entry in row-major
    order above the diagonal, NotSymmetric, or ObtuseViolation if a
    positive entry comes first; then RowSumNotZero at the first row that
    does not sum to zero.  Signs alone are left to `_check_graph`.
    """
    _check_square(rows)
    adj: Adjacency = tuple({} for _ in rows)
    vertices = range(len(rows))
    # Python code sees only the nonzeros above the diagonal.
    for i, row in enumerate(rows):
        for j in compress(vertices[i + 1:], row[i + 1:]):
            adj[i][j] = adj[j][i] = -row[j]
    # zip hands each column to `eq` and reuses its tuple for the next one.
    if not (all(map(operator.eq, map(tuple, rows), zip(*rows)))
            and not any(map(sum, rows))):
        for i, row in enumerate(rows):
            for j, x in enumerate(row[i + 1:], i + 1):
                if x != rows[j][i]:
                    raise NotSymmetric(
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        f"differ: {Fraction(x, scale)} vs "
                        f"{Fraction(rows[j][i], scale)}"
                    )
                if x > 0:
                    raise ObtuseViolation((i, j), Fraction(x, scale))
        for i, row in enumerate(rows):
            if sum(row):
                raise RowSumNotZero(i, Fraction(sum(row), scale))
    return adj


def _check_graph(adj: Adjacency, scale: int, unreachable: type) -> None:
    """Check `adj`, the cut graph of Selling parameters over `scale`, as
    both routes end: ObtuseViolation at the first positive parameter
    (i, j), i < j, in row-major order, held as a negative weight;
    `unreachable` (WrongRank for a Gram matrix, RankDeficient for a
    superbase) at the first vertex not reached from vertex 0; TooLarge if
    `scale`, the weights' common denominator, passes the cap.
    """
    if min(chain.from_iterable(map(dict.values, adj)), default=0) < 0:
        i, j = min((i, j) for i, neighbours in enumerate(adj)
                   for j, w in neighbours.items() if j > i and w < 0)
        raise ObtuseViolation((i, j), Fraction(-adj[i][j], scale))
    # The rank of a Laplacian is its side minus the number of connected
    # components of its support, so rank side - 1 means one component.
    reached = [True] + [False] * (len(adj) - 1)
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if not reached[j]:
                reached[j] = True
                stack.append(j)
    if not all(reached):
        raise unreachable(reached.index(False))
    _capped(scale, "edge weights")


def _bits_of(u) -> tuple[int, ...]:
    bits = tuple(u)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("assignment entries must be 0 or 1")
    return bits


def _check_vectors(rows: Sequence[Sequence[int]]) -> None:
    """ShapeMismatch unless `rows` are at least 2 vectors of one length."""
    if len(rows) < 2:
        raise ShapeMismatch("a superbase needs at least 2 vectors")
    _check_lengths(rows, len(rows[0]), "vector")


def _check_square(rows: Sequence[Sequence[int]]) -> None:
    """ShapeMismatch unless `rows` are a square matrix of side at least 2."""
    if len(rows) < 2:
        raise ShapeMismatch("a Gram matrix needs side >= 2")
    _check_lengths(rows, len(rows), "row")


def _check_lengths(rows: Sequence[Sequence[int]], length: int,
                   noun: str) -> None:
    """ShapeMismatch at the first of `rows` not `length` long, named as
    `noun` with its 1-based index."""
    for idx, row in enumerate(rows):
        if len(row) != length:
            raise ShapeMismatch(f"{noun} {idx + 1} has length {len(row)}, "
                                f"expected {length}")


def _scaled_form(rows: Sequence[Sequence[int]], support: Sequence[int]) -> int:
    """sum_ij rows[i][j] over i and j in `support`, as an integer."""
    return sum(rows[i][j] for i in support for j in support)


def quadratic_form(lattice: GramMatrix | Superbase, u) -> Fraction:
    """Evaluate sum_ij q_ij u_i u_j for a 0/1 assignment u.

    Equals the squared Euclidean length of the superbase subset sum
    selected by u, any sequence of 0s and 1s.  On a Superbase that sum
    is taken from its integer rows, squared over `scale` squared, so no
    Selling parameters are built.  Raises LengthMismatch, which names
    the superbase's vectors or the Gram matrix's side, unless `u` has
    one entry per vector, then ShapeMismatch, with the validators'
    message, for a superbase of fewer than 2 vectors or at the first
    ragged row; nothing else is checked.
    """
    bits = _bits_of(u)
    size = len(lattice.rows)
    if len(bits) != size:
        has = (f"superbase has {size} vectors"
               if isinstance(lattice, Superbase) else f"Gram side is {size}")
        raise LengthMismatch(f"assignment has length {len(bits)}, {has}")
    support = [i for i, b in enumerate(bits) if b]
    if isinstance(lattice, Superbase):
        _check_vectors(lattice.rows)
        total = lattice._subset_total(support)
        return Fraction(sum(map(operator.mul, total, total)), lattice.scale ** 2)
    _check_lengths(lattice.rows, size, "row")
    return Fraction(_scaled_form(lattice.rows, support), lattice.scale)
