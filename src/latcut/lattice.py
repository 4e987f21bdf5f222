"""Obtuse superbases, Selling parameters, and the binary quadratic form.

Everything here is exact: scalars are ``fractions.Fraction`` at the API,
and a Superbase or a GramMatrix holds integers over one denominator, both
capped at MAX_DENOMINATOR_BITS by :func:`_entries`; the generators build
their integers directly.
A matrix of pairwise superbase products is a weighted graph Laplacian
(nonpositive off the diagonal, zero row sums), hence positive semidefinite
with rank equal to its side minus the number of connected components of
its support; so rank is checked by one graph traversal instead of by
elimination.

Who checks what: :func:`selling_parameters` checks a superbase's shape
and column sums before it takes the products, and :func:`_check_gram`,
the one Laplacian check, checks a Gram matrix's shape, symmetry, signs,
row sums and connectivity, applies the cap to its scale, and returns the
cut graph it built.  The validators run both and drop the graph; the
pipeline runs both, through `graph_from_gram`, and keeps it.  Every
command and library entry point checks its lattice once, with the same
classes and messages, a superbase's disconnected Selling graph reported
as RankDeficient by :func:`_superbase_rank`; the generators check nothing.

Indices are 0-based everywhere in this API.  Only the CLI renders them
1-based.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, compress
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
    """The value of one token in the grammar of :func:`as_rational`; ASCII
    `[+-]digits` and `[+-]digits/digits` are read with `int`."""
    if token.isascii():
        num, slash, den = token.partition("/")
        if num[num[:1] in "+-":].isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
    if not {"e", "E", "_"}.isdisjoint(token):
        raise ValueError(f"{token!r}: exponents and '_' digit separators "
                         f"are not accepted")
    return Fraction(token)


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
        """Componentwise sum of the vectors selected by `subset`."""
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


def _scaled(rows: Sequence[Sequence[Fraction]],
            what: str = "entries") -> tuple[tuple[tuple[int, ...], ...], int]:
    """`rows` as integers over s, the lcm of their reduced denominators, and s.

    Converts lattice entries and `from_edges` weights.  Raises
    TooLarge as soon as s passes MAX_DENOMINATOR_BITS, naming them `what`.
    """
    scale = 1
    for denominator in {x.denominator for row in rows for x in row}:
        scale = _capped(math.lcm(scale, denominator), what)
    return tuple([tuple([x.numerator * (scale // x.denominator) for x in row])
                  for row in rows]), scale


def _entries(rows: Sequence[Sequence[Fraction]]
             ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """:func:`_scaled` on a lattice's entries, or TooLarge if an integer
    passes MAX_DENOMINATOR_BITS, so that every answer stays printable."""
    scaled, scale = _scaled(rows)
    if max(map(abs, chain.from_iterable(scaled)),
           default=0).bit_length() > MAX_DENOMINATOR_BITS:
        raise TooLarge(f"the entries need integers of more than "
                       f"{MAX_DENOMINATOR_BITS} bits over their common "
                       "denominator")
    return scaled, scale


def _capped(scale: int, what: str) -> int:
    """`scale`, or TooLarge naming `what` if it passes MAX_DENOMINATOR_BITS."""
    if scale.bit_length() > MAX_DENOMINATOR_BITS:
        raise TooLarge(f"the {what} need a common denominator of more "
                       f"than {MAX_DENOMINATOR_BITS} bits")
    return scale


def _pairwise_products(sb: Superbase) -> GramMatrix:
    """All inner products q_ij of `sb`: its row products over sb.scale**2,
    both divided by their gcd, which leaves the canonical scale."""
    columns = [[(i, x) for i, x in enumerate(column) if x]
               for column in zip(*sb.rows)]
    count = sb.n + 1
    numerators = [[0] * count for _ in range(count)]
    for column in columns:
        for a, (i, x) in enumerate(column):
            row = numerators[i]
            for j, y in column[a:]:
                row[j] += x * y
    common = sb.scale * sb.scale
    for i, row in enumerate(numerators):
        for j in range(i, count):
            if row[j]:
                numerators[j][i] = row[j]
                common = math.gcd(common, row[j])
    if common > 1:
        numerators = [[x // common for x in row] for row in numerators]
    return GramMatrix(tuple(map(tuple, numerators)),
                      sb.scale * sb.scale // common)


def validate_superbase(vectors) -> Superbase:
    """Check the superbase conditions and return a validated Superbase.

    `vectors` is rows of exact scalars, or a Superbase, which is checked
    and returned as it stands.  Verifies, in order: consistent shape,
    componentwise zero sum, all pairwise inner products nonpositive, and
    linear independence of the first n vectors, which for such vectors
    means the graph of nonzero inner products is connected.  The last two
    are the checks :func:`validate_gram` makes of the Selling parameters.

    Raises ShapeMismatch, SumNotZero, ObtuseViolation, RankDeficient, or
    TooLarge if the coordinates' integers or common denominator pass the
    cap, or the Selling parameters' denominator, which can be its square.
    """
    sb = vectors if isinstance(vectors, Superbase) else Superbase(
        *_entries([list(map(as_rational, row)) for row in vectors]))
    g = selling_parameters(sb)
    with _superbase_rank():
        _check_gram(g.rows, g.scale)
    return sb


def selling_parameters(sb: Superbase) -> GramMatrix:
    """The (n+1) x (n+1) matrix of pairwise inner products of `sb`.

    Integers over s**2 for the coordinates' common denominator s, reduced
    to the canonical scale.  First raises ShapeMismatch or SumNotZero, as
    validation would, when the rows are fewer than 2 or of unequal
    lengths or do not sum to zero; otherwise the products would only fail
    later, under another name, or not at all.
    """
    rows = sb.rows
    if len(rows) < 2:
        raise ShapeMismatch("a superbase needs at least 2 vectors")
    m = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != m:
            raise ShapeMismatch(
                f"vector {idx + 1} has length {len(row)}, expected {m}"
            )
    for k, total in enumerate(map(sum, zip(*rows))):
        if total:
            raise SumNotZero(k, Fraction(total, sb.scale))
    return _pairwise_products(sb)


@contextmanager
def _superbase_rank():
    """Report a disconnected Selling graph as a superbase's RankDeficient:
    its first n vectors are dependent.  Every caller that checks the
    Selling parameters of a superbase checks them inside this block."""
    try:
        yield
    except WrongRank as exc:
        raise RankDeficient(exc.vector) from None


def validate_gram(entries) -> GramMatrix:
    """Check Selling-parameter invariants and return a validated GramMatrix.

    `entries` is rows of exact scalars, or a GramMatrix, which is checked
    and returned as it stands.  Verifies shape, symmetry, nonpositive
    off-diagonal entries and zero row sums, which make the matrix a
    weighted graph Laplacian and so positive semidefinite; its rank is
    then side - 1 exactly when the off-diagonal support graph is connected.

    Raises ShapeMismatch, NotSymmetric, ObtuseViolation, RowSumNotZero,
    or WrongRank, and TooLarge if the entries' integers or common
    denominator, or a given GramMatrix's scale, pass MAX_DENOMINATOR_BITS.
    """
    g = entries if isinstance(entries, GramMatrix) else GramMatrix(
        *_entries([list(map(as_rational, row)) for row in entries]))
    _check_gram(g.rows, g.scale)
    return g


def _check_gram(rows: Sequence[Sequence[int]],
                scale: int) -> tuple[dict[int, int], ...]:
    """The cut graph of integer rows over `scale` that are the Selling
    parameters of a lattice, or what :func:`validate_gram` raises first.

    In order: ShapeMismatch unless the side is at least 2 and every row
    that long; NotSymmetric or ObtuseViolation at the first offending
    entry (i, j), i < j, in row-major order, the asymmetry first;
    RowSumNotZero at the first row that does not sum to zero; WrongRank
    at the first vector the graph of nonzero entries does not reach; and
    TooLarge if `scale`, which zero row sums make the edge weights'
    common denominator, passes the cap.  Returns that graph as each
    vertex's neighbours mapped to the negated entry, built from the
    entries above the diagonal.  :func:`validate_gram`,
    :func:`validate_superbase` and :func:`latcut.mincut.graph_from_gram`
    all check here.
    """
    size = len(rows)
    if size < 2:
        raise ShapeMismatch("a Gram matrix needs side >= 2")
    for idx, row in enumerate(rows):
        if len(row) != size:
            raise ShapeMismatch(
                f"row {idx + 1} has length {len(row)}, expected {size}"
            )
    adj: tuple[dict[int, int], ...] = tuple({} for _ in rows)
    vertices = range(size)
    # Python code sees only the nonzeros above the diagonal.
    for i, row in enumerate(rows):
        for j in compress(vertices[i + 1:], row[i + 1:]):
            adj[i][j] = adj[j][i] = -row[j]
    # A positive entry above the diagonal became a negative weight.
    nonpositive = min(chain.from_iterable(map(dict.values, adj)), default=0) >= 0
    # zip hands each column to `eq` and reuses its tuple for the next one.
    if not (nonpositive and all(map(operator.eq, map(tuple, rows), zip(*rows)))
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
    # The rank of a Laplacian is its side minus the number of connected
    # components of its support, so rank side - 1 means one component.
    reached = [True] + [False] * (size - 1)
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if not reached[j]:
                reached[j] = True
                stack.append(j)
    if not all(reached):
        raise WrongRank(reached.index(False))
    _capped(scale, "edge weights")
    return adj


def _bits_of(u) -> tuple[int, ...]:
    bits = tuple(u)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("assignment entries must be 0 or 1")
    return bits


def _scaled_form(rows: Sequence[Sequence[int]], support: Sequence[int]) -> int:
    """sum_ij rows[i][j] over i and j in `support`, as an integer."""
    return sum(rows[i][j] for i in support for j in support)


def quadratic_form(g: GramMatrix, u) -> Fraction:
    """Evaluate sum_ij q_ij u_i u_j for a 0/1 assignment u.

    Equals the squared Euclidean length of the superbase subset sum
    selected by u, any sequence of 0s and 1s.
    """
    bits = _bits_of(u)
    if len(bits) != g.size:
        raise LengthMismatch(
            f"assignment has length {len(bits)}, Gram side is {g.size}"
        )
    support = [i for i, b in enumerate(bits) if b]
    return Fraction(_scaled_form(g.rows, support), g.scale)
