"""Obtuse superbases, Selling parameters, and the binary quadratic form.

Everything here is exact: scalars are ``fractions.Fraction`` at the API,
and both validators work on integers over one common denominator, capped
at MAX_DENOMINATOR_BITS; a GramMatrix keeps those integers.  A matrix of
pairwise superbase products is a weighted graph Laplacian (nonpositive
off the diagonal, zero row sums), hence positive semidefinite with rank
equal to its side minus the number of connected components of its
support; so both validators check rank by one graph traversal instead of
by elimination.

Indices are 0-based everywhere in this API.  Only the CLI renders them
1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
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

ZERO = Fraction(0)

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
    if isinstance(value, str) and not {"e", "E", "_"}.isdisjoint(value):
        raise ValueError(f"{value!r}: exponents and '_' digit separators "
                         f"are not accepted")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Superbase:
    """n+1 exact-rational vectors in ambient dimension m that sum to zero.

    Construct through :func:`validate_superbase` (or a generator); direct
    construction skips invariant checking.
    """

    vectors: tuple[Vector, ...]

    @property
    def n(self) -> int:
        """Lattice dimension: one less than the vector count."""
        return len(self.vectors) - 1

    @property
    def m(self) -> int:
        """Ambient dimension."""
        return len(self.vectors[0])

    def subset_sum(self, subset: Iterable[int]) -> Vector:
        """Componentwise sum of the vectors selected by `subset`."""
        total = [ZERO] * self.m
        for i in subset:
            for k, value in enumerate(self.vectors[i]):
                total[k] += value
        return tuple(total)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise superbase inner products.

    Entry (i, j) is `rows[i][j] / scale`; `scale` is the lcm of the
    entries' reduced denominators, so equal matrices compare equal.  Valid
    instances are graph Laplacians with flipped sign conventions:
    nonpositive off the diagonal, rows summing to zero, rank one less than
    the side.  Construct through :func:`validate_gram` or
    :func:`selling_parameters`; `entries` is a Fraction view for callers.
    """

    rows: tuple[tuple[int, ...], ...]
    scale: int

    @cached_property
    def entries(self) -> Matrix:
        """The entries as Fractions, one object per distinct value."""
        fraction = cache(lambda x: Fraction(x, self.scale))
        return tuple(tuple(map(fraction, row)) for row in self.rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        """Lattice dimension: one less than the matrix side."""
        return len(self.rows) - 1


@dataclass(frozen=True)
class BinaryAssignment:
    """A 0/1 value per superbase vector; selects the subset with 1s."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("assignment cannot be empty")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("assignment entries must be 0 or 1")

    @classmethod
    def from_subset(cls, subset: Iterable[int], length: int) -> "BinaryAssignment":
        bits = [0] * length
        for i in subset:
            bits[i] = 1
        return cls(tuple(bits))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @property
    def is_proper(self) -> bool:
        """True when at least one bit is 1 and at least one is 0."""
        return 0 < sum(self.bits) < len(self.bits)

    def complement(self) -> "BinaryAssignment":
        return BinaryAssignment(tuple(1 - b for b in self.bits))


def _common_denominator(values: Iterable[Fraction], what: str = "entries") -> int:
    """The lcm of the denominators of `values`, at most MAX_DENOMINATOR_BITS long.

    Raises TooLarge as soon as the lcm passes that length; the message
    names the values as `what`.
    """
    scale = 1
    for denominator in {x.denominator for x in values}:
        scale = _capped(math.lcm(scale, denominator), what)
    return scale


def _capped(scale: int, what: str) -> int:
    """`scale`, or TooLarge naming `what` if it passes MAX_DENOMINATOR_BITS."""
    if scale.bit_length() > MAX_DENOMINATOR_BITS:
        raise TooLarge(f"the {what} need a common denominator of more "
                       f"than {MAX_DENOMINATOR_BITS} bits")
    return scale


def _pairwise_products(
    vectors: Sequence[Vector],
) -> tuple[list[list[tuple[int, int]]], int, GramMatrix]:
    """All inner products q_ij, over the common denominator s of `vectors`.

    Returns (columns, s, g): columns[k] lists each nonzero (i, coordinate
    k of vector i times s), and g holds the products q_ij * s**2 divided
    by their gcd with s**2, which leaves g.scale the canonical one.
    Raises TooLarge past MAX_DENOMINATOR_BITS.
    """
    nonzero = [(i, k, x) for i, vec in enumerate(vectors)
               for k, x in enumerate(vec) if x]
    scale = _common_denominator(x for _, _, x in nonzero)
    columns: list[list[tuple[int, int]]] = [[] for _ in vectors[0]]
    for i, k, x in nonzero:
        columns[k].append((i, x.numerator * (scale // x.denominator)))
    count = len(vectors)
    numerators = [[0] * count for _ in range(count)]
    for column in columns:
        for a, (i, x) in enumerate(column):
            row = numerators[i]
            for j, y in column[a:]:
                row[j] += x * y
    common = scale * scale
    for i, row in enumerate(numerators):
        for j in range(i, count):
            if row[j]:
                numerators[j][i] = row[j]
                common = math.gcd(common, row[j])
    if common > 1:
        numerators = [[x // common for x in row] for row in numerators]
    return columns, scale, GramMatrix(tuple(map(tuple, numerators)),
                                      scale * scale // common)


def _first_unreachable(q: Sequence[Sequence[int]]) -> int | None:
    """Lowest index not joined to index 0 through nonzero off-diagonal q_ij.

    For a symmetric matrix with nonpositive off-diagonal entries and zero
    row sums (a weighted graph Laplacian) the rank is the side minus the
    number of connected components of this support graph, so None means
    rank exactly side - 1.
    """
    reached = [False] * len(q)
    reached[0] = True
    stack = [0]
    while stack:
        for j, value in enumerate(q[stack.pop()]):
            if value and not reached[j]:
                reached[j] = True
                stack.append(j)
    return next((j for j, seen in enumerate(reached) if not seen), None)


# The superbase validated last and the Selling parameters its validation
# computed, so the selling_parameters() call that usually follows does not
# redo every pairwise product.  Only the latest pair is held: keeping the
# matrix on every Superbase would double the memory of a program that
# holds many of them.
_last_validated: tuple[Superbase, GramMatrix] | None = None


def _validated_selling(sb: Superbase) -> GramMatrix | None:
    """The Gram matrix that validating `sb` built, if it is still held."""
    last = _last_validated
    return last[1] if last is not None and last[0] is sb else None


def validate_superbase(vectors) -> Superbase:
    """Check the superbase conditions and return a validated Superbase.

    Verifies, in order: consistent shape, componentwise zero sum, all
    pairwise inner products nonpositive, and linear independence of the
    first n vectors, which for such vectors means the graph of nonzero
    inner products is connected.  All checks are exact.

    Raises ShapeMismatch, SumNotZero, ObtuseViolation, RankDeficient, or
    TooLarge if the coordinates' common denominator passes the cap.
    """
    rows = tuple(tuple(map(as_rational, row)) for row in vectors)
    if len(rows) < 2:
        raise ShapeMismatch("a superbase needs at least 2 vectors")
    m = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != m:
            raise ShapeMismatch(
                f"vector {idx + 1} has length {len(row)}, expected {m}"
            )

    columns, scale, g = _pairwise_products(rows)
    for k, column in enumerate(columns):
        if total := sum(x for _, x in column):
            raise SumNotZero(k, Fraction(total, scale))
    for i, row in enumerate(g.rows):
        for j in range(i + 1, len(row)):
            if row[j] > 0:
                raise ObtuseViolation((i, j), Fraction(row[j], g.scale))

    unreachable = _first_unreachable(g.rows)
    if unreachable is not None:
        raise RankDeficient(unreachable)
    global _last_validated
    sb = Superbase(rows)
    _last_validated = (sb, g)
    return sb


def selling_parameters(sb: Superbase) -> GramMatrix:
    """The (n+1) x (n+1) matrix of pairwise inner products of `sb`.

    Integers over s**2 for the coordinates' common denominator s, reduced
    to the canonical scale.  A validated superbase always yields a valid
    GramMatrix, so no checks are repeated here.  Called on the superbase
    validated last, it returns the matrix that validation built.
    """
    return _validated_selling(sb) or _pairwise_products(sb.vectors)[2]


def validate_gram(entries) -> GramMatrix:
    """Check Selling-parameter invariants and return a validated GramMatrix.

    Verifies symmetry, nonpositive off-diagonal entries and zero row sums,
    which make the matrix a weighted graph Laplacian and so positive
    semidefinite; its rank is then side - 1 exactly when the off-diagonal
    support graph is connected.

    Raises ShapeMismatch, NotSymmetric, ObtuseViolation, RowSumNotZero,
    or WrongRank, and TooLarge if the entries' common denominator is
    longer than MAX_DENOMINATOR_BITS.
    """
    rows = [list(map(as_rational, row)) for row in entries]
    size = len(rows)
    if size < 2:
        raise ShapeMismatch("a Gram matrix needs side >= 2")
    for idx, row in enumerate(rows):
        if len(row) != size:
            raise ShapeMismatch(
                f"row {idx + 1} has length {len(row)}, expected {size}"
            )

    # The same matrix over one common denominator, kept by the result:
    # identical signs, sums and equalities, at integer cost.
    scale = _common_denominator(x for row in rows for x in row)
    scaled = [[x.numerator * (scale // x.denominator) for x in row]
              for row in rows]
    for i in range(size):
        for j in range(i + 1, size):
            if scaled[i][j] != scaled[j][i]:
                raise NotSymmetric(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ: "
                    f"{rows[i][j]} vs {rows[j][i]}"
                )
            if scaled[i][j] > 0:
                raise ObtuseViolation((i, j), rows[i][j])

    for i, row in enumerate(scaled):
        if sum(row):
            raise RowSumNotZero(i, Fraction(sum(row), scale))

    unreachable = _first_unreachable(scaled)
    if unreachable is not None:
        raise WrongRank(unreachable)
    return GramMatrix(tuple(map(tuple, scaled)), scale)


def _bits_of(u) -> tuple[int, ...]:
    if isinstance(u, BinaryAssignment):
        return u.bits
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
    selected by u.  Accepts a BinaryAssignment or any 0/1 sequence.
    """
    bits = _bits_of(u)
    if len(bits) != g.size:
        raise LengthMismatch(
            f"assignment has length {len(bits)}, Gram side is {g.size}"
        )
    support = [i for i, b in enumerate(bits) if b]
    return Fraction(_scaled_form(g.rows, support), g.scale)
