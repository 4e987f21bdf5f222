"""Obtuse superbases, Selling parameters, and the binary quadratic form.

Everything here is exact: scalars are ``fractions.Fraction`` at the API,
and a Superbase or a GramMatrix holds integers over one denominator, which
:func:`_scaled`, the one conversion from rationals, caps at
MAX_DENOMINATOR_BITS; the generators build their integers directly.
A matrix of pairwise superbase products is a weighted graph Laplacian
(nonpositive off the diagonal, zero row sums), hence positive semidefinite
with rank equal to its side minus the number of connected components of
its support; so both validators check rank by one graph traversal instead
of by elimination.

Indices are 0-based everywhere in this API.  Only the CLI renders them
1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
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


def _fraction_view(self) -> Matrix:
    """`rows` over `scale` as Fractions, one object per distinct value."""
    fraction = cache(lambda x: Fraction(x, self.scale))
    return tuple(tuple(map(fraction, row)) for row in self.rows)


def _token_value(token: str) -> Fraction:
    """The value of one token in the grammar of :func:`as_rational`."""
    if not {"e", "E", "_"}.isdisjoint(token):
        raise ValueError(f"{token!r}: exponents and '_' digit separators "
                         f"are not accepted")
    return Fraction(token)


@dataclass(frozen=True)
class Superbase:
    """n+1 exact-rational vectors in ambient dimension m that sum to zero.

    Coordinates are `rows` over `scale`, canonical as in GramMatrix.
    Construct through :func:`validate_superbase`; the parser and the
    generators build one over the canonical scale and pass it there.
    `vectors` is a Fraction view.
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
        total = [0] * self.m
        for i in subset:
            for k, value in enumerate(self.rows[_index(i, len(self.rows))]):
                total[k] += value
        return tuple([Fraction(x, self.scale) for x in total])


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise superbase inner products.

    Entry (i, j) is `rows[i][j] / scale`; `scale` is the lcm of the
    entries' reduced denominators, so equal matrices compare equal.  Valid
    instances are graph Laplacians with flipped sign conventions:
    nonpositive off the diagonal, rows summing to zero, rank one less than
    the side.  Construct through :func:`validate_gram` (the parser and
    `gen_random_gram` pass it one they built over the canonical scale) or
    :func:`selling_parameters`; `entries` is a Fraction view for callers.
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
            bits[_index(i, length)] = 1
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


def _index(i: int, count: int) -> int:
    """`i`, or ValueError naming it unless 0 <= i < count."""
    if not 0 <= i < count:
        raise ValueError(f"index {i} is out of range 0..{count - 1}")
    return i


def _scaled(rows: Sequence[Sequence[Fraction]],
            what: str = "entries") -> tuple[tuple[tuple[int, ...], ...], int]:
    """`rows` as integers over s, the lcm of their reduced denominators, and s.

    Converts file tokens, library rows and `from_edges` weights.  Raises
    TooLarge as soon as s passes MAX_DENOMINATOR_BITS, naming them `what`.
    """
    scale = 1
    for denominator in {x.denominator for row in rows for x in row}:
        scale = _capped(math.lcm(scale, denominator), what)
    return tuple([tuple([x.numerator * (scale // x.denominator) for x in row])
                  for row in rows]), scale


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


def _first_unreachable(q: Sequence[Sequence[int]]) -> int | None:
    """Lowest index not joined to index 0 through nonzero off-diagonal q_ij.

    For a symmetric matrix with nonpositive off-diagonal entries and zero
    row sums (a weighted graph Laplacian) the rank is the side minus the
    number of connected components of this support graph, so None means
    rank exactly side - 1.  Python code sees only each row's nonzeros.
    """
    reached = [True] + [False] * (len(q) - 1)
    stack = [0]
    while stack:
        for j in compress(range(len(q)), q[stack.pop()]):
            if not reached[j]:
                reached[j] = True
                stack.append(j)
    return next((j for j, seen in enumerate(reached) if not seen), None)


# The superbase validated last and the Selling parameters its validation
# computed, so the selling_parameters() call that usually follows does not
# redo every pairwise product.  Only the latest pair is held: keeping the
# matrix on every Superbase would double the memory of a program that
# holds many of them.
_last_validated: tuple[Superbase, GramMatrix] | None = None


def validate_superbase(vectors) -> Superbase:
    """Check the superbase conditions and return a validated Superbase.

    `vectors` is rows of exact scalars, or a Superbase, which is checked
    and returned as it stands.  Verifies, in order: consistent shape,
    componentwise zero sum, all pairwise inner products nonpositive, and
    linear independence of the first n vectors, which for such vectors
    means the graph of nonzero inner products is connected.

    Raises ShapeMismatch, SumNotZero, ObtuseViolation, RankDeficient, or
    TooLarge if the coordinates' common denominator passes the cap.
    """
    sb = vectors if isinstance(vectors, Superbase) else None
    rows = sb.rows if sb else [list(map(as_rational, row)) for row in vectors]
    if len(rows) < 2:
        raise ShapeMismatch("a superbase needs at least 2 vectors")
    m = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != m:
            raise ShapeMismatch(
                f"vector {idx + 1} has length {len(row)}, expected {m}"
            )
    sb = sb or Superbase(*_scaled(rows))

    for k, total in enumerate(map(sum, zip(*sb.rows))):
        if total:
            raise SumNotZero(k, Fraction(total, sb.scale))
    g = _pairwise_products(sb)
    for i, row in enumerate(g.rows):
        for j in range(i + 1, len(row)):
            if row[j] > 0:
                raise ObtuseViolation((i, j), Fraction(row[j], g.scale))

    unreachable = _first_unreachable(g.rows)
    if unreachable is not None:
        raise RankDeficient(unreachable)
    global _last_validated
    _last_validated = (sb, g)
    return sb


def selling_parameters(sb: Superbase) -> GramMatrix:
    """The (n+1) x (n+1) matrix of pairwise inner products of `sb`.

    Integers over s**2 for the coordinates' common denominator s, reduced
    to the canonical scale.  A validated superbase always yields a valid
    GramMatrix, so no checks are repeated here.  Called on the superbase
    validated last, it returns the matrix that validation built, so
    `short_vector(validate_superbase(rows))` computes the products once.
    """
    last = _last_validated
    if last is not None and last[0] is sb:
        return last[1]
    return _pairwise_products(sb)


def validate_gram(entries) -> GramMatrix:
    """Check Selling-parameter invariants and return a validated GramMatrix.

    `entries` is rows of exact scalars, or a GramMatrix, which is checked
    and returned as it stands.  Verifies symmetry, nonpositive
    off-diagonal entries and zero row sums, which make the matrix a
    weighted graph Laplacian and so positive semidefinite; its rank is
    then side - 1 exactly when the off-diagonal support graph is connected.

    Raises ShapeMismatch, NotSymmetric, ObtuseViolation, RowSumNotZero,
    or WrongRank, and TooLarge if the entries' common denominator is
    longer than MAX_DENOMINATOR_BITS.
    """
    g = entries if isinstance(entries, GramMatrix) else None
    rows = g.rows if g else [list(map(as_rational, row)) for row in entries]
    size = len(rows)
    if size < 2:
        raise ShapeMismatch("a Gram matrix needs side >= 2")
    for idx, row in enumerate(rows):
        if len(row) != size:
            raise ShapeMismatch(
                f"row {idx + 1} has length {len(row)}, expected {size}"
            )
    g = g or GramMatrix(*_scaled(rows))

    scaled, scale = g.rows, g.scale
    for i in range(size):
        for j in range(i + 1, size):
            if scaled[i][j] != scaled[j][i]:
                raise NotSymmetric(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ: "
                    f"{Fraction(scaled[i][j], scale)} vs "
                    f"{Fraction(scaled[j][i], scale)}"
                )
            if scaled[i][j] > 0:
                raise ObtuseViolation((i, j), Fraction(scaled[i][j], scale))

    for i, row in enumerate(scaled):
        if sum(row):
            raise RowSumNotZero(i, Fraction(sum(row), scale))

    unreachable = _first_unreachable(scaled)
    if unreachable is not None:
        raise WrongRank(unreachable)
    return g


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
