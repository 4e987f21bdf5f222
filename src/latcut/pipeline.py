"""End-to-end reduction: superbase or Gram matrix in, short vector out.

The squared length of a shortest nonzero vector of a lattice given by an
obtuse superbase equals the weight of a global minimum cut of the graph
built from its Selling parameters, and the cut side names the superbase
subset to sum.  This module wires that equivalence together, on the
integers a Superbase and a GramMatrix hold: a Superbase gives the graph
straight from its products and the answer's coordinates, a GramMatrix
the graph alone.  :func:`short_vector` and :func:`verify_reduction` take
the lattice as it was built and get its graph from
:func:`latcut.mincut.graph_from_gram`, which checks it, each condition
once, with validation's classes and messages, and builds no dense Gram
matrix.  It also carries the exhaustive oracles used to test the
reduction, and :func:`_candidates`, the one reader of the packed keys
that the candidate enumeration sorts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add, mul
from typing import Any, Callable, Iterator, NamedTuple

from .errors import CertificateError, ImproperAssignment, TooLarge
from .lattice import (
    GramMatrix,
    Superbase,
    Vector,
    _bits_of,
    _check_square,
    _check_vectors,
    _fractions,
    _scaled_form,
    quadratic_form,
)
from .mincut import (
    BRUTE_FORCE_LIMIT,
    brute_force_mincut,
    cut_weight,
    default_trial_count,
    graph_from_gram,
    karger_stein,
    stoer_wagner,
)

ALGORITHMS = ("stoer-wagner", "karger", "brute")


@dataclass(frozen=True)
class ShortVectorResult:
    """A shortest-vector certificate.

    `subset` lists the superbase indices whose sum is a shortest vector,
    `squared_length` is its exact squared Euclidean length (= the minimum
    cut weight), and `coordinates` carries the vector itself whenever the
    input included coordinates.
    """

    subset: tuple[int, ...]
    squared_length: Fraction
    coordinates: Vector | None = None


class Candidate(NamedTuple):
    """One subset sum from the exhaustive candidate enumeration."""

    subset: tuple[int, ...]
    coordinates: Vector
    squared_length: Fraction


def short_vector(
    lattice: Superbase | GramMatrix,
    algorithm: str = "stoer-wagner",
    *,
    seed: int = 0,
    trials: int | None = None,
) -> ShortVectorResult:
    """Compute a shortest nonzero lattice vector via a graph minimum cut.

    `lattice` is a Superbase, whose Selling parameters give the graph and
    whose vectors give the result's coordinates, or a GramMatrix, which
    gives no coordinates; either is checked here, so it need not have
    been validated.  `algorithm` is one of "stoer-wagner" (deterministic,
    the default), "karger" (randomized; honors `seed` and `trials`, with
    a trial count of ceil((log2(n+1))^2) + 8 when `trials` is None), or
    "brute" (exhaustive cut enumeration, small inputs only).

    The graph comes from :func:`latcut.mincut.graph_from_gram`, which
    raises what :func:`latcut.lattice.validate_superbase` or
    :func:`latcut.lattice.validate_gram` raises on the same lattice,
    class and message, before any cut is computed; a connected graph has
    no cut of weight 0.  Before returning, the edges crossing the cut
    side and any coordinates must both weigh exactly the cut weight; the
    coordinates are checked in integers, their squares over the
    superbase's scale squared.  Raises CertificateError if that
    self-check fails.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")

    graph = graph_from_gram(lattice)
    if algorithm == "stoer-wagner":
        cut = stoer_wagner(graph)
    elif algorithm == "brute":
        cut = brute_force_mincut(graph)
    else:
        if trials is None:
            trials = default_trial_count(graph.vertex_count)
        cut = karger_stein(graph, seed, trials)

    total = lattice._subset_total(cut.side) \
        if isinstance(lattice, Superbase) else None
    if cut_weight(graph, cut.side).weight != cut.weight or \
            total is not None and \
            sum(map(mul, total, total)) != cut.weight * lattice.scale ** 2:
        raise CertificateError(
            f"the answer does not certify its squared length {cut.weight}"
        )
    coordinates = None if total is None else _fractions(total, lattice.scale)
    return ShortVectorResult(cut.side, cut.weight, coordinates)


def brute_force_short_vector(g: GramMatrix) -> ShortVectorResult:
    """Oracle: minimize the quadratic form over every proper nonempty subset.

    Scans all 2^(n+1) - 2 binary assignments directly on the Gram matrix,
    never touching the graph reduction.  Ties break toward the smallest
    squared length, then the smallest subset, then lexicographic order.
    Raises ShapeMismatch, with the validators' message, unless `g` is
    square of side at least 2; refuses n + 1 > 24.
    """
    _check_square(g.rows)
    size = g.size
    _refuse_past_limit(size, "subsets")
    subsets = (tuple(i for i in range(size) if mask >> i & 1)
               for mask in range(1, (1 << size) - 1))
    total, _, subset = min((_scaled_form(g.rows, s), len(s), s) for s in subsets)
    return ShortVectorResult(subset, Fraction(total, g.scale))


def _refuse_past_limit(size: int, noun: str) -> None:
    """Raise TooLarge, naming the 2^size - 2 `noun`, past the exhaustive
    limit of `size` = n + 1 vectors."""
    if size > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"{2 ** size - 2} {noun} at n + 1 = {size}; the exhaustive "
            f"limit is {BRUTE_FORCE_LIMIT}"
        )


def candidate_vectors(sb: Superbase) -> list[Candidate]:
    """Every proper nonempty subset sum, sorted by squared length.

    This is the naive exponential search over all 2^(n+1) - 2 candidate
    vectors, computed purely in coordinate space.  The list is sorted
    ascending by squared length with the same tie-break as
    :func:`brute_force_short_vector`, so the first entry is a shortest
    vector.  Raises ShapeMismatch, with the validators' message, for
    fewer than 2 vectors or at the first ragged one; refuses n + 1 > 24.
    Read from :func:`_candidates`, building each distinct Fraction once.
    """
    coordinate = cache(lambda c: Fraction(c, sb.scale))
    length = cache(lambda q: Fraction(q, sb.scale ** 2))
    return [Candidate(subset, tuple(map(coordinate, map(add, high, low))),
                      length(q))
            for subset, high, low, q in _candidates(sb, tuple)]


# (indices, integer sum) of each part of a superbase's vectors, by slot.
_Parts = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _candidates(sb: Superbase, label: Callable[[tuple[int, ...]], Any]
                ) -> Iterator[tuple]:
    """Every proper nonempty subset S of `sb`'s s = n + 1 vectors, in the
    order (squared length, size, subset) of
    :func:`brute_force_short_vector`, as (label, high sum, low sum, q).
    S splits into H, its part among the first s - cut vectors, and L, its
    part among the last cut = s // 2; the label is ``label(H) + label(L)``,
    with `label` called once per part; the sums are H's and L's integer
    sums; q is the squared length of their total times scale².  The first
    item raises ShapeMismatch, as the validators do, for fewer than 2
    vectors or a ragged one, then TooLarge if s > 24.

    Until it is read, S is one packed integer key
    ``q << shift | |S| << s | slot``, where shift is s + s.bit_length(),
    and slot has bit s - 1 - i clear exactly when vector i is in S.  Among
    subsets of one size, the lexicographic order of the sorted index tuples
    is the descending order of the bit-reversed masks, which is the
    ascending order of the slots.  So sorting the keys sorts by (squared
    length, size, subset), and no field caps q.  ``slot >> cut`` and
    ``slot & (1 << cut) - 1`` index the tables of H's and L's parts, so a
    key costs no more memory than itself, and the sorted keys are the
    reader's peak memory.  The keys are made from every pair of parts,
    one dot product each: |H + L|² = |H|² + |L|² + 2 H·L.
    """
    _check_vectors(sb.rows)
    size = len(sb.rows)
    _refuse_past_limit(size, "candidates")
    cut = size // 2
    high, low = _parts(sb, 0, size - cut), _parts(sb, size - cut, cut)
    shift = size + size.bit_length()

    def packed(parts: _Parts, at: int) -> list[tuple[int, tuple[int, ...]]]:
        """Each part's own fields of the key, and its sum."""
        return [(sum(map(mul, total, total)) << shift | len(indices) << size
                 | slot << at, total)
                for slot, (indices, total) in enumerate(parts)]

    lows = packed(low, 0)
    keys = [h_key + l_key + (sum(map(mul, h_sum, l_sum)) << shift + 1)
            for h_key, h_sum in packed(high, cut) for l_key, l_sum in lows]
    del keys[-1], keys[0]  # slots full and 0: no vector, and all of them
    keys.sort()
    high, low = [[(label(part), total) for part, total in parts]
                 for parts in (high, low)]
    top, bottom = len(high) - 1, len(low) - 1
    for key in keys:
        h, h_sum = high[key >> cut & top]
        l, l_sum = low[key & bottom]
        yield h + l, h_sum, l_sum, key >> shift


def _parts(sb: Superbase, first: int, count: int) -> _Parts:
    """(indices, integer sum) of each part of the `count` vectors from
    `first` on, by slot: bit count - 1 - j of the slot is clear exactly
    when vector first + j is in the part."""
    parts = [tuple(first + j for j in range(count)
                   if not slot >> count - 1 - j & 1)
             for slot in range(1 << count)]
    return [(part, sb._subset_total(part)) for part in parts]


def verify_reduction(lattice: Superbase | GramMatrix,
                     u) -> tuple[Fraction, Fraction]:
    """Evaluate one assignment both ways: quadratic form and cut weight.

    `lattice` is a Superbase or GramMatrix, checked as for
    :func:`short_vector`, by :func:`latcut.mincut.graph_from_gram`.
    Returns (Q(u), W(C, complement)) where C is the support of `u`.  The
    two are equal for every proper assignment on a valid lattice; callers
    assert the equality they care about.

    Raises ValueError unless each entry of u is 0 or 1, then what
    validation raises on the lattice, then ImproperAssignment when u is
    all zeros or all ones, then LengthMismatch when u has not one entry
    per vector.
    """
    bits = _bits_of(u)
    graph = graph_from_gram(lattice)
    if not 0 < sum(bits) < len(bits):
        raise ImproperAssignment(
            "assignment must contain at least one 1 and at least one 0"
        )
    q_value = quadratic_form(lattice, bits)
    side = tuple(i for i, b in enumerate(bits) if b)
    return q_value, cut_weight(graph, side).weight
