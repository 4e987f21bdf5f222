"""End-to-end reduction: superbase or Gram matrix in, short vector out.

The squared length of a shortest nonzero vector of a lattice given by an
obtuse superbase equals the weight of a global minimum cut of the graph
built from its Selling parameters, and the cut side names the superbase
subset to sum.  This module wires that equivalence together, on the
integers a Superbase and a GramMatrix hold: a Superbase gives the graph
through its Selling parameters and the answer's coordinates, a GramMatrix
the graph alone.  It also carries the exhaustive subset oracle used to
test it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import add, mul, sub
from typing import NamedTuple

from .errors import CertificateError, ImproperAssignment, TooLarge, ZeroWeightCut
from .lattice import (
    GramMatrix,
    Superbase,
    Vector,
    _bits_of,
    _scaled_form,
    quadratic_form,
    selling_parameters,
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

    `lattice` is a validated Superbase, whose Selling parameters give the
    graph and whose vectors give the result's coordinates, or a validated
    GramMatrix, which gives no coordinates.  `algorithm` is one of
    "stoer-wagner" (deterministic, the default), "karger" (randomized;
    honors `seed` and `trials`, with a trial count of
    ceil((log2(n+1))^2) + 8 when `trials` is None), or "brute"
    (exhaustive cut enumeration, small inputs only).

    Before returning, the edges crossing the cut side and any coordinates
    must both weigh exactly the cut weight.  Raises ZeroWeightCut if the
    minimum cut has weight zero, which is possible only when an invalid
    matrix bypassed validation, or CertificateError if the self-check
    fails.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")

    graph = graph_from_gram(_gram_of(lattice))
    if algorithm == "stoer-wagner":
        cut = stoer_wagner(graph)
    elif algorithm == "brute":
        cut = brute_force_mincut(graph)
    else:
        if trials is None:
            trials = default_trial_count(graph.vertex_count)
        cut = karger_stein(graph, seed, trials)

    if not cut.weight:
        raise ZeroWeightCut(
            "minimum cut weight is 0; the input cannot be the Selling "
            "matrix of a lattice"
        )
    coordinates = lattice.subset_sum(cut.side) \
        if isinstance(lattice, Superbase) else None
    if cut_weight(graph, cut.side).weight != cut.weight or \
            coordinates is not None and \
            sum(x * x for x in coordinates) != cut.weight:
        raise CertificateError(
            f"the answer does not certify its squared length {cut.weight}"
        )
    return ShortVectorResult(cut.side, cut.weight, coordinates)


def _gram_of(lattice: Superbase | GramMatrix) -> GramMatrix:
    """The Gram matrix of `lattice`: its Selling parameters or itself."""
    if isinstance(lattice, Superbase):
        return selling_parameters(lattice)
    return lattice


def brute_force_short_vector(g: GramMatrix) -> ShortVectorResult:
    """Oracle: minimize the quadratic form over every proper nonempty subset.

    Scans all 2^(n+1) - 2 binary assignments directly on the Gram matrix,
    never touching the graph reduction.  Ties break toward the smallest
    squared length, then the smallest subset, then lexicographic order.
    Refuses n + 1 > 24.
    """
    size = g.size
    if size > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"{2 ** size - 2} subsets at n + 1 = {size}; the exhaustive "
            f"limit is {BRUTE_FORCE_LIMIT}"
        )
    subsets = (tuple(i for i in range(size) if mask >> i & 1)
               for mask in range(1, (1 << size) - 1))
    total, _, subset = min((_scaled_form(g.rows, s), len(s), s) for s in subsets)
    return ShortVectorResult(subset, Fraction(total, g.scale))


def candidate_vectors(sb: Superbase) -> list[Candidate]:
    """Every proper nonempty subset sum, sorted by squared length.

    This is the naive exponential search over all 2^(n+1) - 2 candidate
    vectors, computed purely in coordinate space.  The list is sorted
    ascending by squared length with the same tie-break as
    :func:`brute_force_short_vector`, so the first entry is a shortest
    vector.  Refuses n + 1 > 24.

    Subsets are walked in reflected Gray-code order, so each step adds or
    subtracts one of the superbase's integer rows: O(m) per subset.  The
    sort key (scaled squared length, size, subset) is a total order, so
    the walk order does not show, and each distinct Fraction is built once.
    """
    size = sb.n + 1
    if size > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"{2 ** size - 2} candidates at n + 1 = {size}; the exhaustive "
            f"limit is {BRUTE_FORCE_LIMIT}"
        )
    indices = range(size)
    chosen = [False] * size
    acc = (0,) * sb.m
    keyed = []
    for step in range(1, 1 << size):
        i = (step & -step).bit_length() - 1
        chosen[i] = not chosen[i]
        acc = tuple(map(add if chosen[i] else sub, acc, sb.rows[i]))
        subset = tuple(compress(indices, chosen))
        if len(subset) < size:
            keyed.append((sum(map(mul, acc, acc)), len(subset), subset, acc))
    keyed.sort()  # subsets differ, so coordinates are never compared
    coordinate = cache(lambda c: Fraction(c, sb.scale))
    length = cache(lambda sq: Fraction(sq, sb.scale ** 2))
    # In place, so each keyed tuple is freed as its candidate is built.
    for k, (sq, _, subset, coords) in enumerate(keyed):
        keyed[k] = Candidate(subset, tuple(map(coordinate, coords)), length(sq))
    return keyed


def verify_reduction(lattice: Superbase | GramMatrix,
                     u) -> tuple[Fraction, Fraction]:
    """Evaluate one assignment both ways: quadratic form and cut weight.

    `lattice` is a validated Superbase or GramMatrix, as for
    :func:`short_vector`.  Returns (Q(u), W(C, complement)) where C is the
    support of `u`.  The two are equal for every proper assignment on a
    valid lattice; callers assert the equality they care about.

    Raises ImproperAssignment when u is all zeros or all ones.
    """
    bits = _bits_of(u)
    if not 0 < sum(bits) < len(bits):
        raise ImproperAssignment(
            "assignment must contain at least one 1 and at least one 0"
        )
    g = _gram_of(lattice)
    q_value = quadratic_form(g, bits)
    side = tuple(i for i, b in enumerate(bits) if b)
    cut = cut_weight(graph_from_gram(g), side)
    return q_value, cut.weight
