"""Shared helpers: reproducible random instances for property tests."""

import os
import tempfile
from fractions import Fraction

try:
    from hypothesis import settings
except ImportError:  # the hypothesis-based tests skip themselves
    settings = None

from latcut import Superbase, WeightedGraph, validate_superbase
from latcut.rng import SplitMix64, Xoshiro256StarStar

if settings is not None:
    # The same examples on every run, no deadline on a slow or busy host,
    # and no example database written into the checkout.
    settings.register_profile(
        "latcut", derandomize=True, deadline=None, database=None
    )
    settings.load_profile("latcut")
    # Hypothesis caches the constants it finds in the source even without
    # a database, at collection time; keep that cache out of the checkout.
    os.environ.setdefault(
        "HYPOTHESIS_STORAGE_DIRECTORY",
        os.path.join(tempfile.gettempdir(), "latcut-hypothesis"),
    )


def seeds_from(master: int, count: int) -> list[int]:
    mixer = SplitMix64(master)
    return [mixer.next_u64() for _ in range(count)]


def random_superbase(n: int, seed: int, extra_edge_chance: int = 2) -> Superbase:
    """A random obtuse superbase with rational coordinates.

    Build a random connected pair pattern over n+1 indices, give each
    chosen pair a rational value r, and lay the pairs out as columns of
    an incidence matrix: +r at one endpoint, -r at the other.  Rows then
    sum to zero columnwise, distinct rows meet in at most one column so
    their inner product is -r^2 <= 0, and connectivity makes the first n
    rows independent.  Completely separate from the Gram-space generator.
    """
    rng = Xoshiro256StarStar(seed)
    size = n + 1
    pairs = []
    for v in range(1, size):
        pairs.append((rng.randrange(v), v))
    for i in range(size):
        for j in range(i + 1, size):
            if (i, j) in pairs:
                continue
            if rng.randrange(extra_edge_chance) == 0:
                pairs.append((i, j))
    values = [
        Fraction(1 + rng.randrange(6), 1 + rng.randrange(4)) for _ in pairs
    ]
    vectors = [[Fraction(0)] * len(pairs) for _ in range(size)]
    for col, ((i, j), r) in enumerate(zip(pairs, values)):
        vectors[i][col] = r
        vectors[j][col] = -r
    return validate_superbase(vectors)


def random_graph(vertex_count: int, seed: int,
                 connected: bool = True) -> WeightedGraph:
    """An arbitrary random weighted graph (not necessarily a Selling graph)."""
    rng = Xoshiro256StarStar(seed)
    edges = []
    if connected:
        for v in range(1, vertex_count):
            edges.append(
                (rng.randrange(v), v,
                 Fraction(1 + rng.randrange(8), 1 + rng.randrange(4)))
            )
    present = {(i, j) for i, j, _ in edges}
    for i in range(vertex_count):
        for j in range(i + 1, vertex_count):
            if (i, j) in present:
                continue
            if rng.randrange(2) == 0:
                edges.append(
                    (i, j, Fraction(rng.randrange(9), 1 + rng.randrange(4)))
                )
    return WeightedGraph.from_edges(vertex_count, edges)


def hypercube(dimension: int) -> WeightedGraph:
    """The unit-weight hypercube: vertices joined when they differ in one bit."""
    return WeightedGraph.from_edges(2 ** dimension, [
        (v, v | 1 << b, 1) for v in range(2 ** dimension)
        for b in range(dimension) if not v >> b & 1])
