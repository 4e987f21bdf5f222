"""Built-in lattice families and random test instances.

Coordinate families (`gen_an`, `gen_anstar`, `gen_zn`, `gen_example3d`)
return obtuse superbases; `gen_random_gram` draws a random valid
Selling matrix directly in Gram space, where any symmetric matrix with
nonpositive off-diagonals, zero row sums, and connected support
qualifies.  Each generator builds its integer rows over the canonical
scale and checks nothing: every instance is valid by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .lattice import GramMatrix, Superbase, as_rational
from .rng import Xoshiro256StarStar

FAMILIES = ("an", "anstar", "zn", "example3d", "random_gram")

DEFAULT_DENSITY = Fraction(1, 2)

# The largest n `generate` builds.  An instance holds about n^2 entries:
# `latcut gen` peaked at 138 MB for anstar 2000 and 170 MB for random_gram
# 2000 at density 1, and `latcut svp` on the anstar 2000 file, 32 MB, at
# 543 MB (peak RSS, CPython 3.11); anstar 4000 alone took 505 MB to
# generate.
MAX_N = 2000
MAX_WEIGHT = 4
MAX_DENOMINATOR = 8


@dataclass(frozen=True)
class InstanceSpec:
    """A reproducible description of one generated instance."""

    family: str
    n: int
    seed: int | None = None
    density: Fraction | None = None


def gen_an(n: int) -> Superbase:
    """The root lattice A_n: all cyclic shifts of (1, -1, 0, ..., 0).

    Vector i has +1 at position i and -1 at position i+1 (mod n+1), in
    ambient dimension n+1.  Selling parameters: 2 on the diagonal, -1 for
    cyclically adjacent pairs, 0 otherwise; the graph is the (n+1)-cycle
    with unit weights (a single doubled edge when n = 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n + 1
    rows = []
    for i in range(size):
        row = [0] * size
        row[i] = 1
        row[(i + 1) % size] = -1
        rows.append(tuple(row))
    return Superbase(tuple(rows), 1)


def gen_anstar(n: int) -> Superbase:
    """The dual lattice A_n*: cyclic shifts of (n/(n+1), -1/(n+1), ...).

    Selling parameters: n/(n+1) on the diagonal and -1/(n+1) elsewhere;
    the graph is the complete graph on n+1 vertices with uniform weight
    1/(n+1).  Coordinates are n and -1 over the scale n+1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n + 1
    rows = tuple([tuple([n if k == i else -1 for k in range(size)])
                  for i in range(size)])
    return Superbase(rows, size)


def gen_zn(n: int) -> Superbase:
    """The integer lattice Z^n with its star superbase.

    Vectors e_1 ... e_n plus -(1, ..., 1).  The graph is a star centered
    at the last vertex with unit weights, so the minimum cut weight is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(tuple(row))
    rows.append((-1,) * n)
    return Superbase(tuple(rows), 1)


def gen_example3d() -> Superbase:
    """A 3-dimensional lattice whose shortest vector is not a superbase vector.

    The four superbase vectors have squared lengths 5/4, 5/4, 1, and 3/2,
    yet the sum of the first two is (1/2, 1/2, 0) with squared length 1/2.
    Useful as a golden instance precisely because every singleton subset
    loses.  Coordinates are over the scale 2.
    """
    rows = ((2, -1, 0), (-1, 2, 0), (0, 0, 2), (-1, -1, -2))
    return Superbase(rows, 2)


def gen_random_gram(
    n: int, seed: int, density: Fraction | str | int = DEFAULT_DENSITY,
) -> GramMatrix:
    """A random valid Selling matrix, deterministic in (n, seed, density).

    Off-diagonal entries are random rationals in [-MAX_WEIGHT, 0) with
    denominators up to MAX_DENOMINATOR, each present with probability
    `density`; a random spanning tree over the n+1 indices is always
    included so the support stays connected, which forces rank n.
    Diagonals are set to minus the row's off-diagonal sum.  Entries are
    built over lcm(1..MAX_DENOMINATOR), then reduced to the canonical scale.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    density = as_rational(density)
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = Xoshiro256StarStar(seed)
    size = n + 1

    edges = set()
    for v in range(1, size):
        edges.add((rng.randrange(v), v))

    # density test: u/2^64 < p/q, exactly
    threshold_num = density.numerator << 64
    scale = math.lcm(*range(1, MAX_DENOMINATOR + 1))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if (i, j) not in edges:
                if rng.next_u64() * density.denominator >= threshold_num:
                    continue
            den = 1 + rng.randrange(MAX_DENOMINATOR)
            num = 1 + rng.randrange(MAX_WEIGHT * den)
            w = num * (scale // den)
            rows[i][j] = rows[j][i] = -w
            rows[i][i] += w
            rows[j][j] += w
    common = math.gcd(scale, *[x for row in rows for x in row])
    reduced = cache(lambda x: x // common)  # one int per distinct value
    rows = tuple([tuple([reduced(x) for x in row]) for row in rows])
    return GramMatrix(rows, scale // common)


def generate(spec: InstanceSpec) -> Superbase | GramMatrix:
    """Materialize an InstanceSpec, enforcing its invariants; n past
    MAX_N is refused before anything is built."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; pick from {FAMILIES}")
    if spec.family == "example3d":
        if spec.n != 3:
            raise ValueError("the example3d lattice is 3-dimensional")
        return gen_example3d()
    if spec.n < 1:
        raise ValueError("n must be >= 1")
    if spec.n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, the generator's size cap")
    if spec.family == "an":
        return gen_an(spec.n)
    if spec.family == "anstar":
        return gen_anstar(spec.n)
    if spec.family == "zn":
        return gen_zn(spec.n)
    if spec.seed is None:
        raise ValueError("random_gram requires a seed")
    density = spec.density if spec.density is not None else DEFAULT_DENSITY
    return gen_random_gram(spec.n, spec.seed, density)
