"""Shortest vectors in lattices of Voronoi's first kind, via minimum cuts.

A lattice of Voronoi's first kind is one that admits an obtuse superbase:
n+1 vectors summing to zero with pairwise nonpositive inner products.
For such lattices a shortest nonzero vector is a subset sum of the
superbase, and the best subset is exactly a global minimum cut of the
graph whose edge weights are the negated Selling parameters.  This
package implements that reduction end to end in exact rational
arithmetic.
"""

from .errors import (
    CertificateError,
    EmptySide,
    ImproperAssignment,
    LatCutError,
    LengthMismatch,
    NotSymmetric,
    ObtuseViolation,
    ParseError,
    RankDeficient,
    RowSumNotZero,
    ShapeError,
    ShapeMismatch,
    SumNotZero,
    TooLarge,
    ValidationError,
    WrongRank,
    ZeroWeightCut,
)
from .generators import (
    FAMILIES,
    InstanceSpec,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    generate,
)
from .lattice import (
    BinaryAssignment,
    GramMatrix,
    Superbase,
    as_rational,
    quadratic_form,
    selling_parameters,
    validate_gram,
    validate_superbase,
)
from .mincut import (
    BRUTE_FORCE_LIMIT,
    Cut,
    WeightedGraph,
    brute_force_mincut,
    cut_weight,
    default_trial_count,
    graph_from_gram,
    karger_stein,
    stoer_wagner,
)
from .pipeline import (
    ALGORITHMS,
    Candidate,
    ShortVectorResult,
    brute_force_short_vector,
    candidate_vectors,
    short_vector,
    verify_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BRUTE_FORCE_LIMIT",
    "BinaryAssignment",
    "Candidate",
    "CertificateError",
    "Cut",
    "EmptySide",
    "FAMILIES",
    "GramMatrix",
    "ImproperAssignment",
    "InstanceSpec",
    "LatCutError",
    "LengthMismatch",
    "NotSymmetric",
    "ObtuseViolation",
    "ParseError",
    "RankDeficient",
    "RowSumNotZero",
    "ShapeError",
    "ShapeMismatch",
    "ShortVectorResult",
    "Superbase",
    "SumNotZero",
    "TooLarge",
    "ValidationError",
    "WeightedGraph",
    "WrongRank",
    "ZeroWeightCut",
    "as_rational",
    "brute_force_mincut",
    "brute_force_short_vector",
    "candidate_vectors",
    "cut_weight",
    "default_trial_count",
    "gen_an",
    "gen_anstar",
    "gen_example3d",
    "gen_random_gram",
    "gen_zn",
    "generate",
    "graph_from_gram",
    "karger_stein",
    "quadratic_form",
    "selling_parameters",
    "short_vector",
    "stoer_wagner",
    "validate_gram",
    "validate_superbase",
    "verify_reduction",
]
