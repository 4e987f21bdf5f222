import io
from fractions import Fraction

import pytest

import latcut.cli
import latcut.lattice
import latcut.mincut
import latcut.pipeline
from latcut import (
    ALGORITHMS,
    CertificateError,
    Cut,
    GramMatrix,
    ImproperAssignment,
    ObtuseViolation,
    RankDeficient,
    ShapeMismatch,
    Superbase,
    TooLarge,
    ValidationError,
    WrongRank,
    brute_force_short_vector,
    candidate_vectors,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    graph_from_gram,
    quadratic_form,
    selling_parameters,
    short_vector,
    validate_gram,
    validate_superbase,
    verify_reduction,
)
from latcut.cli import format_gram, format_superbase, run_cli
from conftest import random_superbase, seeds_from

F = Fraction


def _unit_difference(vec):
    """True when vec has exactly one +1, one -1, and zeros elsewhere."""
    return sorted(vec) == [-1] + [0] * (len(vec) - 2) + [1]


# --- short_vector ------------------------------------------------------------

def test_an_short_vector_is_unit_difference():
    result = short_vector(gen_an(3))
    assert result.squared_length == 2
    assert _unit_difference(result.coordinates)


def test_anstar_short_vector_is_a_superbase_vector():
    sb = gen_anstar(3)
    result = short_vector(sb)
    assert result.squared_length == F(3, 4)
    side = result.subset
    assert len(side) in (1, 3)
    if len(side) == 1:
        assert result.coordinates == sb.vectors[side[0]]


def test_example3d_short_vector():
    sb = gen_example3d()
    result = short_vector(sb)
    assert result.squared_length == F(1, 2)
    assert result.subset in ((0, 1), (2, 3))
    expected = (F(1, 2), F(1, 2), F(0)) if result.subset == (0, 1) \
        else (F(-1, 2), F(-1, 2), F(0))
    assert result.coordinates == expected


def test_gram_only_input_has_no_coordinates():
    result = short_vector(selling_parameters(gen_an(4)))
    assert result.coordinates is None
    assert result.squared_length == 2


def test_all_algorithms_agree_on_random_grams():
    for seed in seeds_from(777, 15):
        g = gen_random_gram(2 + seed % 9, seed=seed)
        det = short_vector(g)
        brute = short_vector(g, "brute")
        rand = short_vector(g, "karger", seed=seed)
        oracle = brute_force_short_vector(g)
        assert det.squared_length == brute.squared_length
        assert det.squared_length == oracle.squared_length
        assert rand.squared_length >= det.squared_length


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        short_vector(selling_parameters(gen_an(2)), "magic")


def test_one_svp_op_checks_each_condition_once(monkeypatch):
    """`svp` solves the parsed lattice: it takes a superbase's products
    once, checks their graph once with no Gram check, checks a Gram matrix
    and its graph once each, and reads no Fraction view."""
    rational = Superbase(((2, -1, 0), (-1, 2, 0), (0, 0, 2), (-1, -1, -2)), 2)
    superbase = {"products": 1, "graph": 1, "gram": 0}
    cases = [(format_superbase(gen_anstar(4)), superbase),
             (format_superbase(rational), superbase),
             (format_gram(gen_random_gram(6, seed=5)),
              {"products": 0, "graph": 1, "gram": 1})]
    calls = {}

    def counted(key, original):
        def count(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return count

    def refuse(*_):
        raise AssertionError("a Fraction view was read")

    for key, name in (("products", "_selling_graph"),
                      ("graph", "_check_graph"), ("gram", "_check_gram")):
        monkeypatch.setattr(latcut.lattice, name,
                            counted(key, getattr(latcut.lattice, name)))
    monkeypatch.setattr(Superbase, "vectors", property(refuse))
    monkeypatch.setattr(GramMatrix, "entries", property(refuse))
    for text, expected in cases:
        calls.update(products=0, graph=0, gram=0)
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["svp", "-"], stdin=io.StringIO(text),
                       stdout=out, stderr=err) == 0, err.getvalue()
        assert calls == expected
        assert out.getvalue().startswith("subset: ")


def test_corrupted_cut_fails_its_certificate(monkeypatch):
    g = selling_parameters(gen_an(5))
    assert short_vector(g).squared_length == 2
    for forged in (Cut((0,), F(3)), Cut((0, 2), F(2))):
        monkeypatch.setattr(latcut.pipeline, "stoer_wagner", lambda graph: forged)
        with pytest.raises(CertificateError):
            short_vector(g)


def test_corrupted_coordinates_fail_the_certificate(monkeypatch):
    sb = gen_example3d()
    assert short_vector(sb).squared_length == F(1, 2)
    # The certificate checks the integer sum that the coordinates are
    # built from: here the vector (1, 0, 0).
    monkeypatch.setattr(
        Superbase, "_subset_total", lambda self, subset: (self.scale, 0, 0)
    )
    with pytest.raises(CertificateError):
        short_vector(sb)


# Inputs built past validation whose first two vectors have inner product
# 1 > 0, each with the file that carries the same numbers.
OBTUSE_GRAM = (GramMatrix(((1, 1, -2), (1, 1, -2), (-2, -2, 4)), 1),
               "gram 3\n1 1 -2\n1 1 -2\n-2 -2 4\n")
OBTUSE_SUPERBASE = (Superbase(((1, 0), (1, 1), (-2, -1)), 1),
                    "superbase 3 2\n1 0\n1 1\n-2 -1\n")


def _cli_error(text):
    """The exit code and message `svp` gives for the file `text`."""
    err = io.StringIO()
    code = run_cli(["svp", "-"], stdin=io.StringIO(text),
                   stdout=io.StringIO(), stderr=err)
    return code, err.getvalue()


@pytest.mark.parametrize("lattice, text", [OBTUSE_GRAM, OBTUSE_SUPERBASE],
                         ids=["gram", "superbase"])
def test_positive_off_diagonal_raises_what_the_cli_reports(lattice, text):
    # The Gram matrix once gave subset (1,) at squared length 2 although
    # Q there is 1; the superbase raised CertificateError.
    with pytest.raises(ObtuseViolation) as caught:
        short_vector(lattice)
    assert (caught.value.pair, caught.value.value) == ((0, 1), 1)
    assert _cli_error(text) == (1, f"error: {caught.value}\n")


def test_verify_reduction_rejects_a_positive_off_diagonal():
    # It once returned the unequal pair (1, 2) for the superbase.
    for lattice, _ in (OBTUSE_GRAM, OBTUSE_SUPERBASE):
        with pytest.raises(ObtuseViolation):
            verify_reduction(lattice, [1, 0, 0])


# Gram matrices built past validation that break symmetry or a row sum,
# each with the file that carries the same numbers.  The last two put a
# positive entry before an asymmetric one, and a positive entry in a
# matrix whose row sums are wrong: the entry comes first, as in
# validate_gram.
UNCHECKED_GRAMS = [
    # Once gave squared length 1 for subset (1,), where Q is 5.
    (((5, -1), (-1, 5)), "gram 2\n5 -1\n-1 5\n"),
    # verify_reduction once returned (2, 3) at [0, 1, 0].
    (((2, -1, -1), (0, 2, -2), (-1, -1, 2)),
     "gram 3\n2 -1 -1\n0 2 -2\n-1 -1 2\n"),
    (((1, 1, -2), (1, 1, 0), (-2, -2, 4)), "gram 3\n1 1 -2\n1 1 0\n-2 -2 4\n"),
    (((0, 1, -1), (1, 3, -1), (-1, -1, 3)), "gram 3\n0 1 -1\n1 3 -1\n-1 -1 3\n"),
]


@pytest.mark.parametrize("rows, text", UNCHECKED_GRAMS,
                         ids=["row-sum", "asymmetric", "obtuse-first",
                              "obtuse-before-row-sum"])
def test_unchecked_gram_raises_what_validation_raises(rows, text):
    g = GramMatrix(rows, 1)
    with pytest.raises(ValidationError) as expected:
        validate_gram(g)
    for solve in (lambda: short_vector(g),
                  lambda: short_vector(g, "brute"),
                  lambda: verify_reduction(g, [0, 1] + [0] * (len(rows) - 2))):
        with pytest.raises(ValidationError) as caught:
            solve()
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)
    assert _cli_error(text) == (1, f"error: {expected.value}\n")


# Superbases built past validation whose vectors do not sum to zero, each
# with the file that carries the same numbers.  In the second, vectors 1
# and 2 also have inner product 1 > 0; the sum is checked first, as in
# validate_superbase.
UNCHECKED_SUPERBASES = [
    # Once raised RowSumNotZero from the Selling parameters.
    (((1, 0), (0, 1), (-1, 0)), "superbase 3 2\n1 0\n0 1\n-1 0\n"),
    (((1, 0), (1, 1), (-1, 0)), "superbase 3 2\n1 0\n1 1\n-1 0\n"),
]


@pytest.mark.parametrize("rows, text", UNCHECKED_SUPERBASES,
                         ids=["sum", "sum-before-obtuse"])
def test_unchecked_superbase_raises_what_validation_raises(rows, text):
    with pytest.raises(ValidationError) as expected:
        validate_superbase(Superbase(rows, 1))
    for solve in (lambda sb: short_vector(sb),
                  lambda sb: short_vector(sb, "brute"),
                  lambda sb: verify_reduction(sb, [0, 1, 0])):
        with pytest.raises(ValidationError) as caught:
            solve(Superbase(rows, 1))
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)
    assert _cli_error(text) == (1, f"error: {expected.value}\n")


# Lattices built past validation whose Selling graph has two components,
# so a cut of weight 0, each with the file that carries the same numbers.
DISCONNECTED = [
    (GramMatrix(((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)), 1),
     "gram 4\n1 -1 0 0\n-1 1 0 0\n0 0 1 -1\n0 0 -1 1\n", WrongRank,
     "the rank is less than side - 1"),
    (Superbase(((1, 0), (-1, 0), (0, 1), (0, -1)), 1),
     "superbase 4 2\n1 0\n-1 0\n0 1\n0 -1\n", RankDeficient,
     "the first n vectors span less than n dimensions"),
]


def test_zero_weight_cut_detected():
    """A disconnected lattice is refused before any cut, with the class
    and message validation and the CLI give, never solved at weight 0."""
    for lattice, text, error, consequence in DISCONNECTED:
        message = ("vector 3 cannot be reached from vector 1 in the Selling "
                   f"graph, so {consequence}")
        solves = [lambda a=a: short_vector(lattice, a) for a in ALGORITHMS]
        solves += [lambda: verify_reduction(lattice, [1, 0, 1, 0]),
                   lambda: validate_gram(lattice)
                   if isinstance(lattice, GramMatrix)
                   else validate_superbase(lattice)]
        for solve in solves:
            with pytest.raises(ValidationError) as caught:
                solve()
            assert type(caught.value) is error
            assert (caught.value.vector, str(caught.value)) == (2, message)
        assert _cli_error(text) == (1, f"error: {message}\n")


# Lattices built past validation with too few vectors or rows of unequal
# lengths, which no file can carry, and validation's message for each.
UNCHECKED_SHAPES = [
    (Superbase(((1, 0), (-1,)), 1), "vector 2 has length 1, expected 2"),
    (Superbase(((0, 0),), 1), "a superbase needs at least 2 vectors"),
    (GramMatrix(((0,),), 1), "a Gram matrix needs side >= 2"),
    (GramMatrix(((1, -1), (-1, 1, 0)), 1), "row 2 has length 3, expected 2"),
    (GramMatrix(((1, -1, 0), (-1, 1)), 1), "row 1 has length 3, expected 2"),
]


@pytest.mark.parametrize("lattice, message", UNCHECKED_SHAPES,
                         ids=["ragged-superbase", "one-vector", "side-1",
                              "long-row", "long-first-row"])
def test_unchecked_shape_raises_what_validation_raises(lattice, message):
    # The ragged superbase once gave subset (1,) at squared length 1; the
    # one-vector superbase and the 1 x 1 matrix failed an assertion.  The
    # oracles and views once read past, cut short or ignored the rows, or
    # returned no candidates.
    solves = [lambda a=a: short_vector(lattice, a) for a in ALGORITHMS]
    solves += [lambda: verify_reduction(lattice, [1, 0])]
    if isinstance(lattice, GramMatrix):
        solves += [lambda: validate_gram(lattice),
                   lambda: brute_force_short_vector(lattice)]
    else:
        solves += [lambda: validate_superbase(lattice),
                   lambda: candidate_vectors(lattice),
                   lambda: lattice.subset_sum(range(len(lattice.rows))),
                   lambda: quadratic_form(lattice, [1] * len(lattice.rows))]
    for solve in solves:
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            solve()


def test_svp_builds_each_graph_through_graph_from_gram_once(monkeypatch):
    """One `svp` op on a superbase file, and one on a Gram file, builds
    its graph with one `graph_from_gram` call."""
    calls = []

    def counted(lattice):
        calls.append(type(lattice))
        return graph_from_gram(lattice)

    monkeypatch.setattr(latcut.pipeline, "graph_from_gram", counted)
    for lattice in (gen_anstar(4), gen_random_gram(6, seed=5)):
        text = format_superbase(lattice) if isinstance(lattice, Superbase) \
            else format_gram(lattice)
        calls.clear()
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["svp", "-"], stdin=io.StringIO(text),
                       stdout=out, stderr=err) == 0, err.getvalue()
        assert calls == [type(lattice)]


# --- brute_force_short_vector --------------------------------------------------

def test_a2_brute_force_tie_break():
    g = validate_gram([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    result = brute_force_short_vector(g)
    assert result.squared_length == 2
    assert result.subset == (0,)


def test_example3d_brute_force():
    g = selling_parameters(gen_example3d())
    result = brute_force_short_vector(g)
    assert result.squared_length == F(1, 2)
    assert result.subset == (0, 1)


def test_one_dimensional_brute_force():
    g = validate_gram([[1, -1], [-1, 1]])
    result = brute_force_short_vector(g)
    assert result.squared_length == 1
    assert result.subset == (0,)


def test_brute_force_size_guard():
    size = 25
    entries = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        entries[i][i + 1] = entries[i + 1][i] = -1
    for i in range(size):
        entries[i][i] = -sum(entries[i][j] for j in range(size) if j != i)
    with pytest.raises(TooLarge):
        brute_force_short_vector(GramMatrix(tuple(map(tuple, entries)), 1))


def test_brute_force_refusal_names_the_subsets_at_n_plus_1_25():
    # The same words as `candidates`' refusal, pinned in
    # tests/golden_candidates.json, with "subsets" for "candidates".
    with pytest.raises(TooLarge) as refused:
        brute_force_short_vector(GramMatrix(((0,) * 25,) * 25, 1))
    assert str(refused.value) == \
        "33554430 subsets at n + 1 = 25; the exhaustive limit is 24"


# --- candidate_vectors ----------------------------------------------------------

def test_a2_candidates_are_the_six_unit_differences():
    sb = validate_superbase([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
    candidates = candidate_vectors(sb)
    assert len(candidates) == 6
    assert all(c.squared_length == 2 for c in candidates)
    assert all(_unit_difference(c.coordinates) for c in candidates)
    assert len({c.coordinates for c in candidates}) == 6


def test_example3d_candidates():
    sb = gen_example3d()
    candidates = candidate_vectors(sb)
    assert len(candidates) == 14
    assert candidates[0].squared_length == F(1, 2)
    singles = [c for c in candidates if len(c.subset) == 1]
    assert len(singles) == 4
    assert all(c.squared_length > F(1, 2) for c in singles)


def test_one_dimensional_candidates():
    sb = validate_superbase([[1], [-1]])
    candidates = candidate_vectors(sb)
    assert [c.squared_length for c in candidates] == [1, 1]


def test_candidates_sorted_and_consistent_with_oracle():
    for seed in seeds_from(31337, 6):
        sb = random_superbase(4, seed=seed)
        g = selling_parameters(sb)
        candidates = candidate_vectors(sb)
        assert len(candidates) == 2 ** (sb.n + 1) - 2
        lengths = [c.squared_length for c in candidates]
        assert lengths == sorted(lengths)
        assert candidates[0].squared_length == \
            brute_force_short_vector(g).squared_length
        for c in candidates:
            assert sum(x * x for x in c.coordinates) == c.squared_length


def test_minimizer_complement_attains_same_length():
    sb = gen_example3d()
    candidates = candidate_vectors(sb)
    best = candidates[0]
    size = sb.n + 1
    complement = tuple(i for i in range(size) if i not in best.subset)
    by_subset = {c.subset: c.squared_length for c in candidates}
    assert by_subset[complement] == best.squared_length


def test_candidates_size_guard():
    vectors = [[0] * 25 for _ in range(25)]
    for i in range(25):
        vectors[i][i] = 1
        vectors[i][(i + 1) % 25] = -1
    sb = validate_superbase(vectors)
    with pytest.raises(TooLarge):
        candidate_vectors(sb)


# --- verify_reduction ------------------------------------------------------------

def test_verify_reduction_on_cycle():
    g = selling_parameters(gen_an(3))
    assert verify_reduction(g, (1, 1, 0, 0)) == (2, 2)


def test_verify_reduction_on_example3d():
    g = selling_parameters(gen_example3d())
    assert verify_reduction(g, (1, 1, 0, 0)) == (F(1, 2), F(1, 2))


def test_verify_reduction_rejects_improper():
    g = selling_parameters(gen_an(3))
    with pytest.raises(ImproperAssignment):
        verify_reduction(g, (1, 1, 1, 1))
    with pytest.raises(ImproperAssignment):
        verify_reduction(g, (0, 0, 0, 0))


def test_verify_reduction_random_pairs():
    from latcut.rng import Xoshiro256StarStar

    rng = Xoshiro256StarStar(2718)
    for seed in seeds_from(161803, 10):
        g = gen_random_gram(2 + seed % 7, seed=seed)
        size = g.size
        for _ in range(10):
            bits = [rng.randrange(2) for _ in range(size)]
            if 0 < sum(bits) < size:
                q_value, cut_value = verify_reduction(g, bits)
                assert q_value == cut_value


# --- certificates ------------------------------------------------------------

def test_certificates_are_sound():
    cases = [gen_an(5), gen_anstar(4), gen_zn(6), gen_example3d()]
    cases += [random_superbase(4, seed=seed) for seed in seeds_from(5050, 5)]
    for sb in cases:
        g = selling_parameters(sb)
        size = g.size
        for algorithm in ALGORITHMS:
            result = short_vector(sb, algorithm, seed=3)
            gram_only = short_vector(g, algorithm, seed=3)
            assert gram_only.subset == result.subset
            assert gram_only.squared_length == result.squared_length
            assert gram_only.coordinates is None
            assert 0 < len(result.subset) < size
            bits = [1 if i in result.subset else 0 for i in range(size)]
            assert quadratic_form(g, bits) == result.squared_length
            assert verify_reduction(sb, bits) == verify_reduction(g, bits) \
                == (result.squared_length,) * 2
            assert sum(x * x for x in result.coordinates) == \
                result.squared_length
            assert result.squared_length > 0


def test_the_solve_path_builds_no_fraction_view_of_the_graph(monkeypatch):
    """The graph is built from the lattice's integers, and the cut
    algorithms and the certificate read the graph's integers only: with
    the lattice's Fraction views patched to raise, every route solves."""
    def refuse(*_):
        raise AssertionError("a Fraction view was built")

    lattices = [gen_random_gram(6, seed=11)]
    for sb in (gen_example3d(), gen_anstar(5), random_superbase(4, seed=7)):
        lattices += [sb, selling_parameters(sb)]
    monkeypatch.setattr(GramMatrix, "entries", property(refuse))
    monkeypatch.setattr(Superbase, "vectors", property(refuse))
    for lattice in lattices:
        g = lattice if isinstance(lattice, GramMatrix) \
            else selling_parameters(lattice)
        expected = brute_force_short_vector(g).squared_length
        for algorithm in ("stoer-wagner", "brute"):
            result = short_vector(lattice, algorithm)
            assert result.squared_length == expected
        # Karger-Stein's weight is an upper bound on the minimum.
        result = short_vector(lattice, "karger", seed=3)
        assert result.squared_length >= expected
        q_value, cut_value = verify_reduction(lattice, [1] + [0] * (g.size - 1))
        assert q_value == cut_value > 0
