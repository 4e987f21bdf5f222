"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every numeric comparison is exact rational equality; the only tolerances
are wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from latcut import (
    brute_force_mincut,
    brute_force_short_vector,
    default_trial_count,
    gen_an,
    gen_anstar,
    gen_example3d,
    gen_random_gram,
    gen_zn,
    graph_from_gram,
    karger_stein,
    quadratic_form,
    selling_parameters,
    short_vector,
    stoer_wagner,
    verify_reduction,
)
from latcut.cli import run_cli
from latcut.rng import SplitMix64, Xoshiro256StarStar
from conftest import seeds_from

F = Fraction

MASTER_SEED = 0x5EED_2024


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} PASS  {description}  [{elapsed:.2f}s]")


# --- shared instance streams (criteria 4-6 reuse these in criterion 8) ------

def oracle_instances():
    """Criterion 4: exhaustive families n <= 10 plus 200 seeded random Grams."""
    for n in range(1, 11):
        yield gen_an(n), selling_parameters(gen_an(n))
        yield gen_anstar(n), selling_parameters(gen_anstar(n))
        yield gen_zn(n), selling_parameters(gen_zn(n))
    yield gen_example3d(), selling_parameters(gen_example3d())
    for k, seed in enumerate(seeds_from(MASTER_SEED, 200)):
        yield None, gen_random_gram(1 + k % 10, seed=seed)


def reduction_random_instances():
    """Criterion 5's random stream: 100 Grams with n <= 20."""
    for k, seed in enumerate(seeds_from(MASTER_SEED + 1, 100)):
        yield gen_random_gram(1 + k % 20, seed=seed)


def randomized_instances():
    """Criterion 6's stream: 100 Grams with n <= 10."""
    for k, seed in enumerate(seeds_from(MASTER_SEED + 2, 100)):
        yield gen_random_gram(1 + k % 10, seed=seed)


# --- criteria ----------------------------------------------------------------

def test_criterion_1_example3d_golden():
    with criterion(1, "example3d golden instance"):
        start = time.monotonic()
        sb = gen_example3d()
        g = selling_parameters(sb)
        result = short_vector(sb)
        assert result.squared_length == F(1, 2)
        assert result.subset in ((0, 1), (2, 3))
        if result.subset == (0, 1):
            assert result.coordinates == (F(1, 2), F(1, 2), F(0))
        else:
            assert result.coordinates == (F(-1, 2), F(-1, 2), F(0))
        # summing the complement side must give exactly the mirrored vector
        assert sb.subset_sum((0, 1)) == (F(1, 2), F(1, 2), F(0))
        for i in range(4):
            singleton = [1 if j == i else 0 for j in range(4)]
            assert quadratic_form(g, singleton) > F(1, 2)
        assert time.monotonic() - start < 1.0


def test_criterion_2_an_family():
    with criterion(2, "A_n family, n = 1..50"):
        start = time.monotonic()
        for n in range(1, 51):
            sb = gen_an(n)
            g = selling_parameters(sb)
            cut = stoer_wagner(graph_from_gram(g))
            assert cut.weight == 2
            chosen = set(cut.side)
            boundary = sum(
                1 for v in chosen if (v + 1) % (n + 1) not in chosen
            )
            assert boundary == 1  # a cyclic interval
            result = short_vector(sb)
            assert result.squared_length == 2
            coords = sorted(result.coordinates)
            assert coords == [-1] + [0] * (n - 1) + [1]  # e_i - e_j
        assert time.monotonic() - start < 10.0


def test_criterion_3_anstar_family():
    with criterion(3, "A_n* family, n = 1..50"):
        start = time.monotonic()
        for n in range(1, 51):
            g = selling_parameters(gen_anstar(n))
            cut = stoer_wagner(graph_from_gram(g))
            assert cut.weight == F(n, n + 1)
            assert len(cut.side) in (1, n)
        assert time.monotonic() - start < 10.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence on 231 instances, n <= 10"):
        start = time.monotonic()
        checked = 0
        for _, g in oracle_instances():
            graph = graph_from_gram(g)
            sw = stoer_wagner(graph).weight
            bf = brute_force_mincut(graph).weight
            oracle = brute_force_short_vector(g).squared_length
            assert sw == bf == oracle
            checked += 1
        assert checked == 231
        assert time.monotonic() - start < 60.0


def test_criterion_5_reduction_identity():
    with criterion(5, "reduction identity, exhaustive n <= 6 plus 1000 random"):
        for make in (gen_an, gen_anstar, gen_zn):
            for n in range(1, 7):
                g = selling_parameters(make(n))
                size = n + 1
                for mask in range(1, (1 << size) - 1):
                    bits = [mask >> i & 1 for i in range(size)]
                    q_value, cut_value = verify_reduction(g, bits)
                    assert q_value == cut_value
        g = selling_parameters(gen_example3d())
        for mask in range(1, 14 + 1):
            bits = [mask >> i & 1 for i in range(4)]
            q_value, cut_value = verify_reduction(g, bits)
            assert q_value == cut_value

        rng = Xoshiro256StarStar(MASTER_SEED + 3)
        pairs = 0
        instances = list(reduction_random_instances())
        while pairs < 1000:
            g = instances[pairs % len(instances)]
            size = g.size
            bits = [rng.randrange(2) for _ in range(size)]
            if not 0 < sum(bits) < size:
                continue
            q_value, cut_value = verify_reduction(g, bits)
            assert q_value == cut_value
            pairs += 1


def test_criterion_6_randomized_agreement():
    with criterion(6, "Karger-Stein matches on >= 99/100 seeded instances"):
        trial_seeds = SplitMix64(MASTER_SEED + 4)
        matches = 0
        total = 0
        for g in randomized_instances():
            graph = graph_from_gram(g)
            exact = stoer_wagner(graph).weight
            cut = karger_stein(
                graph, trial_seeds.next_u64(),
                default_trial_count(graph.vertex_count),
            )
            assert cut.weight >= exact  # never below the optimum
            if cut.weight == exact:
                matches += 1
            total += 1
        assert total == 100
        assert matches >= 99


def test_criterion_7_scale_budget(tmp_path):
    with criterion(7, "501-vertex cycle solves in under 30 s"):
        import io

        path = tmp_path / "an500.txt"
        assert run_cli(["gen", "an", "500", "-o", str(path)]) == 0
        out = io.StringIO()
        start = time.monotonic()
        code = run_cli(["svp", str(path)], stdout=out)
        elapsed = time.monotonic() - start
        assert code == 0
        lines = out.getvalue().splitlines()
        assert "squared length: 2" in lines
        assert elapsed < 30.0


def test_criterion_8_structural_invariants():
    with criterion(8, "structural invariants on every instance of criteria 1-6"):
        rng = Xoshiro256StarStar(MASTER_SEED + 5)

        def check(g, sb=None):
            size = g.size
            for i, row in enumerate(g.entries):
                assert sum(row) == 0
                for j in range(size):
                    assert row[j] == g.entries[j][i]
                    if i != j:
                        assert row[j] <= 0
            assert quadratic_form(g, [1] * size) == 0
            for _ in range(3):
                bits = [rng.randrange(2) for _ in range(size)]
                flipped = [1 - b for b in bits]
                assert quadratic_form(g, bits) == quadratic_form(g, flipped)
            result = short_vector(g if sb is None else sb)
            assert result.squared_length > 0  # min-cut weight > 0
            assert 0 < len(result.subset) < size
            bits = [1 if i in result.subset else 0 for i in range(size)]
            assert quadratic_form(g, bits) == result.squared_length
            if sb is not None:
                assert sum(x * x for x in result.coordinates) == \
                    result.squared_length

        sb = gen_example3d()
        check(selling_parameters(sb), sb)  # criterion 1
        for n in range(1, 51):  # criteria 2 and 3
            an = gen_an(n)
            check(selling_parameters(an), an)
            check(selling_parameters(gen_anstar(n)))
        for sb, g in oracle_instances():  # criterion 4
            check(g, sb)
        for make in (gen_an, gen_anstar, gen_zn):  # criterion 5 exhaustive part
            for n in range(1, 7):
                check(selling_parameters(make(n)))
        for g in reduction_random_instances():  # criterion 5 random part
            check(g)
        for g in randomized_instances():  # criterion 6
            check(g)
