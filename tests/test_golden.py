"""Golden `svp` and `gen` output.

`golden_svp.json` holds the stdout recorded for each (instance, algorithm,
format) case below.  Karger-Stein runs at a fixed --seed/--trials, so its
output is pinned as tightly as the deterministic routes.  A change to the
arithmetic behind the minimum cut must leave every byte as it is.

`golden_gen.json` holds, for each `gen` command below, the sha256 of its
stdout, its exit code and its stderr, so a change to how the generators
build their instances must leave every generated file as it is.

`golden_candidates.json` holds, for each `candidates` case below, the
sha256 and line count of its stdout, its exit code and its stderr: the
whole sorted list of subset sums, byte for byte, ties and the refusal past
24 vectors included.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from latcut import (
    brute_force_mincut,
    brute_force_short_vector,
    default_trial_count,
    gen_random_gram,
    graph_from_gram,
    karger_stein,
    stoer_wagner,
)
from latcut.cli import run_cli
from conftest import seeds_from

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_svp.json")).read_text(encoding="utf-8")
)
GEN_GOLDEN = json.loads(
    (Path(__file__).with_name("golden_gen.json")).read_text(encoding="utf-8")
)
CANDIDATES_GOLDEN = json.loads(
    (Path(__file__).with_name("golden_candidates.json"))
    .read_text(encoding="utf-8")
)

INSTANCES = [
    ("example3d",),
    ("an", "7"),
    ("zn", "5"),
    ("anstar", "6"),
] + [
    ("random_gram", str(n), "--seed", str(seed), "--density", density)
    for n in range(6, 13)
    for seed in (1, 2)
    for density in ("1/2", "1")
]

ALGORITHM_ARGS = {
    "stoer-wagner": ["--algorithm", "stoer-wagner"],
    "karger": ["--algorithm", "karger", "--seed", "11", "--trials", "4"],
    "brute": ["--algorithm", "brute"],
}


def case_key(instance, algorithm, fmt):
    return f"{' '.join(instance)} | {algorithm} | {fmt}"


def svp_stdout(path, algorithm, fmt):
    out, err = io.StringIO(), io.StringIO()
    args = ["svp", str(path), *ALGORITHM_ARGS[algorithm]]
    if fmt == "json":
        args.append("--json")
    assert run_cli(args, stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("instance", INSTANCES, ids=" ".join)
def test_svp_stdout_matches_golden(instance, tmp_path):
    path = tmp_path / "instance.txt"
    assert run_cli(["gen", *instance, "-o", str(path)]) == 0
    for algorithm in ALGORITHM_ARGS:
        for fmt in ("text", "json"):
            key = case_key(instance, algorithm, fmt)
            assert svp_stdout(path, algorithm, fmt) == GOLDEN[key], key


def test_golden_file_has_exactly_these_cases():
    expected = {
        case_key(instance, algorithm, fmt)
        for instance in INSTANCES
        for algorithm in ALGORITHM_ARGS
        for fmt in ("text", "json")
    }
    assert set(GOLDEN) == expected


GEN_COMMANDS = [("example3d",)] + [
    (family, str(n)) for family in ("an", "anstar", "zn") for n in range(1, 41)
] + [
    ("random_gram", str(n), "--seed", str(seed), "--density", density)
    for n in range(1, 41, 3)
    for seed in (1, 2, 99)
    for density in ("1", "1/2", "1/10", "3/7")
]


def gen_outcome(command):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["gen", *command], stdout=out, stderr=err)
    return {
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "exit": code,
        "stderr": err.getvalue(),
    }


def test_gen_output_matches_golden():
    mismatched = [" ".join(command) for command in GEN_COMMANDS
                  if gen_outcome(command) != GEN_GOLDEN[" ".join(command)]]
    assert mismatched == []


def test_golden_gen_file_has_exactly_these_commands():
    assert len(GEN_COMMANDS) == 289
    assert set(GEN_GOLDEN) == {" ".join(command) for command in GEN_COMMANDS}


# Scale 6, and every squared length is shared by two to eight subsets,
# of one size or of two.
TIED_SUPERBASE = """\
superbase 5 4
1/2 0 0 0
0 1/2 0 0
0 0 2/3 0
0 0 0 2/3
-1/2 -1/2 -2/3 -2/3
"""

CANDIDATE_CASES = {
    " ".join(command): command
    for command in [("example3d",), ("an", "7"), ("zn", "5"), ("anstar", "6"),
                    ("anstar", "10"), ("an", "24")]
}
CANDIDATE_CASES["tied scale 6"] = None


def candidates_outcome(name):
    command = CANDIDATE_CASES[name]
    text = TIED_SUPERBASE
    if command is not None:
        text = io.StringIO()
        assert run_cli(["gen", *command], stdout=text) == 0
        text = text.getvalue()
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["candidates", "-"], stdin=io.StringIO(text),
                   stdout=out, stderr=err)
    return {
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "lines": out.getvalue().count("\n"),
        "exit": code,
        "stderr": err.getvalue(),
    }


@pytest.mark.parametrize("name", CANDIDATE_CASES)
def test_candidates_output_matches_golden(name):
    assert candidates_outcome(name) == CANDIDATES_GOLDEN[name]


def test_golden_candidates_file_has_exactly_these_cases():
    assert set(CANDIDATES_GOLDEN) == set(CANDIDATE_CASES)


def test_exact_routes_agree_and_karger_never_undercuts():
    """SW = brute-force cut = subset oracle on random Grams with n+1 <= 12."""
    for k, seed in enumerate(seeds_from(0x601D, 66)):
        n = 1 + k % 11
        density = ("1/2", "1", "1/5")[k % 3]
        g = gen_random_gram(n, seed=seed, density=density)
        graph = graph_from_gram(g)
        exact = stoer_wagner(graph).weight
        assert brute_force_mincut(graph).weight == exact
        assert brute_force_short_vector(g).squared_length == exact
        trials = default_trial_count(graph.vertex_count)
        assert karger_stein(graph, seed, trials).weight >= exact
