import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import latcut
from latcut import (
    GramMatrix, ParseError, ShapeError, Superbase, gen_random_gram, quadratic_form,
    validate_gram,
)
from latcut.cli import _build_parser, format_gram, format_superbase, parse_input, run_cli
from latcut.lattice import MAX_DENOMINATOR_BITS

F = Fraction

A3_FILE = """\
# cyclic shifts
superbase 4 4
1 -1 0 0
0 1 -1 0
0 0 1 -1
-1 0 0 1
"""

EXAMPLE3D_GRAM_FILE = """\
gram 4
5/4 -1 0 -1/4
-1 5/4 0 -1/4
0 0 1 -1
-1/4 -1/4 -1 3/2
"""


def run(args, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(args, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# --- parse_input -------------------------------------------------------------

def test_parse_superbase_file():
    sb = parse_input(A3_FILE)
    assert isinstance(sb, Superbase)
    assert (sb.n + 1, sb.m, sb.scale) == (4, 4, 1)
    assert sb.rows[0] == (1, -1, 0, 0)


def test_parse_gram_file_with_fractions():
    g = parse_input(EXAMPLE3D_GRAM_FILE)
    assert isinstance(g, GramMatrix)
    assert (g.size, g.scale) == (4, 4)
    assert g.rows[0][0] == 5
    assert g.rows[3][0] == -1


def test_parse_decimals_exactly():
    g = parse_input("gram 2\n0.25 -0.25\n-0.25 0.25\n")
    assert (g.rows[0][0], g.scale) == (1, 4)
    sb = parse_input("superbase 2 4\n+1.50 -.5 5. -0/3\n-1.5 .5 -5 0.0\n")
    assert (sb.rows[0], sb.scale) == ((3, -1, 10, 0), 2)


def test_row_length_disagreement_is_shape_error():
    with pytest.raises(ShapeError):
        parse_input("superbase 3 2\n1 0 0\n0 1 0\n-1 -1 0\n")


def test_missing_rows_is_shape_error():
    with pytest.raises(ShapeError):
        parse_input("gram 3\n1 -1 0\n")


def test_extra_rows_is_shape_error():
    with pytest.raises(ShapeError):
        parse_input("gram 2\n1 -1\n-1 1\n0 0\n")


def test_bad_token_reports_line_and_column():
    cases = [
        ("gram 2\n1 -1\n-1 oops\n", 3, 4),
        ("gram 2\n 1  -1\n-1 \t 2/0 # note\n", 3, 6),
        ("gram 2\n1 x\nx 1\n", 2, 3),
        # exponents and digit separators: their value's size is unbounded
        ("gram 2\n1e5 -1\n-1 1\n", 2, 1),
        ("gram 2\n1 -1\n-1  1E-3\n", 3, 5),
        ("gram 2\n1_0 -1\n-1 1\n", 2, 1),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError) as info:
            parse_input(text)
        assert info.value.line == line
        assert info.value.column == column


def test_huge_exponent_exits_2_at_once():
    # Fraction("1e999999999") alone would build a 415 MB integer.
    started = time.perf_counter()
    code, out, err = run(["validate", "-"],
                         stdin_text="gram 2\n1e999999999 -1\n-1 1\n")
    assert time.perf_counter() - started < 2
    assert (code, out) == (2, "")
    assert err == ("error: line 2, column 1: cannot parse '1e999999999' "
                   "as a rational\n")


def test_header_errors():
    with pytest.raises(ParseError):
        parse_input("")
    with pytest.raises(ParseError):
        parse_input("lattice 3\n")
    with pytest.raises(ParseError):
        parse_input("gram two\n")
    with pytest.raises(ParseError):
        parse_input("superbase 4\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# hello\n  # indented comment\ngram 2  # trailing\n1 -1\n\n-1 1\n"
    doc = parse_input(text)
    assert doc.entries == ((1, -1), (-1, 1))


def test_format_parse_round_trip():
    from latcut import gen_anstar, selling_parameters

    sb = gen_anstar(3)
    assert parse_input(format_superbase(sb, "round trip")) == sb
    g = selling_parameters(sb)
    assert parse_input(format_gram(g)) == g


# --- run_cli: svp ------------------------------------------------------------

def test_svp_pipe_from_gen():
    code, gen_out, _ = run(["gen", "example3d"])
    assert code == 0
    code, out, _ = run(["svp", "-"], stdin_text=gen_out)
    assert code == 0
    assert "squared length: 1/2" in out
    assert out.startswith("subset: ")


def test_svp_json_on_an3():
    _, gen_out, _ = run(["gen", "an", "3"])
    code, out, _ = run(["svp", "-", "--json"], stdin_text=gen_out)
    assert code == 0
    payload = json.loads(out)
    assert payload["squared_length"] == "2"
    assert payload["algorithm"] == "stoer-wagner"
    assert "seed" not in payload


def test_svp_json_subset_recomputes(tmp_path):
    path = tmp_path / "g.txt"
    run(["gen", "random_gram", "7", "--seed", "99", "-o", str(path)])
    code, out, _ = run(["svp", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    gram = validate_gram(parse_input(path.read_text()).entries)
    bits = [0] * gram.size
    for index in payload["subset"]:
        bits[index - 1] = 1
    assert quadratic_form(gram, bits) == F(payload["squared_length"])
    assert "coordinates" not in payload


def test_svp_json_includes_coordinates_for_superbases():
    _, gen_out, _ = run(["gen", "example3d"])
    _, out, _ = run(["svp", "-", "--json"], stdin_text=gen_out)
    payload = json.loads(out)
    assert payload["subset"] in ([1, 2], [3, 4])
    coords = [F(x) for x in payload["coordinates"]]
    assert sum(x * x for x in coords) == F(1, 2)


def test_svp_karger_reports_seed_and_trials():
    _, gen_out, _ = run(["gen", "anstar", "5"])
    code, out, _ = run(
        ["svp", "-", "--algorithm", "karger", "--seed", "11", "--trials", "16",
         "--json"],
        stdin_text=gen_out,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["squared_length"] == "5/6"
    assert payload["seed"] == 11
    assert payload["trials"] == 16


def test_svp_output_is_byte_identical_across_runs():
    _, gen_out, _ = run(["gen", "random_gram", "6", "--seed", "5"])
    args = ["svp", "-", "--algorithm", "karger", "--seed", "42"]
    first = run(args, stdin_text=gen_out)
    second = run(args, stdin_text=gen_out)
    assert first == second


def test_svp_brute_too_large_is_exit_1(tmp_path):
    path = tmp_path / "big.txt"
    big = gen_random_gram(29, seed=1)
    path.write_text(format_gram(big))
    code, _, err = run(["svp", str(path), "--algorithm", "brute"])
    assert code == 1
    assert "limit" in err


def test_svp_invalid_file_is_exit_1():
    code, _, err = run(["svp", "-"], stdin_text="gram 2\n1 0\n0 1\n")
    assert code == 1
    assert "row 1" in err


def test_svp_parse_error_is_exit_2():
    code, _, err = run(["svp", "-"], stdin_text="nonsense\n")
    assert code == 2
    assert "error" in err


def test_svp_missing_file_is_exit_2():
    code, _, _ = run(["svp", "/nonexistent/path.txt"])
    assert code == 2


# --- run_cli: validate ---------------------------------------------------------

@pytest.mark.parametrize("family,n", [
    ("an", 1), ("an", 13), ("an", 64),
    ("anstar", 2), ("anstar", 33), ("anstar", 64),
    ("zn", 5), ("zn", 64),
    ("example3d", 3),
])
def test_gen_validate_round_trip(tmp_path, family, n):
    path = tmp_path / "instance.txt"
    code, _, _ = run(["gen", family, str(n), "-o", str(path)])
    assert code == 0
    code, out, _ = run(["validate", str(path)])
    assert code == 0
    assert out.startswith("valid superbase")


def test_gen_validate_round_trip_random_gram(tmp_path):
    path = tmp_path / "instance.txt"
    assert run(["gen", "random_gram", "12", "--seed", "3", "-o", str(path)])[0] == 0
    code, out, _ = run(["validate", str(path)])
    assert code == 0
    assert out.startswith("valid gram")


def test_validate_reports_failure():
    code, _, err = run(["validate", "-"],
                       stdin_text="superbase 3 2\n1 0\n0 1\n1 -1\n")
    assert code == 1
    assert "sum" in err


# --- run_cli: candidates --------------------------------------------------------

def test_candidates_on_example3d():
    _, gen_out, _ = run(["gen", "example3d"])
    code, out, _ = run(["candidates", "-"], stdin_text=gen_out)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    first_subset, first_len, first_coords = [p.strip() for p in lines[0].split("|")]
    assert first_len == "1/2"
    assert first_subset in ("1,2", "3,4")


def test_candidates_requires_superbase():
    code, _, err = run(["candidates", "-"], stdin_text=EXAMPLE3D_GRAM_FILE)
    assert code == 1
    assert "superbase" in err


def test_candidates_too_large(tmp_path):
    path = tmp_path / "a24.txt"
    run(["gen", "an", "24", "-o", str(path)])
    code, _, err = run(["candidates", str(path)])
    assert code == 1
    assert "limit" in err


# --- run_cli: gen ----------------------------------------------------------------

def test_gen_needs_n_except_example3d():
    assert run(["gen", "an"])[0] == 2
    assert run(["gen", "example3d"])[0] == 0
    assert run(["gen", "example3d", "4"])[0] == 2


def test_gen_random_gram_requires_seed():
    assert run(["gen", "random_gram", "5"])[0] == 2


def test_gen_unknown_family_is_usage_error():
    assert run(["gen", "dn", "4"])[0] == 2


def test_gen_rejects_bad_density():
    assert run(["gen", "random_gram", "5", "--seed", "1",
                "--density", "3/2"])[0] == 2
    assert run(["gen", "random_gram", "5", "--seed", "1",
                "--density", "x"])[0] == 2
    for density in ("1e-1", "1_0/20"):
        assert run(["gen", "random_gram", "5", "--seed", "1",
                    "--density", density]) == (
            2, "", f"usage error: argument --density: {density!r} is not "
                   "a rational number\n")


def test_gen_deterministic_output():
    first = run(["gen", "random_gram", "6", "--seed", "8", "--density", "1/4"])
    second = run(["gen", "random_gram", "6", "--seed", "8", "--density", "1/4"])
    assert first == second


# --- run_cli: verify ----------------------------------------------------------------

def test_verify_equal_pair():
    _, gen_out, _ = run(["gen", "an", "3"])
    code, out, _ = run(["verify", "-", "--assignment", "1,1,0,0"],
                       stdin_text=gen_out)
    assert code == 0
    assert out == "Q: 2\ncut: 2\nequal: yes\n"


def test_verify_on_gram_file():
    code, out, _ = run(["verify", "-", "--assignment", "1,1,0,0"],
                       stdin_text=EXAMPLE3D_GRAM_FILE)
    assert code == 0
    assert "Q: 1/2" in out


def test_verify_improper_assignment_is_exit_1():
    _, gen_out, _ = run(["gen", "an", "3"])
    code, _, err = run(["verify", "-", "--assignment", "1,1,1,1"],
                       stdin_text=gen_out)
    assert code == 1
    assert "assignment" in err


def test_verify_wrong_length_is_exit_1():
    _, gen_out, _ = run(["gen", "an", "3"])
    code, _, _ = run(["verify", "-", "--assignment", "1,0"],
                     stdin_text=gen_out)
    assert code == 1


def test_verify_bad_bits_is_exit_2():
    _, gen_out, _ = run(["gen", "an", "3"])
    code, _, _ = run(["verify", "-", "--assignment", "1,2,0,0"],
                     stdin_text=gen_out)
    assert code == 2


def test_a_value_error_from_the_library_is_exit_1(monkeypatch):
    def fail(*_, **__):
        raise ValueError("not a usage problem")

    monkeypatch.setattr(latcut.cli, "short_vector", fail)
    _, gen_out, _ = run(["gen", "an", "3"])
    assert run(["svp", "-"], stdin_text=gen_out) == (
        1, "", "error: not a usage problem\n")


def test_a_file_that_is_not_utf8_is_exit_2(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"gram 2\n1 -1 # \xe9\n-1 1\n")
    code, out, err = run(["validate", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode")


# --- usage ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error():
    assert run([])[0] == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"])[0] == 2


def test_bad_seed_is_usage_error():
    _, gen_out, _ = run(["gen", "an", "3"])
    assert run(["svp", "-", "--seed", "-1"], stdin_text=gen_out)[0] == 2
    assert run(["svp", "-", "--trials", "0"], stdin_text=gen_out)[0] == 2


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--trials", "0"]])
@pytest.mark.parametrize("algorithm", ["stoer-wagner", "brute", "karger"])
def test_out_of_range_seed_or_trials_is_usage_error_for_every_algorithm(
        flag, algorithm):
    _, gen_out, _ = run(["gen", "an", "3"])
    code, out, err = run(["svp", "-", "--algorithm", algorithm, *flag],
                         stdin_text=gen_out)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "warning" not in err


# --- flags svp ignores -----------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["stoer-wagner", "brute"])
@pytest.mark.parametrize("flags, named", [
    (["--seed", "3"], "--seed is"),
    (["--trials", "2"], "--trials is"),
    (["--seed", "3", "--trials", "2"], "--seed and --trials are"),
])
def test_seed_and_trials_without_karger_warn_once(algorithm, flags, named):
    _, gen_out, _ = run(["gen", "example3d"])
    plain = run(["svp", "-", "--algorithm", algorithm], stdin_text=gen_out)
    code, out, err = run(["svp", "-", "--algorithm", algorithm, *flags],
                         stdin_text=gen_out)
    assert (code, out) == (0, plain[1])
    assert err == f"warning: {named} ignored unless --algorithm karger\n"


def test_seed_and_trials_with_karger_do_not_warn():
    _, gen_out, _ = run(["gen", "example3d"])
    code, _, err = run(["svp", "-", "--algorithm", "karger", "--seed", "3",
                        "--trials", "2"], stdin_text=gen_out)
    assert (code, err) == (0, "")


# --- one parser for every call ---------------------------------------------------

def fresh_process(args, stdin_text):
    """(exit code, stdout, stderr) of `latcut <args>` in a new interpreter."""
    src = str(Path(latcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", "from latcut.cli import main; main()", *args],
        input=stdin_text, capture_output=True, text=True, env=env,
    )
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_match_fresh_processes():
    _, gen_out, _ = run(["gen", "example3d"])
    calls = [
        ["svp", "-", "--seed", "-1"],  # a usage error first
        ["svp", "-", "--algorithm", "brute"],
        ["frobnicate"],
        ["validate", "-"],
        ["svp", "-", "--json"],
        ["candidates", "-"],
        ["verify", "-", "--assignment", "1,0,0,0"],
        ["svp", "-", "--algorithm", "karger", "--seed", "5"],
    ]
    in_process = [run(args, stdin_text=gen_out) for args in calls]
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0, 0, 0, 0, 0]
    assert in_process == [fresh_process(args, gen_out) for args in calls]
    assert _build_parser() is _build_parser()


# --- the common denominator cap ----------------------------------------------------

def two_vector_gram_file(denominator):
    a = f"1/{denominator}"
    return f"gram 2\n{a} -{a}\n-{a} {a}\n"


def test_common_denominator_at_the_cap_is_accepted():
    text = two_vector_gram_file(2 ** (MAX_DENOMINATOR_BITS - 1))
    code, out, err = run(["svp", "-"], stdin_text=text)
    assert (code, err) == (0, "")
    assert f"squared length: 1/{2 ** (MAX_DENOMINATOR_BITS - 1)}\n" in out


def test_common_denominator_past_the_cap_exits_1():
    text = two_vector_gram_file(2 ** MAX_DENOMINATOR_BITS)
    for command in ("svp", "validate"):
        code, out, err = run([command, "-"], stdin_text=text)
        assert (code, out) == (1, "")
        assert err == ("error: the entries need a common denominator of more "
                       f"than {MAX_DENOMINATOR_BITS} bits\n")


def test_one_row_past_the_cap_reports_the_cap():
    """The parser scales before the validators count rows, so a one-row
    file whose token passes the cap reports the cap; both exit 1."""
    big = 2 ** MAX_DENOMINATOR_BITS
    for text in (f"superbase 1 2\n1/{big} 2\n", f"gram 1\n1/{big}\n"):
        assert run(["validate", "-"], stdin_text=text) == (
            1, "", "error: the entries need a common denominator of more "
                   f"than {MAX_DENOMINATOR_BITS} bits\n")
    assert run(["validate", "-"], stdin_text="gram 1\n1/3\n") == (
        1, "", "error: a Gram matrix needs side >= 2\n")


def primes_past(bits):
    """The primes in order up to the first whose product passes `bits` bits."""
    primes, product, p = [], 1, 1
    while product.bit_length() <= bits:
        p += 1
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            primes.append(p)
            product *= p
    return primes


def prime_block_superbase_file(blocks, primes):
    """Disjoint blocks of 1/p, one coordinate per prime, and minus their sum.

    The common denominator of the coordinates is the product of `primes`.
    The superbase is valid: the block vectors are orthogonal, and each
    meets the last vector.
    """
    m = len(primes)
    rows = [["0"] * m for _ in range(blocks)]
    for k, p in enumerate(primes):
        rows[k * blocks // m][k] = f"1/{p}"
    rows.append([f"-1/{p}" for p in primes])
    return f"superbase {blocks + 1} {m}\n" + "".join(
        " ".join(row) + "\n" for row in rows)


def test_superbase_coordinates_past_the_cap_exit_1():
    text = prime_block_superbase_file(3, primes_past(MAX_DENOMINATOR_BITS))
    for command in ("validate", "svp", "candidates"):
        code, out, err = run([command, "-"], stdin_text=text)
        assert (code, out) == (1, "")
        assert err == ("error: the entries need a common denominator of more "
                       f"than {MAX_DENOMINATOR_BITS} bits\n")


def test_superbase_coordinates_at_the_cap_are_accepted():
    primes = primes_past(MAX_DENOMINATOR_BITS)[:-1]
    assert math.prod(primes).bit_length() > MAX_DENOMINATOR_BITS - 16
    text = prime_block_superbase_file(3, primes)
    assert run(["validate", "-"], stdin_text=text) == (
        0, f"valid superbase: n=3, vectors=4, ambient={len(primes)}\n", "")
    code, out, err = run(["candidates", "-"], stdin_text=text)
    assert (code, err, len(out.splitlines())) == (0, "", 14)
    a = f"1/{2 ** (MAX_DENOMINATOR_BITS - 1)}"
    text = f"superbase 3 2\n{a} 0\n0 {a}\n-{a} -{a}\n"
    assert run(["validate", "-"], stdin_text=text) == (
        0, "valid superbase: n=2, vectors=3, ambient=2\n", "")


def test_selling_parameters_past_the_cap_name_the_edge_weights():
    """Coordinates within the cap can have Selling parameters past it; the
    cut graph then refuses them, and says that its weights are too long."""
    text = prime_block_superbase_file(3, primes_past(MAX_DENOMINATOR_BITS)[:-1])
    for args in (["svp", "-"], ["verify", "-", "--assignment", "1,0,0,0"]):
        assert run(args, stdin_text=text) == (
            1, "", "error: the edge weights need a common denominator of "
                   f"more than {MAX_DENOMINATOR_BITS} bits\n")


def test_an_answer_too_long_to_print_prints_nothing():
    """Coordinates of 2500 digits give a squared length past Python's
    4300-digit int-to-str limit: every command fails before writing."""
    text = f"superbase 2 1\n{'9' * 2500}\n-{'9' * 2500}\n"
    for args in (["svp", "-"], ["svp", "-", "--json"], ["candidates", "-"],
                 ["verify", "-", "--assignment", "1,0"]):
        code, out, err = run(args, stdin_text=text)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


def test_commands_never_build_the_fraction_view(monkeypatch, tmp_path):
    gen_args = ["gen", "random_gram", "4", "--seed", "3"]
    expected = run(gen_args)
    gram_file = tmp_path / "g.txt"
    gram_file.write_text(expected[1])
    superbase_file = tmp_path / "s.txt"
    superbase_file.write_text(run(["gen", "anstar", "4"])[1])

    def refuse(self):
        raise AssertionError("a Fraction view was read")

    monkeypatch.setattr(GramMatrix, "entries", property(refuse))
    monkeypatch.setattr(Superbase, "vectors", property(refuse))
    assert run(gen_args) == expected
    assert run(["gen", "anstar", "4"]) == (0, superbase_file.read_text(), "")
    code, out, err = run(["candidates", str(superbase_file)])
    assert (code, err, len(out.splitlines())) == (0, "", 30)
    for path in (gram_file, superbase_file):
        for algorithm in ("stoer-wagner", "karger", "brute"):
            code, out, err = run(["svp", str(path), "--algorithm", algorithm])
            assert (code, err) == (0, "") and "squared length: " in out
        assert run(["validate", str(path)])[0] == 0
        code, out, _ = run(["verify", str(path), "--assignment", "1,0,1,0,0"])
        assert (code, out.splitlines()[-1]) == (0, "equal: yes")


def test_svp_coerces_no_entry(monkeypatch, tmp_path):
    """The parser scales its distinct tokens, and nothing coerces again."""
    paths = []
    for args in (["gen", "random_gram", "6", "--seed", "2"], ["gen", "anstar", "5"]):
        paths.append(tmp_path / f"{args[1]}.txt")
        paths[-1].write_text(run(args)[1])
    original = latcut.lattice.as_rational
    calls = []

    def counted(value):
        calls.append(value)
        return original(value)

    for module in (latcut.lattice, latcut.cli, latcut.generators, latcut.mincut):
        if getattr(module, "as_rational", None) is original:
            monkeypatch.setattr(module, "as_rational", counted)
    for path in paths:
        code, out, err = run(["svp", str(path)])
        assert (code, err) == (0, "") and "squared length: " in out
    assert calls == []
