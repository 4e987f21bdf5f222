import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import latcut
from latcut import (
    GramMatrix, InstanceSpec, ParseError, ShapeError, Superbase, gen_random_gram,
    generate, quadratic_form, selling_parameters, short_vector, validate_gram,
)
from latcut.generators import FAMILIES, MAX_N
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


def traced_peak(call, *args):
    """The tracemalloc peak of `call(*args)`, in bytes, and its value."""
    tracemalloc.start()
    try:
        value = call(*args)
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [
    InstanceSpec("random_gram", 200, seed=1, density=F(1)),
    InstanceSpec("anstar", 200),
], ids=["random_gram-200-d1", "anstar-200"])
def test_the_parser_never_sets_the_peak_of_svp(spec):
    # The parser keeps every row's words until the last row is read; that
    # must stay below what the solve of the same lattice holds at its peak.
    lattice = generate(spec)
    text = (format_superbase if isinstance(lattice, Superbase)
            else format_gram)(lattice)
    parse_peak, parsed = traced_peak(parse_input, text)
    solve_peak, _ = traced_peak(short_vector, parsed)
    assert parse_peak < solve_peak


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


BIG = 2 ** MAX_DENOMINATOR_BITS


@pytest.mark.parametrize("text, line, column, named", [
    ("gram 3\n2 -1 -1\n-1 2 -1\nz y x\n", 4, 1, "'z'"),
    ("gram 3\n2 -1 -1\n-1 5/4 1e5\nq q q\n", 3, 8, "'1e5'"),
    ("gram 3\n2 -1 -1\n-1 ok 2/0\n-1 -1 2\n", 3, 4, "'ok'"),
    ("gram 3\n2 -1 -1\n-1 2/0 ok\n-1 -1 2\n", 3, 4, "'2/0'"),
    # A bad token on an earlier line beats each later error.
    ("gram 2\n1 x\n-1 1\n0 0\n", 2, 3, "'x'"),
    ("gram 2\n1 -1\n# note\n-1 ok\n0 0\n", 4, 4, "'ok'"),
    ("gram 2\n1 x\n-1 1 1\n", 2, 3, "'x'"),
    ("gram 3\n1 -1 0\n\n-1 1 2/0\n0 0\n", 4, 6, "'2/0'"),
    ("gram 3\n1 x 0\n", 2, 3, "'x'"),
    ("gram 3\n1 -1 0\n-1 1 1e5\n", 3, 6, "'1e5'"),
    (f"gram 2\n1 x\n-1 {BIG}\n", 2, 3, "'x'"),
    (f"gram 2\n{BIG} -1\n-1 1_0\n", 3, 4, "'1_0'"),
    (f"gram 2\n1/{BIG} -1\n  -1 x\n", 3, 6, "'x'"),
], ids=["three-bad", "good-new-then-bad", "bad-then-zero-divisor",
        "zero-divisor-then-bad", "before-an-extra-row",
        "before-an-extra-row-later", "before-a-row-length",
        "before-a-row-length-later", "before-missing-rows",
        "before-missing-rows-later", "before-an-entry-past-the-cap",
        "after-an-entry-past-the-cap", "after-a-scale-past-the-cap"])
def test_the_first_bad_token_of_a_row_is_reported(text, line, column, named):
    # The file's distinct tokens are read as a set, after its last row;
    # the error still names the first bad one in line order, and comes
    # before a later line's ShapeError, the row count at the end of the
    # file and TooLarge.
    with pytest.raises(ParseError) as info:
        parse_input(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert named in str(info.value)


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
    # '_' digit separators are refused as in entries; `int` reads 2_0 as 20.
    for text, column, named in [("gram 2_0\n1 -1\n-1 1\n", 6, "'2_0'"),
                                ("superbase 2 1_0\n1\n-1\n", 13, "'1_0'"),
                                ("superbase 0_2 1\n1\n-1\n", 11, "'0_2'")]:
        with pytest.raises(ParseError) as info:
            parse_input(text)
        assert (info.value.line, info.value.column) == (1, column)
        assert str(info.value).endswith(
            f"expected a positive integer, got {named}")
        assert run(["validate", "-"], stdin_text=text)[0] == 2


def test_a_header_count_keeps_what_int_reads_otherwise():
    assert parse_input("gram +2\n1 -1\n-1 1\n").rows == ((1, -1), (-1, 1))
    assert parse_input("superbase 02 1\n1\n-1\n").rows == ((1,), (-1,))


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


def test_svp_karger_reports_the_trials_asked_for_when_it_stops_early():
    # example3d's 4 vertices are searched exhaustively, so the first of
    # the million trials is proved minimal and the rest never run.
    _, gen_out, _ = run(["gen", "example3d"])
    code, out, _ = run(["svp", "-", "--algorithm", "karger", "--trials",
                        "1000000"], stdin_text=gen_out)
    assert code == 0
    assert "squared length: 1/2\n" in out
    assert out.endswith("seed: 0\ntrials: 1000000\n")


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


@pytest.mark.parametrize("family", ["an", "anstar", "zn", "random_gram"])
def test_gen_refuses_n_past_its_cap_before_building_anything(family):
    # `gen anstar 20000` would ask for several GB.  The child limits its
    # own address space to 256 MB, so building anything of that size would
    # end in a MemoryError, exit 1; the refusal is exit 2, with the cap.
    src = str(Path(latcut.__file__).resolve().parents[1])
    code = ("import resource; limit = 256 << 20; "
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
            "from latcut.cli import main; main()")
    done = subprocess.run(
        [sys.executable, "-c", code, "gen", family, "20000", "--seed", "1"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(
        f"usage error: n must be <= {MAX_N}, the generator's size cap\n")


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


def test_verify_wrong_length_names_the_superbase_vectors_or_the_gram_side():
    _, gen_out, _ = run(["gen", "an", "3"])
    assert run(["verify", "-", "--assignment", "1,0,0"],
               stdin_text=gen_out) == (
        1, "", "error: assignment has length 3, superbase has 4 vectors\n")
    assert run(["verify", "-", "--assignment", "1,0,0"],
               stdin_text=EXAMPLE3D_GRAM_FILE) == (
        1, "", "error: assignment has length 3, Gram side is 4\n")


def test_verify_bad_bits_is_exit_2():
    _, gen_out, _ = run(["gen", "an", "3"])
    code, _, _ = run(["verify", "-", "--assignment", "1,2,0,0"],
                     stdin_text=gen_out)
    assert code == 2


# Two components, {1, 2} and {3, 4}: vector 3 is the first one missed.
DISCONNECTED_GRAM_FILE = "gram 4\n1 -1 0 0\n-1 1 0 0\n0 0 1 -1\n0 0 -1 1\n"
WRONG_RANK = ("error: vector 3 cannot be reached from vector 1 in the Selling "
              "graph, so the rank is less than side - 1\n")


def test_verify_checks_the_file_before_the_assignment():
    assert run(["verify", "-", "--assignment", "1,x,0,0"],
               stdin_text=DISCONNECTED_GRAM_FILE) == (1, "", WRONG_RANK)


def test_candidates_checks_the_file_before_asking_for_coordinates():
    assert run(["candidates", "-"], stdin_text=DISCONNECTED_GRAM_FILE) == (
        1, "", WRONG_RANK)


def test_svp_brute_checks_the_file_before_its_size_limit():
    # A path on 25 vertices without the edge {12, 13}: too large for brute
    # force, but its rank is checked first.
    size = 25
    rows = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        if i != 11:
            rows[i][i + 1] = rows[i + 1][i] = -1
    for i, row in enumerate(rows):
        row[i] = -sum(row)
    text = format_gram(GramMatrix(tuple(map(tuple, rows)), 1))
    assert run(["svp", "-", "--algorithm", "brute"], stdin_text=text) == (
        1, "", "error: vector 13 cannot be reached from vector 1 in the "
        "Selling graph, so the rank is less than side - 1\n")


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


def latcut_process(args, data: bytes, encoding=None):
    """(exit code, stdout, stderr) of `python -m latcut <args>` in a new
    interpreter fed the bytes `data`, its standard streams in `encoding`
    (PYTHONIOENCODING) or, for None, in the interpreter's default."""
    src = str(Path(latcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    done = subprocess.run([sys.executable, "-m", "latcut", *args],
                          input=data, capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("encoding", [None, "latin-1"])
def test_standard_input_is_decoded_as_strict_utf8_like_a_file(
        tmp_path, encoding):
    data = b"gram 2 # caf\xe9\n1 -1\n-1 1\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    from_file = latcut_process(["validate", str(path)], b"", encoding)
    assert from_file == (2, b"", b"error: 'utf-8' codec can't decode byte "
                         b"0xe9 in position 12: invalid continuation byte\n")
    assert latcut_process(["validate", "-"], data, encoding) == from_file


def test_standard_input_keeps_its_byte_order_mark_and_crlf_lines():
    data = ("\ufeff" + EXAMPLE3D_GRAM_FILE.replace("\n", "\r\n")).encode()
    _, plain, _ = run(["svp", "-"], stdin_text=EXAMPLE3D_GRAM_FILE)
    assert latcut_process(["svp", "-"], data) == (0, plain.encode(), b"")


@pytest.mark.parametrize("text", [EXAMPLE3D_GRAM_FILE, A3_FILE],
                         ids=["gram", "superbase"])
@pytest.mark.parametrize("command", ["svp", "validate"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, command, text):
    plain = run([command, "-"], stdin_text=text)
    assert plain[0] == 0
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())  # the UTF-8 BOM
    assert run([command, str(path)]) == plain
    assert run([command, "-"], stdin_text="\ufeff" + text) == plain


@pytest.mark.parametrize("text, line, column, named", [
    ("\ufeff\ufeffgram 2\n1 -1\n-1 1\n", 1, 1, "unknown kind '\\ufeffgram'"),
    ("gram\ufeff 2\n1 -1\n-1 1\n", 1, 1, "unknown kind 'gram\\ufeff'"),
    ("gram 2\n\ufeff1 -1\n-1 1\n", 2, 1, "cannot parse '\\ufeff1'"),
    ("gram 2\n1 -1\ufeff\n-1 1\n", 2, 3, "cannot parse '-1\\ufeff'"),
    ("# note\n\ufeffgram 2\n1 -1\n-1 1\n", 2, 1, "unknown kind '\\ufeffgram'"),
], ids=["second", "in-header", "row-start", "row-end", "after-comment"])
def test_a_byte_order_mark_anywhere_else_is_a_parse_error(
        text, line, column, named):
    with pytest.raises(ParseError) as info:
        parse_input(text)
    assert (info.value.line, info.value.column) == (line, column)
    for command in ("svp", "validate"):
        code, out, err = run([command, "-"], stdin_text=text)
        assert (code, out) == (2, "")
        assert named in err


# --- usage ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error():
    assert run([])[0] == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"])[0] == 2


@pytest.mark.parametrize("args", [["--help"], ["svp", "--help"]],
                         ids=["latcut", "svp"])
def test_help_is_written_to_the_given_stdout(capsys, args):
    code, out, err = run(args)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: latcut", *args[:-1]]))
    assert capsys.readouterr() == ("", "")


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


# --- flags gen ignores ------------------------------------------------------------

@pytest.mark.parametrize("command", [["an", "3"], ["zn", "2"], ["example3d"]])
@pytest.mark.parametrize("flags, named", [
    (["--seed", "5"], "--seed is"),
    (["--density", "1/3"], "--density is"),
    (["--seed", "5", "--density", "1/3"], "--seed and --density are"),
])
def test_seed_and_density_without_random_gram_warn_once(command, flags, named):
    plain = run(["gen", *command])
    code, out, err = run(["gen", *command, *flags])
    assert (code, out) == (0, plain[1])
    assert err == f"warning: {named} ignored unless the family is random_gram\n"


def test_seed_and_density_with_random_gram_do_not_warn():
    code, _, err = run(["gen", "random_gram", "4", "--seed", "5",
                        "--density", "1/3"])
    assert (code, err) == (0, "")


# --- one parser for every call ---------------------------------------------------

def fresh_process(args, stdin_text):
    """(exit code, stdout, stderr) of `latcut <args>` in a new interpreter."""
    code, out, err = latcut_process(args, stdin_text.encode())
    return code, out.decode(), err.decode()


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


def test_python_dash_m_latcut_runs_the_cli():
    assert latcut_process(["gen", "example3d"], b"") == (
        0, run(["gen", "example3d"])[1].encode(), b"")


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


EDGE_WEIGHTS_PAST_THE_CAP = (
    "error: the edge weights need a common denominator of more than "
    f"{MAX_DENOMINATOR_BITS} bits\n")


def every_command(text):
    """(exit code, stdout, stderr) of validate, candidates, svp and verify."""
    return [run(args, stdin_text=text) for args in (
        ["validate", "-"], ["candidates", "-"], ["svp", "-"],
        ["verify", "-", "--assignment", "1,0,0,0"])]


def power_of_two_superbase_file(k):
    """The unit basis of Z^3 and minus its sum, all over 2**k."""
    a = f"1/{2 ** k}"
    return (f"superbase 4 3\n{a} 0 0\n0 {a} 0\n0 0 {a}\n"
            f"-{a} -{a} -{a}\n")


def test_superbase_coordinates_at_the_cap_are_accepted():
    """The cap binds on the Selling parameters, whose denominator is the
    square of the coordinates' here: every command accepts a superbase
    just within it and refuses one just past it, with the same error."""
    primes = primes_past(MAX_DENOMINATOR_BITS // 2)
    k = MAX_DENOMINATOR_BITS // 2
    for within, past, ambient in (
            (prime_block_superbase_file(3, primes[:-1]),
             prime_block_superbase_file(3, primes), len(primes) - 1),
            (power_of_two_superbase_file(k - 1),
             power_of_two_superbase_file(k), 3)):
        bits = [selling_parameters(parse_input(text)).scale.bit_length()
                for text in (within, past)]
        assert bits[0] in range(MAX_DENOMINATOR_BITS - 8, MAX_DENOMINATOR_BITS + 1)
        assert bits[1] > MAX_DENOMINATOR_BITS
        validated, listed, solved, verified = every_command(within)
        assert validated == (
            0, f"valid superbase: n=3, vectors=4, ambient={ambient}\n", "")
        assert (listed[0], listed[2], len(listed[1].splitlines())) == (0, "", 14)
        assert (solved[0], solved[2]) == (0, "")
        assert "squared length: " in solved[1]
        assert (verified[0], verified[2]) == (0, "")
        assert verified[1].endswith("equal: yes\n")
        assert every_command(past) == [(1, "", EDGE_WEIGHTS_PAST_THE_CAP)] * 4


def test_selling_parameters_past_the_cap_name_the_edge_weights():
    """Coordinates within the cap can have Selling parameters past it; the
    cut graph then refuses them in every command, and says that its
    weights are too long."""
    for text in (
            prime_block_superbase_file(3, primes_past(MAX_DENOMINATOR_BITS)[:-1]),
            power_of_two_superbase_file(MAX_DENOMINATOR_BITS - 1)):
        assert every_command(text) == [(1, "", EDGE_WEIGHTS_PAST_THE_CAP)] * 4


def test_an_answer_too_long_to_print_prints_nothing():
    """Coordinates of 2500 digits would give a squared length past
    Python's 4300-digit int-to-str limit: every command refuses an integer
    past the cap before writing, and answers one just within it."""
    commands = (["validate", "-"], ["svp", "-"], ["svp", "-", "--json"],
                ["candidates", "-"], ["verify", "-", "--assignment", "1,0"])
    for big in ("9" * 2500, str(2 ** MAX_DENOMINATOR_BITS)):
        text = f"superbase 2 1\n{big}\n-{big}\n"
        for args in commands:
            assert run(args, stdin_text=text) == (
                1, "", "error: the entries need integers of more than "
                f"{MAX_DENOMINATOR_BITS} bits over their common denominator\n")
    within = 2 ** MAX_DENOMINATOR_BITS - 1
    text = f"superbase 2 1\n{within}\n-{within}\n"
    answers = [run(args, stdin_text=text) for args in commands]
    assert answers[0] == (0, "valid superbase: n=1, vectors=2, ambient=1\n", "")
    assert answers[1] == (0, f"subset: 2\nsquared length: {within ** 2}\n"
                          f"vector: -{within}\nalgorithm: stoer-wagner\n", "")
    assert json.loads(answers[2][1])["squared_length"] == str(within ** 2)
    assert answers[3] == (0, f"1 | {within ** 2} | {within}\n"
                          f"2 | {within ** 2} | -{within}\n", "")
    assert answers[4] == (0, f"Q: {within ** 2}\ncut: {within ** 2}\n"
                          "equal: yes\n", "")


def test_each_command_checks_its_lattice_once(monkeypatch):
    """Generating checks nothing.  One `validate`, `candidates`, `svp` or
    `verify` op takes a superbase's products once and checks their graph
    once, with no Gram check, and `verify` still refuses an invalid file
    first, a Gram file with each check once."""
    calls = {"products": 0, "graph": 0, "gram": 0}

    def counted(key, original):
        def count(*args):
            calls[key] += 1
            return original(*args)
        return count

    for key, name in (("products", "_selling_graph"),
                      ("graph", "_check_graph"), ("gram", "_check_gram")):
        monkeypatch.setattr(latcut.lattice, name,
                            counted(key, getattr(latcut.lattice, name)))
    for family in FAMILIES:
        generate(InstanceSpec(family, 3, seed=1))
        assert run(["gen", family, "3", "--seed", "1"])[0] == 0
    assert calls == {"products": 0, "graph": 0, "gram": 0}
    for args in (["validate", "-"], ["candidates", "-"], ["svp", "-"],
                 ["verify", "-", "--assignment", "1,1,0,0"]):
        assert run(args, stdin_text=A3_FILE)[0] == 0
        assert calls == {"products": 1, "graph": 1, "gram": 0}
        calls.update(products=0, graph=0)
    assert run(["verify", "-", "--assignment", "1,1,1,1"],
               stdin_text=DISCONNECTED_GRAM_FILE) == (1, "", WRONG_RANK)
    assert calls == {"products": 0, "graph": 1, "gram": 1}


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
