"""Command-line front end and the line-oriented input file format.

Format: the first significant line is a header, either
``superbase <count> <m>`` or ``gram <count>``; each following significant
line is one row of whitespace-separated rationals (``5/4``, ``-1``,
``0.25``; see :func:`latcut.lattice.as_rational` for the token grammar).
``#`` starts a comment, blank lines are skipped, and ``-`` as a file name
means standard input.  The parser scales its distinct tokens to integers
once, and the validators check the Superbase or GramMatrix it returns.

All user-facing indices are 1-based; the library underneath is 0-based.
Exit codes: 0 success, 1 validation or computation failure, 2 usage,
parse or read error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from fractions import Fraction
from pathlib import Path

from .errors import LatCutError, ParseError, ShapeError
from .generators import DEFAULT_DENSITY, FAMILIES, InstanceSpec, generate
from .lattice import (
    GramMatrix,
    Superbase,
    _scaled,
    _token_value,
    as_rational,
    validate_gram,
    validate_superbase,
)
from .mincut import default_trial_count
from .pipeline import (
    ALGORITHMS,
    candidate_vectors,
    short_vector,
    verify_reduction,
)


def parse_input(text: str) -> Superbase | GramMatrix:
    """Parse the file format into an unvalidated Superbase or GramMatrix.

    One leading byte-order mark (U+FEFF) is dropped.  Each distinct token
    is parsed and scaled once.  Raises ParseError (with 1-based line and
    column) for malformed headers or tokens, ShapeError when rows disagree
    with the header, TooLarge past the cap.
    """
    kind: type[Superbase] | type[GramMatrix] | None = None
    expected_cols = 0
    expected_rows = 0
    rows: list[tuple[int, ...]] = []  # positions in `distinct`, shared
    position: dict[str, int] = {}
    distinct: list[Fraction] = []
    last_line = 0

    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue

        if kind is None:
            tokens = _tokens_with_columns(line)
            word, column = tokens[0]
            if word == "superbase":
                if len(tokens) != 3:
                    raise ParseError(
                        lineno, column,
                        "header must be 'superbase <count> <m>'",
                    )
                count = _header_int(tokens[1], lineno)
                m = _header_int(tokens[2], lineno)
                kind, expected_rows, expected_cols = Superbase, count, m
            elif word == "gram":
                if len(tokens) != 2:
                    raise ParseError(
                        lineno, column, "header must be 'gram <count>'"
                    )
                count = _header_int(tokens[1], lineno)
                kind, expected_rows, expected_cols = GramMatrix, count, count
            else:
                raise ParseError(
                    lineno, column,
                    f"unknown kind {word!r}; expected 'superbase' or 'gram'",
                )
            continue

        if len(rows) == expected_rows:
            raise ShapeError(
                lineno, f"expected {expected_rows} rows, found more"
            )
        if len(words) != expected_cols:
            raise ShapeError(
                lineno,
                f"row {len(rows) + 1} has {len(words)} entries, "
                f"expected {expected_cols}",
            )
        for k, token in enumerate(words):
            if token not in position:
                try:
                    distinct.append(_token_value(token))
                except (ValueError, ZeroDivisionError):
                    column = _tokens_with_columns(line)[k][1]
                    raise ParseError(
                        lineno, column, f"cannot parse {token!r} as a rational"
                    ) from None
                position[token] = len(position)
        rows.append(tuple([position[token] for token in words]))

    if kind is None:
        raise ParseError(max(last_line, 1), 1, "missing header line")
    if len(rows) != expected_rows:
        raise ShapeError(
            last_line, f"expected {expected_rows} rows, found {len(rows)}"
        )
    (values,), scale = _scaled([distinct])
    return kind(tuple([tuple([values[p] for p in row]) for row in rows]), scale)


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of `line` with their 1-based columns."""
    return [(match.group(), match.start() + 1)
            for match in re.finditer(r"\S+", line)]


def _header_int(token_with_column: tuple[str, int], lineno: int) -> int:
    token, column = token_with_column
    try:
        value = int(token)
    except ValueError:
        raise ParseError(
            lineno, column, f"expected a positive integer, got {token!r}"
        ) from None
    if value < 1:
        raise ParseError(
            lineno, column, f"expected a positive integer, got {token!r}"
        )
    return value


def format_superbase(sb: Superbase, comment: str | None = None) -> str:
    return _format(f"superbase {sb.n + 1} {sb.m}", sb, comment)


def format_gram(g: GramMatrix, comment: str | None = None) -> str:
    return _format(f"gram {g.size}", g, comment)


def _format(header: str, value: Superbase | GramMatrix,
            comment: str | None) -> str:
    """`value` under `header`, rendering each distinct entry once."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(header)
    text = cache(lambda x: str(Fraction(x, value.scale)))
    lines.extend(" ".join(map(text, row)) for row in value.rows)
    return "\n".join(lines) + "\n"


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _rational(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number"
        ) from None


@cache
def _build_parser() -> _ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = _ArgumentParser(
        prog="latcut",
        description="Shortest lattice vectors via graph minimum cuts, "
        "in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    svp = sub.add_parser("svp", help="compute a shortest nonzero vector")
    svp.add_argument("file", help="superbase or gram file, or - for stdin")
    svp.add_argument("--algorithm", choices=ALGORITHMS, default="stoer-wagner")
    svp.add_argument("--seed", type=_u64, default=None)
    svp.add_argument("--trials", type=_positive_int, default=None)
    svp.add_argument("--json", action="store_true")

    validate = sub.add_parser("validate", help="check a file's invariants")
    validate.add_argument("file")

    candidates = sub.add_parser(
        "candidates", help="enumerate every candidate subset sum"
    )
    candidates.add_argument("file")

    gen = sub.add_parser("gen", help="emit a built-in or random instance")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("n", type=int, nargs="?", default=None)
    gen.add_argument("--seed", type=_u64, default=None)
    gen.add_argument("--density", type=_rational, default=None)
    gen.add_argument("-o", "--output", default=None)

    verify = sub.add_parser(
        "verify", help="evaluate one assignment as quadratic form and as cut"
    )
    verify.add_argument("file")
    verify.add_argument(
        "--assignment", required=True, help="comma-separated bits, e.g. 1,1,0,0"
    )
    return parser


def run_cli(argv, *, stdin=None, stdout=None, stderr=None) -> int:
    """Run one command; returns the exit code instead of exiting."""
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2

    handler = {
        "svp": _cmd_svp,
        "validate": _cmd_validate,
        "candidates": _cmd_candidates,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args, stdin, stdout, stderr)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2
    except (ParseError, ShapeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except (LatCutError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def _read_text(path: str, stdin) -> str:
    if path == "-":
        return stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load(parsed: Superbase | GramMatrix) -> Superbase | GramMatrix:
    """Validate a parsed file into the one object every command takes; a
    Superbase's Selling parameters are then the matrix validation built."""
    if isinstance(parsed, Superbase):
        return validate_superbase(parsed)
    return validate_gram(parsed)


def _indices_1based(subset) -> list[int]:
    return [i + 1 for i in subset]


def _warn_ignored(flags, unless: str, stderr) -> None:
    """Warn on stderr that the flags given a value are ignored unless `unless`."""
    ignored = [flag for flag, value in flags if value is not None]
    if ignored:
        verb = "is" if len(ignored) == 1 else "are"
        print(f"warning: {' and '.join(ignored)} {verb} ignored unless "
              f"{unless}", file=stderr)


def _cmd_svp(args, stdin, stdout, stderr) -> int:
    if args.algorithm != "karger":
        _warn_ignored((("--seed", args.seed), ("--trials", args.trials)),
                      "--algorithm karger", stderr)
    lattice = _load(parse_input(_read_text(args.file, stdin)))
    seed = args.seed if args.seed is not None else 0
    trials = args.trials
    if args.algorithm == "karger" and trials is None:
        trials = default_trial_count(lattice.n + 1)
    result = short_vector(lattice, args.algorithm, seed=seed, trials=trials)
    if args.json:
        payload: dict = {
            "subset": _indices_1based(result.subset),
            "squared_length": str(result.squared_length),
        }
        if result.coordinates is not None:
            payload["coordinates"] = [str(x) for x in result.coordinates]
        payload["algorithm"] = args.algorithm
        if args.algorithm == "karger":
            payload["seed"] = seed
            payload["trials"] = trials
        text = json.dumps(payload)
    else:
        lines = [
            "subset: " + " ".join(map(str, _indices_1based(result.subset))),
            f"squared length: {result.squared_length}"]
        if result.coordinates is not None:
            lines.append("vector: " + " ".join(map(str, result.coordinates)))
        lines.append(f"algorithm: {args.algorithm}")
        if args.algorithm == "karger":
            lines += [f"seed: {seed}", f"trials: {trials}"]
        text = "\n".join(lines)
    print(text, file=stdout)  # whole, so an unprintable answer prints nothing
    return 0


def _cmd_validate(args, stdin, stdout, stderr) -> int:
    lattice = _load(parse_input(_read_text(args.file, stdin)))
    if isinstance(lattice, Superbase):
        print(f"valid superbase: n={lattice.n}, vectors={lattice.n + 1}, "
              f"ambient={lattice.m}", file=stdout)
    else:
        print(f"valid gram: n={lattice.n}, side={lattice.size}", file=stdout)
    return 0


def _cmd_candidates(args, stdin, stdout, stderr) -> int:
    lattice = _load(parse_input(_read_text(args.file, stdin)))
    if not isinstance(lattice, Superbase):
        raise LatCutError(
            "candidate enumeration needs coordinates; supply a superbase file"
        )
    # candidate_vectors builds each distinct value once, and its list keeps
    # them all alive during the loop: one string per id formats each once.
    text: dict[int, str] = {}
    for cand in candidate_vectors(lattice):
        for x in (cand.squared_length, *cand.coordinates):
            if id(x) not in text:
                text[id(x)] = str(x)
        indices = ",".join(map(str, _indices_1based(cand.subset)))
        coords = " ".join([text[id(x)] for x in cand.coordinates])
        print(f"{indices} | {text[id(cand.squared_length)]} | {coords}",
              file=stdout)
    return 0


def _cmd_gen(args, stdin, stdout, stderr) -> int:
    if args.family != "random_gram":
        _warn_ignored((("--seed", args.seed), ("--density", args.density)),
                      "the family is random_gram", stderr)
    if args.n is None and args.family != "example3d":
        raise _UsageError("gen requires <n> for this family")
    n = 3 if args.n is None else args.n
    spec = InstanceSpec(args.family, n, seed=args.seed, density=args.density)
    try:
        instance = generate(spec)
    except ValueError as exc:  # the spec is out of range
        raise _UsageError(str(exc)) from None

    note = f"{args.family} n={n}"
    if args.family == "random_gram":
        note += f" seed={args.seed} density={args.density or DEFAULT_DENSITY}"
    if isinstance(instance, Superbase):
        text = format_superbase(instance, note)
    else:
        text = format_gram(instance, note)
    if args.output is None:
        stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def _cmd_verify(args, stdin, stdout, stderr) -> int:
    lattice = _load(parse_input(_read_text(args.file, stdin)))
    bits = []
    for token in args.assignment.split(","):
        token = token.strip()
        if token not in ("0", "1"):
            raise _UsageError(
                f"assignment entries must be 0 or 1, got {token!r}"
            )
        bits.append(int(token))
    q_value, cut_value = verify_reduction(lattice, bits)
    print(f"Q: {q_value}", file=stdout)
    print(f"cut: {cut_value}", file=stdout)
    print(f"equal: {'yes' if q_value == cut_value else 'no'}", file=stdout)
    return 0
