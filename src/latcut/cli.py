"""Command-line front end and the line-oriented input file format.

Format: the first significant line is a header, either
``superbase <count> <m>`` or ``gram <count>``; each following significant
line is one row of whitespace-separated rationals (``5/4``, ``-1``,
``0.25``; see :func:`latcut.lattice.as_rational` for the token grammar).
``#`` starts a comment, blank lines are skipped, and ``-`` as a file name
means standard input.  The parser keeps each row's words, then scales
its distinct tokens to integers once, each read as an integer ratio, and
returns an unvalidated Superbase or GramMatrix.  `svp` and
`verify` hand it to the pipeline, whose graph builder checks it;
`validate` and `candidates` check it first through the same gate,
:func:`latcut.lattice._cut_graph`, and drop the graph.  `candidates`
formats the lines that :func:`latcut.pipeline._candidates` reads.

All user-facing indices are 1-based; the library underneath is 0-based.
Exit codes: 0 success, 1 validation or computation failure, 2 usage,
parse or read error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from functools import cache
from fractions import Fraction
from itertools import islice
from operator import add
from pathlib import Path

from .errors import LatCutError, ParseError, ShapeError
from .generators import DEFAULT_DENSITY, FAMILIES, InstanceSpec, generate
from .lattice import (
    GramMatrix,
    Superbase,
    _cut_graph,
    _entries,
    _ratio,
    as_rational,
)
from .mincut import default_trial_count
from .pipeline import (
    ALGORITHMS,
    _candidates,
    short_vector,
    verify_reduction,
)

# `candidates` writes its lines in chunks of this many, so its output is
# never held whole.
_CHUNK_LINES = 1024

# The text labels of `svp`'s answer that are not its JSON keys.
_LABELS = {"squared_length": "squared length", "coordinates": "vector"}

# Each header kind's lattice class, number of sizes and usage.
_KINDS = {"superbase": (Superbase, 2, "superbase <count> <m>"),
          "gram": (GramMatrix, 1, "gram <count>")}


def parse_input(text: str) -> Superbase | GramMatrix:
    """Parse the file format into an unvalidated Superbase or GramMatrix.

    One leading byte-order mark (U+FEFF) is dropped.  Each row's words
    are kept as they are; then the file's distinct tokens are read once,
    as integer ratios, and scaled once, and each row is mapped to its
    integers.  Raises ParseError (with 1-based line and column) for
    malformed headers or tokens, ShapeError when rows disagree with the
    header, TooLarge past the cap; the first bad token, in line order,
    beats any later ShapeError and TooLarge.
    """
    text = text.removeprefix("\ufeff")
    lines = _significant(text)
    header = next(lines, None)
    if header is None:
        raise ParseError(max(len(text.splitlines()), 1), 1,
                         "missing header line")
    lineno, line, _ = header
    tokens = _tokens_with_columns(line)
    (word, column), counts = tokens[0], tokens[1:]
    if word not in _KINDS:
        raise ParseError(lineno, column, f"unknown kind {word!r}; "
                         "expected 'superbase' or 'gram'")
    kind, arity, usage = _KINDS[word]
    if len(counts) != arity:
        raise ParseError(lineno, column, f"header must be '{usage}'")
    sizes = [_header_int(count, lineno) for count in counts]
    expected_rows, expected_cols = sizes[0], sizes[-1]

    rows: list[list[str]] = []
    for lineno, _, words in lines:
        if len(rows) == expected_rows:
            raise _first_bad_token(text, len(rows)) or ShapeError(
                lineno, f"expected {expected_rows} rows, found more")
        if len(words) != expected_cols:
            raise _first_bad_token(text, len(rows)) or ShapeError(lineno, (
                f"row {len(rows) + 1} has {len(words)} entries, "
                f"expected {expected_cols}"))
        rows.append(words)

    if len(rows) != expected_rows:
        raise _first_bad_token(text, len(rows)) or ShapeError(
            len(text.splitlines()),
            f"expected {expected_rows} rows, found {len(rows)}")
    try:
        return kind(*_entries(rows, _ratio))
    except (ValueError, ZeroDivisionError):
        raise _first_bad_token(text, len(rows)) from None


def _significant(text: str):
    """(lineno, line, words) of each line of `text` with a word before `#`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        words = line.split()
        if words:
            yield lineno, line, words


def _first_bad_token(text: str, count: int) -> ParseError | None:
    """The error for the first token, in line order, of the first `count`
    rows of `text` that does not parse, or None: the error path only."""
    for lineno, line, _ in islice(_significant(text), 1, count + 1):
        for token, column in _tokens_with_columns(line):
            try:
                _ratio(token)
            except (ValueError, ZeroDivisionError):
                return ParseError(
                    lineno, column, f"cannot parse {token!r} as a rational")
    return None


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of `line` with their 1-based columns."""
    return [(match.group(), match.start() + 1)
            for match in re.finditer(r"\S+", line)]


def _header_int(token_with_column: tuple[str, int], lineno: int) -> int:
    """A header count: what `int` reads, but no '_' digit separators, as
    in entries; ParseError unless it is positive."""
    token, column = token_with_column
    with contextlib.suppress(ValueError):
        if "_" not in token and int(token) >= 1:
            return int(token)
    raise ParseError(
        lineno, column, f"expected a positive integer, got {token!r}")


def format_superbase(sb: Superbase, comment: str | None = None) -> str:
    return _format(f"superbase {sb.n + 1} {sb.m}", sb, comment)


def format_gram(g: GramMatrix, comment: str | None = None) -> str:
    return _format(f"gram {g.size}", g, comment)


def _format(header: str, value: Superbase | GramMatrix,
            comment: str | None) -> str:
    """`value` under `header`, rendering each distinct entry once."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(header)
    text = _Rationals(value.scale).__getitem__
    lines.extend(" ".join(map(text, row)) for row in value.rows)
    return "\n".join(lines) + "\n"


class _Rationals(dict):
    """The text of each integer over `scale`, made on first use: ``p`` or
    ``p/q`` in lowest terms, as ``str(Fraction(x, scale))`` prints it."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, x: int) -> str:
        g = math.gcd(x, self.scale)
        text = self[x] = str(x // g) if g == self.scale else \
            f"{x // g}/{self.scale // g}"
        return text


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
    svp.set_defaults(handler=_cmd_svp)

    validate = sub.add_parser("validate", help="check a file's invariants")
    validate.add_argument("file")
    validate.set_defaults(handler=_cmd_validate)

    candidates = sub.add_parser(
        "candidates", help="enumerate every candidate subset sum"
    )
    candidates.add_argument("file")
    candidates.set_defaults(handler=_cmd_candidates)

    gen = sub.add_parser("gen", help="emit a built-in or random instance")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("n", type=int, nargs="?", default=None)
    gen.add_argument("--seed", type=_u64, default=None)
    gen.add_argument("--density", type=_rational, default=None)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(handler=_cmd_gen)

    verify = sub.add_parser(
        "verify", help="evaluate one assignment as quadratic form and as cut"
    )
    verify.add_argument("file")
    verify.add_argument(
        "--assignment", required=True, help="comma-separated bits, e.g. 1,1,0,0"
    )
    verify.set_defaults(handler=_cmd_verify)
    return parser


def run_cli(argv, *, stdin=None, stdout=None, stderr=None) -> int:
    """Run one command; returns the exit code instead of exiting."""
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(stdout):  # where --help prints
            args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2

    try:
        return args.handler(args, stdin, stdout, stderr)
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
    """The text of `path`, or of `stdin` for ``-``, as strict UTF-8: a
    stream's bytes when it has them, whatever its own encoding."""
    if path != "-":
        return Path(path).read_text(encoding="utf-8")
    if hasattr(stdin, "buffer"):
        return stdin.buffer.read().decode("utf-8")
    return stdin.read()


def _load(parsed: Superbase | GramMatrix) -> Superbase | GramMatrix:
    """Check a parsed file as its validator would, so that the command
    refuses an invalid lattice before it reads anything else."""
    _cut_graph(parsed)
    return parsed


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
    lattice = parse_input(_read_text(args.file, stdin))
    seed = args.seed if args.seed is not None else 0
    trials = args.trials
    if args.algorithm == "karger" and trials is None:
        trials = default_trial_count(lattice.n + 1)
    result = short_vector(lattice, args.algorithm, seed=seed, trials=trials)
    answer: dict = {"subset": [i + 1 for i in result.subset],
                    "squared_length": str(result.squared_length)}
    if result.coordinates is not None:
        answer["coordinates"] = [str(x) for x in result.coordinates]
    answer["algorithm"] = args.algorithm
    if args.algorithm == "karger":
        answer |= {"seed": seed, "trials": trials}
    if args.json:
        text = json.dumps(answer)
    else:
        text = "\n".join(
            f"{_LABELS.get(key, key)}: "
            f"{' '.join(map(str, value)) if isinstance(value, list) else value}"
            for key, value in answer.items())
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
    coordinate = _Rationals(lattice.scale).__getitem__
    length = _Rationals(lattice.scale ** 2)
    # Each 1-based index after a comma; a line drops its first comma.
    lines = (f"{label[1:]} | {length[q]} | "
             f"{' '.join(map(coordinate, map(add, high, low)))}\n"
             for label, high, low, q in _candidates(
                 lattice, lambda part: "".join([f",{i + 1}" for i in part])))
    while chunk := "".join(islice(lines, _CHUNK_LINES)):
        stdout.write(chunk)
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
    lattice = parse_input(_read_text(args.file, stdin))
    bits = []
    for token in args.assignment.split(","):
        token = token.strip()
        if token not in ("0", "1"):
            _load(lattice)  # an invalid file is refused first
            raise _UsageError(
                f"assignment entries must be 0 or 1, got {token!r}"
            )
        bits.append(int(token))
    q_value, cut_value = verify_reduction(lattice, bits)
    print(f"Q: {q_value}", file=stdout)
    print(f"cut: {cut_value}", file=stdout)
    print(f"equal: {'yes' if q_value == cut_value else 'no'}", file=stdout)
    return 0
