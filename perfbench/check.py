"""Output checker for benchmark ops, run outside the timed loop.

Every op must exit 0 with nothing on stderr, and its answer must certify
itself and match a known value:

* `svp`: the quadratic form of the printed subset equals the printed
  squared length; for superbase input the printed vector is that subset's
  sum and its squared norm is the same number.  The squared length equals
  the closed form for `an` (2), `zn` (1) and `anstar` (n/(n+1)); the
  exhaustive oracle `brute_force_short_vector` for Gram instances with at
  most 16 vectors; and, for larger Gram instances, the recorded value at
  the default seed or an independent integer Stoer-Wagner otherwise.
  Karger-Stein may return any weight >= the exact minimum.
* `candidates`: every proper nonempty subset appears once, with its sum
  and squared norm, sorted as documented, and the first is a minimum.

Run as a script to self-test the checker or to record expected values:

    python3 perfbench/check.py selftest
    python3 perfbench/check.py record
"""

from __future__ import annotations

import io
import json
import math
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

EXPECTED_FILE = Path(__file__).resolve().parent / "expected_dense_gram.json"
ORACLE_LIMIT = 16  # vectors; brute_force_short_vector is fast up to here


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    exact: bool = False  # the answer hit the exact minimum


def reference_min_cut(entries) -> Fraction:
    """Minimum cut weight of the Selling graph, by a dense integer Stoer-Wagner.

    Written independently of latcut.mincut: weights are scaled to
    integers by the common denominator and the phases use plain scans.
    """
    size = len(entries)
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    w = [[0 if i == j else int(-x * scale) for j, x in enumerate(row)]
         for i, row in enumerate(entries)]
    alive = list(range(size))
    best = None
    while len(alive) > 1:
        key = {v: w[alive[0]][v] for v in alive[1:]}
        order = [alive[0]]
        while key:
            v = max(key, key=key.get)
            last = key.pop(v)
            order.append(v)
            row = w[v]
            for u in key:
                key[u] += row[u]
        s, t = order[-2], order[-1]
        if best is None or last < best:
            best = last
        for u in alive:
            if u != s and u != t:
                w[s][u] += w[t][u]
                w[u][s] = w[s][u]
        alive.remove(t)
    return Fraction(best, scale)


class Checker:
    """Checks op outputs against one workload seed's instances."""

    def __init__(self, latcut, seed: int):
        self._latcut = latcut
        self._seed = seed
        self._known: dict[str, Fraction] = {}
        self._scaled: dict[str, tuple[int, list[list[int]]]] = {}
        self._recorded = None

    def source(self, m) -> str:
        """Where the known value of instance `m` comes from."""
        if m.instance.family in ("an", "zn", "anstar"):
            return "closed form"
        if m.value.size <= ORACLE_LIMIT:
            return "oracle"
        if self._seed == workloads.DEFAULT_SEED:
            return "recorded"
        return "reference min cut"

    def known(self, m) -> Fraction:
        """The true minimum squared length of instance `m`."""
        inst = m.instance
        if inst.name in self._known:
            return self._known[inst.name]
        source = self.source(m)
        if inst.family == "an":
            value = Fraction(2)
        elif inst.family == "zn":
            value = Fraction(1)
        elif inst.family == "anstar":
            value = Fraction(inst.n, inst.n + 1)
        elif source == "oracle":
            value = self._latcut.brute_force_short_vector(m.value).squared_length
        elif source == "recorded":
            if self._recorded is None:
                self._recorded = json.loads(EXPECTED_FILE.read_text())["squared_length"]
            if inst.name not in self._recorded:
                raise KeyError(f"{inst.name} is not in {EXPECTED_FILE.name}; "
                               "rerun check.py record")
            value = Fraction(self._recorded[inst.name])
        else:
            value = reference_min_cut(m.value.entries)
        self._known[inst.name] = value
        return value

    def check(self, m, rc, out: str, err: str) -> Verdict:
        if rc != 0:
            return Verdict(False, f"exit code {rc}: {err.strip()[:200]}")
        if err:
            return Verdict(False, f"stderr: {err.strip()[:200]}")
        try:
            if m.instance.command[0] == "candidates":
                return self._check_candidates(m, out)
            return self._check_svp(m, out)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return Verdict(False, f"unreadable output: {exc!r}")

    def _scaled_vectors(self, m):
        """(scale, integer vectors) with vectors = integer vectors / scale."""
        name = m.instance.name
        if name not in self._scaled:
            vectors = m.value.vectors
            scale = math.lcm(*(x.denominator for v in vectors for x in v))
            self._scaled[name] = (scale, [[int(x * scale) for x in v] for v in vectors])
        return self._scaled[name]

    def edge_weights(self, m) -> list[Fraction]:
        """Weights -q_ij < 0 of the Selling graph, from the input alone."""
        if not _is_superbase(m):
            rows = m.value.entries
            return [-x for i, row in enumerate(rows) for x in row[i + 1:] if x < 0]
        scale, vectors = self._scaled_vectors(m)
        sparse = [[(k, x) for k, x in enumerate(v) if x] for v in vectors]
        dense = [dict(v) for v in sparse]
        weights = []
        for i, row in enumerate(sparse):
            for other in dense[i + 1:]:
                dot = sum(x * other[k] for k, x in row if k in other)
                if dot < 0:
                    weights.append(Fraction(-dot, scale * scale))
        return weights

    def _subset_sum(self, m, subset) -> tuple[Fraction, ...]:
        scale, vectors = self._scaled_vectors(m)
        total = [0] * len(vectors[0])
        for i in subset:
            for k, x in enumerate(vectors[i]):
                if x:
                    total[k] += x
        return tuple(Fraction(x, scale) for x in total)

    def _subset(self, m, indices: list[int]) -> tuple[int, ...]:
        size = m.instance.n + 1
        subset = tuple(sorted(indices))
        if len(set(subset)) != len(subset) or not 0 < len(subset) < size:
            raise ValueError(f"subset {indices} is not proper")
        if subset[0] < 0 or subset[-1] >= size:
            raise ValueError(f"subset {indices} is out of range")
        return subset

    def _check_svp(self, m, out: str) -> Verdict:
        fields = parse_svp(out)
        subset = self._subset(m, [int(x) - 1 for x in fields["subset"].split()])
        length = Fraction(fields["squared length"])
        algorithm = dict(zip(m.argv[2::2], m.argv[3::2])).get(
            "--algorithm", "stoer-wagner")
        if fields["algorithm"] != algorithm:
            return Verdict(False, f"algorithm {fields['algorithm']!r}, asked {algorithm!r}")
        if _is_superbase(m):
            vector = self._subset_sum(m, subset)
            form = sum(x * x for x in vector)
            printed = tuple(Fraction(x) for x in fields["vector"].split())
            if printed != vector:
                return Verdict(False, "printed vector is not the subset sum")
        else:
            if "vector" in fields:
                return Verdict(False, "vector printed for Gram input")
            rows = m.value.entries
            form = sum(rows[i][j] for i in subset for j in subset)
        if form != length:
            return Verdict(False, f"Q(subset) = {form}, printed {length}")
        best = self.known(m)
        if algorithm == "karger":
            if length < best:
                return Verdict(False, f"{length} is below the minimum {best}")
            return Verdict(True, exact=length == best)
        if length != best:
            return Verdict(False, f"squared length {length}, expected {best}")
        return Verdict(True, exact=True)

    def _check_candidates(self, m, out: str) -> Verdict:
        if not _is_superbase(m):
            return Verdict(False, "candidates ran on Gram input")
        size = m.instance.n + 1
        lines = out.splitlines()
        if len(lines) != 2 ** size - 2:
            return Verdict(False, f"{len(lines)} candidates, expected {2 ** size - 2}")
        previous = None
        for line in lines:
            indices, length, coords = (part.strip() for part in line.split("|"))
            subset = self._subset(m, [int(x) - 1 for x in indices.split(",")])
            vector = tuple(Fraction(x) for x in coords.split())
            length = Fraction(length)
            if vector != self._subset_sum(m, subset):
                return Verdict(False, f"candidate {indices}: wrong vector")
            if length != sum(x * x for x in vector):
                return Verdict(False, f"candidate {indices}: wrong squared length")
            # Strictly increasing keys also rule out a repeated subset.
            key = (length, len(subset), subset)
            if previous is not None and key <= previous:
                return Verdict(False, f"candidate {indices}: out of order or repeated")
            previous = key
        first = Fraction(lines[0].split("|")[1].strip())
        if first != self.known(m):
            return Verdict(False, f"first candidate {first}, expected {self.known(m)}")
        return Verdict(True, exact=True)


def _is_superbase(m) -> bool:
    return hasattr(m.value, "vectors")


def parse_svp(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _render_svp(fields: dict[str, str]) -> str:
    return "".join(f"{key}: {value}\n" for key, value in fields.items())


def corruptions(checker: Checker, m, out: str):
    """Wrong answers derived from a right one, each with a label.

    One of them is self-consistent but not minimal: a single vector's
    subset, its correct sum and length, whenever that vector is longer
    than a shortest one.  Only the known-value check can catch it, and
    it is not wrong for Karger-Stein, which may miss the minimum.
    """
    yield "nonzero exit", 1, out, "error: injected\n"
    if m.instance.command[0] == "candidates":
        lines = out.splitlines(keepends=True)
        yield "dropped candidate", 0, "".join(lines[:-1]), ""
        yield "swapped candidates", 0, "".join([lines[-1], *lines[1:-1], lines[0]]), ""
        return
    fields = parse_svp(out)
    longer = dict(fields, **{"squared length": str(Fraction(fields["squared length"]) + 1)})
    yield "squared length + 1", 0, _render_svp(longer), ""
    if "vector" in fields:
        coords = fields["vector"].split()
        coords[0] = str(Fraction(coords[0]) + 1)
        yield "vector moved", 0, _render_svp(dict(fields, vector=" ".join(coords))), ""
    if "karger" in m.instance.command:
        return
    best = checker.known(m)
    if _is_superbase(m):
        lengths = [(sum(x * x for x in v), i) for i, v in enumerate(m.value.vectors)]
    else:
        lengths = [(row[i], i) for i, row in enumerate(m.value.entries)]
    length, i = max(lengths)
    if length > best:
        single = dict(fields, subset=str(i + 1), **{"squared length": str(length)})
        if "vector" in fields:
            single["vector"] = " ".join(str(x) for x in m.value.vectors[i])
        yield "longer single-vector answer", 0, _render_svp(single), ""


def canary(checker: Checker, samples) -> list[str]:
    """Labels of corrupted answers the checker wrongly accepts (want none).

    `samples` holds (materialized instance, stdout) pairs that passed.
    """
    missed = []
    for m, out in samples:
        for label, rc, bad_out, bad_err in corruptions(checker, m, out):
            if checker.check(m, rc, bad_out, bad_err).ok:
                missed.append(f"{m.instance.name}: {label}")
    return missed


def _run(latcut, m):
    out, err = io.StringIO(), io.StringIO()
    rc = latcut.cli.run_cli(list(m.argv), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def selftest() -> int:
    """Show that right answers pass and every corrupted answer fails."""
    latcut = workloads.import_latcut()
    # Checked at seed 0, so Gram inputs above ORACLE_LIMIT vectors meet the
    # reference min cut; the dense_gram instance is checked at the default
    # seed, against expected_dense_gram.json.
    instances = [
        workloads.Instance("svp-an-n5", "an", 5, ("svp",)),
        workloads.Instance("svp-anstar-n6", "anstar", 6, ("svp",)),
        workloads.Instance("svp-gram-n9", "random_gram", 9, ("svp",), 7, "1/2"),
        workloads.Instance("svp-gram-n20", "random_gram", 20, ("svp",), 11, "1"),
        workloads.Instance("karger-gram-n7", "random_gram", 7,
                           ("svp", "--algorithm", "karger"), 3, "1"),
        workloads.Instance("brute-gram-n8", "random_gram", 8,
                           ("svp", "--algorithm", "brute"), 5, "1"),
        workloads.Instance("candidates-zn-n4", "zn", 4, ("candidates",)),
    ]
    recorded = min((inst for inst in workloads.plan("dense_gram", workloads.DEFAULT_SEED)
                    if inst.n + 1 > ORACLE_LIMIT), key=lambda inst: inst.n)
    checkers = [Checker(latcut, seed=0)] * len(instances)
    checkers.append(Checker(latcut, workloads.DEFAULT_SEED))
    failures = 0
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        made = workloads.materialize(latcut, [*instances, recorded], Path(tmp))
        for checker, m in zip(checkers, made):
            rc, out, err = _run(latcut, m)
            verdict = checker.check(m, rc, out, err)
            failures += not verdict.ok
            print(f"{'PASS' if verdict.ok else 'FAIL'} {m.instance.name}: "
                  f"right answer accepted, known value by {checker.source(m)}"
                  + (f" ({verdict.reason})" if verdict.reason else ""))
            for label, bad_rc, bad_out, bad_err in corruptions(checker, m, out):
                caught = checker.check(m, bad_rc, bad_out, bad_err)
                failures += caught.ok
                print(f"{'FAIL' if caught.ok else 'PASS'} {m.instance.name}: "
                      f"{label} counted as failed ({caught.reason})")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


def record() -> int:
    """Write the dense_gram answers at the default seed to EXPECTED_FILE."""
    latcut = workloads.import_latcut()
    instances = workloads.plan("dense_gram", workloads.DEFAULT_SEED)
    values = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for m in workloads.materialize(latcut, instances, Path(tmp)):
            rc, out, err = _run(latcut, m)
            if rc != 0 or err:
                print(f"{m.instance.name}: exit {rc} {err}", file=sys.stderr)
                return 1
            value = parse_svp(out)["squared length"]
            if Fraction(value) != reference_min_cut(m.value.entries):
                print(f"{m.instance.name}: {value} disagrees with the "
                      "reference min cut", file=sys.stderr)
                return 1
            values[m.instance.name] = value
    payload = {"workload": "dense_gram", "seed": workloads.DEFAULT_SEED,
               "squared_length": dict(sorted(values.items()))}
    EXPECTED_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {len(values)} values in {EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    commands = {"selftest": selftest, "record": record}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: python3 {sys.argv[0]} {{{','.join(commands)}}}")
    sys.exit(commands[sys.argv[1]]())
