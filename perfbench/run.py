"""Closed-loop benchmark of the `latcut` command line, end to end and by layer.

    python3 perfbench/run.py --workload families_superbase --seed 1 \\
        --seconds 30 --trace 0

One client in one process sends CLI ops (`svp`, `candidates`) through
`latcut.cli.run_cli`, each after the previous one has returned, on input
files made by latcut's own generators from the workload seed.

`--trace 0` repeats set-up (a fresh import of latcut, generation, file
writing) several times and reports its median as `setup_s`, then runs
whole passes over the instances for about `--seconds` seconds and
reports throughput over the time spent in ops, latency quantiles, peak
memory and the share of correct answers.  Times are scaled to a fixed
host speed (see hostspeed.py); the measured ones and the correction
factors are printed as a JSON line {"measured": {...}} before the result.

`--trace 1` runs one pass in which every op runs twice, once plain and
once with each layer's public functions wrapped (see tracer.py), and
reports per-layer calls, self time and share of the traced time, plus
shape and work counters taken from the inputs and outputs.  The spans
are written to .perfbench-out/ at the end.

Every output is checked after the timed loop (see check.py).  The last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import check
import hostspeed
import tracer
import workloads

OUT_DIR = workloads.ROOT / ".perfbench-out"
# Key of the stdout line that holds a timed run's uncorrected times.
MEASURED_KEY = "measured"

# Set-up runs at least this many times, and until this much time is spent.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25

SPAN_UNITS = (("calls", "count"), ("self_s", "s"), ("share", "ratio"))
COUNTER_UNITS = {
    "setup.lattice.validate_superbase.self_s": "s",
    "setup.lattice.validate_gram.self_s": "s",
    "cli.input_bytes": "B",
    "mincut.vertices": "count",
    "mincut.edges": "count",
    "mincut.weight_denominator_bits": "bits",
    "pipeline.candidate_vectors.emitted": "count",
    "mincut.karger_stein.exact_share": "ratio",
    "lattice.selling_parameters.calls_per_solve": "calls/op",
    "trace.overhead_share": "ratio",
    "trace.solve_s": "s",
    "trace.setup_s": "s",
    "trace.ops": "count",
}


def quantile(values, q, half_width=0.05):
    """Mean of the values ranked within `half_width` of quantile `q`.

    A run has a few dozen distinct instance sizes with gaps between their
    costs, so a single order statistic jumps between neighbouring sizes
    from run to run; averaging the order statistics around it does not.
    """
    ranked = sorted(values)
    last = len(ranked) - 1
    return statistics.fmean(
        ranked[round((q - half_width) * last):round((q + half_width) * last) + 1])


def run_op(run_cli, m):
    """One op: (exit code, stdout, stderr, seconds).  A crash is a failed op."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        rc = run_cli(list(m.argv), stdout=out, stderr=err)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


class Outcomes:
    """Distinct (instance, exit code, stdout, stderr) results with counts."""

    def __init__(self):
        self.counts: dict[tuple, int] = {}

    def add(self, index, rc, out, err):
        key = (index, rc, out, err)
        self.counts[key] = self.counts.get(key, 0) + 1

    def verify(self, checker, ops):
        """(attempted, failed, {index: Verdict}), canary included.

        The canary corrupts one right answer of each kind of op and of
        each source of known values, and expects the checker to reject every corruption; if it does not,
        the checker is broken and every op counts as failed.
        """
        attempted = failed = 0
        verdicts = {}
        samples = {}
        for (index, rc, out, err), count in self.counts.items():
            m = ops[index]
            verdict = checker.check(m, rc, out, err)
            verdicts[index] = verdict
            attempted += count
            if not verdict.ok:
                failed += count
                print(f"FAILED {m.instance.name}: {verdict.reason}", file=sys.stderr)
            else:
                key = (m.instance.command, m.instance.family, checker.source(m))
                samples.setdefault(key, (m, out))
        missed = check.canary(checker, samples.values())
        for label in missed:
            print(f"checker accepted a corrupted answer: {label}", file=sys.stderr)
        return attempted, attempted if missed else failed, verdicts


def set_up(instances, workdir, speed):
    """Import latcut, generate and write the inputs, repeatedly.

    Returns (latcut, inputs, median seconds, repetitions).
    """
    times = []
    while len(times) < SETUP_MAX_REPS and (
            len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        speed.sample()
        start = perf_counter()
        latcut = workloads.import_latcut()
        seconds = perf_counter() - start
        ops = []
        for index, inst in enumerate(instances):
            speed.sample()
            start = perf_counter()
            ops.append(workloads.materialize_one(latcut, inst, workdir / f"{index:03d}.txt"))
            seconds += perf_counter() - start
        times.append(seconds)
    return latcut, ops, statistics.median(times), len(times)


def timed_run(args, instances, workdir):
    setup_speed, loop_speed = hostspeed.HostSpeed(), hostspeed.HostSpeed()
    latcut, ops, setup_s, setup_reps = set_up(instances, workdir, setup_speed)
    run_cli = latcut.cli.run_cli
    outcomes = Outcomes()
    latencies = []
    passes = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for index, m in enumerate(ops):
            loop_speed.sample()
            rc, out, err, seconds = run_op(run_cli, m)
            latencies.append(seconds)
            outcomes.add(index, rc, out, err)
        passes += 1
        now = perf_counter()
        # Whole passes only, so every run weighs the instances equally.
        if now - start + (now - pass_start) / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, _ = outcomes.verify(check.Checker(latcut, args.seed), ops)
    busy_s = sum(latencies)
    p50_ms, p90_ms = quantile(latencies, 0.5) * 1000, quantile(latencies, 0.9) * 1000
    factor, setup_factor = loop_speed.factor(), setup_speed.factor()
    print(f"{args.workload} seed={args.seed}: {attempted} ops in {passes} "
          f"passes of {len(ops)} over {now - start:.2f} s; set-up median of "
          f"{setup_reps}; {failed} failed")
    # The times as measured, before the host speed correction, and the
    # factors that correct them; sweep.py keeps this line with the result.
    print(json.dumps({MEASURED_KEY: {
        "solves_per_s": (attempted - failed) / busy_s,
        "solve_p50_ms": p50_ms,
        "solve_p90_ms": p90_ms,
        "setup_s": setup_s,
        "loop_factor": factor,
        "setup_factor": setup_factor,
    }}))
    metrics = {
        "solves_per_s": ((attempted - failed) / (busy_s * factor), "1/s"),
        "solve_p50_ms": (p50_ms * factor, "ms"),
        "solve_p90_ms": (p90_ms * factor, "ms"),
        "setup_s": (setup_s * setup_factor, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "correct_share": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def traced_run(latcut, args, instances, workdir):
    spans = tracer.Tracer()
    with spans.installed(latcut):
        spans.op = "setup"
        start = perf_counter()
        ops = workloads.materialize(latcut, instances, workdir)
        setup_s = perf_counter() - start

    outcomes = Outcomes()
    traced_outputs = {}
    plain_s = traced_s = 0.0
    for index, m in enumerate(ops):
        # Alternate which run goes first, so neither always meets warm caches.
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                with spans.installed(latcut):
                    spans.op = index
                    rc, out, err, seconds = run_op(latcut.cli.run_cli, m)
                traced_s += seconds
                traced_outputs[index] = out
            else:
                rc, out, err, seconds = run_op(latcut.cli.run_cli, m)
                plain_s += seconds
            outcomes.add(index, rc, out, err)

    checker = check.Checker(latcut, args.seed)
    attempted, failed, verdicts = outcomes.verify(checker, ops)

    solve = {name: [0, 0.0] for name in tracer.SPANS}
    setup = {name: [0, 0.0] for name in tracer.SPANS}
    selling_in_svp = 0
    for (name, _, _, _, op), own in zip(spans.spans, spans.self_times()):
        stats = setup if op == "setup" else solve
        stats[name][0] += 1
        stats[name][1] += own
        if (name == "lattice.selling_parameters" and op != "setup"
                and ops[op].instance.command[0] == "svp"):
            selling_in_svp += 1
    solve["generators.generate"] = setup["generators.generate"]

    metrics = {}
    for name, (calls, own) in solve.items():
        base = setup_s if name == "generators.generate" else traced_s
        for (suffix, unit), value in zip(SPAN_UNITS, (calls, own, own / base)):
            metrics[f"{name}.{suffix}"] = (value, unit)

    svp = [i for i, m in enumerate(ops) if m.instance.command[0] == "svp"]
    karger = [i for i in svp if "karger" in ops[i].instance.command]
    weights = [checker.edge_weights(ops[i]) for i in svp]
    bits = [math.lcm(*(x.denominator for x in w)).bit_length() for w in weights]
    counters = {
        "setup.lattice.validate_superbase.self_s": setup["lattice.validate_superbase"][1],
        "setup.lattice.validate_gram.self_s": setup["lattice.validate_gram"][1],
        "cli.input_bytes": sum(m.input_bytes for m in ops),
        "mincut.vertices": sum(ops[i].instance.n + 1 for i in svp),
        "mincut.edges": sum(len(w) for w in weights),
        "mincut.weight_denominator_bits": max(bits, default=0),
        "pipeline.candidate_vectors.emitted": sum(
            len(traced_outputs[i].splitlines()) for i, m in enumerate(ops)
            if m.instance.command[0] == "candidates"),
        "mincut.karger_stein.exact_share": (
            sum(verdicts[i].exact for i in karger) / len(karger) if karger else 0.0),
        "lattice.selling_parameters.calls_per_solve": (
            selling_in_svp / len(svp) if svp else 0.0),
        "trace.overhead_share": traced_s / plain_s - 1,
        "trace.solve_s": traced_s,
        "trace.setup_s": setup_s,
        "trace.ops": len(ops),
    }
    for name, value in counters.items():
        metrics[name] = (value, COUNTER_UNITS[name])

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "ops": [m.instance.name for m in ops],
        "spans": spans.as_records(),
    }))
    print(f"{args.workload} seed={args.seed}: traced {len(ops)} ops, "
          f"{len(spans.spans)} spans in {trace_file.relative_to(workloads.ROOT)}; "
          f"{failed} of {attempted} ops failed")
    return attempted, failed, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        latcut = workloads.import_latcut()
    except ImportError as exc:
        print(f"cannot import latcut from this checkout's src/: {exc}", file=sys.stderr)
        return 2

    instances = workloads.plan(args.workload, args.seed)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(latcut, args, instances, workdir)
        else:
            attempted, failed, metrics = timed_run(args, instances, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
