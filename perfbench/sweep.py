"""Run the benchmark over several seeds and record a result set.

    python3 perfbench/sweep.py --out results.json --runs 10 [--trace]

Each run is one `perfbench/run.py` process, started from the repository
root with BENCHMARK.json's run_seconds, for every workload in
BENCHMARK.json and seeds DEFAULT_SEED, DEFAULT_SEED + 1, ...; runs go
one at a time, seeds in the outer loop so slow drift of the host spreads
over every workload.  The result set records every run's result line,
a timed run's uncorrected times and host speed factors, and the set's
provenance: the Python version, git revision, whether src/ had
uncommitted changes, `nproc` and the seeds.  It then prints, per workload and end-to-end
metric, the median, the quartile spread as a share of the median, and
the metric's bound.  Compare two result sets with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import compare
import run
import workloads

ROOT = workloads.ROOT
RUN_TIMEOUT_S = 180


def git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(benchmark, seeds) -> dict:
    status = git("status", "--porcelain", "--", "src")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "run_seconds": benchmark["run_seconds"],
        "seeds": seeds,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(benchmark, workload, seed, trace) -> dict:
    command = [sys.executable if arg == "python3" else arg for arg in benchmark["command"]]
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    measured = [json.loads(line)[run.MEASURED_KEY] for line in lines[:-1]
                if line.startswith(f'{{"{run.MEASURED_KEY}":')]
    declared = {m["name"]: m["unit"] for m in
                benchmark["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared != reported:
        raise RuntimeError(f"{workload}: metrics {sorted(reported.items())} do not "
                           f"match BENCHMARK.json {sorted(declared.items())}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": seconds, "result": result,
            **({"measured": measured[0]} if measured else {})}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs (per-layer metrics) instead of timed ones")
    args = parser.parse_args(argv)

    seeds = list(range(workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + args.runs))
    trace = int(args.trace)
    result_set = {"provenance": provenance(benchmark, seeds), "runs": []}
    for seed in seeds:
        for workload in names:
            record = run_once(benchmark, workload, seed, trace)
            result_set["runs"].append(record)
            print(f"{workload} seed={seed} trace={trace}: correct="
                  f"{record['result']['correct']} {record['wall_s']:.1f} s", flush=True)
            Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")

    if not trace:
        for metric in benchmark["end_to_end"]:
            for workload, values in sorted(compare.by_workload(result_set, metric["name"]).items()):
                median = compare.summary(list(values.values()))[0]
                print(f"{workload:20s} {metric['name']:14s} median {median:10.4g} "
                      f"{metric['unit']:6s} spread {compare.spread(list(values.values())):6.1%} "
                      f"bound {metric['bound']:.0%}")
    return 0 if all(r["result"]["correct"] for r in result_set["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
