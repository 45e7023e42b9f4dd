#!/usr/bin/env python3
"""Closed-loop benchmark of the PDW query-optimizer reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures the per-layer metrics in a traced pass, after an
untraced run of the same sequence in a child process gives the tracing
overhead.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.  Results, the environment record and (traced) the spans
are written under ``perfbench/out/``.  WORKLOADS.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("dashboard", "adhoc", "etl")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sizes the fixed operation sequence")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def command(workload: str, args, trace: int):
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]


def child(workload: str, args, trace: int):
    """Run one workload in a fresh process; its final JSON line, or
    ``None`` when it printed none."""
    completed = subprocess.run(command(workload, args, trace),
                               stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = completed.stdout.strip().splitlines()
    try:
        return completed.returncode, completed.stdout, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return completed.returncode, completed.stdout, None


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        code, stdout, result = child(workload, args, args.trace)
        print(stdout.rsplit("\n", 2)[0] if result else stdout, end="\n")
        if result is None:
            print(f"{workload}: no result", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and code == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": entry
                        for name, entry in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The measured configuration is the shipped default, whatever the
    # calling shell exports.
    os.environ.pop("REPRO_PARALLEL_RUNTIME", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)

    from perfbench import harness

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        code, _stdout, untraced = child(args.workload, args, 0)
        if untraced is None:
            print("error: the untraced run printed no result",
                  file=sys.stderr)
            return 1
        outcome = harness.traced_run(args.workload, args.seed, args.seconds,
                                     untraced["metrics"]["qps"]["value"])
        outcome["recorder"].write(OUT / f"{stem}-spans.jsonl")
        correct_before = untraced["correct"] and code == 0
        attempted_before = untraced["attempted"]
        failed_before = untraced["failed"]
    else:
        outcome = harness.untraced_run(args.workload, args.seed, args.seconds)
        correct_before, attempted_before, failed_before = True, 0, 0
    run = outcome["run"]
    correct = correct_before and run.failed == 0
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump({"env": outcome["env"], "metrics": outcome["metrics"],
                   "errors": run.errors,
                   "reads_ms": [[template, 1000.0 * seconds] for template,
                                seconds in zip(run.read_templates,
                                               run.read_seconds)]},
                  handle, indent=1, default=str)

    print("environment: " + json.dumps(outcome["env"], default=str))
    for error in run.errors:
        print(f"check failed: {error}")
    print_metrics(f"{args.workload} (seed {args.seed}, "
                  f"{'traced' if args.trace else 'untraced'}):",
                  outcome["metrics"])
    print(result_line(correct, attempted_before + run.attempted,
                      failed_before + run.failed, outcome["metrics"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
