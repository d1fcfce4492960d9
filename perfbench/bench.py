"""Measure one workload in this process; run.py starts it as a capped child.

Usage: python3 perfbench/bench.py --workload NAME --seed N --seconds T
       --trace 0|1 [--spans PATH]

The child generates the workload's fixed instance list (several times, for
the set-up time), then solves the whole list in passes, one solve after
another in one thread -- a closed loop with a single caller.  `--seed` only
shuffles the order of each pass.  Passes run back to back until the next one
would, at the last pass's pace, end after --seconds; at least one pass (one
of each kind with --trace 1) always runs.  With --trace 1, untraced and
traced passes alternate, so the tracing overhead is measured in the same
process.  Every outcome is graded against references.json after its pass.

Each completed pass prints one JSON line ({"pass": ...}) so the parent can
count finished work if it has to kill this process; the last line is the
result ({"result": ...}).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import cils
import cils.assembler
from cils import Alphabet, GenSpec, generate_instance
from speed import WORKLOAD_PROBE, SpeedLog
from tracer import EXACT, Tracer, layer_table, pass_metrics
from workloads import build_cases, grade, load_references

SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 10


def warm_up() -> None:
    """One small solve so lazy imports and first-call costs land in set-up."""
    instance, _ = generate_instance(GenSpec(2, 5, 3, Alphabet((-1, 0, 1)), seed=0))
    cils.solve(instance)


def set_up(workload: str, speed: SpeedLog):
    """Generate the instance list and warm up SETUP_REPEATS times, with a probe
    between steps; returns the cases and the median scaled seconds of each step."""
    gen, warm = [], []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = time.perf_counter()
        cases = build_cases(workload)
        t1 = time.perf_counter()
        speed.probe()
        t2 = time.perf_counter()
        warm_up()
        t3 = time.perf_counter()
        speed.probe()
        gen.append((t1 - t0) * speed.scale(t0))
        warm.append((t3 - t2) * speed.scale(t2))
    return cases, statistics.median(gen), statistics.median(warm)


def run_pass(cases, order, tracer: Tracer | None, speed: SpeedLog):
    """Solve every case once in `order`, probing between solves.

    Returns the start time and wall seconds of each case, and the outcomes.
    """
    starts = [0.0] * len(cases)
    seconds = [0.0] * len(cases)
    outcomes = [None] * len(cases)
    solve = cils.assembler.solve
    for i in order:
        instance = cases[i].instance
        speed.tick()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = solve(instance)
            else:
                with tracer.solve(instance.target_rank):
                    outcome = solve(instance)
        except Exception as exc:  # graded below: expected InfeasibleError or a failure
            outcome = exc
        seconds[i] = time.perf_counter() - t0
        starts[i] = t0
        outcomes[i] = outcome
    speed.probe()
    return starts, seconds, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run saves its first pass's spans")
    args = parser.parse_args(argv)

    speed = SpeedLog(WORKLOAD_PROBE[args.workload])
    cases, gen_s, warm_s = set_up(args.workload, speed)
    refs = load_references(args.workload)
    missing = [c.key for c in cases if c.key not in refs]
    if missing or len(refs) != len(cases):
        raise SystemExit(f"references.json does not match the {args.workload} instance list: {missing[:3]}")

    rng = random.Random(args.seed)
    order = list(range(len(cases)))
    # (start, wall seconds) of each solve of each case, untraced and traced
    untraced: list[list[tuple[float, float]]] = [[] for _ in cases]
    traced: list[list[tuple[float, float]]] = [[] for _ in cases]
    layer_runs: list[dict] = []
    first_table: dict | None = None
    attempted = failed = 0
    failures: list[str] = []
    kinds = [False, True] if args.trace else [False]
    t_start = time.perf_counter()
    k = 0
    while True:
        use_trace = kinds[k % len(kinds)]
        rng.shuffle(order)
        tracer = Tracer() if use_trace else None
        t0 = time.perf_counter()
        if tracer is None:
            starts, seconds, outcomes = run_pass(cases, order, None, speed)
        else:
            with tracer.patch():
                starts, seconds, outcomes = run_pass(cases, order, tracer, speed)
        last = time.perf_counter() - t0
        for case, outcome, start, dt, log in zip(cases, outcomes, starts, seconds, traced if use_trace else untraced):
            attempted += 1
            why = grade(case, refs[case.key], outcome)
            if why is not None:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append(f"{case.key}: {why}")
            log.append((start, dt))
        if tracer is not None:
            spans = tracer.arrays()
            stats = [o.stats for o in outcomes if isinstance(o, cils.SolveResult)]
            layer_runs.append(pass_metrics(spans, stats))
            if first_table is None:
                first_table = layer_table(spans)
                if args.spans is not None:
                    tracer.save(args.spans)
            del spans, tracer
        k += 1
        print(json.dumps({"pass": k, "traced": use_trace, "seconds": last, "attempted": attempted, "failed": failed}), flush=True)
        if k < len(kinds):
            continue
        if time.perf_counter() - t_start + last > args.seconds:
            break

    def scaled(logs):
        return [[dt * speed.scale(start) for start, dt in log] for log in logs]

    result = {
        "numpy": np.__version__,
        "cases": [c.key for c in cases],
        "untraced_s": scaled(untraced),
        "traced_s": scaled(traced),
        "untraced_wall_s": [[dt for _, dt in log] for log in untraced],
        "probe_s": statistics.median(speed.took),
        "gen_s": gen_s,
        "warmup_s": warm_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_runs:
        exact_ok = all(run[m] == layer_runs[0][m] for run in layer_runs for m in EXACT)
        # exact counters come from the first traced pass (all must agree),
        # times are medians over the traced passes
        layers = {
            m: layer_runs[0][m] if m in EXACT else statistics.median(run[m] for run in layer_runs)
            for m in layer_runs[0]
        }
        result.update(layers=layers, layer_table=first_table, exact_consistent=exact_ok)
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
