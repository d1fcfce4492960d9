"""Solve benchmark for cils: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload {search_noisy,enum_wide,batch_small}
        --seed N --seconds T --trace {0,1} [--tag NAME]

Runs the workload in a child process (bench.py) with a wall cap and BLAS
pinned to one thread, grades every solve against references.json, prints
every metric with its unit, writes perfbench/results/BENCH_<tag>.json and
prints one JSON summary as the last line.  Exits nonzero if any solve fails,
the cap is hit, or the cils sources are missing.

Times are in seconds at a nominal host speed: each is the wall time scaled by
the host-speed probe timed next to it (see speed.py).  The run record keeps
the wall times too.

End-to-end metrics (--trace 0):

* solve_s -- seconds to solve the workload's whole instance list: the sum
  over instances of each instance's median time over the run's passes.
* instance_s.p50 -- median over instances of that per-instance time.
* setup_s -- median `import cils` time over fresh interpreters, plus the
  median time to generate the instance list and warm up.
* peak_rss_mb -- peak resident memory of the workload process.

Also printed, but not in the summary line: failed_frac (failed over
attempted solves, 0 unless something is wrong) and, where the list has more
than ten instances, instance_s.tail, the highest percentile with at least
ten instances beyond it.

Per-layer metrics (--trace 1) come from traced passes of the same list; see
tracer.py for the spans and BENCHMARK.json for the list.  Exact counters are
per pass and repeat bit-for-bit; layer times are wall seconds, medians over
traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from speed import WORKLOAD_PROBE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

IMPORT_PROBES = 7
# {probe} is the workload's speed probe; its first run in a fresh interpreter is a warm-up
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cils; dt = time.perf_counter() - t; "
    "import speed; log = speed.SpeedLog({probe!r}); log.probe(); log.probe(); "
    "print(dt * log.nominal_s / log.took[-1])"
)
# the child gets --seconds plus this much for set-up and its last pass
CAP_MARGIN_S = 100.0
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(env: dict[str, str], probe: str) -> float:
    """Median scaled `import cils` time over fresh interpreters."""
    env = dict(env, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(probe=probe)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def per_instance(times: list[list[float]]) -> list[float]:
    """Each instance's median time over the run's passes."""
    return [statistics.median(ts) for ts in times]


def end_to_end(res: dict, import_s: float) -> dict[str, float]:
    typical = per_instance(res["untraced_s"])
    return {
        "solve_s": sum(typical),
        "instance_s.p50": statistics.median(typical),
        "setup_s": import_s + res["gen_s"] + res["warmup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict[str, float]:
    untraced = sum(per_instance(res["untraced_s"]))
    traced = sum(per_instance(res["traced_s"]))
    layers = dict(res["layers"])
    layers["harness.gen_s"] = res["gen_s"]
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_PROBE))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the solve order of each pass")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", help="names results/BENCH_<tag>.json (default: workload, seed, trace)")
    args = parser.parse_args(argv)

    if not (SRC / "cils" / "__init__.py").is_file():
        print(f"cils sources not found under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    tag = args.tag or f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    import_s = import_seconds(env, WORKLOAD_PROBE[args.workload])

    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"spans_{tag}.npz")]
    cap = args.seconds + CAP_MARGIN_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=cap)
        lines, exit_code, capped = proc.stdout.splitlines(), proc.returncode, False
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        out = exc.stdout or ""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
        exit_code, capped = None, True

    records = [json.loads(line) for line in lines if line.startswith("{")]
    result = next((r["result"] for r in records if "result" in r), None)
    if result is None or exit_code != 0:
        # count finished passes; the solve in flight when it stopped failed
        done = [r for r in records if "pass" in r]
        attempted = (done[-1]["attempted"] if done else 0) + 1
        failed = (done[-1]["failed"] if done else 0) + 1
        why = f"wall cap of {cap:.0f} s hit" if capped else f"workload process exited with {exit_code}"
        print(f"FAILED: {why}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    metrics = per_layer(result) if args.trace else end_to_end(result, import_s)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    correct = result["failed"] == 0 and result.get("exact_consistent", True)
    record = {
        "tag": tag,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "import_s": import_s,
        "metrics": metrics,
        "passes": {"untraced": len(result["untraced_s"][0]), "traced": len(result["traced_s"][0])},
        "probe_s": result["probe_s"],
        "instance_s": dict(zip(result["cases"], per_instance(result["untraced_s"]))),
        "instance_wall_s": dict(zip(result["cases"], per_instance(result["untraced_wall_s"]))),
    }
    if args.trace:
        record["exact_consistent"] = result["exact_consistent"]
        record["layer_table"] = result["layer_table"]
    else:
        record["instance_s.tail"] = tail(list(record["instance_s"].values()))
    (RESULTS / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    passes = record["passes"]
    print(f"# {args.workload} seed={args.seed} passes untraced={passes['untraced']} traced={passes['traced']} sha={record['git_sha'][:12]}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':32s} {record['failed_frac']:>14.6g} ratio")
        t = record["instance_s.tail"]
        if t is not None:
            print(f"{'instance_s.tail':32s} {t['value']:>14.6g} s (p{t['percentile']:.1f} of {t['samples']} instances)")
        else:
            print(f"{'instance_s.tail':32s} {'n/a':>14s} s (needs more than 10 instances)")
    else:
        dominant = max(result["layer_table"], key=lambda n: result["layer_table"][n]["self_s"])
        print(f"# largest self time: {dominant}; exact counters consistent: {result['exact_consistent']}")

    summary = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
