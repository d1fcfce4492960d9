"""Command-line front end: solve, check, gen, bench.

Instance files are JSON documents with keys Y (M x L reals), G (M x N reals),
A (P x L integers), S (alphabet values), K (sparsity budget) and N (target
rank), and no other key.  Exit codes: 0 success, 1 input error, 2 infeasible,
3 oracle budget refusal, 4 oracle cross-check mismatch.
The environment variable CILS_ORACLE_BUDGET overrides the oracle's
enumeration cap.  Bench spec files are read by cils.harness.load_specs, and
`bench` writes its per-trial records as one JSON array.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from .assembler import InfeasibleError, ProblemInstance, SolveResult, solve
from .dioph import Alphabet
from .harness import (
    GenSpec,
    GenerationError,
    _alphabet,
    generate_instance,
    load_specs,
    run_bench,
)
from .intlin import IntMatrix, _integer
from .oracle import BudgetExceededError, OracleBudget, oracle_solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

_REQUIRED_KEYS = ("Y", "G", "A", "S", "K", "N")


def _fail(path, key: str, problem: str) -> ValueError:
    return ValueError(f"{path}: key {key!r}: {problem}")


def _matrix(path, key: str, raw, integers: bool) -> IntMatrix | np.ndarray:
    """raw as an IntMatrix of integers, or a float array, read from JSON numbers only.

    A JSON boolean or string is refused, though Python reads true as 1 and
    numpy reads "0.5" as 0.5.
    """
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise _fail(path, key, "expected a nonempty list of rows")
    if len(set(map(len, raw))) > 1:
        raise _fail(path, key, "rows must all have the same length")
    kind = int if integers else (int, float)
    for v in itertools.chain.from_iterable(raw):
        if isinstance(v, bool) or not isinstance(v, kind):
            raise _fail(path, key, f"expected {'integers' if integers else 'numbers'}, got {v!r}")
    try:
        return IntMatrix(tuple(map(tuple, raw))) if integers else np.array(raw, dtype=float)
    except (ValueError, OverflowError) as e:
        raise _fail(path, key, str(e)) from e


def load_instance(path) -> ProblemInstance:
    """Parse an instance file; all errors carry the path and offending key."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ValueError(f"{path}: missing required keys {missing}")
    for key in doc:
        if key not in _REQUIRED_KEYS:
            raise _fail(path, key, "unknown key")
    Y = _matrix(path, "Y", doc["Y"], integers=False)
    G = _matrix(path, "G", doc["G"], integers=False)
    A = _matrix(path, "A", doc["A"], integers=True)
    alphabet = _alphabet(doc["S"], f"{path}: key 'S'")
    sparsity = _integer(doc["K"], f"{path}: key 'K'")
    target_rank = _integer(doc["N"], f"{path}: key 'N'")
    try:
        return ProblemInstance(
            Y=Y, G=G, A=A, alphabet=alphabet, sparsity=sparsity, target_rank=target_rank
        )
    except ValueError as e:
        raise ValueError(f"{path}: invalid instance: {e}") from e


def _instance_document(instance: ProblemInstance) -> dict:
    return {
        "Y": [[float(v) for v in row] for row in instance.Y],
        "G": [[float(v) for v in row] for row in instance.G],
        "A": [list(row) for row in instance.A.entries],
        "S": list(instance.alphabet.values),
        "K": instance.sparsity,
        "N": instance.target_rank,
    }


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _oracle_budget() -> OracleBudget:
    raw = os.environ.get("CILS_ORACLE_BUDGET")
    if raw is None:
        return OracleBudget()
    try:
        return OracleBudget(max_enumeration=int(raw))
    except ValueError as e:
        raise ValueError(f"CILS_ORACLE_BUDGET: {e}") from e


def _result_document(result: SolveResult) -> dict:
    return {
        "X": [list(row) for row in result.X.entries],
        "objective": result.objective,
        "stats": dataclasses.asdict(result.stats),
    }


def _print_result(result: SolveResult, show_stats: bool, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_result_document(result), sort_keys=True))
        return
    for row in result.X.entries:
        print(" ".join(str(v) for v in row))
    print(f"objective: {result.objective!r}")
    if show_stats:
        for name, value in dataclasses.asdict(result.stats).items():
            print(f"{name}: {value}")


def cmd_solve(args) -> int:
    result = solve(load_instance(args.instance))
    _print_result(result, args.stats, args.json)
    return EXIT_OK


def cmd_check(args) -> int:
    instance = load_instance(args.instance)
    budget = _oracle_budget()
    ours = solve(instance)
    reference = oracle_solve(instance, budget)
    scale = max(abs(reference.objective), 1.0)
    match = abs(ours.objective - reference.objective) <= 1e-9 * scale
    print(f"solver objective: {ours.objective!r}")
    print(f"oracle objective: {reference.objective!r}")
    print(f"objectives match: {match}")
    return EXIT_OK if match else EXIT_MISMATCH


def _parse_alphabet(text: str) -> Alphabet:
    try:
        return Alphabet(tuple(int(tok) for tok in text.split(",") if tok.strip()))
    except ValueError as e:
        raise ValueError(f"alphabet {text!r}: {e}") from e


def planted_sidecar_path(out_path: str) -> str:
    base = out_path[:-5] if out_path.endswith(".json") else out_path
    return base + ".planted.json"


def cmd_gen(args) -> int:
    spec = GenSpec(
        n_rows=args.rows,
        n_cols=args.cols,
        n_meas=args.meas,
        alphabet=_parse_alphabet(args.alphabet),
        n_constraints=args.constraints,
        sparsity=args.sparsity,
        sigma=args.sigma,
        seed=args.seed,
        trials=1,
    )
    instance, planted = generate_instance(spec)
    _write_json(args.out, _instance_document(instance))
    sidecar = planted_sidecar_path(args.out)
    _write_json(sidecar, {"X": [list(row) for row in planted.entries]})
    print(f"instance: {args.out}")
    print(f"planted:  {sidecar}")
    return EXIT_OK


def cmd_bench(args) -> int:
    records = run_bench(load_specs(args.specfile))
    _write_json(args.out, records)
    print(f"wrote {len(records)} record(s) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cils",
        description="Constrained integer least-squares solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", help="path to an instance JSON file")
    p_solve.add_argument("--stats", action="store_true", help="print solver statistics")
    p_solve.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="solve and cross-check against the brute-force oracle")
    p_check.add_argument("instance", help="path to an instance JSON file")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random instance and its planted solution")
    p_gen.add_argument("--rows", type=int, required=True, help="rows of X (= target rank)")
    p_gen.add_argument("--cols", type=int, required=True, help="columns of X")
    p_gen.add_argument("--meas", type=int, required=True, help="measurement rows of Y and G")
    p_gen.add_argument("--alphabet", default="-1,0,1", help="comma-separated alphabet values")
    p_gen.add_argument("--constraints", type=int, default=7, help="rows of A")
    p_gen.add_argument("--sparsity", type=int, default=4, help="per-row nonzero budget K")
    p_gen.add_argument("--sigma", type=float, default=0.2, help="noise standard deviation")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument("--out", default="instance.json", help="instance output path")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser(
        "bench", help="solve every trial of a bench spec file and write one JSON record per trial"
    )
    p_bench.add_argument(
        "specfile", help="JSON array of generation specs (see scripts/hard_tier.json)"
    )
    p_bench.add_argument(
        "--out", default="bench.json", help="JSON output path (an array of per-trial records)"
    )
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold that into the input-error code
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (InfeasibleError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
