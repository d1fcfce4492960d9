"""Write references.json: the expected outcome of every benchmark instance.

Usage: PYTHONPATH=src python3 perfbench/make_references.py

Solves each workload's instance list once with cils.solve and stores the
objective, or the feasible rank of an InfeasibleError.  Only run it when the
instance lists change; a reference must never be regenerated to make a
failing solve pass.  test_perfbench.py cross-checks the stored references
against cils.oracle wherever the oracle's default budget allows.
"""

from __future__ import annotations

import json
import sys

import cils
from workloads import REFERENCES, WORKLOADS, build_cases


def main() -> int:
    data: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        refs: dict[str, dict] = {}
        for case in build_cases(workload):
            try:
                result = cils.solve(case.instance)
            except cils.InfeasibleError as exc:
                if exc.feasible_rank != case.expect_rank:
                    raise SystemExit(f"{case.key}: feasible rank {exc.feasible_rank}, built for {case.expect_rank}")
                refs[case.key] = {"feasible_rank": exc.feasible_rank}
                continue
            if case.expect_rank is not None:
                raise SystemExit(f"{case.key}: built rank-infeasible but solved")
            refs[case.key] = {"objective": result.objective}
        data[workload] = refs
        print(f"{workload}: {len(refs)} references", file=sys.stderr)
    REFERENCES.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
