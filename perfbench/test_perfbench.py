"""Checks of the benchmark itself: references, grading, tracing and determinism.

Run from the repository root (not part of the tier-1 suite, which collects
only tests/):

    python3 -m pytest -q perfbench

The oracle cross-check and the repeat runs take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cils  # noqa: E402
import cils.assembler  # noqa: E402
from cils import BudgetExceededError, InfeasibleError, SolveResult, oracle_solve  # noqa: E402
from speed import PROBES, SpeedLog  # noqa: E402
from tracer import EXACT, TARGETS, Tracer, pass_metrics  # noqa: E402
from workloads import WORKLOADS, build_cases, grade, load_references, objectives_match  # noqa: E402


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_references_agree_with_oracle(workload):
    """Every reference within the oracle's default budget matches the brute-force optimum."""
    refs = load_references(workload)
    cases = build_cases(workload)
    assert sorted(refs) == sorted(c.key for c in cases)
    checked = 0
    for case in cases:
        try:
            truth = oracle_solve(case.instance)
        except BudgetExceededError:
            continue
        except InfeasibleError as exc:
            assert refs[case.key] == {"feasible_rank": exc.feasible_rank}, case.key
        else:
            assert objectives_match(refs[case.key]["objective"], truth.objective), case.key
        checked += 1
    # enum_wide's 5^16 alphabet scan is beyond the oracle's budget
    if workload != "enum_wide":
        assert checked == len(cases)


def test_rank_infeasible_cases_carry_rank_certificates():
    refs = load_references("batch_small")
    infeasible = [c for c in build_cases("batch_small") if c.expect_rank is not None]
    assert len(infeasible) == sum(s.infeasible for s in WORKLOADS["batch_small"])
    for case in infeasible:
        assert refs[case.key] == {"feasible_rank": case.instance.target_rank - 1}


def test_grade_rejects_wrong_outcomes():
    cases = build_cases("batch_small")
    refs = load_references("batch_small")
    feasible = next(c for c in cases if c.expect_rank is None)
    infeasible = next(c for c in cases if c.expect_rank is not None)
    good = cils.solve(feasible.instance)
    assert grade(feasible, refs[feasible.key], good) is None
    off = SolveResult(X=good.X, objective=good.objective * (1 + 1e-6), stats=good.stats)
    assert grade(feasible, refs[feasible.key], off) is not None
    assert grade(feasible, refs[feasible.key], RuntimeError("boom")) is not None
    assert grade(feasible, refs[feasible.key], InfeasibleError("no", 1)) is not None
    rank = infeasible.expect_rank
    assert grade(infeasible, refs[infeasible.key], InfeasibleError("no", rank)) is None
    assert grade(infeasible, refs[infeasible.key], InfeasibleError("no", rank - 1)) is not None
    assert grade(infeasible, refs[infeasible.key], good) is not None


def test_tracer_counts_match_solver_counters_and_restores():
    originals = [getattr(mod, attr) for mod, attr, _ in TARGETS]
    cases = build_cases("batch_small")[:40]
    tracer = Tracer()
    results = []
    with tracer.patch():
        for case in cases:
            with tracer.solve(case.instance.target_rank):
                try:
                    results.append(cils.assembler.solve(case.instance))
                except InfeasibleError:
                    pass
    assert [getattr(mod, attr) for mod, attr, _ in TARGETS] == originals
    stats = [r.stats for r in results]
    m = pass_metrics(tracer.arrays(), stats)
    assert m["spheredec.calls"] == sum(s.sphere_calls for s in stats)
    assert m["intlin.hnf_calls"] == len(cases)
    # one span check per solve, one rank check per leaf, one per verify
    assert m["intlin.rank_calls"] == len(cases) + m["assembler.leaves"] + len(results)
    assert m["assembler.leaves"] - m["assembler.rank_rejects"] >= len(results)


def test_dioph_nodes_match_solve_stats():
    cases = [c for c in build_cases("batch_small")[:20] if c.expect_rank is None]
    tracer = Tracer()
    with tracer.patch():
        stats = []
        for case in cases:
            with tracer.solve(case.instance.target_rank):
                stats.append(cils.assembler.solve(case.instance).stats)
    assert pass_metrics(tracer.arrays(), stats)["dioph.nodes"] == sum(s.dioph_nodes for s in stats)


def test_speed_scale_uses_the_probes_around_each_interval():
    log = SpeedLog("decode")
    nominal = log.nominal_s
    log.at = [0.0, 1.0, 2.0, 3.0]
    log.took = [0.01, 0.03, 0.02, 0.04]
    assert log.scale(1.5) == pytest.approx(nominal / 0.025)
    assert log.scale(0.5) == pytest.approx(nominal / 0.02)
    # before the first probe or after the last, the nearest one alone
    assert log.scale(-1.0) == pytest.approx(nominal / 0.01)
    assert log.scale(9.0) == pytest.approx(nominal / 0.04)


@pytest.mark.parametrize("probe", list(PROBES))
def test_speed_probes_run(probe):
    log = SpeedLog(probe)
    log.probe()
    log.tick()  # too soon after the first: no second probe
    assert len(log.took) == 1 and log.took[0] > 0


def _layers(workload: str, tag: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1", "--tag", tag],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counters_repeat(workload):
    first = _layers(workload, f"repeat-a-{workload}")
    second = _layers(workload, f"repeat-b-{workload}")
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    """In a copy holding only the benchmark, run.py exits nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "batch_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
