"""Fixed, seeded instance lists for the solve benchmark.

Each workload is a list of named `GenSpec`s; its instances are the first
`trials` trial seeds of each spec (`cils.harness.trial_seeds`), in order,
never picked by cost.  Every instance carries a stored reference outcome in
`references.json`, so every solve the benchmark makes is graded.

Why these workloads:

* search_noisy -- the quick sweep's 3x9 shape and a 3x10 shape with five
  measurements, both at sigma 0.8.  High noise makes sphere decoding take
  about 80% of a solve and the assembler's branch-and-bound most of the
  rest (about 900 decodes per solve); the 24 solves span 0.01 s to 0.7 s,
  so the list keeps a heavy tail.
  The ROADMAP hard tier (4x12 and 5x14 shapes) is not used: its solves take
  0.1 s to over 70 s, and on a shared 2-core host a multi-second solve's
  best-of-k time still moves by a fifth between processes, so it cannot be
  timed steadily inside one run.
* enum_wide -- low noise, wide rows and the {-2..2} alphabet: Diophantine
  enumeration of the feasible row set takes over 99% of a solve and most of
  its memory, while the search makes only tens of decodes.
* batch_small -- the quick sweep shapes (scripts/bench_specs.json) as
  hundreds of millisecond solves, where the fixed per-call cost of each
  layer dominates.  One instance in ten is rank-infeasible (see
  `_rank_infeasible`) and exercises the infeasibility certificate path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from cils import (
    Alphabet,
    GenSpec,
    InfeasibleError,
    ProblemInstance,
    SolveResult,
    generate_instance,
    objective,
    verify_solution,
)
from cils.harness import trial_seeds

REFERENCES = Path(__file__).with_name("references.json")

S3 = Alphabet((-1, 0, 1))
S5 = Alphabet((-2, -1, 0, 1, 2))

# relative tolerance on objectives compared with the stored reference
REL_TOL = 1e-9


@dataclass(frozen=True)
class Shape:
    """One named GenSpec: `feasible` planted trials, then `infeasible` ones."""

    label: str
    spec: GenSpec
    feasible: int
    infeasible: int = 0


WORKLOADS: dict[str, tuple[Shape, ...]] = {
    "search_noisy": (
        Shape("3x9_S3_s0.8", GenSpec(3, 9, 4, S3, sparsity=4, sigma=0.8, seed=0), 12),
        Shape("3x10_S3_P5_s0.8", GenSpec(3, 10, 5, S3, n_constraints=5, sparsity=4, sigma=0.8, seed=0), 12),
    ),
    "enum_wide": (
        Shape("3x16_S5_P6", GenSpec(3, 16, 4, S5, n_constraints=6, sparsity=5, sigma=0.05, seed=0), 1),
        Shape("3x17_S5_P7", GenSpec(3, 17, 4, S5, n_constraints=7, sparsity=5, sigma=0.05, seed=0), 1),
        Shape("3x18_S5_P7", GenSpec(3, 18, 4, S5, n_constraints=7, sparsity=5, sigma=0.05, seed=0), 1),
    ),
    "batch_small": (
        Shape("2x5_S3", GenSpec(2, 5, 3, S3, sparsity=4, sigma=0.2, seed=0), 60, 7),
        Shape("3x7_S3", GenSpec(3, 7, 4, S3, sparsity=4, sigma=0.2, seed=0), 60, 7),
        Shape("3x9_S3", GenSpec(3, 9, 4, S3, sparsity=4, sigma=0.2, seed=0), 60, 7),
        Shape("3x7_S5", GenSpec(3, 7, 4, S5, sparsity=4, sigma=0.2, seed=0), 60, 7),
    ),
}


@dataclass(frozen=True)
class Case:
    """One benchmark instance and what a correct solve must produce.

    For a feasible case `planted_objective` is the objective of the planted X,
    which the optimum can never exceed.  For a rank-infeasible case the solve
    must raise InfeasibleError with `feasible_rank == expect_rank`.
    """

    key: str
    instance: ProblemInstance
    planted_objective: float | None
    expect_rank: int | None


def _rank_infeasible(spec: GenSpec, trial_seed: int) -> ProblemInstance:
    """The planted instance for N-1 rows, posed with a fresh M x N G and target rank N.

    Its constraints admit only the span of N-1 planted rows, so no feasible X
    reaches rank N and the solver must return the rank certificate N-1.
    """
    base, _ = generate_instance(replace(spec, n_rows=spec.n_rows - 1, seed=trial_seed))
    rng = np.random.default_rng(trial_seed)
    G = np.abs(rng.standard_normal((spec.n_meas, spec.n_rows)))
    return ProblemInstance(
        Y=base.Y,
        G=G,
        A=base.A,
        alphabet=spec.alphabet,
        sparsity=spec.sparsity,
        target_rank=spec.n_rows,
    )


def build_cases(workload: str) -> list[Case]:
    """Generate the workload's instances, deterministically, in list order."""
    cases: list[Case] = []
    for shape in WORKLOADS[workload]:
        spec = replace(shape.spec, trials=shape.feasible + shape.infeasible)
        seeds = trial_seeds(spec)
        for k, tseed in enumerate(seeds):
            key = f"{shape.label}/{tseed}"
            if k < shape.feasible:
                instance, planted = generate_instance(replace(spec, seed=tseed))
                planted_obj = objective(instance.Y, instance.G, planted)
                cases.append(Case(key, instance, planted_obj, None))
            else:
                instance = _rank_infeasible(spec, tseed)
                cases.append(Case(key, instance, None, spec.n_rows - 1))
    return cases


def load_references(workload: str) -> dict[str, dict]:
    """Stored outcome per case key: {"objective": float} or {"feasible_rank": int}."""
    data = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return data[workload]


def objectives_match(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def grade(case: Case, ref: dict, outcome) -> str | None:
    """None when the outcome is correct, else a one-line reason.

    `outcome` is a SolveResult or the exception the solve raised.  Call it
    outside any tracing, since it runs cils.verify_solution again.
    """
    if isinstance(outcome, InfeasibleError):
        if "feasible_rank" not in ref:
            return f"unexpected InfeasibleError: {outcome}"
        if outcome.feasible_rank != ref["feasible_rank"]:
            return f"feasible_rank {outcome.feasible_rank}, expected {ref['feasible_rank']}"
        return None
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    if not isinstance(outcome, SolveResult):
        return f"unexpected outcome {outcome!r}"
    if "objective" not in ref:
        return f"solved with objective {outcome.objective!r}, expected InfeasibleError"
    try:
        verify_solution(case.instance, outcome.X)
    except ValueError as exc:
        return f"verify_solution rejected X: {exc}"
    recomputed = objective(case.instance.Y, case.instance.G, outcome.X)
    if not objectives_match(recomputed, outcome.objective):
        return f"reported objective {outcome.objective!r} but X scores {recomputed!r}"
    if not objectives_match(outcome.objective, ref["objective"]):
        return f"objective {outcome.objective!r}, reference {ref['objective']!r}"
    if outcome.objective > case.planted_objective * (1 + REL_TOL) + 1e-12:
        return f"objective {outcome.objective!r} exceeds planted {case.planted_objective!r}"
    return None
