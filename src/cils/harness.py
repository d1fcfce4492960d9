"""Reproducible instance generation and the benchmark runner.

Instances are generated backwards from a planted solution: first N sparse
alphabet rows with full rank are drawn, then the constraint matrix A is built
from random integer combinations of a basis of the planted rows' integer
orthogonal complement (computed exactly via Hermite normal form).  That
construction guarantees A X^T = 0 by design, so every generated instance is
feasible; drawing A first and rejecting until the constraints admit a sparse
alphabet solution is hopeless in practice, because a random integer matrix
almost never does.

All randomness flows through numpy's seeded default generator, and per-trial
seeds are derived with SeedSequence, so runs are reproducible across machines.

A bench spec file is a JSON array of objects with the keys rows, cols, meas
and S (required) and constraints, K, sigma, seed and trials (optional); each
object is one GenSpec.  `load_specs` reads such a file and `run_bench` solves
every trial of every spec, returning one plain record per trial: the spec's
keys (all but trials), the trial index and seed, the objective, whether the
planted X was recovered, and every SolveStats counter under its own name.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .assembler import ProblemInstance, SolveResult, solve, verify_solution
from .dioph import Alphabet, IntVector
from .intlin import IntMatrix, _integer, hermite_decomposition, int_rank

_MAX_ATTEMPTS = 50


class GenerationError(Exception):
    """Instance generation failed after the retry budget."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one benchmark configuration.

    n_rows is both the number of planted rows and the target rank; n_cols is
    the row length; n_meas the number of measurement rows in Y and G;
    n_constraints the number of rows in A.  sigma scales the i.i.d. Gaussian
    noise added to Y.  The integer fields must be integers (a bool is
    rejected), alphabet an Alphabet and sigma a finite nonnegative real.
    """

    n_rows: int
    n_cols: int
    n_meas: int
    alphabet: Alphabet
    n_constraints: int = 7
    sparsity: int = 4
    sigma: float = 0.2
    seed: int = 0
    trials: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.alphabet, Alphabet):
            raise ValueError(f"alphabet: expected an Alphabet, got {type(self.alphabet).__name__}")
        for name in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "sigma", _noise_scale(self.sigma, "sigma"))
        if not 1 <= self.n_rows <= self.n_cols:
            raise ValueError("need 1 <= n_rows <= n_cols")
        if self.n_meas < self.n_rows:
            raise ValueError("need n_meas >= n_rows for a full-column-rank G")
        if not 1 <= self.sparsity <= self.n_cols:
            raise ValueError("sparsity must lie in [1, n_cols]")
        if self.n_constraints < 1:
            raise ValueError("need at least one constraint row")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        try:
            float(self.alphabet.values[0]), float(self.alphabet.values[-1])
        except OverflowError:
            raise ValueError("alphabet values must lie within the float range") from None
        if self.trials < 1:
            raise ValueError("need at least one trial")


def _noise_scale(value, name: str) -> float:
    """value as a finite nonnegative float; anything else raises ValueError naming `name`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            sigma = float(value)
        except OverflowError:
            sigma = math.inf
        if 0.0 <= sigma < math.inf:
            return sigma
    raise ValueError(f"{name}: expected a finite nonnegative real, got {value!r}")


def _alphabet(value, name: str) -> Alphabet:
    if not isinstance(value, list) or any(isinstance(v, bool) for v in value):
        raise ValueError(f"{name}: expected a list of integers")
    try:
        return Alphabet(tuple(value))
    except (TypeError, ValueError) as e:
        raise ValueError(f"{name}: {e}") from None


# bench spec file key -> (GenSpec field, parser)
_SPEC_KEYS = {
    "rows": ("n_rows", _integer),
    "cols": ("n_cols", _integer),
    "meas": ("n_meas", _integer),
    "S": ("alphabet", _alphabet),
    "constraints": ("n_constraints", _integer),
    "K": ("sparsity", _integer),
    "sigma": ("sigma", _noise_scale),
    "seed": ("seed", _integer),
    "trials": ("trials", _integer),
}
_REQUIRED_SPEC_KEYS = ("rows", "cols", "meas", "S")
_INTEGER_FIELDS = tuple(field for field, parse in _SPEC_KEYS.values() if parse is _integer)


def _parse_spec(where: str, entry) -> GenSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object")
    for key in _REQUIRED_SPEC_KEYS:
        if key not in entry:
            raise ValueError(f"{where}: missing key {key!r}")
    kwargs = {}
    for key, value in entry.items():
        if key not in _SPEC_KEYS:
            raise ValueError(f"{where}: unknown key {key!r}")
        field, parse = _SPEC_KEYS[key]
        kwargs[field] = parse(value, f"{where}: key {key!r}")
    try:
        return GenSpec(**kwargs)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def load_specs(path) -> list[GenSpec]:
    """Read a bench spec file; every error names the path, the spec index and the key."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: top level must be a JSON array of spec objects")
    return [_parse_spec(f"{path}: spec {i}", entry) for i, entry in enumerate(doc)]


def _draw_planted_rows(rng: np.random.Generator, spec: GenSpec) -> IntMatrix | None:
    """N random sparse alphabet rows with exact rank N, or None if stuck."""
    # one array for every rng.choice below, which would convert a list per call
    nonzero_vals = np.array([v for v in spec.alphabet if v != 0])
    if not nonzero_vals.size:
        return None
    rows: list[IntVector] = []
    for i in range(spec.n_rows):
        for _ in range(40):
            n_nz = int(rng.integers(1, spec.sparsity + 1))
            support = rng.choice(spec.n_cols, size=n_nz, replace=False)
            values = rng.choice(nonzero_vals, size=n_nz)
            row = [0] * spec.n_cols
            for c, v in zip(support, values):
                row[int(c)] = int(v)
            trial = rows + [tuple(row)]
            if int_rank(IntMatrix(tuple(trial))) == i + 1:
                rows.append(tuple(row))
                break
        else:
            return None
    return IntMatrix(tuple(rows))


def _constraint_matrix(
    rng: np.random.Generator, planted: IntMatrix, spec: GenSpec
) -> IntMatrix:
    """Random integer combinations of the planted rows' orthogonal complement.

    The complement basis comes from the unimodular transform of HNF(X^T): the
    transform rows aligned with zero rows of the echelon form span exactly the
    integer vectors orthogonal to every planted row.
    """
    H, U = hermite_decomposition(planted.transpose())
    basis = [u for h, u in zip(H.entries, U.entries) if not any(h)]
    columns = list(zip(*basis))
    rows: list[IntVector] = []
    for _ in range(spec.n_constraints):
        if not basis:
            rows.append((0,) * spec.n_cols)
            continue
        for _ in range(20):
            coeffs = rng.integers(-3, 4, size=len(basis)).tolist()
            combo = tuple(sum(map(operator.mul, coeffs, col)) for col in columns)
            if any(combo):
                rows.append(combo)
                break
        else:
            rows.append(basis[0])
    return IntMatrix(tuple(rows))


def generate_instance(spec: GenSpec) -> tuple[ProblemInstance, IntMatrix]:
    """Draw one instance and its planted solution, deterministically from the seed."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(_MAX_ATTEMPTS):
        planted = _draw_planted_rows(rng, spec)
        if planted is None:
            continue
        A = _constraint_matrix(rng, planted, spec)
        if any(sum(map(operator.mul, a, x)) for a in A.entries for x in planted.entries):
            continue
        G = np.abs(rng.standard_normal((spec.n_meas, spec.n_rows)))
        noise = rng.standard_normal((spec.n_meas, spec.n_cols)) * spec.sigma
        Y = G @ np.array(planted.entries, dtype=float) + noise
        instance = ProblemInstance(
            Y=Y,
            G=G,
            A=A,
            alphabet=spec.alphabet,
            sparsity=spec.sparsity,
            target_rank=spec.n_rows,
        )
        return instance, planted
    raise GenerationError(
        f"could not generate a feasible instance for {spec} in {_MAX_ATTEMPTS} attempts"
    )


def trial_seeds(spec: GenSpec) -> list[int]:
    """Independent per-trial seeds derived from the configuration seed."""
    state = np.random.SeedSequence(spec.seed).generate_state(spec.trials)
    return [int(s) for s in state]


def run_trial(spec: GenSpec, trial_seed: int) -> tuple[SolveResult, bool]:
    """Generate, solve, verify and score one trial; returns (result, recovered)."""
    instance, planted = generate_instance(replace(spec, seed=trial_seed))
    result = solve(instance)
    verify_solution(instance, result.X)
    return result, result.X == planted


def run_bench(specs: list[GenSpec]) -> list[dict]:
    """Solve every trial of every spec in order and return one record per trial.

    A record holds the spec's keys as a spec file spells them (trials aside),
    `trial` (the 0-based index into trial_seeds(spec)), `trial_seed`,
    `objective`, `recovered` (the solution equals the planted X) and every
    SolveStats field.  Every solution is re-verified against the full
    constraint set.  Prints one [bench] line per trial and writes no file.
    """
    records: list[dict] = []
    for spec in specs:
        spec_fields = {
            key: getattr(spec, field) for key, (field, _) in _SPEC_KEYS.items() if key != "trials"
        }
        spec_fields["S"] = list(spec.alphabet)
        for t, tseed in enumerate(trial_seeds(spec)):
            result, hit = run_trial(spec, tseed)
            print(
                f"[bench] {spec.n_rows}x{spec.n_cols} trial {t + 1}/{spec.trials}: "
                f"objective={result.objective:.6g} dioph_nodes={result.stats.dioph_nodes} "
                f"column_reads={result.stats.column_reads} recovered={hit}"
            )
            records.append(
                {
                    **spec_fields,
                    "trial": t,
                    "trial_seed": tseed,
                    "objective": result.objective,
                    "recovered": hit,
                    **asdict(result.stats),
                }
            )
    return records
