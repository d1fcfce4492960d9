"""Constrained integer least-squares: alphabet, equality, sparsity and rank constraints.

Minimizes ||Y - G X||_F^2 over integer matrices X with entries in a finite
alphabet, rows in the null space of A with bounded nonzero count, and full
row rank.  The solve enumerates the feasible rows exactly (dioph), lists
each column's candidate points in order of distance in a floor table and
assembles a rank-constrained optimum by backtracking search over them
(assembler); the table is tested against the sphere decoder (spheredec).
Brute-force reference implementations live in oracle; reproducible
instance generation and benchmarks in harness; the command line in cli.
"""

from .assembler import (
    InfeasibleError,
    ProblemInstance,
    SolveResult,
    SolveStats,
    objective,
    solve,
    solve_ils_eq,
    verify_solution,
)
from .dioph import (
    Alphabet,
    DiophStats,
    IntVector,
    solve_diophantine_sparse,
    tree_leaves,
)
from .harness import GenSpec, GenerationError, generate_instance, load_specs, run_bench
from .intlin import IntMatrix, hermite_decomposition, hermite_normal_form, int_rank, validate_hnf
from .oracle import BudgetExceededError, OracleBudget, oracle_F, oracle_solve, oracle_sphere
from .spheredec import (
    SphereCandidate,
    babai_radius,
    qr_positive,
    sphere_decode,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "DiophStats",
    "GenSpec",
    "GenerationError",
    "InfeasibleError",
    "IntMatrix",
    "IntVector",
    "OracleBudget",
    "ProblemInstance",
    "SolveResult",
    "SolveStats",
    "SphereCandidate",
    "babai_radius",
    "generate_instance",
    "hermite_decomposition",
    "hermite_normal_form",
    "int_rank",
    "load_specs",
    "objective",
    "oracle_F",
    "oracle_solve",
    "oracle_sphere",
    "qr_positive",
    "run_bench",
    "solve",
    "solve_diophantine_sparse",
    "solve_ils_eq",
    "sphere_decode",
    "tree_leaves",
    "validate_hnf",
    "verify_solution",
]
