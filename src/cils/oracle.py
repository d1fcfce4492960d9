"""Brute-force reference implementations for cross-checking the solvers.

Everything here enumerates exhaustively and shares no search code with the
production path: feasibility is checked row by row against A, rank is
computed by Gaussian elimination over exact rationals, and sphere queries
scan the full candidate product.  Deliberately slow; each entry point first
bounds its enumeration count against a budget and refuses to start when the
budget is too small, rather than running forever.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .assembler import InfeasibleError, ProblemInstance, SolveResult, SolveStats
from .dioph import Alphabet, IntVector
from .intlin import IntMatrix
from .spheredec import BOUNDARY_SLACK, SphereCandidate


class BudgetExceededError(Exception):
    """The requested enumeration is larger than the allowed budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_enumeration: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_enumeration < 1:
            raise ValueError("budget must be positive")

    def check(self, count: int, what: str) -> None:
        if count > self.max_enumeration:
            raise BudgetExceededError(
                f"{what} needs {count} enumerations, budget allows {self.max_enumeration}"
            )


def _rational_rank(rows: tuple[IntVector, ...]) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col] / p
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_F(
    A: IntMatrix,
    alphabet: Alphabet,
    max_nonzeros: int,
    budget: OracleBudget = OracleBudget(),
) -> list[IntVector]:
    """Feasible row set by scanning the full alphabet product, in lex order."""
    L = A.cols
    budget.check(len(alphabet) ** L, f"feasible-set scan over {len(alphabet)}^{L}")
    out: list[IntVector] = []
    for x in itertools.product(alphabet.values, repeat=L):
        if sum(1 for v in x if v) > max_nonzeros:
            continue
        if all(sum(a * v for a, v in zip(row, x)) == 0 for row in A.entries):
            out.append(x)
    return out


def oracle_solve(
    instance: ProblemInstance, budget: OracleBudget = OracleBudget()
) -> SolveResult:
    """True global optimum by scanning every stack of feasible rows.

    Ties on the objective are broken lexicographically on the row-major
    flattening of X.  Raises InfeasibleError when no full-rank stack exists.
    """
    t0 = time.perf_counter()
    feasible = oracle_F(instance.A, instance.alphabet, instance.sparsity, budget)
    n = instance.n_rows
    if feasible:
        budget.check(len(feasible) ** n, f"stack scan over {len(feasible)}^{n}")
    Y = [[float(v) for v in row] for row in instance.Y]
    G = [[float(v) for v in row] for row in instance.G]
    n_meas = len(Y)
    n_cols = len(Y[0])
    best_obj = float("inf")
    best_rows: tuple[IntVector, ...] | None = None
    for rows in itertools.product(feasible, repeat=n):
        total = 0.0
        for mi in range(n_meas):
            g_row = G[mi]
            y_row = Y[mi]
            for j in range(n_cols):
                s = 0.0
                for i in range(n):
                    s += g_row[i] * rows[i][j]
                r = y_row[j] - s
                total += r * r
        if total < best_obj and _rational_rank(rows) == n:
            best_obj = total
            best_rows = rows
    if best_rows is None:
        raise InfeasibleError(
            "no full-rank stack of feasible rows exists",
            feasible_rank=_rational_rank(tuple(feasible)) if feasible else 0,
        )
    stats = SolveStats(wall_time=time.perf_counter() - t0)
    return SolveResult(X=IntMatrix(best_rows), objective=best_obj, stats=stats)


def oracle_sphere(
    y,
    G,
    radius: float,
    sets: Sequence[Alphabet],
    budget: OracleBudget = OracleBudget(),
) -> list[SphereCandidate]:
    """All candidate-product points within the radius, by full scan.

    Applies the same boundary policy as the production decoder (squared
    distance at most radius^2 * (1 + 1e-9)) but shares none of its QR or
    pruning machinery.  radius = 0 is allowed and returns only exact hits.
    `sets` holds one Alphabet per column of G.
    """
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if G.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {G.shape}")
    m, n = G.shape
    if y.shape[0] != m:
        raise ValueError(f"expected a length-{m} vector, got {y.shape[0]}")
    if len(sets) != n:
        raise ValueError(f"need {n} candidate sets, got {len(sets)}")
    radius = float(radius)
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    budget.check(prod(len(s) for s in sets), "sphere scan")
    points = list(itertools.product(*(s.values for s in sets)))
    grid = np.array(points, dtype=float)
    resid = y[None, :] - grid @ G.T
    d2 = np.sum(resid * resid, axis=1)
    include = radius * radius * (1.0 + BOUNDARY_SLACK)
    out = [
        SphereCandidate(tuple(int(v) for v in p), float(t))
        for p, t in zip(points, d2)
        if t <= include
    ]
    out.sort(key=lambda c: (c.dist2, c.x))
    return out
