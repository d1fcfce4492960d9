"""Sparse alphabet-constrained solutions of homogeneous integer linear systems.

Enumerates every x with A x = 0, all entries drawn from a finite integer
alphabet, and at most a given number of nonzeros.  The system is first
reduced to Hermite normal form.  Partial assignments are flat paths over the
trailing coordinates, stored right-to-left and extended one column at a time
from the last column to the first: a column that is the pivot of an HNF row
is imputed from that row by exact division, any other column is expanded
freely over the alphabet.  The nonzero budget is enforced on every partial
path, which is what keeps the search small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlin import IntMatrix, hermite_normal_form

IntVector = tuple[int, ...]

# internal search state: (partial assignment, nonzero count).  Assignments are
# stored right-to-left, i.e. path[0] is the last coordinate of the solution.
_State = tuple[IntVector, int]


@dataclass(frozen=True)
class Alphabet:
    """Finite set of allowed entry values, kept sorted ascending."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(map(int, self.values))
        if not vals:
            raise ValueError("alphabet must be nonempty")
        if not all(map(int.__lt__, vals, vals[1:])):
            raise ValueError("alphabet values must be strictly increasing")
        object.__setattr__(self, "values", vals)

    def __contains__(self, v: object) -> bool:
        return v in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def _expand_free(states: list[_State], alphabet: Alphabet, max_nonzeros: int) -> tuple[list[_State], int]:
    """Extend every path by one free coordinate; returns survivors and node count."""
    out: list[_State] = []
    created = 0
    for path, nz in states:
        for v in alphabet.values:
            created += 1
            nz2 = nz + (v != 0)
            if nz2 <= max_nonzeros:
                out.append((path + (v,), nz2))
    return out, created


def _apply_pivot(
    states: list[_State],
    h: IntVector,
    pivot_col: int,
    n_cols: int,
    alphabet: Alphabet,
    max_nonzeros: int,
) -> tuple[list[_State], int]:
    """Impute the pivot coordinate of h on every path; keep exact, in-alphabet hits.

    Paths must cover coordinates pivot_col+1 .. n_cols-1.  For each one the
    pivot value is -(sum of covered terms)/h[pivot_col]; the path survives
    only if the division is exact, the value is in the alphabet, and the
    nonzero budget still holds.  Every imputation attempt counts as one node.
    """
    den = h[pivot_col]
    support = [
        (n_cols - 1 - c, h[c]) for c in range(pivot_col + 1, n_cols) if h[c] != 0
    ]
    out: list[_State] = []
    created = 0
    for path, nz in states:
        created += 1
        num = -sum(coeff * path[k] for k, coeff in support)
        val, rem = divmod(num, den)
        if rem:
            continue
        if val not in alphabet:
            continue
        nz2 = nz + (val != 0)
        if nz2 > max_nonzeros:
            continue
        out.append((path + (val,), nz2))
    return out, created


@dataclass(frozen=True)
class DiophStats:
    """nodes_visited counts every candidate node examined, kept or pruned."""

    nodes_visited: int
    leaves: int


def solve_diophantine_sparse(
    A: IntMatrix, alphabet: Alphabet, max_nonzeros: int
) -> tuple[list[IntVector], DiophStats]:
    """Enumerate all x in S^L with A x = 0 and at most max_nonzeros nonzeros.

    Reduces A to Hermite normal form and walks the columns from L-1 down to
    0: a column that is the pivot of an HNF row is imputed from that row,
    any other column is expanded over the alphabet.  HNF pivots strictly
    increase, so each row is met once, after every column right of its pivot
    is assigned.  Returns the surviving paths, each a solution stored
    right-to-left (see tree_leaves), and stats with the number of candidate
    nodes examined (free expansions plus pivot imputations) and the path
    count.  The zero vector is always feasible, so there is always a path
    unless the alphabet excludes 0.
    """
    if max_nonzeros < 0:
        raise ValueError("nonzero budget must be nonnegative")
    if max_nonzeros > A.cols:
        raise ValueError(
            f"nonzero budget {max_nonzeros} exceeds vector length {A.cols}"
        )
    n_cols = A.cols
    H = hermite_normal_form(A).H
    pivot_rows: dict[int, IntVector] = {}
    for i in range(H.rows):
        row = H.row(i)
        pivot_col = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot_col is not None:
            pivot_rows[pivot_col] = row
    states: list[_State] = [((), 0)]
    visited = 0
    for col in range(n_cols - 1, -1, -1):
        if col in pivot_rows:
            states, created = _apply_pivot(
                states, pivot_rows[col], col, n_cols, alphabet, max_nonzeros
            )
        else:
            states, created = _expand_free(states, alphabet, max_nonzeros)
        visited += created
    paths = [path for path, _ in states]
    return paths, DiophStats(nodes_visited=visited, leaves=len(paths))


def tree_leaves(paths: list[IntVector]) -> list[IntVector]:
    """Solutions from right-to-left paths, in natural coordinate order, sorted."""
    return sorted(tuple(reversed(path)) for path in paths)
