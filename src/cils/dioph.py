"""Sparse alphabet-constrained solutions of homogeneous integer linear systems.

Enumerates every x with A x = 0, all entries drawn from a finite integer
alphabet, and at most a given number of nonzeros.  The system is first
reduced to Hermite normal form.  The partial assignments form one frontier,
an n x L integer array whose column c holds coordinate c, plus a per-row
nonzero count; it is extended one column at a time from the last column to
the first.  A column that is the pivot of an HNF row is imputed on every
row at once by exact division; any other column is expanded freely, one
block of rows per alphabet value.  The nonzero budget is enforced on every
partial row, which is what keeps the frontier small.

Entries use the smallest signed integer dtype that holds the alphabet (int8
for the usual small alphabets), and each pivot's numerator uses int64 when
its magnitude is provably below 2**62; either falls back to Python-int
object arrays, so results stay exact for any input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .intlin import IntMatrix, hermite_normal_form

IntVector = tuple[int, ...]

# a numerator of int64 entries is used only while |numerator| and the pivot
# stay below this, so no partial sum or remainder can wrap
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class Alphabet:
    """Finite set of allowed integer entry values, kept sorted ascending."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(map(operator.index, self.values))
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


@dataclass(frozen=True)
class DiophStats:
    """nodes_visited counts every candidate node examined, kept or pruned."""

    nodes_visited: int
    leaves: int


def _entry_dtype(values: tuple[int, ...]) -> np.dtype:
    """Smallest signed integer dtype holding every value; object beyond int64."""
    for t in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(t)
        if info.min <= values[0] and values[-1] <= info.max:
            return np.dtype(t)
    return np.dtype(object)


def solve_diophantine_sparse(
    A: IntMatrix, alphabet: Alphabet, max_nonzeros: int
) -> tuple[np.ndarray, DiophStats]:
    """Enumerate all x in S^L with A x = 0 and at most max_nonzeros nonzeros.

    Reduces A to Hermite normal form and walks the columns from L-1 down to
    0: a column that is the pivot of an HNF row is imputed from that row,
    any other column is expanded over the alphabet.  HNF pivots strictly
    increase, so each row is met once, after every column right of its pivot
    is assigned.  Returns F, the |F| x L array of solutions (one per row, in
    no particular order; see tree_leaves), and stats with the number of
    candidate nodes examined (|S| per frontier row at a free column, one per
    row at a pivot column) and |F|.  The zero vector is always feasible, so
    F is nonempty unless the alphabet excludes 0.
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
    values = alphabet.values
    dtype = _entry_dtype(values)
    # searchsorted gives len(values) past the largest value, where the
    # repeated last entry cannot equal the quotient
    lookup = np.array(values + values[-1:], dtype=dtype)
    sorted_values = lookup[:-1]
    max_abs = max(-values[0], values[-1])
    nonzero = np.array([v for v in values if v != 0], dtype=dtype)
    has_zero = 0 in alphabet
    states = np.zeros((1, n_cols), dtype=dtype)
    # nz reaches max_nonzeros + 1 only in a rejected pivot candidate
    nz = np.zeros(1, dtype=np.min_scalar_type(max_nonzeros + 1))
    visited = 0
    for col in range(n_cols - 1, -1, -1):
        n = len(states)
        row = pivot_rows.get(col)
        if row is None:
            visited += n * len(values)
            grow = nz < max_nonzeros
            grown, grown_nz = states[grow], nz[grow]
            head, head_nz = ([states], [nz]) if has_zero else ([], [])
            states = np.concatenate(head + [grown] * len(nonzero))
            new = states[len(head) * n :]
            new.reshape(len(nonzero), len(grown), n_cols)[:, :, col] = nonzero[:, None]
            nz = np.concatenate(head_nz + [grown_nz + 1] * len(nonzero))
            continue
        visited += n
        den = row[col]
        support = [(c, row[c]) for c in range(col + 1, n_cols) if row[c] != 0]
        bound = max_abs * sum(abs(coeff) for _, coeff in support)
        if dtype != object and max(bound, den) < _INT64_SAFE:
            num_dtype = np.dtype(np.int64)
        else:
            num_dtype = np.dtype(object)
        num = np.zeros(n, dtype=num_dtype)
        for c, coeff in support:
            num -= np.multiply(states[:, c], coeff, dtype=num_dtype)
        exact = (num % den == 0).nonzero()[0]
        val = num[exact] // den
        member = lookup[sorted_values.searchsorted(val)] == val
        nz2 = nz[exact] + (val != 0)
        keep = member & (nz2 <= max_nonzeros)
        states = states[exact[keep]]
        states[:, col] = val[keep]
        nz = nz2[keep]
    return states, DiophStats(nodes_visited=visited, leaves=len(states))


def tree_leaves(F) -> list[IntVector]:
    """The rows of F (see solve_diophantine_sparse) as tuples, sorted."""
    return sorted(map(tuple, np.asarray(F).tolist()))
