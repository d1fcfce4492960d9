"""Sparse alphabet-constrained solutions of homogeneous integer linear systems.

Enumerates every x with A x = 0, all entries drawn from a finite integer
alphabet, and at most a given number of nonzeros.  The system is first
reduced to Hermite normal form.  The partial assignments form one frontier,
an n x L integer array whose column c holds coordinate c, plus a per-row
nonzero count; it is extended one column at a time from the last column to
the first.  A column that is the pivot of an HNF row is imputed on every
row at once by exact division; any other column is expanded over the
alphabet.

The frontier also carries s, what the target row (the HNF row whose pivot
comes next) still needs from its unassigned columns.  At a free column every
(value, row) child's s and nonzero count are formed as one |S| x n array,
and a child is kept only if |s| is within reach: at most max|S| times the
sum of the K - nz largest |h_k| over the target's unassigned columns, K
being the nonzero budget and nz the child's count.  Only the survivors are
built, so the budget and the target row prune together before the next
pivot's exact division does.  This is the bounded-variable reachability
argument of Aardal, Hurkens & Lenstra (Math. Oper. Res. 2000) with the
nonzero budget added.  At the pivot, s is the numerator of the imputed
value, and the next HNF row becomes the target.

Entries use the smallest signed integer dtype that holds the alphabet (int8
for the usual small alphabets), and s uses int64 when its magnitude is
provably below 2**62; either falls back to Python-int object arrays, so
results stay exact for any input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

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


def _target(
    row: IntVector,
    start: int,
    states: np.ndarray,
    max_abs: int,
    max_nonzeros: int,
    entry_dtype: np.dtype,
) -> tuple[int, np.ndarray, dict[int, np.ndarray]]:
    """(pivot, s, reach) for an HNF row that becomes the target at column start.

    s holds -sum_{k>=start} row_k x_k on every frontier row: what the
    unassigned columns pivot..start-1 must sum to, so at the pivot it is the
    numerator of the imputed value.  For each free column c between pivot
    and start, reach[c][nz] is the largest |s| that the columns pivot..c-1
    can still cancel once c is assigned and a child has nz nonzeros: max|S|
    times the sum of the max_nonzeros - nz largest |row_k| there, and -1 at
    nz = max_nonzeros + 1 so that a child over the budget fails the same
    test.  s and reach are int64 when max|S| times sum_{k>=pivot} |row_k|,
    which bounds |s|, every reach entry, the pivot entry and every
    coefficient, is provably below 2**62, else Python-int objects.  A zero
    row has pivot -1 and s = 0, so its reach filters on the budget alone.
    """
    pivot = next((j for j, v in enumerate(row) if v != 0), -1)
    # max(max_abs, 1): the coefficients must fit even when max|S| is 0
    bound = max(max_abs, 1) * sum(map(abs, row[pivot:]))
    if entry_dtype != object and bound < _INT64_SAFE:
        dtype = np.dtype(np.int64)
    else:
        dtype = np.dtype(object)
    s = np.zeros(len(states), dtype=dtype)
    for c in range(start, len(row)):
        if row[c]:
            s -= np.multiply(states[:, c], row[c], dtype=dtype)
    reach = {}
    for c in range(pivot + 1, start):
        mags = sorted(map(abs, row[max(pivot, 0) : c]), reverse=True)[:max_nonzeros]
        sums = [max_abs * m for m in accumulate(mags, initial=0)]
        # entry nz is sums[min(max_nonzeros - nz, len(mags))]
        pad = sums[-1:] * (max_nonzeros - len(mags))
        reach[c] = np.array(pad + sums[::-1] + [-1], dtype=dtype)
    return pivot, s, reach


def solve_diophantine_sparse(
    A: IntMatrix, alphabet: Alphabet, max_nonzeros: int
) -> tuple[np.ndarray, DiophStats]:
    """Enumerate all x in S^L with A x = 0 and at most max_nonzeros nonzeros.

    Reduces A to Hermite normal form and walks the columns from L-1 down to
    0: a column that is the pivot of an HNF row is imputed from that row,
    any other column is expanded over the alphabet.  HNF pivots strictly
    increase, so each row is met once, after every column right of its pivot
    is assigned.  At a free column a child is kept only if the target row
    (the next pivot's) can still cancel its assigned part within the budget.
    Returns F, the |F| x L array of solutions (one per row, in no particular
    order; see tree_leaves), and stats with the number of candidate nodes
    examined (|S| per frontier row at a free column, one per row at a pivot
    column, counted before any filter) and |F|.  The zero vector is always
    feasible, so F is nonempty unless the alphabet excludes 0.
    """
    if max_nonzeros < 0:
        raise ValueError("nonzero budget must be nonnegative")
    if max_nonzeros > A.cols:
        raise ValueError(
            f"nonzero budget {max_nonzeros} exceeds vector length {A.cols}"
        )
    n_cols = A.cols
    H = hermite_normal_form(A)
    # nonzero HNF rows in the order the walk meets their pivots, then a zero
    # row that stands in once every pivot is imputed
    targets = iter([row for row in reversed(H.entries) if any(row)] + [(0,) * n_cols])
    values = alphabet.values
    dtype = _entry_dtype(values)
    # searchsorted gives len(values) past the largest value, where the
    # repeated last entry cannot equal the quotient
    lookup = np.array(values + values[-1:], dtype=dtype)
    sorted_values = lookup[:-1]
    max_abs = max(-values[0], values[-1])
    states = np.zeros((1, n_cols), dtype=dtype)
    # nz reaches max_nonzeros + 1 only in a rejected candidate
    nz = np.zeros(1, dtype=np.min_scalar_type(max_nonzeros + 1))
    values_col = sorted_values[:, None]
    nz_step = (values_col != 0).astype(nz.dtype)
    h = next(targets)
    pivot, s, reach = _target(h, n_cols, states, max_abs, max_nonzeros, dtype)
    visited = 0
    for col in range(n_cols - 1, -1, -1):
        n = len(states)
        if col != pivot:
            # every (value, row) child at once; only the survivors are built
            visited += n * len(values)
            child_s = s - np.multiply(values_col, h[col], dtype=s.dtype)
            child_nz = nz + nz_step
            which, parent = (abs(child_s) <= reach[col][child_nz]).nonzero()
            states = states[parent]
            states[:, col] = sorted_values[which]
            s = child_s[which, parent]
            nz = child_nz[which, parent]
            continue
        visited += n
        den = h[col]
        exact = (s % den == 0).nonzero()[0]
        val = s[exact] // den
        member = lookup[sorted_values.searchsorted(val)] == val
        nz2 = nz[exact] + (val != 0)
        keep = member & (nz2 <= max_nonzeros)
        states = states[exact[keep]]
        states[:, col] = val[keep]
        nz = nz2[keep]
        h = next(targets)
        pivot, s, reach = _target(h, col, states, max_abs, max_nonzeros, dtype)
    return states, DiophStats(nodes_visited=visited, leaves=len(states))


def tree_leaves(F) -> list[IntVector]:
    """The rows of F (see solve_diophantine_sparse) as tuples, sorted."""
    return sorted(map(tuple, np.asarray(F).tolist()))
