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

The free columns between the target's pivot and the last assigned column
form its segment, and the target row is a subset-sum constraint on them.
Once a segment spans at least JOIN_MIN alphabet points, the walk defers its
leftmost half and meets the two halves at the pivot (Horowitz & Sahni,
J. ACM 1974; Schroeppel & Shamir, SIAM J. Comput. 1981), so the frontier
grows to about the square root of the product it would otherwise reach.
The deferred block, every vector over S on those columns within the budget,
is enumerated on its own and sorted once by the integer key t (K+2) + nz_b,
t being its part of the target row and nz_b its nonzero count.  A frontier
row and a pivot value v then match one contiguous key range, from
(s - h_p v)(K+2) to that plus K - nz - [v != 0], which holds both the exact
sum and the budget.  Rows that share (s, nz) match alike, so the frontier is
sorted by s (K+2) + nz and each run of equal keys probes once per pivot
value, as a hash join groups its probe side.  One searchsorted finds where
every probe's range would start; a second runs only for the probes whose
first key there is in range, and each match is expanded to every row of its
run.  The reach filter on the columns still walked is unchanged, since the
deferred columns are unassigned there.  A shorter segment is walked column
by column and its pivot imputed by division.

Entries use the smallest signed integer dtype that holds the alphabet (int8
for the usual small alphabets), and s and the join keys use int64 when their
magnitude is provably below 2**62; each falls back to Python-int object
arrays, so results stay exact for any input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .intlin import IntMatrix, _integer, hermite_normal_form

IntVector = tuple[int, ...]

# a numerator of int64 entries is used only while |numerator| and the pivot
# stay below this, so no partial sum or remainder can wrap
_INT64_SAFE = 2**62

# a target row's free segment is split and joined at its pivot once the
# segment spans at least this many alphabet points (|S|^len); shorter
# segments are walked column by column, where a join costs more than it saves
JOIN_MIN = 1 << 14


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
    """nodes_visited counts every candidate node examined, kept or pruned.

    That is |S| per frontier row at a walked free column, one per row at a
    pivot imputed by division, and at a joined pivot |S| per frontier row
    (one candidate per pivot value, counted per row even where rows that
    share a probe key probe once) plus |S| per deferred-block row per block
    column, counted before the budget cut.
    """

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
    n_values: int,
    max_abs: int,
    max_nonzeros: int,
    entry_dtype: np.dtype,
) -> tuple[int, int, np.ndarray, dict[int, np.ndarray]]:
    """(pivot, defer, s, reach) for an HNF row that becomes the target at column start.

    defer is how many free columns right of the pivot the walk leaves to the
    join (see _deferred).  s holds -sum_{k>=start} row_k x_k on every
    frontier row: what the unassigned columns pivot..start-1 must sum to, so
    at the pivot it is the numerator of the imputed value.  For each free
    column c that the walk assigns, pivot+defer < c < start, reach[c][nz] is
    the largest |s| that the columns pivot..c-1 can still cancel once c is
    assigned and a child has nz nonzeros: max|S| times the sum of the
    max_nonzeros - nz largest |row_k| there, and -1 at nz = max_nonzeros + 1
    so that a child over the budget fails the same test.  s and reach are
    int64 when max|S| times sum_{k>=pivot} |row_k|, which bounds |s|, every
    reach entry, the pivot entry and every coefficient, is provably below
    2**62, else Python-int objects.  A zero row has pivot -1 and s = 0, so
    its reach filters on the budget alone.
    """
    pivot = next((j for j, v in enumerate(row) if v != 0), -1)
    defer = _deferred(pivot, start, n_values)
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
    for c in range(pivot + 1 + defer, start):
        mags = sorted(map(abs, row[max(pivot, 0) : c]), reverse=True)[:max_nonzeros]
        sums = [max_abs * m for m in accumulate(mags, initial=0)]
        # entry nz is sums[min(max_nonzeros - nz, len(mags))]
        pad = sums[-1:] * (max_nonzeros - len(mags))
        reach[c] = np.array(pad + sums[::-1] + [-1], dtype=dtype)
    return pivot, defer, s, reach


def _deferred(pivot: int, start: int, n_values: int) -> int:
    """How many free columns right of pivot the walk defers to the join.

    The segment is the free columns pivot+1..start-1 between a target row's
    pivot and the last assigned column.  Once |S|^len(segment) reaches
    JOIN_MIN its leftmost half is deferred; a shorter segment, and the zero
    row that stands in after the last pivot, defer nothing.
    """
    length = start - 1 - pivot
    if pivot < 0 or n_values**length < JOIN_MIN:
        return 0
    return length // 2


def _spans(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, owner): range(starts[i], starts[i] + counts[i]) for every i, concatenated.

    owner holds each entry's i.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    return np.arange(len(owner)) + (starts - counts.cumsum() + counts)[owner], owner


def _join(
    row: IntVector,
    pivot: int,
    defer: int,
    states: np.ndarray,
    s: np.ndarray,
    nz: np.ndarray,
    sorted_values: np.ndarray,
    nz_step: np.ndarray,
    max_abs: int,
    max_nonzeros: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(states, nz, block nodes) once the pivot and its deferred block are assigned.

    The block is every vector over S on the columns pivot+1..pivot+defer
    with at most max_nonzeros nonzeros, built one column at a time with |S|
    nodes per block row per column, counted before the budget cut.  Each
    block row b has the partial sum t = sum_k row_k b_k and nonzero count
    nz_b, and the block is sorted once by the key t (K+2) + nz_b.  A frontier
    row with residual s and count nz, given the pivot value v, matches the
    block rows with t = s - row_pivot v and nz_b <= K - nz - [v != 0]: one
    contiguous key range [lo, hi].  Frontier rows that share (s, nz) match
    alike, so the frontier is sorted by the same kind of key, s (K+2) + nz,
    and each run of equal keys probes once per pivot value, as the probe
    side of a hash join is grouped.  One searchsorted finds every probe's
    first key at or above lo; only the probes whose first key is at most hi
    search a second time for the range's end, and each match is then
    expanded to every row of its run.  The keys are int64 when max|S| times
    sum_{k>=pivot} |row_k| times K+2, plus K, is provably below 2**62, else
    Python-int objects.
    """
    width = max_nonzeros + 2
    bound = max(max_abs, 1) * sum(map(abs, row[pivot:]))
    if states.dtype != object and bound * width + max_nonzeros < _INT64_SAFE:
        key_dtype = np.dtype(np.int64)
    else:
        key_dtype = np.dtype(object)
    block = np.zeros((1, defer), dtype=states.dtype)
    block_nz = np.zeros(1, dtype=nz.dtype)
    visited = 0
    for j in range(defer):
        visited += len(block) * len(sorted_values)
        child_nz = block_nz + nz_step
        which, parent = (child_nz <= max_nonzeros).nonzero()
        block = block[parent]
        block[:, j] = sorted_values[which]
        block_nz = child_nz[which, parent]
    key = block_nz.astype(key_dtype)
    for j, coeff in enumerate(row[pivot + 1 : pivot + 1 + defer]):
        if coeff:
            key += np.multiply(block[:, j], coeff * width, dtype=key_dtype)
    order = key.argsort()
    key, block, block_nz = key[order], block[order], block_nz[order]
    # frontier rows in key order, split into runs of equal (s, nz); runs
    # ascend in s, so each value's probes ascend and searchsorted starts
    # each one where the last ended
    front = s.astype(key_dtype) * width + nz.astype(key_dtype)
    rows = front.argsort()
    front = front[rows]
    new_run = np.ones(len(front), dtype=bool)
    new_run[1:] = front[1:] != front[:-1]
    runs = new_run.nonzero()[0]
    run_len = np.diff(runs, append=len(front))
    lead = rows[runs]
    child_nz = nz[lead] + nz_step
    # one (value, run) probe per entry, in |S| x runs order
    lo = s[lead].astype(key_dtype) - np.multiply(sorted_values[:, None], row[pivot], dtype=key_dtype)
    lo *= width
    # the room is -1 for a probe over the budget, whose range is then empty
    hi = max_nonzeros - child_nz.astype(key_dtype)
    hi += lo
    lo, hi = lo.ravel(), hi.ravel()
    first = key.searchsorted(lo, side="left")
    # only a probe whose first key at or above lo is at most hi can match; one
    # past the block reads the last key, which is below lo, and so finds an
    # empty range if it searches again.  The block is empty only when 0 is
    # not in S and defer > K, and then the at least defer walked columns
    # have already cut every frontier row, so nothing is read from it
    probe = (key.take(first, mode="clip") <= hi).nonzero()[0]
    first = first[probe]
    match, owner = _spans(first, key.searchsorted(hi[probe], side="right") - first)
    probe = probe[owner]
    which, run = np.divmod(probe, len(runs))
    member, owner = _spans(runs[run], run_len[run])
    match, probe = match[owner], probe[owner]
    states = states[rows[member]]
    states[:, pivot] = sorted_values[which[owner]]
    states[:, pivot + 1 : pivot + 1 + defer] = block[match]
    return states, child_nz.ravel()[probe] + block_nz[match], visited


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
    When the target's free segment spans at least JOIN_MIN alphabet points,
    the leftmost half of it is skipped and joined at the pivot with a
    sorted deferred block (see the module docstring and _join).
    Returns F, the |F| x L array of solutions (one per row, in no particular
    order; see tree_leaves), and stats with the number of candidate nodes
    examined (see DiophStats; counted before any filter) and |F|.  The zero
    vector is always feasible, so F is nonempty unless the alphabet
    excludes 0.  A max_nonzeros that is not an integer (a bool included) or
    lies outside 0..L raises ValueError.
    """
    max_nonzeros = _integer(max_nonzeros, "max_nonzeros")
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
    pivot, defer, s, reach = _target(h, n_cols, states, len(values), max_abs, max_nonzeros, dtype)
    visited = 0
    for col in range(n_cols - 1, -1, -1):
        if pivot < col <= pivot + defer:
            continue
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
        if defer:
            states, nz, block_visited = _join(
                h, pivot, defer, states, s, nz, sorted_values, nz_step, max_abs, max_nonzeros
            )
            visited += n * len(values) + block_visited
        else:
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
        pivot, defer, s, reach = _target(h, col, states, len(values), max_abs, max_nonzeros, dtype)
    return states, DiophStats(nodes_visited=visited, leaves=len(states))


def tree_leaves(F) -> list[IntVector]:
    """The rows of F (see solve_diophantine_sparse) as tuples, sorted."""
    return sorted(map(tuple, np.asarray(F).tolist()))
