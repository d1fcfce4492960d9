"""Sparse alphabet-constrained solutions of homogeneous integer linear systems.

Enumerates every x with A x = 0, all entries drawn from a finite integer
alphabet, and at most a given number of nonzeros.  The system is first
reduced to Hermite normal form.  The partial assignments form one frontier,
an n x L integer array whose column c holds coordinate c, plus a per-row
nonzero count; it is extended one column at a time from the last column to
the first.

The frontier also carries s, what the target row (the HNF row whose pivot
comes next) still needs from its unassigned columns.  Every column the walk
assigns, pivot or not, is expanded over the alphabet in one step: every
(value, row) child's s and nonzero count are formed as one |S| x n array,
and a child is kept only if |s| is within reach: at most max|S| times the
sum of the K - nz largest |h_k| over the target's unassigned columns, K
being the nonzero budget and nz the child's count.  Only the survivors are
built, so the budget and the target row prune together.  At the pivot no
unassigned column of the target is left and the reach is 0, so only the
exact quotient survives, when it lies in S and within the budget; the next
HNF row then becomes the target.  This is the bounded-variable reachability
argument of Aardal, Hurkens & Lenstra (Math. Oper. Res. 2000) with the
nonzero budget added.

The free columns between the target's pivot and the last assigned column
form its segment, and the target row is a subset-sum constraint on them.
Once a segment spans at least JOIN_MIN alphabet points, the walk defers its
leftmost half and meets the two halves at the pivot (Horowitz & Sahni,
J. ACM 1974; Schroeppel & Shamir, SIAM J. Comput. 1981), so the frontier
grows to about the square root of the product it would otherwise reach.
The deferred block, every vector over S on those columns within the budget,
depends on (S, defer, K) alone, so it is built once per shape, by the same
step with the budget as its only cut, and kept for later joins (the
BLOCKS_KEPT most recent shapes).
Each join sums t, the block's part of the target row, column by column and
sorts the block once by the integer key t (K+2) + nz_b, nz_b being its
nonzero count.  A frontier row and a pivot value v then match one
contiguous key range, from (s - h_p v)(K+2) to that plus K - nz - [v != 0],
which holds both the exact sum and the budget.  Rows that share (s, nz)
match alike, so the frontier is sorted by s (K+2) + nz and each run of
equal keys probes once per pivot value, as a hash join groups its probe
side.  One searchsorted finds where every probe's range would start; a
second runs only for the probes whose first key there is in range, and
each match is expanded to every row of its run.  The reach of the walked
columns counts the deferred ones as unassigned.  A shorter segment is
walked column by column, its pivot included.

Entries use the smallest signed integer dtype that holds the alphabet (int8
for the usual small alphabets), and s and the join keys use int64 when every
join key's magnitude is provably below 2**62, else Python-int object
arrays, so results stay exact for any input.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .intlin import IntMatrix, _integer, hermite_normal_form

IntVector = tuple[int, ...]

# s and the join keys are int64 only while a bound on every join key, which
# also bounds |s| and every coefficient, stays below this, so nothing wraps
_INT64_SAFE = 2**62

# a target row's free segment is split and joined at its pivot once the
# segment spans at least this many alphabet points (|S|^len); shorter
# segments are walked column by column, where a join costs more than it saves
JOIN_MIN = 1 << 14

# deferred blocks are cached per (values, defer, max_nonzeros); this many
# most recently used shapes are kept
BLOCKS_KEPT = 8


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

    That is |S| per frontier row at a walked free column, and one per row at
    a pivot that is not joined, where only the exact quotient can pass.  At
    a joined pivot it is |S| per frontier row (one candidate per pivot
    value, counted per row even where rows that share a probe key probe
    once) plus |S| per deferred-block row per block column, counted before
    the budget cut, whether the block is built for that join or was built
    for an earlier join of its shape.
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
    frontier row: what the unassigned columns pivot..start-1 must sum to.
    reach holds a table for each column c the walk assigns (pivot+defer <
    c < start, and the pivot unless it is joined): a child that assigns c
    and has nz nonzeros is kept iff |s| <= reach[c][nz], the limit being
    what pivot..c-1 can still cancel, max|S| times the sum of the
    max_nonzeros - nz largest |row_k| there, 0 at the pivot.
    reach[c][max_nonzeros + 1] is -1, so a child over the budget fails too.
    The deferred columns take no table: their block does not depend on the
    row (see _block).  s, reach and the join keys are int64 when max|S|
    times sum_{k>=pivot} |row_k|, which bounds every key's t, times K+2,
    plus K, is provably below 2**62, else Python-int objects.  A zero row
    has pivot -1 and s = 0, so its reach filters on the budget alone.
    """
    pivot = next((j for j, v in enumerate(row) if v != 0), -1)
    defer = _deferred(pivot, start, n_values)
    # max(max_abs, 1): the coefficients must fit even when max|S| is 0
    bound = max(max_abs, 1) * sum(map(abs, row[pivot:]))
    if entry_dtype != object and bound * (max_nonzeros + 2) + max_nonzeros < _INT64_SAFE:
        dtype = np.dtype(np.int64)
    else:
        dtype = np.dtype(object)
    s = np.zeros(len(states), dtype=dtype)
    for c in range(start, len(row)):
        if row[c]:
            s -= np.multiply(states[:, c], row[c], dtype=dtype)
    reach = {}
    # the walk assigns the pivot too unless it is joined
    for c in range(pivot + 1 + defer if defer else max(pivot, 0), start):
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


def _expand(
    states: np.ndarray,
    s: np.ndarray,
    nz: np.ndarray,
    col: int,
    coeff: int,
    limit: np.ndarray,
    sorted_values: np.ndarray,
    nz_step: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(states, s, nz) once column col is assigned, every row tried over S.

    Every (value, row) child's s - coeff v and nz + [v != 0] are formed at
    once as |S| x n arrays, and only the children with |s| <= limit[nz] are
    built.
    """
    child_s = s - np.multiply(sorted_values[:, None], coeff, dtype=s.dtype)
    child_nz = nz + nz_step
    which, parent = (abs(child_s) <= limit[child_nz]).nonzero()
    states = states[parent]
    states[:, col] = sorted_values[which]
    return states, child_s[which, parent], child_nz[which, parent]


def _spans(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, owner): range(starts[i], starts[i] + counts[i]) for every i, concatenated.

    owner holds each entry's i.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    return np.arange(len(owner)) + (starts - counts.cumsum() + counts)[owner], owner


@functools.lru_cache(maxsize=BLOCKS_KEPT)
def _block(
    values: tuple[int, ...], defer: int, max_nonzeros: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(block, nz_b, nodes): every vector over S on defer columns within the budget.

    The rows of block are built one column at a time by _expand with a zero
    coefficient under the budget-only table [0]*(K+1) + [-1], so the budget
    is the only cut, in the order the walk over those columns would build
    them; nz_b holds each row's nonzero count, and nodes counts |S| per
    block row per column, before the cut.  None of it depends on the
    instance, so every join of one (S, defer, K) shares it (the BLOCKS_KEPT
    most recently used shapes are kept), read-only.
    """
    dtype = _entry_dtype(values)
    sorted_values = np.array(values, dtype=dtype)
    nz_dtype = np.min_scalar_type(max_nonzeros + 1)
    nz_step = (sorted_values[:, None] != 0).astype(nz_dtype)
    budget = np.array([0] * (max_nonzeros + 1) + [-1])
    block = np.zeros((1, defer), dtype=dtype)
    zero = np.zeros(1, dtype=dtype)
    block_nz = np.zeros(1, dtype=nz_dtype)
    nodes = 0
    for j in range(defer):
        nodes += len(block) * len(values)
        block, zero, block_nz = _expand(block, zero, block_nz, j, 0, budget, sorted_values, nz_step)
    block.setflags(write=False)
    block_nz.setflags(write=False)
    return block, block_nz, nodes


def _join(
    row: IntVector,
    pivot: int,
    defer: int,
    states: np.ndarray,
    s: np.ndarray,
    nz: np.ndarray,
    values: tuple[int, ...],
    sorted_values: np.ndarray,
    nz_step: np.ndarray,
    max_nonzeros: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(states, nz, block nodes) once the pivot and its deferred block are assigned.

    The block is every vector over S on the columns pivot+1..pivot+defer
    with at most max_nonzeros nonzeros (see _block, which counts its nodes).
    Each block row b carries t = sum_k row_k b_k, its part of the target
    row, summed one column at a time in s's dtype, and its nonzero count
    nz_b, and is sorted once by the key t (K+2) + nz_b.  A frontier row with
    residual s and count nz, given the pivot value v, matches the block rows
    with t = s - row_pivot v and nz_b <= K - nz - [v != 0]: one contiguous
    key range [lo, hi].  Frontier rows that share (s, nz) match alike, so
    the frontier is sorted by the same kind of key, s (K+2) + nz, and each
    run of equal keys probes once per pivot value, as the probe side of a
    hash join is grouped.  One searchsorted finds every probe's first key at
    or above lo; only the probes whose first key is at most hi search a
    second time for the range's end, and each match is then expanded to
    every row of its run.  The keys take s's dtype, which _target chose to
    hold them.
    """
    width = max_nonzeros + 2
    block, block_nz, visited = _block(values, defer, max_nonzeros)
    # the key is built in place, t and then t (K+2) + nz_b, so no second
    # block-length array is held beside it
    key = np.zeros(len(block), dtype=s.dtype)
    for j, c in enumerate(range(pivot + 1, pivot + 1 + defer)):
        if row[c]:
            key += np.multiply(block[:, j], row[c], dtype=s.dtype)
    key *= width
    key += block_nz
    order = key.argsort()
    key = key[order]
    # frontier rows in key order, split into runs of equal (s, nz); runs
    # ascend in s, so each value's probes ascend and searchsorted starts
    # each one where the last ended
    front = s * width + nz
    rows = front.argsort()
    front = front[rows]
    new_run = np.ones(len(front), dtype=bool)
    new_run[1:] = front[1:] != front[:-1]
    runs = new_run.nonzero()[0]
    run_len = np.diff(runs, append=len(front))
    lead = rows[runs]
    child_nz = nz[lead] + nz_step
    # one (value, run) probe per entry, in |S| x runs order
    lo = s[lead] - np.multiply(sorted_values[:, None], row[pivot], dtype=s.dtype)
    lo *= width
    # the room is -1 for a probe over the budget, whose range is then empty
    hi = max_nonzeros - child_nz.astype(s.dtype)
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
    # match indexes the sorted keys; order takes it back to the block's rows
    match, probe = order[match[owner]], probe[owner]
    states = states[rows[member]]
    states[:, pivot] = sorted_values[which[owner]]
    states[:, pivot + 1 : pivot + 1 + defer] = block[match]
    return states, child_nz.ravel()[probe] + block_nz[match], visited


def solve_diophantine_sparse(
    A: IntMatrix, alphabet: Alphabet, max_nonzeros: int
) -> tuple[np.ndarray, DiophStats]:
    """Enumerate all x in S^L with A x = 0 and at most max_nonzeros nonzeros.

    Reduces A to Hermite normal form and walks the columns from L-1 down to
    0.  HNF pivots strictly increase, so each row is met once, after every
    column right of its pivot is assigned, and until its pivot it is the
    target.  Every column the walk assigns is expanded over the alphabet,
    and a child is kept only if the target row can still cancel its
    assigned part within the budget; at the target's pivot nothing is left
    to cancel it, so only the exact quotient survives.  When the target's
    free segment spans at least JOIN_MIN alphabet points, the leftmost half
    of it is skipped and joined at the pivot with a sorted deferred block
    (see the module docstring and _join).
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
    # row that stands in once every pivot is assigned
    targets = iter([row for row in reversed(H.entries) if any(row)] + [(0,) * n_cols])
    values = alphabet.values
    dtype = _entry_dtype(values)
    sorted_values = np.array(values, dtype=dtype)
    max_abs = max(-values[0], values[-1])
    states = np.zeros((1, n_cols), dtype=dtype)
    # nz reaches max_nonzeros + 1 only in a rejected candidate
    nz = np.zeros(1, dtype=np.min_scalar_type(max_nonzeros + 1))
    nz_step = (sorted_values[:, None] != 0).astype(nz.dtype)
    h = next(targets)
    pivot, defer, s, reach = _target(h, n_cols, states, len(values), max_abs, max_nonzeros, dtype)
    visited = 0
    for col in range(n_cols - 1, -1, -1):
        if pivot < col <= pivot + defer:
            continue
        n = len(states)
        if col == pivot and defer:
            states, nz, block_visited = _join(
                h, pivot, defer, states, s, nz, values, sorted_values, nz_step, max_nonzeros
            )
            visited += n * len(values) + block_visited
        else:
            # at an unjoined pivot only the quotient can pass: one node a row
            visited += n if col == pivot else n * len(values)
            states, s, nz = _expand(states, s, nz, col, h[col], reach[col], sorted_values, nz_step)
        if col == pivot:
            h = next(targets)
            pivot, defer, s, reach = _target(h, col, states, len(values), max_abs, max_nonzeros, dtype)
    return states, DiophStats(nodes_visited=visited, leaves=len(states))


def tree_leaves(F) -> list[IntVector]:
    """The rows of F (see solve_diophantine_sparse) as tuples, sorted."""
    return sorted(map(tuple, np.asarray(F).tolist()))
