"""Assemble full-rank solutions of the constrained integer least-squares problem.

Problem: minimize ||Y - G X||_F^2 over integer matrices X whose entries come
from a finite alphabet, whose rows each satisfy A x = 0 with at most K
nonzeros, and whose rank equals the number of rows N.

The solve runs in two stages.  Stage one enumerates the feasible row set F
once (see dioph) and checks that its rows span rank N, or raises
InfeasibleError with the rank they do span; the span test reads the sorted
rows only until N of them are independent (int_rank's stop).  Stage two
sorts F once and walks the columns left to right.  With columns 0..j-1
fixed, the rows of F that agree with an output row's choices so far form one
contiguous range of the sorted F, so a search node is one (lo, hi) index
pair per output row, plus the bit mask of the values those ranges take (see
below).  For each column the search reads its candidate column vectors off
the per-instance floor table (see below): the points x of that column's
table whose entry x_i is a value that output row i's range takes there, in
order of their distance to that column of Y.  It recurses on each after
narrowing the ranges to the rows that take its values (prune_with_column).
Each range is split into its per-value sub-ranges, each with its mask, once
per solve, the first time the search narrows it (RangeBound.splits).

Rank: a row is settled once its range holds a single row, and it keeps that
row in every leaf below.  A node whose rows are all settled fixes X, so it
is a leaf and reads no column: the rows of F are distinct, so every node
past the last column is one.  A branch is cut as soon as a settled row is
zero or two settled rows lie on one line through 0 (equal primitive forms,
see _line), which covers duplicated rows too; no leaf below it has rank N.
Dependence among three or more settled rows is not tested there, so leaves
are still rank-checked exactly.

Branch and bound: every leaf below a node keeps each output row inside its
range, so at column k row i takes one of the column-k values of its range,
and no leaf fits column k better than the floor of the per-row product of
those value sets: min ||y_k - G x||^2 over it.  The floors of columns j..
sum to the node's bound on their cost.  At the root every range is all of
F, so the floor of column k is c_k over V_k^N, V_k the values F takes at
coordinate k, and the bound is sum_k c_k; it is nonzero in general even when
G is square.  One table per instance (FloorTable) holds every point of
V_k^N per column, sorted by cost, and a floor is the cost of the first point
of the product in that order, shrunk by a rounding allowance when it is
looked up.  A node's mask names its per-row products, one per column (see
the layout below), and RangeBound keeps each floor it has looked up, so a
child recomputes only the columns whose value sets its narrowed ranges
changed.  The table's one pass holds L |W|^N points (W the values F takes),
and a solve needing more than FLOOR_TABLE_LIMIT is refused with ValueError
before any point of the table is built.

Mask layout: a mask holds one group of N fields per column of Y and one
field of |S| bits per output row, so bit (k N + i) |S| + t stands for output
row i taking values[t] at column k.  A feasible row's mask, built straight
from the sorted row, sets the bit of its value in field 0 of each column's
group; a range's mask ORs the masks of its rows, and a node's mask ORs its N
range masks, the i-th shifted into field i.  The floor table reads one
column's group at a time, shifted down to bit 0, and the code of a point x
of column k sets bit i |S| + t where x_i = values[t]: the group holds the
point, code & group == code, exactly when each x_i is a column-k value of
row i's range.

One pass searches below an objective cap: the best objective starts at the
cap, and every node, the root of the pass included, is dropped once its
cost so far plus its own floors, from its column on, reaches best (the
floors end with the leaf's, 0, so the last column is no exception).  A node
at column j with cost `acc` of its fixed columns reads the points of column
j's table that its ranges hold, in (cost, x) order, until acc + cost + rest
reaches best, `rest` the sum of its floors over columns j+1..: these are the
candidates sphere_decode returns at radius sqrt(best - acc - rest) over the
per-row candidate sets (one Alphabet per row, as derive_column_sets returns
them), in its order.  The points a mask holds are listed once per solve
(RangeBound.reads).  A leaf is rank-checked and scored as soon as its rows
settle, and a leaf whose objective reaches the best counts as a bound
prune; the bound test that admitted it already summed the floors of its
remaining columns, each its one point's cost shrunk, so reading them one by
one would only repeat, up to rounding, the test its objective makes.  Every
prune discards only leaves costing at least the best objective, so a pass
that finds a leaf returns the global optimum, and a pass that finds none
proves the optimum is at least the cap.  The first cap is L d^2, with d the
Babai radius of column 0 (spheredec.babai_radius: the residual of the
column's least-squares point snapped into its candidate sets), clamped below
the largest finite float; it doubles after each pass that finds nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .dioph import Alphabet, IntVector, solve_diophantine_sparse, tree_leaves
from .intlin import IntMatrix, _integer, _trusted, int_rank
from .spheredec import (
    ROUNDING_SLACK,
    PreparedLattice,
    _as_matrix,
    _as_vector,
    babai_radius,
    sphere_decode,
)

# factor by which the objective cap grows after a pass that finds no leaf
CAP_GROWTH = 2.0

# most points the floor table's one pass may hold (L |W|^N, see FloorTable);
# a solve whose table would hold more is refused before the table is built
FLOOR_TABLE_LIMIT = 1 << 18

# relative shrink of every floor, so rounding in the per-column distances
# never lets a bound built from floors discard a strict improvement
BOUND_SLACK = 1e-9

# most point products, one per (values, W, N), that FloorTable keeps
POINT_PRODUCTS_KEPT = 8


class InfeasibleError(Exception):
    """No X satisfies all constraints; carries the attainable rank as evidence."""

    def __init__(self, message: str, feasible_rank: int | None = None):
        super().__init__(message)
        self.feasible_rank = feasible_rank


@dataclass(frozen=True)
class ProblemInstance:
    """One constrained integer least-squares instance.

    Y is M x L, G is M x N, A is P x L; every row of the N x L unknown X must
    lie in the alphabet, satisfy A x = 0, and carry at most `sparsity`
    nonzeros, and X must have rank `target_rank` (= N), both ints (no bool).
    G must have full
    column rank, so M >= N, and every alphabet value must convert to a float
    for the decoder, at a scale where ||Y - G X||^2 stays a finite float.
    A must be an IntMatrix and alphabet an Alphabet.
    The QR-factored G that every decode reuses is built once, as `lattice`.
    """

    Y: np.ndarray
    G: np.ndarray
    A: IntMatrix
    alphabet: Alphabet
    sparsity: int
    target_rank: int
    lattice: PreparedLattice = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, kind in (("A", IntMatrix), ("alphabet", Alphabet)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name}: expected an {kind.__name__}, got {type(value).__name__}")
        for name in ("sparsity", "target_rank"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        Y = np.array(self.Y, dtype=float)
        G = np.array(self.G, dtype=float)
        if Y.ndim != 2 or G.ndim != 2:
            raise ValueError("Y and G must be 2-D")
        if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(G))):
            raise ValueError("Y and G entries must be finite")
        if Y.shape[0] != G.shape[0]:
            raise ValueError(
                f"Y has {Y.shape[0]} rows but G has {G.shape[0]}; both hold one measurement per row"
            )
        if Y.shape[1] != self.A.cols:
            raise ValueError(
                f"Y has {Y.shape[1]} columns but A has {self.A.cols}; both index the same coordinates"
            )
        if self.target_rank != G.shape[1]:
            raise ValueError(
                f"target rank {self.target_rank} must equal the column count of G ({G.shape[1]})"
            )
        if self.target_rank < 1:
            raise ValueError("target rank must be at least 1")
        m, n = G.shape
        if m < n:
            raise ValueError(
                f"G is {m}x{n}; it needs at least as many rows (measurements) as columns"
            )
        try:
            lattice = PreparedLattice.from_matrix(G)
        except np.linalg.LinAlgError:
            raise ValueError(
                "G is numerically rank deficient; its columns must be independent"
            ) from None
        if self.target_rank > self.A.cols:
            raise ValueError(
                f"target rank {self.target_rank} exceeds row length {self.A.cols}"
            )
        if not 0 <= self.sparsity <= self.A.cols:
            raise ValueError(
                f"sparsity budget {self.sparsity} must lie in [0, {self.A.cols}]"
            )
        try:
            s_max = max(abs(float(self.alphabet.values[0])), abs(float(self.alphabet.values[-1])))
        except OverflowError:
            raise ValueError(
                "alphabet values must lie within the float range; the decoder works in floats"
            ) from None
        # every entry of Y - G X is at most s_max * sum|G| + max|Y| in size,
        # so this bounds ||Y - G X||^2 and every partial cost the decoder sums
        with np.errstate(over="ignore"):
            scale = s_max * float(np.abs(G).sum()) + float(np.abs(Y).max())
        if not math.isfinite(Y.size * scale * scale):
            raise ValueError(
                f"alphabet values up to {s_max:.3g} in magnitude, against this Y and G, "
                "overflow the squared residual ||Y - G X||^2 in floats"
            )
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "G", lattice.G)
        object.__setattr__(self, "lattice", lattice)

    @property
    def n_rows(self) -> int:
        return self.target_rank

    @property
    def n_cols(self) -> int:
        return self.A.cols

    @property
    def n_meas(self) -> int:
        return self.Y.shape[0]


@dataclass
class SolveStats:
    """Work counters of one solve.

    `radius_expansions` counts the doublings of the objective cap after
    passes that found no leaf.  `column_reads` counts the nodes that read
    their candidates for a column off the floor table; a node whose rows are
    all settled is a leaf and reads none.  The prunes by reason:
    `rank_rejects`, at leaves (exact rank below N) and at inner nodes (a
    settled row zero or two on one line), and `bound_prunes`, a node (a
    child, or the root of a pass) whose cost so far plus its own floors
    reaches the best objective, a column read the bound stopped, or a leaf
    whose objective reaches the best.
    `backtracks` (= rank_rejects) and `sphere_calls` (0: the search decodes
    nothing) are read-only properties, not fields.
    """

    dioph_nodes: int = 0
    column_reads: int = 0
    radius_expansions: int = 0
    rank_rejects: int = 0
    bound_prunes: int = 0
    wall_time: float = 0.0

    @property
    def backtracks(self) -> int:
        return self.rank_rejects

    @property
    def sphere_calls(self) -> int:
        return 0


@dataclass(frozen=True)
class SolveResult:
    X: IntMatrix
    objective: float
    stats: SolveStats


# one (lo, hi) range into RangeBound.rows per output row
Spans = tuple[tuple[int, int], ...]


class FloorTable:
    """Per column k of Y, every x in V_k^N with its cost, sorted by cost.

    `alphabet` is the instance's and `allowed` an L x |S| boolean mask over
    its values: V_k holds the values that row k of the mask allows, which
    RangeBound takes from F, so none is empty.  held(k, mask) lists, in
    sorted order, the points of V_k^N that `mask`, column k's group of a
    node's mask (see the mask layout in the module docstring), holds, and
    floor(k, mask) is the least floor over them: the floor of the first one.

    The costs ||y_k - G x||^2 are computed directly from Y and G, in one pass
    over every column and every x in W^N, W the values some column allows,
    so the pass holds L |W|^N points; a table of more than FLOOR_TABLE_LIMIT
    points is refused with ValueError before any point or cost is computed.
    The product W^N itself, each point's value indices, code and tuple,
    depends only on (values, W, N): it is built once per shape and shared,
    read-only, by every table of that shape (the POINT_PRODUCTS_KEPT most
    recently used shapes are kept).  Each column is sorted by cost with a
    stable sort over the points in lexicographic order, so its points come
    in sphere_decode's (dist2, x) order, and the points a mask holds with
    cost below b are, up to the decoder's boundary slack, the candidates a
    decode at radius sqrt(b) over that product returns: the table is a
    Schnorr-Euchner enumeration of the whole sphere.

    A point's floor is its cost shrunk, when floor() reads it, by the
    decoder's rounding allowance `tau[k]` (see spheredec.ROUNDING_SLACK) and
    by BOUND_SLACK, so it never exceeds sphere_decode's dist2 for that point,
    at any scale of y.  `costs[k]`, `codes[k]` and `points[k]` list column
    k's points in sorted order; the point tuples, drawn from the alphabet,
    are shared by every column and every table of the shape.
    """

    def __init__(
        self, lattice: PreparedLattice, Y: np.ndarray, alphabet: Alphabet, allowed
    ) -> None:
        Gm = lattice.G
        m, n = Gm.shape
        n_cols = Y.shape[1]
        allowed = np.asarray(allowed, dtype=bool)
        taken = tuple(np.flatnonzero(allowed.any(axis=0)).tolist())
        size = n_cols * len(taken) ** n
        if size > FLOOR_TABLE_LIMIT:
            raise ValueError(
                f"the column floor table needs L |W|^N = {size} points for L = {n_cols} "
                f"columns, |W| = {len(taken)} values taken by the feasible rows and N = {n} "
                f"rows (at most {FLOOR_TABLE_LIMIT})"
            )
        values = alphabet.values
        digits, codes, points = _point_product(values, taken, n)
        r = Y[:, :, None] - (Gm @ np.asarray(values, dtype=float)[digits])[:, None, :]
        cost = np.einsum("ikp,ikp->kp", r, r)
        # points outside V_k^N sort last, with an infinite cost
        inside = allowed[:, digits].all(axis=1)
        cost[~inside] = np.inf
        order = np.argsort(cost, axis=1, kind="stable")
        cost = np.take_along_axis(cost, order, axis=1)
        # only the first counts[k] points of column k lie in V_k^N
        counts = inside.sum(axis=1).tolist()
        order = [o[:c].tolist() for o, c in zip(order, counts)]
        self.costs = [a[:c].tolist() for a, c in zip(cost, counts)]
        self.codes = [[codes[p] for p in o] for o in order]
        self.points = [[points[p] for p in o] for o in order]
        self.tau = (ROUNDING_SLACK * (m + n) * np.sqrt(np.einsum("ij,ij->j", Y, Y))).tolist()

    def held(self, k: int, mask: int) -> list[tuple[float, IntVector]]:
        """(cost, x) of the points of column k that the mask holds, in sorted order."""
        return [
            (cost, x)
            for code, cost, x in zip(self.codes[k], self.costs[k], self.points[k])
            if code & mask == code
        ]

    def floor(self, k: int, mask: int) -> float:
        """Least floor of column k over the points the mask holds; inf if none."""
        for code, cost in zip(self.codes[k], self.costs[k]):
            if code & mask == code:
                d = max(math.sqrt(cost) - self.tau[k], 0.0)
                return d * d * (1.0 - BOUND_SLACK)
        return math.inf


@functools.lru_cache(maxsize=POINT_PRODUCTS_KEPT)
def _point_product(
    values: tuple[int, ...], taken: tuple[int, ...], n: int
) -> tuple[np.ndarray, tuple[int, ...], tuple[IntVector, ...]]:
    """Every point of W^N, W = values[taken], coordinate 0 varying slowest.

    Returns the N x |W|^N array of the points' value indices (read-only),
    their FloorTable codes and their tuples, all in that order.  None of
    them depends on G or Y, so tables of one shape share them.
    """
    digits = np.array(taken, dtype=np.intp)[np.indices((len(taken),) * n).reshape(n, -1)]
    digits.setflags(write=False)
    # Python ints, so codes wider than 64 bits stay exact
    width = len(values)
    codes = [0]
    for i in range(n):
        bits = [1 << (i * width + t) for t in taken]
        codes = [c | b for c in codes for b in bits]
    points = tuple(itertools.product([values[t] for t in taken], repeat=n))
    return digits, tuple(codes), points


class RangeBound:
    """The row ranges of one solve and the range-conditioned bound of its nodes.

    `rows` holds the feasible rows sorted lexicographically.  Once columns
    0..j-1 are fixed, the rows that agree with output row i on them form one
    contiguous range rows[lo:hi], so a search node is its ranges, `spans`,
    one (lo, hi) per output row, with `root` holding the spans, mask and
    floors of the root, where every range is all of F; a node's floors end
    with the leaf's, 0.0.  A row is settled when its range holds a single
    row.

    Row i of a node can take at column k only the column-k values of its
    range, so no completion of the node fits column k better than the floor
    of the per-row product of those values (FloorTable), and the floors of
    columns j.. sum to a bound on their cost.  `row_masks` holds one mask per
    row and a node carries its own, both in the mask layout of the module
    docstring, with `field` the N |S| bits of one column's group.  The OR of
    every row mask gives the values F takes per column, which build the
    table.

    Every cache is filled on first use and kept for the rest of the solve:
    `splits` maps (j, lo, hi) to the {value: ((lo', hi'), mask')} table of
    the sub-ranges of rows[lo:hi] per column-j value, in ascending value
    order, each with its range mask, so each range is split once per
    solve however often the search reaches it; `lines` maps a settled row's
    index to its line key (see _line); `memo[k]` maps a column-k mask to its
    floor; and `reads[k]` maps a column-k mask that the search has read to
    the (cost, x) of the points it holds (FloorTable.held).
    """

    def __init__(self, instance: ProblemInstance, feasible: list[IntVector]) -> None:
        """`feasible` is tree_leaves(F): the feasible rows as sorted tuples."""
        values = instance.alphabet.values
        n, width, n_cols = instance.n_rows, len(values), instance.n_cols
        self.field = field = n * width
        self.rows = tuple(feasible)
        # bits[k] maps a value to its bit at column k; a row takes one value
        # per column, so the sum of its bits is their OR
        bits = [{v: 1 << (k * field + t) for t, v in enumerate(values)} for k in range(n_cols)]
        self.row_masks = [sum(map(operator.getitem, bits, row)) for row in self.rows]
        whole = functools.reduce(operator.or_, self.row_masks)
        allowed = [[whole >> (k * field + t) & 1 for t in range(width)] for k in range(n_cols)]
        self.table = FloorTable(instance.lattice, instance.Y, instance.alphabet, allowed)
        self.shifts = range(0, field, width)
        self.full = (1 << field) - 1
        self.splits: dict[tuple[int, int, int], dict[int, tuple[tuple[int, int], int]]] = {}
        self.lines: dict[int, IntVector] = {}
        self.memo: list[dict[int, float]] = [{} for _ in range(n_cols)]
        self.reads: list[dict[int, list[tuple[float, IntVector]]]] = [{} for _ in range(n_cols)]
        # every root range is all of F, whose mask holds every point of V_k^N
        mask = sum(whole << shift for shift in self.shifts)
        floors = self.child(-1, 0, mask, [0.0] * (n_cols + 1))
        self.root = (((0, len(self.rows)),) * n, mask, floors)

    def child(self, j: int, before: int, mask: int, floors: list[float]) -> list[float]:
        """Per-column floors of a node at depth j + 1 with this mask.

        `before` and `floors` are its parent's mask and floors; only the
        columns k > j whose mask field differs from the parent's are looked
        up again, so j = -1 with before = 0 looks up every column.
        """
        field = self.field
        changed = (before ^ mask) >> ((j + 1) * field)
        if changed:
            floors = floors.copy()
            full, memo, table = self.full, self.memo, self.table
            while changed:
                d = (changed.bit_length() - 1) // field
                k = j + 1 + d
                key = (mask >> (k * field)) & full
                f = memo[k].get(key)
                if f is None:
                    f = memo[k][key] = table.floor(k, key)
                floors[k] = f
                changed &= (1 << (d * field)) - 1
        return floors


def _split(bound: RangeBound, key: tuple[int, int, int]) -> dict[int, tuple[tuple[int, int], int]]:
    """Make and store the splits entry of key (j, lo, hi): range (lo, hi) at column j.

    The rows of a range agree on columns 0..j-1, so their j-th entries are
    sorted: one scan closes a value's sub-range, with the OR of its row
    masks, where the next value starts.
    """
    j, lo, hi = key
    rows, row_masks = bound.rows, bound.row_masks
    table = {}
    v, start, mask = rows[lo][j], lo, row_masks[lo]
    for i in range(lo + 1, hi):
        w = rows[i][j]
        if w == v:
            mask |= row_masks[i]
        else:
            table[v] = ((start, i), mask)
            v, start, mask = w, i, row_masks[i]
    table[v] = ((start, hi), mask)
    bound.splits[key] = table
    return table


def derive_column_sets(bound: RangeBound, spans: Spans, j: int) -> tuple[Alphabet, ...]:
    """Candidate values of column j per row: the j-th entries of its range.

    One Alphabet per row, read off the keys of the bound's per-solve splits.
    """
    splits = bound.splits
    sets = []
    for lo, hi in spans:
        key = (j, lo, hi)
        sets.append(Alphabet(tuple(splits.get(key) or _split(bound, key))))
    return tuple(sets)


def prune_with_column(
    bound: RangeBound, spans: Spans, j: int, x_col: IntVector
) -> tuple[Spans, int]:
    """Narrow each row's range to the rows whose j-th entry equals x_col[i].

    Returns the narrowed ranges and their node mask (see RangeBound), both
    read off the per-solve splits.  Raises ValueError if a value leaves a
    row no feasible row, settled or not; the search only proposes values
    drawn from the ranges.
    """
    if len(x_col) != len(spans):
        raise ValueError(f"column has {len(x_col)} entries for {len(spans)} rows")
    splits = bound.splits
    narrowed = []
    mask = 0
    for i, ((lo, hi), v, shift) in enumerate(zip(spans, x_col, bound.shifts)):
        key = (j, lo, hi)
        hit = (splits.get(key) or _split(bound, key)).get(v)
        if hit is None:
            raise ValueError(
                f"value {v} at column {j} eliminates every candidate for row {i}"
            )
        span, m = hit
        narrowed.append(span)
        mask |= m << shift
    return tuple(narrowed), mask


def _line(row: IntVector) -> IntVector:
    """Line key of a row: the primitive vector on its line through 0.

    The row divided by the gcd of its entries, with the sign that makes the
    first nonzero entry positive, so two rows share a key exactly when one is
    a rational multiple of the other; the zero row's key is ().
    """
    g = math.gcd(*row)
    if g == 0:
        return ()
    if next(filter(None, row)) < 0:
        g = -g
    return tuple(v // g for v in row)


def _settled_rows_dependent(bound: RangeBound, spans: Spans) -> bool:
    """True when a settled row is zero or two settled rows share a line.

    Every completion of the ranges keeps their settled rows, so then no leaf
    below them reaches rank N.  A settled row's line key is computed once
    per solve, when the search first settles it.
    """
    lines = bound.lines
    seen = set()
    for lo, hi in spans:
        if hi - lo == 1:
            line = lines.get(lo)
            if line is None:
                line = lines[lo] = _line(bound.rows[lo])
            if not line or line in seen:
                return True
            seen.add(line)
    return False


def objective(Y, G, X: IntMatrix) -> float:
    """Squared Frobenius residual ||Y - G X||_F^2."""
    Y = np.asarray(Y, dtype=float)
    G = np.asarray(G, dtype=float)
    Xf = np.array(X.entries, dtype=float)
    if Y.shape != (G.shape[0], Xf.shape[1]) or G.shape[1] != Xf.shape[0]:
        raise ValueError(
            f"shape mismatch: Y {Y.shape}, G {G.shape}, X {Xf.shape}"
        )
    r = Y - G @ Xf
    return float(np.sum(r * r))


def verify_solution(instance: ProblemInstance, X: IntMatrix) -> None:
    """Raise ValueError unless X satisfies every constraint of the instance."""
    if X.rows != instance.n_rows or X.cols != instance.n_cols:
        raise ValueError(
            f"X is {X.rows}x{X.cols}, expected {instance.n_rows}x{instance.n_cols}"
        )
    for i, row in enumerate(X.entries):
        bad = [v for v in row if v not in instance.alphabet]
        if bad:
            raise ValueError(f"row {i} contains out-of-alphabet values {bad}")
        nz = sum(1 for v in row if v)
        if nz > instance.sparsity:
            raise ValueError(f"row {i} has {nz} nonzeros, budget is {instance.sparsity}")
    A_rows = instance.A.entries
    for row in X.entries:
        if any(sum(map(operator.mul, a, row)) for a in A_rows):
            raise ValueError("X violates the linear constraint A x = 0 on some row")
    r = int_rank(X)
    if r != instance.target_rank:
        raise ValueError(f"X has rank {r}, required {instance.target_rank}")


def _search(
    instance: ProblemInstance,
    bound: RangeBound,
    cap: float,
    stats: SolveStats,
) -> tuple[float, IntMatrix] | None:
    """Best leaf with objective below `cap`, or None if every leaf reaches it.

    The running best objective starts at the cap.  A node at column j is its
    ranges, their mask and floors (see RangeBound) and `rest`, the floors'
    sum over columns j+1..  Every node, the root included, is dropped once
    acc plus its own floors from column j on reaches the best objective.  A
    node whose ranges each hold a single row is a leaf.  Any other node's
    candidates are the points of the floor table's column j that the
    column-j field of its mask holds, in the table's (cost, x) order, listed
    once per solve per mask (RangeBound.reads), and the read stops at the
    first one where acc + cost + rest reaches the best objective: no later
    one costs less.  No completion of a node fits a column better than its
    floor there, so each prune discards only leaves costing at least the
    best objective, and a returned leaf is the minimum over all leaves below
    the cap.  A child whose settled rows are dependent is dropped before
    recursing, and so is a leaf of rank below N: neither can hold the
    optimum.
    """
    Y, G = instance.Y, instance.G
    rows = bound.rows
    table, reads = bound.table, bound.reads
    field, full = bound.field, bound.full
    best_obj = cap
    best_X: IntMatrix | None = None

    def recurse(
        j: int, spans: Spans, acc: float, mask: int, floors: list[float], rest: float
    ) -> None:
        nonlocal best_obj, best_X
        if all(hi - lo == 1 for lo, hi in spans):
            X = _trusted(tuple(rows[lo] for lo, _ in spans))
            if int_rank(X) != instance.target_rank:
                stats.rank_rejects += 1
                return
            obj = objective(Y, G, X)
            if obj < best_obj:
                best_obj = obj
                best_X = X
            else:
                stats.bound_prunes += 1
            return
        stats.column_reads += 1
        key = (mask >> (j * field)) & full
        candidates = reads[j].get(key)
        if candidates is None:
            candidates = reads[j][key] = table.held(j, key)
        for dist2, x in candidates:
            cost = acc + dist2
            if cost + rest >= best_obj:
                stats.bound_prunes += 1
                break
            child, cmask = prune_with_column(bound, spans, j, x)
            cfloors = bound.child(j, mask, cmask, floors)
            crest = sum(cfloors[j + 2 :])
            if cost + cfloors[j + 1] + crest >= best_obj:
                stats.bound_prunes += 1
                continue
            if _settled_rows_dependent(bound, child):
                stats.rank_rejects += 1
                continue
            recurse(j + 1, child, cost, cmask, cfloors, crest)

    spans, mask, floors = bound.root
    if sum(floors) >= cap:
        stats.bound_prunes += 1
        return None
    recurse(0, spans, 0.0, mask, floors, sum(floors[1:]))
    if best_X is None:
        return None
    return best_obj, best_X


def solve(instance: ProblemInstance) -> SolveResult:
    """Global minimizer of ||Y - G X||_F^2 under all instance constraints.

    Raises InfeasibleError when the feasible rows cannot reach the target
    rank; the exception's feasible_rank reports what was attainable.  Raises
    ValueError when the floor table of the bound would hold more than
    FLOOR_TABLE_LIMIT points.
    """
    t0 = time.perf_counter()
    stats = SolveStats()
    F, dstats = solve_diophantine_sparse(
        instance.A, instance.alphabet, instance.sparsity
    )
    stats.dioph_nodes = dstats.nodes_visited
    feasible = tree_leaves(F)
    span_rank = int_rank(_trusted(tuple(feasible)), stop=instance.target_rank) if feasible else 0
    if span_rank < instance.target_rank:
        raise InfeasibleError(
            f"feasible rows span rank {span_rank}, below target {instance.target_rank}",
            feasible_rank=span_rank,
        )
    bound = RangeBound(instance, feasible)
    d = babai_radius(instance.Y[:, 0], instance.lattice, derive_column_sets(bound, bound.root[0], 0))
    # d is at least 1e-9, but its slack can carry L d^2 past the largest float
    # when ||Y - G X||^2 sits at the float limit
    cap = min(instance.n_cols * d * d, sys.float_info.max)
    best = _search(instance, bound, cap, stats)
    while best is None:
        cap *= CAP_GROWTH
        stats.radius_expansions += 1
        best = _search(instance, bound, cap, stats)
    obj, X = best
    verify_solution(instance, X)
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(X=X, objective=obj, stats=stats)


def solve_ils_eq(
    y,
    G,
    A: IntMatrix,
    alphabet: Alphabet,
    max_nonzeros: int,
    mode: str = "exact",
) -> IntVector:
    """Single-vector constrained decode: argmin ||y - G x|| over the feasible set.

    mode "exact" scans the enumerated feasible set for the true minimizer
    (ties broken lexicographically).  mode "heuristic" first sphere-decodes
    without the linear and sparsity constraints, then returns the feasible
    vector nearest the decoded point; it is cheaper but only an approximation.
    Either mode raises ValueError for a non-finite y or G.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    G = _as_matrix(G)
    if G.shape[1] != A.cols:
        raise ValueError(f"G must have {A.cols} columns, got shape {G.shape}")
    y = _as_vector(y, G.shape[0])
    F, _ = solve_diophantine_sparse(A, alphabet, max_nonzeros)
    feasible = tree_leaves(F)
    if not feasible:
        raise InfeasibleError("no feasible vector exists", feasible_rank=0)
    if mode == "exact":

        def key(v: IntVector) -> tuple[float, IntVector]:
            r = y - G @ np.array(v, dtype=float)
            return float(np.dot(r, r)), v

        return min(feasible, key=key)
    sets = (alphabet,) * G.shape[1]
    lattice = PreparedLattice.from_matrix(G)
    d = babai_radius(y, lattice, sets)
    # a decode at the Babai radius always holds the snapped point (see babai_radius)
    anchor = sphere_decode(y, lattice, d, sets)[0].x
    return min(
        feasible,
        key=lambda v: (sum((a - b) ** 2 for a, b in zip(anchor, v)), v),
    )
