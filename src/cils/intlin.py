"""Exact integer linear algebra: Hermite normal form and rank.

Everything here runs on Python's arbitrary-precision ints, so there is no
overflow and no floating-point round-off anywhere in this module.  The rest
of the package relies on that: feasible-set enumeration reduces constraint
matrices with `hermite_normal_form` (H alone), instance generation reads
the unimodular transform off `hermite_decomposition` (H and U from one
elimination on [A | I]), and rank is decided by `int_rank(M, stop=None)`,
fraction-free elimination one row at a time: the rank of assembled
solutions in full, and whether the feasible rows reach rank N with
stop=N, which reads rows only until N of them are independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, count


def _integer(value, name: str) -> int:
    """value as a Python int; a bool or a non-integer raises ValueError naming `name`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable matrix of exact integers, stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(operator.index, row)) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("rows must all have the same length")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )


def _trusted(entries: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """An IntMatrix of entries, stored as they are: nonempty, equal-length tuples of ints.

    For rows the package built itself; IntMatrix(...) checks and converts
    every entry.
    """
    M = object.__new__(IntMatrix)
    object.__setattr__(M, "entries", entries)
    return M


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(A: IntMatrix) -> IntMatrix:
    """Compute the canonical row-style Hermite normal form H of A.

    H is upper echelon, pivots are positive, entries above each pivot are
    reduced into [0, pivot), and zero rows sit at the bottom.  Eliminations
    use extended-gcd 2x2 row transforms, which keeps every intermediate value
    an exact integer.
    """
    W = [list(row) for row in A.entries]
    _eliminate(W, A.cols)
    return _trusted(tuple(map(tuple, W)))


def hermite_decomposition(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """H = hermite_normal_form(A) and the unimodular U with H = U A.

    One elimination on the rows of [A | I]: its row operations are decided by
    A's columns alone, so the left block becomes H and the right block
    accumulates U.
    """
    nc = A.cols
    W = [list(row) + [int(i == j) for j in range(A.rows)] for i, row in enumerate(A.entries)]
    _eliminate(W, nc)
    H = _trusted(tuple(tuple(row[:nc]) for row in W))
    return H, _trusted(tuple(tuple(row[nc:]) for row in W))


def _eliminate(W: list[list[int]], nc: int) -> None:
    """Bring the rows W to Hermite normal form on their first nc columns, in place.

    Every row operation is decided by those columns alone, so entries past
    nc are carried along without changing the result on the first nc.
    """
    nr = len(W)
    r = 0
    for c in range(nc):
        if r == nr:
            break
        for i in range(r + 1, nr):
            b = W[i][c]
            if b == 0:
                continue
            a = W[r][c]
            g, s, t = _xgcd(a, b)
            mu, nu = a // g, b // g
            # [[s, t], [-nu, mu]] has determinant (s*a + t*b)/g = 1; with
            # (s, t) = (1, 0) it leaves W[r] as it is
            wr, wi = W[r], W[i]
            if t or s != 1:
                W[r] = [s * x + t * y for x, y in zip(wr, wi)]
            W[i] = [mu * y - nu * x for x, y in zip(wr, wi)]
        if W[r][c] == 0:
            continue
        if W[r][c] < 0:
            W[r] = [-x for x in W[r]]
        p = W[r][c]
        for j in range(r):
            q = W[j][c] // p
            if q:
                W[j] = [x - q * y for x, y in zip(W[j], W[r])]
        r += 1


def validate_hnf(H: IntMatrix, U: IntMatrix, A: IntMatrix) -> bool:
    """Check that (H, U) is a valid Hermite decomposition of A.

    Requires H = U A with U unimodular and H in row-echelon shape (pivot
    columns strictly increasing, zero rows only at the bottom).  Pivot signs
    and above-pivot reduction are deliberately not required, so decompositions
    from other conventions still validate.  Raises ValueError on mismatched
    dimensions; returns a bool for everything else.
    """
    if U.rows != U.cols:
        raise ValueError("U must be square")
    if U.rows != A.rows or H.rows != A.rows or H.cols != A.cols:
        raise ValueError(
            f"dimension mismatch: H is {H.rows}x{H.cols}, U is {U.rows}x{U.cols}, "
            f"A is {A.rows}x{A.cols}"
        )
    if U @ A != H:
        return False
    # a square integer matrix is unimodular exactly when its HNF is I
    if hermite_normal_form(U) != IntMatrix.identity(U.rows):
        return False
    last_pivot = -1
    seen_zero_row = False
    for row in H.entries:
        pivot = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot is None:
            seen_zero_row = True
            continue
        if seen_zero_row or pivot <= last_pivot:
            return False
        last_pivot = pivot
    return True


def int_rank(M: IntMatrix, stop: int | None = None) -> int:
    """Exact rank over the rationals, via fraction-free (Bareiss) elimination.

    Rows are taken one at a time: each is reduced against the independent
    rows kept so far, b_1.., as v = (p_i v - v[c_i] b_i) // p_{i-1}, with c_i
    the pivot column of b_i, p_i = b_i[c_i] and p_0 = 1.  Each division is
    exact (Sylvester's identity), so every entry is a minor of M and stays
    polynomial in size.  A row that reduces to zero depends on the kept rows
    and is dropped; any other is kept, with its first nonzero entry as pivot.

    With `stop`, returns min(rank, stop) and reads no row past the stop-th
    independent one; stop must be an int of at least 1 (no bool).
    """
    limit = M.cols  # no rank exceeds the column count
    if stop is not None:
        stop = _integer(stop, "stop")
        if stop < 1:
            raise ValueError(f"stop must be at least 1, got {stop}")
        limit = min(limit, stop)
    basis: list[tuple[int, int, list[int]]] = []
    for v in M.entries:
        prev = 1
        for c, p, b in basis:
            f = v[c]
            v = [(p * x - f * y) // prev for x, y in zip(v, b)]
            prev = p
        c = next(compress(count(), v), None)
        if c is not None:
            basis.append((c, v[c], v))
            if len(basis) == limit:
                break
    return len(basis)
