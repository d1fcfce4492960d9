"""Sphere decoding over finite per-coordinate integer alphabets.

sphere_decode finds every x with x_i in a given candidate set per coordinate
(a sequence of one Alphabet per coordinate) and ||y - G x|| <= d, by
QR-reducing G and enumerating coordinates last-to-first inside the shrinking
interval each partial residual allows.
Each call validates and factors its own G.  The solver decodes nothing:
its floor table computes every cost straight from G and Y, and this module
is the table's reference in tests and the helper of solve_ils_eq's heuristic
mode.  Boundary policy: a point counts as inside when its squared distance
is at most d^2 * (1 + 1e-9); internal pruning runs at radius
d * (1 + 1e-9) + tau, with tau proportional to eps * ||y|| (see
ROUNDING_SLACK), so no boundary point is lost to accumulation error at any
scale of y, and reported distances are recomputed directly from y and G.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .dioph import Alphabet, IntVector

# relative slack on the squared radius for the inclusion test
BOUNDARY_SLACK = 1e-9

# Q^T y and the partial sums carry rounding of order eps * ||y|| per entry,
# however small the radius, so a point at distance d may be summed to
# anything up to (d + tau)^2 with tau = ROUNDING_SLACK * (m + n) * ||y|| for
# an m x n G; a slack relative to d^2 alone loses boundary points once ||y||
# is large against d
ROUNDING_SLACK = 16.0 * sys.float_info.epsilon


class SphereCandidate(NamedTuple):
    x: IntVector
    dist2: float


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name}: entries must be finite")
    return M


def _as_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != length:
        raise ValueError(f"{name}: expected a length-{length} vector, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name}: entries must be finite")
    return v


def qr_positive(G) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full QR of a tall full-column-rank G with positive diagonal in R.

    Returns (Q1, Q2, R): G = Q1 R, columns of Q2 span the orthogonal
    complement, R is square upper triangular with strictly positive diagonal.
    The one check of G for every caller: a G that is not 2-D and finite,
    or has no columns or fewer rows than columns, raises ValueError, and a
    numerically rank-deficient one (a pivot of R at rounding level)
    numpy.linalg.LinAlgError, itself a ValueError.
    """
    G = _as_matrix(G, "G")
    m, n = G.shape
    if n < 1 or m < n:
        raise ValueError(f"G is {m}x{n}; it needs a column and at least as many rows as columns")
    Q, R_full = np.linalg.qr(G, mode="complete")
    R = R_full[:n]
    diag = np.diag(R)
    size = np.abs(diag)
    tol = max(m, n) * np.finfo(float).eps * max(float(size.max()), 1.0)
    if float(size.min()) <= tol:
        raise np.linalg.LinAlgError(
            "G is numerically rank deficient; its columns must be independent"
        )
    sign = np.where(diag < 0, -1.0, 1.0)
    return Q[:, :n] * sign, Q[:, n:], R * sign[:, None]


def _factored(y, G, sets: Sequence[Alphabet]):
    """(G, y, Q2, Q1^T y, rows of R) for a decode of y against G over `sets`.

    G and y come back as float arrays, Q1^T y and R's rows as Python floats,
    so the decoder's recursion does no numpy scalar indexing.  Raises like
    qr_positive for G, and ValueError for a y of the wrong length or with a
    non-finite entry, or for a count of sets other than G's column count.
    """
    Q1, Q2, R = qr_positive(G)
    G = np.asarray(G, dtype=float)
    y = _as_vector(y, G.shape[0], "y")
    if len(sets) != G.shape[1]:
        raise ValueError(f"need {G.shape[1]} candidate sets, got {len(sets)}")
    return G, y, Q2, (Q1.T @ y).tolist(), R.tolist()


def sphere_decode(y, G, radius: float, sets: Sequence[Alphabet]) -> list[SphereCandidate]:
    """All x in the candidate product with ||y - G x|| <= radius.

    `sets` holds one Alphabet per coordinate of x.  G is factored on every
    call (see qr_positive), and y must be finite, one entry per row of G.
    Exhaustive within the boundary policy above.  Results are sorted by
    (dist2, x) and each dist2 is the directly recomputed ||y - G x||^2, not
    the accumulated partial sum.
    """
    radius = float(radius)
    if not radius > 0.0 or not math.isfinite(radius):
        raise ValueError("radius must be positive and finite")
    Gm, y, Q2, z, R = _factored(y, G, sets)
    m, n = Gm.shape
    w = Q2.T @ y
    # squared distance from y to the column span; fixed for every candidate
    base = float(w @ w)
    include = radius * radius * (1.0 + BOUNDARY_SLACK)
    # ||y|| from its parts in and outside G's span, without another numpy call
    tau = ROUNDING_SLACK * (m + n) * math.hypot(math.sqrt(base), *z)
    reach = radius * (1.0 + BOUNDARY_SLACK) + tau
    prune = reach * reach
    out: list[SphereCandidate] = []
    if base > prune:
        return out
    values = [s.values for s in sets]
    x = [0] * n

    def descend(i: int, acc: float) -> None:
        row = R[i]
        fixed = 0
        for k in range(i + 1, n):
            fixed += row[k] * x[k]
        b = z[i] - fixed
        rii = row[i]
        rad = math.sqrt(max(prune - acc, 0.0))
        lo_v = (b - rad) / rii
        hi_v = (b + rad) / rii
        margin = 1e-9 * (1.0 + abs(lo_v) + abs(hi_v))
        vals = values[i]
        lo = bisect.bisect_left(vals, lo_v - margin)
        hi = bisect.bisect_right(vals, hi_v + margin)
        for v in vals[lo:hi]:
            step = (b - rii * v) ** 2
            if acc + step > prune:
                continue
            x[i] = v
            if i == 0:
                xv = tuple(x)
                r = y - Gm @ np.array(xv, dtype=float)
                d2 = float(np.dot(r, r))
                if d2 <= include:
                    out.append(SphereCandidate(xv, d2))
            else:
                descend(i - 1, acc + step)

    descend(n - 1, base)
    out.sort(key=lambda c: (c.dist2, c.x))
    return out


def babai_radius(y, G, sets: Sequence[Alphabet]) -> float:
    """Search radius from rounding the unconstrained least-squares solution.

    G and `sets` are as for sphere_decode.  The real solution of
    R x = Q1^T y is found by back substitution, and each of its
    coordinates is snapped to the nearest value in its candidate set (ties
    to the smaller value); the returned radius is the residual r0 of that
    point plus 1e-9 (1 + r0), so it is at least 1e-9, and a sphere decode at
    this radius always sees at least that point, at any scale of y and G,
    since the decoder's pruning slack grows with ||y||.  y and G are
    checked and factored as for sphere_decode (see qr_positive).
    """
    G, y, _, z, R = _factored(y, G, sets)
    n = G.shape[1]
    xls = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = R[i]
        b = z[i]
        for k in range(i + 1, n):
            b -= row[k] * xls[k]
        xls[i] = b / row[i]
    snapped = tuple(
        min(sets[i].values, key=lambda v: (abs(v - xls[i]), v)) for i in range(n)
    )
    r = y - G @ np.array(snapped, dtype=float)
    r0 = math.sqrt(float(np.dot(r, r)))
    return r0 + 1e-9 * (1.0 + r0)
