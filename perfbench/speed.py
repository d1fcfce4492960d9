"""Host-speed probe: times reported at a nominal host speed.

On a shared 2-core host the CPU runs up to a third slower or faster from one
minute to the next, and a cils solve slows down with it, so wall times of the
same solves spread past the benchmark's bounds from one run to the next.  The
benchmark therefore times a fixed computation that does not use cils -- the
probe -- between solves, once PROBE_EVERY_S has passed since the last probe,
and reports each solve's wall time scaled by the probe's nominal time over
its measured time just before and after the solve.  A change to cils cannot
move the probe, so it moves the scaled time as it moves the wall time.  Run
records keep the wall times as well.

A slower host does not slow every kind of work alike: sphere decoding (small
NumPy calls in a Python recursion) slows about as much as a probe of the same
kind, while Diophantine enumeration (building millions of tuples) slows less.
So there are two probes, each a small fixed instance of the work that
dominates a workload's solves, and each workload names its probe.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.3
# probes taken on each side of a timed interval to scale it
WINDOW = 1

_rng = np.random.default_rng(0)
_G = _rng.standard_normal((5, 3))
_Y = _rng.standard_normal(5)
_VALUES = (-2, -1, 0, 1, 2)
_RADIUS = 3.0
_DECODES = 30


def _decode(y: np.ndarray, G: np.ndarray, radius: float) -> list[tuple[tuple[int, ...], float]]:
    """A small sphere decoder of the benchmark's own: every x in {-2..2}^3
    with ||y - G x|| <= radius, found the way a cils decode finds them."""
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    n = G.shape[1]
    Q, R_full = np.linalg.qr(G, mode="complete")
    R = R_full[:n, :].copy()
    Q = Q.copy()
    flip = np.flatnonzero(np.diag(R) < 0)
    R[flip, :] *= -1.0
    Q[:, flip] *= -1.0
    z = Q[:, :n].T @ y
    rest = Q[:, n:].T @ y
    prune = radius * radius
    out: list[tuple[tuple[int, ...], float]] = []
    x = [0] * n

    def descend(i: int, acc: float) -> None:
        b = float(z[i]) - sum(float(R[i, j]) * x[j] for j in range(i + 1, n))
        rii = float(R[i, i])
        rad = math.sqrt(max(prune - acc, 0.0))
        lo = bisect.bisect_left(_VALUES, (b - rad) / rii)
        hi = bisect.bisect_right(_VALUES, (b + rad) / rii)
        for v in _VALUES[lo:hi]:
            step = (b - rii * v) ** 2
            if acc + step > prune:
                continue
            x[i] = v
            if i == 0:
                r = y - G @ np.array(x, dtype=float)
                out.append((tuple(x), float(np.dot(r, r))))
            else:
                descend(i - 1, acc + step)

    descend(n - 1, float(np.dot(rest, rest)))
    out.sort(key=lambda c: (c[1], c[0]))
    return out


def _decodes() -> int:
    return sum(len(_decode(_Y, _G, _RADIUS)) for _ in range(_DECODES))


def _enumerate() -> int:
    """Every vector in {-2..2}^10 with at most 4 nonzeros, built one coordinate
    at a time as tuples and then grouped by first entry, as cils.dioph does."""
    states: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(10):
        states = [
            (path + (v,), nz + (v != 0))
            for path, nz in states
            for v in _VALUES
            if nz + (v != 0) <= 4
        ]
    groups: dict[int, list[tuple[int, ...]]] = {}
    for path, _ in states:
        groups.setdefault(path[0], []).append(path[1:])
    return len(states) + len(groups)


# probe name -> (work, its seconds on an unloaded 2-core Xeon VM); scaled
# times are seconds at that speed
PROBES = {
    "decode": (_decodes, 0.009),
    "enumerate": (_enumerate, 0.12),
}

# the probe each workload's times are scaled by (see workloads.py for what
# dominates each workload's solves)
WORKLOAD_PROBE = {"search_noisy": "decode", "enum_wide": "enumerate", "batch_small": "decode"}


class SpeedLog:
    """The times of one probe in one process, and the scale they give a timed interval."""

    def __init__(self, probe: str) -> None:
        self._work, self.nominal_s = PROBES[probe]
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._work()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def tick(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe ended."""
        if not self.at or time.perf_counter() - self.at[-1] - self.took[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, t: float) -> float:
        """Nominal probe time over the median time of the WINDOW probes on each side of time t."""
        j = bisect.bisect(self.at, t)
        return self.nominal_s / statistics.median(self.took[max(0, j - WINDOW) : j + WINDOW])
