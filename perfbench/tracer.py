"""Layer spans for a traced benchmark pass, recorded from outside the program.

`Tracer.patch()` replaces the layer entry points in the namespaces that call
them -- `cils.assembler` imports the dioph, intlin and spheredec functions
into its own namespace, and `cils.dioph` imports `hermite_normal_form` -- and
puts the originals back on exit.  The benchmark opens one `solve` span around
each `cils.solve` call; every span records its name, start, end, parent and
the id of the solve it belongs to, plus one integer payload (see PAYLOAD).
Spans live in flat arrays so a pass with several hundred thousand decodes
stays small in memory.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

import cils.assembler
import cils.dioph

SOLVE = "assembler.solve"

# (module, attribute, span name): the calls each layer receives from the solve
TARGETS = (
    (cils.dioph, "hermite_normal_form", "intlin.hnf"),
    (cils.assembler, "int_rank", "intlin.rank"),
    (cils.assembler, "solve_diophantine_sparse", "dioph.enum"),
    (cils.assembler, "tree_leaves", "dioph.leaves"),
    (cils.assembler, "sphere_decode", "spheredec.decode"),
    (cils.assembler, "babai_radius", "spheredec.babai"),
    (cils.assembler, "derive_column_sets", "assembler.derive"),
    (cils.assembler, "prune_with_column", "assembler.prune"),
    (cils.assembler, "verify_solution", "assembler.verify"),
)
NAMES = (SOLVE,) + tuple(name for _, _, name in TARGETS)
NAME_ID = {name: i for i, name in enumerate(NAMES)}

# integer recorded per span, taken from the call's return value
PAYLOAD = {
    "intlin.rank": lambda r: r,
    "dioph.enum": lambda r: r[1].nodes_visited,
    "dioph.leaves": len,
    "spheredec.decode": len,
}

# per-pass counters that must repeat exactly for the same instance list
EXACT = (
    "intlin.hnf_calls",
    "intlin.rank_calls",
    "dioph.nodes",
    "dioph.feasible_rows",
    "spheredec.calls",
    "spheredec.candidates",
    "assembler.derive_calls",
    "assembler.prune_calls",
    "assembler.leaves",
    "assembler.rank_rejects",
    "assembler.radius_expansions",
    "assembler.backtracks",
)


class Tracer:
    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("l")
        self.solve_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack: list[int] = []
        self._solve = -1

    def _open(self, name_id: int, value: int = 0) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_id.append(self._solve)
        self.value.append(value)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def solve(self, target_rank: int):
        """Span around one cils.solve call; its payload is the target rank."""
        self._solve += 1
        idx = self._open(NAME_ID[SOLVE], target_rank)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = NAME_ID[name]
        payload = PAYLOAD.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if payload is not None:
                self.value[idx] = payload(result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Install the span wrappers; always restores the originals."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        fields = ("name", "parent", "solve_id", "start", "end", "value")
        return {f: np.array(getattr(self, f)) for f in fields}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def layer_table(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    table = {}
    for i, name in enumerate(NAMES):
        mask = spans["name"] == i
        table[name] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_s[mask].sum()),
        }
    return table


def pass_metrics(spans: dict[str, np.ndarray], stats: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the whole instance list.

    `stats` holds the SolveStats of the pass's successful solves.  A leaf rank
    check is an int_rank span whose parent is the solve span, apart from each
    solve's first one, which checks the rank of the feasible set.
    """
    table = layer_table(spans)
    name, parent, value = spans["name"], spans["parent"], spans["value"]

    def count(n: str) -> int:
        return table[n]["calls"]

    def total(n: str) -> float:
        return table[n]["total_s"]

    def payload(n: str) -> np.ndarray:
        return value[name == NAME_ID[n]]

    rank_idx = np.flatnonzero((name == NAME_ID["intlin.rank"]) & (parent >= 0))
    under_solve = rank_idx[name[parent[rank_idx]] == NAME_ID[SOLVE]]
    # spans are appended in call order, so a solve's first child rank check
    # is the first index among those sharing its parent
    _, first = np.unique(parent[under_solve], return_index=True)
    leaves = np.delete(under_solve, first)
    target = value[parent[leaves]]
    rejects = int(np.sum(value[leaves] != target))

    nodes = int(payload("dioph.enum").sum())
    rows = int(payload("dioph.leaves").sum())
    calls = count("spheredec.decode")
    cands = payload("spheredec.decode")
    return {
        "intlin.hnf_calls": count("intlin.hnf"),
        "intlin.hnf_s": total("intlin.hnf"),
        "intlin.rank_calls": count("intlin.rank"),
        "intlin.rank_s": total("intlin.rank"),
        "dioph.nodes": nodes,
        "dioph.enum_s": table["dioph.enum"]["self_s"],
        "dioph.leaves_s": total("dioph.leaves"),
        "dioph.feasible_rows": rows,
        "dioph.useful_frac": rows / nodes if nodes else 0.0,
        "spheredec.calls": calls,
        "spheredec.s": total("spheredec.decode"),
        "spheredec.us_per_call": 1e6 * total("spheredec.decode") / calls if calls else 0.0,
        "spheredec.candidates": int(cands.sum()),
        "spheredec.nonempty_frac": float(np.mean(cands > 0)) if calls else 0.0,
        "spheredec.babai_s": total("spheredec.babai"),
        "assembler.self_s": table[SOLVE]["self_s"],
        "assembler.derive_calls": count("assembler.derive"),
        "assembler.derive_s": total("assembler.derive"),
        "assembler.prune_calls": count("assembler.prune"),
        "assembler.prune_s": total("assembler.prune"),
        "assembler.leaves": len(leaves),
        "assembler.rank_rejects": rejects,
        "assembler.leaf_accept_frac": (len(leaves) - rejects) / len(leaves) if len(leaves) else 0.0,
        "assembler.radius_expansions": sum(s.radius_expansions for s in stats),
        "assembler.backtracks": sum(s.backtracks for s in stats),
        "assembler.verify_s": total("assembler.verify"),
    }
