"""The hooks the benchmark's tracer patches must exist and keep their meaning.

perfbench/tracer.py replaces named functions in cils.assembler and cils.dioph
and reads counters off their return values.  A rename or a changed return
shape would silently break the traced benchmark, so it is pinned here.
"""

import importlib.util
import pathlib

from cils import solve

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists_and_is_callable():
    tracer = load_tracer()
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_solve_counts_match_solve_stats(ex_instance):
    tracer = load_tracer()
    originals = [getattr(module, attr) for module, attr, _ in tracer.TARGETS]
    t = tracer.Tracer()
    with t.patch():
        with t.solve(ex_instance.target_rank):
            res = solve(ex_instance)
    metrics = tracer.pass_metrics(t.arrays(), [res.stats])
    assert metrics["dioph.nodes"] == res.stats.dioph_nodes
    assert metrics["dioph.feasible_rows"] == 7
    assert metrics["spheredec.calls"] == res.stats.sphere_calls
    assert [getattr(module, attr) for module, attr, _ in tracer.TARGETS] == originals


def test_traced_solve_sees_every_narrowing(ex_instance):
    # the search narrows its ranges through the module-level prune_with_column
    # and derives no column sets, since the first cap comes from the root
    # bound, not a Babai radius; a narrowing step moved into a method would
    # vanish from the traced benchmark's prune counts.
    # A column read either takes a candidate, and narrows once per taken
    # candidate, or is stopped by the bound at its first one
    tracer = load_tracer()
    t = tracer.Tracer()
    with t.patch():
        with t.solve(ex_instance.target_rank):
            res = solve(ex_instance)
    metrics = tracer.pass_metrics(t.arrays(), [res.stats])
    assert metrics["assembler.derive_calls"] == 0
    assert res.stats.column_reads > 0
    assert metrics["assembler.prune_calls"] + res.stats.bound_prunes >= res.stats.column_reads
    assert metrics["assembler.backtracks"] == res.stats.rank_rejects
