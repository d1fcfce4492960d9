"""Acceptance gate: nine criteria, one test and one printed verdict line each.

Each criterion is a self-contained check with its tolerance stated inline.
The verdict lines are echoed immediately (visible under pytest -s) and also
collected into REPORT_LINES, which conftest prints in the terminal summary
so a plain `pytest` run always shows the nine lines.
"""

import functools
import itertools
import statistics
import time

import numpy as np

from cils import (
    Alphabet,
    GenSpec,
    IntMatrix,
    babai_radius,
    generate_instance,
    hermite_decomposition,
    oracle_F,
    oracle_solve,
    oracle_sphere,
    solve,
    solve_diophantine_sparse,
    solve_ils_eq,
    sphere_decode,
    tree_leaves,
    validate_hnf,
    verify_solution,
)
from cils.assembler import RangeBound, derive_column_sets, prune_with_column
from cils.cli import load_instance
from cils.harness import trial_seeds
from conftest import A_ROWS, FEASIBLE_7, H_REF_ROWS, U_REF_ROWS, X_A_ROWS

S3 = Alphabet((-1, 0, 1))
S5 = Alphabet((-2, -1, 0, 1, 2))

REPORT_LINES: list[str] = []


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"criterion {num} ({label}): FAIL"
                REPORT_LINES.append(line)
                print(line)
                raise
            line = f"criterion {num} ({label}): PASS"
            REPORT_LINES.append(line)
            print(line)

        return wrapper

    return deco


@criterion(1, "worked-fixture end-to-end recovery under 1 s")
def test_criterion_1_fixture_end_to_end(ex_file):
    t0 = time.perf_counter()
    instance = load_instance(ex_file)
    result = solve(instance)
    elapsed = time.perf_counter() - t0
    assert result.X == IntMatrix(X_A_ROWS)
    assert elapsed < 1.0


@criterion(2, "feasible set has exactly the 7 known members")
def test_criterion_2_feasible_cardinality(ex_A):
    tree, stats = solve_diophantine_sparse(ex_A, S3, 4)
    leaves = tree_leaves(tree)
    assert len(leaves) == 7
    assert stats.leaves == 7
    assert leaves == FEASIBLE_7
    for row in X_A_ROWS:
        assert row in leaves
        assert tuple(-v for v in row) in leaves
    assert (0,) * 7 in leaves
    assert leaves == oracle_F(ex_A, S3, 4)


@criterion(3, "per-column pruning trace matches the known fixture walk")
def test_criterion_3_pruning_trace(ex_instance, ex_Y, ex_G):
    F, _ = solve_diophantine_sparse(ex_instance.A, S3, 4)
    bound = RangeBound(ex_instance, tree_leaves(F))
    spans = bound.root[0]

    sets1 = derive_column_sets(bound, spans, 0)
    assert [a.values for a in sets1] == [(-1, 0, 1)] * 3
    x1 = sphere_decode(ex_Y[:, 0], ex_G, 0.5, sets1)[0].x
    assert x1 == (1, 0, 0)
    spans, _ = prune_with_column(bound, spans, 0, x1)

    sets2 = derive_column_sets(bound, spans, 1)
    assert [a.values for a in sets2] == [(1,), (-1, 0, 1), (-1, 0, 1)]
    x2 = sphere_decode(ex_Y[:, 1], ex_G, 0.5, sets2)[0].x
    assert x2 == (1, -1, 1)
    spans, _ = prune_with_column(bound, spans, 1, x2)

    sets3 = derive_column_sets(bound, spans, 2)
    assert [a.values for a in sets3] == [(-1,), (-1, 0), (0, 1)]
    x3 = sphere_decode(ex_Y[:, 2], ex_G, 0.5, sets3)[0].x
    assert x3 == (-1, -1, 0)


@criterion(4, "200 random Hermite decompositions validate with equal null spaces")
def test_criterion_4_hnf_property_suite():
    assert validate_hnf(IntMatrix(H_REF_ROWS), IntMatrix(U_REF_ROWS), IntMatrix(A_ROWS))
    rng = np.random.default_rng(404)
    powers = {}
    for _ in range(200):
        p = int(rng.integers(1, 9))
        l = int(rng.integers(1, 13))
        A = IntMatrix(tuple(tuple(int(v) for v in row) for row in rng.integers(-9, 10, size=(p, l))))
        H, U = hermite_decomposition(A)
        assert validate_hnf(H, U, A)
        # null-space equivalence over the full {-1,0,1}^l grid
        if l not in powers:
            idx = np.arange(3**l, dtype=np.int64)
            digits = (idx[:, None] // (3 ** np.arange(l, dtype=np.int64))[None, :]) % 3
            powers[l] = np.array([-1, 0, 1], dtype=np.int64)[digits]
        grid = powers[l]
        A_np = np.array(A.entries, dtype=np.int64)
        H_np = np.array(H.entries, dtype=np.int64)
        if np.max(np.abs(H_np)) < 2**40:
            in_a = np.all(A_np @ grid.T == 0, axis=0)
            in_h = np.all(H_np @ grid.T == 0, axis=0)
            assert np.array_equal(in_a, in_h)
        else:  # huge entries: repeat the check in exact arithmetic
            for x in itertools.product((-1, 0, 1), repeat=l):
                in_a = all(sum(a * v for a, v in zip(row, x)) == 0 for row in A.entries)
                in_h = all(sum(h * v for h, v in zip(row, x)) == 0 for row in H.entries)
                assert in_a == in_h


@criterion(5, "sphere decoder equals the scan oracle on 100 instances in under 10 s")
def test_criterion_5_sphere_oracle_equivalence():
    rng = np.random.default_rng(505)
    pool = [(-1, 0, 1), (-2, -1, 0, 1, 2), (0, 1), (-3, 0, 2), (-2, 0, 1, 3), (1, 2, 3)]
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n, n + 4))
        G = rng.standard_normal((m, n))
        y = rng.standard_normal(m) * 2.0
        sets = tuple(Alphabet(pool[int(rng.integers(len(pool)))]) for _ in range(n))
        d = float(rng.uniform(0.3, 3.0))
        mine = sphere_decode(y, G, d, sets)
        ref = oracle_sphere(y, G, d, sets)
        assert [c.x for c in mine] == [c.x for c in ref]
        for a, b in zip(mine, ref):
            assert abs(a.dist2 - b.dist2) <= 1e-9 * max(1.0, b.dist2)
    assert time.perf_counter() - t0 < 10.0


@criterion(6, "solver is oracle-optimal and fully feasible on 25 noisy instances")
def test_criterion_6_global_optimality():
    rng = np.random.default_rng(606)
    for k in range(25):
        n = int(rng.integers(2, 4))
        l = int(rng.integers(max(n, 4), 8))
        spec = GenSpec(
            n_rows=n,
            n_cols=l,
            n_meas=n + 1,
            alphabet=S3,
            sparsity=min(4, l),
            sigma=0.2,
            seed=1000 + k,
        )
        instance, _ = generate_instance(spec)
        result = solve(instance)
        verify_solution(instance, result.X)
        reference = oracle_solve(instance)
        assert abs(result.objective - reference.objective) <= 1e-9 * max(
            1.0, abs(reference.objective)
        )


@criterion(7, "planted solution recovered in at least 4 of 5 noisy trials")
def test_criterion_7_exact_recovery():
    spec = GenSpec(
        n_rows=3, n_cols=7, n_meas=4, alphabet=S3, sparsity=4, sigma=0.2, seed=0, trials=5
    )
    recovered = 0
    for tseed in trial_seeds(spec):
        instance, planted = generate_instance(
            GenSpec(
                n_rows=3, n_cols=7, n_meas=4, alphabet=S3, sparsity=4, sigma=0.2, seed=tseed
            )
        )
        result = solve(instance)
        verify_solution(instance, result.X)
        recovered += int(result.X == planted)
    assert recovered >= 4


@criterion(8, "node count is nondecreasing in length and grows with the alphabet")
def test_criterion_8_scaling_trend():
    def avg_nodes(alphabet, n_cols):
        nodes = []
        for seed in range(5):
            spec = GenSpec(
                n_rows=3, n_cols=n_cols, n_meas=4, alphabet=alphabet, sigma=0.2, seed=seed
            )
            instance, _ = generate_instance(spec)
            nodes.append(solve(instance).stats.dioph_nodes)
        return statistics.fmean(nodes)

    by_length = [avg_nodes(S3, l) for l in (5, 7, 9)]
    assert by_length[0] <= by_length[1] <= by_length[2]
    assert avg_nodes(S5, 7) > by_length[1]


@criterion(9, "vector solver: exact mode is the argmin, heuristic never beats it")
def test_criterion_9_vector_solver_contract():
    rng = np.random.default_rng(909)
    for k in range(50):
        l = int(rng.integers(4, 8))
        m = int(rng.integers(l, l + 3))
        k_budget = min(4, l)
        spec = GenSpec(
            n_rows=1, n_cols=l, n_meas=1, alphabet=S3, sparsity=k_budget, sigma=0.2,
            seed=4000 + k,
        )
        instance, planted = generate_instance(spec)
        A = instance.A
        G = rng.standard_normal((m, l))
        y = G @ np.array(planted.entries[0], dtype=float) + 0.2 * rng.standard_normal(m)

        def resid(v):
            r = y - G @ np.array(v, dtype=float)
            return float(r @ r)

        exact = solve_ils_eq(y, G, A, S3, k_budget, mode="exact")
        heur = solve_ils_eq(y, G, A, S3, k_budget, mode="heuristic")
        feasible = tree_leaves(solve_diophantine_sparse(A, S3, k_budget)[0])
        assert exact == min(feasible, key=lambda v: (resid(v), v))
        assert resid(heur) >= resid(exact) - 1e-12
        # when the unconstrained decode lands inside the feasible set the
        # heuristic must match the exact objective
        sets = (S3,) * l
        anchor = sphere_decode(y, G, babai_radius(y, G, sets), sets)[0].x
        if anchor in set(feasible):
            assert abs(resid(heur) - resid(exact)) <= 1e-9
