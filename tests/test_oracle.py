"""Brute-force oracle behavior: budgets, determinism, and its own pinned values.

The oracles are the reference for everything else, so their tests avoid the
production modules entirely where possible and lean on hand-checkable cases.
"""

import itertools

import numpy as np
import pytest

from cils import (
    Alphabet,
    BudgetExceededError,
    IntMatrix,
    InfeasibleError,
    OracleBudget,
    ProblemInstance,
    oracle_F,
    oracle_solve,
    oracle_sphere,
)
from conftest import FEASIBLE_7

S3 = Alphabet((-1, 0, 1))


class TestOracleBudget:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OracleBudget(0)

    def test_check_passes_within(self):
        OracleBudget(10).check(10, "ok")

    def test_check_refuses_above(self):
        with pytest.raises(BudgetExceededError):
            OracleBudget(10).check(11, "too big")


class TestOracleF:
    def test_worked_example_seven_vectors(self, ex_A, s3):
        assert oracle_F(ex_A, s3, 4) == FEASIBLE_7

    def test_zero_rows_give_budgeted_product(self):
        A = IntMatrix(((0, 0, 0),))
        got = oracle_F(A, S3, 1)
        want = sorted(
            x for x in itertools.product(S3.values, repeat=3) if sum(1 for v in x if v) <= 1
        )
        assert got == list(want)

    def test_lexicographic_order(self, ex_A, s3):
        got = oracle_F(ex_A, s3, 4)
        assert got == sorted(got)

    def test_negation_closure_for_symmetric_alphabet(self, ex_A, s3):
        got = set(oracle_F(ex_A, s3, 4))
        for v in got:
            assert tuple(-u for u in v) in got

    def test_budget_refusal(self, ex_A, s3):
        with pytest.raises(BudgetExceededError):
            oracle_F(ex_A, s3, 4, OracleBudget(100))

    def test_deterministic(self, ex_A, s3):
        assert oracle_F(ex_A, s3, 4) == oracle_F(ex_A, s3, 4)


class TestOracleSolve:
    def test_worked_example_returns_planted(self, ex_instance, ex_X):
        res = oracle_solve(ex_instance)
        assert res.X == ex_X
        assert res.objective <= 1e-18

    def test_noiseless_unique_recovery(self, s3):
        A = IntMatrix(((1, -1, 0, 0), (0, 0, 1, 1)))
        X0 = IntMatrix(((1, 1, 0, 0), (0, 0, 1, -1)))
        rng = np.random.default_rng(3)
        G = np.abs(rng.standard_normal((3, 2)))
        Y = G @ np.array(X0.entries, dtype=float)
        inst = ProblemInstance(Y=Y, G=G, A=A, alphabet=s3, sparsity=2, target_rank=2)
        res = oracle_solve(inst)
        assert res.X == X0
        assert res.objective <= 1e-24

    def test_infeasible_raises_with_certificate(self, s3):
        inst = ProblemInstance(
            Y=np.ones((2, 2)),
            G=np.ones((2, 1)),
            A=IntMatrix.identity(2),
            alphabet=s3,
            sparsity=1,
            target_rank=1,
        )
        with pytest.raises(InfeasibleError) as exc_info:
            oracle_solve(inst)
        assert exc_info.value.feasible_rank == 0

    def test_stack_budget_refusal(self, s3):
        # unconstrained A gives |F| = 3^5 = 243 rows; 243^3 stacks blow the cap
        inst = ProblemInstance(
            Y=np.zeros((3, 5)),
            G=np.eye(3),
            A=IntMatrix(((0,) * 5,)),
            alphabet=s3,
            sparsity=5,
            target_rank=3,
        )
        with pytest.raises(BudgetExceededError):
            oracle_solve(inst, OracleBudget(10_000))


class TestOracleSphere:
    def test_worked_example_first_column_minimum(self, ex_Y, ex_G):
        got = oracle_sphere(ex_Y[:, 0], ex_G, 0.5, (S3,) * 3)
        assert got[0].x == (1, 0, 0)

    def test_zero_radius_off_lattice_empty(self):
        got = oracle_sphere(np.array([0.4, 0.4]), np.eye(2), 0.0, (S3,) * 2)
        assert got == []

    def test_zero_radius_exact_hit(self):
        got = oracle_sphere(np.array([1.0, -1.0]), np.eye(2), 0.0, (S3,) * 2)
        assert [c.x for c in got] == [(1, -1)]

    def test_budget_refusal(self):
        sets = (Alphabet(tuple(range(-5, 6))),) * 8
        with pytest.raises(BudgetExceededError):
            oracle_sphere(np.zeros(8), np.eye(8), 1.0, sets, OracleBudget(1000))

    def test_shape_mismatch_rejected(self):
        # worded like sphere_decode's checks; a short y must not broadcast
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="expected a length-3 vector, got 1"):
            oracle_sphere(np.array([0.2]), G, 1.0, (S3,) * 2)
        with pytest.raises(ValueError, match="need 2 candidate sets, got 3"):
            oracle_sphere(np.zeros(3), G, 1.0, (S3,) * 3)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            oracle_sphere(np.zeros(2), np.eye(2), -1.0, (S3,) * 2)
