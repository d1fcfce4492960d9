"""Exact integer linear algebra tests.

Expected values come from three independent sources: the hand-checked 4x7
worked example (decomposition pinned in conftest), sympy as a computer
algebra reference (determinants included, for the unimodularity check), and
a local rational-elimination rank oracle written directly against
fractions.Fraction.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cils import (
    IntMatrix,
    hermite_decomposition,
    hermite_normal_form,
    int_rank,
    validate_hnf,
)
from conftest import A_ROWS, H_REF_ROWS, U_REF_ROWS, X_A_ROWS


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction; the local rank oracle."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
).map(lambda rows: IntMatrix(tuple(tuple(r) for r in rows)))


class TestIntMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix(())

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            IntMatrix(((1.5, 2),))

    def test_matmul_identity(self):
        A = IntMatrix(A_ROWS)
        assert IntMatrix.identity(4) @ A == A

    def test_transpose_involution(self):
        A = IntMatrix(A_ROWS)
        assert A.transpose().transpose() == A


class TestHermiteNormalForm:
    def test_identity(self):
        H, U = hermite_decomposition(IntMatrix.identity(3))
        assert H == IntMatrix.identity(3)
        assert U == IntMatrix.identity(3)
        assert hermite_normal_form(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_decomposition_h_is_the_normal_form(self, ex_A):
        H, U = hermite_decomposition(ex_A)
        assert H == hermite_normal_form(ex_A)
        # the transform the single elimination on [A | I] produces
        assert U.entries == ((2, 1, 1, -10), (4, 2, -1, -19), (3, 1, -2, -12), (5, 2, -2, -22))

    @given(int_matrices)
    def test_transform_matches_one_elimination_beside_identity(self, A):
        # with full row rank every pivot lies in A's columns, so the HNF of
        # [A | I] is H beside the U of the same elimination
        assume(int_rank(A) == A.rows)
        H, U = hermite_decomposition(A)
        eye = IntMatrix.identity(A.rows).entries
        full = hermite_normal_form(IntMatrix(tuple(a + e for a, e in zip(A.entries, eye))))
        assert full.entries == tuple(h + u for h, u in zip(H.entries, U.entries))

    def test_reference_pair_validates(self):
        assert validate_hnf(IntMatrix(H_REF_ROWS), IntMatrix(U_REF_ROWS), IntMatrix(A_ROWS))

    def test_reference_pair_is_not_canonical(self):
        # its last nonzero row has pivot -18; our output normalizes signs
        assert H_REF_ROWS[3][5] == -18
        ours = hermite_normal_form(IntMatrix(A_ROWS))
        pivots = []
        for row in ours.entries:
            nz = [v for v in row if v != 0]
            if nz:
                pivots.append(nz[0])
        assert all(p > 0 for p in pivots)

    def test_own_output_validates_on_worked_example(self, ex_A):
        H, U = hermite_decomposition(ex_A)
        assert validate_hnf(H, U, ex_A)

    def test_reduction_above_pivots(self, ex_A):
        H = hermite_normal_form(ex_A)
        for r, row in enumerate(H.entries):
            piv_col = next((j for j, v in enumerate(row) if v != 0), None)
            if piv_col is None:
                continue
            p = row[piv_col]
            for r_above in range(r):
                assert 0 <= H.entries[r_above][piv_col] < p

    def test_validate_rejects_scaled_transform(self):
        U2 = IntMatrix(tuple(tuple(2 * v for v in row) for row in U_REF_ROWS))
        assert not validate_hnf(IntMatrix(H_REF_ROWS), U2, IntMatrix(A_ROWS))

    def test_validate_rejects_non_echelon(self):
        H = IntMatrix(((0, 1), (1, 0)))
        U = IntMatrix(((0, 1), (1, 0)))
        A = IntMatrix(((1, 0), (0, 1)))
        assert not validate_hnf(H, U, A)

    def test_validate_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            validate_hnf(IntMatrix(((1,),)), IntMatrix(((1, 0), (0, 1))), IntMatrix(((1,),)))

    @given(int_matrices)
    def test_random_validates_and_matches_sympy(self, A):
        H, U = hermite_decomposition(A)
        assert H == hermite_normal_form(A)
        assert validate_hnf(H, U, A)
        # row-space equality against sympy: stacking our H on A must not
        # raise the rank, and both must agree on the rank itself
        sy_A = sympy.Matrix(A.entries)
        sy_H = sympy.Matrix(H.entries)
        stacked = sy_A.col_join(sy_H)
        assert sy_A.rank() == sy_H.rank() == stacked.rank()
        assert abs(sympy.Matrix(U.entries).det()) == 1

    def test_sympy_hnf_of_transpose_agrees_on_row_space(self, ex_A):
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

        # sympy's routine works column-style, so feed it the transpose
        ours = hermite_normal_form(ex_A)
        ref = sympy_hnf(sympy.Matrix(ex_A.transpose().entries)).T
        stacked = sympy.Matrix(ours.entries).col_join(ref)
        assert stacked.rank() == sympy.Matrix(ours.entries).rank() == ref.rank()

    @given(int_matrices)
    @settings(max_examples=25)
    def test_nullspace_preserved_small(self, A):
        if A.cols > 4:
            return
        H = hermite_normal_form(A)
        for x in itertools.product((-1, 0, 1), repeat=A.cols):
            in_a = all(sum(a * v for a, v in zip(row, x)) == 0 for row in A.entries)
            in_h = all(sum(h * v for h, v in zip(row, x)) == 0 for row in H.entries)
            assert in_a == in_h


@st.composite
def stopped_matrices(draw):
    """Matrices of 1-6 rows whose rows are small combinations of 1-4 base rows.

    Base entries come from 0, +-1, +-7 and +-10**19, so most draws are rank
    deficient and many carry entries far past 64 bits.
    """
    cols = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 1, -1, 7, -7, 10**19, -(10**19)))
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=4))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    rows = [
        tuple(sum(c * b[k] for c, b in zip(cs, base)) for k in range(cols))
        for cs in draw(st.lists(coeffs, min_size=1, max_size=6))
    ]
    return IntMatrix(tuple(rows))


class TestIntRank:
    def test_worked_solution_has_rank_three(self):
        assert int_rank(IntMatrix(X_A_ROWS)) == 3

    def test_zero_matrix(self):
        assert int_rank(IntMatrix(((0,) * 5,) * 3)) == 0

    def test_single_row(self):
        assert int_rank(IntMatrix(((0, 0, 7),))) == 1

    @given(int_matrices)
    def test_agrees_with_fraction_oracle(self, A):
        assert int_rank(A) == fraction_rank(A.entries)

    @given(stopped_matrices())
    @example(IntMatrix(((10**19, -(10**19), 0), (-(10**19), 10**19, 0), (0, 0, 0), (1, -1, 10**19))))
    def test_stop_caps_the_rank(self, A):
        rank = fraction_rank(A.entries)
        assert int_rank(A) == int_rank(A, stop=None) == rank
        for stop in range(1, A.rows + 2):
            assert int_rank(A, stop=stop) == min(rank, stop)

    def test_stop_reads_no_row_past_the_stopth_independent_one(self):
        read = []

        class Recording(tuple):
            def __iter__(self):
                for row in tuple.__iter__(self):
                    read.append(row)
                    yield row

        rows = ((0, 0, 0, 0), (1, 2, 3, 0), (-2, -4, -6, 0), (0, 1, 0, 0), (5, 5, 5, 0), (0, 0, 1, 0))
        A = IntMatrix(rows)
        object.__setattr__(A, "entries", Recording(rows))
        assert int_rank(A, stop=2) == 2
        assert read == list(rows[:4])
        read.clear()
        assert int_rank(A) == 3
        assert read == list(rows)

    @pytest.mark.parametrize("stop", [True, False, 0, -1, 2.0, "2"])
    def test_stop_must_be_a_positive_int(self, stop):
        with pytest.raises(ValueError, match="stop"):
            int_rank(IntMatrix(((1, 0), (0, 1))), stop=stop)

    @given(int_matrices)
    def test_invariant_under_row_negation_and_swap(self, A):
        rows = list(A.entries)
        negated = IntMatrix(tuple(tuple(-v for v in row) for row in rows))
        assert int_rank(negated) == int_rank(A)
        swapped = IntMatrix(tuple(reversed(rows)))
        assert int_rank(swapped) == int_rank(A)

    @given(int_matrices)
    @settings(max_examples=25)
    def test_invariant_under_unimodular_transform(self, A):
        _, U = hermite_decomposition(
            IntMatrix(tuple(tuple((i * 3 + j * 5 + 1) % 7 - 3 for j in range(A.rows)) for i in range(A.rows)))
        )
        assert abs(sympy.Matrix(U.entries).det()) == 1
        assert int_rank(U @ A) == int_rank(A)


# square matrices that are often unimodular: small entries, or the transform
# of a random matrix's Hermite decomposition
square_matrices = st.one_of(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ).map(lambda rows: IntMatrix(tuple(tuple(r) for r in rows))),
    int_matrices.map(lambda A: hermite_decomposition(A)[1]),
)


class TestUnimodularity:
    """validate_hnf's check that U is unimodular, i.e. that its HNF is I.

    With A a zero column, H = U A is zero and trivially echelon, so
    validate_hnf(0, U, 0) holds exactly when U is unimodular.
    """

    def test_identity(self):
        assert validate_hnf(IntMatrix(((0,),) * 4), IntMatrix.identity(4), IntMatrix(((0,),) * 4))

    def test_singular_transform_rejected(self):
        U = IntMatrix(((1, 2), (2, 4)))
        assert not validate_hnf(IntMatrix(((0,),) * 2), U, IntMatrix(((0,),) * 2))

    def test_determinant_two_transform_rejected(self):
        # H = U A is in echelon form, so only the unimodularity check can fail
        U = IntMatrix(((2, 0), (0, 1)))
        A = IntMatrix.identity(2)
        assert U @ A == U
        assert not validate_hnf(U, U, A)

    def test_non_square_transform_raises(self):
        with pytest.raises(ValueError, match="square"):
            validate_hnf(IntMatrix(((0,),)), IntMatrix(((1, 2, 3),)), IntMatrix(((0,),)))

    def test_reference_transform_is_unimodular(self):
        assert validate_hnf(IntMatrix(((0,),) * 4), IntMatrix(U_REF_ROWS), IntMatrix(((0,),) * 4))

    @given(square_matrices)
    @settings(max_examples=60)
    def test_agrees_with_sympy_det(self, U):
        unimodular = abs(sympy.Matrix(U.entries).det()) == 1
        assert validate_hnf(IntMatrix(((0,),) * U.rows), U, IntMatrix(((0,),) * U.rows)) == unimodular
