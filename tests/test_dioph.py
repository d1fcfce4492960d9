"""Feasible-set enumeration tests.

The worked 4x7 example pins the exact 7-member feasible set; everything
else is cross-checked against the exhaustive-scan oracle or stated as a
structural property (negation closure, budget monotonicity, equation-order
independence).  A per-path loop over Python tuples, with the same
target-row reach filter, is the reference for both the leaves and the node
count of the array frontier.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cils.dioph as dioph
from cils import (
    Alphabet,
    GenSpec,
    IntMatrix,
    generate_instance,
    hermite_normal_form,
    int_rank,
    oracle_F,
    solve,
    solve_diophantine_sparse,
    tree_leaves,
)
from conftest import FEASIBLE_7, X_A_ROWS

S3 = Alphabet((-1, 0, 1))
S5 = Alphabet((-2, -1, 0, 1, 2))


def reference_enumeration(A: IntMatrix, alphabet: Alphabet, max_nonzeros: int):
    """(sorted leaves, nodes visited) from one Python tuple per partial path.

    Walks the same columns as solve_diophantine_sparse, right to left, with
    each path stored right-to-left: a free column extends every path by each
    alphabet value within the budget, a pivot column imputes the value by
    exact division.  Every extension or imputation attempt is one node.  An
    extension within the budget is kept only if the target row, the HNF row
    with the largest pivot p left of its column, can still cancel the path's
    part of it: |sum of h_k x_k over assigned k| may not exceed max|S| times
    the sum of the K - nz largest |h_k| over the unassigned p..col-1.

    When a target row's free segment p+1..start-1 spans at least JOIN_MIN
    alphabet points, its leftmost half is deferred: the walk skips it, and
    at p every path tries each pivot value (one node each) against every
    vector of the deferred block within the budget, kept when the row sums
    to zero.  The block is built column by column, |S| nodes per block
    vector per column.
    """
    n_cols = A.cols
    pivot_rows = {}
    for row in hermite_normal_form(A).entries:
        pivot_col = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot_col is not None:
            pivot_rows[pivot_col] = row
    max_abs = max(abs(v) for v in alphabet.values)

    def target(col):
        return max((q for q in pivot_rows if q < col), default=None)

    def deferred_columns(start):
        p = target(start)
        if p is None or len(alphabet) ** (start - 1 - p) < dioph.JOIN_MIN:
            return ()
        return tuple(range(p + 1, p + 1 + (start - 1 - p) // 2))

    def assigned(h, path):
        return sum(h[n_cols - 1 - k] * v for k, v in enumerate(path))

    def reachable(path, nz, col):
        p = target(col)
        if p is None:
            return True
        mags = sorted((abs(pivot_rows[p][k]) for k in range(p, col)), reverse=True)
        return abs(assigned(pivot_rows[p], path)) <= max_abs * sum(mags[: max_nonzeros - nz])

    states = [((), 0)]
    nodes = 0
    deferred = deferred_columns(n_cols)
    for col in range(n_cols - 1, -1, -1):
        if col in deferred:
            continue
        out = []
        h = pivot_rows.get(col)
        if h is None:
            for path, nz in states:
                for v in alphabet.values:
                    nodes += 1
                    child = (path + (v,), nz + (v != 0))
                    if child[1] <= max_nonzeros and reachable(*child, col):
                        out.append(child)
        elif deferred:
            block = [((), 0)]
            for _ in deferred:
                nodes += len(block) * len(alphabet)
                block = [
                    (b + (v,), bnz + (v != 0))
                    for b, bnz in block
                    for v in alphabet.values
                    if bnz + (v != 0) <= max_nonzeros
                ]
            for path, nz in states:
                for v in alphabet.values:
                    nodes += 1
                    for b, bnz in block:
                        total = assigned(h, path) + h[col] * v
                        total += sum(h[c] * x for c, x in zip(deferred, b))
                        if total == 0 and nz + (v != 0) + bnz <= max_nonzeros:
                            out.append((path + b[::-1] + (v,), nz + (v != 0) + bnz))
        else:
            for path, nz in states:
                nodes += 1
                val, rem = divmod(-assigned(h, path), h[col])
                if rem == 0 and val in alphabet and nz + (val != 0) <= max_nonzeros:
                    out.append((path + (val,), nz + (val != 0)))
        if h is not None:
            deferred = deferred_columns(col)
        states = out
    return sorted(tuple(reversed(path)) for path, _ in states), nodes


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Alphabet((1, 0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet((0, 0, 1))

    def test_membership(self):
        s = Alphabet((-2, 0, 3))
        assert 3 in s and -2 in s and 1 not in s

    @pytest.mark.parametrize("values", [(-1, 0, 1.5), (-1.0, 0.0, 1.0), ("-1", "0", "1")])
    def test_rejects_non_integers(self, values):
        with pytest.raises(TypeError, match="integer"):
            Alphabet(values)

    def test_integer_types_become_python_ints(self):
        s = Alphabet(tuple(np.array([-2, 0, 5], dtype=np.int16)))
        assert s.values == (-2, 0, 5)
        assert all(type(v) is int for v in s.values)


def matrix(rows) -> IntMatrix:
    return IntMatrix(tuple(tuple(r) for r in rows))


def leaves_of(rows, alphabet, max_nonzeros):
    return tree_leaves(solve_diophantine_sparse(matrix(rows), alphabet, max_nonzeros)[0])


def random_rows(data, p_min, p_max, l_min, l_max, coeff):
    p = data.draw(st.integers(min_value=p_min, max_value=p_max))
    l = data.draw(st.integers(min_value=l_min, max_value=l_max))
    return data.draw(
        st.lists(
            st.lists(st.integers(min_value=-coeff, max_value=coeff), min_size=l, max_size=l),
            min_size=p,
            max_size=p,
        )
    )


class TestSingleEquation:
    """One equation on its own, and one equation added to another."""

    def test_two_term_equation(self):
        # -18 x6 + 18 x7 = 0 forces x6 = x7
        assert leaves_of([(-18, 18)], S3, 2) == [(-1, -1), (0, 0), (1, 1)]

    def test_unit_equation(self):
        assert leaves_of([(1,)], S3, 1) == [(0,)]

    def test_extension_matches_brute_force(self):
        got = leaves_of([(1, 0, 1, 0, -19, 21), (0, 0, 0, 0, -18, 18)], S3, 4)
        base_pairs = {(-1, -1), (0, 0), (1, 1)}
        want = sorted(
            x
            for x in itertools.product(S3.values, repeat=6)
            if (x[4], x[5]) in base_pairs
            and x[0] + x[2] - 19 * x[4] + 21 * x[5] == 0
            and sum(1 for v in x if v) <= 4
        )
        assert got == want

    def test_budget_prunes_partial_paths(self):
        # with budget 0 only the all-zero assignment can survive
        assert leaves_of([(-18, 18)], S3, 0) == [(0, 0)]


class TestWorkedExample:
    def test_exactly_seven_leaves(self, ex_A, s3):
        tree, stats = solve_diophantine_sparse(ex_A, s3, 4)
        leaves = tree_leaves(tree)
        assert len(leaves) == 7
        assert stats.leaves == 7
        assert stats.nodes_visited >= 7

    def test_leaf_set_pinned(self, ex_A, s3):
        leaves = tree_leaves(solve_diophantine_sparse(ex_A, s3, 4)[0])
        assert leaves == FEASIBLE_7

    def test_contains_planted_rows_and_negations(self, ex_A, s3):
        leaves = set(tree_leaves(solve_diophantine_sparse(ex_A, s3, 4)[0]))
        for row in X_A_ROWS:
            assert row in leaves
            assert tuple(-v for v in row) in leaves
        assert (0,) * 7 in leaves

    def test_matches_oracle(self, ex_A, s3):
        assert tree_leaves(solve_diophantine_sparse(ex_A, s3, 4)[0]) == oracle_F(ex_A, s3, 4)

    def test_node_counts_pinned(self, ex_A, s3):
        assert solve_diophantine_sparse(ex_A, s3, 4)[1].nodes_visited == 69
        assert solve_diophantine_sparse(ex_A, S5, 4)[1].nodes_visited == 205


class TestSolveDiophantine:
    def test_single_sum_equation(self):
        tree, _ = solve_diophantine_sparse(IntMatrix(((1, 1),)), S3, 2)
        assert tree_leaves(tree) == [(-1, 1), (0, 0), (1, -1)]

    def test_budget_above_length_rejected(self):
        with pytest.raises(ValueError, match=r"^max_nonzeros: nonzero budget 3 must lie in \[0, 2\]$"):
            solve_diophantine_sparse(IntMatrix(((1, 1),)), S3, 3)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=r"^max_nonzeros: nonzero budget -1 must lie in \[0, 2\]$"):
            solve_diophantine_sparse(IntMatrix(((1, 1),)), S3, -1)

    @pytest.mark.parametrize("budget", [True, 2.0, 2.5, "2"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="max_nonzeros"):
            solve_diophantine_sparse(IntMatrix(((1, 1),)), S3, budget)

    def test_numpy_integer_budget_accepted(self):
        tree, _ = solve_diophantine_sparse(IntMatrix(((1, 1),)), S3, np.int64(2))
        assert tree_leaves(tree) == [(-1, 1), (0, 0), (1, -1)]

    def test_zero_matrix_gives_budgeted_product(self):
        tree, _ = solve_diophantine_sparse(IntMatrix(((0, 0, 0),) * 2), S3, 1)
        want = sorted(
            x for x in itertools.product(S3.values, repeat=3) if sum(1 for v in x if v) <= 1
        )
        assert tree_leaves(tree) == want

    def test_alphabet_without_zero_can_be_empty(self):
        tree, _ = solve_diophantine_sparse(IntMatrix(((1, 0), (0, 1))), Alphabet((1, 2)), 2)
        assert tree_leaves(tree) == []

    def test_empty_tree_has_no_leaves(self):
        assert tree_leaves([]) == []

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.sampled_from([S3, S5]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, p, l, alphabet, data):
        # budgets 1 and 2 are drawn often: there the reach filter's budget
        # term binds hardest
        rows = data.draw(
            st.lists(
                st.lists(st.integers(min_value=-4, max_value=4), min_size=l, max_size=l),
                min_size=p,
                max_size=p,
            )
        )
        A = IntMatrix(tuple(tuple(r) for r in rows))
        k = data.draw(st.sampled_from([1, 2]) | st.integers(min_value=0, max_value=l))
        got = tree_leaves(solve_diophantine_sparse(A, alphabet, k)[0])
        assert got == oracle_F(A, alphabet, k)

    @given(st.data())
    @settings(max_examples=25)
    def test_negation_closure_and_zero_membership(self, data):
        l = data.draw(st.integers(min_value=2, max_value=5))
        p = data.draw(st.integers(min_value=1, max_value=3))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(min_value=-5, max_value=5), min_size=l, max_size=l),
                min_size=p,
                max_size=p,
            )
        )
        k = data.draw(st.integers(min_value=0, max_value=l))
        leaves = set(tree_leaves(solve_diophantine_sparse(IntMatrix(tuple(tuple(r) for r in rows)), S3, k)[0]))
        assert (0,) * l in leaves
        for v in leaves:
            assert tuple(-u for u in v) in leaves

    @given(st.data())
    @settings(max_examples=30)
    def test_monotone_budget_pruning(self, data):
        # budget 0 cuts every nonzero partial path at once: each free column
        # examines |S| values and keeps only 0, and each pivot column counts
        # one node a row, since only the quotient 0 can pass there
        A = matrix(random_rows(data, 1, 4, 2, 7, 4))
        _, stats = solve_diophantine_sparse(A, S3, 0)
        pivots = int_rank(A)
        assert stats.nodes_visited == len(S3) * (A.cols - pivots) + pivots
        assert stats.leaves == 1

    def test_node_count_grows_with_alphabet(self, ex_A):
        _, small = solve_diophantine_sparse(ex_A, S3, 4)
        _, wide = solve_diophantine_sparse(ex_A, S5, 4)
        assert wide.nodes_visited > small.nodes_visited


class TestFrontierArray:
    """F comes back as an |F| x L array in coordinate order, in a small dtype."""

    def test_rows_in_coordinate_order(self, ex_A, s3):
        F, stats = solve_diophantine_sparse(ex_A, s3, 4)
        assert F.shape == (stats.leaves, ex_A.cols)
        for x in F.tolist():
            assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in ex_A.entries)

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ((-1, 0, 1), np.int8),
            ((-2, -1, 0, 1, 2), np.int8),
            ((-200, 0, 3, 150), np.int16),
            ((0, 2**40), np.int64),
            ((-(2**70), 0, 2**70), object),
        ],
    )
    def test_smallest_dtype_holding_the_alphabet(self, ex_A, values, dtype):
        F, _ = solve_diophantine_sparse(ex_A, Alphabet(values), 4)
        assert F.dtype == np.dtype(dtype)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=9),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4, unique=True),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_path_reference(self, p, l, values, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(min_value=-6, max_value=6), min_size=l, max_size=l),
                min_size=p,
                max_size=p,
            )
        )
        A = matrix(rows)
        alphabet = Alphabet(tuple(sorted(values)))
        k = data.draw(st.integers(min_value=0, max_value=l))
        F, stats = solve_diophantine_sparse(A, alphabet, k)
        want_leaves, want_nodes = reference_enumeration(A, alphabet, k)
        assert tree_leaves(F) == want_leaves
        assert stats.nodes_visited == want_nodes
        assert stats.leaves == len(want_leaves)


class TestJoin:
    """The deferred half of a long free segment, joined at its pivot."""

    ALPHABETS = [S3, S5, Alphabet((0, 1)), Alphabet((1, 2)), Alphabet((-3, 0, 2, 5))]

    @given(st.sampled_from(ALPHABETS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_forced_join_matches_oracle_and_reference(self, alphabet, data):
        # with JOIN_MIN = 1 every segment of two or more free columns is
        # split; zeroed columns leave free columns between and before pivots
        max_len = max(l for l in range(1, 11) if len(alphabet) ** l <= 20_000)
        rows = random_rows(data, 1, 3, 1, max_len, 4)
        zero = data.draw(st.sets(st.integers(min_value=0, max_value=len(rows[0]) - 1)))
        A = matrix([[0 if j in zero else v for j, v in enumerate(r)] for r in rows])
        k = data.draw(st.integers(min_value=0, max_value=A.cols))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dioph, "JOIN_MIN", 1)
            F, stats = solve_diophantine_sparse(A, alphabet, k)
            want_leaves, want_nodes = reference_enumeration(A, alphabet, k)
        assert tree_leaves(F) == want_leaves == oracle_F(A, alphabet, k)
        assert stats.nodes_visited == want_nodes

    @pytest.mark.parametrize(
        "rows, values, k",
        [
            # the walk cuts every frontier row, and the block (0 not in S,
            # one column, no nonzero allowed) is empty too
            ([[1, 0, 0]], (1, 2), 0),
            # the frontier is empty but the block is not
            ([[1, 0, 0, 0]], (1, 2), 1),
        ],
        ids=["both-empty", "empty-frontier"],
    )
    def test_empty_frontier_or_block(self, monkeypatch, rows, values, k):
        A, alphabet = matrix(rows), Alphabet(values)
        monkeypatch.setattr(dioph, "JOIN_MIN", 1)
        F, stats = solve_diophantine_sparse(A, alphabet, k)
        want_leaves, want_nodes = reference_enumeration(A, alphabet, k)
        assert F.shape == (0, A.cols)
        assert tree_leaves(F) == want_leaves == oracle_F(A, alphabet, k) == []
        assert stats.nodes_visited == want_nodes

    @pytest.mark.parametrize(
        "rows, alphabet, k",
        [
            ([[1] * 9], S3, 5),
            ([[2, 1, 1, 1, 1, 2, 1, 1, 1], [0, 0, 0, 1, -1, 0, 1, -1, 1]], S3, 4),
        ],
        ids=["ones", "two-rows"],
    )
    def test_frontier_rows_sharing_residual_and_count(self, monkeypatch, rows, alphabet, k):
        # small coefficients give many frontier rows one (s, nz): each such
        # run probes once and its matches go to every row of the run
        seen = []
        join = dioph._join

        def spy(row, pivot, defer, states, s, nz, *rest):
            seen.append((len(states), len(set(zip(s.tolist(), nz.tolist())))))
            return join(row, pivot, defer, states, s, nz, *rest)

        A = matrix(rows)
        monkeypatch.setattr(dioph, "JOIN_MIN", 1)
        monkeypatch.setattr(dioph, "_join", spy)
        F, stats = solve_diophantine_sparse(A, alphabet, k)
        want_leaves, want_nodes = reference_enumeration(A, alphabet, k)
        assert any(n >= 3 * runs for n, runs in seen)
        assert tree_leaves(F) == want_leaves == oracle_F(A, alphabet, k)
        assert len(want_leaves) > 1
        assert stats.nodes_visited == want_nodes

    def test_join_key_beyond_int64_does_not_wrap(self):
        # pivot 0 leaves a 9-column segment, and 3^9 >= JOIN_MIN.  sum |h_k|
        # is below 2**62 but (K + 2) times it is not, so s and the join keys
        # are Python ints.  Columns 1..4 are deferred, and their all-ones
        # block sums to 2**61, whose key 8 * 2**61 + 4 would wrap to 4 in
        # int64 and match the all-zero frontier row; it must not
        a = 2**58
        row = (1, 2 * a, 2 * a, 2 * a, 2 * a, a, -a, a + 1, -(a + 1), -1)
        assert len(S3) ** 9 >= dioph.JOIN_MIN
        assert sum(map(abs, row)) < dioph._INT64_SAFE <= sum(map(abs, row)) * 8
        A = matrix([row])
        F, stats = solve_diophantine_sparse(A, S3, 6)
        assert F.dtype == np.int8
        assert tree_leaves(F) == oracle_F(A, S3, 6)
        assert stats.nodes_visited == reference_enumeration(A, S3, 6)[1]

    def test_alphabet_beyond_int64_through_the_join(self, monkeypatch):
        big = 2**70
        alphabet = Alphabet((-big, 0, big))
        A = matrix(TestUnboundedIntegers.A_HUGE)
        monkeypatch.setattr(dioph, "JOIN_MIN", 1)
        F, stats = solve_diophantine_sparse(A, alphabet, 4)
        assert F.dtype == object
        assert tree_leaves(F) == oracle_F(A, alphabet, 4)
        # pivots 0 and 1: columns 2 and 3 of the segment 2..5 are deferred
        assert stats.nodes_visited == reference_enumeration(A, alphabet, 4)[1] != 82


class TestBlockCache:
    """Joins of one (S, defer, K) share one deferred block, built once."""

    # two single rows over S3 with K = 5: with JOIN_MIN = 1 the pivot at
    # column 0 leaves an 8-column segment, and both defer its 4 left columns
    ROWS = ([[1, 2, -1, 1, 3, 1, -2, 1, 1]], [[2, 1, 1, -3, 1, 2, 0, -1, 1]])

    def enumerate(self, rows):
        F, stats = solve_diophantine_sparse(matrix(rows), S3, 5)
        return F.tobytes(), F.dtype, tree_leaves(F), stats

    def test_shared_block_matches_a_fresh_build(self, monkeypatch):
        # two matrices built in either order: the second reads the first's
        # block, and each gives the F bytes, dtype and nodes of a cold run
        monkeypatch.setattr(dioph, "JOIN_MIN", 1)
        cold = []
        for rows in self.ROWS:
            dioph._block.cache_clear()
            cold.append(self.enumerate(rows))
            assert dioph._block.cache_info().misses == 1
        for order in ((0, 1), (1, 0)):
            dioph._block.cache_clear()
            warm = {i: self.enumerate(self.ROWS[i]) for i in order}
            assert dioph._block.cache_info().hits == 1
            assert [warm[0], warm[1]] == cold
        for rows, (_, _, leaves, stats) in zip(self.ROWS, cold):
            assert (leaves, stats.nodes_visited) == reference_enumeration(matrix(rows), S3, 5)

    @pytest.mark.parametrize("k", [5, 2])
    def test_block_is_every_budgeted_vector_and_read_only(self, k):
        def within(length):
            return [x for x in itertools.product(S3, repeat=length) if sum(map(bool, x)) <= k]

        block, nz_b, nodes = dioph._block(S3.values, 4, k)
        assert sorted(map(tuple, block.tolist())) == within(4)
        assert nz_b.tolist() == [sum(map(bool, x)) for x in block.tolist()]
        # |S| nodes per row per column, counted before the budget cut
        assert nodes == sum(3 * len(within(j)) for j in range(4))
        for a in (block, nz_b):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_cache_size_is_a_constant(self):
        assert dioph._block.cache_info().maxsize == dioph.BLOCKS_KEPT


class TestUnboundedIntegers:
    """A and the alphabet are Python ints of any size; nothing may wrap."""

    A_HUGE = (
        (10**19, 3 * 10**19, -2 * 10**19, 10**19, 0, 5),
        (0, 7, 1, -1, 2 * 10**19, 1),
    )

    @pytest.mark.parametrize(
        "values, nodes",
        [((-1, 0, 1), 82), ((-200, 0, 3, 150), 171), ((1, 2), 6)],
        ids=["S3", "gapped", "zero-free"],
    )
    def test_huge_coefficients_match_oracle(self, values, nodes):
        A, alphabet = matrix(self.A_HUGE), Alphabet(values)
        F, stats = solve_diophantine_sparse(A, alphabet, 4)
        assert tree_leaves(F) == oracle_F(A, alphabet, 4)
        assert stats.nodes_visited == nodes

    def test_alphabet_beyond_int64(self):
        big = 2**70
        F, stats = solve_diophantine_sparse(matrix(self.A_HUGE), Alphabet((-big, 0, big)), 4)
        assert tree_leaves(F) == [(-big, 0, -big, -big, 0, 0), (0,) * 6, (big, 0, big, big, 0, 0)]
        assert stats.nodes_visited == 82

    def test_zero_alphabet_beside_huge_coefficients(self):
        # max|S| = 0 bounds every partial sum by 0, yet the coefficients
        # themselves do not fit in int64
        F, stats = solve_diophantine_sparse(matrix(self.A_HUGE), Alphabet((0,)), 4)
        assert tree_leaves(F) == [(0,) * 6]
        assert F.dtype == np.int8


class TestMemoryWall:
    """Wide S5 shapes whose frontier reached 8.5M rows before the reach filter."""

    @pytest.mark.parametrize(
        "n_cols, nodes, peak_mb, objective",
        [
            # the join at the last pivot: 5,757,810 nodes and a peak near 60 MB
            # without it; 9.4 MB when every join built its own sorted block
            (22, 336_704, 9.4, 20.32868691751819),
            # a tracemalloc peak of 28.0 MB when every frontier row probed the
            # block alone, 12.4 MB when every join built its own sorted block
            (24, 947_268, 12.4, 24.93563921379626),
        ],
        ids=["3x22", "3x24"],
    )
    def test_wide_shape_enumerates_and_solves(self, n_cols, nodes, peak_mb, objective):
        instance, _ = generate_instance(
            GenSpec(3, n_cols, 4, S5, n_constraints=8, sparsity=6, sigma=0.5, seed=1)
        )
        # cold, the join builds its block; warm, it reads the block the cold
        # run left in the cache.  Both give the same F and stay within the peak
        dioph._block.cache_clear()
        runs = []
        for _ in range(2):
            tracemalloc.start()
            try:
                F, stats = solve_diophantine_sparse(instance.A, S5, 6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert stats.nodes_visited == nodes
            assert peak <= peak_mb * 2**20
            runs.append(F.tobytes())
        assert dioph._block.cache_info().hits == 1
        assert runs[0] == runs[1]
        leaves = tree_leaves(F)
        assert len(leaves) == stats.leaves == 29
        for x in leaves:
            assert all(v in S5 for v in x)
            assert sum(1 for v in x if v) <= 6
            assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in instance.A.entries)
        res = solve(instance)
        assert res.stats.dioph_nodes == stats.nodes_visited
        assert res.objective == pytest.approx(objective, rel=1e-9)


class TestEquationOrder:
    """Neither the leaf set nor the work may depend on the order of A's rows."""

    @given(st.data())
    @settings(max_examples=20)
    def test_any_row_order_gives_same_leaves(self, data):
        rows = random_rows(data, 2, 4, 3, 6, 3)
        k = data.draw(st.integers(min_value=1, max_value=len(rows[0])))
        shuffled = data.draw(st.permutations(rows))
        ref, ref_stats = solve_diophantine_sparse(matrix(rows), S3, k)
        got, got_stats = solve_diophantine_sparse(matrix(shuffled), S3, k)
        assert tree_leaves(got) == tree_leaves(ref)
        assert got_stats.nodes_visited == ref_stats.nodes_visited
