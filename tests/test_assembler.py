"""Full-solver tests: worked-example recovery, the pruning trace, oracle
optimality on random instances, infeasibility detection, and the vector
special case.
"""

import dataclasses
import itertools
import math
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cils.assembler
from cils import (
    Alphabet,
    InfeasibleError,
    IntMatrix,
    PreparedLattice,
    ProblemInstance,
    babai_radius,
    generate_instance,
    GenSpec,
    int_rank,
    objective,
    oracle_F,
    oracle_solve,
    solve,
    solve_diophantine_sparse,
    solve_ils_eq,
    sphere_decode,
    tree_leaves,
    verify_solution,
)
from cils.assembler import (
    RangeBound,
    _line,
    _settled_rows_dependent,
    _split,
    derive_column_sets,
    prune_with_column,
)
from cils.harness import load_specs, trial_seeds
from conftest import FEASIBLE_7, X_A_ROWS

S3 = Alphabet((-1, 0, 1))
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
HARD_TIER = SCRIPTS / "hard_tier.json"
STRETCH_TIER = SCRIPTS / "stretch_tier.json"
NOISY_TIER = SCRIPTS / "noisy_tier.json"


@pytest.fixture
def ex_bound(ex_instance):
    """A fresh RangeBound of the worked example: its caches start empty."""
    F, _ = solve_diophantine_sparse(ex_instance.A, ex_instance.alphabet, ex_instance.sparsity)
    return RangeBound(ex_instance, tree_leaves(F))


class TestProblemInstance:
    def test_shape_mismatch_rejected(self, ex_Y, ex_G, ex_A, s3):
        with pytest.raises(ValueError):
            ProblemInstance(Y=ex_Y[:, :5], G=ex_G, A=ex_A, alphabet=s3, sparsity=4, target_rank=3)

    def test_sparsity_above_length_rejected(self, ex_Y, ex_G, ex_A, s3):
        with pytest.raises(ValueError):
            ProblemInstance(Y=ex_Y, G=ex_G, A=ex_A, alphabet=s3, sparsity=9, target_rank=3)

    @pytest.mark.parametrize(
        "field, value",
        [("sparsity", 2.5), ("sparsity", 4.0), ("sparsity", True), ("sparsity", "4"),
         ("target_rank", 3.0)],
    )
    def test_non_integer_budget_or_rank_rejected(self, ex_Y, ex_G, ex_A, s3, field, value):
        # a float slices no row and a bool is not a count: both are refused
        # when the instance is built, not deep inside the solve
        kwargs = {"sparsity": 4, "target_rank": 3, field: value}
        with pytest.raises(ValueError, match=f"{field}: expected an integer"):
            ProblemInstance(Y=ex_Y, G=ex_G, A=ex_A, alphabet=s3, **kwargs)

    @pytest.mark.parametrize("field, kind", [("A", "IntMatrix"), ("alphabet", "Alphabet")])
    def test_bare_tuple_matrix_or_alphabet_rejected(self, ex_Y, ex_G, ex_A, s3, field, kind):
        # refused by name before A.cols or alphabet.values is read
        kwargs = {"A": ex_A, "alphabet": s3}
        kwargs[field] = ex_A.entries if field == "A" else s3.values
        with pytest.raises(ValueError, match=f"{field}: expected an {kind}, got tuple"):
            ProblemInstance(Y=ex_Y, G=ex_G, sparsity=4, target_rank=3, **kwargs)

    def test_integer_types_become_python_ints(self, ex_Y, ex_G, ex_A, s3):
        inst = ProblemInstance(Y=ex_Y, G=ex_G, A=ex_A, alphabet=s3, sparsity=np.int64(4),
                               target_rank=np.int8(3))
        assert type(inst.sparsity) is int and inst.sparsity == 4
        assert type(inst.target_rank) is int and inst.target_rank == 3

    def test_rank_must_match_g_columns(self, ex_Y, ex_G, ex_A, s3):
        with pytest.raises(ValueError):
            ProblemInstance(Y=ex_Y, G=ex_G, A=ex_A, alphabet=s3, sparsity=4, target_rank=2)

    def test_alphabet_beyond_float_range_rejected(self, ex_Y, ex_G, ex_A):
        # exact in Alphabet and dioph, but the decoder needs float values
        for values in ((-(10**400), 0, 1), (-1, 0, 10**400)):
            with pytest.raises(ValueError, match="float range"):
                ProblemInstance(Y=ex_Y, G=ex_G, A=ex_A, alphabet=Alphabet(values),
                                sparsity=4, target_rank=3)

    @pytest.mark.parametrize(
        "values, y_scale, shown",
        [((-(10**160), 0, 10**160), 1.0, "1e\\+160 "), ((-1, 0, 1), 1e300, "1 ")],
    )
    def test_alphabet_overflowing_residual_rejected(self, ex_Y, ex_G, ex_A, values, y_scale, shown):
        # every value converts to float, but ||Y - G X||^2 at that scale does
        # not; the column floors would overflow in the first solve step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"alphabet values up to {shown}in magnitude"):
                ProblemInstance(Y=ex_Y * y_scale, G=ex_G, A=ex_A, alphabet=Alphabet(values),
                                sparsity=4, target_rank=3)

    def test_fewer_measurements_than_rows_rejected(self, ex_Y, ex_G, ex_A, s3):
        with pytest.raises(ValueError, match="at least as many rows"):
            ProblemInstance(Y=ex_Y[:2], G=ex_G[:2], A=ex_A, alphabet=s3, sparsity=4, target_rank=3)

    def test_rank_deficient_g_rejected(self, ex_Y, ex_G, ex_A, s3):
        G = ex_G.copy()
        G[:, 2] = G[:, 0] - 2.0 * G[:, 1]
        with pytest.raises(ValueError, match="rank deficient"):
            ProblemInstance(Y=ex_Y, G=G, A=ex_A, alphabet=s3, sparsity=4, target_rank=3)

    def test_near_duplicate_g_columns(self):
        # G's third column is its second plus delta * u.  Just above
        # qr_positive's pivot tolerance the solve still equals the oracle; at
        # or below it construction refuses G
        spec = GenSpec(n_rows=3, n_cols=6, n_meas=4, alphabet=Alphabet((-2, -1, 0, 1, 2)),
                       n_constraints=3, sparsity=3, sigma=0.0, seed=1)
        inst0, planted = generate_instance(spec)
        u = np.array([1.0, -1.0, 0.5, 2.0])

        def near_duplicate(delta):
            G = inst0.G.copy()
            G[:, 2] = G[:, 1] + delta * u
            size = np.abs(np.diag(np.linalg.qr(G, mode="complete")[1]))
            tol = 4 * np.finfo(float).eps * max(float(size.max()), 1.0)
            return G, float(size[-1]) / tol

        def instance(G, Y):
            return ProblemInstance(Y=Y, G=G, A=inst0.A, alphabet=inst0.alphabet,
                                   sparsity=3, target_rank=3)

        G, over = near_duplicate(2e-15)
        assert 1.0 < over < 2.0
        rng = np.random.default_rng(1)
        for _ in range(4):
            Y = G @ np.array(planted.entries, dtype=float) + 0.3 * rng.standard_normal((4, 6))
            inst = instance(G, Y)
            res, ref = solve(inst), oracle_solve(inst)
            assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)
            verify_solution(inst, res.X)
        for delta in (1.5e-15, 0.0):
            G, over = near_duplicate(delta)
            assert over <= 1.0
            with pytest.raises(ValueError, match="rank deficient"):
                instance(G, inst0.Y)

    def test_radius_is_not_a_field(self, ex_Y, ex_G, ex_A, s3):
        # the first objective cap is always derived from column 0 of Y
        assert "radius" not in {f.name for f in dataclasses.fields(ProblemInstance)}
        with pytest.raises(TypeError):
            ProblemInstance(
                Y=ex_Y, G=ex_G, A=ex_A, alphabet=s3, sparsity=4, target_rank=3, radius=0.5
            )

    def test_arrays_are_locked(self, ex_instance):
        with pytest.raises(ValueError):
            ex_instance.Y[0, 0] = 99.0
        with pytest.raises(ValueError):
            ex_instance.G[0, 0] = 99.0

    def test_lattice_is_built_from_g(self, ex_instance):
        assert ex_instance.lattice.G is ex_instance.G
        assert len(ex_instance.lattice.R) == ex_instance.n_rows


def survivors(bound, spans):
    """The feasible rows each output row can still take."""
    return [bound.rows[lo:hi] for lo, hi in spans]


class TestPruningTrace:
    """The per-column decode/prune walk pinned step by step."""

    def test_initial_sets_are_full_alphabet(self, ex_bound):
        sets = derive_column_sets(ex_bound, ex_bound.root[0], 0)
        assert [a.values for a in sets] == [(-1, 0, 1)] * 3

    def test_first_column_decode_and_prune(self, ex_bound, ex_Y, ex_G):
        spans = ex_bound.root[0]
        z1 = sphere_decode(ex_Y[:, 0], ex_G, 0.5, derive_column_sets(ex_bound, spans, 0))
        assert z1[0].x == (1, 0, 0)
        pruned, _ = prune_with_column(ex_bound, spans, 0, z1[0].x)
        rows = survivors(ex_bound, pruned)
        assert [len(r) for r in rows] == [1, 5, 5]
        assert rows[0][0] == (1, 1, -1, -1, 0, 0, 0)
        for vec in rows[1]:
            assert vec[0] == 0

    def test_second_column_sets_and_decode(self, ex_bound, ex_Y, ex_G):
        spans, _ = prune_with_column(ex_bound, ex_bound.root[0], 0, (1, 0, 0))
        sets = derive_column_sets(ex_bound, spans, 1)
        assert [a.values for a in sets] == [(1,), (-1, 0, 1), (-1, 0, 1)]
        z2 = sphere_decode(ex_Y[:, 1], ex_G, 0.5, sets)
        assert z2[0].x == (1, -1, 1)

    def test_third_column_sets_and_final_assembly(self, ex_bound, ex_Y, ex_G):
        spans, _ = prune_with_column(ex_bound, ex_bound.root[0], 0, (1, 0, 0))
        spans, _ = prune_with_column(ex_bound, spans, 1, (1, -1, 1))
        sets = derive_column_sets(ex_bound, spans, 2)
        assert [a.values for a in sets] == [(-1,), (-1, 0), (0, 1)]
        z3 = sphere_decode(ex_Y[:, 2], ex_G, 0.5, sets)
        assert z3[0].x == (-1, -1, 0)
        final, _ = prune_with_column(ex_bound, spans, 2, z3[0].x)
        rows = survivors(ex_bound, final)
        assert all(len(r) == 1 for r in rows)
        assert tuple(r[0] for r in rows) == X_A_ROWS

    def test_value_contradicting_settled_row_rejected(self, ex_bound):
        spans, _ = prune_with_column(ex_bound, ex_bound.root[0], 0, (1, 0, 0))
        # row 0 is settled on (1, 1, -1, ...); a 0 in its column 1 contradicts it
        assert len(survivors(ex_bound, spans)[0]) == 1
        with pytest.raises(ValueError, match="row 0"):
            prune_with_column(ex_bound, spans, 1, (0, 0, 1))

    def test_emptying_choice_rejected(self):
        bound = bound_over([(0, 1), (1, 0)], 2)
        with pytest.raises(ValueError):
            prune_with_column(bound, bound.root[0], 0, (0, 7))  # 7 appears in no survivor


def bound_over(rows, n_rows):
    """RangeBound over distinct equal-length integer rows, in any order.

    Only the row ranges and their masks are read, so the instance carries
    just what the bound is built from: the rows' values as the alphabet,
    G = I and Y = 0.  It skips ProblemInstance, which would also require
    n_rows to be at most the row length.
    """
    n_cols = len(rows[0])
    instance = SimpleNamespace(
        alphabet=Alphabet(tuple(sorted({v for row in rows for v in row}))),
        n_rows=n_rows,
        n_cols=n_cols,
        lattice=PreparedLattice.from_matrix(np.eye(n_rows)),
        Y=np.zeros((n_rows, n_cols)),
    )
    return RangeBound(instance, sorted(rows))


def range_mask(bound, spans, width):
    """Reference node mask: per row i, the OR of row_masks[lo:hi], shifted into field i."""
    mask = 0
    for i, (lo, hi) in enumerate(spans):
        row_or = 0
        for m in bound.row_masks[lo:hi]:
            row_or |= m
        mask |= row_or << (i * width)
    return mask


def filter_sets(rows_per_output, j):
    """Reference: the sorted distinct j-th entries of each output row's rows."""
    return [tuple(sorted({v[j] for v in rows})) for rows in rows_per_output]


def filter_prune(rows_per_output, j, x_col):
    """Reference: keep the rows whose j-th entry equals the chosen value."""
    return [tuple(v for v in rows if v[j] == x) for rows, x in zip(rows_per_output, x_col)]


@st.composite
def unsorted_rows(draw):
    """Distinct vectors of length 1-6 over a small alphabet, in random order.

    The alphabet is any 1-4 distinct values of -6..6, so zero-free and
    non-contiguous alphabets are drawn too.
    """
    values = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
    length = draw(st.integers(1, 6))
    vector = st.tuples(*[st.sampled_from(values)] * length)
    rows = draw(st.lists(vector, min_size=1, max_size=40, unique=True))
    return draw(st.permutations(rows))


class TestRowRanges:
    """The ranges into the sorted rows against a plain tuple filter."""

    @given(rows=unsorted_rows(), n_rows=st.integers(1, 4))
    @example(rows=[(2**70, 0), (0, -(2**70)), (-(2**70), 2**70)], n_rows=2)
    def test_row_masks_set_one_bit_per_entry(self, rows, n_rows):
        # row r's mask holds bit k N |S| + t exactly when rows[r][k] == values[t]
        bound = bound_over(rows, n_rows)
        values = sorted({v for row in rows for v in row})
        field = n_rows * len(values)
        assert bound.rows == tuple(sorted(rows))
        for row, got in zip(bound.rows, bound.row_masks, strict=True):
            want = 0
            for k in range(len(row)):
                for t, value in enumerate(values):
                    if row[k] == value:
                        want |= 1 << (k * field + t)
            assert got == want

    @given(rows=unsorted_rows(), n_rows=st.integers(1, 4))
    @example(rows=[(3, 1, 0)], n_rows=1)  # one row: every range holds a single row
    @example(rows=[(0, 1), (0, 2), (0, -1)], n_rows=2)  # column 0 takes a single value
    def test_split_matches_grouping(self, rows, n_rows):
        # every range the search can reach at column j, the rows sharing a
        # prefix of length j, split by groupby on column j with its masks' OR
        bound = bound_over(rows, n_rows)
        indices = range(len(bound.rows))
        for j in range(len(rows[0])):
            for _, group in itertools.groupby(indices, key=lambda r: bound.rows[r][:j]):
                group = list(group)
                expected = {}
                for v, sub in itertools.groupby(group, key=lambda r: bound.rows[r][j]):
                    sub = list(sub)
                    mask = 0
                    for r in sub:
                        mask |= bound.row_masks[r]
                    expected[v] = ((sub[0], sub[-1] + 1), mask)
                key = (j, group[0], group[-1] + 1)
                table = _split(bound, key)
                assert table == expected
                assert list(table) == sorted(table)
                assert bound.splits[key] is table

    @given(rows=unsorted_rows(), n_rows=st.integers(1, 4), data=st.data())
    def test_walk_matches_tuple_filter(self, rows, n_rows, data):
        bound = bound_over(rows, n_rows)
        width = len({v for row in rows for v in row})
        spans, mask, _ = bound.root
        assert mask == range_mask(bound, spans, width)
        reference = [tuple(rows)] * n_rows
        for j in range(len(rows[0])):
            expected = filter_sets(reference, j)
            assert [a.values for a in derive_column_sets(bound, spans, j)] == expected
            x_col = tuple(data.draw(st.sampled_from(vals)) for vals in expected)
            spans, mask = prune_with_column(bound, spans, j, x_col)
            reference = filter_prune(reference, j, x_col)
            assert survivors(bound, spans) == [tuple(sorted(r)) for r in reference]
            assert mask == range_mask(bound, spans, width)
        assert all(hi - lo == 1 for lo, hi in spans)

    @given(rows=unsorted_rows(), n_rows=st.integers(1, 4), data=st.data())
    def test_sibling_branches_read_cached_splits(self, rows, n_rows, data):
        # each range is split once per solve; a sibling branch, and a second
        # walk down the same branches, read those splits back from the cache
        bound = bound_over(rows, n_rows)
        choices = []
        visited = set()
        splits_made = []
        split = cils.assembler._split

        def counted_split(bound, key):
            splits_made.append(key)
            return split(bound, key)

        for walk in range(2):
            spans = bound.root[0]
            reference = [tuple(rows)] * n_rows
            for j in range(len(rows[0])):
                expected = filter_sets(reference, j)
                assert [a.values for a in derive_column_sets(bound, spans, j)] == expected
                if walk == 0:
                    visited.update((j, lo, hi) for lo, hi in spans)
                    choices.append([tuple(data.draw(st.sampled_from(vals)) for vals in expected)
                                    for _ in range(2)])
                for x_col in choices[j]:
                    with mock.patch.object(cils.assembler, "_split", counted_split):
                        child, _ = prune_with_column(bound, spans, j, x_col)
                    assert survivors(bound, child) == [
                        tuple(sorted(r)) for r in filter_prune(reference, j, x_col)
                    ]
                spans = child
                reference = filter_prune(reference, j, choices[j][-1])
            if walk == 0:
                n_splits = len(bound.splits)
        # one entry per range narrowed, made on the first walk and only read after
        assert len(bound.splits) == n_splits
        assert bound.splits.keys() == visited
        assert len(splits_made) == len(set(splits_made))

    def test_cached_split_errors_unchanged(self, ex_bound):
        spans, _ = prune_with_column(ex_bound, ex_bound.root[0], 0, (1, 0, 0))
        derive_column_sets(ex_bound, spans, 1)
        prune_with_column(ex_bound, spans, 1, (1, -1, 1))
        # a value absent from a cached range empties the row, settled or not
        empties = "value {} at column 1 eliminates every candidate for row {}"
        with pytest.raises(ValueError, match=empties.format(0, 0)):
            prune_with_column(ex_bound, spans, 1, (0, 0, 1))
        with pytest.raises(ValueError, match=empties.format(7, 2)):
            prune_with_column(ex_bound, spans, 1, (1, -1, 7))


def settle(feasible, rows, depth=None):
    """The bound over `feasible` and the ranges once the output rows have taken
    the entries of `rows` on columns 0..depth-1."""
    bound = bound_over(feasible, len(rows))
    spans = bound.root[0]
    for j in range(len(rows[0]) if depth is None else depth):
        spans, _ = prune_with_column(bound, spans, j, tuple(r[j] for r in rows))
    return bound, spans


class TestSettledLineTest:
    """The line test that cuts a subtree once its settled rows are dependent."""

    S5_ROWS = [(a, b, -a - b) for a in range(-2, 3) for b in range(-2, 3) if abs(a + b) <= 2]

    def test_line_keys(self):
        assert _line((0, 0, 0)) == ()
        assert _line((2, -4, 0)) == _line((-1, 2, 0)) == (1, -2, 0)
        assert _line((0, -3, 6)) == (0, 1, -2)

    @pytest.mark.parametrize(
        "rows, dependent",
        [
            (((0, 0, 0), (1, 0, -1)), True),  # a zero row
            (((1, 0, -1), (1, 0, -1)), True),  # equal rows
            (((1, -1, 0), (-1, 1, 0)), True),  # x with -x
            (((1, 0, -1), (2, 0, -2)), True),  # x with 2x
            (((1, 0, -1), (0, 1, -1)), False),  # two independent rows
            (((1, 0, -1), (0, 1, -1), (1, 1, -2)), False),  # pairwise independent: leaf check
        ],
        ids=["zero", "equal", "negated", "doubled", "independent", "three-dependent"],
    )
    def test_settled_rows(self, rows, dependent):
        assert _settled_rows_dependent(*settle(self.S5_ROWS, rows)) is dependent

    def test_only_settled_rows_count(self):
        feasible = [(1, 0, -1), (2, 0, -2), (0, 1, -1), (0, -1, 1)]
        # column 0 alone settles rows 0 and 1 on x and 2x
        assert _settled_rows_dependent(*settle(feasible, ((1, 0, -1), (2, 0, -2), (0, 1, -1)), 1))
        # rows 1 and 2 are headed for y and -y, but neither is settled yet
        rows = ((1, 0, -1), (0, 1, -1), (0, -1, 1))
        bound, spans = settle(feasible, rows, 1)
        assert [hi - lo for lo, hi in spans] == [1, 2, 2]
        assert not _settled_rows_dependent(bound, spans)
        assert _settled_rows_dependent(*settle(feasible, rows, 2))

    def test_rank_dead_subtrees_cut_before_the_leaves(self, monkeypatch):
        # sigma = 0.8 noise on S5 rows: branches that settle two rows on one
        # line are cut before any leaf below them is rank-checked; each cut
        # counts as a rank reject and a backtrack, and the answer is still
        # the oracle's
        spec = GenSpec(n_rows=2, n_cols=5, n_meas=3, alphabet=Alphabet((-2, -1, 0, 1, 2)),
                       n_constraints=2, sigma=0.8, seed=2)
        inst, _ = generate_instance(spec)
        ranks = []

        def recorded_rank(X, stop=None):
            ranks.append(int_rank(X, stop))
            return ranks[-1]

        monkeypatch.setattr(cils.assembler, "int_rank", recorded_rank)
        res = solve(inst)
        # the first rank is the feasible set's and the last the solution's
        leaf_rejects = sum(r != inst.target_rank for r in ranks[1:-1])
        assert res.stats.rank_rejects > leaf_rejects
        assert res.stats.backtracks >= res.stats.rank_rejects
        ref = oracle_solve(inst)
        verify_solution(inst, res.X)
        assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)


DEGENERATE_ALPHABETS = (
    (-1, 0, 1),  # symmetric: x and -x both feasible
    (-2, -1, 0, 1, 2),  # x and 2x both feasible
    (-1, 1),  # no 0
    (-2, -1, 1, 2),  # no 0, x and 2x
    (1, 2),  # no 0, no sign symmetry
)

# stacks the oracle scans per example at most
ORACLE_STACKS = 5_000


@st.composite
def degenerate_instances(draw):
    """Small instances on which settled rows are often zero or share a line.

    A gets a zero row half the time, K runs over 0..L (so K = 1 and the
    infeasible K = 0) where the alphabet holds 0 and is L otherwise, and Y is
    all zero half the time, which makes X and -X tie exactly whenever both
    are feasible.
    """
    values = draw(st.sampled_from(DEGENERATE_ALPHABETS))
    n_cols = draw(st.integers(3, 5))
    a_rows = [draw(st.tuples(*[st.integers(-2, 2)] * n_cols))]
    if draw(st.booleans()):
        a_rows.append((0,) * n_cols)
    A = IntMatrix(tuple(a_rows))
    alphabet = Alphabet(values)
    sparsity = draw(st.integers(0, n_cols)) if 0 in values else n_cols
    n_feasible = len(oracle_F(A, alphabet, sparsity))
    most = max(n for n in range(1, n_cols + 1) if n == 1 or n_feasible**n <= ORACLE_STACKS)
    # as many rows as the oracle affords, so settled rows can share a line
    n_rows = min(3, most) - draw(st.integers(0, min(3, most) - 1))
    n_meas = n_rows + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n_meas, n_rows))
    if draw(st.booleans()):
        Y = np.zeros((n_meas, n_cols))
    else:
        Y = 2.0 * rng.standard_normal((n_meas, n_cols))
    return ProblemInstance(Y=Y, G=G, A=A, alphabet=alphabet, sparsity=sparsity, target_rank=n_rows)


@given(inst=degenerate_instances())
@settings(max_examples=60)
def test_degenerate_inputs_match_oracle(inst):
    try:
        ref = oracle_solve(inst)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as got:
            solve(inst)
        assert got.value.feasible_rank == exc.feasible_rank
        return
    res = solve(inst)
    verify_solution(inst, res.X)
    assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)


class TestSolve:
    def test_worked_example_recovers_planted(self, ex_instance, ex_X):
        t0 = time.perf_counter()
        res = solve(ex_instance)
        elapsed = time.perf_counter() - t0
        assert res.X == ex_X
        assert res.objective <= 1e-18
        assert elapsed < 1.0
        assert res.stats.dioph_nodes > 0
        # the first cap, from column 0's radius, holds the optimum and no
        # doubling is needed; every output row is settled after three of the
        # seven columns, so the node there is a leaf and reads no column
        assert res.stats.radius_expansions == 0
        assert res.stats.column_reads == 3

    def test_result_passes_verification(self, ex_instance):
        verify_solution(ex_instance, solve(ex_instance).X)

    def test_noiseless_recovery_is_exact(self):
        spec = GenSpec(n_rows=3, n_cols=7, n_meas=4, alphabet=S3, sigma=0.0, seed=3)
        inst, planted = generate_instance(spec)
        res = solve(inst)
        assert res.X == planted
        assert res.objective <= 1e-24

    def test_matches_oracle_on_random_instances(self):
        for k in range(10):
            spec = GenSpec(
                n_rows=int(2 + k % 2),
                n_cols=int(5 + k % 3),
                n_meas=4,
                alphabet=S3,
                sigma=0.2,
                seed=200 + k,
            )
            inst, _ = generate_instance(spec)
            res = solve(inst)
            ref = oracle_solve(inst)
            assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)
            verify_solution(inst, res.X)

    def test_infeasible_identity_constraints(self, s3):
        # A = I forces x = 0, so no rank-1 stack exists
        inst = ProblemInstance(
            Y=np.ones((2, 3)),
            G=np.ones((2, 1)),
            A=IntMatrix.identity(3),
            alphabet=s3,
            sparsity=2,
            target_rank=1,
        )
        with pytest.raises(InfeasibleError) as exc_info:
            solve(inst)
        assert exc_info.value.feasible_rank == 0

    def test_infeasible_reports_attainable_rank(self, s3):
        # feasible rows span only one dimension: x1 = x2 = x3 line
        A = IntMatrix(((1, -1, 0), (0, 1, -1)))
        inst = ProblemInstance(
            Y=np.ones((3, 3)),
            G=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            A=A,
            alphabet=s3,
            sparsity=3,
            target_rank=2,
        )
        with pytest.raises(InfeasibleError) as exc_info:
            solve(inst)
        assert exc_info.value.feasible_rank == 1

    def test_certificate_exact_below_target_at_three_rows(self):
        # planted with N - 1 = 2 rows and posed at target rank 3 with a fresh
        # 4x3 G: the feasible rows span rank 2, which the certificate reports
        spec = GenSpec(n_rows=2, n_cols=7, n_meas=4, alphabet=S3, seed=11)
        base, _ = generate_instance(spec)
        G = np.abs(np.random.default_rng(11).standard_normal((4, 3)))
        inst = ProblemInstance(Y=base.Y, G=G, A=base.A, alphabet=S3, sparsity=spec.sparsity,
                               target_rank=3)
        F, _ = solve_diophantine_sparse(inst.A, inst.alphabet, inst.sparsity)
        assert len(tree_leaves(F)) > 3
        with pytest.raises(InfeasibleError, match="span rank 2, below target 3") as exc_info:
            solve(inst)
        assert exc_info.value.feasible_rank == 2

    def test_certificate_reads_past_zero_and_collinear_rows(self):
        # x0 + x1 + x2 = x3 over {0, 1, 2}: the sorted feasible rows start
        # (0,0,0,0), (0,0,1,1), (0,0,2,2), so the first three add rank 1
        alphabet = Alphabet((0, 1, 2))
        rng = np.random.default_rng(5)
        inst = ProblemInstance(Y=rng.standard_normal((4, 4)), G=rng.standard_normal((4, 3)),
                               A=IntMatrix(((1, 1, 1, -1),)), alphabet=alphabet, sparsity=4,
                               target_rank=3)
        F, _ = solve_diophantine_sparse(inst.A, inst.alphabet, inst.sparsity)
        assert tree_leaves(F)[:3] == [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2)]
        res = solve(inst)
        verify_solution(inst, res.X)
        ref = oracle_solve(inst)
        assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)

    def test_first_cap_clamped_below_float_max(self, s3):
        # ||Y - G X||^2 is finite but sits just under the float limit, so
        # L d^2 from column 0's radius d overflows and the cap is clamped
        y = math.sqrt(sys.float_info.max / 2)
        inst = ProblemInstance(Y=np.array([[y, y]]), G=np.array([[1.0]]),
                               A=IntMatrix(((1, -1),)), alphabet=s3, sparsity=2, target_rank=1)
        d = babai_radius(inst.Y[:, 0], inst.lattice, (s3,))
        assert inst.n_cols * d * d == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(inst)
        assert res.stats.radius_expansions == 0
        assert res.objective == oracle_solve(inst).objective
        verify_solution(inst, res.X)

    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_scaled_exact_fit_needs_no_cap_doubling(self, scale):
        # an exact fit with integer G: Y = G X holds in floats at any scale,
        # so the optimum is 0 and column 0's radius is a cap no pass misses
        # (at 1e12, before the decoder's absolute rounding slack: 40 doublings
        # and 53 decodes); the rows settle after four of the seven columns
        spec = GenSpec(n_rows=3, n_cols=7, n_meas=4, alphabet=S3, sigma=0.0, seed=3)
        inst0, planted = generate_instance(spec)
        G = np.round(4.0 * inst0.G) * scale
        Y = G @ np.array(planted.entries, dtype=float)
        inst = ProblemInstance(Y=Y, G=G, A=inst0.A, alphabet=S3, sparsity=inst0.sparsity,
                               target_rank=3)
        res = solve(inst)
        assert res.X == planted
        assert res.objective == 0.0
        assert res.stats.radius_expansions == 0
        assert res.stats.column_reads == 4

    def test_root_meets_the_bound_test(self):
        # the first cap lies between the root's floors over columns 1.. and
        # over all columns, so the first pass cuts the root before any read
        # (a root test that left out column 0's floor read column 0 there
        # and took no candidate)
        spec = GenSpec(2, 5, 3, S3, sparsity=4, sigma=0.2, seed=150917237)
        inst, _ = generate_instance(spec)
        res = solve(inst)
        assert res.objective == 0.9702282964712629
        assert res.stats.radius_expansions == 1
        assert res.stats.column_reads == 3
        assert res.stats.bound_prunes == 3
        assert res.stats.rank_rejects == res.stats.backtracks == 0

    def test_read_stopped_at_its_first_candidate_is_a_bound_prune(self):
        # column 0 fits exactly but the optimum is positive, so the first cap
        # is doubled 34 times; each failed pass reads column 0 and its first
        # candidate already reaches the cap: one bound prune, not a backtrack
        spec = GenSpec(n_rows=3, n_cols=7, n_meas=4, alphabet=S3, sigma=0.0, seed=3)
        inst0, _ = generate_instance(spec)
        inst = ProblemInstance(Y=inst0.Y * 1e12, G=inst0.G * 1e12, A=inst0.A, alphabet=S3,
                               sparsity=inst0.sparsity, target_rank=3)
        res = solve(inst)
        assert res.objective == 1.1920928955078125e-07
        assert res.stats.radius_expansions == 34
        assert res.stats.column_reads == 74
        assert res.stats.bound_prunes == 73
        assert res.stats.rank_rejects == res.stats.backtracks == 0

    def test_hard_instance_within_decode_budget(self):
        # a hard-tier instance on which growing the cap by (d+1)^2 steps, in
        # place of doubling it, takes about 140k decodes; doubling takes 1,683
        # column decodes, and with each node bounded by its own row ranges the
        # search reads 16 columns
        spec = load_specs(HARD_TIER)[2]
        inst, _ = generate_instance(dataclasses.replace(spec, seed=trial_seeds(spec)[1]))
        res = solve(inst)
        assert res.objective == pytest.approx(23.041300291816217, rel=1e-9)
        assert res.stats.column_reads == 16

    def test_hard_tier_objectives_and_decode_budget(self):
        # the 12 hard-tier instances (three shapes, four trial seeds each):
        # objectives pinned; every node with an unsettled row reads its
        # column's candidates off the floor table, 1,072 reads (1,248 column
        # decodes were asked for with a decoder in the search: 10,970 with
        # the per-instance suffix of column floors, 14,185 with rank-dead
        # subtrees cut at the leaves alone, 189,505 with the outside-span
        # bound), and the search calls no decoder; the prunes by reason and
        # the Diophantine nodes are pinned too
        objectives = [
            [59.77794151376861, 59.826602565707645, 81.07354547789893, 62.7051731000507],
            [14.971390186501065, 22.351722950054363, 17.00516827940072, 20.833650864001527],
            [18.969213179759812, 23.041300291816217, 15.973124163967451, 24.578878819742226],
        ]
        reads = rank_rejects = bound_prunes = nodes = 0
        for spec, wants in zip(load_specs(HARD_TIER), objectives, strict=True):
            for trial_seed, want in zip(trial_seeds(spec), wants, strict=True):
                inst, _ = generate_instance(dataclasses.replace(spec, seed=trial_seed))
                res = solve(inst)
                assert res.objective == pytest.approx(want, rel=1e-9)
                assert res.stats.backtracks == res.stats.rank_rejects
                assert res.stats.sphere_calls == 0
                reads += res.stats.column_reads
                rank_rejects += res.stats.rank_rejects
                bound_prunes += res.stats.bound_prunes
                nodes += res.stats.dioph_nodes
        assert reads == 1_072
        assert rank_rejects == 47
        assert bound_prunes == 1_417
        assert nodes == 26_010

    def test_stretch_tier_objectives_and_decodes_asked(self):
        # the 4 stretch-tier instances: objectives pinned, and the column
        # reads of the search (1,349 decodes asked for with a decoder in the
        # search; 93,681 with the per-instance suffix of column floors,
        # 126,318 with rank-dead subtrees cut at the leaves alone), the
        # prunes by reason and the Diophantine nodes
        objectives = [38.400958083654245, 31.452660276391825, 30.201242185320734, 28.95642576897489]
        (spec,) = load_specs(STRETCH_TIER)
        reads = rank_rejects = bound_prunes = nodes = 0
        for trial_seed, want in zip(trial_seeds(spec), objectives, strict=True):
            inst, _ = generate_instance(dataclasses.replace(spec, seed=trial_seed))
            res = solve(inst)
            assert res.objective == pytest.approx(want, rel=1e-9)
            assert res.stats.backtracks == res.stats.rank_rejects
            reads += res.stats.column_reads
            rank_rejects += res.stats.rank_rejects
            bound_prunes += res.stats.bound_prunes
            nodes += res.stats.dioph_nodes
        assert reads == 1_266
        assert rank_rejects == 86
        assert bound_prunes == 4_897
        assert nodes == 6_674

    def test_noisy_tier_trial_objective(self):
        # trial 1 of the sigma = 1.0 stretch shape (scripts/noisy_tier.json):
        # about 0.5 s of CPU with each node bounded by its own row ranges,
        # 7.7 s with the per-instance suffix of column floors
        (spec,) = load_specs(NOISY_TIER)
        inst, _ = generate_instance(dataclasses.replace(spec, seed=trial_seeds(spec)[1]))
        res = solve(inst)
        assert res.objective == pytest.approx(125.8106411055673, rel=1e-9)

    def test_search_calls_no_decoder(self, ex_instance, ex_X, monkeypatch):
        # every node reads its column's candidates off the floor table
        def refused(*args):
            raise AssertionError("sphere_decode was called")

        monkeypatch.setattr(cils.assembler, "sphere_decode", refused)
        assert solve(ex_instance).X == ex_X
        spec = load_specs(HARD_TIER)[0]
        inst, _ = generate_instance(dataclasses.replace(spec, seed=trial_seeds(spec)[0]))
        res = solve(inst)
        assert res.objective == pytest.approx(59.77794151376861, rel=1e-9)
        assert res.stats.sphere_calls == 0

    def test_settled_node_is_a_leaf(self, ex_instance, ex_X, monkeypatch):
        # once every row's range holds a single row, X is fixed: the node is
        # rank-checked and scored at once, so no column is read below it and
        # ranges that are all single rows are never narrowed.  The worked
        # example settles after three of its seven columns; the noisy S5
        # instance cuts rank-dead branches and rank-checks leaves
        narrowed = []

        def recorded_prune(bound, spans, j, x_col):
            narrowed.append(all(hi - lo == 1 for lo, hi in spans))
            return prune_with_column(bound, spans, j, x_col)

        monkeypatch.setattr(cils.assembler, "prune_with_column", recorded_prune)
        res = solve(ex_instance)
        assert res.X == ex_X
        assert res.stats.column_reads == 3 < ex_instance.n_cols
        spec = GenSpec(n_rows=2, n_cols=5, n_meas=3, alphabet=Alphabet((-2, -1, 0, 1, 2)),
                       n_constraints=2, sigma=0.8, seed=2)
        inst, _ = generate_instance(spec)
        res = solve(inst)
        assert res.stats.rank_rejects > 0
        assert res.objective == pytest.approx(oracle_solve(inst).objective, rel=1e-9)
        spec = load_specs(HARD_TIER)[2]
        inst, _ = generate_instance(dataclasses.replace(spec, seed=trial_seeds(spec)[1]))
        assert solve(inst).objective == pytest.approx(23.041300291816217, rel=1e-9)
        assert narrowed and not any(narrowed)

    def test_decodes_reused_across_cap_doublings(self):
        # the first cap is doubled three times here, and the passes read
        # again the columns and candidate sets that earlier passes read
        spec = GenSpec(n_rows=3, n_cols=6, n_meas=4, alphabet=S3, sigma=0.8, seed=3)
        inst, _ = generate_instance(spec)
        res = solve(inst)
        assert res.stats.radius_expansions == 3
        ref = oracle_solve(inst)
        assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)
        verify_solution(inst, res.X)

    def test_duplicate_candidate_rows_excluded_by_rank(self, s3):
        # feasible rows are (a,a,b); the second G column is nearly inert, so
        # copying the best-fitting row would win without the rank constraint
        A = IntMatrix(((1, -1, 0),))
        Y = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        G = np.array([[1.0, 0.1], [1.0, -0.1]])
        inst = ProblemInstance(Y=Y, G=G, A=A, alphabet=s3, sparsity=3, target_rank=2)
        res = solve(inst)
        rows = res.X.entries
        assert rows[0] != rows[1]
        verify_solution(inst, res.X)


class TestBoundEdgeShapes:
    """The incumbent budget and the suffix bound against the brute-force oracle."""

    @staticmethod
    def assert_oracle_optimal(inst):
        res = solve(inst)
        ref = oracle_solve(inst)
        verify_solution(inst, res.X)
        assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)
        return res

    def test_square_g_prunes_on_column_floors(self):
        # M = N: Q2 is empty and nothing lies outside G's span, yet the
        # alphabet-relaxed column floors still give the bound something to cut
        prunes = 0
        for k in range(6):
            n = 2 + k % 2
            spec = GenSpec(n_rows=n, n_cols=6, n_meas=n, alphabet=S3, n_constraints=3,
                           sigma=0.5, seed=300 + k)
            inst, _ = generate_instance(spec)
            assert inst.lattice.Q2t.shape[0] == 0
            assert not (inst.lattice.Q2t @ inst.Y).any()
            F, _ = solve_diophantine_sparse(inst.A, inst.alphabet, inst.sparsity)
            bound = RangeBound(inst, tree_leaves(F))
            assert sum(bound.root[2]) > 0.0
            prunes += self.assert_oracle_optimal(inst).stats.bound_prunes
        assert prunes > 0

    def test_square_g_noiseless(self):
        # sigma = 0 and M = N: every floor sits at rounding level
        spec = GenSpec(n_rows=3, n_cols=7, n_meas=3, alphabet=S3, n_constraints=3,
                       sigma=0.0, seed=310)
        inst, planted = generate_instance(spec)
        res = self.assert_oracle_optimal(inst)
        assert res.objective <= 1e-18
        assert res.X == planted

    def test_tall_noisy_g_prunes_on_the_bound(self):
        # an inadmissible bound that also counts column j's own outside-span
        # residual in the budget of column j misses the optimum on seeds 401
        # and 407
        prunes = 0
        for k in range(8):
            n = 2 + k % 2
            spec = GenSpec(n_rows=n, n_cols=7, n_meas=n + 2, alphabet=S3, n_constraints=3,
                           sigma=0.8, seed=400 + k)
            inst, _ = generate_instance(spec)
            assert np.sum((inst.lattice.Q2t @ inst.Y) ** 2) > 0.0
            prunes += self.assert_oracle_optimal(inst).stats.bound_prunes
        assert prunes > 0

    @pytest.mark.parametrize(
        "G",
        [np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])],
        ids=["square", "tall"],
    )
    def test_exact_objective_tie(self, G):
        # integer G and half-integer Y make every objective exact in floating
        # point, and many stacks tie at the optimum
        A = IntMatrix(((1, 1, 1, 1, 1, 1),))
        Y = np.full((G.shape[0], 6), 0.5)
        inst = ProblemInstance(Y=Y, G=G, A=A, alphabet=S3, sparsity=2, target_rank=2)
        res = solve(inst)
        ref = oracle_solve(inst)
        verify_solution(inst, res.X)
        assert res.objective == ref.objective
        assert objective(Y, G, res.X) == ref.objective


class TestRangeBound:
    """Each node's bound from the floors of its own row ranges."""

    @staticmethod
    def bound_of(inst):
        F, _ = solve_diophantine_sparse(inst.A, inst.alphabet, inst.sparsity)
        return F, RangeBound(inst, tree_leaves(F))

    @given(inst=degenerate_instances(), data=st.data())
    @settings(max_examples=60)
    def test_node_bound_below_cheapest_completion(self, inst, data):
        assume(oracle_F(inst.A, inst.alphabet, inst.sparsity))
        _, bound = self.bound_of(inst)
        spans, mask, _ = bound.root
        depth = data.draw(st.integers(0, inst.n_cols - 1), label="depth")
        for j in range(depth):
            sets = derive_column_sets(bound, spans, j)
            x_col = tuple(data.draw(st.sampled_from(a.values)) for a in sets)
            spans, mask = prune_with_column(bound, spans, j, x_col)
        floors = bound.child(-1, 0, mask, [0.0] * inst.n_cols)
        # every completion: one row of its range per output row
        rows = np.array(bound.rows, dtype=float)[:, depth:]
        stacks = np.array(list(itertools.product(*(range(lo, hi) for lo, hi in spans))))
        r = inst.Y[None, :, depth:] - np.einsum("mn,pnl->pml", inst.G, rows[stacks])
        assert sum(floors[depth:]) <= float(np.einsum("pml,pml->p", r, r).min())

    @given(inst=degenerate_instances())
    @settings(max_examples=40)
    def test_root_bound_is_the_column_floor_sum(self, inst):
        # at the root every row ranges over all of F, so column k's floor is
        # c_k = min ||y_k - G x||^2 over V_k^N, V_k the values F takes there
        assume(oracle_F(inst.A, inst.alphabet, inst.sparsity))
        F, bound = self.bound_of(inst)
        spans, mask, floors = bound.root
        assert spans == ((0, len(F)),) * inst.n_rows
        assert mask == range_mask(bound, spans, len(inst.alphabet))
        # one floor per column and the leaf's, 0.0, past the last
        assert floors == bound.child(-1, 0, mask, [0.0] * (inst.n_cols + 1))
        assert floors[-1] == 0.0
        want = sum(
            min(
                float(np.sum((inst.Y[:, k] - inst.G @ np.array(x, dtype=float)) ** 2))
                for x in itertools.product(sorted(set(F[:, k].tolist())), repeat=inst.n_rows)
            )
            for k in range(inst.n_cols)
        )
        assert sum(floors) <= want
        assert abs(sum(floors) - want) <= 1e-8 * max(1.0, want)

    def test_oversize_table_refused_before_it_is_built(self, monkeypatch):
        # 12 rows over {-1, 0, 1}: the table's pass would hold 12 * 3^12 points
        def refused(*args):
            raise AssertionError("the floor table's points were built")

        monkeypatch.setattr(cils.assembler, "_point_product", refused)
        inst = ProblemInstance(Y=np.zeros((12, 12)), G=np.eye(12), A=IntMatrix(((0,) * 12,)),
                               alphabet=S3, sparsity=1, target_rank=12)
        with pytest.raises(
            ValueError, match=r"6377292 points for L = 12 columns, \|W\| = 3 .* N = 12 rows"
        ):
            solve(inst)

    def test_oversize_table_error_counts_the_values_f_takes(self, monkeypatch):
        # x_{2k+1} = -3 x_{2k} over S = {-3..3}: the feasible rows take only
        # W = {-3, -1, 0, 1, 3}, so the table's pass would hold 14 * 5^7 points
        def refused(*args):
            raise AssertionError("the floor table's points were built")

        monkeypatch.setattr(cils.assembler, "_point_product", refused)
        A = IntMatrix(tuple(
            tuple(3 if c == 2 * k else 1 if c == 2 * k + 1 else 0 for c in range(14))
            for k in range(7)
        ))
        inst = ProblemInstance(Y=np.zeros((7, 14)), G=np.eye(7), A=A,
                               alphabet=Alphabet(tuple(range(-3, 4))), sparsity=14,
                               target_rank=7)
        with pytest.raises(
            ValueError,
            match=r"L \|W\|\^N = 1093750 points for L = 14 columns, \|W\| = 5 .* N = 7 rows",
        ):
            solve(inst)

    def test_mask_groups_hold_the_points_of_their_ranges(self):
        # x_{2k+1} = -3 x_{2k} over S = {-3..3}: V_k is {-1, 0, 1} at even k
        # and {-3, 0, 3} at odd k, each short of W = {-3, -1, 0, 1, 3}
        rng = np.random.default_rng(5)
        inst = ProblemInstance(Y=rng.standard_normal((3, 4)), G=rng.standard_normal((3, 2)),
                               A=IntMatrix(((3, 1, 0, 0), (0, 0, 3, 1))),
                               alphabet=Alphabet(tuple(range(-3, 4))), sparsity=4,
                               target_rank=2)
        _, bound = self.bound_of(inst)
        table, field, full, rows = bound.table, bound.field, bound.full, bound.rows

        def group(mask, k):
            return (mask >> (k * field)) & full

        root_spans, root_mask, _ = bound.root
        for k in range(4):
            assert {v for x in table.points[k] for v in x} == ({-1, 0, 1}, {-3, 0, 3})[k % 2]
            # every root range is all of F: its group holds the whole column
            assert table.held(k, group(root_mask, k)) == list(zip(table.costs[k], table.points[k]))
        for picked in itertools.product(range(len(rows)), repeat=2):
            spans = root_spans
            for j in range(4):
                spans, mask = prune_with_column(bound, spans, j, tuple(rows[p][j] for p in picked))
            assert spans == tuple((p, p + 1) for p in picked)
            # settled rows: group k holds the one point their k-th entries make
            for k in range(4):
                x = tuple(rows[p][k] for p in picked)
                cost = table.costs[k][table.points[k].index(x)]
                assert table.held(k, group(mask, k)) == [(cost, x)]

    def test_codes_wider_than_64_bits_match_oracle(self):
        # 40 values and N = 2: one column's field of a mask spans 80 bits
        alphabet = Alphabet(tuple(range(-20, 20)))
        rng = np.random.default_rng(4)
        G = rng.standard_normal((3, 2))
        X = np.array([[3.0, 3.0, 0.0], [0.0, 0.0, -17.0]])
        inst = ProblemInstance(Y=G @ X + 0.5 * rng.standard_normal((3, 3)), G=G,
                               A=IntMatrix(((1, -1, 0),)), alphabet=alphabet, sparsity=2,
                               target_rank=2)
        _, bound = self.bound_of(inst)
        assert max(max(codes) for codes in bound.table.codes).bit_length() > 64
        res = solve(inst)
        ref = oracle_solve(inst)
        assert res.X == ref.X
        assert abs(res.objective - ref.objective) <= 1e-9 * max(1.0, ref.objective)

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e12, 1e15])
    def test_scaled_near_exact_fits_match_oracle(self, scale):
        # Y sits 1e-9 ||Y|| from G X: the table's batched residuals and the
        # decoder's round differently by eps ||y||, far more than a slack
        # relative to the floors alone covers
        for seed in range(3):
            spec = GenSpec(n_rows=3, n_cols=7, n_meas=4, alphabet=S3, sigma=0.0, seed=seed)
            inst0, planted = generate_instance(spec)
            G = inst0.G * scale
            Y = G @ np.array(planted.entries, dtype=float)
            Y += 1e-9 * np.abs(Y).max() * np.random.default_rng(seed).standard_normal(Y.shape)
            inst = ProblemInstance(Y=Y, G=G, A=inst0.A, alphabet=S3, sparsity=inst0.sparsity,
                                   target_rank=3)
            res = solve(inst)
            ref = oracle_solve(inst)
            assert res.X == ref.X
            assert res.objective == objective(inst.Y, inst.G, ref.X)

    def test_floor_table_at_the_float_limit(self, s3):
        # ||y - G x||^2 sits within about 2e-10 of the largest float, and
        # x = -1 and x = 1 tie, since y +- 1 rounds to y
        y = math.sqrt(sys.float_info.max) * (1.0 - 1e-10)
        inst = ProblemInstance(Y=np.array([[y]]), G=np.array([[1.0]]), A=IntMatrix(((0,),)),
                               alphabet=s3, sparsity=1, target_rank=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(inst)
        assert res.objective == oracle_solve(inst).objective == y * y


class TestObjective:
    def test_zero_for_exact_product(self, ex_G, ex_X):
        Y = ex_G @ np.array(ex_X.entries, dtype=float)
        assert objective(Y, ex_G, ex_X) == 0.0

    def test_column_decomposition_identity(self, ex_Y, ex_G, ex_X):
        total = objective(ex_Y, ex_G, ex_X)
        per_col = sum(
            float(np.sum((ex_Y[:, j] - ex_G @ np.array([row[j] for row in ex_X.entries], dtype=float)) ** 2))
            for j in range(ex_Y.shape[1])
        )
        assert abs(total - per_col) <= 1e-9 * max(1.0, per_col)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(123)
        Y = rng.standard_normal((4, 6))
        G = rng.standard_normal((4, 2))
        X = IntMatrix(tuple(tuple(int(v) for v in row) for row in rng.integers(-2, 3, size=(2, 6))))
        naive = 0.0
        for i in range(4):
            for j in range(6):
                s = sum(G[i, k] * X.entries[k][j] for k in range(2))
                naive += (Y[i, j] - s) ** 2
        assert abs(objective(Y, G, X) - naive) <= 1e-9 * max(1.0, naive)

    def test_dimension_mismatch_raises(self, ex_Y, ex_G):
        with pytest.raises(ValueError):
            objective(ex_Y, ex_G, IntMatrix.identity(2))


class TestSolveIlsEq:
    def test_noiseless_both_modes_recover(self, ex_A, s3):
        x0 = X_A_ROWS[0]
        rng = np.random.default_rng(7)
        G = rng.standard_normal((9, 7))
        y = G @ np.array(x0, dtype=float)
        assert solve_ils_eq(y, G, ex_A, s3, 4, mode="exact") == x0
        assert solve_ils_eq(y, G, ex_A, s3, 4, mode="heuristic") == x0

    def test_exact_mode_is_scan_argmin(self, ex_A, s3):
        rng = np.random.default_rng(17)
        G = rng.standard_normal((8, 7))
        y = rng.standard_normal(8) * 2.0
        got = solve_ils_eq(y, G, ex_A, s3, 4, mode="exact")

        def resid(v):
            r = y - G @ np.array(v, dtype=float)
            return float(r @ r)

        best = min(FEASIBLE_7, key=lambda v: (resid(v), v))
        assert got == best

    def test_heuristic_never_beats_exact_and_can_lose(self):
        # pinned instance where the two modes disagree
        spec = GenSpec(n_rows=1, n_cols=5, n_meas=1, alphabet=S3, sparsity=4, sigma=0.2, seed=9)
        inst, planted = generate_instance(spec)
        rng = np.random.default_rng(9 + 50000)
        G = rng.standard_normal((5, 5))
        y = G @ np.array(planted.entries[0], dtype=float) + 0.9 * rng.standard_normal(5)
        xe = solve_ils_eq(y, G, inst.A, S3, 4, mode="exact")
        xh = solve_ils_eq(y, G, inst.A, S3, 4, mode="heuristic")

        def resid(v):
            r = y - G @ np.array(v, dtype=float)
            return float(r @ r)

        assert resid(xe) < resid(xh) - 1e-6
        assert xe != xh

    def test_empty_feasible_set_raises(self):
        with pytest.raises(InfeasibleError):
            solve_ils_eq(
                np.zeros(2),
                np.ones((2, 2)),
                IntMatrix.identity(2),
                Alphabet((1, 2)),
                2,
                mode="exact",
            )

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("bad", ["y", "G"])
    def test_non_finite_input_rejected(self, ex_A, s3, mode, bad):
        # a nan in y or an inf in G once made exact mode scan nan residuals
        # and return an arbitrary feasible row
        y, G = np.zeros(7), np.eye(7)
        if bad == "y":
            y[0] = np.nan
        else:
            G[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            solve_ils_eq(y, G, ex_A, s3, 4, mode=mode)

    def test_unknown_mode_rejected(self, ex_A, s3):
        with pytest.raises(ValueError):
            solve_ils_eq(np.zeros(7), np.eye(7), ex_A, s3, 4, mode="fast")


class TestVerifySolution:
    def test_accepts_planted(self, ex_instance, ex_X):
        verify_solution(ex_instance, ex_X)

    def test_rejects_alphabet_violation(self, ex_instance, ex_X):
        rows = [list(r) for r in ex_X.entries]
        rows[0][0] = 5
        with pytest.raises(ValueError):
            verify_solution(ex_instance, IntMatrix(tuple(tuple(r) for r in rows)))

    def test_rejects_constraint_violation(self, ex_instance, ex_X):
        rows = [list(r) for r in ex_X.entries]
        rows[0][4] = 1  # still alphabet-legal, breaks A x = 0
        with pytest.raises(ValueError):
            verify_solution(ex_instance, IntMatrix(tuple(tuple(r) for r in rows)))

    def test_rejects_rank_collapse(self, ex_instance, ex_X):
        rows = (ex_X.entries[0], ex_X.entries[0], ex_X.entries[2])
        with pytest.raises(ValueError):
            verify_solution(ex_instance, IntMatrix(rows))
