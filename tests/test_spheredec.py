"""Sphere decoder tests: pinned worked-example columns plus oracle equivalence.

The independent reference is oracle_sphere (full product scan, no QR); the
worked example pins the decoded first and second columns at radius 0.5.
The floor table is checked against an itertools.product scan, and the
points it holds for a set of candidate values against the decoder; tables
of one shape, which share their point product, against tables built from
scratch.
"""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cils import (
    Alphabet,
    IntMatrix,
    ProblemInstance,
    babai_radius,
    oracle_sphere,
    qr_positive,
    solve_diophantine_sparse,
    sphere_decode,
)
from cils.assembler import POINT_PRODUCTS_KEPT, FloorTable, RangeBound, _point_product
from cils.dioph import tree_leaves
from cils.spheredec import BOUNDARY_SLACK, SphereCandidate

S3 = Alphabet((-1, 0, 1))


def assert_same_candidates(mine, ref, tol=1e-9):
    """Order-sensitive comparison, tolerant only in the dist2 values."""
    assert [c.x for c in mine] == [c.x for c in ref]
    for a, b in zip(mine, ref):
        assert abs(a.dist2 - b.dist2) <= tol * max(1.0, abs(b.dist2))


def random_decode_case(rng, max_n=5, max_set=5):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(n, n + 4))
    G = rng.standard_normal((m, n))
    y = rng.standard_normal(m) * 2.0
    sets = []
    for _ in range(n):
        size = int(rng.integers(1, max_set + 1))
        base = int(rng.integers(-3, 2))
        vals = sorted(rng.choice(range(base, base + 8), size=size, replace=False))
        sets.append(Alphabet(tuple(int(v) for v in vals)))
    return y, G, tuple(sets), float(rng.uniform(0.3, 3.0))


class TestQrPositive:
    def test_identity(self):
        Q1, Q2, R = qr_positive(np.eye(3))
        assert np.allclose(Q1, np.eye(3))
        assert np.allclose(R, np.eye(3))
        assert Q2.shape == (3, 0)

    def test_worked_example_reconstruction(self, ex_G):
        Q1, Q2, R = qr_positive(ex_G)
        assert np.linalg.norm(ex_G - Q1 @ R) <= 1e-10 * np.linalg.norm(ex_G)
        assert np.all(np.diag(R) > 0)

    def test_orthonormality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, m + 1))
            G = rng.standard_normal((m, n))
            Q1, Q2, R = qr_positive(G)
            Q = np.hstack([Q1, Q2])
            assert np.linalg.norm(Q.T @ Q - np.eye(m)) <= 1e-10
            assert np.all(np.diag(R) > 0)
            assert np.linalg.norm(G - Q1 @ R) <= 1e-10 * max(1.0, np.linalg.norm(G))

    def test_rank_deficient_raises(self):
        G = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(np.linalg.LinAlgError):
            qr_positive(G)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_positive(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            qr_positive(np.array([[np.nan], [1.0]]))

    def test_outside_span_is_least_squares_residual(self):
        # ||Q2^T y||^2 is the least-squares residual: sphere_decode's `base`
        rng = np.random.default_rng(9)
        G = rng.standard_normal((6, 2))
        Y = rng.standard_normal((6, 4))
        fit = G @ np.linalg.lstsq(G, Y, rcond=None)[0]
        want = np.sum((Y - fit) ** 2, axis=0)
        assert np.allclose(np.sum((qr_positive(G)[1].T @ Y) ** 2, axis=0), want)
        assert qr_positive(np.eye(3))[1].shape == (3, 0)


class TestSphereDecode:
    def test_first_column_of_worked_example(self, ex_Y, ex_G):
        got = sphere_decode(ex_Y[:, 0], ex_G, 0.5, (S3,) * 3)
        assert got[0].x == (1, 0, 0)
        assert got[0].dist2 <= 1e-18

    def test_second_column_restricted_sets(self, ex_Y, ex_G):
        sets = ((Alphabet((1,)), S3, S3))
        got = sphere_decode(ex_Y[:, 1], ex_G, 0.5, sets)
        assert got[0].x == (1, -1, 1)
        assert_same_candidates(got, oracle_sphere(ex_Y[:, 1], ex_G, 0.5, sets))

    def test_zero_residual_query_single_hit(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((5, 3))
        x0 = (1, -1, 0)
        y = G @ np.array(x0, dtype=float)
        got = sphere_decode(y, G, 1e-6, (S3,) * 3)
        assert len(got) == 1
        assert got[0].x == x0
        assert got[0].dist2 <= 1e-18

    def test_off_lattice_tiny_radius_empty(self):
        G = np.eye(2)
        y = np.array([0.5, 0.5])
        assert sphere_decode(y, G, 1e-3, (S3,) * 2) == []

    def test_radius_zero_rejected(self):
        with pytest.raises(ValueError):
            sphere_decode(np.zeros(2), np.eye(2), 0.0, (S3,) * 2)

    def test_set_count_mismatch_rejected(self, ex_G):
        with pytest.raises(ValueError):
            sphere_decode(np.zeros(4), ex_G, 1.0, (S3,) * 2)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            y, G, sets, d = random_decode_case(rng)
            assert_same_candidates(sphere_decode(y, G, d, sets), oracle_sphere(y, G, d, sets))

    def test_gapped_alphabet(self):
        rng = np.random.default_rng(31)
        sets = ((Alphabet((-3, 2)), Alphabet((-2, 0, 5)), Alphabet((1,))))
        for _ in range(10):
            G = rng.standard_normal((4, 3))
            y = rng.standard_normal(4) * 3.0
            d = float(rng.uniform(1.0, 6.0))
            assert_same_candidates(sphere_decode(y, G, d, sets), oracle_sphere(y, G, d, sets))

    def test_radius_monotone_prefix(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            y, G, sets, d = random_decode_case(rng, max_n=4)
            small = sphere_decode(y, G, d, sets)
            large = sphere_decode(y, G, d * 1.7, sets)
            assert [c.x for c in large[: len(small)]] == [c.x for c in small]
            assert len(large) >= len(small)

    @given(st.data())
    def test_narrower_decode_is_prefix_of_wider(self, data):
        # the assembler answers a decode at radius r from one at R >= r of the
        # same y and sets; y lies near a point of the sets, so most decodes
        # are nonempty
        n = data.draw(st.integers(1, 4), label="N")
        m = n + data.draw(st.integers(0, 2), label="M - N")
        value_sets = [
            sorted(data.draw(st.sets(st.integers(-4, 4), min_size=1, max_size=5)))
            for _ in range(n)
        ]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        G = rng.standard_normal((m, n))
        try:
            qr_positive(G)
        except np.linalg.LinAlgError:
            assume(False)
        x0 = np.array([rng.choice(vals) for vals in value_sets], dtype=float)
        sigma = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="sigma")
        y = G @ x0 + sigma * rng.standard_normal(m)
        R = data.draw(st.floats(0.05, 4.0), label="R")
        sets = tuple(Alphabet(tuple(vals)) for vals in value_sets)
        wide = sphere_decode(y, G, R, sets)
        if wide and data.draw(st.booleans(), label="r on a point"):
            # r^2 may round below the point's dist2; the slack keeps it
            r = math.sqrt(data.draw(st.sampled_from(wide), label="point").dist2)
            assume(0.0 < r <= R)
        else:
            r = R * data.draw(st.floats(1e-3, 1.0), label="r / R")
        include = r * r * (1.0 + BOUNDARY_SLACK)
        narrow = sphere_decode(y, G, r, sets)
        assert narrow == [c for c in wide if c.dist2 <= include]

    def test_permutation_consistency(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            y, G, sets, d = random_decode_case(rng, max_n=4)
            perm = rng.permutation(G.shape[0])
            base = sphere_decode(y, G, d, sets)
            shuffled = sphere_decode(y[perm], G[perm, :], d, sets)
            assert_same_candidates(shuffled, base)

    def test_dist2_matches_direct_recomputation(self):
        rng = np.random.default_rng(61)
        y, G, sets, d = random_decode_case(rng)
        for cand in sphere_decode(y, G, d, sets):
            r = y - G @ np.array(cand.x, dtype=float)
            direct = float(r @ r)
            assert abs(cand.dist2 - direct) <= 1e-9 * max(1.0, direct)

    def test_ordering_is_dist_then_lex(self):
        rng = np.random.default_rng(71)
        y, G, sets, d = random_decode_case(rng, max_n=3)
        got = sphere_decode(y, G, max(d, 4.0), sets)
        keys = [(c.dist2, c.x) for c in got]
        assert keys == sorted(keys)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_boundary_points_included(self, seed):
        # query the decoder at exactly the distance of a known point
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        x0 = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        r = y - G @ np.array(x0, dtype=float)
        d = math.sqrt(float(r @ r))
        if d == 0.0:
            return
        got = sphere_decode(y, G, d, (S3,) * 2)
        assert x0 in [c.x for c in got]

    @pytest.mark.parametrize("rel", [1e-12, 1e-10, 1e-8])
    def test_boundary_points_of_near_exact_fits_included(self, rel):
        # y sits rel * ||y|| from G x: rounding of order eps * ||y|| in the
        # partial sums moves the summed distance by about 2 d eps ||y||, more
        # than a slack relative to d^2 allows (129-148 of 300 points were lost
        # with that slack alone, and with only an absolute (c eps ||y||)^2
        # added, 28 at 1e-12 and 129-147 at 1e-10 and 1e-8)
        rng = np.random.default_rng(3)
        sets = (S3,) * 3
        for _ in range(300):
            G = rng.standard_normal((4, 3))
            x = rng.integers(-1, 2, size=3)
            x[0] = x[0] or 1
            y0 = G @ x
            y = y0 + rel * np.linalg.norm(y0) * rng.standard_normal(4)
            r = y - G @ x.astype(float)
            got = sphere_decode(y, G, math.sqrt(float(r @ r)), sets)
            assert tuple(x.tolist()) in [c.x for c in got]


class TestBabaiRadius:
    def test_exact_point_tiny_radius(self):
        rng = np.random.default_rng(81)
        G = rng.standard_normal((4, 3))
        x0 = (0, 1, -1)
        y = G @ np.array(x0, dtype=float)
        sets = (S3,) * 3
        r = babai_radius(y, G, sets)
        assert 0.0 < r < 1e-6
        got = sphere_decode(y, G, r, sets)
        assert got and got[0].x == x0

    def test_singleton_sets_forced_point(self):
        rng = np.random.default_rng(91)
        G = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        sets = ((Alphabet((1,)), Alphabet((-1,))))
        fixed = y - G @ np.array([1.0, -1.0])
        want = math.sqrt(float(fixed @ fixed))
        got = babai_radius(y, G, sets)
        assert abs(got - want) <= 1e-8 * max(1.0, want) + 1e-8

    def test_decode_at_babai_radius_nonempty(self, ex_Y, ex_G):
        sets = (S3,) * 3
        for j in range(ex_Y.shape[1]):
            r = babai_radius(ex_Y[:, j], ex_G, sets)
            assert sphere_decode(ex_Y[:, j], ex_G, r, sets)

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e12, 1e15])
    def test_decode_at_babai_radius_nonempty_at_any_scale(self, scale):
        # exact fits y = G x with integer G, scaled: rounding in Q^T y and in
        # the partial sums grows with ||y||, so a slack relative to the
        # radius alone lost the fit point on most of these (166 of 200 at
        # 1e6, 196-197 from 1e9 up)
        rng = np.random.default_rng(7)
        sets = (S3,) * 3
        for _ in range(200):
            G = rng.integers(-5, 6, size=(4, 3)).astype(float)
            while np.linalg.matrix_rank(G) < 3:
                G = rng.integers(-5, 6, size=(4, 3)).astype(float)
            x = rng.integers(-1, 2, size=3)
            G *= scale
            y = G @ x
            assert sphere_decode(y, G, babai_radius(y, G, sets), sets)

    def test_back_substitution_matches_least_squares(self):
        # reference: snap numpy's least-squares solution, as a raw-G caller would
        rng = np.random.default_rng(17)
        S5 = Alphabet((-2, -1, 0, 1, 2))
        for m, n in ((3, 3), (5, 3), (7, 4)):
            G = rng.standard_normal((m, n))
            y = 1.5 * rng.standard_normal(m)
            sets = (S5,) * n
            xls = np.linalg.lstsq(G, y, rcond=None)[0]
            snapped = [min(S5.values, key=lambda v: (abs(v - xls[i]), v)) for i in range(n)]
            r = y - G @ np.array(snapped, dtype=float)
            want = math.sqrt(float(r @ r))
            got = babai_radius(y, G, sets)
            assert abs(got - want) <= 1e-8 * (1.0 + want)

    def test_raw_matrix_must_be_tall_full_rank(self):
        # G is factored as for sphere_decode, with no least-squares fallback
        y = np.ones(2)
        with pytest.raises(ValueError):
            babai_radius(y, np.ones((2, 3)), (S3,) * 3)
        with pytest.raises(np.linalg.LinAlgError):
            babai_radius(y, np.ones((2, 2)), (S3,) * 2)

    def test_radius_at_snap_tie(self):
        # a halfway point is sqrt(0.5) from either snap, whichever way ties go
        sets = (S3,) * 2
        G = np.eye(2)
        y = np.array([-0.5, -0.5])
        r = babai_radius(y, G, sets)
        assert abs(r - math.sqrt(0.5)) <= 1e-6


def brute_floor(G, y, value_sets):
    """min ||y - G x||^2 over x with x_i in value_sets[i], by scan."""
    return min(
        float(np.sum((y - G @ np.array(x, dtype=float)) ** 2))
        for x in itertools.product(*value_sets)
    )


def row_mask(values, value_sets):
    """FloorTable mask of one value set per coordinate."""
    width = len(values)
    return sum(1 << (i * width + values.index(v)) for i, vs in enumerate(value_sets) for v in vs)


def assert_floor_matches(got, want, outside=0.0):
    assert got <= want
    assert abs(got - want) <= 1e-8 * max(1.0, want)
    assert got >= outside - 1e-9 * max(1.0, outside)


class TestColumnFloors:
    @given(st.data())
    def test_equals_product_minimum(self, data):
        # subsets of -6..6, so zero-free and non-contiguous ones appear, and
        # targets both inside and beyond the alphabet's range; each row of
        # each column keeps a random nonempty subset of that column's values
        n = data.draw(st.integers(1, 3), label="N")
        m = n + data.draw(st.integers(0, 2), label="M - N")
        n_cols = data.draw(st.integers(1, 4), label="L")
        values = sorted(data.draw(st.sets(st.integers(-6, 6), min_size=1, max_size=5)))
        row = st.lists(st.booleans(), min_size=len(values), max_size=len(values))
        allowed = np.array(
            data.draw(st.lists(row.filter(any), min_size=n_cols, max_size=n_cols))
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = data.draw(st.sampled_from([0.0, 0.1, 1.0, 3.0]), label="sigma")
        G = rng.standard_normal((m, n))
        try:
            qr_positive(G)
        except np.linalg.LinAlgError:
            assume(False)
        Y = G @ rng.uniform(-7.0, 7.0, (n, n_cols)) + sigma * rng.standard_normal((m, n_cols))
        table = FloorTable(G, Y, Alphabet(values), allowed)
        outside = np.sum((qr_positive(G)[1].T @ Y) ** 2, axis=0)
        for k, mask in enumerate(allowed):
            vk = [v for v, ok in zip(values, mask) if ok]
            full = table.floor(k, row_mask(values, [vk] * n))
            # a mask of every bit holds every point of V_k^N
            assert full == table.floor(k, (1 << n * len(values)) - 1)
            assert_floor_matches(full, brute_floor(G, Y[:, k], [vk] * n), outside[k])
            sets = [
                data.draw(st.lists(st.sampled_from(vk), min_size=1, unique=True), label="set")
                for _ in range(n)
            ]
            got = table.floor(k, row_mask(values, sets))
            assert_floor_matches(got, brute_floor(G, Y[:, k], sets), outside[k])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_huge_alphabet_object_rows(self, seed):
        # the feasible rows of a +-2**70 alphabet are a Python-int object
        # array; the root bound from them is the brute-force sum of the c_k
        alphabet = Alphabet((-(2**70), 0, 2**70))
        A = IntMatrix(((1, 0, 0, 0, 0), (0, 1, 1, 0, 0)))
        F, _ = solve_diophantine_sparse(A, alphabet, 3)
        assert F.dtype == object
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 2))
        Y = 2.0**70 * (G @ rng.uniform(-1.5, 1.5, (2, 5)) + 0.3 * rng.standard_normal((3, 5)))
        inst = ProblemInstance(Y=Y, G=G, A=A, alphabet=alphabet, sparsity=3, target_rank=2)
        value_sets = [sorted(set(F[:, k])) for k in range(5)]
        assert value_sets[0] == [0]
        feasible = tree_leaves(F)
        _, _, floors = RangeBound(inst, feasible).root
        outside = np.sum((qr_positive(inst.G)[1].T @ inst.Y) ** 2, axis=0)
        want = [brute_floor(inst.G, inst.Y[:, k], [vk] * 2) for k, vk in enumerate(value_sets)]
        for got, b, o in zip(floors, want, outside):
            assert_floor_matches(got, b, o)
        assert sum(floors) <= sum(want)
        assert abs(sum(floors) - sum(want)) <= 1e-8 * max(1.0, sum(want))

    def test_square_lattice_has_positive_floors(self):
        # G = I, y = 0.5 per entry: no point of {-1, 1}^2 comes closer than
        # 0.5^2 per coordinate, though the outside-span residual is 0
        G = np.eye(2)
        Y = np.full((2, 3), 0.5)
        allowed = np.array([[True, False, True], [True, True, True], [False, False, True]])
        table = FloorTable(G, Y, S3, allowed)
        for k in range(3):
            assert 0.5 * (1.0 - 1e-8) <= table.floor(k, (1 << 6) - 1) <= 0.5
        assert qr_positive(G)[1].shape == (2, 0)

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e12, 1e15])
    def test_floor_never_exceeds_decoder_distance(self, scale):
        # near-exact fits at scale: y sits 1e-12 ||y|| from G x, so the
        # table's batched residual and the decoder's round differently by
        # far more than a slack relative to the cost alone covers (without
        # the decoder's rounding allowance the floor of x exceeded its dist2
        # on about half the 6x5 and 8x6 fits)
        rng = np.random.default_rng(11)
        values = (-1, 0, 1)
        for m, n in [(4, 3), (6, 5), (8, 6)]:
            for _ in range(30):
                G = scale * rng.standard_normal((m, n))
                x = rng.integers(-1, 2, size=n)
                y0 = G @ x
                y = y0 + 1e-12 * np.linalg.norm(y0) * rng.standard_normal(m)
                table = FloorTable(G, y[:, None], S3, np.ones((1, 3), dtype=bool))
                r = y - G @ x.astype(float)
                got = table.floor(0, row_mask(values, [[v] for v in x.tolist()]))
                assert got <= float(np.dot(r, r))

    def test_codes_wider_than_64_bits(self):
        # 70 values: coordinate 1's field starts at bit 70, so codes and
        # masks exceed every fixed-width integer and must stay exact
        values = tuple(range(-35, 35))
        G = np.array([[1.0, 0.2], [0.0, 1.0], [0.3, 0.1]])
        Y = np.array([[30.4, -2.0], [33.6, 1.0], [-1.0, 9.0]])
        allowed = np.zeros((2, 70), dtype=bool)
        allowed[0, 60:] = True
        allowed[1, :5] = allowed[1, 64:] = True
        table = FloorTable(G, Y, Alphabet(values), allowed)
        assert max(table.codes[0]).bit_length() > 64
        for k in range(2):
            vk = [v for v, ok in zip(values, allowed[k]) if ok]
            for sets in ([vk, vk], [vk[-2:], vk[:1]], [vk[:3], vk[-1:]]):
                got = table.floor(k, row_mask(values, sets))
                assert_floor_matches(got, brute_floor(G, Y[:, k], sets))

    @given(st.data())
    def test_held_points_below_a_bound_are_the_decode(self, data):
        # the search reads a node's candidates off the table: the points its
        # per-row value sets hold, in table order, while their cost stays
        # below a bound b; sphere_decode at radius sqrt(b) over the same sets returns
        # the same points in the same order.  b lies midway between two
        # distinct held costs, or past the last, so no point sits on the
        # decoder's boundary
        n = data.draw(st.integers(1, 3), label="N")
        m = n + data.draw(st.integers(0, 2), label="M - N")
        n_cols = data.draw(st.integers(1, 3), label="L")
        values = sorted(data.draw(st.sets(st.integers(-6, 6), min_size=1, max_size=5)))
        row = st.lists(st.booleans(), min_size=len(values), max_size=len(values))
        allowed = np.array(
            data.draw(st.lists(row.filter(any), min_size=n_cols, max_size=n_cols))
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = data.draw(st.sampled_from([0.0, 0.1, 1.0, 3.0]), label="sigma")
        G = rng.standard_normal((m, n))
        try:
            qr_positive(G)
        except np.linalg.LinAlgError:
            assume(False)
        Y = G @ rng.uniform(-7.0, 7.0, (n, n_cols)) + sigma * rng.standard_normal((m, n_cols))
        table = FloorTable(G, Y, Alphabet(values), allowed)
        k = data.draw(st.integers(0, n_cols - 1), label="k")
        vk = [v for v, ok in zip(values, allowed[k]) if ok]
        value_sets = [
            sorted(data.draw(st.lists(st.sampled_from(vk), min_size=1, unique=True), label="set"))
            for _ in range(n)
        ]
        held = table.held(k, row_mask(values, value_sets))
        assert len(held) == math.prod(map(len, value_sets))
        levels = sorted({cost for cost, _ in held})
        i = data.draw(st.integers(0, len(levels) - 1), label="level")
        b = (levels[i] + levels[i + 1]) / 2 if i + 1 < len(levels) else 2.0 * levels[i] + 1.0
        sets = tuple(Alphabet(tuple(vals)) for vals in value_sets)
        got = sphere_decode(Y[:, k], G, math.sqrt(b), sets)
        assert_same_candidates(got, [SphereCandidate(x, cost) for cost, x in held if cost < b])

    def test_tied_points_keep_the_decoder_order(self):
        # y = 0: x and -x cost exactly the same, and the table, like the
        # decoder, orders tied points by x
        rng = np.random.default_rng(3)
        alphabet = Alphabet((-2, -1, 0, 1, 2))
        for n in (1, 2, 3):
            G = rng.standard_normal((n + 1, n))
            table = FloorTable(G, np.zeros((n + 1, 1)), alphabet, np.ones((1, 5), dtype=bool))
            assert table.costs[0][1] == table.costs[0][2]
            want = sphere_decode(np.zeros(n + 1), G, math.sqrt(table.costs[0][-1]) + 1.0,
                                 (alphabet,) * n)
            assert table.points[0] == [c.x for c in want]


class TestPointProduct:
    """Tables of one (values, W, N) share one point product, built once."""

    VALUES = (-2, -1, 0, 1, 2)

    def args(self, seed, allowed):
        # a random G and Y for a 3-row table over VALUES with these columns
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, len(allowed)))
        return G, Y, Alphabet(self.VALUES), np.array(allowed, dtype=bool)

    def test_shared_product_matches_a_fresh_build(self):
        # two tables with W = {-2, 0, 1} and N = 3 but different G, Y and
        # per-column values, built in either order: the second reads the
        # first's product, and each equals a table built with the cache empty
        first = self.args(1, [[1, 0, 1, 1, 0], [0, 0, 1, 1, 0]])
        second = self.args(2, [[1, 0, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 1, 1, 0]])
        fresh = []
        for args in (first, second):
            _point_product.cache_clear()
            fresh.append(vars(FloorTable(*args)))
        for order in ((0, 1), (1, 0)):
            _point_product.cache_clear()
            tables = {i: vars(FloorTable(*(first, second)[i])) for i in order}
            assert _point_product.cache_info().hits == 1
            assert [tables[0], tables[1]] == fresh

    def test_shared_parts_are_immutable(self):
        digits, codes, points = _point_product(self.VALUES, (0, 2, 3), 3)
        assert digits.shape == (3, 27)
        assert not digits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            digits[0, 0] = 1
        assert type(codes) is tuple and type(points) is tuple
        assert points[:2] == ((-2, -2, -2), (-2, -2, 0))
        assert codes[1] == 1 | 1 << 5 | 1 << 12

    def test_cache_size_is_a_constant(self):
        assert _point_product.cache_info().maxsize == POINT_PRODUCTS_KEPT
        assert list(inspect.signature(FloorTable).parameters) == ["G", "Y", "alphabet", "allowed"]
        for n in range(1, POINT_PRODUCTS_KEPT + 3):
            _point_product((0, 1), (0, 1), n)
        assert _point_product.cache_info().currsize == POINT_PRODUCTS_KEPT
