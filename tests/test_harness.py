"""Instance generation and benchmark runner tests: determinism, planted
feasibility, spec validation, the bench spec files and the per-trial records.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import cils.harness
import cils.intlin
from cils import (
    Alphabet,
    GenSpec,
    int_rank,
    generate_instance,
    objective,
    oracle_F,
    SolveStats,
    run_bench,
    solve,
    verify_solution,
)
from cils.harness import load_specs, trial_seeds

S3 = Alphabet((-1, 0, 1))
S5 = Alphabet((-2, -1, 0, 1, 2))
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def small_spec(**overrides) -> GenSpec:
    base = dict(n_rows=2, n_cols=5, n_meas=3, alphabet=S3, sparsity=3, sigma=0.2, seed=42, trials=2)
    base.update(overrides)
    return GenSpec(**base)


class TestGenSpec:
    def test_rows_above_cols_rejected(self):
        with pytest.raises(ValueError):
            small_spec(n_rows=6, n_cols=5)

    def test_meas_below_rows_rejected(self):
        with pytest.raises(ValueError):
            small_spec(n_meas=1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            small_spec(sigma=-0.1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)

    @pytest.mark.parametrize(
        "field", ["n_rows", "n_cols", "n_meas", "n_constraints", "sparsity", "seed", "trials"]
    )
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field}: expected an integer"):
            small_spec(**{field: value})

    def test_alphabet_must_be_alphabet(self):
        with pytest.raises(ValueError, match="alphabet: expected an Alphabet, got tuple"):
            GenSpec(3, 7, 4, (-1, 0, 1))

    def test_integer_fields_become_python_ints(self):
        spec = small_spec(n_rows=np.int16(2), seed=np.uint32(7))
        assert type(spec.n_rows) is int and type(spec.seed) is int

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, "0.2", True, 10**400])
    def test_sigma_must_be_finite_real(self, sigma):
        with pytest.raises(ValueError, match="sigma: expected a finite nonnegative real"):
            small_spec(sigma=sigma)

    def test_alphabet_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="float range"):
            small_spec(alphabet=Alphabet((-(10**400), 0, 10**400)))


class TestGenerateInstance:
    def test_deterministic_bitwise(self):
        spec = small_spec()
        a1, p1 = generate_instance(spec)
        a2, p2 = generate_instance(spec)
        assert p1 == p2
        assert a1.A == a2.A
        assert np.array_equal(a1.Y, a2.Y)
        assert np.array_equal(a1.G, a2.G)

    def test_different_seeds_differ(self):
        a1, _ = generate_instance(small_spec(seed=1))
        a2, _ = generate_instance(small_spec(seed=2))
        assert not np.array_equal(a1.Y, a2.Y)

    def test_planted_satisfies_all_constraints(self):
        inst, planted = generate_instance(small_spec())
        verify_solution(inst, planted)

    def test_planted_rows_in_feasible_set(self):
        inst, planted = generate_instance(small_spec())
        feasible = set(oracle_F(inst.A, inst.alphabet, inst.sparsity))
        for row in planted.entries:
            assert row in feasible

    def test_planted_has_target_rank(self):
        inst, planted = generate_instance(small_spec(n_rows=3, n_cols=6))
        assert int_rank(planted) == 3
        assert inst.target_rank == 3

    def test_sigma_zero_objective_is_zero(self):
        inst, planted = generate_instance(small_spec(sigma=0.0))
        assert objective(inst.Y, inst.G, planted) == 0.0

    def test_g_entries_nonnegative(self):
        inst, _ = generate_instance(small_spec())
        assert np.all(inst.G >= 0.0)

    def test_constraint_matrix_shape(self):
        inst, _ = generate_instance(small_spec(n_constraints=4))
        assert inst.A.rows == 4
        assert inst.A.cols == 5

    def test_s3_instance_pinned(self):
        # perfbench's references are solves of generated instances, so the
        # complement basis and its order are pinned here too
        inst, planted = generate_instance(small_spec())
        assert planted.entries == ((0, 0, 0, 1, 0), (0, -1, 0, 0, 1))
        assert inst.A.entries == (
            (0, -3, -3, 0, -3),
            (-2, -2, 2, 0, -2),
            (0, 3, 2, 0, 3),
            (0, 0, 2, 0, 0),
            (2, -3, -1, 0, -3),
            (-1, 1, 2, 0, 1),
            (0, 0, 2, 0, 0),
        )

    def test_s5_instance_pinned(self):
        spec = GenSpec(n_rows=3, n_cols=7, n_meas=4, alphabet=S5, sparsity=4, sigma=0.5, seed=7)
        inst, planted = generate_instance(spec)
        assert planted.entries == (
            (0, 0, -1, -2, 2, -1, 0),
            (-1, 0, 2, 0, -1, 0, -1),
            (0, 1, 0, 1, 0, 1, 0),
        )
        assert inst.A.entries == (
            (-3, -3, 0, 1, 2, 2, 1),
            (-1, -1, -1, -2, -1, 3, 0),
            (7, 2, 6, 0, 2, -2, 3),
            (-19, -1, -11, 4, -3, -3, 0),
            (0, 3, 0, -3, -3, 0, 3),
            (10, 0, 7, -3, 2, 3, 2),
            (-2, -1, -2, 1, 0, 0, -2),
        )

    def test_one_elimination_per_attempt(self, monkeypatch):
        calls = {"eliminate": 0, "attempts": 0}
        eliminate, constraint_matrix = cils.intlin._eliminate, cils.harness._constraint_matrix

        def count_eliminate(*args):
            calls["eliminate"] += 1
            return eliminate(*args)

        def count_attempt(*args):
            calls["attempts"] += 1
            return constraint_matrix(*args)

        monkeypatch.setattr(cils.intlin, "_eliminate", count_eliminate)
        monkeypatch.setattr(cils.harness, "_constraint_matrix", count_attempt)
        for seed in range(5):
            generate_instance(small_spec(seed=seed))
            generate_instance(GenSpec(n_rows=3, n_cols=7, n_meas=4, alphabet=S5, seed=seed))
        assert calls["attempts"] >= 10
        assert calls["eliminate"] == calls["attempts"]


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        spec = small_spec(trials=5)
        s1 = trial_seeds(spec)
        s2 = trial_seeds(spec)
        assert s1 == s2
        assert len(set(s1)) == 5

    def test_prefix_stability(self):
        # growing the trial count extends rather than reshuffles the seeds
        head = trial_seeds(small_spec(trials=2))
        full = trial_seeds(small_spec(trials=5))
        assert full[:2] == head


class TestSpecFiles:
    def test_stretch_tier_loads_without_solving(self):
        (spec,) = load_specs(SCRIPTS / "stretch_tier.json")
        assert (spec.n_rows, spec.n_cols, spec.n_meas, spec.trials) == (6, 16, 8, 4)
        assert (spec.alphabet, spec.n_constraints, spec.sparsity) == (S3, 6, 5)
        assert (spec.sigma, spec.seed) == (0.5, 0)

    def test_noisy_tier_is_the_stretch_shape_at_sigma_1(self):
        (stretch,) = load_specs(SCRIPTS / "stretch_tier.json")
        (noisy,) = load_specs(SCRIPTS / "noisy_tier.json")
        assert noisy == dataclasses.replace(stretch, sigma=1.0)

    def test_wide_tier_is_the_wall_shape_twice(self):
        # two trials of the (3,22) wall shape: one process joins one block
        # shape twice, which CI runs under its address-space limit
        (spec,) = load_specs(SCRIPTS / "wide_tier.json")
        assert (spec.n_rows, spec.n_cols, spec.n_meas, spec.trials) == (3, 22, 4, 2)
        assert (spec.alphabet, spec.n_constraints, spec.sparsity, spec.sigma) == (S5, 8, 6, 0.5)

    def test_quick_sweep_file_loads(self):
        specs = load_specs(SCRIPTS / "bench_specs.json")
        assert sum(s.trials for s in specs) == 20

    def test_every_spec_file_loads(self):
        paths = sorted(SCRIPTS.glob("*.json"))
        assert {p.name for p in paths} >= {
            "bench_specs.json", "hard_tier.json", "noisy_tier.json", "stretch_tier.json"
        }
        for path in paths:
            assert load_specs(path), path.name

    def test_defaults_fill_optional_keys(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text('[{"rows": 2, "cols": 5, "meas": 3, "S": [-1, 0, 1]}]', encoding="utf-8")
        (spec,) = load_specs(path)
        assert spec == GenSpec(n_rows=2, n_cols=5, n_meas=3, alphabet=S3)


RECORD_KEYS = {
    "rows", "cols", "meas", "S", "constraints", "K", "sigma", "seed",
    "trial", "trial_seed", "objective", "recovered",
    *(f.name for f in dataclasses.fields(SolveStats)),
}


def without_wall_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


class TestRunBench:
    def test_empty_spec_list_gives_no_records(self):
        assert run_bench([]) == []

    def test_single_spec_single_trial(self, capsys):
        spec = small_spec(trials=1)
        (rec,) = run_bench([spec])
        assert set(rec) == RECORD_KEYS
        assert (rec["rows"], rec["cols"], rec["S"], rec["seed"]) == (2, 5, [-1, 0, 1], 42)
        assert (rec["trial"], rec["trial_seed"]) == (0, trial_seeds(spec)[0])
        assert rec["column_reads"] >= 1
        # the per-trial line is echoed with the column read count
        assert "column_reads=" in capsys.readouterr().out

    def test_one_record_per_trial_in_order(self):
        specs = [small_spec(trials=2), small_spec(n_cols=6, trials=3)]
        records = run_bench(specs)
        assert [(r["cols"], r["trial"]) for r in records] == [
            (5, 0), (5, 1), (6, 0), (6, 1), (6, 2)
        ]

    def test_reproducible_up_to_timing(self):
        spec = small_spec(trials=2)
        assert without_wall_time(run_bench([spec])) == without_wall_time(run_bench([spec]))

    def test_solutions_verified_during_bench(self):
        # regenerate and re-solve each trial: the record's objective and
        # recovered flag must match, and the solution must verify
        spec = small_spec(trials=3)
        for rec, tseed in zip(run_bench([spec]), trial_seeds(spec)):
            inst, planted = generate_instance(dataclasses.replace(spec, seed=tseed))
            res = solve(inst)
            verify_solution(inst, res.X)
            assert rec["objective"] == res.objective
            assert rec["recovered"] is (res.X == planted)
