"""Command-line behavior: output formats, exit codes, round trips.

All invocations go through cli.main(argv) in-process so exit codes and
stdout/stderr can be asserted directly.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cils import cli
from cils.cli import load_instance, main, planted_sidecar_path
from conftest import X_A_ROWS

# the SolveStats fields that --stats prints and --json carries
STATS_FIELDS = (
    "dioph_nodes",
    "column_reads",
    "radius_expansions",
    "rank_rejects",
    "bound_prunes",
    "wall_time",
)


def write_instance(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def tiny_doc():
    # 1x2 instance with A = [1 1]: feasible rows (0,0), (1,-1), (-1,1)
    return {
        "Y": [[1.0, -1.0]],
        "G": [[1.0]],
        "A": [[1, 1]],
        "S": [-1, 0, 1],
        "K": 2,
        "N": 1,
    }


class TestLoadInstance:
    def test_loads_worked_example(self, ex_file, ex_Y, ex_G, ex_A):
        inst = load_instance(ex_file)
        assert np.array_equal(inst.Y, ex_Y)
        assert np.array_equal(inst.G, ex_G)
        assert inst.A == ex_A
        assert inst.sparsity == 4
        assert inst.target_rank == 3

    @pytest.mark.parametrize("key", ["d0", "k"])
    def test_unknown_key_named(self, ex_file, tmp_path, key):
        # d0, the removed initial radius, is refused like a misspelt key
        doc = json.loads(Path(ex_file).read_text(encoding="utf-8"))
        doc[key] = 0.5
        path = write_instance(tmp_path / "i.json", doc)
        with pytest.raises(ValueError, match=f"i.json: key '{key}': unknown key"):
            load_instance(path)

    def test_missing_key_mentions_it(self, tmp_path, tiny_doc):
        del tiny_doc["A"]
        path = write_instance(tmp_path / "i.json", tiny_doc)
        with pytest.raises(ValueError, match="A"):
            load_instance(path)

    def test_non_integer_constraint_entries_rejected(self, tmp_path, tiny_doc):
        tiny_doc["A"] = [[1.5, 1]]
        path = write_instance(tmp_path / "i.json", tiny_doc)
        with pytest.raises(ValueError, match="'A'"):
            load_instance(path)

    @pytest.mark.parametrize("S", [[-1, 0, 1.5], ["-1", "0", "1"], [False, True]])
    def test_non_integer_alphabet_rejected(self, tmp_path, tiny_doc, S):
        tiny_doc["S"] = S
        path = write_instance(tmp_path / "i.json", tiny_doc)
        with pytest.raises(ValueError, match="'S'"):
            load_instance(path)

    def test_error_carries_path(self, tmp_path, tiny_doc):
        tiny_doc["K"] = 9
        path = write_instance(tmp_path / "i.json", tiny_doc)
        with pytest.raises(ValueError, match="i.json"):
            load_instance(path)


class TestSolveCommand:
    def test_worked_example_prints_planted_matrix(self, ex_file, capsys):
        assert main(["solve", str(ex_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        got = tuple(tuple(int(v) for v in line.split()) for line in out[:3])
        assert got == X_A_ROWS
        assert out[3].startswith("objective:")

    def test_stats_flag_adds_counters(self, ex_file, capsys):
        assert main(["solve", "--stats", str(ex_file)]) == 0
        out = capsys.readouterr().out
        for field in STATS_FIELDS:
            assert field in out
        for gone in ("sphere_calls", "backtracks", "empty_decodes"):
            assert gone not in out

    def test_json_flag_machine_readable(self, ex_file, capsys):
        assert main(["solve", "--json", str(ex_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert tuple(tuple(r) for r in doc["X"]) == X_A_ROWS
        assert doc["objective"] <= 1e-18
        assert doc["stats"]["dioph_nodes"] > 0
        assert doc["stats"]["bound_prunes"] >= 0
        # the stored counters only: backtracks (= rank_rejects) and
        # sphere_calls (0) are read-only SolveStats properties
        assert set(doc["stats"]) == set(STATS_FIELDS)

    def test_infinite_radius_flag_exits_1(self, ex_file, capsys):
        # solve has no --radius option: the first objective cap is derived
        assert main(["solve", "--radius", "inf", str(ex_file)]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--radius" in err

    def test_infinite_d0_exits_1(self, tmp_path, tiny_doc, capsys):
        # an instance file has no d0 key, whatever its value
        tiny_doc["d0"] = float("inf")
        path = write_instance(tmp_path / "bad.json", tiny_doc)
        assert "Infinity" in (tmp_path / "bad.json").read_text(encoding="utf-8")
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: key 'd0': unknown key")

    def test_sparsity_above_length_exits_1(self, tmp_path, tiny_doc, capsys):
        # the path holds the test's own name, so the field is read after it
        tiny_doc["K"] = 9
        path = write_instance(tmp_path / "bad.json", tiny_doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid instance: sparsity: nonzero budget 9 ")

    @pytest.mark.parametrize("key", ["Y", "G"])
    def test_infinite_matrix_entry_exits_1(self, tmp_path, tiny_doc, capsys, key):
        # json reads the bare token Infinity as a float, so the instance refuses it
        tiny_doc[key][0][0] = float("inf")
        path = write_instance(tmp_path / "inf.json", tiny_doc)
        assert "Infinity" in Path(path).read_text(encoding="utf-8")
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: invalid instance: {key}: entries must be finite\n"

    @pytest.mark.parametrize(
        "Y, G, reason",
        [
            ([[1.0, -1.0]], [[1.0, 2.0]], "at least as many rows"),
            ([[1.0, -1.0], [2.0, -2.0]], [[1.0, 2.0], [2.0, 4.0]], "rank deficient"),
        ],
    )
    def test_degenerate_g_exits_1(self, tmp_path, tiny_doc, capsys, Y, G, reason):
        tiny_doc.update(Y=Y, G=G, N=2)
        path = write_instance(tmp_path / "bad.json", tiny_doc)
        assert main(["solve", path]) == 1
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("S", [[-1, 0, 1.5], ["-1", "0", "1"], [False, True]])
    def test_non_integer_alphabet_exits_1(self, tmp_path, tiny_doc, capsys, S):
        tiny_doc["S"] = S
        path = write_instance(tmp_path / "bad.json", tiny_doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: key 'S': ")

    @pytest.mark.parametrize(
        "key, entry",
        [("Y", "0.5"), ("G", "0.5"), ("Y", True), ("G", False), ("A", True), ("A", "1")],
    )
    def test_non_number_matrix_entry_exits_1(self, tmp_path, tiny_doc, capsys, key, entry):
        # a JSON boolean or string is not a number, though Python reads true
        # as 1 and numpy reads "0.5" as 0.5
        tiny_doc[key][0][0] = entry
        path = write_instance(tmp_path / "bad.json", tiny_doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: key '{key}': expected ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["Y", "G", "A"])
    def test_ragged_matrix_exits_1(self, ex_file, tmp_path, capsys, key):
        # one entry short in the first row; numpy's own message names no key
        doc = json.loads(Path(ex_file).read_text(encoding="utf-8"))
        doc[key][0].pop()
        path = write_instance(tmp_path / "ragged.json", doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: key '{key}': rows must all have the same length")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["Y", "G", "d0"])
    def test_huge_integer_exits_1(self, tmp_path, tiny_doc, capsys, key):
        # a 400-digit JSON integer has no float value
        huge = 10**400
        tiny_doc[key] = huge if key == "d0" else [[huge] * len(tiny_doc[key][0])]
        path = write_instance(tmp_path / "huge.json", tiny_doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: key '{key}': ")
        assert "Traceback" not in err

    def test_alphabet_beyond_float_range_exits_1(self, tmp_path, tiny_doc, capsys):
        # exact in Alphabet and dioph, but the decoder needs float values
        tiny_doc["S"] = [-(10**400), 0, 10**400]
        path = write_instance(tmp_path / "wide.json", tiny_doc)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid instance: alphabet values")
        assert "Traceback" not in err

    def test_alphabet_overflowing_residual_exits_1(self, ex_file, tmp_path, capsys):
        # +-1e160 converts to float, but squared residuals of that size do not
        doc = json.loads(Path(ex_file).read_text(encoding="utf-8"))
        doc["S"] = [-(10**160), 0, 10**160]
        path = write_instance(tmp_path / "wide.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid instance: alphabet values up to 1e+160")
        assert "Traceback" not in err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", str(path)]) == 1

    def test_infeasible_exits_2(self, tmp_path, capsys):
        doc = {
            "Y": [[1.0, 1.0]],
            "G": [[1.0]],
            "A": [[1, 0], [0, 1]],
            "S": [-1, 0, 1],
            "K": 2,
            "N": 1,
        }
        path = write_instance(tmp_path / "inf.json", doc)
        assert main(["solve", path]) == 2
        assert "rank" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        assert main(["solve"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestCheckCommand:
    def test_worked_example_matches_oracle(self, ex_file, capsys):
        assert main(["check", str(ex_file)]) == 0
        out = capsys.readouterr().out
        assert "objectives match: True" in out

    def test_budget_env_refusal_exits_3(self, ex_file, monkeypatch, capsys):
        monkeypatch.setenv("CILS_ORACLE_BUDGET", "100")
        assert main(["check", str(ex_file)]) == 3

    def test_bad_budget_env_exits_1(self, ex_file, monkeypatch):
        monkeypatch.setenv("CILS_ORACLE_BUDGET", "lots")
        assert main(["check", str(ex_file)]) == 1

    def test_random_small_instances_match(self, tmp_path, capsys):
        for seed in range(5):
            gen_out = tmp_path / f"g{seed}.json"
            code = main([
                "gen", "--rows", "2", "--cols", "5", "--meas", "3",
                "--sparsity", "3", "--seed", str(seed), "--out", str(gen_out),
            ])
            assert code == 0
            assert main(["check", str(gen_out)]) == 0


class TestGenCommand:
    def gen_args(self, out, seed=0):
        return [
            "gen", "--rows", "2", "--cols", "5", "--meas", "3",
            "--sparsity", "3", "--seed", str(seed), "--out", str(out),
        ]

    def test_writes_instance_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(self.gen_args(out)) == 0
        sidecar = planted_sidecar_path(str(out))
        assert sidecar.endswith("inst.planted.json")
        doc = json.loads(out.read_text(encoding="utf-8"))
        planted = json.loads(Path(sidecar).read_text(encoding="utf-8"))
        assert set(doc) == {"Y", "G", "A", "S", "K", "N"}
        assert len(planted["X"]) == 2

    def test_round_trip_identical_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(self.gen_args(out)) == 0
        inst = load_instance(out)
        from cils import GenSpec, Alphabet, generate_instance

        spec = GenSpec(
            n_rows=2, n_cols=5, n_meas=3, alphabet=Alphabet((-1, 0, 1)),
            sparsity=3, sigma=0.2, seed=0, trials=1,
        )
        direct, _ = generate_instance(spec)
        assert np.array_equal(inst.Y, direct.Y)
        assert np.array_equal(inst.G, direct.G)
        assert inst.A == direct.A

    def test_fixed_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.gen_args(a, seed=5)) == 0
        assert main(self.gen_args(b, seed=5)) == 0
        assert a.read_bytes() == b.read_bytes()
        sa = planted_sidecar_path(str(a))
        sb = planted_sidecar_path(str(b))
        assert Path(sa).read_bytes() == Path(sb).read_bytes()

    def test_sigma_zero_then_solve_objective_zero(self, tmp_path, capsys):
        out = tmp_path / "noiseless.json"
        args = self.gen_args(out) + ["--sigma", "0.0"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["solve", "--json", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] <= 1e-24

    def test_impossible_alphabet_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        args = self.gen_args(out) + ["--alphabet", "0"]
        assert main(args) == 2


class TestBenchCommand:
    SPEC = {"rows": 2, "cols": 5, "meas": 3, "S": [-1, 0, 1], "K": 3, "trials": 1}

    def write_specs(self, tmp_path, specs):
        specfile = tmp_path / "specs.json"
        specfile.write_text(json.dumps(specs), encoding="utf-8")
        return str(specfile)

    def test_two_spec_file_two_records(self, tmp_path, capsys):
        specfile = self.write_specs(tmp_path, [self.SPEC, {**self.SPEC, "cols": 6, "seed": 1}])
        out = tmp_path / "bench.json"
        assert main(["bench", specfile, "--out", str(out)]) == 0
        records = json.loads(out.read_text(encoding="utf-8"))
        assert [r["cols"] for r in records] == [5, 6]
        assert [r["seed"] for r in records] == [0, 1]
        assert all(r["column_reads"] >= 1 for r in records)
        assert "column_reads=" in capsys.readouterr().out

    def test_malformed_specfile_exits_1(self, tmp_path, capsys):
        specfile = self.write_specs(tmp_path, {"rows": 2})
        out = tmp_path / "bench.json"
        assert main(["bench", specfile, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"sparsity": 1}, "sparsity"),
            ({"S": [False, True]}, "S"),
            ({"rows": True}, "rows"),
            ({"rows": 2.0}, "rows"),
            ({"trials": 1.5}, "trials"),
            ({"sigma": float("nan")}, "sigma"),
            ({"sigma": float("inf")}, "sigma"),
            ({"sigma": "0.2"}, "sigma"),
            ({"rows": None}, "rows"),
        ],
        ids=[
            "misspelt-K", "bool-S", "bool-rows", "float-rows", "float-trials",
            "nan-sigma", "inf-sigma", "str-sigma", "missing-rows",
        ],
    )
    def test_bad_spec_exits_1_naming_index_and_key(self, tmp_path, capsys, change, key):
        # the bad spec comes second, after a valid one, so the message must
        # name index 1 and the run must leave no partial output behind
        bad = {k: v for k, v in {**self.SPEC, **change}.items() if v is not None}
        specfile = self.write_specs(tmp_path, [self.SPEC, bad])
        out = tmp_path / "bench.json"
        assert main(["bench", specfile, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {specfile}: spec 1: ")
        assert f"key {key!r}" in err
        assert "Traceback" not in err
        assert not out.exists()
