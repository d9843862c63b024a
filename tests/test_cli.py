import io

import pytest

from dscodes.cli import main

from reference_tables import (
    FIVE_QUBIT_AUGMENTED_TABLE,
    FIVE_QUBIT_TABLE,
    STEANE_TABLE,
)


def run(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


class TestTables:
    def test_table_one(self):
        status, text = run(["tables", "I"])
        assert status == 0
        assert text.splitlines() == [f"{e}\t{s}" for e, s in FIVE_QUBIT_TABLE]

    def test_table_two(self):
        status, text = run(["tables", "II"])
        assert status == 0
        assert text.splitlines() == [f"{e}\t{s}" for e, s in FIVE_QUBIT_AUGMENTED_TABLE]

    def test_table_three(self):
        status, text = run(["tables", "III"])
        assert status == 0
        assert text.splitlines() == [f"{e}\t{a}\t{b}" for e, a, b in STEANE_TABLE]

    def test_specific_cells(self):
        _, text = run(["tables", "I"])
        assert text.splitlines()[1] == "XIIII\t0,0,0,1"
        _, text = run(["tables", "II"])
        assert text.splitlines()[-1] == "s4 flip\t0,0,0,0,1"
        _, text = run(["tables", "III"])
        row = next(l for l in text.splitlines() if l.startswith("ZIIIIII\t"))
        assert row == "ZIIIIII\t1,0,0,0,0,0\t1,0,0,1,1,1"


class TestDistance:
    def test_five_qubit(self):
        status, text = run(["distance", "--code", "five_qubit", "--cutoff", "5"])
        assert status == 0 and text == "d=3 d_pure=3\n"

    def test_default_cutoff(self):
        status, text = run(["distance", "--code", "steane_css"])
        assert status == 0 and text == "d=3 d_pure=3\n"

    def test_cutoff_cap(self):
        status, text = run(["distance", "--code", "five_qubit", "--cutoff", "2"])
        assert status == 0 and text == "d=>2 d_pure=>2\n"

    def test_cutoff_above_qubit_count_is_usage_error(self, capsys):
        status, text = run(["distance", "--code", "five_qubit", "--cutoff", "6"])
        assert status == 2 and text == ""
        assert "error: cutoff 6 exceeds qubit count 5" in capsys.readouterr().err


class TestVerify:
    def test_global_collision_exit_one(self):
        status, text = run(["verify-global", "--checkset", "five_qubit", "--budget", "sym:1"])
        assert status == 1
        assert "data=XIIII flips=0000" in text
        assert "data=IIIII flips=0001" in text
        assert "syndrome=0,0,0,1" in text

    def test_global_ok_exit_zero(self, tmp_path, augmented_five):
        from dscodes.code import save_checkset

        path = tmp_path / "aug.checks"
        save_checkset(augmented_five, path)
        status, text = run(["verify-global", "--checkset", str(path), "--budget", "sym:1"])
        assert status == 0 and text.startswith("ok: 21 faults")

    def test_all_pairs_flag(self):
        status, _ = run(
            ["verify-global", "--checkset", "steane_alt", "--budget", "sym:1", "--all-pairs"]
        )
        assert status == 0

    def test_lemma1(self):
        status, _ = run(["verify-lemma1", "--checkset", "five_qubit", "--d", "3"])
        assert status == 1

    def test_oa(self):
        status, text = run(["verify-oa", "--code", "five_qubit", "--l", "2"])
        assert status == 0 and "uniform" in text

    def test_cap_refusal_is_usage_error(self):
        status, _ = run(
            ["verify-global", "--checkset", "five_qubit", "--budget", "sym:3", "--cap", "10"]
        )
        assert status == 2


class TestBound:
    def test_symmetric_violation(self):
        status, text = run(["bound", "symmetric", "--n", "5", "--k", "1", "--r", "0", "--t", "1"])
        assert status == 1 and text == "20 > 16\n"

    def test_symmetric_satisfied(self):
        status, text = run(["bound", "symmetric", "--n", "5", "--k", "1", "--r", "1", "--t", "1"])
        assert status == 0 and text == "21 <= 32\n"

    def test_hybrid(self):
        status, text = run(
            ["bound", "hybrid", "--nq", "0", "--nc", "7", "--tq", "0", "--tc", "1", "--s", "3"]
        )
        assert status == 0 and text == "8 <= 8\n"

    def test_gv(self):
        status, text = run(["bound", "gv", "--n", "11", "--k", "1", "--d", "3"])
        assert status == 0 and text == "528 <= 1024\n"

    def test_singleton(self):
        status, _ = run(["bound", "singleton", "--n", "4", "--k", "1", "--d", "3"])
        assert status == 1


class TestAugment:
    def test_parity_to_stdout(self):
        status, text = run(["augment", "--code", "five_qubit", "--method", "parity"])
        assert status == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZXIX"]
        assert any(l.startswith("#") for l in text.splitlines())

    def test_output_file_roundtrips(self, tmp_path):
        from dscodes.code import load_checkset

        path = tmp_path / "pair.checks"
        status, _ = run(
            ["augment", "--code", "steane_css", "--method", "css-pair", "--output", str(path)]
        )
        assert status == 0
        loaded = load_checkset(path)
        assert loaded.m == 8

    def test_random_method_reports_seed(self, tmp_path):
        path = tmp_path / "rand.checks"
        status, _ = run(
            [
                "augment", "--code", "five_qubit", "--method", "random",
                "--delta", "0.25", "--seed", "20240", "--output", str(path),
            ]
        )
        assert status == 0
        text = path.read_text()
        assert "seed: 20240" in text and "m: 22" in text

    def test_resynth_failure_exit_one(self):
        status, _ = run(
            ["resynth", "--code", "five_qubit", "--budget", "sym:1", "--attempts", "40", "--seed", "1"]
        )
        assert status == 1

    def test_resynth_success_on_steane(self):
        status, text = run(
            ["resynth", "--code", "steane_css", "--budget", "sym:1", "--attempts", "2000", "--seed", "5"]
        )
        assert status == 0
        ops = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(ops) == 6


class TestSimulate:
    def test_tsv_row_and_reproducibility(self):
        argv = [
            "simulate", "--checkset", "five_qubit", "--budget", "asym:1,0",
            "--p", "0.01", "--q", "0.02", "--trials", "2000", "--seed", "7",
        ]
        status, first = run(argv)
        assert status == 0
        cols = first.strip().split("\t")
        assert cols[0] == "0.010000" and cols[1] == "0.020000"
        assert cols[2] == "2000" and cols[6] == "7"
        _, second = run(argv)
        assert first == second

    def test_ml_mode(self):
        status, text = run(
            [
                "simulate", "--checkset", "steane_alt", "--budget", "sym:1",
                "--p", "0.01", "--q", "0.01", "--trials", "200", "--seed", "3", "--ml",
            ]
        )
        assert status == 0
        assert len(text.strip().split("\t")) == 7


class TestUsageErrors:
    def test_unknown_fixture(self):
        status, _ = run(["distance", "--code", "does_not_exist"])
        assert status == 2

    def test_bad_budget(self):
        status, _ = run(["verify-global", "--checkset", "five_qubit", "--budget", "nope"])
        assert status == 2

    def test_negative_budget_refused(self, capsys):
        status, text = run(["verify-global", "--checkset", "five_qubit", "--budget", "sym:-1"])
        assert status == 2 and text == ""
        assert "negative weight" in capsys.readouterr().err

    def test_resynth_zero_attempts_refused(self, capsys):
        status, text = run(
            ["resynth", "--code", "steane_css", "--budget", "sym:1", "--attempts", "0"]
        )
        assert status == 2 and text == ""
        assert "attempts must be positive" in capsys.readouterr().err

    def test_negative_ml_cap_refused(self, capsys):
        status, text = run(
            [
                "simulate", "--checkset", "five_qubit", "--p", "0.01", "--q", "0.005",
                "--trials", "1000", "--ml", "--cap", "-1",
            ]
        )
        assert status == 2 and text == ""
        assert "budget cap must be nonnegative" in capsys.readouterr().err

    def test_missing_subcommand_flag(self):
        status, _ = run(["bound", "symmetric", "--n", "5"])
        assert status == 2
