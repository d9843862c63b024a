import hashlib
import io
from pathlib import Path

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

    def test_negative_cutoff_refused(self, capsys):
        status, text = run(["distance", "--code", "steane_css", "--cutoff", "-1"])
        assert status == 2 and text == ""
        assert "cutoff must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "bound symmetric --n 5 --k 1 --r 1 --t -1",
            "bound singleton --n 5 --k 1 --d -3",
            "bound gv --n 5 --k 7 --d 3",
            "bound hybrid --nq 5 --nc 5 --tq 1 --tc 1 --s -1",
        ],
    )
    def test_vacuous_bound_refused(self, argv):
        assert run(argv.split()) == (2, "")

    def test_missing_subcommand_flag(self):
        status, _ = run(["bound", "symmetric", "--n", "5"])
        assert status == 2


# Exit status and sha256 of stdout for a fixed command list: the README
# examples, the three tables, verify-global passes and witnesses at heavier
# budgets and over a given base code, both verify-lemma1 verdicts, every
# bound family (both verdicts of symmetric and singleton), the
# constructions, and an ML simulation.  Stdout is a data
# contract, so any refactor must leave these byte for byte unchanged.
# ``{bundled}`` stands for the absolute path of the bundled [[11,1,5]] code.
BUNDLED = Path(__file__).resolve().parents[1] / "src" / "dscodes" / "data" / "code_11_1_5.txt"
_STDOUT_CONTRACT = [
    ("tables I", 0,
     "2e6bdb07979c9683886d4f88da304d28940dd9e17980dc3b96a254856c8ed15b"),
    ("tables II", 0,
     "eed9197ac30f7d292bdbdf3aee062a50b0d0b88d536e231bd0f74708edcaf297"),
    ("tables III", 0,
     "59266488750f92694a1330eaf38b3afea2f96a9dc71aa5e0ef3a71ac0ea2dc47"),
    ("distance --code steane_css --cutoff 7", 0,
     "88950dce63652ea21ae6545f3883f33e67c26827ed98bf8a2dab722e60554194"),
    ("verify-global --checkset five_qubit --budget sym:1", 1,
     "59467d1175ce9edf11096abfc3752657bdc8166bb5973c7ae0b952d17bcd61b1"),
    ("verify-global --checkset steane_alt --budget sym:1", 0,
     "4f84fef05a63eafaf8955b710b291875c7c957e651502b7928d7984fedf9f0e3"),
    ("verify-global --checkset steane_css --budget sym:2", 1,
     "d75b5e5f850dbf1efb212a956a72103f77dbceecc06f1de9d0cefc0de4123b3b"),
    ("verify-global --checkset steane_alt --budget asym:1,2", 1,
     "1fd2d70b06b1006ae931962cb5e0386adac9266560b40fdc8591c1ada0d961cd"),
    ("verify-global --checkset five_qubit --budget asym:2,1", 1,
     "b08156b16a74ca2a0e5013414c75a367c03910ee417545aa816948392cb5f27a"),
    ("verify-lemma1 --checkset five_qubit --d 3", 1,
     "7aa36febcf534209cb9d3a44c122ec5eb790e64a867c858455415f5537af13a6"),
    ("verify-lemma1 --checkset steane_alt --d 3", 0,
     "8f95df10662239123967a6baa28ce89bde5008470b3be1c730e3b55a0d9c5907"),
    ("verify-global --checkset steane_alt --code steane_css --budget sym:1", 0,
     "4f84fef05a63eafaf8955b710b291875c7c957e651502b7928d7984fedf9f0e3"),
    ("verify-oa --code five_qubit --l 2", 0,
     "ae6ecb706e62bd82db3bf34779adf55833d73cf9053b86055949bde680fda1c2"),
    ("bound symmetric --n 5 --k 1 --r 1 --t 1", 0,
     "4eb4d349739937c68a45c1102e7d433951dee8ee83f16271e5924dc876c74ed1"),
    ("bound symmetric --n 5 --k 1 --r 0 --t 1", 1,
     "9ade2a2fbbec63db2c84517ebaa940353b88823e2e86c94e62cc62f1c1284db3"),
    ("bound hybrid --nq 0 --nc 7 --tq 0 --tc 1 --s 3", 0,
     "579c063768af6cf2887b8afe19c6cd1c9605eb485ca51b7f07c91042fd7ef77e"),
    ("bound gv --n 11 --k 1 --d 3", 0,
     "df5e21a423325b65c0963eaa0cf2cf46dd1eea2daf7bfb562f22416232ab1bcf"),
    ("bound singleton --n 4 --k 1 --d 3", 1,
     "72dfbae52a570b1706fb1cba712433c8cdef23845314460f89cc5be220abc1d6"),
    ("bound singleton --n 5 --k 1 --d 3", 0,
     "704a79c6c710165e6d50ef4edaa1fdad071134b7ee1b86aa9cd61d96240b4695"),
    ("augment --code five_qubit --method parity", 0,
     "0c01adb994332bdf66ca3e9b1d15a8d25e1ee84248a1f5591371563070209898"),
    ("augment --code five_qubit --method random --delta 0.25 --seed 7", 0,
     "a83f03b24816d0ad79d96a9c2608ebc424e4ef364cd5a035f999aaebef411f8f"),
    ("augment --code {bundled} --method phf-double", 0,
     "4a707c4c05db42760b96fec10ea307773976291c60a5b3fce363b9b95f077e32"),
    ("augment --code steane_css --method css-pair", 0,
     "508871885204d2369ddba8736a55add8e7f8cfcf535be3338db3e2b86f6d5c72"),
    ("resynth --code steane_css --budget sym:1 --attempts 2000 --seed 5", 0,
     "52dc603ebfd78ff2bbf9f94253a5ea7bb57fe6026e77335aece0b7d1e35c1d9d"),
    ("simulate --checkset five_qubit --budget asym:1,0 --p 0.01 --q 0.005 --trials 100000 --seed 42", 0,
     "cbcb36a6c5b998be5fe982528f6d6ff8d925275ed9136ab7472244e5d649214d"),
    ("simulate --checkset steane_alt --budget sym:1 --p 0.01 --q 0.01 --trials 200 --seed 3 --ml", 0,
     "e8d4f723ca3f9e4132bda5c6cc0214d11f2fc834b2b70ee48b5f9a2f56d5c7be"),
]


@pytest.mark.parametrize(
    "argv, status, digest", _STDOUT_CONTRACT, ids=[c[0] for c in _STDOUT_CONTRACT]
)
def test_stdout_contract(argv, status, digest):
    got_status, text = run([word.format(bundled=BUNDLED) for word in argv.split()])
    assert (got_status, hashlib.sha256(text.encode()).hexdigest()) == (status, digest)


@pytest.mark.parametrize(
    "argv",
    [
        "augment --code five_qubit --method parity",
        "resynth --code steane_css --budget sym:1 --attempts 2000 --seed 5",
    ],
)
def test_output_file_holds_the_stdout_bytes(argv, tmp_path):
    path = tmp_path / "F"
    assert run(argv.split() + ["--output", str(path)]) == (0, "")
    assert path.read_bytes() == run(argv.split())[1].encode()
