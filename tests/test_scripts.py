"""The scripts under scripts/, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BUNDLED = ROOT / "src" / "dscodes" / "data" / "code_11_1_5.txt"


def run_script(name, *args, check=True):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=check,
    )


def test_find_d5_code_reproduces_bundled_code(tmp_path):
    out = tmp_path / "eleven.code"
    run_script("find_d5_code.py", "--seed", "2", "--restarts", "1", "--kicks", "6",
               "--out", str(out))
    assert out.read_bytes() == BUNDLED.read_bytes()


def test_find_d5_code_refuses_oversized_search():
    # n + k + 2 = 34 exceeds the search's sidespace limit: a usage error,
    # not the "no code found" status 1.
    result = run_script("find_d5_code.py", "--n", "31", check=False)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def test_noise_sweep_smoke():
    lines = run_script("noise_sweep.py", "--trials", "200", "--rates", "0.01").stdout.splitlines()
    assert lines[0] == "decoder\tp\tq\ttrials\tfailures\tlogical\tflagged\tseed"
    assert [line.split("\t")[0] for line in lines[1:]] == ["bare-data-only", "parity-augmented"]
    for line in lines[1:]:
        fields = line.split("\t")
        assert fields[1:4] == ["0.010000", "0.005000", "200"]
        failures, logical, flagged = map(int, fields[4:7])
        assert failures == logical + flagged <= 200
        assert fields[7] == "0"


@pytest.mark.parametrize(
    "args",
    [["--trials", "0"], ["--trials", "-5"], ["--rates", "3"], ["--rates", "0.01,abc"]],
)
def test_noise_sweep_refuses_bad_input(args):
    # Every rate is parsed before the header prints, so a bad one late in
    # the list leaves stdout empty.
    result = run_script("noise_sweep.py", *args, check=False)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
