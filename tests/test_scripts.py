"""The scripts under scripts/, run through their main(argv)."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("uniformity_campaign", ["--n", "6"], "sample mode: n must be 1..5, got 6"),
        ("uniformity_campaign", ["--trials", "0"], "trials must be >= 1, got 0"),
        ("uniformity_campaign", ["--n", "0"], "sample mode: n must be 1..5, got 0"),
        ("uniformity_campaign", ["--trials", "-1"], "trials must be >= 1, got -1"),
        ("uniformity_campaign", ["--seed0", "-1"], "seed must be >= 0, got -1"),
        ("uniformity_campaign", ["--seeds", "0"], "seeds must be >= 1, got 0"),
        ("uniformity_campaign", ["--seeds", "-3"], "seeds must be >= 1, got -3"),
    ],
)
def test_malformed_input_exits_2_with_a_message(name, argv, message, capsys):
    assert load(name).main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_missing_input_file_exits_2_with_a_message(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    assert load("uniformity_campaign").main(["--input", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_uniformity_campaign_reports_trials_too_many_to_allocate(capsys):
    # 8 PB of fidelities: the first campaign's allocation fails at once.
    assert load("uniformity_campaign").main(["--n", "1", "--trials", str(10 ** 15)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate")


def test_uniformity_campaign_runs(capsys):
    assert load("uniformity_campaign").main(["--n", "1", "--trials", "40", "--seeds", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "n=1 trials=40 input=random"
    assert len(out.splitlines()) == 4 and err == ""

