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
        ("certify_tables", ["6"], "table derivation: n must be 1..5, got 6"),
        ("certify_tables", ["1", "6"], "table derivation: n must be 1..5, got 6"),
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


def test_certify_tables_runs(capsys):
    assert load("certify_tables").main(["1"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("width 1 vs fixture: ")


def test_certify_tables_reports_the_fixture_mismatches(capsys):
    # Width 2's fixture has known mismatches (exit 1); width 3 has no
    # fixture and is certified against the composed rule.
    assert load("certify_tables").main(["2", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "width 2 vs fixture: "
        "{'match': 5, 'phase_only_mismatch': 2, 'operator_mismatch': 9}"
    )
    codes = ("0011", "0110", "0111", "1000", "1001", "1010", "1011", "1100", "1101", "1110", "1111")
    assert [line.split()[:2] for line in lines[1:-1]] == [
        [code, "[phase_only_mismatch]" if code in ("0011", "0111") else "[operator_mismatch]"]
        for code in codes
    ]
    assert lines[-1] == (
        "width 3 vs composed rule: "
        "{'match': 64, 'phase_only_mismatch': 0, 'operator_mismatch': 0}"
    )


def test_certify_tables_all_rows_prints_every_row(capsys):
    # --all-rows prints the matching rows too: 4 + 16 rows under two headers.
    # The fixture's "X@b1 Z@b1" composes to -ZX, so rows 0011 and 0111 differ
    # from the oracle by their phase alone.
    assert load("certify_tables").main(["1", "2", "--all-rows"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "width 1 vs fixture: {'match': 4, 'phase_only_mismatch': 0, 'operator_mismatch': 0}"
    )
    assert lines[5] == (
        "width 2 vs fixture: {'match': 5, 'phase_only_mismatch': 2, 'operator_mismatch': 9}"
    )
    rows = [line.split()[:2] for line in lines[1:5] + lines[6:]]
    assert [code for code, _ in rows] == [f"{i:02b}" for i in range(4)] + [
        f"{i:04b}" for i in range(16)
    ]
    assert all(verdict == "[match]" for _, verdict in rows[:4])
    verdicts = [verdict for _, verdict in rows[4:]]
    assert verdicts.count("[match]") == 5 and verdicts.count("[operator_mismatch]") == 9
    assert [code for code, verdict in rows if verdict == "[phase_only_mismatch]"] == [
        "0011",
        "0111",
    ]
