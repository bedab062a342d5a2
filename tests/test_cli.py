"""Campaign front end: config validation, statistics, modes, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from teleportsim import cli, teleport
from teleportsim.cli import (
    CampaignConfig,
    CampaignReport,
    chi_square_uniform,
    run_campaign,
    fixture_state,
    load_state,
    main,
    resolve_input,
)
from teleportsim.bell import BellState
from teleportsim.qstate import FIDELITY_TOL, StateFormatError
from teleportsim.teleport import composed_table, derive_corrections

from conftest import TOL, amplitude, format_literal, rand_state


# --- chi-square -------------------------------------------------------------


def test_chi_square_exactly_uniform_counts():
    stat, p = chi_square_uniform({"00": 25, "01": 25, "10": 25, "11": 25})
    assert stat == 0.0
    assert p == 1.0


def test_chi_square_concentrated_counts():
    stat, p = chi_square_uniform([100, 0, 0, 0])
    assert stat == pytest.approx(300.0)
    assert p < 1e-10


def test_chi_square_accepts_list_or_dict():
    a = chi_square_uniform([10, 20, 30, 40])
    b = chi_square_uniform({"d": 40, "a": 10, "b": 20, "c": 30})
    assert a == b


# cli computes the chi-square tail in closed form; scipy is the independent
# reference. The tolerance was fixed before the code: the tail's one log-space
# term carries an absolute exponent error of about (a ln a + y) eps, near 1e-12
# at df = 1023, and 2^-36 (1.46e-11) leaves a margin of about ten.
P_VALUE_RTOL = 2.0 ** -36
DOFS = [1, 2, 3, 4, 15, 63, 255, 1023]


@pytest.mark.parametrize("dof", DOFS)
def test_chi_square_p_value_matches_scipy_stats(dof):
    from scipy.special import chdtrc

    rng = np.random.default_rng(dof)
    for total in (dof // 4 + 1, 5 * (dof + 1), 200 * (dof + 1)):
        for _ in range(20):
            stat, p = chi_square_uniform(list(rng.multinomial(total, [1 / (dof + 1)] * (dof + 1))))
            assert p == pytest.approx(float(chdtrc(dof, stat)), rel=P_VALUE_RTOL, abs=0)


@pytest.mark.parametrize("dof", DOFS)
def test_chi_square_tail_on_a_statistic_grid(dof):
    # Exactly 1 at 0, never rising, and down into underflow at the larger df.
    from scipy.special import chdtrc

    grid = np.linspace(0, 8 * dof, 801)
    tail = [cli._chi_square_tail(dof, float(x)) for x in grid]
    assert tail[0] == 1.0
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    for x, p in zip(grid, tail):
        ref = float(chdtrc(dof, x))
        if ref <= 1e-290:
            assert p <= 1e-290, x
        else:
            assert p == pytest.approx(ref, rel=P_VALUE_RTOL, abs=0), x


def test_chi_square_input_validation():
    with pytest.raises(ValueError, match="two bins"):
        chi_square_uniform([100])
    with pytest.raises(ValueError, match="empty"):
        chi_square_uniform([0, 0, 0, 0])


# --- config and input resolution --------------------------------------------


def test_parser_defaults_are_the_config_defaults():
    assert CampaignConfig(**vars(cli.build_parser().parse_args([]))) == CampaignConfig()


def test_config_validation():
    with pytest.raises(ValueError, match="mode must be one of"):
        CampaignConfig(mode="fuzz")
    with pytest.raises(ValueError, match="n must be 1..5"):
        CampaignConfig(n=0)
    with pytest.raises(ValueError, match="n must be 1..5"):
        CampaignConfig(n=6)
    with pytest.raises(ValueError, match="trials must be"):
        CampaignConfig(trials=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        CampaignConfig(seed=-1)


@pytest.mark.parametrize("field, mode", [("n", "derive-table"), ("n", "sample"),
                                         ("trials", "sample"), ("seed", "sample")])
def test_config_rejects_a_non_integral_width_or_count(field, mode):
    # Named before any campaign runs, not a TypeError from range or spawn.
    with pytest.raises(ValueError, match=rf"{field} 2\.5 is not an integer"):
        CampaignConfig(mode=mode, **{field: 2.5})


def test_config_stores_plain_ints():
    # A NumPy integer reports as the int it names, and a bool width as 1, not true.
    plain = run_campaign(CampaignConfig(n=2, trials=5, seed=3)).to_json()
    numpy_ints = CampaignConfig(n=np.int64(2), trials=np.int64(5), seed=np.uint32(3))
    assert run_campaign(numpy_ints).to_json() == plain
    cfg = CampaignConfig(n=True, mode="certify")
    assert type(cfg.n) is int and cfg.n == 1
    assert '"n": 1,' in run_campaign(cfg).to_json()


def test_fixture_states():
    zero = fixture_state("zero", 2)
    assert amplitude(zero, "00") == 1
    uniform = fixture_state("uniform", 2)
    assert np.allclose(uniform.amps, 0.5)
    ghz = fixture_state("ghz", 3)
    assert amplitude(ghz, "000") == pytest.approx(1 / np.sqrt(2))
    assert amplitude(ghz, "111") == pytest.approx(1 / np.sqrt(2))
    assert amplitude(ghz, "010") == 0
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture_state("bell", 2)


def test_load_state_round_trip(tmp_path):
    xi = rand_state(np.random.default_rng(5), 2, prefix="x")
    path = tmp_path / "state.txt"
    path.write_text(format_literal(xi))
    back = load_state(path)
    assert back.qubits == xi.qubits
    assert np.allclose(back.amps, xi.amps, atol=TOL)


def test_load_state_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x1\n1,0\nnot-a-number,0\n")
    with pytest.raises(StateFormatError):
        load_state(path)


def test_resolve_input_checks_width(tmp_path):
    xi = rand_state(np.random.default_rng(6), 3, prefix="x")
    path = tmp_path / "three.txt"
    path.write_text(format_literal(xi))
    cfg = CampaignConfig(n=2, input=str(path))
    with pytest.raises(ValueError, match="campaign width"):
        resolve_input(cfg, np.random.default_rng(0))


# --- campaign modes ----------------------------------------------------------


def test_sample_campaign_statistics():
    report = run_campaign(CampaignConfig(n=2, trials=400, seed=1))
    assert sum(report.outcome_histogram.values()) == 400
    assert len(report.outcome_histogram) == 16
    assert report.resource_violations == []
    assert report.fidelity_min >= 1 - TOL
    assert report.fidelity_mean >= 1 - TOL
    assert report.chi_square_p_value > 1e-6
    assert not report.failed
    assert report.exit_code(strict=False) == 0


def test_sample_campaign_is_reproducible():
    cfg = CampaignConfig(n=1, trials=50, seed=9, input="uniform")
    a = run_campaign(cfg).to_json()
    b = run_campaign(cfg).to_json()
    assert a == b
    c = run_campaign(CampaignConfig(n=1, trials=50, seed=10, input="uniform")).to_json()
    assert a != c


def test_branches_campaign_is_exactly_uniform():
    report = run_campaign(CampaignConfig(n=2, mode="branches", seed=0))
    assert sorted(report.outcome_histogram.values()) == [1] * 16
    assert report.chi_square_statistic == 0.0
    assert report.chi_square_p_value == 1.0
    assert report.resource_violations == []
    assert report.fidelity_min >= 1 - TOL


def test_branches_campaign_width_cap():
    with pytest.raises(ValueError, match="branches mode: n must be 1..5"):
        run_campaign(CampaignConfig(n=6, mode="branches"))


def test_unsupported_width_fails_at_config(monkeypatch, capsys):
    for mode in cli.MODES:
        CampaignConfig(n=5, mode=mode)
        for n in (0, 6):
            with pytest.raises(ValueError, match=f"{mode} mode: n must be 1..5, got {n}"):
                CampaignConfig(n=n, mode=mode)

    # certify --n 6 is past every engine width: it must fail before deriving a table.
    def no_work(*args, **kwargs):
        raise AssertionError("derived a table for an unsupported width")

    monkeypatch.setattr(cli, "derive_corrections", no_work)
    assert main(["--n", "6", "--mode", "certify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: certify mode: n must be 1..5, got 6\n"


def test_sample_memory_does_not_grow_with_trials():
    # Memory is O(4^n) plus one float a trial: no transcript or seed is kept.
    def peak(trials: int) -> int:
        tracemalloc.start()
        try:
            run_campaign(CampaignConfig(n=1, trials=trials, seed=4))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_campaign(CampaignConfig(n=1, trials=50, seed=4))  # warm every cache first
    small, large = peak(500), peak(4000)
    assert large - small < 0.5 * 2 ** 20, (small, large)


def test_sample_campaign_builds_its_register_once(monkeypatch):
    # n tensor products build the register; a campaign does that once, not per trial.
    real_tensor, real_resolve = teleport.tensor, cli.resolve_input
    calls, inputs = [], []

    def counting_tensor(a, b):
        calls.append((a.qubits, b.qubits))
        return real_tensor(a, b)

    def capturing_resolve(cfg, rng):
        inputs.append(real_resolve(cfg, rng))
        return inputs[-1]

    monkeypatch.setattr(teleport, "tensor", counting_tensor)
    monkeypatch.setattr(cli, "resolve_input", capturing_resolve)
    report = run_campaign(CampaignConfig(n=3, trials=50, seed=8))
    assert sum(report.outcome_histogram.values()) == 50
    assert len(calls) == 3
    # The campaign's input hits the cache: no new products, a read-only register.
    joint = teleport._joint(inputs[0], BellState.PSI_MINUS)
    assert len(calls) == 3
    assert joint.n_qubits == 9 and joint.qubits[:2] == ("x3", "a3")
    assert joint.amps.flags.writeable is False


def test_derive_table_campaign():
    report = run_campaign(CampaignConfig(n=2, mode="derive-table"))
    assert report.table_text == derive_corrections(2).to_text()
    assert report.outcome_histogram is None
    assert report.exit_code(strict=True) == 0


def test_certify_campaign_exit_codes():
    report = run_campaign(CampaignConfig(n=2, mode="certify"))
    counts = report.certification["counts"]
    assert counts == {"match": 5, "phase_only_mismatch": 2, "operator_mismatch": 9}
    assert report.exit_code(strict=False) == 0
    assert report.exit_code(strict=True) == 1
    # The fixture's "X@b1 Z@b1" composes to -ZX, so rows 0011 and 0111 differ
    # from the oracle by their phase alone.
    verdicts = {row["code"]: row["verdict"] for row in report.certification["rows"]}
    assert [code for code, v in verdicts.items() if v == "phase_only_mismatch"] == ["0011", "0111"]
    assert [code for code, v in verdicts.items() if v == "operator_mismatch"] == [
        "0110", "1000", "1001", "1010", "1011", "1100", "1101", "1110", "1111"
    ]
    clean = run_campaign(CampaignConfig(n=1, mode="certify"))
    assert clean.certification["all_match"] is True
    assert clean.exit_code(strict=True) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_certify_holds_the_oracle_to_the_composed_rule_beyond_the_fixture(n):
    report = run_campaign(CampaignConfig(n=n, mode="certify"))
    cert = report.certification
    assert cert["counts"] == {"match": 4 ** n, "phase_only_mismatch": 0, "operator_mismatch": 0}
    assert cert["all_match"] is True
    composed = composed_table(n).to_text().splitlines()
    assert [f"{row['code']} {row['reference']}" for row in cert["rows"]] == composed
    assert report.exit_code(strict=True) == 0


def test_report_json_shape():
    report = run_campaign(CampaignConfig(n=1, trials=5, seed=2))
    d = json.loads(report.to_json())
    assert set(d) == {
        "config", "fidelity_min", "fidelity_mean", "outcome_histogram",
        "chi_square_statistic", "chi_square_p_value", "resource_violations",
        "certification", "table_text",
    }
    assert d["config"]["seed"] == 2
    assert d["certification"] is None


def test_failed_flag_thresholds():
    # The exit line is the paper's own contract, 1 - FIDELITY_TOL: a report
    # on it passes, and the next float below it fails.
    floor = 1 - FIDELITY_TOL

    def report(fidelity_min):
        return CampaignReport(
            config=CampaignConfig(),
            fidelity_min=fidelity_min,
            fidelity_mean=1.0,
            outcome_histogram=None,
            chi_square_statistic=None,
            chi_square_p_value=None,
            resource_violations=[],
            certification=None,
            table_text=None,
        )

    assert not report(floor).failed
    assert report(floor).exit_code(strict=False) == 0
    below = report(float(np.nextafter(floor, 0)))
    assert below.failed
    assert below.exit_code(strict=False) == 1
    # A NaN fidelity compares false with every floor; it must fail all the same.
    assert report(float("nan")).exit_code(strict=False) == 1


# --- command line ------------------------------------------------------------


def test_main_writes_report_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--n", "1", "--trials", "20", "--seed", "3", "--out", str(out)])
    assert code == 0
    d = json.loads(out.read_text())
    assert sum(d["outcome_histogram"].values()) == 20


def test_main_prints_to_stdout(capsys):
    code = main(["--n", "1", "--mode", "branches"])
    assert code == 0
    d = json.loads(capsys.readouterr().out)
    assert d["chi_square_statistic"] == 0.0


def test_main_strict_certify_flags_reference_disagreement():
    assert main(["--n", "2", "--mode", "certify", "--strict", "--out", "/dev/null"]) == 1
    assert main(["--n", "2", "--mode", "certify", "--out", "/dev/null"]) == 0


def test_main_rejects_a_negative_seed_by_name(capsys):
    assert main(["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_main_reports_usage_errors(capsys, tmp_path):
    assert main(["--input", "/no/such/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--n", "6", "--mode", "certify"]) == 2
    # A directory is not a report file: a usage error, not a traceback.
    assert main(["--n", "1", "--trials", "3", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    # Finite amplitudes whose norm overflows: a bad literal, not a crash.
    huge = tmp_path / "huge.txt"
    huge.write_text("q1 q2\n1e308,0\n1e308,0\n0,0\n0,0\n")
    assert main(["--n", "2", "--input", str(huge)]) == 2
    assert "too large" in capsys.readouterr().err
    # A nonzero norm below NORM_TOL is too small, not zero.
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("q1\n1e-13,0\n0,0\n")
    assert main(["--n", "1", "--input", str(tiny)]) == 2
    assert "too small" in capsys.readouterr().err
    tiny.write_text("q1\n0,0\n0,0\n")
    assert main(["--n", "1", "--input", str(tiny)]) == 2
    assert "zero state vector" in capsys.readouterr().err


def test_main_rejects_a_literal_wider_than_the_cap(capsys, tmp_path):
    # 40 labels would ask for 2^40 rows; the cap is named before any is read.
    wide = tmp_path / "wide.txt"
    wide.write_text(" ".join(f"q{i}" for i in range(1, 41)) + "\n1,0\n")
    assert main(["--n", "2", "--input", str(wide)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: register of 40 qubits exceeds the 16-qubit cap\n"


def test_main_reports_trials_too_many_to_allocate(capsys):
    # 8 PB of fidelities is beyond any 47-bit address space, so the
    # allocation fails at once without touching memory.
    assert main(["--n", "1", "--trials", str(10 ** 15)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


# Runs in a fresh interpreter; prints whether any scipy module is loaded after each mode.
SCIPY_PROBE = """
import sys
from teleportsim import cli

for argv in (["--mode", "derive-table", "--n", "2"], ["--mode", "certify", "--n", "2"],
             ["--mode", "sample", "--n", "1", "--trials", "20"], ["--mode", "branches", "--n", "1"]):
    code = cli.main(argv + ["--out", sys.argv[1]])
    print(argv[1], code, "scipy" in sys.modules)
"""


def test_no_mode_loads_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "report.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "derive-table 0 False",
        "certify 0 False",
        "sample 0 False",
        "branches 0 False",
    ]
