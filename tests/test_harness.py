"""Two-party sessions: determinism, message purity, the message boundary."""
from __future__ import annotations

import numpy as np
import pytest

from teleportsim import clear_caches, cli
from teleportsim.bell import BellState, decode
from teleportsim.cli import CampaignConfig, run_campaign
from teleportsim.harness import run_session
from teleportsim.qstate import make_state
from teleportsim.teleport import corrections_from_message, teleport_branches

from conftest import TOL, rand_state


@pytest.fixture
def phi():
    return rand_state(np.random.default_rng(3), 2, prefix="x")


def test_session_is_deterministic(phi):
    a = run_session(phi, seed=42)
    b = run_session(phi, seed=42)
    assert a.to_dict() == b.to_dict()
    assert a.final_fidelity >= 1 - TOL


def test_different_seeds_reach_different_outcomes(phi):
    messages = {run_session(phi, seed=s).message for s in range(12)}
    assert len(messages) > 1


def test_message_carries_two_bits_per_pair(phi):
    for n, xi in ((1, rand_state(np.random.default_rng(1), 1)), (2, phi)):
        t = run_session(xi, seed=7)
        assert len(t.message) == 2 * n
        assert t.outcomes == decode(t.message)


def test_correction_is_pure_function_of_message(phi):
    for seed in range(8):
        t = run_session(phi, seed=seed)
        assert corrections_from_message(t.message, BellState.PSI_MINUS) == t.corrections


def test_default_and_explicit_resource_share_one_cached_correction(phi):
    t = run_session(phi, seed=3)
    assert corrections_from_message(t.message, BellState.PSI_MINUS) is t.corrections


def test_correction_cache_holds_one_entry_per_message_and_resource(phi):
    clear_caches()
    drawn = set()
    for resource in (BellState.PSI_MINUS, BellState.PHI_PLUS):
        for seed in range(60):
            drawn.add((run_session(phi, seed, resource).message, resource))
    assert corrections_from_message.cache_info().currsize == len(drawn)
    # Positional-only: a keyword call cannot make a second key for one pair.
    with pytest.raises(TypeError):
        corrections_from_message("01", resource=BellState.PHI_PLUS)


def test_session_accepts_alternate_resource(phi):
    t = run_session(phi, seed=5, resource=BellState.PHI_PLUS)
    assert t.final_fidelity >= 1 - TOL
    assert corrections_from_message(t.message, BellState.PHI_PLUS) == t.corrections


def test_session_width_checks(phi):
    with pytest.raises(ValueError, match="seed is required"):
        run_session(phi, seed=None)
    six = rand_state(np.random.default_rng(0), 6)
    with pytest.raises(ValueError, match="1..5"):
        run_session(six, seed=1)


def test_sessions_land_on_enumerated_branches(phi):
    # Every sampled session reproduces, exactly, the exhaustive
    # engine's transcript of the branch it drew.
    branches = {t.message: t.to_dict() for t in teleport_branches(phi)}
    assert len(branches) == 16
    for t in branches.values():
        assert t["final_fidelity"] >= 1 - TOL
        assert t["branch_probability"] == pytest.approx(1 / 16, abs=TOL)
        assert t["bell_pairs_consumed"] == 2
    seen = set()
    for seed in range(40):
        t = run_session(phi, seed)
        assert t.to_dict() == branches[t.message]
        seen.add(t.message)
    assert len(seen) > 8


@pytest.mark.parametrize("seed", [0, 9, 2**32, 2**100 + 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_a_trial_replays_alone(n, seed, monkeypatch):
    # A campaign's sessions read one stream, n doubles each, so trial i is
    # the session given the trials' stream advanced past i * n doubles.
    sessions = []

    def recorded(xi, rng):
        sessions.append((xi, run_session(xi, rng)))
        return sessions[-1][1]

    monkeypatch.setattr(cli, "run_session", recorded)
    run_campaign(CampaignConfig(n=n, trials=40, seed=seed))
    assert len(sessions) == 40
    for i in (0, 20, 39):
        xi, want = sessions[i]
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        rng.bit_generator.advance(i * n)
        got = run_session(xi, rng)
        assert got.message == want.message
        assert got.final_fidelity.hex() == want.final_fidelity.hex()


def test_message_validation():
    with pytest.raises(ValueError, match="even-length bit string"):
        corrections_from_message("011", BellState.PSI_MINUS)
    with pytest.raises(ValueError, match="even-length bit string"):
        corrections_from_message("0a", BellState.PSI_MINUS)
    # Well-formed bits, but no session sends them: zero pairs, or more than five.
    with pytest.raises(ValueError, match=r"message: n must be 1\.\.5, got 0"):
        corrections_from_message("", BellState.PSI_MINUS)
    with pytest.raises(ValueError, match=r"message: n must be 1\.\.5, got 7"):
        corrections_from_message("01" * 7, BellState.PSI_MINUS)
    assert decode("0111") == (
        BellState.PSI_PLUS,
        BellState.PHI_PLUS,
    )


def test_session_over_entangled_input():
    ghz = make_state(("x1", "x2", "x3"), [1, 0, 0, 0, 0, 0, 0, 1])
    t = run_session(ghz, seed=11)
    assert t.final_fidelity >= 1 - TOL
    assert t.single_qubit_ops <= 6
