"""Two-party sessions: determinism, message purity, ownership boundaries."""
from __future__ import annotations

import numpy as np
import pytest

from teleportsim.bell import BellState, bell_pair, decode
from teleportsim.harness import (
    LocalityError,
    Party,
    Role,
    corrections_from_message,
    run_session,
)
from teleportsim.qstate import make_state, tensor
from teleportsim.teleport import protocol_labels, teleport_branches

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
        assert corrections_from_message(t.message) == t.corrections


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


def test_receiver_cannot_measure_senders_pair():
    _, ans, bs = protocol_labels(1)
    receiver = Party(Role.RECEIVER, frozenset(bs))
    u = make_state(("x1",), [0.6, 0.8])
    joint = tensor(u, bell_pair(BellState.PSI_MINUS, ans[0], bs[0]))
    with pytest.raises(LocalityError, match="receiver does not own"):
        receiver.measure_pair(joint, ("x1", "a1"), np.random.default_rng(0))


def test_sender_cannot_correct_receivers_qubit():
    xs, ans, _ = protocol_labels(1)
    sender = Party(Role.SENDER, frozenset(xs) | frozenset(ans))
    with pytest.raises(LocalityError, match="sender does not own"):
        sender.apply_correction(
            make_state(("b1",), [1, 0]), corrections_from_message("01")
        )


def test_message_validation():
    with pytest.raises(ValueError, match="even-length bit string"):
        corrections_from_message("011")
    with pytest.raises(ValueError, match="even-length bit string"):
        corrections_from_message("0a")
    # Well-formed bits, but no session sends them: zero pairs, or more than five.
    with pytest.raises(ValueError, match=r"message: n must be 1\.\.5, got 0"):
        corrections_from_message("")
    with pytest.raises(ValueError, match=r"message: n must be 1\.\.5, got 7"):
        corrections_from_message("01" * 7)
    assert decode("0111") == (
        BellState.PSI_PLUS,
        BellState.PHI_PLUS,
    )


def test_session_over_entangled_input():
    ghz = make_state(("x1", "x2", "x3"), [1, 0, 0, 0, 0, 0, 0, 1])
    t = run_session(ghz, seed=11)
    assert t.final_fidelity >= 1 - TOL
    assert t.single_qubit_ops <= 6
