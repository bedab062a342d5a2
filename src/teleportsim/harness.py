"""Two-party protocol harness.

Both parties run in one process over a shared state vector, behind an
ownership-checked facade: the sender may only measure qubits it owns, the
receiver may only correct qubits it owns, and the receiver's corrections
are a pure function of the classical message bits. Nothing else crosses
the boundary, so erasing the sender's side after the message is emitted
cannot change the receiver's result.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bell import BellState, decode, draw_branch, encode, measure_bell_branches
from .pauli import PauliString
from .qstate import StateVector
from .teleport import (
    MAX_PROTOCOL_WIDTH,
    ProtocolTranscript,
    _finish,
    _walk,
    check_width,
    composed_correction,
    protocol_labels,
)


class Role(Enum):
    SENDER = "sender"
    RECEIVER = "receiver"


class LocalityError(RuntimeError):
    """A party acted on a qubit it does not own."""


@dataclass(frozen=True)
class Party:
    role: Role
    owned: frozenset[str]

    def check_owns(self, qubits: Sequence[str]) -> None:
        missing = set(qubits) - self.owned
        if missing:
            raise LocalityError(
                f"{self.role.value} does not own {sorted(missing)}"
            )

    def measure_pair(
        self, state: StateVector, pair: tuple[str, str], rng: np.random.Generator
    ):
        self.check_owns(pair)
        return draw_branch(measure_bell_branches(state, pair), rng)

    def apply_correction(self, state: StateVector, correction: PauliString) -> StateVector:
        self.check_owns(correction.qubits)
        return correction.apply(state)


def corrections_from_message(
    message: str,
    resource: BellState = BellState.PSI_MINUS,
) -> PauliString:
    """The receiver's correction, computed from the message bits alone."""
    return composed_correction(decode(message), resource)


def run_session(
    xi: StateVector, seed, resource: BellState = BellState.PSI_MINUS
) -> ProtocolTranscript:
    """One seeded end-to-end session between the two parties, at xi's width."""
    check_width(xi.n_qubits, MAX_PROTOCOL_WIDTH, "session")
    if seed is None:
        raise ValueError("a seed is required; sessions have no ambient randomness")
    rng = np.random.default_rng(seed)

    xs, ans, bs = protocol_labels(xi.n_qubits)
    sender = Party(Role.SENDER, frozenset(xs) | frozenset(ans))
    receiver = Party(Role.RECEIVER, frozenset(bs))
    [(outcomes, prob, state)] = _walk(
        xi, resource, lambda state, pair: [sender.measure_pair(state, pair, rng)]
    )

    # The sender's register is fully consumed; only these bits cross over.
    message = encode(outcomes)
    correction = corrections_from_message(message, resource)
    corrected = receiver.apply_correction(state, correction)
    return _finish(xi, outcomes, prob, corrected, resource, correction, message)
