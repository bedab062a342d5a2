"""Two-party protocol harness.

Both parties run in one process over a shared state vector. The only
thing that crosses from sender to receiver is the classical message, and
that boundary is teleport._finish, which every session and every
enumerated branch ends in: the receiver's correction is decoded from the
message bits and the resource alone (corrections_from_message), and
applying it rejects a factor outside the receiver's register, which is
all the walk leaves. Erasing the sender's side after the message is
emitted therefore cannot change the receiver's result.
"""
from __future__ import annotations

import numpy as np

from .bell import BellState
from .qstate import StateVector
from .teleport import MAX_PROTOCOL_WIDTH, ProtocolTranscript, _finish, _walk, check_width


def run_session(
    xi: StateVector, seed, resource: BellState = BellState.PSI_MINUS
) -> ProtocolTranscript:
    """One seeded end-to-end session between the two parties, at xi's width.
    It reads n doubles of default_rng(seed), one per level. A Generator is
    used as it stands, so sessions given one Generator read its stream in turn."""
    check_width(xi.n_qubits, MAX_PROTOCOL_WIDTH, "session")
    if seed is None:
        raise ValueError("a seed is required; sessions have no ambient randomness")
    rng = np.random.default_rng(seed)

    [branch] = _walk(xi, resource, rng)
    return _finish(xi, *branch, resource)
