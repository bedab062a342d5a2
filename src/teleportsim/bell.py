"""Bell basis, Bell-pair resources, and projective Bell measurement."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .qstate import PROB_SUM_TOL, StateVector, _state, make_state, project_qubits

_S = 1 / math.sqrt(2)


class BellState(Enum):
    """The four Bell states. Declaration order fixes the canonical outcome
    order and the 2-bit classical codes: psi- -> 00, psi+ -> 01,
    phi- -> 10, phi+ -> 11."""

    PSI_MINUS = "psi-"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PHI_PLUS = "phi+"

    @property
    def bits(self) -> str:
        return format(_ORDER.index(self), "02b")

    @property
    def amplitudes(self) -> np.ndarray:
        return _AMPLITUDES[self]

    @classmethod
    def from_bits(cls, bits: str) -> "BellState":
        if len(bits) != 2 or set(bits) - {"0", "1"}:
            raise ValueError(f"need a 2-bit code, got {bits!r}")
        return _ORDER[int(bits, 2)]


_ORDER = list(BellState)
# Validated and normalized once, here: make_state's rows differ from the
# raw _S rows by an ulp, and every pair and projection uses these bits.
_AMPLITUDES = {
    kind: make_state(("a", "b"), row).amps
    for kind, row in {
        BellState.PSI_MINUS: [0, _S, -_S, 0],
        BellState.PSI_PLUS: [0, _S, _S, 0],
        BellState.PHI_MINUS: [_S, 0, 0, -_S],
        BellState.PHI_PLUS: [_S, 0, 0, _S],
    }.items()
}


@dataclass(frozen=True)
class BellOutcome:
    """One Bell measurement result on an ordered qubit pair."""

    state: BellState
    pair: tuple[str, str]
    bits: str


@dataclass(frozen=True)
class OutcomeBranch:
    """One branch of an exhaustive Bell measurement; the remainder is None
    when the branch is impossible."""

    outcome: BellOutcome
    probability: float
    remainder: StateVector | None


def bell_pair(kind: BellState, a: str, b: str) -> StateVector:
    """A fresh Bell pair of the given kind on qubits (a, b)."""
    if a == b:
        raise ValueError(f"Bell pair needs two distinct qubits, got {a!r} twice")
    return _state((a, b), kind.amplitudes)


def measure_bell_branches(state: StateVector, pair: Sequence[str]) -> list[OutcomeBranch]:
    """All four Bell branches of measuring the pair, in canonical order.

    The measured pair is consumed: remainders live on the remaining qubits.
    Branch probabilities always sum to 1.
    """
    pa, pb = pair
    branches = []
    for kind in BellState:
        prob, rem = project_qubits(state, (pa, pb), kind.amplitudes)
        outcome = BellOutcome(kind, (pa, pb), kind.bits)
        branches.append(OutcomeBranch(outcome, prob, rem))
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise RuntimeError(f"Bell branch probabilities sum to {total}, not 1")
    return branches


def draw_branch(branches: Sequence[OutcomeBranch], rng: np.random.Generator) -> OutcomeBranch:
    """Sample one branch according to its probability."""
    if rng is None:
        raise ValueError("a seeded random generator is required")
    rng = np.random.default_rng(rng)
    p = np.array([max(b.probability, 0.0) for b in branches])
    p /= p.sum()
    return branches[int(rng.choice(len(branches), p=p))]

