"""Pauli correction algebra: per-qubit factors, labeled products, tokens.

A correction is a product of single-qubit factors from {I, X, Z, ZX},
each attached to one qubit, together with a phase of exactly +-1 or +-i.
ZX means "apply X, then Z". Factors on distinct qubits commute, so a
PauliString stores at most one factor per qubit.

Every factor product is a signed permutation of the computational basis,
as in a stabilizer tableau, so a string is applied by one index gather.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .qstate import (
    IDENTITY_GATE,
    X_GATE,
    Z_GATE,
    ZX_GATE,
    StateVector,
    _state,
    _targets_first,
    _transpose,
)


class PauliFactor(Enum):
    """Z^z X^x, named by its (x, z) bits: I (0, 0), X (1, 0), Z (0, 1), ZX (1, 1)."""

    I = "I"
    X = "X"
    Z = "Z"
    ZX = "ZX"

    @property
    def x(self) -> int:
        return int("X" in self.value)

    @property
    def z(self) -> int:
        return int("Z" in self.value)

    @staticmethod
    def from_bits(x: int, z: int) -> "PauliFactor":
        return _BY_BITS[x, z]

    @property
    def matrix(self) -> np.ndarray:
        return _GATES[self].matrix

    @property
    def op_count(self) -> int:
        # One elementary single-qubit operation per set bit; I costs none.
        return self.x + self.z


_GATES = {
    PauliFactor.I: IDENTITY_GATE,
    PauliFactor.X: X_GATE,
    PauliFactor.Z: Z_GATE,
    PauliFactor.ZX: ZX_GATE,
}
_BY_BITS = {(f.x, f.z): f for f in PauliFactor}
# Each factor's sign per output basis index: Z's diagonal, or no sign.
_Z_SIGNS, _NO_SIGNS = Z_GATE.matrix.diagonal().real, np.ones(2)
_PHASE_TOKENS = {"+1": 1, "-1": -1, "+i": 1j, "-i": -1j, "1": 1, "i": 1j}
# The exact phases a string may carry, and how tokens() writes them.
_PHASE_NAMES = {1: "+1", -1: "-1", 1j: "+i", -1j: "-i"}


def signed_permutation(factors: tuple[PauliFactor, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Index form of the product of `factors`, the first on the most
    significant qubit: (P a)[i] == sign[i] * a[perm[i]].

    Read off the string's bits: the X bits flip index bits, so perm is
    i XOR the X mask, and sign is the Kronecker product of Z's diagonal
    over the qubits with a Z bit, so the Z sign convention keeps its single
    home in qstate. Both arrays are fresh on every call.
    """
    xmask, sign = 0, np.ones(1)
    for f in factors:
        xmask = 2 * xmask + f.x
        sign = np.multiply.outer(sign, _Z_SIGNS if f.z else _NO_SIGNS).reshape(-1)
    return np.arange(sign.size) ^ xmask, sign


@dataclass(frozen=True)
class PauliString:
    """Phase times a product of factors on distinct qubits.

    `factors` keeps only non-identity entries, in a stable order; the
    identity correction is the empty product.
    """

    factors: tuple[tuple[str, PauliFactor], ...] = ()
    phase: complex = field(default=1.0 + 0j)
    _gathers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        qubits = [q for q, _ in self.factors]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in factors {self.factors}")
        if any(f is PauliFactor.I for _, f in self.factors):
            raise ValueError("identity factors must be omitted, not stored")
        if self.phase not in _PHASE_NAMES:
            raise ValueError(f"phase {self.phase!r} is not exactly 1, -1, 1j or -1j")

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, PauliFactor]], phase: complex = 1.0
    ) -> "PauliString":
        kept = tuple((q, f) for q, f in pairs if f is not PauliFactor.I)
        return cls(kept, complex(phase))

    @functools.cached_property
    def op_count(self) -> int:
        # Cached: a message's correction is built once and shared by sessions.
        return sum(f.op_count for _, f in self.factors)

    @property
    def qubits(self) -> tuple[str, ...]:
        return tuple(q for q, _ in self.factors)

    def _on(self, order: tuple[str, ...]) -> tuple[PauliFactor, ...]:
        """The factor on each qubit of `order`; one outside it raises, not vanishes."""
        _targets_first(order, self.qubits)
        by_qubit = dict(self.factors)
        return tuple(by_qubit.get(q, PauliFactor.I) for q in order)

    def gather(
        self, order: Sequence[str], to: Sequence[str] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The string's one array form from amplitudes on `order` to corrected ones on
        `to` (default `order`; first = MSB), the transpose folded into perm and the phase
        into the signs: out[i] == signs[i] * a[perm[i]]. Read-only, kept per (order, to)."""
        order = tuple(order)
        to = order if to is None else tuple(to)
        form = self._gathers.get((order, to))
        if form is None:
            perm, signs = signed_permutation(self._on(to))
            if to != order:
                shape, axes = _transpose(order, to)
                perm = np.arange(perm.size).reshape(shape).transpose(axes).reshape(-1)[perm]
            if self.phase != 1:
                signs = signs * self.phase
            perm.setflags(write=False)
            signs.setflags(write=False)
            form = self._gathers[order, to] = (perm, signs)
        return form

    def apply(self, state: StateVector, order: Sequence[str] | None = None) -> StateVector:
        """The corrected state on `order` (default: the state's own order), by one gather."""
        order = state.qubits if order is None else tuple(order)
        perm, signs = self.gather(state.qubits, order)
        return _state(order, state.amps[perm] * signs)

    def matrix(self, qubit_order: Sequence[str]) -> np.ndarray:
        """Full operator on the given qubit ordering (first qubit = MSB)."""
        out = np.array([[self.phase]], dtype=complex)
        for f in self._on(tuple(qubit_order)):
            out = np.kron(out, f.matrix)
        return out

    def tokens(self) -> str:
        parts = [f"{f.value}@{q}" for q, f in self.factors] or ["I"]
        if self.phase != 1:
            parts.insert(0, _PHASE_NAMES[self.phase])
        return " ".join(parts)


def parse_pauli_tokens(text: str) -> PauliString:
    """Parse tokens like 'Z@b1 X@b2'. Tokens apply right-to-left; repeated
    factors on one qubit are composed exactly, with the resulting sign
    folded into the phase. Every +1/-1/+i/-i token multiplies the phase,
    wherever it stands: "Z@b1 -1" parses to "-1 Z@b1"."""
    phase = complex(1.0)
    bits: dict[str, tuple[int, int]] = {}
    for tok in text.split():
        if tok in _PHASE_TOKENS:
            phase *= _PHASE_TOKENS[tok]
            continue
        if tok == "I":
            continue
        name, _, qubit = tok.partition("@")
        if not qubit or name not in PauliFactor.__members__:
            raise ValueError(f"bad correction token {tok!r}")
        f = PauliFactor[name]
        x, z = bits.get(qubit, (0, 0))
        # Written left-to-right, applied right-to-left: compose on the right,
        # (Z^z X^x)(Z^z' X^x') = (-1)^(x z') Z^(z ^ z') X^(x ^ x'), since X and
        # Z anticommute and each squares to I.
        if x and f.z:
            phase = -phase
        bits[qubit] = (x ^ f.x, z ^ f.z)
    pairs = ((q, PauliFactor.from_bits(x, z)) for q, (x, z) in bits.items())
    return PauliString.from_pairs(pairs, phase)
